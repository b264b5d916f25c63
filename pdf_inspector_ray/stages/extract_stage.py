"""Extract stage (SB), and the per-payload row contract every stage shares.

The flagship stage (SURVEY.md §2.3 E1): ``extract_block`` /
``extract_and_shard_block`` are stateless function UDFs passed to
``ds.map_batches(fn, fn_kwargs=…, batch_size=None, concurrency=N,
batch_format="pyarrow")``. Each call builds a fresh ``ExtractRender`` (or
``ExtractAndShard``) for its one block and runs it, so the job runs on
Ray's already-warm task workers instead of paying a new actor process's
``ray.data`` import on every run, and holds no CPU once its blocks are done.

Detection and extraction are fused in one pass per document (the reference
parses the buffer three times — detect metadata, detect full, extract;
SURVEY.md §3.3 notes behavior, not structure, is the contract), with an
optional payload-identity cache so transcript corpora that repeat
attachments skip the whole parse. The cache lives for one run on one worker
process: ``extract_pipeline`` and ``run_to_partitioned_output`` hand every
block of a run the same ``cache_scope`` token, and a worker keeps one cache
while that token is unchanged, so a job parses each distinct payload at most
once per extract worker. A new token (the next run) starts a new cache, so a
rerun on reused task workers parses again instead of being served the last
run's rows; the cache also starts over past ``CACHE_MAX_BYTES``. There is no
job-wide dedup and no shuffle.

``guarded`` + ``payload_columns`` are the one copy of the stage contract
(SURVEY.md §2.2/§4.2) that the classify, extract, plain, HTML and routed
stages share: errors become columns, never raised, so one bad payload
cannot fail a block. Each of those stages is a field list plus a
per-document function returning one tuple of field values.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfi.detect import DetectionConfig
from ..pdfi.markdown import MarkdownOptions
from ..pdfi.objects import PdfError
from ..pdfi.process import process_pdf_mem
from ..state.checkpoint import content_hash, write_shard

EXTRACT_FIELDS = [
    ("pdf_type", pa.string()),
    ("markdown", pa.large_string()),
    ("page_count", pa.uint32()),
    ("confidence", pa.float32()),
    ("ocr_recommended", pa.bool_()),
    ("processing_time_ms", pa.uint64()),
    ("error_kind", pa.string()),
    ("error_msg", pa.string()),
]


def pdf_bytes(payload: str | bytes) -> bytes:
    """A payload as PDF bytes; the corpus stores them as latin-1 text."""
    return payload.encode("latin-1") if isinstance(payload, str) else payload


def _error_row(fields, kind: str, msg: str) -> tuple:
    """All-null row but for the ``*error_kind`` and ``error_msg`` fields."""
    return tuple(kind if name.endswith("error_kind")
                 else msg if name == "error_msg" else None
                 for name, _ in fields)


# A payload cache starts over before the payloads and row strings it holds
# (``len`` each: bytes for a latin-1 payload) would pass this size, so a
# worker's memory stays bounded however long the run.
CACHE_MAX_BYTES = 64 << 20


class _PayloadCache(dict):
    """payload → row tuple, counting ``len`` of each payload and of its
    row's strings; ``put`` drops every entry before it would pass
    ``CACHE_MAX_BYTES``."""

    def __init__(self):
        super().__init__()
        self.nbytes = 0

    def put(self, payload, row: tuple) -> None:
        size = len(payload) + sum(len(v) for v in row if isinstance(v, str))
        if self.nbytes + size > CACHE_MAX_BYTES:
            self.clear()
            self.nbytes = 0
        self[payload] = row
        self.nbytes += size


# This process's run cache: (scope token, cache). One run at a time.
_run_cache: tuple = (None, None)


def _cache_for(scope) -> _PayloadCache:
    """A new cache for ``scope=None``; else this process's run cache, kept
    while the token is unchanged and replaced (dropping the previous run's
    entries) when a new token arrives."""
    global _run_cache
    if scope is None:
        return _PayloadCache()
    if _run_cache[0] != scope:
        _run_cache = (scope, _PayloadCache())
    return _run_cache[1]


def guarded(fields, per_doc, cache: bool = False, scope=None):
    """``per_doc(payload) -> tuple`` as a row function that never raises:
    a ``PdfError`` becomes its ``.kind``, any other exception ``"Parse"``
    (poison-pill guard, SURVEY.md §4.2). With ``cache``, a payload value
    already processed is served from the cache: the returned function's
    own, or with a ``scope`` token the process's run cache, shared by every
    row function of that token until a new token or the byte cap drops
    it."""
    results = _cache_for(scope) if cache else None

    def row(payload) -> tuple:
        out = results.get(payload) if cache else None
        if out is None:
            try:
                out = per_doc(payload)
            except PdfError as e:
                out = _error_row(fields, e.kind, str(e))
            except Exception as e:  # poison-pill guard
                out = _error_row(fields, "Parse", repr(e))
            if cache:
                results.put(payload, out)
        return out
    return row


def payload_columns(batch: pa.Table, column: str, fields, row) -> pa.Table:
    """``batch`` with ``fields`` appended: ``row(payload)`` for each
    payload of ``column``, an ``Io`` error row for a null one. Input
    columns pass through untouched."""
    null = _error_row(fields, "Io", "null payload")
    rows = [null if p is None else row(p) for p in batch[column].to_pylist()]
    cols = zip(*rows) if rows else [()] * len(fields)
    for (name, typ), vals in zip(fields, cols):
        batch = batch.append_column(pa.field(name, typ), pa.array(vals, typ))
    return batch


class ExtractRender:
    """Text payload → EXTRACT_FIELDS columns. ``_process_one`` is the
    guarded per-row function; ``parsed`` counts its library calls.

    ``cache_scope`` (internal; the pipelines pass one token per run): the
    payload cache is this process's run cache for that token, shared by
    every instance built with it; ``None`` gives the instance its own.

    Parameters mirror the reference's two config structs
    (DetectionConfig detector.rs:46-63, MarkdownOptions markdown.rs:16-56),
    which are its whole extension surface.
    """

    def __init__(self,
                 detection_config: DetectionConfig | None = None,
                 markdown_options: MarkdownOptions | None = None,
                 payload_column: str = "text",
                 use_payload_cache: bool = True,
                 cache_scope=None):
        self.payload_column = payload_column
        self.parsed = 0

        def extract_one(payload) -> tuple:
            self.parsed += 1
            r = process_pdf_mem(pdf_bytes(payload), detection_config,
                                markdown_options)
            det = r.detection
            return (r.pdf_type, r.markdown, r.page_count,
                    det.confidence if det else None,
                    det.ocr_recommended if det else None,
                    r.processing_time_ms, None, None)
        self._process_one = guarded(EXTRACT_FIELDS, extract_one,
                                    use_payload_cache, cache_scope)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.process_batch(batch)

    def process_batch(self, batch: pa.Table) -> pa.Table:
        return payload_columns(batch, self.payload_column, EXTRACT_FIELDS,
                               self._process_one)


class ExtractAndShard(ExtractRender):
    """Extract fused with map-side shard writing (the file-shuffle's map
    phase, SURVEY.md §4.2 skew/partitioning). Runs inside the extract task
    so the shard encode overlaps the other tasks' extraction instead of
    waiting for a slot of its own: one LZ4 Arrow IPC shard per partition
    the block touches (``checkpoint.write_shard``). Returns only a tiny
    (part, rows, parsed) manifest — the data goes straight to the shard
    files; the block's library calls are on its first row, 0 on the rest,
    so the column sums to the job's parse count.

    Shard names are a hash of the block's ``(conv_id, turn_idx)`` values,
    so a Ray task retry overwrites its own shards instead of duplicating
    rows, and two blocks with different keys never share a name.
    """

    def __init__(self, shard_root: str, drop_columns: list[str] | None = None,
                 **kwargs):
        super().__init__(**kwargs)
        self.shard_root = shard_root
        self.drop = drop_columns or []

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parsed = self.parsed
        out = self.process_batch(batch)
        parsed = self.parsed - parsed
        out = out.drop_columns([c for c in self.drop if c in out.column_names])
        nonce = content_hash(out, ["conv_id", "turn_idx"])[:16]
        parts = pc.unique(out["part"])
        rows = []
        for part in parts.to_pylist():
            sub = out.filter(pc.equal(out["part"], part))
            write_shard(sub, self.shard_root, part, nonce)
            rows.append(sub.num_rows)
        return pa.table({"part": parts.cast(pa.int32()),
                         "rows": pa.array(rows, pa.int64()),
                         "parsed": pa.array([parsed] + [0] * (len(rows) - 1)
                                            if rows else [], pa.int64())})


def extract_block(batch: pa.Table, **kwargs) -> pa.Table:
    """Task UDF: ``ExtractRender(**kwargs)`` over one block."""
    return ExtractRender(**kwargs)(batch)


def extract_and_shard_block(batch: pa.Table, **kwargs) -> pa.Table:
    """Task UDF: ``ExtractAndShard(**kwargs)`` over one block."""
    return ExtractAndShard(**kwargs)(batch)
