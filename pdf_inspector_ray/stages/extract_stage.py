"""Extract stage (AB): one Ray Data task per block, cache scoped to one call.

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
optional payload-identity LRU so transcript corpora that repeat attachments
skip the whole parse. The LRU lives for one call, i.e. one block: the hit
rate is the payload repetition rate within a block — no cross-block or
cross-job state (task workers are reused across jobs, so a process-global
cache would turn a rerun into cache hits), no shuffle.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import pyarrow as pa

from ..pdfi.detect import DetectionConfig
from ..pdfi.markdown import MarkdownOptions
from ..pdfi.objects import PdfError
from ..pdfi.process import PdfProcessResult, process_pdf_mem

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


class _LRU(OrderedDict):
    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get_or(self, key, default=None):
        if key in self:
            self.move_to_end(key)
            return self[key]
        return default

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)


class ExtractRender:
    """Text payload → (pdf_type, markdown, …) columns; the payload LRU
    lives as long as the instance (one block under ``extract_block``).

    Parameters mirror the reference's two config structs
    (DetectionConfig detector.rs:46-63, MarkdownOptions markdown.rs:16-56),
    which are its whole extension surface.
    """

    def __init__(self,
                 detection_config: DetectionConfig | None = None,
                 markdown_options: MarkdownOptions | None = None,
                 payload_column: str = "text",
                 payload_cache_size: int = 256,
                 use_payload_cache: bool = True):
        self.detection_config = detection_config or DetectionConfig()
        self.markdown_options = markdown_options or MarkdownOptions()
        self.payload_column = payload_column
        self.use_payload_cache = use_payload_cache and payload_cache_size > 0
        self._result_cache = _LRU(payload_cache_size)

    # -- per-document -------------------------------------------------------
    def _process_one(self, data: bytes) -> tuple:
        """Returns the 8-tuple of output column values for one payload."""
        key = None
        if self.use_payload_cache:
            key = hashlib.sha256(data).digest()
            cached = self._result_cache.get_or(key)
            if cached is not None:
                return cached
        try:
            r: PdfProcessResult = process_pdf_mem(
                data, self.detection_config, self.markdown_options)
            det = r.detection
            row = (r.pdf_type, r.markdown, r.page_count,
                   det.confidence if det else None,
                   det.ocr_recommended if det else None,
                   r.processing_time_ms, None, None)
        except PdfError as e:
            row = (None, None, None, None, None, None, e.kind, str(e))
        except Exception as e:  # poison-pill guard
            row = (None, None, None, None, None, None, "Parse", repr(e))
        if key is not None:
            self._result_cache.put(key, row)
        return row

    # -- per-batch ----------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.process_batch(batch)

    def process_batch(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_column]
        n = len(payloads)
        cols: list[list] = [[None] * n for _ in EXTRACT_FIELDS]
        for i in range(n):
            val = payloads[i].as_py()
            if val is None:
                cols[6][i] = "Io"
                cols[7][i] = "null payload"
                continue
            data = val.encode("latin-1") if isinstance(val, str) else bytes(val)
            row = self._process_one(data)
            for c in range(len(EXTRACT_FIELDS)):
                cols[c][i] = row[c]
        out = batch
        for (name, typ), vals in zip(EXTRACT_FIELDS, cols):
            out = out.append_column(pa.field(name, typ), pa.array(vals, typ))
        return out


class ExtractAndShard(ExtractRender):
    """Extract fused with map-side shard writing (the file-shuffle's map
    phase, SURVEY.md §4.2 skew/partitioning). Runs inside the extract task
    so the parquet encode overlaps the other tasks' extraction instead of
    waiting for a slot of its own. Returns only a tiny (part, rows)
    manifest — the data goes straight to the partition shard files.

    Shard names are deterministic over the batch's key column, so a Ray
    task retry overwrites its own half-written shards instead of
    duplicating rows.
    """

    def __init__(self, shard_root: str, drop_columns: list[str] | None = None,
                 **kwargs):
        super().__init__(**kwargs)
        self.shard_root = shard_root
        self.drop = drop_columns or []

    def __call__(self, batch: pa.Table) -> pa.Table:
        import os

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        out = self.process_batch(batch)
        for col in self.drop:
            if col in out.column_names:
                out = out.remove_column(out.schema.get_field_index(col))
        if out.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        # deterministic per-batch nonce: hash of the batch's key columns
        key_digest = hashlib.md5(usedforsecurity=False)
        for col in ("conv_id", "turn_idx"):
            if col in out.column_names:
                for chunk in out[col].chunks:
                    for buf in chunk.buffers():
                        if buf is not None:
                            key_digest.update(buf)
        nonce = key_digest.hexdigest()[:16]
        parts_col = out["part"]
        uniq = pc.unique(parts_col).to_pylist()
        man_parts: list[int] = []
        man_rows: list[int] = []
        for part in uniq:
            mask = pc.equal(parts_col, pa.scalar(part, parts_col.type))
            sub = out.filter(mask)
            pdir = os.path.join(self.shard_root, f"part={int(part)}")
            os.makedirs(pdir, exist_ok=True)
            tmp = os.path.join(pdir, f".{nonce}.tmp")
            pq.write_table(sub, tmp, row_group_size=65536, compression="snappy")
            os.replace(tmp, os.path.join(pdir, f"{nonce}.parquet"))
            man_parts.append(int(part))
            man_rows.append(sub.num_rows)
        return pa.table({"part": pa.array(man_parts, pa.int32()),
                         "rows": pa.array(man_rows, pa.int64())})


def extract_block(batch: pa.Table, **kwargs) -> pa.Table:
    """Task UDF: ``ExtractRender(**kwargs)`` over one block."""
    return ExtractRender(**kwargs)(batch)


def extract_and_shard_block(batch: pa.Table, **kwargs) -> pa.Table:
    """Task UDF: ``ExtractAndShard(**kwargs)`` over one block."""
    return ExtractAndShard(**kwargs)(batch)
