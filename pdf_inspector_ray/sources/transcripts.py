"""Synthetic multi-turn transcript corpus (FIXTURES.md §1).

Schema matches BASELINE.json ``input_hint`` exactly:
``conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us]`` plus a ``pdf_sha256:string`` companion column recording
payload identity. ``text`` carries PDF bytes latin-1-decoded to string.

Deterministic: seed-fixed numpy RNG, no wall clock. Conversation sizes are
Zipf-distributed (a=1.5, clamped to [1, 2000]) so a few mega-conversations
exercise the skew-salting path; rows are written in a seeded shuffle so the
stable-ordering restore is actually tested; ~5% of rows carry a truncated
payload to exercise the error column.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .pdfgen import fixture_pool

EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds
GENERATOR_VERSION = 5  # v5: pool gained f32 (bogus image-codec filter)

# Golden columns: per-payload expected outputs of the per-document library,
# frozen into the corpus at synthesis time. They are the driver-checkable
# oracle for the distributed pipeline (oracle_sql SELECTs them back keyed by
# (conv_id, turn_idx)); the pipeline itself never reads them. Types mirror
# stages/classify.CLASSIFY_FIELDS and stages/extract_stage.EXTRACT_FIELDS.
GOLDEN_FIELDS = [
    # classify-stage goldens (detect_pdf_type_mem)
    ("golden_pdf_type", pa.string()),
    ("golden_page_count", pa.uint32()),
    ("golden_pages_sampled", pa.uint32()),
    ("golden_pages_with_text", pa.uint32()),
    ("golden_confidence", pa.float32()),
    ("golden_title", pa.string()),
    ("golden_ocr_recommended", pa.bool_()),
    ("golden_error_kind", pa.string()),
    # extract-stage goldens (process_pdf_mem) — may differ from the classify
    # goldens when extraction fails after a successful detection
    ("golden_x_pdf_type", pa.string()),
    ("golden_x_page_count", pa.uint32()),
    ("golden_markdown", pa.large_string()),
    ("golden_x_error_kind", pa.string()),
    # legacy-surface goldens (extract_text_mem → plain to_markdown;
    # reference src/extractor.rs:833-851 + src/markdown.rs:60-113)
    ("golden_plain_text", pa.large_string()),
    ("golden_plain_markdown", pa.large_string()),
    ("golden_plain_error_kind", pa.string()),
]

SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
    ("pdf_sha256", pa.string()),
] + [pa.field(n, t) for n, t in GOLDEN_FIELDS])

_ROLES = ("user", "assistant", "tool")


def _golden_row(data: bytes) -> dict:
    """Expected pipeline outputs for one payload: the library calls of the
    classify, extract and plain stages (``detect_pdf_type_mem``,
    ``process_pdf_mem``, ``extract_text_mem`` → ``to_markdown``) with the
    error mapping of their shared row guard, ``stages/extract_stage.guarded``
    (``PdfError`` → its kind, any other exception → ``Parse``)."""
    from ..pdfi.detect import detect_pdf_type_mem
    from ..pdfi.objects import PdfError
    from ..pdfi.process import process_pdf_mem

    row = {name: None for name, _ in GOLDEN_FIELDS}
    try:
        d = detect_pdf_type_mem(data)
        row.update(golden_pdf_type=d.pdf_type, golden_page_count=d.page_count,
                   golden_pages_sampled=d.pages_sampled,
                   golden_pages_with_text=d.pages_with_text,
                   golden_confidence=d.confidence, golden_title=d.title,
                   golden_ocr_recommended=d.ocr_recommended)
    except PdfError as e:
        row["golden_error_kind"] = e.kind
    except Exception:
        row["golden_error_kind"] = "Parse"
    try:
        r = process_pdf_mem(data)
        row.update(golden_x_pdf_type=r.pdf_type,
                   golden_x_page_count=r.page_count,
                   golden_markdown=r.markdown)
    except PdfError as e:
        row["golden_x_error_kind"] = e.kind
    except Exception:
        row["golden_x_error_kind"] = "Parse"
    try:
        from ..pdfi.extract import extract_text_mem
        from ..pdfi.markdown import to_markdown
        plain = extract_text_mem(data)
        row.update(golden_plain_text=plain,
                   golden_plain_markdown=to_markdown(plain))
    except PdfError as e:
        row["golden_plain_error_kind"] = e.kind
    except Exception:
        row["golden_plain_error_kind"] = "Parse"
    return row


def _payload_pools() -> tuple[list[str], list[str], list[str], list[str]]:
    """(clean_strs, corrupt_strs, clean_hashes, corrupt_hashes) — the
    distinct-payload pools every corpus row dictionary-indexes into."""
    pool = fixture_pool()
    pool_names = sorted(pool)
    payloads = [pool[n] for n in pool_names]
    payload_strs = [p.decode("latin-1") for p in payloads]
    corrupt_strs = [s[: max(10, len(s) // 3)] + "\x00TRUNCATED"
                    for s in payload_strs]
    payload_hashes = [hashlib.sha256(p).hexdigest() for p in payloads]
    corrupt_hashes = ["corrupt:" + h for h in payload_hashes]
    return payload_strs, corrupt_strs, payload_hashes, corrupt_hashes


def payload_pool_goldens() -> dict[str, dict]:
    """pdf_sha256 → golden-row dict for every payload the corpus can carry.
    This is the broadcast small side of the distributed equality check."""
    ps, cs, ph, ch = _payload_pools()
    return {h: _golden_row(s.encode("latin-1"))
            for h, s in zip(ph + ch, ps + cs)}


def build_transcript_table(n_turns: int, seed: int = 42,
                           corrupt_frac: float = 0.05,
                           include_goldens: bool = True) -> pa.Table:
    """Build the corpus as one Arrow table (use for tests / small scales).

    ``include_goldens=False`` skips the golden_* oracle columns — use for
    throughput-bench corpora (millions of rows) where materializing the
    per-row golden markdown would dominate build memory; the row data is
    identical either way."""
    rng = np.random.default_rng(seed)
    payload_strs, corrupt_strs, payload_hashes, corrupt_hashes = _payload_pools()

    # Zipf conversation sizes until we cover n_turns (vectorized draws)
    conv_sizes: list[int] = []
    total = 0
    while total < n_turns:
        draws = np.minimum(np.maximum(rng.zipf(1.5, size=4096), 1), 2000)
        for size in draws:
            size = int(min(size, n_turns - total))
            conv_sizes.append(size)
            total += size
            if total >= n_turns:
                break

    sizes = np.asarray(conv_sizes, dtype=np.int64)
    conv_idx = np.repeat(np.arange(len(sizes)), sizes)
    ends = np.cumsum(sizes)
    turn_idxs = np.arange(len(conv_idx)) - np.repeat(ends - sizes, sizes)
    n = len(conv_idx)

    payload_idx = rng.integers(0, len(payload_strs), size=n)
    corrupt = rng.random(n) < corrupt_frac
    # dictionary-style assembly: index into the small payload pools
    text_choice = payload_idx + corrupt.astype(np.int64) * len(payload_strs)
    text_pool = np.array(payload_strs + corrupt_strs, dtype=object)
    hash_pool = np.array(payload_hashes + corrupt_hashes, dtype=object)

    perm = rng.permutation(n)  # seeded shuffle: ordering must be restored
    conv_names = np.array([f"conv-{i:06d}" for i in range(len(sizes))],
                          dtype=object)
    roles_pool = np.array(_ROLES, dtype=object)
    roles = roles_pool[np.arange(n) % 3]
    tools = np.where(roles == "tool", "pdf_reader", "")
    ts = EPOCH_US + 60_000_000 * np.arange(n, dtype=np.int64)

    choice = text_choice[perm]
    cols = {
        "conv_id": pa.array(conv_names[conv_idx[perm]], pa.string()),
        "turn_idx": pa.array(turn_idxs[perm].astype(np.int32), pa.int32()),
        "role": pa.array(roles[perm], pa.string()),
        "text": pa.array(text_pool[choice], pa.string()),
        "tool": pa.array(tools[perm].astype(object), pa.string()),
        "ts": pa.array(ts[perm], pa.timestamp("us")),
        "pdf_sha256": pa.array(hash_pool[choice], pa.string()),
    }
    if not include_goldens:
        return pa.table(cols, schema=pa.schema(
            [SCHEMA.field(i) for i in range(7)]))
    # per-payload goldens: one library run per pool entry (clean + corrupt),
    # then dictionary-indexed out to every row like text/hash above
    pool_goldens = [_golden_row(s.encode("latin-1"))
                    for s in payload_strs + corrupt_strs]
    for name, typ in GOLDEN_FIELDS:
        field_pool = np.array([g[name] for g in pool_goldens], dtype=object)
        cols[name] = pa.array(field_pool[choice], typ)
    return pa.table(cols, schema=SCHEMA)


def write_transcript_corpus(out_dir: str, n_turns: int, seed: int = 42,
                            corrupt_frac: float = 0.05,
                            rows_per_file: int = 12_500,
                            include_goldens: bool = True) -> list[str]:
    """Write the corpus as one-or-more parquet files (row-group sized for
    streaming reads). Returns the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    table = build_transcript_table(n_turns, seed=seed,
                                   corrupt_frac=corrupt_frac,
                                   include_goldens=include_goldens)
    paths = []
    for start in range(0, table.num_rows, rows_per_file):
        chunk = table.slice(start, rows_per_file)
        path = os.path.join(out_dir, f"transcripts-{start // rows_per_file:05d}.parquet")
        pq.write_table(chunk, path, row_group_size=8192)
        paths.append(path)
    return paths


def golden_expectations(table: pa.Table) -> dict[str, tuple]:
    """Per-payload golden results: sha256 -> (pdf_type, markdown, error_kind).

    Runs the per-document library once per distinct payload — this is the
    oracle the pipeline output is compared against (per-turn text equality
    under stable turn ordering)."""
    from ..pdfi.objects import PdfError
    from ..pdfi.process import process_pdf_mem

    out: dict[str, tuple] = {}
    seen: dict[str, str] = {}
    for text, h in zip(table["text"].to_pylist(), table["pdf_sha256"].to_pylist()):
        if h in out:
            continue
        data = text.encode("latin-1")
        try:
            r = process_pdf_mem(data)
            out[h] = (r.pdf_type, r.markdown, None)
        except PdfError as e:
            out[h] = (None, None, e.kind)
        seen[h] = text
    return out
