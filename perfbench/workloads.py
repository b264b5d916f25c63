"""Seeded inputs, expected outputs and the output checker of the benchmark.

Every input is a pure function of ``(workload, seed)``. Inputs and expected
outputs are cached under ``.bench_cache/`` at the repository root, keyed
also by a digest of the package sources: the payloads come from the
package's generators, and the expected outputs from the package itself
(in-process, one call per distinct payload) or, for ``user_sweeps``, from
the query's DuckDB twin in ``__ray_entry__``.
"""

from __future__ import annotations

import ast
import glob
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
CACHE = os.path.join(ROOT, ".bench_cache")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected_digests.json")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

DEFAULT_SEED = 1
# Bump when a generator below changes: cached inputs are keyed by it.
GENERATOR_VERSION = 2
EVENTS_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
KEYS = ["conv_id", "turn_idx"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "extract" | "classify" | "sweeps"
    corpus: str         # "prose" | "fixture" | "events"
    size: int           # turns, or users for "events"
    rows_per_file: int  # parquet file size; Ray reads one block per file


# Sizes keep one job at 2-6 s on one core, so a 10 s run times several.
WORKLOADS = {w.name: w for w in (
    Workload("prose_unique", "extract", "prose", 400, 100),
    Workload("fixture_repeat", "extract", "fixture", 4000, 1000),
    Workload("classify_fixture", "classify", "fixture", 4000, 1000),
    Workload("user_sweeps", "sweeps", "events", 3000, 1 << 30),
)}


# -- inputs -----------------------------------------------------------------

SHAPE_SEED = 0  # the group-size profile of every workload; see _zipf_sizes


def _zipf_sizes(n: int, a: float, cap: int) -> np.ndarray:
    """Zipf(a) group sizes clamped to [1, cap] and summing to ``n``, drawn
    once per ``n``: the workload's skew is the same for every seed. Drawn
    per seed, a few capped groups swung the number of conversations of a
    4000-turn corpus from 7 to 160, and the run time with it."""
    rng = np.random.default_rng([SHAPE_SEED, n])
    sizes, total = [], 0
    while total < n:
        size = int(min(rng.zipf(a), cap, n - total))
        sizes.append(size)
        total += size
    return np.array(sizes, dtype=np.int64)


def _truncate(payload: str) -> str:
    """The corpus generator's truncated-payload recipe
    (sources/transcripts.py ``_payload_pools``)."""
    return payload[: max(10, len(payload) // 3)] + "\x00TRUNCATED"


def transcript_table(corpus: str, n_turns: int, seed: int) -> pa.Table:
    """BASELINE-shaped transcripts (sources/transcripts.py): Zipf(1.5)
    conversations up to 2000 turns, rows in shuffled order, 5% truncated
    payloads. ``fixture`` draws payloads from the 32-fixture pool (so they
    repeat); ``prose`` gives every turn its own seeded ``make_prose_pdf``
    document (so none repeats). The seed draws payloads, truncations and
    row order; the conversation sizes are fixed (``_zipf_sizes``)."""
    from pdf_inspector_ray.sources.pdfgen import fixture_pool, make_prose_pdf
    from pdf_inspector_ray.sources.transcripts import EPOCH_US, SCHEMA

    sizes = _zipf_sizes(n_turns, 1.5, 2000)
    conv = np.repeat(np.arange(len(sizes)), sizes)
    turn = np.arange(n_turns) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rng = np.random.default_rng(seed)
    if corpus == "fixture":
        pool = [data for _, data in sorted(fixture_pool().items())]
        payloads = [pool[i] for i in rng.integers(0, len(pool), n_turns)]
    else:
        payloads = [make_prose_pdf(seed * 1_000_003 + i)
                    for i in range(n_turns)]
    corrupt = rng.random(n_turns) < 0.05
    texts, hashes = [], []
    for data, bad in zip(payloads, corrupt):
        text, digest = data.decode("latin-1"), hashlib.sha256(data).hexdigest()
        if bad:
            text, digest = _truncate(text), "corrupt:" + digest
        texts.append(text)
        hashes.append(digest)
    roles = np.array(["user", "assistant", "tool"], dtype=object)[
        np.arange(n_turns) % 3]
    table = pa.table({
        "conv_id": [f"conv-{i:06d}" for i in conv],
        "turn_idx": turn.astype(np.int32),
        "role": roles,
        "text": texts,
        "tool": np.where(roles == "tool", "pdf_reader", ""),
        "ts": EPOCH_US + 60_000_000 * np.arange(n_turns, dtype=np.int64),
        "pdf_sha256": hashes,
    }, schema=pa.schema([SCHEMA.field(i) for i in range(7)]))
    return table.take(rng.permutation(n_turns))


def events_table(n_users: int, seed: int) -> pa.Table:
    """Events over one week, in shuffled order. Events per user follow
    Zipf(2.0) clamped to [1, 2000] (many small groups, a few heavy ones);
    the counts are fixed, the seed assigns them to users and draws the
    timestamps, values and order."""
    counts = np.minimum(np.random.default_rng([SHAPE_SEED, n_users]).zipf(
        2.0, size=n_users), 2000)
    rng = np.random.default_rng(seed)
    n = int(counts.sum())
    users = np.repeat(rng.permutation(n_users).astype(np.int64), counts)
    users = users[rng.permutation(n)]
    ts = EVENTS_EPOCH_US + rng.integers(0, 7 * 86_400_000_000, size=n)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(users),
        "value": pa.array(rng.integers(0, 10_000, size=n) / 100.0),
    })


def input_files(w: Workload, seed: int) -> list[str]:
    """Write (once) and return the workload's parquet input files. The
    payloads come from the package's generators, so the cache key holds
    the package source digest."""
    out = os.path.join(CACHE, "inputs",
                       f"{w.corpus}-g{GENERATOR_VERSION}-s{seed}-n{w.size}"
                       f"-f{w.rows_per_file}-{source_digest()}")
    marker = os.path.join(out, "_complete")
    if not os.path.exists(marker):
        if w.corpus == "events":
            table = events_table(w.size, seed)
        else:
            table = transcript_table(w.corpus, w.size, seed)
        os.makedirs(out, exist_ok=True)
        for i, start in enumerate(range(0, table.num_rows, w.rows_per_file)):
            # the sweeps queries read <dir>/events.parquet, as at an sf dir
            name = ("events.parquet" if w.corpus == "events"
                    else f"transcripts-{i:05d}.parquet")
            pq.write_table(table.slice(start, w.rows_per_file),
                           os.path.join(out, name))
        with open(marker, "w") as f:
            f.write("ok")
    return sorted(glob.glob(os.path.join(out, "*.parquet")))


def read_inputs(files: list[str],
                columns: list[str] | None = None) -> pa.Table:
    return pa.concat_tables(pq.read_table(f, columns=columns) for f in files)


# -- expected outputs -------------------------------------------------------

def source_digest() -> str:
    """Digest of the package sources the expected outputs depend on."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(ROOT, "pdf_inspector_ray", "**",
                                          "*.py"), recursive=True))
    for p in paths + [os.path.join(ROOT, "__ray_entry__.py")]:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def extract_fields() -> list[tuple[str, pa.DataType]]:
    """Checked extract columns: all but the timing column."""
    from pdf_inspector_ray.stages.extract_stage import EXTRACT_FIELDS

    return [(n, t) for n, t in EXTRACT_FIELDS if n != "processing_time_ms"]


def classify_fields() -> list[tuple[str, pa.DataType]]:
    from pdf_inspector_ray.stages.classify import CLASSIFY_FIELDS

    return list(CLASSIFY_FIELDS)


def extract_row(data: bytes) -> tuple:
    """``process_pdf_mem`` result with the extract stage's error mapping."""
    from pdf_inspector_ray.pdfi.objects import PdfError
    from pdf_inspector_ray.pdfi.process import process_pdf_mem

    try:
        r = process_pdf_mem(data)
    except PdfError as e:
        return (None, None, None, None, None, e.kind, str(e))
    except Exception as e:  # the stage maps any other failure the same way
        return (None, None, None, None, None, "Parse", repr(e))
    det = r.detection
    return (r.pdf_type, r.markdown, r.page_count,
            det.confidence if det else None,
            det.ocr_recommended if det else None, None, None)


def classify_row(data: bytes) -> tuple:
    """``detect_pdf_type_mem`` result with the classify stage's mapping."""
    from pdf_inspector_ray.pdfi.detect import detect_pdf_type_mem
    from pdf_inspector_ray.pdfi.objects import PdfError

    try:
        r = detect_pdf_type_mem(data)
    except PdfError as e:
        return (None,) * 7 + (e.kind,)
    except Exception:
        return (None,) * 7 + ("Parse",)
    return (r.pdf_type, r.page_count, r.pages_sampled, r.pages_with_text,
            r.confidence, r.title, r.ocr_recommended, None)


def _per_payload(inputs: pa.Table, row_fn, fields) -> pa.Table:
    """One library call per distinct payload, fanned out to every turn."""
    texts = inputs["text"].to_pylist()
    by_payload: dict[str, tuple] = {}
    rows = []
    for text in texts:
        row = by_payload.get(text)
        if row is None:
            row = by_payload[text] = row_fn(text.encode("latin-1"))
        rows.append(row)
    cols = {k: inputs[k] for k in KEYS}
    for i, (name, typ) in enumerate(fields):
        cols[name] = pa.array([r[i] for r in rows], typ)
    return pa.table(cols).sort_by([(k, "ascending") for k in KEYS])


def oracle_queries(names: tuple[str, ...]) -> dict[str, str]:
    """The DuckDB twins of ``names``, read from ``oracle_sql()``'s source.

    Calling ``oracle_sql()`` would build every other twin's corpus under
    /tmp; the twins used here are plain string literals, so they are read
    from the syntax tree instead."""
    with open(os.path.join(ROOT, "__ray_entry__.py")) as f:
        tree = ast.parse(f.read())
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "oracle_sql")
    found: dict[str, str] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if (isinstance(k, ast.Constant) and k.value in names
                        and isinstance(v, ast.Constant)):
                    found[k.value] = v.value
    missing = set(names) - set(found)
    if missing:
        raise LookupError(f"oracle_sql() has no literal twin for {missing}")
    return found


SWEEP_KEYS = {"session_windows": ["user_id", "session_start"],
              "running_totals": ["event_id"]}


def sweep_expected(events: pa.Table) -> dict[str, pa.Table]:
    import duckdb

    con = duckdb.connect()
    try:
        con.register("events", events)
        return {name: con.execute(sql).arrow().sort_by(
                    [(k, "ascending") for k in SWEEP_KEYS[name]])
                for name, sql in oracle_queries(tuple(SWEEP_KEYS)).items()}
    finally:
        con.close()


def expected_outputs(w: Workload, seed: int,
                     files: list[str]) -> dict[str, pa.Table]:
    """Expected output tables of one job, sorted by their keys, as read
    from their cache files."""
    out = os.path.join(CACHE, "expected",
                       f"{w.name}-g{GENERATOR_VERSION}-s{seed}-n{w.size}"
                       f"-{source_digest()}")
    names = list(SWEEP_KEYS) if w.kind == "sweeps" else [w.kind]
    paths = {n: os.path.join(out, f"{n}.parquet") for n in names}
    if all(os.path.exists(p) for p in paths.values()):
        return {n: pq.read_table(p) for n, p in paths.items()}
    if w.kind == "sweeps":
        tables = sweep_expected(read_inputs(files))
    else:
        inputs = read_inputs(files, KEYS + ["text"])
        if w.kind == "extract":
            tables = {"extract": _per_payload(inputs, extract_row,
                                              extract_fields())}
        else:
            tables = {"classify": _per_payload(inputs, classify_row,
                                               classify_fields())}
    os.makedirs(out, exist_ok=True)
    for n, t in tables.items():
        tmp = paths[n] + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, paths[n])
    # read back: the digest hashes the Arrow buffers, which a parquet round
    # trip lays out differently from the freshly built tables
    return {n: pq.read_table(p) for n, p in paths.items()}


def table_digest(tables: dict[str, pa.Table]) -> str:
    h = hashlib.sha256()
    for name in sorted(tables):
        t = tables[name].combine_chunks()
        h.update(name.encode())
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as writer:
            writer.write_table(t)
        h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()


def frozen_digest_ok(w: Workload) -> bool:
    """The package's expected output at the default seed still matches the
    digest stored with the benchmark: a library change that alters output
    fails here even when pipeline and library agree with each other."""
    with open(DIGESTS) as f:
        frozen = json.load(f)
    files = input_files(w, DEFAULT_SEED)
    return frozen.get(w.name) == table_digest(
        expected_outputs(w, DEFAULT_SEED, files))


def golden_mismatches() -> set[str]:
    """``pdf_sha256`` of every pool fixture whose library output no longer
    matches the frozen ``tests/golden`` files (markdown and metadata)."""
    from pdf_inspector_ray.sources.pdfgen import fixture_pool

    with open(os.path.join(GOLDEN_DIR, "meta.json")) as f:
        meta = json.load(f)
    bad = set()
    for name, data in fixture_pool().items():
        want = meta[name]
        x, c = extract_row(data), classify_row(data)
        if want["error_kind"] is not None:
            ok = x[5] == c[7] == want["error_kind"]
        else:
            ok = (x[0] == c[0] == want["pdf_type"]
                  and x[2] == c[1] == want["page_count"]
                  and c[3] == want["pages_with_text"]
                  and round(c[4], 4) == want["confidence"]
                  and c[6] == want["ocr_recommended"])
        md_path = os.path.join(GOLDEN_DIR, f"{name}.md")
        if ok and os.path.exists(md_path):
            with open(md_path) as f:
                ok = x[1] == f.read()
        if not ok:
            bad.add(hashlib.sha256(data).hexdigest())
    return bad


# -- checker ----------------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def compare(got: pa.Table, expected: pa.Table,
            keys: list[str]) -> tuple[np.ndarray, pa.Table]:
    """Compare ``got`` with key-sorted ``expected``.

    Returns a mask over expected rows that are missing or wrong, and the
    rows of ``got`` that are duplicates or have keys not in ``expected``."""
    got = got.select(expected.column_names).cast(expected.schema)
    got = got.sort_by([(k, "ascending") for k in keys])
    n = expected.num_rows
    if got.num_rows == n and got.select(keys).equals(expected.select(keys)):
        bad = np.zeros(n, dtype=bool)
        for name in expected.column_names:
            a, b = got[name], expected[name]
            if a.equals(b):
                continue
            if pa.types.is_floating(b.type):
                x = a.to_numpy(zero_copy_only=False).astype(float)
                y = b.to_numpy(zero_copy_only=False).astype(float)
                bad |= ~np.isclose(x, y, rtol=1e-9, atol=1e-9, equal_nan=True)
            else:
                same = pc.fill_null(pc.equal(a, b), False).to_numpy(
                    zero_copy_only=False)
                both_null = pc.and_(pc.is_null(a), pc.is_null(b)).to_numpy(
                    zero_copy_only=False)
                bad |= ~(same | both_null)
        return bad, got.slice(0, 0)
    # keys differ: row-by-row reconciliation
    exp_rows = expected.to_pylist()
    want = {tuple(r[k] for k in keys): i for i, r in enumerate(exp_rows)}
    seen = np.zeros(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    extra = []
    for j, row in enumerate(got.to_pylist()):
        i = want.get(tuple(row[k] for k in keys))
        if i is None or seen[i]:
            extra.append(j)
            continue
        seen[i] = True
        if not all(_same(row[c], exp_rows[i][c]) for c in row):
            bad[i] = True
    bad |= ~seen
    return bad, got.take(pa.array(extra, pa.int64()))


def count_bad(w: Workload, got: dict[str, pa.Table],
              expected: dict[str, pa.Table], inputs: pa.Table,
              bad_payloads: set[str] = frozenset()) -> int:
    """Bad input rows of one job: turns (or events) whose output row is
    missing, duplicated or wrong, or whose payload fails the goldens."""
    if w.kind != "sweeps":
        bad, extra = compare(got[w.kind], expected[w.kind], KEYS)
        n_bad = int(bad.sum()) + extra.num_rows
        if bad_payloads:
            n_bad += int(pc.sum(pc.is_in(
                inputs["pdf_sha256"],
                value_set=pa.array(sorted(bad_payloads)))).as_py() or 0)
        return min(n_bad, inputs.num_rows)
    # events: a user is bad if any of its output rows is; all its events count
    bad_users: set[int] = set()
    for name, exp in expected.items():
        mask, extra = compare(got[name], exp, SWEEP_KEYS[name])
        bad_users.update(exp.filter(pa.array(mask))["user_id"].to_pylist())
        bad_users.update(extra["user_id"].to_pylist())
    if not bad_users:
        return 0
    return int(pc.sum(pc.is_in(inputs["user_id"], value_set=pa.array(
        sorted(bad_users), pa.int64()))).as_py())
