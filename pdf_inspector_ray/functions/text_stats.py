"""Text analysis operators over the ``documents`` table.

Training-data pipeline primitives beyond the reference's own operators:
language-ID (stopword heuristic), quality scoring (length/punct/stopword
ratios), token counting (whitespace + BPE-ish regex), and document
fingerprinting (md5 + rolling-hash shingle fingerprint).

All batch functions are vectorized pyarrow.compute kernels (zero-copy in,
Arrow out) designed for ``ds.map_batches(fn, batch_format="pyarrow")``.
Each has an exact ANSI-SQL twin in ``__ray_entry__.oracle_sql`` — keep the
two in lockstep when editing.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pdf_inspector_ray.functions.relational import (
    _run_id, _run_pairs, _run_start, grouped_aggregate, grouped_topk,
    keyed_exchange, partitioned_sweep)

# Stopword sets for the heuristic language scorer. Scores are counts of
# " word " occurrences (space-delimited so SQL length/replace tricks give
# identical counts).
LANG_STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of"),
    "de": ("der", "und", "die"),
    "fr": ("le", "et", "les"),
    "es": ("el", "y", "los"),
}
LANG_ORDER = ("en", "de", "fr", "es")  # tie-break priority

TOKEN_REGEX = r"[a-zA-Z0-9]+"  # simple word pieces; SQL twin uses the same

# GPT-2-style pre-tokenizer (ASCII form of the gpt2/tiktoken split rule:
# contraction suffixes, space-prefixed letter runs, digit runs, punct runs).
# The count of its non-overlapping matches is the standard BPE
# pre-tokenization token count. RE2-compatible → identical semantics in
# Arrow count_substring_regex and DuckDB regexp_extract_all (verified).
BPE_TOKEN_REGEX = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9']+"


def _count_padded(text_col: pa.ChunkedArray | pa.Array, word: str) -> pa.Array:
    """Occurrences of ``' word '`` in ``' ' || text || ' '`` (so edge words
    count). Matches the SQL twin exactly."""
    # binary_join_element_wise treats its LAST argument as the separator:
    # join([" ", text], sep="") + join([that, " "], sep="") = " "+text+" "
    left = pc.binary_join_element_wise(pa.scalar(" "), text_col, pa.scalar(""))
    padded = pc.binary_join_element_wise(left, pa.scalar(" "), pa.scalar(""))
    return pc.count_substring(padded, f" {word} ")


def doc_stats_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Per-doc counting stats: chars, whitespace tokens, regex word tokens."""
    text = batch[text_column]
    n_chars = pc.utf8_length(text)
    ws_tokens = pc.list_value_length(pc.split_pattern_regex(text, r"\s+"))
    word_tokens = pc.count_substring_regex(text, TOKEN_REGEX)
    bpe_tokens = pc.count_substring_regex(text, BPE_TOKEN_REGEX)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_chars_computed": pc.cast(n_chars, pa.int64()),
        "n_ws_tokens": pc.cast(ws_tokens, pa.int64()),
        "n_word_tokens": pc.cast(word_tokens, pa.int64()),
        "n_bpe_tokens": pc.cast(bpe_tokens, pa.int64()),
    })


def lang_id_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Stopword-count language ID. Deterministic tie-break by LANG_ORDER."""
    text = batch[text_column]
    scores = {}
    for lang, words in LANG_STOPWORDS.items():
        total = None
        for w in words:
            c = _count_padded(text, w)
            total = c if total is None else pc.add(total, c)
        scores[lang] = np.asarray(pc.cast(total, pa.int64()))
    n = len(batch)
    stacked = np.stack([scores[l] for l in LANG_ORDER])  # (4, n)
    best_idx = np.argmax(stacked, axis=0)  # first max wins = LANG_ORDER priority
    langs = np.array(LANG_ORDER)[best_idx]
    return pa.table({
        "doc_id": batch["doc_id"],
        "lang_pred": pa.array(langs.tolist(), pa.string()),
        "score_en": pa.array(scores["en"], pa.int64()),
        "score_de": pa.array(scores["de"], pa.int64()),
        "score_fr": pa.array(scores["fr"], pa.int64()),
        "score_es": pa.array(scores["es"], pa.int64()),
    })


QUALITY_MIN_CHARS = 50
QUALITY_MAX_DIGIT_RATIO = 0.3
QUALITY_MIN_STOPWORD_COUNT = 1


def quality_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Gopher-style quality signals + keep flag (thresholds above)."""
    text = batch[text_column]
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    n_digits = pc.cast(pc.count_substring_regex(text, r"[0-9]"), pa.float64())
    n_punct = pc.cast(pc.count_substring_regex(text, r"[^\w\s]"), pa.float64())
    n_ws_tokens = pc.cast(
        pc.list_value_length(pc.split_pattern_regex(text, r"\s+")), pa.float64())
    stop_total = None
    for w in LANG_STOPWORDS["en"]:
        c = _count_padded(text, w)
        stop_total = c if stop_total is None else pc.add(stop_total, c)
    stop_total = pc.cast(stop_total, pa.int64())
    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1.0))
    digit_ratio = pc.divide(n_digits, safe_chars)
    punct_ratio = pc.divide(n_punct, safe_chars)
    mean_word_len = pc.divide(safe_chars, pc.max_element_wise(n_ws_tokens, pa.scalar(1.0)))
    keep = pc.and_(
        pc.and_(
            pc.greater_equal(n_chars, pa.scalar(float(QUALITY_MIN_CHARS))),
            pc.less_equal(digit_ratio, pa.scalar(QUALITY_MAX_DIGIT_RATIO)),
        ),
        pc.greater_equal(stop_total, pa.scalar(QUALITY_MIN_STOPWORD_COUNT,
                                               pa.int64())),
    )
    # NB: no rounding — both sides divide the same exact integers as float64,
    # so the quotients are bit-identical and hash-stable.
    return pa.table({
        "doc_id": batch["doc_id"],
        "digit_ratio": digit_ratio,
        "punct_ratio": punct_ratio,
        "mean_word_len": mean_word_len,
        "stopword_count": stop_total,
        "quality_keep": keep,
    })


def fingerprint_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Document fingerprints: md5 of raw text (exact-dup key; SQL twin
    ``md5(text)``) + 64-bit rolling-hash shingle fingerprint (no SQL twin)."""
    texts = batch[text_column].to_pylist()
    md5s = [hashlib.md5(t.encode("utf-8"), usedforsecurity=False).hexdigest()
            if t is not None else None for t in texts]
    rolling = [_rolling_fingerprint(t) if t is not None else None for t in texts]
    return pa.table({
        "doc_id": batch["doc_id"],
        "text_md5": pa.array(md5s, pa.string()),
        "rolling_fp": pa.array(rolling, pa.uint64()),
    })


def pack_sequences(ds, id_column: str = "doc_id",
                   cost_column: str = "n_chars",
                   bin_budget: int = 2048,
                   shard_size: int = 1_000_000):
    """Sequence packing for training: assign each doc a ``pack_id`` =
    which fixed-budget context bin its START offset falls in, under the
    global ``id_column`` order — ``pack_id = (cumsum_exclusive(cost)) //
    bin_budget``. The classic pre-tokenization packing step, computed as
    a DISTRIBUTED PREFIX SUM rather than a global sort: (1) one tiny
    ``grouped_aggregate`` sums ``cost`` per id-shard (``id // shard_size``; the
    driver-side offset fold is bounded by #shards — pick ``shard_size``
    so max_id/shard_size stays ~10^5-10^6 at corpus scale), (2) the
    exclusive shard offsets are broadcast once with ``ray.put``, (3) one
    ``partitioned_sweep`` over the shard ordered by id gives each row
    its shard's offset plus the exclusive prefix sum within its shard —
    no stage ever sees a global order. Deterministic and
    partition-invariant: offsets are a pure function of the data.

    SQL twin: ``(SUM(cost) OVER (ORDER BY id ROWS UNBOUNDED PRECEDING)
    - cost) // bin_budget``."""
    import ray

    if bin_budget < 1:
        raise ValueError(f"bin_budget must be >= 1, got {bin_budget}")

    def tag_shard(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[id_column]),
                                     pc.is_valid(batch[cost_column])))
        return pa.table({
            id_column: batch[id_column],
            "cost": pc.cast(batch[cost_column], pa.int64()),
            "shard": pc.divide(batch[id_column],
                               pa.scalar(shard_size, pa.int64())),
        })

    tagged = ds.map_batches(tag_shard, batch_format="pyarrow")
    shard_sums = grouped_aggregate(tagged, "shard", {"cost": "sum"}
                                   ).take_all()
    shard_sums.sort(key=lambda r: r["shard"])
    sums = np.array([r["cost"] for r in shard_sums], np.int64)
    offsets_ref = ray.put((np.array([r["shard"] for r in shard_sums]),
                           np.cumsum(sums) - sums))

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        shard_keys, offsets = ray.get(offsets_ref)
        base = offsets[np.searchsorted(shard_keys, g["shard"].take(
            starts).to_numpy(zero_copy_only=False))]
        cost = g["cost"].to_numpy(zero_copy_only=False)
        run = _run_id(starts, len(cost))
        excl = np.cumsum(cost) - cost   # exclusive prefix sum
        start = base[run] + excl - excl[starts][run]
        return pa.table({
            id_column: pc.cast(g[id_column], pa.int64()),
            "cost": g["cost"],
            "start_offset": pa.array(start, pa.int64()),
            "pack_id": pa.array(start // bin_budget, pa.int64()),
        })

    return partitioned_sweep(tagged, "shard", [id_column], sweep)


def assign_split_batch(batch: pa.Table, id_column: str = "doc_id",
                       train_bp: int = 8000, val_bp: int = 9000) -> pa.Table:
    """Deterministic train/val/test split: md5 of the id's decimal string
    → first 8 hex digits → basis points in [0, 10000). train < train_bp ≤
    val < val_bp ≤ test. Stateless per row, so the assignment is stable
    across runs/partitionings/corpus growth — the property a training
    pipeline needs (a seeded ``random_sample`` reassigns when the corpus
    changes). md5 is the hash so any external system (DuckDB twin:
    ``CAST(concat('0x', substr(md5(CAST(id AS VARCHAR)), 1, 8)) AS
    BIGINT) % 10000``) reproduces it; per-row hashing of a short string
    is ~1 µs and embarrassingly parallel (no shuffle at all)."""
    ids = batch[id_column].to_pylist()
    bps = [int(hashlib.md5(str(i).encode(), usedforsecurity=False)
               .hexdigest()[:8], 16) % 10000 for i in ids]
    splits = ["train" if b < train_bp else "val" if b < val_bp else "test"
              for b in bps]
    return pa.table({
        id_column: batch[id_column],
        "split_bp": pa.array(bps, pa.int64()),
        "split": pa.array(splits, pa.string()),
    })


_ROLL_BASE = 1_000_003
_ROLL_MOD = (1 << 61) - 1
_ROLL_WINDOW = 16

# Lookup tables for the vectorized rolling hash: _ROLL_TABLES[j][b] =
# (b * BASE^(window-1-j)) mod M, so the hash of the window starting at s is
# sum_j table[j][data[s+j]] mod M. Each entry < 2^61, so a running uint64
# accumulator only needs a Mersenne fold ((x & M) + (x >> 61)) after each
# add to stay overflow-free.
_ROLL_TABLES = np.array(
    [[(b * pow(_ROLL_BASE, _ROLL_WINDOW - 1 - j, _ROLL_MOD)) % _ROLL_MOD
      for b in range(256)] for j in range(_ROLL_WINDOW)],
    dtype=np.uint64)


def _rolling_fingerprint_scalar(text: str, window: int = 16) -> int:
    """Reference scalar implementation (Horner + subtract); kept as the
    equality oracle for the vectorized path and for the short-text case."""
    data = text.encode("utf-8", "replace")
    if len(data) <= window:
        h = 0
        for b in data:
            h = (h * _ROLL_BASE + b) % _ROLL_MOD
        return h
    # precompute base^window
    pw = pow(_ROLL_BASE, window, _ROLL_MOD)
    h = 0
    best = None
    for i, b in enumerate(data):
        h = (h * _ROLL_BASE + b) % _ROLL_MOD
        if i >= window:
            h = (h - data[i - window] * pw) % _ROLL_MOD
        if i >= window - 1:
            best = h if best is None or h < best else best
    return best if best is not None else h


def _rolling_fingerprint(text: str, window: int = _ROLL_WINDOW) -> int:
    """Min of rolling polynomial hashes over char windows — a cheap,
    deterministic content fingerprint stable under small appends.

    Vectorized: every window hash is a sum of ``window`` table lookups
    (numpy fancy indexing over the byte array), folded mod 2^61-1 after
    each add — one numpy pass per window offset instead of a Python loop
    per character. Bit-identical to ``_rolling_fingerprint_scalar``
    (pinned in tests)."""
    data = text.encode("utf-8", "replace")
    n = len(data)
    if n <= window or window != _ROLL_WINDOW:
        return _rolling_fingerprint_scalar(text, window)
    arr = np.frombuffer(data, dtype=np.uint8)
    m = np.uint64(_ROLL_MOD)
    shift = np.uint64(61)
    n_win = n - window + 1
    acc = np.zeros(n_win, dtype=np.uint64)
    for j in range(window):
        acc += _ROLL_TABLES[j][arr[j:j + n_win]]
        if j % 6 == 5:  # 6 terms < 2^61 each + carry stay under 2^64
            acc = (acc & m) + (acc >> shift)
    acc = (acc & m) + (acc >> shift)
    acc = (acc & m) + (acc >> shift)
    acc = np.where(acc >= m, acc - m, acc)
    return int(acc.min())


def _sorted_value_counts(ds, column: str) -> tuple[np.ndarray, np.ndarray]:
    """The value-count sketch of an integer ``column``: its distinct
    non-null values in ascending order and their cumulative row counts,
    from one ``grouped_aggregate`` collected on the driver (bounded by
    the DISTINCT values — pre-bin continuous columns at corpus scale).
    Null values are not counted, as SQL's quantile aggregates skip
    them."""
    rows = grouped_aggregate(
        ds.map_batches(lambda b: pa.table({"value": b[column]}).filter(
            pc.is_valid(b[column])), batch_format="pyarrow"),
        "value", {"n": "count"}).take_all()
    rows.sort(key=lambda r: r["value"])
    return (np.asarray([r["value"] for r in rows], dtype=np.int64),
            np.cumsum(np.asarray([r["n"] for r in rows], dtype=np.int64)))


def value_quantiles(ds, column: str, qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95)):
    """Exact distributed quantiles of an integer column via the
    value-count sketch (``_sorted_value_counts``) and a tiny driver
    search over its cumulative counts. Quantile rule is rank
    ``ceil(q·n)−1`` over the sorted multiset — DuckDB's
    ``quantile_disc`` rule, verified empirically for n∈{7,10,11,500,502}
    (the older ``floor(q·(n−1))`` rule coincides only when q·n is
    integral). Null values are skipped, as ``quantile_disc`` does.
    """
    values, cum = _sorted_value_counts(ds, column)
    n = int(cum[-1]) if len(cum) else 0
    out = {}
    for q in qs:
        k = int(np.ceil(q * n)) - 1 if n else 0
        idx = int(np.searchsorted(cum, k + 1))
        out[f"q{int(q * 100)}"] = int(values[idx]) if n else None
    return pa.table({k: pa.array([v], pa.int64()) for k, v in out.items()})


def quantile_cont_values(ds, column: str,
                         qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95)):
    """Exact distributed CONTINUOUS (interpolated) quantiles of an integer
    column — the ``quantile_cont`` / numpy-type-7 shape the disc-rule
    sketches (``value_quantiles``) don't cover. Same value-count sketch;
    the two order statistics around ``h = q·(n−1)`` are read exactly
    from the cumulative counts, then ONE mirrored float64 convex
    combination ``(1−frac)·lo + frac·hi`` — pinned empirically as
    DuckDB's exact expression order (the ``lo + (hi−lo)·frac`` form
    differs in IEEE and hash-mismatches). Float only in that final
    expression; everything upstream is int64."""
    values, cum = _sorted_value_counts(ds, column)
    n = int(cum[-1]) if len(cum) else 0
    out = {}
    for q in qs:
        if n == 0:
            out[f"q{int(q * 100)}"] = None
            continue
        h = q * (n - 1)
        k_lo, k_hi = int(np.floor(h)), int(np.ceil(h))
        frac = h - k_lo
        v_lo = float(values[int(np.searchsorted(cum, k_lo + 1))])
        v_hi = float(values[int(np.searchsorted(cum, k_hi + 1))])
        out[f"q{int(q * 100)}"] = (1.0 - frac) * v_lo + frac * v_hi
    return pa.table({k: pa.array([v], pa.float64()) for k, v in out.items()})


def grouped_quantiles(ds, group_column: str, value_column: str,
                      qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95)):
    """Exact distributed per-group quantiles of an integer column: the
    same value-count sketch as ``value_quantiles`` keyed by
    ``(group, value)`` — one ``grouped_aggregate``, then a tiny driver
    cumsum per group (bounded by #groups × #distinct values; pre-bin
    continuous columns first at corpus scale). Quantile rule is DuckDB's
    ``quantile_disc`` rank ``ceil(q·n)−1`` per group."""

    def pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({"grp": batch[group_column], "value": batch[value_column]})
        # null group or value rows carry no quantile information; dropping
        # here also keeps the driver-side sorted() fold None-free
        return t.filter(pc.and_(pc.is_valid(t["grp"]),
                                pc.is_valid(t["value"])))

    rows = grouped_aggregate(
        ds.map_batches(pairs, batch_format="pyarrow"), ["grp", "value"],
        {"cnt": "count"}).take_all()  # one row per (group, distinct value)
    by_grp: dict = {}
    for r in rows:
        by_grp.setdefault(r["grp"], []).append((r["value"], r["cnt"]))
    out_grp, out_qs = [], {f"q{int(q * 100)}": [] for q in qs}
    for grp in sorted(by_grp):
        pairs = sorted(by_grp[grp])
        values = np.asarray([v for v, _ in pairs], dtype=np.int64)
        cum = np.cumsum([c for _, c in pairs])
        n = int(cum[-1])
        out_grp.append(grp)
        for q in qs:
            k = int(np.ceil(q * n)) - 1
            idx = int(np.searchsorted(cum, k + 1))
            out_qs[f"q{int(q * 100)}"].append(int(values[idx]))
    cols = {group_column: pa.array(out_grp)}
    cols.update({name: pa.array(vals, pa.int64())
                 for name, vals in out_qs.items()})
    return pa.table(cols)


def grouped_mad(ds, group_column: str, value_column: str) -> pa.Table:
    """Median absolute deviation per group — the robust spread measure
    for integer columns, exact under the ``quantile_disc`` rule. Two
    value-count-sketch passes over the data (the unavoidable data
    dependency: deviations need the medians), each shipping one row per
    (batch, group, distinct value); medians broadcast via ``ray.put``
    between them. Returns (group, median, mad)."""
    import ray

    med_tbl = grouped_quantiles(ds, group_column, value_column, qs=(0.5,))
    med = dict(zip(med_tbl[group_column].to_pylist(),
                   med_tbl["q50"].to_pylist()))
    med_ref = ray.put(med)

    def dev(batch: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        # null group/value rows carry no deviation (grouped_quantiles
        # drops them from the medians) and would NaN-poison the numpy
        # conversion — filter before converting
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[value_column])))
        grp = batch[group_column]
        x = pc.cast(batch[value_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        meds = np.asarray([m[g] for g in grp.to_pylist()], dtype=np.int64)
        return pa.table({group_column: grp,
                         "dev": pa.array(np.abs(x - meds), pa.int64())})

    mad_tbl = grouped_quantiles(ds.map_batches(dev, batch_format="pyarrow"),
                                group_column, "dev", qs=(0.5,))
    mad = dict(zip(mad_tbl[group_column].to_pylist(),
                   mad_tbl["q50"].to_pylist()))
    groups = sorted(med)
    return pa.table({
        group_column: pa.array(groups),
        "median": pa.array([med[g] for g in groups], pa.int64()),
        "mad": pa.array([mad[g] for g in groups], pa.int64()),
    })


def explode_tokens(ds, id_column: str = "doc_id",
                   text_column: str = "text"):
    """Positional token explode (unnest with ordinality): one row per
    (doc, position, token) — the flat_map primitive behind positional
    inverted indexes and span labeling. Fully vectorized: arrow regex
    split, ``list_parent_indices`` to map tokens back to rows, empties
    dropped, and 1-based positions recomputed on the kept subset with
    one arange-minus-run-start pass (no Python loop)."""

    def explode(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(
            pc.cast(batch[text_column], pa.string()), r"\s+")
        toks = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists).to_numpy(
            zero_copy_only=False)
        keep = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
        toks = toks.filter(pa.array(keep))
        parent = parent[keep]
        if len(parent) == 0:
            return pa.table({id_column: pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "token": pa.array([], pa.string())})
        # 1-based position within each kept run (parents nondecreasing)
        idx = np.arange(len(parent), dtype=np.int64)
        run_start = np.zeros(len(parent), dtype=np.int64)
        new_run = np.flatnonzero(
            np.concatenate([[True], parent[1:] != parent[:-1]]))
        run_start[new_run] = idx[new_run]
        run_start = np.maximum.accumulate(run_start)
        pos = idx - run_start + 1
        ids = pc.cast(batch[id_column], pa.int64()).to_numpy(
            zero_copy_only=False)[parent]
        return pa.table({id_column: pa.array(ids, pa.int64()),
                         "pos": pa.array(pos, pa.int64()),
                         "token": toks})

    return ds.map_batches(explode, batch_format="pyarrow")


def top_terms(ds, k: int = 20, text_column: str = "text"):
    """Corpus-level term frequency top-k: a (term → count)
    ``grouped_aggregate`` over the bounded vocabulary, then per-batch top-k
    prune + tiny driver merge (no global sort). Tokenization = whitespace
    split, empties dropped — the same rule as the Jaccard oracle's ``toks``
    CTE."""

    def terms(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(batch[text_column], r"\s+"))
        return pa.table({"term": toks.filter(pc.not_equal(toks, ""))})

    counts = grouped_aggregate(ds.map_batches(terms, batch_format="pyarrow"),
                               "term", {"cnt": "count"})

    def prune(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(batch, sort_keys=[("cnt", "descending"),
                                                  ("term", "ascending")])
        return batch.take(order.slice(0, k))

    cands = counts.map_batches(prune, batch_format="pyarrow")
    tbl = pa.concat_tables(cands.iter_batches(batch_format="pyarrow"))
    order = pc.sort_indices(tbl, sort_keys=[("cnt", "descending"),
                                            ("term", "ascending")])
    return tbl.take(order).slice(0, k)


def top_terms_by_group(ds, group_column: str = "lang", k: int = 10,
                       text_column: str = "text"):
    """Per-group term-frequency top-k (heavy hitters per language /
    source / domain — the grouped variant of ``top_terms``): a (group, term)
    ``grouped_aggregate`` bounds the exchange by vocabulary × groups, then
    ``grouped_topk`` keeps each group's first ``k``. Ties break (count desc,
    term asc) so the result is deterministic and SQL-twinnable (``QUALIFY
    row_number() OVER (PARTITION BY g ORDER BY cnt DESC, term)``)."""

    def terms(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[text_column]))  # no terms
        tok_lists = pc.split_pattern_regex(batch[text_column], r"\s+")
        toks = pc.list_flatten(tok_lists)
        reps = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
        groups = batch[group_column].take(
            pa.array(np.repeat(np.arange(len(batch)), reps), pa.int64()))
        mask = pc.not_equal(toks, "")
        return pa.table({group_column: groups.filter(mask),
                         "term": toks.filter(mask)})

    counts = grouped_aggregate(ds.map_batches(terms, batch_format="pyarrow"),
                               [group_column, "term"], {"cnt": "count"})
    return grouped_topk(counts, group_column,
                        [("cnt", "descending"), "term"], k)


def stratified_sample(ds, group_column: str, n_per_group: int = 5,
                      order_column: str = "doc_id"):
    """Deterministic stratified sample: the first ``n_per_group`` rows of
    each group ordered by ``order_column`` — ``grouped_topk``. For
    seeded RANDOM strata swap the order key for ``hash(order_column)``
    — determinism is what makes this oracle-checkable."""
    return grouped_topk(ds, group_column, [order_column], n_per_group)


def repetition_stats_batch(batch: pa.Table,
                           text_column: str = "text") -> pa.Table:
    """Gopher-style repetition quality signals, per document: total word
    count, the count of the single most frequent word, and the duplicate
    fraction of word 2-grams and 3-grams ((n − n_distinct)/n, 0.0 for a
    doc with no grams). High values flag boilerplate/templated text that
    repetition filters drop before pre-training.

    Fully vectorized: gram emission reuses ``decontam._gram_rows``
    (Arrow shifted-slice join, document boundaries masked), per-doc
    counting is two Arrow ``group_by`` passes over (row, gram) — no
    Python row loops. Tokenizer rule is the corpus-wide one (whitespace
    split, empties dropped), so the SQL twin is exact."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    n = len(batch)
    cols = {"doc_id": batch["doc_id"]}
    for k, total_name, extra in ((1, "n_words", "top_word_count"),
                                 (2, "n_2grams", "dup_2gram_frac"),
                                 (3, "n_3grams", "dup_3gram_frac")):
        idx, grams = _gram_rows(batch[text_column], k)
        per = (pa.table({"row": pa.array(idx, pa.int64()), "g": grams})
               .group_by(["row", "g"]).aggregate([([], "count_all")])
               .rename_columns(["row", "g", "cnt"]))
        agg = (per.group_by(["row"])
               .aggregate([("cnt", "sum"), ("cnt", "max"),
                           ([], "count_all")])
               .rename_columns(["row", "total", "max_cnt", "distinct"]))
        rows = agg["row"].to_numpy(zero_copy_only=False)
        total = np.zeros(n, np.int64)
        total[rows] = agg["total"].to_numpy(zero_copy_only=False)
        cols[total_name] = pa.array(total, pa.int64())
        if k == 1:
            top = np.zeros(n, np.int64)
            top[rows] = agg["max_cnt"].to_numpy(zero_copy_only=False)
            cols[extra] = pa.array(top, pa.int64())
        else:
            dup = np.zeros(n, np.float64)
            t = total[rows].astype(np.float64)
            d = agg["distinct"].to_numpy(zero_copy_only=False)
            # raw IEEE division, NOT rounded: double((n−d))/double(n) is
            # bit-identical in numpy and DuckDB, while round-to-6dp
            # diverges on half-even vs half-away ties (n a power of two)
            dup[rows] = (t - d) / t
            cols[extra] = pa.array(dup, pa.float64())
    return pa.table(cols)


def term_doc_frequency(ds, text_column: str = "text",
                       id_column: str = "doc_id", min_df: int = 2):
    """Vocabulary build: (term, df) where df = number of DISTINCT
    documents containing the term — the primitive under TF-IDF weights,
    stopword discovery, and df-pruned feature vocabularies. Terms with
    ``df < min_df`` are dropped (hapax noise dominates raw vocabularies).

    Dataflow: per-batch (term, doc) pairs dedupe locally (one doc = one
    row, so local distinct is globally distinct — same argument as
    ``decontam``), then one ``grouped_aggregate`` counts them per term;
    its per-batch partial carries one row per (batch, term) over the
    exchange — vocabulary-bounded, not corpus-bounded. Tokenizer is the
    corpus-wide whitespace rule, so the SQL twin is exact."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    def pairs(batch: pa.Table) -> pa.Table:
        idx, terms = _gram_rows(batch[text_column], 1)
        return (pa.table({"term": terms, "d": pa.array(idx, pa.int64())})
                .group_by(["term", "d"]).aggregate([]))

    out = grouped_aggregate(ds.map_batches(pairs, batch_format="pyarrow"),
                            "term", {"df": "count"})

    def prune(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["df"], min_df))

    return out.map_batches(prune, batch_format="pyarrow")


def tfidf_top_terms(ds, n_docs: int, k: int = 3, min_df: int = 2,
                    text_column: str = "text", id_column: str = "doc_id"):
    """Top-k characteristic terms per document by a TF-IDF-style score
    ``tf · (N / df)`` — the ratio form, NOT ``log``-damped: both sides
    of the oracle then compute the same two IEEE ops (one divide, one
    multiply), which is bit-identical in numpy and DuckDB, where libm
    ``ln`` implementations may differ by an ulp.

    Dataflow: the vocabulary (df) builds distributed via
    ``term_doc_frequency`` and broadcasts ONCE via ``ray.put``
    (vocab-bounded — the classic small-side broadcast); scoring is then
    a stateless map over docs with a vectorized per-doc top-k (lexsort +
    run-position prune; score ties break by term ascending). ``n_docs``
    comes from the caller (parquet footer — no count pass)."""
    import ray

    from pdf_inspector_ray.functions.decontam import _gram_rows

    df_tbl = term_doc_frequency(ds, text_column=text_column,
                                id_column=id_column, min_df=min_df)
    rows = df_tbl.take_all()  # vocabulary-bounded by construction
    vocab = pa.array([r["term"] for r in rows], pa.string())
    dfs = np.array([r["df"] for r in rows], np.float64)
    df_ref = ray.put((vocab, dfs))

    def score(batch: pa.Table) -> pa.Table:
        voc, dfv = ray.get(df_ref)
        idx, terms = _gram_rows(batch[text_column], 1)
        tf_tbl = (pa.table({"row": pa.array(idx, pa.int64()),
                            "term": terms})
                  .group_by(["row", "term"])
                  .aggregate([([], "count_all")])
                  .rename_columns(["row", "term", "tf"]))
        pos = pc.index_in(tf_tbl["term"], value_set=voc)
        keep = pc.is_valid(pos)  # min_df-pruned terms drop here
        tf_tbl, pos = tf_tbl.filter(keep), pos.filter(keep)
        row = tf_tbl["row"].to_numpy(zero_copy_only=False)
        tf = tf_tbl["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = tf * (np.float64(n_docs) / dfv[pos.to_numpy(
            zero_copy_only=False)])
        terms_np = np.asarray(tf_tbl["term"].to_pylist(), dtype=object)
        order = np.lexsort((terms_np, -s, row))  # row, score desc, term
        r_sorted = row[order]
        run_start = np.flatnonzero(
            np.concatenate([[True], r_sorted[1:] != r_sorted[:-1]]))
        rank = np.arange(len(order)) - np.repeat(
            run_start, np.diff(np.concatenate([run_start, [len(order)]])))
        top = order[rank < k]
        docs = pc.cast(batch[id_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            id_column: pa.array(docs[row[top]], pa.int64()),
            "term": pa.array(terms_np[top].tolist(), pa.string()),
            "tf": pa.array(tf[top].astype(np.int64), pa.int64()),
            "score": pa.array(s[top], pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


# GPT-2-style pretokenizer pattern, lookahead-free so the SAME RE2 source
# runs in Arrow and DuckDB (both are RE2; the original's `\s+(?!\S)` tail
# needs lookahead, which RE2 lacks — the contraction/letter/number/punct
# classes are what carries the count signal)
BPE_TOKEN_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def token_count_batch(batch: pa.Table, text_column: str = "text",
                      id_column: str = "doc_id") -> pa.Table:
    """Whitespace tokens + BPE-ish regex tokens per doc — both via
    vectorized RE2 count kernels (zero Python row loops)."""
    txt = batch[text_column]
    ws = pc.count_substring_regex(txt, r"\S+")
    bpe = pc.count_substring_regex(txt, BPE_TOKEN_PATTERN)
    return pa.table({
        id_column: pc.cast(batch[id_column], pa.int64()),
        "n_ws_tokens": pc.cast(ws, pa.int64()),
        "n_bpe_tokens": pc.cast(bpe, pa.int64()),
    })


def chunk_documents(ds, chunk_tokens: int = 64, stride: int = 48,
                    text_column: str = "text", id_column: str = "doc_id"):
    """Fixed-size token windows with overlap (stride < chunk_tokens) —
    the standard training-data chunking step. One output row per
    (doc, window): (doc_id, chunk_idx, chunk_text, n_tokens). Windows
    start every ``stride`` tokens; the LAST window may be short (every
    token appears in ≥1 chunk; no empty chunks). Pure flat expansion
    inside ``map_batches`` — embarrassingly parallel, no shuffle.

    Vectorized: one regex token split per batch, then numpy window
    arithmetic over the flat token array; chunk text is rebuilt with a
    single list-slice + join kernel pass per batch."""

    def chunk(batch: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern_regex(batch[text_column], r"\s+")
        toks = pc.list_flatten(tok_lists)
        reps = pc.list_value_length(tok_lists).to_numpy(
            zero_copy_only=False)
        row = np.repeat(np.arange(len(batch)), reps)
        mask = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
        toks = toks.filter(pa.array(mask))
        row = row[mask]
        n_tok = np.bincount(row, minlength=len(batch)).astype(np.int64)
        doc_start = np.concatenate([[0], np.cumsum(n_tok)])
        # number of windows per doc: ceil(max(n - chunk, 0) / stride) + 1
        # for non-empty docs, 0 for empty ones
        extra = np.maximum(n_tok - chunk_tokens, 0)
        n_win = np.where(n_tok > 0,
                         (extra + stride - 1) // stride + 1, 0)
        doc_idx = np.repeat(np.arange(len(batch)), n_win)
        win_start = np.concatenate([[0], np.cumsum(n_win)])
        chunk_idx = np.arange(len(doc_idx)) - np.repeat(
            win_start[:-1], n_win)
        starts = doc_start[doc_idx] + chunk_idx * stride
        ends = np.minimum(starts + chunk_tokens,
                          doc_start[doc_idx] + n_tok[doc_idx])
        if len(starts) == 0:  # batch of only empty docs
            return pa.table({
                id_column: pa.array([], pa.int64()),
                "chunk_idx": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
            })
        flat = pa.chunked_array([toks]).combine_chunks()
        # build list<string> windows from (start, end) index pairs: one
        # ListArray per window via take on a range expansion
        lens = ends - starts
        take_idx = (np.repeat(starts, lens)
                    + (np.arange(lens.sum())
                       - np.repeat(np.concatenate([[0],
                                                   np.cumsum(lens)[:-1]]),
                                   lens)))
        flat_taken = flat.take(pa.array(take_idx, pa.int64()))
        win_offsets = pa.array(
            np.concatenate([[0], np.cumsum(lens)]), pa.int32())
        windows = pa.ListArray.from_arrays(win_offsets, flat_taken)
        texts = pc.binary_join(windows, " ")
        ids = pc.cast(batch[id_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            id_column: pa.array(ids[doc_idx], pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "chunk_text": texts,
            "n_tokens": pa.array(lens, pa.int64()),
        })

    return ds.map_batches(chunk, batch_format="pyarrow")


def dense_rank_column(ds, column: str, id_column: str = "doc_id"):
    """Global ``dense_rank() OVER (ORDER BY column)`` without a global
    sort: dense rank depends only on the DISTINCT value order, so
    ``Dataset.unique`` over per-batch distinct values gives a sorted
    distinct-value array to broadcast, and a stateless searchsorted map
    assigns 1 + position — integers end to end, no float boundary
    anywhere."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"value": pc.unique(batch[column]).drop_null()})

    # one entry per distinct value; None when the dataset is empty
    distinct = ds.map_batches(partial, batch_format="pyarrow").unique("value")
    values = np.sort(np.asarray(distinct or [], dtype=np.int64))
    ref = ray.put(values)

    def rank(batch: pa.Table) -> pa.Table:
        vals = ray.get(ref)
        # null values are dropped (they have no dense rank; a null slot
        # would also NaN-poison the numpy conversion below)
        batch = batch.filter(pc.is_valid(batch[column]))
        x = pc.cast(batch[column], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            id_column: pc.cast(batch[id_column], pa.int64()),
            column: batch[column],
            "drank": pa.array(np.searchsorted(vals, x) + 1, pa.int64()),
        })

    return ds.map_batches(rank, batch_format="pyarrow")


def percent_rank_column(ds, column: str, id_column: str = "doc_id"):
    """Global ``percent_rank() OVER (ORDER BY column)`` without a global
    sort: the distributed value-count sketch (one row per DISTINCT
    value) folds to (value → count-below) on the driver, broadcasts via
    ``ray.put``, and a stateless searchsorted map assigns
    (rank − 1) / (n − 1) — ties share the min rank, exactly the SQL
    window rule. Same pre-binning caveat as ``value_quantiles`` for
    continuous columns."""
    import ray

    values, cum = _sorted_value_counts(ds, column)
    below = np.concatenate([[0], cum[:-1]])
    n = int(cum[-1]) if len(cum) else 0
    ref = ray.put((values, below))

    def rank(batch: pa.Table) -> pa.Table:
        vals, blw = ray.get(ref)
        x = pc.cast(batch[column], pa.int64()).to_numpy(
            zero_copy_only=False)
        r = blw[np.searchsorted(vals, x)]  # count strictly below = rank-1
        pct = (r / (n - 1)) if n > 1 else np.zeros(len(x), np.float64)
        return pa.table({
            id_column: pc.cast(batch[id_column], pa.int64()),
            column: batch[column],
            "pct_rank": pa.array(np.asarray(pct, np.float64),
                                 pa.float64()),
        })

    return ds.map_batches(rank, batch_format="pyarrow")


def inverted_index(ds, min_df: int = 2, text_column: str = "text",
                   id_column: str = "doc_id"):
    """Search-index build: term → sorted posting list (comma-joined
    string, so the row is hashable by any engine) + df. Same dataflow
    as ``term_doc_frequency`` with the postings carried through the
    vocabulary-bounded exchange: one ``partitioned_sweep`` on the term
    ordered by doc id (64 partitions), so each term's postings are one
    sorted run."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    def partial(batch: pa.Table) -> pa.Table:
        idx, terms = _gram_rows(batch[text_column], 1)
        ids = pc.cast(batch[id_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        return (pa.table({"term": terms,
                          id_column: pa.array(ids[idx], pa.int64())})
                .group_by(["term", id_column]).aggregate([]))

    def build(g: pa.Table, starts: np.ndarray) -> pa.Table:
        # one coarse partition holds ALL rows of each of its terms,
        # sorted by (term, id): each term's postings are one list slice
        bounds = np.append(starts, g.num_rows)
        df = np.diff(bounds)
        keep = pa.array(df >= min_df)
        postings = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()),
            pc.cast(g[id_column], pa.string()).combine_chunks())
        return pa.table({
            "term": g["term"].take(pa.array(starts)).filter(keep),
            "postings": pc.binary_join(postings.filter(keep), ","),
            "df": pa.array(df, pa.int64()).filter(keep),
        })

    return partitioned_sweep(ds.map_batches(partial, batch_format="pyarrow"),
                             "term", [id_column], build, 64)


def top_collocations(ds, k: int = 20, min_count: int = 5,
                     text_column: str = "text"):
    """Top-k bigram collocations by a PMI-style lift score
    ``(c_ab / N_bi) · (N_uni / c_a) · (N_uni / c_b)`` — the exact
    float64 expression (in this order) a SQL twin computes, from exact
    integer counts, so no log/rounding drift. Ties break by
    (left, right) ascending.

    Dataflow: ONE vocabulary²-bounded (left, right) ``grouped_aggregate``
    (materialized — it is the small derived table, not the corpus); totals fold
    from the unigram/bigram count tables; unigram counts broadcast in the
    closure (vocabulary-bounded); scoring is one vectorized map; the final
    top-k is a distributed sort + limit over bigram rows."""
    from ray.data.aggregate import Sum

    from pdf_inspector_ray.functions.decontam import _gram_rows

    def bigrams(batch: pa.Table) -> pa.Table:
        tok_lists = pc.split_pattern_regex(batch[text_column], r"\s+")
        toks = pc.list_flatten(tok_lists).combine_chunks()
        reps = pc.list_value_length(tok_lists).to_numpy(
            zero_copy_only=False)
        row = np.repeat(np.arange(len(batch)), reps)
        mask = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
        toks = toks.filter(pa.array(mask))
        row = row[mask]
        n = len(toks)
        if n < 2:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string())})
        valid = pa.array(row[:n - 1] == row[1:])
        return pa.table({"a": toks.slice(0, n - 1).filter(valid),
                         "b": toks.slice(1, n - 1).filter(valid)})

    uni_rows = grouped_aggregate(
        ds.map_batches(lambda b: pa.table(
            {"term": _gram_rows(b[text_column], 1)[1]}),
            batch_format="pyarrow"),
        "term", {"c": "count"}).take_all()  # vocabulary-bounded
    uni_terms = pa.array([r["term"] for r in uni_rows], pa.string())
    uni_counts = np.asarray([r["c"] for r in uni_rows], np.float64)
    n_uni = float(uni_counts.sum())

    bi = grouped_aggregate(
        ds.map_batches(bigrams, batch_format="pyarrow"), ["a", "b"],
        {"c": "count"}).materialize()  # vocabulary²-bounded derived table
    total = (bi.aggregate(Sum("c", alias_name="s")) or {}).get("s")
    if total is None:  # no bigrams anywhere (empty/whitespace corpus)
        import ray.data
        return ray.data.from_arrow(pa.table({
            "a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64())}))
    n_bi = float(total)

    def score(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(
            batch["c"], pa.scalar(min_count, pa.int64())))
        if t.num_rows == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        ca = uni_counts[pc.index_in(
            t["a"], value_set=uni_terms).to_numpy(zero_copy_only=False)]
        cb = uni_counts[pc.index_in(
            t["b"], value_set=uni_terms).to_numpy(zero_copy_only=False)]
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = (c / n_bi) * (n_uni / ca) * (n_uni / cb)
        return t.append_column(
            pa.field("score", pa.float64()), pa.array(s, pa.float64()))

    return (bi.map_batches(score, batch_format="pyarrow")
              .sort(["score", "a", "b"], descending=[True, False, False])
              .limit(k))


def approx_quantiles(ds, column: str,
                     qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
                     num_bins: int = 4096):
    """Quantiles of a CONTINUOUS column via two cheap passes — the
    float-column companion to ``value_quantiles`` (whose distinct-value
    sketch explodes on continuous data): (1) global (min, max) partial
    aggregate; (2) fixed-width bin counts (``num_bins`` rows leave any
    batch) → tiny driver cumsum → for each q (ceil(q·n) rank, the
    quantile_disc convention) return the LOWER EDGE of the rank's bin.
    Deterministic and SQL-twin-exact by construction (both sides bin
    with the same float64 expression); worst-case error = one bin width
    (max−min)/num_bins — pinned against the exact quantile in pytest."""
    from ray.data.aggregate import Max, Min

    def rng_partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[column], pa.float64())
        return pa.table({"mn": pa.array([pc.min(v).as_py()], pa.float64()),
                         "mx": pa.array([pc.max(v).as_py()], pa.float64())})

    r = ds.map_batches(rng_partial, batch_format="pyarrow").aggregate(
        Min("mn", alias_name="mn"), Max("mx", alias_name="mx"))
    mn, mx = float(r["mn"]), float(r["mx"])
    width = (mx - mn) / num_bins if mx > mn else 1.0

    def to_bin(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[column], pa.float64()).to_numpy(
            zero_copy_only=False)
        b = np.minimum(np.floor((v - mn) / width),
                       num_bins - 1).astype(np.int64)
        return pa.table({"bin": pa.array(b, pa.int64())})

    bins, cum = _sorted_value_counts(  # ≤ num_bins rows
        ds.map_batches(to_bin, batch_format="pyarrow"), "bin")
    n = int(cum[-1]) if len(cum) else 0
    out = {}
    for q in qs:
        k = int(np.ceil(q * n)) if n else 0
        idx = int(np.searchsorted(cum, max(k, 1)))
        edge = mn + bins[idx] * width if n else None
        out[f"q{int(q * 100)}"] = edge
    return pa.table({k2: pa.array([v], pa.float64())
                     for k2, v in out.items()})


def winsorized_sum_by_group(ds, group_column: str, value_column: str,
                            q_lo: float = 0.1, q_hi: float = 0.9):
    """Outlier-robust grouped sum: clip each value to its group's exact
    ``[quantile_disc(q_lo), quantile_disc(q_hi)]`` band, then sum — the
    winsorized statistic corpus reports use so a handful of pathological
    documents can't dominate a per-language size budget.

    Two streaming passes (the unavoidable data dependency: clipping needs the
    bounds). Pass 1 is the ``grouped_quantiles`` value-count sketch (exchange
    bounded by groups × distinct values — pre-bin continuous columns at corpus
    scale); the tiny (group, lo, hi) table is broadcast via ``ray.put``. Pass 2
    clips vectorized per batch into one (sum, count) ``grouped_aggregate``.
    Integer in, integer out: the sum of clipped int64 is exact, so the DuckDB
    ``least(greatest(v, lo), hi)`` twin hash-matches.

    Null group or value rows are dropped (they carry no quantile
    information in pass 1, and SQL SUM/COUNT(value) ignores them)."""
    import ray

    lohi = int(q_lo * 100), int(q_hi * 100)
    bt = grouped_quantiles(ds, group_column, value_column, qs=(q_lo, q_hi))
    bounds = {g: (lo, hi) for g, lo, hi in zip(
        bt[group_column].to_pylist(),
        bt[f"q{lohi[0]}"].to_pylist(), bt[f"q{lohi[1]}"].to_pylist())}
    bounds_ref = ray.put(bounds)

    def clip(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[value_column])))
        grp = batch[group_column]
        # dictionary-encode the group column so the dict lookup runs once
        # per distinct group per batch, not once per row
        enc = pc.dictionary_encode(grp.combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq = enc.dictionary.to_pylist()
        lo = np.asarray([b[g][0] for g in uniq], np.int64)[codes]
        hi = np.asarray([b[g][1] for g in uniq], np.int64)[codes]
        x = pc.cast(batch[value_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        clipped = np.minimum(np.maximum(x, lo), hi)
        return pa.table({"grp": grp, "winsorized_sum": pa.array(
            clipped, pa.int64())})

    agg = grouped_aggregate(ds.map_batches(clip, batch_format="pyarrow"),
                            "grp", {"winsorized_sum": "sum",
                                    "n_rows": "count"})

    def finish(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        grps = batch["grp"].to_pylist()
        return pa.table({
            group_column: batch["grp"],
            "lo": pa.array([b[g][0] for g in grps], pa.int64()),
            "hi": pa.array([b[g][1] for g in grps], pa.int64()),
            "winsorized_sum": batch["winsorized_sum"],
            "n_rows": batch["n_rows"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def vocab_size_by_group(ds, group_column: str = "source",
                        text_column: str = "text",
                        alias: str = "n_terms"):
    """Vocabulary size per group: COUNT(DISTINCT whitespace-token) — the
    Heaps'-law curve input and the first sanity check on a new corpus
    slice (a source whose vocabulary stops growing is template spam).

    Per-batch tokenize + local distinct (group, term) pairs shrink the
    exchange to unique pairs per batch — vocabulary- not corpus-bounded —
    then one ``keyed_exchange`` on the group and one Arrow
    ``count_distinct`` per partition count its unique terms (the
    ``distinct_count`` dataflow over exploded tokens).
    Tokenizer is the corpus-wide whitespace rule shared with the
    ``regexp_split_to_array(text, '\\s+')`` SQL twin."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[text_column])))
        idx, terms = _gram_rows(batch[text_column], 1)
        grp = batch[group_column].combine_chunks().take(
            pa.array(idx, pa.int64()))
        return (pa.table({"grp": grp, "term": terms})
                .group_by(["grp", "term"]).aggregate([])
                .rename_columns(["grp", "term"]))

    def count(g: pa.Table) -> pa.Table:
        return (g.group_by("grp", use_threads=False)
                 .aggregate([("term", "count_distinct")])
                 .rename_columns([group_column, alias]))

    return keyed_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                          "grp", count)


def iqr_outlier_docs(ds, group_column: str, value_column: str,
                     id_column: str = "doc_id", k_halves: int = 1):
    """Per-group IQR outlier filter: rows whose value falls outside
    ``[q1 - (k_halves/2)·IQR, q3 + (k_halves/2)·IQR]`` of their group —
    the classic box-plot fence used to quarantine pathological documents
    before training. ``k_halves`` counts HALF-IQRs so every comparison
    stays in integers: ``v < q1 - (k/2)·IQR ⟺ 2v < 2·q1 - k·IQR``
    (exact for int64 — no 0.5 float ever materializes, so the SQL twin
    with the same doubled inequality hashes exactly).

    Same two-pass dataflow as ``winsorized_sum_by_group``: exact
    per-group q1/q3 from the value-count sketch (pass 1, exchange
    bounded by groups × distinct values), bounds broadcast via
    ``ray.put``, then a streaming vectorized filter pass that only emits
    the outliers (output is outlier-bounded, not corpus-bounded)."""
    import ray

    bt = grouped_quantiles(ds, group_column, value_column, qs=(0.25, 0.75))
    bounds = {g: (q1, q3) for g, q1, q3 in zip(
        bt[group_column].to_pylist(),
        bt["q25"].to_pylist(), bt["q75"].to_pylist())}
    bounds_ref = ray.put(bounds)

    def flag(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[value_column])))
        enc = pc.dictionary_encode(batch[group_column].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq = enc.dictionary.to_pylist()
        q1 = np.asarray([b[g][0] for g in uniq], np.int64)[codes]
        q3 = np.asarray([b[g][1] for g in uniq], np.int64)[codes]
        iqr = q3 - q1
        v2 = 2 * pc.cast(batch[value_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        low = v2 < 2 * q1 - k_halves * iqr
        high = v2 > 2 * q3 + k_halves * iqr
        keep = low | high
        out = batch.select([id_column, group_column, value_column]) \
                   .filter(pa.array(keep))
        side = np.where(low[keep], "low", "high")
        return out.append_column("side", pa.array(side, pa.string()))

    return ds.map_batches(flag, batch_format="pyarrow")


def source_vocab_jaccard(ds, group_column: str = "source",
                         text_column: str = "text"):
    """Vocabulary overlap between corpus slices: Jaccard similarity of
    the whitespace-token vocabularies of every pair of sources — the
    "is this new crawl actually new material" check run before merging
    a source into the training mix.

    Dataflow: per-batch distinct (source, term) pairs (vocabulary- bounded,
    like ``vocab_size_by_group``), one ``partitioned_sweep`` over ``term``
    ordered by source emits each term's C(k,2) source pairs
    (``relational._run_pairs``; k = # sources containing the term — tiny), then
    one ``grouped_aggregate`` counts the ~|sources|² pairs. Vocab sizes ride
    the same term runs: each term emits one singleton row (src, "") per member
    source and the same count sums them, so ONE term exchange feeds both the
    intersection and the union. "" marks a singleton (no real source name is
    empty). jaccard = inter / union is a single int/int float64 division (exact
    for < 2^53 — hash-matches DuckDB's BIGINT ``/``)."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    def pairs_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[text_column])))
        idx, terms = _gram_rows(batch[text_column], 1)
        grp = batch[group_column].combine_chunks().take(
            pa.array(idx, pa.int64()))
        return (pa.table({"term": terms, "src": grp})
                .group_by(["term", "src"]).aggregate([])
                .rename_columns(["term", "src"]))

    def emit_pairs(g: pa.Table, starts: np.ndarray) -> pa.Table:
        srcs, a, b = _run_pairs(pc.cast(g["src"], pa.string()
                                        ).combine_chunks(), starts)
        return pa.table({
            "source_a": pa.concat_arrays([a, srcs]),
            "source_b": pa.concat_arrays(
                [b, pa.array([""] * len(srcs), pa.string())])})

    pairs = ds.map_batches(pairs_partial, batch_format="pyarrow")
    counts = grouped_aggregate(
        partitioned_sweep(pairs, "term", ["src"], emit_pairs),
        ["source_a", "source_b"], {"n": "count"})

    def finish(batch: pa.Table) -> pa.Table:
        t = batch.to_pandas()
        mark = t.source_b == ""
        sizes = dict(zip(t.loc[mark, "source_a"], t.loc[mark, "n"]))
        p = t[~mark]
        inter = p.n.to_numpy(dtype=np.int64)
        union = (p.source_a.map(sizes).to_numpy(dtype=np.int64)
                 + p.source_b.map(sizes).to_numpy(dtype=np.int64) - inter)
        return pa.table({
            "source_a": pa.array(p.source_a, pa.string()),
            "source_b": pa.array(p.source_b, pa.string()),
            "inter_terms": pa.array(inter, pa.int64()),
            "union_terms": pa.array(union, pa.int64()),
            "jaccard": pa.array(inter.astype(np.float64) / union,
                                pa.float64()),
        })

    # the pair table is |sources|²-bounded (tiny) — one driver-side
    # finish fold is the whole materialization
    import pyarrow as _pa
    merged = _pa.concat_tables(
        list(counts.iter_batches(batch_format="pyarrow")),
        promote_options="default")
    return finish(merged)


def _source_term_counts(ds, group_column: str, text_column: str):
    """Exact (src, term) → ``n`` whitespace-token counts of non-null
    rows: one vocabulary-bounded ``grouped_aggregate``."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    def terms(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[text_column])))
        idx, terms = _gram_rows(batch[text_column], 1)
        grp = batch[group_column].combine_chunks().take(
            pa.array(idx, pa.int64()))
        return pa.table({"src": grp, "term": terms})

    return grouped_aggregate(ds.map_batches(terms, batch_format="pyarrow"),
                             ["src", "term"], {"n": "count"})


def source_simpson_diversity(ds, group_column: str = "source",
                             text_column: str = "text"):
    """Simpson diversity of each source's token distribution:
    ``1 − Σ n_i(n_i−1) / (N(N−1))`` over whitespace-token counts — the
    collision-probability diversity index (low = template spam, high =
    varied prose). All-integer aggregates: the first folds exact
    (source, term) counts (vocabulary-bounded), the second the
    per-source Σ n(n−1) and N (source-bounded); the index itself is one
    mirrored float64 divide-and-subtract (both products < 2^53 at any
    per-source token count up to ~9.4e7 for N(N−1), and per-term counts
    far below — beyond that, pre-scale or report the integer pair
    counts only)."""

    def pairs(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        return pa.table({"src": batch["src"],
                         "pairs_same": pa.array(n * (n - 1), pa.int64()),
                         "n_tokens": batch["n"]})

    agg = grouped_aggregate(
        _source_term_counts(ds, group_column, text_column).map_batches(
            pairs, batch_format="pyarrow"),
        "src", {"pairs_same": "sum", "n_tokens": "sum"})

    def finish(batch: pa.Table) -> pa.Table:
        pairs = batch["pairs_same"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        simpson = 1.0 - pairs.astype(np.float64) / (n * (n - 1))
        return pa.table({
            group_column: batch["src"],
            "pairs_same": batch["pairs_same"],
            "n_tokens": batch["n_tokens"],
            "simpson": pa.array(simpson, pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def zipf_topk_share(ds, group_column: str = "source",
                    text_column: str = "text", k: int = 10):
    """Zipf-head concentration: the share of each source's token mass
    held by its top-``k`` most frequent terms — near 1.0 means
    boilerplate/template text, low means varied prose (the cheap
    Zipf-curve summary used to rank sources for dedup attention).

    One aggregate folds exact (source, term) counts (vocabulary-bounded);
    one ``partitioned_sweep`` over the source orders counts descending
    with term-ascending tie-break (the deterministic ROW_NUMBER rule)
    and emits top-k sum, total, and ONE mirrored float64 division
    (exact < 2^53)."""

    def head(g: pa.Table, starts: np.ndarray) -> pa.Table:
        n = pc.cast(g["n"], pa.int64()).to_numpy(zero_copy_only=False)
        rank = np.arange(len(n)) - _run_start(starts, len(n))
        topk = np.add.reduceat(np.where(rank < k, n, 0), starts)
        total = np.add.reduceat(n, starts)
        return pa.table({
            group_column: g["src"].take(starts),
            "topk_tokens": pa.array(topk, pa.int64()),
            "n_tokens": pa.array(total, pa.int64()),
            "topk_share": pa.array(topk.astype(np.float64) / total,
                                   pa.float64()),
        })

    return partitioned_sweep(
        _source_term_counts(ds, group_column, text_column), "src",
        [("n", "descending"), "term"], head)
