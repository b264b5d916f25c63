"""Benchmark decontamination: flag TRAIN-split documents sharing any word
k-gram with a held-out (test-split) document — the standard pre-training
hygiene pass (the reference engine has no dataflow layer; this is a §2.8
training-data addition like ``dedup``/``similarity``).

Shape (scale-first):

1. Per-batch gram emission is fully vectorized: tokens via Arrow
   ``split_pattern_regex`` (the corpus-wide tokenizer rule — whitespace
   split, empties dropped), sliding windows built from k shifted flat
   token arrays joined with ``binary_join_element_wise`` (windows that
   would cross a document boundary are masked out). The train/val/test
   assignment reuses ``text_stats.assign_split_batch``'s md5 basis-point
   rule, so the split is stable across runs and corpus growth. Each
   document's text lives in ONE row, so a per-batch ``group_by`` distinct
   over (gram, doc) pairs is already globally distinct — no pre-shuffle
   dedup pass needed.
2. One ``relational.keyed_exchange`` on the gram co-partitions gram
   rows (the library's one keyed exchange; its row hash is seed-pinned,
   so deterministic across workers). The hash is only a ROUTER: equality
   inside a partition is decided on the gram strings themselves
   (dictionary encode), so hash collisions merely co-locate two grams
   and can never fabricate a contamination hit. ``num_partitions``
   bounds per-task memory, one UDF call per coarse partition (not per
   gram).
3. Inside a partition every gram's rows are together: a gram is
   *contaminating* iff it has ≥1 eval row; each train row of such a gram
   is one hit. The sweep is numpy boolean indexing over dictionary codes.
4. A ``grouped_aggregate`` count per doc_id yields ``n_hits`` =
   COUNT(DISTINCT contaminated grams) per train doc; its per-batch
   partial shrinks the second exchange to ≤ one row per (batch, doc).

At 10^12-doc scale the exchange in (2) carries every train/test gram
once (~k words each) — that is the bottleneck, and ``bloom_prescreen``
removes it WITHOUT giving up exactness: a Bloom filter over eval grams
(``build_eval_gram_bloom`` — per-batch bitmaps OR-folded through a
fan-in-64 tree stage, broadcast once with ``ray.put``) drops clean train
grams before the exchange. No false negatives means no missed hits; the
false positives (~3% at the default sizing) still reach the exact gram
join and die there, so both paths return identical tables (pinned in
tests and by the shared driver oracle).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pdf_inspector_ray.functions.relational import (grouped_aggregate,
                                                    keyed_exchange)

GRAM_PARTITIONS = 256

# Bloom prescreen sizing: bits per filter and probes per key. 2^26 bits
# (8 MiB) at 4 probes holds ~2^23 eval grams under 3% false positives —
# size up with the eval corpus (m ≈ 10 × n_grams keeps fp < 1%).
BLOOM_BITS = 1 << 26
BLOOM_HASHES = 4


def _gram_rows(texts, k: int) -> tuple[np.ndarray, pa.Array]:
    """Vectorized word k-grams over a string column: (row_indices, grams)
    flat arrays, windows confined to one row's token list."""
    tok_lists = pc.split_pattern_regex(texts, r"\s+")
    toks = pc.list_flatten(tok_lists).combine_chunks()
    reps = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
    row = np.repeat(np.arange(len(texts)), reps)
    mask = pc.not_equal(toks, "")
    toks = toks.filter(mask)
    row = row[mask.to_numpy(zero_copy_only=False)]
    n = len(toks)
    empty = np.array([], np.int64), pa.array([], pa.string())
    if n < k:
        return empty
    n_win = n - k + 1
    valid = row[:n_win] == row[k - 1:]
    if not valid.any():
        return empty
    shifted = [toks.slice(j, n_win) for j in range(k)]
    grams = pc.binary_join_element_wise(*shifted, " ")
    return row[:n_win][valid], grams.filter(pa.array(valid))


def _split_bps(ids) -> np.ndarray:
    """md5 basis points in [0, 10000) — the ``assign_split_batch`` rule."""
    return np.fromiter(
        (int(hashlib.md5(str(i).encode(), usedforsecurity=False)
             .hexdigest()[:8], 16) % 10000 for i in ids),
        dtype=np.int64, count=len(ids))


def _bloom_positions(h: np.ndarray, m_bits: int,
                     n_hashes: int) -> np.ndarray:
    """(len(h), n_hashes) bit positions via double hashing: the two
    halves of one 64-bit xxhash act as (h1, h2)."""
    h1 = h >> np.uint64(32)
    h2 = h & np.uint64(0xFFFFFFFF) | np.uint64(1)  # odd → full-period step
    i = np.arange(n_hashes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)


def _bloom_set(bitmap: np.ndarray, pos: np.ndarray) -> None:
    np.bitwise_or.at(bitmap, pos >> np.uint64(6),
                     np.uint64(1) << (pos & np.uint64(63)))


def _bloom_test(bitmap: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row mask: True where ALL of the row's probe bits are set."""
    hit = (bitmap[(pos >> np.uint64(6)).astype(np.int64)]
           >> (pos & np.uint64(63))) & np.uint64(1)
    return hit.all(axis=1)


def _gram_hash(grams: pa.Array) -> np.ndarray:
    """Seed-pinned 64-bit gram hash (polars xxhash): the Bloom
    prescreen's basis, and ``jaccard_prefix_candidates``' bucket key."""
    import polars as pl
    return pl.from_arrow(grams).hash(seed=0).to_numpy()


def build_eval_gram_bloom(ds, k: int = 5, eval_bp: int = 9000,
                          text_column: str = "text",
                          id_column: str = "doc_id",
                          m_bits: int = BLOOM_BITS,
                          n_hashes: int = BLOOM_HASHES) -> np.ndarray:
    """Bloom filter (uint64 bitmap, ``m_bits`` total) over every word
    k-gram of the eval (test) split. Per-batch bitmaps are OR-combined in
    a fan-in-64 ``map_batches`` tree stage, so the driver folds at most
    ~num_batches/64 bitmaps (one more tree level covers any corpus)."""
    words = m_bits >> 6

    empty = pa.table({"bloom": pa.array([], pa.large_binary())})

    def batch_bloom(batch: pa.Table) -> pa.Table:
        bps = _split_bps(batch[id_column].to_pylist())
        batch = batch.filter(pa.array(bps >= eval_bp))
        if not batch.num_rows:
            # train-only batch — ship NOTHING, not an all-zero bitmap
            # (at a realistic 90/10 split most batches land here)
            return empty
        _, grams = _gram_rows(batch[text_column], k)
        if not len(grams):
            return empty
        bitmap = np.zeros(words, dtype=np.uint64)
        _bloom_set(bitmap, _bloom_positions(
            _gram_hash(grams), m_bits, n_hashes))
        return pa.table({"bloom": pa.array([bitmap.view(np.uint8)
                                            .tobytes()], pa.large_binary())})

    def or_combine(batch: pa.Table) -> pa.Table:
        acc = np.zeros(words, dtype=np.uint64)
        for blob in batch["bloom"]:
            acc |= np.frombuffer(blob.as_py(), dtype=np.uint64)
        return pa.table({"bloom": pa.array([acc.view(np.uint8).tobytes()],
                                           pa.large_binary())})

    parts = (ds.map_batches(batch_bloom, batch_format="pyarrow")
               .map_batches(or_combine, batch_format="pyarrow",
                            batch_size=64))
    acc = np.zeros(words, dtype=np.uint64)
    for b in parts.iter_batches(batch_format="pyarrow"):
        for blob in b["bloom"]:
            acc |= np.frombuffer(blob.as_py(), dtype=np.uint64)
    return acc


def contaminated_train_docs(ds, k: int = 5, train_bp: int = 8000,
                            eval_bp: int = 9000, text_column: str = "text",
                            id_column: str = "doc_id",
                            num_partitions: int = GRAM_PARTITIONS,
                            bloom_prescreen: bool = False,
                            m_bits: int = BLOOM_BITS,
                            n_hashes: int = BLOOM_HASHES):
    """(doc_id, n_hits) for every train-split doc sharing ≥1 word k-gram
    with any test-split doc; ``n_hits`` counts its distinct contaminated
    grams. Val-split docs participate on neither side.

    ``bloom_prescreen=True`` is the 100-TB shape: a Bloom filter of eval
    grams (built distributed, broadcast once via ``ray.put``) drops every
    train gram that cannot be contaminated BEFORE the exchange, shrinking
    it from all-grams to eval grams + (hits + fp·clean) train grams —
    with a realistic ≪1% contamination rate that is ~the eval split
    size. The result is still EXACT: Bloom filters have no false
    negatives, and false positives die in the exact gram join."""
    bloom_ref = None
    if bloom_prescreen:
        import ray
        bloom_ref = ray.put(build_eval_gram_bloom(
            ds, k=k, eval_bp=eval_bp, text_column=text_column,
            id_column=id_column, m_bits=m_bits, n_hashes=n_hashes))

    def to_rows(batch: pa.Table) -> pa.Table:
        # one md5 per DOCUMENT; val-split docs never emit a gram
        bps = _split_bps(batch[id_column].to_pylist())
        keep_doc = (bps < train_bp) | (bps >= eval_bp)
        batch = batch.filter(pa.array(keep_doc))
        is_eval_doc = bps[keep_doc] >= eval_bp
        idx, grams = _gram_rows(batch[text_column], k)
        t = pa.table({
            "doc_id": pc.cast(batch[id_column].take(pa.array(idx)),
                              pa.int64()),
            "gram": grams,
            "is_eval": pa.array(is_eval_doc[idx]),
        })
        # distinct (doc, gram) pairs — global because one doc = one row
        t = t.group_by(["doc_id", "gram", "is_eval"]).aggregate([])
        if bloom_ref is not None and t.num_rows:
            import ray
            maybe = _bloom_test(ray.get(bloom_ref), _bloom_positions(
                _gram_hash(t["gram"].combine_chunks()), m_bits, n_hashes))
            t = t.filter(pa.array(
                maybe | t["is_eval"].to_numpy(zero_copy_only=False)))
        return t

    def per_part(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        enc = group["gram"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        is_eval = group["is_eval"].to_numpy(zero_copy_only=False)
        has_eval = np.zeros(len(enc.dictionary), dtype=bool)
        has_eval[codes[is_eval]] = True
        keep = has_eval[codes] & ~is_eval
        return pa.table({"doc_id": group["doc_id"].filter(pa.array(keep))})

    return grouped_aggregate(
        keyed_exchange(ds.map_batches(to_rows, batch_format="pyarrow"),
                       "gram", per_part, num_partitions),
        "doc_id", {"n_hits": "count"})
