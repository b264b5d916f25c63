"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale design (100 TB):
* exact — hash text per batch (map_batches), then ``grouped_topk`` on
  the digest keeps the min doc_id per digest. One shuffle, keys are
  uniform digests → no skew.
* MinHash/SimHash/embedding-LSH — signature per doc (map_batches, numpy),
  ``flat_map`` to (band_hash, doc_id) bucket rows, ``partitioned_sweep``
  on the bucket ordered by doc_id, emit candidate pairs per bucket run,
  dedupe pairs (a ``keyed_exchange`` on the pair), then verify
  candidates exactly (Jaccard / hamming / cosine). Buckets are hashes →
  uniform; the only skew risk is a giant duplicate cluster, which
  splits by subkey bits past MAX_BUCKET members.
* Every kernel that needs a partition's buckets, docs or grams as
  contiguous runs gets them from ``partitioned_sweep``, the library's
  one partition sort; no kernel here sorts its partition itself.
* verification, connected components and the kept-docs filter attach
  per-doc values with ``relational.hash_join``, the library's one
  equi-join: it broadcasts a right side of at most ``BROADCAST_ROWS``
  rows and shuffles a larger one, a choice made from the side's size.

All signatures are seed-fixed (numpy default_rng(seed)) → deterministic.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pdf_inspector_ray.functions.relational import (_changes, _run_start,
                                                    grouped_aggregate,
                                                    grouped_topk, hash_join,
                                                    keyed_exchange,
                                                    partitioned_sweep)

# a bucket of more members than this splits by subkey bits, never truncates
MAX_BUCKET = 256


# -- exact ------------------------------------------------------------------

def exact_dedup(ds, text_column: str = "text"):
    """Dataset → (text_md5, doc_id=min) one row per distinct text: the
    ``grouped_topk`` row with ``k=1`` per digest ordered by doc_id. A
    null text has a null digest, and all of them form one group, as
    SQL's ``GROUP BY md5(text)`` does."""

    def add_md5(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        md5s = [hashlib.md5(t.encode("utf-8"), usedforsecurity=False).hexdigest()
                if t is not None else None for t in texts]
        return pa.table({
            "text_md5": pa.array(md5s, pa.string()),
            "doc_id": batch["doc_id"],
        })

    return grouped_topk(ds.map_batches(add_md5, batch_format="pyarrow"),
                        "text_md5", ["doc_id"], 1)


# -- minhash + LSH ----------------------------------------------------------

_MERSENNE = (1 << 61) - 1


class MinHasher:
    """Seeded minhash over word shingles (k-word n-grams)."""

    def __init__(self, num_perm: int = 128, shingle_k: int = 3, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.num_perm = num_perm
        self.shingle_k = shingle_k
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self._word_cache: dict[str, np.uint64] = {}

    # vectorized shingle hashing (VERDICT r01 fix #5): md5 once per UNIQUE
    # word (cached across docs — vocabulary repeats heavily), then a numpy
    # polynomial rolling combination over the word-hash array. Seed-stable
    # and batch-composition-independent: a word's hash is a pure function
    # of the word.
    _WORD_POLY = np.uint64(0x9E3779B97F4A7C15)  # odd 64-bit mixing constant

    def _word_hash(self, word: str) -> np.uint64:
        h = self._word_cache.get(word)
        if h is None:
            h = np.uint64(int.from_bytes(
                hashlib.md5(word.encode(), usedforsecurity=False).digest()[:8],
                "big"))
            if len(self._word_cache) < 1_000_000:
                self._word_cache[word] = h
        return h

    def shingles(self, text: str) -> np.ndarray:
        words = text.split()
        k = self.shingle_k
        wh = np.fromiter((self._word_hash(w) for w in words),
                         dtype=np.uint64, count=len(words))
        if len(words) < k:
            if not words:
                return np.zeros(1, dtype=np.uint64)
            acc = np.uint64(0)
            with np.errstate(over="ignore"):
                for h in wh:
                    acc = acc * self._WORD_POLY + h
            return np.array([acc], dtype=np.uint64)
        n = len(words) - k + 1
        with np.errstate(over="ignore"):
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(k):  # k is tiny (3); the vector ops are the loop
                acc = acc * self._WORD_POLY + wh[j:j + n]
        return acc

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingles(text)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (num_perm, n_shingles) via broadcasting, min over shingles
        vals = (np.outer(self.a, sh) + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1).astype(np.uint64)


class MinHashSignatures:
    """Actor-pool UDF: text → minhash signature + LSH band hashes."""

    def __init__(self, num_perm: int = 128, bands: int = 16,
                 shingle_k: int = 3, seed: int = 42,
                 text_column: str = "text"):
        assert num_perm % bands == 0
        self.hasher = MinHasher(num_perm, shingle_k, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.text_column = text_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        doc_ids = batch["doc_id"].to_pylist()
        out_doc: list[int] = []
        out_band: list[int] = []
        out_bucket: list[int] = []
        out_subkey: list[int] = []
        for doc_id, text in zip(doc_ids, texts):
            if text is None:
                continue
            sig = self.hasher.signature(text)
            digests = [
                hashlib.md5(
                    sig[b * self.rows_per_band:(b + 1) * self.rows_per_band]
                    .tobytes(), usedforsecurity=False).digest()
                for b in range(self.bands)]
            for band in range(self.bands):
                # subkey: one byte from each of the next 8 bands' digests —
                # the oversized-bucket splitter (_expand_members) separates
                # members along OTHER bands' agreement, so a near-dup pair
                # split apart here still had those bands' own buckets as
                # catch paths (P(disagree all 8 neighbor bytes) ≈
                # (1−J^rows)^8 ≈ 1.5% at J=0.8, ≪ that at clique J≈1 where
                # oversized buckets actually occur). Identical-signature
                # cliques share every byte and are never split — no drops.
                sub = 0
                for i in range(8):
                    nb = digests[(band + 1 + i) % self.bands]
                    sub |= nb[0] << (i * 8)
                out_doc.append(doc_id)
                out_band.append(band)
                # uint64 bucket key: band in the top 16 bits, first 48
                # digest bits below (distinct digests colliding in 48 bits
                # merely MERGE two buckets → a few extra candidates that
                # exact verification removes; never a recall loss)
                out_bucket.append(_bucket_key(
                    band, int.from_bytes(digests[band][:6], "big")))
                out_subkey.append(sub)
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "band": pa.array(out_band, pa.int32()),
            "bucket": pa.array(out_bucket, pa.uint64()),
            "subkey": pa.array(out_subkey, pa.uint64()),
        })


# Coarse hash partitions for the pair machinery. Every bucket, pair, gram
# and doc exchange here is a ``keyed_exchange``: a groupby on the RAW key
# would make Ray call the group UDF once per tiny group (tens of thousands
# of Python calls), while one call per partition processes ~n/P rows
# vectorized.
PAIR_PARTITIONS = 256


def _bucket_key(band: int, payload48: int) -> int:
    """uint64 bucket key: band index in the top 16 bits, 48 payload bits
    below. Numeric keys keep the partitioner and the per-partition sort
    fully vectorized (the old string keys cost a Python crc32 per bucket
    ROW — one per (doc, band) — in the shuffle's map side)."""
    return (band << 48) | (payload48 & ((1 << 48) - 1))


_EMPTY_PAIRS = pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})


def _emit_all_pairs(mem: np.ndarray, a_out: list, b_out: list) -> None:
    if len(mem) < 2:
        return
    ii, jj = np.triu_indices(len(mem), 1)
    a_out.append(mem[ii])
    b_out.append(mem[jj])


def _expand_members(ids: np.ndarray, keys: np.ndarray, free_bits: np.ndarray,
                    n_chunks: int, a_out: list, b_out: list) -> None:
    """Pair expansion for one bucket's (unique) members, splitting
    oversized groups by additional ``subkey`` bits instead of truncating
    (ADVICE r02: MAX_BUCKET truncation silently dropped candidate pairs).

    ``keys`` is a per-member uint64 subkey; ``free_bits`` the subkey bit
    positions not yet conditioned on; the free bits are partitioned into
    ``n_chunks`` disjoint chunks and each member is recursed into every
    chunk's value-subgroup, or only into a chunk all members share when
    there is one (duplicate emissions are removed downstream by
    ``_dedupe_pairs``).

    For simhash — subkey = the full 64-bit simhash, ``n_chunks = bands``,
    free bits = everything outside the bucket's own band — this preserves
    the hamming-radius guarantee EXACTLY: a pair with hamming ≤ bands−1
    differs in at most bands−1 of the ``n_chunks`` disjoint chunks, so it
    agrees on at least one chunk at every level (pigeonhole) and stays
    co-grouped until its group is small enough to emit all pairs. The
    pigeonhole needs ``n_chunks`` non-empty chunks, so a group whose
    free bits run short of that emits all its pairs.
    Identical-subkey groups (true duplicate cliques) bottom out and emit
    the full clique — the quadratic output of a genuine clique is the
    honest answer, never a drop.
    """
    if (len(ids) <= MAX_BUCKET or len(free_bits) < n_chunks
            or len(np.unique(keys)) <= 1):
        _emit_all_pairs(ids, a_out, b_out)
        return
    chunks = [c for c in np.array_split(free_bits, n_chunks) if len(c)]
    subs = []
    for chunk in chunks:
        sub = np.zeros(len(keys), dtype=np.uint64)
        for b in chunk:
            sub = (sub << np.uint64(1)) | ((keys >> np.uint64(b)) & np.uint64(1))
        subs.append(sub)
    # A chunk every member agrees on keeps every pair co-grouped, so the
    # pigeonhole guarantee holds through its recursion alone. Recursing
    # into the other chunks too would fork the whole group once per chunk
    # at every level: exponential for a group of a few distinct subkeys.
    whole = [i for i, sub in enumerate(subs) if (sub == sub[0]).all()]
    for i in whole[:1] or range(len(chunks)):
        rest = (np.concatenate([c for j, c in enumerate(chunks) if j != i])
                if len(chunks) > 1 else np.array([], dtype=free_bits.dtype))
        sub = subs[i]
        order = np.argsort(sub, kind="stable")
        svals = sub[order]
        bounds = np.nonzero(svals[1:] != svals[:-1])[0] + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(svals)]])
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            sel = order[s:e]
            _expand_members(ids[sel], keys[sel], rest, n_chunks, a_out, b_out)


def _bucket_members(ids: np.ndarray, starts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Members of each bucket of a partition swept by (bucket, doc_id)
    (``starts``: each bucket's first row): a doc that reaches one bucket
    twice sits next to its copy, so dropping adjacent repeats dedupes
    every bucket at once. Returns the kept rows' indexes and, in that
    kept index space, the start and end of each bucket holding two or
    more members — singleton buckets, most of them, never enter the
    per-bucket loop."""
    kept = np.flatnonzero(_changes(ids, starts))
    lo = np.searchsorted(kept, starts)
    hi = np.append(lo[1:], len(kept))
    multi = hi - lo >= 2
    return kept, lo[multi], hi[multi]


def _pairs_from_bucket_block(g: pa.Table, starts: np.ndarray,
                             n_chunks: int = 8,
                             own_band_width: int | None = None) -> pa.Table:
    """``partitioned_sweep`` kernel: all buckets of one coarse partition,
    sorted by (bucket, doc_id), → candidate pairs. Buckets of at most
    MAX_BUCKET members expand via np.triu_indices; larger ones split by
    extra ``subkey`` bits (``_expand_members``) instead of truncating.

    ``own_band_width``: when the subkey embeds the bucket's own band bits
    at ``[band*width, (band+1)*width)`` (simhash: subkey = full hash;
    embeddings: subkey = full sign pattern), those bits are excluded from
    the split — the members already agree there. ``None`` means the subkey
    is built entirely from out-of-band material (minhash neighbor-band
    digest bytes) and all 64 bits are free."""
    ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    kept, lo, hi = _bucket_members(ids, starts)
    ids = ids[kept]
    keys = g["subkey"].to_numpy(zero_copy_only=False)[kept]
    buckets = g["bucket"].to_numpy(zero_copy_only=False)[kept]
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    for s, e in zip(lo, hi):
        if e - s <= MAX_BUCKET:
            _emit_all_pairs(ids[s:e], a_out, b_out)
            continue
        if own_band_width:
            band = int(buckets[s] >> np.uint64(48))
            lo_bit, hi_bit = band * own_band_width, (band + 1) * own_band_width
            free = np.array([b for b in range(64)
                             if not lo_bit <= b < hi_bit], dtype=np.int64)
        else:
            free = np.arange(64, dtype=np.int64)
        _expand_members(ids[s:e], keys[s:e], free, n_chunks, a_out, b_out)
    if not a_out:
        return _EMPTY_PAIRS
    return pa.table({
        "doc_a": pa.array(np.concatenate(a_out), pa.int64()),
        "doc_b": pa.array(np.concatenate(b_out), pa.int64()),
    })


def _bucket_pairs(buckets_ds, n_chunks: int = 8,
                  own_band_width: int | None = None):
    """(doc_id, bucket, subkey) rows → deduped candidate pairs via the
    coarse partition scheme above (two skew-free shuffles total): one
    ``partitioned_sweep`` on the bucket ordered by doc_id, then the pair
    dedupe."""
    import functools
    fn = functools.partial(_pairs_from_bucket_block, n_chunks=n_chunks,
                           own_band_width=own_band_width)
    return _dedupe_pairs(partitioned_sweep(buckets_ds, "bucket", ["doc_id"],
                                           fn, PAIR_PARTITIONS))


def _dedupe_pairs(pairs_ds):
    """Drop duplicate (doc_a, doc_b) rows produced by multiple bands/tables:
    a ``keyed_exchange`` on the pair, then a vectorized arrow distinct per
    partition."""

    def distinct(group: pa.Table) -> pa.Table:
        return (group.select(["doc_a", "doc_b"])
                     .group_by(["doc_a", "doc_b"]).aggregate([]))

    return keyed_exchange(pairs_ds, ["doc_a", "doc_b"], distinct,
                          PAIR_PARTITIONS)


def minhash_lsh_candidates(ds, num_perm: int = 128, bands: int = 32,
                           shingle_k: int = 3, seed: int = 42,
                           text_column: str = "text"):
    """Dataset → candidate near-dup pairs (doc_a < doc_b), deduped.

    Default 32 bands × 4 rows: at the verification threshold J = 0.8 the
    per-pair miss probability is (1 − 0.8⁴)³² ≈ 5·10⁻⁸ — the Jaccard
    ground-truth oracle match is then deterministic in practice (16 × 8
    leaves ~5% miss at exactly J = 0.8). The wider bands admit more
    sub-threshold candidates, which the exact-Jaccard verify prunes."""
    sigs = ds.map_batches(
        MinHashSignatures,
        fn_constructor_kwargs={"num_perm": num_perm, "bands": bands,
                               "shingle_k": shingle_k, "seed": seed,
                               "text_column": text_column},
        concurrency=(1, 8), batch_format="pyarrow")
    # subkey = neighbor-band digest bytes; oversized buckets split along
    # them (8 chunks of 8 bits = one neighbor band each) instead of
    # truncating — see MinHashSignatures.__call__ for the recall argument.
    return _bucket_pairs(sigs, n_chunks=8, own_band_width=None)


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-gram Jaccard (the verification kernel for LSH pairs)."""
    def grams(t: str) -> set:
        words = t.split()
        if len(words) < k:
            return {" ".join(words)} if words else set()
        return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}
    ga, gb = grams(text_a), grams(text_b)
    # Two empty/whitespace-only texts score 0.0, matching the DuckDB
    # Jaccard oracle CTE, which excludes pairs with an empty gram union
    # (ADVICE r02: returning 1.0 here made blank-doc pairs appear in the
    # Ray output but not the oracle's).
    inter = len(ga & gb)
    union = len(ga | gb)
    return inter / union if union else 0.0


# -- pair verification -------------------------------------------------------

def _verify_pairs(pairs_ds, side_ds, side_key: str, side_col: str,
                  name: str, typ, score, keep=None):
    """The shared body of the pair verifiers: attach both docs'
    ``side_col`` to each (doc_a, doc_b) pair with two inner
    ``hash_join``s, drop the pairs missing either side row or value (as
    the SQL twins' inner joins and NULL comparisons do), append ``name``
    = ``score(values_a, values_b)`` and keep the rows where
    ``keep(scores)`` holds. The side is materialized once, so its
    upstream runs once for both joins."""
    values = side_ds.select_columns([side_key, side_col]).materialize()

    def side(key: str, col: str):
        return values.rename_columns({side_key: key, side_col: col})

    joined = hash_join(hash_join(pairs_ds, side("__ka", "__a"),
                                 on="doc_a", right_on="__ka"),
                       side("__kb", "__b"), on="doc_b", right_on="__kb")

    def verify(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.and_(pc.is_valid(batch["__a"]),
                                 pc.is_valid(batch["__b"])))
        scores = pa.array(score(t["__a"], t["__b"]), typ)
        t = t.drop_columns(["__a", "__b"]).append_column(name, scores)
        return t if keep is None else t.filter(keep(t[name]))

    return joined.map_batches(verify, batch_format="pyarrow")


def verify_pairs_jaccard(pairs_ds, docs_ds, threshold: float = 0.8,
                         k: int = 3):
    """Verify candidate pairs with exact word-``k``-gram Jaccard. The two
    texts are attached from ``docs_ds`` (doc_id, text) by ``hash_join``;
    a pair with either doc missing is dropped."""

    def score(a, b):
        return [round(ngram_jaccard(x, y, k), 6)
                for x, y in zip(a.to_pylist(), b.to_pylist())]

    return _verify_pairs(pairs_ds, docs_ds, "doc_id", "text", "jaccard",
                         pa.float64(), score,
                         lambda s: pc.greater_equal(s, threshold))


# -- simhash ----------------------------------------------------------------

_SIMHASH_HASHER: MinHasher | None = None


def simhash64(text: str, shingle_k: int = 3) -> int:
    """64-bit SimHash over word-``shingle_k``-gram features (vectorized:
    shingle hashes from the shared MinHasher kernel, bit unpack + sum in
    numpy). Shingle features — not unigrams — so the hamming distance of a
    near-dup pair tracks its n-gram Jaccard: on the synthetic corpus true
    pairs (J>=0.8) land at hamming<=7 while random pairs sit >=18, which
    banded bucketing with 8 bands separates exactly."""
    global _SIMHASH_HASHER
    if _SIMHASH_HASHER is None or _SIMHASH_HASHER.shingle_k != shingle_k:
        _SIMHASH_HASHER = MinHasher(num_perm=1, shingle_k=shingle_k)
    sh = _SIMHASH_HASHER.shingles(text)
    bits = np.unpackbits(
        sh.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1).astype(np.int64)
    acc = (bits * 2 - 1).sum(axis=0)
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << (63 - i)
    return out


def simhash_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    texts = batch[text_column].to_pylist()
    hashes = [simhash64(t) if t is not None else None for t in texts]
    return pa.table({
        "doc_id": batch["doc_id"],
        "simhash": pa.array(hashes, pa.uint64()),
    })


def simhash_candidates(ds, text_column: str = "text", bands: int = 8,
                       probe_bits: int = 0):
    """Near-dup candidates by banded simhash.

    The contract banding can actually GUARANTEE is hamming-radius recall:
    every pair with hamming < ``bands`` shares at least one band chunk
    (pigeonhole over the 64/bands-bit chunks) — so downstream callers
    should verify candidates with exact hamming (``verify_pairs_hamming``,
    max_hamming = bands − 1), not a text-similarity threshold (a J ≥ 0.8
    shingle pair can sit at hamming 15 and legitimately escape banding).
    ``probe_bits=1`` additionally emits every 1-bit-flipped chunk variant
    (flips meet in the middle → tolerance 2 bits/band, guarantee
    3·bands − 1) at (1 + width) × the bucket rows AND sharply higher
    bucket occupancy — only worth it for narrow radii on huge corpora.
    At billion-doc scale drop to 4 bands × 16 bits (hamming ≤ 3) so
    per-bucket occupancy stays bounded.

    Oversized buckets (> MAX_BUCKET members) are NOT truncated (ADVICE
    r02): each bucket row carries the full simhash as ``subkey`` and
    ``_expand_members`` recursively splits big buckets into ``bands``
    disjoint chunks of the out-of-band bits — a pair with hamming ≤
    bands−1 agrees on at least one chunk at every level (pigeonhole), so
    the radius-recall guarantee holds at ANY corpus size (the old cap
    broke it beyond ~65k docs, when >256 docs per 2048 possible buckets
    becomes expected). The guarantee statement assumes the default
    ``probe_bits=0``."""
    width = 64 // bands

    def to_buckets(batch: pa.Table) -> pa.Table:
        out_doc, out_bucket, out_hash = [], [], []
        for doc_id, h in zip(batch["doc_id"].to_pylist(),
                             batch["simhash"].to_pylist()):
            if h is None:
                continue
            for band in range(bands):
                chunk = (h >> (band * width)) & ((1 << width) - 1)
                probes = [chunk]
                if probe_bits >= 1:
                    probes.extend(chunk ^ (1 << b) for b in range(width))
                for p in probes:
                    out_doc.append(doc_id)
                    out_bucket.append(_bucket_key(band, p))
                    out_hash.append(h)
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "bucket": pa.array(out_bucket, pa.uint64()),
            "subkey": pa.array(out_hash, pa.uint64()),
        })

    sigs = ds.map_batches(simhash_batch,
                          fn_kwargs={"text_column": text_column},
                          batch_format="pyarrow")
    buckets = sigs.map_batches(to_buckets, batch_format="pyarrow")
    return _bucket_pairs(buckets, n_chunks=bands, own_band_width=width)


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = ((x & np.uint64(0x3333333333333333))
         + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333)))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        return ((x * np.uint64(0x0101010101010101))
                >> np.uint64(56)).astype(np.int32)


def verify_pairs_hamming(pairs_ds, simhash_ds, max_hamming: int = 7):
    """Verify candidate pairs with exact simhash hamming distance: the two
    simhashes are attached from ``simhash_ds`` (doc_id, simhash:uint64)
    by ``hash_join``, then a vectorized SWAR popcount filter. A pair with either id missing from the sidecar is
    DROPPED, never verified against a sentinel (ADVICE r02: the old
    0 / 1<<63 defaults were hamming-1 apart, so a doubly-missing pair
    passed verification spuriously)."""

    def score(a, b):
        return _popcount64(np.bitwise_xor(
            a.to_numpy(zero_copy_only=False).astype(np.uint64),
            b.to_numpy(zero_copy_only=False).astype(np.uint64)))

    return _verify_pairs(pairs_ds, simhash_ds, "doc_id", "simhash",
                         "hamming", pa.int32(), score,
                         lambda s: pc.less_equal(s, max_hamming))


# -- embedding cosine near-dup ---------------------------------------------

class HyperplaneLSH:
    """Multi-table random-hyperplane sign buckets for cosine near-dup
    (VERDICT r01 fix #2: L independent tables, candidate buckets unioned —
    standard OR-amplified cosine LSH; a single table misses near-dups that
    straddle one hyperplane).

    ``axis_aligned=True`` uses the standard-basis coordinates as planes
    (table t = dims [t*b, (t+1)*b)) — a deterministic quantizer that an
    external system (the driver's DuckDB oracle) can reproduce exactly.
    """

    def __init__(self, dim: int, num_tables: int = 8, planes_per_table: int = 8,
                 seed: int = 42, axis_aligned: bool = False):
        self.num_tables = num_tables
        self.planes_per_table = planes_per_table
        self.axis_aligned = axis_aligned
        if axis_aligned:
            assert num_tables * planes_per_table <= dim, \
                "axis-aligned tables must fit in the embedding dims"
            self.planes = np.eye(dim)[: num_tables * planes_per_table]
        else:
            rng = np.random.default_rng(seed)
            self.planes = rng.standard_normal(
                (num_tables * planes_per_table, dim)).astype(np.float64)

    def bucket_ids(self, vecs: np.ndarray) -> list[list[int]]:
        """Per-row list of uint64 bucket keys (table index in the top 16
        bits, sign-pattern bits below), one per table."""
        signs = (vecs @ self.planes.T) >= 0  # (n, T*b)
        b = self.planes_per_table
        weights = 1 << np.arange(b, dtype=np.uint64)
        out = []
        for t in range(self.num_tables):
            chunk = signs[:, t * b:(t + 1) * b].astype(np.uint64) @ weights
            out.append([_bucket_key(t, int(v)) for v in chunk])
        return [list(row) for row in zip(*out)]


def embedding_neardup_candidates(ds, dim: int = 64, num_tables: int = 8,
                                 planes_per_table: int = 8, seed: int = 42,
                                 axis_aligned: bool = False):
    """embeddings table → candidate pairs sharing ANY table's bucket,
    deduped across tables. One flat_map-style expansion (T rows per vec),
    one bucket ``partitioned_sweep``, one pair-dedup ``keyed_exchange`` —
    all keys are uniform hashes so the shuffles are skew-free."""
    lsh = HyperplaneLSH(dim, num_tables, planes_per_table, seed, axis_aligned)

    def to_buckets(batch: pa.Table) -> pa.Table:
        from pdf_inspector_ray.functions.similarity import _to_matrix
        vecs = _to_matrix(batch["embedding"])
        if vecs.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.uint64()),
                             "subkey": pa.array([], pa.uint64())})
        # subkey = the full multi-table sign pattern (≤64 bits), table t at
        # bits [t·b, (t+1)·b) — oversized buckets split along OTHER
        # tables' sign bits instead of truncating; pairs split apart
        # disagree with every other table and had only this bucket as a
        # catch path anyway (multi-table OR), while near-identical
        # vectors (the realistic oversized-bucket content) share all sign
        # bits and are never split.
        signs = (vecs @ lsh.planes.T) >= 0  # (n, T*b)
        b = lsh.planes_per_table
        wb = np.uint64(1) << np.arange(b, dtype=np.uint64)
        # (n, T) bucket matrix: per table, sign bits -> payload; key =
        # (t << 48) | payload — all numpy, no per-row Python
        payload = (signs.reshape(len(vecs), lsh.num_tables, b)
                   .astype(np.uint64) @ wb)
        tkeys = (np.arange(lsh.num_tables, dtype=np.uint64)
                 << np.uint64(48))
        buckets = tkeys[None, :] | (payload & np.uint64((1 << 48) - 1))
        nbits = min(64, signs.shape[1])
        weights = (np.uint64(1) << np.arange(nbits, dtype=np.uint64))
        subkeys = signs[:, :nbits].astype(np.uint64) @ weights
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        T = lsh.num_tables
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, T), pa.int64()),
            "bucket": pa.array(buckets.ravel(), pa.uint64()),
            "subkey": pa.array(np.repeat(subkeys, T), pa.uint64()),
        })

    buckets = ds.map_batches(to_buckets, batch_format="pyarrow")
    return _bucket_pairs(buckets, n_chunks=num_tables,
                         own_band_width=planes_per_table)


def verify_pairs_cosine(pairs_ds, emb_ds, threshold: float = 0.9,
                        id_column: str = "vec_id",
                        embedding_column: str = "embedding"):
    """Verify candidate pairs with exact cosine similarity: the two
    vectors are attached straight from ``emb_ds`` (``id_column``,
    ``embedding_column``) by ``hash_join``, then one vectorized
    normalized dot per batch (a zero vector has norm 1).
    Pairs with either vector missing are dropped."""

    def score(a, b):
        if not len(a):
            return np.zeros(0)
        from pdf_inspector_ray.functions.similarity import _to_matrix
        va, vb = _to_matrix(a), _to_matrix(b)
        na = np.linalg.norm(va, axis=1)
        nb = np.linalg.norm(vb, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        return np.round((va * vb).sum(axis=1) / (na * nb), 6)

    return _verify_pairs(pairs_ds, emb_ds, id_column, embedding_column,
                         "cos_sim", pa.float64(), score,
                         lambda s: pc.greater_equal(s, threshold))


# -- corpus-level dedup: components over verified pairs ---------------------

def connected_components(pairs_ds, max_iters: int = 32):
    """Verified near-dup pairs (doc_a, doc_b) → (node, label) with label =
    min doc_id of each connected component, for every doc that appears in
    a pair.

    Distributed iterative min-label propagation: per round, one lookup join
    (labels onto edge sources, ``hash_join``) + one ``grouped_aggregate`` min —
    both move only EDGE-sized data (the near-dup pair set, a small fraction of
    the corpus), never the corpus itself. Converges in O(component diameter)
    rounds; near-dup clusters are dense (band collisions ≈ cliques) so 2-4
    rounds is typical. The per-round ``materialize()`` pins the small
    label/edge sets so each iteration reads the previous result instead of
    re-executing the whole lineage — this is the documented exception to "never
    materialize mid-pipeline" (tiny side only).
    """

    def to_edges(batch: pa.Table) -> pa.Table:
        a, b = batch["doc_a"], batch["doc_b"]
        return pa.table({
            "src": pa.concat_arrays([a.combine_chunks(), b.combine_chunks()]),
            "dst": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()]),
        })

    edges = pairs_ds.map_batches(to_edges,
                                 batch_format="pyarrow").materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["src"], "label": batch["src"]})

    def to_candidates(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["dst"], "label": batch["label"]})

    labels = grouped_aggregate(
        edges.map_batches(init_labels, batch_format="pyarrow"), "node",
        {"label": "min"}).materialize()
    prev_sum = None
    for _ in range(max_iters):
        cand = hash_join(edges, labels, on="src", right_on="node")
        cand = cand.map_batches(to_candidates, batch_format="pyarrow")
        labels = grouped_aggregate(labels.union(cand), "node",
                                   {"label": "min"}).materialize()
        cur = labels.sum("label")  # monotone non-increasing per node
        if cur == prev_sum:
            break
        prev_sum = cur
    return labels


def neardup_kept_docs(docs_ds, components, id_column: str = "doc_id"):
    """Corpus-level near-dup dedup: keep each component's min doc_id plus
    every doc not in any pair. The dropped ids (components rows whose
    label is below their node) are removed by ``_mask_dropped_ids``."""

    def to_dropped(batch: pa.Table) -> pa.Table:
        mask = pc.less(batch["label"], batch["node"])
        return pa.table({"node": batch["node"].filter(mask)})

    dropped_ds = components.map_batches(to_dropped, batch_format="pyarrow")
    return _mask_dropped_ids(docs_ds, dropped_ds, id_column=id_column)


def _mask_dropped_ids(docs_ds, dropped_ds, id_column: str = "doc_id"):
    """Filter ``docs_ds`` down to rows whose id is NOT in
    ``dropped_ds["node"]`` — the shared tail of every cluster-dedup
    operator, a left anti ``hash_join``."""
    return hash_join(docs_ds, dropped_ds, on=id_column, right_on="node",
                     join_type="left anti")


def neardup_best_docs(docs_ds, components, score_ds,
                      id_column: str = "doc_id",
                      score_columns: tuple = ("stopword_count", "n_chars")):
    """Quality-aware near-dup dedup: instead of keeping each component's
    MIN doc_id (``neardup_kept_docs``), keep the component member that
    maximizes the quality score — DESC on each ``score_columns`` entry in
    order, ties broken by min id — plus every doc not in any component.
    This is the curation shape real pipelines want: when a template
    cluster holds one full article and nine boilerplate stubs, min-id
    keeps whichever crawled first; argmax-by-quality keeps the article.

    Scores must be integer columns (exact comparisons, hash-stable
    twins). Dataflow: the (edge-sized) components attach their scores in
    one left-outer ``hash_join`` — only component members, never
    the corpus, pay the join — then one ``partitioned_sweep`` over the
    label, ordered by the scores DESC and the id, emits every member but
    each component's first as dropped ids (``grouped_topk``'s
    complement), applied with the same ``_mask_dropped_ids`` tail as
    ``neardup_kept_docs``. At 100 TB every exchange here is bounded by
    the verified-pair set, not the corpus."""
    cols = tuple(score_columns)
    labeled = hash_join(components,
                        score_ds.select_columns([id_column, *cols]),
                        on="node", right_on=id_column, join_type="left outer")

    def fill_missing(batch: pa.Table) -> pa.Table:
        # a missing score (doc absent from score_ds) sorts last via -1
        return pa.table({"label": batch["label"], "node": batch["node"],
                         **{c: pc.fill_null(batch[c], -1) for c in cols}})

    def dropped(g: pa.Table, starts: np.ndarray) -> pa.Table:
        rank = np.arange(g.num_rows) - _run_start(starts, g.num_rows)
        return pa.table({"node": pc.cast(g["node"], pa.int64())
                         .filter(pa.array(rank > 0))})

    dropped_ds = partitioned_sweep(
        labeled.map_batches(fill_missing, batch_format="pyarrow"), "label",
        [(c, "descending") for c in cols] + ["node"], dropped)
    return _mask_dropped_ids(docs_ds, dropped_ds, id_column=id_column)


# -- exact set-similarity join (AllPairs / PPJoin prefix filtering) ----------

def _doc_gram_rows(batch: pa.Table, text_column: str, id_column: str,
                   k: int) -> pa.Table:
    """One batch of docs → DISTINCT (doc_id, gram, sz) rows, where ``sz``
    is the doc's distinct-gram count. Gram semantics match
    ``ngram_jaccard`` (and the SQL oracle CTE): word k-grams for docs
    with ≥ k tokens, the whole whitespace-joined text as a single gram
    for docs with 1..k−1 tokens, nothing for empty docs. Distinct within
    the batch IS globally distinct — a doc lives in exactly one row."""
    from pdf_inspector_ray.functions.decontam import _gram_rows

    texts = batch[text_column]  # ChunkedArray — _gram_rows requires it
    ids = pc.cast(batch[id_column], pa.int64()).to_numpy(
        zero_copy_only=False)
    idx, grams = _gram_rows(texts, k)
    t = (pa.table({"row": pa.array(idx, pa.int64()), "gram": grams})
         .group_by(["row", "gram"]).aggregate([]))
    rows = t["row"].to_numpy(zero_copy_only=False)
    gram_arr = t["gram"].combine_chunks()

    # short docs (0 < tokens < k): single whole-text gram
    tok_lists = pc.split_pattern_regex(texts, r"\s+")
    reps = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False)
    rr = np.repeat(np.arange(len(texts)), reps)
    ne = pc.not_equal(pc.list_flatten(tok_lists),
                      "").to_numpy(zero_copy_only=False)
    counts = np.bincount(rr[ne], minlength=len(texts)).astype(np.int64)
    short = np.flatnonzero((counts > 0) & (counts < k))
    if len(short):
        extra = pa.array([" ".join(texts[i].as_py().split())
                          for i in short], pa.string())
        rows = np.concatenate([rows, short])
        gram_arr = pa.concat_arrays([gram_arr, extra])
    sz = np.bincount(rows, minlength=len(texts)).astype(np.int64)
    return pa.table({
        id_column: pa.array(ids[rows], pa.int64()),
        "gram": gram_arr,
        "sz": pa.array(sz[rows], pa.int64()),
    })


def _prefix_pairs_block(g: pa.Table, starts: np.ndarray,
                        threshold: float) -> pa.Table:
    """``partitioned_sweep`` kernel: all prefix-posting buckets of one
    coarse partition, sorted by (bucket, sz, doc_id), → candidate pairs,
    with the PPJoin LENGTH filter: a pair only qualifies when
    sz_small ≥ τ·sz_big (else J ≤ sz_small/sz_big < τ), so each member
    pairs only with the sz-window [sz, sz/τ] above it — this, not a
    cap, bounds a hot posting list. No pair is ever dropped: exactness
    is the contract. A doc reaching one bucket via two hash-colliding
    grams has one sz, so its copies are adjacent and dropped as one."""
    ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    kept, lo_run, hi_run = _bucket_members(ids, starts)
    ids = ids[kept]
    szs = g["sz"].to_numpy(zero_copy_only=False).astype(np.float64)[kept]
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    for s, e in zip(lo_run, hi_run):
        m_ids, m_szs = ids[s:e], szs[s:e]
        hi = np.searchsorted(m_szs, m_szs / threshold, side="right")
        # vectorized window expansion: member i pairs with [i+1, hi_i)
        lo = np.arange(len(m_ids)) + 1
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if not total:
            continue
        left = np.repeat(m_ids, counts)
        j_idx = (np.repeat(lo, counts)
                 + np.arange(total)
                 - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]),
                             counts))
        right = m_ids[j_idx]
        a_out.append(np.minimum(left, right))
        b_out.append(np.maximum(left, right))
    if not a_out:
        return _EMPTY_PAIRS
    return pa.table({
        "doc_a": pa.array(np.concatenate(a_out), pa.int64()),
        "doc_b": pa.array(np.concatenate(b_out), pa.int64()),
    })


def jaccard_prefix_candidates(ds, threshold: float = 0.8, k: int = 3,
                              text_column: str = "text",
                              id_column: str = "doc_id",
                              num_partitions: int = PAIR_PARTITIONS):
    """EXACT-recall candidate pairs for word-k-gram Jaccard ≥ τ via
    prefix filtering (Bayardo et al., "Scaling Up All Pairs Similarity
    Search", WWW'07; Xiao et al. PPJoin) — the non-probabilistic sibling
    of ``minhash_lsh_candidates``: every pair with J ≥ τ is emitted
    (completeness is a theorem, not a probability), false candidates die
    in exact verification.

    Dataflow (three skew-free shuffles, all gram/doc-keyed):
      1. docs → distinct (doc, gram, sz) rows → co-partition by
         hash(gram): per-partition df counting is GLOBAL df (all copies
         of a gram land together).
      2. re-partition by hash(doc): per doc, order grams by the global
         (df asc, gram asc) order — rarest first — and keep only the
         PREFIX of length sz − ⌈τ·sz⌉ + 1. Any pair with J ≥ τ must
         share a gram inside both prefixes (with the length filter
         |y| ≥ τ|x|, the required overlap ⌈τ(|x|+|y|)/(1+τ)⌉ ≥ ⌈τ|x|⌉,
         so missing the prefix bounds overlap below it).
      3. prefix rows → bucket by gram hash → windowed pair expansion
         with the length filter, then global pair dedup.

    The prefix cuts candidate volume by ~1/(1−τ)·df-ordering: common
    grams (huge posting lists) sit last in the order and enter only the
    prefixes of docs that are mostly MADE of common grams."""
    import functools

    from pdf_inspector_ray.functions.decontam import _gram_hash

    _ROWS_SCHEMA = pa.schema([(id_column, pa.int64()),
                              ("gram", pa.string()), ("sz", pa.int64()),
                              ("df", pa.int64())])

    def with_df(group: pa.Table) -> pa.Table:
        """Per gram-partition: attach each gram's GLOBAL df."""
        if group.num_rows == 0:
            return _ROWS_SCHEMA.empty_table()
        enc = group["gram"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        df = np.bincount(codes, minlength=len(enc.dictionary))
        return pa.table({
            id_column: group[id_column], "gram": group["gram"],
            "sz": group["sz"],
            "df": pa.array(df[codes], pa.int64()),
        })

    def prefix_rows(g: pa.Table, starts: np.ndarray) -> pa.Table:
        """Per doc-partition, swept by (doc, df, gram) — the global
        order is (df asc, gram asc) — keep each doc's prefix. The
        sweep's sort runs in Arrow C++: gram strings never materialize
        into Python."""
        rank = np.arange(g.num_rows) - _run_start(starts, g.num_rows)
        sz = g["sz"].to_numpy(zero_copy_only=False)
        kept = g.filter(pa.array(rank < sz - np.ceil(threshold * sz) + 1))
        return pa.table({
            "doc_id": pc.cast(kept[id_column], pa.int64()),
            "bucket": pa.array(_gram_hash(kept["gram"].combine_chunks()),
                               pa.uint64()),
            "sz": pc.cast(kept["sz"], pa.int64()),
        })

    grams = keyed_exchange(
        ds.map_batches(_doc_gram_rows, fn_args=(text_column, id_column, k),
                       batch_format="pyarrow"),
        "gram", with_df, num_partitions)
    rows = partitioned_sweep(grams, id_column, ["df", "gram"], prefix_rows,
                             num_partitions)
    expand = functools.partial(_prefix_pairs_block, threshold=threshold)
    return _dedupe_pairs(partitioned_sweep(rows, "bucket", ["sz", "doc_id"],
                                           expand, num_partitions))


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over UTF-8 BYTES — the same definition
    as DuckDB's ``levenshtein()`` (probed empirically:
    levenshtein('é','a') = 2, i.e. byte- not codepoint-based), so the
    integer result is oracle-exact by construction. Row-DP with the
    sequential insert chain closed in vector form: each row computes
    the delete/substitute candidates in one numpy step, then resolves
    cur[j] = min_k<=j (cand[k] + (j-k)) via ``np.minimum.accumulate`` on
    (cand - j) — O(len(a)) numpy ops total, no per-cell Python."""
    aa = np.frombuffer(a.encode("utf-8"), dtype=np.uint8)
    bb = np.frombuffer(b.encode("utf-8"), dtype=np.uint8)
    la, lb = len(aa), len(bb)
    if not la:
        return lb
    if not lb:
        return la
    steps = np.arange(lb + 1, dtype=np.int64)
    prev = steps.copy()
    for i in range(la):
        cand = np.minimum(prev[1:] + 1, prev[:-1] + (bb != aa[i]))
        seq = np.concatenate(([np.int64(i + 1)], cand)) - steps
        prev = np.minimum.accumulate(seq) + steps
    return int(prev[-1])


def verify_pairs_levenshtein(pairs_ds, docs_ds, cap: int = 64,
                             alias: str = "lev"):
    """Attach the exact edit distance of the two docs' first ``cap``
    codepoints to each candidate pair — the cheap lexical-proximity
    check a near-dup pipeline runs between LSH candidacy and expensive
    full-text verification. Texts are attached by ``hash_join`` (pairs
    pay the join, never the corpus), and a pair with either doc missing is dropped; the cap
    bounds the per-pair DP at O(cap²) regardless of document length, and
    is mirrored by ``substr(text, 1, cap)`` in the SQL twin (both sides
    slice codepoints)."""

    def score(a, b):
        return [levenshtein(x[:cap], y[:cap])
                for x, y in zip(a.to_pylist(), b.to_pylist())]

    return _verify_pairs(pairs_ds, docs_ds, "doc_id", "text", alias,
                         pa.int64(), score)


def prefix_contained_docs(ds, text_column: str = "text",
                          id_column: str = "doc_id", min_len: int = 16):
    """Docs whose full text is a STRICT prefix of another doc's text —
    the cheap cousin of exact-substring dedup (Lee et al., "Deduplicating
    Training Data Makes Language Models Better"): truncated re-crawls
    and stale partial snapshots are prefix-contained in their superset
    document and should be dropped.

    Dataflow: bucket by the first ``min_len`` codepoints (a strict
    prefix pair necessarily shares them, so a ``partitioned_sweep`` on
    the bucket is an exact candidate partition — no recall loss); the
    sweep orders each bucket's texts, and each UNIQUE text is tested
    against only its immediate successor. That adjacency test is exact
    for any set of strings, not a heuristic: in any lexicographic order,
    every string strictly between a prefix ``s`` and its superstring
    ``t`` itself starts with ``s``, so ``s`` is a prefix of some
    bucket-mate iff it is a prefix of its immediate sorted successor.
    Per-partition work is the sweep's sort plus one startswith per
    adjacent unique pair, never all-pairs.

    Docs shorter than ``min_len`` are out of scope (mirror the SQL twin
    with ``len(text) >= min_len``; they're covered by ``exact_dedup``).
    At corpus scale pick ``min_len`` long enough that boilerplate
    headers don't pile into one hot bucket — the bucket key is the
    partition key."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[text_column]),
                       pc.greater_equal(
                           pc.utf8_length(batch[text_column]), min_len))
        batch = batch.filter(keep)
        bucket = pc.utf8_slice_codeunits(batch[text_column], 0, min_len)
        return pa.table({"bucket": bucket,
                         "doc_id": batch[id_column],
                         "text": batch[text_column]})

    return partitioned_sweep(ds.map_batches(partial, batch_format="pyarrow"),
                             "bucket", ["text"], _prefix_contained_in_bucket)


def _prefix_contained_in_bucket(g: pa.Table, starts: np.ndarray
                                ) -> pa.Table:
    """``prefix_contained_docs``' ``partitioned_sweep`` kernel over a
    partition sorted by (bucket, text): ids whose text is a strict
    prefix of the next unique text. A bucket's last text meets the next
    bucket's first, which never starts with it (a text's bucket is its
    own first ``min_len`` codepoints). The successor test runs on the
    object array (``str.startswith``): a fixed-width U-dtype copy would
    pad every text to the bucket's longest at 4 bytes/char."""
    ids = g["doc_id"].to_numpy(zero_copy_only=False)
    texts = g["text"].to_numpy(zero_copy_only=False)
    first = np.flatnonzero(_changes(texts, starts))
    uniq = texts[first]
    contained = np.zeros(len(uniq), dtype=bool)
    # sorted unique ⇒ successor > text, so startswith means strictly longer
    contained[:-1] = [b.startswith(a) for a, b in zip(uniq[:-1], uniq[1:])]
    out = ids[np.repeat(contained, np.diff(np.append(first, len(texts))))]
    return pa.table({"doc_id": pa.array(np.sort(out), pa.int64())})
