"""HyperLogLog distinct-count sketch (Flajolet et al. 2007) — the
constant-memory cardinality operator for 100-TB streams where exact
``distinct_count`` (one shuffle of all pairs) is overkill.

Dataflow: per batch, values dedupe locally and fold into (bucket,
max rho) register rows — at most ``m = 2**b`` rows leave a batch no
matter its size; one tiny bucket-keyed ``grouped_aggregate`` max merges
them (registers are a max-monoid, so merging is associative, idempotent and
order-free — the same property that lets two CLUSTERS' sketches merge
by row-wise max). The driver-side estimator touches only m rows.

The hash is ``hash61``: two multiply-add rounds mod the Mersenne prime
2^61−1 with xorshift mixing between them, fully vectorized in numpy
(the 61-bit modular multiply decomposes into 31/30-bit limbs whose
partial products are 61-bit ROTATIONS mod 2^61−1 — the same fold
discipline as ``text_stats._rolling_fingerprint``). No per-value
Python loop anywhere in the fold: hashing, bucket extraction, rho
(via exact ``np.frexp`` exponents — values < 2^53 convert to float64
exactly) and the per-batch register max (``np.maximum.at`` /
``np.add.at`` over the fixed-size register array) are all single
numpy passes. Because every step is exact integer arithmetic, the
DuckDB twin recomputes every register bit-for-bit with HUGEINT
intermediates — the sketch itself is oracle-checkable, not just its
estimate. Non-integer columns fall back to a per-unique md5 basis
(documented slow path; the corpus sketch columns are int64).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pdf_inspector_ray.functions.relational import grouped_aggregate

HLL_B = 10  # 2**10 = 1024 registers → ~3.3% standard error

# --- hash61: vectorized multiply-add-xorshift hash mod 2^61-1 ----------
M61 = (1 << 61) - 1
_M = np.uint64(M61)
_S61 = np.uint64(61)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)

# deterministic constants: md5("<tag>") mod 2^61-1, forced odd
HASH61_A1 = 1563293505588430033
HASH61_B1 = 1213420268914680025
HASH61_A2 = 465455575851000731
HASH61_B2 = 1224225638879231973
# per-depth CMS constants (tags C0..D3), same derivation
CMS_CD = ((1190549624611128065, 618889154930573103),
          (595625495670887601, 870972775587668445),
          (1371348586526522367, 1565031136846715759),
          (293710874467548797, 1295209376363822355))


def _fold2(t: np.ndarray) -> np.ndarray:
    """Reduce any uint64 value to ≤ M61 preserving congruence mod
    2^61-1 (first pass leaves ≤ M61 + 7, second pass finishes)."""
    t = (t & _M) + (t >> _S61)
    t = (t & _M) + (t >> _S61)
    return t


def _muladdmod61(x: np.ndarray, a: int, b: int) -> np.ndarray:
    """(x * a + b) mod 2^61-1 for a uint64 array x (values ≤ M61) and
    scalars a, b < 2^61 — pure uint64 numpy via 31/30-bit limb products;
    the cross terms are 61-bit rotations because 2^61 ≡ 1 (mod M61).
    The three partial sums (each ≤ M61) plus b stay under 2^63, so one
    fused fold canonicalizes the whole affine step."""
    a = int(a)
    al = np.uint64(a & ((1 << 31) - 1))
    ah = np.uint64(a >> 31)
    xl = x & _MASK31
    xh = x >> np.uint64(31)
    t0 = xl * al                                # × 2^0, ≤ 2^62 (unfolded)
    t1 = _fold2(xl * ah + xh * al)              # × 2^31 → rotl 31 (< 2^61)
    r1 = ((t1 & _MASK30) << np.uint64(31)) | (t1 >> np.uint64(30))
    t2 = (xh * ah) * np.uint64(2)               # × 2^62 ≡ × 2, ≤ 2^61
    # t0 + r1 + t2 + b ≤ 2^62 + 3·2^61 < 2^64: one fused double-fold
    acc = _fold2(t0 + r1 + t2 + np.uint64(b))
    return np.where(acc >= _M, acc - _M, acc)


def mulmod61(x: np.ndarray, a: int) -> np.ndarray:
    """(x * a) mod 2^61-1 — see ``_muladdmod61``."""
    return _muladdmod61(x, a, 0)


def hash61(vals: np.ndarray) -> np.ndarray:
    """Vectorized 61-bit hash of an int64 array. SQL twin (HUGEINT):
    ``x = ((v % M) + M) % M; h = (x*A1+B1) % M; h = xor(h, h>>29);
    h = (h*A2+B2) % M; h = xor(h, h>>37)`` with M = 2^61-1. The final
    xorshift can reach exactly M (≡ 0); both sides keep the raw value,
    so register parity is unaffected."""
    x = np.mod(vals.astype(np.int64), M61).astype(np.uint64)
    h = _muladdmod61(x, HASH61_A1, HASH61_B1)
    h = h ^ (h >> np.uint64(29))
    h = _muladdmod61(h, HASH61_A2, HASH61_B2)
    h = h ^ (h >> np.uint64(37))
    return h


def hash61_scalar(v: int) -> int:
    """Reference scalar (arbitrary-precision) twin of ``hash61`` — the
    point-query path and the test oracle for the vectorized fold."""
    x = v % M61
    h = (x * HASH61_A1 + HASH61_B1) % M61
    h ^= h >> 29
    h = (h * HASH61_A2 + HASH61_B2) % M61
    h ^= h >> 37
    return h


def _md5_hash64(v) -> int:
    """Fallback 64-bit md5 basis for non-integer sketch columns (matches
    the pre-r4 twin recipe: first 16 hex chars of md5(str(v)))."""
    return int(hashlib.md5(str(v).encode(),
                           usedforsecurity=False).hexdigest()[:16], 16)


def _is_int_column(arr) -> bool:
    t = arr.type
    return pa.types.is_integer(t)


def _hll_parts_int(vals: np.ndarray, b: int):
    """(bucket, rho) arrays for int64 values under hash61 (61-bit hash:
    bucket = top b bits, rho over the 61-b suffix)."""
    suffix_bits = 61 - b
    h = hash61(vals)
    bucket = (h >> np.uint64(suffix_bits)).astype(np.int64)
    w = h & np.uint64((1 << suffix_bits) - 1)
    # exact bit length: w < 2^53 converts to float64 exactly; frexp
    # exponent == bit length for w >= 1
    _, e = np.frexp(w.astype(np.float64))
    rho = np.where(w == 0, suffix_bits + 1,
                   suffix_bits - e + 1).astype(np.int64)
    return bucket, rho


def hll_registers(ds, column: str, b: int = HLL_B):
    """(bucket, rho) HyperLogLog registers over the distinct values of
    ``column``: bucket = top ``b`` hash bits, rho = 1 + leading zeros of
    the remaining suffix bits (61−b under hash61 for integer columns,
    64−b under the md5 fallback otherwise). Hash collisions are part of
    the sketch definition (both the estimate's error model and the SQL
    twin see the same hashed multiset), so register equality is exact."""
    m = 1 << b

    def batch_regs(batch: pa.Table) -> pa.Table:
        uniq = pc.unique(batch[column]).drop_null()
        if _is_int_column(uniq):
            vals = uniq.to_numpy(zero_copy_only=False).astype(np.int64)
            bucket, rho = _hll_parts_int(vals, b)
            regs = np.zeros(m, dtype=np.int64)
            np.maximum.at(regs, bucket, rho)
            nz = np.nonzero(regs)[0]
            return pa.table({"bucket": pa.array(nz, pa.int64()),
                             "rho": pa.array(regs[nz], pa.int64())})
        # md5 fallback (non-integer columns): bounded per-unique loop
        suffix_bits = 64 - b
        mask = (1 << suffix_bits) - 1
        acc: dict[int, int] = {}
        for v in uniq.to_pylist():
            h = _md5_hash64(v)
            bkt = h >> suffix_bits
            w = h & mask
            rho = suffix_bits - w.bit_length() + 1 if w else suffix_bits + 1
            if rho > acc.get(bkt, 0):
                acc[bkt] = rho
        return pa.table({"bucket": pa.array(list(acc), pa.int64()),
                         "rho": pa.array(list(acc.values()), pa.int64())})

    return grouped_aggregate(
        ds.map_batches(batch_regs, batch_format="pyarrow"), "bucket",
        {"rho": "max"})


def hll_estimate(registers: pa.Table, b: int = HLL_B) -> float:
    """Cardinality estimate from a register table — driver-side, m rows.
    Standard HLL with the small-range (linear counting) correction."""
    m = 1 << b
    alpha = 0.7213 / (1 + 1.079 / m)
    rhos = registers["rho"].to_pylist()
    zeros = m - len(rhos)
    denom = zeros + sum(2.0 ** -r for r in rhos)
    est = alpha * m * m / denom
    if est <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    return est


CMS_DEPTH = 4
CMS_WIDTH = 1024


def cms_counters(ds, column: str, depth: int = CMS_DEPTH,
                 width: int = CMS_WIDTH):
    """Count-min sketch (Cormode & Muthukrishnan 2005) counters over
    ``column``: ``depth`` independent affine-mod-prime hash rows
    (the textbook universal family, g_d = ((h·C_d + D_d) mod 2^61−1)
    mod width over the mixed hash61 value) × ``width`` buckets. Per
    batch, local value counts fold into at most depth×width counter
    rows regardless of batch size — one ``np.add.at`` scatter per
    depth, no Python loop over values; one tiny (depth, bucket)
    ``grouped_aggregate`` sum merges partials (counters are a
    sum-monoid, so cross-cluster sketches merge by row-wise addition).
    Exact integer arithmetic end-to-end → every counter is recomputable
    in SQL; the oracle checks the sketch, not an estimate."""

    def batch_counters(batch: pa.Table) -> pa.Table:
        vc = batch[column].value_counts()
        vals_arr = vc.field("values")
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        if _is_int_column(vals_arr):
            valid = pc.is_valid(vals_arr).to_numpy(zero_copy_only=False)
            vals = vals_arr.to_numpy(zero_copy_only=False)
            if not valid.all():
                vals = vals[valid]
                counts = counts[valid]
            h = hash61(np.asarray(vals, dtype=np.int64))
            grid = np.zeros((depth, width), dtype=np.int64)
            for d in range(depth):  # depth is 4; each pass is vectorized
                cd, dd = CMS_CD[d]
                g = (_muladdmod61(h, cd, dd)
                     % np.uint64(width)).astype(np.int64)
                np.add.at(grid[d], g, counts)
            dz, bz = np.nonzero(grid)
            return pa.table({"depth": pa.array(dz, pa.int64()),
                             "bucket": pa.array(bz, pa.int64()),
                             "cnt": pa.array(grid[dz, bz], pa.int64())})
        # md5 fallback for non-integer columns
        acc: dict[tuple[int, int], int] = {}
        for v, c in zip(vals_arr.to_pylist(), counts.tolist()):
            if v is None:
                continue
            s = str(v)
            for d in range(depth):
                h = int(hashlib.md5(f"{d}:{s}".encode(),
                                    usedforsecurity=False)
                        .hexdigest()[:16], 16)
                key = (d, h % width)
                acc[key] = acc.get(key, 0) + int(c)
        return pa.table({
            "depth": pa.array([k[0] for k in acc], pa.int64()),
            "bucket": pa.array([k[1] for k in acc], pa.int64()),
            "cnt": pa.array(list(acc.values()), pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(batch_counters, batch_format="pyarrow"),
        ["depth", "bucket"], {"cnt": "sum"})


def cms_query(counters: pa.Table, value, depth: int = CMS_DEPTH,
              width: int = CMS_WIDTH) -> int:
    """Point frequency estimate: min over the value's ``depth`` counters
    (never underestimates; overestimate bounded by collisions)."""
    lut = {(d, b): c for d, b, c in zip(counters["depth"].to_pylist(),
                                        counters["bucket"].to_pylist(),
                                        counters["cnt"].to_pylist())}
    if isinstance(value, (int, np.integer)):
        h = hash61_scalar(int(value))
        return min(lut.get(
            (d, ((h * CMS_CD[d][0] + CMS_CD[d][1]) % M61) % width), 0)
            for d in range(depth))
    s = str(value)
    return min(lut.get(
        (d, int(hashlib.md5(f"{d}:{s}".encode(),
                            usedforsecurity=False).hexdigest()[:16], 16)
         % width), 0) for d in range(depth))


#: heavy_hitters refuses to size m above this without an explicit
#: ``m=``: a 1M-candidate broadcast is ~8 MB (fine), but the pass-1
#: per-batch survivor bound (≤ m rows/batch) stops being a meaningful
#: shrink once m rivals the batch size.
HH_M_CAP = 1_000_000


def heavy_hitters(ds, column: str, min_count: int,
                  n_rows_hint: int | None = None,
                  m: int | None = None,
                  stats: dict | None = None) -> pa.Table:
    """EXACT heavy hitters (all values with frequency ≥ ``min_count``)
    in two passes, never shuffling the full key cardinality — the
    100-TB alternative to ``GROUP BY … HAVING COUNT(*) ≥ t`` when the
    column has billions of distinct values:

    Pass 1 (candidates): per batch, exact value counts (arrow
    ``value_counts``), keep only values with batch count >
    ``n_b/(m+1)`` — at most m rows leave any batch. Pigeonhole gives
    the Misra-Gries completeness guarantee: if a value's GLOBAL count
    exceeds ``n/(m+1)``, its count must exceed ``n_b/(m+1)`` in at
    least one batch, so every true heavy hitter is a candidate as long
    as ``m + 1 ≥ n / min_count`` (sized from ``n_rows_hint``, e.g. the
    parquet footer row count, with 4× slack). False candidates are
    harmless — pass 2 counts them exactly and the threshold kills them.

    Pass 2 (exact counts): broadcast the candidate set (tiny), emit per
    batch the exact counts of candidate values only plus one total-row
    per batch (``is_total=1`` carrying the batch's non-null count), one
    tiny ``grouped_aggregate`` sum, then a driver-side threshold filter over
    |candidates|+1 rows. Returns (value, cnt) sorted by cnt desc, value
    asc. Candidate-union size is bounded by the number of per-batch
    survivors (≤ m per batch; in practice ≈ the true hitter count on
    skewed data — the only regime where this operator is the right
    tool).

    The EXACT guarantee needs ``m + 1 ≥ n / min_count``.  To keep that
    contract honest (no silent caps): sizing requires ``n_rows_hint``
    or an explicit ``m`` (ValueError otherwise), and if the hint-derived
    m would exceed ``HH_M_CAP`` the call raises instead of silently
    capping — pass ``m=`` explicitly to accept a bigger candidate bound
    (or use the CMS sketch if approximate is acceptable).  The value
    column must be integer (int64 exchange schema); other types raise
    TypeError up front rather than dying mid-pass-2."""
    import ray

    base = getattr(ds.schema(), "base_schema", None)
    col_type = base.field(column).type if isinstance(base, pa.Schema) else None
    if col_type is not None and not pa.types.is_integer(col_type):
        raise TypeError(
            f"heavy_hitters requires an integer column; {column!r} is "
            f"{col_type} — hash/dictionary-encode it first (the exchange "
            f"schema and the is_total sentinel are int64)")
    if m is None:
        if n_rows_hint is None:
            raise ValueError(
                "heavy_hitters needs n_rows_hint (e.g. the parquet footer "
                "row count) or an explicit m: the EXACT guarantee requires "
                "m + 1 >= n/min_count and cannot be sized blind")
        m = max(64, -(-4 * n_rows_hint // max(min_count, 1)))
        if m > HH_M_CAP:
            raise ValueError(
                f"heavy_hitters: hint-derived m={m} exceeds HH_M_CAP="
                f"{HH_M_CAP} (n_rows_hint={n_rows_hint}, min_count="
                f"{min_count}); pass m= explicitly to accept the larger "
                f"candidate bound, or raise min_count")
    elif n_rows_hint is not None and (m + 1) * min_count < n_rows_hint:
        import warnings
        warnings.warn(
            f"heavy_hitters: m={m} breaks the pigeonhole guarantee "
            f"m+1 >= n/min_count (n={n_rows_hint}, min_count={min_count})"
            f" — output may MISS true hitters", RuntimeWarning,
            stacklevel=2)

    def pass1(batch: pa.Table) -> pa.Table:
        vc = batch[column].value_counts()
        vals = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False)
        valid = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        n_b = int(cnts[valid].sum()) if valid.any() else 0
        keep = valid & (cnts > n_b / (m + 1))
        return pa.table({"value": vals.filter(pa.array(keep)),
                         "cnt": pa.array(cnts[keep], pa.int64())})

    cand_rows = grouped_aggregate(  # bounded: per-batch survivors only
        ds.map_batches(pass1, batch_format="pyarrow"), "value",
        {"cnt": "sum"}).take_all()
    candidates = np.array(sorted(r["value"] for r in cand_rows))
    if stats is not None:  # scale-shape evidence: exchange is candidates,
        stats["m"] = m     # never the full key cardinality
        stats["n_candidates"] = len(candidates)
    if len(candidates) == 0:
        return pa.table({"value": pa.array([], pa.int64()),
                         "cnt": pa.array([], pa.int64())})
    cand_ref = ray.put(candidates)

    def pass2(batch: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        vc = batch[column].value_counts()
        vals = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False)
        valid = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        v = vals.to_numpy(zero_copy_only=False)
        keep = valid & np.isin(v, cand)
        out_v = np.concatenate([v[keep].astype(np.int64), [0]])
        out_c = np.concatenate([cnts[keep].astype(np.int64),
                                [int(cnts[valid].sum())]])
        is_total = np.zeros(len(out_v), dtype=np.int8)
        is_total[-1] = 1
        return pa.table({"value": pa.array(out_v, pa.int64()),
                         "cnt": pa.array(out_c, pa.int64()),
                         "is_total": pa.array(is_total, pa.int8())})

    rows = grouped_aggregate(  # tiny: |candidates| + 1 rows
        ds.map_batches(pass2, batch_format="pyarrow"), ["is_total", "value"],
        {"cnt": "sum"}).take_all()
    out = [(r["value"], r["cnt"]) for r in rows
           if r["is_total"] == 0 and r["cnt"] >= min_count]
    out.sort(key=lambda t: (-t[1], t[0]))
    return pa.table({"value": pa.array([v for v, _ in out], pa.int64()),
                     "cnt": pa.array([c for _, c in out], pa.int64())})


def seeded_sample_n(ds, id_column: str, n: int) -> pa.Table:
    """Deterministic global n-row sample: rank every row by
    ``hash61(id)`` and keep the n smallest — a seeded uniform sample
    that is reproducible across engines (the SQL twin recomputes the
    same ranks) and across reruns/cluster sizes, unlike
    ``random_sample``. Per batch: vectorized hash + local top-n prune
    (≤ n rows leave any batch), then one tiny global sort over
    ≤ n × num_batches rows."""

    def rank(batch: pa.Table) -> pa.Table:
        # drop null ids BEFORE to_numpy: a null slot would yield
        # float64-with-NaN and crash the int64 re-cast below
        batch = batch.filter(pc.is_valid(batch[id_column]))
        ids = pc.cast(batch[id_column], pa.int64()).to_numpy(
            zero_copy_only=False)
        h = hash61(np.asarray(ids, dtype=np.int64))
        if len(h) > n:
            kth = np.partition(h, n - 1)[n - 1]
            keep = h <= kth
            ids, h = ids[keep], h[keep]
        return pa.table({id_column: pa.array(ids, pa.int64()),
                         "rank": pa.array(h.astype(np.int64), pa.int64())})

    cand = ds.map_batches(rank, batch_format="pyarrow")
    batches = list(cand.iter_batches(batch_format="pyarrow"))
    if not batches:  # empty input produces zero batches
        return pa.table({id_column: pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    tbl = pa.concat_tables(batches)
    order = pc.sort_indices(tbl, sort_keys=[("rank", "ascending"),
                                            (id_column, "ascending")])
    return tbl.take(order).slice(0, n)


def hll_registers_by_group(ds, group_column: str, column: str,
                           b: int = HLL_B):
    """Per-group HyperLogLog registers — COUNT(DISTINCT …) GROUP BY at
    sketch cost: ≤ m register rows per (batch, group) leave any batch,
    merged by one (group, bucket) ``grouped_aggregate`` max. Registers
    per group merge exactly like the global sketch's (max-monoid), so a
    100-TB job's per-shard grouped sketches union by row-wise max.
    Hashing is the vectorized hash61 for integer columns, whose
    per-batch (group, bucket) max is the aggregate's Arrow partial — no
    Python loop."""

    def batch_regs(batch: pa.Table) -> pa.Table:
        pairs = (pa.table({"g": batch[group_column], "v": batch[column]})
                 .group_by(["g", "v"]).aggregate([]))
        pairs = pairs.filter(pc.and_(pc.is_valid(pairs["g"]),
                                     pc.is_valid(pairs["v"])))
        if _is_int_column(pairs["v"]):
            vals = pairs["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            bucket, rho = _hll_parts_int(vals, b)
            return pa.table({group_column: pairs["g"],
                             "bucket": pa.array(bucket, pa.int64()),
                             "rho": pa.array(rho, pa.int64())})
        suffix_bits = 64 - b
        mask = (1 << suffix_bits) - 1
        regs: dict[tuple, int] = {}
        for g, v in zip(pairs["g"].to_pylist(), pairs["v"].to_pylist()):
            h = _md5_hash64(v)
            bucket = h >> suffix_bits
            w = h & mask
            rho = suffix_bits - w.bit_length() + 1 if w else suffix_bits + 1
            key = (g, bucket)
            if rho > regs.get(key, 0):
                regs[key] = rho
        return pa.table({
            group_column: pa.array([k[0] for k in regs]),
            "bucket": pa.array([k[1] for k in regs], pa.int64()),
            "rho": pa.array(list(regs.values()), pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(batch_regs, batch_format="pyarrow"),
        [group_column, "bucket"], {"rho": "max"})
