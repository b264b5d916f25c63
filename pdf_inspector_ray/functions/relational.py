"""Relational / dataflow operators the rebuild adds (SURVEY.md §2.7):
global aggregates with partial pre-aggregation, joins, windowed
(tumbling) aggregates over the events stream table.

Every equi-join in the library is ``hash_join``: it broadcasts a right
side of at most ``BROADCAST_ROWS`` rows and shuffles a larger one, a
choice made from the side's observed size, with one join kernel for
both plans. Keys are one or more columns of any type. Dimension tables
that arrive on the driver join each other there with Acero, then join
the fact side through ``hash_join``. ``range_join`` is the one
non-equi join.

Shuffle discipline: per-key work goes through one of four primitives,
never one Python UDF call per key:

* ``keyed_exchange`` — the library's one hash-partition groupby: rows
  co-locate by ``key_partition`` of a key of one or more columns of any
  type, and one call per partition (``num_partitions`` of them) sees all
  rows of each of its keys, unsorted. The join shuffles, the dedup pair
  machinery and the gram / term exchanges run on it.
* ``partitioned_sweep`` — ``keyed_exchange`` plus one sort per partition
  and one vectorized sweep over all keys of that partition; for
  order-dependent ops. It is the library's one partition sort: a kernel
  that needs its partition's keys as contiguous runs (windows, runs,
  posting lists, LSH buckets, the range join's probe) gets them sorted
  here, never sorts an exchange partition itself.
* ``grouped_topk`` — the first ``k`` rows per key under an order, with a
  per-batch top-k before the exchange; ``k=1`` is argmin / argmax /
  first-by-ts.
* ``grouped_aggregate`` — sums, mins, maxes and row counts per key: a
  per-batch Arrow partial (the exchange moves one row per batch × key,
  not one per input row), ``keyed_exchange``, and one Arrow merge per
  partition.

Every per-key operator runs on one of these shapes, so no UDF is called once
per key value. A null key is one key for every
key type, as in SQL's ``PARTITION BY``; the join-like operators
(``asof_join_events``, ``funnel_conversion``) match nothing on a null key, as
SQL's ``=`` does.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pricing_summary(ds) -> "ray.data.Dataset":
    """TPC-H Q1-style pricing summary over lineitem: one
    ``grouped_aggregate`` on (returnflag, linestatus), the four float
    sums rounded to 2 dp after the merge."""

    def rows(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(batch["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": batch["l_quantity"],
            "sum_base_price": batch["l_extendedprice"],
            "sum_disc_price": disc_price,
            "sum_charge": pc.multiply(disc_price,
                                      pc.add(pa.scalar(1.0), batch["l_tax"])),
        })

    sums = ["sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"]
    return grouped_aggregate(
        ds.map_batches(rows, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {**dict.fromkeys(sums, "sum"), "count_order": "count"},
    ).map_batches(_round_columns(sums), batch_format="pyarrow")


def asof_join_events(ds, left_type: str, right_type: str) -> "ray.data.Dataset":
    """As-of join — an operator Ray Data lacks, composed as a
    ``partitioned_sweep`` over ``user_id``: for each ``left_type`` event,
    attach the most recent ``right_type`` event of the same user at or
    before its timestamp. Over the (user, ts, event_id)-sorted partition
    one searchsorted of left positions into right positions finds the
    latest earlier right row; it counts only if it has the same user.
    A null ``user_id`` matches nothing (SQL's ``=``): its left rows keep
    a NULL prior."""

    def merge(g: pa.Table, starts: np.ndarray) -> pa.Table:
        first = _run_start(starts, g.num_rows)
        left_pos = np.flatnonzero(pc.equal(
            g["event_type"], left_type).to_numpy(zero_copy_only=False))
        right_pos = np.flatnonzero(pc.equal(
            g["event_type"], right_type).to_numpy(zero_copy_only=False))
        k = np.searchsorted(right_pos, left_pos, side="right") - 1
        prior = np.append(right_pos, -1)[k]     # k == -1: no right row
        has = ((k >= 0) & (first[prior] == first[left_pos])
               & pc.is_valid(g["user_id"]).to_numpy(
                   zero_copy_only=False)[left_pos])
        prior_idx = pa.array(prior, pa.int64(), mask=~has)
        return pa.table({
            "event_id": g["event_id"].take(left_pos),
            "ts": g["ts"].take(left_pos),
            "user_id": g["user_id"].take(left_pos),
            "prior_event_id": g["event_id"].take(prior_idx),
            "prior_ts": g["ts"].take(prior_idx),
        })

    def prefilter(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["event_type"],
                        value_set=pa.array([left_type, right_type]))
        return batch.filter(mask)

    return partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                             "user_id", ["ts", "event_id"], merge)


def session_windows(ds, gap_minutes: int = 30) -> "ray.data.Dataset":
    """Session windows (gap-based) per user: consecutive events closer than
    ``gap_minutes`` belong to one session. Ray Data has no session-window
    primitive — composed as a ``partitioned_sweep`` over ``user_id``
    ordered by (ts, event_id): a session starts at each user's first
    event and after every wider gap; per-session bounds and sums come
    from boundary indexing + ``np.add.reduceat``. Null ``user_id`` rows
    are one user, as in SQL's ``PARTITION BY``."""
    gap_us = gap_minutes * 60_000_000

    def sessions(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        brk = np.zeros(len(ts), dtype=bool)
        brk[starts] = True
        brk[1:] |= np.diff(ts) > gap_us
        first = np.flatnonzero(brk)
        last = np.append(first[1:] - 1, len(ts) - 1)
        values = g["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": g["user_id"].take(first),
            "session_start": g["ts"].take(first),
            "session_end": g["ts"].take(last),
            "n_events": pa.array(np.diff(np.append(first, len(ts))),
                                 pa.int64()),
            "sum_value": pa.array(
                np.round(np.add.reduceat(values, first), 2), pa.float64()),
        })

    return partitioned_sweep(ds, "user_id", ["ts", "event_id"], sessions)


def windowed_event_counts(ds, window: str = "hour") -> "ray.data.Dataset":
    """Tumbling-window aggregate over the events table: count + sum(value)
    per (window_start, event_type), one ``grouped_aggregate``."""
    unit_us = {"hour": 3_600_000_000, "day": 86_400_000_000}[window]

    def rows(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64())
        win = pc.multiply(pc.divide(ts, pa.scalar(unit_us, pa.int64())),
                          pa.scalar(unit_us, pa.int64()))
        return pa.table({
            "window_start": pc.cast(win, pa.timestamp("us")),
            "event_type": batch["event_type"],
            "sum_value": batch["value"],
        })

    return grouped_aggregate(
        ds.map_batches(rows, batch_format="pyarrow"),
        ["window_start", "event_type"],
        {"n_events": "count", "sum_value": "sum"},
    ).map_batches(_round_columns(["sum_value"]), batch_format="pyarrow")


def hopping_window_counts(ds, window_us: int = 3_600_000_000,
                          hop_us: int = 1_800_000_000) -> "ray.data.Dataset":
    """Hopping (sliding) window aggregate: each event lands in
    ``window_us / hop_us`` overlapping windows; assignment is a vectorized
    flat-map expansion inside ``map_batches`` followed by the same
    ``grouped_aggregate`` as the tumbling case. Window k for event t:
    starts ``floor(t/hop)·hop − i·hop`` for i in [0, window/hop) with
    start > t − window."""
    assert window_us % hop_us == 0
    k = window_us // hop_us

    def rows(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        base = (ts // hop_us) * hop_us
        starts = np.concatenate([base - i * hop_us for i in range(k)])
        rep_value = np.tile(
            batch["value"].to_numpy(zero_copy_only=False), k)
        return pa.table({
            "window_start": pa.array(starts, pa.int64()).cast(
                pa.timestamp("us")),
            "sum_value": pa.array(rep_value, pa.float64()),
        })

    return grouped_aggregate(
        ds.map_batches(rows, batch_format="pyarrow"), "window_start",
        {"n_events": "count", "sum_value": "sum"},
    ).map_batches(_round_columns(["sum_value"]), batch_format="pyarrow")


# -- hash partitioning and the equi-join -------------------------------------

JOIN_PARTITIONS = 256
# Fibonacci-hash multiplier for the key and a coprime stride for the salt
# index — shared with tests so the partition-spread probe measures the
# exact exchange the join performs.
PART_MULT = 2654435761
SALT_MULT = 40503


def key_partition(key, num_partitions: int = JOIN_PARTITIONS) -> np.ndarray:
    """Coarse hash partition (int32 in ``[0, num_partitions)``) of each
    row's key: one column, or a table of key columns. One integer
    column takes the Fibonacci hash ``(k·PART_MULT) mod 2^64 mod P``,
    with ``k`` cast to int64 with wraparound, so a uint64 key of 2^63 or
    more keeps its bits; a null key hashes as 0, since it would
    round-trip through numpy as NaN. ``PART_MULT`` is odd, so
    ``(k·PART_MULT) mod 2^b`` is a permutation of ``k mod 2^b``: for a
    power-of-two ``P = 2^b`` only the key's low ``b`` bits pick the
    partition. Any other key (a string column, or several columns)
    takes polars' row hash pinned to ``seed=0``, which is stable across
    processes and hashes every null key alike. Either way all null-key
    rows share one partition."""
    if isinstance(key, pa.Table) and key.num_columns == 1:
        key = key.column(0)
    if isinstance(key, pa.Table) or not pa.types.is_integer(key.type):
        import polars as pl
        rows = key if isinstance(key, pa.Table) else pa.table({"k": key})
        h = pl.from_arrow(rows).hash_rows(seed=0).to_numpy()
        return (h % np.uint64(num_partitions)).astype(np.int32)
    k = pc.fill_null(pc.cast(key, pa.int64(), safe=False), 0).to_numpy(
        zero_copy_only=False).astype(np.uint64)
    with np.errstate(over="ignore"):
        return ((k * np.uint64(PART_MULT))
                % np.uint64(num_partitions)).astype(np.int32)


def keyed_exchange(ds, key, fn, num_partitions: int = JOIN_PARTITIONS):
    """The library's one keyed exchange: ``fn`` is called once per hash
    partition of ``key``, not once per key value, with every row of each
    of that partition's keys. ``key`` is a column name or a list of
    names, of any type; rows co-locate by ``key_partition`` of the key
    columns (``num_partitions`` groups, so the exchange sorts that many
    distinct values). ``fn`` gets the partition's rows in no particular
    order and returns a table; every partition's output must share one
    schema. Partitioning assumption: one partition — about
    1/``num_partitions`` of the rows, plus any heavy key whole — fits a
    task.

    ``ds`` may also be a list of datasets of one schema (a join's
    tagged sides), co-partitioned in the same exchange: each is
    partitioned before their union, so the partition column is computed
    in the task of each side's own last map, not in an extra pass."""
    keys = [key] if isinstance(key, str) else list(key)

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column("__part", pa.array(
            key_partition(batch.select(keys), num_partitions), pa.int32()))

    def per_partition(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns(["__part"]))

    first, *rest = [d.map_batches(add_part, batch_format="pyarrow")
                    for d in (ds if isinstance(ds, list) else [ds])]
    return ((first.union(*rest) if rest else first)
            .groupby("__part")
            .map_groups(per_partition, batch_format="pyarrow"))


# how a grouped aggregate's per-batch partials merge after the exchange
_MERGE_OPS = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_aggregate(ds, keys, aggs: dict) -> "ray.data.Dataset":
    """The library's one grouped aggregate, SQL's ``SELECT keys, op(…)
    GROUP BY keys``. ``keys`` is a column name or a list of names, of
    any type. ``aggs`` maps each output column to its op: ``"sum"``,
    ``"min"`` or ``"max"`` of the input column of that name, or
    ``"count"``, the group's row count (no input column needed). The
    output holds the key columns, then one column per ``aggs`` entry,
    in no particular row order.

    Three steps: a per-batch Arrow ``group_by`` partial (it fuses with
    the caller's own map), ``keyed_exchange`` on the keys, and one Arrow
    ``group_by`` per partition merging the partials: sum and count by
    sum, min by min, max by max. A hot key costs one partial row per
    batch, not its rows, so it needs no split. A null key is one group,
    as in SQL; a sum, min or max skips null values and is null for a
    group of only nulls. Types are Arrow's: keys, mins and maxes keep
    theirs, an integer sum or a count is int64, a float sum float64.

    An empty input leaves the exchange without a schema; a materialized
    one (``from_arrow``, ``materialize()``) still gives the typed empty
    table, whose types are known without running anything."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    keys = [keys] if isinstance(keys, str) else list(keys)
    merge = {name: _MERGE_OPS[op] for name, op in aggs.items()}

    def fold(t: pa.Table, ops: dict) -> pa.Table:
        spec = [([], "count_all") if op == "count" else (name, op)
                for name, op in ops.items()]
        return (t.group_by(keys, use_threads=False).aggregate(spec)
                 .rename_columns(keys + list(ops)))

    out = keyed_exchange(
        ds.map_batches(fold, fn_args=(aggs,), batch_format="pyarrow"),
        keys, lambda g: fold(g, merge))
    schema = ds.schema() if isinstance(ds, MaterializedDataset) else None
    if schema is None:
        return out
    empty = fold(fold(schema.base_schema.empty_table(), aggs), merge)
    return ray.data.from_arrow(empty).union(out)


def _round_columns(names: list[str], ndigits: int = 2):
    """A batch map applying Python's ``round`` to the float columns
    ``names`` of a grouped aggregate's output: a twin's ROUND happens
    after the merge, never on a partial."""

    def fn(batch: pa.Table) -> pa.Table:
        for name in names:
            batch = batch.set_column(
                batch.schema.get_field_index(name), name,
                pa.array([round(v, ndigits) for v in batch[name].to_pylist()],
                         pa.float64()))
        return batch

    return fn


def _sorted_runs(t: pa.Table, keys: list[str], order_cols
                 ) -> tuple[pa.Table, np.ndarray]:
    """``t`` sorted by ``(*keys, *order_cols)``, and the index of each
    key's first row: a new key starts where a run of any key column
    ends. Run-end encoding puts consecutive nulls in one run, so null
    equals null."""
    sort_keys = [(k, "ascending") for k in keys] + [
        (c, "ascending") if isinstance(c, str) else c for c in order_cols]
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    brk = np.zeros(t.num_rows, dtype=bool)
    brk[:1] = True
    for k in keys:
        ends = pc.run_end_encode(t[k].combine_chunks()).run_ends
        brk[ends.to_numpy()[:-1]] = True
    return t, np.flatnonzero(brk)


def partitioned_sweep(ds, key, order_cols, kernel,
                      num_partitions: int = JOIN_PARTITIONS):
    """Sorted per-key sweep on ``keyed_exchange``: each of its
    ``num_partitions`` partitions is sorted by ``(*key, *order_cols)``
    once and handed to ``kernel(g, starts)``. ``key`` is a column name
    or a list of names, of any type; ``ds`` takes ``keyed_exchange``'s
    forms (a dataset, or a list of co-partitioned ones). ``g`` is the
    sorted partition; ``starts`` holds the index of each key's first
    row. Kernels compute per-key results with boundary masks,
    ``_run_start`` offsets, cumsum differences and ``reduceat`` — no
    Python loop over keys.

    ``order_cols`` are column names sorted ascending, or
    ``(name, "descending")`` pairs; nulls sort last in every column.
    Null keys form ONE key, after all others, as SQL's ``PARTITION BY``
    groups them; a multi-column key is null-equal column by column."""
    keys = [key] if isinstance(key, str) else list(key)
    return keyed_exchange(
        ds, keys, lambda g: kernel(*_sorted_runs(g, keys, order_cols)),
        num_partitions)


def grouped_topk(ds, key, order_cols, k: int):
    """The first ``k`` rows of each key under ``order_cols`` — the
    distributed ``QUALIFY row_number() OVER (PARTITION BY key ORDER BY
    order_cols) <= k``; ``k=1`` is argmin / argmax / first-by-ts.
    ``key`` and ``order_cols`` take ``partitioned_sweep``'s forms; the
    order must be total within a key for the result to be
    deterministic. Top-k is decomposable, so each batch first keeps its
    own first ``k`` rows per key, and the exchange carries at most
    ``k`` rows per (batch, key). Rows pass through unchanged: only
    ordering touches the values, so float columns cannot diverge from a
    SQL twin."""
    keys = [key] if isinstance(key, str) else list(key)

    def head(g: pa.Table, starts: np.ndarray) -> pa.Table:
        rank = np.arange(g.num_rows) - _run_start(starts, g.num_rows)
        return g.filter(pa.array(rank < k))

    pruned = ds.map_batches(
        lambda b: head(*_sorted_runs(b, keys, order_cols)),
        batch_format="pyarrow")
    return partitioned_sweep(pruned, keys, order_cols, head)


def _run_id(starts: np.ndarray, n: int) -> np.ndarray:
    """Per row of a swept partition, the ordinal of its key run."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


def _run_start(starts: np.ndarray, n: int) -> np.ndarray:
    """Per row of a swept partition, the index of its key's first row."""
    return starts[_run_id(starts, n)]


def _run_cummax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running maximum of integer ``values`` within each key run. The
    values are replaced by their dense rank and offset by ``run * m``
    (``m`` distinct values), so one global ``maximum.accumulate``
    restarts at every run without overflowing int64."""
    uniq, rank = np.unique(values, return_inverse=True)
    base = _run_id(starts, len(values)) * len(uniq)
    return uniq[np.maximum.accumulate(base + rank) - base]


def _first_in_run(mask: np.ndarray, starts: np.ndarray, values: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per key run of a swept partition: whether any row has ``mask``
    set, and ``values`` at the first such row (0 where none does)."""
    idx = np.flatnonzero(mask)
    runs, first = np.unique(_run_id(starts, len(mask))[idx],
                            return_index=True)
    has = np.zeros(len(starts), dtype=bool)
    has[runs] = True
    out = np.zeros(len(starts), dtype=values.dtype)
    out[runs] = values[idx[first]]
    return has, out


def _run_pairs(values: pa.Array, starts: np.ndarray
               ) -> tuple[pa.Array, pa.Array, pa.Array]:
    """Market-basket pairs of a partition swept by (basket key, value):
    repeated values within a run are dropped first (a basket's item can
    reach the exchange once per batch), then every ``i < j`` pair of
    one run's remaining values is emitted. Returns the distinct items
    and the pair sides ``(a, b)``, with ``a < b``."""
    keep = np.flatnonzero(_changes(values.to_numpy(zero_copy_only=False),
                                   starts))
    items = values.take(keep)
    m = len(keep)
    item_starts = np.searchsorted(keep, starts)
    run_end = np.append(item_starts, m)[_run_id(item_starts, m) + 1]
    later = run_end - np.arange(m) - 1
    a = np.repeat(np.arange(m), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    return items, items.take(a), items.take(b)


def _changes(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rows whose value differs from the previous row of the same key;
    each key's first row counts as a change. NaN ties NaN, as in SQL."""
    brk = np.ones(len(values), dtype=bool)
    brk[1:] = values[1:] != values[:-1]
    if values.dtype.kind == "f":
        brk[1:] &= ~(np.isnan(values[1:]) & np.isnan(values[:-1]))
    brk[starts] = True
    return brk


# A right side of at most this many rows is collected on the driver once
# and put in the object store for every left batch; a larger one goes
# through the tagged-union shuffle.
BROADCAST_ROWS = 1_000_000

JOIN_TYPES = ("inner", "left outer", "left semi", "left anti")

# the same join with the sides swapped, for a build on the left side
_SWAPPED = {"inner": "inner", "left outer": "right outer",
            "left semi": "right semi", "left anti": "right anti"}


def _check_disjoint(left_names, right_names) -> None:
    overlap = set(left_names) & set(right_names)
    if overlap:
        raise ValueError(
            f"hash_join requires disjoint column names; both sides have "
            f"{sorted(overlap)} — rename before joining")


def _join_kernel(lt: pa.Table, rt: pa.Table, on: list, right_on: list,
                 join_type: str) -> pa.Table:
    """Acero joins the key columns plus a row index of each side; the
    payload columns are then taken by index. Acero rejects nested
    non-key fields (``list<float>`` embeddings), which this way never
    reach it, and a duplicate right key still matches many-to-many.
    Acero builds its hash table on its right input, so the smaller side
    goes there (the swapped join type keeps the left side's meaning): a
    broadcast side of 1M rows is probed by each left batch, not hashed
    again for it. Right keys are cast to the left keys' types (Acero
    needs equal types, e.g. an aggregated int64 against an int32
    dimension key). A null key matches nothing, as with SQL's ``=``."""
    _check_disjoint(lt.column_names, rt.column_names)

    def keys(t, cols, types, idx):
        return pa.table(
            [pc.cast(t[c], typ) for c, typ in zip(cols, types)]
            + [pa.array(np.arange(t.num_rows), pa.int64())],
            names=[*cols, idx])

    types = [lt.schema.field(c).type for c in on]
    lk, rk = keys(lt, on, types, "__lidx"), keys(rt, right_on, types, "__ridx")
    if lt.num_rows < rt.num_rows:
        m = rk.join(lk, keys=right_on, right_keys=on,
                    join_type=_SWAPPED[join_type])
    else:
        m = lk.join(rk, keys=on, right_keys=right_on, join_type=join_type)
    out = lt.take(m["__lidx"])
    if join_type in ("left semi", "left anti"):
        return out
    payload = rt.drop_columns(right_on).take(m["__ridx"])
    for field, col in zip(payload.schema, payload.columns):
        out = out.append_column(field, col)
    return out


def _valid_keys(keys: list):
    """Filter expression: every key column is non-null."""
    expr = pc.field(keys[0]).is_valid()
    for k in keys[1:]:
        expr = expr & pc.field(k).is_valid()
    return expr


def hash_join(left_ds, right_ds, on, right_on=None,
              join_type: str = "inner",
              num_partitions: int = JOIN_PARTITIONS,
              left_schema: list | None = None,
              hot_keys: list | None = None,
              salt: int = 8) -> "ray.data.Dataset":
    """The library's equi-join: left columns, then the right side's
    non-key columns. ``on`` / ``right_on`` name one key column or a
    list of them, of any type; ``join_type`` is one of ``JOIN_TYPES``.
    A null key matches nothing, so null-key left rows stay in a
    ``left outer`` (with null right columns) and a ``left anti`` join.
    Column names must be disjoint across the two sides: checked at call
    time when the left schema is known (always on the shuffle plan),
    and again by every join task.

    The right side is materialized first, at call time, so its upstream
    runs once whichever plan follows; known cost: all of it is held in
    the object store (spilled to disk past its capacity) until the join
    has read it. The plan follows its row count:

    * at most ``BROADCAST_ROWS`` → it is collected, put into the object
      store once and joined to each left batch, no shuffle;
    * more → both sides are tagged, unioned and co-partitioned by
      ``key_partition`` of the key, cast to the left key types
      (``num_partitions`` groups, one all-to-all carrying each side
      once, through ``keyed_exchange``), then joined per group.
      ``left_schema`` ([(name, type), …]) names the left columns for
      the union; without it ``Dataset.schema()`` runs a probe of the
      left side.

    Both plans run one kernel, ``_join_kernel``. Hand-rolled because
    Ray 2.49's native ``Dataset.join`` loses the schema of an empty
    right partition.

    Skew (``hot_keys`` + ``salt``, shuffle plan): a pathologically hot
    key concentrates its rows in one group. Passing its values (of the
    first key column) spreads each hot LEFT row over one of ``salt``
    sub-partitions (deterministic round-robin) and REPLICATES each hot
    RIGHT row into all of them, so every left row still meets every
    matching right row exactly once. Find hot keys cheaply with
    ``sketch.cms_counters`` over the key column. Right and full outer
    joins are not offered: neither a broadcast nor a replicated right
    side can emit its unmatched rows exactly once."""
    import ray

    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    if join_type not in JOIN_TYPES:
        raise ValueError(
            f"hash_join supports {', '.join(JOIN_TYPES)}, not {join_type}: "
            "a broadcast or salt-replicated right side cannot emit its "
            "unmatched rows once")

    right_ds = right_ds.materialize()
    right_schema = right_ds.schema()
    right_names = right_schema.names if right_schema is not None else []
    fits = right_ds.count() <= BROADCAST_ROWS
    if left_schema is None:
        # the shuffle's union needs the left schema; a broadcast takes it
        # only where Ray knows it without running the left side
        schema = left_ds.schema(fetch_if_missing=not fits)
        if schema is None and not fits:  # empty and schema-less
            return left_ds
        left_schema = (None if schema is None else
                       [(f.name, f.type) for f in schema.base_schema])
    if left_schema is not None:
        _check_disjoint([n for n, _ in left_schema], right_names)

    if fits:
        head = [t for t in ray.get(right_ds.to_arrow_refs()) if t.num_columns]
        right = (pa.concat_tables(head).filter(_valid_keys(right_on))
                 .combine_chunks() if head else None)
        right_ref = ray.put(right)

        def join(batch: pa.Table) -> pa.Table:
            rt = ray.get(right_ref)
            if rt is None:  # empty and schema-less: it has no columns
                rt = pa.table({r: pa.nulls(0, batch[k].type)
                               for k, r in zip(on, right_on)})
            return _join_kernel(batch, rt, on, right_on, join_type)

        return left_ds.map_batches(join, batch_format="pyarrow")

    left_names = [n for n, _ in left_schema]
    key_types = [dict(left_schema)[k] for k in on]
    union_schema = left_schema + [(f.name, f.type)
                                  for f in right_schema.base_schema]

    def tag(is_left: bool, keys: list):
        own = set(left_names if is_left else right_names)

        def fn(batch: pa.Table) -> pa.Table:
            if not is_left:
                batch = batch.filter(_valid_keys(keys))
            salt_idx = np.zeros(len(batch), dtype=np.uint64)
            if hot_keys:
                is_hot = pc.is_in(batch[keys[0]], value_set=pa.array(
                    hot_keys, batch[keys[0]].type)).to_numpy(
                        zero_copy_only=False)
                if is_left:
                    # deterministic round-robin: same batch → same salts
                    # on retry, so the shuffle stays replay-safe
                    salt_idx[is_hot] = (np.arange(len(batch),
                                                  dtype=np.uint64)[is_hot]
                                        % np.uint64(salt))
                elif is_hot.any():
                    # replicate each hot right row into every salt group
                    reps = np.where(is_hot, salt, 1).astype(np.int64)
                    batch = batch.take(pa.array(
                        np.repeat(np.arange(len(batch)), reps)))
                    # 0..salt-1 within each replicated run
                    run_start = np.repeat(np.cumsum(reps) - reps, reps)
                    salt_idx = np.where(
                        np.repeat(is_hot, reps),
                        np.arange(len(batch)) - run_start, 0
                    ).astype(np.uint64)
            cols = {name: (batch[name] if name in own
                           else pa.nulls(len(batch), typ))
                    for name, typ in union_schema}
            # both sides hash the key in the left key types, so equal
            # keys of different widths meet in one slot
            slot = key_partition(pa.table(
                [pc.cast(batch[k], t) for k, t in zip(keys, key_types)],
                names=on), num_partitions)
            with np.errstate(over="ignore"):
                slot = ((slot.astype(np.uint64)
                         + salt_idx * np.uint64(SALT_MULT))
                        % np.uint64(num_partitions)).astype(np.int32)
            cols["__slot"] = pa.array(slot, pa.int32())
            cols["__left"] = pa.array(
                np.full(len(batch), is_left), pa.bool_())
            return pa.table(cols)

        return fn

    def join_group(group: pa.Table) -> pa.Table:
        is_left = group["__left"]
        return _join_kernel(group.filter(is_left).select(left_names),
                            group.filter(pc.invert(is_left))
                                 .select(right_names),
                            on, right_on, join_type)

    # the exchange hashes the slot once more: PART_MULT is prime, so
    # key_partition maps the slots [0, P) one-to-one onto the partitions
    # and each group holds exactly one slot's rows
    return keyed_exchange(
        [left_ds.map_batches(tag(True, on), batch_format="pyarrow"),
         right_ds.map_batches(tag(False, right_on), batch_format="pyarrow")],
        "__slot", join_group, num_partitions)


def range_join(left_ds, right_ds, key: str, left_ts: str,
               right_start: str, right_end: str,
               num_partitions: int = JOIN_PARTITIONS,
               left_schema: list | None = None,
               right_schema: list | None = None) -> "ray.data.Dataset":
    """Range (interval) join — a non-equi join Ray Data has no primitive
    for: attach to each left row the right-side interval
    ``[right_start, right_end]`` of the same ``key`` that contains
    ``left_ts`` (inclusive bounds). Composed as a tagged union, each row
    carrying its time ``__t`` (the interval start, or ``left_ts``), on
    one ``partitioned_sweep`` keyed by the int64-cast key and ordered by
    (``__t``, side): one all-to-all carries both sides once, and the
    probe per partition is a running max over interval positions plus
    the containment check — no per-row Python. Rows with a null key,
    timestamp or bound are dropped before the exchange.

    Partitioning assumptions (documented per SURVEY §2.7 discipline):
    all intervals+rows of one key meet in one group (same as the asof/
    session operators — salt by coarse time range + boundary pass for a
    pathological key), and one key's intervals are NON-overlapping
    (sessions, validity windows, SCD periods). Left rows contained in no
    interval are dropped (inner semantics).

    Pass ``left_schema``/``right_schema`` ([(name, type), …]) when a side
    is map/groupby-produced: ``Dataset.schema()`` on those EXECUTES a
    probe — for a groupby side that means running the whole shuffle once
    just to learn the column types."""
    if left_schema is None:
        left_schema = [(f.name, f.type)
                       for f in left_ds.schema().base_schema]
    if right_schema is None:
        right_schema = [(f.name, f.type)
                        for f in right_ds.schema().base_schema]
    left_names = [n for n, _ in left_schema]
    out_right = [(n, t) for n, t in right_schema
                 if n in (right_start, right_end)]
    overlap = set(left_names) & {right_start, right_end}
    if overlap:
        raise ValueError(f"range_join output columns collide: {overlap}")
    union_schema = left_schema + out_right

    def tag(is_left: bool, own_schema):
        own = {n for n, _ in own_schema}
        time_col = left_ts if is_left else right_start
        needed = [key, left_ts] if is_left else [key, right_start, right_end]

        def fn(batch: pa.Table) -> pa.Table:
            # a null key, timestamp or bound never satisfies the
            # containment: drop the row before the exchange
            for name in needed:
                batch = batch.filter(pc.is_valid(batch[name]))
            cols = {name: (pc.cast(batch[name], typ) if name in own
                           else pa.nulls(len(batch), typ))
                    for name, typ in union_schema}
            cols["__key"] = pc.cast(batch[key], pa.int64())
            cols["__t"] = pc.cast(cols[time_col], pa.int64())
            cols["__left"] = pa.array(np.full(len(batch), is_left), pa.bool_())
            return pa.table(cols)

        return fn

    def probe(g: pa.Table, starts: np.ndarray) -> pa.Table:
        # g is sorted by (key, time, side), an interval row before a left
        # row at the same time: a left row's candidate is the last
        # interval row at or before it, kept when it lies in the same key
        # run and its end is at or after the timestamp
        n = g.num_rows
        is_left = g["__left"].to_numpy(zero_copy_only=False)
        left_pos = np.flatnonzero(is_left)
        last_right = np.maximum.accumulate(np.where(is_left, -1, np.arange(n)))
        j = last_right[left_pos]
        ends = pc.fill_null(pc.cast(g[right_end], pa.int64()), 0).to_numpy(
            zero_copy_only=False)
        t = g["__t"].to_numpy(zero_copy_only=False)
        ok = ((j >= _run_start(starts, n)[left_pos])
              & (t[left_pos] <= ends[np.maximum(j, 0)]))
        lt = g.take(pa.array(left_pos[ok], pa.int64()))
        rt = g.take(pa.array(j[ok], pa.int64()))
        return pa.table({**{nm: lt[nm] for nm in left_names},
                         **{nm: rt[nm] for nm, _ in out_right}})

    right_own = out_right + [(key, dict(right_schema)[key])]
    return partitioned_sweep(
        [left_ds.map_batches(tag(True, left_schema), batch_format="pyarrow"),
         right_ds.map_batches(tag(False, right_own), batch_format="pyarrow")],
        "__key", ["__t", "__left"], probe, num_partitions)


def order_priority_revenue(orders_ds, lineitem_ds,
                           num_partitions: int = JOIN_PARTITIONS
                           ) -> "ray.data.Dataset":
    """Revenue per order priority — a large×large join pipeline (TPC-H
    Q4-flavored): lineitem revenue is partially pre-aggregated per orderkey
    inside map_batches (shrinks the exchange ~4×, sum is distributive so
    cross-batch partials need no reduce before the join), hash-joined to
    orders, then a ``grouped_aggregate`` on priority, rounded to 2 dp after the
    merge. Size ``num_partitions`` to the data (rows/partition bounds per-task
    memory; at toy scale fewer partitions avoid paying the per-task floor 256
    times)."""

    def li_partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        t = pa.table({"l_orderkey": batch["l_orderkey"], "revenue": rev})
        return (t.group_by(["l_orderkey"]).aggregate([("revenue", "sum")])
                 .rename_columns(["l_orderkey", "revenue"]))

    li = lineitem_ds.map_batches(li_partial, batch_format="pyarrow")
    joined = hash_join(orders_ds, li, on="o_orderkey", right_on="l_orderkey",
                       num_partitions=num_partitions)
    return grouped_aggregate(
        joined, "o_orderpriority", {"revenue": "sum"}).map_batches(
            _round_columns(["revenue"]), batch_format="pyarrow")


def shipping_priority(customer_ds, orders_ds, lineitem_ds,
                      limit: int = 10,
                      num_partitions: int = JOIN_PARTITIONS
                      ) -> pa.Table:
    """TPC-H Q3-flavored shipping priority: unshipped revenue per order
    for one market segment — top ``limit`` orders by revenue. The
    segment / o_orderdate < cutoff / l_shipdate > cutoff predicates are
    the CALLER's read-time filters (pushed down to the parquet scan so
    filtered rows never leave storage — see ``_q_shipping_priority``).
    Pipeline: lineitem pre-aggregates integer CENTS per orderkey inside
    map_batches (exchange shrinks to unique orderkeys per batch; cents
    make the sum order-free so it can't diverge from a SQL twin),
    orders LEFT-SEMI joins the filtered customer keys, then one
    large×large hash join + a per-order cents ``grouped_aggregate``.
    Result is ``limit`` rows — driver-side take is bounded."""

    def li_partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.multiply(batch["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), batch["l_discount"])),
            100.0), 0.5)), pa.int64())
        t = pa.table({"l_orderkey": batch["l_orderkey"], "cents": cents})
        return (t.group_by(["l_orderkey"]).aggregate([("cents", "sum")])
                 .rename_columns(["l_orderkey", "cents"]))

    li = lineitem_ds.map_batches(li_partial, batch_format="pyarrow")
    cust = customer_ds.map_batches(
        lambda b: pa.table({"c_custkey": b["c_custkey"]}),
        batch_format="pyarrow")
    seg_orders = hash_join(
        orders_ds, cust, on="o_custkey", right_on="c_custkey",
        join_type="left semi", num_partitions=num_partitions,
        left_schema=[("o_orderkey", pa.int64()),
                     ("o_custkey", pa.int64()),
                     ("o_orderdate", pa.timestamp("us")),
                     ("o_orderpriority", pa.string())])
    joined = hash_join(
        seg_orders, li, on="o_orderkey", right_on="l_orderkey",
        num_partitions=num_partitions,
        left_schema=[("o_orderkey", pa.int64()),
                     ("o_custkey", pa.int64()),
                     ("o_orderdate", pa.timestamp("us")),
                     ("o_orderpriority", pa.string())])

    def revenue(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "revenue": pc.divide(pc.cast(batch["cents"], pa.float64()),
                                 100.0),
            "o_orderdate": pc.cast(batch["o_orderdate"], pa.timestamp("us")),
            "o_orderpriority": batch["o_orderpriority"],
        })

    # o_orderdate and o_orderpriority are functions of o_orderkey, so
    # grouping by all three is grouping by the order
    per_order = grouped_aggregate(
        joined, ["o_orderkey", "o_orderdate", "o_orderpriority"],
        {"cents": "sum"}).map_batches(revenue, batch_format="pyarrow")
    top = per_order.sort(["revenue", "o_orderkey"],
                         descending=[True, False]).limit(limit)
    return pa.concat_tables(list(top.iter_batches(batch_format="pyarrow")))


def revenue_by_nation(customer_ds, orders_ds, lineitem_ds,
                      nation: pa.Table, region: pa.Table,
                      region_name: str = "ASIA",
                      num_partitions: int = JOIN_PARTITIONS
                      ) -> "ray.data.Dataset":
    """Revenue per customer nation within one region — a TPC-H-Q5-flavored
    multi-way join:

    - nation ⋈ region (25×5 rows) joins on the DRIVER (Acero), and the
      result joins customer through ``hash_join``, which broadcasts it
      — rows of other regions drop before any exchange;
    - orders ⋈ customer and lineitem ⋈ orders are ``hash_join``s too;
      lineitem revenue is pre-aggregated per orderkey inside
      map_batches before the join (distributive sum, ~4× fewer rows);
    - the final ``grouped_aggregate`` on n_name covers ≤ a handful of
      nations per region, rounded to 2 dp after the merge.
    """
    import ray.data

    dim = nation.join(region.filter(pc.equal(region["r_name"], region_name)),
                      keys=["n_regionkey"], right_keys=["r_regionkey"],
                      join_type="inner").select(["n_nationkey", "n_name"])
    cust = hash_join(customer_ds, ray.data.from_arrow(dim),
                     on="c_nationkey", right_on="n_nationkey")
    # left schemas passed explicitly: Dataset.schema() on a map-produced
    # side EXECUTES a limit-1 probe per call
    ord_cust = hash_join(orders_ds, cust,
                         on="o_custkey", right_on="c_custkey",
                         num_partitions=num_partitions,
                         left_schema=[("o_orderkey", pa.int64()),
                                      ("o_custkey", pa.int64())]
                         ).select_columns(["o_orderkey", "n_name"])

    def li_partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        t = pa.table({"l_orderkey": batch["l_orderkey"], "revenue": rev})
        return (t.group_by(["l_orderkey"]).aggregate([("revenue", "sum")])
                 .rename_columns(["l_orderkey", "revenue"]))

    li = lineitem_ds.map_batches(li_partial, batch_format="pyarrow")
    joined = hash_join(li, ord_cust, on="l_orderkey", right_on="o_orderkey",
                       num_partitions=num_partitions,
                       left_schema=[("l_orderkey", pa.int64()),
                                    ("revenue", pa.float64())])

    return grouped_aggregate(joined, "n_name", {"revenue": "sum"}).map_batches(
        _round_columns(["revenue"]), batch_format="pyarrow")


def top_revenue_orders(lineitem_ds, k: int = 100) -> "ray.data.Dataset":
    """Global top-k orders by lineitem revenue — the ORDER BY … LIMIT
    shape: one ``grouped_aggregate`` of revenue per orderkey, then Ray's
    distributed sample-based sort on (revenue DESC, orderkey ASC) with the
    limit pushed against the sorted stream. Revenue accumulates in integer
    CENTS (exact in any order — the ``running_totals`` discipline) so the
    value, and with the orderkey tie-break the top-k set, is a total order the
    SQL twin shares bit-for-bit.

    Scale note: the sort's input is one row per ORDER (already reduced),
    not per lineitem — at 100 TB the exchange is ~1% of the raw table;
    a top-k that skipped the per-key aggregate could instead per-batch
    prune, but revenue spans batches so the aggregate is required."""

    def li_cents(batch: pa.Table) -> pa.Table:
        # integer CENTS per lineitem (floor(x·100 + 0.5) = the SQL twin's
        # exact per-row expression): int64 partials sum exactly in any
        # accumulation order, where a float sum rounded at the end flips
        # half-cent boundaries depending on block split (seen at sf0.1)
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"])
                          ).to_numpy(zero_copy_only=False)
        cents = np.floor(rev * 100.0 + 0.5).astype(np.int64)
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "cents": pa.array(cents, pa.int64())})

    def to_revenue(batch: pa.Table) -> pa.Table:
        rev = pc.divide(pc.cast(batch["cents"], pa.float64()),
                        pa.scalar(100.0))
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "revenue": rev})

    return (grouped_aggregate(
                lineitem_ds.map_batches(li_cents, batch_format="pyarrow"),
                "l_orderkey", {"cents": "sum"})
            .map_batches(to_revenue, batch_format="pyarrow")
            .sort(["revenue", "l_orderkey"], descending=[True, False])
            .limit(k))


def _event_cents(batch: pa.Table) -> pa.Table:
    """``event_id``, ``user_id``, ``ts_us`` and ``cents`` =
    ``floor(value·100)`` as int64 (a null value counts 0) of events."""
    return pa.table({
        "event_id": batch["event_id"],
        "user_id": batch["user_id"],
        "ts_us": pc.cast(batch["ts"], pa.int64()),
        "cents": pc.cast(pc.floor(pc.multiply(
            pc.coalesce(batch["value"], pa.scalar(0.0)),
            pa.scalar(100.0))), pa.int64()),
    })


def running_totals(ds) -> "ray.data.Dataset":
    """Cumulative window functions over events: per ``user_id`` ordered by
    ``(ts, event_id)``, running row number, running sum of ``value`` in
    integer cents, and the inter-event gap in microseconds (a LAG twin).

    The running sum is computed on ``floor(value·100)`` as int64 — exact
    integer arithmetic, so the result is independent of accumulation
    order (a float ``SUM(...) OVER`` could diverge from the oracle when
    the engine sums a frame in a different order). One
    ``partitioned_sweep`` over ``user_id``: each user's running sum is
    the partition cumsum minus its value before the user's first row.
    Null ``user_id`` rows are one user, as in SQL's ``PARTITION BY``.

    SQL twin: ``ROW_NUMBER() / SUM(cents) OVER (PARTITION BY user_id
    ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)`` and
    ``epoch_us(ts) - LAG(epoch_us(ts)) OVER ...``."""

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        idx = np.arange(len(ts))
        first = _run_start(starts, len(ts))
        cum = np.cumsum(cents)
        gap = np.zeros(len(ts), dtype=np.int64)
        gap[1:] = np.diff(ts)
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "rn": pa.array(idx - first + 1, pa.int64()),
            "cum_cents": pa.array(cum - (cum - cents)[first], pa.int64()),
            "gap_us": pa.array(gap, pa.int64(), mask=first == idx),
        })

    return partitioned_sweep(
        ds.map_batches(_event_cents, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"], sweep)


def rolling_event_stats(ds, window: int = 7) -> "ray.data.Dataset":
    """Bounded ROWS-frame window aggregates over events: per ``user_id``
    ordered by ``(ts, event_id)``, the rolling sum and rolling mean of
    ``value`` over the last ``window`` rows (``ROWS BETWEEN window-1
    PRECEDING AND CURRENT ROW``) — the moving-average shape
    ``running_totals``'s unbounded frame doesn't cover.

    Same exactness discipline as ``running_totals``: the frame sum is
    ``floor(value·100)`` int64 cents via a cumsum difference (exact in
    any accumulation order); the mean is then ONE float64 division
    ``cents / (100·count)`` that the SQL twin reproduces bit-for-bit.
    Rows with null ``ts`` are dropped on both sides (a null sort key has
    no well-defined frame). One ``partitioned_sweep`` over ``user_id``:
    a frame starts ``window-1`` rows back, clipped to the user's first
    row. Null ``user_id`` rows are one user.

    SQL twin: ``SUM(cents) OVER w`` / ``COUNT(*) OVER w`` with
    ``w AS (PARTITION BY user_id ORDER BY ts, event_id
    ROWS BETWEEN {window-1} PRECEDING AND CURRENT ROW)``."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    def prefilter(batch: pa.Table) -> pa.Table:
        return _event_cents(batch.filter(pc.is_valid(batch["ts"])))

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        cents = g["cents"].to_numpy(zero_copy_only=False)
        idx = np.arange(len(cents))
        lo = np.maximum(idx - (window - 1), _run_start(starts, len(cents)))
        cum = np.cumsum(cents)
        roll = cum - (cum - cents)[lo]
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "roll_cents": pa.array(roll, pa.int64()),
            "roll_avg": pa.array(
                roll.astype(np.float64) / (100.0 * (idx - lo + 1)),
                pa.float64()),
        })

    return partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                             "user_id", ["ts_us", "event_id"], sweep)


def weighted_avg_by_group(ds, group_column: str, value_column: str,
                          weight_column: str,
                          alias: str = "w_avg") -> "ray.data.Dataset":
    """Weighted mean per group — SUM(value·weight)/SUM(weight) — with the
    ``running_totals`` exactness discipline: value in floor(x·100+0.5)
    integer cents, weights cast int64 (the safe Arrow cast REJECTS
    non-integral weights instead of silently truncating), so both sums
    are exact in any accumulation order; the quotient is ONE mirrored
    float64 expression ``cents_sum / (100·weight_sum)``. Per-batch
    partials shrink the exchange to one row per (batch, group); zero- or
    null-weight rows contribute nothing. int64 partials hold to ~2^63 —
    beyond that (≳10^14 rows × 5e8/row) swap the Sum for a decimal128
    aggregate; the expression stays the same.

    SQL twin: ``CAST(CAST(SUM(cents·w) AS BIGINT) AS DOUBLE)
    / (100.0 * CAST(SUM(w) AS BIGINT)) GROUP BY group``."""

    def rows(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(batch[value_column]),
                       pc.is_valid(batch[weight_column]))
        batch = batch.filter(mask)
        cents = pc.cast(pc.floor(pc.add(
            pc.multiply(batch[value_column], pa.scalar(100.0)),
            pa.scalar(0.5))), pa.int64())
        w = pc.cast(batch[weight_column], pa.int64())  # safe: raises if lossy
        return pa.table({
            "grp": batch[group_column],
            "cw": pc.multiply(cents, w),
            "w": w,
        })

    def finish(batch: pa.Table) -> pa.Table:
        num = batch["cw"].to_numpy(zero_copy_only=False).astype(np.float64)
        den = batch["w"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            group_column: batch["grp"],
            alias: pa.array(num / (100.0 * den), pa.float64()),
        })

    return grouped_aggregate(ds.map_batches(rows, batch_format="pyarrow"),
                             "grp", {"cw": "sum", "w": "sum"}
                             ).map_batches(finish, batch_format="pyarrow")


def distinct_count(ds, group_column: str, value_column: str,
                   alias: str = "n_distinct") -> "ray.data.Dataset":
    """COUNT(DISTINCT value) per group. Per-batch partial dedupe (arrow
    ``group_by`` on the pair) shrinks the exchange to unique pairs per
    batch, then ONE ``keyed_exchange`` on the group and one Arrow
    ``count_distinct`` per partition. A skewed group carries only its
    distinct values, not its rows. Null values are not counted; a null
    group is one group, as in SQL."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"grp": batch[group_column], "val": batch[value_column]})
        t = t.filter(pc.is_valid(t["val"]))  # COUNT(DISTINCT) ignores NULLs
        return (t.group_by(["grp", "val"]).aggregate([])
                 .rename_columns(["grp", "val"]))

    def count(g: pa.Table) -> pa.Table:
        return (g.group_by("grp", use_threads=False)
                 .aggregate([("val", "count_distinct")])
                 .rename_columns([group_column, alias]))

    return keyed_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                          "grp", count)


def latest_event_per_user(ds) -> "ray.data.Dataset":
    """Latest event per user (argmax-per-group / DISTINCT ON): the
    ``grouped_topk`` row with ``k=1`` under (ts, event_id) descending —
    the dedup-to-canonical-row primitive (keep newest version of a
    document, last state of a session). Null users are dropped, as the
    twin's WHERE does."""
    return grouped_topk(
        ds.map_batches(lambda b: b.filter(pc.is_valid(b["user_id"])),
                       batch_format="pyarrow"),
        "user_id", [("ts", "descending"), ("event_id", "descending")], 1)


def melt(ds, id_cols: list[str], value_cols: list[str],
         var_name: str = "metric", value_name: str = "value"
         ) -> "ray.data.Dataset":
    """Unpivot wide → long (pandas ``melt`` / SQL UNION ALL): each input
    row becomes ``len(value_cols)`` rows (id_cols…, metric, value).
    Stateless vectorized map — one column concat + tiled name column per
    batch, no shuffle, streams at any scale."""

    def unpivot(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: pa.concat_arrays(
                    [batch[c].combine_chunks()] * len(value_cols))
                for c in id_cols}
        cols[var_name] = pa.array(
            np.repeat(np.asarray(value_cols, dtype=object), n), pa.string())
        cols[value_name] = pa.concat_arrays(
            [pc.cast(batch[c], pa.float64()).combine_chunks()
             for c in value_cols])
        return pa.table(cols)

    return ds.map_batches(unpivot, batch_format="pyarrow")


def set_op_ids(left_ds, right_ds, column: str, op: str = "intersect"
               ) -> "ray.data.Dataset":
    """Distributed INTERSECT / EXCEPT over one key column (set
    semantics).  Null keys are DROPPED — note this diverges from SQL
    set ops, where INTERSECT/EXCEPT compare NULLs as equal (IS NOT
    DISTINCT FROM) and may emit one NULL row; callers whose key column
    can be null and who need SQL semantics must pre-map null to a
    sentinel.  Per-batch dedupe shrinks each side to unique keys per
    batch, then ONE ``grouped_aggregate`` on the key takes the min and
    max of the side flag (1 = left, 2 = right): intersect keeps (1, 2), except
    keeps (1, 1). The exchange carries unique (batch, key) rows, never
    the raw row count."""
    if op not in ("intersect", "except"):
        raise ValueError(op)

    def tag(flag: int):
        def fn(batch: pa.Table) -> pa.Table:
            vals = pc.unique(batch[column]).drop_null()
            side = pa.array(np.full(len(vals), flag), pa.int64())
            return pa.table({column: vals, "lo": side, "hi": side})
        return fn

    want_hi = 2 if op == "intersect" else 1

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(batch["lo"], 1),
                       pc.equal(batch["hi"], want_hi))
        return batch.filter(mask).select([column])

    tagged = (left_ds.map_batches(tag(1), batch_format="pyarrow")
              .union(right_ds.map_batches(tag(2), batch_format="pyarrow")))
    return grouped_aggregate(tagged, column, {"lo": "min", "hi": "max"}
                             ).map_batches(keep, batch_format="pyarrow")


def forecast_revenue_q6(lineitem_ds) -> pa.Table:
    """TPC-H Q6-flavored filtered global aggregate: revenue =
    Σ extendedprice·discount over the predicate window. The date /
    discount / quantity predicates are the CALLER's read-time filters
    (pushed down to the parquet scan); this stage is one vectorized
    per-batch integer-CENTS partial plus a one-row global sum — the
    cheapest possible shape: no shuffle, a scalar leaves each batch."""

    def partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            batch["l_extendedprice"], batch["l_discount"]),
            100.0), 0.5)), pa.int64())
        return pa.table({
            "cents": pa.array([pc.sum(cents).as_py() or 0], pa.int64()),
        })

    from ray.data.aggregate import Sum
    rows = (lineitem_ds.map_batches(partial, batch_format="pyarrow")
            .aggregate(Sum("cents", alias_name="cents")))
    total = rows["cents"] if rows and rows["cents"] is not None else 0
    return pa.table({"revenue": pa.array([total / 100.0], pa.float64())})


def grouped_covariance(ds, group_column: str, x_column: str,
                       y_column: str) -> "ray.data.Dataset":
    """Population covariance and Pearson correlation per group with an
    EXACT distributed core: x and y are floored to integers per row, so
    the per-batch partials (n, Σx, Σy, Σxy, Σx², Σy²) are exact int64
    sums, merged per group by one ``partitioned_sweep`` on the group,
    and the only float operations are the final conversions, one
    multiply, one sqrt and one divide — each IEEE-correctly-rounded and
    expression-mirrored by the SQL twin, so the result is bit-identical.
    The exchange carries six integers per (batch, group); a null group
    is one group, as in SQL. Caller must keep n·max(x)·max(y) within
    int64 per BATCH (the merge sums a group's partials as
    arbitrary-precision Python ints, so only batch partials are
    bounded)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"grp": batch[group_column],
                      "x": pc.cast(pc.floor(pc.cast(batch[x_column],
                                                    pa.float64())),
                                   pa.int64()),
                      "y": pc.cast(pc.floor(pc.cast(batch[y_column],
                                                    pa.float64())),
                                   pa.int64())})
        t = t.filter(pc.and_(pc.is_valid(t["x"]), pc.is_valid(t["y"])))
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        t = t.append_column("xy", pa.array(x * y, pa.int64()))
        t = t.append_column("xx", pa.array(x * x, pa.int64()))
        t = t.append_column("yy", pa.array(y * y, pa.int64()))
        t = t.append_column("n", pa.array(np.ones(len(x), np.int64)))
        return (t.group_by(["grp"])
                 .aggregate([("n", "sum"), ("x", "sum"), ("y", "sum"),
                             ("xy", "sum"), ("xx", "sum"), ("yy", "sum")])
                 .rename_columns(["grp", "n", "sx", "sy", "sxy", "sxx",
                                  "syy"]))

    def finish(g: pa.Table, starts: np.ndarray) -> pa.Table:
        # exact big-int algebra (Python ints in object arrays), float only
        # at the end — mirrored 1:1 by the twin's HUGEINT → DOUBLE
        n, sx, sy, sxy, sxx, syy = (
            np.add.reduceat(np.array(g[c].to_pylist(), object), starts)
            for c in ("n", "sx", "sy", "sxy", "sxx", "syy"))
        num = (n * sxy - sx * sy).astype(np.float64)
        denom = np.sqrt((n * sxx - sx * sx).astype(np.float64)
                        * (n * syy - sy * sy).astype(np.float64))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = num / denom
        return pa.table({
            group_column: g["grp"].take(starts),
            "n_rows": pa.array(n.astype(np.int64), pa.int64()),
            "cov": pa.array(num / (n * n).astype(np.float64), pa.float64()),
            "corr": pa.array(corr, pa.float64(), mask=denom == 0),
        })

    return partitioned_sweep(ds.map_batches(partial, batch_format="pyarrow"),
                             "grp", [], finish)


def resample_daily_counts(ds) -> pa.Table:
    """Daily event counts per type with GAP FILL: a dense
    (day × event_type) grid zero-filled where no events landed — the
    resample primitive time-series consumers expect. One pre-combined
    count exchange (one row per (batch, day, type)); the dense grid is
    built driver-side from the aggregated counts (bounded by
    days × types, never row-scaled)."""
    _DAY = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        # filter null ts BEFORE the numpy conversion: a null slot would
        # turn the int64 array float64-with-NaN and crash the re-cast
        batch = batch.filter(pc.and_(pc.is_valid(batch["ts"]),
                                     pc.is_valid(batch["event_type"])))
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "day": pa.array((ts // _DAY) * _DAY, pa.int64()),
            "event_type": batch["event_type"],
        })

    rows = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["day", "event_type"], {"n": "count"}).take_all()  # days × types
    if not rows:
        return pa.table({"day": pa.array([], pa.timestamp("us")),
                         "event_type": pa.array([], pa.string()),
                         "n_events": pa.array([], pa.int64())})
    counts = {(r["day"], r["event_type"]): r["n"] for r in rows}
    days = np.arange(min(d for d, _ in counts),
                     max(d for d, _ in counts) + _DAY, _DAY)
    types = sorted({t for _, t in counts})
    grid_days = np.repeat(days, len(types))
    grid_types = types * len(days)
    n = [counts.get((int(d), t), 0)
         for d, t in zip(grid_days, grid_types)]
    return pa.table({
        "day": pa.array(grid_days, pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array(grid_types, pa.string()),
        "n_events": pa.array(n, pa.int64()),
    })


def mode_per_group(ds, group_column: str, value_column: str
                   ) -> "ray.data.Dataset":
    """Most frequent value per group (mode), ties → smallest value —
    deterministic, SQL-twin-exact. One ``grouped_aggregate`` counts each
    (group, value); ``grouped_topk`` with ``k=1`` takes the argmax
    (its input is one row per distinct (group, value), never raw
    rows)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"grp": batch[group_column],
                      "val": batch[value_column]})
        return t.filter(pc.and_(pc.is_valid(t["grp"]),
                                pc.is_valid(t["val"])))

    pair_counts = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["grp", "val"],
        {"cnt": "count"})
    top = grouped_topk(pair_counts, "grp", [("cnt", "descending"), "val"], 1)
    return top.map_batches(
        lambda b: pa.table({group_column: b["grp"], "mode_value": b["val"],
                            "mode_count": b["cnt"]}),
        batch_format="pyarrow")


def _cents_by_group(ds, group_cols: list[str], value_column: str
                    ) -> pa.Table:
    """The finest level of ``rollup_agg`` and ``cube_agg``: int64
    ``sum_cents`` of ``floor(value·100 + 0.5)`` and ``n_rows`` per
    string ``group_cols``, one ``grouped_aggregate`` collected on the
    driver (bounded by group cardinality, never the input)."""

    def cents(batch: pa.Table) -> pa.Table:
        return batch.select(group_cols).append_column(
            "sum_cents", pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(batch[value_column], pa.float64()), 100.0), 0.5)),
                pa.int64()))

    rows = grouped_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"), group_cols,
        {"sum_cents": "sum", "n_rows": "count"}).take_all()
    return pa.table({
        **{c: pa.array([r[c] for r in rows], pa.string())
           for c in group_cols},
        "sum_cents": pa.array([r["sum_cents"] for r in rows], pa.int64()),
        "n_rows": pa.array([r["n_rows"] for r in rows], pa.int64()),
    })


def _grouping_set(base: pa.Table, group_cols: list[str], keep: list[str]
                  ) -> pa.Table:
    """One level of a ROLLUP / CUBE: ``base``'s sums re-grouped by
    ``keep``, the other ``group_cols`` NULL."""
    agg = (base.group_by(keep)
               .aggregate([("sum_cents", "sum"), ("n_rows", "sum")])
           if keep else pa.table({
               "sum_cents_sum": pa.array(
                   [pc.sum(base["sum_cents"]).as_py() or 0], pa.int64()),
               "n_rows_sum": pa.array(
                   [pc.sum(base["n_rows"]).as_py() or 0], pa.int64()),
           }))
    cols = {c: (agg[c] if c in keep
                else pa.nulls(agg.num_rows, pa.string()))
            for c in group_cols}
    cols["sum_cents"] = agg["sum_cents_sum"]
    cols["n_rows"] = agg["n_rows_sum"]
    return pa.table(cols)


def rollup_agg(ds, group_cols: list[str], value_column: str):
    """GROUP BY ROLLUP(``group_cols``): every prefix level of the
    hierarchy plus the grand total, as one table with NULLs marking
    rolled-up columns — ``sum_cents`` (int64 cents, so accumulation
    order can't diverge from a SQL twin) and ``n_rows``.

    Dataflow: ONE ``grouped_aggregate`` at the FINEST level (the only
    data-sized work), then the coarser levels fold from the finest
    result on the driver."""
    base = _cents_by_group(ds, group_cols, value_column)
    return pa.concat_tables([base] + [
        _grouping_set(base, group_cols, group_cols[:lvl])
        for lvl in range(len(group_cols) - 1, -1, -1)])


def pivot_counts(ds, group_column: str, pivot_column: str,
                 categories: list[str]):
    """Long→wide conditional-count pivot: one output row per
    ``group_column`` value with an ``n_<category>`` int64 column per
    category (unlisted categories are ignored). Each row carries a 0/1
    indicator per category and one ``grouped_aggregate`` sums them; the
    exchange carries one row per (batch, group), never the events."""

    def indicators(batch: pa.Table) -> pa.Table:
        cols = {group_column: batch[group_column]}
        for c in categories:
            cols[f"n_{c}"] = pc.cast(pc.fill_null(
                pc.equal(batch[pivot_column], c), False), pa.int64())
        return pa.table(cols)

    return grouped_aggregate(
        ds.map_batches(indicators, batch_format="pyarrow"), group_column,
        {f"n_{c}": "sum" for c in categories})


def value_histogram(ds, column: str, width: float):
    """Fixed-width histogram: ``bin = floor(value / width)`` (int64) →
    count, one ``grouped_aggregate``."""

    def bins(batch: pa.Table) -> pa.Table:
        return pa.table({"bin": pc.cast(pc.floor(pc.divide(
            pc.cast(batch[column], pa.float64()), float(width))),
            pa.int64())})

    return grouped_aggregate(ds.map_batches(bins, batch_format="pyarrow"),
                             "bin", {"n": "count"})


def funnel_conversion(ds, from_type: str, to_type: str,
                      within_us: int = 7 * 86_400_000_000):
    """Funnel step: for every ``from_type`` event, did the same user
    fire a ``to_type`` event in ``(ts, ts + within_us]``? One row per
    from-event with a ``converted`` flag — the per-event form that both
    feeds a global rate and joins back to cohorts.

    Same dataflow as the as-of join (a ``partitioned_sweep`` over
    ``user_id``). The window probe is two searchsorted calls over
    (user, ts) keys packed into one int64: the user's first-row index
    times the number of distinct probe times, plus the time's rank. A
    null ``user_id`` matches nothing (SQL's ``=``): never converted."""

    def probe(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        first = _run_start(starts, len(ts))
        src = np.flatnonzero(pc.equal(g["event_type"], from_type).to_numpy(
            zero_copy_only=False))
        dst = np.flatnonzero(pc.equal(g["event_type"], to_type).to_numpy(
            zero_copy_only=False))
        times = np.unique(np.concatenate([ts, ts[src] + within_us]))

        def key(pos: np.ndarray, t: np.ndarray) -> np.ndarray:
            return first[pos] * len(times) + np.searchsorted(times, t)

        dst_key = key(dst, ts[dst])
        lo = np.searchsorted(dst_key, key(src, ts[src]), side="right")
        hi = np.searchsorted(dst_key, key(src, ts[src] + within_us),
                             side="right")
        keyed = pc.is_valid(g["user_id"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": g["event_id"].take(src),
            "user_id": g["user_id"].take(src),
            "converted": pa.array((hi > lo) & keyed[src], pa.bool_()),
        })

    def prefilter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(
            batch["event_type"],
            value_set=pa.array([from_type, to_type])))

    return partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                             "user_id", ["ts", "event_id"], probe)


def cube_agg(ds, group_cols: list[str], value_column: str):
    """GROUP BY CUBE(``group_cols``): every SUBSET of the grouping
    columns (rollup's prefix lattice → the full lattice). Same dataflow
    as ``rollup_agg``: one distributed finest-level aggregate, the other
    2^k − 1 levels folded from its group-cardinality-bounded result."""
    import itertools

    base = _cents_by_group(ds, group_cols, value_column)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(group_cols, k)
        for k in range(len(group_cols)))
    return pa.concat_tables([base] + [
        _grouping_set(base, group_cols, list(keep)) for keep in subsets])


def grouped_moments(ds, group_column: str, value_column: str,
                    scale: int = 1000):
    """Per-group mean and population variance via streaming (n, Σx, Σx²)
    partials — the one-pass moments shape every aggregation engine
    ships. Values are fixed-point scaled (``floor(v·scale + 0.5)``
    int64) before accumulation, so the partial sums are EXACT integers
    and the final float64 expressions ``mean = (Σx/n)/scale`` and
    ``var = (Σx²/n − (Σx/n)²)/scale²`` are bit-identical to a SQL twin
    computing the same expressions from the same integers — accumulation
    order can never diverge."""

    def scaled(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(batch[value_column], pa.float64()), float(scale)),
            0.5)), pa.int64())
        return pa.table({group_column: batch[group_column], "sx": v,
                         "sxx": pc.multiply(v, v)})

    def finish(batch: pa.Table) -> pa.Table:
        sx = batch["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = batch["sxx"].to_numpy(
            zero_copy_only=False).astype(np.float64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        mean_s = sx / n
        var_s = sxx / n - mean_s * mean_s
        return pa.table({
            group_column: batch[group_column],
            "n": pc.cast(batch["n"], pa.int64()),
            "mean_value": pa.array(mean_s / scale, pa.float64()),
            "var_value": pa.array(var_s / (scale * scale), pa.float64()),
        })

    return grouped_aggregate(
        ds.map_batches(scaled, batch_format="pyarrow"), group_column,
        {"sx": "sum", "sxx": "sum", "n": "count"}
    ).map_batches(finish, batch_format="pyarrow")


_WEEK_US = 7 * 86_400_000_000
_DAY_US = 86_400_000_000


def _week_start_us(ts_us: np.ndarray) -> np.ndarray:
    """Truncate epoch-µs timestamps to ISO week starts (Monday 00:00) —
    DuckDB's date_trunc('week', ts) for non-negative timestamps.
    1970-01-01 was a Thursday, so Monday-index = (days + 3) % 7."""
    days = ts_us // _DAY_US
    return (days - (days + 3) % 7) * _DAY_US


def cohort_retention(ds):
    """Cohort retention matrix: users grouped by the ISO week of their
    FIRST event; for each (cohort_week, week_offset) count the distinct users
    active that week. Two shuffles: one ``partitioned_sweep`` over ``user_id``
    ordered by ts — a user's cohort is the week of its first row, and a user's
    distinct offsets are the rows where the offset changes — emitting each
    user's distinct (cohort, offset) rows with no join, then one
    ``grouped_aggregate`` counting them. Null users are dropped, as the twin's
    ``JOIN f USING (user_id)`` drops them, and so are rows with a null ts."""

    def per_user(g: pa.Table, starts: np.ndarray) -> pa.Table:
        weeks = _week_start_us(pc.cast(g["ts"], pa.int64()).to_numpy(
            zero_copy_only=False))
        cohort = weeks[_run_start(starts, len(weeks))]
        offsets = (weeks - cohort) // _WEEK_US
        new = _changes(offsets, starts)
        return pa.table({"cohort_week": pa.array(cohort[new], pa.int64()),
                         "week_offset": pa.array(offsets[new], pa.int64())})

    def to_timestamp(batch: pa.Table) -> pa.Table:
        # the week start rides the exchange as int64 µs
        return batch.set_column(
            batch.schema.get_field_index("cohort_week"), "cohort_week",
            pc.cast(batch["cohort_week"], pa.timestamp("us")))

    valid = ds.map_batches(
        lambda b: b.filter(pc.and_(pc.is_valid(b["user_id"]),
                                   pc.is_valid(b["ts"]))),
        batch_format="pyarrow")
    return grouped_aggregate(
        partitioned_sweep(valid, "user_id", ["ts"], per_user),
        ["cohort_week", "week_offset"], {"n_users": "count"}
    ).map_batches(to_timestamp, batch_format="pyarrow")


def event_transitions(ds):
    """First-order transition counts over each user's time-ordered
    event stream: (from_type, to_type) → count — the Markov-matrix /
    path-analysis primitive. One ``partitioned_sweep`` over
    ``user_id`` ordered by (ts, event_id): every row that is not its
    user's last pairs with the next row; one ``grouped_aggregate``
    counts the pairs, a null ``from_type`` as one key. Pairs with a
    null ``to_type`` are dropped, as the twin's ``WHERE next_type IS
    NOT NULL`` does."""

    def per_user(g: pa.Table, starts: np.ndarray) -> pa.Table:
        types = g["event_type"].combine_chunks()
        n = len(types)
        has_next = np.ones(n, dtype=bool)
        has_next[starts[1:] - 1] = False
        has_next[n - 1:] = False
        src = np.flatnonzero(has_next)
        t = pa.table({"from_type": types.take(src),
                      "to_type": types.take(src + 1)})
        return t.filter(pc.is_valid(t["to_type"]))

    return grouped_aggregate(
        partitioned_sweep(ds, "user_id", ["ts", "event_id"], per_user),
        ["from_type", "to_type"], {"n": "count"})


def ntile_by_group(ds, group_column: str, order_column: str,
                   tiebreak_column: str, n: int = 4,
                   alias: str = "bucket") -> "ray.data.Dataset":
    """NTILE(n) OVER (PARTITION BY group ORDER BY order, tiebreak) —
    equal-frequency bucketing within each group, the standard recipe for
    stratified curriculum/quality tiers over a training corpus.

    SQL's NTILE rule: a partition of g rows gives the first ``g % n``
    tiles ``ceil(g/n)`` rows and the rest ``floor(g/n)``. One
    ``partitioned_sweep`` over the group ordered by (order, tiebreak);
    each row's rank and group size come from the run starts, and the
    tile is closed-form arithmetic on them — no Python loop over rows
    or groups. Null order/tiebreak/group rows are dropped up front
    (mirror with WHERE in the twin).

    SQL twin: ``NTILE(n) OVER (PARTITION BY grp ORDER BY ord, tie)``."""

    def prefilter(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch[group_column])
        for c in (order_column, tiebreak_column):
            keep = pc.and_(keep, pc.is_valid(batch[c]))
        return batch.filter(keep).select(
            [tiebreak_column, group_column, order_column])

    def assign(g: pa.Table, starts: np.ndarray) -> pa.Table:
        m = g.num_rows
        run = _run_id(starts, m)
        ranks = np.arange(m) - starts[run]
        base, rem = np.divmod(np.diff(np.append(starts, m))[run], n)
        split = rem * (base + 1)
        # ranks < split land in the first `rem` (base+1)-sized tiles;
        # the rest in base-sized tiles. maximum() guards the unused
        # branch when base == 0 (np.where evaluates both).
        buckets = np.where(
            ranks < split,
            ranks // (base + 1) + 1,
            (ranks - split) // np.maximum(base, 1) + rem + 1)
        out = g.select([tiebreak_column, group_column])
        return out.append_column(alias, pa.array(buckets, pa.int64()))

    return partitioned_sweep(
        ds.map_batches(prefilter, batch_format="pyarrow"), group_column,
        [order_column, tiebreak_column], assign)


def share_of_total(ds, group_column: str, value_column: str,
                   alias: str = "share") -> pa.Table:
    """Ratio-to-report: each group's share of the grand total —
    SUM(cents) per group / SUM over all groups. Exact int64 cents in
    ONE ``grouped_aggregate``; the grand total is folded on the driver over the
    aggregated result, which is bounded by group cardinality, not row
    count. Float64 appears only in the final division of two exactly
    representable integers (exact below 2^53 total cents ≈ $90T), so
    the twin is bit-identical.

    SQL twin: ``CAST(sum_cents AS DOUBLE) /
    CAST(SUM(sum_cents) OVER () AS DOUBLE)`` over the grouped CTE."""

    def cents(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[group_column]),
                                     pc.is_valid(batch[value_column])))
        return pa.table({"grp": batch[group_column],
                         "cents": pc.cast(pc.floor(pc.add(
                             pc.multiply(batch[value_column],
                                         pa.scalar(100.0)),
                             pa.scalar(0.5))), pa.int64())})

    rows = grouped_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"), "grp",
        {"cents": "sum"}).take_all()  # bounded by group cardinality
    grp = [r["grp"] for r in rows]
    cents = np.array([r["cents"] for r in rows], dtype=np.int64)
    total = float(cents.sum())
    return pa.table({
        group_column: pa.array(grp),
        "sum_cents": pa.array(cents, pa.int64()),
        alias: pa.array(cents.astype(np.float64) / total, pa.float64()),
    })


def collect_distinct_sorted(ds, group_column: str, value_column: str,
                            sep: str = ",", alias: str = "vals",
                            count_alias: str = "n_vals"
                            ) -> "ray.data.Dataset":
    """ARRAY_AGG(DISTINCT v ORDER BY v) per group, rendered as a
    separator-joined string plus the distinct count — the profile/
    feature-vector shape ("which event types has this user emitted").
    Per-batch distinct-pair partial shrinks the exchange to unique
    (group, value) pairs per batch; ONE ``partitioned_sweep`` over the
    group ordered by value keeps each run's first row per value and
    joins each group's values as one list. Values sort bytewise (Arrow
    string ordering == DuckDB's binary collation). Null groups/values
    dropped, as SQL aggregates do.

    SQL twin: ``string_agg(DISTINCT v, sep ORDER BY v)`` +
    ``COUNT(DISTINCT v)``."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"grp": batch[group_column],
                      "val": batch[value_column]})
        t = t.filter(pc.and_(pc.is_valid(t["grp"]), pc.is_valid(t["val"])))
        return (t.group_by(["grp", "val"]).aggregate([])
                 .rename_columns(["grp", "val"]))

    def fold(g: pa.Table, starts: np.ndarray) -> pa.Table:
        vals = g["val"].combine_chunks()
        keep = np.flatnonzero(_changes(
            vals.to_numpy(zero_copy_only=False), starts))
        offsets = np.append(np.searchsorted(keep, starts), len(keep))
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         vals.take(keep))
        return pa.table({
            group_column: g["grp"].take(starts),
            alias: pc.binary_join(lists, sep),
            count_alias: pa.array(np.diff(offsets), pa.int64()),
        })

    return partitioned_sweep(
        ds.map_batches(partial, batch_format="pyarrow"), "grp", ["val"],
        fold)


def dedup_consecutive(ds, group_column: str = "user_id",
                      order_columns: tuple[str, str] = ("ts", "event_id"),
                      value_column: str = "event_type"
                      ) -> "ray.data.Dataset":
    """Run-length dedup: within each group ordered by (ts, id), keep a
    row iff its value differs from the previous row's (first row always
    kept) — the streaming de-bounce used to strip repeated tool-call /
    retry turns from transcripts. Null values and keys are dropped up
    front (SQL's ``lag(v) <> v`` is NULL-poisoned otherwise; the twin
    mirrors with WHERE). One ``partitioned_sweep`` over the integer
    ``group_column``; one shifted compare per partition, original rows
    returned by filter() — no reconstruction.

    SQL twin: ``... WHERE prev IS NULL OR prev <> v`` over
    ``lag(v) OVER (PARTITION BY grp ORDER BY ts, id)``."""
    ts_col, id_col = order_columns
    cols = [id_col, group_column, ts_col, value_column]

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        vals = g[value_column].to_numpy(zero_copy_only=False)
        return g.filter(pa.array(_changes(vals, starts)))

    return partitioned_sweep(
        ds.map_batches(lambda b: b.select(cols).drop_null(),
                       batch_format="pyarrow"),
        group_column, list(order_columns), sweep)


def argmin_by_group(ds, group_column: str, order_column: str,
                    tiebreak_column: str) -> "ray.data.Dataset":
    """Deterministic ARG MIN per group: the row whose (order, tiebreak)
    pair is lexicographically smallest — SQL's ``ROW_NUMBER() OVER
    (PARTITION BY g ORDER BY v, id) = 1``, i.e. ``min_by`` with the tie
    pinned (DuckDB's bare ``min_by`` is tie-nondeterministic, so the
    twin uses the window form). ``grouped_topk`` with ``k=1``: one
    candidate row per (batch, group) reaches the exchange. No value
    arithmetic — the winning row's columns pass through byte-identical.
    Null keys/values dropped."""
    cols = [group_column, order_column, tiebreak_column]
    return grouped_topk(
        ds.map_batches(lambda b: b.select(cols).drop_null(),
                       batch_format="pyarrow"),
        group_column, [order_column, tiebreak_column], 1)


def cume_dist_by_group(ds, group_column: str, order_column: str,
                       id_column: str, alias: str = "cd"
                       ) -> "ray.data.Dataset":
    """CUME_DIST() OVER (PARTITION BY group ORDER BY value): fraction of
    the partition's rows with value <= this row's (ties share the
    fraction). One ``partitioned_sweep`` over the group ordered by
    value: a row's rank is that of the last row with its (group, value)
    — no loop over rows or groups. The result is one IEEE division of
    two integers below 2^53, so it is bit-identical to the twin. Null
    keys/values dropped both sides."""

    def prefilter(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch[group_column])
        for c in (order_column, id_column):
            keep = pc.and_(keep, pc.is_valid(batch[c]))
        return batch.filter(keep).select(
            [id_column, group_column, order_column])

    def rank(g: pa.Table, starts: np.ndarray) -> pa.Table:
        m = g.num_rows
        run = _run_id(starts, m)
        # a (group, value) tie starts at a group start or a value run's
        # start; run-end encoding puts NaNs in one run, as SQL ties them
        brk = np.zeros(m, dtype=bool)
        brk[starts] = True
        brk[pc.run_end_encode(g[order_column].combine_chunks())
            .run_ends.to_numpy()[:-1]] = True
        # one past the last row of each row's tie
        end = np.append(np.flatnonzero(brk)[1:], m)[np.cumsum(brk) - 1]
        cd = ((end - starts[run]).astype(np.float64)
              / np.diff(np.append(starts, m))[run])
        return pa.table({
            id_column: g[id_column],
            group_column: g[group_column],
            alias: pa.array(cd, pa.float64()),
        })

    return partitioned_sweep(
        ds.map_batches(prefilter, batch_format="pyarrow"), group_column,
        [order_column], rank)


def event_kgrams(ds, k: int = 3, min_count: int = 2,
                 group_column: str = "user_id",
                 order_columns: tuple[str, str] = ("ts", "event_id"),
                 value_column: str = "event_type"
                 ) -> "ray.data.Dataset":
    """Behavioral sequence mining: count each length-``k`` run of
    consecutive event types within a user's (ts, id)-ordered stream —
    the "what do users do next" n-gram table that feeds next-action
    models and funnel discovery. Windows never cross users.

    One ``partitioned_sweep`` over the user ordered by (ts, id); a gram
    starts at every row whose ``k - 1`` successors belong to the same
    user, and ``k`` shifted slices join it (no Python loop over events).
    One ``grouped_aggregate`` counts the grams; its per-batch partial
    bounds the second exchange by the gram vocabulary — at most
    |event_types|^k distinct rows per batch — never by events.
    Null values/keys are dropped up front (the SQL twin's WHERE; grams
    are over the surviving sequence, matching ``lag`` over the filtered
    stream). Grams with global count < ``min_count`` are dropped.

    SQL twin: compose ``lag(v, k-1) || '>' || ... || v`` over
    ``PARTITION BY grp ORDER BY ts, id`` on the null-filtered stream,
    then GROUP BY having count >= min_count."""
    cols = [order_columns[1], group_column, order_columns[0], value_column]

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        run = _run_id(starts, g.num_rows)
        n = max(g.num_rows - k + 1, 0)
        first = np.flatnonzero(run[:n] == run[k - 1:])
        vals = g[value_column].combine_chunks()
        return pa.table({"gram": pc.binary_join_element_wise(
            *[vals.take(first + j) for j in range(k)], ">")})

    counts = grouped_aggregate(partitioned_sweep(
        ds.map_batches(lambda b: b.select(cols).drop_null(),
                       batch_format="pyarrow"),
        group_column, list(order_columns), sweep), "gram", {"n": "count"})
    return counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b["n"], min_count)),
        batch_format="pyarrow")


def merge_intervals_by_group(ds, group_column: str = "user_id",
                             start_column: str = "s",
                             end_column: str = "e"
                             ) -> "ray.data.Dataset":
    """Interval union per group (gaps-and-islands): merge overlapping or
    touching [s, e] intervals within each group and report how many
    merged islands remain plus the total covered span — the activity-
    coverage primitive behind "hours of audio after overlap removal" /
    "distinct busy time per user" rollups.

    One ``partitioned_sweep`` over the group ordered by (s, e); the
    sweep is fully vectorized: a running max of ends within each group
    (``_run_cummax``), an island starts at a group's first interval and
    wherever s exceeds the previous running max (touching intervals
    s == prev_max MERGE, matching the twin's ``s > prev_max`` island
    test), each island ends at the running max of its last row, and
    ``reduceat`` sums island spans per group. Integer microseconds in,
    int64 out — hash-exact against the classic MAX() OVER (... ROWS ...
    1 PRECEDING) gaps-and-islands SQL.

    Rows with a null key or endpoint are dropped up front (the twin's
    WHERE); intervals with e < s are kept as zero-length points at s
    (twin mirrors with greatest(e, s))."""

    def prefilter(batch: pa.Table) -> pa.Table:
        batch = batch.select(
            [group_column, start_column, end_column]).drop_null()
        s = pc.cast(batch[start_column], pa.int64())
        e = pc.max_element_wise(pc.cast(batch[end_column], pa.int64()), s)
        return pa.table({"grp": batch[group_column], "s": s, "e": e})

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        s = g["s"].to_numpy(zero_copy_only=False)
        run_max = _run_cummax(g["e"].to_numpy(zero_copy_only=False), starts)
        new_island = np.zeros(len(s), dtype=bool)
        new_island[1:] = s[1:] > run_max[:-1]
        new_island[starts] = True
        first = np.flatnonzero(new_island)
        last = np.append(first[1:], len(s)) - 1
        per_group = np.searchsorted(first, starts)
        return pa.table({
            group_column: g["grp"].take(starts),
            "n_intervals": pa.array(
                np.diff(np.append(per_group, len(first))), pa.int64()),
            "covered": pa.array(np.add.reduceat(
                run_max[last] - s[first], per_group), pa.int64()),
        })

    return partitioned_sweep(
        ds.map_batches(prefilter, batch_format="pyarrow"), "grp", ["s", "e"],
        sweep)


def late_orders_by_priority(orders_ds, lineitem_ds,
                            num_partitions: int = JOIN_PARTITIONS
                            ) -> "ray.data.Dataset":
    """Orders with at least one line shipped AFTER the order date,
    counted per priority — the correlated-EXISTS shape of TPC-H Q4
    (reference parity family: order_priority_revenue) rewritten as an
    aggregate: EXISTS(l_shipdate > o_orderdate) ⟺
    MAX(l_shipdate) > o_orderdate, so lineitem collapses to one
    (orderkey, max_ship) row BEFORE the join instead of probing per
    line. The exact per-order max is one ``grouped_aggregate`` (its
    per-batch partials shrink the exchange ~4×); one large×large hash
    join; the priority count is a second, tiny ``grouped_aggregate``.
    All comparisons are int64 microseconds — the SQL twin hashes
    exactly."""

    def ship_us(batch: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "max_ship": pc.cast(batch["l_shipdate"],
                                             pa.int64())})

    last_ship = grouped_aggregate(
        lineitem_ds.map_batches(ship_us, batch_format="pyarrow"),
        "l_orderkey", {"max_ship": "max"})
    joined = hash_join(
        orders_ds, last_ship, on="o_orderkey", right_on="l_orderkey",
        num_partitions=num_partitions,
        left_schema=[("o_orderkey", pa.int64()),
                     ("o_orderdate", pa.timestamp("us")),
                     ("o_orderpriority", pa.string())])

    def late(batch: pa.Table) -> pa.Table:
        return batch.select(["o_orderpriority"]).filter(pc.greater(
            batch["max_ship"], pc.cast(batch["o_orderdate"], pa.int64())))

    return grouped_aggregate(joined.map_batches(late, batch_format="pyarrow"),
                             "o_orderpriority", {"late_order_count": "count"})


def priority_counts_by_linestatus(orders_ds, lineitem_ds,
                                  num_partitions: int = JOIN_PARTITIONS
                                  ) -> "ray.data.Dataset":
    """TPC-H-Q12-flavored conditional aggregation: per line status, how
    many lineitems belong to high-priority (1-URGENT / 2-HIGH) orders
    vs everything else. Lineitem pre-aggregates (orderkey, linestatus)
    COUNT partials inside map_batches (count is distributive — partials
    need no reduce before the join), one large×large hash join carries
    the tiny count column, then CASE-WHEN columns fold in a 2-row
    ``grouped_aggregate``. All-integer, so the SQL twin's
    SUM(CASE WHEN ...) hashes exactly."""

    def li_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["l_orderkey", "l_linestatus"])
        return (t.group_by(["l_orderkey", "l_linestatus"])
                 .aggregate([([], "count_all")])
                 .rename_columns(["l_orderkey", "l_linestatus", "cnt"]))

    li = lineitem_ds.map_batches(li_partial, batch_format="pyarrow")
    joined = hash_join(
        orders_ds, li, on="o_orderkey", right_on="l_orderkey",
        num_partitions=num_partitions,
        left_schema=[("o_orderkey", pa.int64()),
                     ("o_orderpriority", pa.string())])

    def case_when(batch: pa.Table) -> pa.Table:
        hi = pc.is_in(batch["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        him = hi.to_numpy(zero_copy_only=False)
        return pa.table({
            "l_linestatus": batch["l_linestatus"],
            "high_line_count": pa.array(np.where(him, cnt, 0), pa.int64()),
            "low_line_count": pa.array(np.where(him, 0, cnt), pa.int64()),
        })

    return grouped_aggregate(
        joined.map_batches(case_when, batch_format="pyarrow"),
        "l_linestatus", {"high_line_count": "sum", "low_line_count": "sum"})


def longest_run_by_group(ds, group_column: str = "user_id",
                         order_columns: tuple[str, str] = ("ts", "event_id"),
                         value_column: str = "event_type"
                         ) -> "ray.data.Dataset":
    """Run-length profile per group: number of maximal same-value runs
    and the longest run length in each group's (ts, id)-ordered stream —
    the "is this user stuck in a retry loop / is this doc a repeated
    template" signal (the grouped cousin of ``repetition_stats``).

    One ``partitioned_sweep`` over the integer ``group_column``; the
    per-partition sweep is a vectorized run-length encode (shifted
    inequality + ``np.flatnonzero`` / ``np.diff``) and a
    ``np.maximum.reduceat`` over each group's runs, no Python loop.
    Null keys/values are dropped up front; runs are over the surviving
    sequence, matching the SQL twin's LAG over the filtered stream.
    Output is int64 — hash-exact against the gaps-and-islands twin."""
    ts_col, id_col = order_columns
    cols = [id_col, group_column, ts_col, value_column]

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        v = g[value_column].to_numpy(zero_copy_only=False)
        runs = np.flatnonzero(_changes(v, starts))
        run_lens = np.diff(np.append(runs, len(v)))
        group_runs = np.searchsorted(runs, starts)   # each group's 1st run
        return pa.table({
            group_column: g[group_column].take(starts),
            "n_runs": pa.array(np.diff(np.append(group_runs, len(runs))),
                               pa.int64()),
            "max_run": pa.array(np.maximum.reduceat(run_lens, group_runs),
                                pa.int64()),
        })

    return partitioned_sweep(
        ds.map_batches(lambda b: b.select(cols).drop_null(),
                       batch_format="pyarrow"),
        group_column, list(order_columns), sweep)


def rolling_active_users(ds, window_days: int = 7,
                         ts_column: str = "ts",
                         user_column: str = "user_id"
                         ) -> "ray.data.Dataset":
    """Trailing-window active users (the WAU/MAU curve): for every day
    that has at least one event, the count of DISTINCT users active in
    the ``window_days``-day window ending that day.

    A windowed COUNT(DISTINCT) doesn't decompose into partials, so the
    classic trick: collapse events to distinct (day, user) pairs per
    batch (day-cardinality-bounded, not event-bounded), EXPAND each
    pair to the ``window_days`` window days it contributes to (a
    bounded ×W fan-out of the tiny pair stream — W=7 here, never the
    raw events), then one ``keyed_exchange`` on the window day and one
    Arrow ``count_distinct`` per partition count unique users. A pair
    expanded with offset 0 marks its window day as a real event day;
    windows whose day saw no events are dropped in the same per-partition
    pass (no driver-side day list, no second pass).
    Day = floor(epoch_us / 86_400_000_000) as int64, matching the SQL
    twin's integer division."""
    US_PER_DAY = 86_400_000_000

    def expand(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch[ts_column]),
                                     pc.is_valid(batch[user_column])))
        day = (pc.cast(batch[ts_column], pa.int64()).to_numpy(
            zero_copy_only=False) // US_PER_DAY)
        user = batch[user_column].to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([day, user], axis=1), axis=0)
        if len(pairs) == 0:
            return pa.table({"wday": pa.array([], pa.int64()),
                             "user": pa.array([], pa.int64()),
                             "is_event_day": pa.array([], pa.bool_())})
        offs = np.arange(window_days, dtype=np.int64)
        wday = (pairs[:, 0][:, None] + offs[None, :]).ravel()
        user = np.repeat(pairs[:, 1], window_days)
        is_event_day = np.tile(offs == 0, len(pairs))
        t = pa.table({"wday": pa.array(wday, pa.int64()),
                      "user": pa.array(user, pa.int64()),
                      "is_event_day": pa.array(is_event_day)})
        # local distinct: different days' windows overlap, so the same
        # (wday, user) appears up to W times — fold before the exchange
        return (t.group_by(["wday", "user"])
                 .aggregate([("is_event_day", "max")])
                 .rename_columns(["wday", "user", "is_event_day"]))

    def count_windows(g: pa.Table) -> pa.Table:
        t = (g.group_by("wday", use_threads=False)
              .aggregate([("user", "count_distinct"), ("is_event_day", "any")])
              .rename_columns(["day", "active_users", "is_event_day"]))
        return t.filter(t["is_event_day"]).drop_columns(["is_event_day"])

    return keyed_exchange(ds.map_batches(expand, batch_format="pyarrow"),
                          "wday", count_windows)


def funnel_steps(ds, steps: tuple[str, ...] = ("signup", "view",
                                               "purchase")) -> pa.Table:
    """Multi-step sequential funnel: how many users reach each stage,
    where stage k requires an event of type ``steps[k]`` STRICTLY after
    the user's first-qualifying event of stage k-1 (the classic
    first-touch funnel — repeat purchases before the first view don't
    count). Generalizes ``funnel_conversion`` (one edge, per-event) to
    the N-stage per-user rollup.

    One ``partitioned_sweep`` over each user's step-typed events ordered
    by ts (non-step types are dropped at the scan side); the kernel
    loops over the ≤len(steps) stages, not over users: a stage's time
    per user is its first matching event after the previous stage's.
    Each partition emits its reached-depth histogram, so the driver
    sees at most (len(steps)+1) rows per partition, never per-user
    rows."""
    step_list = list(steps)

    def prefilter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(batch["event_type"],
                                value_set=pa.array(step_list)),
                       pc.and_(pc.is_valid(batch["user_id"]),
                               pc.is_valid(batch["ts"])))
        return pa.table({"user_id": batch["user_id"],
                         "ts": pc.cast(batch["ts"], pa.int64()),
                         "event_type": batch["event_type"]}).filter(keep)

    def per_user(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        run = _run_id(starts, len(ts))
        t = np.full(len(starts), np.iinfo(np.int64).min)
        alive = np.ones(len(starts), dtype=bool)
        reached = np.zeros(len(starts), dtype=np.int64)
        for step in step_list:
            has, t = _first_in_run((et == step) & (ts > t[run]), starts, ts)
            alive &= has
            reached += alive
        return pa.table({
            "reached": pa.array(np.arange(len(step_list) + 1), pa.int64()),
            "n": pa.array(np.bincount(reached, minlength=len(step_list) + 1),
                          pa.int64())})

    hist = partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                             "user_id", ["ts"], per_user)
    users_at = np.zeros(len(step_list) + 1, dtype=np.int64)
    for b in hist.iter_batches(batch_format="pyarrow"):  # none without steps
        np.add.at(users_at, b["reached"].to_numpy(zero_copy_only=False),
                  b["n"].to_numpy(zero_copy_only=False))
    n_users = np.cumsum(users_at[::-1])[::-1][1:]   # users reaching >= k
    return pa.table({
        "stage_idx": pa.array(range(1, len(step_list) + 1), pa.int64()),
        "stage": pa.array(step_list, pa.string()),
        "n_users": pa.array(n_users, pa.int64()),
    })


def event_type_cooccurrence(ds, ts_column: str = "ts",
                            user_column: str = "user_id",
                            value_column: str = "event_type"
                            ) -> "ray.data.Dataset":
    """Basket-style co-occurrence mining: for every unordered pair of
    event types, in how many (user, day) baskets do both occur — the
    association-rule support table ("users who error also purchase,
    same day") behind next-action and anomaly features.

    Per-batch distinct (user, day, type) triples bound the exchange by
    baskets × types, not events; one ``partitioned_sweep`` over the
    (user, day) key emits each basket's C(k,2) pairs (``_run_pairs``,
    k ≤ #event types — single digits); one ``grouped_aggregate``
    counts the pairs into a ~|types|²-row table. Day =
    floor(epoch_us / 86_400_000_000), matching the twin."""

    def emit_pairs(g: pa.Table, starts: np.ndarray) -> pa.Table:
        _, a, b = _run_pairs(g["etype"].combine_chunks(), starts)
        return pa.table({"type_a": a, "type_b": b})

    triples = _basket_triples(ts_column, user_column, value_column)
    return grouped_aggregate(
        partitioned_sweep(ds.map_batches(triples, batch_format="pyarrow"),
                          ["user", "day"], ["etype"], emit_pairs),
        ["type_a", "type_b"], {"support": "count"})


def _basket_triples(ts_column: str, user_column: str, value_column: str):
    """Per-batch distinct (user, day, etype) rows of non-null events —
    the (user, day) baskets of the co-occurrence ops."""
    US_PER_DAY = 86_400_000_000

    def triples(batch: pa.Table) -> pa.Table:
        batch = batch.select([ts_column, user_column, value_column]
                             ).drop_null()
        day = pc.divide(pc.cast(batch[ts_column], pa.int64()),
                        pa.scalar(US_PER_DAY, pa.int64()))
        t = pa.table({"user": batch[user_column], "day": day,
                      "etype": batch[value_column]})
        return (t.group_by(["user", "day", "etype"]).aggregate([])
                 .rename_columns(["user", "day", "etype"]))

    return triples


def revenue_by_brand(lineitem_ds, part_ds,
                     num_partitions: int = JOIN_PARTITIONS
                     ) -> "ray.data.Dataset":
    """Discounted revenue per part brand — the lineitem×part join
    family (every other join query here keys on orderkey/custkey;
    partkey exercises the third fact-to-dimension edge). Integer cents
    (floor(price·(1−disc)·100 + 0.5), the repo-wide recipe) partial-
    summed per partkey inside map_batches BEFORE the hash join, so the
    exchange carries one row per (batch, partkey); the brand rollup is
    a tiny 25-row ``grouped_aggregate``."""

    def li_partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.multiply(batch["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), batch["l_discount"])),
            100.0), 0.5)), pa.int64())
        t = pa.table({"l_partkey": batch["l_partkey"], "cents": cents,
                      "one": pa.array(np.ones(len(batch), np.int64))})
        return (t.group_by(["l_partkey"])
                 .aggregate([("cents", "sum"), ("one", "sum")])
                 .rename_columns(["l_partkey", "revenue_cents", "n_lines"]))

    li = lineitem_ds.map_batches(li_partial, batch_format="pyarrow")
    joined = hash_join(
        li, part_ds, on="l_partkey", right_on="p_partkey",
        num_partitions=num_partitions,
        left_schema=[("l_partkey", pa.int64()),
                     ("revenue_cents", pa.int64()),
                     ("n_lines", pa.int64())])

    return grouped_aggregate(joined, "p_brand",
                             {"revenue_cents": "sum", "n_lines": "sum"})


def supplier_revenue(lineitem_ds, supplier_table: pa.Table,
                     nation_table: pa.Table) -> "ray.data.Dataset":
    """Discounted revenue per supplier with nation enrichment — the
    TPC-H-Q15 revenue view over the one fact edge no other query here
    exercises (l_suppkey). Both dimensions join on the DRIVER (Acero:
    supplier ⋈ nation) and the result joins the per-suppkey cents
    ``grouped_aggregate`` through ``hash_join``, which broadcasts it
    while it fits — so the only fact-side exchange is
    supplier-cardinality-bounded partial sums. Integer cents, exact
    twin."""
    import ray.data

    dims = supplier_table.join(
        nation_table, keys=["s_nationkey"], right_keys=["n_nationkey"],
        join_type="inner").select(["s_suppkey", "s_name", "n_name"])

    def li_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_suppkey": batch["l_suppkey"],
            "revenue_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.multiply(batch["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0),
                                        batch["l_discount"])),
                100.0), 0.5)), pa.int64())})

    agg = grouped_aggregate(
        lineitem_ds.map_batches(li_cents, batch_format="pyarrow"),
        "l_suppkey", {"revenue_cents": "sum", "n_lines": "count"})

    def enrich(batch: pa.Table) -> pa.Table:
        return pa.table({
            "s_suppkey": batch["l_suppkey"],
            "s_name": batch["s_name"],
            "n_name": batch["n_name"],
            "revenue_cents": batch["revenue_cents"],
            "n_lines": batch["n_lines"],
        })

    return hash_join(agg, ray.data.from_arrow(dims), on="l_suppkey",
                     right_on="s_suppkey").map_batches(
                         enrich, batch_format="pyarrow")


def daily_event_deltas(ds) -> pa.Table:
    """Day-over-day change per event type: the dense gap-filled
    (day × type) grid of ``resample_daily_counts`` with each cell's
    delta vs the previous day — the trend/alerting view (a zero-filled
    gap day shows as a real drop, which is exactly what an alert
    should see). The distributed work is the same single pre-combined
    count exchange; the delta is a vectorized driver-side shift on the
    days × types grid (bounded, never row-scaled). First day per type
    has a NULL delta, matching the SQL twin's LAG."""
    grid = resample_daily_counts(ds)
    if grid.num_rows == 0:
        return grid.append_column("delta", pa.array([], pa.int64()))
    t = grid.to_pandas().sort_values(["event_type", "day"])
    n = t.n_events.to_numpy(dtype=np.int64)
    delta = n.astype(np.float64) - np.roll(n, 1)
    first = ~(t.event_type.to_numpy() == np.roll(t.event_type.to_numpy(), 1))
    first[0] = True     # np.roll wraps the last row onto the first
    delta_arr = pa.array(
        [None if f else int(d) for d, f in zip(delta, first)], pa.int64())
    return pa.table({
        "day": pa.array(t.day).cast(pa.timestamp("us")),
        "event_type": pa.array(t.event_type, pa.string()),
        "n_events": pa.array(n, pa.int64()),
        "delta": delta_arr,
    })


def hourly_top_event(ds) -> "ray.data.Dataset":
    """Windowed argmax: for every hour bucket, the most frequent event
    type (ties broken by lexicographically smallest type — the
    deterministic ROW_NUMBER rule, same policy as ``argmin_by_group``).
    One ``grouped_aggregate`` counts each (hour, type), then
    ``grouped_topk`` with ``k=1`` takes each hour's argmax."""
    _HOUR = 3_600_000_000

    def hours(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch["ts"]),
                                     pc.is_valid(batch["event_type"])))
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hour": pa.array(ts // _HOUR, pa.int64()),
                         "etype": batch["event_type"]})

    counts = grouped_aggregate(ds.map_batches(hours, batch_format="pyarrow"),
                               ["hour", "etype"], {"n": "count"})
    top = grouped_topk(counts, "hour", [("n", "descending"), "etype"], 1)
    return top.map_batches(
        lambda b: pa.table({"hour": b["hour"], "top_type": b["etype"],
                            "n": b["n"]}),
        batch_format="pyarrow")


def conversion_latency_quantiles(ds, from_type: str = "signup",
                                 to_type: str = "purchase") -> pa.Table:
    """Time-to-convert distribution: for every user who fires
    ``to_type`` strictly after their first ``from_type``, the latency
    (first qualifying pair, in WHOLE SECONDS), rolled up to count /
    median / p90 — the product-funnel health metric.

    Composition of the ``funnel_steps`` per-user sweep (one
    ``partitioned_sweep`` over the user ordered by ts; one
    ``grouped_aggregate`` counts each latency) with the exact value-count
    quantile fold of ``grouped_quantiles`` (the driver cumsum is bounded by
    DISTINCT latency values — the floor-to-seconds bin is what keeps that
    corpus-safe, mirroring the twin's integer division by 1_000_000).
    ``quantile_disc`` rank ceil(q·n)−1."""

    def prefilter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(batch["event_type"],
                                value_set=pa.array([from_type, to_type])),
                       pc.and_(pc.is_valid(batch["user_id"]),
                               pc.is_valid(batch["ts"])))
        return pa.table({"user_id": batch["user_id"],
                         "ts": pc.cast(batch["ts"], pa.int64()),
                         "event_type": batch["event_type"]}).filter(keep)

    def latency(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        has_src, t0 = _first_in_run(et == from_type, starts, ts)
        run = _run_id(starts, len(ts))
        has_dst, t1 = _first_in_run(
            (et == to_type) & has_src[run] & (ts > t0[run]), starts, ts)
        lat = (t1 - t0)[has_dst] // 1_000_000
        return pa.table({"lat_s": pa.array(lat, pa.int64())})

    counts = grouped_aggregate(
        partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                          "user_id", ["ts"], latency),
        "lat_s", {"n": "count"}
    ).take_all()  # bounded by distinct whole-second latencies
    if not counts:
        return pa.table({"n_converted": pa.array([0], pa.int64()),
                         "p50_s": pa.array([None], pa.int64()),
                         "p90_s": pa.array([None], pa.int64())})
    by_val = {c["lat_s"]: c["n"] for c in counts}
    vals = np.asarray(sorted(by_val), np.int64)
    ns = np.asarray([by_val[v] for v in vals], np.int64)
    cum = np.cumsum(ns)
    total = int(cum[-1])
    out = {"n_converted": total}
    for q, name in ((0.5, "p50_s"), (0.9, "p90_s")):
        rank = int(np.ceil(q * total)) - 1  # quantile_disc rule
        out[name] = int(vals[np.searchsorted(cum, rank + 1)])
    return pa.table({
        "n_converted": pa.array([out["n_converted"]], pa.int64()),
        "p50_s": pa.array([out["p50_s"]], pa.int64()),
        "p90_s": pa.array([out["p90_s"]], pa.int64()),
    })


def event_pair_lift(ds) -> pa.Table:
    """Association lift for same-day event-type pairs:
    ``lift = support(a,b) · n_baskets / (count(a) · count(b))`` over
    (user, day) baskets — the market-basket association score (>1 =
    the types attract, <1 = they repel).

    Single-exchange extension of ``event_type_cooccurrence``: the same
    basket sweep emits pair rows, per-type singleton rows AND each
    partition's basket total, told apart by the ``kind`` column (so
    any string, ``""`` included, is a legal event type — the final table
    is |types|²-bounded so the lift fold is driver-side). The lift
    division converts both BIGINT products to float64 identically on
    both sides (exact < 2^53)."""
    PAIR, SINGLE, BASKET = 0, 1, 2

    def emit(g: pa.Table, starts: np.ndarray) -> pa.Table:
        items, a, b = _run_pairs(g["etype"].combine_chunks(), starts)
        kind = np.repeat([PAIR, SINGLE, BASKET], [len(a), len(items), 1])
        n = np.ones(len(kind), np.int64)
        n[-1] = len(starts)
        # singleton rows are (type, ""), the basket row is ("", "")
        blank = pa.array([""] * (len(items) + 1), items.type)
        return pa.table({
            "kind": pa.array(kind, pa.int8()),
            "type_a": pa.concat_arrays([a, items, blank[:1]]),
            "type_b": pa.concat_arrays([b, blank]),
            "n": pa.array(n, pa.int64())})

    triples = _basket_triples("ts", "user_id", "event_type")
    agg = grouped_aggregate(
        partitioned_sweep(ds.map_batches(triples, batch_format="pyarrow"),
                          ["user", "day"], ["etype"], emit),
        ["kind", "type_a", "type_b"], {"n": "sum"}
    ).take_all()  # |types|² + |types| + 1 rows
    n_baskets = 0
    singles: dict[str, int] = {}
    pairs = []
    for r in agg:
        if r["kind"] == BASKET:
            n_baskets = int(r["n"])
        elif r["kind"] == SINGLE:
            singles[r["type_a"]] = int(r["n"])
        else:
            pairs.append((r["type_a"], r["type_b"], int(r["n"])))
    pairs.sort()
    lift = [float(np.float64(s * n_baskets)
                  / np.float64(singles[a] * singles[b]))
            for a, b, s in pairs]
    return pa.table({
        "type_a": pa.array([p[0] for p in pairs], pa.string()),
        "type_b": pa.array([p[1] for p in pairs], pa.string()),
        "support": pa.array([p[2] for p in pairs], pa.int64()),
        "lift": pa.array(lift, pa.float64()),
    })


def orders_by_month(ds) -> "ray.data.Dataset":
    """Monthly order volume and revenue: calendar-month truncation
    (numpy ``datetime64[M]`` — true calendar months, not 30-day bins,
    matching ``date_trunc('month', …)``), integer-cents totals, one
    months-bounded ``grouped_aggregate``."""

    def months(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["o_orderdate"]))
        us = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        month = (us.astype("datetime64[us]").astype("datetime64[M]")
                 .astype("datetime64[us]").astype(np.int64))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            batch["o_totalprice"], 100.0), 0.5)), pa.int64())
        return pa.table({
            "month": pa.array(month, pa.int64()).cast(pa.timestamp("us")),
            "revenue_cents": cents})

    return grouped_aggregate(
        ds.map_batches(months, batch_format="pyarrow"), "month",
        {"n_orders": "count", "revenue_cents": "sum"})


def customer_rfm(ds) -> "ray.data.Dataset":
    """RFM profile per customer — recency (last order date), frequency
    (order count), monetary (integer-cents lifetime spend) — the
    segmentation input every growth pipeline starts from. One
    customer-keyed ``grouped_aggregate`` (max / count / sum)."""

    def rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["o_custkey"]))
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "last_order": pc.cast(batch["o_orderdate"], pa.timestamp("us")),
            "spend_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                batch["o_totalprice"], 100.0), 0.5)), pa.int64())})

    return grouped_aggregate(
        ds.map_batches(rows, batch_format="pyarrow"), "o_custkey",
        {"last_order": "max", "n_orders": "count", "spend_cents": "sum"})


def null_audit(ds, columns: list[str]) -> pa.Table:
    """Data-quality null audit: total row count plus per-column null
    counts in ONE streaming pass — the schema-health check run before
    admitting a new data drop into the pipeline. Per-batch partials are
    a single row of integers (``pc.sum(pc.is_null(...))`` per column),
    so the reduce is one Dataset-level sum of len(columns) + 1 scalars;
    no shuffle of data rows ever happens."""
    from ray.data.aggregate import Sum

    names = ["n_rows"] + [f"n_null_{c}" for c in columns]

    def partial(batch: pa.Table) -> pa.Table:
        cols = {"n_rows": pa.array([len(batch)], pa.int64())}
        for c in columns:
            n = pc.sum(pc.cast(pc.is_null(batch[c]), pa.int64())).as_py()
            cols[f"n_null_{c}"] = pa.array([int(n or 0)], pa.int64())
        return pa.table(cols)

    totals = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        *[Sum(name, alias_name=name) for name in names]) or {}
    return pa.table({name: pa.array([totals.get(name) or 0], pa.int64())
                     for name in names})


def events_weekday_profile(ds) -> "ray.data.Dataset":
    """Day-of-week × event-type activity profile (the seasonality
    fingerprint): counts per (weekday, type), weekday in DuckDB's
    Sunday=0 convention — epoch day 0 (1970-01-01) was a Thursday, so
    ``dow = (epoch_days + 4) % 7``. One ``grouped_aggregate``; its
    per-batch partials bound the exchange by 7 × |types| rows per
    batch."""
    US_PER_DAY = 86_400_000_000

    def weekdays(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(pc.is_valid(batch["ts"]),
                                     pc.is_valid(batch["event_type"])))
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = (ts // US_PER_DAY + 4) % 7
        return pa.table({"dow": pa.array(dow, pa.int64()),
                         "event_type": batch["event_type"]})

    return grouped_aggregate(ds.map_batches(weekdays, batch_format="pyarrow"),
                             ["dow", "event_type"], {"n": "count"})


def order_interarrival_quantiles(ds) -> pa.Table:
    """Inter-order gap distribution: whole-day gaps between a
    customer's consecutive orders, rolled up to global count / p50 / p90 — the
    reorder-cadence metric. The gap multiset of a sorted date sequence is
    tie-order-independent (consecutive differences of a sorted multiset), so
    one ``partitioned_sweep`` over the customer ordered by date is exactly the
    twin's LAG window; one ``grouped_aggregate`` counts each gap value.
    Whole-day flooring keeps the exact value-count quantile fold bounded (same
    recipe as ``conversion_latency_quantiles``)."""
    US_PER_DAY = 86_400_000_000

    def prefilter(batch: pa.Table) -> pa.Table:
        batch = batch.select(["o_custkey", "o_orderdate"]).drop_null()
        return pa.table({"o_custkey": batch["o_custkey"],
                         "us": pc.cast(batch["o_orderdate"], pa.int64())})

    def gaps(g: pa.Table, starts: np.ndarray) -> pa.Table:
        us = g["us"].to_numpy(zero_copy_only=False)
        same = np.ones(len(us), dtype=bool)
        same[starts] = False
        gap = (us[1:] - us[:-1])[same[1:]] // US_PER_DAY
        return pa.table({"gap_d": pa.array(gap, pa.int64())})

    counts = grouped_aggregate(
        partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                          "o_custkey", ["us"], gaps),
        "gap_d", {"n": "count"}).take_all()  # distinct whole-day gaps
    if not counts:
        return pa.table({"n_gaps": pa.array([0], pa.int64()),
                         "p50_d": pa.array([None], pa.int64()),
                         "p90_d": pa.array([None], pa.int64())})
    by_val = {c["gap_d"]: c["n"] for c in counts}
    vals = np.asarray(sorted(by_val), np.int64)
    cum = np.cumsum(np.asarray([by_val[v] for v in vals], np.int64))
    total = int(cum[-1])
    out = {}
    for q, name in ((0.5, "p50_d"), (0.9, "p90_d")):
        rank = int(np.ceil(q * total)) - 1
        out[name] = int(vals[np.searchsorted(cum, rank + 1)])
    return pa.table({"n_gaps": pa.array([total], pa.int64()),
                     "p50_d": pa.array([out["p50_d"]], pa.int64()),
                     "p90_d": pa.array([out["p90_d"]], pa.int64())})


def customers_by_region(customer_ds, nation_table: pa.Table,
                        region_table: pa.Table) -> "ray.data.Dataset":
    """Customer counts per (region, nation) — the snowflake
    dimension-hop rollup: nation ⋈ region joins on the DRIVER (Acero,
    25 / 5 rows), the fact side is one (nationkey → count)
    ``grouped_aggregate``, and ``hash_join`` broadcasts the dimension
    onto its 25 rows — never a dimension shuffle."""
    import ray.data

    dims = nation_table.join(
        region_table, keys=["n_regionkey"], right_keys=["r_regionkey"],
        join_type="inner").select(["n_nationkey", "n_name", "r_name"])

    agg = grouped_aggregate(
        customer_ds.map_batches(
            lambda b: pa.table({"nk": b["c_nationkey"]}).filter(
                pc.is_valid(b["c_nationkey"])), batch_format="pyarrow"),
        "nk", {"n_customers": "count"})
    return hash_join(agg, ray.data.from_arrow(dims), on="nk",
                     right_on="n_nationkey").select_columns(
                         ["r_name", "n_name", "n_customers"])


def user_activity_gini(ds, user_column: str = "user_id") -> pa.Table:
    """Gini coefficient of per-user event counts — the inequality
    index that tells you whether a corpus is a few power users or a
    broad base (bot-farm detection, sampling-bias checks).

    Computed WITHOUT a global sort: (1) per-user counts (one user-keyed
    exchange of count partials), (2) a value-count histogram of those
    counts (one exchange bounded by DISTINCT activity levels — far
    smaller than users), (3) a driver fold over the histogram using the
    run-of-ties closed form: a value v with multiplicity c occupying
    ranks (p+1)..(p+c) contributes v·(c·p + c(c+1)/2) to Σ i·xᵢ, which
    is independent of tie order — exactly the twin's ROW_NUMBER sum.
    All integers until the final mirrored float64 expression
    ``(2·S)/(n·T) − (n+1)/n``."""
    user_counts = grouped_aggregate(
        ds.map_batches(lambda b: pa.table({"u": b[user_column]}).filter(
            pc.is_valid(b[user_column])), batch_format="pyarrow"),
        "u", {"v": "count"})
    hist = grouped_aggregate(user_counts, "v", {"c": "count"}
                             ).take_all()  # distinct activity levels
    if not hist:
        return pa.table({"n_users": pa.array([0], pa.int64()),
                         "n_events": pa.array([0], pa.int64()),
                         "rank_weighted_sum": pa.array([0], pa.int64()),
                         "gini": pa.array([None], pa.float64())})
    by_v = {h["v"]: h["c"] for h in hist}
    vals = np.asarray(sorted(by_v), np.int64)
    cnts = np.asarray([by_v[v] for v in vals], np.int64)
    prev = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    s = int((vals * (cnts * prev + cnts * (cnts + 1) // 2)).sum())
    nu = int(cnts.sum())
    total = int((vals * cnts).sum())
    gini = (2.0 * np.float64(s)) / np.float64(nu * total) \
        - (np.float64(nu) + 1.0) / np.float64(nu)
    return pa.table({
        "n_users": pa.array([nu], pa.int64()),
        "n_events": pa.array([total], pa.int64()),
        "rank_weighted_sum": pa.array([s], pa.int64()),
        "gini": pa.array([float(gini)], pa.float64()),
    })


def top_customer_per_nation(orders_ds, customer_ds,
                            nation_table: pa.Table,
                            num_partitions: int = JOIN_PARTITIONS
                            ) -> "ray.data.Dataset":
    """Biggest-spending customer per nation — the pipeline-composition
    op: an integer-cents spend ``grouped_aggregate`` per custkey, one
    large×large hash join to customer for the
    nation key, ``grouped_topk`` with ``k=1`` under the deterministic
    (cents DESC, custkey ASC) order — the ROW_NUMBER twin's — and the
    nation name joined from the 25-row dimension."""
    import ray.data

    def spend_cents(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["o_custkey"]))
        return pa.table({"o_custkey": batch["o_custkey"],
                         "cents": pc.cast(pc.floor(pc.add(pc.multiply(
                             batch["o_totalprice"], 100.0), 0.5)),
                             pa.int64())})

    spend = grouped_aggregate(
        orders_ds.map_batches(spend_cents, batch_format="pyarrow"),
        "o_custkey", {"cents": "sum"})
    joined = hash_join(
        customer_ds, spend, on="c_custkey", right_on="o_custkey",
        num_partitions=num_partitions,
        left_schema=[("c_custkey", pa.int64()),
                     ("c_nationkey", pa.int64())])
    top = grouped_topk(joined, "c_nationkey",
                       [("cents", "descending"), "c_custkey"], 1)
    named = hash_join(top, ray.data.from_arrow(
        nation_table.select(["n_nationkey", "n_name"])),
        on="c_nationkey", right_on="n_nationkey", join_type="left outer")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": pc.cast(batch["n_name"], pa.string()),
            "top_custkey": batch["c_custkey"],
            "spend_cents": pc.cast(batch["cents"], pa.int64()),
        })

    return named.map_batches(project, batch_format="pyarrow")
