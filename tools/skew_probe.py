"""Skew probes over Zipf(1.25) keys, one JSON line each; paste them into
BASELINE.md.

- join (VERDICT r3 #6): joins a Zipf-skewed left table (hottest key ~30%
  of rows) against a dimension table on ``hash_join``'s shuffle plan
  (forced) with and without ``hot_keys`` salting, reports wall time and
  the exchange's per-partition row spread under both plans.
- sweep: ``session_windows`` over Zipf(1.25) users on an events table,
  through ``partitioned_sweep``; reports wall time and the largest ÷
  mean rows of its ``JOIN_PARTITIONS`` hash partitions.
- topk: ``latest_event_per_user`` over the same events, through
  ``grouped_topk``; reports wall time and the largest ÷ mean rows per
  hash partition of what its exchange carries: after the per-block
  top-1, one row per (block, user).

Usage: python tools/skew_probe.py [n_rows] [num_cpus]
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pyarrow as pa


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 600_000
    cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 ignore_reinit_error=True)
    sys.path.insert(0, ".")
    join_probe(n, cpus)
    events = _zipf_events(n)
    sweep_probe(events, cpus)
    topk_probe(events, cpus)
    ray.shutdown()


def join_probe(n: int, cpus: int) -> None:
    import ray.data

    from pdf_inspector_ray.functions import relational
    from pdf_inspector_ray.functions.relational import (PART_MULT,
                                                        SALT_MULT,
                                                        hash_join)

    # the dimension side would fit a broadcast; salting is a shuffle
    # feature, so force the shuffle plan
    relational.BROADCAST_ROWS = 0

    rng = np.random.default_rng(97)
    zipf = rng.zipf(1.25, size=n)
    key = np.where(zipf == 1, 1, 1 + (zipf % 997)).astype(np.int64)
    hot_share = float((key == 1).mean())
    left = pa.table({"k": pa.array(key, pa.int64()),
                     "lv": pa.array(np.arange(n), pa.int64())})
    rkey = np.arange(1, 998, dtype=np.int64)
    right = pa.table({"rk": pa.array(rkey, pa.int64()),
                      "rv": pa.array(rkey * 10, pa.int64())})

    num_partitions, salt = 64, 8

    def run(hot_keys):
        t0 = time.perf_counter()
        out = hash_join(ray.data.from_arrow(left).repartition(cpus),
                        ray.data.from_arrow(right), on="k", right_on="rk",
                        num_partitions=num_partitions,
                        hot_keys=hot_keys, salt=salt)
        rows = out.count()
        return time.perf_counter() - t0, rows

    # warmup (Ray task launch amortization), then measure each plan
    run(None)
    t_plain, rows_plain = run(None)
    t_salted, rows_salted = run([1])
    assert rows_plain == rows_salted == n

    k64 = key.astype(np.uint64)
    with np.errstate(over="ignore"):
        part_plain = (k64 * np.uint64(PART_MULT)) % np.uint64(num_partitions)
        salt_idx = np.zeros(n, dtype=np.uint64)
        is_hot = key == 1
        salt_idx[is_hot] = (np.arange(n, dtype=np.uint64)[is_hot]
                            % np.uint64(salt))
        part_salted = ((k64 * np.uint64(PART_MULT)
                        + salt_idx * np.uint64(SALT_MULT))
                       % np.uint64(num_partitions))
    hist_p = np.bincount(part_plain.astype(int), minlength=num_partitions)
    hist_s = np.bincount(part_salted.astype(int), minlength=num_partitions)
    print(json.dumps({
        "n_left_rows": n, "hot_share": round(hot_share, 4),
        "num_partitions": num_partitions, "salt": salt,
        "plain_sec": round(t_plain, 2), "salted_sec": round(t_salted, 2),
        "plain_max_part_share": round(float(hist_p.max()) / n, 4),
        "salted_max_part_share": round(float(hist_s.max()) / n, 4),
        "plain_p99_over_median": round(
            float(np.quantile(hist_p, 0.99)) / max(np.median(hist_p), 1), 2),
        "salted_p99_over_median": round(
            float(np.quantile(hist_s, 0.99)) / max(np.median(hist_s), 1), 2),
    }))


def _zipf_events(n: int) -> pa.Table:
    rng = np.random.default_rng(101)
    users = rng.zipf(1.25, size=n).astype(np.int64)
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array((rng.integers(0, 30 * 86_400, n) * 1_000_000)
                       .astype("datetime64[us]")),
        "user_id": pa.array(users, pa.int64()),
        "value": pa.array(np.round(rng.uniform(0, 100, n), 2)),
    })


def _timed(op, events: pa.Table, cpus: int) -> tuple[float, int]:
    import ray.data

    def run():
        t0 = time.perf_counter()
        rows = op(ray.data.from_arrow(events).repartition(cpus)).count()
        return time.perf_counter() - t0, rows

    run()   # warmup (Ray task launch amortization)
    return run()


def _max_over_mean(key: pa.Array) -> float:
    from pdf_inspector_ray.functions.relational import (JOIN_PARTITIONS,
                                                        key_partition)
    part_rows = np.bincount(key_partition(key), minlength=JOIN_PARTITIONS)
    return round(float(part_rows.max() / part_rows.mean()), 2)


def sweep_probe(events: pa.Table, cpus: int) -> None:
    from pdf_inspector_ray.functions.relational import (JOIN_PARTITIONS,
                                                        session_windows)

    users = events["user_id"].to_numpy()
    wall, sessions = _timed(session_windows, events, cpus)
    print(json.dumps({
        "n_events": len(users), "n_users": int(len(np.unique(users))),
        "hot_user_share": round(float((users == 1).mean()), 4),
        "num_partitions": JOIN_PARTITIONS, "sessions": sessions,
        "session_windows_sec": round(wall, 2),
        "part_rows_max_over_mean": _max_over_mean(events["user_id"]),
    }))


def topk_probe(events: pa.Table, cpus: int) -> None:
    from pdf_inspector_ray.functions.relational import latest_event_per_user

    wall, users = _timed(latest_event_per_user, events, cpus)
    # the blocks of repartition(cpus) are contiguous, near-equal slices
    bounds = np.linspace(0, events.num_rows, cpus + 1).astype(int)
    shipped = np.concatenate([
        np.unique(events["user_id"].to_numpy()[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])])
    print(json.dumps({
        "n_events": events.num_rows, "users": users, "blocks": cpus,
        "exchange_rows": len(shipped),
        "latest_event_per_user_sec": round(wall, 2),
        "part_rows_max_over_mean": _max_over_mean(pa.array(shipped)),
    }))


if __name__ == "__main__":
    main()
