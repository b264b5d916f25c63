"""Flagship pipeline: read → extract (fused classify+extract, one task per
block) → stable ``(conv_id, turn_idx)`` order, in one of two output shapes:

* ``flagship``: the ordered in-memory dataset, one ``ds.sort``.
* ``run_to_partitioned_output``: the durable resumable job, salted buckets
  exchanged through a file shuffle, one sorted parquet file per bucket.

Ray Data shape (SURVEY.md §3.1): the only data movement is the read, the
one conv_id exchange, and the write. Extraction is embarrassingly parallel
per turn → no key needed; the ordering restore is the single exchange.

Never calls ``ray.init`` — the session is owned by the driver / bench / tests.
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid
from typing import Optional, Union

import pyarrow as pa
import ray.data

from ..pdfi.detect import DetectionConfig
from ..pdfi.markdown import MarkdownOptions
from ..stages.classify import classify_batch
from ..stages.extract_stage import extract_and_shard_block, extract_block
from ..state.checkpoint import (aggregate_metrics, check_layout,
                                filter_completed, finalize_partition,
                                list_completed_partitions)
from .ordering import DEFAULT_STRIDE, add_salted_partition

# The canonical pipeline input schema (BASELINE.json input_hint +
# pdf_sha256 sidecar). read_transcripts prunes to these by default so
# corpus sidecar columns (golden_* oracles) never leave storage.
INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts",
                 "pdf_sha256"]


def sized_concurrency(mode: str = "single-node") -> int:
    """Cap on concurrent extract tasks: all CPUs but a slack for the read
    and finalize tasks. Tasks free their CPU after each block, so unlike
    the r2 all-CPUs actor pool the cap cannot deadlock those tasks.

    ``mode="single-node"`` (default): slack = ``max(2, cpus//16)`` — on one
    node the non-parse work (read tasks, finalize) needs only a couple of
    cores once the map-side shard write is fused into the extract stage;
    measured at 32 CPUs with the r3 actor pool: 24 → 115 s, 30 → 95 s warm.

    ``mode="scaling"``: slack = ``max(2, cpus//4)`` — PER-NODE slack
    emulation for the N→4N measurement: "32 CPUs" stands in for 4 nodes
    of 8, and a real 4-node cluster pays the read/shuffle slack on every
    node, so the pool FRACTION must be equal at both scales or the
    efficiency ratio partly measures slack amortization instead of
    scaling."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    slack = max(2, cpus // 4) if mode == "scaling" else max(2, cpus // 16)
    return max(2, cpus - slack)


def read_transcripts(path: Union[str, list[str]],
                     columns: Optional[list[str]] = None,
                     num_blocks: Optional[int] = None) -> ray.data.Dataset:
    """Column-pruned parquet read (only ship what the stage needs).

    ``num_blocks``: block granularity. Coarse blocks (≈4× the task cap)
    cut the file shuffle's map-side shard count (one per block × bucket)
    while staying fine enough that the pool doesn't straggle."""
    if columns is None:
        columns = INPUT_COLUMNS
    if num_blocks is None:
        return ray.data.read_parquet(path, columns=columns)
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=num_blocks)


def classify_pipeline(ds: ray.data.Dataset,
                      config: Optional[DetectionConfig] = None) -> ray.data.Dataset:
    """detect-pdf equivalent: stateless classification only (SB)."""
    return ds.map_batches(
        classify_batch,
        fn_kwargs={"config": config} if config else {},
        batch_format="pyarrow",
    )


def extract_pipeline(ds: ray.data.Dataset,
                     detection_config: Optional[DetectionConfig] = None,
                     markdown_options: Optional[MarkdownOptions] = None,
                     concurrency: Optional[int] = None,
                     use_payload_cache: bool = True) -> ray.data.Dataset:
    """inspect→classify→extract over every turn: one ``extract_block`` task
    per block. Each call is one run for the payload cache: its blocks share
    one cache per worker process, so a worker parses each distinct payload
    once, and the next call parses again. ``concurrency`` caps the extract
    tasks running at once; ``None`` lets Ray Data use the free CPUs."""
    return ds.map_batches(
        extract_block,
        fn_kwargs={
            "detection_config": detection_config,
            "markdown_options": markdown_options,
            "use_payload_cache": use_payload_cache,
            "cache_scope": uuid.uuid4().hex,
        },
        batch_size=None,
        concurrency=concurrency,
        num_cpus=1,
        batch_format="pyarrow",
    )


def flagship(ds: ray.data.Dataset, **extract_kwargs) -> ray.data.Dataset:
    """extract + stable turn ordering; returns the ordered dataset. The
    composite sort key splits a mega-conversation across range boundaries,
    so no salting is needed here."""
    return extract_pipeline(ds, **extract_kwargs).sort(["conv_id", "turn_idx"])


def run_to_partitioned_output(ds: ray.data.Dataset,
                              out_dir: str,
                              num_buckets: int = 64,
                              resume: bool = True,
                              payload_column: str = "text",
                              concurrency: Optional[int] = None,
                              **extract_kwargs) -> dict:
    """The full resumable job: salt → (skip completed parts) → extract →
    file shuffle by salted bucket → per-partition sort + write with lineage.

    Salting happens BEFORE extraction so a resumed run skips the expensive
    parse for completed partitions, not just the write. Sidecars record
    ``num_buckets`` and stride; a run with other values raises
    ``ValueError`` before any work (new bucket ids would drop rows).
    ``resume=False`` removes every existing partition first, so the output
    holds this run's rows only.

    Extract tasks (one per block, at most ``concurrency`` at once) drop the
    payload column and write one LZ4 Arrow IPC shard per (block, partition)
    while extraction streams (overlapped); the blocks of one call share a
    payload cache per worker process, and the next call starts a new one.
    Then one finalize task per cluster CPU reads, sorts and writes its
    share of the touched partitions — no object-store all-to-all, no
    post-extraction barrier beyond the per-partition reads. The shard root
    lives under ``out_dir``; a run removes it when it ends, even on error,
    and stale ones of crashed runs when it starts.

    Returns the sidecar totals (``aggregate_metrics``) plus this run's
    partition counts, ``rows_parsed`` (library calls, summed from the
    extract manifests) and ``payload_cache_hit_rate`` (1 − rows_parsed /
    rows extracted this run; 0.0 when the run extracts none).
    """
    os.makedirs(out_dir, exist_ok=True)
    if not resume:
        for old in glob.glob(os.path.join(out_dir, "part=*")):
            shutil.rmtree(old)
    completed = frozenset(list_completed_partitions(out_dir))
    check_layout(out_dir, completed, num_buckets, DEFAULT_STRIDE)
    for stale in glob.glob(os.path.join(out_dir, "_shards-*")):
        shutil.rmtree(stale, ignore_errors=True)
    layout = {"num_buckets": num_buckets, "stride": DEFAULT_STRIDE}

    salted = ds.map_batches(
        add_salted_partition,
        fn_kwargs={"num_buckets": num_buckets},
        batch_format="pyarrow")
    if completed:
        salted = salted.map_batches(
            filter_completed, fn_kwargs={"completed": completed},
            batch_format="pyarrow")

    run_id = uuid.uuid4().hex[:12]   # shard root name and cache scope
    shard_root = os.path.join(out_dir, f"_shards-{run_id}")

    def _finalize(batch: pa.Table) -> pa.Table:
        recs = [finalize_partition(int(p), shard_root, out_dir, **layout)
                for p in batch["part"].to_pylist()]
        return pa.table({"skipped": pa.array([r["skipped"] for r in recs],
                                             pa.bool_())})

    try:
        manifests = salted.map_batches(
            extract_and_shard_block,
            fn_kwargs={
                "shard_root": shard_root,
                "drop_columns": [payload_column],
                **extract_kwargs,
                "cache_scope": run_id,
            },
            batch_size=None,  # whole block per call: one shard per (block, part)
            concurrency=concurrency,
            num_cpus=1,
            batch_format="pyarrow")
        # consume manifests (tiny) to drive the map side to completion
        touched, rows, parsed = set(), 0, 0
        for b in manifests.iter_batches(batch_format="pyarrow"):
            touched.update(b["part"].to_pylist())
            rows += sum(b["rows"].to_pylist())
            parsed += sum(b["parsed"].to_pylist())
        touched_parts = sorted(touched)
        cpus = int(ray.cluster_resources().get("CPU", 1))  # finalize tasks
        lineage = ray.data.from_items(
            [{"part": p} for p in touched_parts],
            override_num_blocks=max(1, min(len(touched_parts), cpus)),
        ).map_batches(_finalize, batch_size=None,
                      batch_format="pyarrow").to_pandas()
    finally:
        shutil.rmtree(shard_root, ignore_errors=True)

    metrics = aggregate_metrics(out_dir)
    metrics["partitions_written_this_run"] = (
        int((~lineage["skipped"]).sum()) if len(lineage) else 0)
    metrics["partitions_skipped_this_run"] = len(completed)
    metrics["rows_parsed"] = parsed
    metrics["payload_cache_hit_rate"] = 1 - parsed / rows if rows else 0.0
    return metrics


def conv_stats(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-conversation transcript profile: turn count, tool-call count,
    total text codepoints, max turn_idx — the corpus-curation signals a
    transcript pipeline filters on (conversation length caps, tool-heavy
    sessions, truncated conversations).

    One ``grouped_aggregate`` on conv_id: its per-batch partials shrink
    the exchange to one row per (batch, conv_id), so a mega-conversation
    costs its partial count, never its rows. All integer arithmetic
    (utf8_length == DuckDB length(): codepoints).

    SQL twin: COUNT(*) / SUM(CASE tool<>'') / SUM(length(text)) /
    MAX(turn_idx) GROUP BY conv_id."""
    import pyarrow.compute as pc

    from pdf_inspector_ray.functions.relational import grouped_aggregate

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": batch["conv_id"],
            "n_tool_calls": pc.cast(pc.not_equal(
                pc.coalesce(batch["tool"], pa.scalar("")), pa.scalar("")),
                pa.int64()),
            "sum_chars": pc.cast(pc.utf8_length(
                pc.coalesce(batch["text"], pa.scalar(""))), pa.int64()),
            "max_turn_idx": pc.cast(batch["turn_idx"], pa.int64()),
        })

    return grouped_aggregate(
        ds.map_batches(rows, batch_format="pyarrow"), "conv_id",
        {"n_turns": "count", "n_tool_calls": "sum", "sum_chars": "sum",
         "max_turn_idx": "max"})


def conv_turn_gaps(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-conversation cadence: number of inter-turn gaps, their total
    and max in microseconds, under turn_idx order — the signal used to
    split stalled agent sessions and cap runaway tool loops.

    One ``partitioned_sweep`` over the string ``conv_id`` ordered by
    turn_idx; gaps are the diffs between consecutive rows of one
    conversation, summed and maxed per conversation with ``reduceat`` —
    all int64, so the twin (SUM/MAX over LAG differences) matches
    exactly. Single-turn conversations report 0 gaps with NULL
    total/max, like SQL aggregates over an empty LAG set."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.relational import partitioned_sweep

    def prefilter(batch: pa.Table) -> pa.Table:
        batch = batch.select(["conv_id", "turn_idx", "ts"]).drop_null()
        return pa.table({
            "conv_id": batch["conv_id"],
            "turn_idx": pc.cast(batch["turn_idx"], pa.int64()),
            "ts_us": pc.cast(batch["ts"], pa.int64()),
        })

    def sweep(g: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        gap = np.diff(ts, prepend=ts[:1])
        first = np.zeros(len(ts), dtype=bool)
        first[starts] = True   # a conversation's first row has no gap
        n = np.diff(np.append(starts, len(ts))) - 1
        return pa.table({
            "conv_id": g["conv_id"].take(starts),
            "n_gaps": pa.array(n, pa.int64()),
            "sum_gap_us": pa.array(np.add.reduceat(
                np.where(first, 0, gap), starts), pa.int64(), mask=n == 0),
            "max_gap_us": pa.array(np.maximum.reduceat(
                np.where(first, np.iinfo(np.int64).min, gap), starts),
                pa.int64(), mask=n == 0),
        })

    return partitioned_sweep(ds.map_batches(prefilter, batch_format="pyarrow"),
                             "conv_id", ["turn_idx"], sweep)
