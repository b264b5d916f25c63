"""Partition-granular lineage + resumable output (SURVEY.md §4.2).

Layout: ``out_dir/part={id}/data.parquet`` + ``out_dir/part={id}/_lineage.json``.
The lineage sidecar records partition id, row count, per-turn content hash,
wall time and the bucket layout (``num_buckets``, ``stride``); a restarted
run checks the layout, lists completed partition ids and filters them out
of the input plan before execution — no reprocessing. A resumed run's
partitions carry the same rows: each sidecar's ``content_sha256`` over
``HASH_COLUMNS`` equals an uninterrupted run's. The ``data.parquet`` bytes
need not: every row stores the wall-clock ``processing_time_ms``.

Exchange (a file shuffle): the extract tasks write each block's rows as
per-partition LZ4 Arrow IPC shards (``write_shard``) under a run-scoped
shard root while extraction is still streaming; then ``finalize_partition``
(run by one task per CPU, each over its share of the partitions) reads a
partition's shards, sorts them by ``(conv_id, turn_idx)`` and writes
``data.parquet`` + the sidecar. It is the only writer of both files.
The sidecar is written only after the data file is durably renamed into
place (crash between the two ⇒ partition is retried, never half-counted).
On a multi-node cluster the shard root, like the output, must be shared
storage (object store / NFS).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.ipc as ipc
import pyarrow.parquet as pq

# the columns the sidecar's content_sha256 covers
HASH_COLUMNS = ["conv_id", "turn_idx", "pdf_type", "markdown", "error_kind"]


def partition_dir(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"part={part}")


def lineage_path(out_dir: str, part: int) -> str:
    return os.path.join(partition_dir(out_dir, part), "_lineage.json")


def list_completed_partitions(out_dir: str) -> set[int]:
    done: set[int] = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if not name.startswith("part="):
            continue
        try:
            part = int(name.split("=", 1)[1])
        except ValueError:
            continue
        if os.path.exists(os.path.join(out_dir, name, "_lineage.json")):
            done.add(part)
    return done


def check_layout(out_dir: str, parts, num_buckets: int, stride: int) -> None:
    """Raise ``ValueError`` unless every listed partition's sidecar records
    this ``num_buckets`` and ``stride``. Under another layout a row's new
    bucket id can name a completed partition that never held it, so a
    resumed run would silently drop it."""
    for part in sorted(parts):
        with open(lineage_path(out_dir, part)) as f:
            rec = json.load(f)
        got = (rec.get("num_buckets"), rec.get("stride"))
        if got != (num_buckets, stride):
            raise ValueError(
                f"{partition_dir(out_dir, part)} was written with "
                f"(num_buckets, stride) = {got}, this run uses "
                f"{(num_buckets, stride)}: rerun with the original values "
                "or write to a new directory")


def content_hash(table: pa.Table, columns: list[str]) -> str:
    """Order-sensitive content hash over the named columns (Arrow IPC
    serialization hashed at C speed — a Python per-row loop here costs
    tens of core-seconds per million rows)."""
    cols = [c for c in columns if c in table.column_names]
    sub = table.select(cols).combine_chunks()
    sink = pa.BufferOutputStream()
    with ipc.new_stream(sink, sub.schema) as writer:
        writer.write_table(sub)
    h = hashlib.sha256(sink.getvalue().to_pybytes())
    return h.hexdigest()


def write_shard(table: pa.Table, shard_root: str, part: int,
                name: str) -> None:
    """``table`` as the LZ4 Arrow IPC shard ``part={part}/{name}.arrow``:
    tmp file + rename, so a reader never sees half a shard and a rewrite
    under the same name replaces it."""
    pdir = os.path.join(shard_root, f"part={part}")
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, f".{name}.tmp")
    with pa.OSFile(tmp, "wb") as sink, ipc.new_file(
            sink, table.schema,
            options=ipc.IpcWriteOptions(compression="lz4")) as writer:
        writer.write_table(table)
    os.replace(tmp, os.path.join(pdir, f"{name}.arrow"))


def _count_errors(group: pa.Table) -> int:
    if "error_kind" not in group.column_names:
        return 0
    import pyarrow.compute as pc

    valid = pc.sum(pc.cast(pc.is_valid(group["error_kind"]), pa.int64()))
    return int(valid.as_py() or 0)


def finalize_partition(part: int, shard_root: str, out_dir: str,
                       num_buckets: int | None = None,
                       stride: int | None = None) -> dict:
    """Reduce side: one partition's shards → sorted data.parquet + lineage.
    ``num_buckets`` / ``stride`` are the salting layout, recorded for
    ``check_layout``. A partition whose sidecar exists is skipped."""
    import glob as _glob

    import pyarrow.compute as pc

    lpath = lineage_path(out_dir, part)
    if os.path.exists(lpath):
        with open(lpath) as f:
            rec = json.load(f)
        return {"part": part, "rows": rec["rows"],
                "content_sha256": rec["content_sha256"], "wall_ms": 0,
                "skipped": True}
    start = time.perf_counter()
    shard_files = sorted(_glob.glob(os.path.join(shard_root, f"part={part}",
                                                 "*.arrow")))
    if not shard_files:
        return {"part": part, "rows": 0, "content_sha256": "", "wall_ms": 0,
                "skipped": False}
    tables = []
    for f in shard_files:
        with pa.memory_map(f) as src:
            tables.append(ipc.open_file(src).read_all())
    table = pa.concat_tables(tables)
    order = pc.sort_indices(table, sort_keys=[("conv_id", "ascending"),
                                              ("turn_idx", "ascending")])
    table = table.take(order)
    pdir = partition_dir(out_dir, part)
    os.makedirs(pdir, exist_ok=True)
    chash = content_hash(table, HASH_COLUMNS)
    tmp = os.path.join(pdir, ".data.parquet.tmp")
    pq.write_table(table, tmp, row_group_size=8192)
    os.replace(tmp, os.path.join(pdir, "data.parquet"))
    rec = {
        "part": part,
        "rows": table.num_rows,
        "row_range": {
            "conv_id_min": table["conv_id"][0].as_py(),
            "conv_id_max": table["conv_id"][-1].as_py(),
        },
        "content_sha256": chash,
        "wall_ms": int((time.perf_counter() - start) * 1000),
        "error_rows": _count_errors(table),
        "num_buckets": num_buckets,
        "stride": stride,
    }
    tmp_lineage = lpath + ".tmp"
    with open(tmp_lineage, "w") as f:
        json.dump(rec, f)
    os.replace(tmp_lineage, lpath)
    return {"part": part, "rows": table.num_rows, "content_sha256": chash,
            "wall_ms": rec["wall_ms"], "skipped": False}


def filter_completed(batch: pa.Table, completed: frozenset[int]) -> pa.Table:
    """SB filter UDF: drop rows whose salted partition already finished."""
    if not completed:
        return batch
    import pyarrow.compute as pc
    mask = pc.invert(pc.is_in(
        batch["part"], value_set=pa.array(sorted(completed), pa.int32())))
    return batch.filter(mask)


def aggregate_metrics(out_dir: str) -> dict:
    """Global metrics from the per-partition sidecars (no dataset pass)."""
    parts = sorted(list_completed_partitions(out_dir))
    total_rows = 0
    total_errors = 0
    wall_ms = 0
    for p in parts:
        with open(lineage_path(out_dir, p)) as f:
            rec = json.load(f)
        total_rows += rec.get("rows", 0)
        total_errors += rec.get("error_rows", 0)
        wall_ms += rec.get("wall_ms", 0)
    return {"partitions": len(parts), "rows": total_rows,
            "error_rows": total_errors, "partition_wall_ms_sum": wall_ms}
