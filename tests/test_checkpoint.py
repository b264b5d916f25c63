"""Direct tests of the lineage/checkpoint utilities."""

import json
import os

import pyarrow as pa

from pdf_inspector_ray.state.checkpoint import (
    aggregate_metrics,
    content_hash,
    finalize_partition,
    lineage_path,
    list_completed_partitions,
)


def _group(part=3, n=10):
    return pa.table({
        "part": pa.array([part] * n, pa.int32()),
        "conv_id": pa.array([f"conv-{i:03d}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(list(range(n)), pa.int32()),
        "pdf_type": pa.array(["TextBased"] * n, pa.string()),
        "markdown": pa.array([f"# doc {i}\n" for i in range(n)], pa.large_string()),
        "error_kind": pa.array([None, "Parse"] + [None] * (n - 2), pa.string()),
    })


def test_content_hash_order_sensitive():
    t = _group()
    h1 = content_hash(t, ["conv_id", "markdown"])
    rev = t.take(list(reversed(range(t.num_rows))))
    h2 = content_hash(rev, ["conv_id", "markdown"])
    assert h1 != h2
    assert content_hash(t, ["conv_id", "markdown"]) == h1  # deterministic
    # missing columns are skipped, not fatal
    assert content_hash(t, ["conv_id", "nope"]) != ""


def test_finalize_partition_lineage_and_metrics(tmp_path):
    import pyarrow.parquet as pq

    out = str(tmp_path / "out")
    shard_root = str(tmp_path / "shards")
    os.makedirs(os.path.join(shard_root, "part=3"))
    pq.write_table(_group(), os.path.join(shard_root, "part=3", "a.parquet"))
    rec = finalize_partition(3, shard_root, out, num_buckets=8, stride=512)
    assert rec["part"] == 3 and rec["rows"] == 10 and not rec["skipped"]
    assert list_completed_partitions(out) == {3}
    with open(lineage_path(out, 3)) as f:
        lineage = json.load(f)
    assert lineage["rows"] == 10
    assert lineage["error_rows"] == 1
    assert lineage["row_range"] == {"conv_id_min": "conv-000",
                                    "conv_id_max": "conv-009"}
    assert (lineage["num_buckets"], lineage["stride"]) == (8, 512)
    assert lineage["content_sha256"] == rec["content_sha256"]
    m = aggregate_metrics(out)
    assert m["rows"] == 10 and m["error_rows"] == 1 and m["partitions"] == 1


def test_finalize_partition_sorts_and_is_idempotent(tmp_path):
    import pyarrow.parquet as pq

    out = str(tmp_path / "out")
    shard_root = str(tmp_path / "shards")
    os.makedirs(os.path.join(shard_root, "part=5"))
    g = _group(part=5)
    # write two shards in reverse row order
    pq.write_table(g.slice(5, 5), os.path.join(shard_root, "part=5", "b.parquet"))
    pq.write_table(g.slice(0, 5), os.path.join(shard_root, "part=5", "a.parquet"))
    os.makedirs(out)
    rec = finalize_partition(5, shard_root, out)
    assert rec["rows"] == 10 and not rec["skipped"]
    data = pq.read_table(os.path.join(out, "part=5", "data.parquet"))
    assert data["conv_id"].to_pylist() == sorted(data["conv_id"].to_pylist())
    # idempotent: second finalize is a skip with the same hash
    rec2 = finalize_partition(5, shard_root, out)
    assert rec2["skipped"] and rec2["content_sha256"] == rec["content_sha256"]


def test_empty_partition_dir(tmp_path):
    assert list_completed_partitions(str(tmp_path)) == set()
    assert aggregate_metrics(str(tmp_path))["rows"] == 0
