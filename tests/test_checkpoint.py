"""Direct tests of the lineage/checkpoint utilities."""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_inspector_ray.state.checkpoint import (
    aggregate_metrics,
    content_hash,
    finalize_partition,
    lineage_path,
    list_completed_partitions,
    write_shard,
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
    out = str(tmp_path / "out")
    shard_root = str(tmp_path / "shards")
    write_shard(_group(), shard_root, 3, "a")
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
    out = str(tmp_path / "out")
    shard_root = str(tmp_path / "shards")
    g = _group(part=5)
    # write two shards in reverse row order
    write_shard(g.slice(5, 5), shard_root, 5, "b")
    write_shard(g.slice(0, 5), shard_root, 5, "a")
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


def _salted_block(n=100, num_buckets=8):
    from pdf_inspector_ray.pipelines.flagship import INPUT_COLUMNS
    from pdf_inspector_ray.pipelines.ordering import add_salted_partition
    from pdf_inspector_ray.sources.transcripts import build_transcript_table

    t = build_transcript_table(n, include_goldens=False).select(INPUT_COLUMNS)
    return add_salted_partition(t, num_buckets=num_buckets)


def _finalize_all(shard_root, out):
    """Finalize every partition the shard root holds; the written rows."""
    parts = sorted(int(d.split("=", 1)[1]) for d in os.listdir(shard_root))
    for part in parts:
        finalize_partition(part, shard_root, out)
    return pa.concat_tables(
        pq.read_table(os.path.join(out, f"part={p}", "data.parquet"))
        for p in parts)


def _shard_files(shard_root):
    return sorted(os.path.relpath(os.path.join(d, f), shard_root)
                  for d, _, files in os.walk(shard_root) for f in files)


def _keys(t):
    return sorted(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))


def test_zero_copy_slices_of_one_table_keep_all_rows(tmp_path):
    """Two blocks that are slices of one table share its buffers; their
    shards must still get distinct names, or one overwrites the other."""
    from pdf_inspector_ray.stages.extract_stage import ExtractAndShard

    block = _salted_block()
    shard_root = str(tmp_path / "shards")
    stage = ExtractAndShard(shard_root=shard_root, drop_columns=["text"])
    stage(block.slice(0, 50))
    stage(block.slice(50, 50))
    got = _finalize_all(shard_root, str(tmp_path / "out"))
    assert got.num_rows == 100
    assert _keys(got) == _keys(block)


def test_task_retry_overwrites_its_shards(tmp_path):
    """Running the map side twice on the same block (a Ray task retry)
    leaves the same shard files and no duplicated rows, also for a block
    whose rows all fall in one partition."""
    from pdf_inspector_ray.stages.extract_stage import ExtractAndShard

    block = _salted_block()
    one_part = block.filter(pc.equal(block["part"], block["part"][0]))
    assert one_part.num_rows > 1
    for i, b in enumerate([block, one_part]):
        shard_root = str(tmp_path / f"shards{i}")
        stage = ExtractAndShard(shard_root=shard_root, drop_columns=["text"])
        stage(b)
        first = _shard_files(shard_root)
        stage(b)
        assert _shard_files(shard_root) == first
        got = _finalize_all(shard_root, str(tmp_path / f"out{i}"))
        assert got.num_rows == b.num_rows
        assert _keys(got) == _keys(b)
    assert len(first) == 1  # the one-part block wrote a single shard
