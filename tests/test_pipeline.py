"""Ray pipeline tests: per-turn text equality under stable turn ordering,
error-column discipline, the partitioned output against the sorted
dataset, the pinned salted bucket layout, resume semantics."""

import shutil

import pyarrow as pa
import pytest

from pdf_inspector_ray.sources.transcripts import (
    build_transcript_table,
    golden_expectations,
    write_transcript_corpus,
)

N_TURNS = 300


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_transcript_corpus(str(d), N_TURNS)
    return str(d)


@pytest.fixture(scope="module")
def corpus_table():
    return build_transcript_table(N_TURNS)


@pytest.fixture(scope="module")
def goldens(corpus_table):
    return golden_expectations(corpus_table)


@pytest.fixture(scope="module")
def flagship_df(ray_session, corpus_dir):
    from pdf_inspector_ray.pipelines.flagship import flagship, read_transcripts

    ds = read_transcripts(corpus_dir)
    return flagship(ds, concurrency=4).to_pandas()


def test_row_count_preserved(flagship_df):
    assert len(flagship_df) == N_TURNS


def test_stable_turn_ordering(flagship_df):
    ordered = flagship_df[["conv_id", "turn_idx"]]
    resorted = ordered.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert ordered.reset_index(drop=True).equals(resorted)


def test_per_turn_text_equality(flagship_df, goldens):
    """THE correctness gate: every turn's (pdf_type, markdown, error) must
    equal the per-document golden call for its payload."""
    for _, row in flagship_df.iterrows():
        h = row["pdf_sha256"]
        is_corrupt = h.startswith("corrupt:")
        gtype, gmd, gerr = goldens[h]
        if is_corrupt:
            # corrupt payloads may either parse (truncation after objects)
            # or error; golden call decides
            pass
        assert row["pdf_type"] == gtype or (
            row["pdf_type"] is None and gtype is None), row["conv_id"]
        assert row["error_kind"] == gerr, (row["conv_id"], row["turn_idx"])
        assert row["markdown"] == gmd or (
            row["markdown"] is None and gmd is None), \
            (row["conv_id"], row["turn_idx"])


def test_error_column_discipline(flagship_df):
    errs = flagship_df[flagship_df.error_kind.notna()]
    assert len(errs) > 0  # ~5% corrupt payloads must surface
    assert set(errs.error_kind.unique()) <= {"Io", "Parse", "Encrypted",
                                             "InvalidStructure"}
    assert errs.markdown.isna().all()


PART_COLS = ["conv_id", "turn_idx", "pdf_type", "markdown", "error_kind"]


@pytest.fixture(scope="module")
def salted_parts(ray_session, corpus_dir, tmp_path_factory):
    """The salted partition files of one partitioned run, read back in
    partition order as (path, DataFrame) pairs."""
    import glob

    import pyarrow.parquet as pq

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path_factory.mktemp("salted_out"))
    run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                              num_buckets=8, concurrency=4)
    return [(f, pq.read_table(f, columns=PART_COLS).to_pandas())
            for f in sorted(glob.glob(out_dir + "/part=*/data.parquet"))]


def test_salted_equals_sorted(salted_parts, flagship_df):
    """The salted partitions together hold exactly the rows of the sorted
    dataset."""
    import pandas as pd

    assert len(salted_parts) > 1
    a = flagship_df[PART_COLS].reset_index(drop=True)
    b = (pd.concat([df for _, df in salted_parts])
         .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert a.equals(b)


def test_salted_within_bucket_order(salted_parts):
    """Each salted partition file is sorted by (conv_id, turn_idx)."""
    assert salted_parts
    for f, df in salted_parts:
        keys = df[["conv_id", "turn_idx"]]
        assert keys.equals(
            keys.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)), f


def test_resume_skips_completed(ray_session, corpus_dir, tmp_path):
    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path / "out")
    m1 = run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                   num_buckets=8, concurrency=4)
    assert m1["rows"] == N_TURNS
    assert m1["partitions_written_this_run"] == m1["partitions"]
    # second run: everything skipped, outputs unchanged
    import glob
    import hashlib
    before = {p: hashlib.sha256(open(p, "rb").read()).hexdigest()
              for p in sorted(glob.glob(out_dir + "/part=*/data.parquet"))}
    m2 = run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                   num_buckets=8, concurrency=4)
    assert m2["partitions_written_this_run"] == 0
    assert m2["partitions_skipped_this_run"] == m1["partitions"]
    after = {p: hashlib.sha256(open(p, "rb").read()).hexdigest()
             for p in sorted(glob.glob(out_dir + "/part=*/data.parquet"))}
    assert before == after


def test_more_partitions_than_cpus_then_full_resume(ray_session, corpus_dir,
                                                    tmp_path):
    """64 buckets on a 4-CPU session: the finalize tasks each take several
    partitions, every touched partition gets its sidecar, and a resumed
    run over the completed output touches none."""
    import glob
    import os

    import ray

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path / "out64")
    m1 = run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                   num_buckets=64, concurrency=4)
    parts = glob.glob(out_dir + "/part=*")
    assert len(parts) > ray.cluster_resources()["CPU"]
    assert all(os.path.exists(p + "/_lineage.json") for p in parts)
    assert m1["rows"] == N_TURNS
    assert m1["partitions"] == len(parts)
    assert m1["partitions_written_this_run"] == len(parts)
    assert m1["partitions_skipped_this_run"] == 0
    m2 = run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                   num_buckets=64, concurrency=4)
    assert m2["rows"] == N_TURNS
    assert m2["partitions_written_this_run"] == 0
    assert m2["partitions_skipped_this_run"] == len(parts)


def test_partial_resume(ray_session, corpus_dir, tmp_path):
    """Kill-after-k simulation: delete some partitions' lineage, re-run,
    only those partitions are reprocessed and the result is identical."""
    import glob
    import os

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path / "out2")
    run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                              num_buckets=8, concurrency=4)
    parts = sorted(glob.glob(out_dir + "/part=*"))
    # simulate crash: nuke half the partitions
    for p in parts[: len(parts) // 2]:
        shutil.rmtree(p)
    m = run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                  num_buckets=8, concurrency=4)
    assert m["rows"] == N_TURNS
    assert m["partitions_written_this_run"] == len(parts) // 2
    assert not any(os.path.exists(p + "/.data.parquet.tmp") for p in parts)


def test_no_resume_replaces_stale_output(ray_session, corpus_dir, tmp_path):
    """resume=False over a directory holding another corpus's output leaves
    only this run's rows: the stale partitions are removed, not skipped."""
    import glob

    import pyarrow.parquet as pq

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    other_dir = str(tmp_path / "corpus_b")
    write_transcript_corpus(other_dir, 120, seed=7)
    out_dir = str(tmp_path / "out")
    run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                              num_buckets=8, concurrency=4)
    m = run_to_partitioned_output(read_transcripts(other_dir), out_dir,
                                  num_buckets=8, resume=False, concurrency=4)
    assert m["rows"] == 120
    assert m["partitions_written_this_run"] == m["partitions"]
    assert m["partitions_skipped_this_run"] == 0

    def keys(t):
        return sorted(zip(*(t[c].to_pylist()
                            for c in ("conv_id", "turn_idx", "pdf_sha256"))))

    back = [pq.read_table(f) for f in
            sorted(glob.glob(out_dir + "/part=*/data.parquet"))]
    got = [k for t in back for k in keys(t)]
    assert sorted(got) == keys(pq.read_table(other_dir))


def test_classify_pipeline(ray_session, corpus_dir):
    from pdf_inspector_ray.pipelines.flagship import (
        classify_pipeline, read_transcripts)

    out = classify_pipeline(read_transcripts(corpus_dir)).to_pandas()
    assert len(out) == N_TURNS
    ok = out[out.error_kind.isna()]
    assert set(ok.pdf_type.unique()) <= {"TextBased", "Scanned",
                                         "ImageBased", "Mixed"}


def test_golden_compare_join(ray_session, corpus_dir, flagship_df, corpus_table):
    """SURVEY §2.7 golden-compare join: 100% per-turn equality rate when
    comparing the pipeline against itself-as-golden."""
    import pyarrow as pa
    import ray.data

    from pdf_inspector_ray.functions.compare import compare_to_golden, equality_rate

    golden = pa.Table.from_pandas(
        flagship_df[["conv_id", "turn_idx", "pdf_type", "markdown",
                     "error_kind"]])
    ds = ray.data.from_pandas(flagship_df)
    verdicts = compare_to_golden(ds, golden)
    assert equality_rate(verdicts) == 1.0
    # perturb one golden row -> rate drops below 1 and names the column
    bad = golden.set_column(
        golden.schema.get_field_index("markdown"), "markdown",
        pa.array(["XX"] + golden["markdown"].to_pylist()[1:],
                 golden["markdown"].type))
    verdicts2 = compare_to_golden(ray.data.from_pandas(flagship_df), bad).to_pandas()
    assert (~verdicts2["match"]).sum() >= 1
    assert "markdown" in set(verdicts2.loc[~verdicts2["match"], "mismatch_column"])


def test_salted_partition_values_pinned():
    """The bucket of a (conv_id, turn_idx) is part of the on-disk layout: a
    resumed run finds its completed partitions by it, so the values are
    pinned. A 2000-turn conversation spans 4 stride blocks → 4 buckets."""
    from pdf_inspector_ray.pipelines.ordering import add_salted_partition

    batch = pa.table({
        "conv_id": pa.array(["conv-000000"] * 4 + ["conv-000001", "conv-mega",
                                                    "conv-mega", ""]),
        "turn_idx": pa.array([0, 511, 512, 1999, 3, 0, 1024, 0], pa.int32()),
    })
    assert add_salted_partition(batch, num_buckets=16)["part"].to_pylist() == \
        [12, 12, 13, 15, 4, 15, 1, 4]
    assert add_salted_partition(batch, num_buckets=64)["part"].to_pylist() == \
        [28, 28, 29, 31, 20, 31, 33, 4]
    mega = pa.table({"conv_id": pa.array(["conv-000000"] * 2000),
                     "turn_idx": pa.array(range(2000), pa.int32())})
    assert set(add_salted_partition(mega, num_buckets=16)["part"].to_pylist()) \
        == {12, 13, 14, 15}


def test_golden_columns_match_stage_outputs(corpus_table):
    """The frozen golden_* oracle columns must equal what the classify,
    extract and plain stages produce for the same payloads (the queries'
    DuckDB twins SELECT these columns back, so drift here = a red
    CORRECTNESS row)."""
    from pdf_inspector_ray.stages.classify import classify_batch
    from pdf_inspector_ray.stages.extract_stage import ExtractRender
    from pdf_inspector_ray.stages.plain_stage import plain_text_block

    inp = corpus_table.select(
        ["conv_id", "turn_idx", "role", "text", "tool", "ts", "pdf_sha256"])
    classified = classify_batch(inp)
    for out_col, g_col in [
        ("pdf_type", "golden_pdf_type"), ("page_count", "golden_page_count"),
        ("pages_sampled", "golden_pages_sampled"),
        ("pages_with_text", "golden_pages_with_text"),
        ("confidence", "golden_confidence"), ("title", "golden_title"),
        ("ocr_recommended", "golden_ocr_recommended"),
        ("error_kind", "golden_error_kind"),
    ]:
        assert classified[out_col].to_pylist() == corpus_table[g_col].to_pylist(), out_col
    extracted = ExtractRender()(inp)
    for out_col, g_col in [
        ("pdf_type", "golden_x_pdf_type"),
        ("page_count", "golden_x_page_count"),
        ("markdown", "golden_markdown"),
        ("error_kind", "golden_x_error_kind"),
    ]:
        assert extracted[out_col].to_pylist() == corpus_table[g_col].to_pylist(), out_col
    plain = plain_text_block(inp)
    for out_col in ("plain_text", "plain_markdown", "plain_error_kind"):
        assert plain[out_col].to_pylist() == \
            corpus_table["golden_" + out_col].to_pylist(), out_col


def test_payload_pool_goldens_cover_corpus(corpus_table):
    from pdf_inspector_ray.sources.transcripts import payload_pool_goldens

    goldens = payload_pool_goldens()
    hashes = set(corpus_table["pdf_sha256"].to_pylist())
    assert hashes <= set(goldens)


def test_orphan_shards_from_crashed_run_are_ignored(ray_session, corpus_dir,
                                                    tmp_path):
    """A run that died after writing map-side shards (but before finalize)
    leaves an orphan _shards-<nonce> dir; a later run must produce correct
    output regardless (each run uses its own nonce-scoped shard root)."""
    import glob
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path / "out")
    os.makedirs(os.path.join(out_dir, "_shards-deadbeefcafe", "part=0"),
                exist_ok=True)
    pq.write_table(
        pa.table({"conv_id": pa.array(["bogus"], pa.string()),
                  "turn_idx": pa.array([0], pa.int32()),
                  "part": pa.array([0], pa.int32())}),
        os.path.join(out_dir, "_shards-deadbeefcafe", "part=0",
                     "bogus.parquet"))

    m = run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                  num_buckets=8, concurrency=4)
    assert m["rows"] == N_TURNS
    # output contains no bogus rows
    rows = sum(pq.read_table(p).num_rows
               for p in glob.glob(out_dir + "/part=*/data.parquet"))
    assert rows == N_TURNS
    for p in glob.glob(out_dir + "/part=*/data.parquet"):
        t = pq.read_table(p, columns=["conv_id"])
        assert "bogus" not in set(t["conv_id"].to_pylist())
    # the orphan is removed at the start of the run, and the run's own
    # shard root when it ends
    assert not os.path.exists(os.path.join(out_dir, "_shards-deadbeefcafe"))
    assert glob.glob(os.path.join(out_dir, "_shards-*")) == []


def test_failed_run_removes_its_shard_root(ray_session, corpus_dir, tmp_path):
    """A run that fails after its extract tasks wrote shards (here: every
    partition directory is blocked by a plain file, so finalize raises)
    leaves no _shards-<nonce> directory behind."""
    import glob
    import os

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path / "out")
    os.makedirs(out_dir)
    for part in range(8):
        open(os.path.join(out_dir, f"part={part}"), "w").close()
    with pytest.raises(Exception):
        run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                  num_buckets=8, concurrency=4)
    assert glob.glob(os.path.join(out_dir, "_shards-*")) == []


def test_resume_with_other_num_buckets_raises(ray_session, corpus_dir,
                                              tmp_path):
    """Resuming under another bucket layout would drop every row whose new
    bucket id names a completed partition: the run must refuse before any
    work, and a sidecar without the layout (older writer) is refused too."""
    import glob
    import hashlib
    import json

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    out_dir = str(tmp_path / "out")
    run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                              num_buckets=8, concurrency=4)

    def digests(name="*"):
        return {p: hashlib.sha256(open(p, "rb").read()).hexdigest()
                for p in sorted(glob.glob(out_dir + f"/part=*/{name}"))}

    before, data_before = digests(), digests("data.parquet")
    assert data_before
    with pytest.raises(ValueError, match="num_buckets"):
        run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                  num_buckets=16, concurrency=4)
    assert digests() == before

    sidecar = sorted(glob.glob(out_dir + "/part=*/_lineage.json"))[0]
    with open(sidecar) as f:
        rec = json.load(f)
    assert (rec["num_buckets"], rec["stride"]) == (8, 512)
    del rec["num_buckets"], rec["stride"]
    with open(sidecar, "w") as f:
        json.dump(rec, f)
    with pytest.raises(ValueError, match="num_buckets"):
        run_to_partitioned_output(read_transcripts(corpus_dir), out_dir,
                                  num_buckets=8, concurrency=4)
    assert digests("data.parquet") == data_before


def _count_parses(monkeypatch, extract_stage) -> list:
    """Record each ``process_pdf_mem`` payload; pin the wall-clock
    ``processing_time_ms`` so cached and uncached rows compare equal."""
    calls = []
    real = extract_stage.process_pdf_mem

    def counting(data, *args):
        calls.append(data)
        r = real(data, *args)
        r.processing_time_ms = 0
        return r

    monkeypatch.setattr(extract_stage, "process_pdf_mem", counting)
    return calls


def _repeating_block(n_distinct: int, repeats: int) -> pa.Table:
    from pdf_inspector_ray.sources.pdfgen import fixture_pool

    pool = fixture_pool()
    distinct = [pool[k].decode("latin-1") for k in sorted(pool)[:n_distinct]]
    return pa.table({"text": pa.array(distinct * repeats + [None],
                                      pa.string())})


def test_extract_cache_scoped_to_one_run(monkeypatch):
    """Blocks under one cache scope parse each distinct payload once in
    all; a new scope parses again (nothing is served across runs); with
    no scope each call has its own cache."""
    import uuid

    from pdf_inspector_ray.stages import extract_stage

    calls = _count_parses(monkeypatch, extract_stage)
    block = _repeating_block(3, 4)
    run = uuid.uuid4().hex
    out = extract_stage.extract_block(block, cache_scope=run)
    assert out.num_rows == 13
    assert len(calls) == len(set(calls)) == 3
    assert out["markdown"].to_pylist()[:3] == out["markdown"].to_pylist()[3:6]
    again = extract_stage.extract_block(block.slice(2), cache_scope=run)
    assert len(calls) == 3
    assert again.equals(out.slice(2))
    extract_stage.extract_block(block, cache_scope=uuid.uuid4().hex)
    assert len(calls) == 6
    extract_stage.extract_block(block, cache_scope=run)  # run was replaced
    assert len(calls) == 9
    assert extract_stage.extract_block(block).equals(out)
    extract_stage.extract_block(block)
    assert len(calls) == 15


def test_extract_cache_restarts_past_byte_cap(monkeypatch):
    """Past ``CACHE_MAX_BYTES`` the run cache starts over: with a cap no
    entry fits under, it holds the last payload only, so a payload parses
    again after any other one; the output equals a cache-off run."""
    import uuid

    from pdf_inspector_ray.stages import extract_stage

    calls = _count_parses(monkeypatch, extract_stage)
    one = _repeating_block(2, 1)["text"].to_pylist()
    p0, p1 = one[0], one[1]
    block = pa.table({"text": pa.array([p0, p0, p1, p1, p0, None],
                                       pa.string())})
    off = extract_stage.extract_block(block, use_payload_cache=False)
    assert len(calls) == 5
    del calls[:]

    run = uuid.uuid4().hex
    assert extract_stage.extract_block(block, cache_scope=run).equals(off)
    assert calls == [p0.encode("latin-1"), p1.encode("latin-1")]
    monkeypatch.setattr(extract_stage, "CACHE_MAX_BYTES", 1)
    del calls[:]
    run = uuid.uuid4().hex
    assert extract_stage.extract_block(block, cache_scope=run).equals(off)
    assert calls == [p.encode("latin-1") for p in (p0, p1, p0)]
    extract_stage.extract_block(block.slice(4), cache_scope=run)
    assert len(calls) == 3      # p0 was the last entry kept
    scoped, cache = extract_stage._run_cache
    assert scoped == run and list(cache) == [p0]


def test_run_cache_per_worker_per_run(ray_session, tmp_path):
    """The durable job over a repeating corpus read as 8 blocks parses each
    distinct payload at most once per extract worker, reports it in
    ``rows_parsed``, writes the same sidecar content hashes as a cache-off
    run, and a second run in the same session parses again."""
    import glob
    import json

    import ray

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    corpus = str(tmp_path / "corpus")
    write_transcript_corpus(corpus, 1600, seed=3)
    table = build_transcript_table(1600, seed=3)
    n_distinct = len(set(table["text"].to_pylist()))
    assert read_transcripts(corpus, num_blocks=8).materialize() \
        .num_blocks() >= 4
    workers = int(ray.cluster_resources()["CPU"])

    def run(name, **kwargs):
        out_dir = str(tmp_path / name)
        m = run_to_partitioned_output(read_transcripts(corpus, num_blocks=8),
                                      out_dir, num_buckets=8, concurrency=4,
                                      **kwargs)
        hashes = {}
        for f in glob.glob(out_dir + "/part=*/_lineage.json"):
            with open(f) as fh:
                hashes[f[len(out_dir):]] = json.load(fh)["content_sha256"]
        return m, hashes

    m_on, on = run("on")
    assert m_on["rows"] == 1600
    assert n_distinct <= m_on["rows_parsed"] <= n_distinct * workers
    assert m_on["payload_cache_hit_rate"] == 1 - m_on["rows_parsed"] / 1600
    m_again, again = run("again")
    assert m_again["rows_parsed"] >= n_distinct
    m_off, off = run("off", use_payload_cache=False)
    assert m_off["rows_parsed"] == 1600
    assert m_off["payload_cache_hit_rate"] == 0.0
    assert on and on == again == off


def test_non_latin1_str_payload_is_a_parse_row():
    """A str payload that latin-1 cannot encode is a typed ``Parse`` row in
    every PDF stage, and the other rows of its block still come out."""
    from pdf_inspector_ray.pdfi.detect import detect_pdf_type_mem
    from pdf_inspector_ray.pdfi.process import process_pdf_mem
    from pdf_inspector_ray.sources.pdfgen import fixture_pool
    from pdf_inspector_ray.stages.classify import classify_batch
    from pdf_inspector_ray.stages.extract_stage import extract_block
    from pdf_inspector_ray.stages.plain_stage import plain_text_block
    from pdf_inspector_ray.stages.routed import routed_block

    pdf = fixture_pool()["f01_tj_simple"]
    block = pa.table({"text": pa.array(
        [pdf.decode("latin-1"), "plain chat turn \u2014 with a dash",
         "%PDF-1.4 \u2014 not latin-1", pdf.decode("latin-1")], pa.string())})
    markdown = process_pdf_mem(pdf).markdown
    extracted = extract_block(block)
    assert extracted["error_kind"].to_pylist() == [None, "Parse", "Parse", None]
    assert extracted["markdown"].to_pylist() == [markdown, None, None, markdown]
    classified = classify_batch(block)
    assert classified["error_kind"].to_pylist() == [None, "Parse", "Parse", None]
    assert classified["pdf_type"][3].as_py() == detect_pdf_type_mem(pdf).pdf_type
    plain = plain_text_block(block)
    assert plain["plain_error_kind"].to_pylist() == [None, "Parse", "Parse", None]
    routed = routed_block(block)
    assert routed["payload_kind"].to_pylist() == ["pdf", "unknown", "pdf", "pdf"]
    assert routed["error_kind"].to_pylist() == \
        [None, "UnknownPayload", "Parse", None]
    assert routed["markdown"].to_pylist() == [markdown, None, None, markdown]


def test_plain_stage_null_and_binary_payloads():
    """The plain stage gives ``Io`` for a null payload, like every other
    stage, and the same columns for a binary payload column as for the
    same bytes stored as latin-1 text."""
    from pdf_inspector_ray.sources.pdfgen import fixture_pool
    from pdf_inspector_ray.stages.plain_stage import (
        PLAIN_FIELDS, plain_text_block)

    pool = fixture_pool()
    pdfs = [pool[k] for k in sorted(pool)]
    as_text = plain_text_block(pa.table({"text": pa.array(
        [p.decode("latin-1") for p in pdfs] + [None], pa.string())}))
    as_bytes = plain_text_block(pa.table({"text": pa.array(
        pdfs + [None], pa.binary())}))
    assert as_text["plain_error_kind"][-1].as_py() == "Io"
    assert as_text["plain_text"].null_count < len(pdfs) // 2
    for name, _ in PLAIN_FIELDS:
        assert as_bytes[name].to_pylist() == as_text[name].to_pylist(), name


def test_extract_pipeline_matches_stage(ray_session, corpus_dir, corpus_table):
    """The task-per-block pipeline gives the rows the stage gives when
    called on the whole table (processing_time_ms aside)."""
    import pyarrow.compute as pc

    from pdf_inspector_ray.pipelines.flagship import (
        INPUT_COLUMNS, extract_pipeline, read_transcripts)
    from pdf_inspector_ray.stages.extract_stage import ExtractRender

    def rows(t):
        t = t.drop_columns(["processing_time_ms"])
        order = pc.sort_indices(t, sort_keys=[("conv_id", "ascending"),
                                              ("turn_idx", "ascending")])
        return t.take(order).to_pylist()

    got = pa.concat_tables(extract_pipeline(
        read_transcripts(corpus_dir), concurrency=2).iter_batches(
            batch_format="pyarrow", batch_size=None))
    want = ExtractRender()(corpus_table.select(INPUT_COLUMNS))
    assert got.column_names == want.column_names
    assert rows(got) == rows(want)


def test_partitioned_run_leaves_no_cpu_held(ray_session, corpus_dir, tmp_path):
    """Once run_to_partitioned_output returns, no extract worker holds a
    CPU: the cluster is back to all CPUs free within 2 s."""
    import gc
    import time

    import ray

    from pdf_inspector_ray.pipelines.flagship import (
        read_transcripts, run_to_partitioned_output)

    total = ray.cluster_resources()["CPU"]
    gc.collect()  # release pools left by earlier tests' datasets
    deadline = time.monotonic() + 30
    while (ray.available_resources().get("CPU", 0) < total
           and time.monotonic() < deadline):
        time.sleep(0.05)
    run_to_partitioned_output(read_transcripts(corpus_dir),
                              str(tmp_path / "out"), num_buckets=8,
                              concurrency=4)
    deadline = time.monotonic() + 2
    while (ray.available_resources().get("CPU", 0) < total
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert ray.available_resources().get("CPU", 0) == total


def test_salting_splits_mega_conversation():
    """A 2000-turn conversation must spread over multiple salted buckets
    with each bucket holding at most `stride` of its turns — the skew
    guarantee the ordering shuffle relies on."""
    import collections

    import pyarrow as pa

    from pdf_inspector_ray.pipelines.ordering import (
        DEFAULT_STRIDE, add_salted_partition)

    n = 2000
    batch = pa.table({
        "conv_id": pa.array(["conv-mega"] * n, pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
    })
    parts = add_salted_partition(batch, num_buckets=16)["part"].to_pylist()
    counts = collections.Counter(parts)
    assert len(counts) >= 3  # spread across buckets
    assert max(counts.values()) <= 2 * DEFAULT_STRIDE  # no hot reducer


def test_conv_stats_partials(ray_session):
    import pyarrow as pa
    import ray.data
    from pdf_inspector_ray.pipelines.flagship import conv_stats

    t = pa.table({
        "conv_id": pa.array(["a", "a", "a", "b"]),
        "turn_idx": pa.array([0, 1, 2, 0], pa.int32()),
        "text": pa.array(["héllo", "xy", None, "zzz"]),
        "tool": pa.array(["", "pdf_reader", "pdf_reader", None]),
    })
    out = (conv_stats(ray.data.from_arrow(t).repartition(2))
           .to_pandas().sort_values("conv_id").reset_index(drop=True))
    assert list(out.n_turns) == [3, 1]
    assert list(out.n_tool_calls) == [2, 0]
    assert list(out.sum_chars) == [7, 3]  # utf8 codepoints, null -> 0
    assert list(out.max_turn_idx) == [2, 0]


def test_conv_turn_gaps_single_turn_null(ray_session):
    import pyarrow as pa
    import ray.data
    from pdf_inspector_ray.pipelines.flagship import conv_turn_gaps

    ts = pa.array([0, 5_000_000, 7_000_000, 99],
                  pa.timestamp("us"))
    t = pa.table({
        "conv_id": pa.array(["a", "a", "a", "b"]),
        # turn order deliberately scrambled vs row order
        "turn_idx": pa.array([2, 0, 1, 0], pa.int32()),
        "ts": ts,
    })
    out = (conv_turn_gaps(ray.data.from_arrow(t).repartition(2))
           .to_pandas().sort_values("conv_id").reset_index(drop=True))
    # conv a ordered by turn_idx: ts 5s, 7s, 0s -> gaps +2s, -7s
    import pandas as pd
    assert list(out.n_gaps) == [2, 0]
    assert out.sum_gap_us[0] == -5_000_000 and pd.isna(out.sum_gap_us[1])
    assert out.max_gap_us[0] == 2_000_000 and pd.isna(out.max_gap_us[1])
