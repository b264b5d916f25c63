"""Self-tests of the benchmark: every workload at a tiny size through Ray,
the checker failing when it should, and the exit code without the package.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

import replay  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 5
TINY = {"prose_unique": 24, "fixture_repeat": 200, "classify_fixture": 200,
        "user_sweeps": 60}


def tiny(name: str) -> W.Workload:
    w = W.WORKLOADS[name]
    return dataclasses.replace(w, size=TINY[name],
                               rows_per_file=min(w.rows_per_file,
                                                 TINY[name] // 2))


@pytest.fixture(scope="module")
def ray_session():
    import ray
    import ray.data

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    run.start_ray(2)
    ray.data.DataContext.get_current().enable_progress_bars = False
    yield
    run.stop_ray()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_at_tiny_size(ray_session, name, tmp_path):
    w = tiny(name)
    files = W.input_files(w, SEED)
    expected = W.expected_outputs(w, SEED, files)
    inputs = W.read_inputs(files)
    columns = {k: t.column_names for k, t in expected.items()}
    job = run.run_job(w, files, str(tmp_path), 1, columns)
    assert job.wall > 0
    assert W.count_bad(w, job.outputs, expected, inputs) == 0


def test_inputs_are_a_function_of_the_seed():
    w = tiny("prose_unique")
    a = W.transcript_table(w.corpus, w.size, SEED)
    b = W.transcript_table(w.corpus, w.size, SEED)
    c = W.transcript_table(w.corpus, w.size, SEED + 1)
    assert a.equals(b) and not a.equals(c)
    assert a["pdf_sha256"].to_pylist() != c["pdf_sha256"].to_pylist()
    # prose payloads never repeat
    assert len(set(a["text"].to_pylist())) == a.num_rows


def _extract_case():
    w = tiny("fixture_repeat")
    files = W.input_files(w, SEED)
    expected = W.expected_outputs(w, SEED, files)["extract"]
    return w, expected, W.read_inputs(files)


def test_corrupted_dropped_or_duplicated_row_is_failed():
    w, expected, inputs = _extract_case()
    assert W.count_bad(w, {"extract": expected}, {"extract": expected},
                       inputs) == 0
    md = expected["markdown"].to_pylist()
    i = next(j for j, v in enumerate(md) if v)
    md[i] = md[i] + "x"
    corrupted = expected.set_column(
        expected.schema.get_field_index("markdown"), "markdown",
        pa.array(md, expected.schema.field("markdown").type))
    dropped = expected.slice(1)
    duplicated = pa.concat_tables([expected, expected.slice(3, 1)])
    for got in (corrupted, dropped, duplicated):
        assert W.count_bad(w, {"extract": got}, {"extract": expected},
                           inputs) == 1


def test_sweeps_bad_row_fails_every_event_of_its_user():
    w = tiny("user_sweeps")
    files = W.input_files(w, SEED)
    expected = W.expected_outputs(w, SEED, files)
    inputs = W.read_inputs(files)
    rt = expected["running_totals"]
    user = rt["user_id"][0].as_py()
    cum = rt["cum_cents"].to_pylist()
    cum[0] += 1
    got = dict(expected, running_totals=rt.set_column(
        rt.schema.get_field_index("cum_cents"), "cum_cents",
        pa.array(cum, pa.int64())))
    n_events = inputs["user_id"].to_pylist().count(user)
    assert W.count_bad(w, got, expected, inputs) == n_events


def test_golden_mismatch_fails_turns_carrying_the_payload():
    w, expected, inputs = _extract_case()
    sha = inputs["pdf_sha256"][0].as_py()
    n = inputs["pdf_sha256"].to_pylist().count(sha)
    assert W.count_bad(w, {"extract": expected}, {"extract": expected},
                       inputs, {sha}) == n
    assert W.golden_mismatches() == set()


def test_frozen_digests_match():
    for w in W.WORKLOADS.values():
        assert W.frozen_digest_ok(w), w.name


def test_traced_replay_matches_and_reports_layers(tmp_path):
    w, expected, inputs = _extract_case()
    tracer = replay.Tracer(w.name)
    files = W.input_files(w, SEED)
    out, part_rows = replay.replay_flagship(files, str(tmp_path), tracer)
    assert W.count_bad(w, {"extract": out}, {"extract": expected},
                       inputs) == 0
    m = replay.layer_metrics(tracer, inputs.num_rows, 1.0, part_rows)
    assert set(m) <= set(run.per_layer_units())  # named in BENCHMARK.json
    assert m["pdfi.process.samples"] > 0
    assert m["pdfi.objects.load_ms_per_doc"] > 0
    assert 0 < m["stages.extract_stage.cache_hit_rate"] < 1
    assert m["pdfi.process.error_docs"] > 0  # truncated payloads raise
    assert sum(part_rows.values()) == inputs.num_rows
    names = {s[0] for s in tracer.spans}
    assert set(replay.PHASES) <= names
    keyed = [s for s in tracer.spans if s[0] == replay.PROCESS]
    assert all(s[4] is not None for s in keyed)
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent",
                          "workload", "key", "raised"}
    # the replay restores every name it wrapped
    from pdf_inspector_ray.stages import extract_stage
    from pdf_inspector_ray.pdfi.process import process_pdf_mem
    assert extract_stage.process_pdf_mem is process_pdf_mem


def test_op_wall_categories():
    from types import SimpleNamespace as NS

    def summary(ops, parent=None, base_name=None, total=None):
        return NS(operators_stats=[NS(operator_name=n, time_total_s=t)
                                   for n, t in ops],
                  parents=[parent] if parent else [],
                  base_name=base_name, time_total_s=total)

    read = summary([("ReadParquet->SplitBlocks(4)", 0.5)])
    pre = summary([("MapBatches(prefilter)", 0.25)], read)
    # a multi-operator stage counts its own wall, not its parts'
    sort = summary([("SortMap", 0.01), ("SortReduce", 0.01)], pre, "Sort", 2.0)
    plan = summary([("MapBatches(sweep)", 1.5)], sort)
    assert run.op_wall_categories(plan) == {
        "read": 0.5, "map": 0.25, "shuffle": 2.0, "group_udf": 1.5}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture_repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_end_descendants_stops_orphaned_grandchildren():
    # The shell exits at once, leaving two sleeps whose parent is gone.
    script = """
import json, subprocess, run
run.adopt_orphans()
sh = "for i in 1 2; do sleep 60 >/dev/null 2>&1 & echo $!; done"
pids = sorted(map(int, subprocess.run(["sh", "-c", sh], text=True,
                                      stdout=subprocess.PIPE).stdout.split()))
print(json.dumps([pids, sorted(run.descendants()), run.end_descendants()]))
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    pids, adopted, left = json.loads(out.stdout)
    assert len(pids) == 2 and adopted == pids and left == []
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}")
