#!/usr/bin/env python3
"""Benchmark of the package's public pipelines on one workload.

    python3 perfbench/run.py --workload fixture_repeat --seed 1 \
        --seconds 6 --trace 0

Run from the repository root. The run imports the package, starts a local
Ray cluster sized from the host's CPU count, builds the workload's input
from ``--seed`` (cached under ``.bench_cache/``), runs one untimed warm-up
job and then the workload's job again and again for ``--seconds``, checking
every output row of every job. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (input rows) and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` also replays
the workload's input through each layer in this process, without Ray, once
untraced and once with spans, and reports the per-layer metrics; the spans
are written to ``.bench_cache/traces/``. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_LIMIT_S = 160       # no job starts after this; the child process is
                        # stopped 8 s later, so a run ends within 3 minutes
CHILD_ENV = "PERFBENCH_CHILD"
JOB_LIMIT_S = 60        # one job; a hung job (e.g. an actor that restarts
                        # forever because workers cannot import) fails here
MIN_JOBS = 3            # timed jobs per run, at least: the wall is a median
SETUP_SAMPLES = 3       # ray.init samples per run; setup_s uses the median
OBJECT_STORE_MB = 256


class JobTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def host_cpus() -> int:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10)
        return max(1, int(out.stdout))
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def clock_probe(n: int = 2_000_000) -> float:
    """Spin-loop rate in Mops/s, as bench.py records it: a cheap proxy for
    the clock the run got (turbo state, neighbours' load)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i
    return round(n / (time.perf_counter() - t0) / 1e6, 1)


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def ray_temp_dir() -> str | None:
    """Ray's session directory, inside the checkout when its socket paths
    fit the 107-byte AF_UNIX limit, else Ray's default. The longest is
    ``<dir>/session_<26-char time>_<pid>/sockets/plasma_store``: the
    directory plus at most 64 bytes."""
    path = os.path.join(ROOT, ".ray")
    return path if len(path.encode()) + 64 <= 107 else None


def start_ray(num_cpus: int) -> None:
    import ray

    # Idle workers are kept for the whole run: Ray's default reaps them
    # after 1 s, and whether a job then finds a warm worker or forks a new
    # one moved job walls on one core by up to 2x.
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             log_to_driver=False, object_store_memory=OBJECT_STORE_MB << 20,
             _temp_dir=ray_temp_dir(),
             _system_config={"idle_worker_killing_time_threshold_ms":
                             RUN_LIMIT_S * 1000})


def _proc_status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants() -> dict[int, str]:
    """Processes descended from this one: pid -> state letter (``Z`` for
    a zombie)."""
    proc: dict[int, tuple[int, str]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                proc[int(d)] = (int(fields[1]), fields[0])
            except (OSError, IndexError, ValueError):
                continue
    me, out = os.getpid(), {}
    for pid, (ppid, state) in proc.items():
        p, seen = ppid, 0
        while p and p != me and seen < 64:
            p, seen = proc.get(p, (0, ""))[0], seen + 1
        if p == me:
            out[pid] = state
    return out


def ray_worker_pids() -> list[int]:
    """Ray worker processes (titled ``ray::…``) descended from this one."""
    out = []
    for pid, state in descendants().items():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if state != "Z" and f.read().startswith(b"ray::"):
                    out.append(pid)
        except OSError:
            continue
    return out


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts: a Ray
    worker or agent whose raylet has exited is then re-parented here, not
    to init, and ``end_descendants`` still finds it."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_descendants(grace_s: float = 2.0, limit_s: float = 6.0) -> list:
    """Stop every process this one started, directly or not, and wait
    until each has ended. ``ray.shutdown`` kills the head processes but
    leaves the raylet's workers and agents to notice on their own, which
    took seconds on a loaded host. They get SIGTERM, then SIGKILL after
    ``grace_s``. Prints and returns the pids still present after
    ``limit_s``."""
    t0 = time.monotonic()
    while True:
        while True:     # reap the zombies re-parented here
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break
        live = descendants()
        waited = time.monotonic() - t0
        if live and waited > limit_s:
            print(f"perfbench: processes still present: {sorted(live)}",
                  file=sys.stderr)
        if not live or waited > limit_s:
            return sorted(live)
        sig = signal.SIGKILL if waited > grace_s else signal.SIGTERM
        for pid, state in live.items():
            if state != "Z":
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def stop_ray() -> None:
    import ray

    try:
        ray.shutdown()
    finally:
        end_descendants()


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and the live Ray worker processes."""
    pids = [os.getpid()] + ray_worker_pids()
    return sum(_proc_status_kb(p, "VmHWM") for p in pids) / 1024


# -- jobs -------------------------------------------------------------------

@dataclasses.dataclass
class Job:
    wall: float
    outputs: dict            # output name -> pa.Table of checked columns
    op_walls: dict           # operator name -> wall (sweeps only)
    stats: dict              # operator name -> Dataset stats summary


def _collect(ds, columns: list[str]):
    import pyarrow as pa

    return pa.concat_tables(b.select(columns) for b in ds.iter_batches(
        batch_format="pyarrow", batch_size=None))


def run_job(w, files: list[str], work_dir: str, pool: int,
            columns: dict[str, list[str]]) -> Job:
    """One job through the package's public entry points."""
    from pdf_inspector_ray.pipelines import flagship

    import replay

    if w.kind == "extract":
        out_dir = os.path.join(work_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        flagship.run_to_partitioned_output(
            flagship.read_transcripts(files), out_dir, concurrency=pool)
        wall = time.perf_counter() - t0
        return Job(wall, {"extract": replay.read_partitions(out_dir)}, {}, {})
    if w.kind == "classify":
        t0 = time.perf_counter()
        ds = flagship.classify_pipeline(flagship.read_transcripts(files))
        out = _collect(ds, columns["classify"])
        wall = time.perf_counter() - t0
        return Job(wall, {"classify": out}, {},
                   {"classify": ds._get_stats_summary()})
    import __ray_entry__

    queries = __ray_entry__.queries()
    outputs, op_walls, stats = {}, {}, {}
    events_dir = os.path.dirname(files[0])
    for name in columns:
        t0 = time.perf_counter()
        ds = queries[name](events_dir)
        outputs[name] = _collect(ds, columns[name])
        op_walls[name] = time.perf_counter() - t0
        stats[name] = ds._get_stats_summary()
    return Job(sum(op_walls.values()), outputs, op_walls, stats)


def wait_idle(num_cpus: int, limit_s: float = 30.0) -> None:
    """Start each job on an idle cluster. Ray Data releases a finished
    job's actor pool only when the dataset is garbage-collected; a pool
    still holding its CPU left the next job's reads unschedulable and
    stalled it by 10-20 s."""
    import gc

    import ray

    gc.collect()
    t_end = time.monotonic() + limit_s
    while (ray.available_resources().get("CPU", 0) < num_cpus
           and time.monotonic() < t_end):
        time.sleep(0.05)


_SHUFFLE_OP = re.compile(r"Sort|Aggregate|Repartition|Shuffle")


def op_wall_categories(summary) -> dict[str, float]:
    """Operator walls of one executed Dataset, summed per kind of operator:
    read, map, shuffle, and group_udf (a map after the shuffle). They are
    the ``time_total_s`` that ``Dataset.stats()`` prints rounded to 10 ms,
    taken unrounded from its summary. Kinds the plan lacks are left out."""
    ops: list[tuple[str, float]] = []

    def walk(s):
        for parent in s.parents:
            walk(parent)
        if len(s.operators_stats) > 1:  # e.g. Sort: SortMap + SortReduce
            ops.append((s.base_name, s.time_total_s))
        else:
            ops.extend((o.operator_name, o.time_total_s)
                       for o in s.operators_stats)

    walk(summary)
    out: dict[str, float] = {}
    shuffled = False
    for name, wall in ops:
        if _SHUFFLE_OP.search(name):
            kind, shuffled = "shuffle", True
        elif "Map" in name:
            kind = "group_udf" if shuffled else "map"
        else:
            kind = "read"
        out[kind] = out.get(kind, 0.0) + wall
    return out


# -- the run ----------------------------------------------------------------

def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


class Run:
    """One benchmark run: inputs, Ray session, timed jobs, checks."""

    def __init__(self, w, seed: int, deadline: float):
        import workloads as W

        self.w, self.seed, self.deadline = w, seed, deadline
        self.files = W.input_files(w, seed)
        self.expected = W.expected_outputs(w, seed, self.files)
        self.inputs = W.read_inputs(self.files)
        self.digest_ok = W.frozen_digest_ok(w)
        self.bad_payloads = (W.golden_mismatches() if w.corpus == "fixture"
                             else set())
        self.columns = {k: t.column_names for k, t in self.expected.items()}
        self.work_dir = os.path.join(W.CACHE, "work", w.name)
        self.attempted = self.failed = 0
        self.error: str | None = None   # of the job that raised or hung

    def check(self, outputs: dict) -> None:
        """Count one job's output against the expected rows."""
        import workloads as W

        n = self.inputs.num_rows
        self.attempted += n
        self.failed += n if not self.digest_ok else W.count_bad(
            self.w, outputs, self.expected, self.inputs, self.bad_payloads)

    def timed_jobs(self, pool: int, ray_cpus: int,
                   seconds: float) -> list[Job]:
        """One warm-up job (checked, not timed: the first job of a session
        starts the worker processes), then jobs until ``seconds`` have
        passed and at least MIN_JOBS ran. A job that raises or runs over
        its time limit fails all its rows and ends the loop."""
        jobs: list[Job] = []
        signal.signal(signal.SIGALRM, _on_alarm)
        t_end = None
        try:
            while t_end is None or len(jobs) < MIN_JOBS \
                    or time.perf_counter() < t_end:
                self._arm()
                job = run_job(self.w, self.files, self.work_dir, pool,
                              self.columns)
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.check(job.outputs)
                wait_idle(ray_cpus)
                if t_end is None:
                    t_end = time.perf_counter() + seconds
                else:
                    jobs.append(job)
        except Exception as e:  # JobTimeout included: the run must report
            signal.setitimer(signal.ITIMER_REAL, 0)
            traceback.print_exc()
            self.error = "timeout" if isinstance(e, JobTimeout) else repr(e)
            self.attempted += self.inputs.num_rows
            self.failed += self.inputs.num_rows
        return jobs

    def _arm(self) -> None:
        budget = min(JOB_LIMIT_S, self.deadline - time.monotonic())
        if budget <= 0:
            raise JobTimeout()
        signal.setitimer(signal.ITIMER_REAL, budget)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.digest_ok and self.error is None


def measure(w, seed: int, seconds: float, trace: bool, deadline: float,
            import_s: float) -> tuple[dict, dict]:
    """Returns (result, conditions)."""
    import ray
    import ray.data

    import workloads as W

    run = Run(w, seed, deadline)
    n_cpus = host_cpus()
    pool, ray_cpus = n_cpus, n_cpus + 1   # one slot for read/finalize tasks
    # Workers import the package whatever their working directory.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    init_s = []
    for i in range(1 if trace else SETUP_SAMPLES):
        if i:
            stop_ray()
        t0 = time.perf_counter()
        start_ray(ray_cpus)
        init_s.append(time.perf_counter() - t0)
    ray.data.DataContext.get_current().enable_progress_bars = False
    try:
        jobs = run.timed_jobs(pool, ray_cpus, seconds)
        rss_mb = peak_rss_mb()
    finally:
        stop_ray()

    walls = [j.wall for j in jobs]
    conditions = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "nproc": n_cpus, "ray_cpus": ray_cpus, "extract_pool": pool,
        "ray_version": ray.__version__, "python": platform.python_version(),
        "commit": commit(), "source_digest": W.source_digest(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "clock_probe_mops": clock_probe(), "input_rows": run.inputs.num_rows,
        "import_s": round(import_s, 4),
        "ray_init_s": [round(x, 4) for x in init_s],
        "job_walls_s": [round(x, 4) for x in walls],
        "frozen_digest_ok": run.digest_ok,
        "golden_mismatches": len(run.bad_payloads),
        "error": run.error,
    }
    metrics: dict[str, dict] = {}
    if walls and not trace:
        job_wall = statistics.median(walls)
        metrics = {
            "rows_per_s": {"value": run.inputs.num_rows / job_wall,
                           "unit": "1/s"},
            "setup_s": {"value": import_s + statistics.median(init_s),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    elif walls:
        units = per_layer_units()
        values = traced_metrics(run, statistics.median(walls), jobs, units)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in sorted(values.items())}
    conditions["failed_frac"] = {"value": run.failed / max(1, run.attempted),
                                 "unit": "fraction"}
    result = {"correct": run.correct, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": metrics}
    return result, conditions


def traced_metrics(run: Run, job_wall: float, jobs: list[Job],
                   names) -> dict[str, float]:
    """Per-layer metrics ``names``: median Ray operator walls of the
    untraced jobs, then an untraced and a traced in-process replay, each
    output checked. A metric the workload does not produce reads 0."""
    import pyarrow.compute as pc

    import replay
    import workloads as W

    w = run.w
    metrics = dict.fromkeys(names, 0.0)
    metrics["perfbench.job_wall_s"] = job_wall
    op_walls: dict[str, list[float]] = {}
    for job in jobs:
        for op, summary in job.stats.items():
            for kind, wall in op_wall_categories(summary).items():
                op_walls.setdefault(f"ray_data.op_wall_s.{op}.{kind}",
                                    []).append(wall)
    metrics.update((k, statistics.median(v)) for k, v in op_walls.items()
                   if k in metrics)
    if w.kind == "sweeps":
        groups = pc.count_distinct(run.inputs["user_id"]).as_py()
        for op in W.SWEEP_KEYS:
            metrics[f"functions.relational.{op}.groups_per_s"] = (
                groups / statistics.median(j.op_walls[op] for j in jobs))
        return metrics

    work_dir = os.path.join(W.CACHE, "work", w.name + "-replay")
    walls: dict[bool, float] = {}
    part_rows = None
    for tracer in (None, replay.Tracer(w.name)):
        t0 = time.perf_counter()
        if w.kind == "extract":
            out, part_rows = replay.replay_flagship(run.files, work_dir,
                                                    tracer)
        else:
            out = replay.replay_classify(run.files, tracer)
        walls[tracer is not None] = time.perf_counter() - t0
        run.check({w.kind: out})
    shutil.rmtree(work_dir, ignore_errors=True)
    metrics["perfbench.replay_wall_s"] = walls[False]
    metrics["perfbench.traced_replay_wall_s"] = walls[True]
    metrics.update(replay.layer_metrics(tracer, run.inputs.num_rows,
                                        job_wall, part_rows))
    tracer.write(os.path.join(W.CACHE, "traces",
                              f"{w.name}-s{run.seed}.jsonl"))
    return metrics


def _on_term(signum, _frame):
    raise SystemExit(128 + signum)


def _die_with_parent() -> None:
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                            signal.SIGKILL, 0, 0, 0)


def main(argv: list[str] | None = None) -> int:
    """Runs the benchmark in a child process and, whatever way the child
    ends, stops every process it left behind before returning. The child
    cannot promise that itself: Ray may end a driver process from one of
    its own threads (e.g. on a signal during a job) before the driver's
    ``finally`` blocks run, and the raylet's workers and agents outlive
    ``ray.shutdown``."""
    if os.environ.get(CHILD_ENV) == "1":
        return _main(argv)
    adopt_orphans()
    for sig in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(sig, _on_term)
    args = sys.argv[1:] if argv is None else argv
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                              *args], env={**os.environ, CHILD_ENV: "1"},
                             preexec_fn=_die_with_parent)
    try:
        rc = child.wait(timeout=RUN_LIMIT_S + 8)
        return rc if rc >= 0 else 128 - rc
    except subprocess.TimeoutExpired:
        print("perfbench: the run went over its time limit", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=2)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        end_descendants()


def _main(argv: list[str] | None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    adopt_orphans()     # stop_ray then finds the raylet's orphans here
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [p for p in (HERE, ROOT) if p not in sys.path]
    t0 = time.perf_counter()
    try:
        import ray.data  # noqa: F401

        import __ray_entry__  # noqa: F401
        import pdf_inspector_ray.pipelines.flagship  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the package: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    result, conditions = measure(W.WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace), deadline,
                                 import_s)
    os.makedirs(os.path.join(W.CACHE, "results"), exist_ok=True)
    with open(os.path.join(W.CACHE, "results",
                           f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as f:
        json.dump({"conditions": conditions, **result}, f, indent=1)
    print("perfbench conditions: " + json.dumps(conditions))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
