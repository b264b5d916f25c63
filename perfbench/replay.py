"""In-process replay of a workload's layers, with optional tracing.

The replay calls, without Ray, the same public functions the Ray job runs,
in the job's order: read each input file, salt it, run it through one
``ExtractAndShard`` (the one-actor pool), then finalize each partition; or
read each file and run ``classify_batch`` on it. With a ``Tracer`` it
records a span around every layer call, and around the per-document library
phases by wrapping the names the library calls them through for the
duration of the replay.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

# Span names. Per-document spans carry the (conv_id, turn_idx) row key.
READ = "pipelines.flagship.read"
SALT = "pipelines.ordering.salt"
SHARD_CALL = "stages.extract_stage.call"
BATCH = "stages.extract_stage.process_batch"
ROW = "stages.extract_stage.row"
FINALIZE = "state.checkpoint.finalize"
CLASSIFY = "stages.classify.batch"
PROCESS = "pdfi.process"
# process_pdf_mem's five phases, in its order: span name -> metric
PHASES = {"pdfi.objects.load": "pdfi.objects.load_ms_per_doc",
          "pdfi.detect": "pdfi.detect.ms_per_doc",
          "pdfi.tounicode": "pdfi.tounicode.ms_per_doc",
          "pdfi.extract": "pdfi.extract.ms_per_doc",
          "pdfi.markdown": "pdfi.markdown.ms_per_doc"}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, key, raised]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.keys: list = []      # row keys of the batch being processed
        self._cursor = 0

    @contextlib.contextmanager
    def span(self, name: str, key=None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter_ns(), 0, parent, key, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def set_batch_keys(self, batch: pa.Table, payload_column: str = "text"):
        """Row keys of the rows a stage will hand to the library, in order
        (the stages skip null payloads)."""
        self.keys = [(c, t) for c, t, p in zip(
            batch["conv_id"].to_pylist(), batch["turn_idx"].to_pylist(),
            batch[payload_column].is_valid().to_pylist()) if p]
        self._cursor = 0

    def next_key(self):
        i, self._cursor = self._cursor, self._cursor + 1
        return self.keys[i] if i < len(self.keys) else None

    def wrap(self, fn, name: str, keyed: bool = False):
        def traced(*args, **kwargs):
            with self.span(name, self.next_key() if keyed else None):
                return fn(*args, **kwargs)
        return traced

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, (name, start, end, parent, key, raised) in enumerate(
                    self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "workload": self.workload,
                    "key": list(key) if isinstance(key, tuple) else key,
                    "raised": raised}))
                f.write("\n")


@contextlib.contextmanager
def _patched(tracer: Tracer | None):
    """Route the library's layer calls through the tracer's spans."""
    if tracer is None:
        yield
        return
    from pdf_inspector_ray.pdfi import detect, objects, process, tounicode
    from pdf_inspector_ray.stages import classify, extract_stage

    def swap(owner, attr, name, keyed=False):
        """Wrap ``owner.attr``; a name the library no longer has is left
        alone and its layer reads 0."""
        original = vars(owner).get(attr)
        if original is None:
            return lambda: None
        target = getattr(owner, attr)  # bound, for classmethods
        wrapped = tracer.wrap(target, name, keyed)
        setattr(owner, attr,
                staticmethod(wrapped) if isinstance(owner, type) else wrapped)
        return lambda: setattr(owner, attr, original)

    undo = [
        swap(objects.Document, "load_mem", "pdfi.objects.load"),
        swap(process, "detect_from_document", "pdfi.detect"),
        swap(detect, "detect_from_document", "pdfi.detect"),
        swap(tounicode.FontCMaps, "from_pdf_bytes", "pdfi.tounicode"),
        swap(process, "extract_positioned_text_from_doc", "pdfi.extract"),
        swap(process, "to_markdown_from_items", "pdfi.markdown"),
        swap(extract_stage, "process_pdf_mem", PROCESS, keyed=True),
        swap(classify, "detect_pdf_type_mem", PROCESS, keyed=True),
    ]
    try:
        yield
    finally:
        for u in reversed(undo):
            u()


def _span(tracer: Tracer | None, name: str, key=None):
    return tracer.span(name, key) if tracer else contextlib.nullcontext()


def replay_flagship(files: list[str], work_dir: str,
                    tracer: Tracer | None = None) -> tuple[pa.Table, dict]:
    """``run_to_partitioned_output`` at its defaults, layer by layer.
    Returns the written rows and the per-partition row counts."""
    from pdf_inspector_ray.pipelines.flagship import (
        INPUT_COLUMNS, run_to_partitioned_output)
    from pdf_inspector_ray.pipelines.ordering import add_salted_partition
    from pdf_inspector_ray.stages.extract_stage import ExtractAndShard
    from pdf_inspector_ray.state.checkpoint import finalize_partition

    defaults = inspect.signature(run_to_partitioned_output).parameters
    num_buckets = defaults["num_buckets"].default
    payload_column = defaults["payload_column"].default
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir = os.path.join(work_dir, "out")
    shard_root = os.path.join(out_dir, "_shards-replay")
    os.makedirs(shard_root)
    with _patched(tracer):
        stage = ExtractAndShard(shard_root=shard_root,
                                drop_columns=[payload_column])
        if tracer:
            batch_fn, row_fn = stage.process_batch, stage._process_one

            def process_batch(batch):
                tracer.set_batch_keys(batch, payload_column)
                with tracer.span(BATCH):
                    return batch_fn(batch)
            stage.process_batch = process_batch
            stage._process_one = tracer.wrap(row_fn, ROW)
        parts: set[int] = set()
        for f in files:
            with _span(tracer, READ):
                block = pq.read_table(f, columns=INPUT_COLUMNS)
            with _span(tracer, SALT):
                salted = add_salted_partition(block, num_buckets=num_buckets)
            with _span(tracer, SHARD_CALL):
                manifest = stage(salted)
            parts.update(manifest["part"].to_pylist())
        part_rows = {}
        for p in sorted(parts):
            with _span(tracer, FINALIZE, p):
                rec = finalize_partition(p, shard_root, out_dir)
            part_rows[p] = rec["rows"]
    shutil.rmtree(shard_root, ignore_errors=True)
    return read_partitions(out_dir), part_rows


def read_partitions(out_dir: str) -> pa.Table:
    import glob

    paths = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    return pa.concat_tables(pq.read_table(p) for p in paths)


def replay_classify(files: list[str],
                    tracer: Tracer | None = None) -> pa.Table:
    """``classify_pipeline`` over the files, one ``classify_batch`` each."""
    from pdf_inspector_ray.pipelines.flagship import INPUT_COLUMNS
    from pdf_inspector_ray.stages.classify import classify_batch

    out = []
    with _patched(tracer):
        for f in files:
            with _span(tracer, READ):
                block = pq.read_table(f, columns=INPUT_COLUMNS)
            if tracer:
                tracer.set_batch_keys(block)
            with _span(tracer, CLASSIFY):
                out.append(classify_batch(block))
    return pa.concat_tables(out)


# -- per-layer metrics from spans -------------------------------------------

def _totals(spans: list[list]) -> tuple[dict, dict]:
    total: dict[str, int] = {}
    count: dict[str, int] = {}
    for name, start, end, *_ in spans:
        total[name] = total.get(name, 0) + (end - start)
        count[name] = count.get(name, 0) + 1
    return total, count


def layer_metrics(tracer: Tracer, rows: int, job_wall_s: float,
                  part_rows: dict | None = None) -> dict[str, float]:
    """Per-layer figures of one traced replay. A layer the workload does
    not call reads 0."""
    total, count = _totals(tracer.spans)
    ms = lambda name: total.get(name, 0) / 1e6  # noqa: E731
    us_per_row = lambda ns: ns / 1e3 / rows     # noqa: E731
    docs = count.get(PROCESS, 0)
    m: dict[str, float] = {}
    for name, metric in PHASES.items():
        m[metric] = ms(name) / docs if docs else 0.0
    doc_ms = sorted((e - s) / 1e6 for n, s, e, *_ in tracer.spans
                    if n == PROCESS)
    if len(doc_ms) >= 2:
        q = statistics.quantiles(doc_ms, n=100, method="inclusive")
        m["pdfi.process.ms_p50"], m["pdfi.process.ms_p99"] = q[49], q[98]
    else:
        m["pdfi.process.ms_p50"] = m["pdfi.process.ms_p99"] = (
            doc_ms[0] if doc_ms else 0.0)
    m["pdfi.process.samples"] = docs
    m["pdfi.process.error_docs"] = sum(
        1 for n, *_, raised in tracer.spans if n == PROCESS and raised)
    top = [s for s in tracer.spans if s[3] is None]
    layer_s = sum(e - s for _n, s, e, *_ in top) / 1e9
    m["pdfi.process.wall_share"] = ms(PROCESS) / 1e3 / job_wall_s
    m["stages.extract_stage.cache_hit_rate"] = (
        (count.get(ROW, 0) - docs) / rows if count.get(ROW) else 0.0)
    m["stages.extract_stage.glue_us_per_row"] = us_per_row(
        total.get(BATCH, 0) - total.get(PROCESS, 0)) if BATCH in total else 0.0
    m["stages.extract_stage.shard_write_us_per_row"] = us_per_row(
        total.get(SHARD_CALL, 0) - total.get(BATCH, 0))
    m["pipelines.flagship.read_us_per_row"] = us_per_row(total.get(READ, 0))
    m["pipelines.ordering.salt_us_per_row"] = us_per_row(total.get(SALT, 0))
    m["state.checkpoint.finalize_us_per_row"] = us_per_row(
        total.get(FINALIZE, 0))
    m["state.checkpoint.finalize_ms_max"] = max(
        ((e - s) / 1e6 for n, s, e, *_ in tracer.spans if n == FINALIZE),
        default=0.0)
    sizes = list((part_rows or {}).values())
    m["state.checkpoint.part_rows_max_over_mean"] = (
        max(sizes) / (sum(sizes) / len(sizes)) if sizes else 0.0)
    m["stages.classify.us_per_row"] = us_per_row(total.get(CLASSIFY, 0))
    m["pipelines.flagship.outside_layers_frac"] = (
        1.0 - layer_s / job_wall_s if SHARD_CALL in total else 0.0)
    m["perfbench.trace_spans"] = len(tracer.spans)
    return m
