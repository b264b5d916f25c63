"""Payload-cache probe (VERDICT r3 #8): measures per-task extract
throughput with the payload cache OFF vs ON at controlled
attachment-repeat profiles, grounding the 100-TB projection for corpora
where attachments repeat across turns (bench.py keeps the cache OFF for
honesty because the bench corpus repeats a tiny fixture pool — a ~100%
hit rate would overstate parse throughput).

The probe runs ``extract_block`` directly in-process over blocks of
``BLOCK_ROWS`` turns — one task's stream, no Ray — without a cache scope,
so each call has its own cache and parses each distinct payload of its
block once; this isolates the cache effect from task scheduling and host
clock drift (interleaved OFF/ON repeats, min of 2). The exact hit rate
within each block (repeated payloads over rows) is reported next to each
timing. The pipelines share one cache per worker process across all the
blocks of a run, so a job's hit rate is at least this per-block rate:
read the probe's as a lower bound, and the job's own from
``run_to_partitioned_output``'s ``payload_cache_hit_rate``. Fleet
throughput multiplies by the task cap as usual.

Profiles: N turns drawn from D distinct seeded prose PDFs with
popularity uniform / Zipf(a) — Zipf heads model boilerplate attachments
(forms, headers) that dominate real transcript corpora.

Usage: python tools/payload_cache_probe.py [n_turns] [n_distinct]
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pyarrow as pa


BLOCK_ROWS = 1000


def _block_hit_rate(seq: np.ndarray) -> float:
    """Share of rows whose payload already occurred in the same block."""
    repeats = sum(len(b) - len(np.unique(b))
                  for b in np.split(seq, range(BLOCK_ROWS, len(seq),
                                               BLOCK_ROWS)))
    return repeats / len(seq)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 4096

    sys.path.insert(0, ".")
    from pdf_inspector_ray.sources.pdfgen import make_prose_pdf
    from pdf_inspector_ray.stages.extract_stage import extract_block

    rng = np.random.default_rng(4)
    pool = np.array([make_prose_pdf(s).decode("latin-1")
                     for s in range(d)], dtype=object)

    def profile(name: str):
        if name == "uniform":
            return rng.integers(0, d, size=n)
        a = float(name.split("-")[1])
        z = rng.zipf(a, size=n)
        return (z - 1) % d

    def run(idx: np.ndarray, use_cache: bool) -> float:
        t0 = time.perf_counter()
        for lo in range(0, len(idx), BLOCK_ROWS):
            batch = pa.table({"text": pa.array(
                pool[idx[lo:lo + BLOCK_ROWS]], pa.string())})
            extract_block(batch, use_payload_cache=use_cache)
        return time.perf_counter() - t0

    results = {}
    run(profile("uniform")[:2000], False)  # untimed warmup
    for prof in ("uniform", "zipf-1.1", "zipf-1.4"):
        idx = profile(prof)
        # interleave OFF/ON repeats, min of 2: host frequency drift over
        # sustained load otherwise biases whichever config runs later
        times: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(2):
            for cache in (False, True):
                times[cache].append(run(idx, cache))
        t_off, t_on = min(times[False]), min(times[True])
        results[prof] = {
            "distinct_frac": round(len(np.unique(idx)) / n, 4),
            "block_hit_rate": round(_block_hit_rate(idx), 4),
            "off_sec": round(t_off, 2), "on_sec": round(t_on, 2),
            "speedup": round(t_off / t_on, 2),
            "docs_per_sec_core_on": round(n / t_on, 1),
        }
    print(json.dumps({"n_turns": n, "n_distinct_pool": d,
                      "profiles": results}))


if __name__ == "__main__":
    main()
