"""Print Ray Data per-operator stats for the flagship extract pipeline.

Evidence tool for the scale review: shows where wall-time goes per
operator of ``extract_pipeline`` (read → fused classify+extract; no
ordering restore) so regressions in pipeline overlap/backpressure are
visible, not guessed.

Usage: python tools/stats_audit.py [corpus_dir] [num_cpus]
"""

from __future__ import annotations

import os
import sys
import time


def main() -> None:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    corpus = sys.argv[1] if len(sys.argv) > 1 and sys.argv[1] else None
    cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 16

    import ray
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             log_to_driver=False)
    try:
        from pdf_inspector_ray.pipelines.flagship import (
            extract_pipeline, read_transcripts, sized_concurrency)

        if corpus is None:
            sys.path.insert(0, os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))
            import bench
            corpus = bench._bench_corpus("/root/testdata/sf0.1")
        print(f"corpus={corpus} cpus={cpus}")
        # audit the COMPUTE stage (read → fused classify+extract); the
        # headline job adds the file-shuffle ordering+write, which overlaps
        # with extraction and is benchmarked by bench.py
        ds = read_transcripts(corpus, num_blocks=4 * cpus)
        out = extract_pipeline(ds, concurrency=sized_concurrency(),
                               use_payload_cache=False)
        t0 = time.perf_counter()
        n = 0
        for batch in out.iter_batches(batch_format="pyarrow"):
            n += batch.num_rows
        wall = time.perf_counter() - t0
        print(f"rows={n} wall={wall:.1f}s tput={n / wall:.0f} rows/s")
        print(out.stats())
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
