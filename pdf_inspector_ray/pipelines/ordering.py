"""Skew-salted partitioning for the partitioned resumable job.

The reference is single-document so ordering is free; at corpus scale the
north rule requires: repartition by ``conv_id`` with explicit salting of
skewed mega-conversations, then restore stable ``(conv_id, turn_idx)`` order
(SURVEY.md §2.7, §4.2).

``part = (H(conv_id) + turn_idx // stride) mod num_buckets`` so one
mega-conversation's turn-blocks land in *different* buckets (no single
partition gets 2000 turns of one chat). The file shuffle
(``flagship.run_to_partitioned_output``) routes each row to its bucket and
``checkpoint.finalize_partition`` sorts each bucket by
``(conv_id, turn_idx)``. The in-memory ordered dataset
(``flagship.flagship``) is a plain ``ds.sort`` instead: its composite key
splits a mega-conversation across range boundaries too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_STRIDE = 512


def add_salted_partition(batch: pa.Table, num_buckets: int,
                         stride: int = DEFAULT_STRIDE) -> pa.Table:
    """SB map_batches UDF: append the salted ``part`` column.

    Vectorized (r5): dictionary-encode ``conv_id`` so the md5 base is
    computed once per UNIQUE conversation in the batch (a conversation
    spans many turns, so uniques ≪ rows), then the per-row work is one
    numpy take + add + mod. The bucket values are part of the on-disk
    layout: a resumed run finds its completed partitions by them, so they
    must never change (``tests/test_pipeline.py`` pins them)."""
    conv = batch["conv_id"].combine_chunks().dictionary_encode()
    uniq = conv.dictionary.to_pylist()
    base_mod = np.fromiter(
        (int.from_bytes(
            hashlib.md5(u.encode("utf-8"),
                        usedforsecurity=False).digest()[:8], "big")
         % num_buckets for u in uniq),
        dtype=np.int64, count=len(uniq))
    idx = conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn = pc.fill_null(batch["turn_idx"], 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    parts = ((base_mod[idx] + turn // stride) % num_buckets).astype(np.int32)
    return batch.append_column(
        pa.field("part", pa.int32()), pa.array(parts, pa.int32()))
