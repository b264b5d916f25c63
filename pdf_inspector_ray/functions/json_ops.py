"""Vectorized JSON property extraction over a string column — the
semi-structured side of event processing (the reference engine has no
dataflow layer; this is a §2.8 training-data addition).

Arrow has no JSON-path kernel, so extraction is a compiled RE2
``pc.extract_regex`` pass — one C++ scan per batch, no Python row loop.
That is exact for flat integer properties (the common telemetry shape);
a nested-JSON workload would swap the kernel for an actor-pool stage
holding a real parser, keeping the same batch plumbing.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def extract_json_int_batch(batch: pa.Table, json_column: str = "props",
                           key: str = "k",
                           out_column: str | None = None,
                           keep: tuple[str, ...] = ("event_id",)
                           ) -> pa.Table:
    """Pull integer property ``key`` out of a flat-JSON string column.
    Missing key / malformed row → null (SQL ``TRY_CAST`` semantics)."""
    out_column = out_column or key
    pat = rf'"{key}"\s*:\s*(?P<v>-?\d+)'
    m = pc.extract_regex(batch[json_column], pattern=pat)
    vals = pc.cast(pc.struct_field(m, "v"), pa.int64())
    cols = {c: batch[c] for c in keep}
    cols[out_column] = vals
    return pa.table(cols)


def json_int_sum_by_group(ds, group_column: str,
                          json_column: str = "props", key: str = "k"):
    """SUM of an extracted integer property per group: the regex extract
    feeds one (sum, count) ``grouped_aggregate``, whose per-batch
    partial makes the exchange carry one row per (batch, group) —
    integers sum exactly in any accumulation order."""
    from pdf_inspector_ray.functions.relational import grouped_aggregate

    def values(batch: pa.Table) -> pa.Table:
        t = extract_json_int_batch(batch, json_column, key,
                                   out_column="sum_v", keep=(group_column,))
        return t.filter(pc.is_valid(t["sum_v"]))

    return grouped_aggregate(ds.map_batches(values, batch_format="pyarrow"),
                             group_column, {"sum_v": "sum", "n_v": "count"})
