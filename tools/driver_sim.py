"""Local stand-in for the driver's correctness gate.

Runs each ``queries()`` entry and its ``oracle_sql()`` twin side-by-side at
a given sf dir, compares row counts, column names and (column-name-sorted,
row-order-insensitive) values, and prints a CORRECTNESS-style JSON line per
query. Use while iterating so a red row never reaches the real driver.

Usage: python tools/driver_sim.py [sf_dir] [query ...]
"""

from __future__ import annotations

import json
import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def _to_arrow(res):
    """Engine result -> pyarrow.Table preserving the engine's dtypes."""
    import pyarrow as pa
    import ray
    import ray.data
    if isinstance(res, ray.data.Dataset):
        # to_arrow_refs() on an unexecuted plan runs it a second time for
        # its schema, under a limit-1 probe: execute it once here
        refs = res.materialize().to_arrow_refs()
        tables = [t for t in ray.get(refs) if t.num_rows or len(refs) == 1]
        if not tables:
            tables = ray.get(refs)[:1]
        return pa.concat_tables(tables, promote_options="default")
    if isinstance(res, pa.Table):
        return res
    return pa.Table.from_pandas(res, preserve_index=False)


def _norm_type(t):
    """Normalize Arrow large/small width variants only; everything else is
    compared strictly (the real driver's typed hash catches int32 vs int64
    and decimal128 vs int64 — exactly what this gate must catch too)."""
    import pyarrow as pa
    if pa.types.is_large_string(t):
        return pa.string()
    if pa.types.is_large_binary(t):
        return pa.binary()
    if pa.types.is_large_list(t) or pa.types.is_list(t):
        return pa.list_(_norm_type(t.value_type))
    return t


def _dtype_report(eng, ora):
    """Compare column-name-sorted Arrow types. Returns (ok, detail)."""
    et = {f.name: _norm_type(f.type) for f in eng.schema}
    ot = {f.name: _norm_type(f.type) for f in ora.schema}
    if sorted(et) != sorted(ot):
        return False, f"columns {sorted(et)} vs {sorted(ot)}"
    bad = [f"{n}: engine={et[n]} oracle={ot[n]}"
           for n in sorted(et) if et[n] != ot[n]]
    return (not bad), ("; ".join(bad) if bad else None)


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(lambda v: "\x00null" if pd.isna(v) else str(v))
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _values_match(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if a.shape != b.shape:
        return False
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(av.dtype, np.datetime64) and np.issubdtype(bv.dtype, np.datetime64):
            both_nat = np.isnat(av) & np.isnat(bv)
            if not np.all(both_nat | (av == bv)):
                return False
        elif np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
            av = av.astype(np.float64)
            bv = bv.astype(np.float64)
            both_nan = np.isnan(av) & np.isnan(bv)
            if not np.all(both_nan | (av == bv)):
                return False
        else:
            if not np.array_equal(av, bv):
                return False
    return True


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    # point the oracle twins' sidecar/golden reads at the SAME corpus the
    # engine queries run over (must be set before __ray_entry__ imports)
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        row = {"rows_match": None, "schema_match": None, "hash_match": None,
               "dtype_match": None, "spark_rows": None, "oracle_rows": None,
               "err": None}
        try:
            rtab = _to_arrow(fn(sf_dir))
            rdf = rtab.to_pandas()
            row["spark_rows"] = len(rdf)
        except Exception as e:
            row["err"] = f"query_error: {e!r}"
            results[name] = row
            print(name, json.dumps(row))
            continue
        sql = oracles.get(name)
        if sql is None:
            row["err"] = "no_oracle"
            results[name] = row
            print(name, json.dumps(row))
            continue
        try:
            otab = con.execute(sql).arrow()
            odf = otab.to_pandas()
            row["oracle_rows"] = len(odf)
        except Exception as e:
            row["err"] = f"oracle_error: {e!r}"
            results[name] = row
            print(name, json.dumps(row))
            continue
        row["rows_match"] = len(rdf) == len(odf)
        row["schema_match"] = sorted(rdf.columns) == sorted(odf.columns)
        row["dtype_match"], dtype_detail = _dtype_report(rtab, otab)
        if dtype_detail:
            row["err"] = f"dtype: {dtype_detail}"
        if row["rows_match"] and row["schema_match"]:
            row["hash_match"] = (_values_match(_canon(rdf), _canon(odf))
                                 and row["dtype_match"])
        else:
            row["hash_match"] = False
        results[name] = row
        print(name, json.dumps(row))

    bad = [n for n, r in results.items()
           if r["err"] not in (None, "no_oracle") or r["hash_match"] is False]
    print(json.dumps({"green": sum(1 for r in results.values() if r["hash_match"]),
                      "no_oracle": sum(1 for r in results.values() if r["err"] == "no_oracle"),
                      "bad": bad}))
    ray.shutdown()


if __name__ == "__main__":
    main()
