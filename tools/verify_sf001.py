"""Driver-mimic correctness check: run every queries() entry at a given sf
and compare SQL-expressible ones against the DuckDB oracle (row count,
schema, value hash) exactly like the round driver does.

Usage: python tools/verify_sf001.py [sf_dir] [query ...]
(default sf_dir /root/testdata/sf0.01; with query names, checks only those)

Each line: status, query, rows, the engine's seconds (the query call and
its result as a DataFrame), a 12-hex value hash, and the DuckDB oracle's
seconds when the query has one, timed apart so an engine A/B reads its
own column.
"""

import hashlib
import json
import math
import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def to_df(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    return pd.DataFrame(result)


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_numeric_dtype(df[c]) and not pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype("float64").round(6)
        else:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    n = norm(df)
    payload = n.to_csv(index=False, float_format="%.6f").encode()
    return hashlib.md5(payload).hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
                 logging_level="ERROR")
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, oracles = entry.queries(), entry.oracle_sql()
    if len(sys.argv) > 2:
        only = set(sys.argv[2:])
        missing = only - set(qs)
        if missing:
            raise SystemExit(f"unknown queries: {sorted(missing)}")
        qs = {k: v for k, v in qs.items() if k in only}
    report, n_bad = {}, 0
    for name, fn in qs.items():
        row = {}
        try:
            t0 = time.time()
            rdf = to_df(fn(sf_dir))
            row["sec"] = round(time.time() - t0, 2)
            row["rows"] = len(rdf)
            row["hash"] = value_hash(rdf)[:12]
            if name in oracles:
                t0 = time.time()
                odf = con.sql(oracles[name]).df()
                row["oracle_sec"] = round(time.time() - t0, 2)
                row["oracle_rows"] = len(odf)
                row["rows_match"] = len(rdf) == len(odf)
                row["schema_match"] = sorted(rdf.columns) == sorted(odf.columns)
                if row["rows_match"] and row["schema_match"]:
                    row["hash_match"] = value_hash(rdf) == value_hash(odf)
                else:
                    row["hash_match"] = False
                if not row["hash_match"]:
                    n_bad += 1
            else:
                row["oracle"] = None
        except Exception as e:  # noqa: BLE001
            row.setdefault("sec", round(time.time() - t0, 2))  # the engine failed
            row["err"] = f"{type(e).__name__}: {e}"
            n_bad += 1
        report[name] = row
        status = ("OK " if row.get("hash_match") else
                  "--" if "oracle" in row else
                  "ERR" if "err" in row else "BAD")
        oracle = f"oracle={row['oracle_sec']:.2f}s" if "oracle_sec" in row else ""
        print(f"{status} {name:45s} rows={row.get('rows', '?'):>8} "
              f"{row['sec']:6.2f}s {row.get('hash', '')} {oracle} {row.get('err', '')}",
              flush=True)

    print(json.dumps({"bad": n_bad, "total": len(qs)}))
    ray.shutdown()
    sys.exit(1 if n_bad else 0)


if __name__ == "__main__":
    main()
