"""Windowed event operators — the "streaming-shaped" custom operators
(session windows, sliding windows, as-of join) expressed as Ray Data batch
transforms.  The reference has no streaming surface (SURVEY.md §2.11); these
cover the windowed-aggregate/as-of-join capability a training-data event
pipeline needs, with exact SQL oracles.

Partitioning assumptions (documented per the custom-operator rule):
* ``sessionize`` / ``asof_join`` co-locate by key (one groupby); correctness
  needs all events of a key together, which the bucketed groupby guarantees.
* ``sliding_window_agg`` explodes each event into the ceil(width/slide)
  windows containing it — partial counts per batch, then one groupby-sum;
  window count per event is a small constant, so the explode is linear.
"""

import numpy as np
import pandas as pd
import pyarrow as pa


def sessionize(ds, key_col: str, ts_col: str, gap_seconds: float):
    """Gap-based session windows per key: a new session starts when the gap
    to the previous event of the same key exceeds ``gap_seconds``.
    Output: (key, session_id, session_start, session_end, n_events) with
    session_id = rank of the session within the key (1-based)."""
    from .grouped import bucketed_apply
    from .keys import run_ranks

    gap = pd.Timedelta(seconds=gap_seconds)

    def per_bucket(t: pa.Table) -> pa.Table:
        df = t.sort_by([(key_col, "ascending"), (ts_col, "ascending")]) \
            .to_pandas()
        new_key = df[key_col].ne(df[key_col].shift()).to_numpy()
        new_key[:1] = True  # also when null: a null key never reads "ne"
        starts = new_key | (df[ts_col].diff() > gap).to_numpy()
        g = df.groupby(np.cumsum(starts), sort=False)
        out = pd.DataFrame(
            {
                key_col: g[key_col].first(),
                "session_start": g[ts_col].min(),
                "session_end": g[ts_col].max(),
                "n_events": g[ts_col].size().astype("int64"),
            }
        ).reset_index(drop=True)
        # sessions come sorted by key: number them from each key's first
        out["session_id"] = run_ranks(np.cumsum(new_key[starts]))
        # null keys stay unnumbered, as a pandas groupby leaves them
        out["session_id"] = out["session_id"].where(out[key_col].notna())
        schema = pa.schema([
            t.schema.field(key_col), ("session_id", pa.int64()),
            ("session_start", t.schema.field(ts_col).type),
            ("session_end", t.schema.field(ts_col).type),
            ("n_events", pa.int64())])
        return pa.Table.from_pandas(out, schema=schema, preserve_index=False) \
            .replace_schema_metadata(None)

    return bucketed_apply(
        ds.select_columns([key_col, ts_col]),
        key_col,
        per_bucket,
    )


def sliding_window_agg(ds, ts_col: str, value_col: str, width_s: int, slide_s: int,
                       group_col: str | None = None):
    """Sliding windows [w, w+width) starting every ``slide_s`` seconds from
    the epoch: per (window_start, group) event count + value sum.  Each
    event belongs to ceil(width/slide) windows — explode then groupby-sum
    of per-batch partials."""
    from ray.data.aggregate import Sum

    n_windows = (width_s + slide_s - 1) // slide_s

    _DIV = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}

    def explode_partial(t: pa.Table) -> pa.Table:
        col = t.column(ts_col)
        unit = getattr(col.type, "unit", "us")
        ts = col.cast(pa.int64()).to_numpy()
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        groups = (
            t.column(group_col).to_numpy(zero_copy_only=False)
            if group_col
            else np.zeros(len(ts), dtype=np.int64)
        )
        sec = ts // _DIV[unit]
        frames = []
        for k in range(n_windows):
            w = (sec - k * slide_s) // slide_s * slide_s
            ok = (sec >= w) & (sec < w + width_s)
            frames.append(
                pd.DataFrame({"window_start": w[ok], "grp": groups[ok],
                              "n": 1, "v": vals[ok]})
            )
        df = pd.concat(frames, ignore_index=True)
        part = df.groupby(["window_start", "grp"], as_index=False).agg(
            n_events=("n", "sum"), sum_value=("v", "sum")
        )
        # metadata-free schema: pandas metadata makes schemas unhashable
        # and defeats Ray's unify_schemas dedup (see stages/grouped.py)
        return pa.Table.from_pandas(
            part, preserve_index=False).replace_schema_metadata(None)

    out = (
        ds.map_batches(explode_partial, batch_format="pyarrow")
        .groupby(["window_start", "grp"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value", alias_name="sum_value"),
        )
    )
    if not group_col:
        out = out.drop_columns(["grp"])
    return out


def asof_join(left, right, key_col: str, ts_col: str, right_cols: list[str],
              suffix: str = "_right"):
    """For every left row, the LATEST right row of the same key with
    right.ts <= left.ts (backward as-of join, pandas merge_asof semantics).
    Both sides co-locate by key in one bucketed groupby; merge_asof runs
    per bucket on sorted frames.  Output: left columns + the matched right
    timestamp (``ts{suffix}``) + ``right_cols`` (suffixed); unmatched left
    rows keep nulls.

    The two sides are unioned into ONE schema-stable frame (same columns,
    dtypes and order on both sides — padding cells carry typed dummy values
    that are never read) so pandas dtypes survive the shuffle intact."""
    import pyarrow as pa

    from .grouped import bucketed_apply
    from .keys import key_codes

    lcols = list(left.schema().names)
    rts = f"ts{suffix}"
    rpay = [c + suffix for c in right_cols]
    out_cols = [*lcols, rts, *rpay]
    all_cols = [key_col, ts_col, "__side", rts,
                *[c for c in lcols if c not in (key_col, ts_col)], *rpay]

    def _pd_dtype(schema: pa.Schema, name: str):
        return schema.field(name).type.to_pandas_dtype()

    lschema, rschema = left.schema().base_schema, right.schema().base_schema
    ldt = {c: _pd_dtype(lschema, c) for c in lcols}
    rdt = {c: _pd_dtype(rschema, c) for c in [ts_col, *right_cols]}

    def _filler(dtype, n):
        return pd.Series(np.zeros(n, dtype=np.int64)).astype(dtype)

    def prep_left(df: pd.DataFrame) -> pd.DataFrame:
        out = df[lcols].copy()
        out["__side"] = "l"
        out[rts] = _filler(rdt[ts_col], len(df)).values
        for c, rc in zip(right_cols, rpay):
            out[rc] = _filler(rdt[c], len(df)).values
        return out[all_cols]

    def prep_right(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key_col: df[key_col], ts_col: df[ts_col]})
        out["__side"] = "r"
        out[rts] = df[ts_col].values
        for c, rc in zip(right_cols, rpay):
            out[rc] = df[c].values
        for c in lcols:
            if c not in (key_col, ts_col):
                out[c] = _filler(ldt[c], len(df)).values
        return out[all_cols]

    both = left.map_batches(prep_left, batch_format="pandas").union(
        right.map_batches(prep_right, batch_format="pandas")
    )

    out_schema = pa.schema([
        *(lschema.field(c) for c in lcols),
        pa.field(rts, rschema.field(ts_col).type),
        *(pa.field(rc, rschema.field(c).type)
          for c, rc in zip(right_cols, rpay))])

    def per_bucket(t: pa.Table) -> pa.Table:
        # merge_asof's ``by`` hashes object strings only up to a NUL: match
        # on the key's dictionary codes instead
        df = t.to_pandas()
        df["__k"] = key_codes(t.column(key_col))
        l = df[df["__side"] == "l"][[*lcols, "__k"]].sort_values(
            ts_col, kind="mergesort")
        r = (
            df[df["__side"] == "r"][["__k", ts_col, rts, *rpay]]
            .sort_values(ts_col, kind="mergesort")
        )
        if not len(r):
            out = l.copy()
            out[rts] = pd.NaT
            for rc in rpay:
                out[rc] = np.nan
        else:
            out = pd.merge_asof(l, r, on=ts_col, by="__k",
                                direction="backward")
        return pa.Table.from_pandas(out[out_cols], schema=out_schema,
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    return bucketed_apply(both, key_col, per_bucket,
                          empty_result=out_schema.empty_table())


def time_band_join(left, right, key_col: str, ts_col: str, band_s: int,
                   left_id: str, right_id: str, n_buckets: int = 64):
    """Range join on time: every (left, right) row pair of the same key
    with ``|ts_l - ts_r| <= band_s`` — attribution-style joins (clicks
    near errors, events near deploys).

    Banded time blocking: rows bucket by ``epoch_us // band_us``; a
    qualifying pair's buckets differ by at most 1, so the RIGHT side is
    emitted to {b-1, b, b+1} and co-location is guaranteed (pairs seen
    twice dedup in the second exchange).  Per bucket the two sides meet
    in one C-path pandas merge on (key, bucket) and a vectorized |dt|
    filter — no per-row Python.  Partitioning assumption: a (key, band)
    cell's population is bounded by the key's event rate x band, not by
    corpus size.

    Output: ``(left_id, right_id, dt_us)`` with dt = ts_l - ts_r (signed
    microseconds).
    """
    from .grouped import bucketed_apply
    from .keys import arrow_type, key_codes

    band_us = int(band_s) * 1_000_000

    def _epoch_us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_timestamp(col.type):
            unit = {"s": 1_000_000, "ms": 1_000, "us": 1, "ns": None}[
                col.type.unit]
            v = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
            return v // 1_000 if unit is None else v * unit
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False) * 1_000_000

    def prep(side: str, id_col: str, replicate: bool):
        def fn(t: pa.Table) -> pa.Table:
            ep = _epoch_us(t.column(ts_col))
            b = ep // band_us
            out = pa.table({
                key_col: t.column(key_col),
                "__b": b,
                "__ts": ep,
                "__id": t.column(id_col),
                "__side": pa.array([side] * t.num_rows, pa.string()),
            })
            if not replicate:
                return out
            return pa.concat_tables([
                out.set_column(1, "__b", pa.array(b + d)) for d in (-1, 0, 1)])
        return fn

    tagged = left.map_batches(prep("l", left_id, False),
                              batch_format="pyarrow").union(
        right.map_batches(prep("r", right_id, True), batch_format="pyarrow"))

    empty = pa.schema([(left_id, arrow_type(left, left_id)),
                       (right_id, arrow_type(right, right_id)),
                       ("dt_us", pa.int64())]).empty_table()

    def per_bucket(t: pa.Table) -> pa.Table:
        side = t.column("__side").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"__k": key_codes(t.column(key_col)),
                           "__b": t.column("__b").to_numpy(),
                           "__ts": t.column("__ts").to_numpy(),
                           "__row": np.arange(t.num_rows)})
        m = df[side == "l"].merge(df[side == "r"], on=["__k", "__b"],
                                  suffixes=("_l", "_r"))
        dt = m["__ts_l"].to_numpy() - m["__ts_r"].to_numpy()
        keep = np.abs(dt) <= band_us
        ids = t.column("__id")
        return pa.table({
            left_id: ids.take(m["__row_l"].to_numpy()[keep]),
            right_id: ids.take(m["__row_r"].to_numpy()[keep]),
            "dt_us": dt[keep],
        }, schema=empty.schema)

    pairs = bucketed_apply(tagged, [key_col, "__b"], per_bucket,
                           n_buckets=n_buckets, empty_result=empty)
    # adjacent-bucket replicas see a pair twice — exact dedup
    return bucketed_apply(
        pairs, [left_id, right_id],
        lambda t: t.group_by([left_id, right_id], use_threads=False)
        .aggregate([("dt_us", "first")]).rename_columns(empty.column_names),
        empty_result=empty)
