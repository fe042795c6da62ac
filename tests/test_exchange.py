"""The one bucketed exchange (stages/grouped.py) and the ops built on it.

* NUL metamorphic: every op whose key or in-bucket grouping is a string
  gives the same answer when a NUL in its input is replaced by another
  byte (pandas' object-string hash table stops comparing at a NUL, so a
  pandas ``groupby`` / ``factorize`` merges such keys without an error).
* null keys: ``hash_buckets`` sends a column's nulls to one bucket, and the
  ops keep their null-key output.
* schema: every op's result carries its declared Arrow schema, with no
  ``b'pandas'`` metadata, on empty and one-row inputs.
"""

import pandas as pd
import pyarrow as pa
import pytest


def _ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pylist(rows))


def _rows(ds, f=lambda v: v):
    """Result rows as a sorted list of tuples (column order kept), each
    value passed through ``f``."""
    return sorted((tuple(f(v) for v in r.values()) for r in ds.take_all()),
                  key=repr)


def _events(s):
    ts = pd.Timestamp("2024-01-01")
    return [{"user": f"u{s}{k}", "ts": ts + pd.Timedelta(minutes=m)}
            for k in (1, 2) for m in (0, 5, 90)]


def _fuzzy_self(blocking):
    def run(s):
        from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_self_join

        return fuzzy_self_join(
            _ds([{"v": v} for v in ("x", f"x{s}b", f"x{s}c")]), "v", n=2,
            blocking=blocking)
    return run


def _fuzzy_join(blocking):
    def run(s):
        from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_join

        return fuzzy_join(
            _ds([{"q": v} for v in (f"ab{s}c", f"ab{s}d")]),
            _ds([{"w": v} for v in (f"ab{s}c", "ab", f"ab{s}e")]),
            "q", "w", n=1, blocking=blocking)
    return run


def _fuzzy_topk(s):
    from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_topk

    return fuzzy_topk(_ds([{"v": v} for v in ("xy", f"x{s}b", f"x{s}c")]),
                      "v", k=1, n=2)


def _lookup_agg(s):
    from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_lookup_agg

    return fuzzy_lookup_agg(
        _ds([{"q": v} for v in (f"ab{s}c", f"ab{s}d")]),
        _ds([{"t": f"ab{s}c", "val": "1"}, {"t": f"ab{s}d", "val": "2"}]),
        "q", "t", "val", n=0, max_broadcast_terms=0)


def _snapshots(s):
    from liblevenshtein_rust_ray.stages.urls import url_snapshot_dedup

    return url_snapshot_dedup(_ds([
        {"url": f"http://a.com/x{s}1", "warc_ts": 1},
        {"url": f"http://a.com/x{s}2", "warc_ts": 2}]))


def _host_stats(s):
    from liblevenshtein_rust_ray.stages.urls import host_stats

    return host_stats(_ds([{"url": f"http://a{s}{k}.com/p", "text": "abc"}
                           for k in (1, 2)]))


def _exact_dedup(s):
    from liblevenshtein_rust_ray.stages.dedup import exact_dedup

    return exact_dedup(_ds([{"t": f"a{s}b", "id": 1}, {"t": f"a{s}c", "id": 2},
                            {"t": f"a{s}b", "id": 3}]), "t", "id")


def _sessionize(s):
    from liblevenshtein_rust_ray.stages.windows import sessionize

    return sessionize(_ds(_events(s)), "user", "ts", 1800)


def _asof(s):
    from liblevenshtein_rust_ray.stages.windows import asof_join

    ev = _events(s)
    left = _ds([{"user": e["user"], "ts": e["ts"], "id": i}
                for i, e in enumerate(ev)])
    right = _ds([{"user": e["user"], "ts": e["ts"], "v": float(i)}
                 for i, e in enumerate(ev) if i % 3 == 0])
    return asof_join(left, right, "user", "ts", ["v"])


def _band_join(s):
    from liblevenshtein_rust_ray.stages.windows import time_band_join

    ev = _events(s)
    left = _ds([{"user": e["user"], "ts": e["ts"], "a": i}
                for i, e in enumerate(ev)])
    right = _ds([{"user": e["user"], "ts": e["ts"], "b": i}
                 for i, e in enumerate(ev)])
    return time_band_join(left, right, "user", "ts", 600, "a", "b")


def _line_dedup(s):
    from liblevenshtein_rust_ray.stages.lines import line_dedup

    return line_dedup(_ds([{"text": "common\nx", "id": f"d{s}1"},
                           {"text": "common\ny", "id": f"d{s}2"}]),
                      "text", "id", max_broadcast_common=-1)


def _spell_correct(s):
    from liblevenshtein_rust_ray.pipelines.spelling import spell_correct

    return spell_correct(
        _ds([{"tok": v} for v in (f"ab{s}c", f"ab{s}d")]), "tok",
        _ds([{"w": f"ab{s}c", "f": 5}, {"w": f"ab{s}e", "f": 9}]), "w", "f",
        n=1)


def _tfidf(mode):
    def run(s):
        from liblevenshtein_rust_ray.stages.textstats import tfidf_top_terms

        return tfidf_top_terms(
            _ds([{"text": "alpha beta beta", "doc_id": f"d{s}1"},
                 {"text": "alpha gamma", "doc_id": f"d{s}2"}]),
            k=2, mode=mode)
    return run


def _pack(s):
    from liblevenshtein_rust_ray.stages.textstats import pack_documents

    return pack_documents(_ds([{"text": "a b c", "doc_id": f"d{s}{k}"}
                               for k in (1, 2)]), max_tokens=4, n_groups=1)


NUL_CASES = {
    "fuzzy_self_join[length]": _fuzzy_self("length"),
    "fuzzy_self_join[deletion]": _fuzzy_self("deletion"),
    "fuzzy_join[length]": _fuzzy_join("length"),
    "fuzzy_join[deletion]": _fuzzy_join("deletion"),
    "fuzzy_topk": _fuzzy_topk,
    "fuzzy_lookup_agg[distributed]": _lookup_agg,
    "url_snapshot_dedup": _snapshots,
    "host_stats": _host_stats,
    "exact_dedup": _exact_dedup,
    "sessionize": _sessionize,
    "asof_join": _asof,
    "time_band_join": _band_join,
    "line_dedup[exchange]": _line_dedup,
    "spell_correct": _spell_correct,
    "tfidf_top_terms[exchange]": _tfidf("exchange"),
    "tfidf_top_terms[broadcast_df]": _tfidf("broadcast_df"),
    "pack_documents": _pack,
}


def _unmap(v):
    return v.replace("\x01", "\x00") if isinstance(v, str) else v


@pytest.mark.parametrize("case", sorted(NUL_CASES))
def test_nul_metamorphic(ray_session, case):
    """Replacing ``\\x00`` by ``\\x01`` in the input and mapping it back in
    the output changes nothing."""
    run = NUL_CASES[case]
    assert _rows(run("\x00")) == _rows(run("\x01"), _unmap)


def test_hash_buckets_null_keys():
    """Nulls share one fixed bucket per column; non-null values keep the
    bucket they had before nulls were allowed."""
    import numpy as np

    from liblevenshtein_rust_ray.stages.grouped import hash_buckets

    t = pa.table({"s": ["a", None, "b", None], "i": [1, 2, None, None]})
    full = pa.table({"s": ["a", "b"], "i": [1, 3]})
    for cols in (["s"], ["i"], ["s", "i"]):
        b = hash_buckets(t, cols, 64)
        assert b.dtype == np.int32 and len(b) == 4
    s = hash_buckets(t, ["s"], 64)
    assert s[1] == s[3]
    assert list(s[[0, 2]]) == list(hash_buckets(full, ["s"], 64))
    assert hash_buckets(t, ["i"], 64)[0] == hash_buckets(full, ["i"], 64)[0]
    sn = hash_buckets(pa.table({"s": pa.array([None, None], pa.string())}),
                      ["s"], 64)
    assert sn[0] == sn[1]


def _null_key_cases():
    """name -> (op, its rows with null keys as the pandas exchange gave
    them)."""
    import math

    from liblevenshtein_rust_ray.pipelines import fuzzy, spelling
    from liblevenshtein_rust_ray.stages import dedup, lines, textstats, urls, windows

    ts = pd.Timestamp("2024-01-01")
    ln2 = math.log(2)

    def vals():
        return _ds([{"v": v} for v in ("abc", None, "abd")])

    def ev(col):
        return _ds([{"user": "u", "ts": ts, col: 1},
                    {"user": None, "ts": ts, col: 2}])

    cases = {
        **{f"fuzzy_self_join[{b}]": (
            lambda b=b: fuzzy.fuzzy_self_join(vals(), "v", n=1, blocking=b),
            [("abc", "abd", 1)]) for b in ("length", "deletion")},
        **{f"fuzzy_join[{b}]": (
            lambda b=b: fuzzy.fuzzy_join(vals(), vals(), "v", "v", n=0,
                                         blocking=b),
            [("abc", "abc", 0), ("abd", "abd", 0)])
           for b in ("length", "deletion")},
        "fuzzy_topk": (lambda: fuzzy.fuzzy_topk(vals(), "v", k=1, n=1),
                       [("abc", "abd", 1, 1), ("abd", "abc", 1, 1)]),
        "fuzzy_lookup_agg[distributed]": (
            lambda: fuzzy.fuzzy_lookup_agg(
                _ds([{"q": "abc"}, {"q": None}]),
                _ds([{"t": "abc", "val": "1"}, {"t": None, "val": "2"}]),
                "q", "t", "val", n=0, max_broadcast_terms=0),
            [("abc", "1", 1, 0)]),
        "exact_dedup": (
            lambda: dedup.exact_dedup(_ds([
                {"t": None, "id": 2}, {"t": "a", "id": 1},
                {"t": None, "id": 3}]), "t", "id"),
            [("a", 1), (None, 2)]),
        "url_snapshot_dedup": (
            lambda: urls.url_snapshot_dedup(_ds([
                {"url": None, "warc_ts": 1},
                {"url": "http://a.com/", "warc_ts": 2}])),
            [("", None, 1, 1), ("http://a.com", "http://a.com/", 2, 1)]),
        "host_stats": (
            lambda: urls.host_stats(_ds([
                {"url": None, "text": "ab"},
                {"url": "http://a.com/", "text": None}])),
            [("", 1, 2, 2.0, False), ("a.com", 1, 0, 0.0, False)]),
        "sessionize": (
            lambda: windows.sessionize(_ds([
                {"user": "u", "ts": ts}, {"user": None, "ts": ts},
                {"user": None, "ts": ts}]), "user", "ts", 60),
            [("u", 1, ts, ts, 1), (None, None, ts, ts, 2)]),
        "asof_join": (
            lambda: windows.asof_join(
                ev("id"), ev("v"), "user", "ts", ["v"]),
            [("u", ts, 1, ts, 1), (None, ts, 2, ts, 2)]),
        "time_band_join": (
            lambda: windows.time_band_join(
                ev("a"), ev("b"), "user", "ts", 60, "a", "b"),
            [(1, 1, 0), (2, 2, 0)]),
        "line_dedup[exchange]": (
            lambda: lines.line_dedup(_ds([
                {"text": "c\nx", "id": "d1"}, {"text": "c\ny", "id": None},
                {"text": None, "id": "d3"}]), "text", "id",
                max_broadcast_common=-1),
            [("d1", "x", 1, 1), ("d3", "", 1, 0)]),
        "spell_correct": (
            lambda: spelling.spell_correct(
                _ds([{"tok": "abc"}, {"tok": None}]), "tok",
                _ds([{"w": "abc", "f": 5}]), "w", "f", n=1),
            [("abc", "abc", 0, 5)]),
        **{f"tfidf_top_terms[{m}]": (
            lambda m=m: textstats.tfidf_top_terms(_ds([
                {"text": "alpha beta", "doc_id": "d1"},
                {"text": "alpha", "doc_id": None}]), k=2, mode=m),
            [("d1", "alpha", 1, 1, ln2, 1), ("d1", "beta", 1, 1, ln2, 2)])
           for m in ("exchange", "broadcast_df")},
    }
    return cases


def _nan_none(v):
    return None if isinstance(v, float) and v != v else v


@pytest.mark.parametrize("case", sorted(_null_key_cases()))
def test_exchange_null_keys(ray_session, case):
    """Rows with a null key go through the exchange (nothing raises) and
    each op keeps the null-key output it had with the pandas exchange."""
    op, expected = _null_key_cases()[case]
    assert _rows(op(), _nan_none) == sorted(expected, key=repr)


def _one(schema, row):
    """(empty input, one-row input) of ``schema``."""
    return [pa.Table.from_pylist([], schema=schema),
            pa.Table.from_pylist([row], schema=schema)]


_S = pa.string()
_I = pa.int64()
_TS = pa.timestamp("us")
_T0 = pd.Timestamp("2024-01-01")
_TEXT = "the quick brown fox jumps over the lazy dog and runs far away home"


def _pairs(a, b, score="distance", t=_I):
    return pa.schema([(a, _S if a != "id_a" else _I),
                      (b, _S if b != "id_b" else _I), (score, t)])


def _schema_cases():
    """name -> (inputs of each size, op(*datasets), declared out schema)."""
    from liblevenshtein_rust_ray.pipelines import curation, fuzzy, spelling
    from liblevenshtein_rust_ray.stages import dedup, lines, textstats, urls, windows

    vals = _one(pa.schema([("v", _S)]), {"v": "abc"})
    docs = _one(pa.schema([("text", _S), ("doc_id", _I)]),
                {"text": _TEXT, "doc_id": 1})
    sdocs = _one(pa.schema([("text", _S), ("doc_id", _S)]),
                 {"text": "a b", "doc_id": "d1"})
    ev = _one(pa.schema([("user", _S), ("ts", _TS), ("a", _I)]),
              {"user": "u", "ts": _T0, "a": 1})
    evb = _one(pa.schema([("user", _S), ("ts", _TS), ("b", _I)]),
               {"user": "u", "ts": _T0, "b": 1})
    rt = _one(pa.schema([("user", _S), ("ts", _TS), ("v", pa.float64())]),
              {"user": "u", "ts": _T0, "v": 1.0})
    dct = _one(pa.schema([("w", _S), ("f", _I)]), {"w": "abc", "f": 1})
    lookup = _one(pa.schema([("t", _S), ("val", _S)]), {"t": "abc", "val": "1"})
    topk = pa.schema([("query", _S), ("match", _S), ("distance", _I),
                      ("rank", _I)])
    tfidf = pa.schema([("doc_id", _S), ("token", _S), ("tf", _I), ("df", _I),
                       ("tfidf", pa.float64()), ("rank", _I)])
    return {
        **{f"fuzzy_self_join[{b}]": (
            [vals], lambda d, b=b: fuzzy.fuzzy_self_join(d, "v", blocking=b),
            _pairs("val_a", "val_b")) for b in ("length", "deletion")},
        **{f"fuzzy_join[{b}]": (
            [vals, vals],
            lambda l, r, b=b: fuzzy.fuzzy_join(l, r, "v", "v", blocking=b),
            _pairs("left_val", "right_val")) for b in ("length", "deletion")},
        "fuzzy_topk": ([vals], lambda d: fuzzy.fuzzy_topk(d, "v"), topk),
        "fuzzy_lookup_agg[distributed]": (
            [vals, lookup], lambda q, d: fuzzy.fuzzy_lookup_agg(
                q, d, "v", "t", "val", max_broadcast_terms=-1),
            pa.schema([("query", _S), ("values", _S), ("n_matches", _I),
                       ("min_distance", _I)])),
        "url_snapshot_dedup": (
            [_one(pa.schema([("url", _S), ("warc_ts", _I)]),
                  {"url": "http://a.com/x", "warc_ts": 1})],
            urls.url_snapshot_dedup,
            pa.schema([("canonical_url", _S), ("kept_url", _S),
                       ("kept_ts", _I), ("n_snapshots", _I)])),
        "host_stats": (
            [_one(pa.schema([("url", _S), ("text", _S)]),
                  {"url": "http://a.com/x", "text": "ab"})],
            urls.host_stats,
            pa.schema([("host", _S), ("n_pages", _I), ("sum_chars", _I),
                       ("mean_chars", pa.float64()),
                       ("flag_mega", pa.bool_())])),
        "asof_join": (
            [ev, rt], lambda l, r: windows.asof_join(l, r, "user", "ts", ["v"]),
            pa.schema([("user", _S), ("ts", _TS), ("a", _I),
                       ("ts_right", _TS), ("v_right", pa.float64())])),
        "time_band_join": (
            [ev, evb], lambda l, r: windows.time_band_join(
                l, r, "user", "ts", 60, "a", "b"),
            pa.schema([("a", _I), ("b", _I), ("dt_us", _I)])),
        "line_dedup[exchange]": (
            [sdocs], lambda d: lines.line_dedup(
                d, "text", "doc_id", max_broadcast_common=-1),
            pa.schema([("doc_id", _S), ("text", _S), ("n_lines_kept", _I),
                       ("n_lines_dropped", _I)])),
        "spell_correct": (
            [vals, dct], lambda t, d: spelling.spell_correct(
                t, "v", d, "w", "f"),
            pa.schema([("tok", _S), ("correction", _S), ("distance", _I),
                       ("freq", _I)])),
        **{f"tfidf_top_terms[{m}]": (
            [sdocs], lambda d, m=m: textstats.tfidf_top_terms(d, mode=m),
            tfidf) for m in ("exchange", "broadcast_df")},
        "pack_documents": (
            [sdocs], textstats.pack_documents,
            pa.schema([("doc_id", _S), ("grp", _I), ("pack_id", _I),
                       ("n_tokens", _I)])),
        **{f"minhash_lsh_pairs[{tr}]": (
            [docs], lambda d, tr=tr: dedup.minhash_lsh_pairs(
                d, "text", "doc_id", sig_transport=tr),
            _pairs("id_a", "id_b", "jaccard", pa.float64()))
           for tr in ("banded", "join")},
        "simhash_pairs": (
            [docs], lambda d: dedup.simhash_pairs(d, "text", "doc_id"),
            _pairs("id_a", "id_b", "hamming")),
        "ngram_jaccard_pairs": (
            [docs], lambda d: dedup.ngram_jaccard_pairs(d, "text", "doc_id"),
            _pairs("id_a", "id_b", "jaccard", pa.float64())),
        "neardup_canonicalize[exchange]": (
            [docs], lambda d: curation.neardup_canonicalize(
                d, max_driver_members=-1),
            pa.schema([("doc_id", _I), ("canon_id", _I)])),
        "sessionize": (
            [ev], lambda d: windows.sessionize(d, "user", "ts", 60),
            pa.schema([("user", _S), ("session_id", _I), ("session_start", _TS),
                       ("session_end", _TS), ("n_events", _I)])),
        "exact_dedup": (
            [sdocs], lambda d: dedup.exact_dedup(d, "text", "doc_id"),
            pa.schema([("text", _S), ("doc_id", _S)])),
        "curate_documents[exchange]": (
            [docs], lambda d: curation.curate_documents(
                d, min_tokens=1, max_broadcast_drops=-1),
            pa.schema([("doc_id", _I), ("n_tokens", _I)])),
    }


# ops that union no schema sentinel: an empty input gives an empty Dataset
_NO_SENTINEL = {"sessionize", "exact_dedup"}
SCHEMA_CASES = [(case, size) for case in sorted(_schema_cases())
                for size in (0, 1) if size or case not in _NO_SENTINEL]


@pytest.mark.parametrize("case,size", SCHEMA_CASES)
def test_declared_schema(ray_session, case, size):
    """Each op's result has its declared Arrow schema, without the
    ``b'pandas'`` metadata that makes Ray's schema unify log "Failed to hash
    the schemas", on empty and one-row inputs."""
    import ray.data as rd

    inputs, op, declared = _schema_cases()[case]
    out = op(*(rd.from_arrow(t[size]) for t in inputs)).materialize()
    got = out.schema().base_schema
    assert got == declared, (got, declared)
    assert b"pandas" not in (got.metadata or {})


def test_edge_sentinel_schema():
    """ER's typed 0-row sentinel (unioned by every edge exchange) has the
    edge schema the scorer emits."""
    from liblevenshtein_rust_ray.stages.scorer import (
        EDGE_COLUMNS,
        _edges_schema,
        _empty_edges_arrow,
    )

    t = _empty_edges_arrow()
    assert t.num_rows == 0
    assert t.column_names == list(EDGE_COLUMNS)
    assert t.schema == _edges_schema()
