"""Stage kernels: extract, blocking, scorer (no Ray — pure batch kernels),
plus Ray-level connected components."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import assume, given, settings, strategies as st

from liblevenshtein_rust_ray.stages.extract import (
    extract_batch,
    extract_text_from_html,
    page_titles,
)
from liblevenshtein_rust_ray.stages.blocking import blocking_keys_batch
from liblevenshtein_rust_ray.stages.scorer import (
    _edges_schema, score_bucket_vectorized_arrow,
)
from liblevenshtein_rust_ray.kernel import distance_fn, standard_distance

ALGORITHMS = ["standard", "transposition", "merge_and_split"]


def _pages_batch():
    return pa.table(
        {
            "url": ["https://a.com/1", "https://a.com/2"],
            "warc_ts": pa.array([0, 1], type=pa.timestamp("us")),
            "html": [
                b"<html><head><title>Hello World</title></head><body><p>Body text.</p></body></html>",
                b"<html><head><title>T2</title></head><body>other</body></html>",
            ],
            "text": ["", "provided text\nbody here"],
            "lang": ["en", "en"],
        }
    )


def test_extract_html_fallback_and_passthrough():
    out = extract_batch(_pages_batch())
    assert out.column_names == ["url", "warc_ts", "lang", "text", "title"]
    texts = out.column("text").to_pylist()
    # row 0: extracted from html (deterministic), title first line
    assert texts[0] == "Hello World\nBody text."
    assert out.column("title").to_pylist()[0] == "hello world"
    # row 1: provided text passes through byte-identically
    assert texts[1] == "provided text\nbody here"
    assert out.column("title").to_pylist()[1] == "provided text"


def test_extract_deterministic():
    h = b"<html><head><title> A  Title </title></head><body>x <b>y</b>\nz</body></html>"
    assert extract_text_from_html(h) == extract_text_from_html(h)
    assert extract_text_from_html(h) == "A Title\nx y z"


def _extract_by_regex(html: bytes) -> str:
    """extract_text_from_html as first written, whitespace collapsed by the
    ``\\s+`` regex: the reference its str.split() form must equal."""
    import re

    if not html:
        return ""
    title_re = re.compile(rb"<title>(.*?)</title>", re.S)
    m = title_re.search(html)
    title = m.group(1).decode("utf-8", "replace") if m else ""
    body = re.sub(rb"<[^>]+>", b" ", title_re.sub(b" ", html)).decode("utf-8", "replace")
    body = re.sub(r"\s+", " ", body).strip()
    title = re.sub(r"\s+", " ", title).strip()
    return f"{title}\n{body}" if title else body


def test_extract_whitespace_every_space_codepoint():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert {"\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"} <= set(spaces)
    for w in spaces:
        html = f"{w}<title>{w}a{w}{w}b{w}</title>{w}x<p>{w}y{w}z".encode()
        assert extract_text_from_html(html) == _extract_by_regex(html), repr(w)
    html = ("<title>" + "t".join(spaces) + "</title>" + "".join(spaces) + "b").encode()
    assert extract_text_from_html(html) == _extract_by_regex(html)


_HTML_PARTS = [b"<title>", b"</title>", b"<title", b"</p>", b"<", b">", b" ", b"\n",
               b"\xc2\xa0", b"\xe2\x80\xa8", b"\xe3\x80\x80", b"\x1c", b"\x85",
               b"\xc2", b"\xff", b"\xed\xa0\x80", b"a", b"B\xc3\xa9"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_HTML_PARTS), st.binary(max_size=6)), max_size=30))
def test_extract_whitespace_equals_regex(parts):
    html = b"".join(parts)
    assert extract_text_from_html(html) == _extract_by_regex(html)


def _pages(texts, htmls):
    n = len(texts)
    return pa.table({
        "url": [f"https://h.com/{i}" for i in range(n)],
        "warc_ts": pa.array(list(range(n)), type=pa.timestamp("us")),
        "html": pa.array(htmls, type=pa.binary()),
        "text": pa.array(texts, type=pa.string()),
        "lang": ["en"] * n,
    })


def _assert_titles_match(pages):
    """``page_titles`` equals ``extract_batch``'s url and title columns,
    and a batch without ``html`` reads it as all null."""
    want = extract_batch(pages).select(["url", "title"])
    assert page_titles(pages).equals(want)
    no_html = pages.set_column(2, "html", pa.nulls(pages.num_rows, pa.binary()))
    assert page_titles(pages.drop_columns(["html"])).equals(
        extract_batch(no_html).select(["url", "title"]))


_PAGE_CASES = [  # (text, html)
    ("", b"<p>no title</p> body text"),
    ("", b"<title></title>body after an empty title"),
    (None, b"<title> \t\n </title> whitespace-only title"),
    ("", "<title>\xa0\u2028\x1c\x0b</title>unicode space title".encode()),
    ("", b"<title>unclosed title <p>body"),
    ("", b"<title>A <b>Bold</b> Title</title><p>x</p>"),
    ("", b"<title>bad \xff utf8 \xc2</title>"),
    ("", b"<title>nul\x00title</title>x"),
    ("", b"<TITLE>upper-case tag</TITLE> body"),
    ("", None), (None, None), ("", b""),
    ("line one\r\nline two", None), ("\nleading newline", b"<title>t</title>"),
    ("\x0b vt \x1c fs \xa0 nbsp \u2028 ls\nrest", None), ("x\x00y\nz", None),
]


def test_page_titles_cases():
    """The listed edge cases, each row on its own and all in one batch."""
    for text, html in _PAGE_CASES:
        _assert_titles_match(_pages([text], [html]))
    _assert_titles_match(_pages(*zip(*_PAGE_CASES)))
    text_only = _pages(["Some Title\nbody", " t "], [None, None]).select(["url", "text"])
    assert page_titles(text_only)["title"].to_pylist() == ["some title", "t"]


_TEXT_PARTS = ["\n", "\r\n", " ", "\x0b", "\x1c", "\xa0", "\u2028", "\x00", "A", "b", "\xe9"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.none(), st.lists(st.sampled_from(_TEXT_PARTS), max_size=8).map("".join)),
    st.one_of(st.none(), st.lists(st.one_of(st.sampled_from(_HTML_PARTS + [b"\x00", b"<b>"]),
                                            st.binary(max_size=4)), max_size=12).map(b"".join)),
), min_size=1, max_size=8))
def test_page_titles_equals_extract_batch(rows):
    """``page_titles`` reads only an html page's ``<title>`` unless its
    normalized title is empty, and still gives ``extract_batch``'s titles:
    null, empty and multi-line text, titles missing, empty, unclosed or
    holding tags, invalid UTF-8, NULs and every kind of whitespace."""
    _assert_titles_match(_pages(*zip(*rows)))


def _block_keys(rows):
    """url -> set of block keys, from the pipeline's blocking kernel."""
    out = blocking_keys_batch(pa.table({"url": [u for u, _ in rows],
                                        "title": [t for _, t in rows]}))
    keys: dict = {u: set() for u, _ in rows}
    for k, u in zip(out.column("block_key").to_pylist(), out.column("url").to_pylist()):
        keys[u].add(k)
    return keys


def test_blocking_token_guarantee():
    # <=2 char edits touch <=2 token regions -> a shared token always remains
    a = "alpha beta gamma delta"
    b = "alXha beta gamma deltaZ"  # 2 edits
    k = _block_keys([("https://h/a", a), ("https://h/b", b),
                     ("https://h1/1", a), ("https://h2/2", a), ("https://h/e", "")])
    assert k["https://h/a"] & k["https://h/b"]
    # identical titles across hosts share the global exact key, the title
    # under a '/' that no token key ('{host}|t|...') can start with
    assert k["https://h1/1"] & k["https://h2/2"] == {"/" + a}
    assert not any(x.startswith("/") for x in k["https://h/a"] - {"/" + a})
    assert k["https://h/e"] == set()


def test_blocking_keys_unicode_space_and_schemeless():
    """Titles split on RE2's ASCII ``\\s`` (``\\xa0`` and ``\\v`` stay inside a
    token); urls without a scheme block under host 'unknown'."""
    k = _block_keys([("//a.com/1", "p\xa0q r\vs t"), ("https://a.com/2", "p q")])
    assert k["//a.com/1"] == {"/p\xa0q r\vs t", "unknown|t|p\xa0q|0",
                              "unknown|t|r\vs|0", "unknown|t|t|0"}
    assert k["https://a.com/2"] == {"/p q", "a.com|t|p|0", "a.com|t|q|0"}


def test_blocking_batch_explodes():
    batch = pa.table(
        {"url": ["https://a.com/1"], "title": ["alpha beta gamma"]}
    )
    out = blocking_keys_batch(batch)
    assert out.column_names == ["block_key", "url", "key_string"]
    assert out.num_rows >= 4  # exact + 3 tokens
    assert set(out.column("key_string").to_pylist()) == {"alpha beta gamma"}


def _group(strings_urls):
    """One block ``k`` of ``(string, url)`` rows, as the scorer's input."""
    return pa.table({
        "block_key": pa.array(["k"] * len(strings_urls), pa.string()),
        "url": pa.array([u for _s, u in strings_urls], pa.string()),
        "key_string": pa.array([s for s, _u in strings_urls], pa.string()),
    })


def _edge_set(out):
    return set(zip(*out.select(["url_a", "url_b", "distance"]).to_pydict().values()))


def test_scorer_identical_strings_star():
    out = score_bucket_vectorized_arrow(_group([("t", f"u{i}") for i in range(5)]))
    # star: 4 edges from min url, all distance 0
    assert _edge_set(out) == {("u0", f"u{i}", 0) for i in range(1, 5)}


def test_scorer_rejects_invalid_utf8_key_strings():
    """A ``string`` key column holding bytes that are not UTF-8 raises; it
    is never decoded into code points that score."""
    bad = pa.array([b"abc", b"ab\xff", b"abd"], pa.binary()).view(pa.string())
    tbl = _group([("x", f"u{i}") for i in range(3)]).set_column(2, "key_string", bad)
    for algorithm in ALGORITHMS:
        with pytest.raises((pa.ArrowInvalid, UnicodeDecodeError)):
            score_bucket_vectorized_arrow(tbl, algorithm=algorithm)


def test_scorer_cross_string_representatives():
    g = _group([("abcd", "u1"), ("abce", "u2"), ("zzzz", "u3")])
    assert _edge_set(score_bucket_vectorized_arrow(g, max_distance=1)) == {("u1", "u2", 1)}


def test_scorer_all_pairs_parity_with_dp():
    import itertools

    strings = ["cat", "cap", "dog", "dig", "dot", "cart", "", "catt"]
    rows = [(s, f"u{i}") for i, s in enumerate(strings)]
    out = score_bucket_vectorized_arrow(_group(rows), max_distance=2, emit_all_pairs=True)
    got = {(a, b): d for a, b, d in _edge_set(out)}
    expected = {}
    for (s1, u1), (s2, u2) in itertools.combinations(rows, 2):
        d = standard_distance(s1, s2)
        if d <= 2:
            a, b = sorted([u1, u2])
            expected[(a, b)] = d
    assert got == expected


def _dp_scan_all_pairs(rows, max_distance=2, algorithm="standard"):
    """Brute-force all-pairs edges of ``(block, string, url)`` rows: in
    each block, every url pair whose strings are within ``max_distance``
    by ``algorithm``'s pure-Python DP (run on the pair with its common
    prefix stripped: all three DPs match an equal leading char for free,
    so this never changes a distance); the smallest distance per url pair
    wins."""
    import itertools
    import os

    dist = distance_fn(algorithm)
    blocks: dict = {}
    for k, s, u in rows:
        blocks.setdefault(k, []).append((s, u))
    best = {}
    for block in blocks.values():
        for (s, u), (t, v) in itertools.combinations(block, 2):
            p = len(os.path.commonprefix([s, t]))
            d = dist(s[p:], t[p:])
            if u != v and d <= max_distance:
                k = (min(u, v), max(u, v))
                best[k] = min(best.get(k, d), d)
    return {(a, b, d) for (a, b), d in best.items()}


def _dp_scan_block(rows, max_distance=2, algorithm="standard"):
    """:func:`_dp_scan_all_pairs` of one block of ``(string, url)`` rows;
    with one url per string, also the default (star + representative)
    edges."""
    return _dp_scan_all_pairs([("k", s, u) for s, u in rows], max_distance, algorithm)


def test_block_scorer_large_block_keeps_near_pairs():
    """A 101-string block is scored whole, in both modes: every pair
    within distance 1 is found, the near-identical one included."""
    rows = [(f"prefix-{i:04d}", f"u{i}") for i in range(100)]
    rows.append(("prefix-0000x", "near_a"))
    for emit_all_pairs in (False, True):
        got = _edge_set(score_bucket_vectorized_arrow(_group(rows), max_distance=1,
                                                      emit_all_pairs=emit_all_pairs))
        assert ("near_a", "u0", 1) in got
        assert got == _dp_scan_block(rows, max_distance=1)


def test_scorer_empty_and_single():
    for emit_all_pairs in (False, True):
        single = score_bucket_vectorized_arrow(_group([("only", "u1")]),
                                               emit_all_pairs=emit_all_pairs)
        empty = score_bucket_vectorized_arrow(_group([]), emit_all_pairs=emit_all_pairs)
        for out in (single, empty):
            assert out.num_rows == 0 and out.schema == _edges_schema()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("path", ["driver", "distributed"])
def test_connected_components(path, monkeypatch):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    pairs = rd.from_items(
        [
            {"url_a": "a", "url_b": "b", "distance": 1},
            {"url_a": "b", "url_b": "c", "distance": 1},
            {"url_a": "x", "url_b": "y", "distance": 0},
        ]
    )
    if path == "distributed":
        monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    stats: dict = {}
    out = connected_components(pairs, n_buckets=4, stats=stats).to_pandas()
    assert stats["path"] == ("driver" if path == "driver" else "contract+stars")
    lab = dict(zip(out["url"], out["cluster_id"]))
    assert lab["a"] == lab["b"] == lab["c"] == "a"
    assert lab["x"] == lab["y"] == "x"
    assert len(out) == 5


@pytest.mark.usefixtures("ray_session")
def test_connected_components_modes_agree(monkeypatch):
    import random

    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    rng = random.Random(3)
    # random chain/star mixture over 120 nodes
    edges = []
    for i in range(0, 120, 4):
        base = f"n{i:03d}"
        for j in range(1, 4):
            if rng.random() < 0.8:
                edges.append({"url_a": base, "url_b": f"n{i + j:03d}", "distance": 1})
    # multi-block input (the point of the test) without from_items'
    # row-per-block task overhead
    pairs = rd.from_pandas(pd.DataFrame(edges)).repartition(7)
    a = connected_components(pairs).to_pandas().sort_values("url").reset_index(drop=True)
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    stats: dict = {}
    b = (connected_components(pairs, n_buckets=4, stats=stats).to_pandas()
         .sort_values("url").reset_index(drop=True))
    assert stats["path"] == "contract+stars", stats
    assert a.equals(b)


def test_contract_table_stars():
    from liblevenshtein_rust_ray.stages.cluster import _contract_table

    t = pa.table({
        "url_a": ["b", "c", "y", "c"],
        "url_b": ["a", "b", "x", "b"],  # dup edge + two components
    })
    out = _contract_table(t)
    stars = dict(zip(out["url_a"].to_pylist(), out["url_b"].to_pylist()))
    # every non-root points at the lexicographic min of its component
    assert stars == {"b": "a", "c": "a", "y": "x"}
    # a node whose only edge is a self-loop survives as (u, u)
    loops = _contract_table(pa.table({"url_a": ["s", "b", "a"], "url_b": ["s", "a", "a"]}))
    assert sorted(zip(loops["url_a"].to_pylist(), loops["url_b"].to_pylist())) == [
        ("b", "a"), ("s", "s")]
    # empty input keeps the schema
    empty = _contract_table(t.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.column_names == ["url_a", "url_b"]
    assert empty.schema.field("url_a").type == pa.string()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("threshold", [1, 30])
def test_connected_components_auto_contraction_parity(threshold, monkeypatch):
    """Above DRIVER_MAX_EDGES the edge set is contracted first; the result
    must be identical to the pure driver path whether the contracted set
    then fits the driver (threshold=30) or is contracted to its
    star-forest fixpoint (threshold=1)."""
    import random

    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    rng = random.Random(11)
    edges = []
    # chains spanning blocks + a dense clique + random cross edges
    for i in range(60):
        edges.append({"url_a": f"c{i:03d}", "url_b": f"c{i + 1:03d}"})
    for i in range(10):
        for j in range(i + 1, 10):
            edges.append({"url_a": f"k{i}", "url_b": f"k{j}"})
    for _ in range(40):
        a, b = rng.randrange(60), rng.randrange(60)
        edges.append({"url_a": f"r{a:03d}", "url_b": f"r{b:03d}"})
    # many small blocks so contraction crosses partition boundaries
    pairs = rd.from_pandas(pd.DataFrame(edges)).repartition(13)
    want = (
        connected_components(pairs)
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", threshold)
    stats: dict = {}
    got = (
        connected_components(pairs, n_buckets=4, stats=stats)
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    assert got.equals(want)
    assert stats["path"].startswith("contract+"), stats
    assert stats.get("contract_passes", 0) >= 1
    # contraction must not grow the edge set
    assert stats["contract_edges"][0] <= len(edges)


def _components(edges):
    """Connected components of an edge set, as a set of frozensets."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b, _d in edges:
        parent[find(a)] = find(b)
    comps: dict = {}
    for x in parent:
        comps.setdefault(find(x), set()).add(x)
    return {frozenset(c) for c in comps.values()}


def test_vectorized_bucket_scorer_parity():
    """Over a bucket of 30 blocks whose urls repeat across and within
    blocks (a url may hold two strings of one block): all-pairs mode equals
    a DP scan of every url pair per block plus a global pair dedup, and the
    default mode's stars and representative edges are a subset of it with
    identical connected components."""
    rng = np.random.default_rng(11)
    alpha = list("abcdef ")
    rows = []
    for b in range(30):
        base = "".join(rng.choice(alpha, size=12))
        for i in range(int(rng.integers(1, 9))):
            s = list(base)
            for _ in range(int(rng.integers(0, 3))):
                s[int(rng.integers(0, len(s)))] = str(rng.choice(alpha))
            rows.append((f"b{b}", "".join(s), f"u{rng.integers(0, 500):03d}"))
    tbl = pa.table({"block_key": [k for k, _s, _u in rows], "url": [u for *_, u in rows],
                    "key_string": [s for _k, s, _u in rows]})
    want = _dp_scan_all_pairs(rows)
    assert {d for *_, d in want} == {0, 1, 2}  # cliques and both edit distances
    all_pairs = _edge_set(score_bucket_vectorized_arrow(tbl, emit_all_pairs=True))
    assert all_pairs == want
    default = _edge_set(score_bucket_vectorized_arrow(tbl))
    assert default < all_pairs
    assert _components(default) == _components(all_pairs)


def test_vectorized_scorer_one_block_matches_dp_scan():
    """One 40-string block: both modes give exactly the DP scan's
    edges."""
    rows = [(f"shared prefix string number {i:04d}", f"u{i:03d}") for i in range(40)]
    want = _dp_scan_block(rows)
    for emit_all_pairs in (False, True):
        out = score_bucket_vectorized_arrow(_group(rows), emit_all_pairs=emit_all_pairs)
        assert _edge_set(out) == want


def _big_block_rows():
    """530 distinct titles of lengths 9-11 in one block: digit swaps give
    distance 1-2 pairs of equal length, suffixes pairs 1 and 2 apart in
    length."""
    rows = [(f"title {i:03d}", f"u{i:03d}") for i in range(400)]
    rows += [(f"title {i:03d}x", f"v{i:03d}") for i in range(0, 400, 5)]
    rows += [(f"title {i:03d}xy", f"w{i:03d}") for i in range(0, 400, 8)]
    return rows


@pytest.mark.parametrize("tile", [None, 1_000])
@pytest.mark.parametrize("max_distance", [1, 2])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scorers_match_dp_scan_above_512_titles(algorithm, max_distance, tile, monkeypatch):
    """A block of more than 512 distinct titles is scored exactly in both
    modes, in one tile or in many, for every algorithm and distance (the
    char-signature limit depends on both)."""
    from liblevenshtein_rust_ray.stages import scorer

    rows = _big_block_rows()
    assert len(rows) > 512
    want = _dp_scan_block(rows, max_distance, algorithm)
    assert {d for *_, d in want} == set(range(1, max_distance + 1))
    lens = {u: len(s) for s, u in rows}
    assert {abs(lens[a] - lens[b]) for a, b, _ in want} == set(range(max_distance + 1))
    if tile:
        monkeypatch.setattr(scorer, "PAIR_TILE", tile)
    for emit_all_pairs in (False, True):
        out = scorer.score_bucket_vectorized_arrow(_group(rows), max_distance, algorithm,
                                                   emit_all_pairs=emit_all_pairs)
        assert _edge_set(out) == want


def _signature_keeps(a: str, b: str, n: int, algorithm: str) -> bool:
    """Whether the vectorized scorer's char-signature pass keeps ``(a, b)``."""
    from liblevenshtein_rust_ray.kernel.vectorized import codepoints
    from liblevenshtein_rust_ray.stages.scorer import _char_signatures, _signature_pass

    hist, mask = _char_signatures(*codepoints(pa.array([a, b])))
    sa, _sb, _i, _j = _signature_pass(np.array([0]), np.array([1]), np.arange(2), mask,
                                      hist, n, algorithm)
    return len(sa) == 1


# 'a' (97) and '\xa1' (161) share a bin mod 64, as do 'b' and '\xa2'; two
# non-BMP codepoints; a space
SIGNATURE_CHARS = "ab\xa1\xa2 \U0001F600\U00010061"


@st.composite
def _near_pair(draw, n: int, algorithm: str):
    """A string of short runs with at most one run longer than 255 (a
    histogram count's clip), possibly empty, and a copy of it after at
    most ``n`` of ``algorithm``'s unit edits."""
    char = st.sampled_from(SIGNATURE_CHARS)
    runs = draw(st.lists(st.tuples(char, st.integers(1, 3)), max_size=4))
    if draw(st.booleans()):
        runs.insert(draw(st.integers(0, len(runs))), (draw(char), draw(st.integers(254, 258))))
    a = b = "".join(c * k for c, k in runs)
    ops = ["insert", "delete", "substitute"] + {
        "transposition": ["swap"], "merge_and_split": ["merge", "split"]}.get(algorithm, [])
    for _ in range(draw(st.integers(0, n))):
        op, i, c = draw(st.sampled_from(ops)), draw(st.integers(0, len(b))), draw(char)
        if op == "insert":
            b = b[:i] + c + b[i:]
        elif op in ("delete", "substitute", "split") and i < len(b):
            b = b[:i] + {"delete": "", "substitute": c, "split": c + draw(char)}[op] + b[i + 1:]
        elif op in ("swap", "merge") and i + 1 < len(b):
            b = b[:i] + (b[i + 1] + b[i] if op == "swap" else c) + b[i + 2:]
    return a, b


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_signature_pass_keeps_every_near_pair(algorithm, n, data):
    """The char-signature pass is lossless: it keeps every string pair
    within ``n`` by the reference DP, across mod-64 collisions, non-BMP
    chars, clipped counts and the empty string."""
    a, b = data.draw(_near_pair(n, algorithm))
    assume(distance_fn(algorithm)(a, b) <= n)
    assert _signature_keeps(a, b, n, algorithm)


@pytest.mark.parametrize("algorithm, a, b, kept", [
    ("standard", "a", "b", True),          # 2 presence bits: exactly 2n
    ("standard", "aab", "abb", True),      # histogram L1 2: exactly 2n
    ("merge_and_split", "ab", "c", True),  # 3 presence bits: exactly 3n
    ("standard", "ab", "cd", False),       # 4 bits
    ("merge_and_split", "ab", "cd", False),
])
def test_signature_pass_limit_is_inclusive(algorithm, a, b, kept):
    """At n=1 a pair at exactly the limit is kept, one past it dropped."""
    assert _signature_keeps(a, b, 1, algorithm) is kept


def test_all_pairs_bucket_scorer_matches_block_scorer():
    """All-pairs mode over a bucket of three blocks (one a singleton, one
    url in two blocks) is the DP scan of every url pair per block, min-
    deduped, as an Arrow table of the edge schema."""
    rows = list(zip(["b1"] * 5 + ["b2"] * 3 + ["b3"],
                    ["same title", "same title", "same titel", "other thing",
                     "same title", "same title", "same title", "sane title", "lonely"],
                    ["u1", "u2", "u3", "u4", "u5", "u1", "u6", "u7", "u8"]))
    tbl = pa.table({"block_key": [k for k, _s, _u in rows], "url": [u for *_, u in rows],
                    "key_string": [s for _k, s, _u in rows]})
    got = score_bucket_vectorized_arrow(tbl, emit_all_pairs=True)
    assert got.schema == _edges_schema()
    assert _edge_set(got) == _dp_scan_all_pairs(rows)
    assert ("u1", "u2", 0) in _edge_set(got)
    empty = score_bucket_vectorized_arrow(tbl.slice(8), emit_all_pairs=True)
    assert empty.num_rows == 0 and empty.schema == _edges_schema()


@pytest.mark.parametrize("emit_all_pairs", [False, True])
def test_scorer_drops_lone_rows_before_encoding(emit_all_pairs):
    """One-row blocks change neither edges nor funnel: a fresh block whose
    url and string also occur in other blocks, and a block of two
    identical rows (a title's duplicate token), which is kept but pairs
    nothing.  ``paired_rows`` counts the rows of blocks with two or more."""
    import collections

    rows = list(zip(["b1"] * 4 + ["b2"] * 3 + ["b3"],
                    ["same title", "same title", "same titel", "other thing",
                     "same title", "sane title", "other thing", "lonely"],
                    ["u1", "u2", "u3", "u4", "u5", "u1", "u6", "u7"]))
    extra = [("fresh", "same titel", "u1"), ("dup", "lonely", "u7"), ("dup", "lonely", "u7")]

    def score(rows):
        tbl = pa.table({"block_key": [k for k, _s, _u in rows], "url": [u for *_, u in rows],
                        "key_string": [s for _k, s, _u in rows]})
        stats: dict = {}
        out = score_bucket_vectorized_arrow(tbl, stats=stats, emit_all_pairs=emit_all_pairs)
        sizes = collections.Counter(k for k, _s, _u in rows)
        assert stats.pop("paired_rows") == sum(sizes[k] > 1 for k, _s, _u in rows)
        return out, stats

    base, base_stats = score(rows)
    grown, grown_stats = score(rows + extra)
    assert base.num_rows and base_stats["dp_pairs"]
    assert grown.equals(base) and grown_stats == base_stats
    if emit_all_pairs:
        assert _edge_set(grown) == _dp_scan_all_pairs(rows + extra)


def test_blocking_recall_property():
    """Property: any >=3-token title and a <=2-edit perturbation of it share
    at least one blocking key on the same host (recall by construction, not
    probability — the flagship's completeness claim)."""
    import random

    from liblevenshtein_rust_ray.functions.typogen import TypoGenerator

    rng = random.Random(17)
    alpha = "abcdefgh"
    rows = []
    for trial in range(300):
        n_tok = rng.randint(3, 7)
        title = " ".join(
            "".join(rng.choice(alpha) for _ in range(rng.randint(3, 10)))
            for _ in range(n_tok)
        )
        g = TypoGenerator(seed=trial)
        perturbed = g.generate_typos(title, rng.randint(0, 2))
        rows += [(f"https://host/{trial}a", title), (f"https://host/{trial}b", perturbed)]
    keys = _block_keys(rows)
    for trial in range(300):
        (_, title), (_, perturbed) = rows[2 * trial], rows[2 * trial + 1]
        assert keys[f"https://host/{trial}a"] & keys[f"https://host/{trial}b"], (title, perturbed)


def _record_pass_blocks(monkeypatch):
    """Block count of every bucketed exchange the forced path runs."""
    from liblevenshtein_rust_ray.stages import grouped

    blocks: list = []
    apply = grouped.bucketed_apply

    def recording(*args, **kwargs):
        out = apply(*args, **kwargs).materialize()
        blocks.append(out.num_blocks())
        return out

    monkeypatch.setattr(grouped, "bucketed_apply", recording)
    return blocks


@pytest.mark.usefixtures("ray_session")
def test_distributed_cc_chain_pass_bound(monkeypatch):
    """Star contraction reaches its fixpoint on a 16-node chain split one
    edge per block within 8 passes, matches the driver union-find exactly,
    and each keyed pass adds at most one block, the schema sentinel's."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    n = 16
    edges = [
        {"url_a": f"n{i:04d}", "url_b": f"n{i + 1:04d}", "distance": 1}
        for i in range(n - 1)
    ]
    pairs = rd.from_items(edges).repartition(n - 1).materialize()
    blocks = _record_pass_blocks(monkeypatch)
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    stats = {}
    got = (
        connected_components(pairs, n_buckets=4, stats=stats)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert (got["cluster_id"] == "n0000").all(), got.head()
    assert len(got) == n
    assert stats["path"] == "contract+stars", stats
    assert stats["contract_passes"] <= 8, stats
    assert len(stats["contract_edges"]) == stats["contract_passes"]
    # one exchange per keyed pass, then the label read-off
    assert len(blocks) == stats["contract_passes"], blocks
    for k, b in enumerate(blocks[:-1]):
        assert b <= pairs.num_blocks() + k + 1, blocks


@pytest.mark.usefixtures("ray_session")
def test_distributed_cc_multiblock_termination(monkeypatch):
    """The loop stops at the first pass that changes no bucket even when
    the edges span several blocks and components: 8 chains of 13 urls
    split over 8 blocks take at most 8 passes."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    rows_a, rows_b = [], []
    for c in range(8):
        for i in range(12):
            rows_a.append(f"https://chain{c}.x/p{i:03d}")
            rows_b.append(f"https://chain{c}.x/p{i + 1:03d}")
    pairs = rd.from_pandas(
        pd.DataFrame({"url_a": rows_a, "url_b": rows_b, "distance": 1})
    ).repartition(8).materialize()
    drv = connected_components(pairs).to_pandas()
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    stats = {}
    got = connected_components(pairs, n_buckets=8, stats=stats).to_pandas()
    assert got["cluster_id"].nunique() == 8
    assert stats["contract_passes"] <= 8, stats
    # exact parity with the driver path (min-url labels)
    a = got.sort_values("url").reset_index(drop=True)
    b = drv.sort_values("url").reset_index(drop=True)
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_distributed_cc_raises_past_pass_bound(monkeypatch):
    """A loop that has not reached its fixpoint within its pass bound
    raises instead of returning split components; the derived bound
    finishes the same chain."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster

    pairs = rd.from_items([
        {"url_a": f"n{i:04d}", "url_b": f"n{i + 1:04d}", "distance": 1}
        for i in range(31)
    ]).repartition(31).materialize()
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    with pytest.raises(RuntimeError, match="did not reach its fixpoint in 1 passes"):
        cluster._star_cc(pairs, n_buckets=4, max_passes=1)
    got = cluster.connected_components(pairs, n_buckets=4).to_pandas()
    assert (got["cluster_id"] == "n0000").all() and len(got) == 32


def _shuffled_chains(n_chains: int, seed: int):
    """Chains of 2-40 urls with random url order along each chain, edges
    shuffled: min labels cannot ride the url order."""
    import random

    rng = random.Random(seed)
    rows = []
    for c in range(n_chains):
        k = rng.randint(2, 40)
        ids = [f"https://c{c:04d}.example/{rng.random():.12f}" for _ in range(k)]
        rows += [(ids[i], ids[i + 1]) for i in range(k - 1)]
    rng.shuffle(rows)
    return pd.DataFrame(rows, columns=["url_a", "url_b"])


@pytest.mark.usefixtures("ray_session")
def test_distributed_cc_shuffled_chains_match_driver(monkeypatch):
    """3,000 shuffled chains over 8 blocks: the forced path gives the
    driver's 3,000 clusters (the earlier min-label loop split this graph
    after its 30 rounds)."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    pairs = rd.from_pandas(_shuffled_chains(3000, 12)).repartition(8).materialize()
    want = (connected_components(pairs).to_pandas()
            .sort_values("url").reset_index(drop=True))
    assert want["cluster_id"].nunique() == 3000
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    stats: dict = {}
    got = (connected_components(pairs, n_buckets=4, stats=stats).to_pandas()
           .sort_values("url").reset_index(drop=True))
    assert stats["path"] == "contract+stars", stats
    assert got.equals(want)


def _fixpoint_in_process(edges: pa.Table, n_buckets: int, n_blocks: int):
    """The forced path's loop without Ray: pass 0 over ``n_blocks``
    contiguous blocks, then keyed passes cut by ``hash_buckets`` until no
    bucket changes.  Returns ``({url: cluster_id}, keyed passes)``."""
    from liblevenshtein_rust_ray.stages.cluster import (
        _both_ways, _contract_table, _star_bucket, _star_labels)
    from liblevenshtein_rust_ray.stages.grouped import hash_buckets

    step = -(-edges.num_rows // n_blocks)
    cur = pa.concat_tables([_contract_table(edges.slice(i, step))
                            for i in range(0, edges.num_rows, step)])
    bound = 2 * edges.num_rows.bit_length()
    for passes in range(1, bound + 1):
        rows = _both_ways(cur)
        bucket = hash_buckets(rows, ["url_a"], n_buckets)
        outs = [_star_bucket(rows.filter(pa.array(bucket == b)))
                for b in np.unique(bucket)]
        cur = pa.concat_tables(outs)
        if not any(o["changed"][0].as_py() for o in outs if o.num_rows):
            lab = _star_labels(cur)
            assert len(set(lab["url"].to_pylist())) == lab.num_rows
            return dict(zip(lab["url"].to_pylist(), lab["cluster_id"].to_pylist())), passes
    raise AssertionError(f"no fixpoint in {bound} passes")


_URLS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "a\x00b",
                         "a\x00c", "b\x00", "\x00", "é", "ab"])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_URLS, _URLS), min_size=1, max_size=40),
    st.integers(1, 64),
    st.integers(1, 8),
)
def test_star_fixpoint_matches_driver_union_find(edges, n_buckets, n_blocks):
    """The whole fixpoint over hash-bucket splits equals the driver's
    union-find on random graphs with duplicate edges, self-loops and
    NUL-bearing urls, within the pass bound."""
    from liblevenshtein_rust_ray.stages.cluster import _cc_core

    tbl = pa.table({"url_a": [a for a, _ in edges], "url_b": [b for _, b in edges]})
    got, _ = _fixpoint_in_process(tbl, n_buckets, n_blocks)
    uniq, label = _cc_core(tbl["url_a"].chunks, tbl["url_b"].chunks)
    u = uniq.to_pylist()
    assert got == {u[i]: u[label[i]] for i in range(len(u))}


def test_star_fixpoint_shuffled_chains_in_process():
    """Shuffled chains cut into 64 buckets, edge per block: the fixpoint
    is exact and well inside its pass bound."""
    from liblevenshtein_rust_ray.stages.cluster import _cc_core

    tbl = pa.Table.from_pandas(_shuffled_chains(200, 3), preserve_index=False)
    got, passes = _fixpoint_in_process(tbl, 64, tbl.num_rows)
    uniq, label = _cc_core(tbl["url_a"].chunks, tbl["url_b"].chunks)
    u = uniq.to_pylist()
    assert got == {u[i]: u[label[i]] for i in range(len(u))}
    assert passes <= 12, passes


def test_hash_buckets_keeps_nul_suffixed_keys_apart():
    """pandas hashes a str only up to its first NUL; keys are hashed as
    bytes, so "x" and "x\\x00y" get different bucket ids."""
    from liblevenshtein_rust_ray.stages.grouped import hash_buckets

    got = hash_buckets(pa.table({"k": ["x", "x\x00y"]}), ["k"], 2**31 - 1)
    assert got[0] != got[1], got


def test_hash_buckets_pinned():
    """Bucket ids of NUL-free keys are unchanged by hashing strings as
    bytes (pinned values from the str-hashing version), so ``er_pairs``'
    exchange buckets are too."""
    from liblevenshtein_rust_ray.stages.grouped import hash_buckets

    keys = ["", "a", "ab", "host.example|acme widget", "Zürich", "東京",
            "x" * 300, "https://a.example/p/001", "https://a.example/p/002",
            "t\tab", "a"]
    t = pa.table({"k": keys, "j": [str(i) for i in range(len(keys))],
                  "n": list(range(len(keys)))})
    assert hash_buckets(t, ["k"], 256).tolist() == [
        70, 208, 35, 186, 222, 158, 100, 148, 165, 42, 208]
    assert hash_buckets(t, ["k", "j"], 64).tolist() == [
        16, 54, 63, 7, 18, 21, 3, 60, 53, 41, 48]
    assert hash_buckets(t, ["n"], 7).tolist() == [0, 0, 5, 2, 3, 3, 6, 3, 1, 3, 4]
    large = t.set_column(0, "k", t["k"].cast(pa.large_string()))
    assert (hash_buckets(large, ["k"], 256).tolist()
            == hash_buckets(t, ["k"], 256).tolist())


def test_numpy_thp_madvise_disabled_in_process():
    """The package import must turn off numpy's MADV_HUGEPAGE hint — with
    this kernel's defrag=madvise it causes synchronous-compaction storms
    (measured 1.1 s vs 1.2-29 s CPU for the identical scorer call)."""
    from numpy.core import multiarray

    import liblevenshtein_rust_ray  # noqa: F401  (import applies the toggle)

    assert multiarray._get_madvise_hugepage() is False


def test_numpy_thp_madvise_disabled_in_ray_workers(ray_session):
    """Workers must ALSO have the hint off — either inherited via
    NUMPY_MADVISE_HUGEPAGE=0 (conftest sets it before ray.init) or applied
    when they import this package to deserialize UDFs."""
    import ray.data as rd

    def probe(batch):
        import liblevenshtein_rust_ray  # noqa: F401
        from numpy.core import multiarray

        batch["off"] = [multiarray._get_madvise_hugepage() is False] * len(batch["x"])
        return batch

    out = rd.from_items([{"x": i} for i in range(8)]).map_batches(probe).to_pandas()
    assert out["off"].all()


def test_exact_dedup_survives_hash_collision(ray_session, monkeypatch):
    """Two DISTINCT texts that collide on the 64-bit content hash must both
    survive: the hash is only the shuffle key, the in-bucket dedup compares
    the text itself (at 10^12 docs a 64-bit hash alone has ~3x10^7 birthday
    collisions, each silently merging two different documents)."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import dedup as dd

    monkeypatch.setattr(dd, "hash64", lambda x: 42)  # force total collision
    ds = rd.from_items(
        [
            {"id": 1, "text": "alpha"},
            {"id": 2, "text": "alpha"},
            {"id": 3, "text": "beta"},
        ]
    )
    out = dd.exact_dedup(ds, "text", "id").to_pandas().sort_values("id")
    assert list(out["id"]) == [1, 3]
    assert set(out["text"]) == {"alpha", "beta"}


# ---------------------------------------------------------------------------
# line_dedup (stages/lines.py) — CCNet-style cross-doc boilerplate removal


def _line_docs():
    return pd.DataFrame({
        "url": [f"u{i}" for i in range(6)],
        "text": [
            "title one\ncommon footer\nbody a",
            "title two\ncommon footer\nbody b",
            "title three\ncommon footer",
            "common footer",          # all-boilerplate -> doc drops out
            "solo page\nunique line",
            "",                       # lone empty line is unique -> kept
        ],
    })


def test_line_dedup_semantics(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.lines import line_dedup

    ds = rd.from_pandas(_line_docs()).repartition(3)
    out = (line_dedup(ds, "text", "url", min_df=2).to_pandas()
           .sort_values("url").reset_index(drop=True))
    assert list(out["url"]) == ["u0", "u1", "u2", "u4", "u5"]  # u3 dropped
    assert out.loc[0, "text"] == "title one\nbody a"
    assert out.loc[2, "text"] == "title three"
    assert out.loc[4, "text"] == ""          # unique empty line survives
    assert list(out["n_lines_kept"]) == [2, 2, 1, 2, 1]
    assert list(out["n_lines_dropped"]) == [1, 1, 1, 0, 0]


def test_line_dedup_paths_agree(ray_session):
    """Broadcast path and the two-exchange join fallback are output-identical."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.lines import line_dedup

    a = (line_dedup(rd.from_pandas(_line_docs()).repartition(3),
                    "text", "url", min_df=2)
         .to_pandas().sort_values("url").reset_index(drop=True))
    b = (line_dedup(rd.from_pandas(_line_docs()).repartition(3),
                    "text", "url", min_df=2, max_broadcast_common=0)
         .to_pandas().sort_values("url").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_line_dedup_flood_linear(ray_session):
    """A flood of f docs sharing one boilerplate line costs O(f) rows in the
    count exchange (per-batch partials), and every doc keeps its unique line."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.lines import line_dedup

    f = 500
    docs = pd.DataFrame({
        "url": [f"u{i}" for i in range(f)],
        "text": [f"unique {i}\nSHARED BANNER" for i in range(f)],
    })
    out = line_dedup(rd.from_pandas(docs).repartition(4), "text", "url",
                     min_df=2).to_pandas()
    assert len(out) == f
    assert (out["n_lines_dropped"] == 1).all()
    assert out["text"].str.startswith("unique ").all()


@pytest.mark.parametrize("max_broadcast_common", [50_000_000, 0])
def test_line_dedup_keeps_lines_that_differ_after_nul(ray_session, max_broadcast_common):
    """Lines that differ only after a NUL are different lines on both the
    broadcast and the fallback path: each occurs once and is kept, while
    the shared line is dropped."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.lines import line_dedup

    docs = pd.DataFrame({"url": ["u0", "u1"], "text": ["a\x00x\nshared", "a\x00y\nshared"]})
    out = (line_dedup(rd.from_pandas(docs), "text", "url", min_df=2,
                      max_broadcast_common=max_broadcast_common)
           .to_pandas().sort_values("url").reset_index(drop=True))
    assert list(out["text"]) == ["a\x00x", "a\x00y"]
    assert list(out["n_lines_dropped"]) == [1, 1]


def test_quality_langid_vectorized_parity():
    """The vectorized quality/langid batch kernels must equal the scalar
    reference kernels row for row (including unicode, empty, null and
    whitespace-edge inputs) — they are the 100-TB full-corpus path."""
    import numpy as np

    from liblevenshtein_rust_ray.functions.textstats import (
        langid_ngram,
        quality_scores,
    )
    from liblevenshtein_rust_ray.stages.textstats import (
        langid_batch,
        quality_batch,
    )

    texts = [
        "The quick brown fox, it jumps!", "", None, "xz",
        "der hund und die katze sind schön in einem haus",
        "le chat et le chien sont dans la maison",
        "the cat and the dog are in the house of things",
        "   leading and trailing   ", "a\tb\nc\r\nd  e", "é œ ß ¿punct?",
        "que la casa el perro en el jardín ión", "123 456 !!! ???",
        "x" * 500 + " the and of to in is",
        " \t\r\n ", "the " * 200,
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["" for _ in texts], pa.string()),
    })
    qv = quality_batch(t).to_pydict()
    lv = langid_batch(t).to_pydict()
    for i, x in enumerate(texts):
        x = x or ""
        qs = quality_scores(x)
        for k in ["n_chars", "n_tokens", "punct_ratio",
                  "stopword_ratio", "mean_token_len"]:
            assert abs(float(qs[k]) - float(qv[k][i])) < 1e-12, (i, k, x)
        assert langid_ngram(x) == lv["lang_pred"][i], (i, x)


# ---------------------------------------------------------------------------
# duplicated_spans / dup_span_fraction (stages/spans.py)
# ---------------------------------------------------------------------------

def _span_docs():
    shared = " ".join(f"w{i}" for i in range(10))      # 10-token shared run
    return pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "text": [
            f"alpha beta {shared} gamma delta",        # shared at tokens 2..11
            f"{shared} tail0 tail1 tail2",             # shared at tokens 0..9
            "p q r s t u v w x y z",                   # all-unique, no dups
            "short doc",                               # < w tokens: 0 windows
            # two DISJOINT dup regions in one doc: the shared run again,
            # then uniques, then a within-doc repeat is impossible here so
            # reuse the shared run once more after a unique gap
            f"{shared} z0 z1 z2 z3 z4 z5 z6 z7 z8 {shared}",
        ],
    })


def test_duplicated_spans_exact(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.spans import duplicated_spans

    ds = rd.from_pandas(_span_docs()).repartition(3)
    out = (duplicated_spans(ds, "text", "doc_id", w=8, min_df=2).to_pandas()
           .sort_values(["doc_id", "span_start"]).reset_index(drop=True))
    got = list(out.itertuples(index=False, name=None))
    # a 10-token duplicated run = positions p..p+2 dup-flagged (3 windows),
    # merged span covers exactly the 10 tokens
    assert (0, 2, 12, 10) in got
    assert (1, 0, 10, 10) in got
    assert not (out["doc_id"] == 2).any()
    assert not (out["doc_id"] == 3).any()
    d4 = out[out["doc_id"] == 4]
    assert list(d4[["span_start", "span_end"]].itertuples(index=False,
                                                          name=None)) == \
        [(0, 10), (19, 29)]


def test_dup_span_fraction_consistent(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.spans import (
        dup_span_fraction,
        duplicated_spans,
    )

    ds = rd.from_pandas(_span_docs()).repartition(2)
    frac = (dup_span_fraction(ds, "text", "doc_id", w=8, min_df=2).to_pandas()
            .set_index("doc_id").sort_index())
    spans = duplicated_spans(ds, "text", "doc_id", w=8, min_df=2).to_pandas()
    # every doc present; <w-token docs have 0 windows and fraction 0.0
    assert list(frac.index) == [0, 1, 2, 3, 4]
    assert frac.loc[3, "n_windows"] == 0
    assert frac.loc[3, "dup_fraction"] == 0.0
    assert frac.loc[2, "n_dup_windows"] == 0
    # n_dup_windows == sum over that doc's spans of (len - w + 1)
    for doc in (0, 1, 4):
        s = spans[spans["doc_id"] == doc]
        expect = int((s["n_tokens"] - 8 + 1).sum())
        assert frac.loc[doc, "n_dup_windows"] == expect
        assert frac.loc[doc, "dup_fraction"] == pytest.approx(
            expect / frac.loc[doc, "n_windows"])


def test_duplicated_spans_within_doc_repeat(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.spans import duplicated_spans

    # min_df counts OCCURRENCES (Lee et al. semantics): a shingle repeated
    # inside ONE doc is a duplicate even if no other doc has it
    rep = " ".join(f"r{i}" for i in range(8))
    df = pd.DataFrame({"doc_id": [7],
                       "text": [f"{rep} gap0 gap1 gap2 gap3 gap4 gap5 gap6 gap7 {rep}"]})
    out = (duplicated_spans(rd.from_pandas(df), "text", "doc_id",
                            w=8, min_df=2).to_pandas()
           .sort_values("span_start").reset_index(drop=True))
    assert list(out[["span_start", "span_end"]].itertuples(index=False,
                                                           name=None)) == \
        [(0, 8), (16, 24)]


def test_duplicated_spans_tokens_that_differ_after_nul(ray_session):
    """Tokens that differ only after a NUL are different tokens: two docs
    that share no w-gram have no duplicated span and no duplicated
    window."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.spans import dup_span_fraction, duplicated_spans

    df = pd.DataFrame({"doc_id": [0, 1], "text": ["p q\x00x r", "p q\x00y r"]})
    assert duplicated_spans(rd.from_pandas(df), "text", "doc_id", w=2).count() == 0
    frac = dup_span_fraction(rd.from_pandas(df), "text", "doc_id", w=2).to_pandas()
    assert list(frac["n_dup_windows"]) == [0, 0]


def test_executor_patch_fallback_on_missing_internals():
    """Version guard (round-3 VERDICT task 8): when Ray's private
    streaming-executor hook is absent or renamed, the empty-bundle patch
    degrades to a no-op (warning comes back) instead of crashing."""
    import ray.data._internal.execution.streaming_executor_state as ses

    from liblevenshtein_rust_ray.pipelines.context import (
        _patch_empty_bundle_schema_warning)

    saved_fn = ses.dedupe_schemas_with_validation
    saved_flag = getattr(ses, "_llr_empty_bundle_patch", False)
    try:
        ses._llr_empty_bundle_patch = False
        del ses.dedupe_schemas_with_validation
        # must not raise — simulates a Ray upgrade that moved the hook
        _patch_empty_bundle_schema_warning()
        assert not ses._llr_empty_bundle_patch
    finally:
        ses.dedupe_schemas_with_validation = saved_fn
        ses._llr_empty_bundle_patch = saved_flag


def test_popcount_u64_matches_python():
    import numpy as np

    from liblevenshtein_rust_ray.stages.similarity import _popcount_u64

    rng = np.random.RandomState(3)
    xs = rng.randint(0, 1 << 63, size=257, dtype=np.int64).astype(np.uint64)
    xs[0] = 0
    xs[1] = np.uint64(2**64 - 1)
    got = _popcount_u64(xs)
    assert got.tolist() == [bin(int(x)).count("1") for x in xs]


@pytest.mark.usefixtures("ray_session")
def test_distributed_cc_exchange_plan_parity(monkeypatch):
    """The forced path's keyed exchanges must reproduce the driver path
    exactly, including duplicate edges and multi-block inputs."""
    import random

    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    rng = random.Random(11)
    edges = []
    for i in range(0, 160, 5):
        base = f"m{i:03d}"
        for j in range(1, 5):
            if rng.random() < 0.75:
                edges.append({"url_a": base, "url_b": f"m{i + j:03d}",
                              "distance": 1})
    edges.append(edges[0])  # duplicate edge
    pairs = rd.from_pandas(pd.DataFrame(edges)).repartition(6)
    a = (connected_components(pairs).to_pandas()
         .sort_values("url").reset_index(drop=True))
    monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", 0)
    b = (connected_components(pairs, n_buckets=4).to_pandas()
         .sort_values("url").reset_index(drop=True))
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("edges", [
    [("x", "y\x00z"), ("x\x00y", "z")],
    # same joined key "a\0c\0b"; the side-1 id order is the reverse of the
    # side-0 order, so a shared edge key pairs the wrong endpoints
    [("a", "c\x00b"), ("a\x00c", "b")],
])
def test_distributed_cc_nul_urls_do_not_share_edge_keys(edges, monkeypatch):
    """Two edges whose ``url_a + NUL + url_b`` strings coincide are still
    two edges: both paths keep their true components apart."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import cluster
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    pairs = rd.from_pandas(pd.DataFrame(
        {"url_a": [a for a, _ in edges], "url_b": [b for _, b in edges],
         "distance": [1] * len(edges)}))
    want = {u: min(a, b) for a, b in edges for u in (a, b)}
    for threshold in (cluster.DRIVER_MAX_EDGES, 0):
        monkeypatch.setattr(cluster, "DRIVER_MAX_EDGES", threshold)
        df = connected_components(pairs, n_buckets=4).to_pandas()
        assert dict(zip(df["url"], df["cluster_id"])) == want
