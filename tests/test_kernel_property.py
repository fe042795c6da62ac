"""Property-based cross-validation: automaton traversal ≡ brute-force DP scan.

Mirrors the reference's load-bearing oracle
(/root/reference/tests/proptest_automaton_distance_cross_validation.rs:1-80):
for random dictionaries and queries, the automaton must produce exactly the
terms within ``max_distance`` with exactly the DP distances — no false
positives, no false negatives, identical distances — for all three algorithms.
"""

from hypothesis import given, settings, strategies as st

from liblevenshtein_rust_ray.kernel import (
    ALGORITHMS,
    LevenshteinAutomaton,
    build_trie,
    distance_fn,
    query,
)

words = st.text(alphabet="ab", min_size=0, max_size=8)
wordsets = st.lists(st.text(alphabet="abc", min_size=0, max_size=10), min_size=1, max_size=30)
unicode_words = st.text(alphabet="aé中", min_size=0, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    terms=wordsets,
    q=words,
    n=st.integers(min_value=0, max_value=3),
    alg=st.sampled_from(ALGORITHMS),
)
def test_automaton_equals_dp_scan(terms, q, n, alg):
    dp = distance_fn(alg)
    expected = {}
    for t in set(terms):
        d = dp(q, t)
        if d <= n:
            expected[t] = d
    got = {c.term: c.distance for c in query(build_trie(terms), q, n, alg)}
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(unicode_words, min_size=1, max_size=15),
    q=unicode_words,
    n=st.integers(min_value=0, max_value=2),
    alg=st.sampled_from(ALGORITHMS),
)
def test_automaton_equals_dp_scan_unicode(terms, q, n, alg):
    dp = distance_fn(alg)
    expected = {t: dp(q, t) for t in set(terms) if dp(q, t) <= n}
    got = {c.term: c.distance for c in query(build_trie(terms), q, n, alg)}
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    a=st.text(alphabet="abcd", max_size=10),
    b=st.text(alphabet="abcd", max_size=10),
    n=st.integers(min_value=0, max_value=3),
    alg=st.sampled_from(ALGORITHMS),
)
def test_pair_acceptance_equals_dp(a, b, n, alg):
    # LevenshteinAutomaton.accepts ≡ DP pair distance (the universal-automaton
    # pair-scoring surface, reference universal/automaton.rs:242)
    d = distance_fn(alg)(a, b)
    acc = LevenshteinAutomaton(a, n, alg).accepts(b)
    if d <= n:
        assert acc == d
    else:
        assert acc is None


@settings(max_examples=100, deadline=None)
@given(
    terms=wordsets,
    q=words,
    n=st.integers(min_value=0, max_value=2),
    alg=st.sampled_from(ALGORITHMS),
)
def test_prefix_mode_equals_prefix_dp_scan(terms, q, n, alg):
    # prefix-mode oracle: min over all prefixes p of t of dp(q, p)
    dp = distance_fn(alg)
    got = {c.term: c.distance
           for c in query(build_trie(terms), q, n, alg, prefix_mode=True)}
    for t in set(terms):
        # the autocomplete contract, uniform for every term length: the
        # reported distance is exactly min over term prefixes p of dp(q, p).
        # (The reference's fully-consumed-only finality is unsound under
        # subsumption and also drops short terms — see
        # kernel/state.py::infer_prefix_distance for the analysis.)
        best = min(dp(q, t[:k]) for k in range(len(t) + 1))
        if best <= n:
            assert got.get(t) == best
        else:
            assert t not in got


# ----------------------------------------------------------------------
# Vectorized banded-DP kernel (kernel.vectorized) ≡ per-pair DP oracle —
# the numpy analogue of the reference's SIMD distance matrix
# (src/distance/simd.rs), clamped at n+1.
# ----------------------------------------------------------------------
pairlists = st.lists(
    st.tuples(
        st.text(alphabet="abcé", min_size=0, max_size=12),
        st.text(alphabet="abcé", min_size=0, max_size=12),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(pairs=pairlists, n=st.integers(min_value=0, max_value=3), alg=st.sampled_from(ALGORITHMS))
def test_batch_distances_equal_dp(pairs, n, alg):
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    dp = distance_fn(alg)
    qs = [a for a, _ in pairs]
    ts = [b for _, b in pairs]
    got = batch_distances(qs, ts, n, alg)
    for (a, b), g in zip(pairs, got):
        assert int(g) == min(dp(a, b), n + 1), (a, b, n, alg)


@st.composite
def long_mixed_pairs(draw):
    """Up to 25 pairs whose queries run 0-150 chars (past every old 16/32/64
    length group, and many lengths per batch, so the active pair prefix
    shrinks at many rows); each term is its query after 0-4 random edits,
    or an unrelated string; str (NUL included) or bytes."""
    alphabet = "ab\x00é"
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        size = draw(st.integers(min_value=0, max_value=150))
        q = draw(st.text(alphabet=alphabet, min_size=size, max_size=size))
        t = list(q)
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            at = draw(st.integers(min_value=0, max_value=len(t)))
            op = draw(st.sampled_from(["ins", "del", "sub", "swap"]))
            if op == "ins" or not t:
                t.insert(at, draw(st.sampled_from(alphabet)))
            elif op == "del":
                del t[min(at, len(t) - 1)]
            elif op == "sub":
                t[min(at, len(t) - 1)] = draw(st.sampled_from(alphabet))
            elif at + 1 < len(t):
                t[at], t[at + 1] = t[at + 1], t[at]
        t = "".join(t) if draw(st.integers(0, 4)) else draw(st.text(alphabet, max_size=150))
        pairs.append((q, t))
    if draw(st.booleans()):
        pairs = [(q.encode(), t.encode()) for q, t in pairs]
    return pairs


@settings(max_examples=60, deadline=None)
@given(pairs=long_mixed_pairs(), n=st.integers(min_value=0, max_value=3),
       alg=st.sampled_from(ALGORITHMS))
def test_batch_distances_long_mixed_lengths_equal_dp(pairs, n, alg):
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    dp = distance_fn(alg)
    got = batch_distances([q for q, _ in pairs], [t for _, t in pairs], n, alg)
    for (a, b), g in zip(pairs, got):
        assert int(g) == min(dp(a, b), n + 1), (a, b, n, alg)


def test_batch_distances_nul_strings():
    """Strings that differ only after a NUL keep distinct codes (pandas'
    string factorize stops at NUL), in both batch kernels."""
    from liblevenshtein_rust_ray.kernel.operations import (
        OperationSet,
        batch_weighted_distances,
    )
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    qs, ts = ["\x00a", "", "x\x00"], ["\x00b", "\x00", "x\x00"]
    for alg in ALGORITHMS:
        assert batch_distances(qs, ts, 2, alg).tolist() == [1, 1, 0]
    assert batch_weighted_distances(qs, ts, OperationSet.standard()).tolist() == [1, 1, 0]


def test_batch_kernels_take_arrow_arrays():
    """Arrow arrays (plain, sliced, chunked, large) give the list inputs'
    distances in both batch kernels, ``subst`` fallback included."""
    import pyarrow as pa

    from liblevenshtein_rust_ray.kernel.operations import (
        OperationSet,
        batch_weighted_distances,
    )
    from liblevenshtein_rust_ray.kernel.substitution import leet_speak
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    qs, ts = ["ab0", "\x00é", "", "abc"], ["abo", "\x00e", "x", "cab"]
    arrows = [(pa.array(qs), pa.array(ts)),
              (pa.array(["z"] + qs).slice(1), pa.chunked_array([ts[:1], ts[1:]])),
              (pa.array(qs, pa.large_string()), pa.array(ts, pa.large_string()))]
    for alg in ALGORITHMS:
        for sub in (None, leet_speak()):
            want = batch_distances(qs, ts, 2, alg, sub).tolist()
            assert all(batch_distances(q, t, 2, alg, sub).tolist() == want for q, t in arrows)
    want = batch_weighted_distances(qs, ts, OperationSet.standard()).tolist()
    assert all(batch_weighted_distances(q, t, OperationSet.standard()).tolist() == want
               for q, t in arrows)


def test_batch_distances_beyond_one_chunk():
    """A deterministic batch of more pairs than one kernel chunk (8,192),
    checked against the DP on a seeded sample, for every algorithm."""
    import random

    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    rng = random.Random(11)
    base = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 60)))
            for _ in range(3000)]
    qs, ts = [], []
    for _ in range(10_000):
        q = rng.choice(base)
        t = list(q)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(t))
            if rng.random() < 0.5 or not t:
                t.insert(at, rng.choice("abc"))
            else:
                del t[min(at, len(t) - 1)]
        qs.append(q)
        ts.append("".join(t))
    sample = rng.sample(range(len(qs)), 300)
    for alg in ALGORITHMS:
        dp = distance_fn(alg)
        got = batch_distances(qs, ts, 2, alg)
        for i in sample:
            assert int(got[i]) == min(dp(qs[i], ts[i]), 3), (qs[i], ts[i], alg)


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.text(alphabet="aol01", max_size=8), st.text(alphabet="aol01", max_size=8)),
        min_size=1,
        max_size=20,
    ),
    n=st.integers(min_value=0, max_value=2),
)
def test_batch_distances_subst_equals_automaton(pairs, n):
    """Restricted substitutions (standard algorithm): vectorized cost ≡
    single-term automaton query with the same substitution set."""
    from liblevenshtein_rust_ray.kernel.substitution import leet_speak
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    sub = leet_speak()
    qs = [a for a, _ in pairs]
    ts = [b for _, b in pairs]
    got = batch_distances(qs, ts, n, "standard", subst=sub)
    for (a, b), g in zip(pairs, got):
        hits = list(query(build_trie([b]), a, n, "standard", subst=sub))
        want = hits[0].distance if hits else n + 1
        assert int(g) == want, (a, b, n)


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.binary(max_size=10), st.binary(max_size=10)),
        min_size=1, max_size=20,
    ),
    n=st.integers(min_value=0, max_value=2),
    alg=st.sampled_from(ALGORITHMS),
)
def test_batch_distances_bytes_mode(pairs, n, alg):
    """Byte-unit terms (the reference's CharUnit axis) go through the same
    banded kernel; oracle = DP over byte sequences."""
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    dp = distance_fn(alg)
    qs = [a for a, _ in pairs]
    ts = [b for _, b in pairs]
    got = batch_distances(qs, ts, n, alg)
    for (a, b), g in zip(pairs, got):
        assert int(g) == min(dp(a, b), n + 1), (a, b, n, alg)


def test_transposition_special_subsumption_regression():
    """Pinned regression: the reference's special-subsumes-normal rule
    (position.rs:104-113, f == query_length && i == j) kills the only
    accepting path for query 'cb' vs term 'abcb' at n=2 — the special
    (0,2,t) must NOT subsume the normal (0,2) whose match-match tail
    accepts.  Found by the Hypothesis oracle; our rule keeps both."""
    from liblevenshtein_rust_ray.kernel import build_trie
    from liblevenshtein_rust_ray.kernel.query import query

    for terms, q in [(["abcb"], "cb"), (["xyay"], "ay"), (["aé中é"], "中é")]:
        got = {c.term: c.distance for c in query(build_trie(terms), q, 2, "transposition")}
        assert got == {terms[0]: 2}


# ----------------------------------------------------------------------
# codepoints (UTF-8 values buffer -> code points, or raw bytes) + pad_rows
# ≡ a per-value utf-32 (or byte) encode: lengths, zero padding and the
# reversed merge-and-split layout, over sliced, chunked, large and binary
# arrays.
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    strings=st.lists(st.text(alphabet="ab\x00é日\U0001f600", max_size=9), max_size=30),
    as_bytes=st.booleans(),
    large=st.booleans(),
    cut=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 30)),
    rows=st.lists(st.integers(0, 29), max_size=12),
    reverse=st.booleans(),
)
def test_codepoints_pad_rows_equal_per_string_encode(strings, as_bytes, large, cut, rows,
                                                      reverse):
    import numpy as np
    import pyarrow as pa

    from liblevenshtein_rust_ray.kernel.vectorized import codepoints, pad_rows

    if as_bytes:
        values, typ = [s.encode() for s in strings], pa.large_binary() if large else pa.binary()
        ref = [list(v) for v in values]
    else:
        values, typ = strings, pa.large_string() if large else pa.string()
        ref = [np.frombuffer(v.encode("utf-32-le"), np.uint32).tolist() for v in values]
    lo = min(cut[0], len(values))
    hi = max(lo, len(values) - cut[1])
    arr, ref = pa.array(values, typ).slice(lo, hi - lo), ref[lo:hi]  # non-zero offset
    k = min(cut[2], len(arr))
    if cut[2] % 2:
        arr = pa.chunked_array([arr.slice(0, k), arr.slice(k)], type=typ)
    units, starts, lens = codepoints(arr)
    assert units.dtype == np.uint32 and lens.tolist() == [len(r) for r in ref]
    assert [units[a:a + n].tolist() for a, n in zip(starts, lens)] == ref
    rows = np.array([r % len(ref) for r in rows] if ref else [], dtype=np.int64)
    enc = pad_rows(units, starts, lens, rows, reverse=reverse)
    assert enc.shape == (len(rows), max([len(ref[r]) for r in rows] + [1]))
    for i, r in enumerate(rows):
        want = ref[r][::-1] if reverse else ref[r]
        assert enc[i, :len(want)].tolist() == want and not enc[i, len(want):].any()
