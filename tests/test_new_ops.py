"""Tests for round-2 operators: corpus sources, dictionary serialization,
exact n-gram Jaccard, embedding near-dup (exact + LSH), scoped completion."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ----------------------------------------------------------------------
def test_bigtxt_reader(tmp_path, ray_session):
    p = tmp_path / "big.txt"
    p.write_text("The quick brown fox. The fox!\nquick quick")
    from liblevenshtein_rust_ray.sources.corpus import read_bigtxt

    got = {r["token"]: r["freq"] for r in read_bigtxt(str(p)).take_all()}
    assert got == {"the": 2, "quick": 3, "brown": 1, "fox": 2}


def test_mitton_reader(tmp_path, ray_session):
    p = tmp_path / "mitton.dat"
    p.write_text("$receive\nrecieve 3\nreceeve\n$separate\nseperate 12\n")
    from liblevenshtein_rust_ray.sources.corpus import read_mitton

    rows = sorted(
        (r["correct"], r["misspelling"], r["freq"])
        for r in read_mitton(str(p)).take_all()
    )
    assert rows == [
        ("receive", "receeve", 1),
        ("receive", "recieve", 3),
        ("separate", "seperate", 12),
    ]


# ----------------------------------------------------------------------
def test_dictionary_parquet_roundtrip(tmp_path):
    from liblevenshtein_rust_ray.kernel import build_trie
    from liblevenshtein_rust_ray.state.dictionary_io import (
        read_dictionary,
        write_dictionary,
    )

    terms = ["apple", "apply", "banana", "band", "éclair"]
    path = str(tmp_path / "dict.parquet")
    write_dictionary(build_trie(terms), path)
    for backend in ("dawg", "trie"):
        d = read_dictionary(path, backend)
        assert sorted(d.iter_terms()) == sorted(terms)
        assert "apple" in d and "nope" not in d


# ----------------------------------------------------------------------
def test_ngram_jaccard_exact(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.functions.tokenize import shingles, tokenize
    from liblevenshtein_rust_ray.stages.dedup import ngram_jaccard_pairs

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox leaps over the lazy dog",
        "completely different text with other words entirely here",
        "the quick brown fox jumps over the lazy dog",  # identical to 0
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.3).to_pandas()
    got = {(a, b): round(j, 6) for a, b, j in got.itertuples(index=False)}

    want = {}
    sets = [set(shingles(tokenize(t), 3)) for t in texts]
    for i in range(4):
        for j in range(i + 1, 4):
            u = len(sets[i] | sets[j])
            jac = len(sets[i] & sets[j]) / u if u else 1.0
            if jac >= 0.3:
                want[(i, j)] = round(jac, 6)
    assert got == want and (0, 3) in got and got[(0, 3)] == 1.0


def test_ngram_jaccard_list_offsets_overflow_raises():
    """Shingle-list offsets are summed in int64 and refuse to wrap at the
    int32 limit of a ``list<string>`` column."""
    from liblevenshtein_rust_ray.stages.dedup import _list_offsets

    fits = _list_offsets(np.array([2**30, 2**30 - 1, 0]))
    assert fits.type == pa.int32()
    assert fits.to_pylist() == [0, 2**30, 2**31 - 1, 2**31 - 1]
    with pytest.raises(ValueError, match="overflow"):
        _list_offsets(np.array([2**30, 2**30]))


# ----------------------------------------------------------------------
def _clustered_vectors(n_clusters=20, per=5, dim=32, noise=0.05, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = []
    for c in range(n_clusters):
        for k in range(per):
            v = centers[c] + noise * rng.standard_normal(dim)
            rows.append({"vec_id": c * per + k, "embedding": v.tolist()})
    return rows


def test_embedding_neardup_exact_and_lsh(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import embedding_neardup_pairs

    rows = _clustered_vectors()
    ds = rd.from_items(rows)
    exact = embedding_neardup_pairs(ds, "embedding", "vec_id", threshold=0.9,
                                    method="exact").to_pandas()
    # brute-force check
    m = np.array([r["embedding"] for r in rows])
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    ii, jj = np.nonzero(np.triu(sims >= 0.9, 1))
    want = set(zip(ii.tolist(), jj.tolist()))
    got = set(zip(exact["id_a"], exact["id_b"]))
    assert got == want and len(want) > 100  # clusters of 5 -> >= 10 pairs each

    lsh = embedding_neardup_pairs(ds, "embedding", "vec_id", threshold=0.9,
                                  method="lsh").to_pandas()
    got_lsh = set(zip(lsh["id_a"], lsh["id_b"]))
    assert got_lsh <= want  # no false positives (exact verify in-bucket)
    assert len(got_lsh & want) / len(want) >= 0.95  # amplified recall


def test_embedding_vec_transport_join_parity(ray_session):
    """``vec_transport="join"`` (thin ``(id, bucket, h, salts)`` table rows +
    per-distinct-pair vector attach — the 100-TB transport: ~40 B/row instead
    of dim*8 B on every one of the 16 table rows per doc) emits the SAME pair
    set as the banded path, including identical-vector star collapse and
    salted oversized buckets; cosines agree to float ulps (matmul vs
    elementwise-dot summation order)."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import embedding_neardup_pairs

    rows = _clustered_vectors()
    # flood: 80 byte-identical copies of one extra vector
    base = rows[0]["embedding"]
    rows = rows + [{"vec_id": 10_000 + j, "embedding": list(base)} for j in range(80)]
    # one realistic block, not from_items' row-per-block (80 tiny blocks
    # compound through the chained exchanges: 35s -> ~4s test time)
    ds = rd.from_pandas(pd.DataFrame(rows))
    frames = {}
    for mode in ("banded", "join"):
        out = embedding_neardup_pairs(
            ds, "embedding", "vec_id", threshold=0.9, method="lsh",
            vec_transport=mode, max_bucket=16,
        ).to_pandas()
        frames[mode] = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    b, j = frames["banded"], frames["join"]
    assert list(zip(b["id_a"], b["id_b"])) == list(zip(j["id_a"], j["id_b"]))
    assert float(abs(b["cosine"].to_numpy() - j["cosine"].to_numpy()).max()) < 1e-9
    # flood stays linear: rep (vec_id 0, the byte-identical min id) stars
    flood = j[(j["id_b"] >= 10_000)]
    assert len(flood) == 80 and set(flood["id_a"]) == {0}
    assert (flood["cosine"] > 0.999999).all()


# ----------------------------------------------------------------------
def test_scoped_completion_visibility(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.scoped import scoped_fuzzy_complete

    # root -> m1 -> {b1, b2}; terms at every level
    tree = {"b1": "m1", "b2": "m1", "m1": None}
    terms = [
        ("m1", "alpha common"),
        ("b1", "alpha one"),
        ("b2", "alpha two"),
        ("b2", "beta two"),
    ]
    ds = rd.from_items([{"scope": s, "term": t} for s, t in terms])
    out = scoped_fuzzy_complete(ds, tree, prefix_len=4, n=0).to_pandas()
    vis = out.groupby("scope")["term"].apply(set).to_dict()
    # b1 sees its own + the ancestor's terms, not the sibling's
    assert vis["b1"] == {"alpha common", "alpha one"}
    assert vis["b2"] == {"alpha common", "alpha two", "beta two"}
    assert vis["m1"] == {"alpha common"}
    # prefix filtering: 'beta' prefix only matches in b2
    beta = out[out["prefix"] == "beta"]
    assert set(beta["scope"]) == {"b2"} and set(beta["term"]) == {"beta two"}
    assert (out["distance"] == 0).all()


# ---------------------------------------------------------------------------
# Round-2 hot-bucket bounds (VERDICT items 2 & 8): duplicate floods emit
# O(k) rows, not O(k^2); clustering equivalence holds; the embedding
# default never materializes a too-large matrix on the driver.
# ---------------------------------------------------------------------------
def test_minhash_duplicate_flood_is_linear(ray_session):
    """A bucket of k identical docs emits O(k) star edges (not k^2/2) and
    the edge set is connectivity-equivalent to the full clique."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import minhash_lsh_pairs

    k = 60
    rows = [{"doc_id": i, "text": "the same exact document body " * 5} for i in range(k)]
    rows += [{"doc_id": 1000 + i, "text": f"completely unrelated text {i} with words"} for i in range(5)]
    out = minhash_lsh_pairs(rd.from_items(rows), "text", "doc_id", threshold=0.5).to_pandas()
    dup_edges = out[(out["id_a"] < 1000) & (out["id_b"] < 1000)]
    # star: exactly k-1 edges from the min id, all duplicates connected
    assert len(dup_edges) == k - 1
    assert set(dup_edges["id_a"]) == {0}
    assert set(dup_edges["id_b"]) == set(range(1, k))


def test_simhash_duplicate_flood_is_linear(ray_session):
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import simhash_pairs

    k = 60
    rows = [{"doc_id": i, "text": "another repeated body of text " * 5} for i in range(k)]
    out = simhash_pairs(rd.from_items(rows), "text", "doc_id", max_hamming=3).to_pandas()
    assert len(out) == k - 1
    assert set(out["id_a"]) == {0}
    assert (out["hamming"] == 0).all()


def test_minhash_salting_keeps_near_pairs(ray_session):
    """Buckets over max_bucket distinct signatures get salted; a genuine
    near-duplicate pair must survive the subdivision."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import minhash_lsh_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    rows = [{"doc_id": i, "text": f"{base} tail{i}"} for i in range(40)]
    out = minhash_lsh_pairs(
        rd.from_items(rows), "text", "doc_id", threshold=0.5, max_bucket=8
    ).to_pandas()
    # near-identical family must stay one connected component (union-find)
    parent = {i: i for i in range(40)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(out["id_a"], out["id_b"]):
        parent[find(int(a))] = find(int(b))
    assert len({find(i) for i in range(40)}) == 1


def test_minhash_sig_transport_join_parity(ray_session):
    """``sig_transport="join"`` (thin band rows + per-pair sig attach — the
    100-TB transport: ~40 B/band row instead of the full num_perm*8-byte
    signature on every one) emits IDENTICAL rows to the banded path, across
    both hash families, duplicate floods, and salted oversized buckets."""
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import minhash_lsh_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    rows = [{"doc_id": i, "text": f"{base} tail{i}"} for i in range(40)]
    rows += [{"doc_id": 100 + i, "text": "the same exact document body " * 5} for i in range(30)]
    rows += [{"doc_id": 200 + i, "text": f"unrelated filler {i} {i * 7} {i * 13}"} for i in range(10)]
    # one realistic block, not from_items' row-per-block (80 tiny blocks
    # compound through the join transport's 3 chained exchanges: 68s -> ~6s)
    ds = rd.from_pandas(pd.DataFrame(rows))
    for hasher in ("blake2b", "md5"):
        frames = {}
        for mode in ("banded", "join"):
            out = minhash_lsh_pairs(
                ds, "text", "doc_id", threshold=0.5, max_bucket=8,
                hasher=hasher, sig_transport=mode,
            ).to_pandas()
            frames[mode] = (
                out[["id_a", "id_b", "jaccard"]]
                .sort_values(["id_a", "id_b"])
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(frames["banded"], frames["join"])
        # flood stays linear through the join transport too
        dup = frames["join"]
        dup = dup[(dup["id_a"] >= 100) & (dup["id_b"] < 200)]
        assert len(dup) == 29 and set(dup["id_a"]) == {100}


def test_ngram_jaccard_exact_with_duplicate_flood(ray_session):
    """Identical-set collapse keeps the output EXACT (full pair set incl.
    internal jaccard-1.0 pairs) while the inverted index holds one entry
    per distinct set."""
    import itertools

    import ray.data as rd

    from liblevenshtein_rust_ray.functions.tokenize import tokenize, shingles
    from liblevenshtein_rust_ray.stages.dedup import ngram_jaccard_pairs

    docs = {
        0: "a b c d e f g",
        1: "a b c d e f g",      # dup of 0
        2: "a b c d e f g",      # dup of 0
        3: "a b c d e f x",      # near 0
        4: "p q r s t u v",
        5: "p q r s t u v",      # dup of 4
        6: "totally different words here now",
    }
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs.items()])
    got = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.3).to_pandas()
    gotset = {(a, b): round(j, 9) for a, b, j in zip(got["id_a"], got["id_b"], got["jaccard"])}

    expected = {}
    sets = {i: set(shingles(tokenize(t), 3)) for i, t in docs.items()}
    for a, b in itertools.combinations(sorted(docs), 2):
        A, B = sets[a], sets[b]
        if not A and not B:
            continue
        j = len(A & B) / len(A | B)
        if j >= 0.3:
            expected[(a, b)] = round(j, 9)
    assert gotset == expected


def test_ngram_collapse_index_is_linear():
    """The collapse stage emits one index row per (distinct set, shingle),
    independent of flood size k."""
    import pandas as pd

    from liblevenshtein_rust_ray.functions.simhash import hash64

    # simulate the stage-1 bucket input for k identical docs
    sh = ["a b c", "b c d", "c d e"]
    h = hash64("\x00".join(sorted(sh)))
    k = 500
    bucket = pd.DataFrame(
        {"__set_hash": [h] * k, "id": list(range(k)), "shingles": [sorted(sh)] * k}
    )
    from liblevenshtein_rust_ray.stages import dedup as D

    # reach the inner function through the public op is awkward; replicate
    # the contract: index rows == len(shingles), members == all k ids
    out_rows = []
    for _hh, g in bucket.groupby("__set_hash", sort=False):
        members = tuple(sorted(g["id"].tolist()))
        for s in g["shingles"].iloc[0]:
            out_rows.append((s, members[0], len(g["shingles"].iloc[0]), members))
    assert len(out_rows) == len(sh)


def test_embedding_auto_guard(ray_session, monkeypatch):
    """method='auto' flips to LSH above the matrix-size cap and never calls
    to_pandas on the dataset."""
    import numpy as np
    import ray.data as rd

    from liblevenshtein_rust_ray.stages import dedup as D

    rng = np.random.default_rng(0)
    rows = [{"vec_id": i, "embedding": rng.standard_normal(16).tolist()} for i in range(50)]
    ds = rd.from_items(rows)

    monkeypatch.setattr(D, "_EXACT_MATRIX_BYTES_CAP", 1)  # force lsh
    called = {"to_pandas": False}
    orig = type(ds).to_pandas

    def spy(self, *a, **k):
        called["to_pandas"] = True
        return orig(self, *a, **k)

    monkeypatch.setattr(type(ds), "to_pandas", spy)
    out = D.embedding_neardup_pairs(ds, "embedding", "vec_id", threshold=0.9)
    out.materialize()
    assert not called["to_pandas"]


# ---------------------------------------------------------------------------
# Contextual draft/checkpoint/undo overlay (reference engine.rs:500-756).
# ---------------------------------------------------------------------------
def test_contextual_draft_checkpoint_undo():
    import pytest as _pytest

    from liblevenshtein_rust_ray.state.contextual import ContextError, ContextualEngine

    e = ContextualEngine()
    ctx = e.create_root_context()
    # the reference doc-example sequence (engine.rs:646-700)
    e.checkpoint(ctx)            # empty checkpoint
    e.insert_str(ctx, "hello")
    e.checkpoint(ctx)            # "hello" checkpoint
    e.insert_str(ctx, " world")
    assert e.get_draft(ctx) == "hello world"
    assert e.checkpoint_count(ctx) == 2
    e.undo(ctx)
    assert e.get_draft(ctx) == "hello"
    assert e.checkpoint_count(ctx) == 1
    e.undo(ctx)
    assert e.get_draft(ctx) == ""
    with _pytest.raises(ContextError):
        e.undo(ctx)              # empty stack errors (engine.rs:712)
    e.insert_str(ctx, "abc")
    e.delete_chars(ctx, 1)
    assert e.get_draft(ctx) == "ab"
    e.clear_draft(ctx)
    assert e.get_draft(ctx) == ""


def test_contextual_visibility_and_complete():
    from liblevenshtein_rust_ray.state.contextual import ContextualEngine

    e = ContextualEngine()
    root = e.create_root_context()
    child = e.create_child_context(root)
    e.add_term(root, "global_term")
    e.add_term(child, "global_child")
    e.add_term(child, "other")
    # child sees own + ancestor; root sees only its own
    assert e.visible_terms(child) == ["global_child", "global_term", "other"]
    assert e.visible_terms(root) == ["global_term"]
    got = e.complete(child, "glob")
    assert got == [("global_child", 0), ("global_term", 0)]
    assert e.complete(root, "glob") == [("global_term", 0)]
    # draft-derived query: last token of the draft
    e.insert_str(child, "some text glob")
    assert e.complete(child) == [("global_child", 0), ("global_term", 0)]


def test_contextual_session_actor(ray_session):
    import ray

    from liblevenshtein_rust_ray.state.contextual import contextual_session

    s = contextual_session()
    ctx = ray.get(s.create_root_context.remote())
    ray.get(s.add_term.remote(ctx, "alpha"))
    ray.get(s.insert_str.remote(ctx, "al"))
    ray.get(s.checkpoint.remote(ctx))
    ray.get(s.insert_str.remote(ctx, "xxx"))
    ray.get(s.undo.remote(ctx))
    assert ray.get(s.get_draft.remote(ctx)) == "al"
    assert ray.get(s.complete.remote(ctx, "al")) == [("alpha", 0)]


def test_spell_correct_ranking(ray_session):
    """Best correction = (distance asc, freq desc, word asc): 'helo' has
    d=1 candidates {help(5), hello(9), helm(2)} -> hello by freq; 'worde'
    has d=1 {word(7), words(7)} -> tie broken lexicographically to word;
    'zzz' has no candidate within 2 and is dropped; exact hits correct to
    themselves at d=0 regardless of other frequencies."""
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.spelling import spell_correct

    toks = rd.from_pandas(pd.DataFrame({"t": ["helo", "worde", "zzz", "word"]}))
    dic = rd.from_pandas(pd.DataFrame({
        "word": ["help", "hello", "helm", "word", "words"],
        "freq": [5, 9, 2, 7, 7],
    }))
    out = (spell_correct(toks, "t", dic, "word", "freq", n=2)
           .to_pandas().sort_values("tok").reset_index(drop=True))
    got = list(zip(out["tok"], out["correction"], out["distance"], out["freq"]))
    assert got == [
        ("helo", "hello", 1, 9),
        ("word", "word", 0, 7),
        ("worde", "word", 1, 7),
    ]


def test_canonicalize_terms(ray_session):
    """Transitive closure at d<=1: chain color->colr->colour... clusters to
    its lexicographic min; singletons (xylophone) map to themselves; the
    duplicate term contributes no extra component."""
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.fuzzy import canonicalize_terms

    toks = rd.from_pandas(pd.DataFrame(
        {"t": ["color", "colr", "colour", "xylophone", "color"]}))
    out = (canonicalize_terms(toks, "t", n=1)
           .to_pandas().sort_values("term").reset_index(drop=True))
    got = dict(zip(out["term"], out["canon"]))
    # color ~ colr (del), colr ~ colour? lev(colr,colour)=2 -> via color:
    # lev(color,colour)=1, so all three join through 'color'
    assert got == {
        "color": "color", "colr": "color", "colour": "color",
        "xylophone": "xylophone",
    }
    assert len(out) == 4


def test_decontaminate(ray_session):
    """Docs sharing any word-3-shingle with the benchmark are dropped;
    shorter-than-k docs use the whole-token fallback shingle; empty docs
    survive (no shingles to match)."""
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import decontaminate

    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "the quick brown fox jumps",     # shares 'the quick brown' -> drop
            "a completely different text",   # survives
            "quick brown",                   # fallback shingle != any bench -> survives
            "",                              # empty -> survives
        ],
    }))
    out = decontaminate(corpus, "text", ["the quick brown cat"], k=3).to_pandas()
    assert sorted(out["doc_id"]) == [2, 3, 4]
    # min_overlap=2: doc needs two distinct shared shingles to be dropped
    corpus2 = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["the quick brown fox jumps high",
                 "the quick brown dog"],
    }))
    out2 = decontaminate(
        corpus2, "text", ["the quick brown fox sat"], k=3, min_overlap=2
    ).to_pandas()
    # doc 1 shares 'the quick brown' + 'quick brown fox' (2) -> dropped;
    # doc 2 shares only 'the quick brown' (1) -> kept
    assert sorted(out2["doc_id"]) == [2]


def test_split_and_sample_by_hash(ray_session):
    """Split is a pure function of the key: repartitioned input yields the
    identical assignment; val fraction is near val_pct; sample_by_hash
    with the same salt/pct keeps exactly the 'val' keys of split_by_hash."""
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.sampling import sample_by_hash, split_by_hash

    df = pd.DataFrame({"k": list(range(500))})
    a = split_by_hash(rd.from_pandas(df), "k", val_pct=10).to_pandas()
    b = split_by_hash(rd.from_pandas(df).repartition(7), "k", val_pct=10).to_pandas()
    assert dict(zip(a["k"], a["split"])) == dict(zip(b["k"], b["split"]))
    frac = (a["split"] == "val").mean()
    assert 0.04 < frac < 0.2
    s = sample_by_hash(rd.from_pandas(df), "k", pct=10, salt="split").to_pandas()
    assert set(s["k"]) == set(a.loc[a["split"] == "val", "k"])


def test_redact_pii_batch():
    import pyarrow as pa

    from liblevenshtein_rust_ray.stages.textstats import redact_pii_batch

    t = pa.table({"text": [
        "mail a.b+c@ex-ample.co.uk now",
        "server at 192.168.0.1 port 80",
        "call +1-555-123-4567 today",
        "no pii here",
        None,
    ]})
    got = redact_pii_batch(t).column("redacted").to_pylist()
    assert got == [
        "mail <EMAIL> now",
        "server at <IP> port 80",
        "call <PHONE> today",
        "no pii here",
        "",
    ]


def test_gopher_stats_batch_handcrafted():
    import pyarrow as pa

    from liblevenshtein_rust_ray.stages.textstats import gopher_stats_batch

    t = pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": [
            "a b a b a",          # 5 words, 2 unique, top word a=3, top bigram 'a b'=x? pairs: ab ba ab ba -> top 2, dup 4
            "one two three four", # all unique, no repeated bigram
            "solo",               # single word: bigram fracs 0
            "  x   y  ",          # whitespace-heavy: 2 words after empty drop
        ],
    })
    out = gopher_stats_batch(t).to_pandas()
    assert out["n_words"].tolist() == [5, 4, 1, 2]
    assert out["n_unique_words"].tolist() == [2, 4, 1, 2]
    assert out["mean_word_len"].tolist() == [1.0, 3.75, 4.0, 1.0]
    assert out["top_word_frac"].tolist() == [3 / 5, 1 / 4, 1.0, 1 / 2]
    # doc0 bigrams: ab ba ab ba -> top 2/4, duplicated occurrences 4/4
    assert out["top_bigram_frac"].tolist() == [2 / 4, 1 / 3, 0.0, 1.0]
    assert out["dup_bigram_frac"].tolist() == [4 / 4, 0.0, 0.0, 0.0]
    # repetitive/short docs all fail the keep gate
    assert out["keep"].tolist() == [False, False, False, False]


def test_gopher_quality_stage_matches_batch(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.textstats import (
        gopher_quality, gopher_stats_batch)

    texts = [" ".join(["tok%d" % (i % (j + 1)) for i in range(j * 7 + 1)])
             for j in range(12)]
    df = pd.DataFrame({"doc_id": range(12), "text": texts})
    got = (gopher_quality(rd.from_pandas(df).repartition(3))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = gopher_stats_batch(
        pa.table(df)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_rebalance_sources(ray_session):
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.sampling import rebalance_sources

    df = pd.DataFrame({
        "k": list(range(3000)),
        "g": ["a", "b", "c"] * 1000,
    })
    rates = {"a": 1.0, "b": 0.5, "c": 0.0}
    out = rebalance_sources(
        rd.from_pandas(df), "g", rates, key_col="k").to_pandas()
    counts = out["g"].value_counts().to_dict()
    assert counts.get("a") == 1000          # rate 1.0 keeps everything
    assert "c" not in counts                # rate 0.0 drops everything
    assert 380 < counts.get("b", 0) < 620   # ~50% of 1000
    # partitioning-independent: same kept set on a different block layout
    out2 = rebalance_sources(
        rd.from_pandas(df).repartition(7), "g", rates, key_col="k").to_pandas()
    assert set(zip(out["k"], out["g"])) == set(zip(out2["k"], out2["g"]))
    # unknown group falls back to default_rate
    out3 = rebalance_sources(
        rd.from_pandas(df), "g", {}, key_col="k", default_rate=0.0).to_pandas()
    assert len(out3) == 0


def test_kmv_sketch(ray_session):
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.functions.simhash import md5_hash64
    from liblevenshtein_rust_ray.functions.tokenize import shingles, tokenize
    from liblevenshtein_rust_ray.stages.sketch import (
        kmv_distinct_shingles, kmv_estimate)

    # exact below k: fewer distinct shingles than k -> est == true count
    texts = ["alpha beta gamma delta", "beta gamma delta epsilon"]
    truth = {s for t in texts for s in shingles(tokenize(t), 3)}
    out = kmv_distinct_shingles(
        rd.from_pandas(pd.DataFrame({"text": texts})), k=256)
    assert out["k_used"].iloc[0] == len(truth)
    assert out["est_distinct"].iloc[0] == float(len(truth))

    # estimator path (k << n): within 15% of the true distinct count,
    # and partitioning-independent (merge of partials == whole-set sketch)
    texts = ["w%d x%d y%d" % (i, i * 7 % 911, i * 13 % 577)
             for i in range(5000)]
    df = pd.DataFrame({"text": texts})
    a = kmv_distinct_shingles(rd.from_pandas(df), k=128)
    b = kmv_distinct_shingles(rd.from_pandas(df).repartition(9), k=128)
    pd.testing.assert_frame_equal(a, b)
    true_n = len({s for t in texts for s in shingles(tokenize(t), 3)})
    est = a["est_distinct"].iloc[0]
    assert abs(est - true_n) / true_n < 0.15

    # estimator formula pinned against a hand computation
    hs = sorted({md5_hash64(s) for t in texts for s in shingles(tokenize(t), 3)})
    want = 127 * 2.0 ** 64 / float(hs[127])
    assert est == want


def test_gopher_stats_duckdb_parity():
    """The gopher_quality_docs oracle contract on adversarial inputs:
    tabs/newlines/multi-space splits, unicode words (codepoint lengths),
    heavy repetition — both engines produce identical rows."""
    import duckdb
    import pyarrow as pa

    from liblevenshtein_rust_ray.stages.textstats import gopher_stats_batch

    docs = [
        "a\tb\nc  d\te",
        "naïve café naïve café naïve",
        "x " * 50 + "y",
        "one",
        "  padded   both  ends  ",
        ("w1 w2 w3 " * 20).strip(),
    ]
    t = pa.table({"doc_id": list(range(len(docs))), "text": docs})
    got = gopher_stats_batch(t).to_pandas().sort_values("doc_id")

    con = duckdb.connect()
    con.register("documents", t)
    import __ray_entry__ as e
    sql = e.oracle_sql()["gopher_quality_docs"]
    want = con.sql(sql).df().sort_values("doc_id")
    import pandas as pd
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True)[sorted(got.columns)],
        want.reset_index(drop=True)[sorted(want.columns)],
        check_dtype=False)


def test_bpe_token_count_batch():
    import pyarrow as pa

    from liblevenshtein_rust_ray.stages.textstats import bpe_token_count_batch

    t = pa.table({"doc_id": [0, 1, 2, 3],
                  "text": ["Hello world, it's 2024! naïve café",
                           "", "a  b", None]})
    out = bpe_token_count_batch(t).to_pandas()
    # Hello| world|,| it|'s| 2024|!| naïve| café -> 9
    assert out["n_bpe_tokens"].tolist() == [9, 0, 3, 0]
    assert out["n_chars"].tolist() == [34, 0, 4, 0]


def test_token_stats_vectorized_matches_row_semantics():
    """token_stats_batch rewrote the per-row len(set(tokenize(x))) loop as
    flatten+factorize; pin the old semantics exactly."""
    import pyarrow as pa

    from liblevenshtein_rust_ray.functions.tokenize import tokenize
    from liblevenshtein_rust_ray.stages.textstats import token_stats_batch

    texts = ["The quick brown fox. THE fox!", "", None, "a1 b2 a1",
             "tabs\tand\nlines", "naïve café naïve", "!!! ???"]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = token_stats_batch(t).to_pandas()
    for i, x in enumerate(texts):
        toks = tokenize(x or "")
        assert out["n_tokens"][i] == len(toks), (i, x)
        assert out["n_distinct_tokens"][i] == len(set(toks)), (i, x)
        assert out["n_chars"][i] == len(x or ""), (i, x)


def test_model_score_stage(ray_session):
    """Actor-pool model scoring: per-actor load, vectorized forward,
    score equals the hand-computed linear formula."""
    import ray.data as rd

    from liblevenshtein_rust_ray.functions.tokenize import tokenize
    from liblevenshtein_rust_ray.stages.modelscore import (
        MODEL_KEEP_THRESHOLD, MODEL_WEIGHTS, model_score)

    texts = ["the quick brown fox", "a a a a a a", "", "Mixed CASE words"]
    df = pd.DataFrame({"doc_id": range(4), "text": texts})
    out = (model_score(rd.from_pandas(df), concurrency=2, batch_size=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for i, x in enumerate(texts):
        toks = tokenize(x)
        nt = max(len(toks), 1)
        want = (MODEL_WEIGHTS["bias"]
                + MODEL_WEIGHTS["n_tokens"] * len(toks)
                + MODEL_WEIGHTS["n_distinct_frac"] * (len(set(toks)) / nt)
                + MODEL_WEIGHTS["mean_token_len"]
                * (sum(len(t) for t in toks) / nt))
        assert out["model_score"][i] == want
        assert out["model_keep"][i] == (want > MODEL_KEEP_THRESHOLD)


def test_deletion_blocking_matches_length_blocking(ray_session):
    """FastSS deletion-signature blocking emits the EXACT same pair set as
    the length plan (both are exact; only the candidate generation
    differs), for standard and transposition."""
    import random

    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_self_join

    rng = random.Random(11)
    vocab = sorted({"".join(rng.choices("abcde", k=rng.randint(1, 9)))
                    for _ in range(300)})
    ds = rd.from_pandas(pd.DataFrame({"tok": vocab}))
    for alg in ("standard", "transposition"):
        out = {}
        for blocking in ("length", "deletion"):
            df = fuzzy_self_join(ds, "tok", n=2, algorithm=alg,
                                 blocking=blocking).to_pandas()
            out[blocking] = sorted(
                zip(df["val_a"], df["val_b"], df["distance"]))
        assert out["length"] == out["deletion"], alg
        assert len(out["length"]) > 50  # non-trivial pair set


def test_deletion_variants():
    from liblevenshtein_rust_ray.pipelines.fuzzy import _deletion_variants

    assert _deletion_variants("ab", 1) == {"ab", "a", "b"}
    assert _deletion_variants("ab", 2) == {"ab", "a", "b", ""}
    assert _deletion_variants("", 2) == {""}
    assert len(_deletion_variants("abcdef", 2)) == 1 + 6 + 15


def test_deletion_join_matches_length_join(ray_session):
    import random

    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_join

    rng = random.Random(13)
    lv = sorted({"".join(rng.choices("abcd", k=rng.randint(1, 8)))
                 for _ in range(150)})
    rv = sorted({"".join(rng.choices("abcd", k=rng.randint(1, 8)))
                 for _ in range(150)})
    lds = rd.from_pandas(pd.DataFrame({"a": lv}))
    rds = rd.from_pandas(pd.DataFrame({"b": rv}))
    out = {}
    for blocking in ("length", "deletion"):
        df = fuzzy_join(lds, rds, "a", "b", n=2, blocking=blocking).to_pandas()
        out[blocking] = sorted(
            zip(df["left_val"], df["right_val"], df["distance"]))
    assert out["length"] == out["deletion"]
    assert len(out["length"]) > 50


def test_deletion_probe_join_matches_exchange_plan(ray_session):
    """fuzzy_join(right_sigs=...) — broadcast probe join against a
    persisted signature index — emits the same pairs as the exchange
    plan; oversized probe sides raise."""
    import random

    import pytest
    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.fuzzy import (
        deletion_signatures, fuzzy_join)

    rng = random.Random(19)
    dict_words = sorted({"".join(rng.choices("abcd", k=rng.randint(2, 8)))
                         for _ in range(250)})
    probes = sorted({"".join(rng.choices("abcd", k=rng.randint(2, 8)))
                     for _ in range(40)})
    dds = rd.from_pandas(pd.DataFrame({"w": dict_words}))
    pds = rd.from_pandas(pd.DataFrame({"t": probes}))
    sigs = deletion_signatures(dds, "w", 2).materialize()
    a = fuzzy_join(pds, dds, "t", "w", n=2, blocking="deletion").to_pandas()
    b = fuzzy_join(pds, dds, "t", "w", n=2, blocking="deletion",
                   right_sigs=sigs).to_pandas()
    key = lambda df: sorted(zip(df["left_val"], df["right_val"], df["distance"]))
    assert key(a) == key(b) and len(a) > 20
    with pytest.raises(ValueError):
        fuzzy_join(pds, dds, "t", "w", n=2, blocking="length",
                   right_sigs=sigs)


def test_deletion_blocking_unicode(ray_session):
    """Deletion signatures operate on codepoints — unicode vocab produces
    the same exact pair set as the length plan."""
    import random

    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.fuzzy import fuzzy_self_join

    rng = random.Random(29)
    vocab = sorted({"".join(rng.choices("aébç日", k=rng.randint(1, 6)))
                    for _ in range(120)})
    ds = rd.from_pandas(pd.DataFrame({"tok": vocab}))
    out = {}
    for blocking in ("length", "deletion"):
        df = fuzzy_self_join(ds, "tok", n=2, blocking=blocking).to_pandas()
        out[blocking] = sorted(zip(df["val_a"], df["val_b"], df["distance"]))
    assert out["length"] == out["deletion"]
    assert len(out["length"]) > 30


def test_ngram_jaccard_hot_shingle_cap(ray_session):
    """The max_df stop-shingle guard: a shingle with df >> max_df emits
    O(df) index rows, not O(df^2) pair rows — pairs whose only overlap is
    the hot shingle disappear (documented lower-bound recall), pairs with
    rare shared shingles survive."""
    import pandas as pd
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import ngram_jaccard_pairs

    n = 40
    rows = [{"doc_id": i, "text": f"a b c u{i} v{i}"} for i in range(2, n)]
    # docs 0/1 share the rare suffix shingles as well as the hot prefix
    rows += [{"doc_id": 0, "text": "a b c x y z"},
             {"doc_id": 1, "text": "a b c x y z"}]
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(3)

    # exact contract: every pair shares 'a b c' -> 40*39/2 pairs at a low
    # threshold (plus nothing new from the duplicate 0/1 pair)
    exact = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.05,
                                max_df=None).to_pandas()
    assert len(exact) == n * (n - 1) // 2

    # capped: the hot 'a b c' group (df=39 distinct sets > 8) is dropped;
    # only the exact-duplicate pair (0, 1) survives via its rare shingles
    capped = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.05,
                                 max_df=8).to_pandas()
    assert [(r.id_a, r.id_b) for r in capped.itertuples()] == [(0, 1)]
    # lower-bound jaccard: the dropped hot shingle is missing from the
    # intersection count but still in |A|+|B| -> 3/(4+4-3), not 1.0
    assert capped["jaccard"].tolist() == [0.6]


def test_contamination_report(ray_session):
    """Per-doc overlap counts + fraction; shingle-less docs report 0/0/0.0."""
    import pyarrow as pa
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.dedup import contamination_report

    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": ["alpha beta gamma delta",   # shingles: a-b-g, b-g-d
                 "alpha beta gamma zeta",    # a-b-g, b-g-z
                 ""],                         # no shingles
    }))
    bench = ["alpha beta gamma"]             # one shingle: a-b-g
    out = (contamination_report(corpus, "text", "doc_id", bench)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_shingles"].tolist() == [2, 2, 0]
    assert out["n_contaminated"].tolist() == [1, 1, 0]
    assert out["frac"].tolist() == [0.5, 0.5, 0.0]
