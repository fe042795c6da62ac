"""Spelling-correction evaluation — the reference's corpus-validation
pipeline (/root/reference/tests/corpus_validation.rs:129-346: Holbrook /
Aspell / Wikipedia recall-at-distance gates) as a distributed job.

``spelling_recall`` generates deterministic misspellings from a vocabulary
(TypoGenerator semantics, generator.rs:35-212 — seeded per word, so any
parallelism yields the same corpus), fuzzy-joins them back against the
vocabulary at distance ``n``, and reports recall: the fraction of
misspellings whose ORIGINAL word is among the matches.  By construction
every misspelling is within ``n`` edits of its original, so the exact
automaton/DP join must achieve recall 1.0 — the pipeline doubles as an
end-to-end kernel-correctness gate (the reference's gates are >= 85-90%
because its corpora are human misspellings; ours are generated at known
distance)."""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.simhash import hash64
from ..functions.typogen import TypoGenerator
from .fuzzy import fuzzy_join


def generate_misspellings(vocab_ds, col: str, per_word: int = 2,
                          distance: int = 2, seed: int = 42):
    """Dataset (original, misspelling) — ``per_word`` seeded typos per word,
    each at edit distance <= ``distance`` (exact under all three algorithms:
    no transpositions)."""

    def gen(t: pa.Table) -> pa.Table:
        orig, miss = [], []
        for w in t.column(col).to_pylist():
            if not w or len(w) < 3:
                continue
            g = TypoGenerator(seed=(hash64(w) ^ seed) & 0x7FFFFFFF)
            for _ in range(per_word):
                m = g.generate_typos(w, distance)
                orig.append(w)
                miss.append(m)
        return pa.table({"original": pa.array(orig, type=pa.string()),
                         "misspelling": pa.array(miss, type=pa.string())})

    return vocab_ds.map_batches(gen, batch_format="pyarrow")


def spelling_recall(vocab_ds, col: str, n: int = 2, per_word: int = 2,
                    seed: int = 42):
    """One-row Dataset (n_misspellings, n_recovered, recall): recall of the
    fuzzy join at distance ``n`` against the generating vocabulary."""
    pairs = generate_misspellings(vocab_ds, col, per_word=per_word,
                                  distance=n, seed=seed)
    matches = fuzzy_join(pairs, vocab_ds, "misspelling", col, n=n)

    # (misspelling, original) recovered iff the original appears among the
    # misspelling's matches — a broadcast-free merge on the pair table
    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"left_val": "misspelling", "right_val": "matched"})

    m = matches.map_batches(tag, batch_format="pandas")
    truth = pairs

    from ..stages.grouped import bucketed_apply

    def prep_truth(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["matched"] = ""
        out["__side"] = "t"
        return out[["misspelling", "original", "matched", "__side"]]

    def prep_match(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["original"] = ""
        out["__side"] = "m"
        return out[["misspelling", "original", "matched", "__side"]]

    both = truth.map_batches(prep_truth, batch_format="pandas").union(
        m.map_batches(prep_match, batch_format="pandas")
    )

    def per_bucket(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        truth = t.filter(pc.equal(side, "t")).group_by(
            ["misspelling", "original"]).aggregate([])
        found = t.filter(pc.equal(side, "m")).group_by(
            ["misspelling", "matched"]).aggregate([])
        hit = truth.join(found, ["misspelling", "original"],
                         ["misspelling", "matched"], join_type="inner")
        return pa.table({"n_misspellings": [truth.num_rows],
                         "n_recovered": [hit.num_rows]})

    parts = bucketed_apply(both, "misspelling", per_bucket)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        tot = int(df["n_misspellings"].sum())
        rec = int(df["n_recovered"].sum())
        return pd.DataFrame(
            {"n_misspellings": [tot], "n_recovered": [rec],
             "recall": [rec / tot if tot else 1.0]}
        )

    return parts.repartition(1).map_batches(finalize, batch_format="pandas",
                                            batch_size=None)


def spell_correct(tokens_ds, tok_col: str, dict_ds, word_col: str,
                  freq_col: str, n: int = 2, algorithm: str = "standard",
                  blocking: str = "length", right_sigs=None):
    """Dataset[(tok, correction, distance, freq)] — each distinct token's
    best dictionary correction within ``n`` edits: smallest distance, then
    highest corpus frequency, then lexicographically smallest word — the
    reference's spelling-corrector application (README.md quick-start:
    ordered candidate query + frequency ranking).  Tokens with no
    candidate are dropped.

    Shape: the length-bucketed :func:`fuzzy_join` emits (tok, word,
    distance) candidates; the dictionary's (word -> freq) map is broadcast
    ONCE via ``ray.put`` (the dictionary is the small side — 124k words is
    ~2 MB) and resolved per worker from the local object store;
    best-per-token is a bucketed argmin exchange on tok."""
    import ray

    from ..stages.grouped import bucketed_apply
    from ..stages.keys import key_codes, run_ranks

    # the dictionary feeds BOTH the join and the broadcast freq map — pin
    # the (small) relation once instead of re-executing its plan twice
    dict_ds = dict_ds.materialize()
    pairs = fuzzy_join(tokens_ds, dict_ds, tok_col, word_col,
                       n=n, algorithm=algorithm, blocking=blocking,
                       right_sigs=right_sigs)

    fmap = {}
    for b in dict_ds.select_columns([word_col, freq_col]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        fmap.update(zip(b.column(word_col).to_pylist(),
                        b.column(freq_col).to_pylist()))
    fref = ray.put(fmap)

    def attach(t: pa.Table) -> pa.Table:
        f = ray.get(fref)  # zero-copy handle from the local store
        freq = [f.get(w) for w in t.column("right_val").to_pylist()]
        if None in freq:
            # a correction absent from dict_ds means right_sigs is a stale
            # or mismatched persisted index — name the cause instead of
            # letting the cast below die with an opaque error
            missing = sorted({w for w, q in zip(
                t.column("right_val").to_pylist(), freq) if q is None})[:5]
            raise ValueError(
                "spell_correct: corrections not present in dict_ds "
                f"(stale/mismatched right_sigs index?): {missing}"
            )
        return pa.table([t.column("left_val"), t.column("right_val"),
                         t.column("distance"), pa.array(freq, pa.int64())],
                        schema=_CORRECTIONS)

    def best(t: pa.Table) -> pa.Table:
        t = t.sort_by([("tok", "ascending"), ("distance", "ascending"),
                       ("freq", "descending"), ("correction", "ascending")])
        return t.filter(pa.array(run_ranks(key_codes(t.column("tok"))) == 1))

    return bucketed_apply(
        pairs.map_batches(attach, batch_format="pyarrow"),
        "tok",
        best,
        empty_result=_CORRECTIONS.empty_table(),
    )


_CORRECTIONS = pa.schema([("tok", pa.string()), ("correction", pa.string()),
                          ("distance", pa.int64()), ("freq", pa.int64())])


# ----------------------------------------------------------------------
ENGLISH_WORDS = "/root/reference/data/english_words.txt"


def load_dictionary_words(path: str = ENGLISH_WORDS) -> list[str]:
    """The reference's bundled real dictionary (data/english_words.txt,
    123,985 entries — its benchmark + corpus-validation dictionary),
    lowercased/distinct/sorted.  Falls back to the deterministic synthetic
    vocabulary when the file is absent."""
    import os

    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return sorted({w.strip().lower() for w in f if w.strip()})
    from ..sources.pages import _vocab

    return _vocab(size=20000)


def make_mitton_corpus(words: list[str], sample: int = 20000, per_word: int = 1,
                       distance: int = 2, seed: int = 7) -> str:
    """Deterministic Mitton-format misspelling corpus over a real word list
    (the bundled Holbrook/Aspell sets need a network download the build
    can't do, so the typo model generates one at known distances; format
    round-trips through sources.corpus.parse_mitton)."""
    lines = []
    for w in words:
        if len(w) < 4 or hash64(f"sample|{seed}|{w}") % max(1, len(words) // sample):
            continue
        g = TypoGenerator(seed=(hash64(w) ^ seed) & 0x7FFFFFFF)
        lines.append(f"${w}")
        for _ in range(per_word):
            lines.append(f"{g.generate_typos(w, distance)} 1")
    return "\n".join(lines)


class _DictQueryActor:
    """Actor-pool stage: the 124k-term ArrayTrie + dense universal tables
    are built ONCE per actor from the broadcast word list (``ray.put`` —
    read per actor, never per batch), then every batch of misspellings is
    a vectorized table-driven traversal."""

    def __init__(self, words_ref, n: int):
        import ray

        from ..kernel.arraytrie import ArrayTrie, batched_query  # noqa: F401

        self.trie = ArrayTrie.from_terms(ray.get(words_ref), presorted=True)
        self.n = n

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..kernel import standard_distance
        from ..kernel.arraytrie import batched_query

        outs = {"distance": [], "found": []}
        for correct, miss in zip(t.column("correct").to_pylist(),
                                 t.column("misspelling").to_pylist()):
            d_true = standard_distance(correct, miss)
            if d_true > self.n:
                continue  # reference skips beyond-bound cases (corpus_validation.rs:152)
            hits = batched_query(self.trie, miss, self.n)
            found = any(term == correct for term, _d in hits)
            outs["distance"].append(d_true)
            outs["found"].append(1 if found else 0)
        return pa.table(
            {"distance": pa.array(outs["distance"], type=pa.int64()),
             "found": pa.array(outs["found"], type=pa.int64())}
        )


def corpus_validation(words: list[str] | None = None, n: int = 2,
                      sample: int = 20000, per_word: int = 1, seed: int = 7,
                      concurrency: int | None = None):
    """The reference's corpus-validation gates
    (tests/corpus_validation.rs:129-346) as a distributed Ray Data job over
    the REAL bundled dictionary: recall-at-distance of the automaton engine,
    reported per true edit distance.  Returns a Dataset
    (distance, n_cases, n_found, recall) — the engine is exact, so recall
    must be 1.0 at every distance <= n (the reference gates >= 85/85/90%
    on human corpora; generated corpora make the gate sharp)."""
    import ray
    import ray.data as rd

    from ..sources.corpus import parse_mitton
    from ..stages.grouped import bucketed_apply

    words = words or load_dictionary_words()
    corpus = parse_mitton(make_mitton_corpus(words, sample=sample,
                                             per_word=per_word, seed=seed))
    words_ref = ray.put(words)
    cases = rd.from_arrow(pa.table({
        "correct": pa.array([c for c, _m, _f in corpus], type=pa.string()),
        "misspelling": pa.array([m for _c, m, _f in corpus], type=pa.string()),
    }))
    scored = cases.map_batches(
        _DictQueryActor,
        fn_constructor_kwargs={"words_ref": words_ref, "n": n},
        concurrency=concurrency or 8,
        batch_size=256,
        batch_format="pyarrow",
    )

    def agg(t: pa.Table) -> pa.Table:
        return t.group_by("distance").aggregate(
            [([], "count_all"), ("found", "sum")]
        ).rename_columns(["distance", "n_cases", "n_found"])

    parts = bucketed_apply(scored, "distance", agg, n_buckets=4)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("distance", as_index=False).agg(
            n_cases=("n_cases", "sum"), n_found=("n_found", "sum"))
        g["recall"] = g["n_found"] / g["n_cases"]
        return g.astype({"distance": "int64", "n_cases": "int64", "n_found": "int64"})

    return parts.repartition(1).map_batches(finalize, batch_format="pandas",
                                            batch_size=None)


def dictionary_membership(ds, col: str, words: list[str],
                          concurrency: int | None = None):
    """Dataset[(col, in_dict)] — membership of a token column against a
    dictionary, screened per actor by a Bloom prefilter in front of an
    ArrayTrie (the reference's DynamicDawg-with-bloom composition,
    dynamic_dawg.rs ``with_config``; kernel/bloom.py measures misses at
    0.76 µs/probe vs a 35 µs trie walk on the 124k dictionary — and a
    web-scale token stream is overwhelmingly misses).

    Distribution shape: the dictionary is broadcast ONCE via ``ray.put``
    (sorted term list, ~1.5 MB for 124k words); each actor builds its
    Bloom+ArrayTrie in ``__init__`` and every batch is one vectorized
    ``contains_batch`` probe.

    Default actor count leaves CPU slots for the upstream exchange: a pool
    sized to the WHOLE session (e.g. 4 actors on 4 CPUs) pins every slot
    and starves the operators feeding it — observed live-lock in the
    4-CPU test session."""
    import ray

    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        concurrency = max(2, min(8, ncpu // 4))

    ref = ray.put(sorted(set(words)))

    class Member:
        def __init__(self):
            from ..kernel.arraytrie import ArrayTrie
            from ..kernel.bloom import BloomBackedDict

            terms = ray.get(ref)
            self.d = BloomBackedDict(
                ArrayTrie.from_terms(terms, presorted=True), terms)

        def __call__(self, t: pa.Table) -> pa.Table:
            toks = t.column(col).to_pylist()
            return pa.table({
                col: t.column(col),
                "in_dict": pa.array(self.d.contains_batch(toks), type=pa.bool_()),
            })

    return ds.map_batches(Member, concurrency=concurrency,
                          batch_format="pyarrow")
