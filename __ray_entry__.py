"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship entity-resolution pipeline on a deterministic
Common-Crawl-style corpus at sf=0.001.  ``queries()`` exposes one callable
per implemented operator/pipeline (SURVEY.md §2 + training-data ops);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every SQL-expressible
query (tables region nation customer supplier part orders lineitem events
documents embeddings are pre-registered views).

Ray is initialised by the DRIVER before importing this module — nothing here
calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import Any

# tmpfs when available: this sandbox reclaims the page cache aggressively, so
# disk-backed /tmp re-reads the corpus from virtio per run (kernel-side fault
# storms in ReadParquet workers); /dev/shm pages survive cache reclaim.
# Overridable for hosts where shm is small.
_CORPUS_CACHE = os.environ.get(
    "LLRR_CORPUS_CACHE",
    "/dev/shm/llrr_corpus" if os.access("/dev/shm", os.W_OK) else "/tmp/llrr_corpus",
)


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.001


def _corpus_dir(sf: float) -> str:
    """Deterministic synthetic page corpus for the given scale, cached as
    partitioned parquet under /tmp (generated once per process/machine)."""
    from liblevenshtein_rust_ray.sources.pages import write_corpus

    out = os.path.join(_CORPUS_CACHE, f"sf{sf}")
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        write_corpus(out, sf)
        with open(marker, "w") as f:
            f.write("ok")
    return out


def _pages_path(sf_dir: str) -> str:
    return os.path.join(_corpus_dir(_sf_of(sf_dir)), "pages")


_TOK_RE = re.compile(r"[a-z0-9]+")


def _docs_as_pages(sf_dir: str, keep: str | None = None):
    """documents -> deterministic synthetic pages (url from doc_id, title =
    first 5 [a-z0-9]+ tokens of the text, 16 hosts) — the SQL-reproducible
    corpus every oracle-checked ER variant shares; the matching SQL prefix
    is the ``p``/``t`` CTE pair in ``oracle_sql()``.  ``keep`` selects the
    dynamic-dictionary split: "old" = doc_id % 10 != 0 (the 90% base),
    "new" = doc_id % 10 == 0 (the 10% delta) — SQL-expressible so the
    incremental/decremental oracles can reproduce the same split."""
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    if keep is not None:
        want_new = keep == "new"

        def split(t: pa.Table) -> pa.Table:
            import numpy as np

            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            mask = ids % 10 == 0
            return t.filter(pa.array(mask if want_new else ~mask))

        docs = docs.map_batches(split, batch_format="pyarrow")

    def to_pages(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        urls, outs = [], []
        for i, x in zip(ids, texts):
            x = x or ""
            title = " ".join(_TOK_RE.findall(x.lower())[:5])
            urls.append(f"https://h{i % 16:02d}.example.com/d{i}")
            outs.append(f"{title}\n{x}")
        n = len(ids)
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "warc_ts": pa.array([0] * n, type=pa.timestamp("us")),
                "html": pa.array([b""] * n, type=pa.binary()),
                "text": pa.array(outs, type=pa.string()),
                "lang": pa.array([""] * n, type=pa.string()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


# ======================================================================
def entry() -> Any:
    """Flagship: pages -> blocking -> banded-DP scoring -> clusters."""
    from liblevenshtein_rust_ray.pipelines.context import configure_data_context
    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_clusters

    configure_data_context()

    return er_clusters(_pages_path("/root/testdata/sf0.001"))


# ======================================================================
# queries — each callable: sf_dir -> Dataset | DataFrame | pa.Table
# ======================================================================
def queries() -> dict[str, Callable[[str], Any]]:
    from liblevenshtein_rust_ray.pipelines.context import configure_data_context

    configure_data_context()
    from liblevenshtein_rust_ray.pipelines import relational as R
    from liblevenshtein_rust_ray.pipelines import fuzzy as F
    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_clusters, er_pairs
    from liblevenshtein_rust_ray.stages import dedup as D
    from liblevenshtein_rust_ray.stages import textstats as T
    from liblevenshtein_rust_ray.stages.similarity import ann_brute_topk
    from liblevenshtein_rust_ray.stages.multimodal import multimodal_features
    from liblevenshtein_rust_ray.functions.phonetic import phonetic_normalize

    import numpy as np
    import pyarrow as pa

    # (prefix, term) rows of the two prefix-expansion queries
    _PREFIX_TERMS = pa.schema([("prefix", pa.string()), ("term", pa.string())])

    def _by_first_char(t: pa.Table):
        """Sorted distinct tokens of ``t``, one list per first character."""
        g = t.group_by("c0").aggregate([("tok", "distinct")])
        return (sorted(v) for v in g.column("tok_distinct").to_pylist())

    def _rd(sf_dir, table, columns=None):
        import pyarrow.parquet as pq
        import ray.data as rd

        # remove_metadata(): the driver's testdata parquet bakes b'pandas'
        # schema metadata whose dict makes pa.Schema UNHASHABLE — every
        # SplitBlocks/unify in every worker then logs "Failed to hash the
        # schemas" and loses Ray's schema-dedup early-exit.  An explicit
        # metadata-free read schema fixes it at the source.
        path = f"{sf_dir}/{table}.parquet"
        sch = pq.read_schema(path).remove_metadata()
        if columns:
            sch = pa.schema([sch.field(c) for c in columns])
        return rd.read_parquet(path, columns=columns, schema=sch)

    # -------------------------- fuzzy operators -----------------------
    def fuzzy_selfjoin_part(sf_dir):
        return F.fuzzy_self_join(_rd(sf_dir, "part", ["p_name"]), "p_name", n=2)

    def fuzzy_selfjoin_part_arraytrie(sf_dir):
        """Same join through the CSR ArrayTrie backend (the reference's
        DoubleArrayTrie default-backend role, double_array_trie.rs:204) —
        per-bucket level-synchronous automaton walk instead of the banded
        DP; shares fuzzy_selfjoin_part's SQL oracle."""
        return F.fuzzy_self_join(_rd(sf_dir, "part", ["p_name"]), "p_name",
                                 n=2, engine="arraytrie")

    def fuzzy_selfjoin_customer(sf_dir):
        """Customer names are all the same length, so length blocking
        degenerates to ONE quadratic bucket — exactly the skew FastSS
        deletion-signature blocking exists for (group sizes are
        corpus-size-independent).  Exact for unit-cost standard n=1;
        output-identical to the length plan (pinned by the
        fuzzy_vocab_pairs / _deletion twin oracles)."""
        return F.fuzzy_self_join(_rd(sf_dir, "customer", ["c_name"]),
                                 "c_name", n=1, blocking="deletion")

    def _vocab_ds(sf_dir):
        import ray.data as rd
        from liblevenshtein_rust_ray.functions.tokenize import tokenize

        def toks(t: pa.Table) -> pa.Table:
            out = sorted({tok for x in t.column("text").to_pylist() for tok in tokenize(x or "")})
            return pa.table({"tok": pa.array(out, type=pa.string())})

        from liblevenshtein_rust_ray.stages.grouped import bucketed_apply

        return bucketed_apply(
            _rd(sf_dir, "documents", ["text"]).map_batches(toks, batch_format="pyarrow"),
            "tok",
            lambda t: t.group_by("tok").aggregate([]),
            empty_result=pa.schema([("tok", pa.string())]).empty_table(),
        )

    def fuzzy_vocab_pairs(sf_dir):
        return F.fuzzy_self_join(_vocab_ds(sf_dir), "tok", n=2)

    def fuzzy_vocab_pairs_deletion(sf_dir):
        """The same vocabulary self-join through FastSS deletion-signature
        blocking (pipelines/fuzzy.py _deletion_self_join) — the
        web-scale-vocab plan whose candidate-group sizes are
        corpus-size-independent, unlike length buckets.  Exact, so it
        shares fuzzy_vocab_pairs' SQL oracle."""
        return F.fuzzy_self_join(_vocab_ds(sf_dir), "tok", n=2,
                                 blocking="deletion")

    def fuzzy_lookup_parts(sf_dir):
        part = _rd(sf_dir, "part", ["p_partkey", "p_name"])
        return F.fuzzy_lookup_agg(part, part, "p_name", "p_name", "p_partkey", n=1)

    def fuzzy_lookup_parts_pathmap(sf_dir):
        """Same multimap lookup with the mapped-dictionary backend: hits
        resolve their payload through MappedTrie.get (the reference's
        ``PathMapDictionary<V>`` surface, pathmap.rs:44) instead of a side
        table; shares fuzzy_lookup_parts's SQL oracle."""
        part = _rd(sf_dir, "part", ["p_partkey", "p_name"])
        return F.fuzzy_lookup_agg(part, part, "p_name", "p_name", "p_partkey",
                                  n=1, backend="path_map")

    def fuzzy_topk_part(sf_dir):
        """Ordered/ranked fuzzy matches: 3 nearest other part names, d<=2."""
        return F.fuzzy_topk(_rd(sf_dir, "part", ["p_name"]), "p_name", k=3, n=2)

    def fuzzy_lookup_parts_filtered(sf_dir):
        """Value-filter pushdown (query_filtered): only even partkeys."""
        part = _rd(sf_dir, "part", ["p_partkey", "p_name"])
        return F.fuzzy_lookup_agg(
            part, part, "p_name", "p_name", "p_partkey", n=1,
            value_pred=lambda v: int(v) % 2 == 0,
        )

    def fuzzy_lookup_parts_valueset(sf_dir):
        """query_by_value_set (reference mod.rs:607-623): fuzzy lookup
        restricted to payloads in a broadcast value set (partkeys < 32)."""
        part = _rd(sf_dir, "part", ["p_partkey", "p_name"])
        allowed = set(range(32))
        return F.fuzzy_lookup_agg(
            part, part, "p_name", "p_name", "p_partkey", n=1,
            value_pred=lambda v: int(v) in allowed,
        )

    def substring_search_docs(sf_dir):
        """Approximate substring scan (suffix-automaton capability):
        occurrences of 'custoner' (typo of 'customer') within document text,
        edit distance <= 1."""
        return F.substring_search(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            pattern="custoner", n=1,
        )

    def substring_positions_d0(sf_dir):
        """Full match_positions surface (suffix_automaton.rs:758) at d=0:
        every exact occurrence of 'customer' with its end position —
        SQL-checkable with substr()."""
        return F.substring_positions(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            pattern="customer", n=0,
        )

    def substring_positions_d1(sf_dir):
        """All approximate occurrences of 'custoner' at d<=1 (rows-only;
        the Sellers-DP kernel is property-tested against brute force)."""
        return F.substring_positions(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            pattern="custoner", n=1,
        )

    def fuzzy_vocab_pairs_subst(sf_dir):
        """Restricted-substitution fuzzy pairs: vocabulary tokens within
        d<=1 when phonetic_basic substitutions (f/p, c/k, c/s, s/z, a/e,
        i/y) are free — the reference's SubstitutionSet presets
        (substitution_set.rs:414-510; leet/qwerty/ocr are the same plumbing
        with different pair tables).  Oracle-checked by the recursive-CTE
        free-substitution DP behind a class-canonicalized translate()
        lower-bound prefilter."""
        from liblevenshtein_rust_ray.kernel.substitution import phonetic_basic

        return F.fuzzy_self_join(_vocab_ds(sf_dir), "tok", n=1, subst=phonetic_basic())

    def decontaminate_docs(sf_dir):
        """Training-data decontamination: corpus docs sharing any
        word-3-shingle with the pseudo test set (doc_id % 97 == 0) are
        dropped.  The benchmark's shingle set is broadcast once via
        ray.put; the corpus streams through ONE stateless filter — no
        shuffle (stages/dedup.py:decontaminate)."""
        import numpy as np

        from liblevenshtein_rust_ray.stages.dedup import decontaminate

        docs = _rd(sf_dir, "documents", ["doc_id", "text"])

        def side(want_bench: bool):
            def f(t: pa.Table) -> pa.Table:
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                mask = (ids % 97 == 0) == want_bench
                return t.filter(pa.array(mask))
            return docs.map_batches(f, batch_format="pyarrow")

        out = decontaminate(side(False), "text", side(True))
        return out.select_columns(["doc_id"])

    def contamination_frac_docs(sf_dir):
        """Contamination MEASUREMENT (decontaminate's reporting twin):
        per corpus doc, its distinct word-3-shingle count, how many
        appear in the pseudo-benchmark's (doc_id % 97 == 0) shingle set,
        and the fraction — the distribution a decontamination threshold
        is read off before committing to a drop rule.  Same broadcast +
        one-stateless-pass shape; exact unnest/COUNT DISTINCT SQL
        mirror."""
        import numpy as np

        from liblevenshtein_rust_ray.stages.dedup import contamination_report

        docs = _rd(sf_dir, "documents", ["doc_id", "text"])

        def side(want_bench: bool):
            def f(t: pa.Table) -> pa.Table:
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                mask = (ids % 97 == 0) == want_bench
                return t.filter(pa.array(mask))
            return docs.map_batches(f, batch_format="pyarrow")

        return contamination_report(side(False), "text", "doc_id",
                                    side(True))

    def redact_docs(sf_dir):
        """PII redaction (emails / IPv4s / phone numbers -> typed
        placeholders) over PII-bearing text synthesized deterministically
        from doc_id — vectorized RE2 kernels (pc.replace_substring_regex),
        byte-identical to DuckDB's regexp_replace chain (same RE2 engine,
        same patterns, same order)."""
        from liblevenshtein_rust_ray.stages.textstats import redact_pii_batch

        docs = _rd(sf_dir, "documents", ["doc_id", "text"])

        def with_pii(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_pylist()
            texts = t.column("text").to_pylist()
            out = [
                f"{x or ''} contact u{i}@h{i % 16}.example.com or "
                f"10.0.{i % 256}.{(i * 7) % 256} or "
                f"+1-555-{100 + i % 900}-{1000 + i % 9000}"
                for i, x in zip(ids, texts)
            ]
            return pa.table({"doc_id": t.column("doc_id"),
                             "text": pa.array(out, type=pa.string())})

        return (docs.map_batches(with_pii, batch_format="pyarrow")
                .map_batches(redact_pii_batch, batch_format="pyarrow")
                .select_columns(["doc_id", "redacted"]))

    def split_docs(sf_dir):
        """Deterministic train/val split — a pure function of the row key
        (md5(salt:key) % 100), independent of ordering / partitioning /
        cluster size, so resumed or re-sharded runs agree
        (stages/sampling.py)."""
        from liblevenshtein_rust_ray.stages.sampling import split_by_hash

        docs = _rd(sf_dir, "documents", ["doc_id"])
        return split_by_hash(docs, "doc_id", val_pct=10)

    def kmv_distinct_docs(sf_dir):
        """KMV (bottom-k) distinct-count sketch of word 3-shingles across
        the corpus (stages/sketch.py): per-batch bottom-256 md5 hashes,
        merged by unioning k values per block — a mergeable sketch whose
        md5 hash family makes the ESTIMATE itself deterministic, so the
        SQL oracle reproduces the approximate answer exactly."""
        from liblevenshtein_rust_ray.stages.sketch import kmv_distinct_shingles

        return kmv_distinct_shingles(
            _rd(sf_dir, "documents", ["text"]), "text", k=256, shingle_k=3)

    def rebalance_sources_docs(sf_dir):
        """Domain mixing (stages/sampling.py rebalance_sources): keep each
        document with a per-source probability — the training-mix
        re-weighting step of a corpus pipeline.  Deterministic md5
        per-million threshold on doc_id, so any node recomputes a row's
        fate without coordination; the SQL oracle applies the identical
        CASE thresholds."""
        from liblevenshtein_rust_ray.stages.sampling import rebalance_sources

        docs = _rd(sf_dir, "documents", ["doc_id", "source"])
        return rebalance_sources(
            docs, "source",
            {"src0": 1.0, "src1": 0.75, "src2": 0.5, "src3": 0.25,
             "src4": 0.1},
            key_col="doc_id", default_rate=0.6)

    def vocab_canonicalize(sf_dir):
        """Term normalization: connected components of the d<=1 vocabulary
        self-join, canon = lexicographic min of the component (singletons
        map to themselves) — oracle-checked by a recursive-CTE label
        propagation over the identical levenshtein edge set."""
        return F.canonicalize_terms(_vocab_ds(sf_dir), "tok", n=1)

    def fuzzy_join_vocab_partwords(sf_dir):
        """Two-sided fuzzy join: document vocabulary x part-name words, d<=1."""
        from liblevenshtein_rust_ray.functions.tokenize import tokenize

        def words(t: pa.Table) -> pa.Table:
            out = sorted({w for x in t.column("p_name").to_pylist() for w in tokenize(x or "")})
            return pa.table({"w": pa.array(out, type=pa.string())})

        right = _rd(sf_dir, "part", ["p_name"]).map_batches(words, batch_format="pyarrow")
        return F.fuzzy_join(_vocab_ds(sf_dir), right, "tok", "w", n=1)

    def fuzzy_join_vocab_partwords_deletion(sf_dir):
        """Same two-sided join through FastSS deletion-signature blocking
        (pipelines/fuzzy.py _deletion_join) — exact, shares the length
        plan's SQL oracle."""
        from liblevenshtein_rust_ray.functions.tokenize import tokenize

        def words(t: pa.Table) -> pa.Table:
            out = sorted({w for x in t.column("p_name").to_pylist()
                          for w in tokenize(x or "")})
            return pa.table({"w": pa.array(out, type=pa.string())})

        right = _rd(sf_dir, "part", ["p_name"]).map_batches(
            words, batch_format="pyarrow")
        return F.fuzzy_join(_vocab_ds(sf_dir), right, "tok", "w", n=1,
                            blocking="deletion")

    def prefix_search_tokens(sf_dir):
        """Prefix-mode automaton (autocomplete): every 3-char token prefix ->
        all vocabulary tokens starting with it (distance 0 prefix match).

        Distributed by FIRST CHARACTER: a prefix's matches all share its
        first char, so each first-char partition holds every token a local
        trie needs — per-partition tries, no repartition(1), and each
        prefix is derived in exactly one partition (no duplicate rows)."""
        from liblevenshtein_rust_ray.kernel import build_trie
        from liblevenshtein_rust_ray.kernel.query import query as kq
        from liblevenshtein_rust_ray.stages.grouped import bucketed_apply

        def add_c0(t: pa.Table) -> pa.Table:
            toks = t.column("tok").to_pylist()
            return pa.table({
                "tok": t.column("tok"),
                "c0": pa.array([x[:1] for x in toks], type=pa.string()),
            })

        def expand(t: pa.Table) -> pa.Table:
            out_p, out_t = [], []
            for toks in _by_first_char(t):
                trie = build_trie(toks)
                for p in sorted({x[:3] for x in toks if len(x) >= 3}):
                    for cand in kq(trie, p, 0, prefix_mode=True):
                        out_p.append(p)
                        out_t.append(cand.term)
            return pa.table([out_p, out_t], schema=_PREFIX_TERMS)

        return bucketed_apply(
            _vocab_ds(sf_dir).map_batches(add_c0, batch_format="pyarrow"),
            "c0", expand, empty_result=_PREFIX_TERMS.empty_table())

    def prefix_search_tokens_zipper(sf_dir):
        """Same prefix expansion through the zipper surface
        (``with_prefix`` over an ArrayTrie — the contiguous-slice
        PrefixZipper path, kernel/zipper.py; reference
        prefix_zipper.rs:1-50): O(log n) descent + O(m) subtree iteration
        per prefix instead of an automaton walk; shares
        prefix_search_tokens's SQL oracle."""
        from liblevenshtein_rust_ray.kernel.arraytrie import ArrayTrie
        from liblevenshtein_rust_ray.kernel.zipper import with_prefix
        from liblevenshtein_rust_ray.stages.grouped import bucketed_apply

        def add_c0(t: pa.Table) -> pa.Table:
            toks = t.column("tok").to_pylist()
            return pa.table({
                "tok": t.column("tok"),
                "c0": pa.array([x[:1] for x in toks], type=pa.string()),
            })

        def expand(t: pa.Table) -> pa.Table:
            out_p, out_t = [], []
            for toks in _by_first_char(t):
                at = ArrayTrie.from_terms(toks, presorted=True)
                for p in sorted({x[:3] for x in toks if len(x) >= 3}):
                    it = with_prefix(at, p)
                    if it is None:
                        continue
                    for term, _v in it:
                        out_p.append(p)
                        out_t.append(term)
            return pa.table([out_p, out_t], schema=_PREFIX_TERMS)

        return bucketed_apply(
            _vocab_ds(sf_dir).map_batches(add_c0, batch_format="pyarrow"),
            "c0", expand, empty_result=_PREFIX_TERMS.empty_table())

    # -------------------------- dedup family --------------------------
    def exact_dedup_part(sf_dir):
        return D.exact_dedup(_rd(sf_dir, "part"), "p_name", "p_partkey")

    def minhash_neardup_docs(sf_dir):
        return D.minhash_lsh_pairs(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id", threshold=0.5
        )

    def minhash_neardup_docs_md5(sf_dir):
        """MinHash LSH with the DuckDB-reproducible hash family (md5-derived
        shingle hashes, exact mod-2^61-1 permutations, value-concat band
        keys): the ENTIRE LSH pipeline — shingle, sign, band, bucket,
        star-collapse, signature-estimate verify — checked against a SQL
        oracle built from the same constants.  max_bucket is uncapped in
        this mode: the LSH's oversized-bucket salting (stages/dedup.py,
        not the ER scorer, which no longer salts) is the one step the
        oracle doesn't model, and it never engages at driver scales."""
        return D.minhash_lsh_pairs(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            threshold=0.5, hasher="md5", max_bucket=1_000_000,
        )

    def minhash_neardup_docs_md5_join(sf_dir):
        """The md5 twin forced through ``sig_transport="join"`` — the
        100-TB signature transport (thin ~40 B band rows, signatures
        attached once per distinct pair by id-keyed exchanges) checked
        against the SAME SQL oracle as the banded md5 path: the scale
        path itself is value-hash-verified, not just parity-tested."""
        return D.minhash_lsh_pairs(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            threshold=0.5, hasher="md5", max_bucket=1_000_000,
            sig_transport="join",
        )

    def simhash_pairs_docs(sf_dir):
        return D.simhash_pairs(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id", max_hamming=6
        )

    def simhash_pairs_docs_md5(sf_dir):
        """SimHash near-dup with the md5 hash family: per-bit majority vote,
        8-bit pigeonhole bands, star-collapse and Hamming<=6 verify all
        reproduced by a generated SQL oracle (nested-lambda bit votes +
        bit_count(xor()))."""
        return D.simhash_pairs(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            max_hamming=6, hasher="md5", max_bucket=1_000_000,
        )

    def ngram_jaccard_docs(sf_dir):
        """Exact contract (max_df=None) — the SQL-oracle mode; production
        default caps stop-shingle groups at max_df=1024 (lower-bound
        jaccard, documented in stages/dedup.py)."""
        return D.ngram_jaccard_pairs(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            threshold=0.5, max_df=None,
        )

    def embedding_neardup(sf_dir):
        """Exact embedding-cosine near-dup pairs (brute-force baseline;
        LSH sign-bucket variant is the scale path, see embedding_neardup_lsh)."""
        out = D.embedding_neardup_pairs(
            _rd(sf_dir, "embeddings", ["vec_id", "embedding"]),
            "embedding", "vec_id", threshold=0.42, method="exact",
        )
        return out.select_columns(["id_a", "id_b"])

    def embedding_neardup_lsh(sf_dir):
        """LSH sign-bucket near-dup pairs; id columns only so the exact
        plane-literal SQL oracle compares pair SETS, not float cosines."""
        return D.embedding_neardup_pairs(
            _rd(sf_dir, "embeddings", ["vec_id", "embedding"]),
            "embedding", "vec_id", threshold=0.42, method="lsh",
        ).select_columns(["id_a", "id_b"])

    def embedding_neardup_lsh_join(sf_dir):
        """Same LSH pipeline through the ``vec_transport="join"`` scale path
        (thin bucket rows; vectors attached once per distinct pair) —
        checked against the same plane-literal SQL oracle as the banded
        transport (and transport parity is additionally pinned in pytest)."""
        return D.embedding_neardup_pairs(
            _rd(sf_dir, "embeddings", ["vec_id", "embedding"]),
            "embedding", "vec_id", threshold=0.42, method="lsh",
            vec_transport="join",
        ).select_columns(["id_a", "id_b"])

    # -------------------------- text analysis -------------------------
    def token_stats(sf_dir):
        return _rd(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            T.token_stats_batch, batch_format="pyarrow"
        )

    def quality_docs(sf_dir):
        return _rd(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            T.quality_batch, batch_format="pyarrow"
        )

    def model_score_docs(sf_dir):
        """Batched model inference (stages/modelscore.py): a frozen linear
        quality model loaded ONCE per actor in __init__, one vectorized
        forward per batch — the actor-pool pattern a real classifier /
        perplexity filter slots into unchanged.  The frozen weights make
        the score a float64 polynomial of integer features evaluated in
        the oracle's exact operation order, so even the stub is
        value-hash checkable."""
        from liblevenshtein_rust_ray.stages.modelscore import model_score

        return model_score(_rd(sf_dir, "documents", ["doc_id", "text"]))

    def bpe_token_stats_docs(sf_dir):
        """BPE-ish subword token counting (training-cost estimation) —
        one vectorized RE2 count kernel per batch
        (stages/textstats.py BPE_TOKEN_RE); the oracle counts the same
        pattern with DuckDB regexp_extract_all."""
        from liblevenshtein_rust_ray.stages.textstats import bpe_token_stats

        return bpe_token_stats(_rd(sf_dir, "documents", ["doc_id", "text"]))

    def gopher_quality_docs(sf_dir):
        """Gopher-style repetition/quality stats per document
        (stages/textstats.py gopher_stats_batch): word + unique-word
        counts, mean word length, top-word / top-bigram / duplicate-bigram
        fractions, and a threshold keep verdict — one stateless vectorized
        map_batches; the SQL oracle replays tokenization and every ratio
        exactly (int/int float64 division on both sides)."""
        from liblevenshtein_rust_ray.stages.textstats import gopher_quality

        return gopher_quality(_rd(sf_dir, "documents", ["doc_id", "text"]))

    def substring_dedup_docs(sf_dir):
        """Exact duplicated-span detection (suffix-array dedup restated
        over fixed-width shingles, Lee et al. 2022): one row per maximal
        run of 8-token windows whose shingle occurs >= 2 times corpus-wide
        (stages/spans.py).  Two stateless vectorized passes + ONE 16-byte
        count exchange; the SQL oracle rebuilds shingles by list-slicing
        the token array and merges runs with gaps-and-islands."""
        from liblevenshtein_rust_ray.stages.spans import duplicated_spans

        return duplicated_spans(
            _rd(sf_dir, "documents", ["doc_id", "text"]),
            text_col="text", id_col="doc_id", w=8, min_df=2,
        )

    def dup_span_fraction_docs(sf_dir):
        """Per-document duplicated-window fraction (the exact version of a
        BFF-style contamination keep/drop signal) over the same shingle
        contract as substring_dedup_docs."""
        from liblevenshtein_rust_ray.stages.spans import dup_span_fraction

        return dup_span_fraction(
            _rd(sf_dir, "documents", ["doc_id", "text"]),
            text_col="text", id_col="doc_id", w=8, min_df=2,
        )

    def langid_docs(sf_dir):
        return _rd(sf_dir, "documents", ["doc_id", "text", "lang"]).map_batches(
            T.langid_batch, batch_format="pyarrow"
        )

    def doc_fingerprints(sf_dir):
        return _rd(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            T.fingerprint_batch, batch_format="pyarrow"
        )

    def doc_fingerprints_md5(sf_dir):
        """Winnowing fingerprints with the DuckDB-reproducible md5 hash
        family (see stages.textstats.fingerprint_md5_batch); exact SQL
        oracle over substr windows + md5_number_lower."""
        return _rd(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            T.fingerprint_md5_batch, batch_format="pyarrow"
        )

    def phonetic_part(sf_dir):
        def norm(t: pa.Table) -> pa.Table:
            names = t.column("p_name").to_pylist()
            return pa.table(
                {
                    "p_partkey": t.column("p_partkey"),
                    "p_name": t.column("p_name"),
                    "phonetic": pa.array(
                        [" ".join(phonetic_normalize(w) for w in (x or "").split()) for x in names],
                        type=pa.string(),
                    ),
                }
            )

        return _rd(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
            norm, batch_format="pyarrow"
        )

    def word_freq(sf_dir):
        return R.word_freq(sf_dir)

    def tfidf_docs(sf_dir):
        """Top-5 TF-IDF terms per document (frequency-aggregation family,
        ref `src/corpus/parser.rs:58-127` words_by_frequency ranking
        generalized to per-doc relevance), mode="auto" (the default):
        broadcast_df when the measured vocab fits the driver (16-byte
        distinct-token partials + one ray.put lookup table, zero
        doc-keyed exchange), exchange otherwise — both bit-identical and
        exactly mirrored by the QUALIFY row_number SQL oracle."""
        from liblevenshtein_rust_ray.stages.textstats import tfidf_top_terms

        return tfidf_top_terms(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            k=5)

    def scoped_completion(sf_dir):
        """Contextual-engine capability: per-scope prefix completion over the
        union of the scope's and its ancestors' terms.  Scope tree derived
        from part: brand scopes under manufacturer scopes; wide parts
        (p_size > 25) are registered at the manufacturer level."""
        import ray.data as rd
        from liblevenshtein_rust_ray.pipelines.scoped import scoped_fuzzy_complete

        part = _rd(sf_dir, "part", ["p_name", "p_brand", "p_size"])

        def to_terms(t: pa.Table) -> pa.Table:
            names = t.column("p_name").to_pylist()
            brands = t.column("p_brand").to_pylist()
            sizes = t.column("p_size").to_pylist()
            s_out, t_out = [], []
            for nm, br, sz in zip(names, brands, sizes):
                mfgr = "Mfgr#" + br[6]
                s_out.append(br)
                t_out.append(nm)
                if sz is not None and sz > 25:
                    s_out.append(mfgr)
                    t_out.append(nm)
            return pa.table({"scope": pa.array(s_out, type=pa.string()),
                             "term": pa.array(t_out, type=pa.string())})

        # scope tree: every brand -> its manufacturer -> root (None); the
        # tree is metadata-sized, read driver-side from the brand column
        import pyarrow.parquet as _pq

        pb = _pq.read_table(f"{sf_dir}/part.parquet", columns=["p_brand"])
        tree = {}
        for br in set(pb.column("p_brand").to_pylist()):
            m = "Mfgr#" + br[6]
            tree[br] = m
            tree[m] = None
        terms = part.map_batches(to_terms, batch_format="pyarrow")
        return scoped_fuzzy_complete(terms, tree, prefix_len=4, n=0)

    def fuzzy_selfjoin_part_transposition(sf_dir):
        """OSA/transposition algorithm variant (reference Table 7.1) at n=2.
        DuckDB's damerau_levenshtein is unrestricted Damerau, not OSA
        (OSA('ca','abc')=3 vs Damerau 2), so the oracle computes the exact
        OSA DP as a recursive CTE on the DL=2 candidate frontier (OSA == DL
        whenever DL <= 1)."""
        return F.fuzzy_self_join(_rd(sf_dir, "part", ["p_name"]), "p_name", n=2,
                                 algorithm="transposition")

    def fuzzy_selfjoin_part_transposition_d1(sf_dir):
        """Transposition algorithm at n=1, where OSA == unrestricted Damerau
        (a single edit can't interact with another), so DuckDB's
        damerau_levenshtein is an exact independent oracle for the
        transposition transition tables (reference Table 7.1,
        transition.rs)."""
        return F.fuzzy_self_join(_rd(sf_dir, "part", ["p_name"]), "p_name", n=1,
                                 algorithm="transposition")

    def fuzzy_selfjoin_part_merge_split_d1(sf_dir):
        """Merge-and-split algorithm at n=1 (reference Table 8.1): one
        substitution, one indel, one merge (two adjacent chars -> one
        arbitrary char) or one split (the reverse) — every case is a
        split-point predicate DuckDB can enumerate, giving the
        merge-split transition tables an exact independent SQL oracle
        (the n=2 variant is checked by the recursive-CTE suffix DP)."""
        return F.fuzzy_self_join(_rd(sf_dir, "part", ["p_name"]), "p_name", n=1,
                                 algorithm="merge_and_split")

    def fuzzy_vocab_pairs_subst_closed(sf_dir):
        """Restricted substitutions over DISJOINT symmetric character
        classes ({a,e} {i,y} {f,p} {s,z}): the substitution cost depends
        only on the class of each char, so subst-distance(x, y) ==
        levenshtein(canon(x), canon(y)) with canon = map-to-class-rep —
        giving the SubstitutionSet engine an exact SQL oracle via
        translate() (the general preset sets aren't transitively closed,
        hence the separate rows-only fuzzy_vocab_pairs_subst)."""
        from liblevenshtein_rust_ray.kernel.substitution import SubstitutionSet

        sub = SubstitutionSet([("a", "e"), ("e", "a"), ("i", "y"), ("y", "i"),
                               ("f", "p"), ("p", "f"), ("s", "z"), ("z", "s")])
        return F.fuzzy_self_join(_vocab_ds(sf_dir), "tok", n=1, subst=sub)

    def fuzzy_selfjoin_part_ocr(sf_dir):
        """Weighted operation-set scoring (GeneralizedAutomaton/OperationSet
        capability): OCR cost model (substitute/merge/split 0.5), pairs with
        weighted distance <= 1.0; oracle-checked by the recursive-CTE
        weighted DP.  Runs through the length-bucketed distributed
        fuzzy_self_join plan with the weighted kernel as the per-bucket
        scorer — no repartition(1), no O(n^2) single task.  len_diff=2:
        merge/split change length by 1 at cost 0.5, so weight <= 1.0
        bounds |len_a - len_b| at 2."""
        import pandas as pd
        from liblevenshtein_rust_ray.kernel.operations import (
            OperationSet,
            batch_weighted_distances,
        )

        ops = OperationSet.ocr()
        out = F.fuzzy_self_join(
            _rd(sf_dir, "part", ["p_name"]), "p_name", n=2,
            pair_scorer=lambda a, b: batch_weighted_distances(a, b, ops),
            max_score=1.0, len_diff=2, score_dtype="float64",
        )

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns={"distance": "weight"})

        return out.map_batches(fin, batch_format="pandas")

    def fuzzy_selfjoin_part_merge_split(sf_dir):
        """Merge-and-split algorithm variant (reference Table 8.1) at n=2,
        oracle-checked by the recursive-CTE greedy-match suffix DP."""
        return F.fuzzy_self_join(_rd(sf_dir, "part", ["p_name"]), "p_name", n=2,
                                 algorithm="merge_and_split")

    def fuzzy_selfjoin_part_ms_universal(sf_dir):
        """Merge-and-split scored by the PARAMETRIC universal automaton
        (kernel.universal now covers all three algorithms, reference
        universal/position.rs:130-819) — must equal the per-query kernel's
        fuzzy_selfjoin_part_merge_split row set (equivalence pinned by
        Hypothesis/property tests vs the DP)."""
        import numpy as np
        from liblevenshtein_rust_ray.kernel.universal import universal_automaton

        ua = universal_automaton(2, "merge_and_split")

        def scorer(qa, qb):
            return np.fromiter(
                (ua.distance(a, b, cap=2) for a, b in zip(qa, qb)),
                np.int64, count=len(qa),
            )

        return F.fuzzy_self_join(
            _rd(sf_dir, "part", ["p_name"]), "p_name", n=2, pair_scorer=scorer
        )

    def fuzzy_selfjoin_part_ocr_restricted(sf_dir):
        """Character-set-RESTRICTED operation weights
        (OperationType::with_restriction, operation_type.rs:237): classic
        OCR confusions (rn->m, o->0, ...) priced at 0.25 ONLY for their
        segments, everything else unit cost; pairs within weight 1.0.
        len_diff=4: each 0.25-weight confusion changes length by at most
        1, so weight <= 1.0 bounds the length delta at 4."""
        import pandas as pd
        from liblevenshtein_rust_ray.kernel.operations import (
            OperationSet,
            batch_weighted_distances,
        )

        ops = OperationSet.ocr_restricted()
        out = F.fuzzy_self_join(
            _rd(sf_dir, "part", ["p_name"]), "p_name", n=2,
            pair_scorer=lambda a, b: batch_weighted_distances(a, b, ops),
            max_score=1.0, len_diff=4, score_dtype="float64",
        )

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns={"distance": "weight"})

        return out.map_batches(fin, batch_format="pandas")

    def fuzzy_selfjoin_part_phonetic_ops(sf_dir):
        """The reference's ``phonetic_english_basic`` OperationSet preset
        (src/transducer/phonetic.rs:56-310 — consonant digraphs 0.15,
        initial clusters 0.20, c/k-c/s-s/z-g/j confusions 0.25, double
        consonants 0.10) as a weighted fuzzy self-join, pairs within
        total phonetic weight 0.45.  The part names alone contain no
        phonetically-adjacent pairs, so (er_pairs_canonical pattern) the
        input is the names PLUS one deterministic phonetic respelling
        each — first-occurrence ll->l then g->j, identical Python
        ``re.sub(count=1)`` / SQL ``regexp_replace`` semantics — giving
        matches at weights 0.10 (double consonant), 0.25 (g/j
        confusion) and 0.35 (both).  Budget 0.45 with min rule weight
        0.10 bounds rule applications at 4; each rule covers at most 2
        unit edits and shifts length by at most 1, so levenshtein <= 8
        and len_diff <= 4 — the same sound prefilter as the
        ocr_restricted twin, replayed by the recursive-CTE weighted DP
        generated from the SAME OperationSet."""
        import re

        import pandas as pd
        from liblevenshtein_rust_ray.kernel.operations import (
            OperationSet,
            batch_weighted_distances,
        )
        from liblevenshtein_rust_ray.stages.grouped import bucketed_apply

        def variants(t: pa.Table) -> pa.Table:
            names = t.column("p_name").to_pylist()
            vals = set(names)
            for x in names:
                vals.add(re.sub("g", "j", re.sub("ll", "l", x, count=1),
                                count=1))
            return pa.table({"val": pa.array(sorted(vals),
                                             type=pa.string())})

        vals = bucketed_apply(
            _rd(sf_dir, "part", ["p_name"]).map_batches(
                variants, batch_format="pyarrow"),
            "val",
            lambda t: t.group_by("val").aggregate([]),
            empty_result=pa.schema([("val", pa.string())]).empty_table(),
        )

        ops = OperationSet.phonetic_english_basic()
        out = F.fuzzy_self_join(
            vals, "val", n=2,
            pair_scorer=lambda a, b: batch_weighted_distances(a, b, ops),
            max_score=0.45, len_diff=4, score_dtype="float64",
        )

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns={"distance": "weight"})

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_transposition(sf_dir):
        """The flagship over the REAL synthetic page corpus (html-extraction
        path included) under the transposition algorithm at the PRODUCTION
        distance n=2, emit_all_pairs=True — oracle-checked by composing the
        er_pairs_corpus extraction CTEs with the recursive-CTE OSA DP from
        er_pairs_allpairs_transposition (DuckDB's damerau_levenshtein is
        unrestricted DL != OSA at d=2, so the DP computes exact OSA on the
        DL<=2 frontier).  Pinned to the sf0.001 corpus (the oracle names a
        concrete parquet path).  Reference semantics: transition.rs:252-376."""
        import pandas as pd

        out = er_pairs(os.path.join(_corpus_dir(0.001), "pages"),
                       emit_all_pairs=True, algorithm="transposition")

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_incremental_q(sf_dir):
        """Dynamic-dictionary INSERT (DynamicDawg insert, reference
        dynamic_dawg.rs:56-1381) restated as an equality-to-from-scratch
        oracle row: 90/10 doc_id%10 split of the SQL-reproducible
        docs-as-pages corpus; delta pages re-score only blocks that gained
        a member, merged with the base all-pairs edges.  In all-pairs mode
        the merge EQUALS the from-scratch edge set exactly (adding pages
        never changes an existing page's block keys), so the
        er_pairs_allpairs SQL oracle over ALL documents IS the
        incremental-equals-from-scratch check."""
        import pandas as pd
        from liblevenshtein_rust_ray.pipelines.entity_resolution import (
            er_pairs_incremental,
        )

        old = _docs_as_pages(sf_dir, keep="old")
        new = _docs_as_pages(sf_dir, keep="new")
        base = er_pairs(old, emit_all_pairs=True)
        out = er_pairs_incremental(old, new, base_pairs=base,
                                   emit_all_pairs=True)

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_decremental_q(sf_dir):
        """Dynamic-dictionary REMOVE (DynamicDawg remove, reference
        dynamic_dawg.rs:56-1381) restated as an equality-to-from-scratch
        oracle row: delete the doc_id%10==0 slice from the docs-as-pages
        corpus, re-score only blocks that lost a member, merge with the
        surviving base all-pairs edges.  In all-pairs mode the merge
        EQUALS the from-scratch edge set over the remaining pages exactly,
        so the oracle is the er_pairs_allpairs SQL restricted to
        doc_id % 10 <> 0."""
        import pandas as pd
        from liblevenshtein_rust_ray.pipelines.entity_resolution import (
            er_pairs_decremental,
        )

        full = _docs_as_pages(sf_dir)
        removed = [
            u
            for t in _docs_as_pages(sf_dir, keep="new").iter_batches(
                batch_format="pyarrow"
            )
            for u in t.column("url").to_pylist()
        ]
        base = er_pairs(full, emit_all_pairs=True)
        out = er_pairs_decremental(full, removed, base_pairs=base,
                                   emit_all_pairs=True)

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def fuzzy_selfjoin_part_universal(sf_dir):
        """Same pairs as fuzzy_selfjoin_part, scored by the PARAMETRIC
        universal automaton A∀_n (kernel.universal — query-independent
        precomputed tables, reference src/transducer/universal/): the
        distance is extracted by probing n'=0..2.  Shares the levenshtein
        SQL oracle with the trie/banded-DP engines — three independent
        implementations, one answer."""
        import numpy as np
        from liblevenshtein_rust_ray.kernel.universal import universal_automaton

        ua = universal_automaton(2)

        def scorer(qa, qb):
            return np.fromiter(
                (ua.distance(a, b, cap=2) for a, b in zip(qa, qb)),
                np.int64, count=len(qa),
            )

        return F.fuzzy_self_join(
            _rd(sf_dir, "part", ["p_name"]), "p_name", n=2, pair_scorer=scorer
        )

    # -------------------- windowed event operators --------------------
    def sessions_user(sf_dir):
        from liblevenshtein_rust_ray.stages.windows import sessionize

        return sessionize(_rd(sf_dir, "events", ["user_id", "ts"]),
                          "user_id", "ts", gap_seconds=1800)

    def sliding_events(sf_dir):
        from liblevenshtein_rust_ray.stages.windows import sliding_window_agg

        out = sliding_window_agg(
            _rd(sf_dir, "events", ["ts", "event_type", "value"]),
            "ts", "value", width_s=7200, slide_s=3600, group_col="event_type",
        )

        def fin(df):
            df = df.copy()
            df["sum_value"] = df["sum_value"].round(6)
            return df

        return out.map_batches(fin, batch_format="pandas")

    def asof_click_error(sf_dir):
        """Backward as-of join: each click event matched to the latest
        preceding error event of the same user (matched rows only)."""
        from liblevenshtein_rust_ray.stages.windows import asof_join

        # expression filters compile to Arrow compute on whole blocks —
        # never a per-row Python lambda
        ev = _rd(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
        clicks = ev.filter(expr="event_type == 'click'").select_columns(
            ["event_id", "ts", "user_id", "value"]
        )
        errors = ev.filter(expr="event_type == 'error'").select_columns(
            ["ts", "user_id", "value"]
        )
        out = asof_join(clicks, errors, "user_id", "ts", ["value"])

        def fin(df):
            return df[df["ts_right"].notna()]

        return out.map_batches(fin, batch_format="pandas")

    def band_join_click_error(sf_dir):
        """Range join on time (stages/windows.py time_band_join): every
        (error, click) pair of the same user within 24 h — banded time
        blocking with the adjacent-bucket edge rule, one C-path merge per
        bucket, pair dedup.  The attribution-join shape the brief's
        custom-operator list calls a range join."""
        from liblevenshtein_rust_ray.stages.windows import time_band_join

        ev = _rd(sf_dir, "events", ["event_id", "ts", "user_id",
                                    "event_type"])
        errors = ev.filter(expr="event_type == 'error'").select_columns(
            ["event_id", "ts", "user_id"]).rename_columns(
            {"event_id": "err_id"})
        clicks = ev.filter(expr="event_type == 'click'").select_columns(
            ["event_id", "ts", "user_id"]).rename_columns(
            {"event_id": "click_id"})
        return time_band_join(errors, clicks, "user_id", "ts", 86_400,
                              "err_id", "click_id")

    def lang_counts(sf_dir):
        from ray.data.aggregate import Sum

        def partial(df):
            return df.groupby("lang", as_index=False).agg(n=("lang", "size"))

        return (
            _rd(sf_dir, "documents", ["lang"])
            .map_batches(partial, batch_format="pandas")
            .groupby("lang")
            .aggregate(Sum("n", alias_name="n"))
        )

    # -------------------------- similarity search ---------------------
    def _load_queries(sf_dir, k=5):
        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf_dir}/embeddings.parquet")
        df = t.to_pandas()
        df = df[df["vec_id"] < k].sort_values("vec_id")
        return {
            "ids": df["vec_id"].to_numpy(dtype=np.int64),
            "matrix": np.array(df["embedding"].tolist(), dtype=np.float64),
        }

    def ann_cosine_topk(sf_dir):
        ds = _rd(sf_dir, "embeddings", ["vec_id", "embedding"])
        out = ann_brute_topk(ds, _load_queries(sf_dir), k=5)
        return out.select_columns(["query_id", "match_id", "rank"])

    def ann_lsh_topk_q(sf_dir):
        """LSH-bucketed ANN (the scale path): approximate by bucket
        pruning, but DETERMINISTIC — checked against the plane-literal SQL
        oracle (rank-only; float sims dropped); recall vs the brute-force
        baseline is additionally pinned in tests."""
        from liblevenshtein_rust_ray.stages.similarity import ann_lsh_topk

        ds = _rd(sf_dir, "embeddings", ["vec_id", "embedding"])
        return ann_lsh_topk(ds, _load_queries(sf_dir), k=5).select_columns(
            ["query_id", "match_id", "rank"])

    def ann_ivf_topk_q(sf_dir):
        """IVF centroid-partitioned ANN (approximate scale path)."""
        from liblevenshtein_rust_ray.stages.similarity import ann_ivf_topk

        ds = _rd(sf_dir, "embeddings", ["vec_id", "embedding"])
        return ann_ivf_topk(ds, _load_queries(sf_dir), k=5)

    def ann_ivf_topk_full(sf_dir):
        """IVF with n_probe == n_clusters: every inverted list is probed,
        so the centroid assignment, per-list scoring, partial top-k and
        merge must reproduce the brute-force result EXACTLY — shares
        ann_cosine_topk's SQL oracle, value-pinning the IVF machinery
        end-to-end (the approximate default ann_ivf_topk stays
        recall-pinned in tests)."""
        from liblevenshtein_rust_ray.stages.similarity import ann_ivf_topk

        ds = _rd(sf_dir, "embeddings", ["vec_id", "embedding"])
        out = ann_ivf_topk(ds, _load_queries(sf_dir), k=5,
                           n_clusters=16, n_probe=16)
        return out.select_columns(["query_id", "match_id", "rank"])

    def spelling_recall_q(sf_dir):
        """Corpus-validation analogue: recall of fuzzy join over generated
        misspellings (must be 1.0 — typos are within n by construction)."""
        from liblevenshtein_rust_ray.pipelines.spelling import spelling_recall

        return spelling_recall(_vocab_ds(sf_dir), "tok", n=2, per_word=2)

    def spell_correct_vocab(sf_dir):
        """The reference's spelling-corrector application (README.md
        quick-start: ordered candidate query + frequency ranking): every
        part-name word corrected against the corpus frequency dictionary
        (word_freq output, freq >= 2) at d <= 2, ranked (distance asc,
        freq desc, word asc), top-1 per token — oracle-checked via a
        QUALIFY row_number window over the levenshtein join."""
        from liblevenshtein_rust_ray.functions.tokenize import tokenize
        from liblevenshtein_rust_ray.pipelines.spelling import spell_correct

        def words(t: pa.Table) -> pa.Table:
            out = sorted({w for x in t.column("p_name").to_pylist()
                          for w in tokenize(x or "")})
            return pa.table({"w": pa.array(out, type=pa.string())})

        toks = _rd(sf_dir, "part", ["p_name"]).map_batches(
            words, batch_format="pyarrow")
        return spell_correct(toks, "w", R.word_freq(sf_dir), "token", "freq", n=2)

    def curate_docs(sf_dir):
        """End-to-end curation: quality screen -> langid filter -> exact
        dedup -> md5 MinHash near-dup drop (pipelines/curation.py); whole
        composition value-checked by one composed SQL oracle."""
        from liblevenshtein_rust_ray.pipelines.curation import curate_documents

        return curate_documents(_rd(sf_dir, "documents", ["doc_id", "text"]))

    def line_dedup_pages(sf_dir):
        """CCNet-style cross-document line dedup over the synthetic CC
        corpus (stages/lines.py): count every line's corpus-wide frequency
        (one 16-byte-row exchange of per-batch partials), broadcast the
        common set, rewrite each page keeping only lines with df < 2 —
        boilerplate body lines shared across an entity's near-dup pages
        drop; typo'd titles survive.  Pinned to the sf0.001 corpus (the
        oracle SQL names one concrete parquet path)."""
        import ray.data as rd

        from liblevenshtein_rust_ray.stages.lines import line_dedup

        pages = rd.read_parquet(
            os.path.join(_corpus_dir(0.001), "pages"), columns=["url", "text"])
        return line_dedup(pages, "text", "url", min_df=2)

    def url_canonical_dedup(sf_dir):
        """Crawl-URL canonicalization + newest-snapshot dedup
        (stages/urls.py): each clean corpus URL is deterministically
        rewritten into an in-the-wild variant (tracking params, fragment,
        upper-cased scheme/host, :443 port, trailing slash) and ~1/3 of
        pages get a second, one-day-later snapshot under a different
        variant; the pipeline canonicalizes every crawl URL with a chain
        of vectorized RE2 kernels and keeps the newest snapshot per
        canonical URL (per-batch partial reduce -> ONE bucketed hash
        exchange).  Pinned to the sf0.001 corpus; the SQL oracle replays
        the same messification + the same regexp chain in DuckDB."""
        import ray.data as rd

        from liblevenshtein_rust_ray.stages.urls import (
            messy_crawl_variants, url_snapshot_dedup)

        pages = rd.read_parquet(
            os.path.join(_corpus_dir(0.001), "pages"),
            columns=["url", "warc_ts"])
        messy = messy_crawl_variants(pages)
        return url_snapshot_dedup(messy, url_col="crawl_url", ts_col="ts")

    def url_dedup_incremental(sf_dir):
        """Streaming-ingest analogue for the URL front: yesterday's
        canonical table (dedup of the day-0 snapshots) absorbs today's
        crawl by UNIONING raw day-1 partials and re-running the SAME
        associative combine — no rebuild, no second canonicalization of
        old rows.  The snapshot combine (newest ts, min-url tie, count
        sum) is associative, so the merged result provably equals the
        from-scratch dedup and SHARES url_canonical_dedup's SQL oracle."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from liblevenshtein_rust_ray.stages.grouped import bucketed_apply
        from liblevenshtein_rust_ray.stages.urls import (
            _make_combine, canonicalize_urls, messy_crawl_variants,
            url_snapshot_dedup)

        pages = rd.read_parquet(
            os.path.join(_corpus_dir(0.001), "pages"),
            columns=["url", "warc_ts"])
        messy = messy_crawl_variants(pages)
        # day 0 = original snapshots; day 1 = the +86400s recrawls
        cut = 1_577_836_800 + 86_400  # corpus epoch base + one day

        def day0(t):
            return t.filter(pc.less(t.column("ts"), cut))

        def day1(t):
            return t.filter(pc.greater_equal(t.column("ts"), cut))

        base = url_snapshot_dedup(
            messy.map_batches(day0, batch_format="pyarrow"),
            url_col="crawl_url", ts_col="ts")

        day1_partial = canonicalize_urls(
            messy.map_batches(day1, batch_format="pyarrow"),
            url_col="crawl_url").map_batches(
            lambda t: pa.table({
                "canonical_url": t.column("canonical_url"),
                "kept_url": t.column("crawl_url"),
                "kept_ts": t.column("ts"),
                "n_snapshots": pa.array([1] * t.num_rows, type=pa.int64()),
            }), batch_format="pyarrow")
        return bucketed_apply(
            base.union(day1_partial), "canonical_url", _make_combine(()),
            n_buckets=64, empty_result=pa.schema([
                ("canonical_url", pa.string()), ("kept_url", pa.string()),
                ("kept_ts", pa.int64()), ("n_snapshots", pa.int64())
            ]).empty_table())

    def host_stats_corpus(sf_dir):
        """Domain-level curation stats (stages/urls.py host_stats): pages,
        total/mean text chars and a mega-host flag per host — the domain
        blocklist / hot-host review input of a crawl pipeline.  One RE2
        host extraction + per-batch partial counts + ONE bucketed
        exchange.  Pinned to the sf0.001 corpus."""
        import ray.data as rd

        from liblevenshtein_rust_ray.stages.urls import host_stats

        pages = rd.read_parquet(
            os.path.join(_corpus_dir(0.001), "pages"),
            columns=["url", "text"])
        return host_stats(pages)

    def neardup_canonical_docs(sf_dir):
        """Near-duplicate cluster canonicalization: every document mapped
        to its cluster representative (most tokens, ties → smallest id;
        non-duplicates map to themselves).  MinHash-md5 pairs →
        transitive closure → per-cluster argmax — the "keep the best
        copy" form of near-dedup whose canon_id is stable under re-runs;
        oracle = the md5 LSH SQL composed with the recursive-closure CTE
        (er_clusters pattern) and a QUALIFY argmax."""
        from liblevenshtein_rust_ray.pipelines.curation import (
            neardup_canonicalize)

        return neardup_canonicalize(
            _rd(sf_dir, "documents", ["doc_id", "text"]))

    def bpe_merges_docs(sf_dir):
        """BPE tokenizer TRAINING (Sennrich et al. 2016) over documents:
        the first 8 learned merges (merge_rank, lhs, rhs, pair_count).
        One distributed corpus pass builds the word-frequency table;
        merge rounds then run over the VOCABULARY only (corpus-size-
        independent after the first pass — the standard trick).  Merge
        application is left-to-right non-overlapping on marker-wrapped
        symbol strings, which is plain `replace` semantics — the exact
        property the chained-CTE SQL oracle replays round by round
        (stages/bpetrain.py).  Deterministic tie-break: count desc,
        lhs asc, rhs asc."""
        from liblevenshtein_rust_ray.stages.bpetrain import bpe_learn_merges

        return bpe_learn_merges(
            _rd(sf_dir, "documents", ["text"]), "text", n_merges=8)

    def dict_roundtrip_parts(sf_dir):
        """Dictionary serialization + factory + mapped-value iteration as
        ONE driver-green oracle row (SURVEY §2 rows 21/23/50, previously
        pytest-only; reference: serialization/mod.rs save/load,
        dictionary/factory.rs:35-157, PathMapDictionary iteration):
        build the mapped dictionary p_name -> min(p_partkey) from a
        distributed combine, write it through dictionary_io's parquet
        serialization, format-AUTO-DETECT + reload via the factory
        (backend="path_map"), and dump iter_items.  The round-tripped
        (term, value) relation must equal the GROUP BY min oracle —
        any loss in dump/detect/reload/iterate breaks the value hash."""
        from liblevenshtein_rust_ray.kernel import build_mapped_trie
        from liblevenshtein_rust_ray.stages.grouped import bucketed_apply
        from liblevenshtein_rust_ray.state import dictionary_io as dio

        part = _rd(sf_dir, "part", ["p_partkey", "p_name"])
        agg = bucketed_apply(
            part, "p_name",
            lambda t: t.group_by("p_name").aggregate([("p_partkey", "min")])
            .rename_columns(["p_name", "p_partkey"]),
            empty_result=pa.schema([("p_name", pa.string()),
                                    ("p_partkey", pa.int64())]).empty_table(),
        ).to_pandas()  # vocabulary-sized (distinct names), driver-safe
        d = build_mapped_trie(
            sorted(zip(agg["p_name"], (int(v) for v in agg["p_partkey"]))))
        os.makedirs(_CORPUS_CACHE, exist_ok=True)
        path = os.path.join(
            _CORPUS_CACHE, f"dict_roundtrip_sf{_sf_of(sf_dir)}.parquet")
        dio.write_dictionary(d, path)
        fmt = dio.detect_format(path)
        if fmt != "parquet":
            raise RuntimeError(f"format auto-detect returned {fmt!r}")
        t = dio.dict_to_table(dio.read_dictionary(path, backend="path_map"))
        return pa.table({"term": t.column("term"),
                         "value": t.column("value").cast(pa.int64())})

    def vocab_membership(sf_dir):
        """Bloom-screened dictionary membership of every distinct corpus
        token against the reference's real 124k-word dictionary (broadcast
        once; per-actor Bloom+ArrayTrie, vectorized contains_batch) — the
        negative-lookup path a denylist/allowlist screen runs at 100 TB.
        Oracle: SQL IN over the same dictionary written as parquet."""
        from liblevenshtein_rust_ray.pipelines.spelling import (
            dictionary_membership, load_dictionary_words)

        return dictionary_membership(_vocab_ds(sf_dir), "tok",
                                     load_dictionary_words())

    def spell_correct_realdict(sf_dir):
        """The reference's flagship application at dictionary scale:
        correct every generated misspelling against the REAL 124k-word
        dictionary through the FastSS deletion-blocked join (the length
        plan is >60x slower at this dictionary size — docs/SCALE.md §10).
        Uniform frequency, so ranking is (distance asc, word asc) top-1;
        the oracle replays the ranking with a QUALIFY window over a
        levenshtein join against the persisted dictionary parquet
        (codepoint-folded shadow column)."""
        import ray.data as rd

        from liblevenshtein_rust_ray.pipelines.spelling import (
            load_dictionary_words, spell_correct)

        from liblevenshtein_rust_ray.pipelines.fuzzy import (
            deletion_signatures)

        toks = rd.read_parquet(
            _spelling_pairs_parquet(sf_dir), columns=["misspelling"])
        words = load_dictionary_words()
        dict_ds = rd.from_blocks([pa.table({
            "word": pa.array(words, type=pa.string()),
            "freq": pa.array([1] * len(words), type=pa.int64()),
        })]).repartition(8)
        # SymSpell-style persisted dictionary index: ~25M (sig, word) rows
        # built once per machine, reused by every later correction run
        sig_dir = os.path.join(_CORPUS_CACHE, "dict_sigs_n2")
        marker = os.path.join(sig_dir, "_COMPLETE")
        if not os.path.exists(marker):
            deletion_signatures(dict_ds, "word", 2).write_parquet(sig_dir)
            with open(marker, "w") as f:
                f.write("ok")
        sigs = rd.read_parquet(sig_dir, columns=["sig", "val"])
        return spell_correct(toks, "misspelling", dict_ds, "word", "freq",
                             n=2, blocking="deletion", right_sigs=sigs)

    def corpus_recall_real(sf_dir):
        """The reference's corpus-validation gate over its REAL bundled
        dictionary (data/english_words.txt, 124k words,
        tests/corpus_validation.rs:129-346): recall-at-distance of the
        ArrayTrie + dense-universal-table engine, per true edit distance.
        Independent of sf — the dictionary is the fixed external corpus
        and the sample is pinned so the result (and its persisted-cases
        SQL oracle) is identical at every sf."""
        from liblevenshtein_rust_ray.pipelines.spelling import corpus_validation

        return corpus_validation(sample=8000)

    # -------------------------- relational ----------------------------
    def q1(sf_dir):
        return R.q1_lineitem(sf_dir)

    def revenue_by_segment(sf_dir):
        return R.revenue_by_segment(sf_dir)

    def events_hourly(sf_dir):
        return R.events_hourly(sf_dir)

    def top_docs_by_tokens(sf_dir):
        return R.top_docs_by_tokens(sf_dir)

    # -------------------------- flagship ER (rows-only) ---------------
    def er_clusters_q(sf_dir):
        """Flagship clusters over the real corpus at PRODUCTION settings
        (rep edges, auto buckets).  Pinned to the sf0.001 corpus like
        er_pairs_corpus/er_f1 so the recursive-CTE cluster oracle (a
        static SQL string) applies: per-block rep edges span exactly the
        same components as the all-pairs graph, so the cluster relation
        — (url, min-url-of-component) — is identical by construction."""
        return er_clusters(os.path.join(_corpus_dir(0.001), "pages"))

    def er_clusters_scaled(sf_dir):
        """The production flagship cluster path HONORING sf_dir (rows-only:
        the corpus path varies with scale, so no static SQL string can
        oracle it) — round-3 ADVICE: er_clusters/er_f1 pin the sf0.001
        corpus for their static oracles, so this row keeps the larger
        driver scale factors exercising (and timing) the real pipeline."""
        return er_clusters(_pages_path(sf_dir))

    def er_pairs_q(sf_dir):
        return er_pairs(_pages_path(sf_dir))

    def er_f1(sf_dir):
        """The north-rule acceptance metric as a query: pairwise
        precision/recall/F1 of the flagship clusters' co-membership
        against the corpus generator's labeled within-entity pairs
        (BASELINE.json: F1 >= 0.99).  One metrics row; the 0.99 gate is
        also enforced in pytest (tests/test_pipeline_e2e.py).  Pinned to
        the sf0.001 corpus regardless of sf_dir (like er_pairs_corpus):
        the full-pipeline SQL oracle — pairs → recursive-CTE transitive
        clusters → pairwise metrics — is a static string naming one
        concrete parquet path, so the driver value-hash checks the
        ENTIRE flagship chain ending in the acceptance metric itself."""
        import pandas as pd

        from liblevenshtein_rust_ray.pipelines.entity_resolution import evaluate_f1

        cdir = _corpus_dir(0.001)
        clusters = er_clusters(os.path.join(cdir, "pages"))
        labeled = pd.read_parquet(os.path.join(cdir, "labeled_pairs"),
                                  columns=["url_a", "url_b"])
        m = evaluate_f1(clusters, labeled)
        return pd.DataFrame([{
            "precision": float(m["precision"]),
            "recall": float(m["recall"]),
            "f1": float(m["f1"]),
            "predicted_pairs": int(m["predicted_pairs"]),
            "true_pairs": int(m["true_pairs"]),
            "tp": int(m["tp"]),
        }])

    def er_pairs_corpus(sf_dir):
        """The flagship over the REAL synthetic page corpus — including the
        html-extraction path for the ~10% of rows that ship html only —
        with emit_all_pairs=True so the DuckDB oracle (reading the same
        corpus parquet; host-join pruned) can check it exactly.  Pinned to
        the sf0.001 corpus regardless of sf_dir — the oracle SQL is a
        static string and must name one concrete parquet path."""
        import pandas as pd

        out = er_pairs(os.path.join(_corpus_dir(0.001), "pages"),
                       emit_all_pairs=True)

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_canonical(sf_dir):
        """Web-ingest composition: messy crawl snapshots (five URL-variant
        classes + one-day-later recrawls, stages/urls.py) -> canonicalize +
        newest-snapshot dedup with page content carried -> the flagship ER
        all-pairs.  Canonical URLs are exactly the clean corpus URLs and
        recrawl rows are true duplicates, so the pair set provably equals
        er_pairs_corpus's output and SHARES its SQL oracle verbatim — the
        oracle row checks the whole ingest->dedup->ER chain end to end.
        Pinned to the sf0.001 corpus (the oracle names a concrete path)."""
        import pandas as pd
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from liblevenshtein_rust_ray.stages.urls import (
            messy_crawl_variants, url_snapshot_dedup)

        pages = rd.read_parquet(os.path.join(_corpus_dir(0.001), "pages"))
        messy = messy_crawl_variants(pages,
                                     carry_cols=("html", "text", "lang"))
        dedup = url_snapshot_dedup(messy, url_col="crawl_url", ts_col="ts",
                                   carry_cols=("html", "text", "lang"))

        def as_pages(t: pa.Table) -> pa.Table:
            ts = pc.multiply(t.column("kept_ts"),
                             pa.scalar(1_000_000, type=pa.int64()))
            return pa.table({
                "url": t.column("canonical_url"),
                "warc_ts": ts.cast(pa.timestamp("us")),
                "html": t.column("html").cast(pa.binary()),
                "text": t.column("text"),
                "lang": t.column("lang"),
            })

        out = er_pairs(dedup.map_batches(as_pages, batch_format="pyarrow"),
                       emit_all_pairs=True)

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_allpairs(sf_dir):
        """The flagship ER pipeline (extract -> blocking -> banded-DP
        scoring -> pair dedup) made SQL-oracle-checkable: pages synthesized
        deterministically from the documents view (url from doc_id, title =
        first 5 [a-z0-9]+ tokens of the text), ``emit_all_pairs=True`` so
        the quadratic pair set matches the DuckDB join.  Oracle: url pairs
        with levenshtein(title_a, title_b) <= 2 that share a blocking key
        (identical title, or same host + a common title token)."""
        import pandas as pd

        out = er_pairs(_docs_as_pages(sf_dir), emit_all_pairs=True)

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_reps(sf_dir):
        """The flagship's PRODUCTION output shape — representative edges
        from the default vectorized-Arrow single-phase engine (distance-0
        stars to each (block, title) group's min url + one scored edge per
        distinct co-blocked title pair, min-deduped by url pair) —
        oracle-checked.  SQL reproduces the representatives exactly because
        every url carries one title: the per-(block, title) min url
        collapses to min(url) per (host, title) for token blocks and per
        title for the exact-title block, independent of which token or
        length bucket formed the block (same-title urls share all of
        them).  stages/scorer.py:_score_bucket_core is the kernel under
        test; reference parity: src/transducer (candidate sets) +
        the min-url canonical-edge convention of stages/scorer.py:1-30."""
        import pandas as pd

        out = er_pairs(_docs_as_pages(sf_dir))

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_allpairs_transposition_d1(sf_dir):
        """The ER all-pairs flagship under the transposition algorithm at
        n=1, where OSA == unrestricted Damerau — so the whole blocking +
        scoring chain is damerau_levenshtein-oracle-checked
        (er_pairs_allpairs_transposition below covers n=2 via the
        recursive-CTE OSA DP)."""
        import pandas as pd

        out = er_pairs(_docs_as_pages(sf_dir), emit_all_pairs=True,
                       algorithm="transposition", max_distance=1)

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_pairs_allpairs_transposition(sf_dir):
        """The ER all-pairs flagship under transposition at the PRODUCTION
        distance n=2, oracle-checked by the recursive-CTE OSA DP (DuckDB's
        damerau_levenshtein is unrestricted Damerau, != OSA at d=2; the
        oracle computes the exact OSA on the DL=2 candidate frontier)."""
        import pandas as pd

        out = er_pairs(_docs_as_pages(sf_dir), emit_all_pairs=True,
                       algorithm="transposition")

        def fin(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["distance"] = df["distance"].astype("int64")
            return df

        return out.map_batches(fin, batch_format="pandas")

    def er_clusters_allpairs(sf_dir):
        """The FULL flagship chain (extract -> blocking -> scoring ->
        connected components) oracle-checked end-to-end: same synthetic
        pages as er_pairs_allpairs, clustered; cluster_id = lexicographic
        min member url (stages/cluster.py), which a DuckDB recursive-CTE
        label propagation over the identical edge set reproduces
        exactly."""
        return er_clusters(_docs_as_pages(sf_dir), emit_all_pairs=True)

    def multimodal_stub(sf_dir):
        import ray.data as rd

        pages = rd.read_parquet(_pages_path(sf_dir), columns=["url", "html"])
        return multimodal_features(
            pages.map_batches(
                lambda t: pa.table({"url": t.column("url"), "payload": t.column("html")}),
                batch_format="pyarrow",
            )
        )

    def multimodal_image_features(sf_dir):
        """REAL image pipeline over codec-free payloads: deterministic PPM
        images synthesized per doc_id -> actor-pool decode + bilinear
        resize + stats/thumbnail features (stages/multimodal.py; the
        compressed-codec stub is bypassed because PPM decodes in numpy)."""
        from liblevenshtein_rust_ray.stages.multimodal import (
            encode_ppm,
            image_feature_stage,
        )

        def to_images(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_pylist()
            payloads = []
            for i in ids:
                rng = np.random.RandomState((i * 2654435761) % (2 ** 32))
                payloads.append(encode_ppm(
                    rng.randint(0, 256, size=(16, 16, 3)).astype("uint8")
                ))
            return pa.table({
                "doc_id": pa.array(ids),
                "payload": pa.array(payloads, type=pa.binary()),
            })

        ds = _rd(sf_dir, "documents", ["doc_id"]).map_batches(
            to_images, batch_format="pyarrow"
        )
        out = image_feature_stage(ds, concurrency=2, batch_size=64)

        def fin(t: pa.Table) -> pa.Table:
            feats = t.column("features").to_pylist()
            means = np.round(np.array(feats, dtype=np.float64).mean(axis=1), 6)
            return pa.table({
                "doc_id": t.column("doc_id"),
                "payload_bytes": t.column("payload_bytes"),
                "feat_mean": pa.array(means, type=pa.float64()),
            })

        return out.map_batches(fin, batch_format="pyarrow")

    def multimodal_audio_features(sf_dir):
        """REAL audio pipeline: deterministic PCM16 WAV tones per doc_id ->
        actor-pool RIFF decode + RMS/ZCR/centroid/band features."""
        from liblevenshtein_rust_ray.stages.multimodal import (
            audio_feature_stage,
            encode_wav,
        )

        def to_wavs(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_pylist()
            payloads = []
            for i in ids:
                freq = 200 + (i % 20) * 100
                ts = np.arange(800) / 16000.0
                payloads.append(encode_wav(0.4 * np.sin(2 * np.pi * freq * ts)))
            return pa.table({
                "doc_id": pa.array(ids),
                "payload": pa.array(payloads, type=pa.binary()),
            })

        ds = _rd(sf_dir, "documents", ["doc_id"]).map_batches(
            to_wavs, batch_format="pyarrow"
        )
        out = audio_feature_stage(ds, concurrency=2, batch_size=64)

        def fin(t: pa.Table) -> pa.Table:
            feats = [round(float(f[2]), 6) for f in t.column("features").to_pylist()]
            return pa.table({
                "doc_id": t.column("doc_id"),
                "sample_rate": t.column("sample_rate"),
                "spectral_centroid": pa.array(feats, type=pa.float64()),
            })

        return out.map_batches(fin, batch_format="pyarrow")

    # ORDER MATTERS: the round driver's CORRECTNESS check covers the FIRST
    # 50 entries.  Slots 1-50 lead with the flagship ER oracle family and
    # every oracle-bearing query that had never received a driver row
    # through round 2 (VERDICT.md round-2 task 1); r02-green kernel-variant
    def semdedup_embeddings(sf_dir):
        """SemDeDup-style semantic dedup (Abbas et al. 2023): seeded
        random-anchor spherical partition of the embedding space, then
        drop any vector with a lower-id co-clustered neighbour at cosine
        >= 0.42.  Data-independent anchors make the whole pipeline —
        assignment argmax AND drop rule — exactly reproducible in SQL
        with anchor literals (the kmeans-anchor quality path is pinned
        against this contract in pytest)."""
        from liblevenshtein_rust_ray.stages.similarity import semdedup

        return semdedup(
            _rd(sf_dir, "embeddings", ["vec_id", "embedding"]),
            "embedding", "vec_id", n_clusters=8, threshold=0.42,
        )

    def chunk_docs(sf_dir):
        """Training-sequence chunking: each document split into <=32-token
        normalized chunks (context-window packing front half) — no
        exchange at all; string_agg-ordered SQL mirror."""
        from liblevenshtein_rust_ray.stages.textstats import chunk_documents

        return chunk_documents(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            max_tokens=32)

    def pack_docs(sf_dir):
        """Sequence packing (chunk_docs' dual — whole short docs into
        fixed-token-budget training bins): deterministic md5-group +
        in-group id-order cumsum rule, one thin-row group-keyed
        exchange; window-SUM SQL mirror."""
        from liblevenshtein_rust_ray.stages.textstats import pack_documents

        return pack_documents(
            _rd(sf_dir, "documents", ["doc_id", "text"]), "text", "doc_id",
            max_tokens=256, n_groups=16)

    def decontaminate_embeddings_q(sf_dir):
        """Semantic decontamination (decontaminate's embedding twin —
        catches paraphrase contamination that shingle overlap misses):
        corpus vectors (vec_id % 20 != 0) surviving max-cosine < 0.42
        against the broadcast benchmark side (vec_id % 20 == 0).  One
        stateless matmul+row-max pass, exact list_cosine_similarity
        NOT-EXISTS SQL mirror."""
        import numpy as np
        from liblevenshtein_rust_ray.stages.similarity import (
            decontaminate_embeddings)

        emb = _rd(sf_dir, "embeddings", ["vec_id", "embedding"])

        def part(t, want_bench):
            keep = (t.column("vec_id").to_numpy(zero_copy_only=False)
                    % 20 == 0) == want_bench
            return t.filter(pa.array(keep, type=pa.bool_()))

        corpus = emb.map_batches(lambda t: part(t, False),
                                 batch_format="pyarrow")
        bench = emb.map_batches(lambda t: part(t, True),
                                batch_format="pyarrow")
        return decontaminate_embeddings(
            corpus, bench, "embedding", threshold=0.42,
        ).select_columns(["vec_id"])

    def token_quantiles_docs(sf_dir):
        """Exact distributed p50/p90/p99 of per-doc token counts — the
        corpus-stats primitive a curation job reads before picking its
        length/quality thresholds.  Per-batch (value, count) partials →
        one tiny histogram exchange → driver cumsum; exact at any
        corpus size (stages/sketch.py::exact_quantiles), window-cumsum
        SQL mirror."""
        import numpy as np
        import pyarrow.compute as pc
        from liblevenshtein_rust_ray.stages.sketch import exact_quantiles

        docs = _rd(sf_dir, "documents", ["text"])

        def count_tokens(t: pa.Table) -> pa.Table:
            text = pc.coalesce(t.column("text"),
                               pa.scalar("", type=pa.string()))
            n = pc.count_substring_regex(
                pc.utf8_lower(text), pattern=r"[a-z0-9]+")
            return pa.table({"n_tokens": pc.cast(n, pa.int64())})

        return exact_quantiles(
            docs.map_batches(count_tokens, batch_format="pyarrow"),
            "n_tokens", qs=(0.5, 0.9, 0.99))

    def lm_ppl_docs(sf_dir):
        """CCNet-style LM quality scoring: hashed-bigram LM (md5 bucket
        family, add-1-smoothed unigram interpolation) trained on the
        deterministic clean-reference sample (doc_id % 20 == 0), scoring
        every document's logp + perplexity.  Exactly SQL-reproducible —
        counts, smoothing and the per-token ln chain are mirrored in the
        oracle (stages/lm.py)."""
        import numpy as np
        from liblevenshtein_rust_ray.stages.lm import lm_score

        docs = _rd(sf_dir, "documents", ["doc_id", "text"])

        def is_train(t: pa.Table) -> pa.Table:
            keep = t.column("doc_id").to_numpy(zero_copy_only=False) % 20 == 0
            return t.filter(pa.array(keep, type=pa.bool_()))

        train = docs.map_batches(is_train, batch_format="pyarrow")
        return lm_score(docs, train, "text", "doc_id", b1=4096, b2=65536)

    def dsir_weights_docs(sf_dir):
        """DSIR importance weights (Xie et al. 2023 hashed-unigram
        importance resampling — the standard LLM-data domain-selection
        scorer): every document scored by sum-of-token
        ln(p_target/p_raw) over 4096 md5 hash buckets against a
        deterministic target-domain sample (doc_id % 20 == 0).  The md5
        bucket family == DuckDB md5_number_lower, and both histograms
        are exact, so weights are fully SQL-reproducible.  Scale shape:
        two tiny (bucket, count) partial-combiner exchanges + one
        broadcast log-ratio array + ONE stateless corpus pass — nothing
        doc-sized is ever exchanged (stages/selection.py)."""
        import numpy as np
        from liblevenshtein_rust_ray.stages.selection import (
            PredicateTarget, dsir_weights)

        docs = _rd(sf_dir, "documents", ["doc_id", "text"])
        # predicate target -> fused single-pass histograms (2 corpus
        # reads total instead of 3); identical math, same oracle
        target = PredicateTarget(
            lambda t: t.column("doc_id").to_numpy(zero_copy_only=False)
            % 20 == 0)
        return dsir_weights(docs, target, "text", "doc_id",
                            n_buckets=4096, alpha=1.0)

    # and relational queries fill the remainder; no_oracle rows and
    # redundant per-backend twins sit below slot 50.
    return {
        # --- 1-10: the ER flagship oracle family + dynamic-dict trio ----
        "er_pairs_allpairs": er_pairs_allpairs,
        "er_pairs_reps": er_pairs_reps,
        "er_clusters_allpairs": er_clusters_allpairs,
        "er_pairs_allpairs_transposition_d1": er_pairs_allpairs_transposition_d1,
        "er_pairs_allpairs_transposition": er_pairs_allpairs_transposition,
        "er_pairs_corpus": er_pairs_corpus,
        "er_pairs_canonical": er_pairs_canonical,
        "er_pairs_transposition": er_pairs_transposition,
        "er_pairs_incremental": er_pairs_incremental_q,
        "er_pairs_decremental": er_pairs_decremental_q,
        # --- 11-30: r03-green oracle pipelines kept in-window (each
        # remaining LLM-data operator family keeps one representative) --
        "curate_docs": curate_docs,
        "url_canonical_dedup": url_canonical_dedup,
        "line_dedup_pages": line_dedup_pages,
        "substring_dedup_docs": substring_dedup_docs,
        "dup_span_fraction_docs": dup_span_fraction_docs,
        "dict_roundtrip_parts": dict_roundtrip_parts,
        "spell_correct_realdict": spell_correct_realdict,
        "corpus_recall_real": corpus_recall_real,
        "band_join_click_error": band_join_click_error,
        "model_score_docs": model_score_docs,
        "bpe_token_stats_docs": bpe_token_stats_docs,
        "doc_fingerprints_md5": doc_fingerprints_md5,
        "ann_lsh_topk": ann_lsh_topk_q,
        "ann_ivf_topk_full": ann_ivf_topk_full,
        "phonetic_part": phonetic_part,
        "semdedup_embeddings": semdedup_embeddings,
        "dsir_weights_docs": dsir_weights_docs,
        "lm_ppl_docs": lm_ppl_docs,
        "decontaminate_embeddings": decontaminate_embeddings_q,
        "token_quantiles_docs": token_quantiles_docs,
        # --- 31-40: round-4 VERDICT task 1 rotation — the three
        # never-driver-checked r04 operators (neardup canonicalization,
        # contamination measurement, the sf-honoring production cluster
        # row) plus one multimodal rows-only row, joining the r03
        # promotions that stay (er_clusters' transitive-closure oracle,
        # token_quantiles_docs above) ------------------------------------
        "er_clusters": er_clusters_q,
        "neardup_canonical_docs": neardup_canonical_docs,
        "contamination_frac_docs": contamination_frac_docs,
        "er_clusters_scaled": er_clusters_scaled,
        "multimodal_image_features": multimodal_image_features,
        "token_stats": token_stats,
        "quality_docs": quality_docs,
        "langid_docs": langid_docs,
        "word_freq": word_freq,
        "tfidf_docs": tfidf_docs,
        # --- 41-50: composition + kernel-variant slots — one per
        # ALGORITHM FAMILY (standard, transposition, merge-split,
        # restricted weighted ops, NEW phonetic preset) ---
        "bpe_merges_docs": bpe_merges_docs,
        "pack_docs": pack_docs,
        "er_f1": er_f1,
        "ann_cosine_topk": ann_cosine_topk,
        "q1": q1,
        "fuzzy_selfjoin_part": fuzzy_selfjoin_part,
        "fuzzy_selfjoin_part_transposition": fuzzy_selfjoin_part_transposition,
        "fuzzy_selfjoin_part_merge_split": fuzzy_selfjoin_part_merge_split,
        "fuzzy_selfjoin_part_ocr_restricted": fuzzy_selfjoin_part_ocr_restricted,
        "fuzzy_selfjoin_part_phonetic_ops": fuzzy_selfjoin_part_phonetic_ops,
        # ----------------- below the driver's 50-slot window ------------
        # (r04 demotions, making room for the 7 promotions above — every
        # one holds a FRESH r03-green driver row, and each demoted plan
        # stays proven in-window by a sibling: _transposition_d1 by
        # _transposition + the ER transposition_d1 twins,
        # spell_correct_vocab/spelling_recall by spell_correct_realdict +
        # corpus_recall_real, url_dedup_incremental by url_canonical_dedup
        # + er_pairs_incremental, kmv/host_stats/vocab_membership by the
        # token-stats and relational families)
        # (r05 demotions, making room for the 4 promotions above — every
        # one holds a FRESH r04-green driver row, and each demoted plan
        # stays proven in-window by a sibling: lang_counts by langid_docs,
        # events_hourly/revenue_by_segment by q1 + band_join_click_error,
        # top_docs_by_tokens by token_stats/word_freq)
        "lang_counts": lang_counts,
        "events_hourly": events_hourly,
        "revenue_by_segment": revenue_by_segment,
        "top_docs_by_tokens": top_docs_by_tokens,
        "fuzzy_selfjoin_part_transposition_d1": fuzzy_selfjoin_part_transposition_d1,
        "gopher_quality_docs": gopher_quality_docs,
        "chunk_docs": chunk_docs,
        "spell_correct_vocab": spell_correct_vocab,
        "spelling_recall": spelling_recall_q,
        "url_dedup_incremental": url_dedup_incremental,
        "kmv_distinct_docs": kmv_distinct_docs,
        "host_stats_corpus": host_stats_corpus,
        "vocab_membership": vocab_membership,
        # (earlier-round demotions — all hold green driver rows from
        # r01/r02, kernel plans proven in-window by siblings)
        "fuzzy_selfjoin_part_ms_universal": fuzzy_selfjoin_part_ms_universal,
        "fuzzy_selfjoin_part_universal": fuzzy_selfjoin_part_universal,
        "fuzzy_selfjoin_part_ocr": fuzzy_selfjoin_part_ocr,
        "fuzzy_vocab_pairs_deletion": fuzzy_vocab_pairs_deletion,
        "fuzzy_selfjoin_part_merge_split_d1": fuzzy_selfjoin_part_merge_split_d1,
        "fuzzy_selfjoin_part_arraytrie": fuzzy_selfjoin_part_arraytrie,
        "fuzzy_selfjoin_customer": fuzzy_selfjoin_customer,
        "fuzzy_vocab_pairs": fuzzy_vocab_pairs,
        "fuzzy_lookup_parts": fuzzy_lookup_parts,
        "fuzzy_lookup_parts_pathmap": fuzzy_lookup_parts_pathmap,
        "fuzzy_lookup_parts_filtered": fuzzy_lookup_parts_filtered,
        "fuzzy_lookup_parts_valueset": fuzzy_lookup_parts_valueset,
        "fuzzy_topk_part": fuzzy_topk_part,
        "fuzzy_join_vocab_partwords": fuzzy_join_vocab_partwords,
        "fuzzy_join_vocab_partwords_deletion": fuzzy_join_vocab_partwords_deletion,
        "fuzzy_vocab_pairs_subst": fuzzy_vocab_pairs_subst,
        "fuzzy_vocab_pairs_subst_closed": fuzzy_vocab_pairs_subst_closed,
        "vocab_canonicalize": vocab_canonicalize,
        "decontaminate_docs": decontaminate_docs,
        "redact_docs": redact_docs,
        "split_docs": split_docs,
        "rebalance_sources_docs": rebalance_sources_docs,
        "substring_search_docs": substring_search_docs,
        "substring_positions_d0": substring_positions_d0,
        "substring_positions_d1": substring_positions_d1,
        "prefix_search_tokens": prefix_search_tokens,
        "prefix_search_tokens_zipper": prefix_search_tokens_zipper,
        "exact_dedup_part": exact_dedup_part,
        "minhash_neardup_docs_md5": minhash_neardup_docs_md5,
        "minhash_neardup_docs_md5_join": minhash_neardup_docs_md5_join,
        "simhash_pairs_docs_md5": simhash_pairs_docs_md5,
        "ngram_jaccard_docs": ngram_jaccard_docs,
        "embedding_neardup": embedding_neardup,
        "embedding_neardup_lsh": embedding_neardup_lsh,
        "embedding_neardup_lsh_join": embedding_neardup_lsh_join,
        "scoped_completion": scoped_completion,
        "sessions_user": sessions_user,
        "sliding_events": sliding_events,
        "asof_click_error": asof_click_error,
        # no_oracle by nature (RNG hash family / binary media / sf-varying
        # corpus paths); er_pairs stays rows-only (production rep-edge
        # CHOICE is engine-specific; its relation is oracle-proven by
        # er_pairs_reps + er_pairs_corpus instead); er_clusters_scaled
        # and multimodal_image_features moved INTO the window (r04 task 1)
        "minhash_neardup_docs": minhash_neardup_docs,
        "simhash_pairs_docs": simhash_pairs_docs,
        "ann_ivf_topk": ann_ivf_topk_q,
        "doc_fingerprints": doc_fingerprints,
        "er_pairs": er_pairs_q,
        "multimodal_stub": multimodal_stub,
        "multimodal_audio_features": multimodal_audio_features,
    }


# ======================================================================
def _langid_oracle_sql(source: str = "documents") -> str:
    """The trigram-profile langid heuristic as SQL, generated from the SAME
    profile tables the Ray stage uses (functions/textstats.py) so the two
    can't drift; tie-breaking mirrors the dict-order strict-> loop.
    ``source`` parameterizes the input relation so composed pipelines
    (curate_docs) can run it over a filtered CTE."""
    from liblevenshtein_rust_ray.functions.textstats import _LANG_PROFILES

    def lit(prof):
        return "[" + ", ".join("'" + g.replace("'", "''") + "'" for g in sorted(prof)) + "]"

    scores = ", ".join(
        f"len(list_intersect(grams, {lit(_LANG_PROFILES[lang])})) AS s_{lang}"
        for lang in ["en", "de", "fr", "es"]
    )
    lang_given = ("lang AS lang_given" if source == "documents"
                  else "NULL AS lang_given")
    return f"""
        WITH t0 AS (
          SELECT doc_id, {lang_given},
                 ' ' || substr(regexp_replace(trim(lower(text),
                     ' ' || chr(9) || chr(10) || chr(13)), '\\s+', ' ', 'g'),
                     1, 400) || ' ' AS t
          FROM {source}),
         t1 AS (
          SELECT doc_id, lang_given,
                 CASE WHEN length(t) < 5 THEN []
                      ELSE list_distinct([substr(t, i, 3) FOR i IN range(1, length(t) - 1)])
                 END AS grams
          FROM t0),
         t2 AS (SELECT doc_id, lang_given, {scores} FROM t1)
        SELECT doc_id, lang_given,
               CASE WHEN s_en >= 3 AND s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en'
                    WHEN s_de >= 3 AND s_de > s_en AND s_de >= s_fr AND s_de >= s_es THEN 'de'
                    WHEN s_fr >= 3 AND s_fr > s_en AND s_fr > s_de AND s_fr >= s_es THEN 'fr'
                    WHEN s_es >= 3 AND s_es > s_en AND s_es > s_de AND s_es > s_fr THEN 'es'
                    ELSE 'und' END AS lang_pred
        FROM t2
    """


def _embedding_lsh_oracle_sql(dim: int = 64, threshold: float = 0.42) -> str:
    """The sign-bucket embedding-LSH pipeline as SQL, generated from the
    SAME seeded hyperplane matrices the Ray stage uses
    (stages.dedup._lsh_planes) so the two can't drift: 16 tables x 8
    hyperplane sign bits -> per-table bucket keys over byte-identical-vector
    class representatives -> candidate pairs co-bucketed in >=1 table ->
    exact cosine verify, plus identical-vector stars (rep = min id).
    Covers the un-salted regime (every bucket under max_bucket distinct
    vectors — always true at the driver's sf0.01 scale: 500 vectors).
    Sign bits use the raw vector (sign(v.p) = sign((v/|v|).p)); the only
    divergence risk is a dot product within float ulp of 0."""
    from liblevenshtein_rust_ray.stages.dedup import _lsh_planes

    planes = _lsh_planes(dim, 8, 16)
    rows = []
    for tid in range(16):
        for pid in range(8):
            vec = ", ".join(repr(float(x)) for x in planes[tid][:, pid])
            rows.append(f"({tid}, {pid}, [{vec}])")
    values = ",\n             ".join(rows)
    return f"""
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
                          CAST(embedding AS VARCHAR) AS cls
                   FROM embeddings),
             c AS (SELECT vec_id, v,
                          min(vec_id) OVER (PARTITION BY cls) AS rep
                   FROM e),
             stars AS (SELECT rep AS id_a, vec_id AS id_b
                       FROM c WHERE vec_id <> rep),
             reps AS (SELECT vec_id, v FROM c WHERE vec_id = rep),
             pl(tid, pid, p) AS (VALUES {values}),
             keys AS (SELECT r.vec_id, pl.tid,
                             sum(CASE WHEN list_dot_product(r.v, pl.p) > 0
                                      THEN 1 << pl.pid ELSE 0 END) AS key
                      FROM reps r CROSS JOIN pl
                      GROUP BY r.vec_id, pl.tid),
             cand AS (SELECT DISTINCT k1.vec_id AS id_a, k2.vec_id AS id_b
                      FROM keys k1 JOIN keys k2
                        ON k1.tid = k2.tid AND k1.key = k2.key
                           AND k1.vec_id < k2.vec_id),
             ver AS (SELECT c2.id_a, c2.id_b
                     FROM cand c2
                     JOIN reps a ON a.vec_id = c2.id_a
                     JOIN reps b ON b.vec_id = c2.id_b
                     WHERE list_cosine_similarity(a.v, b.v) >= {threshold})
        SELECT id_a, id_b FROM ver
        UNION
        SELECT id_a, id_b FROM stars
    """


def _semdedup_oracle_sql(dim: int = 64, n_clusters: int = 8,
                         threshold: float = 0.42, seed: int = 1234) -> str:
    """The SemDeDup pipeline as SQL, generated from the SAME seeded anchor
    matrix the Ray stage uses (stages.similarity.semdedup_anchors) so the
    two can't drift: cluster = argmax over dot(v, anchor) (row_number
    with the stage's first-max = lowest-cid tie order), keep = no
    lower-id co-clustered vector at cosine >= threshold.  Raw-vector dots
    are argmax-equivalent to the stage's normalized-row dots (positive
    scaling); the only divergence risk is a dot within float ulp of a
    tie, measure-zero for the synthetic corpus."""
    from liblevenshtein_rust_ray.stages.similarity import semdedup_anchors

    amat = semdedup_anchors(dim, n_clusters, seed)
    rows = []
    for cid in range(n_clusters):
        vec = ", ".join(repr(float(x)) for x in amat[cid])
        rows.append(f"({cid}, [{vec}])")
    values = ",\n             ".join(rows)
    return f"""
        WITH a(cid, p) AS (VALUES {values}),
             e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings),
             asg AS (SELECT vec_id, v, cid FROM (
                       SELECT e.vec_id, e.v, a.cid,
                              row_number() OVER (
                                PARTITION BY e.vec_id
                                ORDER BY list_dot_product(e.v, a.p) DESC,
                                         a.cid) AS rn
                       FROM e CROSS JOIN a)
                     WHERE rn = 1),
             drops AS (SELECT DISTINCT y.vec_id
                       FROM asg x JOIN asg y
                         ON x.cid = y.cid AND x.vec_id < y.vec_id
                       WHERE list_cosine_similarity(x.v, y.v)
                             >= {threshold})
        SELECT asg.vec_id,
               CAST(asg.cid AS BIGINT) AS cluster_id,
               (drops.vec_id IS NULL) AS keep
        FROM asg LEFT JOIN drops ON drops.vec_id = asg.vec_id
    """


def _ann_lsh_oracle_sql(dim: int = 64, k: int = 5, probe_hamming: int = 1) -> str:
    """The LSH-pruned ANN pipeline as SQL, with the stage's own seeded
    hyperplanes (stages.similarity ann_lsh_topk: RandomState(42).randn)
    embedded as literals: 8 sign bits per vector -> candidates within
    ``probe_hamming`` bits of the query bucket -> exact cosine top-k with
    (sim DESC, match_id) tie order.  rank-only output (float sims are
    dropped by the driver query)."""
    import numpy as np

    planes = np.random.RandomState(42).randn(8, dim)
    rows = []
    for pid in range(8):
        vec = ", ".join(repr(float(x)) for x in planes[pid])
        rows.append(f"({pid}, [{vec}])")
    values = ",\n             ".join(rows)
    return f"""
        WITH pl(pid, p) AS (VALUES {values}),
             e AS (SELECT vec_id, embedding,
                          CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings),
             b AS (SELECT e.vec_id,
                          CAST(sum(CASE WHEN list_dot_product(e.v, pl.p) > 0
                                        THEN 1 << pl.pid ELSE 0 END)
                               AS BIGINT) AS bkt
                   FROM e CROSS JOIN pl GROUP BY e.vec_id),
             q AS (SELECT e.vec_id, e.embedding, b.bkt
                   FROM e JOIN b ON b.vec_id = e.vec_id
                   WHERE e.vec_id < {k}),
             s AS (SELECT q.vec_id AS query_id, e2.vec_id AS match_id,
                          list_cosine_similarity(q.embedding, e2.embedding) AS sim
                   FROM q
                   JOIN b b2 ON bit_count(xor(q.bkt, b2.bkt)) <= {probe_hamming}
                   JOIN e e2 ON e2.vec_id = b2.vec_id)
        SELECT query_id, match_id,
               CAST(row_number() OVER (PARTITION BY query_id
                                       ORDER BY sim DESC, match_id) AS BIGINT) AS rank
        FROM s
        QUALIFY row_number() OVER (PARTITION BY query_id
                                   ORDER BY sim DESC, match_id) <= {k}
    """


def _curate_oracle_sql(min_tokens: int = 10, max_punct: float = 0.2,
                       lang: str = "en", threshold: float = 0.5) -> str:
    """The composed curation pipeline (pipelines/curation.py) as one SQL
    statement: quality screen + trigram langid filter + exact dedup
    (min doc_id per text) + md5 MinHash-LSH near-dup drop (the greater id
    of every candidate pair) — each piece is the SAME generated SQL the
    standalone oracles use, re-sourced over the composition's CTEs."""
    return f"""
        WITH lid AS ({_langid_oracle_sql()}),
             q AS (SELECT doc_id, text,
                          CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT) AS n_tokens,
                          CASE WHEN length(text) = 0 THEN 0.0
                               ELSE len(regexp_extract_all(text, '[^\\w\\s]')) / length(text)
                          END AS punct_ratio
                   FROM documents),
             kept AS (SELECT q.doc_id, q.text, q.n_tokens
                      FROM q JOIN lid ON lid.doc_id = q.doc_id
                      WHERE lid.lang_pred = '{lang}'
                        AND q.n_tokens >= {min_tokens}
                        AND q.punct_ratio <= {max_punct}),
             dedup AS (SELECT k.doc_id, k.text, k.n_tokens
                       FROM kept k
                       JOIN (SELECT text, min(doc_id) AS mk
                             FROM kept GROUP BY text) m
                         ON k.doc_id = m.mk),
             mh AS ({_minhash_md5_oracle_sql(source="dedup")}),
             drops AS (SELECT DISTINCT id_b FROM mh)
        SELECT d.doc_id, d.n_tokens
        FROM dedup d
        WHERE d.doc_id NOT IN (SELECT id_b FROM drops)
    """


def _minhash_md5_oracle_sql(source: str = "documents") -> str:
    """The full MinHash-LSH pipeline as SQL, generated from the SAME md5
    permutation constants the Ray stage uses (functions.minhash
    md5_perm_params) so the two can't drift: shingle -> md5 hash -> exact
    modular permutations -> 32 two-row bands -> per-(bucket, signature)
    representatives -> candidate pairs -> signature-agreement estimate
    >= 0.5, plus identical-signature stars at jaccard 1.0.  ``source``
    parameterizes the input relation for composed pipelines."""
    from liblevenshtein_rust_ray.functions.minhash import md5_perm_params

    P = (1 << 61) - 1
    a, b = md5_perm_params(64)
    exprs = ",\n                 ".join(
        f"list_min(list_transform(hs, h -> CAST((CAST({ai} AS HUGEINT) * h + {bi}) % {P} AS UBIGINT)))"
        for ai, bi in zip(a, b)
    )
    sentinel = ", ".join(["18446744073709551615"] * 64)
    return f"""
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                   FROM {source}),
             s AS (SELECT doc_id,
                          CASE WHEN len(toks) = 0 THEN []
                               WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                               ELSE [array_to_string(toks[i:i+2], ' ')
                                     FOR i IN range(1, len(toks) - 1)]
                          END AS sh
                   FROM t),
             h AS (SELECT doc_id,
                          list_transform(sh, x -> md5_number_lower(x) % {P}) AS hs
                   FROM s),
             sg AS (SELECT doc_id,
                           CASE WHEN len(hs) = 0
                                THEN [{sentinel}]
                                ELSE [{exprs}]
                           END AS sig
                    FROM h),
             k AS (SELECT doc_id, sig,
                          CAST(r.band AS VARCHAR) || ':' ||
                          CAST(sig[2 * r.band + 1] AS VARCHAR) || ',' ||
                          CAST(sig[2 * r.band + 2] AS VARCHAR) AS bucket
                   FROM sg, unnest(range(0, 32)) AS r(band)),
             stars AS (SELECT g.rep AS id_a, d.doc_id AS id_b, 1.0 AS jaccard
                       FROM sg d
                       JOIN (SELECT sig, min(doc_id) AS rep FROM sg GROUP BY sig) g
                         ON d.sig = g.sig AND d.doc_id <> g.rep),
             reps AS (SELECT bucket, sig, min(doc_id) AS rep
                      FROM k GROUP BY bucket, sig),
             cand AS (SELECT DISTINCT r1.rep AS id_a, r2.rep AS id_b,
                             r1.sig AS sa, r2.sig AS sb
                      FROM reps r1 JOIN reps r2
                        ON r1.bucket = r2.bucket AND r1.rep < r2.rep),
             est AS (SELECT id_a, id_b,
                            list_sum(list_transform(range(1, 65),
                                i -> CASE WHEN sa[i] = sb[i] THEN 1 ELSE 0 END)) / 64.0
                              AS jaccard
                     FROM cand)
        SELECT id_a, id_b, max(jaccard) AS jaccard
        FROM (SELECT * FROM stars
              UNION ALL
              SELECT * FROM est WHERE jaccard >= 0.5)
        GROUP BY id_a, id_b
    """


def _simhash_md5_oracle_sql(max_hamming: int = 6) -> str:
    """The SimHash pipeline as SQL: md5-hashed char 3-grams, per-bit
    majority vote (nested lambdas; HUGEINT shift accumulation since
    UBIGINT << 63 overflows), 8-bit band grouping, per-(band, bits,
    simhash) representatives, bit_count(xor()) Hamming verify, and
    identical-simhash stars."""
    return f"""
        WITH g AS (SELECT doc_id,
                          CASE WHEN length(text) = 0 THEN []
                               WHEN length(text) < 3 THEN [lower(text)]
                               ELSE [substr(lower(text), i, 3)
                                     FOR i IN range(1, length(text) - 1)]
                          END AS grams
                   FROM documents),
             h AS (SELECT doc_id,
                          list_transform(grams, x -> md5_number_lower(x)) AS hs
                   FROM g),
             sg AS (SELECT doc_id,
                           CASE WHEN len(hs) = 0 THEN CAST(0 AS UBIGINT)
                                ELSE CAST(list_sum(list_transform(range(0, 64),
                                     b -> CASE WHEN 2 * list_sum(list_transform(hs,
                                               h -> CAST((h >> b) & 1 AS BIGINT))) > len(hs)
                                          THEN CAST(1 AS HUGEINT) << b
                                          ELSE CAST(0 AS HUGEINT) END)) AS UBIGINT)
                           END AS sh
                    FROM h),
             stars AS (SELECT r.rep AS id_a, d.doc_id AS id_b,
                              CAST(0 AS BIGINT) AS hamming
                       FROM sg d
                       JOIN (SELECT sh, min(doc_id) AS rep FROM sg GROUP BY sh) r
                         ON d.sh = r.sh AND d.doc_id <> r.rep),
             k AS (SELECT doc_id, sh, r.band AS band,
                          CAST((sh >> CAST(8 * r.band AS INTEGER)) & 255 AS BIGINT) AS bits
                   FROM sg, unnest(range(0, 8)) AS r(band)),
             reps AS (SELECT band, bits, sh, min(doc_id) AS rep
                      FROM k GROUP BY band, bits, sh),
             cand AS (SELECT DISTINCT r1.rep AS id_a, r2.rep AS id_b,
                             r1.sh AS sa, r2.sh AS sb
                      FROM reps r1 JOIN reps r2
                        ON r1.band = r2.band AND r1.bits = r2.bits
                       AND r1.rep < r2.rep),
             ham AS (SELECT id_a, id_b,
                            CAST(bit_count(xor(sa, sb)) AS BIGINT) AS hamming
                     FROM cand)
        SELECT id_a, id_b, min(hamming) AS hamming
        FROM (SELECT * FROM stars
              UNION ALL
              SELECT * FROM ham WHERE hamming <= {max_hamming})
        GROUP BY id_a, id_b
    """


def _substring_d1_oracle_sql(pattern: str = "custoner") -> str:
    """All approximate occurrences of ``pattern`` at d<=1 (Sellers DP
    semantics: end positions of substrings within one edit) as SQL: a
    qualifying substring has length m-1 (one deletion: enumerated variant
    list), m (<=1 substitution: per-char hamming), or m+1 (one insertion:
    split-match over all insertion points)."""
    m = len(pattern)
    dels = sorted({pattern[:i] + pattern[i + 1:] for i in range(m)})
    del_list = ", ".join("'" + d + "'" for d in dels)
    return f"""
        WITH r AS (SELECT doc_id, text, CAST(u.j AS BIGINT) AS j
                   FROM documents,
                        unnest(range({m - 1}, length(text) + 1)) AS u(j)),
             c AS (SELECT doc_id, j,
                          (j >= {m} AND substr(text, CAST(j - {m - 1} AS INTEGER), {m}) = '{pattern}') AS exact0,
                          (j >= {m} AND len(list_filter(range(1, {m + 1}),
                               i -> substr(text, CAST(j - {m} + i AS INTEGER), 1) <>
                                    substr('{pattern}', CAST(i AS INTEGER), 1))) <= 1) AS sub1,
                          (substr(text, CAST(j - {m - 2} AS INTEGER), {m - 1}) IN ({del_list})) AS del1,
                          (j >= {m + 1} AND len(list_filter(range(0, {m + 1}),
                               k -> substr(text, CAST(j - {m} AS INTEGER), CAST(k AS INTEGER)) =
                                        substr('{pattern}', 1, CAST(k AS INTEGER))
                                AND substr(text, CAST(j - {m} + k + 1 AS INTEGER), CAST({m} - k AS INTEGER)) =
                                        substr('{pattern}', CAST(k + 1 AS INTEGER), CAST({m} - k AS INTEGER)))) > 0) AS ins1
                   FROM r)
        SELECT doc_id, j AS match_end,
               CAST(CASE WHEN exact0 THEN 0 ELSE 1 END AS BIGINT) AS distance
        FROM c WHERE exact0 OR sub1 OR del1 OR ins1
    """


# sf the driver runs the SQL-oracle comparison at ("side-by-side at
# sf=0.01"); oracles that need a generated side table pin its cache to
# this sf, exactly like the corpus oracles pin _corpus_dir(0.001).
_ORACLE_SF_DIR = "/root/testdata/sf0.01"


def _mitton_cases_parquet(sample: int) -> str:
    """The deterministic Mitton misspelling corpus corpus_recall_real
    scores, persisted as (correct, misspelling) parquet so the SQL oracle
    can recompute the recall-at-distance table independently with DuckDB's
    levenshtein().  Same generator, same seed — byte-identical cases."""
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from liblevenshtein_rust_ray.pipelines.spelling import (
        load_dictionary_words, make_mitton_corpus)
    from liblevenshtein_rust_ray.sources.corpus import parse_mitton

    path = os.path.join(_CORPUS_CACHE, f"mitton_cases_s{sample}.parquet")
    if not os.path.exists(path):
        os.makedirs(_CORPUS_CACHE, exist_ok=True)
        corpus = parse_mitton(make_mitton_corpus(
            load_dictionary_words(), sample=sample, per_word=1, seed=7))
        # DuckDB's levenshtein() counts BYTES; the engine (and the
        # reference) count codepoints.  Fold every non-ASCII codepoint to
        # a distinct single-byte control char (injective, so codepoint
        # edit distance is preserved exactly) and let the oracle measure
        # the folded shadow columns.
        non_ascii = sorted({ch for c, m, _f in corpus
                            for ch in c + m if ord(ch) > 127})
        assert len(non_ascii) < 31, "fold map exceeds control-char range"
        fold = str.maketrans(
            {ch: chr(1 + i) for i, ch in enumerate(non_ascii)})
        tmp = path + ".tmp"
        _pq.write_table(pa.table({
            "correct": pa.array([c for c, _m, _f in corpus],
                                type=pa.string()),
            "misspelling": pa.array([m for _c, m, _f in corpus],
                                    type=pa.string()),
            "correct_f": pa.array([c.translate(fold) for c, _m, _f in corpus],
                                  type=pa.string()),
            "misspelling_f": pa.array(
                [m.translate(fold) for _c, m, _f in corpus],
                type=pa.string()),
        }), tmp)
        os.replace(tmp, path)
    return path


def _spelling_pairs_parquet(sf_dir: str = _ORACLE_SF_DIR) -> str:
    """(original, misspelling) pairs the spelling_recall query generates at
    ``sf_dir``, rebuilt by the same pure functions (tokenize + per-word
    seeded TypoGenerator — order-independent) and persisted so the oracle
    can score recall with DuckDB levenshtein()."""
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from liblevenshtein_rust_ray.functions.simhash import hash64
    from liblevenshtein_rust_ray.functions.tokenize import tokenize
    from liblevenshtein_rust_ray.functions.typogen import TypoGenerator

    path = os.path.join(
        _CORPUS_CACHE, f"spelling_pairs_sf{_sf_of(sf_dir)}.parquet")
    if not os.path.exists(path):
        os.makedirs(_CORPUS_CACHE, exist_ok=True)
        docs = _pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"])
        vocab = sorted({tok for x in docs.column("text").to_pylist()
                        for tok in tokenize(x or "")})
        orig, miss = [], []
        for w in vocab:  # mirrors pipelines.spelling.generate_misspellings
            if not w or len(w) < 3:
                continue
            g = TypoGenerator(seed=(hash64(w) ^ 42) & 0x7FFFFFFF)
            for _ in range(2):  # per_word=2, distance=2 (the query's args)
                orig.append(w)
                miss.append(g.generate_typos(w, 2))
        tmp = path + ".tmp"
        _pq.write_table(pa.table({
            "original": pa.array(orig, type=pa.string()),
            "misspelling": pa.array(miss, type=pa.string()),
        }), tmp)
        os.replace(tmp, path)
    return path


def _dict_parquet_path() -> str:
    """The reference's real dictionary as a cached one-column parquet so
    SQL oracles can join against it by path (same device as the corpus
    cache; written once, deterministic)."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from liblevenshtein_rust_ray.pipelines.spelling import load_dictionary_words

    path = os.path.join(_CORPUS_CACHE, "english_words_v2.parquet")
    if not os.path.exists(path):
        os.makedirs(_CORPUS_CACHE, exist_ok=True)
        words = load_dictionary_words()
        # word_f: non-ASCII codepoints folded to single-byte placeholders
        # so DuckDB's byte-counting levenshtein() measures codepoint
        # distance against ASCII probes (same trick as the Mitton cases)
        non_ascii = sorted({ch for w in words for ch in w if ord(ch) > 127})
        fold = str.maketrans(
            {ch: chr(1 + i) for i, ch in enumerate(non_ascii)})
        tmp = path + ".tmp"
        _pq.write_table(
            _pa.table({
                "word": _pa.array(words, type=_pa.string()),
                "word_f": _pa.array([w.translate(fold) for w in words],
                                    type=_pa.string()),
            }), tmp)
        os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Recursive-CTE edit-distance DPs: exact SQL oracles for the algorithm
# variants DuckDB has no builtin for (OSA/transposition at n>=2,
# merge-and-split, weighted operation sets, restricted substitutions).
# Each CTE walks the DP row by row carrying the previous row(s) as list
# columns; the within-row insert chain (row[j] depends on row[j-1]) is
# broken with a prefix-min pass (row[p] = min_k<=p t[k] + (p-k)*w_ins),
# exact because insert cost is constant.  Every formulation is pinned
# bit-exact against the Python kernels by tests/test_dp_oracle_sql.py.
# Inputs are a CTE named ``hard(a, b)`` of candidate string pairs; the
# result CTE exposes (a, b, d).

_OSA_DP_CTE = """
 dp AS (
   SELECT a, b, 0 AS i,
          range(0, length(b)+1) AS row_i,
          CAST(NULL AS BIGINT[]) AS row_im1
   FROM hard
   UNION ALL
   SELECT a, b, i+1,
          (WITH t AS (
             SELECT list_prepend(CAST(i+1 AS BIGINT),
               [least(
                  row_i[j+1] + 1,
                  row_i[j] + (CASE WHEN a[i+1] = b[j] THEN 0 ELSE 1 END),
                  CASE WHEN i >= 1 AND j >= 2 AND a[i+1] = b[j-1] AND a[i] = b[j]
                       THEN row_im1[j-1] + 1 ELSE 999999 END
                ) for j in range(1, length(b)+1)]) AS tl
           )
           SELECT [list_min([tl[k] - (k-1) for k in range(1, p+1)]) + (p-1)
                   for p in range(1, length(b)+2)]
           FROM t),
          row_i
   FROM dp WHERE i < length(a)
 ),
 dpres AS (SELECT a, b, row_i[length(b)+1] AS d FROM dp WHERE i = length(a))
"""

# Merge-and-split is a greedy-match recursion (a match FORBIDS the other
# ops at that cell — reference distance/mod.rs:624-746), so the DP runs
# as a SUFFIX recursion (i from |a| down to 0) and the within-row insert
# chain is a suffix-min BLOCKED at match cells and at the fixed j=|b|
# boundary (their values don't admit the insert alternative).
_MS_DP_CTE = """
 dp AS (
   SELECT a, b, length(a) AS i,
          [length(b) - j for j in range(0, length(b)+1)] AS row_i,
          CAST(NULL AS BIGINT[]) AS row_ip1
   FROM hard
   UNION ALL
   SELECT a, b, i-1,
          (WITH h AS (
             SELECT
               [CASE WHEN p = length(b)+1 THEN true
                     WHEN a[i] = b[p] THEN true ELSE false END
                for p in range(1, length(b)+2)] AS blocked,
               [CASE WHEN p = length(b)+1 THEN length(a) - (i-1)
                     WHEN a[i] = b[p] THEN row_i[p+1]
                     ELSE 1 + least(
                        row_i[p],
                        row_i[p+1],
                        CASE WHEN p+2 <= length(b)+1 THEN row_i[p+2] ELSE 999999 END,
                        CASE WHEN i+1 <= length(a) THEN row_ip1[p+1] ELSE 999999 END
                     ) END
                for p in range(1, length(b)+2)] AS base
           )
           SELECT [CASE WHEN blocked[p] THEN base[p]
                        ELSE list_min([base[k] + (k-p) for k in range(p,
                               list_min([k2 for k2 in range(p, length(b)+2) if blocked[k2]]) + 1)])
                   END
                   for p in range(1, length(b)+2)]
           FROM h),
          row_i
   FROM dp WHERE i > 0
 ),
 dpres AS (SELECT a, b, row_i[1] AS d FROM dp WHERE i = 0)
"""


def _bpe_oracle_sql(n_merges: int, source: str = "documents") -> str:
    """The BPE training loop as one chained-CTE SQL string (round k uses
    only round k-1's vocabulary state, so the chain is static SQL).  The
    marker-wrapped encoding makes SQL ``replace`` the exact merge step —
    see stages/bpetrain.py's encoding note."""
    wf = (f"SELECT tok, CAST(count(*) AS BIGINT) AS f FROM (SELECT "
          f"unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok "
          f"FROM {source}) GROUP BY tok")
    parts = [
        f"v0 AS MATERIALIZED (SELECT '<' || array_to_string(regexp_extract_all(tok, "
        f"'.'), '><') || '>' AS s, f FROM ({wf}))"
    ]
    sel = []
    for k in range(1, n_merges + 1):
        parts.append(f"""
 e{k} AS MATERIALIZED (SELECT rid, f, unnest(syms) AS sym,
                 generate_subscripts(syms, 1) AS pos
          FROM (SELECT row_number() OVER () AS rid, f,
                       string_split(substr(s, 2, length(s) - 2),
                                    '><') AS syms
                FROM v{k - 1} WHERE s IS NOT NULL))""")
        parts.append(f"""
 p{k} AS MATERIALIZED (SELECT l, r, CAST(SUM(f) AS BIGINT) AS c FROM (
            SELECT f, sym AS l,
                   lead(sym) OVER (PARTITION BY rid ORDER BY pos) AS r
            FROM e{k}) WHERE r IS NOT NULL GROUP BY l, r)""")
        parts.append(
            f" m{k} AS MATERIALIZED (SELECT l, r, c FROM p{k} "
            f"ORDER BY c DESC, l, r LIMIT 1)")
        parts.append(f"""
 v{k} AS MATERIALIZED (SELECT replace(s,
                 '<' || (SELECT l FROM m{k}) || '><' ||
                 (SELECT r FROM m{k}) || '>',
                 '<' || (SELECT l FROM m{k}) ||
                 (SELECT r FROM m{k}) || '>') AS s, f
          FROM v{k - 1})""")
        sel.append(f"SELECT CAST({k} AS BIGINT) AS merge_rank, l AS lhs, "
                   f"r AS rhs, c AS pair_count FROM m{k}")
    return "WITH " + ",".join(parts) + " " + " UNION ALL ".join(sel)


def _weighted_dp_cte(sub_cost: float, rules=(), merge: float | None = None,
                     split: float | None = None) -> str:
    """Forward weighted DP (kernel.operations.weighted_distance) as a
    recursive CTE: float costs, insert/delete fixed at 1.0, optional
    global merge/split weights and restricted segment rules generated
    from the SAME OperationSet the Ray query uses so the two can't
    drift.  Pulls reach back at most 2 rows (merge / 2-char rule srcs),
    carried as row_i / row_im1."""
    terms = [
        f"row_i[j] + (CASE WHEN a[i+1] = b[j] THEN 0.0 ELSE {sub_cost} END)",
        "row_i[j+1] + 1.0",
    ]
    if split is not None:
        terms.append(f"CASE WHEN j >= 2 THEN row_i[j-1] + {split} ELSE 1e18 END")
    if merge is not None:
        terms.append(f"CASE WHEN i >= 1 THEN row_im1[j] + {merge} ELSE 1e18 END")
    for s, t, w in rules:
        ls, lt = len(s), len(t)
        src_row = {1: "row_i", 2: "row_im1"}[ls]
        s_lit, t_lit = s.replace("'", "''"), t.replace("'", "''")
        guards = [f"i+1 >= {ls}", f"j >= {lt}"] + (["i >= 1"] if ls == 2 else [])
        terms.append(
            f"CASE WHEN {' AND '.join(guards)}"
            f" AND substr(a, i+2-{ls}, {ls}) = '{s_lit}'"
            f" AND substr(b, j-{lt}+1, {lt}) = '{t_lit}'"
            f" THEN {src_row}[j-{lt}+1] + {w} ELSE 1e18 END"
        )
    cell = ",\n                  ".join(terms)
    return f"""
 dp AS (
   SELECT a, b, 0 AS i,
          [CAST(j AS DOUBLE) for j in range(0, length(b)+1)] AS row_i,
          CAST(NULL AS DOUBLE[]) AS row_im1
   FROM hard
   UNION ALL
   SELECT a, b, i+1,
          (WITH t AS (
             SELECT list_prepend(row_i[1] + 1.0,
               [least(
                  {cell}
                ) for j in range(1, length(b)+1)]) AS tl
           )
           SELECT [list_min([tl[k] - (k-1)*1.0 for k in range(1, p+1)]) + (p-1)*1.0
                   for p in range(1, length(b)+2)]
           FROM t),
          row_i
   FROM dp WHERE i < length(a)
 ),
 dpres AS (SELECT a, b, row_i[length(b)+1] AS d FROM dp WHERE i = length(a))
"""


def _subst_lev_dp_cte() -> str:
    """Levenshtein with zero-cost allowed substitutions (the restricted
    SubstitutionSet semantics: allowed (dict,query) char pairs match for
    free in the characteristic vector) as a recursive CTE; the allowed
    pair list is generated from the SAME phonetic_basic() preset the Ray
    query uses."""
    from liblevenshtein_rust_ray.kernel.substitution import phonetic_basic

    in_list = ", ".join(
        f"'{a}{b}'" for a, b in sorted(phonetic_basic()._pairs)
    )
    return f"""
 dp AS (
   SELECT a, b, 0 AS i,
          range(0, length(b)+1) AS row_i,
          CAST(NULL AS BIGINT[]) AS row_im1
   FROM hard
   UNION ALL
   SELECT a, b, i+1,
          (WITH t AS (
             SELECT list_prepend(CAST(i+1 AS BIGINT),
               [least(
                  row_i[j+1] + 1,
                  row_i[j] + (CASE WHEN a[i+1] = b[j]
                                    OR (a[i+1] || b[j]) IN ({in_list})
                              THEN 0 ELSE 1 END)
                ) for j in range(1, length(b)+1)]) AS tl
           )
           SELECT [list_min([tl[k] - (k-1) for k in range(1, p+1)]) + (p-1)
                   for p in range(1, length(b)+2)]
           FROM t),
          row_i
   FROM dp WHERE i < length(a)
 ),
 dpres AS (SELECT a, b, row_i[length(b)+1] AS d FROM dp WHERE i = length(a))
"""


def oracle_sql() -> dict[str, str]:
    # the er_pairs_corpus oracle reads the synthetic corpus parquet by
    # path; make sure it exists even if the oracle runs before any
    # corpus-generating query (generation is deterministic + cached)
    corpus_pages = os.path.join(_corpus_dir(0.001), "pages", "*.parquet")
    labeled_pairs = os.path.join(_corpus_dir(0.001), "labeled_pairs",
                                 "*.parquet")
    dict_parquet = _dict_parquet_path()
    vocab = (
        "SELECT DISTINCT t.tok FROM documents, "
        "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t(tok)"
    )
    sql = {
        "fuzzy_selfjoin_part": """
            WITH d AS (SELECT DISTINCT p_name FROM part)
            SELECT a.p_name AS val_a, b.p_name AS val_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS distance
            FROM d a JOIN d b ON a.p_name < b.p_name
            WHERE levenshtein(a.p_name, b.p_name) <= 2
        """,
        "fuzzy_selfjoin_customer": """
            WITH d AS (SELECT DISTINCT c_name FROM customer)
            SELECT a.c_name AS val_a, b.c_name AS val_b,
                   CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS distance
            FROM d a JOIN d b ON a.c_name < b.c_name
            WHERE levenshtein(a.c_name, b.c_name) <= 1
        """,
        "fuzzy_vocab_pairs": f"""
            WITH v AS ({vocab})
            SELECT a.tok AS val_a, b.tok AS val_b,
                   CAST(levenshtein(a.tok, b.tok) AS BIGINT) AS distance
            FROM v a JOIN v b ON a.tok < b.tok
            WHERE levenshtein(a.tok, b.tok) <= 2
        """,
        "fuzzy_lookup_parts": """
            WITH d AS (SELECT DISTINCT p_name FROM part)
            SELECT a.p_name AS query,
                   string_agg(DISTINCT CAST(b.p_partkey AS VARCHAR), ','
                              ORDER BY CAST(b.p_partkey AS VARCHAR)) AS values,
                   CAST(count(DISTINCT b.p_name) AS BIGINT) AS n_matches,
                   CAST(min(levenshtein(a.p_name, b.p_name)) AS BIGINT) AS min_distance
            FROM d a JOIN part b ON levenshtein(a.p_name, b.p_name) <= 1
            GROUP BY a.p_name
        """,
        "fuzzy_lookup_parts_filtered": """
            WITH d AS (SELECT DISTINCT p_name FROM part),
                 e AS (SELECT * FROM part WHERE p_partkey % 2 = 0)
            SELECT a.p_name AS query,
                   COALESCE(string_agg(DISTINCT CAST(b.p_partkey AS VARCHAR), ','
                            ORDER BY CAST(b.p_partkey AS VARCHAR)), '') AS values,
                   CAST(count(DISTINCT b.p_name) AS BIGINT) AS n_matches,
                   CAST(COALESCE(min(levenshtein(a.p_name, b.p_name)), -1) AS BIGINT) AS min_distance
            FROM d a LEFT JOIN e b ON levenshtein(a.p_name, b.p_name) <= 1
            GROUP BY a.p_name
        """,
        "fuzzy_lookup_parts_valueset": """
            WITH d AS (SELECT DISTINCT p_name FROM part),
                 e AS (SELECT * FROM part WHERE p_partkey < 32)
            SELECT a.p_name AS query,
                   COALESCE(string_agg(DISTINCT CAST(b.p_partkey AS VARCHAR), ','
                            ORDER BY CAST(b.p_partkey AS VARCHAR)), '') AS values,
                   CAST(count(DISTINCT b.p_name) AS BIGINT) AS n_matches,
                   CAST(COALESCE(min(levenshtein(a.p_name, b.p_name)), -1) AS BIGINT) AS min_distance
            FROM d a LEFT JOIN e b ON levenshtein(a.p_name, b.p_name) <= 1
            GROUP BY a.p_name
        """,
        "fuzzy_topk_part": """
            WITH d AS (SELECT DISTINCT p_name FROM part),
                 s AS (SELECT a.p_name AS query, b.p_name AS "match",
                              CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS distance
                       FROM d a JOIN d b ON a.p_name <> b.p_name
                       WHERE levenshtein(a.p_name, b.p_name) <= 2)
            SELECT query, "match", distance,
                   CAST(row_number() OVER (PARTITION BY query ORDER BY distance, "match") AS BIGINT) AS rank
            FROM s
            QUALIFY row_number() OVER (PARTITION BY query ORDER BY distance, "match") <= 3
        """,
        "fuzzy_join_vocab_partwords": f"""
            WITH v AS ({vocab}),
                 w AS (SELECT DISTINCT t.tok AS w FROM part,
                       unnest(regexp_extract_all(lower(p_name), '[a-z0-9]+')) AS t(tok))
            SELECT v.tok AS left_val, w.w AS right_val,
                   CAST(levenshtein(v.tok, w.w) AS BIGINT) AS distance
            FROM v JOIN w ON levenshtein(v.tok, w.w) <= 1
        """,
        "prefix_search_tokens": f"""
            WITH v AS ({vocab}),
                 p AS (SELECT DISTINCT substr(tok, 1, 3) AS pre FROM v WHERE length(tok) >= 3)
            SELECT p.pre AS prefix, v.tok AS term
            FROM p JOIN v ON v.tok LIKE p.pre || '%'
        """,
        "substring_positions_d0": """
            SELECT doc_id, CAST(r.j AS BIGINT) AS match_end,
                   CAST(0 AS BIGINT) AS distance
            FROM documents, unnest(range(8, length(text) + 1)) AS r(j)
            WHERE substr(text, CAST(r.j AS BIGINT) - 7, 8) = 'customer'
        """,
        "exact_dedup_part": """
            SELECT p.* FROM part p
            JOIN (SELECT p_name, min(p_partkey) AS mk FROM part GROUP BY p_name) m
              ON p.p_partkey = m.mk
        """,
        "ngram_jaccard_docs": """
            WITH t AS (SELECT doc_id,
                              regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                       FROM documents),
                 s AS (SELECT doc_id,
                              CASE WHEN len(toks) = 0 THEN []
                                   WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                                   ELSE list_distinct([array_to_string(toks[i:i+2], ' ')
                                                       FOR i IN range(1, len(toks) - 1)])
                              END AS sh
                       FROM t),
                 p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                              len(list_intersect(a.sh, b.sh)) AS c,
                              len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS u
                       FROM s a JOIN s b ON a.doc_id < b.doc_id)
            SELECT id_a, id_b,
                   CASE WHEN u = 0 THEN 1.0 ELSE c / u END AS jaccard
            FROM p WHERE (CASE WHEN u = 0 THEN 1.0 ELSE c / u END) >= 0.5
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.42
        """,
        "quality_docs": """
            WITH t AS (SELECT doc_id, text,
                              regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                       FROM documents)
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(len(toks) AS BIGINT) AS n_tokens,
                   CASE WHEN length(text) = 0 THEN 0.0
                        ELSE len(regexp_extract_all(text, '[^\\w\\s]')) / length(text)
                   END AS punct_ratio,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE len(list_filter(toks, x -> list_contains(
                          ['the','a','an','and','or','of','to','in','is','are','was',
                           'were','be','been','for','on','with','as','at','by','it',
                           'this','that','from','not','have','has','had','but','they',
                           'you','we','he','she','его','der','die','das','le','la',
                           'les','un','une','et','en','de','du','dans','est','sont'],
                          x))) / len(toks)
                   END AS stopword_ratio,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE CAST(list_sum(list_transform(toks, x -> length(x))) AS DOUBLE)
                             / len(toks)
                   END AS mean_token_len
            FROM t
        """,
        "scoped_completion": """
            WITH bt AS (SELECT p_brand AS scope, p_name AS term FROM part),
                 mt AS (SELECT 'Mfgr#' || substr(p_brand, 7, 1) AS scope, p_name AS term
                        FROM part WHERE p_size > 25),
                 tree AS (SELECT DISTINCT p_brand AS scope,
                                 'Mfgr#' || substr(p_brand, 7, 1) AS parent
                          FROM part),
                 vis AS (SELECT scope, term FROM bt
                         UNION ALL
                         SELECT tree.scope, mt.term FROM mt JOIN tree ON mt.scope = tree.parent
                         UNION ALL
                         SELECT scope, term FROM mt),
                 v AS (SELECT DISTINCT scope, term FROM vis),
                 p AS (SELECT DISTINCT scope, substr(term, 1, 4) AS prefix
                       FROM v WHERE length(term) >= 4)
            SELECT p.scope, p.prefix, v.term, CAST(0 AS BIGINT) AS distance
            FROM p JOIN v ON v.scope = p.scope AND v.term LIKE p.prefix || '%'
        """,
        "token_stats": """
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS BIGINT) AS n_distinct_tokens,
                   CAST(length(text) AS BIGINT) AS n_chars
            FROM documents
        """,
        "word_freq": """
            SELECT t.tok AS token, CAST(count(*) AS BIGINT) AS freq
            FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t(tok)
            GROUP BY t.tok HAVING count(*) >= 2
        """,
        # chunk_docs: same tokenization; chunk = floor(pos/32) within doc,
        # text joined in token order on both sides
        "chunk_docs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text),
                                               '[a-z0-9]+')) AS tok,
                     generate_subscripts(regexp_extract_all(lower(text),
                                                            '[a-z0-9]+'),
                                         1) AS pos
              FROM documents)
            SELECT doc_id,
                   CAST((pos - 1) // 32 AS BIGINT) AS chunk_id,
                   string_agg(tok, ' ' ORDER BY pos) AS text,
                   CAST(count(*) AS BIGINT) AS n_tokens
            FROM toks
            GROUP BY doc_id, (pos - 1) // 32
        """,
        # tfidf_docs: same tokenization as word_freq; idf = ln(N/df);
        # rank by (tfidf desc, token asc) per doc — ties on equal (tf, df)
        # resolve identically in both engines because the double
        # expression is identical
        "tfidf_docs": """
            WITH tf AS (SELECT doc_id, t.tok AS token,
                               CAST(count(*) AS BIGINT) AS tf
                        FROM documents,
                             unnest(regexp_extract_all(lower(text),
                                                       '[a-z0-9]+')) AS t(tok)
                        GROUP BY doc_id, t.tok),
                 dfr AS (SELECT token, CAST(count(*) AS BIGINT) AS df
                         FROM tf GROUP BY token),
                 n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
                 scored AS (SELECT tf.doc_id, tf.token, tf.tf, dfr.df,
                                   tf.tf * ln(n.n / dfr.df) AS tfidf
                            FROM tf JOIN dfr USING (token) CROSS JOIN n)
            SELECT doc_id, token, tf, df, tfidf,
                   CAST(row_number() OVER (
                       PARTITION BY doc_id
                       ORDER BY tfidf DESC, token) AS BIGINT) AS rank
            FROM scored
            QUALIFY rank <= 5
        """,
        # token_quantiles_docs: discrete/lower quantile — smallest v with
        # running count >= ceil(q*n); same tokenization as token_stats
        "token_quantiles_docs": """
            WITH t AS (SELECT CAST(len(regexp_extract_all(lower(text),
                                                          '[a-z0-9]+'))
                              AS BIGINT) AS v
                       FROM documents),
                 h AS (SELECT v, CAST(count(*) AS BIGINT) AS c
                       FROM t GROUP BY v),
                 n AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM h),
                 r AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM h),
                 qs(q) AS (VALUES (0.5), (0.9), (0.99))
            SELECT qs.q AS q,
                   CAST((SELECT min(r.v) FROM r, n
                         WHERE r.cum >= ceil(qs.q * n.n)) AS BIGINT) AS value
            FROM qs
        """,
        # pack_docs: token count = same tokenization as token_stats;
        # grp = md5_number_lower(CAST(doc_id AS VARCHAR)) % 16
        # (== stages.sampling._md5_hash64_batch(salt=None)); pack_id =
        # floor(sum of PRECEDING docs' tokens in id order / 256)
        "pack_docs": """
            WITH t AS (SELECT doc_id,
                              CAST(len(regexp_extract_all(lower(text),
                                                          '[a-z0-9]+'))
                                   AS BIGINT) AS n_tokens,
                              CAST(md5_number_lower(CAST(doc_id AS VARCHAR))
                                   % 16 AS BIGINT) AS grp
                       FROM documents)
            SELECT doc_id, grp,
                   CAST(coalesce(SUM(n_tokens) OVER (
                            PARTITION BY grp ORDER BY doc_id
                            ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING), 0) // 256
                        AS BIGINT) AS pack_id,
                   n_tokens
            FROM t
        """,
        # decontaminate_embeddings: corpus (vec_id % 20 != 0) minus rows
        # with cosine >= 0.42 to any bench vector (vec_id % 20 == 0).
        # isnan guard: a zero-norm vector's cosine is NaN in DuckDB
        # (dropped, NaN > any number) but 0 in the engine (kept) — map
        # NaN -> 0 so both sides agree on the keep rule.
        "decontaminate_embeddings": """
            SELECT c.vec_id
            FROM embeddings c
            WHERE c.vec_id % 20 <> 0
              AND NOT EXISTS (
                  SELECT 1 FROM embeddings b
                  WHERE b.vec_id % 20 = 0
                    AND (CASE WHEN isnan(list_cosine_similarity(
                                  CAST(c.embedding AS DOUBLE[]),
                                  CAST(b.embedding AS DOUBLE[])))
                              THEN 0.0
                              ELSE list_cosine_similarity(
                                  CAST(c.embedding AS DOUBLE[]),
                                  CAST(b.embedding AS DOUBLE[])) END) >= 0.42)
        """,
        # lm_ppl_docs: hashed-bigram LM (stages/lm.py semantics verbatim):
        # train = docs with doc_id % 20 == 0; u(w)=md5%4096,
        # g(v,w)=((md5(v)%2^20)*2^20 + md5(w)%2^20) % 65536 (arithmetic
        # combine so Python hashes distinct tokens only; products < 2^40
        # so DuckDB's non-wrapping UBIGINT math matches numpy exactly),
        # C_ctx over bigram contexts;
        # p1=(c1+1)/(T1+4096); p(w|v)=(c2+1.0*p1(w))/(cctx+1.0);
        # logp = ln p1(first) + sum ln p(w|prev); ppl=exp(-logp/max(n,1))
        "lm_ppl_docs": """
            WITH toks AS (SELECT doc_id,
                                 unnest(regexp_extract_all(lower(text),
                                                           '[a-z0-9]+')) AS tok,
                                 generate_subscripts(
                                     regexp_extract_all(lower(text),
                                                        '[a-z0-9]+'), 1) AS pos
                          FROM documents),
                 tt AS (SELECT doc_id, tok, pos,
                               lag(tok) OVER (PARTITION BY doc_id
                                              ORDER BY pos) AS prev
                        FROM toks),
                 tr AS (SELECT * FROM tt WHERE doc_id % 20 = 0),
                 c1 AS (SELECT CAST(md5_number_lower(tok) % 4096 AS BIGINT) AS b,
                               CAST(count(*) AS DOUBLE) AS n
                        FROM tr GROUP BY 1),
                 t1 AS (SELECT (SELECT coalesce(sum(n), 0) FROM c1) AS t),
                 c2 AS (SELECT CAST(((md5_number_lower(prev) % 1048576)
                                     * 1048576
                                     + md5_number_lower(tok) % 1048576)
                                    % 65536 AS BIGINT) AS b,
                               CAST(count(*) AS DOUBLE) AS n
                        FROM tr WHERE prev IS NOT NULL GROUP BY 1),
                 cc AS (SELECT CAST(md5_number_lower(prev) % 4096 AS BIGINT) AS b,
                               CAST(count(*) AS DOUBLE) AS n
                        FROM tr WHERE prev IS NOT NULL GROUP BY 1),
                 scored AS (SELECT tt.doc_id,
                                   (coalesce(u.n, 0) + 1.0) / (t1.t + 4096)
                                       AS p1,
                                   coalesce(bg.n, 0) AS nbg,
                                   coalesce(ctx.n, 0) AS nctx,
                                   tt.prev IS NULL AS is_first
                            FROM tt
                            CROSS JOIN t1
                            LEFT JOIN c1 u
                              ON u.b = CAST(md5_number_lower(tt.tok) % 4096
                                            AS BIGINT)
                            LEFT JOIN c2 bg
                              ON tt.prev IS NOT NULL
                             AND bg.b = CAST(
                                     ((md5_number_lower(tt.prev) % 1048576)
                                      * 1048576
                                      + md5_number_lower(tt.tok) % 1048576)
                                     % 65536 AS BIGINT)
                            LEFT JOIN cc ctx
                              ON tt.prev IS NOT NULL
                             AND ctx.b = CAST(md5_number_lower(tt.prev) % 4096
                                              AS BIGINT)),
                 w AS (SELECT doc_id,
                              CAST(count(*) AS BIGINT) AS n_tokens,
                              sum(CASE WHEN is_first THEN ln(p1)
                                  ELSE ln((nbg + 1.0 * p1) / (nctx + 1.0))
                                  END) AS logp
                       FROM scored GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(w.n_tokens, 0) AS n_tokens,
                   round(coalesce(w.logp, 0.0), 4) AS logp,
                   round(exp(-coalesce(w.logp, 0.0)
                             / greatest(coalesce(w.n_tokens, 0), 1)),
                         4) AS ppl
            FROM documents d LEFT JOIN w USING (doc_id)
        """,
        # dsir_weights_docs: same tokenization as word_freq; bucket =
        # md5_number_lower(token) % 4096 (== functions.simhash.md5_hash64
        # % 4096); target = docs with doc_id % 20 == 0; add-1 smoothing
        # over 4096 buckets on both histograms; zero-token docs keep
        # (n_feats=0, logw=0.0) via the LEFT JOIN
        "dsir_weights_docs": """
            WITH tok AS (SELECT doc_id, t.tok AS token
                         FROM documents,
                              unnest(regexp_extract_all(lower(text),
                                                        '[a-z0-9]+')) AS t(tok)),
                 b AS (SELECT doc_id,
                              CAST(md5_number_lower(token) % 4096 AS BIGINT) AS b
                       FROM tok),
                 tgt AS (SELECT b, CAST(count(*) AS DOUBLE) AS c
                         FROM b WHERE doc_id % 20 = 0 GROUP BY b),
                 raw AS (SELECT b, CAST(count(*) AS DOUBLE) AS c
                         FROM b GROUP BY b),
                 tot AS (SELECT (SELECT coalesce(sum(c), 0) FROM tgt) AS ts,
                                (SELECT coalesce(sum(c), 0) FROM raw) AS rs),
                 ratio AS (SELECT raw.b,
                                  ln(coalesce(tgt.c, 0) + 1.0)
                                  - ln(tot.ts + 1.0 * 4096)
                                  - ln(raw.c + 1.0)
                                  + ln(tot.rs + 1.0 * 4096) AS lr
                           FROM raw LEFT JOIN tgt USING (b) CROSS JOIN tot),
                 w AS (SELECT b.doc_id,
                              CAST(count(*) AS BIGINT) AS n_feats,
                              sum(ratio.lr) AS logw
                       FROM b JOIN ratio USING (b)
                       GROUP BY b.doc_id)
            SELECT d.doc_id,
                   coalesce(w.n_feats, 0) AS n_feats,
                   round(coalesce(w.logw, 0.0), 4) AS logw
            FROM documents d LEFT JOIN w USING (doc_id)
        """,
        # spelling corrector: best dictionary word per token — (distance
        # asc, freq desc, word asc), dictionary = the word_freq relation
        "spell_correct_vocab": """
            WITH w AS (SELECT DISTINCT t.w AS tok
                       FROM part,
                            unnest(regexp_extract_all(lower(p_name), '[a-z0-9]+')) AS t(w)),
                 d AS (SELECT t.tok AS word, CAST(count(*) AS BIGINT) AS freq
                       FROM documents,
                            unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t(tok)
                       GROUP BY t.tok HAVING count(*) >= 2),
                 cand AS (SELECT w.tok, d.word,
                                 levenshtein(w.tok, d.word) AS distance, d.freq
                          FROM w JOIN d
                            ON abs(length(w.tok) - length(d.word)) <= 2
                          WHERE levenshtein(w.tok, d.word) <= 2)
            SELECT tok, word AS correction,
                   CAST(distance AS BIGINT) AS distance, freq
            FROM cand
            QUALIFY row_number() OVER (PARTITION BY tok
                                       ORDER BY distance, freq DESC, word) = 1
        """,
        "lang_counts": "SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang",
        "minhash_neardup_docs_md5": _minhash_md5_oracle_sql(),
        "minhash_neardup_docs_md5_join": _minhash_md5_oracle_sql(),
        "simhash_pairs_docs_md5": _simhash_md5_oracle_sql(),
        "substring_positions_d1": _substring_d1_oracle_sql("custoner"),
        # best hit per doc = smallest distance then leftmost end over the
        # same d<=1 position set (best_substring_match tie-break)
        "substring_search_docs": f"""
            SELECT doc_id, distance, match_end
            FROM (SELECT doc_id, distance, match_end,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY distance, match_end) AS rn
                  FROM ({_substring_d1_oracle_sql("custoner")}))
            WHERE rn = 1
        """,
        "doc_fingerprints_md5": """
            SELECT doc_id,
                   md5_number_lower(text) AS content_hash,
                   CASE WHEN length(text) = 0 THEN ''
                        WHEN length(text) <= 32 THEN CAST(md5_number_lower(text) AS VARCHAR)
                        ELSE array_to_string(list_sort(list_distinct(
                               [md5_number_lower(substr(text, i, 32))
                                FOR i IN range(1, length(text) - 30, 4)]))[1:8], ',')
                   END AS winnow
            FROM documents
        """,
        "langid_docs": _langid_oracle_sql(),
        # the zompist orthography+phonetic normalizer as a regexp_replace
        # chain (per word, applied in rule order — sequential application
        # is order-sensitive, so the nesting mirrors functions/phonetic.py)
        "phonetic_part": """
            SELECT p_partkey, p_name,
                   array_to_string(list_transform(string_split(lower(p_name), ' '),
                     x -> regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                          regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                          regexp_replace(regexp_replace(x,
                            'ch', 'ç', 'g'), 'sh', chr(36), 'g'), 'ph', 'f', 'g'),
                            'c([ie])', 's\\1', 'g'), 'c', 'k', 'g'),
                            'g([ie])', 'j\\1', 'g'), 'e$', ''), 'gh', '', 'g'),
                            'th', 't', 'g'), 'qu', 'kw', 'g')), ' ') AS phonetic
            FROM part
        """,
        "fuzzy_selfjoin_part_universal": """
            WITH d AS (SELECT DISTINCT p_name FROM part)
            SELECT a.p_name AS val_a, b.p_name AS val_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS distance
            FROM d a JOIN d b ON a.p_name < b.p_name
            WHERE levenshtein(a.p_name, b.p_name) <= 2
        """,
        "sessions_user": """
            WITH d AS (SELECT user_id, ts,
                              CASE WHEN lag(ts) OVER w IS NULL
                                   OR ts - lag(ts) OVER w > INTERVAL 1800 SECOND
                                   THEN 1 ELSE 0 END AS brk
                       FROM events
                       WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
                 s AS (SELECT user_id, ts,
                              sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                             ROWS UNBOUNDED PRECEDING) AS sid
                       FROM d)
            SELECT user_id, CAST(sid AS BIGINT) AS session_id,
                   min(ts) AS session_start, max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM s GROUP BY user_id, sid
        """,
        "sliding_events": """
            WITH e AS (SELECT event_type AS grp,
                              epoch_us(ts) // 1000000 AS sec, value
                       FROM events),
                 x AS (SELECT grp, sec, value,
                              ((sec - k * 3600) // 3600) * 3600 AS window_start
                       FROM e CROSS JOIN (SELECT unnest(range(0, 2)) AS k)
                       WHERE sec >= ((sec - k * 3600) // 3600) * 3600
                         AND sec <  ((sec - k * 3600) // 3600) * 3600 + 7200)
            SELECT window_start, grp,
                   CAST(count(*) AS BIGINT) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM x GROUP BY window_start, grp
        """,
        "asof_click_error": """
            SELECT l.event_id, l.ts, l.user_id, l.value,
                   r.ts AS ts_right, r.value AS value_right
            FROM (SELECT * FROM events WHERE event_type = 'click') l
            ASOF JOIN (SELECT * FROM events WHERE event_type = 'error') r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        "ann_cosine_topk": """
            WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 5),
                 s AS (SELECT q.vec_id AS query_id, e.vec_id AS match_id,
                              list_cosine_similarity(q.embedding, e.embedding) AS sim
                       FROM q CROSS JOIN embeddings e)
            SELECT query_id, match_id,
                   CAST(row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, match_id) AS BIGINT) AS rank
            FROM s
            QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, match_id) <= 5
        """,
        # exact integer-cents accumulation, mirroring pipelines/
        # relational.py::q1_lineitem — float money sums are
        # associativity-dependent and flipped a round(·,2) boundary by
        # one cent between Ray's partial order and DuckDB's scan order
        "q1": """
            WITH l AS (SELECT l_returnflag, l_linestatus,
                              CAST(round(l_quantity) AS BIGINT) AS qty,
                              CAST(round(l_extendedprice * 100) AS BIGINT)
                                  AS epc,
                              CAST(round(l_discount * 100) AS BIGINT) AS d100,
                              CAST(round(l_tax * 100) AS BIGINT) AS t100
                       FROM lineitem
                       WHERE l_shipdate <= TIMESTAMP '1998-09-02')
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(qty) AS DOUBLE) AS sum_qty,
                   sum(epc) / 100.0 AS sum_base_price,
                   sum(epc * (100 - d100)) / 10000.0 AS sum_disc_price,
                   sum(epc * (100 - d100) * (100 + t100)) / 1000000.0
                       AS sum_charge,
                   sum(d100) / (100.0 * count(*)) AS avg_disc,
                   CAST(count(*) AS BIGINT) AS count_order
            FROM l
            GROUP BY l_returnflag, l_linestatus
        """,
        "revenue_by_segment": """
            SELECT c.c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   round(sum(o.o_totalprice), 2) AS total_price
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "events_hourly": """
            SELECT event_type,
                   CAST(floor(epoch_us(ts) / 3600000000) AS BIGINT) AS hour_bucket,
                   CAST(count(*) AS BIGINT) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM events
            GROUP BY 1, 2
        """,
        "er_pairs_corpus": f"""
            WITH pg AS (SELECT url, text, CAST(html AS VARCHAR) AS h
                        FROM read_parquet('{corpus_pages}')),
                 p AS (SELECT url,
                          regexp_extract(url, '^[a-zA-Z][a-zA-Z0-9+.-]*://([^/]*)', 1) AS host,
                          CASE WHEN text <> ''
                               THEN lower(trim(split_part(text, chr(10), 1),
                                               ' ' || chr(9) || chr(13) || chr(10)))
                               ELSE lower(trim(regexp_replace(
                                        coalesce(regexp_extract(h, '<title>(.*?)</title>', 1), ''),
                                        '\\s+', ' ', 'g'),
                                        ' ' || chr(9) || chr(13) || chr(10)))
                          END AS title
                       FROM pg),
                 t AS (SELECT url, host, title,
                          list_filter(string_split_regex(title, '\\s+'), x -> x <> '') AS toks
                       FROM p WHERE title <> ''),
                 samehost AS (
                   SELECT a.url AS url_a, b.url AS url_b,
                          levenshtein(a.title, b.title) AS d
                   FROM t a JOIN t b ON a.host = b.host AND a.url < b.url
                   WHERE abs(length(a.title) - length(b.title)) <= 2
                     AND levenshtein(a.title, b.title) <= 2
                     AND len(list_intersect(a.toks, b.toks)) > 0),
                 sametitle AS (
                   SELECT a.url AS url_a, b.url AS url_b, 0 AS d
                   FROM t a JOIN t b ON a.title = b.title AND a.url < b.url)
            SELECT url_a, url_b, CAST(min(d) AS BIGINT) AS distance
            FROM (SELECT * FROM samehost UNION ALL SELECT * FROM sametitle)
            GROUP BY url_a, url_b
        """,
        "er_pairs_allpairs": """
            WITH p AS (SELECT doc_id,
                              'https://h' || lpad(CAST(doc_id % 16 AS VARCHAR), 2, '0')
                                || '.example.com/d' || CAST(doc_id AS VARCHAR) AS url,
                              doc_id % 16 AS hostnum,
                              regexp_extract_all(lower(text), '[a-z0-9]+')[1:5] AS toks
                       FROM documents),
                 t AS (SELECT url, hostnum, toks,
                              array_to_string(toks, ' ') AS title
                       FROM p WHERE len(toks) > 0)
            SELECT a.url AS url_a, b.url AS url_b,
                   CAST(levenshtein(a.title, b.title) AS BIGINT) AS distance
            FROM t a JOIN t b ON a.url < b.url
            WHERE levenshtein(a.title, b.title) <= 2
              AND (a.title = b.title
                   OR (a.hostnum = b.hostnum
                       AND len(list_intersect(a.toks, b.toks)) > 0))
        """,
        "fuzzy_selfjoin_part_transposition_d1": """
            WITH d AS (SELECT DISTINCT p_name FROM part)
            SELECT a.p_name AS val_a, b.p_name AS val_b,
                   CAST(damerau_levenshtein(a.p_name, b.p_name) AS BIGINT) AS distance
            FROM d a JOIN d b ON a.p_name < b.p_name
            WHERE damerau_levenshtein(a.p_name, b.p_name) <= 1
        """,
        # merge-split d<=1: same length -> exactly one substitution; length
        # diff 1 -> some split point i where the prefixes match and the
        # longer string continues either one char later (deletion) or two
        # chars later (merge: L[i],L[i+1] -> S[i], target unconstrained)
        "fuzzy_selfjoin_part_merge_split_d1": """
            WITH d AS (SELECT DISTINCT p_name FROM part),
                 pr AS (SELECT a.p_name AS val_a, b.p_name AS val_b,
                               CASE WHEN length(a.p_name) >= length(b.p_name)
                                    THEN a.p_name ELSE b.p_name END AS lng,
                               CASE WHEN length(a.p_name) >= length(b.p_name)
                                    THEN b.p_name ELSE a.p_name END AS srt
                        FROM d a JOIN d b ON a.p_name < b.p_name
                        WHERE abs(length(a.p_name) - length(b.p_name)) <= 1)
            SELECT val_a, val_b, CAST(1 AS BIGINT) AS distance
            FROM pr
            WHERE (length(lng) = length(srt)
                   AND len(list_filter(range(1, length(lng) + 1),
                           i -> substr(lng, CAST(i AS INTEGER), 1) <>
                                substr(srt, CAST(i AS INTEGER), 1))) = 1)
               OR (length(lng) = length(srt) + 1
                   AND len(list_filter(range(0, length(srt) + 1),
                           i -> substr(lng, 1, CAST(i AS INTEGER)) =
                                substr(srt, 1, CAST(i AS INTEGER))
                            AND (substr(lng, CAST(i + 2 AS INTEGER)) =
                                     substr(srt, CAST(i + 1 AS INTEGER))
                                 OR (i < length(srt)
                                     AND substr(lng, CAST(i + 3 AS INTEGER)) =
                                         substr(srt, CAST(i + 2 AS INTEGER)))))) > 0)
        """,
        "fuzzy_vocab_pairs_subst_closed": f"""
            WITH v AS ({vocab}),
                 c AS (SELECT tok, translate(tok, 'eypz', 'aifs') AS canon FROM v)
            SELECT a.tok AS val_a, b.tok AS val_b,
                   CAST(levenshtein(a.canon, b.canon) AS BIGINT) AS distance
            FROM c a JOIN c b ON a.tok < b.tok
            WHERE levenshtein(a.canon, b.canon) <= 1
        """,
        # production representative-edge output: distance-0 stars to each
        # (block, title) group's min url + one scored edge per distinct
        # co-blocked title pair.  The per-(block, title) representative is
        # block-independent (same-title urls share every token/len-bucket
        # key), so min(url) per (host, title) [token blocks] and per title
        # [exact-title block] reproduce it exactly.
        "er_pairs_reps": """
            WITH p AS (SELECT doc_id,
                              'https://h' || lpad(CAST(doc_id % 16 AS VARCHAR), 2, '0')
                                || '.example.com/d' || CAST(doc_id AS VARCHAR) AS url,
                              doc_id % 16 AS hostnum,
                              regexp_extract_all(lower(text), '[a-z0-9]+')[1:5] AS toks
                       FROM documents),
                 t AS (SELECT url, hostnum, toks,
                              array_to_string(toks, ' ') AS title
                       FROM p WHERE len(toks) > 0),
                 hs AS (SELECT hostnum, title, toks, min(url) AS rep
                        FROM t GROUP BY hostnum, title, toks),
                 gs AS (SELECT title, min(url) AS rep FROM t GROUP BY title),
                 star_host AS (SELECT h.rep AS url_a, t.url AS url_b, 0 AS d
                               FROM t JOIN hs h
                                 ON t.hostnum = h.hostnum AND t.title = h.title
                               WHERE t.url <> h.rep),
                 star_exact AS (SELECT g.rep AS url_a, t.url AS url_b, 0 AS d
                                FROM t JOIN gs g ON t.title = g.title
                                WHERE t.url <> g.rep),
                 pairs AS (SELECT least(a.rep, b.rep) AS url_a,
                                  greatest(a.rep, b.rep) AS url_b,
                                  levenshtein(a.title, b.title) AS d
                           FROM hs a JOIN hs b
                             ON a.hostnum = b.hostnum AND a.title < b.title
                           WHERE levenshtein(a.title, b.title) <= 2
                             AND len(list_intersect(a.toks, b.toks)) > 0)
            SELECT url_a, url_b, CAST(min(d) AS BIGINT) AS distance
            FROM (SELECT * FROM star_host UNION ALL
                  SELECT * FROM star_exact UNION ALL
                  SELECT * FROM pairs)
            GROUP BY url_a, url_b
        """,
        "er_pairs_allpairs_transposition_d1": """
            WITH p AS (SELECT doc_id,
                              'https://h' || lpad(CAST(doc_id % 16 AS VARCHAR), 2, '0')
                                || '.example.com/d' || CAST(doc_id AS VARCHAR) AS url,
                              doc_id % 16 AS hostnum,
                              regexp_extract_all(lower(text), '[a-z0-9]+')[1:5] AS toks
                       FROM documents),
                 t AS (SELECT url, hostnum, toks,
                              array_to_string(toks, ' ') AS title
                       FROM p WHERE len(toks) > 0)
            SELECT a.url AS url_a, b.url AS url_b,
                   CAST(damerau_levenshtein(a.title, b.title) AS BIGINT) AS distance
            FROM t a JOIN t b ON a.url < b.url
            WHERE damerau_levenshtein(a.title, b.title) <= 1
              AND (a.title = b.title
                   OR (a.hostnum = b.hostnum
                       AND len(list_intersect(a.toks, b.toks)) > 0))
        """,
        "er_clusters_allpairs": """
            WITH RECURSIVE
                 p AS (SELECT doc_id,
                              'https://h' || lpad(CAST(doc_id % 16 AS VARCHAR), 2, '0')
                                || '.example.com/d' || CAST(doc_id AS VARCHAR) AS url,
                              doc_id % 16 AS hostnum,
                              regexp_extract_all(lower(text), '[a-z0-9]+')[1:5] AS toks
                       FROM documents),
                 t AS (SELECT url, hostnum, toks,
                              array_to_string(toks, ' ') AS title
                       FROM p WHERE len(toks) > 0),
                 e AS (SELECT a.url AS url_a, b.url AS url_b
                       FROM t a JOIN t b ON a.url < b.url
                       WHERE levenshtein(a.title, b.title) <= 2
                         AND (a.title = b.title
                              OR (a.hostnum = b.hostnum
                                  AND len(list_intersect(a.toks, b.toks)) > 0))),
                 edges AS (SELECT url_a AS src, url_b AS dst FROM e
                           UNION
                           SELECT url_b, url_a FROM e),
                 walk(node, lbl) AS (
                     SELECT src, src FROM edges
                     UNION
                     SELECT ed.dst, w.lbl FROM walk w JOIN edges ed ON ed.src = w.node
                 )
            SELECT node AS url, min(lbl) AS cluster_id
            FROM walk GROUP BY node
        """,
        "top_docs_by_tokens": """
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT) AS n_tokens
            FROM documents
            ORDER BY n_tokens DESC, doc_id
            LIMIT 10
        """,
    }
    # backend variants compute the SAME relation through a different
    # dictionary structure (ArrayTrie / MappedTrie / zipper) — identical
    # oracle by construction
    sql["fuzzy_selfjoin_part_arraytrie"] = sql["fuzzy_selfjoin_part"]
    _pii_text = (
        "coalesce(text, '') || ' contact u' || CAST(doc_id AS VARCHAR)"
        " || '@h' || CAST(doc_id % 16 AS VARCHAR) || '.example.com or 10.0.'"
        " || CAST(doc_id % 256 AS VARCHAR) || '.'"
        " || CAST((doc_id * 7) % 256 AS VARCHAR) || ' or +1-555-'"
        " || CAST(100 + doc_id % 900 AS VARCHAR) || '-'"
        " || CAST(1000 + doc_id % 9000 AS VARCHAR)"
    )
    sql["redact_docs"] = f"""
        SELECT doc_id,
               regexp_replace(
                 regexp_replace(
                   regexp_replace({_pii_text},
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}',
                     '<EMAIL>', 'g'),
                   '\\b\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\b',
                   '<IP>', 'g'),
                 '\\+?\\d{{1,3}}[-. ]\\d{{3}}[-. ]\\d{{3,4}}[-. ]\\d{{3,4}}\\b',
                 '<PHONE>', 'g') AS redacted
        FROM documents
    """
    sql["split_docs"] = """
        SELECT doc_id,
               CASE WHEN md5_number_lower('split:' || CAST(doc_id AS VARCHAR)) % 100 < 10
                    THEN 'val' ELSE 'train' END AS split
        FROM documents
    """
    # kmv_distinct_docs: same shingle construction as decontaminate_docs,
    # same md5 family, same bottom-k estimator arithmetic (255.0 * 2^64 is
    # exactly representable; both sides divide it by the k-th hash as
    # float64) — the sketch's approximate estimate matches bit-for-bit.
    sql["kmv_distinct_docs"] = """
        WITH t AS (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                   FROM documents),
             s AS (SELECT CASE WHEN len(toks) = 0 THEN []
                               WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                               ELSE [array_to_string(toks[i:i+2], ' ')
                                     FOR i IN range(1, len(toks) - 1)]
                          END AS sh
                   FROM t),
             hs AS (SELECT DISTINCT md5_number_lower(u.x) AS hv
                    FROM s, unnest(s.sh) AS u(x)),
             bk AS (SELECT hv FROM hs ORDER BY hv LIMIT 256)
        SELECT CAST(count(*) AS BIGINT) AS k_used,
               CAST(max(hv) AS DOUBLE) AS kth_hash,
               CASE WHEN count(*) < 256 THEN CAST(count(*) AS DOUBLE)
                    ELSE 255.0 * power(2.0, 64) / CAST(max(hv) AS DOUBLE)
               END AS est_distinct
        FROM bk
    """
    sql["band_join_click_error"] = """
        SELECT a.event_id AS err_id, b.event_id AS click_id,
               CAST(epoch_us(a.ts) - epoch_us(b.ts) AS BIGINT) AS dt_us
        FROM events a JOIN events b
          ON a.user_id = b.user_id
         AND a.event_type = 'error' AND b.event_type = 'click'
         AND abs(epoch_us(a.ts) - epoch_us(b.ts)) <= 86400000000
    """
    sql["rebalance_sources_docs"] = """
        SELECT doc_id, source FROM documents
        WHERE md5_number_lower('mix:' || CAST(doc_id AS VARCHAR)) % 1000000
              < CASE source
                  WHEN 'src0' THEN 1000000
                  WHEN 'src1' THEN  750000
                  WHEN 'src2' THEN  500000
                  WHEN 'src3' THEN  250000
                  WHEN 'src4' THEN  100000
                  ELSE 600000 END
    """
    sql["decontaminate_docs"] = """
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                   FROM documents),
             s AS (SELECT doc_id,
                          CASE WHEN len(toks) = 0 THEN []
                               WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                               ELSE [array_to_string(toks[i:i+2], ' ')
                                     FOR i IN range(1, len(toks) - 1)]
                          END AS sh
                   FROM t),
             bench AS (SELECT DISTINCT u.x FROM s, unnest(s.sh) AS u(x)
                       WHERE s.doc_id % 97 = 0),
             corp AS (SELECT doc_id, sh FROM s WHERE doc_id % 97 <> 0),
             dropped AS (SELECT DISTINCT c.doc_id
                         FROM corp c, unnest(c.sh) AS u(x)
                         WHERE u.x IN (SELECT x FROM bench))
        SELECT doc_id FROM corp
        WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
    """
    # contamination_frac_docs: per-doc distinct-shingle counts + overlap
    # with the bench shingle set — zero-shingle docs report 0/0/0.0
    sql["contamination_frac_docs"] = """
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
                   FROM documents),
             s AS (SELECT doc_id,
                          CASE WHEN len(toks) = 0 THEN []
                               WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                               ELSE [array_to_string(toks[i:i+2], ' ')
                                     FOR i IN range(1, len(toks) - 1)]
                          END AS sh
                   FROM t),
             bench AS (SELECT DISTINCT u.x FROM s, unnest(s.sh) AS u(x)
                       WHERE s.doc_id % 97 = 0),
             corp AS (SELECT doc_id, sh FROM s WHERE doc_id % 97 <> 0),
             ex AS (SELECT doc_id, u.x FROM corp, unnest(corp.sh) AS u(x)),
             d AS (SELECT doc_id,
                          count(DISTINCT x) AS n_sh,
                          count(DISTINCT CASE WHEN x IN (SELECT x FROM bench)
                                              THEN x END) AS n_hit
                   FROM ex GROUP BY doc_id)
        SELECT c.doc_id,
               CAST(coalesce(d.n_sh, 0) AS BIGINT) AS n_shingles,
               CAST(coalesce(d.n_hit, 0) AS BIGINT) AS n_contaminated,
               CAST(coalesce(d.n_hit, 0) AS DOUBLE)
                   / greatest(coalesce(d.n_sh, 0), 1) AS frac
        FROM corp c LEFT JOIN d ON d.doc_id = c.doc_id
    """
    sql["vocab_canonicalize"] = f"""
        WITH RECURSIVE v AS ({vocab}),
             e AS (SELECT a.tok AS ta, b.tok AS tb
                   FROM v a JOIN v b ON a.tok < b.tok
                   WHERE levenshtein(a.tok, b.tok) <= 1),
             edges AS (SELECT ta AS src, tb AS dst FROM e
                       UNION SELECT tb, ta FROM e
                       UNION SELECT tok, tok FROM v),
             walk(node, lbl) AS (
                 SELECT src, src FROM edges
                 UNION
                 SELECT ed.dst, w.lbl FROM walk w JOIN edges ed ON ed.src = w.node
             )
        SELECT node AS term, min(lbl) AS canon FROM walk GROUP BY node
    """
    # full-probe IVF (n_probe == n_clusters) is exact by construction —
    # identical relation to the brute-force baseline
    sql["ann_ivf_topk_full"] = sql["ann_cosine_topk"]
    sql["fuzzy_lookup_parts_pathmap"] = sql["fuzzy_lookup_parts"]
    # er_pairs_canonical: the ingest->dedup->ER composition restores the
    # exact clean corpus (canonical urls == clean urls, recrawls are true
    # duplicates), so its oracle IS the er_pairs_corpus oracle.
    sql["er_pairs_canonical"] = sql["er_pairs_corpus"]
    # er_clusters: the production run emits per-block rep edges, which
    # span exactly the all-pairs components — the cluster relation is
    # the er_pairs_corpus pair SQL closed transitively
    sql["er_clusters"] = f"""
        WITH RECURSIVE
             pairs AS (SELECT url_a, url_b
                       FROM ({sql["er_pairs_corpus"]}) q),
             edges AS (SELECT url_a AS src, url_b AS dst FROM pairs
                       UNION SELECT url_b, url_a FROM pairs),
             walk(node, lbl) AS (
                 SELECT src, src FROM edges
                 UNION
                 SELECT ed.dst, w.lbl
                 FROM walk w JOIN edges ed ON ed.src = w.node
             )
        SELECT node AS url, min(lbl) AS cluster_id
        FROM walk GROUP BY node
    """
    # er_f1: the ENTIRE flagship chain in one oracle — the er_pairs_corpus
    # pair SQL -> recursive-CTE transitive clusters -> pairwise
    # precision/recall/F1 vs the generator's labeled within-entity pairs.
    # Metric floats are divisions of identical integers on both engines,
    # so the driver's value hash covers the acceptance metric itself.
    sql["er_f1"] = f"""
        WITH RECURSIVE
             pairs AS (SELECT url_a, url_b
                       FROM ({sql["er_pairs_corpus"]}) q),
             edges AS (SELECT url_a AS src, url_b AS dst FROM pairs
                       UNION SELECT url_b, url_a FROM pairs),
             walk(node, lbl) AS (
                 SELECT src, src FROM edges
                 UNION
                 SELECT ed.dst, w.lbl
                 FROM walk w JOIN edges ed ON ed.src = w.node
             ),
             cl AS (SELECT node AS url, min(lbl) AS cluster_id
                    FROM walk GROUP BY node),
             pred AS (SELECT coalesce(CAST(sum(n * (n - 1) // 2) AS BIGINT),
                                      0) AS predicted_pairs
                      FROM (SELECT count(*) AS n FROM cl
                            GROUP BY cluster_id)),
             lab AS (SELECT DISTINCT url_a, url_b
                     FROM read_parquet('{labeled_pairs}')),
             tpt AS (SELECT CAST(count(*) AS BIGINT) AS tp
                     FROM lab l
                     JOIN cl a ON a.url = l.url_a
                     JOIN cl b ON b.url = l.url_b
                     WHERE a.cluster_id = b.cluster_id
                       AND l.url_a < l.url_b),
             tru AS (SELECT CAST(count(*) AS BIGINT) AS true_pairs FROM lab)
        SELECT CAST(tpt.tp AS DOUBLE) / pred.predicted_pairs AS precision,
               CAST(tpt.tp AS DOUBLE) / tru.true_pairs AS recall,
               2 * (CAST(tpt.tp AS DOUBLE) / pred.predicted_pairs)
                 * (CAST(tpt.tp AS DOUBLE) / tru.true_pairs)
                 / ((CAST(tpt.tp AS DOUBLE) / pred.predicted_pairs)
                    + (CAST(tpt.tp AS DOUBLE) / tru.true_pairs)) AS f1,
               pred.predicted_pairs, tru.true_pairs, tpt.tp
        FROM pred, tru, tpt
    """
    sql["prefix_search_tokens_zipper"] = sql["prefix_search_tokens"]
    sql["embedding_neardup_lsh"] = _embedding_lsh_oracle_sql()
    sql["embedding_neardup_lsh_join"] = sql["embedding_neardup_lsh"]
    sql["ann_lsh_topk"] = _ann_lsh_oracle_sql()
    sql["semdedup_embeddings"] = _semdedup_oracle_sql()
    sql["curate_docs"] = _curate_oracle_sql()
    # line_dedup groups by 64-bit blake2b line hash; the oracle groups by
    # the line string itself — identical absent collisions (deterministic
    # corpus, none at this scale)
    sql["line_dedup_pages"] = f"""
        WITH lines AS (
          SELECT url, unnest(string_split(text, chr(10))) AS line,
                 generate_subscripts(string_split(text, chr(10)), 1) AS pos
          FROM read_parquet('{corpus_pages}')),
        counts AS (SELECT line, count(*) AS df FROM lines GROUP BY line),
        tot AS (SELECT url, count(*) AS n_total FROM lines GROUP BY url),
        keep AS (SELECT l.url, l.pos, l.line
                 FROM lines l JOIN counts c ON l.line = c.line
                 WHERE c.df < 2)
        SELECT k.url AS url,
               string_agg(k.line, chr(10) ORDER BY k.pos) AS text,
               CAST(count(*) AS BIGINT) AS n_lines_kept,
               CAST(any_value(t.n_total) - count(*) AS BIGINT) AS n_lines_dropped
        FROM keep k JOIN tot t ON k.url = t.url
        GROUP BY k.url
    """
    # spelling_recall / corpus_recall_real: the deterministic generated
    # cases are persisted as parquet (same pure generators the queries
    # run — per-word seeding makes the sets order-independent) and DuckDB
    # recomputes recall with its builtin levenshtein(); an engine that
    # missed a within-distance match, or binned a case at the wrong true
    # distance, hash-mismatches.  Pinned to the driver's compare sf
    # (_ORACLE_SF_DIR), like the corpus-path oracles pin sf0.001.
    spelling_pairs = _spelling_pairs_parquet()
    sql["spelling_recall"] = f"""
        WITH p AS (SELECT DISTINCT original, misspelling
                   FROM read_parquet('{spelling_pairs}'))
        SELECT CAST(count(*) AS BIGINT) AS n_misspellings,
               CAST(count(*) FILTER (
                 WHERE levenshtein(misspelling, original) <= 2) AS BIGINT)
                 AS n_recovered,
               CAST(count(*) FILTER (
                 WHERE levenshtein(misspelling, original) <= 2) AS DOUBLE)
                 / count(*) AS recall
        FROM p
    """
    # levenshtein runs on the *_f shadow columns: non-ASCII codepoints
    # folded to single bytes at persist time, because DuckDB's builtin
    # counts bytes while the engine counts codepoints.
    sql["spell_correct_realdict"] = f"""
        WITH m AS (SELECT DISTINCT misspelling
                   FROM read_parquet('{spelling_pairs}')),
             cand AS (
               SELECT m.misspelling AS tok, d.word AS correction,
                      CAST(levenshtein(m.misspelling, d.word_f) AS BIGINT)
                        AS distance
               FROM m, read_parquet('{_dict_parquet_path()}') d
               WHERE levenshtein(m.misspelling, d.word_f) <= 2)
        SELECT tok, correction, distance, CAST(1 AS BIGINT) AS freq
        FROM cand
        QUALIFY row_number() OVER (
          PARTITION BY tok ORDER BY distance, correction) = 1
    """
    mitton_cases = _mitton_cases_parquet(sample=8000)
    sql["corpus_recall_real"] = f"""
        WITH c AS (SELECT correct, misspelling,
                          CAST(levenshtein(misspelling_f, correct_f)
                               AS BIGINT) AS distance
                   FROM read_parquet('{mitton_cases}'))
        SELECT distance,
               CAST(count(*) AS BIGINT) AS n_cases,
               CAST(count(*) AS BIGINT) AS n_found,
               CAST(count(*) AS DOUBLE) / count(*) AS recall
        FROM c WHERE distance <= 2
        GROUP BY distance
    """
    # bpe_token_stats_docs: same RE2 pattern on both engines (Arrow
    # count_substring_regex vs DuckDB regexp_extract_all length)
    from liblevenshtein_rust_ray.stages.textstats import BPE_TOKEN_RE
    _bpe_sql_pat = BPE_TOKEN_RE.replace("'", "''")
    sql["bpe_token_stats_docs"] = f"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(coalesce(text, ''),
                    '{_bpe_sql_pat}')) AS BIGINT) AS n_bpe_tokens,
               CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
        FROM documents
    """
    # model_score_docs: the frozen linear model's score is
    # ((bias + w1*n_tokens) + w2*(distinct/nt)) + w3*(sumlen/nt) with
    # float64 literals (scientific notation => DOUBLE in DuckDB, never
    # DECIMAL) in the same left-to-right order as the numpy forward pass
    # — bit-identical doubles on both sides.
    sql["model_score_docs"] = """
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(lower(coalesce(text, '')),
                                             '[a-z0-9]+') AS toks
                   FROM documents),
             f AS (SELECT doc_id,
                          len(toks) AS n_tokens,
                          len(list_distinct(toks)) AS n_distinct,
                          coalesce(list_sum(
                            list_transform(toks, x -> length(x))), 0)
                            AS sum_len
                   FROM t),
             s AS (SELECT doc_id,
                          -5e-1 + 1e-2 * n_tokens
                                + 2e0 * (n_distinct / greatest(n_tokens, 1))
                                + 1.25e-1 * (sum_len / greatest(n_tokens, 1))
                            AS model_score
                   FROM f)
        SELECT doc_id, model_score, model_score > 1e0 AS model_keep FROM s
    """
    # gopher_quality_docs replays stages/textstats.py gopher_stats_batch:
    # same \s+ tokenization with empties dropped, same integer counts, and
    # every ratio is an int64/int64 float64 division on both sides, so the
    # 6dp value hash matches bit-for-bit.  (Empty documents would emit a
    # zeros row in Ray and no row here; the documents table has none.)
    # substring_dedup_docs / dup_span_fraction_docs: Ray groups by a
    # polynomial combine of 64-bit blake2b token hashes; the oracle groups
    # by the shingle STRING itself — identical output absent collisions
    # (none on the deterministic corpus).  Spans are maximal runs of
    # duplicated 8-token windows, merged with gaps-and-islands; positions
    # are 0-based on the Ray side, 1-based in SQL (the -1 below).
    sql["substring_dedup_docs"] = """
        WITH d AS (SELECT doc_id, string_split(text, ' ') AS arr
                   FROM documents),
        pos AS (SELECT doc_id, arr,
                       unnest(range(1, greatest(len(arr) - 8 + 2, 1))) AS p
                FROM d),
        sh AS (SELECT doc_id, p,
                      array_to_string(arr[p : p + 7], ' ') AS shingle
               FROM pos),
        c AS (SELECT shingle FROM sh GROUP BY shingle HAVING count(*) >= 2),
        dup AS (SELECT s.doc_id, s.p FROM sh s JOIN c USING (shingle)),
        isl AS (SELECT doc_id, p,
                       p - row_number() OVER (PARTITION BY doc_id
                                              ORDER BY p) AS grp
                FROM dup)
        SELECT doc_id,
               CAST(min(p) - 1 AS BIGINT) AS span_start,
               CAST(max(p) - 1 + 8 AS BIGINT) AS span_end,
               CAST(max(p) - min(p) + 8 AS BIGINT) AS n_tokens
        FROM isl GROUP BY doc_id, grp
    """
    sql["dup_span_fraction_docs"] = """
        WITH d AS (SELECT doc_id, string_split(text, ' ') AS arr
                   FROM documents),
        tot AS (SELECT doc_id, greatest(len(arr) - 8 + 1, 0) AS n_windows
                FROM d),
        pos AS (SELECT doc_id, arr,
                       unnest(range(1, greatest(len(arr) - 8 + 2, 1))) AS p
                FROM d),
        sh AS (SELECT doc_id,
                      array_to_string(arr[p : p + 7], ' ') AS shingle
               FROM pos),
        c AS (SELECT shingle FROM sh GROUP BY shingle HAVING count(*) >= 2),
        dupc AS (SELECT doc_id, count(*) AS n_dup
                 FROM sh JOIN c USING (shingle) GROUP BY doc_id)
        SELECT t.doc_id,
               CAST(t.n_windows AS BIGINT) AS n_windows,
               CAST(coalesce(dc.n_dup, 0) AS BIGINT) AS n_dup_windows,
               CASE WHEN t.n_windows > 0
                    THEN CAST(coalesce(dc.n_dup, 0) AS DOUBLE) / t.n_windows
                    ELSE 0.0 END AS dup_fraction
        FROM tot t LEFT JOIN dupc dc USING (doc_id)
    """
    sql["gopher_quality_docs"] = """
        WITH arr AS (
          SELECT doc_id, regexp_split_to_array(text, '\\s+') AS a
          FROM documents),
        toks0 AS (
          SELECT doc_id, unnest(a) AS w, generate_subscripts(a, 1) AS pos
          FROM arr),
        toks AS (
          SELECT doc_id, w,
                 row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
          FROM toks0 WHERE w <> ''),
        base AS (
          SELECT doc_id, count(*) AS n_words,
                 count(DISTINCT w) AS n_unique_words,
                 sum(length(w)) AS sumlen
          FROM toks GROUP BY doc_id),
        wc AS (SELECT doc_id, w, count(*) AS c FROM toks GROUP BY doc_id, w),
        topw AS (SELECT doc_id, max(c) AS topc FROM wc GROUP BY doc_id),
        big AS (
          SELECT a.doc_id, a.w || ' ' || b.w AS bg
          FROM toks a JOIN toks b
            ON a.doc_id = b.doc_id AND b.rn = a.rn + 1),
        bcnt AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY doc_id, bg),
        btop AS (
          SELECT doc_id, max(c) AS topb,
                 sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS dupb
          FROM bcnt GROUP BY doc_id),
        stats AS (
          SELECT d.doc_id,
                 CAST(d.n_words AS BIGINT) AS n_words,
                 CAST(d.n_unique_words AS BIGINT) AS n_unique_words,
                 CAST(d.sumlen AS DOUBLE) / d.n_words AS mean_word_len,
                 CAST(t.topc AS DOUBLE) / d.n_words AS top_word_frac,
                 CASE WHEN d.n_words >= 2
                      THEN CAST(coalesce(b.topb, 0) AS DOUBLE) / (d.n_words - 1)
                      ELSE 0.0 END AS top_bigram_frac,
                 CASE WHEN d.n_words >= 2
                      THEN CAST(coalesce(b.dupb, 0) AS DOUBLE) / (d.n_words - 1)
                      ELSE 0.0 END AS dup_bigram_frac,
                 CAST(d.n_unique_words AS DOUBLE) / d.n_words AS uf
          FROM base d
          JOIN topw t ON d.doc_id = t.doc_id
          LEFT JOIN btop b ON d.doc_id = b.doc_id)
        SELECT doc_id, n_words, n_unique_words, mean_word_len,
               top_word_frac, top_bigram_frac, dup_bigram_frac,
               (n_words >= 40 AND mean_word_len >= 2.0
                AND mean_word_len <= 10.0 AND uf > 0.2
                AND top_bigram_frac < 0.08) AS keep
        FROM stats
    """
    sql["host_stats_corpus"] = f"""
        WITH p AS (SELECT regexp_extract(url,
                     '^[A-Za-z][A-Za-z0-9+.-]*://([^/]*)', 1) AS host,
                          length(text) AS chars
                   FROM read_parquet('{corpus_pages}'))
        SELECT host,
               CAST(count(*) AS BIGINT) AS n_pages,
               CAST(sum(chars) AS BIGINT) AS sum_chars,
               CAST(sum(chars) AS DOUBLE) / count(*) AS mean_chars,
               count(*) > 500 AS flag_mega
        FROM p GROUP BY host
    """
    # url_canonical_dedup replays stages/urls.py verbatim: same variant
    # synthesis (page_number%5 class, %3==0 recrawl a day later with the
    # next class), same RE2 rewrite chain in the same order, same
    # newest-ts/min-url tie-break.  Both engines run RE2, so the rewrites
    # are byte-identical.
    _url_prefix_re = "^[A-Za-z][A-Za-z0-9+.-]*://[^/]*"
    sql["url_canonical_dedup"] = f"""
        WITH base AS (
          SELECT url, CAST(epoch(warc_ts) AS BIGINT) AS ts,
                 CAST(regexp_extract(url, '/p(\\d+)$', 1) AS BIGINT) AS v
          FROM read_parquet('{corpus_pages}')),
        var AS (
          SELECT url, ts, v % 5 AS c FROM base
          UNION ALL
          SELECT url, ts + 86400, (v + 1) % 5 FROM base WHERE v % 3 = 0),
        messy AS (
          SELECT ts, CASE c
            WHEN 0 THEN url || '?utm_source=feed&utm_campaign=x#frag'
            WHEN 1 THEN url || '/'
            WHEN 2 THEN upper(regexp_extract(url, '{_url_prefix_re}'))
                        || substr(url, length(regexp_extract(url, '{_url_prefix_re}')) + 1)
            WHEN 3 THEN regexp_replace(url, '^(https://[^/:]+)', '\\1:443')
            ELSE url || '?gclid=ABC123' END AS crawl_url
          FROM var),
        generic AS (
          SELECT crawl_url, ts,
            regexp_replace(regexp_replace(regexp_replace(regexp_replace(
              regexp_replace(crawl_url,
                '#.*$', '', 'g'),
                '([?&])(utm_[a-z]+|gclid|fbclid)=[^&#]*', '\\1', 'g'),
                '&&+', '&', 'g'),
                '\\?&', '?', 'g'),
                '[?&]+$', '', 'g') AS g
          FROM messy),
        folded AS (
          SELECT crawl_url, ts,
            CASE WHEN regexp_extract(g, '{_url_prefix_re}') = '' THEN g
                 ELSE lower(regexp_extract(g, '{_url_prefix_re}'))
                      || substr(g, length(regexp_extract(g, '{_url_prefix_re}')) + 1)
            END AS h
          FROM generic),
        canon AS (
          SELECT crawl_url, ts,
            regexp_replace(regexp_replace(regexp_replace(h,
              '^(https://[^/:]+):443(/|$)', '\\1\\2', 'g'),
              '^(http://[^/:]+):80(/|$)', '\\1\\2', 'g'),
              '/$', '', 'g') AS canonical_url
          FROM folded)
        SELECT canonical_url, kept_url, kept_ts,
               CAST(n_snapshots AS BIGINT) AS n_snapshots
        FROM (
          SELECT canonical_url, crawl_url AS kept_url, ts AS kept_ts,
                 count(*) OVER (PARTITION BY canonical_url) AS n_snapshots,
                 row_number() OVER (PARTITION BY canonical_url
                                    ORDER BY ts DESC, crawl_url ASC) AS rn
          FROM canon)
        WHERE rn = 1
    """
    # incremental merge == from-scratch dedup (the combine is associative)
    sql["url_dedup_incremental"] = sql["url_canonical_dedup"]
    # deletion blocking is exact — same pair set as the length plan
    sql["fuzzy_vocab_pairs_deletion"] = sql["fuzzy_vocab_pairs"]
    sql["fuzzy_join_vocab_partwords_deletion"] = sql["fuzzy_join_vocab_partwords"]
    # bpe_merges_docs: the BPE training loop replayed round by round in
    # SQL.  v0 = marker-wrapped char sequences of the word-freq table;
    # each round k: explode symbols with position (e_k), count adjacent
    # pairs weighted by word freq (p_k), deterministic argmax (m_k),
    # apply the merge with plain replace on the marker encoding (v_k) —
    # exactly the engine's semantics (stages/bpetrain.py encoding note).
    sql["bpe_merges_docs"] = _bpe_oracle_sql(8)
    # neardup_canonical_docs: md5-LSH pairs -> recursive transitive
    # closure (er_clusters pattern) -> per-cluster token-count argmax ->
    # full-corpus left join (self for non-members)
    sql["neardup_canonical_docs"] = f"""
        WITH RECURSIVE
         prs AS (SELECT id_a, id_b FROM ({_minhash_md5_oracle_sql()}) q),
         edges AS (SELECT id_a AS src, id_b AS dst FROM prs
                   UNION SELECT id_b, id_a FROM prs),
         walk(node, lbl) AS (
             SELECT src, src FROM edges
             UNION
             SELECT ed.dst, w.lbl FROM walk w JOIN edges ed
             ON ed.src = w.node),
         comp AS (SELECT node, min(lbl) AS cl FROM walk GROUP BY node),
         tok AS (SELECT doc_id,
                        CAST(len(regexp_extract_all(lower(coalesce(text,
                             '')), '[a-z0-9]+')) AS BIGINT) AS n
                 FROM documents),
         rep AS (SELECT c.cl, c.node AS rep
                 FROM comp c JOIN tok t ON t.doc_id = c.node
                 QUALIFY row_number() OVER (PARTITION BY c.cl
                     ORDER BY t.n DESC, c.node ASC) = 1),
         mapped AS (SELECT c.node AS doc_id, r.rep AS canon_id
                    FROM comp c JOIN rep r ON r.cl = c.cl)
        SELECT d.doc_id,
               CAST(coalesce(m.canon_id, d.doc_id) AS BIGINT) AS canon_id
        FROM documents d LEFT JOIN mapped m ON m.doc_id = d.doc_id
    """
    # dict_roundtrip_parts: the serialize->detect->reload->iterate chain
    # must reproduce the mapped relation exactly
    sql["dict_roundtrip_parts"] = """
        SELECT p_name AS term, CAST(min(p_partkey) AS BIGINT) AS value
        FROM part GROUP BY p_name
    """
    sql["vocab_membership"] = f"""
        WITH v AS ({vocab})
        SELECT v.tok,
               v.tok IN (SELECT word FROM '{dict_parquet}') AS in_dict
        FROM v
    """

    # ---- recursive-CTE DP oracles (exact SQL for non-builtin metrics) ----
    # OSA/transposition at n=2: DL <= OSA always, and OSA == DL when DL <= 1
    # (a single edit can't interact with another), so only DL=2 candidates
    # need the exact OSA DP.
    sql["fuzzy_selfjoin_part_transposition"] = f"""
        WITH RECURSIVE
         d AS (SELECT DISTINCT p_name FROM part),
         base AS (SELECT a.p_name AS a, b.p_name AS b,
                         damerau_levenshtein(a.p_name, b.p_name) AS dl
                  FROM d a JOIN d b ON a.p_name < b.p_name
                  WHERE damerau_levenshtein(a.p_name, b.p_name) <= 2),
         hard AS (SELECT a, b FROM base WHERE dl = 2),
         {_OSA_DP_CTE}
        SELECT a AS val_a, b AS val_b, CAST(d AS BIGINT) AS distance FROM (
          SELECT a, b, dl AS d FROM base WHERE dl <= 1
          UNION ALL
          SELECT a, b, d FROM dpres WHERE d <= 2
        )
    """
    # merge-and-split at n=2: each merge/split covers at most 2 standard
    # edits and changes length by at most 1, so ms <= 2 implies
    # levenshtein <= 4 and |len diff| <= 2 — the candidate prefilter.
    sql["fuzzy_selfjoin_part_merge_split"] = f"""
        WITH RECURSIVE
         d AS (SELECT DISTINCT p_name FROM part),
         hard AS (SELECT a.p_name AS a, b.p_name AS b
                  FROM d a JOIN d b ON a.p_name < b.p_name
                  WHERE abs(length(a.p_name) - length(b.p_name)) <= 2
                    AND levenshtein(a.p_name, b.p_name) <= 4),
         {_MS_DP_CTE}
        SELECT a AS val_a, b AS val_b, CAST(d AS BIGINT) AS distance
        FROM dpres WHERE d <= 2
    """
    # the universal-automaton merge-split variant computes the SAME relation
    sql["fuzzy_selfjoin_part_ms_universal"] = sql["fuzzy_selfjoin_part_merge_split"]
    # OCR weighted ops (sub/merge/split 0.5, indel 1.0, budget 1.0): each
    # 0.5-op covers <= 2 standard edits -> levenshtein <= 4, |len diff| <= 2.
    from liblevenshtein_rust_ray.kernel.operations import OperationSet as _Ops

    sql["fuzzy_selfjoin_part_ocr"] = f"""
        WITH RECURSIVE
         d AS (SELECT DISTINCT p_name FROM part),
         hard AS (SELECT a.p_name AS a, b.p_name AS b
                  FROM d a JOIN d b ON a.p_name < b.p_name
                  WHERE abs(length(a.p_name) - length(b.p_name)) <= 2
                    AND levenshtein(a.p_name, b.p_name) <= 4),
         {_weighted_dp_cte(0.5, merge=0.5, split=0.5)}
        SELECT a AS val_a, b AS val_b, d AS weight
        FROM dpres WHERE d <= 1.0
    """
    # restricted rules at 0.25, budget 1.0 -> at most 4 rule applications,
    # each covering <= 2 standard edits -> levenshtein <= 8, |len diff| <= 4.
    sql["fuzzy_selfjoin_part_ocr_restricted"] = f"""
        WITH RECURSIVE
         d AS (SELECT DISTINCT p_name FROM part),
         hard AS (SELECT a.p_name AS a, b.p_name AS b
                  FROM d a JOIN d b ON a.p_name < b.p_name
                  WHERE abs(length(a.p_name) - length(b.p_name)) <= 4
                    AND levenshtein(a.p_name, b.p_name) <= 8),
         {_weighted_dp_cte(1.0, rules=_Ops.ocr_restricted().rules)}
        SELECT a AS val_a, b AS val_b, d AS weight
        FROM dpres WHERE d <= 1.0
    """
    # phonetic_english_basic preset (phonetic.rs:56-310), budget 0.45,
    # over part names + one deterministic phonetic respelling each
    # (first-occurrence ll->l then g->j; regexp_replace without the 'g'
    # flag = Python re.sub(count=1)): min rule weight 0.10 -> at most 4
    # applications, each covering <= 2 unit edits and shifting length by
    # <= 1 -> levenshtein <= 8, |len diff| <= 4 (same prefilter as
    # ocr_restricted).
    sql["fuzzy_selfjoin_part_phonetic_ops"] = f"""
        WITH RECURSIVE
         d0 AS (SELECT DISTINCT p_name FROM part),
         v AS (SELECT DISTINCT val FROM (
             SELECT p_name AS val FROM d0
             UNION
             SELECT regexp_replace(regexp_replace(p_name, 'll', 'l'),
                                   'g', 'j') FROM d0)),
         hard AS (SELECT a.val AS a, b.val AS b
                  FROM v a JOIN v b ON a.val < b.val
                  WHERE abs(length(a.val) - length(b.val)) <= 4
                    AND levenshtein(a.val, b.val) <= 8),
         {_weighted_dp_cte(1.0, rules=_Ops.phonetic_english_basic().rules)}
        SELECT a AS val_a, b AS val_b, d AS weight
        FROM dpres WHERE d <= 0.45
    """
    # restricted substitutions (phonetic_basic): subst-distance >= plain
    # levenshtein over class-canonicalized strings (transitive closure
    # classes {a,e} {i,y} {f,p} {c,k,s,z}) — a sound lower bound, so the
    # translate() prefilter keeps a superset of the answer.
    sql["fuzzy_vocab_pairs_subst"] = f"""
        WITH RECURSIVE
         v AS ({vocab}),
         c AS (SELECT tok, translate(tok, 'eypksz', 'aifccc') AS canon FROM v),
         hard AS (SELECT a.tok AS a, b.tok AS b
                  FROM c a JOIN c b ON a.tok < b.tok
                  WHERE levenshtein(a.canon, b.canon) <= 1),
         {_subst_lev_dp_cte()}
        SELECT a AS val_a, b AS val_b, CAST(d AS BIGINT) AS distance
        FROM dpres WHERE d <= 1
    """
    # the flagship ER chain under transposition at the PRODUCTION distance
    # n=2 (the d1 variant above is the damerau-builtin-checked row): same
    # blocking predicate, exact OSA via the DP on the DL=2 frontier.
    sql["er_pairs_allpairs_transposition"] = f"""
        WITH RECURSIVE
         p AS (SELECT doc_id,
                      'https://h' || lpad(CAST(doc_id % 16 AS VARCHAR), 2, '0')
                        || '.example.com/d' || CAST(doc_id AS VARCHAR) AS url,
                      doc_id % 16 AS hostnum,
                      regexp_extract_all(lower(text), '[a-z0-9]+')[1:5] AS toks
               FROM documents),
         t AS (SELECT url, hostnum, toks,
                      array_to_string(toks, ' ') AS title
               FROM p WHERE len(toks) > 0),
         base AS (SELECT a.url AS url_a, b.url AS url_b,
                         a.title AS a, b.title AS b,
                         damerau_levenshtein(a.title, b.title) AS dl
                  FROM t a JOIN t b ON a.url < b.url
                  WHERE damerau_levenshtein(a.title, b.title) <= 2
                    AND (a.title = b.title
                         OR (a.hostnum = b.hostnum
                             AND len(list_intersect(a.toks, b.toks)) > 0))),
         hard AS (SELECT DISTINCT a, b FROM base WHERE dl = 2),
         {_OSA_DP_CTE}
        SELECT url_a, url_b, CAST(d AS BIGINT) AS distance FROM (
          SELECT url_a, url_b, dl AS d FROM base WHERE dl <= 1
          UNION ALL
          SELECT base.url_a, base.url_b, dpres.d
          FROM base JOIN dpres ON base.a = dpres.a AND base.b = dpres.b
          WHERE base.dl = 2 AND dpres.d <= 2
        )
    """
    # --- the oracle-ized dynamic-dictionary trio (round-3 task 3) -------
    # incremental: all-pairs merge EQUALS from-scratch over ALL documents
    # (block keys of existing pages are unchanged by inserts), so the
    # er_pairs_allpairs oracle verbatim IS the equality check.
    sql["er_pairs_incremental"] = sql["er_pairs_allpairs"]
    # decremental: all-pairs merge EQUALS from-scratch over the REMAINING
    # pages — same relation with the removed doc_id%10==0 slice filtered
    # out of the p CTE (the query removes exactly those urls).
    sql["er_pairs_decremental"] = """
            WITH p AS (SELECT doc_id,
                              'https://h' || lpad(CAST(doc_id % 16 AS VARCHAR), 2, '0')
                                || '.example.com/d' || CAST(doc_id AS VARCHAR) AS url,
                              doc_id % 16 AS hostnum,
                              regexp_extract_all(lower(text), '[a-z0-9]+')[1:5] AS toks
                       FROM documents WHERE doc_id % 10 <> 0),
                 t AS (SELECT url, hostnum, toks,
                              array_to_string(toks, ' ') AS title
                       FROM p WHERE len(toks) > 0)
            SELECT a.url AS url_a, b.url AS url_b,
                   CAST(levenshtein(a.title, b.title) AS BIGINT) AS distance
            FROM t a JOIN t b ON a.url < b.url
            WHERE levenshtein(a.title, b.title) <= 2
              AND (a.title = b.title
                   OR (a.hostnum = b.hostnum
                       AND len(list_intersect(a.toks, b.toks)) > 0))
        """
    # transposition flagship over the REAL corpus parquet (html-extraction
    # path included): er_pairs_corpus' extraction/blocking CTEs composed
    # with the exact-OSA recursive-CTE DP on the DL<=2 frontier (DL <= OSA,
    # so the frontier is a superset; the DP filter d<=2 makes it exact).
    sql["er_pairs_transposition"] = f"""
        WITH RECURSIVE
         pg AS (SELECT url, text, CAST(html AS VARCHAR) AS h
                FROM read_parquet('{corpus_pages}')),
         p AS (SELECT url,
                  regexp_extract(url, '^[a-zA-Z][a-zA-Z0-9+.-]*://([^/]*)', 1) AS host,
                  CASE WHEN text <> ''
                       THEN lower(trim(split_part(text, chr(10), 1),
                                       ' ' || chr(9) || chr(13) || chr(10)))
                       ELSE lower(trim(regexp_replace(
                                coalesce(regexp_extract(h, '<title>(.*?)</title>', 1), ''),
                                '\\s+', ' ', 'g'),
                                ' ' || chr(9) || chr(13) || chr(10)))
                  END AS title
               FROM pg),
         t AS (SELECT url, host, title,
                  list_filter(string_split_regex(title, '\\s+'), x -> x <> '') AS toks
               FROM p WHERE title <> ''),
         samehost AS (
           SELECT a.url AS url_a, b.url AS url_b,
                  a.title AS ta, b.title AS tb,
                  damerau_levenshtein(a.title, b.title) AS dl
           FROM t a JOIN t b ON a.host = b.host AND a.url < b.url
           WHERE abs(length(a.title) - length(b.title)) <= 2
             AND damerau_levenshtein(a.title, b.title) <= 2
             AND len(list_intersect(a.toks, b.toks)) > 0),
         sametitle AS (
           SELECT a.url AS url_a, b.url AS url_b,
                  a.title AS ta, b.title AS tb, 0 AS dl
           FROM t a JOIN t b ON a.title = b.title AND a.url < b.url),
         allc AS (SELECT * FROM samehost UNION ALL SELECT * FROM sametitle),
         hard AS (SELECT DISTINCT ta AS a, tb AS b FROM allc WHERE dl = 2),
         {_OSA_DP_CTE}
        SELECT url_a, url_b, CAST(min(d) AS BIGINT) AS distance FROM (
          SELECT url_a, url_b, dl AS d FROM allc WHERE dl <= 1
          UNION ALL
          SELECT allc.url_a, allc.url_b, dpres.d
          FROM allc JOIN dpres ON allc.ta = dpres.a AND allc.tb = dpres.b
          WHERE allc.dl = 2 AND dpres.d <= 2
        )
        GROUP BY url_a, url_b
    """
    return sql
