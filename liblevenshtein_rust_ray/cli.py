"""CLI — the reference's command surface (query / convert / run) on Ray Data.

Mirrors /root/reference/src/cli/commands.rs: ``query`` loads a dictionary
(newline text or parquet term table — format auto-detected by extension,
detect.rs:52-261) and runs an ordered fuzzy query; ``convert`` round-trips
dictionaries between formats; ``run-er`` launches the flagship
entity-resolution pipeline (the ``ray job submit`` entry point: the driver
process runs this module, Ray Data distributes the stages).

    python -m liblevenshtein_rust_ray query --dict words.txt --term tset -n 2
    python -m liblevenshtein_rust_ray convert --input words.txt --output d.parquet
    python -m liblevenshtein_rust_ray run-er --input pages/ --output clusters/
"""

from __future__ import annotations

import argparse
import json
import sys


def _load_terms(path: str, fmt: str | None = None) -> list[str]:
    """Auto-detected dictionary load (magic bytes -> extension -> content,
    reference cli/detect.rs:52-261): parquet / json / text / gzip."""
    from .state.dictionary_io import read_terms

    return read_terms(path, fmt)


def cmd_query(args) -> int:
    from .kernel import build_dawg, build_trie
    from .kernel.query import ordered_query

    terms = _load_terms(args.dict)
    if args.backend == "dawg":
        d = build_dawg(terms, presorted=True)
    elif args.backend == "array_trie":
        from .kernel import build_array_trie

        d = build_array_trie(terms, presorted=True)
    else:
        d = build_trie(terms)
    results = []
    for cand in ordered_query(d, args.term, args.max_distance, args.algorithm,
                              prefix_mode=args.prefix):
        results.append({"term": cand.term, "distance": cand.distance})
        if args.limit and len(results) >= args.limit:
            break
    print(json.dumps(results))
    return 0


def cmd_convert(args) -> int:
    from .state.dictionary_io import write_terms

    terms = _load_terms(args.input)
    write_terms(terms, args.output)
    print(json.dumps({"terms": len(terms), "output": args.output}))
    return 0


def cmd_run_er(args) -> int:
    import os

    import ray

    # before ray.init: workers inherit the raylet env (THP-compaction guard,
    # see package __init__)
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    from .pipelines.context import configure_data_context
    from .pipelines.entity_resolution import er_pipeline
    from .state.checkpoint import CheckpointManager

    configure_data_context()
    ck = (
        CheckpointManager(args.checkpoint_dir)
        if args.checkpoint_dir
        else None
    )
    clusters = er_pipeline(
        args.input,
        out_dir=args.output,
        max_distance=args.max_distance,
        algorithm=args.algorithm,
        checkpoints=ck,
    )
    n = clusters.count()
    print(json.dumps({"clustered_urls": n, "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_curate(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .pipelines.curation import curate_documents

    configure_data_context()
    out = curate_documents(
        rd.read_parquet(args.input, columns=["doc_id", "text"]),
        min_tokens=args.min_tokens,
        max_punct=args.max_punct,
        lang=args.lang,
        threshold=args.threshold,
        hasher=args.hasher,
    )
    out.write_parquet(args.output)
    n = rd.read_parquet(args.output).count()
    print(json.dumps({"curated_docs": n, "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_ingest(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .stages.urls import url_snapshot_dedup

    configure_data_context()
    carry = tuple(c for c in args.carry.split(",") if c)
    cols = [args.url_col, args.ts_col, *carry]
    out = url_snapshot_dedup(
        rd.read_parquet(args.input, columns=cols),
        url_col=args.url_col,
        ts_col=args.ts_col,
        carry_cols=carry,
        input_blocks=args.input_blocks,
    )
    out.write_parquet(args.output)
    n = rd.read_parquet(args.output).count()
    print(json.dumps({"canonical_urls": n, "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_semdedup(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .stages.similarity import semdedup

    configure_data_context()
    out = semdedup(
        rd.read_parquet(args.input, columns=[args.id_col, args.vec_col]),
        vec_col=args.vec_col,
        id_col=args.id_col,
        n_clusters=args.n_clusters,
        threshold=args.threshold,
        anchors=args.anchors,
    )
    out.write_parquet(args.output)
    res = rd.read_parquet(args.output)
    n = res.count()
    kept = res.filter(expr="keep == True").count()
    print(json.dumps({"vectors": n, "kept": kept, "dropped": n - kept,
                      "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_dsir(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .stages.selection import HashSampleTarget, dsir_select

    configure_data_context()
    corpus = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    if args.target:
        target = rd.read_parquet(args.target, columns=[args.text_col])
    else:
        # self-sample spec -> fused single-pass histograms
        target = HashSampleTarget(pct=args.target_pct, salt="dsir")
    kept = dsir_select(
        corpus, target, logw_threshold=args.threshold,
        text_col=args.text_col, id_col=args.id_col,
        n_buckets=args.n_buckets,
    )
    kept.write_parquet(args.output)
    n_in = corpus.count()
    n_kept = rd.read_parquet(args.output).count()
    print(json.dumps({"docs": n_in, "kept": n_kept,
                      "dropped": n_in - n_kept, "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_lm(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .stages.lm import lm_filter
    from .stages.sampling import sample_by_hash

    configure_data_context()
    corpus = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    if args.train:
        train = rd.read_parquet(args.train, columns=[args.text_col])
    else:
        train = sample_by_hash(corpus, args.id_col,
                               pct=args.train_pct, salt="lm")
    kept = lm_filter(corpus, train, max_ppl=args.max_ppl,
                     text_col=args.text_col, id_col=args.id_col)
    kept.write_parquet(args.output)
    n_in = corpus.count()
    n_kept = rd.read_parquet(args.output).count()
    print(json.dumps({"docs": n_in, "kept": n_kept,
                      "dropped": n_in - n_kept, "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_pack(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .stages.textstats import pack_documents

    configure_data_context()
    corpus = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    out = pack_documents(corpus, text_col=args.text_col, id_col=args.id_col,
                         max_tokens=args.max_tokens, n_groups=args.n_groups)
    out.write_parquet(args.output)
    res = rd.read_parquet(args.output)
    n = res.count()
    n_bins = res.groupby(["grp", "pack_id"]).count().count()
    print(json.dumps({"docs": n, "bins": n_bins, "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def cmd_run_bpe(args) -> int:
    import os

    import ray

    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=args.address, include_dashboard=False,
                 logging_level="ERROR")
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from .pipelines.context import configure_data_context
    from .stages.bpetrain import bpe_learn_merges

    configure_data_context()
    corpus = rd.read_parquet(args.input, columns=[args.text_col])
    merges = bpe_learn_merges(corpus, text_col=args.text_col,
                              n_merges=args.n_merges, mode=args.mode,
                              candidate_k=args.candidate_k)
    pq.write_table(pa.Table.from_pandas(merges, preserve_index=False),
                   args.output, compression="zstd")
    print(json.dumps({"merges": len(merges), "output": args.output}))
    if owns_session:
        ray.shutdown()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="liblevenshtein_rust_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("query", help="fuzzy query a dictionary")
    q.add_argument("--dict", required=True)
    q.add_argument("--term", required=True)
    q.add_argument("-n", "--max-distance", type=int, default=2)
    q.add_argument("--algorithm", default="standard",
                   choices=["standard", "transposition", "merge_and_split"])
    q.add_argument("--backend", default="dawg",
                   choices=["dawg", "trie", "array_trie"])
    q.add_argument("--prefix", action="store_true")
    q.add_argument("--limit", type=int, default=0)
    q.set_defaults(fn=cmd_query)

    c = sub.add_parser("convert", help="convert dictionary formats")
    c.add_argument("--input", required=True)
    c.add_argument("--output", required=True)
    c.set_defaults(fn=cmd_convert)

    r = sub.add_parser("run-er", help="run the entity-resolution pipeline")
    r.add_argument("--input", required=True, help="pages parquet path/dir")
    r.add_argument("--output", required=True, help="clusters parquet dir")
    r.add_argument("-n", "--max-distance", type=int, default=2)
    r.add_argument("--algorithm", default="standard")
    r.add_argument("--checkpoint-dir", default="")
    r.add_argument("--address", default="local")
    r.set_defaults(fn=cmd_run_er)

    cu = sub.add_parser("run-curate",
                        help="run the document curation pipeline")
    cu.add_argument("--input", required=True,
                    help="documents parquet path/dir (doc_id, text)")
    cu.add_argument("--output", required=True, help="curated parquet dir")
    cu.add_argument("--min-tokens", type=int, default=10)
    cu.add_argument("--max-punct", type=float, default=0.2)
    cu.add_argument("--lang", default="en")
    cu.add_argument("--threshold", type=float, default=0.5)
    cu.add_argument("--hasher", default="blake2b",
                    choices=["blake2b", "md5"],
                    help="near-dup hash family (md5 = SQL-reproducible)")
    cu.add_argument("--address", default="local")
    cu.set_defaults(fn=cmd_run_curate)

    ig = sub.add_parser(
        "run-ingest",
        help="canonicalize crawl URLs + keep the newest snapshot per page")
    ig.add_argument("--input", required=True, help="pages parquet dir")
    ig.add_argument("--output", required=True)
    ig.add_argument("--url-col", default="url")
    ig.add_argument("--ts-col", default="warc_ts")
    ig.add_argument("--carry", default="text",
                    help="comma-separated columns to keep from the winning "
                         "snapshot ('' for none)")
    ig.add_argument("--input-blocks", type=int, default=None,
                    help="adjacent-merge the input to this many blocks "
                         "(~2x CPUs) when the source has many small files")
    ig.add_argument("--address", default="local")
    ig.set_defaults(fn=cmd_run_ingest)

    sd = sub.add_parser(
        "run-semdedup",
        help="semantic dedup over an embedding column (SemDeDup-style)")
    sd.add_argument("--input", required=True,
                    help="embeddings parquet path/dir")
    sd.add_argument("--output", required=True)
    sd.add_argument("--id-col", default="vec_id")
    sd.add_argument("--vec-col", default="embedding")
    sd.add_argument("--n-clusters", type=int, default=8,
                    help="size ~N/target_cluster_size (see docs/SCALE.md §11)")
    sd.add_argument("--threshold", type=float, default=0.42)
    sd.add_argument("--anchors", default="random",
                    choices=["random", "kmeans"],
                    help="random = SQL-reproducible partition; "
                         "kmeans = paper-style data-dependent anchors")
    sd.add_argument("--address", default="local")
    sd.set_defaults(fn=cmd_run_semdedup)

    dz = sub.add_parser(
        "run-dsir",
        help="DSIR importance-weighted selection against a target sample")
    dz.add_argument("--input", required=True,
                    help="documents parquet path/dir")
    dz.add_argument("--output", required=True)
    dz.add_argument("--target", default=None,
                    help="target-domain parquet (small side); default: a "
                         "deterministic md5 sample of the input itself")
    dz.add_argument("--target-pct", type=int, default=2,
                    help="target sample percent when --target is omitted")
    dz.add_argument("--id-col", default="doc_id")
    dz.add_argument("--text-col", default="text")
    dz.add_argument("--n-buckets", type=int, default=65536)
    dz.add_argument("--threshold", type=float, default=0.0,
                    help="keep docs with logw >= threshold")
    dz.add_argument("--address", default="local")
    dz.set_defaults(fn=cmd_run_dsir)

    lp = sub.add_parser(
        "run-lm",
        help="LM-perplexity quality filter (CCNet-style hashed bigram LM)")
    lp.add_argument("--input", required=True,
                    help="documents parquet path/dir")
    lp.add_argument("--output", required=True)
    lp.add_argument("--train", default=None,
                    help="clean-reference parquet (small side); default: a "
                         "deterministic md5 sample of the input itself")
    lp.add_argument("--train-pct", type=int, default=2)
    lp.add_argument("--id-col", default="doc_id")
    lp.add_argument("--text-col", default="text")
    lp.add_argument("--max-ppl", type=float, required=True,
                    help="keep docs with perplexity <= this")
    lp.add_argument("--address", default="local")
    lp.set_defaults(fn=cmd_run_lm)

    pk = sub.add_parser(
        "run-pack",
        help="sequence packing: whole docs into fixed-token-budget bins")
    pk.add_argument("--input", required=True)
    pk.add_argument("--output", required=True)
    pk.add_argument("--id-col", default="doc_id")
    pk.add_argument("--text-col", default="text")
    pk.add_argument("--max-tokens", type=int, default=1024)
    pk.add_argument("--n-groups", type=int, default=64)
    pk.add_argument("--address", default="local")
    pk.set_defaults(fn=cmd_run_pack)

    bp = sub.add_parser(
        "run-bpe",
        help="learn BPE tokenizer merges over a text column")
    bp.add_argument("--input", required=True)
    bp.add_argument("--output", required=True,
                    help="parquet of (merge_rank, lhs, rhs, pair_count)")
    bp.add_argument("--text-col", default="text")
    bp.add_argument("--n-merges", type=int, default=1024)
    bp.add_argument("--mode", default="auto",
                    choices=["auto", "driver", "distributed"])
    bp.add_argument("--candidate-k", type=int, default=256,
                    help="distributed mode: top-K candidate pairs pulled "
                         "per cluster launch (rounds batch per launch)")
    bp.add_argument("--address", default="local")
    bp.set_defaults(fn=cmd_run_bpe)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
