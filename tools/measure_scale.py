#!/usr/bin/env python
"""Large-SF measurement protocol (the numbers in BASELINE.md's
"Larger-scale datapoint" sections).

Usage: python tools/measure_scale.py SF [--distributed] [--corpus-dir DIR]

Generates (or reuses) the deterministic synthetic corpus at
``/tmp/corpus_sf{SF}``, times er_pairs and clustering separately, and
prints one JSON line.  Corpus generation is excluded from the timings.
Clustering runs ``connected_components`` (which picks its own path), or
with ``--distributed`` its distributed path ``_distributed_cc`` directly.
"""

import argparse
import json
import os
import sys
import time

os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("sf", type=float)
    ap.add_argument("--distributed", action="store_true",
                    help="cluster with _distributed_cc directly")
    ap.add_argument("--corpus-dir", default=None)
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    corpus = args.corpus_dir or f"/tmp/corpus_sf{args.sf:g}"
    gen_s = None
    if not os.path.isdir(f"{corpus}/pages"):
        from liblevenshtein_rust_ray.sources.pages import write_corpus

        t0 = time.time()
        write_corpus(corpus, args.sf, shards=32)
        gen_s = round(time.time() - t0, 1)

    import ray

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    from liblevenshtein_rust_ray.pipelines.context import configure_data_context

    configure_data_context()
    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_pairs
    from liblevenshtein_rust_ray.stages.cluster import (
        _distributed_cc, connected_components)

    pages = rd.read_parquet(f"{corpus}/pages")
    n_pages = pages.count()
    t0 = time.time()
    pairs = er_pairs(pages).materialize()
    pairs_s = round(time.time() - t0, 1)
    n_pairs = pairs.count()

    cc_stats: dict = {}
    t0 = time.time()
    if args.distributed:
        clusters = _distributed_cc(pairs, max_rounds=30, stats=cc_stats)
    else:
        clusters = connected_components(pairs, stats=cc_stats)
    clusters = clusters.materialize()
    cc_s = round(time.time() - t0, 1)
    n_urls = clusters.count()
    ray.shutdown()

    print(json.dumps({
        "sf": args.sf, "num_cpus": args.num_cpus, "pages": n_pages,
        "corpus_gen_sec": gen_s, "pairs_sec": pairs_s,
        "candidate_pairs": n_pairs, "distributed": args.distributed,
        "cc_sec": cc_s, "clustered_urls": n_urls,
        "cc_stats": {k: v for k, v in cc_stats.items()},
        "pages_per_sec": round(n_pages / (pairs_s + cc_s), 1),
    }))


if __name__ == "__main__":
    main()
