"""``er_web`` / ``er_dense``: the flagship entity-resolution job.

Measured (tracing off): ``er_pairs`` -> ``connected_components`` through the
Ray Data runtime, repeated until the run's seconds are used, each job's
edges and clusters checked against an in-process replay of the same stages.

Traced: one real ``er_pairs`` job for its wall time, then in-process replays
of the stage functions over the same parquet, with a span around each call:

1. ``extract_batch``
2. ``blocking_keys_batch``
3. ``score_bucket_vectorized_arrow`` once per bucket, rows split by
   ``block_key`` into the pipeline's bucket count
4. pyarrow min-dedup on ``(url_a, url_b)``
5. ``connected_components``

What the replay does not account for in the real job's wall time is the
exchange and runtime cost (``grouped.residual_s``).  The traced run then
times ``batch_distances`` on a sample of candidate pairs and an ``ArrayTrie``
built over the corpus's distinct titles.
"""

import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import corpus
from session import RaySession
from tracer import NullTracer, Tracer

SETUP_REPS = 3
SALT_CAP = 512                 # er_pairs' default max_block_strings
VECTOR_SAMPLE_PAIRS = 50_000
TRIE_QUERIES = 200
DP_CHECK_QUERIES = 3
MAX_DISTANCE = 2
WEB_F1_FLOOR = 0.99
# er_dense loses recall to salting (a 2-edit pair can miss both simhash
# views): F1 read 0.906-0.983 over 71 seeds when the benchmark was added.
# The gate means "no worse than then", with room for unseen seeds, not
# ">= 0.99"
DENSE_F1_FLOOR = 0.85


def default_buckets(n_pages: int) -> int:
    """The bucket count ``er_pairs`` picks by default for ``n_pages``."""
    return max(256, min(4096, n_pages // 1024))


def er_job(pages_dir: str):
    """One job: pages -> materialized edges -> materialized clusters.
    Returns ``(pairs, clusters, er_pairs wall seconds)``."""
    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_pairs
    from liblevenshtein_rust_ray.stages.cluster import connected_components

    t0 = time.perf_counter()
    pairs = er_pairs(pages_dir).materialize()
    pairs_s = time.perf_counter() - t0
    clusters = connected_components(pairs).materialize()
    return pairs, clusters, pairs_s


def to_table(ds, columns: list[str]) -> pa.Table:
    import ray

    tabs = [t.select(columns) for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tabs, promote_options="permissive")


def canonical_edges(t: pa.Table) -> pa.Table:
    t = t.select(["url_a", "url_b", "distance"]).cast(
        pa.schema([("url_a", pa.string()), ("url_b", pa.string()), ("distance", pa.int64())]))
    return t.sort_by([("url_a", "ascending"), ("url_b", "ascending")]).combine_chunks()


def canonical_clusters(t: pa.Table) -> pa.Table:
    """(url, cluster_id) -> (url, smallest url of its cluster), sorted by url."""
    t = pa.table({"url": t["url"].cast(pa.string()), "cid": t["cluster_id"]})
    rep = t.group_by("cid").aggregate([("url", "min")])
    out = t.join(rep, "cid").select(["url", "url_min"])
    return out.sort_by("url").combine_chunks()


def pairwise_f1(clusters: pa.Table, labels: pa.Table) -> dict:
    """Pairwise precision / recall / F1 of cluster co-membership against the
    generator's labeled within-entity pairs (unclustered pages are singletons)."""
    import pandas as pd

    cid = pd.Series(clusters["cluster_id"].to_numpy(zero_copy_only=False),
                    index=clusters["url"].to_numpy(zero_copy_only=False))
    sizes = cid.value_counts().to_numpy().astype(np.int64)
    predicted = int((sizes * (sizes - 1) // 2).sum())
    a = pd.Series(labels["url_a"].to_numpy(zero_copy_only=False)).map(cid)
    b = pd.Series(labels["url_b"].to_numpy(zero_copy_only=False)).map(cid)
    tp = int((a.notna() & (a == b)).sum())
    precision = tp / predicted if predicted else 1.0
    recall = tp / labels.num_rows if labels.num_rows else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def block_sizes(keys: pa.Table) -> np.ndarray:
    """Distinct titles per block key."""
    distinct = keys.group_by(["block_key", "key_string"]).aggregate([])
    per = distinct.group_by("block_key").aggregate([("key_string", "count")])
    return per["key_string_count"].to_numpy()


def split_buckets(keys: pa.Table, n_buckets: int) -> list[pa.Table]:
    """Rows -> per-bucket tables, hashing ``block_key`` as the pipeline's
    exchange does (pandas siphash of each distinct key, uint32, mod n)."""
    import pandas as pd

    d = pc.dictionary_encode(keys["block_key"].combine_chunks())
    h = pd.util.hash_pandas_object(d.dictionary.to_pandas(), index=False).to_numpy()
    bucket = (h.astype(np.uint32) % np.uint32(n_buckets))[d.indices.to_numpy()]
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(n_buckets + 1))
    sorted_keys = keys.take(pa.array(order))
    return [sorted_keys.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


def replay(pages: pa.Table, tracer) -> dict:
    """In-process pass of the pipeline's stage functions (see module doc)."""
    import ray.data as rd

    from liblevenshtein_rust_ray.stages.blocking import blocking_keys_batch
    from liblevenshtein_rust_ray.stages.cluster import connected_components
    from liblevenshtein_rust_ray.stages.extract import extract_batch
    from liblevenshtein_rust_ray.stages.scorer import score_bucket_vectorized_arrow

    with tracer.span("replay"):
        with tracer.span("extract"):
            extracted = extract_batch(pages)
        with tracer.span("blocking"):
            keys = blocking_keys_batch(extracted)
        buckets = split_buckets(keys, default_buckets(pages.num_rows))
        with tracer.span("scorer"):
            scored = [score_bucket_vectorized_arrow(b) for b in buckets if b.num_rows]
        raw = pa.concat_tables(scored)
        with tracer.span("dedup"):
            edges = raw.group_by(["url_a", "url_b"], use_threads=False).aggregate(
                [("distance", "min")]).rename_columns(["url_a", "url_b", "distance"])
        with tracer.span("cluster"):
            clusters = to_table(connected_components(rd.from_arrow(edges)).materialize(),
                                ["url", "cluster_id"])
    return {"keys": keys, "raw": raw, "edges": edges, "clusters": clusters,
            "n_buckets": len(buckets)}


def vectorized_sample(keys: pa.Table, seed: int) -> tuple[list, list]:
    """A fixed-size seeded sample of candidate title pairs, taken from the
    largest blocks down."""
    distinct = keys.group_by(["block_key", "key_string"]).aggregate([]).sort_by("block_key")
    bk = distinct["block_key"].to_numpy(zero_copy_only=False)
    strs = distinct["key_string"].to_pylist()
    starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
    sizes = np.diff(np.r_[starts, len(bk)])
    qs, ts = [], []
    for b in np.argsort(-sizes, kind="stable"):
        block = strs[starts[b]:starts[b] + sizes[b]]
        if len(block) < 2:
            break
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                qs.append(block[i])
                ts.append(block[j])
        if len(qs) >= 4 * VECTOR_SAMPLE_PAIRS:
            break
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(qs), size=min(VECTOR_SAMPLE_PAIRS, len(qs)), replace=False)
    return [qs[i] for i in pick], [ts[i] for i in pick]


def linear_scan(words: list[str], q: str) -> list[tuple[str, int]]:
    """Reference answer: the DP distance to every dictionary word."""
    from liblevenshtein_rust_ray.kernel.distance import standard_distance

    return sorted((w, d) for w in words
                  if abs(len(w) - len(q)) <= MAX_DISTANCE
                  and (d := standard_distance(q, w)) <= MAX_DISTANCE)


def arraytrie_layer(keys: pa.Table, seed: int, tracer):
    """The dictionary path over the corpus's distinct titles: an
    ``ArrayTrie`` of every title, queried at distance 2 with a seeded sample
    of them (each hit is a near-duplicate title, the query itself included).
    A few sampled answers are checked against a linear DP scan."""
    from liblevenshtein_rust_ray.kernel.arraytrie import ArrayTrie, batched_query

    titles = sorted(set(keys["key_string"].to_pylist()))
    with tracer.span("arraytrie.build"):
        t0 = time.perf_counter()
        trie = ArrayTrie.from_terms(titles, presorted=True)
        build_s = time.perf_counter() - t0
    rng = np.random.default_rng(seed)
    sample = [titles[i] for i in rng.choice(len(titles), TRIE_QUERIES, replace=False)]
    lat, hits = [], []
    for q in sample:
        with tracer.span("arraytrie.query"):
            t0 = time.perf_counter()
            out = batched_query(trie, q, MAX_DISTANCE)
            lat.append(time.perf_counter() - t0)
        hits.append(out)
    failures = [f"{q!r}: trie result differs from the linear DP scan"
                for q, out in zip(sample[:DP_CHECK_QUERIES], hits)
                if sorted(out) != linear_scan(titles, q)]
    m = {
        "arraytrie.build_s": build_s,
        "arraytrie.nodes": len(trie.edge_start) - 1,
        "arraytrie.query_ms": statistics.median(lat) * 1e3,
        "arraytrie.results_per_query": float(np.mean([len(h) for h in hits])),
        "arraytrie.empty_share": float(np.mean([len(h) == 1 for h in hits])),
    }
    return m, failures


def _gates(workload: str, jobs_out: list, ref: dict, labels: pa.Table):
    """Per-job edge/cluster equality with the replay, then the F1 gate."""
    ref_edges = canonical_edges(ref["edges"])
    ref_clusters = canonical_clusters(ref["clusters"])
    failures = []
    for i, (edges, clusters) in enumerate(jobs_out):
        if not canonical_edges(edges).equals(ref_edges):
            failures.append(f"job {i}: edge set differs from the replay "
                            f"({edges.num_rows} vs {ref_edges.num_rows} edges)")
        elif not canonical_clusters(clusters).equals(ref_clusters):
            failures.append(f"job {i}: clusters differ from the replay")
    f1 = pairwise_f1(ref["clusters"], labels)
    floor = WEB_F1_FLOOR if workload == "er_web" else DENSE_F1_FLOOR
    if f1["f1"] < floor:
        failures.append(f"er_f1 {f1['f1']:.4f} below the {floor} gate")
    return f1, failures, len(jobs_out) + 1


def _setup(workload: str, seed: int, in_dir: str, tracer):
    gen = []
    for _ in range(SETUP_REPS):
        with tracer.span("sources"):
            t0 = time.perf_counter()
            pages_dir, labels_dir = corpus.er_inputs(workload, in_dir, seed)
            gen.append(time.perf_counter() - t0)
    return pages_dir, labels_dir, pq.read_table(pages_dir), gen


def run(workload: str, seed: int, seconds: float, trace: bool, root: str):
    in_dir = os.path.join(root, ".bench_inputs", f"{workload}-seed{seed}")
    tracer = Tracer(f"{workload}-seed{seed}") if trace else NullTracer()
    pages_dir, labels_dir, pages, gen = _setup(workload, seed, in_dir, tracer)
    labels = pq.read_table(labels_dir)

    with RaySession(root) as session:
        # a warm-up job over one shard: the first job of a session pays for
        # worker start-up and imports, which a shard covers as well as the
        # whole corpus at an eighth of the cost
        with tracer.span("warmup"):
            t0 = time.perf_counter()
            er_job(os.path.join(pages_dir, corpus.FIRST_SHARD))
            warm_s = time.perf_counter() - t0
        setup_s = statistics.median(gen) + session.init_s + warm_s

        # jobs run back to back while the next one, at the median job time
        # so far, still ends inside the run's seconds.  Traced runs make one
        # real job (its er_pairs wall time is what the replay is reconciled
        # against) and spend their seconds on replays
        jobs, jobs_out = [], []
        t_start = time.perf_counter()
        while not jobs or (not trace and time.perf_counter() - t_start
                           + statistics.median(jobs) <= seconds):
            with tracer.span("er_job"):
                t0 = time.perf_counter()
                pairs, clusters, er_pairs_wall = er_job(pages_dir)
                jobs.append(time.perf_counter() - t0)
            jobs_out.append((to_table(pairs, ["url_a", "url_b", "distance"]),
                             to_table(clusters, ["url", "cluster_id"])))
            del pairs, clusters

        replays = []
        while not replays or (trace and time.perf_counter() - t_start
                              + statistics.median(replays) <= seconds):
            t0 = time.perf_counter()
            ref = replay(pages, tracer)
            replays.append(time.perf_counter() - t0)

    f1, failures, gate_ops = _gates(workload, jobs_out, ref, labels)
    sizes = block_sizes(ref["keys"])
    cand = int((sizes * (sizes - 1) // 2).sum())
    named = {
        "er_s": (statistics.median(jobs), "s"),
        "er_s_max": (max(jobs), "s"),
        "er_s_n": (len(jobs), "count"),
        "pages_per_s": (pages.num_rows / statistics.median(jobs), "1/s"),
        "er_f1": (f1["f1"], "ratio"),
        "er_precision": (f1["precision"], "ratio"),
        "er_recall": (f1["recall"], "ratio"),
    }
    fingerprint = {"pages": pages.num_rows, "key_rows": ref["keys"].num_rows,
                   "candidate_pairs": cand, "edges": ref["edges"].num_rows}
    out = {
        "setup_s": setup_s,
        "setup": {"gen_s": gen, "ray_init_s": session.init_s, "warmup_s": warm_s},
        "samples": {"op_s": jobs,
                    "quartiles_s": statistics.quantiles(jobs, n=4) if len(jobs) > 1 else jobs * 3},
        "named": named,
        "fingerprint": fingerprint,
        "attempted": gate_ops,
        "failures": failures,
        "e2e": {
            "op_p50_ms": statistics.median(jobs) * 1e3,
            "quality": f1["f1"],
        },
    }
    if trace:
        layers, accounting = _layers(tracer, ref, sizes, cand, pages, gen, in_dir,
                                     er_pairs_wall, seed)
        trie_layer, trie_failures = arraytrie_layer(ref["keys"], seed, tracer)
        failures += trie_failures
        out["attempted"] += DP_CHECK_QUERIES
        out["layers"] = (dict(layers, **trie_layer), accounting)
        out["tracer"] = tracer
    return out


def _layers(tracer: Tracer, ref, sizes, cand, pages, gen, in_dir, er_pairs_wall, seed):
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    med = {name: statistics.median(tracer.durations(name))
           for name in ("extract", "blocking", "scorer", "dedup", "cluster")}
    stage_busy = med["extract"] + med["blocking"] + med["scorer"] + med["dedup"]
    residual = er_pairs_wall - stage_busy

    qs, ts = vectorized_sample(ref["keys"], seed)
    vec = []
    for _ in range(3):
        with tracer.span("vectorized"):
            t0 = time.perf_counter()
            batch_distances(qs, ts, 2)
            vec.append(time.perf_counter() - t0)

    keys, raw, edges, clusters = ref["keys"], ref["raw"], ref["edges"], ref["clusters"]
    pages_dir_bytes = sum(e.stat().st_size for e in os.scandir(os.path.join(in_dir, "pages")))
    m = {
        "sources.gen_s": statistics.median(gen),
        "sources.pages": pages.num_rows,
        "sources.bytes": pages_dir_bytes,
        "extract.busy_s": med["extract"],
        "extract.rows": pages.num_rows,
        "extract.html_rows": int(pc.sum(pc.equal(pc.coalesce(pages["text"], ""), "")).as_py()),
        "blocking.busy_s": med["blocking"],
        "blocking.key_rows": keys.num_rows,
        "blocking.keys_per_page": keys.num_rows / pages.num_rows,
        "grouped.residual_s": residual,
        "grouped.share": residual / er_pairs_wall,
        "grouped.rows": keys.num_rows + raw.num_rows,
        "grouped.bytes": keys.nbytes + raw.nbytes,
        "grouped.buckets": ref["n_buckets"],
        "scorer.busy_s": med["scorer"],
        "scorer.blocks": int((sizes >= 2).sum()),
        "scorer.max_block": int(sizes.max()),
        "scorer.salted_blocks": int((sizes > SALT_CAP).sum()),
        "scorer.candidate_pairs": cand,
        "scorer.edges": raw.num_rows,
        "scorer.yield": raw.num_rows / cand if cand else 0.0,
        "vectorized.ns_per_pair": statistics.median(vec) / max(1, len(qs)) * 1e9,
        "vectorized.pairs": len(qs),
        "dedup.busy_s": med["dedup"],
        "dedup.rows_in": raw.num_rows,
        "dedup.rows_out": edges.num_rows,
        "cluster.busy_s": med["cluster"],
        "cluster.edges": edges.num_rows,
        "cluster.nodes": clusters.num_rows,
        "cluster.clusters": pc.count_distinct(clusters["cluster_id"]).as_py(),
    }
    accounted = {"er_pairs_wall_s": er_pairs_wall, "stage_busy_s": stage_busy,
                 "residual_s": residual}
    return m, accounted
