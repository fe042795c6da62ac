"""End-to-end entity resolution: synthetic page corpus -> clusters,
pairwise F1 >= 0.99 (BASELINE.md targets); determinism; checkpoint resume."""

import os

import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

from liblevenshtein_rust_ray.sources.pages import generate_pages, write_corpus
from liblevenshtein_rust_ray.pipelines.entity_resolution import (
    er_clusters,
    er_pairs,
    evaluate_f1,
)
from liblevenshtein_rust_ray.state.checkpoint import CheckpointManager


@pytest.fixture(scope="module")
def corpus():
    pages, labeled = generate_pages(50, seed=42)
    return pages, labeled


@pytest.mark.usefixtures("ray_session")
def test_er_f1(corpus):
    import ray.data as rd

    pages, labeled = corpus
    clusters = er_clusters(rd.from_arrow(pages)).to_pandas()
    m = evaluate_f1(clusters, labeled.to_pandas())
    assert m["precision"] >= 0.99, m
    assert m["recall"] >= 0.99, m
    assert m["f1"] >= 0.99, m
    assert m == _evaluate_f1_pair_loop(clusters, labeled.to_pandas())


def _evaluate_f1_pair_loop(clusters, labeled_pairs) -> dict:
    """The pandas-groupby, per-cluster pair-loop ``evaluate_f1`` that the
    Arrow one replaced: the oracle for NUL-free inputs with distinct urls."""
    pred = set()
    for _cid, g in clusters.groupby("cluster_id"):
        urls = sorted(g["url"])
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                pred.add((urls[i], urls[j]))
    truth = set(zip(labeled_pairs["url_a"], labeled_pairs["url_b"]))
    tp = len(pred & truth)
    precision = tp / len(pred) if pred else 1.0
    recall = tp / len(truth) if truth else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1,
            "predicted_pairs": len(pred), "true_pairs": len(truth), "tp": tp}


def test_evaluate_f1_equals_pair_loop_on_imperfect_clusters(corpus):
    """Clusters that cut across entities (runs of 3 urls in url order,
    plus a url no label names), labels in both orientations, repeated and
    missing from the clusters: every key equals the pair-loop oracle's."""
    import pandas as pd

    pages, labeled = corpus
    urls = sorted(pages["url"].to_pylist()) + ["http://unlabeled.example/"]
    clusters = pd.DataFrame({"url": urls,
                             "cluster_id": [urls[i - i % 3] for i in range(len(urls))]})
    lab = labeled.to_pandas()[["url_a", "url_b"]]
    flipped = lab.rename(columns={"url_a": "url_b", "url_b": "url_a"})
    extra = pd.DataFrame({"url_a": ["http://a.example/", urls[0]], "url_b": [urls[1], urls[1]]})
    lab = pd.concat([lab, flipped.head(20), lab.head(5), extra], ignore_index=True)
    m = evaluate_f1(clusters, lab)
    assert m == _evaluate_f1_pair_loop(clusters, lab)
    assert 0 < m["tp"] < m["predicted_pairs"] and m["tp"] < m["true_pairs"]


def test_evaluate_f1_keeps_cluster_ids_apart_after_a_nul():
    """Cluster ids (and urls) that differ only after a NUL are different
    clusters: pandas' object-string groupby stopped at the NUL and merged
    them into one cluster of 4 (f1 0.5, 6 predicted pairs)."""
    import pandas as pd

    for sep in ("\x00", "\x01"):
        x, y = f"a{sep}x", f"a{sep}y"
        clusters = pd.DataFrame({"url": [x, "b", y, "c"], "cluster_id": [x, x, y, y]})
        labeled = pd.DataFrame({"url_a": [x, y], "url_b": ["b", "c"]})
        m = evaluate_f1(clusters, labeled)
        assert (m["f1"], m["predicted_pairs"], m["tp"], m["true_pairs"]) == (1.0, 2, 2, 2), sep


@pytest.mark.usefixtures("ray_session")
def test_er_deterministic_across_runs(corpus):
    import ray.data as rd

    pages, _ = corpus
    a = (
        er_clusters(rd.from_arrow(pages))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        er_clusters(rd.from_arrow(pages).repartition(7))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume(tmp_path, corpus):
    import ray.data as rd

    pages, _ = corpus
    run_dir = str(tmp_path / "run")

    ck = CheckpointManager(run_dir)
    first = er_clusters(rd.from_arrow(pages), checkpoints=ck, fingerprint="t1")
    first_df = first.to_pandas().sort_values("url").reset_index(drop=True)

    assert os.path.exists(os.path.join(run_dir, "pairs.manifest.json"))
    assert os.path.exists(os.path.join(run_dir, "clusters.manifest.json"))
    # the clusters manifest records which CC path ran and what it counted
    cc_counters = ck.manifest("clusters")["counters"]
    assert cc_counters["path"] == "driver"
    assert cc_counters["edges"] == ck.manifest("pairs")["rows"]
    assert cc_counters["nodes"] == len(first_df)
    assert cc_counters["clusters"] == first_df["cluster_id"].nunique() > 0
    # ... and which er_pairs plan ran, with its row counts
    pairs_counters = ck.manifest("pairs")["counters"]
    assert pairs_counters["plan"] == "local"
    assert pairs_counters["pages"] == pages.num_rows
    assert pairs_counters["edges"] == ck.manifest("pairs")["rows"] > 0

    # resume: a fresh manager with the same fingerprint must reuse the
    # checkpoints (byte-identical outputs, no recompute)
    ck2 = CheckpointManager(run_dir)
    assert ck2.is_complete("pairs", ck2.manifest("pairs")["input_fingerprint"])
    second = er_clusters(rd.from_arrow(pages), checkpoints=ck2, fingerprint="t1")
    second_df = second.to_pandas().sort_values("url").reset_index(drop=True)
    assert first_df.equals(second_df)

    # changed fingerprint (e.g. new extractor version) invalidates the stage
    assert not ck2.is_complete("pairs", "different-fingerprint")


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_distances_sound(corpus):
    """Every emitted pair's distance equals the DP distance of the two
    titles (spot-check of the automaton inside the distributed stage)."""
    import ray.data as rd

    from liblevenshtein_rust_ray.kernel import standard_distance
    from liblevenshtein_rust_ray.stages.extract import _canonical_text, _title_of

    pages, _ = corpus
    titles = {
        u: _title_of(_canonical_text(t, h))
        for u, t, h in zip(
            pages.column("url").to_pylist(),
            pages.column("text").to_pylist(),
            pages.column("html").to_pylist(),
        )
    }
    pairs = er_pairs(rd.from_arrow(pages)).to_pandas()
    assert len(pairs) > 0
    for a, b, d in zip(pairs["url_a"], pairs["url_b"], pairs["distance"]):
        assert a < b
        assert standard_distance(titles[a], titles[b]) == d


def test_write_corpus_layout(tmp_path):
    pages_dir, pairs_dir = write_corpus(str(tmp_path), sf=0.0001, shards=4)
    import pyarrow.parquet as pq
    import glob

    files = sorted(glob.glob(f"{pages_dir}/*.parquet"))
    assert len(files) >= 2  # partitioned output, not one giant file
    total = sum(pq.read_table(f).num_rows for f in files)
    from liblevenshtein_rust_ray.sources.pages import generate_corpus

    pages, _ = generate_corpus(0.0001, seed=42)
    assert total == pages.num_rows


def test_parallel_corpus_identical():
    """Chunk-parallel generation is byte-identical to the serial pass
    (entities are independently seeded; warc_ts is global row order)."""
    from liblevenshtein_rust_ray.sources.pages import generate_corpus

    sp, sl = generate_corpus(0.002, seed=42, workers=1)
    pp, pl = generate_corpus(0.002, seed=42, workers=5)
    assert sp.schema.equals(pp.schema)
    assert sp.equals(pp)
    assert sl.equals(pl)


def test_er_pairs_incremental_equals_full(corpus):
    """Appending pages and re-scoring only affected blocks: the merged edge
    set is a superset of the from-scratch run (extras are stale-
    representative aliases) with IDENTICAL connected components
    (dynamic-dictionary capability, SURVEY.md §2.2)."""
    from liblevenshtein_rust_ray.stages.cluster import connected_components
    from liblevenshtein_rust_ray.pipelines.entity_resolution import (
        er_pairs,
        er_pairs_incremental,
    )

    tab, _labeled = corpus
    n = tab.num_rows
    old_t, new_t = tab.slice(0, int(n * 0.9)), tab.slice(int(n * 0.9))

    full = er_pairs(tab).materialize()
    base = er_pairs(old_t)
    inc = er_pairs_incremental(old_t, new_t, base_pairs=base).materialize()

    key = lambda df: set(map(tuple, df[["url_a", "url_b", "distance"]].values.tolist()))
    assert key(full.to_pandas()) <= key(inc.to_pandas())
    ci = connected_components(inc).to_pandas().sort_values("url").reset_index(drop=True)
    cf = connected_components(full).to_pandas().sort_values("url").reset_index(drop=True)
    assert ci.equals(cf)


def _dp_scan_edges(pages, max_distance=2, all_pairs=False):
    """The engine's edge semantics, by brute force: in each block, every
    url stars (distance 0) to the smallest url sharing its title, and the
    smallest urls of two titles within ``max_distance`` (pure-Python DP,
    run with the titles' common prefix and suffix stripped, which never
    changes a Levenshtein distance) are joined; ``all_pairs`` joins every
    url of the two titles instead, and every two urls sharing a title.  A
    url is never paired with itself, and the smallest distance per url
    pair wins.  Blocks of any size are scanned whole."""
    from liblevenshtein_rust_ray.kernel import standard_distance

    # grouped by Python dicts: pandas' string hashing stops at a NUL, so a
    # pandas groupby merges block keys (and titles) that differ after one
    keys = _key_table(pages)
    blocks: dict = {}
    for k, u, s in zip(*(keys.column(c).to_pylist() for c in ("block_key", "url", "key_string"))):
        blocks.setdefault(k, {}).setdefault(s, []).append(u)
    best = {}

    def add(a, b, d):
        if a != b:
            k = (min(a, b), max(a, b))
            best[k] = min(best.get(k, d), d)

    for by_title in blocks.values():
        rep = by_title if all_pairs else {s: [min(us)] for s, us in by_title.items()}
        for s, us in by_title.items():
            for u in us:
                for v in rep[s]:
                    add(v, u, 0)
        titles = sorted(rep)
        for i, s in enumerate(titles):
            for t in titles[i + 1:]:
                p = len(os.path.commonprefix([s, t]))
                a, b = s[p:], t[p:]
                q = len(os.path.commonprefix([a[::-1], b[::-1]]))
                d = standard_distance(a[:len(a) - q], b[:len(b) - q])
                if d <= max_distance:
                    for u in rep[s]:
                        for v in rep[t]:
                            add(u, v, d)
    return sorted((a, b, d) for (a, b), d in best.items())


def _key_table(pages):
    from liblevenshtein_rust_ray.stages.blocking import blocking_keys_batch
    from liblevenshtein_rust_ray.stages.extract import extract_batch

    return blocking_keys_batch(extract_batch(pages))


def _sorted_edges(ds):
    # sorted in Python: pandas' multi-key sort factorizes, and its string
    # hashing stops at a NUL, so urls that differ after one tie
    df = ds.to_pandas()
    order = sorted(range(len(df)), key=lambda i: (df["url_a"].iat[i], df["url_b"].iat[i]))
    return df.iloc[order].reset_index(drop=True)


def _with_duplicates(tab, n=10):
    """``tab`` plus its first ``n`` pages again under new urls."""
    import pyarrow as pa

    dup = tab.slice(0, n)
    dup = dup.set_column(0, "url", pc.binary_join_element_wise(dup["url"], "/dup", ""))
    return pa.concat_tables([tab, dup])


def _speedups(plan):
    """A ``LOCAL_SPEEDUPS`` table that makes er_pairs pick ``plan`` for any
    input the local plan can take."""
    return ((10**12, float("inf")),) if plan == "local" else ()


def _force_plan(monkeypatch, plan):
    from liblevenshtein_rust_ray.pipelines import entity_resolution

    monkeypatch.setattr(entity_resolution, "LOCAL_SPEEDUPS", _speedups(plan))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("plan", ["local", "distributed"])
def test_er_pairs_default_engine_matches_dp_scan(corpus, plan, monkeypatch):
    """The default engine's edges equal a pure-Python DP scan of every
    block, under both plans.  Ten pages are repeated under new urls so
    identical titles (distance-0 stars) are covered too."""
    tab = _with_duplicates(corpus[0])
    want = _dp_scan_edges(tab)
    assert {d for *_, d in want} == {0, 1, 2}
    _force_plan(monkeypatch, plan)
    stats = {}
    got = _sorted_edges(er_pairs(tab, stats=stats))
    assert stats["plan"] == plan
    assert list(got.itertuples(index=False, name=None)) == want


def _write_pages_dir(tab, path, files=3):
    import pyarrow.parquet as pq

    os.makedirs(path)
    step = -(-tab.num_rows // files)
    for i in range(files):
        pq.write_table(tab.slice(i * step, step), f"{path}/part-{i}.parquet")
    return path


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["parquet", "table", "dataset"])
def test_er_pairs_local_plan_matches_distributed(tmp_path, corpus, kind, monkeypatch):
    """Forced local and forced distributed plans give identical edges for
    every input kind; the unpatched guard picks the local plan for all
    three on the test session's 4 CPUs."""
    import pandas as pd
    import ray.data as rd

    tab, _ = corpus
    source = {"parquet": lambda: _write_pages_dir(tab, str(tmp_path / "pages")),
              "table": lambda: tab,
              "dataset": lambda: rd.from_arrow(tab)}[kind]()
    local_stats, dist_stats, auto_stats = {}, {}, {}
    er_pairs(source, stats=auto_stats)
    _force_plan(monkeypatch, "local")
    local = _sorted_edges(er_pairs(source, stats=local_stats))
    _force_plan(monkeypatch, "distributed")
    dist = _sorted_edges(er_pairs(source, stats=dist_stats))
    pd.testing.assert_frame_equal(local, dist)
    assert local_stats == auto_stats
    assert local_stats["plan"] == "local"
    assert local_stats["pages"] == dist_stats["pages"] == tab.num_rows
    assert local_stats["edges"] == len(local)
    assert dist_stats["plan"] == "distributed"
    assert dist_stats["n_buckets"] == 256


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_local_plan_many_tiles(corpus, monkeypatch):
    """A tiny pair tile makes the local plan's one scorer call filter many
    candidate tiles and score their survivors in several DP batches; the
    edges do not change."""
    from unittest import mock

    import pandas as pd

    from liblevenshtein_rust_ray.stages import scorer

    tab, _ = corpus
    monkeypatch.setattr(scorer, "PAIR_TILE", 20)
    _force_plan(monkeypatch, "local")
    with mock.patch.object(scorer, "_signature_pass", wraps=scorer._signature_pass) as tiles, \
            mock.patch.object(scorer, "_score_batch", wraps=scorer._score_batch) as batches:
        local = _sorted_edges(er_pairs(tab))
    assert tiles.call_count > 4
    assert batches.call_count > 1
    assert list(local.itertuples(index=False, name=None)) == _dp_scan_edges(tab)
    _force_plan(monkeypatch, "distributed")
    pd.testing.assert_frame_equal(local, _sorted_edges(er_pairs(tab)))


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_local_plan_checkpoint_resume(tmp_path, corpus, monkeypatch):
    """A checkpointed local run records its plan in the manifest, and a
    resumed run re-reads the checkpoint: same edges as the distributed
    plan, nothing recomputed."""
    import pandas as pd

    tab, _ = corpus
    run_dir = str(tmp_path / "run")
    _force_plan(monkeypatch, "local")
    stats = {}
    first = _sorted_edges(er_pairs(tab, stats=stats,
                                   checkpoints=CheckpointManager(run_dir), fingerprint="p"))
    assert stats["plan"] == "local"
    ck = CheckpointManager(run_dir)
    assert ck.manifest("pairs")["counters"] == stats
    assert ck.manifest("pairs")["rows"] == stats["edges"] == len(first)
    resumed_stats = {}
    resumed = _sorted_edges(er_pairs(tab, stats=resumed_stats,
                                     checkpoints=ck, fingerprint="p"))
    assert resumed_stats == {}
    _force_plan(monkeypatch, "distributed")
    dist = _sorted_edges(er_pairs(tab))
    pd.testing.assert_frame_equal(first, dist)
    pd.testing.assert_frame_equal(resumed, dist)


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_reports_scorer_funnel(tmp_path, corpus, monkeypatch):
    """The local plan reports the scorer's candidate funnel, and the pairs
    checkpoint manifest keeps it next to ``key_rows`` and ``edges``."""
    tab, _ = corpus
    run_dir = str(tmp_path / "run")
    _force_plan(monkeypatch, "local")
    er_pairs(tab, checkpoints=CheckpointManager(run_dir), fingerprint="f")
    manifest = CheckpointManager(run_dir).manifest("pairs")
    c = manifest["counters"]
    assert c["candidate_pairs"] >= c["signature_pairs"] >= c["dp_pairs"] > 0
    assert c["key_rows"] > 0 and c["edges"] == manifest["rows"] > 0
    keys = _key_table(tab)
    blocks = keys.group_by("block_key").aggregate([("url", "count")])["url_count"]
    assert c["paired_rows"] == pc.sum(pc.filter(blocks, pc.greater(blocks, 1))).as_py()
    assert c["key_rows"] == keys.num_rows > c["paired_rows"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("plan", ["local", "distributed"])
def test_er_pairs_text_only_parquet(tmp_path, corpus, plan, monkeypatch):
    """A parquet file of ``url`` and ``text`` alone (no ``html`` column,
    no empty text) runs both plans, and gives the edges of the full pages
    whose canonical text it holds."""
    import pandas as pd
    import pyarrow.parquet as pq

    from liblevenshtein_rust_ray.stages.extract import extract_batch

    tab, _ = corpus
    text_only = extract_batch(tab).select(["url", "text"])
    assert pc.min(pc.utf8_length(text_only["text"])).as_py() > 0
    assert pc.sum(pc.equal(tab["text"], "")).as_py() > 0  # some pages ship html only
    path = str(tmp_path / "text_only.parquet")
    pq.write_table(text_only, path)
    _force_plan(monkeypatch, plan)
    stats = {}
    got = _sorted_edges(er_pairs(path, stats=stats))
    assert stats["plan"] == plan and stats["pages"] == tab.num_rows
    pd.testing.assert_frame_equal(got, _sorted_edges(er_pairs(tab)))


@pytest.mark.usefixtures("ray_session")
def test_checkpoints_not_reused_across_scorer_settings(tmp_path, corpus):
    """The pairs and clusters fingerprints cover every option that changes
    the edges: a checkpointed default run is not re-served to a later
    all-pairs call under the same ``fingerprint``.  The salting cap is
    gone, and passing it is an error."""
    import pandas as pd

    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_clusters

    tab = _with_duplicates(corpus[0])  # identical titles: stars != cliques
    ck = CheckpointManager(str(tmp_path / "run"))
    default = _sorted_edges(er_pairs(tab, checkpoints=ck, fingerprint="p"))
    all_pairs = _sorted_edges(er_pairs(tab, checkpoints=ck, fingerprint="p",
                                       emit_all_pairs=True))
    assert len(all_pairs) > len(default)
    pd.testing.assert_frame_equal(all_pairs,
                                  _sorted_edges(er_pairs(tab, emit_all_pairs=True)))
    with pytest.raises(TypeError):
        er_pairs(tab, max_block_strings=1)

    fps = set()
    for kw in ({}, {"emit_all_pairs": True}):
        er_clusters(tab, checkpoints=ck, fingerprint="c", **kw).materialize()
        fps.add(ck.manifest("clusters")["input_fingerprint"])
    assert len(fps) == 2


@pytest.mark.usefixtures("ray_session")
def test_salted_era_checkpoints_recompute(tmp_path, corpus):
    """``pairs`` and ``clusters`` checkpoints written under the salting
    scorer's fingerprints (``...|all0|cap512``) hold edges that missed
    pairs, and all-pairs ones written under ``...|all1`` may hold
    self-pairs: both are recomputed, not re-served."""
    import json

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_clusters
    from liblevenshtein_rust_ray.stages.extract import EXTRACTOR_VERSION

    tab, _ = corpus
    old = f"p|x{EXTRACTOR_VERSION}|d2|standard"
    # the salting scorer's token, and the all-pairs scorer's before it
    # dropped self-pairs (url_a == url_b)
    for i, (old_fp, kw) in enumerate(((f"{old}|all0|cap512", {}),
                                       (f"{old}|all1", {"emit_all_pairs": True}))):
        run_dir = tmp_path / f"run{i}"
        stale = {"pairs": pa.table({"url_a": ["https://stale/a"], "url_b": ["https://stale/b"],
                                    "distance": pa.array([1], pa.int32())}),
                 "clusters": pa.table({"url": ["https://stale/a"], "cluster_id": [0]})}
        for stage, fp in (("pairs", old_fp), ("clusters", old_fp + "|cc")):
            os.makedirs(run_dir / stage)
            pq.write_table(stale[stage], str(run_dir / stage / "part-0.parquet"))
            with open(run_dir / f"{stage}.manifest.json", "w") as f:
                json.dump({"stage": stage, "input_fingerprint": fp, "rows": 1,
                           "counters": {}, "complete": True, "completed_at": 0}, f)

        ck = CheckpointManager(str(run_dir))
        got = er_clusters(tab, checkpoints=ck, fingerprint="p", **kw).to_pandas()
        want = er_clusters(tab, **kw).to_pandas()
        assert "https://stale/a" not in set(got["url"])
        pd.testing.assert_frame_equal(got.sort_values("url").reset_index(drop=True),
                                      want.sort_values("url").reset_index(drop=True))
        for stage in ("pairs", "clusters"):
            m = ck.manifest(stage)
            assert not m["input_fingerprint"].startswith(old_fp) and m["counters"], m
        assert ck.manifest("pairs")["counters"]["plan"] == "local"


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_auto_guard(tmp_path, corpus, monkeypatch):
    """The local plan runs only where the guard allows it: today's
    distributed plan runs above the page guard, on many-CPU clusters and
    for inputs without a free row count (lazy derived Datasets,
    directories Ray lists by its own rules); all-pairs output follows the
    same guard."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines import entity_resolution

    tab, _ = corpus
    n = tab.num_rows
    pages_dir = _write_pages_dir(tab, str(tmp_path / "pages"))
    # directories holding files Ray reads (no suffix) or skips ("_", ".")
    # next to *.parquet: both plans must see the same files, so no count
    odd_dirs = []
    for extra in ("pages.bin", "_tmp/part-9.parquet", ".hidden.parquet"):
        d = _write_pages_dir(tab, str(tmp_path / f"odd{len(odd_dirs)}"))
        os.makedirs(os.path.dirname(f"{d}/{extra}"), exist_ok=True)
        pq.write_table(tab.slice(0, 5), f"{d}/{extra}")
        odd_dirs.append(d)
    real = entity_resolution.LOCAL_SPEEDUPS
    cases = [
        (dict(source=pages_dir), real, 4, "local"),
        (dict(source=pages_dir), ((n, 1.0),), 1, "local"),
        (dict(source=pages_dir), ((n - 1, 1.0),), 1, "distributed"),
        (dict(source=pages_dir), real, 32, "distributed"),
        (dict(source=tab), real, 20, "distributed"),
        (dict(source=rd.read_parquet(pages_dir)), real, 4, "local"),
        (dict(source=rd.read_parquet(pages_dir).map_batches(
            lambda t: t, batch_format="pyarrow")), real, 1, "distributed"),
        (dict(source=tab, emit_all_pairs=True), real, 1, "local"),
    ] + [(dict(source=d), real, 1, "distributed") for d in odd_dirs]
    for kwargs, speedups, cpus, plan in cases:
        monkeypatch.setattr(entity_resolution, "LOCAL_SPEEDUPS", speedups)
        monkeypatch.setattr(entity_resolution, "_cluster_cpus", lambda: cpus)
        stats = {}
        er_pairs(stats=stats, **kwargs).materialize()
        assert stats["plan"] == plan, (kwargs, speedups, cpus, stats)
    assert entity_resolution._parquet_files(odd_dirs[0]) is None


def test_local_max_pages_by_cpus():
    """On C CPUs the local plan takes only sizes whose measured one-CPU
    speedup is at least C."""
    from liblevenshtein_rust_ray.pipelines.entity_resolution import _local_max_pages

    assert [_local_max_pages(c) for c in (0, 1, 2, 3, 4, 8, 10, 12, 16, 20, 32)] == [
        200_000, 200_000, 200_000, 104_526, 104_526, 41_987, 10_360, 5_116,
        2_006, 0, 0]


def test_page_count_unknown_and_io_errors(tmp_path):
    """Row counts come from metadata or are unknown (None); a corrupt
    parquet footer is an error, not an unknown count."""
    import pyarrow as pa

    from liblevenshtein_rust_ray.pipelines.entity_resolution import (
        _auto_buckets, _page_count)

    assert _page_count(str(tmp_path)) is None  # no parquet files
    assert _auto_buckets(None) == 256
    assert _auto_buckets(2_000_000) == 1953
    bad = tmp_path / "bad.parquet"
    bad.write_bytes(b"not parquet")
    with pytest.raises(pa.ArrowInvalid):
        _page_count(str(bad))


@pytest.mark.usefixtures("ray_session")
def test_er_pipeline_writes_partitioned_output(tmp_path, corpus):
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from liblevenshtein_rust_ray.pipelines.entity_resolution import er_pipeline

    pages, _ = corpus
    out_dir = str(tmp_path / "clusters")
    clusters = er_pipeline(rd.from_arrow(pages), out_dir=out_dir, output_partitions=3)
    files = glob.glob(f"{out_dir}/*.parquet")
    assert len(files) >= 1
    total = sum(pq.read_table(f).num_rows for f in files)
    assert total == clusters.count() > 0


def test_er_pairs_decremental_equals_full(corpus):
    """Removing pages and re-scoring only the blocks that lost a member:
    the merged edge set is a superset of the from-scratch run over the
    remaining pages with IDENTICAL connected components (the remove half
    of the dynamic-dictionary capability, SURVEY.md §2.2)."""
    from liblevenshtein_rust_ray.stages.cluster import connected_components
    from liblevenshtein_rust_ray.pipelines.entity_resolution import (
        er_pairs,
        er_pairs_decremental,
    )

    tab, _labeled = corpus
    n = tab.num_rows
    removed = tab.slice(0, int(n * 0.1)).column("url").to_pylist()
    remaining = tab.slice(int(n * 0.1))

    full = er_pairs(remaining).materialize()
    base = er_pairs(tab)
    dec = er_pairs_decremental(tab, removed, base_pairs=base).materialize()

    key = lambda df: set(map(tuple, df[["url_a", "url_b", "distance"]].values.tolist()))
    dec_df = dec.to_pandas()
    assert key(full.to_pandas()) <= key(dec_df)
    # no edge may touch a removed url
    rm = set(removed)
    assert not (dec_df["url_a"].isin(rm) | dec_df["url_b"].isin(rm)).any()
    cd = connected_components(dec).to_pandas().sort_values("url").reset_index(drop=True)
    cf = connected_components(full).to_pandas().sort_values("url").reset_index(drop=True)
    assert cd.equals(cf)


# adversarial pages: NUL and non-BMP urls, duplicate urls, empty and
# identical titles, plus one block of 513-530 distinct titles of one length
# (same host, shared token, one length bucket): 131k+ candidate pairs in
# one block, above the 512-title cap the scorer once salted at
_URL_PARTS = ["https://h\x00st.com/", "https://\U0001F600.org/", "https://plain.net/"]
_TITLES = ["", "same title", "same titel", "alpha beta", "alpha betx", "\U0001F600 emoji x"]


@st.composite
def adversarial_pages(draw):
    import pyarrow as pa

    from liblevenshtein_rust_ray.sources.pages import PAGES_SCHEMA

    rows = draw(st.lists(st.tuples(
        st.sampled_from(_URL_PARTS),
        st.sampled_from(["a", "a\x00b", "\U00010348", "p"]),
        st.integers(0, 3),
        st.sampled_from(_TITLES) | st.text("ab \U0001F600", max_size=10),
    ), min_size=1, max_size=40))
    urls = [f"{h}{p}{i}" for h, p, i, _ in rows]
    titles = [t for *_, t in rows]
    big = draw(st.integers(513, 530))
    urls += [f"https://big.example/{i}" for i in range(big)]
    titles += [f"zzcommon w{i:03d}" for i in range(big)]
    n = len(urls)
    return pa.table({
        "url": urls,
        "warc_ts": pa.array(list(range(n)), type=pa.timestamp("us")),
        "html": pa.array([b""] * n, type=pa.binary()),
        "text": [f"{t}\nbody" for t in titles],
        "lang": ["en"] * n,
    }, schema=PAGES_SCHEMA)


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=6, deadline=None)
@given(pages=adversarial_pages())
def test_er_pairs_plans_agree_on_adversarial_pages(pages):
    """Local (many tiles) and distributed plans give identical edges on
    adversarial inputs, with and without ``emit_all_pairs``, and both
    equal a DP scan of every block, the oversized one included."""
    from unittest import mock

    import pandas as pd

    from liblevenshtein_rust_ray.pipelines import entity_resolution
    from liblevenshtein_rust_ray.stages import scorer

    for all_pairs in (False, True):
        with mock.patch.object(scorer, "PAIR_TILE", 5_000), \
                mock.patch.object(scorer, "_signature_pass",
                                  wraps=scorer._signature_pass) as tiles, \
                mock.patch.object(entity_resolution, "LOCAL_SPEEDUPS", _speedups("local")):
            local = _sorted_edges(er_pairs(pages, emit_all_pairs=all_pairs))
        assert tiles.call_count > 1
        with mock.patch.object(entity_resolution, "LOCAL_SPEEDUPS", _speedups("distributed")):
            dist = _sorted_edges(er_pairs(pages, emit_all_pairs=all_pairs))
        pd.testing.assert_frame_equal(local, dist)
        assert (list(local.itertuples(index=False, name=None))
                == _dp_scan_edges(pages, all_pairs=all_pairs))


def _titled_pages(urls, titles):
    import pyarrow as pa

    from liblevenshtein_rust_ray.sources.pages import PAGES_SCHEMA

    n = len(urls)
    return pa.table({
        "url": urls,
        "warc_ts": pa.array(list(range(n)), type=pa.timestamp("us")),
        "html": pa.array([b""] * n, type=pa.binary()),
        "text": [f"{t}\nbody" for t in titles],
        "lang": ["en"] * n,
    }, schema=PAGES_SCHEMA)


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_all_pairs_keeps_nul_title_blocks_apart(monkeypatch):
    """Exact-title keys that differ only after a NUL are separate blocks
    for all-pairs output too, on both plans: the two h1 titles share a
    token block, the h2 title shares no block with them and must not be
    paired.  On the distributed plan one hash bucket puts all three exact
    keys in one scorer call."""
    pages = _titled_pages(["https://h1.com/1", "https://h1.com/2", "https://h2.com/1"],
                          ["alpha beta\x00x", "alpha beta\x00y", "alpha beta\x00z"])
    want = _dp_scan_edges(pages, all_pairs=True)
    assert want == [("https://h1.com/1", "https://h1.com/2", 1)]
    for plan in ("local", "distributed"):
        _force_plan(monkeypatch, plan)
        stats = {}
        got = _sorted_edges(er_pairs(pages, emit_all_pairs=True, n_buckets=1, stats=stats))
        assert stats["plan"] == plan
        assert list(got.itertuples(index=False, name=None)) == want


@pytest.mark.usefixtures("ray_session")
def test_er_pairs_all_pairs_emits_no_self_pairs(monkeypatch):
    """One url crawled with two titles that share a token block is not
    paired with itself by all-pairs output, on either plan."""
    pages = _titled_pages(["https://h.com/1", "https://h.com/1", "https://h.com/2"],
                          ["alpha beta", "alpha betx", "alpha beta"])
    want = _dp_scan_edges(pages, all_pairs=True)
    assert want == [("https://h.com/1", "https://h.com/2", 0)]
    for plan in ("local", "distributed"):
        _force_plan(monkeypatch, plan)
        got = _sorted_edges(er_pairs(pages, emit_all_pairs=True))
        assert not (got["url_a"] == got["url_b"]).any()
        assert list(got.itertuples(index=False, name=None)) == want
