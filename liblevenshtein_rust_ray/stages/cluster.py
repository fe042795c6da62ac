"""Transitive clustering over matched pairs (connected components).

:func:`connected_components` picks one of two execution paths from the
edge count alone (there is no plan option):

* driver — when the EDGE set is small (≤ ``DRIVER_MAX_EDGES``, 32M: the
  all-Arrow union-find dictionary-encodes urls in C++, so 32M edges ≈
  ~2 GB of distinct url strings + 0.5 GB int edge arrays, plus the
  pointer-jumping loop's int64 label arrays), stream the edges to the
  driver.  Edges are the SCORER's output — orders of magnitude smaller
  than the corpus — so this is the right call for small-to-medium runs
  (the guide's "union-find on the driver only if the candidate set is
  provably small").
* star contraction — above the bound, :func:`_star_cc` replaces edges by
  spanning stars (per-partition union-find, exact for connectivity):
  once per existing partition without a shuffle, then in keyed passes
  where every edge travels to the buckets of BOTH its endpoints, so each
  node's bucket sees its whole neighbourhood.  It finishes on the driver
  as soon as the set fits, or reads the labels off the star forest a
  pass that changes no bucket leaves behind.  A run that needs more
  passes than its bound raises; it never returns split components.

Both paths produce identical output: ``(url, cluster_id)`` with cluster_id
= lexicographically smallest member url — deterministic across runs,
partitionings and paths.
"""

import pyarrow as pa

# Edge count up to which components run on the driver (see the module
# docstring for the memory sizing).
DRIVER_MAX_EDGES = 32_000_000

_EMPTY_EDGES = pa.table({"url_a": pa.array([], type=pa.string()),
                         "url_b": pa.array([], type=pa.string())})
_EMPTY_STARS = _EMPTY_EDGES.append_column("changed", pa.array([], type=pa.bool_()))
_EMPTY_LABELS = pa.table({"url": pa.array([], type=pa.string()),
                          "cluster_id": pa.array([], type=pa.string())})


# ----------------------------------------------------------------------
def _cc_core(chunks_a, chunks_b):
    """Shared vectorized union-find core, all-Arrow: urls are
    dictionary-encoded in C++ (hash factorize), uniques ranked by one
    Arrow sort (so min code == lexicographically smallest member), then
    components by min-label pointer jumping.  Returns ``(uniq_sorted:
    pa.Array, label: np.int64[n])`` with ``uniq_sorted[label[i]]`` the
    smallest member url of node i's component."""
    import numpy as np
    import pyarrow.compute as pc

    both = pa.chunked_array(list(chunks_a) + list(chunks_b)).combine_chunks()
    enc = both.dictionary_encode()
    inv = enc.indices.to_numpy().astype(np.int64)
    uniq = enc.dictionary

    # sort the DISTINCT urls so min code == min url.  polars' parallel sort
    # is ~5x pyarrow's single-threaded kernel at this shape (measured at
    # 19M uniques: 4.9 s vs 25.4 s, identical order); fall back for small
    # arrays (per-batch contraction calls) and if polars is unavailable.
    if len(uniq) >= 262_144:
        try:
            import polars as pl

            order = pl.from_arrow(uniq).arg_sort().to_numpy().astype(np.int64)
        except ImportError:
            order = pc.array_sort_indices(uniq).to_numpy().astype(np.int64)
    else:
        order = pc.array_sort_indices(uniq).to_numpy().astype(np.int64)
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[order] = np.arange(len(uniq))
    codes = rank_of[inv]
    uniq = uniq.take(pa.array(order))  # uniq[r] = r-th smallest url
    n_edges = len(both) // 2
    ea, eb = codes[:n_edges], codes[n_edges:]

    # scatter-min + FULL pointer compression per round.  Compressing to the
    # fixpoint (label[label] until stable — cheap 0.1 s gathers) keeps the
    # outer scatter rounds at O(log diameter): measured at 22.7M edges,
    # 6 rounds / 18 s, vs ~140 s for the previous single-jump-per-round
    # form, whose chains dragged the round count.
    label = np.arange(len(uniq), dtype=np.int64)
    while True:
        m = np.minimum(label[ea], label[eb])
        before = label.copy()
        np.minimum.at(label, ea, m)
        np.minimum.at(label, eb, m)
        while True:
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt
        if np.array_equal(label, before):
            break

    return uniq, label


def _driver_cc(pairs) -> pa.Table:
    """Vectorized union-find on the driver, all-Arrow: no Python string
    objects are ever materialized (see :func:`_cc_core`).  Measured at
    sf0.5 (1.2M edges, 1M urls): ~3 s vs ~13 s for the previous
    iter_batches + pd.factorize(object) + from_pandas version — the
    object-array round trips were the whole difference."""
    import ray

    tabs = [t for t in ray.get(list(pairs.to_arrow_refs())) if t.num_rows]
    if not tabs:
        return _EMPTY_LABELS
    chunks = [c for t in tabs for c in t.column("url_a").cast(pa.string()).chunks]
    chunks_b = [c for t in tabs for c in t.column("url_b").cast(pa.string()).chunks]
    uniq, label = _cc_core(chunks, chunks_b)
    return pa.table({"url": uniq, "cluster_id": uniq.take(pa.array(label))})


# ----------------------------------------------------------------------
def _contract_table(t: pa.Table) -> pa.Table:
    """Contract ONE partition's edges to their spanning stars: union-find
    over the batch, emit ``(member, local_min_url)`` per non-root node and
    ``(u, u)`` for a node whose only edges are self-loops.

    Exactness: a star edge set has the same connected components as the
    sub-graph it came from, and components of a union of edge sets depend
    only on the union — so replacing each partition's edges by its local
    stars preserves the GLOBAL components while shrinking the edge count
    from |E_partition| to (#nodes − #local components).  Every endpoint
    survives, as a member, a root or a self-loop.  This is the
    per-partition combine of the CC exchange, same idea as pre-aggregation
    before a groupby."""
    import numpy as np

    if t.num_rows == 0:
        return _EMPTY_EDGES
    uniq, label = _cc_core(t.column("url_a").cast(pa.string()).chunks,
                           t.column("url_b").cast(pa.string()).chunks)
    node = np.arange(len(uniq), dtype=np.int64)
    member = label != node
    single = ~member
    single[label[member]] = False
    keep = np.flatnonzero(member | single)
    return pa.table({"url_a": uniq.take(pa.array(keep)),
                     "url_b": uniq.take(pa.array(label[keep]))})


def _distinct(t: pa.Table) -> pa.Table:
    return t.group_by(t.column_names).aggregate([])


def _both_ways(t: pa.Table) -> pa.Table:
    """Each edge as two rows, ``(node, other)`` and ``(other, node)``: keyed
    on ``url_a``, a node's bucket then holds its whole neighbourhood."""
    a = t.column("url_a").cast(pa.string())
    b = t.column("url_b").cast(pa.string())
    return pa.table({"url_a": pa.chunked_array(a.chunks + b.chunks, pa.string()),
                     "url_b": pa.chunked_array(b.chunks + a.chunks, pa.string())})


def _star_bucket(t: pa.Table) -> pa.Table:
    """One bucket of a keyed pass: contract its edges to spanning stars and
    flag whether that changed them.  Both sides are compared as deduped
    ``(larger url, smaller url)`` edge sets, so ``changed`` is exact."""
    import pyarrow.compute as pc

    a, b = t.column("url_a"), t.column("url_b")
    lt = pc.less(a, b)
    edges = _distinct(pa.table({"url_a": pc.if_else(lt, b, a),
                                "url_b": pc.if_else(lt, a, b)}))
    out = _contract_table(edges)
    order = [("url_a", "ascending"), ("url_b", "ascending")]
    changed = (out.num_rows != edges.num_rows
               or not out.sort_by(order).equals(edges.sort_by(order)))
    return out.append_column(
        "changed", pa.array([changed] * out.num_rows, type=pa.bool_()))


def _any_changed(ds) -> bool:
    """Whether any bucket of a materialized keyed pass changed its edges."""
    import pyarrow.compute as pc

    flags = ds.map_batches(
        lambda t: pa.table({"changed": [bool(pc.any(t.column("changed")).as_py())]}),
        batch_format="pyarrow", batch_size=None,
    ).take_all()
    return any(r["changed"] for r in flags)


def _star_labels(t: pa.Table) -> pa.Table:
    """Star edges ``(member, root)`` → distinct ``(url, cluster_id)`` rows:
    each member labelled by its root, each root by itself."""
    a = t.column("url_a").cast(pa.string())
    b = t.column("url_b").cast(pa.string())
    rows = pa.table({"url": pa.chunked_array(a.chunks + b.chunks, pa.string()),
                     "cluster_id": pa.chunked_array(b.chunks + b.chunks, pa.string())})
    return _distinct(rows)


def _star_cc(pairs, n_buckets: int, max_passes: int, stats: dict | None = None):
    """Contract the edge set until it fits the driver or is a star forest.

    Pass 0 is shuffle-free: ``map_batches`` over whole blocks turns each
    partition's edges into local stars (the scorer emits a block per
    bucket group, so one batch holds a whole blocking region).  Each
    keyed pass is one exchange of :func:`_both_ways` rows keyed on the
    node; :func:`_star_bucket` contracts and dedups every bucket.  After a
    pass the set goes to the driver if it fits.  Otherwise a pass that
    changed no bucket is the fixpoint: a node with two neighbours is then
    the centre of its bucket's star, so every neighbour is a leaf and each
    component is one star ``(member, root)`` rooted at its smallest url.
    The labels are read off with one more exchange that dedups
    :func:`_star_labels` rows.  This is hash-to-min (Rastogi et al., ICDE
    2013) with the star operations of Kiveris et al., "Connected
    Components in MapReduce and Beyond" (SoCC'14), run per bucket.

    More than ``max_passes`` keyed passes raise ``RuntimeError`` instead
    of returning split components.  ``stats`` gets ``contract_edges``, the
    row count after each pass (a star edge can be counted once per
    endpoint bucket), and ``contract_passes``, their number."""
    import ray.data as rd

    from .grouped import bucketed_apply

    cur = pairs.map_batches(
        _contract_table, batch_format="pyarrow", batch_size=None
    ).materialize()
    counts = [cur.count()]
    if stats is not None:
        stats.update(contract_edges=counts, contract_passes=1)
    while counts[-1] > DRIVER_MAX_EDGES:
        if len(counts) > max_passes:
            raise RuntimeError(
                f"connected components: star contraction did not reach its "
                f"fixpoint in {max_passes} passes; edge counts {counts}")
        cur = bucketed_apply(
            cur.map_batches(_both_ways, batch_format="pyarrow"), "url_a",
            _star_bucket, n_buckets, empty_result=_EMPTY_STARS,
        ).materialize()
        counts.append(cur.count())
        if stats is not None:
            stats["contract_passes"] = len(counts)
        if counts[-1] > DRIVER_MAX_EDGES and not _any_changed(cur):
            if stats is not None:
                stats["path"] = "contract+stars"
            return bucketed_apply(
                cur.map_batches(_star_labels, batch_format="pyarrow"), "url",
                _distinct, n_buckets, empty_result=_EMPTY_LABELS)
    out = _driver_cc(cur)
    if stats is not None:
        stats["path"] = "contract+driver"
        _driver_stats(out, stats)
    return rd.from_blocks([out])


def _driver_stats(out: pa.Table, stats: dict) -> None:
    import pyarrow.compute as pc

    stats.update(nodes=out.num_rows,
                 clusters=pc.count_distinct(out["cluster_id"]).as_py())


# ----------------------------------------------------------------------
def connected_components(pairs, n_buckets: int = 64, stats: dict | None = None):
    """``pairs``: Dataset with url_a/url_b → Dataset (url, cluster_id).
    Only matched nodes appear; unmatched pages are implicit singletons (at
    10^12 docs the label table must scale with the EDGE set, not the
    corpus).

    The path follows from the edge count: up to ``DRIVER_MAX_EDGES`` the
    driver; above it :func:`_star_cc` contracts the edge set by star
    contraction (``n_buckets`` buckets per keyed pass) until it fits the
    driver or reaches its star-forest fixpoint, and raises if it needs
    more than ``2 * n_edges.bit_length()`` keyed passes.

    ``stats`` receives the ``path`` taken (``driver``,
    ``contract+driver`` or ``contract+stars``) and the input ``edges``;
    the driver finish adds ``nodes`` and ``clusters``; contraction adds
    ``contract_passes`` and ``contract_edges`` (one count per pass).

    The driver path's labels are a table the driver holds, so they are
    wrapped in the driver (``rd.from_blocks``): ``rd.from_arrow`` computes
    a table's row count and schema in a remote task, and the first such
    task of a session waits for a worker to start and import Ray Data."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    # count() and the driver's block fetch both consume the edge plan; a
    # LAZY input would re-execute it for the path actually taken.  Pin the
    # edge set once — count, contraction and the driver fetch all reuse
    # the same blocks (spillable; count() forces full execution anyway, so
    # this adds retention, not work).  A materialized input is already
    # pinned: materializing it again would only re-run its finished plan.
    if not isinstance(pairs, MaterializedDataset):
        pairs = pairs.materialize()
    n_edges = pairs.count()
    if stats is not None:
        stats["edges"] = n_edges
    if n_edges > DRIVER_MAX_EDGES:
        return _star_cc(pairs, n_buckets, 2 * n_edges.bit_length(), stats)
    out = _driver_cc(pairs)
    if stats is not None:
        stats["path"] = "driver"
        _driver_stats(out, stats)
    return rd.from_blocks([out])
