"""Tables the driver already holds become Datasets in the driver.

``rd.from_arrow`` computes a table's row count and schema in a remote task
(``ray.data.read_api.from_arrow_refs``), so the first wrap of a session
waits for a worker to start and import Ray Data.  The program wraps its
driver-held tables with ``rd.from_blocks`` instead, and
``connected_components`` does not re-materialize a materialized input.
``rd.from_blocks`` is a Ray ``DeveloperAPI``: the second half of this file
pins that its wraps keep what ``rd.from_arrow`` gave.
"""

import pyarrow as pa
import pytest

from liblevenshtein_rust_ray.pipelines.entity_resolution import _min_dedup, er_pairs, read_pages
from liblevenshtein_rust_ray.sources.pages import generate_pages
from liblevenshtein_rust_ray.stages.cluster import connected_components
from liblevenshtein_rust_ray.stages.grouped import bucketed_apply
from liblevenshtein_rust_ray.stages.scorer import _edges_schema, _empty_edges_arrow

_LABELS = pa.schema([("url", pa.string()), ("cluster_id", pa.string())])


@pytest.fixture(scope="module")
def pages():
    return generate_pages(40, seed=7)[0]


def _table(ds) -> pa.Table:
    """All rows of ``ds`` in block order, without materializing it."""
    import ray

    return pa.concat_tables(ray.get(list(ds.to_arrow_refs())))


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names]).combine_chunks()


def _bucketed(edges):
    """One exchange: the distributed plan's url-pair min-dedup."""
    return bucketed_apply(edges, ["url_a", "url_b"], _min_dedup, n_buckets=4,
                          empty_result=_empty_edges_arrow())


def _run_local_job(pages):
    stats = {}
    edges = er_pairs(pages, stats=stats)
    clusters = connected_components(edges)
    return stats, edges, clusters, _bucketed(edges), read_pages(pages)


@pytest.mark.usefixtures("ray_session")
def test_local_er_job_stays_in_driver(pages, monkeypatch):
    """The local ``er_pairs`` -> ``connected_components`` job, one
    ``bucketed_apply`` and ``read_pages`` of a table start no remote
    metadata task and no second materialize, and give the same rows as an
    unpatched run.  A lazy ``connected_components`` input is still pinned
    exactly once."""
    import ray.data as rd
    import ray.data.read_api

    want = [_table(ds) for ds in _run_local_job(pages)[1:]]

    def remote_metadata(*_a, **_k):
        raise AssertionError("a driver-held table was wrapped by a remote task")

    monkeypatch.setattr(ray.data.read_api, "from_arrow_refs", remote_metadata)
    with pytest.raises(AssertionError, match="remote task"):
        rd.from_arrow(pages)  # the patch reaches what rd.from_arrow calls
    calls = []
    materialize = rd.Dataset.materialize

    def counted(self):
        calls.append(type(self).__name__)
        return materialize(self)

    monkeypatch.setattr(rd.Dataset, "materialize", counted)
    stats, *got = _run_local_job(pages)
    got = [_table(ds) for ds in got]
    assert stats["plan"] == "local"
    assert calls == []
    assert got[0].num_rows > 0 and got[1].num_rows > 0
    for g, w in zip(got, want):
        assert g.schema == w.schema
        assert _sorted(g).equals(_sorted(w))

    edges = er_pairs(pages)
    lazy = edges.map_batches(lambda t: t, batch_format="pyarrow")
    assert _sorted(_table(connected_components(lazy))).equals(_sorted(want[1]))
    assert calls == ["Dataset"]


# --- rd.from_blocks keeps what rd.from_arrow gave ---------------------------
def _same_wrap(got, table):
    """``got`` wraps ``table`` as ``rd.from_arrow(table)`` would: one block,
    the table's schema (also at 0 rows), its rows in order."""
    import ray.data as rd

    want = rd.from_arrow(table)
    assert got.num_blocks() == want.num_blocks() == 1
    assert got.count() == want.count() == table.num_rows
    assert got.schema().base_schema == want.schema().base_schema == table.schema
    assert _table(got).equals(_table(want))
    assert _table(got).equals(table)


@pytest.mark.usefixtures("ray_session")
def test_read_pages_wraps_tables_like_from_arrow(pages):
    _same_wrap(read_pages(pages), pages)
    _same_wrap(read_pages(pages.slice(0, 0)), pages.slice(0, 0))
    chunked = pa.concat_tables([pages.slice(0, 7), pages.slice(7)])
    assert chunked.column("url").num_chunks == 2
    _same_wrap(read_pages(chunked), chunked)


@pytest.mark.usefixtures("ray_session")
def test_empty_results_keep_their_schema(pages):
    """Zero edges through ``connected_components`` give a typed 0-row
    ``(url, cluster_id)`` table; a zero-edge local ``er_pairs`` gives the
    scorer's edge schema, and so does a ``bucketed_apply`` over them (its
    sentinel's)."""
    import ray.data as rd

    labels = connected_components(rd.from_blocks([_empty_edges_arrow()]))
    _same_wrap(labels, _LABELS.empty_table())

    lonely = pages.slice(0, 1)
    stats = {}
    edges = er_pairs(lonely, stats=stats)
    assert stats["plan"] == "local" and stats["edges"] == 0
    _same_wrap(edges, _edges_schema().empty_table())

    none = _bucketed(edges)
    assert none.count() == 0 and none.schema().base_schema == _edges_schema()

