"""Shared Ray Data context tuning for the engine's pipelines.

Hash-partitioned shuffle turns groupby/aggregate into the C-path hash
aggregation (measured ~9x faster than the sort-based default on
small-group workloads); idempotent and safe to call before building any
pipeline.  The session itself is still owned by the caller — this touches
only DataContext execution knobs, never ray.init.
"""


def configure_data_context() -> None:
    import ray
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    # NOTE: ShuffleStrategy.HASH_SHUFFLE was measured ~9x faster for
    # small-group aggregates but its long-lived aggregator actors can starve
    # subsequent executions in low-CPU sessions (observed deadlock with
    # num_cpus=4, second pipeline run).  We keep the default sort-based
    # shuffle and get the same win from vectorized bucketed aggregation
    # (stages/grouped.py) instead.
    ctx.execution_options.verbose_progress = False
    # Push-based shuffle for the sort exchanges: pipelines the reduce side
    # instead of a hard map/reduce barrier.  Measured on the flagship ER
    # blocking exchange at sf0.5/32 CPUs: 13.1 s vs 38.7 s best-of-3
    # (same-window) — ~3x, with identical output (parity pinned by tests);
    # no HASH_SHUFFLE-style aggregator-actor deadlock at num_cpus=4
    # (repeat-run repro verified).  This is also the multi-node story:
    # push-based shuffle is Ray's large-scale shuffle implementation.
    from ray.data.context import ShuffleStrategy

    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    # Block-count discipline: Ray's default read_op_min_num_blocks=200
    # splits small reads into hundreds of tiny blocks, and a downstream
    # sort-shuffle then creates (in_blocks x out_partitions) intermediate
    # objects — measured 4x end-to-end on the ER pipeline at sf0.1 (32s vs
    # 8s).  Use a FIXED split count (independent of the session's core
    # count) so the same job has the same physical plan at every cluster
    # size — the cluster-scaling comparison is then resources-only, as on a
    # real N- vs 4N-node cluster reading the same input splits;
    # target_max_block_size (128 MiB) still re-splits genuinely large reads.
    ctx.read_op_min_num_blocks = 64
    _patch_empty_bundle_schema_warning()


def _patch_empty_bundle_schema_warning() -> None:
    """Teach the executor's schema-divergence check to ignore EMPTY bundles.

    A sort-based ``groupby().map_groups()`` exchange emits a 0-row,
    schema-less bundle for every empty output partition (the UDF never
    runs, so no code of ours can type it).  Ray's ``add_output`` compares
    each bundle's schema against the previous one and logs "Operator
    produced a RefBundle with a different schema" when a typed bundle is
    followed by such an empty — once per operator per run, which at
    cluster block counts is pure log spam for a semantically harmless
    case (0 rows carry no schema information; Ray itself already skips
    the check when the PREVIOUS schema is empty, just not when the NEW
    one is).  For such bundles, keep Ray's schema COERCION (the empty
    bundle is re-stamped with the operator's typed schema — downstream
    concat/unify depends on it) but skip the warning and don't count it
    as a divergence, so a later REAL schema drift still warns once.
    Idempotent; dataset-level schemas are unaffected (the typed union
    sentinels in stages/grouped.py pin those).

    PRIVATE-API COUPLING, version-guarded: the hook targets
    ``ray.data._internal....streaming_executor_state.dedupe_schemas_with_validation``
    as shipped in the Ray 2.x series this repo is pinned against.  On any
    Ray where the module/attribute moved or the signature changed, the
    guard degrades to Ray's stock behavior (the warning line comes back —
    log hygiene only, never a crash).
    """
    # Companion noise source: input parquet written by pandas carries
    # b'pandas' schema metadata whose dict makes pa.Schema UNHASHABLE, so
    # Ray's unify_schemas logs "Failed to hash the schemas (for
    # deduplication)" per bundle pair (transform_pyarrow.py:181) and loses
    # only its early-exit — the unify itself still succeeds.  Our exchange
    # blocks are metadata-free (stages/grouped.py's bucketed_apply drops
    # the metadata before the shuffle, and bucket functions build Arrow
    # tables, not from_pandas ones); for read-only third-party inputs,
    # drop just that log line (driver side
    # here; quiet_worker_logging installs the same filter in workers).
    # Public logging API — safe regardless of the executor patch below.
    quiet_worker_logging()

    try:
        import inspect

        import ray.data._internal.execution.streaming_executor_state as ses

        if getattr(ses, "_llr_empty_bundle_patch", False):
            return
        orig = ses.dedupe_schemas_with_validation
        # signature drift check: the wrapper forwards these exact params
        params = inspect.signature(orig).parameters
        if not {"warn", "enforce_schemas"} <= set(params):
            raise AttributeError(
                "dedupe_schemas_with_validation signature changed")
    except (ImportError, AttributeError, ValueError, TypeError) as e:
        import logging

        logging.getLogger(__name__).debug(
            "empty-bundle schema patch skipped (Ray internals moved: %s); "
            "spurious empty-bundle schema warnings may appear", e)
        return

    def dedupe_ignoring_empty_bundles(old_schema, bundle, warn=True,
                                      enforce_schemas=False):
        # ANY 0-row bundle is schema-neutral, not just schema-less ones:
        # the push-based sort-shuffle merge can stamp an empty partition
        # with a PARTIAL schema (e.g. a lone id_a column, observed on the
        # minhash pair-dedup exchange) — still zero information
        if not bundle.num_rows():
            out, _ = orig(old_schema, bundle, warn=False,
                          enforce_schemas=enforce_schemas)
            return out, False
        return orig(old_schema, bundle, warn=warn,
                    enforce_schemas=enforce_schemas)

    ses.dedupe_schemas_with_validation = dedupe_ignoring_empty_bundles
    ses._llr_empty_bundle_patch = True


class _DropSchemaHashWarning:
    """logging.Filter dropping Ray's 'Failed to hash the schemas' line —
    third-party parquet (the driver's testdata) bakes b'pandas' schema
    metadata whose dict makes pa.Schema unhashable; the unify still
    succeeds, only its early-exit dedup is lost, so the warning is pure
    noise at block counts."""

    def filter(self, record):  # noqa: A003
        return "Failed to hash the schemas" not in record.getMessage()


def quiet_worker_logging() -> None:
    """``runtime_env={"worker_process_setup_hook": quiet_worker_logging}``:
    read tasks hit the unhashable-metadata path INSIDE workers (SplitBlocks
    unify), where the driver-side filter can't reach — install the same
    filter in every worker at startup."""
    import logging

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_DropSchemaHashWarning())
