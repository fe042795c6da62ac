"""Ray Data pipeline stages.

Stateless per-batch transforms are plain functions; stateful stages are
callable classes run as actor pools (``map_batches(Cls, concurrency=N)``).
All hot stages take ``batch_format="pyarrow"`` (zero-copy from the object
store) unless the kernel genuinely needs pandas.
"""

from .extract import extract_batch, extract_text_from_html
from .blocking import blocking_keys_batch, BLOCK_BANDS
from .cluster import connected_components
from .urls import (
    canonicalize_urls,
    host_stats,
    messy_crawl_variants,
    url_snapshot_dedup,
)
from .sketch import exact_quantiles, kmv_distinct_shingles
from .similarity import (ann_brute_topk, ann_ivf_topk, ann_lsh_topk,
                         decontaminate_embeddings, semdedup)
from .modelscore import model_score
from .sampling import rebalance_sources, sample_by_hash, split_by_hash
from .selection import (HashSampleTarget, PredicateTarget, dsir_select,
                        dsir_top_frac_threshold, dsir_weights)
from .textstats import bpe_token_stats, gopher_quality, pack_documents, redact_pii
from .lm import lm_filter, lm_score
from .spans import duplicated_spans, dup_span_fraction

__all__ = [
    "extract_batch",
    "extract_text_from_html",
    "blocking_keys_batch",
    "BLOCK_BANDS",
    "ann_brute_topk",
    "ann_ivf_topk",
    "ann_lsh_topk",
    "semdedup",
    "connected_components",
    "canonicalize_urls",
    "host_stats",
    "messy_crawl_variants",
    "url_snapshot_dedup",
    "kmv_distinct_shingles",
    "model_score",
    "rebalance_sources",
    "sample_by_hash",
    "split_by_hash",
    "dsir_weights",
    "dsir_select",
    "pack_documents",
    "dsir_top_frac_threshold",
    "HashSampleTarget",
    "PredicateTarget",
    "exact_quantiles",
    "lm_score",
    "lm_filter",
    "decontaminate_embeddings",
    "bpe_token_stats",
    "gopher_quality",
    "redact_pii",
    "duplicated_spans",
    "dup_span_fraction",
]
