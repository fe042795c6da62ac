"""Batch MinHash kernels are bit-identical to the per-row kernels.

The batch signer (`minhash_signatures_batch`) and band-key builder
(`minhash_band_keys_batch`) are pure loop-structure rewrites: distinct
texts signed once, distinct shingles hashed once, one matrix perm sweep,
one segment-min.  Nothing about the math may drift — the md5 family backs
SQL oracles, and the stage's band keys must keep colliding exactly like
the per-row `minhash_bands[_md5]` strings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liblevenshtein_rust_ray.functions.minhash import (
    minhash_band_keys_batch,
    minhash_bands,
    minhash_bands_md5,
    minhash_signature,
    minhash_signature_md5,
    minhash_signatures_batch,
)
from liblevenshtein_rust_ray.functions.tokenize import shingles, tokenize

EDGE_TEXTS = [
    "",                                     # leading empty
    "the quick brown fox jumps over dogs",
    "",                                     # mid empty
    "a",                                    # too short for a shingle
    "the the the the",                      # repeated token
    "the quick brown fox jumps over dogs",  # exact duplicate doc
    "unicode éèê naïve test words here ok",
    "x y z w v u t s r q p o n m",
    "",                                     # trailing empty
]


def _ref_sig(text, num_perm, k, hasher):
    sh = shingles(tokenize(text or ""), k)
    if hasher == "md5":
        return np.asarray(minhash_signature_md5(sh, num_perm), dtype=np.uint64)
    return np.asarray(minhash_signature(sh, num_perm), dtype=np.uint64)


def _ref_keys(sig, n_bands, hasher):
    # the exact strings the dedup stage's per-row path produced
    if hasher == "md5":
        return [f"{b}:{bk}" for b, bk in enumerate(minhash_bands_md5(sig, n_bands))]
    return [f"{b}:{bh:016x}" for b, bh in enumerate(minhash_bands(sig, n_bands))]


@pytest.mark.parametrize("hasher", ["md5", "blake2b"])
@pytest.mark.parametrize("num_perm,n_bands", [(64, 32), (32, 16), (16, 4)])
def test_batch_bit_identical_edges(hasher, num_perm, n_bands):
    mat = minhash_signatures_batch(EDGE_TEXTS, num_perm, 3, hasher)
    keys = minhash_band_keys_batch(mat, n_bands, hasher)
    assert mat.shape == (len(EDGE_TEXTS), num_perm)
    assert mat.dtype == np.uint64
    for j, t in enumerate(EDGE_TEXTS):
        ref = _ref_sig(t, num_perm, 3, hasher)
        assert np.array_equal(mat[j], ref), (hasher, j, t)
        assert list(keys[j]) == _ref_keys(ref, n_bands, hasher), (hasher, j)


@pytest.mark.parametrize("hasher", ["md5", "blake2b"])
def test_batch_empty_and_all_empty(hasher):
    assert minhash_signatures_batch([], 64, 3, hasher).shape == (0, 64)
    mat = minhash_signatures_batch(["", None, ""], 64, 3, hasher)
    ref = _ref_sig("", 64, 3, hasher)
    for j in range(3):
        assert np.array_equal(mat[j], ref)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abc éx ", min_size=0, max_size=60),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(["md5", "blake2b"]),
)
def test_batch_bit_identical_random(texts, hasher):
    mat = minhash_signatures_batch(texts, 32, 2, hasher)
    keys = minhash_band_keys_batch(mat, 8, hasher)
    for j, t in enumerate(texts):
        ref = _ref_sig(t, 32, 2, hasher)
        assert np.array_equal(mat[j], ref)
        assert list(keys[j]) == _ref_keys(ref, 8, hasher)


def test_duplicate_docs_share_rows():
    texts = ["same doc words here"] * 5 + ["different words entirely now"]
    mat = minhash_signatures_batch(texts, 64, 3, "blake2b")
    for j in range(1, 5):
        assert np.array_equal(mat[0], mat[j])
    assert not np.array_equal(mat[0], mat[5])


@pytest.mark.parametrize("hasher", ["md5", "blake2b"])
def test_batch_keeps_texts_that_differ_after_a_nul_apart(hasher):
    """Distinct texts are grouped by their full bytes: pandas hashes a str
    only up to its first NUL, which once gave the second text the first
    one's signature."""
    texts = ["alpha beta\x00x gamma delta", "alpha beta\x00y gamma delta"]
    mat = minhash_signatures_batch(texts, 64, 3, hasher)
    for j, t in enumerate(texts):
        assert np.array_equal(mat[j], _ref_sig(t, 64, 3, hasher)), (hasher, j)
