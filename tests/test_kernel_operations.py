"""Weighted operation sets (kernel.operations) — the GeneralizedAutomaton /
OperationSet cost-model capability, oracle-tested against a brute-force
recursion and the unit-cost DP kernels."""

import random

import pytest

from liblevenshtein_rust_ray.kernel.distance import (
    standard_distance,
    transposition_distance,
)
from liblevenshtein_rust_ray.kernel.operations import (
    OperationSet,
    batch_weighted_distances,
    brute_force_distance,
    weighted_distance,
)


def _rand_words(seed, n, alpha="abc", maxlen=5):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alpha) for _ in range(rng.randint(0, maxlen)))
        for _ in range(n)
    ]


def test_unit_costs_match_standard_dp():
    ops = OperationSet.standard()
    for a, b in zip(_rand_words(1, 200), _rand_words(2, 200)):
        assert weighted_distance(a, b, ops) == standard_distance(a, b)


def test_unit_transpose_matches_osa_dp():
    ops = OperationSet.transposition()
    for a, b in zip(_rand_words(3, 200), _rand_words(4, 200)):
        assert weighted_distance(a, b, ops) == transposition_distance(a, b)


def test_weighted_matches_brute_force():
    rng = random.Random(9)
    for trial in range(120):
        ops = OperationSet(
            substitute=rng.choice([None, 0.5, 1.0, 2.0]),
            insert=rng.choice([0.5, 1.0, 1.5]),
            delete=rng.choice([0.5, 1.0, 1.5]),
            transpose=rng.choice([None, 0.3, 1.0]),
            merge=rng.choice([None, 0.4, 1.0]),
            split=rng.choice([None, 0.4, 1.0]),
        )
        a, b = _rand_words(trial, 1, maxlen=4)[0], _rand_words(trial + 999, 1, maxlen=4)[0]
        assert weighted_distance(a, b, ops) == pytest.approx(
            brute_force_distance(a, b, ops)
        )


def test_disabled_ops_give_infinity():
    ops = OperationSet(insert=None, substitute=None)
    assert weighted_distance("", "a", ops) == float("inf")
    assert weighted_distance("a", "a", ops) == 0.0


def test_batch_wrapper():
    ops = OperationSet.ocr()
    qs, ts = ["rn", "abc"], ["m", "abc"]
    got = batch_weighted_distances(qs, ts, ops, cap=1)
    assert got[0] == 0.5  # merge rn -> m at OCR weight
    assert got[1] == 0.0


def test_restricted_rules_match_brute_force():
    """with_restriction semantics (reference operation_type.rs:237): exact
    segment rewrites at their own weight, property-tested vs recursion."""
    rng = random.Random(4)
    for trial in range(80):
        ops = OperationSet(
            substitute=rng.choice([None, 1.0]),
            transpose=rng.choice([None, 1.0]),
        )
        for _ in range(rng.randint(1, 3)):
            src = "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            dst = "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            if not src and not dst:
                src = "a"
            ops = ops.with_rule(src, dst, rng.choice([0.2, 0.5]))
        a, b = _rand_words(trial, 1, maxlen=4)[0], _rand_words(trial + 77, 1, maxlen=4)[0]
        assert weighted_distance(a, b, ops) == pytest.approx(
            brute_force_distance(a, b, ops)
        )


def test_restriction_does_not_leak():
    """The cheap weight applies ONLY to the restricted segment pair."""
    ops = OperationSet.ocr_restricted()
    assert weighted_distance("rn", "m", ops) == pytest.approx(0.25)
    assert weighted_distance("rm", "m", ops) == pytest.approx(1.0)  # plain delete
    assert weighted_distance("xo", "x0", ops) == pytest.approx(0.25)
    assert weighted_distance("xa", "x0", ops) == pytest.approx(1.0)  # plain subst
    with pytest.raises(ValueError):
        ops.with_rule("", "", 0.1)


def test_batch_vectorized_parity_random():
    """The vectorized batch kernel (banded under cap) must
    match the per-pair DP exactly, including restricted rules and caps."""
    import random

    import numpy as np

    rng = random.Random(7)

    def rs():
        return "".join(rng.choice("abcdm01rnl") for _ in range(rng.randint(0, 9)))

    for ops in (
        OperationSet.ocr_restricted(),
        OperationSet(substitute=2.5, insert=0.4, delete=0.9, split=0.3),
        OperationSet().with_rule("", "xy", 0.1).with_rule("ab", "", 0.2),
        OperationSet(insert=None, delete=None).with_rule("a", "b", 0.5),
    ):
        qs = [rs() for _ in range(200)]
        ts = [rs() for _ in range(200)]
        exp = np.array([weighted_distance(q, t, ops) for q, t in zip(qs, ts)])
        got = batch_weighted_distances(qs, ts, ops)
        assert np.allclose(exp, got)
        for cap in (0.5, 2.0):
            gotc = batch_weighted_distances(qs, ts, ops, cap=cap)
            expc = np.minimum(exp, cap + 1)
            ok = ((expc > cap) & (gotc == cap + 1)) | np.isclose(expc, gotc)
            assert ok.all()


def test_phonetic_english_basic_preset():
    """phonetic_english_basic mirrors the reference preset
    (src/transducer/phonetic.rs:56-310): digraphs 0.15, initial clusters
    0.20, confusions 0.25, double consonants 0.10 — and the restricted
    weights do not leak to unrelated segments."""
    ops = OperationSet.phonetic_english_basic()
    # one example per component set
    assert weighted_distance("ship", "sip", ops) == pytest.approx(0.15)
    assert weighted_distance("fone", "phone", ops) == pytest.approx(0.15)
    assert weighted_distance("queen", "kween", ops) == pytest.approx(0.15)
    assert weighted_distance("write", "rite", ops) == pytest.approx(0.20)
    assert weighted_distance("gnome", "nome", ops) == pytest.approx(0.20)
    assert weighted_distance("cat", "kat", ops) == pytest.approx(0.25)
    assert weighted_distance("dogs", "dogz", ops) == pytest.approx(0.25)
    assert weighted_distance("letter", "leter", ops) == pytest.approx(0.10)
    # stacking: sh->s (0.15) + pp->p (0.10)
    assert weighted_distance("shipp", "sip", ops) == pytest.approx(0.25)
    # no leak: unrelated single-char substitution stays unit cost
    assert weighted_distance("bolt", "belt", ops) == pytest.approx(1.0)
    # vectorized batch kernel parity on phonetic-shaped strings
    import random

    import numpy as np

    rng = random.Random(11)
    alphabet = "shcpktgjwrnae"

    def rs():
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 8)))

    qs = [rs() for _ in range(150)]
    ts = [rs() for _ in range(150)]
    exp = np.array([weighted_distance(q, t, ops) for q, t in zip(qs, ts)])
    got = batch_weighted_distances(qs, ts, ops)
    assert np.allclose(exp, got)
