"""Configurable weighted edit operations — the GeneralizedAutomaton /
OperationSet capability (§2.4 of SURVEY.md; reference
/root/reference/src/transducer/generalized/, operation_set.rs:1-620,
operation_type.rs:134-440): edit operations as ⟨consume_query, consume_term,
weight⟩ triples with configurable weights, including the two-character
operations (transpose, merge, split).

``OperationSet`` carries the weights; ``weighted_distance`` is the DP over
them (minimal total weight to rewrite ``source`` into ``target``), and
``batch_weighted_distances`` the numpy form used inside ``map_batches``
stages.  ``None`` disables an operation.  Presets mirror the reference's
shipped configurations: ``standard()`` (unit costs), ``transposition()``,
``merge_split()``, ``ocr()`` (cheap substitutions/merges for glyph errors).

The shipped unit-cost algorithms remain the exact-parity kernels
(kernel.distance / kernel.transition); this module is the cost-model
extension point and is oracle-tested against a brute-force recursion.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OperationSet:
    substitute: float | None = 1.0
    insert: float | None = 1.0
    delete: float | None = 1.0
    transpose: float | None = None  # adjacent swap (consumes 2 + 2)
    merge: float | None = None      # 2 source chars -> 1 target char
    split: float | None = None      # 1 source char -> 2 target chars
    # character-set-RESTRICTED operations (the reference's
    # ``OperationType::with_restriction``, operation_type.rs:237): exact
    # segment rewrites (src_seg -> dst_seg) at their own weight, on top of
    # the global per-op weights above — e.g. ("rn", "m", 0.2) prices the
    # classic OCR merge without cheapening every merge.
    rules: tuple = ()

    @staticmethod
    def standard() -> "OperationSet":
        return OperationSet()

    def with_rule(self, src: str, dst: str, weight: float) -> "OperationSet":
        """A copy with one restricted rewrite rule added (src segment ->
        dst segment at ``weight``); chainable."""
        from dataclasses import replace

        if not src and not dst:
            raise ValueError("a rule must consume at least one character")
        return replace(self, rules=self.rules + ((src, dst, weight),))

    @staticmethod
    def transposition(weight: float = 1.0) -> "OperationSet":
        return OperationSet(transpose=weight)

    @staticmethod
    def merge_split(weight: float = 1.0) -> "OperationSet":
        return OperationSet(merge=weight, split=weight)

    @staticmethod
    def ocr() -> "OperationSet":
        """Glyph-error model: substitutions and merges cheap (rn→m style),
        insert/delete full price."""
        return OperationSet(substitute=0.5, merge=0.5, split=0.5)

    @staticmethod
    def phonetic_english_basic() -> "OperationSet":
        """English phonetic correction preset — the reference's
        ``phonetic_english_basic()`` (src/transducer/phonetic.rs:56-310)
        re-expressed as restricted segment rules on this cost model:

        * consonant digraphs at 0.15 (phonetic.rs:55-93): ch→k sh→s
          ph→f th→t both directions, qu↔kw (2→2);
        * initial clusters at 0.20 (phonetic.rs:112-145): wr→r wh→w
          kn→n ps→s pn→n gn→n rh→r both directions (context-free
          approximation of the word-initial rule, as upstream);
        * phonetic confusions at 0.25 (phonetic.rs:164-221): c↔k c↔s
          s↔z g↔j f↔v plus the vowel reductions a↔e i↔e;
        * double consonants at 0.10 (phonetic.rs:214-240): cc↔c for
          b c d f g k l m n p r s t z.

        The reference builds the PURE phonetic set and documents
        combining it with standard ops (phonetic.rs:20-28); here the
        unit-cost base ops are kept — at any budget < 1.0 they are
        inert, so the matched relation under such budgets equals the
        pure set's."""
        ops = OperationSet()
        for a, b in (("ch", "k"), ("sh", "s"), ("ph", "f"), ("th", "t")):
            ops = ops.with_rule(a, b, 0.15).with_rule(b, a, 0.15)
        ops = ops.with_rule("qu", "kw", 0.15).with_rule("kw", "qu", 0.15)
        for a, b in (("wr", "r"), ("wh", "w"), ("kn", "n"), ("ps", "s"),
                     ("pn", "n"), ("gn", "n"), ("rh", "r")):
            ops = ops.with_rule(a, b, 0.20).with_rule(b, a, 0.20)
        for a, b in (("c", "k"), ("c", "s"), ("s", "z"), ("g", "j"),
                     ("f", "v"), ("a", "e"), ("i", "e")):
            ops = ops.with_rule(a, b, 0.25).with_rule(b, a, 0.25)
        for c in "bcdfgklmnprstz":
            ops = ops.with_rule(c + c, c, 0.10).with_rule(c, c + c, 0.10)
        return ops

    @staticmethod
    def ocr_restricted() -> "OperationSet":
        """Restricted glyph-confusion model: unit costs globally, with the
        classic OCR confusions priced cheaply ONLY for their character
        sets (the with_restriction configuration the reference ships for
        scanner output)."""
        ops = OperationSet()
        for src, dst, w in (
            ("rn", "m", 0.25), ("m", "rn", 0.25),
            ("cl", "d", 0.25), ("d", "cl", 0.25),
            ("vv", "w", 0.25), ("w", "vv", 0.25),
            ("0", "o", 0.25), ("o", "0", 0.25),
            ("1", "l", 0.25), ("l", "1", 0.25),
            ("5", "s", 0.25), ("s", "5", 0.25),
        ):
            ops = ops.with_rule(src, dst, w)
        return ops


_INF = float("inf")


def weighted_distance(source: str, target: str, ops: OperationSet) -> float:
    """Minimal total weight rewriting ``source`` into ``target``.  Matches
    cost 0; disabled ops (None) are unavailable.  float('inf') when no op
    sequence connects the strings (e.g. insert disabled and target longer)."""
    m, n = len(source), len(target)
    D = np.full((m + 1, n + 1), _INF)
    D[0, 0] = 0.0
    for i in range(m + 1):
        for j in range(n + 1):
            d = D[i, j]
            if d == _INF:
                continue
            if i < m and j < n and source[i] == target[j]:
                D[i + 1, j + 1] = min(D[i + 1, j + 1], d)
            if ops.substitute is not None and i < m and j < n:
                D[i + 1, j + 1] = min(D[i + 1, j + 1], d + ops.substitute)
            if ops.insert is not None and j < n:
                D[i, j + 1] = min(D[i, j + 1], d + ops.insert)
            if ops.delete is not None and i < m:
                D[i + 1, j] = min(D[i + 1, j], d + ops.delete)
            if (
                ops.transpose is not None
                and i + 1 < m
                and j + 1 < n
                and source[i] == target[j + 1]
                and source[i + 1] == target[j]
            ):
                D[i + 2, j + 2] = min(D[i + 2, j + 2], d + ops.transpose)
            if ops.merge is not None and i + 1 < m and j < n:
                D[i + 2, j + 1] = min(D[i + 2, j + 1], d + ops.merge)
            if ops.split is not None and i < m and j + 1 < n:
                D[i + 1, j + 2] = min(D[i + 1, j + 2], d + ops.split)
            for s, t, w in ops.rules:
                ls, lt = len(s), len(t)
                if source[i:i + ls] == s and target[j:j + lt] == t:
                    D[i + ls, j + lt] = min(D[i + ls, j + lt], d + w)
    return float(D[m, n])


def brute_force_distance(source: str, target: str, ops: OperationSet,
                         _depth: int = 0) -> float:
    """Exponential recursion over the same operation set — the independent
    oracle for property tests (small strings only)."""
    if not source and not target:
        return 0.0
    best = _INF
    if source and target and source[0] == target[0]:
        best = min(best, brute_force_distance(source[1:], target[1:], ops))
    if ops.substitute is not None and source and target:
        best = min(best, ops.substitute + brute_force_distance(source[1:], target[1:], ops))
    if ops.insert is not None and target:
        best = min(best, ops.insert + brute_force_distance(source, target[1:], ops))
    if ops.delete is not None and source:
        best = min(best, ops.delete + brute_force_distance(source[1:], target, ops))
    if (
        ops.transpose is not None
        and len(source) >= 2
        and len(target) >= 2
        and source[0] == target[1]
        and source[1] == target[0]
    ):
        best = min(best, ops.transpose + brute_force_distance(source[2:], target[2:], ops))
    if ops.merge is not None and len(source) >= 2 and target:
        best = min(best, ops.merge + brute_force_distance(source[2:], target[1:], ops))
    if ops.split is not None and source and len(target) >= 2:
        best = min(best, ops.split + brute_force_distance(source[1:], target[2:], ops))
    for s, t, w in ops.rules:
        if source.startswith(s) and target.startswith(t):
            best = min(best, w + brute_force_distance(source[len(s):], target[len(t):], ops))
    return best


def _rule_match_matrix(ENC, seg: str, maxlen: int) -> np.ndarray:
    """(P, maxlen+1) bool: column ``i`` is True when the encoded string has
    ``seg`` ending at position ``i`` (1-based prefix coordinates).  Empty
    segments match everywhere; zero-padding never matches real rule chars."""
    P = ENC.shape[0]
    M = np.zeros((P, maxlen + 1), dtype=bool)
    L = len(seg)
    if L == 0:
        M[:] = True
        return M
    codes = [ord(c) for c in seg]
    width = ENC.shape[1]
    for i in range(L, maxlen + 1):
        ok = np.ones(P, dtype=bool)
        for x, c in enumerate(codes):
            col = i - L + x
            ok &= ENC[:, col] == c if col < width else False
        M[:, i] = ok
    return M


def _weighted_band(ops: OperationSet, cap) -> int | None:
    """Half-width of the |i - j| band that can still reach a result ≤ cap:
    every unit of length imbalance costs at least the cheapest per-unit
    length-changing op, so cells further off-diagonal than cap / that cost
    are prunable.  None = no finite band (or no cap)."""
    if cap is None:
        return None
    unit = []
    for c in (ops.insert, ops.split, ops.delete, ops.merge):
        if c is not None:
            unit.append(c)
    for s, t, w in ops.rules:
        if len(s) != len(t):
            unit.append(w / abs(len(s) - len(t)))
    if not unit:
        return None
    lo = min(unit)
    if lo <= 0:
        return None
    return int(np.floor(cap / lo)) + 1


def _weighted_block(Q, qlen, T, tlen, ops: OperationSet, cap) -> np.ndarray:
    """Vectorized pull-based weighted DP over one length-bucketed chunk of
    pairs: the (i, j) double loop runs in Python but every cell update is a
    (P,) vector op, so per-pair cost is numpy throughput, not interpreter
    dispatch (same discipline as kernel.vectorized's banded kernel).

    Cells beyond a pair's (qlen, tlen) are garbage but are never pulled
    from by valid cells (pulls only decrease i/j), so no masking is needed;
    the answer is gathered at row qlen, column tlen per pair."""
    P = Q.shape[0]
    mq = int(qlen.max()) if P else 0
    mt = int(tlen.max()) if P else 0
    INF = np.inf
    clamp = None if cap is None else cap + 1.0

    # how many previous rows a pull can reach back
    maxback = 1
    if ops.transpose is not None or ops.merge is not None:
        maxback = 2
    for s, _t, _w in ops.rules:
        maxback = max(maxback, len(s))

    # per-rule "segment ends here" masks over source and target
    rule_info = []
    for s, t, w in ops.rules:
        rule_info.append((
            len(s), len(t), w,
            _rule_match_matrix(Q, s, mq),
            _rule_match_matrix(T, t, mt),
        ))

    res = np.full(P, INF)
    band = _weighted_band(ops, cap)

    # row 0: D[0][j] built left-to-right from insert + source-empty rules
    row0 = np.full((P, mt + 1), INF)
    row0[:, 0] = 0.0
    for j in range(1, mt + 1 if band is None else min(mt, band) + 1):
        c = row0[:, j]
        if ops.insert is not None:
            np.minimum(c, row0[:, j - 1] + ops.insert, out=c)
        for ls, lt, w, _sm, tm in rule_info:
            if ls == 0 and lt and j >= lt:
                np.minimum(c, np.where(tm[:, j], row0[:, j - lt] + w, INF), out=c)
    if clamp is not None:
        np.minimum(row0, clamp, out=row0)
    done0 = qlen == 0
    if done0.any():
        res[done0] = row0[np.flatnonzero(done0), tlen[done0]]

    hist = [row0] + [np.full((P, mt + 1), INF) for _ in range(maxback - 1)]
    for i in range(1, mq + 1):
        qc = Q[:, i - 1]
        curr = np.full((P, mt + 1), INF)
        p1 = hist[0]                       # row i-1
        p2 = hist[1] if maxback >= 2 else None  # row i-2
        if ops.delete is not None:
            curr[:, 0] = p1[:, 0] + ops.delete
        for ls, lt, w, sm, _tm in rule_info:
            if lt == 0 and ls and i >= ls:
                np.minimum(curr[:, 0],
                           np.where(sm[:, i], hist[ls - 1][:, 0] + w, INF),
                           out=curr[:, 0])
        jlo, jhi = 1, mt
        if band is not None:
            jlo, jhi = max(1, i - band), min(mt, i + band)
            if i - band >= 1:
                curr[:, 0] = INF  # column 0 off-band: cost > cap
        for j in range(jlo, jhi + 1):
            tc = T[:, j - 1]
            diag = p1[:, j - 1]
            c = np.where(qc == tc, diag, INF)
            if ops.substitute is not None:
                np.minimum(c, diag + ops.substitute, out=c)
            if ops.delete is not None:
                np.minimum(c, p1[:, j] + ops.delete, out=c)
            if ops.insert is not None:
                np.minimum(c, curr[:, j - 1] + ops.insert, out=c)
            if ops.transpose is not None and i >= 2 and j >= 2:
                swap = (qc == T[:, j - 2]) & (Q[:, i - 2] == tc)
                np.minimum(c, np.where(swap, p2[:, j - 2] + ops.transpose, INF), out=c)
            if ops.merge is not None and i >= 2:
                np.minimum(c, p2[:, j - 1] + ops.merge, out=c)
            if ops.split is not None and j >= 2:
                np.minimum(c, p1[:, j - 2] + ops.split, out=c)
            for ls, lt, w, sm, tm in rule_info:
                if i >= ls and j >= lt:
                    src_row = curr if ls == 0 else hist[ls - 1]
                    hitm = sm[:, i] & tm[:, j]
                    np.minimum(c, np.where(hitm, src_row[:, j - lt] + w, INF), out=c)
            curr[:, j] = c
        if clamp is not None:
            np.minimum(curr, clamp, out=curr)
        hit = qlen == i
        if hit.any():
            res[hit] = curr[np.flatnonzero(hit), tlen[hit]]
        hist = [curr] + hist[: maxback - 1]
    return res


def batch_weighted_distances(queries, terms, ops: OperationSet,
                             cap: float | None = None) -> np.ndarray:
    """Per-pair weighted distances (float64) for ``zip(queries, terms)``;
    ``cap`` clamps results to cap + 1 like the unit-cost batch kernel
    (weights are non-negative, so clamping mid-DP is exact for every
    reported value ≤ cap).  Vectorized across pairs: strings are encoded
    once per distinct value, pairs are processed in max-length groups so
    short pairs don't pay long pairs' DP area, and every DP cell is a (P,)
    numpy op (see ``_weighted_block``).  Property-tested against the
    per-pair ``weighted_distance`` DP and ``brute_force_distance``.  Takes
    lists or Arrow arrays, like ``vectorized.batch_distances``."""
    from .vectorized import encode_pairs

    P = len(queries)
    out = np.empty(P)
    if P == 0:
        return out
    ENC, ulen, qi, ti = encode_pairs(queries, terms)
    qlen, tlen = ulen[qi], ulen[ti]

    idx = np.arange(P)
    if cap is not None:
        # length-difference lower bound: growing/shrinking one unit costs at
        # least the cheapest length-changing op (rules priced per unit)
        def _unit(costs):
            vals = [c for c in costs if c is not None]
            return min(vals) if vals else None

        grow = [ops.insert, ops.split] + [
            w / (lt - ls) for s, t, w in ops.rules
            for ls, lt in [(len(s), len(t))] if lt > ls
        ]
        shrink = [ops.delete, ops.merge] + [
            w / (ls - lt) for s, t, w in ops.rules
            for ls, lt in [(len(s), len(t))] if ls > lt
        ]
        gmin, smin = _unit(grow), _unit(shrink)
        diff = tlen - qlen
        lb = np.zeros(P)
        lb[diff > 0] = np.inf if gmin is None else diff[diff > 0] * gmin
        lb[diff < 0] = np.inf if smin is None else -diff[diff < 0] * smin
        out[:] = cap + 1.0
        idx = np.flatnonzero(lb <= cap)
        if idx.size == 0:
            return out

    CHUNK = 16384
    maxlens = np.maximum(qlen[idx], tlen[idx])
    for lo, hi in ((-1, 16), (16, 32), (32, 64), (64, 1 << 60)):
        grp = idx[(maxlens > lo) & (maxlens <= hi)]
        for s in range(0, grp.size, CHUNK):
            sel = grp[s : s + CHUNK]
            width = int(np.maximum(qlen[sel], tlen[sel]).max())
            width = min(max(width, 1), ENC.shape[1])
            out[sel] = _weighted_block(
                ENC[qi[sel], :width], qlen[sel],
                ENC[ti[sel], :width], tlen[sel], ops, cap,
            )
    if cap is not None:
        np.minimum(out, cap + 1.0, out=out)
    return out
