"""Approximating permutations by word values in symmetric groups.

Given a word w and a target permutation, construct (g, h) such that w(g, h)
is provably close to the target in normalized Hamming distance.  Targets are
split into isotypic blocks (all cycles of one length); each block is handled
either by gluing projective lines carrying values of a prescribed cycle type
(good for short cycles) or by near-long-cycle values (good for long cycles).
All reported distances are measured exactly after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ffield import is_prime, make_field
from .perms import Permutation, evaluate_word, hamming_distance
from .sl2 import (
    BlockValue,
    _cycle_count_cap,
    _isotypic_trace,
    isotypic_word_value,
    near_cycle_word_value,
)
from .words import Word, SyllableForm, classify


@dataclass(frozen=True)
class GreedyDecomposition:
    """n = sum of n_i (q^i + 1) plus n_0 leftover points, greedy from the top.

    levels holds (i, n_i) with i descending and n_i >= 1.
    """

    n: int
    q: int
    levels: Tuple[Tuple[int, int], ...]
    n0: int

    def __post_init__(self):
        total = self.n0 + sum(c * (self.q ** i + 1) for i, c in self.levels)
        if total != self.n:
            raise ValueError("decomposition does not sum to n")
        if self.n0 > self.q or any(c > self.q - 1 for _, c in self.levels):
            raise ValueError("coefficient exceeds its cap")
        # running partial sums from below never overflow the next power
        for j in range(0, max((i for i, _ in self.levels), default=0) + 1):
            partial = self.n0 + sum(
                c * (self.q ** i + 1) for i, c in self.levels if i <= j
            )
            if partial > self.q ** (j + 1):
                raise ValueError("partial-sum constraint violated")

    def to_dict(self) -> dict:
        return {"q": self.q, "levels": [list(lv) for lv in self.levels], "n0": self.n0}


def greedy_decomposition(n: int, q: int) -> GreedyDecomposition:
    """Largest summand q^i + 1 first, with maximal multiplicity each time."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    levels = []
    rem = n
    s = 1
    while q ** (s + 1) + 1 <= n:
        s += 1
    if q ** s + 1 > n:
        s = 0
    for i in range(s, 0, -1):
        block = q ** i + 1
        count = min(rem // block, q - 1)
        if count:
            levels.append((i, count))
            rem -= count * block
    return GreedyDecomposition(n=n, q=q, levels=tuple(levels), n0=rem)


@dataclass(frozen=True)
class Witness:
    """A pair (g, h) with w(g, h) certified close to the target."""

    word: Word
    g: Permutation
    h: Permutation
    value: Permutation
    target: Permutation
    achieved_distance: Fraction
    bound_distance: Fraction
    trace: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.value != evaluate_word(self.word, self.g, self.h):
            raise ValueError("value is not the word evaluated at (g, h)")
        if self.achieved_distance != hamming_distance(self.target, self.value):
            raise ValueError("achieved distance is not the exact distance")
        if self.achieved_distance > self.bound_distance:
            raise ValueError("achieved distance exceeds the claimed bound")

    @property
    def n(self) -> int:
        return self.target.degree

    def to_dict(self) -> dict:
        # the four lists share one int object per point
        points = np.arange(self.n).astype(object)
        return {
            "schema": 1,
            "word": str(self.word),
            "n": self.n,
            "g": points[self.g.array].tolist(),
            "h": points[self.h.array].tolist(),
            "value": points[self.value.array].tolist(),
            "target": points[self.target.array].tolist(),
            "achieved_distance": str(self.achieved_distance),
            "achieved_distance_float": float(self.achieved_distance),
            "bound_distance": str(self.bound_distance),
            "trace": self.trace,
        }


# -- cycle alignment ---------------------------------------------------------


def _flat(cycles: Sequence[Sequence[int]]) -> np.ndarray:
    """The points of the cycles, one cycle after another."""
    return np.fromiter(chain.from_iterable(cycles), dtype=np.intp)


def cycle_alignment(value: Permutation, target: Permutation) -> Permutation:
    """A relabeling pi such that value.conjugate(pi) is close to target.

    Cycles of equal length are matched exactly (zero disagreement on them);
    leftover cycles on both sides are concatenated longest-first and laid
    over each other, which costs at most one point per cycle end.
    """
    by_len_value = value.cycles_by_length()
    by_len_target = target.cycles_by_length()
    value_cycles: List[List[int]] = []
    target_cycles: List[List[int]] = []
    left_value: List[List[int]] = []
    left_target: List[List[int]] = []
    for length in sorted(set(by_len_value) | set(by_len_target), reverse=True):
        vs = by_len_value.get(length, [])
        ts = by_len_target.get(length, [])
        matched = min(len(vs), len(ts))
        value_cycles += vs[:matched]
        target_cycles += ts[:matched]
        left_value += vs[matched:]
        left_target += ts[matched:]
    # the matched cycles point by point, then the leftovers in one run each
    images = np.full(value.degree, -1)
    images[_flat(value_cycles + left_value)] = _flat(target_cycles + left_target)
    return Permutation(images)


def _aligned_witness(
    w: Word,
    g: Permutation,
    h: Permutation,
    target: Permutation,
    bound: Fraction,
    trace: dict,
) -> Witness:
    value = evaluate_word(w, g, h)
    pi = cycle_alignment(value, target)
    g, h, value = g.conjugate(pi), h.conjugate(pi), value.conjugate(pi)
    achieved = hamming_distance(target, value)
    return Witness(
        word=w,
        g=g,
        h=h,
        value=value,
        target=target,
        achieved_distance=achieved,
        bound_distance=min(bound, Fraction(1)),
        trace=trace,
    )


# -- prime searches and cached block values ----------------------------------

@lru_cache(maxsize=None)
def _small_k_params(w: Word, form: SyllableForm, k: int) -> Tuple[int, int]:
    """(p, m): least usable prime with 2k | p-1 (k | p-1 for odd k), and the
    extension degree m <= l of the trace solution over F_p."""
    need = 2 * k if k % 2 == 0 else k
    p = need + 1
    while not is_prime(p) or form.divides_exponent(p):
        p += need
    return p, _isotypic_trace(w, k, make_field(p, 1)).field.e


@lru_cache(maxsize=None)
def _large_k_prime(form: SyllableForm) -> int:
    p = 4 * form.l + 1
    while not is_prime(p) or form.divides_exponent(p):
        p += 1
    return p


@lru_cache(maxsize=None)
def _isotypic_value(w: Word, k: int, p: int, i: int) -> BlockValue:
    return isotypic_word_value(w, k, make_field(p, 1), i)


@lru_cache(maxsize=None)
def _near_value(w: Word, p: int, i: int) -> BlockValue:
    return near_cycle_word_value(w, make_field(p, i))


def _place(images: np.ndarray, points: np.ndarray, perm: Permutation) -> None:
    """Write perm onto the given points: points[j] maps to points[perm(j)]."""
    images[points] = points[perm.array]


# -- isotypic targets --------------------------------------------------------


def _small_k_bound(dec: GreedyDecomposition, n: int) -> Fraction:
    return Fraction(dec.n0 + 2 * sum(c for _, c in dec.levels), n)


def _large_k_bound(dec: GreedyDecomposition, n: int, c_k: int, l: int) -> Fraction:
    extra = sum(c * _cycle_count_cap(l, dec.q ** i) for i, c in dec.levels)
    return Fraction(c_k + extra + dec.n0, n)


def _build_blockwise(
    n: int, dec: GreedyDecomposition, value_for_level
) -> Tuple[Permutation, Permutation]:
    g_images, h_images = np.arange(n), np.arange(n)
    offset = 0
    for i, count in dec.levels:
        block = value_for_level(i)
        size = dec.q ** i + 1
        for _ in range(count):
            points = np.arange(offset, offset + size)
            _place(g_images, points, block.g_perm)
            _place(h_images, points, block.h_perm)
            offset += size
    return Permutation(g_images), Permutation(h_images)


def approx_isotypic(w: Word, k: int, c_k: int) -> Witness:
    """Witness for the target with c_k cycles of length k on k*c_k points.

    Tries the path with the better a-priori bound first and falls back to
    the other on failure.
    """
    form = classify(w)
    if form.kind != "alternating":
        raise ValueError("word must be alternating")
    if k < 1 or c_k < 1:
        raise ValueError("need k >= 1 and c_k >= 1")
    n = k * c_k
    target = Permutation.from_cycle_lengths([k] * c_k)
    if k == 1:
        ident = Permutation.identity(n)
        return Witness(
            word=w,
            g=ident,
            h=ident,
            value=ident,
            target=target,
            achieved_distance=Fraction(0),
            bound_distance=Fraction(0),
            trace={"path": "identity"},
        )

    # each plan: (a-priori bound, decomposition, trace, block value per level)
    plans = []
    try:
        p_small, m = _small_k_params(w, form, k)
        dec = greedy_decomposition(n, p_small ** m)
        trace = {"path": "isotypic-blocks", "p": p_small, "m": m, "decomposition": dec.to_dict()}
        plans.append(
            (_small_k_bound(dec, n), dec, trace, lambda i: _isotypic_value(w, k, p_small, i))
        )
    except (ValueError, AssertionError):
        pass
    p_large = _large_k_prime(form)
    dec = greedy_decomposition(n, p_large)
    trace = {"path": "near-cycle-blocks", "p": p_large, "decomposition": dec.to_dict()}
    plans.append(
        (_large_k_bound(dec, n, c_k, form.l), dec, trace, lambda i: _near_value(w, p_large, i))
    )
    plans.sort(key=lambda item: item[0])
    last_error: Optional[Exception] = None
    for bound, dec, trace, value_for_level in plans:
        try:
            g, h = _build_blockwise(n, dec, value_for_level)
            return _aligned_witness(w, g, h, target, bound, trace)
        except (ValueError, AssertionError) as exc:  # fall back to other path
            last_error = exc
    raise ValueError(f"no construction path succeeded for k={k}, c_k={c_k}") from last_error


# -- power words -------------------------------------------------------------


def _interleaved_group(cycles: Sequence[Sequence[int]], a: int) -> List[int]:
    """One (k*d)-cycle whose a-th power is exactly the d given k-cycles.

    Requires gcd(k*d, a) = d, equivalently d | a and gcd(k, a/d) = 1.
    """
    d = len(cycles)
    k = len(cycles[0])
    v = pow(a // d, -1, k)
    order = [0] * (k * d)
    for j in range(d):
        for m in range(k):
            order[j + m * d] = cycles[j][(m * v) % k]
    return order


def _power_value(a: int, sigma: Permutation) -> Tuple[Permutation, dict]:
    """tau with tau^a agreeing with sigma outside a small defect per block."""
    n = sigma.degree
    new_cycles: List[List[int]] = []
    trace_blocks = {}
    pooled: List[List[int]] = []
    for k, cycles in sorted(sigma.cycles_by_length().items()):
        if k == 1:
            trace_blocks[str(k)] = {"fixed": len(cycles)}
            continue
        c = len(cycles)
        # a group of d cycles needs d <= c, so larger d never enter the sum
        sizes = [d for d in range(1, min(a, c) + 1) if math.gcd(k * d, a) == d]
        # unbounded subset sum: cover as many cycles as possible exactly
        best = [None] * (c + 1)
        best[0] = 0
        for s in range(1, c + 1):
            for d in sizes:
                if d <= s and best[s - d] is not None:
                    best[s] = d
                    break
        covered = max(s for s in range(c + 1) if best[s] is not None)
        groups = []
        s = covered
        while s:
            groups.append(best[s])
            s -= best[s]
        pos = 0
        for d in groups:
            new_cycles.append(_interleaved_group(cycles[pos:pos + d], a))
            pos += d
        pooled.extend(cycles[pos:])
        trace_blocks[str(k)] = {
            "cycles": c,
            "group_sizes": groups,
            "leftover_cycles": c - pos,
        }
    if pooled:
        # One value cycle walks all pooled leftovers head-to-tail; only
        # cycle boundaries and the short coprime-length tail disagree.
        pooled.sort(key=len, reverse=True)
        flat = [p for cyc in pooled for p in cyc]
        length = len(flat)
        while length > 1 and math.gcd(length, a) != 1:
            length -= 1
        if length > 1:
            head = flat[:length]
            b = pow(a, -1, length)
            # tau restricted to head is the b-th power of the cycle head
            new_cycles.append([head[(j * b) % length] for j in range(length)])
        trace_blocks["pooled_leftover"] = {
            "cycles": len(pooled),
            "points": len(flat),
            "cycle_length": length,
        }
    tau = Permutation.from_cycles(n, new_cycles)
    return tau, trace_blocks


def approx_power_word(a: int, sigma: Permutation) -> Witness:
    """Witness for the word x^a against an arbitrary target."""
    if a < 1:
        raise ValueError("exponent must be positive")
    return approx(Word((("x", a),)), sigma)


def _power_witness(w: Word, form: SyllableForm, sigma: Permutation) -> Witness:
    e = form.power_exp
    a = abs(e)
    tau, trace_blocks = _power_value(a, sigma if e > 0 else sigma.inverse())
    ident = Permutation.identity(sigma.degree)
    # with both generators powers of tau, conjugate words evaluate identically
    g, h = form.pair(tau, ident)
    value = evaluate_word(w, g, h)
    achieved = hamming_distance(sigma, value)
    return Witness(
        word=w,
        g=g,
        h=h,
        value=value,
        target=sigma,
        achieved_distance=achieved,
        bound_distance=achieved,
        trace={"path": "power", "exponent": e, "blocks": trace_blocks},
    )


# -- general targets ---------------------------------------------------------


def approx(w: Word, sigma: Permutation) -> Witness:
    """Main entry point: witness for an arbitrary target permutation."""
    form = classify(w)
    if form.kind == "trivial":
        raise ValueError("the trivial word only attains the identity")
    if form.kind == "power":
        return _power_witness(w, form, sigma)
    n = sigma.degree
    g_images, h_images = np.arange(n), np.arange(n)
    weighted = Fraction(0)
    bound = Fraction(0)
    trace_blocks = {}
    for k, cycles in sorted(sigma.cycles_by_length().items()):
        c_k = len(cycles)
        if k == 1:
            trace_blocks[str(k)] = {"path": "identity", "points": c_k}
            continue
        block_pts = _flat(cycles)
        wit = approx_isotypic(w, k, c_k)
        _place(g_images, block_pts, wit.g)
        _place(h_images, block_pts, wit.h)
        weighted += Fraction(k * c_k, n) * wit.achieved_distance
        bound += Fraction(k * c_k, n) * wit.bound_distance
        trace_blocks[str(k)] = dict(wit.trace, cycles=c_k)
    g = Permutation(g_images)
    h = Permutation(h_images)
    value = evaluate_word(w, g, h)
    achieved = hamming_distance(sigma, value)
    if achieved != weighted:
        raise AssertionError("blockwise distances do not add up globally")
    return Witness(
        word=w,
        g=g,
        h=h,
        value=value,
        target=sigma,
        achieved_distance=achieved,
        bound_distance=min(bound, Fraction(1)),
        trace={"path": "blockwise", "blocks": trace_blocks},
    )
