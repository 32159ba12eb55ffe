"""Ground-truth word images and exact distances on tiny groups.

Everything here is brute force and is only meant to validate the
constructive modules: word images are conjugation-invariant, so both the
S_n and the GL_d(q) oracle run one generator over conjugacy-class
representatives and the other over the whole group, then record class
labels (cycle types in S_n, invariant-factor coefficient lists in GL_d(q)).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterator, Optional, Tuple

import numpy as np

from .ffield import Field
from .glapprox import MatrixFq, evaluate_word_matrix, rank_distance
from .perms import CycleType, Permutation, PermutationStack
from .words import Word, evaluate

SYM_IMAGE_MAX_N = 8
SYM_DISTANCE_MAX_N = 7
MATRIX_GROUP_LIMIT = 10**6
MATRIX_EXHAUSTIVE_LIMIT = 10**8

MatrixClass = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class ImageReport:
    """Set of conjugacy-class labels attained by a word map."""

    group: str
    classes: FrozenSet
    exhaustive: bool
    seed: Optional[int] = None

    def __contains__(self, label) -> bool:
        return label in self.classes

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "group": self.group,
            "classes": sorted(str(c) for c in self.classes),
            "exhaustive": self.exhaustive,
            "seed": self.seed,
        }


def _partitions(n: int, largest: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


# S_n for n <= 8 has at most 40320 elements: every n is kept
@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> Tuple[PermutationStack, Tuple[CycleType, ...]]:
    """All of S_n as one stack, rows in itertools.permutations order, and
    the cycle type of each row."""
    group = PermutationStack(list(itertools.permutations(range(n))))
    return group, tuple(group.cycle_types())


def word_image_sym(w: Word, n: int) -> ImageReport:
    """Exact set of cycle types attained by w on S_n, for n <= 8.

    w(aga^-1, aha^-1) = a w(g,h) a^-1, so running g over one
    representative per cycle type and h over all of S_n sees every
    attained cycle type.
    """
    if n < 1 or n > SYM_IMAGE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_IMAGE_MAX_N}")
    group, _ = _symmetric_group(n)
    classes = set()
    for partition in _partitions(n):
        g = PermutationStack(Permutation.from_cycle_lengths(partition).images)
        classes.update(evaluate(w, g, group).cycle_types())
    return ImageReport(group=f"S_{n}", classes=frozenset(classes), exhaustive=True)


def exact_distance_sym(w: Word, sigma: Permutation) -> Fraction:
    """min d_H(sigma, tau) over the full image of w on S_n, for n <= 7."""
    n = sigma.degree
    if n < 1 or n > SYM_DISTANCE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_DISTANCE_MAX_N}")
    attained = word_image_sym(w, n).classes
    group, labels = _symmetric_group(n)
    in_image = np.fromiter((label in attained for label in labels), dtype=bool, count=len(labels))
    moved = (group.images[in_image] != sigma.images).sum(axis=1)
    return Fraction(int(moved.min()), n)


def _gl_order(d: int, q: int) -> int:
    order = 1
    for i in range(d):
        order *= q**d - q**i
    return order


# one group at a time: GL_d(q) may have 10^6 elements. They come sorted by rows
# and keep their inverses and invariant factors, so each is classified once per group
@lru_cache(maxsize=1)
def _all_gl_elements(field: Field, d: int) -> Tuple[MatrixFq, ...]:
    matrices = (
        MatrixFq(field, [entries[i * d : (i + 1) * d] for i in range(d)])
        for entries in itertools.product(range(field.q), repeat=d * d)
    )
    return tuple(m for m in matrices if m.is_invertible())


def _matrix_class(m: MatrixFq) -> MatrixClass:
    return tuple(tuple(f.coeffs) for f in m.invariant_factors())


def word_image_matrix(
    w: Word,
    d: int,
    field: Field,
    budget: int = 200_000,
    seed: int = 0,
) -> ImageReport:
    """Attained invariant-factor lists of w on GL_d(q), |GL_d(q)| <= 10^6.

    Exhaustive when |G|^2 fits in the global budget, with g over one element
    per class and h over G; otherwise a seeded sample of `budget` pairs.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    order = _gl_order(d, field.q)
    if order > MATRIX_GROUP_LIMIT:
        raise ValueError(f"|GL_{d}({field.q})| = {order} exceeds {MATRIX_GROUP_LIMIT}")
    elements = _all_gl_elements(field, d)
    group = f"GL_{d}({field.q})"
    exhaustive = order * order <= MATRIX_EXHAUSTIVE_LIMIT
    if exhaustive:
        representatives = {}
        for m in elements:
            representatives.setdefault(_matrix_class(m), m)
        pairs = ((g, h) for g in representatives.values() for h in elements)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(budget))
    values = {evaluate_word_matrix(w, g, h) for g, h in pairs}
    # a value takes the class of the equal cached element, found by its rows
    found = (bisect.bisect_left(elements, m.rows, key=lambda e: e.rows) for m in values)
    classes = frozenset(_matrix_class(elements[i]) for i in found)
    return ImageReport(
        group=group, classes=classes, exhaustive=exhaustive, seed=None if exhaustive else seed
    )


def exact_distance_matrix(
    w: Word, target: MatrixFq, report: Optional[ImageReport] = None
) -> Fraction:
    """min d_rk(target, m) over the cached elements m of an attained class.

    Pass a precomputed report when ranging over many targets; the image
    enumeration dominates the cost otherwise.
    """
    d, field = target.n, target.field
    if target.ncols != d:
        raise ValueError(f"target must be square, got {d}x{target.ncols}")
    if report is None:
        report = word_image_matrix(w, d, field)
    elif report.group != f"GL_{d}({field.q})":
        raise ValueError(f"a report on {report.group} cannot place a target in GL_{d}({field.q})")
    best = Fraction(1)
    for m in _all_gl_elements(field, d):
        if _matrix_class(m) in report.classes:
            best = min(best, rank_distance(target, m))
            if best == 0:
                break
    return best
