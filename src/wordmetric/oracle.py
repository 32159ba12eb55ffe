"""Ground-truth word images and exact distances on tiny groups.

Everything here is brute force and is only meant to validate the
constructive modules: word images are conjugation-invariant, so both the
S_n and the GL_d(q) oracle run one generator over conjugacy-class
representatives and the other over the whole group, then record class
labels (cycle types in S_n, invariant-factor coefficient lists in GL_d(q)).

Each group is cached as one stack whose rows are in increasing base code,
with a class id per row, so a word value's class is a lookup: its code's
position among the group's codes, then that row's id.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

import numpy as np

from .ffield import Field
from .glapprox import MatrixFq, MatrixStack, _gl_order, rank_distance
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


def _codes(rows: np.ndarray, base: int) -> np.ndarray:
    """The base-`base` code of each row of an (m, ...) integer array, its
    entries read in order as digits, the first the most significant."""
    digits = rows.reshape(len(rows), -1)
    return digits @ base ** np.arange(digits.shape[1] - 1, -1, -1)


def _positions(codes: np.ndarray, rows: np.ndarray, base: int) -> np.ndarray:
    """The index of each row of rows among the rows of a group whose codes,
    sorted, are `codes`."""
    wanted = _codes(rows, base)
    found = np.searchsorted(codes, wanted)
    if (codes.take(found, mode="clip") != wanted).any():
        raise AssertionError("a word value is not an element of the group")
    return found


# S_n for n <= 8 has at most 40320 elements: every n is kept
@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> Tuple[PermutationStack, Tuple[CycleType, ...]]:
    """All of S_n as one stack, rows in itertools.permutations order, and
    the cycle type of each row."""
    group = PermutationStack(list(itertools.permutations(range(n))))
    return group, tuple(group.cycle_types())


@lru_cache(maxsize=None)
def _symmetric_classes(n: int) -> Tuple[np.ndarray, np.ndarray, Tuple[CycleType, ...]]:
    """The base-n codes of the rows of _symmetric_group(n), which are
    increasing; the class id of each row; and the cycle type of each id."""
    group, labels = _symmetric_group(n)
    index: Dict[CycleType, int] = {}
    ids = np.array([index.setdefault(label, len(index)) for label in labels])
    return _codes(group.images, n), ids, tuple(index)


def word_image_sym(w: Word, n: int) -> ImageReport:
    """Exact set of cycle types attained by w on S_n, for n <= 8.

    w(aga^-1, aha^-1) = a w(g,h) a^-1, so running g over one
    representative per cycle type and h over all of S_n sees every
    attained cycle type.
    """
    if n < 1 or n > SYM_IMAGE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_IMAGE_MAX_N}")
    group, _ = _symmetric_group(n)
    codes, ids, types = _symmetric_classes(n)
    attained = np.zeros(len(types), dtype=bool)
    for partition in _partitions(n):
        g = PermutationStack(Permutation.from_cycle_lengths(partition).images)
        attained[ids[_positions(codes, evaluate(w, g, group).images, n)]] = True
    classes = frozenset(itertools.compress(types, attained))
    return ImageReport(group=f"S_{n}", classes=classes, exhaustive=True)


def exact_distance_sym(w: Word, sigma: Permutation) -> Fraction:
    """min d_H(sigma, tau) over the full image of w on S_n, for n <= 7."""
    n = sigma.degree
    if n < 1 or n > SYM_DISTANCE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_DISTANCE_MAX_N}")
    attained = word_image_sym(w, n).classes
    group, _ = _symmetric_group(n)
    _, ids, types = _symmetric_classes(n)
    in_image = np.array([label in attained for label in types])[ids]
    moved = (group.images[in_image] != sigma.images).sum(axis=1)
    return Fraction(int(moved.min()), n)


class _GLClasses:
    """GL_d(q) as one stack in the itertools.product order of its entries,
    so in increasing base-q code, with the class id of each element: -1
    until the element is first classified, so that each is classified at
    most once per group."""

    def __init__(self, field: Field, d: int):
        self.group = MatrixStack.general_linear(field, d)
        self.codes = _codes(self.group.array, field.q)
        self.ids = np.full(len(self.codes), -1)
        self.labels: Dict[MatrixClass, int] = {}  # class -> id, in id order

    def ids_at(self, found: np.ndarray) -> np.ndarray:
        """The class ids of the elements at the positions found."""
        for i in dict.fromkeys(found[self.ids[found] < 0].tolist()):
            self.ids[i] = self.labels.setdefault(_matrix_class(self.group[i]), len(self.labels))
        return self.ids[found]

    def ids_of(self, values: MatrixStack) -> np.ndarray:
        """The class id of each matrix of values."""
        return self.ids_at(_positions(self.codes, values.array, self.group.field.q))


# one group at a time: GL_d(q) may have 10^6 elements
@lru_cache(maxsize=1)
def _gl_classes(field: Field, d: int) -> _GLClasses:
    return _GLClasses(field, d)


@lru_cache(maxsize=1)
def _all_gl_elements(field: Field, d: int) -> Tuple[MatrixFq, ...]:
    """The elements of _gl_classes(field, d) as MatrixFq, in the same order,
    so sorted by rows."""
    group = _gl_classes(field, d).group
    return tuple(group[i] for i in range(len(group)))


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
    per class and h over G; otherwise a seeded sample of `budget` pairs,
    evaluated on stacks of at most |G| pairs.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    order = _gl_order(d, field.q)
    if order > MATRIX_GROUP_LIMIT:
        raise ValueError(f"|GL_{d}({field.q})| = {order} exceeds {MATRIX_GROUP_LIMIT}")
    table = _gl_classes(field, d)
    group = table.group
    exhaustive = order * order <= MATRIX_EXHAUSTIVE_LIMIT
    if exhaustive:
        first = {}  # class id -> its first element
        for i, c in enumerate(table.ids_at(np.arange(order)).tolist()):
            first.setdefault(c, i)
        pairs = ((group.take([i]), group) for i in first.values())
    else:
        rng = random.Random(seed)
        positions = range(order)
        # g then h for each pair, as rng.choice(elements) drew them
        draws = (rng.choice(positions) for _ in range(2 * budget))
        drawn = np.fromiter(draws, dtype=np.intp, count=2 * budget).reshape(budget, 2)
        chunks = (drawn[start : start + order] for start in range(0, budget, order))
        pairs = ((group.take(chunk[:, 0]), group.take(chunk[:, 1])) for chunk in chunks)
    found = {i for g, h in pairs for i in table.ids_of(evaluate(w, g, h)).tolist()}
    labels = list(table.labels)
    return ImageReport(
        group=f"GL_{d}({field.q})",
        classes=frozenset(labels[i] for i in found),
        exhaustive=exhaustive,
        seed=None if exhaustive else seed,
    )


def exact_distance_matrix(
    w: Word, target: MatrixFq, report: Optional[ImageReport] = None
) -> Fraction:
    """min d_rk(target, m) over the elements m of an attained class.

    On a sampled report this is an upper bound: a class the sample missed
    may hold a nearer element. Pass a precomputed report when ranging over
    many targets; the image enumeration dominates the cost otherwise.
    """
    d, field = target.n, target.field
    if target.ncols != d:
        raise ValueError(f"target must be square, got {d}x{target.ncols}")
    if report is None:
        report = word_image_matrix(w, d, field)
    elif report.group != f"GL_{d}({field.q})":
        raise ValueError(f"a report on {report.group} cannot place a target in GL_{d}({field.q})")
    table = _gl_classes(field, d)
    ids = table.ids_at(np.arange(len(table.codes)))
    in_image = np.array([label in report.classes for label in table.labels])
    elements = _all_gl_elements(field, d)
    best = Fraction(1)
    for i in np.flatnonzero(in_image[ids]).tolist():
        best = min(best, rank_distance(target, elements[i]))
        if best == 0:
            break
    return best
