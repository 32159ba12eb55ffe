"""Ground-truth word images and exact distances on tiny groups.

Everything here is brute force and is only meant to validate the
constructive modules: word images are conjugation-invariant, so both the
S_n and the GL_d(q) oracle run one generator over conjugacy-class
representatives and the other over the whole group, then record class
labels (cycle types in S_n, invariant-factor coefficient lists in GL_d(q)).

Each group is cached as one class table: a stack whose rows are in
increasing base code, with the class id of each row, given when the row is
first classified.  A word value's class is a lookup: its code's position
among the group's codes, then that row's id.  Both oracles share the table's
image loop and its positions of the elements of attained classes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

import numpy as np

from .ffield import Field
from .glapprox import MatrixFq, MatrixStack, _gl_order, rank_distance
from .perms import Permutation, PermutationStack
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


class _ClassTable:
    """A group as one stack whose rows are in increasing base code, with the
    class id of each row: -1 until the row is first classified, so that each
    is classified at most once per group.  classify maps a stack of rows to
    an iterable of their class labels."""

    def __init__(self, group, base: int, classify: Callable):
        self.group = group
        self.base = base
        self.codes = _codes(group.images, base)
        self.ids = np.full(len(self.codes), -1)
        self.labels: Dict = {}  # class -> id, in id order
        self._classify = classify

    def ids_at(self, found: np.ndarray) -> np.ndarray:
        """The class ids of the rows at the distinct positions found."""
        new = found[self.ids[found] < 0]
        if len(new):
            for i, label in zip(new.tolist(), self._classify(self.group.take(new))):
                self.ids[i] = self.labels.setdefault(label, len(self.labels))
        return self.ids[found]

    def image(self, w: Word, pairs: Optional[Iterable] = None) -> FrozenSet:
        """The classes of the values of w on the stacks (g, h) of pairs: by
        default g over the first element of each class and h over the group."""
        if pairs is None:
            ids = self.ids_at(np.arange(len(self.codes)))
            first = np.full(len(self.labels), len(ids))
            np.minimum.at(first, ids, np.arange(len(ids)))
            pairs = ((self.group.take([i]), self.group) for i in first.tolist())
        is_value = np.zeros(len(self.codes), dtype=bool)
        for g, h in pairs:
            is_value[_positions(self.codes, evaluate(w, g, h).images, self.base)] = True
        # np.unique is avoided: its first call imports numpy.ma, about 15 ms
        ids = self.ids_at(np.flatnonzero(is_value))
        attained = np.zeros(len(self.labels), dtype=bool)
        attained[ids] = True
        return frozenset(itertools.compress(self.labels, attained))

    def members(self, classes: FrozenSet) -> np.ndarray:
        """The positions of the elements whose class is in classes."""
        ids = self.ids_at(np.arange(len(self.codes)))
        attained = np.array([label in classes for label in self.labels], dtype=bool)
        return np.flatnonzero(attained[ids])


# S_n for n <= 8 has at most 40320 elements: every n is kept
@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> _ClassTable:
    """All of S_n in itertools.permutations order, classified by cycle type."""
    group = PermutationStack(list(itertools.permutations(range(n))))
    return _ClassTable(group, n, PermutationStack.cycle_types)


def word_image_sym(w: Word, n: int) -> ImageReport:
    """Exact set of cycle types attained by w on S_n, for n <= 8.

    w(aga^-1, aha^-1) = a w(g,h) a^-1, so running g over one
    representative per cycle type and h over all of S_n sees every
    attained cycle type.
    """
    if n < 1 or n > SYM_IMAGE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_IMAGE_MAX_N}")
    return ImageReport(group=f"S_{n}", classes=_symmetric_group(n).image(w), exhaustive=True)


def exact_distance_sym(w: Word, sigma: Permutation) -> Fraction:
    """min d_H(sigma, tau) over the full image of w on S_n, for n <= 7."""
    n = sigma.degree
    if n < 1 or n > SYM_DISTANCE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_DISTANCE_MAX_N}")
    classes = word_image_sym(w, n).classes
    table = _symmetric_group(n)
    in_image = table.group.images[table.members(classes)]
    return Fraction(int((in_image != sigma.images).sum(axis=1).min()), n)


# one group at a time: GL_d(q) may have 10^6 elements
@lru_cache(maxsize=1)
def _gl_classes(field: Field, d: int) -> _ClassTable:
    """All of GL_d(q) in the itertools.product order of its entries,
    classified by invariant factors."""
    group = MatrixStack.general_linear(field, d)
    return _ClassTable(group, field.q, lambda rows: map(_matrix_class, rows))


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
    exhaustive = order * order <= MATRIX_EXHAUSTIVE_LIMIT
    pairs = None  # one element per class against the group
    if not exhaustive:
        rng = random.Random(seed)
        positions = range(order)
        # g then h for each pair, as rng.choice(elements) drew them
        draws = (rng.choice(positions) for _ in range(2 * budget))
        drawn = np.fromiter(draws, dtype=np.intp, count=2 * budget).reshape(budget, 2)
        chunks = (drawn[start : start + order] for start in range(0, budget, order))
        group = table.group
        pairs = ((group.take(chunk[:, 0]), group.take(chunk[:, 1])) for chunk in chunks)
    return ImageReport(
        group=f"GL_{d}({field.q})",
        classes=table.image(w, pairs),
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
    best = Fraction(1)
    for i in table.members(report.classes).tolist():
        best = min(best, rank_distance(target, table.group[i]))
        if best == 0:
            break
    return best
