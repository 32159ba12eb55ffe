"""Permutations of {0..n-1} with the right-action convention.

x.(s*t) = (x.s).t, so composing left to right matches word evaluation:
w(g, h) is the product of the letters of w applied in reading order.

Both types hold read-only intp arrays whose last axis lists the images of
0..n-1: Permutation one such row, PermutationStack many.  They share the
kernels below.  Outside input is checked once where it enters; products,
inverses and powers are wrapped unchecked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .words import Word, evaluate, power

CycleType = Tuple[Tuple[int, int], ...]


def _integers(values, ndim: int) -> np.ndarray:
    """Outside input as an intp array of at least ndim axes; non-integer
    entries are refused, not truncated."""
    array = np.array(values, ndmin=ndim)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError("permutation entries must be integers")
    return array.astype(np.intp, copy=False)


def _checked(images, ndim: int) -> np.ndarray:
    """Outside input as an intp array of ndim axes whose rows (the last
    axis) are bijections of 0..n-1."""
    array = _integers(images, ndim)
    if array.ndim != ndim or (np.sort(array, axis=-1) != np.arange(array.shape[-1])).any():
        raise ValueError("every row must be a bijection of 0..n-1")
    return array


def _compose(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Apply s first, then t: (s*t)[..., i] = t[..., s[..., i]], for one row
    or row by row, a single row broadcast against many."""
    if s.shape[-1] != t.shape[-1]:
        raise ValueError("mismatched degrees")
    # one gather on a flat array, about twice as fast as np.take_along_axis
    # on S_7, which builds an index array per axis
    if t.ndim == 1 or len(t) == 1:
        return t.reshape(-1)[s]
    if len(s) == 1:
        return np.take(t, s[0], axis=1)
    row_starts = t.shape[1] * np.arange(len(t))[:, None]
    return t.ravel()[s + row_starts]


def _invert(images: np.ndarray) -> np.ndarray:
    """inv[..., s[..., i]] = i, for one row or row by row."""
    inv = np.empty_like(images)
    # one scatter; np.put_along_axis builds the same index with seven times
    # the overhead on one row of seven points
    rows = (np.arange(len(images))[:, None],) if images.ndim == 2 else ()
    inv[rows + (images,)] = np.arange(images.shape[-1])
    return inv


def _next_on_cycle(lengths: np.ndarray) -> np.ndarray:
    """For cycles of the given positive lengths laid end to end, the
    position that follows each position on its own cycle."""
    ends = np.cumsum(lengths) - 1
    after = np.arange(1, int(lengths.sum()) + 1)
    after[ends] = ends - lengths + 1
    return after


class Permutation:
    """One permutation: the read-only intp array `array` of the images of
    0..n-1.  `images` holds the same as a tuple of Python ints, built on
    first use."""

    __slots__ = ("array", "_images", "_cycles")

    def __init__(self, images: Sequence[int]):
        self._set(_checked(images, 1))

    def _set(self, array: np.ndarray) -> None:
        array.flags.writeable = False
        self.array = array
        self._images: Optional[Tuple[int, ...]] = None
        self._cycles: Optional[List[List[int]]] = None

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Permutation":
        """The permutation of a 1-D array that is already one (no copy)."""
        perm = cls.__new__(cls)
        perm._set(array)
        return perm

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._wrap(np.arange(n))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        cycles = [cyc for cyc in cycles if len(cyc)]
        points = _integers(list(chain.from_iterable(cycles)), 1)
        if points.size and (points.min() < 0 or points.max() >= n):
            raise ValueError("point out of range")
        seen = np.zeros(n, dtype=bool)
        seen[points] = True
        if np.count_nonzero(seen) != len(points):
            raise ValueError("a point lies on two cycles")
        lengths = np.array([len(cyc) for cyc in cycles], dtype=np.intp)
        images = np.arange(n)
        images[points] = points[_next_on_cycle(lengths)]
        return Permutation._wrap(images)

    @staticmethod
    def from_cycle_lengths(lengths: Sequence[int]) -> "Permutation":
        """Cycles of the given lengths, in order, on consecutive points."""
        lengths = _integers(lengths, 1)
        if (lengths < 0).any():
            raise ValueError("cycle lengths must be nonnegative")
        return Permutation._wrap(_next_on_cycle(lengths[lengths > 0]))

    @property
    def degree(self) -> int:
        return len(self.array)

    @property
    def images(self) -> Tuple[int, ...]:
        if self._images is None:
            self._images = tuple(self.array.tolist())
        return self._images

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (right-action composition)."""
        return Permutation._wrap(_compose(self.array, other.array))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_invert(self.array))

    def __pow__(self, n: int) -> "Permutation":
        if n == 0:
            return Permutation.identity(self.degree)
        return power(self if n > 0 else self.inverse(), abs(n), one=None)

    def cycles(self) -> List[List[int]]:
        """Cycle decomposition, fixed points included, cycles sorted by min."""
        if self._cycles is None:
            images = self.array.tolist()
            seen = [False] * self.degree
            cycles = []
            for start in range(self.degree):
                if seen[start]:
                    continue
                cyc = [start]
                seen[start] = True
                x = images[start]
                while x != start:
                    cyc.append(x)
                    seen[x] = True
                    x = images[x]
                cycles.append(cyc)
            self._cycles = cycles
        return self._cycles

    def cycles_by_length(self) -> Dict[int, List[List[int]]]:
        """The cycles grouped by length, each group in the order of cycles()."""
        by_len: Dict[int, List[List[int]]] = {}
        for cyc in self.cycles():
            by_len.setdefault(len(cyc), []).append(cyc)
        return by_len

    def cycle_type(self) -> CycleType:
        """Multiset of (length, count), lengths ascending."""
        return tuple(sorted((k, len(cycles)) for k, cycles in self.cycles_by_length().items()))

    def conjugate(self, relabel: "Permutation") -> "Permutation":
        """The same permutation after renaming points by ``relabel``."""
        return relabel.inverse() * self * relabel

    def __repr__(self):
        return f"Permutation({self.array.tolist()})"


class PermutationStack:
    """Permutations of {0..n-1} held as the rows of one read-only (m, n)
    integer array `images`, with the right action of Permutation row by row:
    (s*t)[k, i] = t[k, s[k, i]].  A stack of one row is broadcast against
    a stack of m rows, so a single left or right factor is never copied.
    The inverse is computed once and kept.
    """

    __slots__ = ("images", "_inverse")

    def __init__(self, images):
        self._set(_checked(images, 2))

    def _set(self, array: np.ndarray) -> None:
        array.flags.writeable = False
        self.images = array
        self._inverse = None

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "PermutationStack":
        """The stack of an array whose rows are already permutations (no copy)."""
        stack = cls.__new__(cls)
        stack._set(array)
        return stack

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    def take(self, index) -> "PermutationStack":
        """The rows at the positions in the integer array index."""
        return PermutationStack._wrap(self.images[index])

    def __mul__(self, other: "PermutationStack") -> "PermutationStack":
        """Apply self first, then other, row by row."""
        return PermutationStack._wrap(_compose(self.images, other.images))

    def inverse(self) -> "PermutationStack":
        if self._inverse is None:
            self._inverse = PermutationStack._wrap(_invert(self.images))
        return self._inverse

    def __pow__(self, n: int) -> "PermutationStack":
        if n == 0:
            identity = np.broadcast_to(np.arange(self.degree), self.images.shape)
            return PermutationStack._wrap(identity.copy())
        return power(self if n > 0 else self.inverse(), abs(n), one=None)

    def cycle_types(self) -> List[CycleType]:
        """Permutation.cycle_type() of every row."""
        m, n = self.images.shape
        # remaining[k, r]: the points of row r on cycles longer than k
        remaining = np.zeros((n + 1, m), dtype=np.intp)
        remaining[0] = n
        longer = np.ones((m, n), dtype=bool)
        orbit = self
        # no cycle is longer than n, so remaining[n] stays 0
        for k in range(1, n):
            longer &= orbit.images != np.arange(n)
            remaining[k] = longer.sum(axis=1)
            orbit = orbit * self
        # rows sorted by cycle type; each row's index among the distinct ones
        order = np.lexsort(remaining)
        ranked = remaining[:, order]
        first = np.ones(m, dtype=bool)
        first[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        index = np.empty(m, dtype=np.intp)
        index[order] = np.cumsum(first) - 1
        # counts[k - 1]: the number of k-cycles of each distinct row
        counts = -np.diff(ranked[:, first], axis=0) // np.arange(1, n + 1)[:, None]
        labels = [
            tuple((k, c) for k, c in enumerate(column, start=1) if c)
            for column in counts.T.tolist()
        ]
        return [labels[i] for i in index.tolist()]


def hamming_distance(s: Permutation, t: Permutation) -> Fraction:
    """Normalized Hamming distance: fraction of points moved differently."""
    if s.degree != t.degree:
        raise ValueError("permutations act on different point counts")
    n = s.degree
    if n == 0:
        return Fraction(0)
    return Fraction(int(np.count_nonzero(s.array != t.array)), n)


def evaluate_word(w: Word, g: Permutation, h: Permutation) -> Permutation:
    if g.degree != h.degree:
        raise ValueError("mismatched degrees")
    return evaluate(w, g, h)


def cycle_notation(s: Permutation) -> str:
    parts = [
        "(" + " ".join(map(str, cyc)) + ")" for cyc in s.cycles() if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


def parse_cycle_notation(text: str, n: int) -> Permutation:
    """Parse e.g. "(0 1)(2 3 4)" into a permutation on n points."""
    cycles = []
    depth_buf: List[str] = []
    inside = False
    for ch in text:
        if ch == "(":
            if inside:
                raise ValueError("nested parenthesis in cycle notation")
            inside = True
            depth_buf = []
        elif ch == ")":
            if not inside:
                raise ValueError("unbalanced parenthesis")
            inside = False
            token = "".join(depth_buf).replace(",", " ").split()
            if token:
                cycles.append([int(t) for t in token])
        elif inside:
            depth_buf.append(ch)
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in cycle notation")
    if inside:
        raise ValueError("unbalanced parenthesis")
    flat = [p for cyc in cycles for p in cyc]
    if len(set(flat)) != len(flat):
        raise ValueError("repeated point in cycle notation")
    if any(p < 0 or p >= n for p in flat):
        raise ValueError("point out of range")
    return Permutation.from_cycles(n, cycles)
