"""Permutations of {0..n-1} with the right-action convention.

x.(s*t) = (x.s).t, so composing left to right matches word evaluation:
w(g, h) is the product of the letters of w applied in reading order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .words import Word, evaluate, power

CycleType = Tuple[Tuple[int, int], ...]


class Permutation:
    __slots__ = ("images", "_cycles")

    def __init__(self, images: Sequence[int]):
        self.images = tuple(images)
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("image array is not a bijection")
        self._cycles = None

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(n))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return Permutation(images)

    @staticmethod
    def from_cycle_lengths(lengths: Sequence[int]) -> "Permutation":
        """Cycles of the given lengths, in order, on consecutive points."""
        starts = accumulate(lengths, initial=0)
        return Permutation.from_cycles(
            sum(lengths), [range(start, start + k) for start, k in zip(starts, lengths)]
        )

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (right-action composition)."""
        oi = other.images
        return Permutation(tuple(oi[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation(inv)

    def __pow__(self, n: int) -> "Permutation":
        if n == 0:
            return Permutation.identity(self.degree)
        return power(self if n > 0 else self.inverse(), abs(n), one=None)

    def cycles(self) -> List[List[int]]:
        """Cycle decomposition, fixed points included, cycles sorted by min."""
        if self._cycles is None:
            seen = [False] * self.degree
            cycles = []
            for start in range(self.degree):
                if seen[start]:
                    continue
                cyc = [start]
                seen[start] = True
                x = self.images[start]
                while x != start:
                    cyc.append(x)
                    seen[x] = True
                    x = self.images[x]
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
        return f"Permutation({list(self.images)})"


class PermutationStack:
    """Permutations of {0..n-1} held as the rows of one read-only (m, n)
    integer array `images`, with the right action of Permutation row by row:
    (s*t)[k, i] = t[k, s[k, i]].  A stack of one row is broadcast against
    a stack of m rows, so a single left or right factor is never copied.
    The inverse is computed once and kept.
    """

    __slots__ = ("images", "_inverse")

    def __init__(self, images):
        array = np.array(images, ndmin=2)
        if array.size and array.dtype.kind not in "iu":
            raise ValueError("permutation entries must be integers")
        array = array.astype(np.intp)
        if array.ndim != 2 or (np.sort(array, axis=1) != np.arange(array.shape[1])).any():
            raise ValueError("every row must be a bijection of 0..n-1")
        self._set(array)

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
        s, t = self.images, other.images
        if s.shape[1] != t.shape[1]:
            raise ValueError("mismatched degrees")
        # one gather on a flat array, about twice as fast as np.take_along_axis
        # on S_7, which builds an index array per axis
        if len(t) == 1:
            return PermutationStack._wrap(t[0][s])
        if len(s) == 1:
            return PermutationStack._wrap(np.take(t, s[0], axis=1))
        row_starts = t.shape[1] * np.arange(len(t))[:, None]
        return PermutationStack._wrap(t.ravel()[s + row_starts])

    def inverse(self) -> "PermutationStack":
        if self._inverse is None:
            inv = np.empty_like(self.images)
            points = np.broadcast_to(np.arange(self.degree), self.images.shape)
            np.put_along_axis(inv, self.images, points, axis=1)
            self._inverse = PermutationStack._wrap(inv)
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
    diff = sum(1 for a, b in zip(s.images, t.images) if a != b)
    return Fraction(diff, n)


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
