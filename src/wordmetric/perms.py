"""Permutations of {0..n-1} with the right-action convention.

x.(s*t) = (x.s).t, so composing left to right matches word evaluation:
w(g, h) is the product of the letters of w applied in reading order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from .words import Word, evaluate, power


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

    def cycle_type(self) -> Tuple[Tuple[int, int], ...]:
        """Multiset of (length, count), lengths ascending."""
        return tuple(sorted((k, len(cycles)) for k, cycles in self.cycles_by_length().items()))

    def conjugate(self, relabel: "Permutation") -> "Permutation":
        """The same permutation after renaming points by ``relabel``."""
        return relabel.inverse() * self * relabel

    def __repr__(self):
        return f"Permutation({list(self.images)})"


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
