"""The array-backed Permutation agrees with the tuple Permutation it replaced.

The `Permutation` class and `hamming_distance` below are that tuple
implementation verbatim; the package's are compared with them on seeded
permutations of n = 0..8 and 10^4 points, and S_n witnesses are compared
with digests of their `to_dict()` JSON taken from the tuple implementation.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

import pytest

from wordmetric import perms
from wordmetric.symmetric import approx
from wordmetric.words import evaluate, parse_word, power

CycleType = Tuple[Tuple[int, int], ...]


# -- the reference, verbatim -------------------------------------------------


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


def hamming_distance(s: Permutation, t: Permutation) -> Fraction:
    """Normalized Hamming distance: fraction of points moved differently."""
    if s.degree != t.degree:
        raise ValueError("permutations act on different point counts")
    n = s.degree
    if n == 0:
        return Fraction(0)
    diff = sum(1 for a, b in zip(s.images, t.images) if a != b)
    return Fraction(diff, n)


# -- comparisons -------------------------------------------------------------

EXPONENTS = [-(10**9) - 7, -3, -1, 0, 1, 2, 6, 10**12 + 5]
SIZES = list(range(9)) + [10**4]


def seeded(n, count, seed):
    """count pairs (package permutation, reference permutation) on n points."""
    rng = random.Random(f"{seed}:{n}")
    pairs = []
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        pairs.append((perms.Permutation(images), Permutation(images)))
    return pairs


def count_for(n):
    return 2 if n > 100 else 6


@pytest.mark.parametrize("n", SIZES)
def test_products_inverses_and_powers(n):
    pairs = seeded(n, count_for(n), "arith")
    for (a, ref_a), (b, ref_b) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (a * b).images == (ref_a * ref_b).images
        assert a.inverse().images == ref_a.inverse().images
        for e in EXPONENTS:
            assert (a**e).images == (ref_a**e).images, e


@pytest.mark.parametrize("n", SIZES)
def test_cycles_conjugates_distances_and_identity(n):
    pairs = seeded(n, count_for(n), "cycles")
    for (a, ref_a), (b, ref_b) in zip(pairs, pairs[1:] + pairs[:1]):
        assert a.cycles() == ref_a.cycles()
        assert a.cycles_by_length() == ref_a.cycles_by_length()
        assert a.cycle_type() == ref_a.cycle_type()
        assert a.conjugate(b).images == ref_a.conjugate(ref_b).images
        assert hamming_distance(ref_a, ref_b) == perms.hamming_distance(a, b)
        assert (a == b) == (ref_a == ref_b)
        assert a == perms.Permutation(ref_a.images) and not a == ref_a.images
        assert hash(a) == hash(ref_a)
        assert repr(a) == repr(ref_a)
        assert a.degree == ref_a.degree
        assert [a(x) for x in range(n)] == [ref_a(x) for x in range(n)]
        assert perms.Permutation.from_cycles(n, ref_a.cycles()) == a
    assert perms.Permutation.identity(n).images == Permutation.identity(n).images


@pytest.mark.parametrize("n", SIZES)
def test_cycle_layouts(n):
    rng = random.Random(f"layout:{n}")
    lengths = []
    while sum(lengths) < n:
        lengths.append(rng.randint(0, n - sum(lengths)))
    want = Permutation.from_cycle_lengths(lengths)
    assert perms.Permutation.from_cycle_lengths(lengths).images == want.images
    assert perms.Permutation.from_cycles(n, want.cycles()).images == want.images


@pytest.mark.parametrize("text", ["1", "x^4", "[x,y]", "[[x,y],x]", "x^-2 y^5", "[x^2,y^3]"])
@pytest.mark.parametrize("n", [1, 5, 8, 10**4])
def test_word_values(text, n):
    (g, ref_g), (h, ref_h) = seeded(n, 2, "words")
    w = parse_word(text)
    assert perms.evaluate_word(w, g, h).images == evaluate(w, ref_g, ref_h).images


# sha256 of json.dumps(approx(word, target).to_dict(), sort_keys=True), first
# 16 hex digits, with the tuple Permutation; the target shuffled by
# random.Random(f"{word}:{n}")
WITNESS_DIGESTS = [
    ('x^2', 1, "840407e412267ef9"),
    ('x^2', 7, "0da512803b5a54be"),
    ('x^2', 300, "80f7e230d786d62c"),
    ('x^2', 2000, "207e10c94dd115de"),
    ('x^-3', 1, "b3d092b95e68ba64"),
    ('x^-3', 7, "5c0efb4f35349dae"),
    ('x^-3', 300, "55178710cc2aba9e"),
    ('x^-3', 2000, "48444f26b5b5da31"),
    ('y^6', 1, "8dd9c43d7c64a882"),
    ('y^6', 7, "35d4d494c8a7c9cc"),
    ('y^6', 300, "d0688aaf3994fce4"),
    ('y^6', 2000, "1f500c8c02d0c8e2"),
    ('[x,y]', 1, "e7b36c9765de085f"),
    ('[x,y]', 7, "30ae195706381047"),
    ('[x,y]', 300, "08816f77458382da"),
    ('[x,y]', 2000, "1d18e8ffd0f8915c"),
    ('[x^2,y^3]', 1, "ff15c3febf7ac42b"),
    ('[x^2,y^3]', 7, "3ddf31d3e33d621e"),
    ('[x^2,y^3]', 300, "ea34bb457ef21796"),
    ('[x^2,y^3]', 2000, "bda36958c44efd8d"),
    ('x^3 y^-1 x^-3 y', 1, "eeaf19426ac6b212"),
    ('x^3 y^-1 x^-3 y', 7, "5ec4c021a702980f"),
    ('x^3 y^-1 x^-3 y', 300, "8567f0356324518d"),
    ('x^3 y^-1 x^-3 y', 2000, "384fa2eb8a92044f"),
    ('[x,y]^2', 1, "9c3e46da17c59ec6"),
    ('[x,y]^2', 7, "d28f5dad242fe79d"),
    ('[x,y]^2', 300, "52542c6f2b504e2c"),
    ('[x,y]^2', 2000, "eaf423c5b45e010a"),
]


@pytest.mark.parametrize("text, n, digest", WITNESS_DIGESTS)
def test_witness_dicts_match_the_reference(text, n, digest):
    images = list(range(n))
    random.Random(f"{text}:{n}").shuffle(images)
    w = parse_word(text)
    record = approx(w, perms.Permutation(images)).to_dict()
    assert hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16] == digest
    # the same witness re-derived with the reference arithmetic
    g, h, target = (Permutation(record[key]) for key in ("g", "h", "target"))
    value = evaluate(w, g, h)
    assert record["value"] == list(value.images)
    assert record["target"] == images
    assert Fraction(record["achieved_distance"]) == hamming_distance(target, value)
