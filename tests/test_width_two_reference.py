"""width_two_shift, which reduces U1 once and ends a try as soon as its rank
can no longer reach n - 1, returns the same sigma as the search it replaced."""

import itertools
import random
from fractions import Fraction
from typing import List, Sequence

import pytest

from wordmetric.cayley import width_two_shift
from wordmetric.perms import Permutation


def _row_reduce_pivot_rows(rows: Sequence[Sequence[Fraction]]) -> List[int]:
    """Indices of an earliest-index maximal independent set of rows."""
    basis: List[Sequence[Fraction]] = []
    pivots: List[int] = []  # column index of each basis vector's pivot
    selected = []
    for idx, vec in enumerate(rows):
        for bvec, pcol in zip(basis, pivots):
            if vec[pcol]:
                factor = vec[pcol] / bvec[pcol]
                vec = [a - factor * b for a, b in zip(vec, bvec)]
        pcol = next((j for j, e in enumerate(vec) if e), None)
        if pcol is not None:
            basis.append(vec)
            pivots.append(pcol)
            selected.append(idx)
    return selected


def _permute_vector(vec: Sequence[Fraction], sigma: Permutation) -> List[Fraction]:
    out = [Fraction(0)] * len(vec)
    for i, val in enumerate(vec):
        out[sigma(i)] = Fraction(val)
    return out


def reference_width_two_shift(
    u1: Sequence[Sequence[Fraction]],
    u2: Sequence[Sequence[Fraction]],
    n: int,
    seed: int = 0,
) -> Permutation:
    """width_two_shift as it was, reducing all of U1 + U2.sigma per try, verbatim."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    u1 = [[Fraction(e) for e in vec] for vec in u1]
    u2 = [[Fraction(e) for e in vec] for vec in u2]
    for vec in itertools.chain(u1, u2):
        if len(vec) != n:
            raise ValueError("vector length differs from n")
        if sum(vec) != 0:
            raise ValueError("vectors must lie in the zero-sum hyperplane")
    d1 = len(_row_reduce_pivot_rows(u1))
    d2 = len(_row_reduce_pivot_rows(u2))
    if d1 + d2 < n - 1:
        raise ValueError("dimensions too small: no shift can span")

    def works(sigma: Permutation) -> bool:
        combined = list(u1) + [_permute_vector(v, sigma) for v in u2]
        return len(_row_reduce_pivot_rows(combined)) == n - 1

    rng = random.Random(seed)
    for _ in range(2000):
        images = list(range(n))
        rng.shuffle(images)
        sigma = Permutation(images)
        if works(sigma):
            return sigma
    if n <= 8:
        for images in itertools.permutations(range(n)):
            sigma = Permutation(images)
            if works(sigma):
                return sigma
    raise AssertionError("no spanning shift found despite the dimension bound")


def path_vectors(rng: random.Random, n: int, d: int) -> List[List[Fraction]]:
    """d independent zero-sum vectors: edge differences along a random path."""
    order = list(range(n))
    rng.shuffle(order)
    out = []
    for k in range(d):
        vec = [Fraction(0)] * n
        vec[order[k]] = Fraction(1)
        vec[order[k + 1]] = Fraction(-1)
        out.append(vec)
    return out


def dense_vectors(rng: random.Random, n: int, d: int) -> List[List[Fraction]]:
    """d zero-sum vectors with small random entries (possibly dependent)."""
    out = []
    for _ in range(d):
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)]
        out.append(vec + [-sum(vec)])
    return out


def with_dependent_rows(rng: random.Random, vectors: List[List[Fraction]], extra: int):
    """vectors with `extra` rational combinations of them inserted at random places."""
    out = [list(v) for v in vectors]
    for _ in range(extra if vectors else 0):
        a, b = rng.choice(vectors), rng.choice(vectors)
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        out.insert(rng.randrange(len(out) + 1), [x + c * y for x, y in zip(a, b)])
    return out


@pytest.mark.parametrize("seed", range(12))
def test_sigma_matches_on_the_split_d1_plus_d2_equal_n_minus_1(seed):
    # the shape of the benchmark's instances: d1 = (n - 2) // 2, d2 = n - 1 - d1
    rng = random.Random(seed)
    for n in (7, 8, 8, 9, 9, 9):
        d1 = (n - 2) // 2
        u1, u2 = path_vectors(rng, n, d1), path_vectors(rng, n, n - 1 - d1)
        s = rng.randrange(1000)
        assert width_two_shift(u1, u2, n, seed=s) == reference_width_two_shift(u1, u2, n, seed=s)


@pytest.mark.parametrize("seed", range(8))
def test_sigma_matches_when_d1_plus_d2_exceeds_n_minus_1(seed):
    rng = random.Random(100 + seed)
    for n in (3, 5, 6, 8, 10):
        d1 = rng.randint(0, n - 1)
        d2 = min(n - 1, n - 1 - d1 + rng.randint(1, 3))
        make = path_vectors if rng.random() < 0.5 else dense_vectors
        u1 = with_dependent_rows(rng, make(rng, n, d1), rng.randint(0, 2))
        u2 = with_dependent_rows(rng, make(rng, n, d2), rng.randint(0, 2))
        s = rng.randrange(1000)
        assert width_two_shift(u1, u2, n, seed=s) == reference_width_two_shift(u1, u2, n, seed=s)


def test_sigma_matches_on_inputs_the_search_rejects():
    rng = random.Random(5)
    u = path_vectors(rng, 6, 2)
    for search in (width_two_shift, reference_width_two_shift):
        with pytest.raises(ValueError, match="dimensions too small"):
            search(u, u, 6)
        with pytest.raises(ValueError, match="zero-sum"):
            search([[Fraction(1)] + [Fraction(0)] * 5], u, 6)


class Unshuffled(random.Random):
    """A generator whose shuffles keep the order, so that every random try is
    the identity."""

    def shuffle(self, x):
        pass


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (7, 3), (8, 4)])
def test_sigma_matches_in_the_exhaustive_fallback(monkeypatch, n, d):
    # U1 = U2 of dimension d < n - 1: the identity never spans, so every
    # random try fails and the search runs through S_n in order
    monkeypatch.setattr(random, "Random", Unshuffled)
    u = path_vectors(random.Random(n), n, d)
    sigma = width_two_shift(u, u, n)
    assert sigma != Permutation.identity(n)
    assert sigma == reference_width_two_shift(u, u, n)


def test_no_fallback_past_eight_points(monkeypatch):
    monkeypatch.setattr(random, "Random", Unshuffled)
    u = path_vectors(random.Random(9), 9, 4)
    for search in (width_two_shift, reference_width_two_shift):
        with pytest.raises(AssertionError, match="no spanning shift"):
            search(u, u, 9)
