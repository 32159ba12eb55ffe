"""Cayley 2-complex of a finite quotient, its defect, and witness solvers.

For a finite group G with marked generator images g, h and a relation word
w with w(g, h) = 1, the complex has G as vertices, edges (v, x) and (v, y)
by right translation, and one 2-cell per vertex glued along the w-loop.
The integer matrix of the second boundary map has one row per cell and one
column per edge; its corank d = N - rank bounds how many diagonal entries
of a monomial-matrix witness can fail to match a prescribed target.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .fox import fox_derivative
from .perms import Permutation, evaluate_word
from .words import Word


@dataclass(frozen=True)
class FiniteQuotient:
    """A finite group given by right-translation permutations of x and y.

    Vertices are {0..N-1} with the identity at index 0; g and h are the
    right translations by the images of the generators.
    """

    g: Permutation
    h: Permutation

    def __post_init__(self):
        if self.g.degree != self.h.degree:
            raise ValueError("generator permutations act on different sets")
        if self.g.degree < 1:
            raise ValueError("a group needs at least the identity, vertex 0")
        # the marked generators must generate: orbit of the identity is all
        seen = {0}
        frontier = [0]
        moves = (self.g, self.g.inverse(), self.h, self.h.inverse())
        while frontier:
            v = frontier.pop()
            for s in moves:
                u = s(v)
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != self.g.degree:
            raise ValueError("generator images do not generate the group")

    @property
    def order(self) -> int:
        return self.g.degree

    def element(self, t: Word) -> Permutation:
        return evaluate_word(t, self.g, self.h)

    @staticmethod
    def cyclic(n: int, gx: int = 1, gy: int = 0) -> "FiniteQuotient":
        """Z/n with x, y acting as shifts by gx, gy."""
        g = Permutation([(v + gx) % n for v in range(n)])
        h = Permutation([(v + gy) % n for v in range(n)])
        return FiniteQuotient(g=g, h=h)

    @staticmethod
    def load(text: str) -> "FiniteQuotient":
        """Plain text: N on the first line, then the two image arrays."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 3:
            raise ValueError("expected three lines: N, x-images, y-images")
        n = int(lines[0])
        g = Permutation([int(t) for t in lines[1].split()])
        h = Permutation([int(t) for t in lines[2].split()])
        if g.degree != n or h.degree != n:
            raise ValueError("image arrays do not have length N")
        return FiniteQuotient(g=g, h=h)


@dataclass(frozen=True)
class D2Matrix:
    """Rows: 2-cells c_v; columns: edges (v,x) for v < N, then (v,y)."""

    word: Word
    quotient: FiniteQuotient
    rows: Tuple[Tuple[int, ...], ...]

    @property
    def n_cells(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in row) for row in self.rows)


def _d2_loop_walk(w: Word, q: FiniteQuotient) -> List[List[int]]:
    n = q.order
    gens = {"x": (q.g, 0), "y": (q.h, n)}
    rows = []
    for v in range(n):
        row = [0] * (2 * n)
        cur = v
        for gen, step in w.unit_letters():
            perm, base = gens[gen]
            if step == 1:
                row[base + cur] += 1
                cur = perm(cur)
            else:
                cur = perm.inverse()(cur)
                row[base + cur] -= 1
        if cur != v:
            raise AssertionError("loop did not close")
        rows.append(row)
    return rows


def _d2_fox(w: Word, q: FiniteQuotient) -> List[List[int]]:
    n = q.order
    rows = [[0] * (2 * n) for _ in range(n)]
    for gen, base in (("x", 0), ("y", n)):
        for t, c in fox_derivative(w, gen).terms.items():
            perm = q.element(t)
            for v in range(n):
                rows[v][base + perm(v)] += c
    return rows


def build_d2(w: Word, q: FiniteQuotient) -> D2Matrix:
    """Boundary matrix, built by loop-walking and by pushing forward the
    Fox derivatives; the two constructions are asserted equal."""
    if q.element(w) != Permutation.identity(q.order):
        raise ValueError("w does not map to the identity in the quotient")
    walked = _d2_loop_walk(w, q)
    pushed = _d2_fox(w, q)
    if walked != pushed:
        raise AssertionError("loop-walk and Fox pushforward disagree")
    return D2Matrix(word=w, quotient=q, rows=tuple(tuple(r) for r in walked))


def _extend_echelon(
    basis: List[Sequence[Fraction]], pivots: List[int], vec: Sequence[Fraction]
) -> bool:
    """Reduce vec by the echelon basis, whose pivot columns are pivots, and
    append the rest with its first nonzero column if it is not zero."""
    for bvec, pcol in zip(basis, pivots):
        if vec[pcol]:
            factor = vec[pcol] / bvec[pcol]
            vec = [a - factor * b if b else a for a, b in zip(vec, bvec)]
    pcol = next((j for j, e in enumerate(vec) if e), None)
    if pcol is None:
        return False
    basis.append(vec)
    pivots.append(pcol)
    return True


def _row_reduce_pivot_rows(rows: Sequence[Sequence[Fraction]]) -> List[int]:
    """Indices of an earliest-index maximal independent set of rows."""
    basis: List[Sequence[Fraction]] = []
    pivots: List[int] = []  # column index of each basis vector's pivot
    return [idx for idx, vec in enumerate(rows) if _extend_echelon(basis, pivots, vec)]


@dataclass(frozen=True)
class CohomReport:
    n_cells: int
    rank: int
    pivot_cells: Tuple[int, ...]

    @property
    def defect(self) -> int:
        return self.n_cells - self.rank

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.defect, self.n_cells)


def cohomology_defect(m: D2Matrix) -> CohomReport:
    pivots = _row_reduce_pivot_rows([[Fraction(e) for e in row] for row in m.rows])
    return CohomReport(
        n_cells=m.n_cells, rank=len(pivots), pivot_cells=tuple(pivots)
    )


@dataclass
class MonomialWitness:
    m_g: np.ndarray
    m_h: np.ndarray
    diagonal: np.ndarray
    matched: int
    defect: int


def _monomial(phases: np.ndarray, perm: Permutation) -> np.ndarray:
    n = perm.degree
    m = np.zeros((n, n), dtype=complex)
    for v in range(n):
        m[v, perm(v)] = phases[v]
    return m


def _evaluate_unitary(w: Word, m_g: np.ndarray, m_h: np.ndarray) -> np.ndarray:
    value = np.eye(m_g.shape[0], dtype=complex)
    for gen, step in w.unit_letters():
        m = m_g if gen == "x" else m_h
        value = value @ (m if step == 1 else m.conj().T)
    return value


def monomial_witness(
    w: Word, q: FiniteQuotient, target: Sequence[complex]
) -> MonomialWitness:
    """Monomial unitaries whose word value is diagonal and matches the
    target phases outside at most defect-many entries.

    For w in the commutator subgroup the target must have determinant one;
    its angle sheet is then shifted onto the zero-sum hyperplane, which is
    exactly what makes the leftover entries come out right when the only
    row dependency is the all-rows sum.
    """
    n = q.order
    target = np.asarray(target, dtype=complex)
    if target.shape != (n,):
        raise ValueError("target must list one phase per group element")
    if not np.allclose(np.abs(target), 1.0, atol=1e-12):
        raise ValueError("target entries must have unit modulus")
    mat = build_d2(w, q)
    report = cohomology_defect(mat)
    beta = np.angle(target)
    in_commutator = w.abelianization() == (0, 0)
    if in_commutator:
        total = beta.sum()
        if abs(cmath.exp(1j * total) - 1) > 1e-8:
            raise ValueError("target determinant must be 1 for this word")
        # absorb the whole angle surplus (a multiple of 2*pi) in one entry
        beta[0] -= total
    a = np.array(
        [mat.rows[i] for i in report.pivot_cells], dtype=float
    ).reshape(len(report.pivot_cells), 2 * n)
    b = beta[list(report.pivot_cells)]
    if len(report.pivot_cells):
        alpha, *_ = np.linalg.lstsq(a, b, rcond=None)
    else:
        alpha = np.zeros(2 * n)
    m_g = _monomial(np.exp(1j * alpha[:n]), q.g)
    m_h = _monomial(np.exp(1j * alpha[n:]), q.h)
    value = _evaluate_unitary(w, m_g, m_h)
    diag = np.diag(value).copy()
    off = value - np.diag(diag)
    if np.max(np.abs(off)) > 1e-9:
        raise AssertionError("word value of monomial matrices is not diagonal")
    matched = int(np.sum(np.abs(diag - target) <= 1e-9))
    if matched < n - report.defect:
        raise AssertionError("fewer matches than the defect bound allows")
    return MonomialWitness(
        m_g=m_g, m_h=m_h, diagonal=diag, matched=matched, defect=report.defect
    )


# -- exact integer linear algebra --------------------------------------------


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """(U, D, V) with U*M*V = D diagonal, U and V unimodular."""
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(rows, cols):
        # smallest-magnitude nonzero pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j]:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain to hold
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


def smith_solve(
    m: Sequence[Sequence[int]],
    target: Sequence,
    one,
    mul: Callable,
    pw: Callable,
    root: Callable,
) -> Tuple[Optional[list], Tuple[int, ...]]:
    """Solve prod_j xi_j^M[i][j] = target_i in an abelian group written
    multiplicatively, through U*M*V = D.

    pw(a, e) is the e-th power for any integer e; root(d, b) returns some
    eta with eta^d = b for d > 0, or None.  A zero divisor leaves eta free,
    so its row needs b = one.  Returns (xi or None, divisors).
    """
    u, d, v = smith_normal_form(m)
    divisors = tuple(d[i][i] for i in range(min(len(d), len(v))))

    def combine(exponents, values):
        factors = [pw(a, e) for e, a in zip(exponents, values) if e and a != one]
        return reduce(mul, factors) if factors else one

    eta = []
    for i, row in enumerate(u):
        di = divisors[i] if i < len(divisors) else 0
        b = combine(row, target)
        eta.append((one if b == one else None) if di == 0 else root(di, b))
        if eta[-1] is None:
            return None, divisors
    xi = [combine(row, eta) for row in v]
    for row, t in zip(m, target):
        if combine(row, xi) != t:
            raise AssertionError("Smith-form solve verification failed")
    return xi, divisors


@dataclass(frozen=True)
class AbelianSolveReport:
    solvable: bool
    solution: Optional[Tuple[int, ...]]
    multiplier: int
    divisors: Tuple[int, ...]


def solve_in_abelian(
    m: Sequence[Sequence[int]], target: Sequence[int], modulus: int
) -> AbelianSolveReport:
    """Solve M xi = target over Z/modulus, or report unsolvability.

    The multiplier c (product of nontrivial elementary divisors) always
    makes c*t solvable for t in the integer row space of M.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")

    def root(d: int, b: int) -> Optional[int]:
        g = math.gcd(d, modulus)
        return None if b % g else b // g * pow(d // g, -1, modulus // g) % modulus

    xi, divisors = smith_solve(
        m,
        [t % modulus for t in target],
        0,
        lambda a, b: (a + b) % modulus,
        lambda a, e: a * e % modulus,
        root,
    )
    return AbelianSolveReport(
        solvable=xi is not None,
        solution=None if xi is None else tuple(xi),
        multiplier=math.prod(e for e in divisors if e not in (0, 1)),
        divisors=divisors,
    )


# -- width two for the permutation representation ----------------------------


def _permute_vector(vec: Sequence[Fraction], sigma: Permutation) -> List[Fraction]:
    out = [Fraction(0)] * len(vec)
    for i, val in enumerate(vec):
        out[sigma(i)] = val
    return out


def width_two_shift(
    u1: Sequence[Sequence[Fraction]],
    u2: Sequence[Sequence[Fraction]],
    n: int,
    seed: int = 0,
) -> Permutation:
    """A permutation sigma with U1 + U2.sigma spanning the whole zero-sum
    hyperplane of rational n-space.

    Randomized search with exact rank verification; exhaustive fallback for
    n <= 8.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    u1 = [[Fraction(e) for e in vec] for vec in u1]
    u2 = [[Fraction(e) for e in vec] for vec in u2]
    for vec in itertools.chain(u1, u2):
        if len(vec) != n:
            raise ValueError("vector length differs from n")
        if sum(vec) != 0:
            raise ValueError("vectors must lie in the zero-sum hyperplane")
    # U1 is reduced once, and U2 kept to an independent set of d2 vectors
    basis1: List[Sequence[Fraction]] = []
    pivots1: List[int] = []
    for vec in u1:
        _extend_echelon(basis1, pivots1, vec)
    u2 = [u2[i] for i in _row_reduce_pivot_rows(u2)]
    if len(basis1) + len(u2) < n - 1:
        raise ValueError("dimensions too small: no shift can span")
    # the rank d1 + d2 of U1 + U2.sigma falls by one per shifted vector that
    # is dependent, and must stay at least n - 1
    spare = len(basis1) + len(u2) - (n - 1)

    def works(sigma: Permutation) -> bool:
        basis, pivots = list(basis1), list(pivots1)
        dependent = 0
        for vec in u2:
            if not _extend_echelon(basis, pivots, _permute_vector(vec, sigma)):
                dependent += 1
                if dependent > spare:
                    return False
        return True

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
