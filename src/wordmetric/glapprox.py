"""Approximating invertible matrices over finite fields by word values.

A target is split by its rational canonical form into isotypic summands
F(chi)^{+c}.  Each summand is approximated either by replacing F(chi) with
the permutation block of a cycle and reusing the symmetric-group witness
machinery (the generic path, error at most one rank unit per block), or --
when a small unit-group system happens to be fully solvable -- by monomial
matrices over the ring F_q[X]/(chi(X^c)) realizing the summand exactly.
Achieved rank distances are always measured exactly on the full matrices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cayley import D2Matrix, FiniteQuotient, build_d2, smith_solve
from .ffield import Field, FqPoly, make_field
from .perms import Permutation
from .symmetric import Witness, approx
from .words import Word, classify, evaluate, power


def _gauss_jordan(field: Field, mat: np.ndarray, stop_at_gap: bool = False) -> List[int]:
    """Bring the writeable 2-D array mat over the field to its reduced row
    echelon form in place, and return its pivot columns. With stop_at_gap
    the elimination ends at the first column without a pivot, which is all
    an invertibility test needs."""
    F = field
    m, ncols = mat.shape
    pivots: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == m:
            break
        nonzero = mat[rank:, col].nonzero()[0]
        if not len(nonzero):
            if stop_at_gap:
                break
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            pivot_row = mat[pivot].copy()
            mat[pivot] = mat[rank]
            mat[rank] = pivot_row
        # the pivot row is zero left of col, so only the columns from col on
        # change, and only in the rows that are nonzero at col
        row = mat[rank, col:]
        inv = F.inv(int(row[0]))
        if inv != 1:
            row[:] = F.mul_arrays(inv, row)
        factors = mat[:, col].copy()
        factors[rank] = 0
        others = factors.nonzero()[0]
        if len(others):
            mat[others, col:] = F.sub_product(mat[others, col:], factors[others, None], row)
        pivots.append(col)
    return pivots


class MatrixFq:
    """Matrix over a Field, held as one read-only 2-D array of encoded
    elements in [0, q), in the dtype of Field.dtype for its longest side:
    int64 while n * (p-1)^2 < 2^63, else Python ints in an object array.

    The array never changes, so the cached inverse and cyclic decomposition
    stay valid; `rows` gives the entries as tuples of Python ints.
    """

    __slots__ = ("field", "array", "_rows", "_inverse", "_decomposition")

    def __init__(self, field: Field, rows):
        """rows: equal-length rows of encoded elements, or a 2-D array."""
        if not isinstance(rows, np.ndarray):
            rows = [tuple(r) for r in rows]
            if any(len(r) != len(rows[0]) for r in rows):
                raise ValueError("ragged rows")
            if not rows:
                rows = np.zeros((0, 0), dtype=np.int64)
        domain = f"matrix entries must lie in [0, {field.q})"
        try:
            array = field.array(rows)
        except OverflowError:
            raise ValueError(domain) from None
        if array.ndim != 2:
            raise ValueError("a matrix needs equal rows of field elements")
        if array.size and (array.min() < 0 or array.max() >= field.q):
            raise ValueError(domain)
        self._set(field, array)

    def _set(self, field: Field, array: np.ndarray) -> None:
        array.flags.writeable = False
        self.field = field
        self.array = array
        self._rows = None
        self._inverse = None
        self._decomposition = None

    @classmethod
    def _wrap(cls, field: Field, array: np.ndarray) -> "MatrixFq":
        """The matrix of an array already reduced over the field (no copy)."""
        m = cls.__new__(cls)
        m._set(field, array)
        return m

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        if self._rows is None:
            self._rows = tuple(map(tuple, self.array.tolist()))
        return self._rows

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    @staticmethod
    def identity(field: Field, n: int) -> "MatrixFq":
        return MatrixFq._wrap(field, np.eye(n, dtype=field.dtype(n)))

    @staticmethod
    def permutation(field: Field, perm: Permutation) -> "MatrixFq":
        """0/1 matrix with row v supported at perm(v) (right action)."""
        n = perm.degree
        array = np.zeros((n, n), dtype=field.dtype(n))
        array[np.arange(n), perm.array] = 1
        return MatrixFq._wrap(field, array)

    @staticmethod
    def block_diag(field: Field, blocks: Sequence["MatrixFq"]) -> "MatrixFq":
        n = sum(b.n for b in blocks)
        array = np.zeros((n, n), dtype=field.dtype(n))
        off = 0
        for b in blocks:
            array[off:off + b.n, off:off + b.n] = b.array
            off += b.n
        return MatrixFq._wrap(field, array)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFq)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def _check_shape(self, other: "MatrixFq") -> None:
        if self.array.shape != other.array.shape:
            raise ValueError("shape mismatch")

    def __add__(self, other: "MatrixFq") -> "MatrixFq":
        self._check_shape(other)
        return MatrixFq._wrap(self.field, self.field.add(self.array, other.array))

    def __sub__(self, other: "MatrixFq") -> "MatrixFq":
        self._check_shape(other)
        return MatrixFq._wrap(self.field, self.field.sub(self.array, other.array))

    def __mul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.ncols != other.n:
            raise ValueError("shape mismatch")
        return MatrixFq._wrap(self.field, self.field.matmul(self.array, other.array))

    def __pow__(self, e: int) -> "MatrixFq":
        if e == 0:
            return MatrixFq.identity(self.field, self.n)
        return power(self if e > 0 else self.inverse(), abs(e), one=None)

    def rank(self) -> int:
        return len(_gauss_jordan(self.field, self.array.copy()))

    def inverse(self) -> "MatrixFq":
        inverse = self._invert()
        if inverse is None:
            raise ValueError("matrix is singular")
        return inverse

    def is_invertible(self) -> bool:
        return self._invert() is not None

    def _invert(self) -> Optional["MatrixFq"]:
        """The inverse of A, kept once found, or None if A is not square or
        singular: one elimination of (A | I), which stops at the first column
        of A without a pivot."""
        if self._inverse is None and self.n == self.ncols:
            F, n = self.field, self.n
            augmented = np.concatenate([self.array, np.eye(n, dtype=self.array.dtype)], axis=1)
            if len(_gauss_jordan(F, augmented, stop_at_gap=True)) == n:
                self._inverse = MatrixFq._wrap(F, augmented[:, n:].copy())
        return self._inverse

    def cyclic_decomposition(self) -> Tuple[Tuple[Tuple[int, ...], FqPoly], ...]:
        """Generators w_i of A with their minimal polynomials f_i, the largest first.

        The Krylov rows w_i, w_i A, ..., w_i A^(deg f_i - 1) form a basis P
        with P A P^-1 the block sum of the companion matrices of the f_i.
        """
        if self._decomposition is None:
            decomposition = _invariant_factors(self)
            if sum(f.degree for _, f in decomposition) != self.n:
                raise AssertionError("invariant factor degrees do not sum to n")
            self._decomposition = decomposition
        return self._decomposition

    def invariant_factors(self) -> Tuple[FqPoly, ...]:
        """Invariant factors s_1 | s_2 | ... of A, the moduli of its rational canonical form."""
        return tuple(f for _, f in reversed(self.cyclic_decomposition()))

    def __repr__(self):
        return f"MatrixFq({self.n}x{self.ncols} over GF({self.field.q}))"


def _gl_order(d: int, q: int) -> int:
    """|GL_d(q)|, the product of q^d - q^i over i < d."""
    order = 1
    for i in range(d):
        order *= q**d - q**i
    return order


def _determinants(field: Field, array: np.ndarray) -> np.ndarray:
    """The determinant of each matrix of an (m, d, d) array over the field:
    the Leibniz sum over the d! permutations of the columns, so for small d."""
    m, d, _ = array.shape
    det = np.zeros(m, dtype=array.dtype)
    for perm in itertools.permutations(range(d)):
        term = np.ones(m, dtype=array.dtype)
        for i, j in enumerate(perm):
            term = field.mul_arrays(term, array[:, i, j])
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        det = field.sub(det, term) if odd else field.add(det, term)
    return det


class MatrixStack:
    """Invertible d x d matrices over a Field held as one read-only (m, d, d)
    array `images` (row i of a matrix is the image of e_i under v -> vA), with
    the product of MatrixFq matrix by matrix: (S*T)[k] = S[k] T[k].  As in
    PermutationStack, a stack of one matrix is broadcast against a stack of
    m.  The inverse is computed once and kept, and the matrices taken from a
    stack are inverted through the stack's inverse.
    """

    __slots__ = ("field", "images", "_inverse", "_source")

    def __init__(self, field: Field, matrices):
        """matrices: d x d matrices of encoded elements, as an (m, d, d) array
        or nested sequences, or a single d x d matrix."""
        array = field.array(np.array(matrices, ndmin=3))
        if array.ndim != 3 or array.shape[1] != array.shape[2]:
            raise ValueError("a stack holds square matrices of one size")
        if array.size and (array.min() < 0 or array.max() >= field.q):
            raise ValueError(f"matrix entries must lie in [0, {field.q})")
        if not _determinants(field, array).all():
            raise ValueError("every matrix of a stack must be invertible")
        self._set(field, array)

    def _set(self, field: Field, array: np.ndarray) -> None:
        array.flags.writeable = False
        self.field = field
        self.images = array
        self._inverse = None
        self._source = None

    @classmethod
    def _wrap(cls, field: Field, array: np.ndarray) -> "MatrixStack":
        """The stack of an array of invertible reduced matrices (no copy)."""
        stack = cls.__new__(cls)
        stack._set(field, array)
        return stack

    @staticmethod
    def general_linear(field: Field, d: int) -> "MatrixStack":
        """All of GL_d(q) in the itertools.product order of the entries read
        row by row: the candidates with a nonzero determinant."""
        q, k = field.q, d * d
        digits = np.arange(q**k)[:, None] // q ** np.arange(k - 1, -1, -1) % q
        candidates = digits.reshape(-1, d, d).astype(field.dtype(d))
        return MatrixStack._wrap(field, candidates[_determinants(field, candidates) != 0])

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> MatrixFq:
        """Matrix i as a MatrixFq on a view of the stack's array."""
        return MatrixFq._wrap(self.field, self.images[i])

    def take(self, index) -> "MatrixStack":
        """The matrices at the positions in the integer array index."""
        rows = MatrixStack._wrap(self.field, self.images[index])
        rows._source = (self, index)
        return rows

    def __mul__(self, other: "MatrixStack") -> "MatrixStack":
        """S[k] T[k] for each k."""
        if self.field is not other.field or self.degree != other.degree:
            raise ValueError("stacks over different fields or of different sizes")
        return MatrixStack._wrap(self.field, self.field.matmul(self.images, other.images))

    def inverse(self) -> "MatrixStack":
        if self._inverse is None:
            if self._source is not None:
                stack, index = self._source
                self._inverse = stack.inverse().take(index)
            else:
                # A^|GL_d(q)| = 1 for each A: no elimination per matrix
                self._inverse = self ** (_gl_order(self.degree, self.field.q) - 1)
        return self._inverse

    def __pow__(self, e: int) -> "MatrixStack":
        if e == 0:
            identity = np.eye(self.degree, dtype=self.images.dtype)
            return MatrixStack._wrap(self.field, np.broadcast_to(identity, self.images.shape).copy())
        return power(self if e > 0 else self.inverse(), abs(e), one=None)


def evaluate_word_matrix(w: Word, g: MatrixFq, h: MatrixFq) -> MatrixFq:
    return evaluate(w, g, h)


def rank_distance(a: MatrixFq, b: MatrixFq) -> Fraction:
    if a.field is not b.field or a.n != b.n or a.ncols != b.ncols:
        raise ValueError("matrices live in different spaces")
    if a.n == 0:
        return Fraction(0)
    return Fraction((a - b).rank(), a.n)


def store_matrix(m: MatrixFq) -> str:
    """Plain-text form: `p e` on the first line, then one row per line with
    entries as comma-joined coefficient tuples."""
    F = m.field
    lines = [f"{F.p} {F.e}"]
    for row in m.rows:
        lines.append(" ".join(",".join(map(str, F.coeffs(a))) for a in row))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> MatrixFq:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        p, e = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError("first line must be the field descriptor 'p e'") from exc
    field = make_field(p, e)
    rows = []
    for line in lines[1:]:
        row = []
        for entry in line.split():
            coeffs = [int(c) for c in entry.split(",")]
            if len(coeffs) != e:
                raise ValueError(f"entry {entry!r} needs {e} coefficients")
            if not all(0 <= c < p for c in coeffs):
                raise ValueError(f"entry {entry!r} has a coefficient outside [0, {p})")
            row.append(field.encode(coeffs))
        rows.append(row)
    return MatrixFq(field, rows)


# -- invariant factors from Krylov spaces ------------------------------------


def _krylov(a: MatrixFq, v, m: int) -> np.ndarray:
    """The rows v, vA, ..., vA^(m-1)."""
    F = a.field
    rows = [F.array(v)]
    for _ in range(m - 1):
        rows.append(F.matmul(rows[-1], a.array))
    return np.array(rows)


def _apply(f: FqPoly, v, a: MatrixFq) -> np.ndarray:
    """v*f(A), the sum of f_i * vA^i, for a row vector v or for each row of
    a matrix v."""
    F = a.field
    m = len(f.coeffs)
    krylov = _krylov(a, v, m)
    return F.matmul(F.array(f.coeffs), krylov.reshape(m, -1)).reshape(krylov.shape[1:])


def _invariant_factors(a: MatrixFq) -> Tuple[Tuple[Tuple[int, ...], FqPoly], ...]:
    """A cyclic decomposition of A: generators with their minimal polynomials,
    the largest first.

    A vector whose minimal polynomial f is that of A spans a cyclic subspace
    that is a direct summand, so the other generators are those of A acting
    on the quotient, each lifted to a complement (Giesbrecht, SIAM J. Comput.
    1995; Storjohann, ISSAC 1998).
    """
    F, n = a.field, a.n
    if n == 0:
        return ()
    unit = MatrixFq.identity(F, n).array
    v, f, f_of_a = np.zeros_like(unit[0]), FqPoly(F, [1]), unit
    for j, e in enumerate(unit):
        if not f_of_a[j].any():  # the minimal polynomial of e divides f
            continue
        # the minimal polynomial g of e: the first r Krylov rows are
        # independent, and column r of the reduced transpose writes eA^r
        # in terms of them
        mat = _krylov(a, e, n + 1).T
        r = len(_gauss_jordan(F, mat))
        g = FqPoly(F, F.sub(0, mat[:r, r]).tolist() + [1])
        # lcm(f, g) = f1 * g1 with f1 | f and g1 | g coprime; v*(f/f1)(A) has
        # minimal polynomial f1, e*(g/g1)(A) has g1, and their sum f1 * g1
        f1, g1 = f, g // f.gcd(g)
        d = f1.gcd(g1)
        while d.degree > 0:
            f1, g1 = f1 // d, g1 * d
            d = f1.gcd(g1)
        v = F.add(_apply(f // f1, v, a), _apply(g // g1, e, a))
        f = f1 * g1
        if f.degree == n:
            return ((tuple(v.tolist()), f),)
        f_of_a = _apply(f, unit, a)
    # in the basis P of the Krylov rows of v and the unit rows off their
    # pivots, A is block triangular and its lower right block is the quotient
    r = f.degree
    krylov = _krylov(a, v, r)
    pivots = _gauss_jordan(F, krylov.copy())
    p = MatrixFq._wrap(F, np.concatenate([krylov, np.delete(unit, pivots, axis=0)]))
    m = p * a * p.inverse()
    lifted = []
    for w, g in _invariant_factors(MatrixFq._wrap(F, m.array[r:, r:])):
        # (0, w)*g(M) = (rho, 0) is v*rho(A); it is killed by (f/g)(A), so g
        # divides rho, and (-rho/g, w) is a lift that g(M) kills
        rho = _apply(g, np.concatenate([np.zeros_like(unit[0, :r]), w]), m)
        sigma, rem = FqPoly(F, rho[:r].tolist()).divmod(g)
        if rho[r:].any() or not rem.is_zero():
            raise AssertionError("a quotient generator does not lift to a complement")
        sigma = [F.neg(c) for c in sigma.coeffs] + [0] * (r - len(sigma.coeffs))
        lifted.append((tuple(F.matmul(F.array(sigma + list(w)), p.array).tolist()), g))
    return ((tuple(v.tolist()), f),) + tuple(lifted)


# -- Frobenius blocks --------------------------------------------------------


def frobenius_block(chi: FqPoly) -> MatrixFq:
    """Companion matrix of monic chi with the coefficient row last.

    Acting on row vectors from the right this is multiplication by X on the
    monomial basis of F_q[X]/(chi).
    """
    F = chi.field
    chi = chi.monic()
    k = chi.degree
    if k < 1:
        raise ValueError("chi must be nonconstant")
    array = np.eye(k, k, 1, dtype=F.dtype(k))
    array[k - 1] = F.sub(0, F.array(chi.coeffs[:k]))
    return MatrixFq._wrap(F, array)


def compose_with_power(chi: FqPoly, c: int) -> FqPoly:
    """chi(X^c)."""
    F = chi.field
    coeffs = [0] * (chi.degree * c + 1)
    for i, e in enumerate(chi.coeffs):
        coeffs[i * c] = e
    return FqPoly(F, coeffs)


@dataclass(frozen=True)
class PowerBlockCertificate:
    chi: FqPoly
    c: int
    power_factors: Tuple[FqPoly, ...]
    sum_factors: Tuple[FqPoly, ...]

    @property
    def holds(self) -> bool:
        return self.power_factors == self.sum_factors


def power_block_split(chi: FqPoly, c: int) -> PowerBlockCertificate:
    """Certificate that F(chi(X^c))^c is similar to c copies of F(chi)."""
    chi = chi.monic()
    if chi.degree < 1 or c < 1:
        raise ValueError("need nonconstant chi and c >= 1")
    if chi.evaluate(0) == 0:
        raise ValueError("chi must have nonzero constant term")
    F = chi.field
    lhs = frobenius_block(compose_with_power(chi, c)) ** c
    rhs = MatrixFq.block_diag(F, [frobenius_block(chi)] * c)
    cert = PowerBlockCertificate(
        chi=chi,
        c=c,
        power_factors=lhs.invariant_factors(),
        sum_factors=rhs.invariant_factors(),
    )
    if not cert.holds:
        raise AssertionError("power block similarity certificate failed")
    return cert


# -- similarity transform ----------------------------------------------------


def _nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace of mat, which is reduced in place: one
    row per free column, with a 1 in that column and minus the reduced
    column in the pivot columns."""
    pivots = _gauss_jordan(field, mat)
    ncols = mat.shape[1]
    free = np.delete(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=mat.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.sub(0, mat[:len(pivots), free].T)
    return basis


def similarity_transform(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    """Invertible S with S*A = B*S, i.e. S A S^{-1} = B.

    S is the first invertible vector of the basis of N = {S : S*A = B*S}
    that is the identity on the free columns of the linear system on the
    n^2 entries of S, else the first invertible Random(0) combination of it.
    """
    if a == b:
        return MatrixFq.identity(a.field, a.n)
    if a.invariant_factors() != b.invariant_factors():
        raise ValueError("matrices are not similar")
    F = a.field
    n = a.n
    # v -> vS is a module map from (F^n, B) to (F^n, A), fixed by the images
    # u_i of the generators w_i of B, free up to u_i*f_i(A) = 0: P*S has the
    # Krylov rows of the u_i under A, where P has those of the w_i under B
    decomposition = b.cyclic_decomposition()
    krylov = np.concatenate([_krylov(b, w, f.degree) for w, f in decomposition])
    p_inv = MatrixFq._wrap(F, krylov).inverse().array
    unit = MatrixFq.identity(F, n).array
    span = []
    offset = 0
    for _, f in decomposition:
        d = f.degree
        block = p_inv[:, offset:offset + d]
        if f == decomposition[0][1]:  # the minimal polynomial of A
            kernel = unit
        else:
            kernel = _nullspace(F, F.array(_apply(f, unit, a).T))
        # one S per u in the kernel, from the Krylov rows of u
        s = F.matmul(block, _krylov(a, kernel, d).transpose(1, 0, 2))
        span.append(s[:, ::-1, ::-1].reshape(len(kernel), n * n))
        offset += d
    # the basis that is the identity on the free columns is the reduced
    # echelon form of any spanning set of N with the columns reversed, read
    # from the last row up
    mat = np.concatenate(span)
    basis = mat[:len(_gauss_jordan(F, mat))][::-1, ::-1]

    for vec in basis:
        s = MatrixFq._wrap(F, vec.reshape(n, n))
        if s.is_invertible():
            return s
    rng = random.Random(0)
    for _ in range(500):
        # the coefficients take the dtype for len(basis) summands, so the
        # product fits
        coefs = [rng.randrange(F.q) for _ in basis]
        s = MatrixFq._wrap(F, F.matmul(F.array(coefs), basis).reshape(n, n))
        if s.is_invertible():
            return s
    raise ValueError("matrices are not similar (no invertible intertwiner found)")


# -- the main GL approximation -----------------------------------------------


@dataclass(frozen=True)
class GLWitness:
    word: Word
    g: MatrixFq
    h: MatrixFq
    value: MatrixFq
    target: MatrixFq
    achieved_distance: Fraction
    trace: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.value != evaluate_word_matrix(self.word, self.g, self.h):
            raise ValueError("value is not the word evaluated at (g, h)")
        if self.achieved_distance != rank_distance(self.target, self.value):
            raise ValueError("achieved distance is not the exact rank distance")

    @property
    def n(self) -> int:
        return self.target.n


def _mult_matrix(field: Field, modulus: FqPoly, elem: FqPoly) -> MatrixFq:
    """Matrix of multiplication by elem on F_q[X]/(modulus), row action: its
    rows X^i * elem are the Krylov rows of elem under the companion matrix."""
    d = modulus.degree
    coeffs = (elem % modulus).coeffs
    row = field.array(coeffs + [0] * (d - len(coeffs)))
    return MatrixFq._wrap(field, _krylov(frobenius_block(modulus), row, d))


def _irreducible_factors(modulus: FqPoly) -> List[FqPoly]:
    """The distinct monic irreducible factors of modulus, by trial division
    with every monic polynomial, the smallest degree first. Once each factor
    of degree below k is divided out, a monic divisor of degree k is
    irreducible, and a rest with no divisor of degree up to half its own is
    irreducible itself."""
    field = modulus.field
    rest = modulus.monic()
    factors = []
    k = 1
    while 2 * k <= rest.degree:
        for digits in itertools.product(range(field.q), repeat=k):
            cand = FqPoly(field, list(digits) + [1])
            quot, rem = rest.divmod(cand)
            if rem.is_zero():
                factors.append(cand)
                while rem.is_zero():
                    rest = quot
                    quot, rem = rest.divmod(cand)
        k += 1
    if rest.degree >= 1:
        factors.append(rest)
    return factors


@lru_cache(maxsize=None)
def _ring_units(modulus: FqPoly) -> Tuple[FqPoly, ...]:
    """All units of F_q[X]/(modulus) (small rings only), in the order of
    itertools.product(range(q), repeat=deg modulus) on the coefficients,
    constant term first. That order is the contract: _solve_units takes the
    first root it finds in it.

    A residue is a non-unit iff an irreducible factor pi of the modulus
    divides it, so the multiples pi*g with deg g < d - deg pi are marked by
    their position sum_j c_j q^(d-1-j) in that order, and the rest kept."""
    field = modulus.field
    q, d = field.q, modulus.degree
    weights = [q ** (d - 1 - j) for j in range(d)]
    marked = [False] * q ** d
    for pi in _irreducible_factors(modulus):
        for digits in itertools.product(range(q), repeat=d - pi.degree):
            coeffs = (pi * FqPoly(field, digits)).coeffs
            marked[sum(c * w for c, w in zip(coeffs, weights))] = True
    return tuple(
        FqPoly(field, digits)
        for digits, m in zip(itertools.product(range(q), repeat=d), marked)
        if not m
    )


@dataclass
class _WreathPlan:
    chi: FqPoly
    count: int
    c: int
    r: int
    s: int
    modulus: FqPoly
    edge_values: List[FqPoly]
    quotient: FiniteQuotient


_WREATH_RING_LIMIT = 1025
_WREATH_R_LIMIT = 16


def _try_wreath_plan(w: Word, chi: FqPoly, count: int) -> Optional[_WreathPlan]:
    """Exact realization of F(chi)-isotypic blocks through monomial matrices
    over R = F_q[X]/(chi(X^c)), when the unit-group system fully solves."""
    field = chi.field
    if w.abelianization() != (0, 0):
        return None
    k = chi.degree
    for c in (1, 2):
        r, s = divmod(count, c)
        if r < 1 or r > _WREATH_R_LIMIT:
            continue
        if field.q ** (k * c) > _WREATH_RING_LIMIT:
            continue
        modulus = compose_with_power(chi, c).monic()
        if modulus.evaluate(0) == 0:
            continue
        quotient, mat = _cyclic_d2(w, r)
        x_target = FqPoly(field, [0] * c + [1]) % modulus
        solution = _solve_units([list(row) for row in mat.rows], [x_target] * r, modulus)
        if solution is None:
            continue
        return _WreathPlan(
            chi=chi,
            count=count,
            c=c,
            r=r,
            s=s,
            modulus=modulus,
            edge_values=solution,
            quotient=quotient,
        )
    return None


@lru_cache(maxsize=None)
def _cyclic_d2(w: Word, r: int) -> Tuple[FiniteQuotient, D2Matrix]:
    """Z/r and the boundary matrix of w over it, which no target changes."""
    quotient = FiniteQuotient.cyclic(r)
    return quotient, build_d2(w, quotient)


def _solve_units(
    m: List[List[int]],
    target: List[FqPoly],
    modulus: FqPoly,
) -> Optional[List[FqPoly]]:
    """Solve M xi = target multiplicatively over the unit group U of
    F_q[X]/(modulus); each diagonal equation eta^d = rhs is solved by
    scanning U in the order of _ring_units.

    U is enumerated only for such a root or for a negative exponent: a
    nonnegative power of a unit is taken as it is, since it equals the power
    to the exponent mod |U|."""
    one = FqPoly(modulus.field, [1])

    def mul(a: FqPoly, b: FqPoly) -> FqPoly:
        return (a * b) % modulus

    def unit_power(f: FqPoly, e: int) -> FqPoly:
        # f^|U| = 1, so a negative exponent reduces to a nonnegative one
        if e < 0:
            e %= len(_ring_units(modulus))
        return power(f, e, one, mul)

    def root(d: int, rhs: FqPoly) -> Optional[FqPoly]:
        return next((cand for cand in _ring_units(modulus) if unit_power(cand, d) == rhs), None)

    return smith_solve(m, target, one, mul, unit_power, root)[0]


def _wreath_matrices(plan: _WreathPlan) -> Tuple[MatrixFq, MatrixFq]:
    """(G, H) over F_q for the r-fold wreath construction."""
    field = plan.chi.field
    r = plan.r
    block = plan.modulus.degree
    q = plan.quotient
    xi = plan.edge_values

    def monomial(perm: Permutation, values: List[FqPoly]) -> MatrixFq:
        n = r * block
        array = np.zeros((n, n), dtype=field.dtype(n))
        for v in range(r):
            b = _mult_matrix(field, plan.modulus, values[v]).array
            tv = perm(v)
            array[v * block:(v + 1) * block, tv * block:(tv + 1) * block] = b
        return MatrixFq._wrap(field, array)

    g = monomial(q.g, xi[:r])
    h = monomial(q.h, xi[r:])
    return g, h


def _group_invariant_factors(factors: Sequence[FqPoly]) -> List[Tuple[FqPoly, int]]:
    return [(f, len(list(run))) for f, run in itertools.groupby(factors)]


@lru_cache(maxsize=None)
def _cycle_witness(w: Word, lengths: Tuple[int, ...]) -> Witness:
    """The S_n witness for cycles of the given lengths on consecutive points,
    which depends on the word and the lengths alone."""
    return approx(w, Permutation.from_cycle_lengths(lengths))


def approx_gl(w: Word, a: MatrixFq) -> GLWitness:
    """Witness (g, h) in GL_n(q) x GL_n(q) with w(g, h) close to a in rank."""
    form = classify(w)
    if form.kind == "trivial":
        raise ValueError("the trivial word only attains the identity")
    if not a.is_invertible():
        raise ValueError("target must be invertible")
    field = a.field
    n = a.n
    factors = a.invariant_factors()
    summands = _group_invariant_factors(factors)

    # x^a with a != 0 is not in [F2, F2], so power words get no wreath plan
    blocks: List[MatrixFq] = []
    g_blocks: List[MatrixFq] = []
    h_blocks: List[MatrixFq] = []
    trace_parts = []
    perm_chis: List[FqPoly] = []  # one entry per pending permutation block

    for chi, count in summands:
        plan = _try_wreath_plan(w, chi, count)
        if plan is not None:
            gw, hw = _wreath_matrices(plan)
            power_block = frobenius_block(plan.modulus) ** plan.c
            blocks.extend([power_block] * plan.r)
            g_blocks.append(gw)
            h_blocks.append(hw)
            perm_chis.extend([chi] * plan.s)
            trace_parts.append(
                {
                    "path": "unit-wreath",
                    "chi": list(chi.coeffs),
                    "count": count,
                    "c": plan.c,
                    "r": plan.r,
                    "leftover": plan.s,
                }
            )
        else:
            perm_chis.extend([chi] * count)
            trace_parts.append(
                {
                    "path": "cycle-blocks",
                    "chi": list(chi.coeffs),
                    "count": count,
                }
            )

    sym_witness: Optional[Witness] = None
    if perm_chis:
        sym_witness = _cycle_witness(w, tuple(chi.degree for chi in perm_chis))
        blocks.extend(frobenius_block(chi) for chi in perm_chis)
        g_blocks.append(MatrixFq.permutation(field, sym_witness.g))
        h_blocks.append(MatrixFq.permutation(field, sym_witness.h))

    c_mat = MatrixFq.block_diag(field, blocks)
    if c_mat.invariant_factors() != factors:
        raise AssertionError("assembled normal form is not similar to the target")
    g = MatrixFq.block_diag(field, g_blocks)
    h = MatrixFq.block_diag(field, h_blocks)
    s = similarity_transform(a, c_mat)
    s_inv = s.inverse()
    g, h = s_inv * g * s, s_inv * h * s
    value = evaluate_word_matrix(w, g, h)
    achieved = rank_distance(a, value)
    if form.kind == "power":
        trace = {"path": "power"}
    else:
        trace = {"path": "blockwise", "summands": trace_parts}
    if sym_witness is not None:
        trace["symmetric_distance"] = str(sym_witness.achieved_distance)
    return GLWitness(
        word=w, g=g, h=h, value=value, target=a, achieved_distance=achieved, trace=trace
    )

