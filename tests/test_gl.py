"""Rank metric, rational canonical form, Frobenius-block identities, GL witnesses."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import wordmetric
from wordmetric import glapprox
from wordmetric.ffield import FqPoly, _is_irreducible, make_field
from wordmetric.glapprox import (
    GLWitness,
    MatrixFq,
    _WREATH_RING_LIMIT,
    _gauss_jordan,
    _irreducible_factors,
    _ring_units,
    _try_wreath_plan,
    approx_gl,
    compose_with_power,
    evaluate_word_matrix,
    frobenius_block,
    load_matrix,
    power_block_split,
    rank_distance,
    similarity_transform,
    store_matrix,
)
from wordmetric.perms import Permutation
from wordmetric.words import parse_word, power


def random_invertible(field, n, rng):
    while True:
        m = MatrixFq(
            field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        )
        if m.is_invertible():
            return m


def random_monic(field, degree, rng):
    return FqPoly(field, [rng.randrange(field.q) for _ in range(degree)] + [1])


def poly_at(f, a):
    """f(A) by Horner's rule."""
    F, n = a.field, a.n
    acc = MatrixFq(F, [[0] * n for _ in range(n)])
    for c in reversed(f.coeffs):
        acc = acc * a + MatrixFq(F, [[c if i == j else 0 for j in range(n)] for i in range(n)])
    return acc


class ScalarField:
    """Scalar field arithmetic in separate code: digit loops for add and
    neg, the field's log tables for mul and inv, and the schoolbook product
    on coefficient lists past the table limit.  The references below compute
    with it, so that the package's arithmetic, whose bodies serve ints and
    arrays alike, is checked against code other than its own."""

    def __init__(self, field):
        self.field = field
        self.p, self.e, self.q, self.modulus = field.p, field.e, field.q, field.modulus

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        if self.field._log is not None:
            if a == 0 or b == 0:
                return 0
            return self.field._exp[self.field._log[a] + self.field._log[b]]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        e, m = self.e, self.modulus
        cb = self.field.coeffs(b)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(self.field.coeffs(a)):
            if ai:
                for j, bj in enumerate(cb):
                    prod[i + j] += ai * bj
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % self.p
            if c:
                for i in range(e):
                    prod[k - e + i] -= c * m[i]
        return self.field.encode(prod[:e])

    def inv(self, a):
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self.field._log is not None:
            log = self.field._log[a]
            return self.field._exp[(self.q - 1) - log if log else 0]
        return power(a, self.q - 2, 1, self.mul)


def reference_similarity_transform(a, b):
    """S with S*A = B*S from the nullspace of the n^2 x n^2 linear system on
    the entries of S, and the path that chose it: the first invertible
    vector of the basis that is the identity on the free columns, else the
    first invertible Random(0) combination of that basis."""
    if a == b:
        return MatrixFq.identity(a.field, a.n), "identity"
    F, n = ScalarField(a.field), a.n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] = F.add(row[i * n + k], a.rows[k][j])
                row[k * n + j] = F.sub(row[k * n + j], b.rows[i][k])
            rows.append(row)
    mat, pivots = scalar_rref(F.field, rows)
    basis = []
    for fc in range(n * n):
        if fc in pivots:
            continue
        vec = [0] * (n * n)
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(mat[r][fc])
        basis.append(vec)
    if not basis:
        raise ValueError("matrices are not similar")

    def to_matrix(vec):
        return MatrixFq(F.field, [vec[i * n:(i + 1) * n] for i in range(n)])

    for vec in basis:
        s = to_matrix(vec)
        if s.is_invertible():
            return s, "basis"
    rng = random.Random(0)
    for _ in range(500):
        vec = [0] * (n * n)
        for bvec in basis:
            coef = rng.randrange(F.q)
            if coef:
                vec = [F.add(v, F.mul(coef, e)) for v, e in zip(vec, bvec)]
        s = to_matrix(vec)
        if s.is_invertible():
            return s, "random"
    raise ValueError("matrices are not similar (no invertible intertwiner found)")


def reference_ring_units(modulus):
    """The units of F_q[X]/(modulus) in itertools.product order of the
    coefficients (constant term first), each residue tested by a gcd."""
    field = modulus.field
    residues = (
        FqPoly(field, list(digits))
        for digits in itertools.product(range(field.q), repeat=modulus.degree)
    )
    return tuple(f for f in residues if f.gcd(modulus).degree == 0)


def all_monic(field, max_degree, nonzero_constant=False):
    """Every monic polynomial of degree 1..max_degree over field."""
    for d in range(1, max_degree + 1):
        for digits in itertools.product(range(field.q), repeat=d):
            if not (nonzero_constant and digits[0] == 0):
                yield FqPoly(field, list(digits) + [1])


def multiplicity(pi, m):
    e = 0
    quot, rem = m.divmod(pi)
    while rem.is_zero():
        e, m = e + 1, quot
        quot, rem = m.divmod(pi)
    return e


# (p, e) of every field with a ring of degree >= 2 under the limit
RING_FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (2, 4), (5, 2), (2, 5), (31, 1)
]


def seeded_moduli(count=120, seed=13):
    """Monic moduli with q^d <= _WREATH_RING_LIMIT; every other one is
    a^2 * b, so repeated factors are common."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        field = make_field(*rng.choice(RING_FIELDS))
        max_d = max(d for d in range(1, 11) if field.q ** d <= _WREATH_RING_LIMIT)
        d = rng.randint(1, max_d)
        if i % 2 and d >= 2:
            k = rng.randint(1, d // 2)
            a = random_monic(field, k, rng)
            out.append(a * a * random_monic(field, d - 2 * k, rng))
        else:
            out.append(random_monic(field, d, rng))
    return out


def random_permutation(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


class TestRankDistance:
    def test_zero_on_equal(self):
        F = make_field(3, 1)
        rng = random.Random(0)
        m = random_invertible(F, 4, rng)
        assert rank_distance(m, m) == 0

    def test_rank_one_difference(self):
        F = make_field(5, 1)
        ident = MatrixFq.identity(F, 4)
        scaled = MatrixFq(
            F, [[2 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
        )
        assert rank_distance(ident, scaled) == Fraction(1, 4)

    def test_frobenius_blocks_differ_by_rank_one(self):
        F = make_field(3, 1)
        chi = FqPoly(F, [1, 0, 1])  # X^2 + 1
        cyc = FqPoly(F, [2, 0, 1])  # X^2 - 1
        assert rank_distance(frobenius_block(chi), frobenius_block(cyc)) <= Fraction(1, 2)

    def test_empty_matrices_are_at_distance_zero(self):
        F = make_field(3, 1)
        empty = MatrixFq(F, [])
        assert rank_distance(empty, empty) == 0

    def test_metric_embedding_of_permutations(self):
        F = make_field(2, 1)
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(3, 10)
            s = random_permutation(n, rng)
            t = random_permutation(n, rng)
            disagreements = sum(1 for v in range(n) if s(v) != t(v))
            rank = (MatrixFq.permutation(F, s) - MatrixFq.permutation(F, t)).rank()
            assert disagreements / 2 <= rank <= disagreements


class TestRationalCanonicalForm:
    def test_identity(self):
        F = make_field(3, 1)
        factors = MatrixFq.identity(F, 2).invariant_factors()
        assert [f.coeffs for f in factors] == [[2, 1], [2, 1]]  # (X-1, X-1)

    def test_companion_is_cyclic(self):
        F = make_field(3, 1)
        chi = FqPoly(F, [1, 0, 1])
        factors = frobenius_block(chi).invariant_factors()
        assert [f.coeffs for f in factors] == [[1, 0, 1]]

    def test_distinct_eigenvalues_are_cyclic(self):
        F = make_field(5, 1)
        a = MatrixFq(F, [[1, 0], [0, 2]])
        factors = a.invariant_factors()
        # (X-1)(X-2) = X^2 + 2X + 2 over F_5
        assert [f.coeffs for f in factors] == [[2, 2, 1]]

    def test_similarity_invariance(self):
        rng = random.Random(2)
        for p in (2, 3, 5):
            F = make_field(p, 1)
            for _ in range(10):
                n = rng.randint(2, 4)
                a = random_invertible(F, n, rng)
                s = random_invertible(F, n, rng)
                conj = s.inverse() * a * s
                assert [f.coeffs for f in a.invariant_factors()] == [
                    f.coeffs for f in conj.invariant_factors()
                ]

    def test_block_sum_recovers_factors(self):
        F = make_field(3, 1)
        chain = [FqPoly(F, [2, 1]), FqPoly(F, [1, 0, 2, 1])]
        # make the chain divisible: chi1 | chi2
        chi1 = chain[0]
        chi2 = chi1 * FqPoly(F, [1, 1])
        block = MatrixFq.block_diag(F, [frobenius_block(chi1), frobenius_block(chi2)])
        factors = block.invariant_factors()
        assert [f.coeffs for f in factors] == [chi1.coeffs, chi2.coeffs]

    @pytest.mark.parametrize(
        "n, seed, expected",
        [
            (13, 13002, [[1, 1], [1, 1], [1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1]]),
            (14, 14003, [[1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1]]),
        ],
    )
    def test_former_hang_matrices(self, n, seed, expected):
        # a Smith form of the polynomial matrix X*I - A doubled its degrees
        # on every pass for these draws and never finished, so they run in a
        # child process under a time bound
        F = make_field(2, 1)
        a = random_invertible(F, n, random.Random(seed))
        code = (
            "import json, sys\n"
            "from wordmetric.ffield import make_field\n"
            "from wordmetric.glapprox import MatrixFq\n"
            "a = MatrixFq(make_field(2, 1), json.loads(sys.argv[1]))\n"
            "print(json.dumps([f.coeffs for f in a.invariant_factors()]))\n"
        )
        src = os.path.dirname(os.path.dirname(wordmetric.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(a.rows)],
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert json.loads(out.stdout) == expected
        # A is similar to the sum of the companion blocks of the s_j, so
        # rank g(A) = n - sum_j deg gcd(g, s_j) for every polynomial g
        factors = [FqPoly(F, c) for c in expected]
        for g in factors + [FqPoly(F, [0, 1]), FqPoly(F, [1, 1])]:
            nullity = sum(g.gcd(s).degree for s in factors)
            assert poly_at(g, a).rank() == n - nullity

    def test_random_chains_are_recovered(self):
        rng = random.Random(8)
        for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
            F = make_field(p, e)
            for _ in range(25):
                chain = [random_monic(F, rng.randint(1, 3), rng)]
                while rng.random() < 0.7:
                    step = random_monic(F, rng.randint(0, 2), rng)
                    if sum(s.degree for s in chain) + chain[-1].degree + step.degree > 10:
                        break
                    chain.append(chain[-1] * step)
                block = MatrixFq.block_diag(F, [frobenius_block(s) for s in chain])
                conj = random_invertible(F, block.n, rng)
                a = conj.inverse() * block * conj
                assert [f.coeffs for f in a.invariant_factors()] == [s.coeffs for s in chain]


    def test_cyclic_decomposition(self):
        rng = random.Random(10)
        for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
            F = make_field(p, e)
            for trial in range(12):
                if trial % 3 == 0:
                    n = rng.randint(1, 10)
                    a = MatrixFq(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
                else:
                    s = random_monic(F, rng.randint(1, 3), rng)
                    chain = [s] * rng.randint(2, 3)
                    if rng.random() < 0.5:
                        chain.append(s * random_monic(F, rng.randint(1, 2), rng))
                    block = MatrixFq.block_diag(F, [frobenius_block(f) for f in chain])
                    conj = random_invertible(F, block.n, rng)
                    a = conj.inverse() * block * conj
                decomposition = a.cyclic_decomposition()
                krylov = []
                for w, f in decomposition:
                    row = MatrixFq(F, [w])
                    assert not any((row * poly_at(f, a)).rows[0])
                    for _ in range(f.degree):
                        krylov.append(row.rows[0])
                        row = row * a
                p_mat = MatrixFq(F, krylov)
                assert p_mat.is_invertible()
                companions = [frobenius_block(f) for _, f in decomposition]
                assert p_mat * a * p_mat.inverse() == MatrixFq.block_diag(F, companions)
                assert [f.coeffs for f in a.invariant_factors()] == [
                    f.coeffs for _, f in reversed(decomposition)
                ]


class TestFrobeniusBlock:
    def test_cycle_polynomial_gives_cycle_matrix(self):
        F = make_field(2, 1)
        chi = FqPoly(F, [1, 0, 0, 1])  # X^3 - 1 over F_2
        block = frobenius_block(chi)
        cycle = MatrixFq.permutation(F, Permutation((1, 2, 0)))
        assert block == cycle

    def test_characteristic_polynomial(self):
        F = make_field(5, 1)
        chi = FqPoly(F, [3, 1, 4, 1])
        factors = frobenius_block(chi).invariant_factors()
        assert [f.coeffs for f in factors] == [chi.coeffs]


class TestPowerBlockSplit:
    def test_known_small_cases_hold(self):
        F5 = make_field(5, 1)
        cert = power_block_split(FqPoly(F5, [4, 1]), 2)  # chi = X - 1
        assert cert.holds
        F3 = make_field(3, 1)
        cert = power_block_split(FqPoly(F3, [1, 0, 1]), 2)  # chi = X^2 + 1
        assert cert.holds
        F7 = make_field(7, 1)
        cert = power_block_split(FqPoly(F7, [5, 1]), 3)  # chi = X - 2
        assert cert.holds

    def test_swap_matrix_squares_to_identity(self):
        F = make_field(5, 1)
        chi_x2 = compose_with_power(FqPoly(F, [4, 1]), 2)  # X^2 - 1
        block = frobenius_block(chi_x2)
        assert block * block == MatrixFq.identity(F, 2)

    def test_degenerate_rejected(self):
        F = make_field(3, 1)
        with pytest.raises(ValueError):
            power_block_split(FqPoly(F, [0, 1]), 2)  # chi = X


class TestSimilarityTransform:
    def test_conjugates_correctly(self):
        rng = random.Random(3)
        F = make_field(5, 1)
        for _ in range(10):
            n = rng.randint(2, 4)
            a = random_invertible(F, n, rng)
            p = random_invertible(F, n, rng)
            b = p.inverse() * a * p
            s = similarity_transform(a, b)
            assert s.is_invertible()
            assert s * a == b * s

    def test_exact_transform_is_pinned(self):
        # the GL witnesses and the benchmark digests depend on the exact S,
        # not only on S*A = B*S.  Seed 45 takes a random combination of the
        # nullspace basis, seed 42 its first invertible basis vector.
        cases = [
            (45, 2, 4, [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]]),
            (
                42,
                3,
                5,
                [
                    [2, 0, 2, 0, 2],
                    [1, 0, 0, 2, 1],
                    [1, 0, 0, 2, 0],
                    [0, 0, 2, 0, 2],
                    [0, 1, 0, 0, 0],
                ],
            ),
            # larger spaces of S: n = 6 over F_2 and n = 8 over F_5
            (
                46,
                2,
                6,
                [
                    [1, 0, 0, 1, 1, 1],
                    [1, 1, 0, 1, 0, 0],
                    [0, 0, 1, 0, 0, 1],
                    [0, 0, 0, 0, 1, 1],
                    [0, 0, 1, 1, 1, 1],
                    [1, 0, 0, 0, 0, 0],
                ],
            ),
            (
                47,
                5,
                8,
                [
                    [1, 3, 3, 0, 2, 4, 4, 3],
                    [2, 3, 2, 1, 2, 0, 1, 2],
                    [2, 0, 1, 1, 3, 2, 0, 1],
                    [2, 0, 1, 1, 1, 0, 1, 1],
                    [4, 4, 1, 1, 0, 0, 3, 1],
                    [0, 2, 0, 3, 2, 3, 3, 4],
                    [2, 0, 2, 1, 3, 0, 4, 2],
                    [1, 0, 0, 0, 0, 0, 0, 0],
                ],
            ),
        ]
        for seed, p, n, expected in cases:
            F = make_field(p, 1)
            rng = random.Random(seed)
            a = random_invertible(F, n, rng)
            conj = random_invertible(F, n, rng)
            b = conj.inverse() * a * conj
            s = similarity_transform(a, b)
            assert [list(row) for row in s.rows] == expected
            assert s * a == b * s

    def test_matches_reference_construction(self, monkeypatch):
        # cyclic targets, conjugated block sums with two and three repeated
        # invariant factors, and the companion sums that approx_gl builds
        pairs = []
        rng = random.Random(48)
        for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
            F = make_field(p, e)
            for _ in range(8):
                n = rng.randint(1, 8)
                a = random_invertible(F, n, rng)
                conj = random_invertible(F, n, rng)
                pairs.append((a, conj.inverse() * a * conj))
            for _ in range(3):
                chi = random_monic(F, rng.randint(2, 4), rng)
                conj = random_invertible(F, chi.degree, rng)
                block = frobenius_block(chi)
                pairs.append((conj.inverse() * block * conj, block))
            for count in (2, 3):
                for _ in range(4):
                    s = random_monic(F, rng.randint(1, 8 // count), rng)
                    chain = [s] * count
                    if count * s.degree < 8 and rng.random() < 0.5:
                        chain[-1] = s * random_monic(F, 1, rng)
                    block = MatrixFq.block_diag(F, [frobenius_block(f) for f in chain])
                    left = random_invertible(F, block.n, rng)
                    right = random_invertible(F, block.n, rng)
                    pairs.append(
                        (left.inverse() * block * left, right.inverse() * block * right)
                    )
        calls = []
        orig = glapprox.similarity_transform

        def recorded(a, b):
            calls.append((a, b))
            return orig(a, b)

        monkeypatch.setattr(glapprox, "similarity_transform", recorded)
        for seed, p, n, word in ((49, 2, 6, "[x,y]"), (50, 3, 6, "[x,y]"), (51, 5, 5, "x^2")):
            approx_gl(parse_word(word), random_invertible(make_field(p, 1), n, random.Random(seed)))
        approx_gl(parse_word("[x,y]"), MatrixFq(make_field(3, 1), [[2, 0], [0, 2]]))
        assert len(calls) == 4
        pairs.extend(calls)
        # pairs whose basis has no invertible vector, over F_2, F_4 and F_9:
        # the extension fields multiply the random combination by _schoolbook
        for seed, p, e, n in ((45, 2, 1, 4), (23, 2, 2, 3), (15, 3, 2, 3)):
            F, rng = make_field(p, e), random.Random(seed)
            a = random_invertible(F, n, rng)
            conj = random_invertible(F, n, rng)
            b = conj.inverse() * a * conj
            assert reference_similarity_transform(a, b)[1] == "random"
            pairs.append((a, b))
        paths = set()
        for a, b in pairs:
            expected, path = reference_similarity_transform(a, b)
            paths.add(path)
            assert similarity_transform(a, b) == expected
        assert paths == {"identity", "basis", "random"}

    def test_dissimilar_rejected(self):
        F = make_field(3, 1)
        a = MatrixFq.identity(F, 2)
        b = MatrixFq(F, [[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            similarity_transform(a, b)

    def test_dissimilar_rejected_before_any_candidate(self, monkeypatch):
        F3 = make_field(3, 1)
        F2 = make_field(2, 1)
        chi = FqPoly(F2, [1, 1, 0, 1])  # X^3 + X + 1, irreducible over F_2
        pairs = [
            (MatrixFq.identity(F3, 2), MatrixFq(F3, [[1, 1], [0, 1]])),
            (
                MatrixFq.block_diag(F2, [frobenius_block(chi)] * 2),
                frobenius_block(chi * chi),
            ),
        ]
        calls = []
        orig = MatrixFq.is_invertible

        def counted(self):
            calls.append(self)
            return orig(self)

        monkeypatch.setattr(MatrixFq, "is_invertible", counted)
        for a, b in pairs:
            with pytest.raises(ValueError, match="^matrices are not similar$"):
                similarity_transform(a, b)
        assert calls == []

    def test_cyclic_target_needs_no_more_than_n_rows(self, monkeypatch):
        # S ranges over an n-dimensional space when the target is cyclic
        F = make_field(3, 1)
        a = random_invertible(F, 12, random.Random(12))
        (chi,) = a.invariant_factors()
        b = frobenius_block(chi)
        shapes = []
        orig = glapprox._gauss_jordan

        def recorded(field, mat, stop_at_gap=False):
            if not stop_at_gap:
                shapes.append(mat.shape)
            return orig(field, mat, stop_at_gap)

        monkeypatch.setattr(glapprox, "_gauss_jordan", recorded)
        s = similarity_transform(a, b)
        assert s * a == b * s
        assert shapes and max(rows for rows, _ in shapes) <= 12


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(4)
        for p, e in ((2, 1), (3, 2), (5, 1)):
            F = make_field(p, e)
            m = random_invertible(F, 3, rng)
            assert load_matrix(store_matrix(m)) == m

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            load_matrix("")
        with pytest.raises(ValueError):
            load_matrix("not a descriptor\n1 2\n")

    def test_coefficients_outside_the_prime_field_rejected(self):
        # 3 over F_2 would read as 1 (the identity) and -1 over F_3 as 2;
        # the entry must be named
        with pytest.raises(ValueError, match="'3'"):
            load_matrix("2 1\n3 0\n0 1\n")
        with pytest.raises(ValueError, match="'-1'"):
            load_matrix("3 1\n-1 0\n0 1\n")
        with pytest.raises(ValueError, match="'1,2'"):
            load_matrix("2 2\n1,2 0,0\n0,0 1,0\n")
        assert load_matrix("3 1\n2 0\n0 1\n").rows == ((2, 0), (0, 1))


class TestApproxGL:
    def test_identity_is_exact(self):
        F = make_field(2, 1)
        wit = approx_gl(parse_word("[x,y]"), MatrixFq.identity(F, 4))
        assert wit.achieved_distance == 0

    def test_empty_target(self):
        F = make_field(2, 1)
        wit = approx_gl(parse_word("[x,y]"), MatrixFq(F, []))
        assert wit.achieved_distance == 0
        assert wit.trace == {"path": "blockwise", "summands": []}
        assert wit.g.n == wit.h.n == wit.value.n == 0

    def test_cycle_target_equals_embedded_symmetric_distance(self):
        F = make_field(2, 1)
        n = 31
        cycle = Permutation(tuple((i + 1) % n for i in range(n)))
        target = MatrixFq.permutation(F, cycle)
        wit = approx_gl(parse_word("[x,y]"), target)
        assert wit.value == evaluate_word_matrix(parse_word("[x,y]"), wit.g, wit.h)
        assert wit.achieved_distance == rank_distance(target, wit.value)
        assert wit.achieved_distance < 1

    def test_witness_self_consistency_corpus(self):
        rng = random.Random(5)
        w = parse_word("[x,y]")
        for p in (2, 3):
            F = make_field(p, 1)
            for _ in range(8):
                n = rng.randint(2, 5)
                target = random_invertible(F, n, rng)
                wit = approx_gl(w, target)
                assert wit.value == evaluate_word_matrix(w, wit.g, wit.h)
                assert wit.achieved_distance == rank_distance(target, wit.value)
                assert wit.achieved_distance <= 1

    def test_power_word_path(self):
        F = make_field(3, 1)
        rng = random.Random(6)
        w = parse_word("x^2")
        for _ in range(5):
            target = random_invertible(F, 4, rng)
            wit = approx_gl(w, target)
            assert wit.value == evaluate_word_matrix(w, wit.g, wit.h)
            assert wit.achieved_distance == rank_distance(target, wit.value)

    @pytest.mark.parametrize(
        "seed,p,n,word,g_rows,h_rows,distance,symmetric_distance",
        [
            (
                11, 3, 4, "x^2",
                [[1, 0, 0, 0], [1, 1, 1, 0], [0, 0, 1, 0], [1, 2, 1, 1]],
                None, "1/2", "1/2",
            ),
            (
                12, 5, 5, "y^-3",
                None,
                [
                    [1, 0, 3, 2, 3],
                    [0, 0, 3, 0, 1],
                    [1, 0, 0, 2, 3],
                    [4, 4, 3, 1, 2],
                    [0, 0, 2, 2, 3],
                ],
                "1/5", "0",
            ),
            (
                13, 2, 6, "x^3",
                [
                    [1, 0, 0, 0, 0, 0],
                    [1, 0, 0, 0, 0, 1],
                    [1, 1, 1, 0, 0, 0],
                    [0, 1, 0, 0, 0, 0],
                    [0, 0, 1, 1, 1, 1],
                    [1, 1, 1, 1, 0, 0],
                ],
                None, "1/3", "1/3",
            ),
        ],
    )
    def test_power_word_witness_is_pinned(
        self, seed, p, n, word, g_rows, h_rows, distance, symmetric_distance
    ):
        # None stands for the identity, the generator the power word leaves out
        F = make_field(p, 1)
        target = random_invertible(F, n, random.Random(seed))
        wit = approx_gl(parse_word(word), target)
        ident = MatrixFq.identity(F, n).rows
        assert wit.g.rows == (ident if g_rows is None else tuple(map(tuple, g_rows)))
        assert wit.h.rows == (ident if h_rows is None else tuple(map(tuple, h_rows)))
        assert wit.achieved_distance == Fraction(distance)
        assert wit.trace == {"path": "power", "symmetric_distance": symmetric_distance}

    @pytest.mark.parametrize(
        "p,chi,count,crs,edge_values",
        [
            (5, [1, 3, 1], 5, (1, 5, 0),
             [[1], [1], [1], [1], [1], [0, 1], [4, 2], [3, 3], [2, 4], [1]]),
            (5, [3, 1], 4, (1, 4, 0), [[1], [1], [1], [1], [2], [4], [3], [1]]),
            (3, [1, 1], 5, (2, 2, 1), [[1], [1], [2], [1]]),
            (2, [1, 0, 1], 5, (2, 2, 1), [[1], [1], [0, 0, 1], [1]]),
        ],
    )
    def test_wreath_plan_is_pinned(self, p, chi, count, crs, edge_values):
        plan = _try_wreath_plan(parse_word("[x,y]"), FqPoly(make_field(p, 1), chi), count)
        assert (plan.c, plan.r, plan.s) == crs
        assert [f.coeffs for f in plan.edge_values] == edge_values

    @pytest.mark.parametrize(
        "p,chi,edge_values",
        [(3, [1, 1], [[1], [1], [0, 1], [1]]), (2, [1, 0, 1], [[1], [1], [0, 0, 0, 1], [1]])],
    )
    def test_wreath_plan_takes_the_first_root_in_unit_order(self, p, chi, edge_values):
        # a Smith divisor above 1 has several roots; the first unit is kept
        plan = _try_wreath_plan(parse_word("[x,y]^2"), FqPoly(make_field(p, 1), chi), 4)
        assert (plan.c, plan.r, plan.s) == (2, 2, 0)
        assert [f.coeffs for f in plan.edge_values] == edge_values

    def test_unit_group_is_enumerated_once(self, monkeypatch):
        # the units of F_q[X]/(chi(X^c)) depend on the modulus alone
        chi = FqPoly(make_field(3, 1), [1, 1])
        first = _try_wreath_plan(parse_word("[x,y]"), chi, 5)
        calls = []
        orig = FqPoly.gcd

        def counted(self, other):
            calls.append(other)
            return orig(self, other)

        monkeypatch.setattr(FqPoly, "gcd", counted)
        second = _try_wreath_plan(parse_word("[x,y]"), chi, 5)
        assert calls == []
        assert [f.coeffs for f in second.edge_values] == [f.coeffs for f in first.edge_values]

    def test_scalar_target_takes_the_unit_wreath_path(self):
        F = make_field(3, 1)
        target = MatrixFq(F, [[2, 0], [0, 2]])
        wit = approx_gl(parse_word("[x,y]"), target)
        assert [part["path"] for part in wit.trace["summands"]] == ["unit-wreath"]
        assert wit.achieved_distance == 0

    def test_commutator_witness_is_pinned(self):
        # n = 12 over F_3, a cyclic target: S ranges over a 12-dimensional space
        F = make_field(3, 1)
        target = random_invertible(F, 12, random.Random(12))
        wit = approx_gl(parse_word("[x,y]"), target)
        g_rows = [
            [2, 1, 1, 1, 0, 2, 1, 1, 1, 1, 2, 2],
            [2, 1, 1, 0, 1, 1, 2, 0, 1, 0, 2, 2],
            [1, 0, 2, 2, 0, 2, 0, 1, 2, 2, 2, 2],
            [2, 0, 1, 2, 1, 0, 0, 1, 2, 0, 2, 1],
            [2, 1, 1, 1, 2, 1, 2, 1, 2, 2, 2, 0],
            [1, 1, 0, 1, 2, 1, 0, 2, 1, 0, 2, 0],
            [2, 0, 1, 0, 1, 2, 0, 1, 1, 1, 0, 0],
            [0, 2, 2, 0, 0, 1, 0, 0, 1, 1, 2, 2],
            [2, 2, 0, 1, 0, 1, 0, 1, 1, 1, 1, 2],
            [1, 2, 0, 2, 2, 0, 1, 0, 2, 1, 2, 2],
            [2, 0, 2, 1, 1, 0, 1, 1, 2, 2, 0, 1],
            [2, 0, 1, 2, 2, 0, 0, 1, 2, 0, 2, 1],
        ]
        h_rows = [
            [0, 2, 2, 2, 2, 1, 0, 1, 0, 0, 2, 2],
            [2, 0, 2, 1, 1, 1, 2, 1, 1, 1, 0, 0],
            [1, 0, 1, 2, 1, 2, 1, 0, 2, 2, 2, 2],
            [0, 1, 0, 2, 2, 2, 1, 1, 1, 1, 2, 2],
            [1, 1, 2, 2, 2, 1, 0, 2, 0, 2, 1, 2],
            [2, 1, 1, 2, 1, 2, 0, 0, 0, 2, 0, 2],
            [2, 2, 1, 2, 2, 2, 0, 1, 1, 1, 2, 2],
            [0, 1, 1, 0, 0, 2, 1, 1, 1, 2, 1, 0],
            [2, 0, 0, 0, 2, 1, 0, 2, 1, 2, 2, 2],
            [2, 1, 2, 2, 2, 2, 2, 2, 1, 1, 0, 2],
            [2, 1, 2, 0, 0, 0, 1, 2, 2, 0, 1, 1],
            [1, 1, 2, 2, 1, 0, 0, 2, 0, 2, 0, 2],
        ]
        assert wit.g.rows == tuple(map(tuple, g_rows))
        assert wit.h.rows == tuple(map(tuple, h_rows))
        assert wit.achieved_distance == Fraction(1, 6)
        assert wit.trace == {
            "path": "blockwise",
            "summands": [
                {"path": "cycle-blocks", "chi": [1, 1, 1, 2, 2, 1, 1, 2, 1, 1, 1, 1, 1], "count": 1}
            ],
            "symmetric_distance": "1/6",
        }

    def test_twenty_by_twenty_finishes(self):
        # a 400 x 400 system for S took seconds to reduce, so the witness is
        # built in a child process under a time bound and checked here
        F = make_field(2, 1)
        a = random_invertible(F, 20, random.Random(20))
        code = (
            "import json, sys\n"
            "from wordmetric.ffield import make_field\n"
            "from wordmetric.glapprox import MatrixFq, approx_gl\n"
            "from wordmetric.words import parse_word\n"
            "a = MatrixFq(make_field(2, 1), json.loads(sys.argv[1]))\n"
            "wit = approx_gl(parse_word('[x,y]'), a)\n"
            "print(json.dumps([wit.g.rows, wit.h.rows, wit.value.rows,\n"
            "                  str(wit.achieved_distance), wit.trace]))\n"
        )
        src = os.path.dirname(os.path.dirname(wordmetric.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(a.rows)],
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        g, h, value, distance, trace = json.loads(out.stdout)
        wit = GLWitness(
            word=parse_word("[x,y]"),
            g=MatrixFq(F, g),
            h=MatrixFq(F, h),
            value=MatrixFq(F, value),
            target=a,
            achieved_distance=Fraction(distance),
            trace=trace,
        )
        assert wit.g.is_invertible() and wit.h.is_invertible()

    def test_singular_rejected(self):
        F = make_field(2, 1)
        singular = MatrixFq(F, [[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            approx_gl(parse_word("[x,y]"), singular)

    def test_trivial_word_rejected(self):
        F = make_field(2, 1)
        from wordmetric.words import Word

        with pytest.raises(ValueError):
            approx_gl(Word(()), MatrixFq.identity(F, 2))


class TestRingUnits:
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_matches_gcd_enumeration_on_small_moduli(self, p, e):
        for m in all_monic(make_field(p, e), 3, nonzero_constant=True):
            assert _ring_units.__wrapped__(m) == reference_ring_units(m), m

    def test_matches_gcd_enumeration_on_seeded_moduli(self):
        for m in seeded_moduli():
            assert _ring_units.__wrapped__(m) == reference_ring_units(m), m

    # the largest rings allowed: F_2 with d = 10, F_4 with d = 5, F_32 with d = 2
    @pytest.mark.parametrize("p,e,d", [(2, 1, 10), (2, 2, 5), (2, 5, 2)])
    def test_matches_gcd_enumeration_on_the_largest_rings(self, p, e, d):
        field = make_field(p, e)
        assert field.q ** d <= _WREATH_RING_LIMIT
        rng = random.Random(d)
        a = random_monic(field, 1, rng)
        for m in (random_monic(field, d, rng), a * a * random_monic(field, d - 2, rng)):
            assert _ring_units.__wrapped__(m) == reference_ring_units(m), m

    def test_first_call_takes_no_gcd(self, monkeypatch):
        # (X + 1)^2 (X^2 + 1)^2 over F_3: 729 residues, a repeated factor
        F = make_field(3, 1)
        a, b = FqPoly(F, [1, 1]), FqPoly(F, [1, 0, 1])
        modulus = a * a * b * b
        _ring_units.cache_clear()
        calls = []
        orig = FqPoly.gcd

        def counted(self, other):
            calls.append(other)
            return orig(self, other)

        monkeypatch.setattr(FqPoly, "gcd", counted)
        units = _ring_units(modulus)
        assert calls == []
        assert len(units) == 3 * 2 * 9 * 8

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
    def test_irreducible_factors(self, p, e):
        for m in all_monic(make_field(p, e), 4):
            factors = _irreducible_factors(m)
            assert len(set(factors)) == len(factors), m
            product = FqPoly(m.field, [1])
            for pi in factors:
                assert pi.leading() == 1 and _is_irreducible(pi), (m, pi)
                assert (m % pi).is_zero(), (m, pi)
                for _ in range(m.degree):
                    product = product * pi
            assert (product % m).is_zero(), m

    def test_unit_count_is_eulers_phi(self):
        # |R*| = prod q^(k (e - 1)) (q^k - 1) over the factors pi^e, deg pi = k
        for m in seeded_moduli():
            q = m.field.q
            factors = _irreducible_factors(m)
            phi = 1
            for pi in factors:
                k, e = pi.degree, multiplicity(pi, m)
                phi *= q ** (k * (e - 1)) * (q ** k - 1)
            units = _ring_units.__wrapped__(m)
            assert len(units) == len(set(units)) == phi, m
            assert not any((u % pi).is_zero() for u in units for pi in factors), m


def scalar_rref(field, rows):
    """The scalar elimination that the array one replaced, verbatim, in the
    scalar arithmetic."""
    F = ScalarField(field)
    mat = [list(r) for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == m:
            break
        pivot = next((i for i in range(rank, m) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        # the pivot row is zero left of col, so only the columns from col on
        # change, and only where the pivot row is nonzero
        inv = F.inv(mat[rank][col])
        row = [F.mul(inv, e) if e else 0 for e in mat[rank][col:]]
        mat[rank][col:] = row
        for i in range(m):
            f = mat[i][col]
            if i != rank and f:
                tail = zip(mat[i][col:], row)
                mat[i][col:] = [F.sub(x, F.mul(f, y)) if y else x for x, y in tail]
        pivots.append(col)
    return mat, pivots


def scalar_product(F, rows, other_rows):
    """The body of the scalar MatrixFq.__mul__ that the array product
    replaced, verbatim, on the rows of the two factors in the scalar
    arithmetic."""
    F = ScalarField(F)
    bt = list(zip(*other_rows))
    out = []
    for row in rows:
        new = []
        for col in bt:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = F.add(acc, F.mul(a, b))
            new.append(acc)
        out.append(new)
    return out


# F_2, F_3, F_5, F_4, F_9, F_32 (under the log-table limit), F_{2^18} (past
# it) and the Mersenne prime 2^61 - 1 (object arrays)
ARRAY_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 5), (2, 18), (2**61 - 1, 1)]


def random_rows(field, m, n, rng, dependent=False):
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        rows = [[x if rng.random() < 0.3 else 0 for x in row] for row in rows]
    if dependent and m >= 3:
        c = rng.randrange(field.q)
        rows[-1] = [field.add(field.mul(c, a), b) for a, b in zip(rows[0], rows[1])]
    return rows


@pytest.mark.parametrize("p,e", ARRAY_FIELDS)
class TestArrayArithmetic:
    """The array product and elimination against the scalar ones they
    replaced, on seeded matrices of every shape the package builds."""

    SHAPES = [(0, 0), (1, 1), (3, 6), (5, 10), (4, 16), (6, 36)]

    def test_rref_matches_scalar_elimination(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 7 + e)
        for m, n in self.SHAPES:
            for _ in range(3):
                rows = random_rows(F, m, n, rng, dependent=True)
                mat = F.array(rows).reshape(m, n)
                pivots = _gauss_jordan(F, mat)
                assert (mat.tolist(), pivots) == scalar_rref(F, rows)
                assert all(type(c) is int for c in pivots)
                assert MatrixFq(F, rows).rank() == len(pivots)

    def test_results_leave_as_python_ints(self, p, e):
        # the elimination leaves numpy integers in its arrays; none may reach
        # a canonical form, a generator or a trace, where json.dumps and the
        # digests read them
        F = make_field(p, e)
        rng = random.Random(p * 23 + e)
        w = parse_word("[x,y]")
        for n in (1, 3, 4):
            a = random_invertible(F, n, rng)
            assert all(type(c) is int for f in a.invariant_factors() for c in f.coeffs)
            for gen, f in a.cyclic_decomposition():
                assert all(type(x) is int for x in gen)
                assert all(type(c) is int for c in f.coeffs)
            wit = approx_gl(w, a)
            json.dumps(wit.trace)
            for m in (wit.g, wit.h, wit.value):
                assert all(type(x) is int for row in m.rows for x in row)

    def test_product_matches_scalar_product(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 11 + e)
        empty = MatrixFq(F, [])
        assert (empty * empty).rows == ()
        for m, n in self.SHAPES[1:]:
            for k in sorted({1, m, n}):
                a, b = random_rows(F, m, k, rng), random_rows(F, k, n, rng)
                prod = MatrixFq(F, a) * MatrixFq(F, b)
                assert [list(r) for r in prod.rows] == scalar_product(F, a, b)
                assert all(type(x) is int for row in prod.rows for x in row)

    def test_entrywise_operations_match_scalar_ones(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 13 + e)
        a, b = (random_rows(F, 4, 8, rng) for _ in range(2))
        x, y = MatrixFq(F, a), MatrixFq(F, b)
        pairs = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
        ref = ScalarField(F)
        added = [[ref.add(s, t) for s, t in r] for r in pairs]
        subtracted = [[ref.sub(s, t) for s, t in r] for r in pairs]
        multiplied = [[ref.mul(s, t) for s, t in r] for r in pairs]
        negated = [[ref.neg(s) for s in r] for r in a]
        assert (x + y).rows == tuple(map(tuple, added))
        assert (x - y).rows == tuple(map(tuple, subtracted))
        assert F.mul_arrays(x.array, y.array).tolist() == multiplied
        assert F.sub(0, x.array).tolist() == F.neg(x.array).tolist() == negated
        assert [[F.add(s, t) for s, t in r] for r in pairs] == added
        assert [[F.sub(s, t) for s, t in r] for r in pairs] == subtracted
        assert [[F.mul(s, t) for s, t in r] for r in pairs] == multiplied
        assert [[F.neg(s) for s in r] for r in a] == negated

    def test_inverse_and_invertibility(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 17 + e)
        seen = set()
        for n in (1, 2, 3, 5):
            for dependent in (False, True):
                rows = random_rows(F, n, n, rng, dependent=dependent)
                if not dependent:
                    rows = [list(r) for r in random_invertible(F, n, rng).rows]
                a = MatrixFq(F, rows)
                full = len(scalar_rref(F, rows)[1]) == n
                seen.add(full)
                assert a.is_invertible() == full
                if full:
                    ident = MatrixFq.identity(F, n)
                    assert a * a.inverse() == ident == a.inverse() * a
        assert seen == {True, False}

    def test_list_and_array_build_the_same_matrix(self, p, e):
        F = make_field(p, e)
        rows = random_rows(F, 3, 4, random.Random(p + e))
        a = MatrixFq(F, rows)
        b = MatrixFq(F, np.array(rows, dtype=object))
        assert a == b and hash(a) == hash(b)
        assert a.rows == tuple(map(tuple, rows))
        assert all(type(x) is int for row in b.rows for x in row)

    def test_stored_arrays_are_read_only(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 19 + e)
        a = random_invertible(F, 3, rng)
        built = [
            a,
            a * a,
            a + a,
            a - a,
            a.inverse(),
            MatrixFq.identity(F, 3),
            MatrixFq.block_diag(F, [a, a]),
            MatrixFq.permutation(F, Permutation((1, 2, 0))),
        ]
        for m in built:
            assert not m.array.flags.writeable
            with pytest.raises(ValueError):
                m.array[0, 0] = 0
        source = np.zeros((2, 2), dtype=np.int64)
        m = MatrixFq(F, source)
        source[0, 0] = 1
        assert m.rows == ((0, 0), (0, 0))


class TestArrayDomain:
    def test_entries_outside_the_field_are_rejected(self):
        for p, e in ((3, 1), (2, 2), (2**61 - 1, 1)):
            F = make_field(p, e)
            for bad in (F.q, -1, 2**64, F.q + 5):
                with pytest.raises(ValueError, match=f"\\[0, {F.q}\\)"):
                    MatrixFq(F, [[0, bad], [1, 0]])
                with pytest.raises(ValueError):
                    MatrixFq(F, np.array([[0, bad], [1, 0]], dtype=object))
            with pytest.raises(ValueError, match="integers"):
                MatrixFq(F, [[0.5, 1], [1, 0]])

    def test_ragged_rows_and_other_shapes_are_rejected(self):
        F = make_field(3, 1)
        with pytest.raises(ValueError, match="ragged rows"):
            MatrixFq(F, [[1, 2], [1]])
        with pytest.raises(ValueError):
            MatrixFq(F, np.zeros((2, 2, 2), dtype=np.int64))
        row, square = MatrixFq(F, [[1, 2]]), MatrixFq.identity(F, 2)
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(row, square)
        with pytest.raises(ValueError, match="shape mismatch"):
            square * row

    def test_int64_only_while_the_sums_fit(self):
        # n products of entries below p sum to at most n (p - 1)^2
        for p in (2, 3, 2**31 - 1, 2**61 - 1, 4294967291):
            F = make_field(p, 1)
            for n in (1, 2, 3, 64):
                fits = n * (p - 1) ** 2 < 2**63
                assert (F.dtype(n) is np.int64) == fits
                m = MatrixFq.identity(F, n)
                assert (m.array.dtype == np.int64) == fits
                assert (m * m).rows == m.rows

    def test_large_prime_product_is_exact(self):
        F = make_field(2**31 - 1, 1)
        rng = random.Random(31)
        for n in (2, 3, 4):
            a, b = (random_rows(F, n, n, rng) for _ in range(2))
            prod = MatrixFq(F, a) * MatrixFq(F, b)
            assert [list(r) for r in prod.rows] == scalar_product(F, a, b)

    def test_invertibility_stops_at_the_first_gap(self):
        F = make_field(5, 1)
        rng = random.Random(50)
        rows = [[0] + [rng.randrange(5) for _ in range(7)] for _ in range(8)]
        assert glapprox._gauss_jordan(F, np.array(rows), stop_at_gap=True) == []
        assert not MatrixFq(F, rows).is_invertible()
        assert MatrixFq(F, rows).rank() == len(scalar_rref(F, rows)[1]) > 0
