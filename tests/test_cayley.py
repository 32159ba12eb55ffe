"""Cayley complex boundary maps, defects, monomial witnesses, exact solvers."""

import cmath
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from wordmetric.cayley import (
    FiniteQuotient,
    build_d2,
    cohomology_defect,
    monomial_witness,
    smith_normal_form,
    solve_in_abelian,
    width_two_shift,
)
from wordmetric.fox import count_Wn, specialize_pw
from wordmetric.perms import Permutation
from wordmetric.words import parse_word


def regular_quotient(elements, mul, gx, gy):
    """Right-regular permutation representation with identity first."""
    index = {e: i for i, e in enumerate(elements)}
    g = Permutation(tuple(index[mul(e, gx)] for e in elements))
    h = Permutation(tuple(index[mul(e, gy)] for e in elements))
    return FiniteQuotient(g=g, h=h)


def s3_quotient():
    elements = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]

    def mul(a, b):
        return tuple(b[a[i]] for i in range(3))

    return regular_quotient(elements, mul, (1, 0, 2), (1, 2, 0))


def product_cyclic(m1, m2):
    elements = list(itertools.product(range(m1), range(m2)))

    def mul(a, b):
        return ((a[0] + b[0]) % m1, (a[1] + b[1]) % m2)

    return regular_quotient(elements, mul, (1, 0), (0, 1))


class TestFiniteQuotient:
    def test_cyclic_order(self):
        q = FiniteQuotient.cyclic(5)
        assert q.order == 5
        assert q.element(parse_word("x^3"))(0) == 3

    @pytest.mark.parametrize("n", [0, -1, -7])
    def test_cyclic_order_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="identity"):
            FiniteQuotient.cyclic(n)
        assert FiniteQuotient.cyclic(1).order == 1

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteQuotient(g=Permutation(()), h=Permutation(()))

    def test_generation_checked(self):
        with pytest.raises(ValueError):
            FiniteQuotient(
                g=Permutation((0, 1, 2)), h=Permutation((0, 1, 2))
            )  # nothing moves: orbit of 0 is {0}

    def test_load_text_format(self):
        q = FiniteQuotient.load("3\n1 2 0\n0 1 2\n")
        assert q.order == 3
        assert q.g == Permutation((1, 2, 0))


class TestBuildD2:
    def test_zero_for_second_derived(self):
        w = parse_word("[[x,y],[x,y^2]]")
        for m in (2, 3, 5):
            assert build_d2(w, FiniteQuotient.cyclic(m)).is_zero()

    def test_commutator_z5_nonzero_row_sums_zero(self):
        mat = build_d2(parse_word("[x,y]"), FiniteQuotient.cyclic(5))
        assert not mat.is_zero()
        for row in mat.rows:
            assert sum(row) == 0

    def test_word_x_on_trivialized_x(self):
        # x maps to the identity of Z/3 when its image is the 0-shift
        q = FiniteQuotient.cyclic(3, gx=0, gy=1)
        mat = build_d2(parse_word("x"), q)
        for v, row in enumerate(mat.rows):
            assert row[v] == 1 and sum(abs(c) for c in row) == 1

    def test_requires_word_to_vanish(self):
        with pytest.raises(ValueError):
            build_d2(parse_word("x"), FiniteQuotient.cyclic(3))

    def test_equivariance_of_rows(self):
        w = parse_word("[x,y]")
        for q in (FiniteQuotient.cyclic(7), product_cyclic(2, 3)):
            mat = build_d2(w, q)
            n = q.order
            # all rows are translates of row 0, so every row carries the
            # same multiset of coefficients
            base = sorted(mat.rows[0])
            for v in range(1, n):
                assert sorted(mat.rows[v]) == base

    def test_membership_iff_zero_on_abelian_products(self):
        words = [
            "[x,y]",
            "[x^2,y]",
            "[[x,y],[x,y^2]]",
            "[[x,y],[x^2,y]]",
            "x^-1 y^-1 x y^2 y^-1",
        ]
        from wordmetric.fox import IN_F2SECOND, derived_membership

        for text in words:
            w = parse_word(text)
            if w.abelianization() != (0, 0):
                continue
            all_zero = all(
                build_d2(w, product_cyclic(m1, m2)).is_zero()
                for m1 in range(2, 7)
                for m2 in range(2, 7)
            )
            assert all_zero == (derived_membership(w) == IN_F2SECOND)

    def test_nonabelian_quotient(self):
        # [x,y]^3 vanishes on S_3 since commutators there have order 1 or 3
        w = parse_word("[x,y]") ** 3
        mat = build_d2(w, s3_quotient())
        assert mat.n_cells == 6


class TestDefect:
    def test_commutator_z5(self):
        report = cohomology_defect(build_d2(parse_word("[x,y]"), FiniteQuotient.cyclic(5)))
        assert report.defect == 1
        assert report.epsilon == Fraction(1, 5)

    def test_zero_matrix_full_defect(self):
        report = cohomology_defect(
            build_d2(parse_word("[[x,y],[x,y^2]]"), FiniteQuotient.cyclic(4))
        )
        assert report.defect == 4

    def test_defect_at_least_one_for_commutator_words(self):
        for text in ("[x,y]", "[x^2,y^3]", "x^-1 y^-1 x y^2 y^-1"):
            w = parse_word(text)
            if w.abelianization() != (0, 0):
                continue
            for m in (2, 3, 4, 5, 6):
                report = cohomology_defect(build_d2(w, FiniteQuotient.cyclic(m)))
                assert report.defect >= 1

    def test_matches_root_count(self):
        # d(pi) for Z/n equals |W_n| for commutators of generator powers
        for a, b in ((1, 1), (2, 1), (2, 3)):
            w = parse_word(f"[x^{a},y^{b}]")
            p = specialize_pw(w)
            for n in range(2, 10):
                report = cohomology_defect(build_d2(w, FiniteQuotient.cyclic(n)))
                assert report.defect == count_Wn(p, n)


class TestMonomialWitness:
    def test_all_ones_target(self):
        q = FiniteQuotient.cyclic(5)
        wit = monomial_witness(parse_word("[x,y]"), q, [1.0] * 5)
        assert wit.matched == 5

    def test_random_su5_targets(self):
        rng = random.Random(0)
        q = FiniteQuotient.cyclic(5)
        w = parse_word("[x,y]")
        for _ in range(10):
            angles = [rng.uniform(-3, 3) for _ in range(4)]
            angles.append(-sum(angles))  # determinant one
            target = [cmath.exp(1j * a) for a in angles]
            wit = monomial_witness(w, q, target)
            assert wit.matched >= 4
            assert np.max(np.abs(wit.diagonal - np.asarray(target))) <= 1e-8

    def test_su_constraint_enforced(self):
        q = FiniteQuotient.cyclic(3)
        with pytest.raises(ValueError):
            monomial_witness(parse_word("[x,y]"), q, [1.0, 1.0, 1j])

    def test_unit_modulus_enforced(self):
        q = FiniteQuotient.cyclic(3)
        with pytest.raises(ValueError):
            monomial_witness(parse_word("[x,y]"), q, [0.5, 1.0, 1.0])


class TestSmithNormalForm:
    def test_transform_identity_random(self):
        rng = random.Random(1)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            u, d, v = smith_normal_form(m)
            # U M V = D exactly
            um = [
                [sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
                for i in range(rows)
            ]
            umv = [
                [sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
                for i in range(rows)
            ]
            assert umv == d
            # diagonal with divisibility chain
            diag = [d[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0 if a else b == 0)

    def test_known_example(self):
        _, d, _ = smith_normal_form([[2, 4], [6, 8]])
        # gcd of entries is 2 and |det| = 8, so the divisors are (2, 4)
        assert [d[0][0], d[1][1]] == [2, 4]


class TestSolveInAbelian:
    def test_solvable_example(self):
        report = solve_in_abelian([[2]], [2], 4)
        assert report.solvable
        assert (2 * report.solution[0]) % 4 == 2

    def test_unsolvable_with_multiplier(self):
        report = solve_in_abelian([[2]], [1], 4)
        assert not report.solvable
        assert report.multiplier == 2
        assert solve_in_abelian([[2]], [2 * 1], 4).solvable

    def test_d2_system_over_z6(self):
        mat = build_d2(parse_word("[x,y]"), FiniteQuotient.cyclic(5))
        rows = [list(r) for r in mat.rows]
        zero = solve_in_abelian(rows, [0] * 5, 6)
        assert zero.solvable

    def test_random_consistency(self):
        rng = random.Random(2)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            modulus = rng.choice([2, 4, 6, 9])
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            xi = [rng.randrange(modulus) for _ in range(cols)]
            target = [
                sum(m[i][j] * xi[j] for j in range(cols)) % modulus
                for i in range(rows)
            ]
            report = solve_in_abelian(m, target, modulus)
            assert report.solvable  # constructed from an actual solution

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(300):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            modulus = rng.choice([1, 2, 4, 6, 9])
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            target = [rng.randint(-10, 10) for _ in range(rows)]

            def solves(xi):
                return all(
                    (sum(a * x for a, x in zip(row, xi)) - t) % modulus == 0
                    for row, t in zip(m, target)
                )

            exists = any(
                solves(xi) for xi in itertools.product(range(modulus), repeat=cols)
            )
            report = solve_in_abelian(m, target, modulus)
            assert report.solvable == exists
            if report.solvable:
                assert solves(report.solution)


class TestWidthTwoShift:
    def test_three_point_line_pair(self):
        u = [[Fraction(1), Fraction(-1), Fraction(0)]]
        sigma = width_two_shift(u, u, 3)
        # sigma must not fix the span: verified inside; check it is not id
        shifted = [Fraction(0)] * 3
        for i, val in enumerate(u[0]):
            shifted[sigma(i)] = val
        assert shifted != u[0] or sigma != Permutation.identity(3)

    def test_full_hyperplane_needs_no_shift(self):
        v0 = [
            [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
        ]
        sigma = width_two_shift(v0, [], 4)
        assert isinstance(sigma, Permutation)

    def test_dimension_precondition(self):
        u = [[Fraction(1), Fraction(-1), Fraction(0), Fraction(0)]]
        with pytest.raises(ValueError):
            width_two_shift(u, u, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            width_two_shift([], [], n)
        assert width_two_shift([], [], 1) == Permutation.identity(1)

    def test_zero_sum_precondition(self):
        with pytest.raises(ValueError):
            width_two_shift([[Fraction(1), Fraction(0), Fraction(0)]], [], 3)

    def test_random_pairs(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(3, 9)
            d1 = rng.randint(0, n - 1)
            d2 = max(0, n - 1 - d1)
            u1 = _random_zero_sum(rng, n, d1)
            u2 = _random_zero_sum(rng, n, d2)
            sigma = width_two_shift(u1, u2, n, seed=7)
            assert sigma.degree == n


def _random_zero_sum(rng, n, d):
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
