"""Finite fields, polynomials over them, embeddings, root finding."""

import itertools
import json
import operator
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import wordmetric

from wordmetric.ffield import (
    Field,
    FqPoly,
    _is_irreducible,
    _least_irreducible,
    element_of_order,
    embed,
    factorize,
    find_any_root,
    is_prime,
    make_field,
    min_extension_root,
)
from wordmetric.glapprox import _irreducible_factors

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4), (5, 3)]


def test_is_prime_matches_trial_division():
    for n in range(2, 500):
        naive = all(n % d for d in range(2, n))
        assert is_prime(n) == naive


def test_factorize_reassembles():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(2, 10**6)
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


@pytest.mark.parametrize("p,e", FIELDS)
class TestFieldAxioms:
    def test_additive_group(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 100 + e)
        for _ in range(30):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.add(a, b) == F.add(b, a)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.add(a, F.neg(a)) == 0

    def test_multiplicative_group(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 200 + e)
        for _ in range(30):
            a = rng.randrange(1, F.q)
            b = rng.randrange(1, F.q)
            assert F.mul(a, F.inv(a)) == 1
            assert F.mul(a, b) == F.mul(b, a)

    def test_distributivity(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 300 + e)
        for _ in range(30):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    def test_frobenius_is_additive(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 400 + e)
        for _ in range(20):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(a) == F.pow(a, p)

    def test_generator_has_full_order(self, p, e):
        F = make_field(p, e)
        g = F.multiplicative_generator()
        assert F.element_order(g) == F.q - 1


class TestOrders:
    def test_element_of_order(self):
        F = make_field(13, 1)
        for k in (1, 2, 3, 4, 6, 12):
            assert F.element_order(element_of_order(F, k)) == k

    def test_element_of_order_rejects_nondivisor(self):
        F = make_field(7, 1)
        with pytest.raises(ValueError):
            element_of_order(F, 5)


class TestEmbeddings:
    def test_embedding_is_a_ring_hom(self):
        small = make_field(3, 1)
        big = make_field(3, 4)
        f = embed(small, big)
        for a in range(small.q):
            for b in range(small.q):
                assert f(small.add(a, b)) == big.add(f(a), f(b))
                assert f(small.mul(a, b)) == big.mul(f(a), f(b))

    def test_tower_embedding(self):
        small = make_field(2, 2)
        big = make_field(2, 4)
        f = embed(small, big)
        assert f(0) == 0 and f(1) == 1
        orders = {small.element_order(a) for a in range(1, small.q)}
        assert {big.element_order(f(a)) for a in range(1, small.q)} == orders

    def test_incompatible_extension_rejected(self):
        with pytest.raises(ValueError):
            embed(make_field(2, 3), make_field(2, 4))


class TestPolynomials:
    def test_divmod_identity(self):
        F = make_field(5, 1)
        rng = random.Random(7)
        for _ in range(50):
            a = FqPoly(F, [rng.randrange(5) for _ in range(rng.randint(1, 8))])
            b = FqPoly(F, [rng.randrange(5) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_gcd_divides_both(self):
        F = make_field(3, 1)
        rng = random.Random(8)
        for _ in range(50):
            a = FqPoly(F, [rng.randrange(3) for _ in range(rng.randint(1, 6))])
            b = FqPoly(F, [rng.randrange(3) for _ in range(rng.randint(1, 6))])
            if a.is_zero() or b.is_zero():
                continue
            g = a.gcd(b)
            assert (a % g).is_zero() and (b % g).is_zero()

    def test_evaluate_matches_horner_by_hand(self):
        F = make_field(7, 1)
        # 3 + 2X + X^2 at X=4: 3 + 8 + 16 = 27 = 6 mod 7
        poly = FqPoly(F, [3, 2, 1])
        assert poly.evaluate(4) == 6


class TestRoots:
    def test_find_any_root_linear_and_split(self):
        F = make_field(11, 1)
        # (X-3)(X-5) = X^2 - 8X + 15
        poly = FqPoly(F, [15 % 11, (-8) % 11, 1])
        root = find_any_root(poly)
        assert root in (3, 5)

    def test_find_any_root_irreducible_returns_none(self):
        F = make_field(3, 1)
        # X^2 + 1 has no root mod 3
        assert find_any_root(FqPoly(F, [1, 0, 1])) is None

    def test_min_extension_root_degree_bound(self):
        rng = random.Random(9)
        for p in (3, 5, 7):
            F = make_field(p, 1)
            for _ in range(20):
                coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 5))]
                coeffs.append(rng.randrange(1, p))
                poly = FqPoly(F, coeffs)
                l = poly.degree
                found = min_extension_root(poly, l)
                assert found is not None
                m, root, big = found
                assert 1 <= m <= l
                lifted = poly.map_coeffs(embed(F, big) if m > 1 else (lambda a: a), big)
                assert lifted.evaluate(root) == 0
                # minimality: no root in any strictly smaller extension
                for mm in range(1, m):
                    sub = make_field(p, mm)
                    sub_poly = poly.map_coeffs(
                        embed(F, sub) if mm > 1 else (lambda a: a), sub
                    )
                    assert all(sub_poly.evaluate(a) for a in range(sub.q))

    @pytest.mark.parametrize(
        "p,coeffs,root,q",
        [
            (13, [8, 4, 0, 1, 1], 8206, 28561),
            (19, [13, 2, 18, 6, 1], 88006, 130321),
            (13, [11, 12, 2, 6, 1], 22794, 28561),
            (17, [7, 7, 6, 5, 1], 15609, 83521),
        ],
    )
    def test_min_extension_root_is_pinned(self, p, coeffs, root, q):
        # fields above 4096 elements take the seeded splitting path
        m, found, big = min_extension_root(FqPoly(make_field(p, 1), coeffs), 4)
        assert (m, found, big.q) == (4, root, q)


# Each call ran for more than 40 s before the characteristic-2 splitting
# probe became Tr(rX): Tr(X + r) = Tr(X) + Tr(r) never separates roots whose
# absolute traces agree, and Frobenius conjugates always agree.
CHAR2_CALLS = {
    "x2_plus_x": (
        "F = make_field(2, 14)\n"
        "f = FqPoly(F, [0, 1, 1])\n"
        "r = find_any_root(f)\n"
        "print(json.dumps([r, f.evaluate(r)]))\n"
    ),
    "x2_plus_x_plus_1": (
        "F = make_field(2, 14)\n"
        "f = FqPoly(F, [1, 1, 1])\n"
        "r = find_any_root(f)\n"
        "print(json.dumps([r, f.evaluate(r)]))\n"
    ),
    "embedding": "print(json.dumps(embedding((2, 2), (2, 14))))\n",
    "solve_trace": (
        "w = parse_word('x y x y x y^-1')\n"
        "sol = solve_trace(w, make_field(2, 7), 1)\n"
        "value = evaluate_word_sl2(w, sol.g, sol.h)\n"
        "print(json.dumps([sol.field.p, sol.field.e, value.trace()]))\n"
    ),
}


def _run_child(body):
    code = (
        "import json\n"
        "from wordmetric.ffield import FqPoly, embedding, find_any_root, make_field\n"
        "from wordmetric.sl2 import evaluate_word_sl2, solve_trace\n"
        "from wordmetric.words import parse_word\n" + body
    )
    src = os.path.dirname(os.path.dirname(wordmetric.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", ["x2_plus_x", "x2_plus_x_plus_1"])
def test_characteristic_two_root_is_found(name):
    root, value = _run_child(CHAR2_CALLS[name])
    assert 0 <= root < 2**14
    assert value == 0


def test_characteristic_two_embedding_is_a_ring_hom():
    table = _run_child(CHAR2_CALLS["embedding"])
    small, big = make_field(2, 2), make_field(2, 14)
    assert len(table) == small.q
    assert len(set(table)) == small.q
    for a in range(small.q):
        for b in range(small.q):
            assert table[small.add(a, b)] == big.add(table[a], table[b])
            assert table[small.mul(a, b)] == big.mul(table[a], table[b])


def test_characteristic_two_trace_is_solved():
    # the trace polynomial has degree 3, so the root field is F_{2^(7m)}, m <= 3
    p, e, trace = _run_child(CHAR2_CALLS["solve_trace"])
    assert p == 2 and e in (7, 14, 21)
    assert trace == 1


def _monic_polys(p, degree):
    """Monic polynomials of the given degree over F_p, coefficients low to
    high, with c_0 varying fastest."""
    for code in range(p**degree):
        yield [(code // p**i) % p for i in range(degree)] + [1]


def _divides_mod_p(f, g, p):
    """Whether the monic f divides g over F_p, by long division."""
    rem = list(g)
    for shift in range(len(g) - len(f), -1, -1):
        c = rem[shift + len(f) - 1] % p
        for i, fi in enumerate(f):
            rem[shift + i] -= c * fi
    return all(r % p == 0 for r in rem)


@pytest.mark.parametrize(
    "p,e", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
)
def test_least_irreducible_matches_trial_division(p, e):
    expected = next(
        g
        for g in _monic_polys(p, e)
        if not any(
            _divides_mod_p(f, g, p)
            for d in range(1, e // 2 + 1)
            for f in _monic_polys(p, d)
        )
    )
    assert _least_irreducible(p, e) == expected


def test_is_irreducible_over_extension_fields():
    # over F_4 = F_2(w), X + w is irreducible and X^2 + X + 1 = (X + w)(X + w^2)
    # is not; Rabin's test must raise X to powers of q, not of p
    F4 = make_field(2, 2)
    assert _is_irreducible(FqPoly(F4, [2, 1]))
    assert not _is_irreducible(FqPoly(F4, [1, 1, 1]))
    for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        F = make_field(p, e)
        for d in range(4):
            for digits in itertools.product(range(F.q), repeat=d):
                f = FqPoly(F, list(digits) + [1])
                assert _is_irreducible(f) == (_irreducible_factors(f) == [f]), f


def _reference_product(F, a, b):
    base = make_field(F.p, 1)
    prod = FqPoly(base, F.coeffs(a)) * FqPoly(base, F.coeffs(b))
    return F.encode((prod % FqPoly(base, F.modulus)).coeffs)


# the schoolbook product is the scalar multiplication past the table limit
# and builds the tables below it; both must agree with the polynomial product


@pytest.mark.parametrize("p,e", [(2, 4), (5, 2), (3, 3)])
def test_mul_slow_matches_polynomial_product_on_all_pairs(p, e):
    F = make_field(p, e)
    for a in range(F.q):
        for b in range(F.q):
            expected = _reference_product(F, a, b)
            assert F._schoolbook(a, b, operator.mul) == expected
            assert F.mul(a, b) == expected


@pytest.mark.parametrize("p,e", [(11, 4), (7681, 2), (2, 18), (17, 6)])
def test_mul_slow_matches_polynomial_product_on_random_pairs(p, e):
    F = make_field(p, e)
    rng = random.Random(p + e)
    for _ in range(500):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        expected = _reference_product(F, a, b)
        assert F._schoolbook(a, b, operator.mul) == expected
        assert F.mul(a, b) == expected


def _reference_tables(F):
    """exp and log one element at a time, g^i by repeated multiplication
    with the polynomial product: the reference for the doubling build."""
    g = F.multiplicative_generator()
    exp = [1] * (2 * (F.q - 1))
    log = [0] * F.q
    acc = 1
    for i in range(F.q - 1):
        exp[i] = acc
        log[acc] = i
        acc = _reference_product(F, acc, g)
    for i in range(F.q - 1, 2 * (F.q - 1)):
        exp[i] = exp[i - (F.q - 1)]
    return exp, log


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 10), (3, 7), (17, 3), (11, 4)])
def test_tables_match_the_per_element_loop(p, e):
    F = make_field(p, e)
    assert (F._exp, F._log) == _reference_tables(F)
    assert all(type(x) is int for x in F._exp + F._log)
    # both halves of exp share their int objects
    assert all(x is y for x, y in zip(F._exp[:F.q - 1], F._exp[F.q - 1:]))


# a prime field, one with tables, and two past the table limit
ARITHMETIC_FIELDS = [(7, 1), (3, 4), (2, 18), (17, 6)]


@pytest.mark.parametrize("p,e", ARITHMETIC_FIELDS)
def test_scalar_operations_return_python_ints(p, e):
    F = make_field(p, e)
    rng = random.Random(p * 3 + e)
    for _ in range(20):
        a, b = rng.randrange(1, F.q), rng.randrange(F.q)
        for value in (F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b), F.inv(a)):
            assert type(value) is int


@pytest.mark.parametrize("p,e", ARITHMETIC_FIELDS)
def test_array_operations_return_arrays_of_the_scalar_results(p, e):
    F = make_field(p, e)
    rng = random.Random(p * 5 + e)
    a, b = ([rng.randrange(F.q) for _ in range(12)] for _ in range(2))
    x, y = F.array(a), F.array(b)
    for op in (F.add, F.sub, F.mul_arrays):
        out = op(x, y)
        assert isinstance(out, np.ndarray) and out.dtype == x.dtype
        scalar = F.mul if op is F.mul_arrays else op
        assert out.tolist() == [scalar(s, t) for s, t in zip(a, b)]
    out = F.neg(x)
    assert isinstance(out, np.ndarray) and out.tolist() == [F.neg(s) for s in a]
    digits = F.coeffs(x)
    assert len(digits) == F.e and all(isinstance(d, np.ndarray) for d in digits)
    assert F.encode(digits).tolist() == a
