"""The shared algebra helpers: square-and-multiply, word evaluation, and
Gauss-Jordan elimination over F_q."""

import random

import pytest

from wordmetric.cayley import FiniteQuotient
from wordmetric.ffield import FqPoly, make_field
from wordmetric.glapprox import (
    MatrixFq,
    _gauss_jordan,
    _nullspace,
    evaluate_word_matrix,
)
from wordmetric.perms import Permutation, evaluate_word
from wordmetric.sl2 import SL2Elem, evaluate_word_sl2
from wordmetric.words import Word, evaluate, parse_word, power

EXPONENTS = range(21)


def repeated(x, n, one, mul=lambda a, b: a * b):
    acc = one
    for _ in range(n):
        acc = mul(acc, x)
    return acc


def random_permutation(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def random_sl2(field, rng):
    while True:
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        if a:
            # d = (1 + b c) / a makes the determinant 1
            d = field.mul(field.add(1, field.mul(b, c)), field.inv(a))
            return SL2Elem(field, a, b, c, d)


def random_invertible(field, n, rng):
    while True:
        m = MatrixFq(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def group_samples():
    rng = random.Random(11)
    F4 = make_field(2, 2)
    return [
        (random_permutation(9, rng), Permutation.identity(9)),
        (random_sl2(make_field(7, 1), rng), SL2Elem.identity(make_field(7, 1))),
        (random_sl2(make_field(3, 2), rng), SL2Elem.identity(make_field(3, 2))),
        (random_invertible(F4, 3, rng), MatrixFq.identity(F4, 3)),
    ]


class TestPower:
    @pytest.mark.parametrize("index", range(4))
    def test_group_powers_match_repeated_multiplication(self, index):
        x, one = group_samples()[index]
        for n in EXPONENTS:
            expected = repeated(x, n, one)
            assert x ** n == expected
            assert power(x, n, one) == expected
            assert x ** -n == repeated(x.inverse(), n, one)

    def test_multiplication_count(self):
        # one squaring per bit after the first and one product per set bit
        # after the lowest, which starts the result; the base is never squared
        # after the last bit, and the identity is returned only for n = 0
        calls = []

        def mul(a, b):
            calls.append(None)
            return a + b

        for n in range(1, 200):
            calls.clear()
            assert power(1, n, 0, mul) == n
            assert len(calls) == bin(n).count("1") + n.bit_length() - 2
        calls.clear()
        assert power(5, 0, 0, mul) == 0 and not calls

    @pytest.mark.parametrize("p,e", [(7, 1), (3, 2), (2, 4), (2, 18)])
    def test_field_pow(self, p, e):
        # (2, 18) lies past the log-table limit, so it multiplies by the schoolbook product
        F = make_field(p, e)
        rng = random.Random(p * 100 + e)
        for a in [0, 1] + [rng.randrange(2, F.q) for _ in range(4)]:
            for n in EXPONENTS:
                assert F.pow(a, n) == repeated(a, n, 1, F.mul)
        assert F.pow(0, 0) == 1
        a = rng.randrange(1, F.q)
        assert F.pow(a, F.q - 1) == 1
        assert F.mul(F.pow(a, -3), F.pow(a, 3)) == 1

    def test_fqpoly_powmod(self):
        F = make_field(2, 2)
        rng = random.Random(12)
        for _ in range(5):
            modulus = FqPoly(F, [rng.randrange(F.q) for _ in range(3)] + [1])
            f = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randint(1, 6))])
            for n in EXPONENTS:
                expected = repeated(
                    f % modulus, n, FqPoly(F, [1]), lambda a, b: (a * b) % modulus
                )
                assert f.powmod(n, modulus) == expected

    def test_negative_exponent_is_rejected(self):
        F = make_field(2, 2)
        modulus = FqPoly(F, [1, 1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            power(2, -1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            FqPoly(F, [0, 1]).powmod(-1, modulus)


class TestEvaluate:
    @pytest.mark.parametrize("text", ["x", "y^-3", "[x,y]", "x^2 y^-1 x^3 y^4", "[[x,y],x]"])
    def test_letters_multiply_left_to_right(self, text):
        w = parse_word(text)
        rng = random.Random(13)
        F = make_field(5, 1)
        cases = [
            (evaluate_word, random_permutation(7, rng), random_permutation(7, rng)),
            (evaluate_word_sl2, random_sl2(F, rng), random_sl2(F, rng)),
            (evaluate_word_matrix, random_invertible(F, 3, rng), random_invertible(F, 3, rng)),
        ]
        for evaluator, g, h in cases:
            one = g ** 0
            expected = one
            for gen, step in w.unit_letters():
                base = g if gen == "x" else h
                expected = expected * (base if step == 1 else base.inverse())
            assert evaluator(w, g, h) == expected
            assert evaluate(w, g, h) == expected

    @pytest.mark.parametrize("text,products", [("[x,y]", 3), ("[x^2,y^3]", 9)])
    def test_products_start_from_the_first_syllable(self, monkeypatch, text, products):
        # [x^a,y^b] = x^-a y^-b x^a y^b: square-and-multiply for each syllable
        # power, three products to join them, and one inverse for each of g, h
        w = parse_word(text)
        rng = random.Random(17)
        F = make_field(5, 1)
        cases = [
            (Permutation, evaluate_word, lambda: random_permutation(7, rng)),
            (SL2Elem, evaluate_word_sl2, lambda: random_sl2(F, rng)),
            (MatrixFq, evaluate_word_matrix, lambda: random_invertible(F, 3, rng)),
        ]
        counts = {}

        def counted(name, method):
            def wrapper(*args):
                counts[name] += 1
                return method(*args)
            return wrapper

        for cls, evaluator, sample in cases:
            g, h = sample(), sample()
            counts.update({"__mul__": 0, "inverse": 0, "identity": 0})
            with monkeypatch.context() as m:
                m.setattr(cls, "__mul__", counted("__mul__", cls.__mul__))
                m.setattr(cls, "inverse", counted("inverse", cls.inverse))
                m.setattr(cls, "identity", staticmethod(counted("identity", cls.identity)))
                evaluator(w, g, h)
                assert counts == {"__mul__": products, "inverse": 2, "identity": 0}, cls
                for n in (1, 2, 5, -1, -6):
                    counts["identity"] = 0
                    g ** n
                    assert counts["identity"] == 0, (cls, n)
                # the empty word is the empty product, as is the empty
                # prefix of a Fox derivative in a finite quotient
                assert evaluator(Word(()), g, h) == g ** 0
        one = Permutation.identity(5)
        assert evaluate(Word(()), one, one) == one
        assert FiniteQuotient.cyclic(5).element(Word(())) == one


def random_rows(field, m, n, rng):
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)]
    if m >= 3 and rng.random() < 0.5:
        # force a dependency: last row = c * row 0 + row 1
        c = rng.randrange(field.q)
        rows[-1] = [field.add(field.mul(c, a), b) for a, b in zip(rows[0], rows[1])]
    return rows


def reference_rref(field, rows):
    """Echelon form by elimination below each pivot, then back substitution."""
    F = field
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        below = [i for i in range(r, len(mat)) if mat[i][col]]
        if not below:
            continue
        mat[r], mat[below[0]] = mat[below[0]], mat[r]
        inv = F.inv(mat[r][col])
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    for r in reversed(range(len(pivots))):
        for i in range(r):
            f = mat[i][pivots[r]]
            if f:
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
    return mat, pivots


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
class TestRref:
    def test_matches_reference_elimination(self, p, e):
        # 1 to 40 rows, dense and sparse
        F = make_field(p, e)
        rng = random.Random(p * 30 + e)
        for m in range(1, 41):
            rows = random_rows(F, m, rng.randint(1, 45), rng)
            if m % 2:
                rows = [[x if rng.random() < 0.2 else 0 for x in row] for row in rows]
            mat = F.array(rows)
            pivots = _gauss_jordan(F, mat)
            assert all(type(c) is int for c in pivots)
            assert (mat.tolist(), pivots) == reference_rref(F, rows)

    def test_reduced_form_rank_and_nullspace(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 10 + e)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = random_rows(F, m, n, rng)
            mat = F.array(rows)
            pivots = _gauss_jordan(F, mat)
            mat = mat.tolist()
            rank = len(pivots)
            assert pivots == sorted(set(pivots))
            for r, c in enumerate(pivots):
                assert [mat[i][c] for i in range(m)] == [int(i == r) for i in range(m)]
                assert not any(mat[r][:c])
            assert all(not any(row) for row in mat[rank:])
            assert MatrixFq(F, rows).rank() == rank
            basis = _nullspace(F, F.array(rows)).tolist()
            assert rank + len(basis) == n
            a = MatrixFq(F, rows)
            for v in basis:
                assert not any(x for (x,) in (a * MatrixFq(F, [[c] for c in v])).rows)
            if basis:
                assert MatrixFq(F, basis).rank() == len(basis)

    def test_inverse_or_singular(self, p, e):
        F = make_field(p, e)
        rng = random.Random(p * 20 + e)
        seen = set()
        for _ in range(40):
            n = rng.randint(1, 5)
            a = MatrixFq(F, random_rows(F, n, n, rng))
            if a.rank() == n:
                seen.add("invertible")
                assert a.inverse() * a == MatrixFq.identity(F, n)
                assert a * a.inverse() == MatrixFq.identity(F, n)
            else:
                seen.add("singular")
                with pytest.raises(ValueError):
                    a.inverse()
        assert seen == {"invertible", "singular"}


def test_word_sized_prime_is_reduced_exactly():
    # a prime past the machine word: (p - 1)^2 exceeds 2^63
    F = make_field(4294967291, 1)
    rng = random.Random(30)
    n = 30
    a = MatrixFq(F, random_rows(F, n, n, rng))
    mat = F.array(a.rows)
    pivots = _gauss_jordan(F, mat)
    assert mat.tolist() == [[int(i == j) for j in range(n)] for i in range(n)]
    assert pivots == list(range(n))
    assert a.inverse() * a == MatrixFq.identity(F, n)
    assert a * a.inverse() == MatrixFq.identity(F, n)
    rows = [list(row) for row in a.rows]
    rows[-1] = [F.add(F.mul(7, x), y) for x, y in zip(rows[0], rows[1])]
    mat = F.array(rows)
    pivots = _gauss_jordan(F, mat)
    assert (mat.tolist(), pivots) == reference_rref(F, rows)
    assert len(pivots) == n - 1
    (v,) = _nullspace(F, F.array(rows)).tolist()
    assert not any(x for (x,) in (MatrixFq(F, rows) * MatrixFq(F, [[c] for c in v])).rows)


def test_inverse_is_computed_once():
    F = make_field(3, 1)
    a = MatrixFq(F, [[1, 2], [0, 1]])
    assert a.inverse() is a.inverse()
    assert a.inverse() * a == MatrixFq.identity(F, 2)
    singular = MatrixFq(F, [[1, 2], [2, 1]])
    for _ in range(2):
        with pytest.raises(ValueError):
            singular.inverse()
