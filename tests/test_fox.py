"""Fox derivatives, membership chain, p_w, root counting, SU certificates."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import wordmetric
from wordmetric.fox import (
    IN_F2PRIME_NOT_F2SECOND,
    IN_F2SECOND,
    NOT_IN_F2PRIME,
    SURJECTIVE,
    SURJECTIVE_TRIVIALLY,
    UNKNOWN,
    GroupRingElem,
    LaurentPoly1,
    LaurentPoly2,
    _choose_direction,
    _specialize,
    abelianized_derivatives,
    count_Wn,
    derived_membership,
    fox_derivative,
    fox_identity_holds,
    specialize_details,
    specialize_pw,
    su_certificate,
)
from wordmetric.words import Word, parse_word


def random_word(rng, max_syllables=6):
    letters = []
    for _ in range(rng.randint(1, max_syllables)):
        letters.append((rng.choice("xy"), rng.choice([-3, -2, -1, 1, 2, 3])))
    return Word(tuple(letters))


class TestGroupRing:
    def test_ring_axioms_random(self):
        rng = random.Random(0)
        for _ in range(30):
            a = GroupRingElem.of(random_word(rng), rng.randint(-3, 3))
            b = GroupRingElem.of(random_word(rng), rng.randint(-3, 3))
            c = GroupRingElem.of(random_word(rng), rng.randint(-3, 3))
            assert (a + b) * c == a * c + b * c
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a

    def test_no_zero_coefficients_stored(self):
        a = GroupRingElem.of(parse_word("x"), 2)
        b = GroupRingElem.of(parse_word("x"), -2)
        assert (a + b).is_zero()
        assert not (a + b).terms

    def test_rings_of_different_kinds_differ(self):
        assert GroupRingElem() != LaurentPoly1()
        assert LaurentPoly1() != LaurentPoly2()
        assert LaurentPoly1({0: 1}) != LaurentPoly2({(0, 0): 1})


def _laurent_key_1(rng):
    return rng.randint(-3, 3)


def _laurent_key_2(rng):
    return (rng.randint(-2, 2), rng.randint(-2, 2))


@pytest.mark.parametrize(
    "cls,key,unit", [(LaurentPoly1, _laurent_key_1, 0), (LaurentPoly2, _laurent_key_2, (0, 0))]
)
class TestLaurentRing:
    def random(self, rng, cls, key):
        return cls({key(rng): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})

    def test_ring_axioms_random(self, cls, key, unit):
        rng = random.Random(1)
        one, zero = cls({unit: 1}), cls()
        for _ in range(50):
            a, b, c = (self.random(rng, cls, key) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a and a * b == b * a
            assert a + zero == a and a * one == a
            assert (a - a).is_zero() and a - b == a + (-b)
            assert hash(a + b) == hash(b + a)

    def test_no_zero_coefficients_stored(self, cls, key, unit):
        rng = random.Random(2)
        for _ in range(50):
            terms = {key(rng): rng.randint(-3, 3) for _ in range(4)}
            a = cls(terms)
            assert a.terms == {k: c for k, c in terms.items() if c}
            assert not (a - cls(terms)).terms
            product = a * self.random(rng, cls, key)
            assert all(product.terms.values())


class TestFoxDerivative:
    def test_generators(self):
        x = parse_word("x")
        assert fox_derivative(x, "x") == GroupRingElem.one()
        assert fox_derivative(x, "y").is_zero()

    def test_inverse_rule(self):
        # d(x^-1)/dx = -x^-1
        d = fox_derivative(parse_word("x^-1"), "x")
        assert d == GroupRingElem.of(parse_word("x^-1"), -1)

    def test_fundamental_identity_random(self):
        rng = random.Random(1)
        for _ in range(50):
            assert fox_identity_holds(random_word(rng))

    def test_power_formula(self):
        # d(x^a)/dx = 1 + x + ... + x^{a-1}
        d = fox_derivative(parse_word("x^3"), "x")
        expected = (
            GroupRingElem.one()
            + GroupRingElem.of(parse_word("x"))
            + GroupRingElem.of(parse_word("x^2"))
        )
        assert d == expected

    def test_one_sum_per_derivative(self, monkeypatch):
        # the terms are summed in one dict: no element is rebuilt per letter,
        # so the cost is linear in the exponents
        built = []
        original = GroupRingElem.__init__

        def counted(self, terms=None):
            built.append(len(terms or ()))
            original(self, terms)

        monkeypatch.setattr(GroupRingElem, "__init__", counted)
        for e in (1, 30, 1001):
            built.clear()
            d = fox_derivative(parse_word(f"[x^{e},y]"), "x")
            # -x^-1 - ... - x^-e, then x^-e y^-1 (1 + x + ... + x^(e-1))
            assert sorted(d.terms.values()) == [-1] * e + [1] * e
            assert built == [2 * e], e


class TestMembership:
    def test_chain_examples(self):
        assert derived_membership(parse_word("x y")) == NOT_IN_F2PRIME
        assert derived_membership(parse_word("[x,y]")) == IN_F2PRIME_NOT_F2SECOND
        assert (
            derived_membership(parse_word("[[x,y],[x,y^2]]")) == IN_F2SECOND
        )

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            derived_membership(Word(()))

    def test_commutators_of_generators(self):
        for a in range(1, 4):
            for b in range(1, 4):
                w = parse_word(f"[x^{a},y^{b}]")
                assert derived_membership(w) == IN_F2PRIME_NOT_F2SECOND


class TestSpecialization:
    def test_commutator_closed_form(self):
        # p_{[x^a,y^b]} = -b (X^{-a} - 1) up to units
        for a in range(1, 6):
            for b in range(1, 6):
                p = specialize_pw(parse_word(f"[x^{a},y^{b}]"))
                expected = LaurentPoly1({-a: -b, 0: b})
                assert p.equals_up_to_units(expected)

    def test_specialization_nonzero(self):
        rng = random.Random(2)
        found = 0
        while found < 20:
            w = random_word(rng)
            if w.cyclic_reduce().is_trivial():
                continue
            if derived_membership(w) != IN_F2PRIME_NOT_F2SECOND:
                continue
            found += 1
            spec = specialize_details(w)
            assert not spec.p.is_zero()

    def test_spiral_direction_when_both_axes_vanish(self):
        # z = (X - 1)(Y - 1) collapses to 0 along both axes
        z = LaurentPoly2({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
        assert _specialize(z, (1, 0)).is_zero() and _specialize(z, (0, 1)).is_zero()
        (alpha, beta), p = _choose_direction(z)
        assert (alpha, beta) == (-2, -1)
        assert len({alpha * i + beta * j for i, j in z.support()}) == len(z.support())
        assert not p.is_zero()

    def test_rejects_wrong_membership(self):
        with pytest.raises(ValueError):
            specialize_pw(parse_word("x"))
        with pytest.raises(ValueError):
            specialize_pw(parse_word("[[x,y],[x,y^2]]"))


class TestRootCounting:
    def test_commutator_wn(self):
        p = specialize_pw(parse_word("[x,y]"))
        # p ~ X^{-1} - 1: the only root of unity is 1, but 1 is an nth root
        # for every n, so |W_n| = 1 always
        for n in range(1, 15):
            assert count_Wn(p, n) == 1

    def test_counts_match_explicit_roots(self):
        # p = X^2 - 1 has roots ±1
        p = LaurentPoly1({0: -1, 2: 1})
        assert count_Wn(p, 1) == 1
        assert count_Wn(p, 2) == 2
        assert count_Wn(p, 3) == 1
        assert count_Wn(p, 4) == 2

    def test_no_roots(self):
        p = LaurentPoly1({0: 2})  # constant 2: no roots at all
        assert count_Wn(p, 6) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            count_Wn(LaurentPoly1({}), 3)

    def test_matches_numeric_root_count(self):
        polys = [LaurentPoly1({0: -1, 2: 1}), LaurentPoly1({0: 2})]
        for a in range(1, 6):
            for b in range(1, 6):
                polys.append(specialize_pw(parse_word(f"[x^{a},y^{b}]")))
        rng = random.Random(2)
        found = 0
        while found < 20:
            w = random_word(rng)
            if w.cyclic_reduce().is_trivial():
                continue
            if derived_membership(w) == IN_F2PRIME_NOT_F2SECOND:
                polys.append(specialize_pw(w))
                found += 1
        for p in polys:
            exps = np.array(list(p.terms))
            coeffs = np.array(list(p.terms.values()), dtype=float)
            for n in range(1, 41):
                roots = np.exp(2j * np.pi * np.arange(n) / n)
                values = (coeffs * roots[:, None] ** exps).sum(axis=1)
                assert count_Wn(p, n) == int(np.sum(np.abs(values) < 1e-9))


class TestCertificates:
    def test_surjective(self):
        cert = su_certificate(parse_word("[x,y]"), 9)
        assert cert.verdict == SURJECTIVE
        assert cert.wn == 1

    def test_trivially_surjective(self):
        cert = su_certificate(parse_word("x y"), 4)
        assert cert.verdict == SURJECTIVE_TRIVIALLY

    def test_unknown_for_second_derived(self):
        cert = su_certificate(parse_word("[[x,y],[x,y^2]]"), 5)
        assert cert.verdict == UNKNOWN

    def test_serialization_round_trip(self):
        import json

        cert = su_certificate(parse_word("[x^2,y^3]"), 6)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        assert json.loads(blob)["verdict"] == cert.verdict


class TestInvolutionConsistency:
    def test_derivatives_vanish_iff_second_derived(self):
        rng = random.Random(3)
        for _ in range(50):
            w = random_word(rng)
            if w.cyclic_reduce().is_trivial():
                continue
            dx, dy = abelianized_derivatives(w)
            if w.abelianization() == (0, 0):
                both_zero = dx.is_zero() and dy.is_zero()
                assert both_zero == (derived_membership(w) == IN_F2SECOND)


def test_import_loads_no_third_party_module_but_numpy():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wordmetric\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names)))\n"
    )
    src = os.path.dirname(os.path.dirname(wordmetric.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "['numpy', 'wordmetric']"
