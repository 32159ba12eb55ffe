"""SL2 over finite fields: projective action, classifier, trace machinery."""

import itertools
import random

import pytest

from wordmetric.ffield import embed, make_field
from wordmetric import sl2
from wordmetric.perms import Permutation
from wordmetric.sl2 import (
    SL2Elem,
    classify_cycle_type,
    evaluate_word_sl2,
    isotypic_word_value,
    near_cycle_word_value,
    projective_permutation,
    solve_trace,
    unipotent_trace_poly,
)
from wordmetric.words import parse_word


def all_sl2(field):
    for a, b, c, d in itertools.product(range(field.q), repeat=4):
        if field.sub(field.mul(a, d), field.mul(b, c)) == 1:
            yield SL2Elem(field, a, b, c, d)


def sl2_elements(field):
    """Every element of SL2, with d = (1 + bc)/a or, for a = 0, c = -1/b."""
    F = field
    for a, b, c in itertools.product(range(F.q), repeat=3):
        if a:
            yield SL2Elem(F, a, b, c, F.mul(F.add(1, F.mul(b, c)), F.inv(a)))
    for b in range(1, F.q):
        for d in range(F.q):
            yield SL2Elem(F, 0, b, F.neg(F.inv(b)), d)


def random_sl2(field, rng):
    while True:
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        if a:
            # d = (1 + bc) / a
            d = field.mul(field.add(1, field.mul(b, c)), field.inv(a))
            return SL2Elem(field, a, b, c, d)


class TestGroupStructure:
    def test_mul_inverse_identity(self):
        F = make_field(7, 1)
        rng = random.Random(0)
        for _ in range(50):
            g = random_sl2(F, rng)
            h = random_sl2(F, rng)
            assert (g * g.inverse()) == SL2Elem.identity(F)
            assert (g * h).inverse() == h.inverse() * g.inverse()

    def test_order_annihilates(self):
        for p, e in ((5, 1), (7, 1), (3, 2)):
            F = make_field(p, e)
            rng = random.Random(p + e)
            for _ in range(30):
                g = random_sl2(F, rng)
                o = g.order()
                assert g**o == SL2Elem.identity(F)
                for d in range(1, o):
                    if o % d == 0:
                        assert g**d != SL2Elem.identity(F)

    def test_projective_action_is_a_homomorphism(self):
        F = make_field(5, 1)
        rng = random.Random(1)
        for _ in range(40):
            g = random_sl2(F, rng)
            h = random_sl2(F, rng)
            assert projective_permutation(g * h) == projective_permutation(
                g
            ) * projective_permutation(h)


class TestClassifier:
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_matches_enumeration_small(self, p, e):
        F = make_field(p, e)
        for g in all_sl2(F):
            assert classify_cycle_type(g) == projective_permutation(g).cycle_type()

    def test_central_elements_fix_everything(self):
        F = make_field(7, 1)
        minus = SL2Elem(F, 6, 0, 0, 6)
        assert classify_cycle_type(minus) == ((1, 8),)

    def test_unipotent_shape(self):
        F = make_field(9 // 3, 2)  # F_9
        g = SL2Elem(F, 1, 1, 0, 1)
        assert classify_cycle_type(g) == ((1, 1), (3, 3))


class TestTracePolynomial:
    def test_commutator_closed_form(self):
        # tr [x,y](g_U, h) = U^2 + 2 for the standard unipotent pair
        for p in (5, 7, 11):
            F = make_field(p, 1)
            poly = unipotent_trace_poly(parse_word("[x,y]"), F)
            assert list(poly.coeffs) == [2 % p, 0, 1]

    def test_degree_and_leading_coefficient(self):
        rng = random.Random(2)
        for p in (5, 7):
            F = make_field(p, 1)
            for _ in range(20):
                l = rng.randint(1, 3)
                exps = []
                lead = 1
                for _ in range(2 * l):
                    e = rng.choice([-2, -1, 1, 2])
                    exps.append(e)
                prod = 1
                for e in exps:
                    prod = prod * e % p
                if prod % p == 0:
                    continue
                text = " ".join(
                    f"{'x' if i % 2 == 0 else 'y'}^{e}" for i, e in enumerate(exps)
                )
                poly = unipotent_trace_poly(parse_word(text), F)
                assert poly.degree == l
                assert poly.leading() == prod % p

    def test_trace_poly_matches_direct_evaluation(self):
        F = make_field(11, 1)
        w = parse_word("x^-1 y^-1 x y^2")
        poly = unipotent_trace_poly(w, F)
        for u in range(11):
            g = SL2Elem(F, 1, 0, u, 1)
            h = SL2Elem(F, 1, 1, 0, 1)
            assert poly.evaluate(u) == evaluate_word_sl2(w, g, h).trace()


class TestSolveTrace:
    @pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
    def test_hits_every_trace(self, p, e):
        F = make_field(p, e)
        w = parse_word("[x,y]")
        for t in range(F.q):
            sol = solve_trace(w, F, t)
            assert sol.m <= 2
            expected = t if sol.m == 1 else embed(F, sol.field)(t)
            assert evaluate_word_sl2(w, sol.g, sol.h).trace() == expected

    def test_swapped_word(self):
        F = make_field(7, 1)
        w = parse_word("[y,x]")
        for t in range(7):
            sol = solve_trace(w, F, t)
            expected = t if sol.m == 1 else embed(F, sol.field)(t)
            assert evaluate_word_sl2(w, sol.g, sol.h).trace() == expected


class TestIsotypic:
    def test_cycle_structure(self):
        w = parse_word("[x,y]")
        iso = isotypic_word_value(w, 2, make_field(5, 1))
        sigma = iso.sigma
        q = iso.field.q
        assert sigma.cycle_type() == ((1, 2), (2, (q - 1) // 2))

    def test_preimages_re_evaluate(self):
        w = parse_word("[x,y]")
        for k, p in ((2, 5), (3, 7), (5, 11)):
            iso = isotypic_word_value(w, k, make_field(p, 1))
            assert iso.sigma == projective_permutation(
                evaluate_word_sl2(w, iso.g, iso.h)
            )

    @pytest.mark.parametrize(
        "word,k,p,q,cycles", [("[x,y]", 2, 5, 625, 312), ("[x^2,y^3]", 3, 7, 49, 16)]
    )
    def test_higher_level_embeds_the_solution(self, word, k, p, q, cycles):
        # level i = 2 embeds g, h in the quadratic extension of their field
        w = parse_word(word)
        iso = isotypic_word_value(w, k, make_field(p, 1), i=2)
        assert iso.field.q == q
        assert iso.g.field is iso.field and iso.h.field is iso.field
        assert iso.sigma.cycle_type() == ((1, 2), (k, cycles))
        assert iso.sigma == projective_permutation(evaluate_word_sl2(w, iso.g, iso.h))

    def test_two_fixed_points_rest_k_cycles(self):
        w = parse_word("x^-1 y^-1 x y^2")
        iso = isotypic_word_value(w, 3, make_field(7, 1))
        pairs = dict(iso.sigma.cycle_type())
        assert pairs[1] == 2
        assert set(pairs) == {1, 3}

    @pytest.mark.parametrize(
        "word,sigma,g_perm,h_perm",
        [
            ("[x,y]", [5, 0, 3, 4, 2, 1, 6, 7], [0, 3, 4, 5, 6, 7, 1, 2], [2, 1, 5, 4, 7, 6, 3, 0]),
            # starts with a y-syllable, so the generators are exchanged
            ("y^-1 x^-1 y x^2", [7, 3, 1, 2, 0, 5, 6, 4], [2, 1, 5, 4, 7, 6, 3, 0],
             [0, 4, 5, 6, 7, 1, 2, 3]),
        ],
    )
    def test_value_is_pinned(self, word, sigma, g_perm, h_perm):
        iso = isotypic_word_value(parse_word(word), 3, make_field(7, 1))
        assert list(iso.sigma.images) == sigma
        assert list(iso.g_perm.images) == g_perm
        assert list(iso.h_perm.images) == h_perm


class TestNearCycle:
    def test_defect_bound(self):
        w = parse_word("[x,y]")
        for p in (11, 13, 17):
            F = make_field(p, 1)
            near = near_cycle_word_value(w, F)
            assert near.sigma == projective_permutation(
                evaluate_word_sl2(w, near.g, near.h)
            )
            cycles = len(near.sigma.cycles())
            assert cycles == max(1, near.defect)

    def test_long_cycle_has_no_defect(self):
        # in characteristic 2, SL2(q) has elements of order q + 1
        near = near_cycle_word_value(parse_word("[x,y]"), make_field(2, 4))
        assert near.sigma.cycle_type() == ((17, 1),)
        assert near.defect == 0

    def test_requires_large_field(self):
        with pytest.raises(ValueError):
            near_cycle_word_value(parse_word("[x,y]"), make_field(5, 1))

    @pytest.mark.parametrize(
        "p,e,fewest",
        [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (11, 1, 2), (13, 1, 2), (2, 2, 1), (2, 3, 1)],
    )
    def test_least_cycle_count(self, p, e, fewest):
        # the sweep stops at this count: one cycle needs even q
        F = make_field(p, e)
        elements = list(sl2_elements(F))
        assert len(set(elements)) == F.q * (F.q**2 - 1)
        counts = {sum(c for _, c in classify_cycle_type(g)) for g in elements if not g.is_central()}
        assert min(counts) == fewest

    def test_sweep_stops_at_two_cycles_for_odd_q(self, monkeypatch):
        # over F_121 the first two-cycle value comes at u = 13 of 120
        calls = []

        def counted(g):
            calls.append(g)
            return classify_cycle_type(g)

        monkeypatch.setattr(sl2, "classify_cycle_type", counted)
        near = near_cycle_word_value(parse_word("[x,y]"), make_field(11, 2))
        assert near.defect == 2
        assert len(calls) <= 13

    @pytest.mark.parametrize(
        "word,sigma,g_perm,h_perm",
        [
            ("[x,y]", [1, 10, 8, 2, 0, 13, 7, 5, 4, 6, 3, 12, 9, 11],
             [0] + list(range(2, 14)) + [1], [2, 1, 8, 6, 5, 7, 4, 13, 10, 12, 11, 9, 3, 0]),
            ("y^-1 x^-1 y x^2", [10, 12, 3, 4, 8, 1, 11, 5, 13, 0, 7, 2, 9, 6],
             [2, 1, 8, 6, 5, 7, 4, 13, 10, 12, 11, 9, 3, 0], [0] + list(range(3, 14)) + [1, 2]),
        ],
    )
    def test_value_is_pinned(self, word, sigma, g_perm, h_perm):
        near = near_cycle_word_value(parse_word(word), make_field(13, 1))
        assert near.defect == 2
        assert list(near.sigma.images) == sigma
        assert list(near.g_perm.images) == g_perm
        assert list(near.h_perm.images) == h_perm
