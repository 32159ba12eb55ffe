"""End-to-end acceptance checks: one test per headline guarantee.

Each test is self-contained and verifies a guarantee against an
independent oracle (exhaustive enumeration, closed-form identity, or
exact recomputation), at the stated scale and tolerance.
"""

import cmath
import itertools
import random
import time
from fractions import Fraction

import numpy as np

from wordmetric.cayley import (
    FiniteQuotient,
    build_d2,
    cohomology_defect,
    monomial_witness,
    width_two_shift,
)
from wordmetric.ffield import FqPoly, embed, make_field
from wordmetric.fox import (
    IN_F2PRIME_NOT_F2SECOND,
    IN_F2SECOND,
    LaurentPoly1,
    count_Wn,
    derived_membership,
    fox_identity_holds,
    specialize_pw,
)
from wordmetric.glapprox import approx_gl, evaluate_word_matrix, rank_distance
from wordmetric.oracle import (
    exact_distance_matrix,
    exact_distance_sym,
    word_image_matrix,
    word_image_sym,
)
from wordmetric.perms import Permutation, evaluate_word, hamming_distance
from wordmetric.sl2 import (
    SL2Elem,
    classify_cycle_type,
    evaluate_word_sl2,
    projective_permutation,
    solve_trace,
    unipotent_trace_poly,
)
from wordmetric.symmetric import approx
from wordmetric.words import Word, parse_word

DENSITY_WORDS = ("[x,y]", "x^-1 y^-1 x y^2", "[x^2,y]")


def _all_sl2(field):
    for a, b, c, d in itertools.product(range(field.q), repeat=4):
        if field.sub(field.mul(a, d), field.mul(b, c)) == 1:
            yield SL2Elem(field, a, b, c, d)


def _random_permutation(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _random_syllable_word(rng, max_syllables=6):
    letters = []
    for _ in range(rng.randint(1, max_syllables)):
        letters.append((rng.choice("xy"), rng.choice([-3, -2, -1, 1, 2, 3])))
    return Word(tuple(letters))


def test_criterion_01_cycle_type_classifier_matches_orbit_enumeration():
    start = time.monotonic()
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
    checked = 0
    for p, e in fields:
        F = make_field(p, e)
        for g in _all_sl2(F):
            assert classify_cycle_type(g) == projective_permutation(g).cycle_type()
            checked += 1
    assert checked == sum((p**e) ** 3 - p**e for p, e in fields)
    assert time.monotonic() - start < 30


def test_criterion_02_trace_polynomial_degree_and_leading_coefficient():
    rng = random.Random(10)
    for p in (5, 7, 11):
        F = make_field(p, 1)
        done = 0
        while done < 50:
            l = rng.randint(1, 4)
            exps = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2 * l)]
            prod = 1
            for e in exps:
                prod = prod * e % p
            if prod == 0:
                continue
            text = " ".join(
                f"{'x' if i % 2 == 0 else 'y'}^{e}" for i, e in enumerate(exps)
            )
            poly = unipotent_trace_poly(parse_word(text), F)
            assert poly.degree == l
            assert poly.leading() == prod
            done += 1


def test_criterion_03_commutator_trace_surjectivity_with_small_extension():
    w = parse_word("[x,y]")
    for p, e in ((5, 1), (7, 1), (3, 2)):
        F = make_field(p, e)
        for t in range(F.q):
            sol = solve_trace(w, F, t)
            assert sol.m <= 2
            value = evaluate_word_sl2(w, sol.g, sol.h)
            expected = t if sol.m == 1 else embed(F, sol.field)(t)
            assert value.trace() == expected


def test_criterion_04_witnesses_are_sound_and_distances_shrink():
    start = time.monotonic()
    rng = random.Random(11)
    for text in DENSITY_WORDS:
        w = parse_word(text)
        means = {}
        for n in (50, 200, 1000, 5000):
            total = Fraction(0)
            for _ in range(20):
                sigma = _random_permutation(n, rng)
                wit = approx(w, sigma)
                assert wit.value == evaluate_word(w, wit.g, wit.h)
                assert wit.achieved_distance == hamming_distance(sigma, wit.value)
                total += wit.achieved_distance
            means[n] = total / 20
        assert means[5000] < means[50]
    assert time.monotonic() - start < 300


def test_criterion_05_oracle_never_beats_witness_distance():
    for text in DENSITY_WORDS:
        w = parse_word(text)
        for n in (4, 5, 6):
            attained = word_image_sym(w, n).classes
            members = [
                tau
                for tau in map(
                    Permutation, itertools.permutations(range(n))
                )
                if tau.cycle_type() in attained
            ]
            for images in itertools.permutations(range(n)):
                sigma = Permutation(images)
                exact = min(hamming_distance(sigma, tau) for tau in members)
                assert exact <= approx(w, sigma).achieved_distance
    transposition = Permutation.from_cycles(5, [[0, 1]])
    assert exact_distance_sym(parse_word("[x,y]"), transposition) == Fraction(2, 5)


def test_criterion_06_fox_identity_and_commutator_specialization():
    rng = random.Random(12)
    for _ in range(200):
        assert fox_identity_holds(_random_syllable_word(rng))
    for a in range(1, 6):
        for b in range(1, 6):
            p = specialize_pw(parse_word(f"[x^{a},y^{b}]"))
            expected = LaurentPoly1({-a: -b, 0: b})
            assert p.equals_up_to_units(expected)


def test_criterion_07_boundary_map_vanishes_exactly_on_second_derived():
    in_second = [
        "[[x,y],[x,y^2]]",
        "[[x,y],[x,y^3]]",
        "[[x,y],[x^2,y]]",
        "[[x,y],[x^3,y]]",
        "[[x,y^2],[x^2,y]]",
        "[[x,y^2],[x,y^3]]",
        "[[x^2,y],[x,y^3]]",
        "[[x,y],[x^2,y^2]]",
        "[[x^2,y],[x^3,y]]",
        "[[x,y^2],[x^3,y]]",
    ]
    strictly_first = [
        "[x,y]",
        "[x^2,y]",
        "[x,y^2]",
        "[x^2,y^2]",
        "[x^3,y]",
        "[x,y^3]",
        "[x^3,y^2]",
        "[x^2,y^3]",
        "[x^3,y^3]",
        "[x,y] [x,y^2]",
    ]
    for text in in_second:
        w = parse_word(text)
        assert derived_membership(w) == IN_F2SECOND
        for m in range(2, 13):
            assert build_d2(w, FiniteQuotient.cyclic(m)).is_zero()
    for text in strictly_first:
        w = parse_word(text)
        assert derived_membership(w) == IN_F2PRIME_NOT_F2SECOND
        assert any(
            not build_d2(w, FiniteQuotient.cyclic(m)).is_zero()
            for m in range(2, 13)
        )


def test_criterion_08_special_unitary_diagonals_realized_by_monomial_pairs():
    rng = random.Random(13)
    w = parse_word("[x,y]")
    for n in (3, 5, 8):
        quotient = FiniteQuotient.cyclic(n)
        for _ in range(10):
            angles = [rng.uniform(-3, 3) for _ in range(n - 1)]
            angles.append(-sum(angles))
            target = [cmath.exp(1j * a) for a in angles]
            wit = monomial_witness(w, quotient, target)
            assert wit.matched >= n - 1
            assert np.max(np.abs(wit.diagonal - np.asarray(target))) <= 1e-8


def test_criterion_09_cohomology_defect_equals_root_of_unity_count():
    for a in range(1, 4):
        for b in range(1, 4):
            w = parse_word(f"[x^{a},y^{b}]")
            p = specialize_pw(w)
            for n in range(2, 21):
                report = cohomology_defect(build_d2(w, FiniteQuotient.cyclic(n)))
                assert report.defect == count_Wn(p, n)


def test_criterion_10_power_substitution_splits_into_similar_blocks():
    from wordmetric.glapprox import power_block_split

    cases = 0
    for p in (2, 3, 5):
        F = make_field(p, 1)
        for degree in range(1, 5):
            for tail in itertools.product(range(p), repeat=degree):
                if tail[0] == 0:
                    continue
                chi = FqPoly(F, list(tail) + [1])
                for c in range(1, 5):
                    cert = power_block_split(chi, c)
                    assert cert.holds
                    cases += 1
    assert cases == (15 + 80 + 624) * 4


def test_criterion_11_matrix_oracle_never_beats_rank_witness():
    w = parse_word("[x,y]")
    F = make_field(2, 1)
    for n in (2, 3):
        report = word_image_matrix(w, n, F)
        assert report.exhaustive
        from conftest import all_gl_elements

        for target in all_gl_elements(F, n):
            wit = approx_gl(w, target)
            assert wit.value == evaluate_word_matrix(w, wit.g, wit.h)
            assert wit.achieved_distance == rank_distance(target, wit.value)
            exact = exact_distance_matrix(w, target, report)
            assert exact <= wit.achieved_distance


def _rational_rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def _random_zero_sum(rng, n, d):
    order = list(range(n))
    rng.shuffle(order)
    out = []
    for k in range(d):
        vec = [Fraction(0)] * n
        vec[order[k]] = Fraction(1)
        vec[order[k + 1]] = Fraction(-1)
        out.append(vec)
    return out


def test_criterion_12_two_subspaces_shift_to_cover_the_zero_sum_hyperplane():
    rng = random.Random(14)
    trials = 0
    while trials < 100:
        n = rng.randint(3, 12)
        d1 = rng.randint(0, n - 1)
        d2 = min(n - 1, n - 1 - d1 + rng.randint(0, 1))
        if d1 + d2 < n - 1:
            continue
        u1 = _random_zero_sum(rng, n, d1)
        u2 = _random_zero_sum(rng, n, d2)
        sigma = width_two_shift(u1, u2, n, seed=trials)
        shifted = []
        for vec in u2:
            image = [Fraction(0)] * n
            for i, val in enumerate(vec):
                image[sigma(i)] = val
            shifted.append(image)
        assert _rational_rank(u1 + shifted) == n - 1
        trials += 1
    # the tight three-point case, solvable by exhaustive search
    u = [[Fraction(1), Fraction(-1), Fraction(0)]]
    sigma = width_two_shift(u, u, 3)
    image = [Fraction(0)] * 3
    for i, val in enumerate(u[0]):
        image[sigma(i)] = val
    assert _rational_rank(u + [image]) == 2
