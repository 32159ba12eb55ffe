"""Brute-force oracle sanity: exact images, distances, conjugacy closure."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import all_gl_elements, clear_package_caches
from wordmetric import glapprox, oracle
from wordmetric.ffield import make_field
from wordmetric.glapprox import MatrixFq, evaluate_word_matrix, rank_distance
from wordmetric.oracle import (
    _matrix_class,
    exact_distance_matrix,
    exact_distance_sym,
    word_image_matrix,
    word_image_sym,
)
from wordmetric.perms import Permutation, evaluate_word, parse_cycle_notation
from wordmetric.words import parse_word


class TestSymImage:
    def test_square_word_s3(self):
        report = word_image_sym(parse_word("x^2"), 3)
        assert report.classes == {((1, 3),), ((3, 1),)}
        assert report.exhaustive

    def test_any_word_s1(self):
        assert word_image_sym(parse_word("[x,y] x^3"), 1).classes == {((1, 1),)}

    def test_commutator_s5_is_a5(self):
        report = word_image_sym(parse_word("[x,y]"), 5)
        a5_types = {
            Permutation(images).cycle_type()
            for images in itertools.permutations(range(5))
            if _is_even(Permutation(images))
        }
        assert report.classes == a5_types

    def test_n_too_large(self):
        with pytest.raises(ValueError):
            word_image_sym(parse_word("x"), 9)

    def test_image_really_attained(self):
        # every reported class contains an actual value: spot-check by
        # re-running the enumeration with witnesses kept
        w = parse_word("x^-1 y^-1 x y^2")
        n = 4
        report = word_image_sym(w, n)
        seen = set()
        for gi in itertools.permutations(range(n)):
            for hi in itertools.permutations(range(n)):
                value = evaluate_word(w, Permutation(gi), Permutation(hi))
                seen.add(value.cycle_type())
        assert report.classes == seen  # reps-times-full sweep equals full sweep

    def test_nondegenerate_for_non_power_words(self):
        for word_text in ("[x,y]", "x y", "x^-1 y^-1 x y^2"):
            for n in (5, 6):
                classes = word_image_sym(parse_word(word_text), n).classes
                assert classes != {((1, n),)}


    @pytest.mark.parametrize("n,count", enumerate([1, 2, 3, 5, 7, 11, 15, 22], start=1))
    def test_x_attains_every_class(self, n, count):
        # the partition numbers p(n)
        assert len(word_image_sym(parse_word("x"), n).classes) == count


class TestSymDistance:
    def test_transposition_distance_to_commutators(self):
        sigma = parse_cycle_notation("(0 1)", 5)
        assert exact_distance_sym(parse_word("[x,y]"), sigma) == Fraction(2, 5)

    def test_identity_always_zero(self):
        for word_text in ("x^2", "[x,y]", "x^-1 y^-1 x y^2"):
            assert exact_distance_sym(
                parse_word(word_text), Permutation.identity(5)
            ) == 0

    def test_square_transposition_s2(self):
        sigma = parse_cycle_notation("(0 1)", 2)
        assert exact_distance_sym(parse_word("x^2"), sigma) == 1

    def test_n_cap(self):
        with pytest.raises(ValueError):
            exact_distance_sym(parse_word("x"), Permutation.identity(8))

    def test_degree_zero_names_the_distance_range(self):
        with pytest.raises(ValueError, match=r"1\.\.7"):
            exact_distance_sym(parse_word("x"), Permutation.identity(0))


class TestMatrixImage:
    def test_identity_word_hits_all_classes(self):
        F = make_field(2, 1)
        report = word_image_matrix(parse_word("x"), 2, F)
        assert len(report.classes) == 3  # GL_2(2) has three conjugacy classes
        assert report.exhaustive

    def test_commutator_gl22_matches_s3(self):
        # GL_2(2) is S_3; the commutator image there is {id, 3-cycles}
        F = make_field(2, 1)
        report = word_image_matrix(parse_word("[x,y]"), 2, F)
        sym = word_image_sym(parse_word("[x,y]"), 3)
        assert len(report.classes) == len(sym.classes) == 2

    def test_squares_closed_under_conjugacy(self):
        # invariant-factor labels are conjugacy invariants by construction;
        # verify the attained set matches a direct sweep of squares
        F = make_field(3, 1)
        report = word_image_matrix(parse_word("x^2"), 2, F)
        squares = {_matrix_class(m * m) for m in all_gl_elements(F, 2)}
        assert report.classes == squares

    def test_size_bound_rejected(self):
        F = make_field(5, 1)
        with pytest.raises(ValueError):
            word_image_matrix(parse_word("x"), 4, F)

    def test_distance_sweep_classifies_each_element_once(self, monkeypatch):
        # whole passes, since a single call stops early at distance 0
        w = parse_word("[x,y]")
        F = make_field(2, 1)
        report = word_image_matrix(w, 3, F)
        targets = all_gl_elements(F, 3)
        assert len(targets) == 168
        first = [exact_distance_matrix(w, t, report) for t in targets]
        calls = []
        original = glapprox._invariant_factors

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(glapprox, "_invariant_factors", counted)
        assert [exact_distance_matrix(w, t, report) for t in targets] == first
        assert calls == []

    @pytest.mark.parametrize("budget", [0, -1, -200_000])
    def test_budget_below_one_rejected(self, budget):
        F = make_field(3, 1)
        with pytest.raises(ValueError, match="budget"):
            word_image_matrix(parse_word("[x,y]"), 3, F, budget=budget)

    @pytest.mark.parametrize("d", [0, -1])
    def test_degree_below_one_rejected(self, d):
        with pytest.raises(ValueError, match="at least 1"):
            word_image_matrix(parse_word("[x,y]"), d, make_field(3, 1))

    def test_non_square_target_rejected(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("enumerated the group of a non-square target")

        monkeypatch.setattr(oracle, "_gl_classes", no_enumeration)
        monkeypatch.setattr(oracle, "word_image_matrix", no_enumeration)
        target = MatrixFq(make_field(3, 1), [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="square"):
            exact_distance_matrix(parse_word("[x,y]"), target)

    def test_report_of_another_group_rejected(self):
        w = parse_word("[x,y]")
        F2, F3 = make_field(2, 1), make_field(3, 1)
        identity = MatrixFq.identity(F3, 2)
        with pytest.raises(ValueError, match="GL_2\\(2\\)"):
            exact_distance_matrix(w, identity, word_image_matrix(w, 2, F2))
        with pytest.raises(ValueError):
            exact_distance_matrix(w, MatrixFq.identity(F3, 3), word_image_matrix(w, 2, F3))
        assert exact_distance_matrix(w, identity, word_image_matrix(w, 2, F3)) == 0

    @pytest.mark.parametrize(
        "d,p,e,count",
        [(2, 3, 1, 8), (2, 2, 2, 15), (2, 5, 1, 24), (3, 2, 1, 6)]
        + [(1, p, e, p**e - 1) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))],
    )
    def test_x_attains_every_class(self, d, p, e, count):
        # q^2 - 1 classes in GL_2(q) (q = 2 in the test above), q^3 - q in
        # GL_3(q), q - 1 in GL_1(q)
        assert len(word_image_matrix(parse_word("x"), d, make_field(p, e)).classes) == count

    def test_distance_on_a_sampled_report_classifies_the_rest(self, monkeypatch):
        # a sampled image classifies only the values it met; the distance
        # classifies the rest of the group before it reads the attained ones
        clear_package_caches()
        monkeypatch.setattr(oracle, "MATRIX_EXHAUSTIVE_LIMIT", 100)
        w, F = parse_word("[x,y]"), make_field(3, 1)
        report = word_image_matrix(w, 2, F, budget=3, seed=5)
        assert not report.exhaustive
        for target in all_gl_elements(F, 2):
            expected = min(
                rank_distance(target, m)
                for m in all_gl_elements(F, 2)
                if _matrix_class(m) in report.classes
            )
            assert exact_distance_matrix(w, target, report) == expected

    def test_sampled_mode_records_seed(self):
        F = make_field(11, 1)
        report = word_image_matrix(parse_word("x"), 2, F, budget=500, seed=42)
        assert not report.exhaustive
        assert report.seed == 42
        again = word_image_matrix(parse_word("x"), 2, F, budget=500, seed=42)
        assert report.classes == again.classes


def _is_even(perm):
    parity = 0
    for cyc in perm.cycles():
        parity += len(cyc) - 1
    return parity % 2 == 0
