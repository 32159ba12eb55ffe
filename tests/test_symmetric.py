"""Permutations, greedy decompositions, and symmetric-group witnesses."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from wordmetric import sl2
from wordmetric.perms import (
    Permutation,
    cycle_notation,
    evaluate_word,
    hamming_distance,
    parse_cycle_notation,
)
from wordmetric.symmetric import (
    GreedyDecomposition,
    Witness,
    approx,
    approx_isotypic,
    approx_power_word,
    greedy_decomposition,
)
from wordmetric.words import Word, parse_word


def random_permutation(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


class TestPermutations:
    def test_right_action_composition(self):
        # x.(s*t) = (x.s).t
        s = parse_cycle_notation("(0 1 2)", 4)
        t = parse_cycle_notation("(2 3)", 4)
        st = s * t
        for x in range(4):
            assert st(x) == t(s(x))

    def test_inverse_and_power(self):
        rng = random.Random(0)
        for _ in range(30):
            s = random_permutation(8, rng)
            assert s * s.inverse() == Permutation.identity(8)
            assert s**3 == s * s * s
            assert s**-2 == (s.inverse()) ** 2

    def test_cycle_type_counts_fixed_points(self):
        s = parse_cycle_notation("(0 1)(2 3 4)", 7)
        assert s.cycle_type() == ((1, 2), (2, 1), (3, 1))

    def test_cycles_by_length_keeps_the_cycle_order(self):
        rng = random.Random(3)
        for _ in range(30):
            s = random_permutation(rng.randint(1, 12), rng)
            by_len = s.cycles_by_length()
            for k, cycles in by_len.items():
                assert cycles == [cyc for cyc in s.cycles() if len(cyc) == k]
            assert tuple(sorted((k, len(c)) for k, c in by_len.items())) == s.cycle_type()

    def test_from_cycle_lengths_uses_consecutive_points(self):
        s = Permutation.from_cycle_lengths([3, 1, 2])
        assert s == parse_cycle_notation("(0 1 2)(4 5)", 6)
        assert s.cycles() == [[0, 1, 2], [3], [4, 5]]
        assert Permutation.from_cycle_lengths([]) == Permutation.identity(0)

    @pytest.mark.parametrize(
        "images", [[0.0, 1.0], [True, False], [0.5, 1.7, 2.2], ["0", "1"], [1.0, 0]]
    )
    def test_rejects_non_integer_entries(self, images):
        # floats equal to a bijection used to pass the check and compare
        # equal to the integer permutation
        with pytest.raises(ValueError, match="integers"):
            Permutation(images)

    def test_rejects_non_bijections(self):
        for images in ([0, 0, 1], [0, 1, 3], [-1, 0], [[0, 1]]):
            with pytest.raises(ValueError):
                Permutation(images)

    def test_from_cycles_rejects_a_repeated_point(self):
        for cycles in ([[0, 1], [0, 1]], [[0, 1, 0]], [[2], [0, 2]]):
            with pytest.raises(ValueError, match="two cycles"):
                Permutation.from_cycles(3, cycles)
        for cycles in ([[0, 3]], [[-1, 0]]):
            with pytest.raises(ValueError, match="out of range"):
                Permutation.from_cycles(3, cycles)
        with pytest.raises(ValueError, match="repeated point"):
            parse_cycle_notation("(0 1)(0 1)", 3)
        assert Permutation.from_cycles(3, [[], [2], [0, 1]]) == parse_cycle_notation("(0 1)", 3)

    def test_products_need_equal_degrees(self):
        with pytest.raises(ValueError, match="mismatched degrees"):
            Permutation([0, 1]) * Permutation([1, 0, 2])

    def test_images_are_read_only(self):
        s = Permutation([1, 2, 0])
        for perm in (s, s * s, s.inverse(), s**5, Permutation.identity(3)):
            with pytest.raises(ValueError):
                perm.array[0] = 0
        assert s.images == (1, 2, 0)

    def test_hamming_distance_is_a_metric(self):
        rng = random.Random(1)
        for _ in range(30):
            a, b, c = (random_permutation(6, rng) for _ in range(3))
            ab = hamming_distance(a, b)
            assert ab == hamming_distance(b, a)
            assert ab >= 0 and (ab == 0) == (a == b)
            assert ab <= hamming_distance(a, c) + hamming_distance(c, b)

    def test_hamming_distance_bi_invariant(self):
        rng = random.Random(2)
        for _ in range(30):
            a, b, c = (random_permutation(7, rng) for _ in range(3))
            assert hamming_distance(a, b) == hamming_distance(c * a, c * b)
            assert hamming_distance(a, b) == hamming_distance(a * c, b * c)

    def test_cycle_notation_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            s = random_permutation(9, rng)
            assert parse_cycle_notation(cycle_notation(s), 9) == s

    def test_evaluate_word_left_to_right(self):
        g = parse_cycle_notation("(0 1 2)", 3)
        h = parse_cycle_notation("(0 1)", 3)
        w = parse_word("x y")
        assert evaluate_word(w, g, h) == g * h


class TestGreedyDecomposition:
    def test_known_decompositions(self):
        d = greedy_decomposition(100, 5)
        assert d.levels == ((2, 3), (1, 3)) and d.n0 == 4
        d = greedy_decomposition(6, 5)
        assert d.levels == ((1, 1),) and d.n0 == 0
        d = greedy_decomposition(4, 5)
        assert d.levels == () and d.n0 == 4

    def test_invariants_random(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            q = rng.choice([5, 7, 9, 11, 25])
            d = greedy_decomposition(n, q)
            total = d.n0 + sum(c * (q**i + 1) for i, c in d.levels)
            assert total == n
            assert 0 <= d.n0 <= q
            assert all(1 <= c <= q - 1 for _, c in d.levels)

    def test_coefficient_sum_relatively_small(self):
        # (n0 + 2 sum n_i)/n is the isotypic-path distance bound; it must
        # shrink as n grows for fixed q
        ratios = []
        for n in (10**3, 10**4, 10**5):
            d = greedy_decomposition(n, 11)
            coeff = d.n0 + 2 * sum(c for _, c in d.levels)
            assert coeff <= 11 + 2 * 10 * len(d.levels)
            ratios.append(Fraction(coeff, n))
        assert ratios[2] < ratios[0]


class TestWitnessInvariants:
    def test_witness_rejects_wrong_value(self):
        g = parse_cycle_notation("(0 1 2 3 4)", 5)
        ident = Permutation.identity(5)
        with pytest.raises((ValueError, AssertionError)):
            Witness(
                word=parse_word("x^2"),
                g=g,
                h=ident,
                value=g,  # wrong: x^2 evaluates to g^2
                target=ident,
                achieved_distance=Fraction(0),
                bound_distance=Fraction(0),
                trace={},
            )

    def test_witness_to_dict_round_trips_distances(self):
        wit = approx(parse_word("[x,y]"), parse_cycle_notation("(0 1 2)", 12))
        record = wit.to_dict()
        assert Fraction(record["achieved_distance"]) == wit.achieved_distance
        assert record["n"] == 12
        assert record["value"] == list(wit.value.images)


class TestIsotypicWitness:
    def test_small_block_length_bound(self):
        wit = approx_isotypic(parse_word("[x,y]"), 2, 50)
        assert wit.achieved_distance <= Fraction(7, 25)

    def test_large_block_length_bound(self):
        wit = approx_isotypic(parse_word("[x,y]"), 30, 4)
        assert wit.achieved_distance <= Fraction(1, 6)

    def test_achieved_within_bound_various(self):
        for word_text in ("[x,y]", "x^-1 y^-1 x y^2", "[x^2,y]"):
            w = parse_word(word_text)
            for k, c in ((1, 10), (2, 8), (3, 5), (6, 4), (40, 3)):
                wit = approx_isotypic(w, k, c)
                assert wit.achieved_distance <= wit.bound_distance
                assert wit.target.degree == k * c

    def test_identity_target_is_exact(self):
        wit = approx_isotypic(parse_word("[x,y]"), 1, 20)
        assert wit.achieved_distance == 0

    def test_trace_equation_is_solved_once(self, monkeypatch):
        # the prime search and the block values share one trace solution;
        # no other test uses this word, so the caches start empty for it
        calls = []
        orig = sl2.solve_trace

        def counted(*args):
            calls.append(args)
            return orig(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("wordmetric"):
                for attr, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, attr, counted)
        wit = approx_isotypic(parse_word("[x,y^-1]"), 2, 50)
        assert wit.achieved_distance <= wit.bound_distance
        assert len(calls) == 1


class TestPowerWitness:
    def test_odd_cycle_square_is_exact(self):
        sigma = parse_cycle_notation("(0 1 2 3 4)", 5)
        assert approx_power_word(2, sigma).achieved_distance == 0

    def test_transposition_square_distance(self):
        sigma = parse_cycle_notation("(0 1)", 5)
        assert approx_power_word(2, sigma).achieved_distance == Fraction(2, 5)

    def test_two_transpositions_square_exact(self):
        sigma = parse_cycle_notation("(0 1)(2 3)", 4)
        assert approx_power_word(2, sigma).achieved_distance == 0

    def test_bound_equals_achieved(self):
        rng = random.Random(5)
        for _ in range(40):
            a = rng.randint(2, 5)
            sigma = random_permutation(rng.randint(2, 30), rng)
            wit = approx_power_word(a, sigma)
            assert wit.bound_distance == wit.achieved_distance

    def test_negative_exponent(self):
        sigma = parse_cycle_notation("(0 1 2 3 4 5 6)", 7)
        wit = approx(parse_word("x^-3"), sigma)
        assert wit.achieved_distance == 0

    def test_power_value_scans_at_most_the_cycle_count(self, monkeypatch):
        # a group of d cycles of one length needs d <= c, the number of such
        # cycles, so the gcd tests are bounded by the degree, not the exponent
        calls = [0]
        real = math.gcd

        def counting(*args):
            calls[0] += 1
            return real(*args)

        sigma = random_permutation(60, random.Random(3))
        monkeypatch.setattr(math, "gcd", counting)
        wit = approx(parse_word("x^100003"), sigma)
        assert calls[0] <= sigma.degree
        assert wit.value == wit.g ** 100003

    def test_conjugated_power_word(self):
        sigma = parse_cycle_notation("(0 1 2 3 4)", 5)
        wit = approx(parse_word("y x^2 y^-1"), sigma)
        assert wit.achieved_distance == 0

    @pytest.mark.parametrize(
        "word,h,distance",
        [
            ("y^3", [3, 2, 0, 1, 8, 7, 6, 5, 4], Fraction(0)),
            ("y^-2", [1, 3, 2, 0, 5, 8, 6, 4, 7], Fraction(2, 9)),
        ],
    )
    def test_swapped_power_word_is_pinned(self, word, h, distance):
        # a power of y puts the power value on h and leaves g the identity
        wit = approx(parse_word(word), Permutation([2, 3, 1, 0, 8, 7, 6, 5, 4]))
        assert list(wit.g.images) == list(range(9))
        assert list(wit.h.images) == h
        assert wit.achieved_distance == distance


class TestGeneralApprox:
    def test_trivial_word_rejected(self):
        with pytest.raises(ValueError):
            approx(Word(()), Permutation.identity(4))

    def test_blockwise_additivity(self):
        w = parse_word("[x,y]")
        rng = random.Random(6)
        for _ in range(10):
            sigma = random_permutation(rng.randint(10, 60), rng)
            wit = approx(w, sigma)
            assert wit.achieved_distance <= wit.bound_distance <= 1

    def test_achieved_is_exactly_rechecked(self):
        w = parse_word("x^-1 y^-1 x y^2")
        sigma = parse_cycle_notation("(0 1 2 3 4 5)(6 7 8)(9 10)", 15)
        wit = approx(w, sigma)
        assert wit.achieved_distance == hamming_distance(wit.value, sigma)
        assert wit.value == evaluate_word(w, wit.g, wit.h)

    def test_target_conjugation_invariance(self):
        w = parse_word("[x^2,y]")
        rng = random.Random(7)
        base = random_permutation(20, rng)
        d0 = approx(w, base).achieved_distance
        for _ in range(5):
            r = random_permutation(20, rng)
            conj = r.inverse() * base * r
            assert approx(w, conj).achieved_distance == d0

    def test_distance_shrinks_with_n(self):
        w = parse_word("[x,y]")
        rng = random.Random(8)
        small = [
            approx(w, random_permutation(50, rng)).achieved_distance
            for _ in range(5)
        ]
        large = [
            approx(w, random_permutation(2000, rng)).achieved_distance
            for _ in range(5)
        ]
        assert sum(large) / 5 < sum(small) / 5


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(list(range(12))),
    st.sampled_from(["[x,y]", "x^2", "x^-1 y^-1 x y^2", "x^3", "[x^2,y]"]),
)
def test_property_witness_soundness(images, word_text):
    w = parse_word(word_text)
    sigma = Permutation(tuple(images))
    wit = approx(w, sigma)
    assert wit.value == evaluate_word(w, wit.g, wit.h)
    assert wit.achieved_distance == hamming_distance(wit.value, sigma)
    assert wit.achieved_distance <= wit.bound_distance
