"""Free-group words: parsing, reduction, classification, Magnus degree."""

import random

import pytest

from wordmetric import words
from wordmetric.words import (
    Word,
    WordSyntaxError,
    classify,
    lcs_degree,
    magnus_expansion,
    parse_word,
)


def random_word(rng, max_syllables=6, max_exp=3):
    letters = []
    for _ in range(rng.randint(1, max_syllables)):
        gen = rng.choice("xy")
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        letters.append((gen, exp))
    return Word(tuple(letters))


class TestParsing:
    def test_commutator_expansion(self):
        assert parse_word("[x,y]").letters == (
            ("x", -1),
            ("y", -1),
            ("x", 1),
            ("y", 1),
        )

    def test_power_and_juxtaposition(self):
        assert parse_word("x^2 y^-3").letters == (("x", 2), ("y", -3))
        assert parse_word("x x").letters == (("x", 2),)

    def test_parentheses_and_nesting(self):
        assert parse_word("(x y)^-1").letters == (("y", -1), ("x", -1))
        w = parse_word("[[x,y],x]")
        assert w == parse_word("[x,y]").inverse() * parse_word("x^-1 [x,y] x")

    def test_empty_input_is_trivial(self):
        assert parse_word("").is_trivial()

    def test_power_matches_repeated_product(self):
        for text in ("x", "y^-3", "x y", "x y x^-1", "[x,y]"):
            w = parse_word(text)
            for n in range(-3, 4):
                expected = Word(())
                for _ in range(abs(n)):
                    expected = expected * (w if n > 0 else w.inverse())
                assert w**n == expected

    def test_power_of_one_syllable_builds_one_letter(self, monkeypatch):
        # x^n multiplies the exponent, so no n-letter tuple is reduced
        reduced = []
        real = words._reduce

        def counting(letters):
            letters = tuple(letters)
            reduced.append(len(letters))
            return real(letters)

        monkeypatch.setattr(words, "_reduce", counting)
        assert parse_word("x^100000").letters == (("x", 100000),)
        assert parse_word("(y^-2)^-50000").letters == (("y", 100000),)
        assert max(reduced) <= 2

    @pytest.mark.parametrize("bad", ["z", "x^", "[x y]", "(x", "x^1.5", "^2"])
    def test_rejects_bad_syntax(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)

    def test_round_trip_printing(self):
        rng = random.Random(0)
        for _ in range(50):
            w = random_word(rng)
            assert parse_word(str(w)) == w


class TestReduction:
    def test_free_reduction(self):
        assert (parse_word("x y") * parse_word("y^-1 x")).letters == (("x", 2),)

    def test_inverse_cancels(self):
        rng = random.Random(1)
        for _ in range(50):
            w = random_word(rng)
            assert (w * w.inverse()).is_trivial()

    def test_cyclic_reduction_conjugation(self):
        w = parse_word("x^-1 [x,y] x")
        assert w.cyclic_reduce() == parse_word("[x,y]").cyclic_reduce()

    def test_abelianization_additive(self):
        rng = random.Random(2)
        for _ in range(50):
            u, v = random_word(rng), random_word(rng)
            au, av = u.abelianization(), v.abelianization()
            assert (u * v).abelianization() == (au[0] + av[0], au[1] + av[1])


class TestClassify:
    def test_trivial(self):
        assert classify(Word(())).kind == "trivial"

    def test_power(self):
        form = classify(parse_word("x^3"))
        assert form.kind == "power" and form.power_exp == 3
        form = classify(parse_word("y^-2"))
        assert form.kind == "power" and form.power_exp == -2 and form.swapped

    def test_conjugate_of_power_is_power(self):
        form = classify(parse_word("y x^3 y^-1"))
        assert form.kind == "power" and form.power_exp == 3

    def test_alternating(self):
        form = classify(parse_word("[x,y]"))
        assert form.kind == "alternating"
        assert form.l == 2

    def test_standard_form_evaluates_to_original(self):
        # the syllable form stores exponents of an x-y alternating word
        form = classify(parse_word("x^-1 y^-1 x y^2"))
        assert form.kind == "alternating"
        assert form.standard_word() == parse_word("x^-1 y^-1 x y^2")

    def test_pair_exchanges_only_swapped_forms(self):
        assert classify(parse_word("[x,y]")).pair("g", "h") == ("g", "h")
        assert classify(parse_word("y^-1 x^-1 y x^2")).pair("g", "h") == ("h", "g")
        assert classify(parse_word("y^3")).pair("g", "h") == ("h", "g")

    def test_divides_exponent(self):
        form = classify(parse_word("x^2 y^3 x^-1 y^-5"))
        assert form.syllables == ((2, 3), (-1, -5))
        assert [p for p in (2, 3, 5, 7, 11) if form.divides_exponent(p)] == [2, 3, 5]


class TestMagnus:
    def test_magnus_of_product_is_product(self):
        rng = random.Random(3)
        for _ in range(20):
            u, v = random_word(rng, 3), random_word(rng, 3)
            mu = magnus_expansion(u, 2)
            mv = magnus_expansion(v, 2)
            muv = magnus_expansion(u * v, 2)
            # check the constant and linear terms multiply correctly
            for key in ((), (0,), (1,)):
                expected = 0
                for a in ((), (0,), (1,)):
                    b = key[len(a):]
                    if key[: len(a)] == a:
                        expected += mu.get(a, 0) * mv.get(b, 0)
                assert muv.get(key, 0) == expected

    def test_lcs_degree_generators(self):
        assert lcs_degree(parse_word("x")) == 0
        assert lcs_degree(parse_word("x^2 y")) == 0

    def test_lcs_degree_commutator(self):
        assert lcs_degree(parse_word("[x,y]")) == 1

    def test_lcs_degree_nested_commutator_heisenberg_oracle(self):
        # [[x,y],x] acts trivially on the Heisenberg quotient of class 2,
        # so its degree must exceed 1; Magnus says exactly 2.
        w = parse_word("[[x,y],x]")

        def heis_mul(a, b):
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

        def heis_eval(word, g, h):
            val = (0, 0, 0)
            for gen, step in word.unit_letters():
                m = g if gen == "x" else h
                if step == -1:
                    m = (-m[0], -m[1], -m[2] + m[0] * m[1])
                val = heis_mul(val, m)
            return val

        assert heis_eval(w, (1, 0, 0), (0, 1, 0)) == (0, 0, 0)
        assert lcs_degree(w) == 2

    def test_lcs_degree_doubly_nested(self):
        assert lcs_degree(parse_word("[[x,y],[x,y^2]]")) >= 2
