"""MatrixStack agrees with MatrixFq matrix by matrix, and the oracles read
word values' classes from their cached groups."""

import itertools
import random

import numpy as np
import pytest

from conftest import all_gl_elements, clear_package_caches
from wordmetric.ffield import make_field
from wordmetric.glapprox import MatrixFq, MatrixStack
from wordmetric.oracle import _gl_classes, word_image_sym
from wordmetric.perms import PermutationStack
from wordmetric.words import evaluate, parse_word

GROUPS = [(3, 1, 2), (2, 2, 2), (2, 1, 3)]


def seeded_elements(p, e, d, count, seed):
    rng = random.Random(seed)
    return rng.choices(all_gl_elements(make_field(p, e), d), k=count)


def as_matrices(stack):
    return [MatrixFq(stack.field, a) for a in stack.images]


def stack_of(field, matrices):
    return MatrixStack(field, [m.array for m in matrices])


@pytest.mark.parametrize("p,e,d", GROUPS)
def test_product_and_inverse_match_matrixfq(p, e, d):
    F = make_field(p, e)
    left, right = seeded_elements(p, e, d, 30, 1), seeded_elements(p, e, d, 30, 2)
    s, t = stack_of(F, left), stack_of(F, right)
    assert as_matrices(s * t) == [a * b for a, b in zip(left, right)]
    assert as_matrices(s.inverse()) == [a.inverse() for a in left]
    # a single left or right factor is broadcast over the other stack
    one = stack_of(F, left[:1])
    assert one.images.shape == (1, d, d)
    assert as_matrices(one * t) == [left[0] * b for b in right]
    assert as_matrices(s * one) == [a * left[0] for a in left]


@pytest.mark.parametrize("p,e,d", GROUPS)
@pytest.mark.parametrize("exponent", [-(10**9) - 7, -3, -1, 0, 1, 2, 6, 10**12 + 5])
def test_power_matches_matrixfq(p, e, d, exponent):
    F = make_field(p, e)
    matrices = seeded_elements(p, e, d, 20, 3)
    assert as_matrices(stack_of(F, matrices) ** exponent) == [m**exponent for m in matrices]


@pytest.mark.parametrize("p,e,d", GROUPS)
def test_word_values_match_matrixfq(p, e, d):
    F = make_field(p, e)
    g, *hs = seeded_elements(p, e, d, 25, 4)
    stack = stack_of(F, hs)
    for text in ("1", "x^4", "[x,y]", "[[x,y],x]", "x^-2 y^5", "y^3", "[x,y]^2"):
        w = parse_word(text)
        value = evaluate(w, stack_of(F, [g]), stack)
        # a word in x alone has one value, broadcast over the stack
        array = np.broadcast_to(value.images, stack.images.shape)
        assert [MatrixFq(F, a) for a in array] == [evaluate(w, g, h) for h in hs], text


def test_a_second_inverse_is_the_cached_stack():
    F = make_field(3, 1)
    stack = stack_of(F, seeded_elements(3, 1, 2, 10, 5))
    assert stack.inverse() is stack.inverse()
    perms = PermutationStack([[1, 2, 0], [0, 2, 1]])
    assert perms.inverse() is perms.inverse()


def test_taken_matrices_invert_through_the_stack():
    F = make_field(3, 1)
    group = _gl_classes(F, 2).group
    rows = group.take(np.array([5, 0, 47, 5]))
    assert as_matrices(rows) == [all_gl_elements(F, 2)[i] for i in (5, 0, 47, 5)]
    assert np.array_equal(rows.inverse().images, group.inverse().images[[5, 0, 47, 5]])
    assert group.inverse() is group.inverse()


def test_general_linear_is_the_invertible_candidates_in_order():
    for p, e, d in [(2, 1, 1), (5, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 2), (2, 1, 3)]:
        F = make_field(p, e)
        candidates = (
            MatrixFq(F, [entries[i * d : (i + 1) * d] for i in range(d)])
            for entries in itertools.product(range(F.q), repeat=d * d)
        )
        expected = [m.rows for m in candidates if m.is_invertible()]
        group = MatrixStack.general_linear(F, d)
        assert [group[i].rows for i in range(len(group))] == expected, (p, e, d)


def test_rejects_singular_ragged_and_out_of_range_matrices():
    F = make_field(3, 1)
    with pytest.raises(ValueError, match="invertible"):
        MatrixStack(F, [[[1, 0], [0, 1]], [[1, 2], [2, 1]]])
    with pytest.raises(ValueError, match="square"):
        MatrixStack(F, [[[1, 0, 0], [0, 1, 0]]])
    with pytest.raises(ValueError):
        MatrixStack(F, [[[1, 0], [0, 1]], [[1, 0]]])
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        MatrixStack(F, [[1, 0], [0, 3]])
    with pytest.raises(ValueError):
        MatrixStack(F, [[1, 0], [0, 1]]) * MatrixStack(make_field(5, 1), [[1, 0], [0, 1]])


def test_arrays_are_read_only():
    F = make_field(2, 2)
    group = _gl_classes(F, 2).group
    for stack in (group, group * group, group.inverse(), group.take([1, 2]), group**0):
        with pytest.raises(ValueError):
            stack.images[0, 0, 0] = 1


def test_a_second_sym_image_computes_no_cycle_types(monkeypatch):
    clear_package_caches()
    calls = []
    original = PermutationStack.cycle_types

    def counted(self):
        calls.append(len(self.images))
        return original(self)

    monkeypatch.setattr(PermutationStack, "cycle_types", counted)
    first = word_image_sym(parse_word("[x,y]"), 6)
    assert calls == [720]  # the cached group, once
    word_image_sym(parse_word("[x,y]^2"), 6)
    assert word_image_sym(parse_word("[x,y]"), 6) == first
    assert calls == [720]
