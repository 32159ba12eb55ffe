"""PermutationStack agrees with Permutation row by row."""

import itertools
import random

import numpy as np
import pytest

from conftest import clear_package_caches
from wordmetric.oracle import _symmetric_group
from wordmetric.perms import Permutation, PermutationStack
from wordmetric.words import evaluate, parse_word


def group_and_labels(n):
    """The oracle's cached S_n and the cycle type of each row, read from its
    class table."""
    table = _symmetric_group(n)
    ids = table.ids_at(np.arange(len(table.codes)))
    names = list(table.labels)
    return table.group, [names[i] for i in ids.tolist()]


def seeded_rows(n, count, seed):
    rng = random.Random(seed)
    return [rng.sample(range(n), n) for _ in range(count)]


def as_permutations(stack):
    return [Permutation(row) for row in stack.images.tolist()]


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_product_and_inverse_match_permutation(n):
    left, right = seeded_rows(n, 40, n), seeded_rows(n, 40, 100 + n)
    s, t = PermutationStack(left), PermutationStack(right)
    assert as_permutations(s * t) == [Permutation(a) * Permutation(b) for a, b in zip(left, right)]
    assert as_permutations(s.inverse()) == [Permutation(a).inverse() for a in left]
    # a single left or right factor is broadcast over the other stack
    one = PermutationStack(left[0])
    assert one.images.shape == (1, n)
    assert as_permutations(one * t) == [Permutation(left[0]) * Permutation(b) for b in right]
    assert as_permutations(s * one) == [Permutation(a) * Permutation(left[0]) for a in left]


@pytest.mark.parametrize("exponent", [-(10**9) - 7, -3, -1, 0, 1, 2, 6, 10**12 + 5])
def test_power_matches_permutation(exponent):
    rows = seeded_rows(7, 30, 7)
    stack = PermutationStack(rows)
    assert as_permutations(stack**exponent) == [Permutation(a) ** exponent for a in rows]


def test_word_values_match_permutation():
    rows = seeded_rows(6, 30, 6)
    g = Permutation(rows[0])
    stack = PermutationStack(rows)
    for text in ("1", "x^4", "[x,y]", "[[x,y],x]", "x^-2 y^5", "y^3"):
        w = parse_word(text)
        value = evaluate(w, PermutationStack(g.images), stack)
        # a word in x alone has one value, broadcast over the stack
        images = np.broadcast_to(value.images, stack.images.shape).tolist()
        assert [Permutation(row) for row in images] == [
            evaluate(w, g, Permutation(h)) for h in rows
        ], text


@pytest.mark.parametrize("n", range(0, 8))
def test_cycle_types_match_on_all_of_sn(n):
    rows = list(itertools.permutations(range(n)))
    assert PermutationStack(rows).cycle_types() == [Permutation(row).cycle_type() for row in rows]


def test_rejects_non_bijections_and_mismatched_degrees():
    with pytest.raises(ValueError):
        PermutationStack([[0, 0, 1]])
    with pytest.raises(ValueError):
        PermutationStack([[0, 1, 3]])
    with pytest.raises(ValueError):
        PermutationStack([[0, 1]]) * PermutationStack([[0, 1, 2]])


@pytest.mark.parametrize("rows", [[[0.5, 1.7, 2.2]], [[0.0, 1.0]], [["0", "1"]]])
def test_rejects_non_integer_entries(rows):
    # floats are not truncated to a bijection; MatrixStack refuses them too
    with pytest.raises(ValueError, match="integers"):
        PermutationStack(rows)


def test_arrays_are_read_only():
    group, labels = group_and_labels(4)
    assert group.images.shape == (24, 4) and len(labels) == 24
    with pytest.raises(ValueError):
        group.images[0, 0] = 1
    product = group * group
    with pytest.raises(ValueError):
        product.images[0, 0] = 1


def test_group_rows_are_in_itertools_order():
    group, labels = group_and_labels(5)
    assert group.images.tolist() == [list(p) for p in itertools.permutations(range(5))]
    assert list(labels) == [Permutation(p).cycle_type() for p in itertools.permutations(range(5))]


def test_clear_package_caches_empties_the_group_cache():
    _symmetric_group(3)
    assert _symmetric_group.cache_info().currsize > 0
    clear_package_caches()
    assert _symmetric_group.cache_info().currsize == 0
    assert np.array_equal(_symmetric_group(3).group.images, list(itertools.permutations(range(3))))
