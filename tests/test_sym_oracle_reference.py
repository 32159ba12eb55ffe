"""The S_n oracle on one array of all n! permutations gives the same images
and distances as the scalar sweep over Permutation objects it replaced."""

import itertools
import random
from fractions import Fraction
from typing import Callable, FrozenSet, Iterable, Iterator

import pytest

from wordmetric.oracle import (
    SYM_DISTANCE_MAX_N,
    SYM_IMAGE_MAX_N,
    ImageReport,
    _partitions,
    exact_distance_sym,
    word_image_sym,
)
from wordmetric.perms import Permutation, evaluate_word, hamming_distance
from wordmetric.words import Word, parse_word

# a power word, a y-only word, the trivial word, and words of every shape
IMAGE_WORDS = (
    "1",
    "x",
    "y^2",
    "x^3",
    "x^-1 y x",
    "x y",
    "[x,y]",
    "[x^2,y^3]",
    "[x,y^2]",
    "[x,y]^2",
    "[[x,y],x]",
    "x^-1 y^-1 x y^2",
    "x^2 y^2",
)


def _all_permutations(n: int) -> Iterator[Permutation]:
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def _nearest(
    target, elements: Iterable, label: Callable, attained: FrozenSet, distance: Callable
) -> Fraction:
    """min distance(target, m) over the elements m with label(m) attained."""
    best = Fraction(1)
    for m in elements:
        if label(m) in attained:
            best = min(best, distance(target, m))
            if best == 0:
                break
    return best


def reference_word_image_sym(w: Word, n: int) -> ImageReport:
    """word_image_sym as it was on Permutation objects, verbatim."""
    if n < 1 or n > SYM_IMAGE_MAX_N:
        raise ValueError(f"n must be in 1..{SYM_IMAGE_MAX_N}")
    classes = set()
    for partition in _partitions(n):
        g = Permutation.from_cycle_lengths(partition)
        for h in _all_permutations(n):
            classes.add(evaluate_word(w, g, h).cycle_type())
    return ImageReport(group=f"S_{n}", classes=frozenset(classes), exhaustive=True)


def reference_exact_distance_sym(w: Word, sigma: Permutation) -> Fraction:
    """exact_distance_sym as it was on Permutation objects, verbatim."""
    n = sigma.degree
    if n > SYM_DISTANCE_MAX_N:
        raise ValueError(f"n must be at most {SYM_DISTANCE_MAX_N}")
    attained = reference_word_image_sym(w, n).classes
    return _nearest(
        sigma, _all_permutations(n), Permutation.cycle_type, attained, hamming_distance
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_images_match_the_reference(n):
    for text in IMAGE_WORDS:
        w = parse_word(text)
        report, reference = word_image_sym(w, n), reference_word_image_sym(w, n)
        assert report.classes == reference.classes, (text, n)
        assert report.to_dict() == reference.to_dict(), (text, n)


@pytest.mark.parametrize("text", ["[x,y]", "[x^2,y^3]"])
def test_images_at_degree_7_match_the_reference(text):
    w = parse_word(text)
    assert word_image_sym(w, 7).classes == reference_word_image_sym(w, 7).classes


def test_distances_of_all_of_small_sn_match_the_reference():
    for text, top in (("[x,y]", 5), ("x^2", 4), ("[x^2,y^3]", 4)):
        w = parse_word(text)
        for n in range(1, top + 1):
            for sigma in _all_permutations(n):
                assert exact_distance_sym(w, sigma) == reference_exact_distance_sym(
                    w, sigma
                ), (text, sigma)


def test_distances_of_seeded_targets_match_the_reference():
    rng = random.Random(25)
    cases = [("[x,y]", 6), ("[x,y]^2", 6), ("x^3", 6), ("[x,y]", 7)]
    for text, n in cases:
        w = parse_word(text)
        sigma = Permutation(rng.sample(range(n), n))
        assert exact_distance_sym(w, sigma) == reference_exact_distance_sym(w, sigma), (
            text,
            sigma,
        )
