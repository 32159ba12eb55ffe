"""The GL_d(q) oracle on class representatives against the whole group gives
the same images and distances as the all-pairs sweep it replaced."""

import itertools
import random
from fractions import Fraction
from typing import Callable, FrozenSet, Iterable, Optional

import pytest

# under the name the reference functions below were written with
from conftest import all_gl_elements as _all_gl_elements
from wordmetric import glapprox
from wordmetric.ffield import Field, make_field
from wordmetric.glapprox import MatrixFq, evaluate_word_matrix, rank_distance
from wordmetric.oracle import (
    MATRIX_EXHAUSTIVE_LIMIT,
    MATRIX_GROUP_LIMIT,
    ImageReport,
    _gl_order,
    _matrix_class,
    exact_distance_matrix,
    word_image_matrix,
)
from wordmetric.words import Word, parse_word

IMAGE_WORDS = ("1", "x", "x y", "x^2", "[x,y]", "[x^2,y^3]", "[x,y]^2")
DISTANCE_WORDS = ("x^2", "[x,y]", "[x^2,y^3]")


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


def reference_word_image_matrix(
    w: Word,
    d: int,
    field: Field,
    budget: int = 200_000,
    seed: int = 0,
) -> ImageReport:
    """word_image_matrix as it was on all generator pairs, verbatim."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    order = _gl_order(d, field.q)
    if order > MATRIX_GROUP_LIMIT:
        raise ValueError(f"|GL_{d}({field.q})| = {order} exceeds {MATRIX_GROUP_LIMIT}")
    elements = _all_gl_elements(field, d)
    group = f"GL_{d}({field.q})"
    exhaustive = order * order <= MATRIX_EXHAUSTIVE_LIMIT
    if exhaustive:
        pairs = itertools.product(elements, repeat=2)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(budget))
    # many pairs give the same value, so each distinct value is classified once
    values = {evaluate_word_matrix(w, g, h) for g, h in pairs}
    classes = frozenset(_matrix_class(m) for m in values)
    return ImageReport(
        group=group, classes=classes, exhaustive=exhaustive, seed=None if exhaustive else seed
    )


def reference_exact_distance_matrix(
    w: Word, target: MatrixFq, report: Optional[ImageReport] = None
) -> Fraction:
    """exact_distance_matrix as it was through _nearest, verbatim."""
    d = target.n
    field = target.field
    if report is None:
        report = reference_word_image_matrix(w, d, field)
    elif report.group != f"GL_{d}({field.q})":
        raise ValueError(f"a report on {report.group} cannot place a target in GL_{d}({field.q})")
    return _nearest(
        target, _all_gl_elements(field, d), _matrix_class, report.classes, rank_distance
    )


@pytest.mark.parametrize("p,e,d", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_images_match_the_reference(p, e, d):
    F = make_field(p, e)
    for text in IMAGE_WORDS:
        w = parse_word(text)
        report, reference = word_image_matrix(w, d, F), reference_word_image_matrix(w, d, F)
        assert report.exhaustive
        assert report.to_dict() == reference.to_dict(), (text, F.q, d)


@pytest.mark.parametrize("p,e,d", [(3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_cached_elements_are_sorted_by_rows(p, e, d):
    # word_image_matrix finds the cached element equal to a value by bisection
    rows = [m.rows for m in _all_gl_elements(make_field(p, e), d)]
    assert rows == sorted(set(rows))


@pytest.mark.parametrize("p,d", [(3, 2), (2, 3)])
def test_distances_of_every_target_match_the_reference(p, d):
    F = make_field(p, 1)
    for text in DISTANCE_WORDS:
        w = parse_word(text)
        report, reference = word_image_matrix(w, d, F), reference_word_image_matrix(w, d, F)
        for target in _all_gl_elements(F, d):
            assert exact_distance_matrix(w, target, report) == reference_exact_distance_matrix(
                w, target, reference
            ), (text, target.rows)
        target = _all_gl_elements(F, d)[-1]
        assert exact_distance_matrix(w, target) == reference_exact_distance_matrix(w, target)


@pytest.mark.parametrize("seed", [0, 42])
def test_sampled_reports_match_the_reference(seed):
    F = make_field(11, 1)
    for text in ("x", "[x,y]"):
        w = parse_word(text)
        report = word_image_matrix(w, 2, F, budget=500, seed=seed)
        reference = reference_word_image_matrix(w, 2, F, budget=500, seed=seed)
        assert not report.exhaustive
        assert report.to_dict() == reference.to_dict(), (text, seed)


def test_a_second_image_classifies_nothing(monkeypatch):
    calls = []
    original = glapprox._invariant_factors

    def counted(a):
        calls.append(a)
        return original(a)

    F = make_field(3, 1)
    word_image_matrix(parse_word("x^2"), 2, F)
    monkeypatch.setattr(glapprox, "_invariant_factors", counted)
    word_image_matrix(parse_word("[x,y]^2"), 2, F)
    assert calls == []

    monkeypatch.setattr(glapprox, "_invariant_factors", original)
    F = make_field(11, 1)
    word_image_matrix(parse_word("[x,y]"), 2, F, budget=500, seed=7)
    monkeypatch.setattr(glapprox, "_invariant_factors", counted)
    word_image_matrix(parse_word("[x,y]"), 2, F, budget=500, seed=7)
    assert calls == []
