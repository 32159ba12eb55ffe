"""approx_gl computes what no target changes once: the unit group of a wreath
ring only when a root or a negative power needs it, the boundary matrix of
w over Z/r, and the S_n witness of the cycle blocks."""

import random

from conftest import clear_package_caches
from wordmetric import glapprox
from wordmetric.cayley import smith_normal_form, smith_solve
from wordmetric.ffield import FqPoly, make_field
from wordmetric.glapprox import (
    MatrixFq,
    _cycle_witness,
    _ring_units,
    _solve_units,
    _try_wreath_plan,
    approx_gl,
)
from wordmetric.words import parse_word, power

WORDS = ("[x,y]", "[x^2,y^3]", "x^2")


def eager_solve_units(m, target, modulus):
    """_solve_units as it was when it enumerated the unit group up front,
    verbatim: every exponent is reduced mod |U|."""
    units = _ring_units(modulus)
    one = FqPoly(modulus.field, [1])

    def mul(a: FqPoly, b: FqPoly) -> FqPoly:
        return (a * b) % modulus

    def unit_power(f: FqPoly, e: int) -> FqPoly:
        # f^|U| = 1, so a negative exponent reduces to a nonnegative one
        return power(f, e % len(units), one, mul)

    def root(d: int, rhs: FqPoly) -> FqPoly:
        return next((cand for cand in units if unit_power(cand, d) == rhs), None)

    return smith_solve(m, target, one, mul, unit_power, root)[0]


def seeded_systems(count=150, seed=24):
    """(M, target, modulus): small integer M with entries in [-3, 3] and
    targets drawn from the units of F_q[X]/(modulus)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        field = make_field(*rng.choice([(2, 1), (3, 1), (5, 1), (2, 2)]))
        degree = rng.randint(1, 3 if field.q < 5 else 2)
        while True:
            coeffs = [rng.randrange(field.q) for _ in range(degree)] + [1]
            if coeffs[0]:
                break
        modulus = FqPoly(field, coeffs)
        units = _ring_units(modulus)
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        out.append((m, [rng.choice(units) for _ in range(rows)], modulus))
    return out


def test_solve_units_matches_the_eager_solve():
    systems = seeded_systems()
    negative = above_one = solved = unsolved = 0
    for m, target, modulus in systems:
        u, d, v = smith_normal_form(m)
        negative += any(e < 0 for row in u + v for e in row)
        above_one += any(d[i][i] > 1 for i in range(min(len(d), len(v))))
        expected = eager_solve_units(m, target, modulus)
        found = _solve_units(m, target, modulus)
        assert found == expected, (m, target, modulus)
        solved += found is not None
        unsolved += found is None
    # the systems reach negative exponents, roots of degree above 1, and
    # both outcomes
    assert min(negative, above_one, solved, unsolved) >= 10, (
        negative, above_one, solved, unsolved
    )


def test_a_plan_that_fails_without_a_root_enumerates_no_units():
    clear_package_caches()
    # over Z/1 the boundary of [x,y] is 0, so the plan needs X = 1 mod chi
    chi = FqPoly(make_field(3, 1), [1, 1])
    assert _try_wreath_plan(parse_word("[x,y]"), chi, 1) is None
    assert _ring_units.cache_info().misses == 0


def test_a_plan_with_a_root_reads_the_units():
    clear_package_caches()
    chi = FqPoly(make_field(3, 1), [1, 1])
    plan = _try_wreath_plan(parse_word("[x,y]^2"), chi, 4)
    assert [f.coeffs for f in plan.edge_values] == [[1], [1], [0, 1], [1]]
    assert _ring_units.cache_info().misses >= 1


def cyclic_targets(field, n, count, rng):
    """Distinct targets with one invariant factor of degree n."""
    out = []
    while len(out) < count:
        m = MatrixFq(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
        if m.is_invertible() and len(m.invariant_factors()) == 1 and m not in out:
            out.append(m)
    return out


def test_cycle_witness_is_built_once_per_block_sizes(monkeypatch):
    w = parse_word("[x,y]")
    targets = cyclic_targets(make_field(3, 1), 5, 2, random.Random(5))
    calls = []
    orig = glapprox.approx

    def counted(word, sigma):
        calls.append(sigma)
        return orig(word, sigma)

    monkeypatch.setattr(glapprox, "approx", counted)
    _cycle_witness.cache_clear()
    witnesses = [approx_gl(w, a) for a in targets]
    assert len(calls) == 1
    for wit in witnesses:
        assert [part["path"] for part in wit.trace["summands"]] == ["cycle-blocks"]
    assert witnesses[0].target != witnesses[1].target


def seeded_targets(count=20, seed=2424):
    """(p, rows) of invertible targets over F_2, F_3 and F_5 with n <= 8."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, n = rng.choice((2, 3, 5)), rng.randint(2, 8)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if MatrixFq(make_field(p, 1), rows).is_invertible():
            out.append((p, rows))
    return out


def outcome(w, p, rows):
    wit = approx_gl(w, MatrixFq(make_field(p, 1), rows))
    return wit.g.rows, wit.h.rows, wit.achieved_distance, wit.trace


def test_cold_and_warm_caches_give_the_same_witnesses():
    cases = [(parse_word(word), p, rows) for word in WORDS for p, rows in seeded_targets()]
    cold = []
    for w, p, rows in cases:
        clear_package_caches()
        cold.append(outcome(w, p, rows))
    forward = [outcome(*case) for case in cases]
    backward = [outcome(*case) for case in reversed(cases)][::-1]
    assert forward == cold
    assert backward == cold
