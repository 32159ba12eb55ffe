"""min_extension_root splits the gcd it already has instead of computing it
again over the big field."""

import random
from typing import Optional

from wordmetric.ffield import FqPoly, embed, find_any_root, make_field, min_extension_root


def reference_find_any_root(f: FqPoly) -> Optional[int]:
    """find_any_root as it was before the splitting moved out, verbatim."""
    F = f.field
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return None
    if F.q <= 4096:
        for a in range(F.q):
            if f.evaluate(a) == 0:
                return a
        return None
    # restrict to the product of linear factors
    linear = FqPoly.x_pow_minus_x(F, F.q, f).gcd(f)
    if linear.degree < 1:
        return None
    rng = random.Random(0xF1E1D ^ F.q ^ hash(tuple(linear.coeffs)) & 0xFFFFFFFF)
    g = linear
    while g.degree > 1:
        r = rng.randrange(F.q)
        if F.p == 2:
            # Tr(rX) mod g splits off the roots a with Tr(ra) = 0; the scale r
            # must vary, as Tr(X + r) never separates roots of equal trace
            t = FqPoly(F, [0, r])
            acc = t
            for _ in range(F.e - 1):
                t = (t * t) % g
                acc = acc + t
            h = acc.gcd(g)
        else:
            probe = FqPoly(F, [r, 1])
            h = (probe.powmod((F.q - 1) // 2, g) - FqPoly(F, [1])).gcd(g)
        if 0 < h.degree < g.degree:
            g = h if h.degree <= g.degree - h.degree else (g // h)
    if g.degree != 1:
        return None
    # monic linear X + c has root -c
    g = g.monic()
    return F.neg(g.coeffs[0])


def reference_min_extension_root(f: FqPoly, l: int):
    """min_extension_root as it was, verbatim, with the root found again by
    the copy above."""
    if f.degree < 1:
        raise ValueError("nonconstant polynomial required")
    F = f.field
    for m in range(1, l + 1):
        probe = FqPoly.x_pow_minus_x(F, F.q ** m, f).gcd(f)
        if probe.degree >= 1:
            big = make_field(F.p, F.e * m)
            up = embed(F, big)
            root = reference_find_any_root(f.map_coeffs(up, big))
            if root is None:
                raise AssertionError("gcd test promised a root")
            return m, root, big
    return None


# (p, e, degree) of the seeded polynomials: F_(2^7) at degree 2 reaches the
# characteristic-2 splitting over F_(2^14), and F_(3^2) is a base that is
# itself an extension
CASES = [
    (p, e, degree)
    for p, e in [(2, 1), (3, 1), (5, 1), (137, 1), (2617, 1), (3, 2)]
    for degree in (2, 4)
] + [(2, 7, 2)]


def seeded_polys(p, e, degree, count=6, seed=24):
    F = make_field(p, e)
    rng = random.Random(f"{seed}:{p}:{e}:{degree}")
    return [
        FqPoly(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(degree - 1)] + [1])
        for _ in range(count)
    ]


def test_min_extension_root_matches_the_reference(monkeypatch):
    orig = FqPoly.x_pow_minus_x
    fields = []

    def counted(field, qm, modulus):
        fields.append(field)
        return orig(field, qm, modulus)

    reached = set()
    for p, e, degree in CASES:
        for f in seeded_polys(p, e, degree):
            # the reference also fills the embedding cache, whose first
            # build may find a root over the big field itself
            expected = reference_min_extension_root(f, degree)
            fields.clear()
            monkeypatch.setattr(FqPoly, "x_pow_minus_x", staticmethod(counted))
            found = min_extension_root(f, degree)
            monkeypatch.setattr(FqPoly, "x_pow_minus_x", staticmethod(orig))
            assert found == expected, f
            m, root, big = found
            assert f.map_coeffs(embed(f.field, big), big).evaluate(root) == 0
            # the existence gcd is the only one, and it is taken over the base
            assert fields and all(field is f.field for field in fields), f
            reached.add((big.q > 4096, big.p == 2))
    # the scan, the odd splitting and the characteristic-2 trace splitting
    assert {(False, False), (False, True), (True, False), (True, True)} <= reached


def test_find_any_root_matches_the_reference():
    # find_any_root hands its own gcd to the same splitting
    for p, e, degree in CASES:
        for f in seeded_polys(p, e, degree, seed=25):
            _, _, big = reference_min_extension_root(f, degree)
            lifted = f.map_coeffs(embed(f.field, big), big)
            assert find_any_root(lifted) == reference_find_any_root(lifted), f
