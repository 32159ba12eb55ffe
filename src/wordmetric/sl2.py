"""SL2 over finite fields, its projective-line action, and trace solvers.

Matrices act on row vectors from the right, matching the right-action
convention used for permutations.  The projective line over F_q is ordered
[1:0] first, then [a:1] for a = 0, 1, ..., q-1 in the canonical element
order, so permutation encodings are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Tuple

from .ffield import (
    Field, FqPoly, element_of_order, embed, factorize, make_field, min_extension_root,
)
from .perms import Permutation, evaluate_word
from .words import Word, SyllableForm, classify, evaluate, power


class SL2Elem:
    """A matrix [[a, b], [c, d]] with entries in a Field and determinant 1."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a: int, b: int, c: int, d: int):
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det != 1:
            raise ValueError("determinant is not 1")

    @staticmethod
    def identity(field: Field) -> "SL2Elem":
        return SL2Elem(field, 1, 0, 0, 1)

    def __eq__(self, other):
        return (
            isinstance(other, SL2Elem)
            and self.field is other.field
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash((id(self.field), self.a, self.b, self.c, self.d))

    def __mul__(self, other: "SL2Elem") -> "SL2Elem":
        F = self.field
        return SL2Elem(
            F,
            F.add(F.mul(self.a, other.a), F.mul(self.b, other.c)),
            F.add(F.mul(self.a, other.b), F.mul(self.b, other.d)),
            F.add(F.mul(self.c, other.a), F.mul(self.d, other.c)),
            F.add(F.mul(self.c, other.b), F.mul(self.d, other.d)),
        )

    def inverse(self) -> "SL2Elem":
        F = self.field
        return SL2Elem(F, self.d, F.neg(self.b), F.neg(self.c), self.a)

    def __pow__(self, n: int) -> "SL2Elem":
        if n == 0:
            return SL2Elem.identity(self.field)
        return power(self if n > 0 else self.inverse(), abs(n), one=None)

    def trace(self) -> int:
        return self.field.add(self.a, self.d)

    def is_central(self) -> bool:
        F = self.field
        minus_one = F.neg(1)
        return (self.b, self.c) == (0, 0) and self.a == self.d and self.a in (1, minus_one)

    def order(self) -> int:
        """Multiplicative order of the matrix in SL2(q)."""
        F = self.field
        # the order divides q-1, q+1 or 2p (unipotent-type)
        for bound in (F.q - 1, F.q + 1, 2 * F.p):
            if (self ** bound) == SL2Elem.identity(F):
                order = bound
                for r in factorize(bound):
                    while order % r == 0 and (self ** (order // r)) == SL2Elem.identity(F):
                        order //= r
                return order
        raise AssertionError("order must divide q-1, q+1 or 2p")

    def embed_into(self, big: Field) -> "SL2Elem":
        up = embed(self.field, big)
        return SL2Elem(big, up(self.a), up(self.b), up(self.c), up(self.d))

    def __repr__(self):
        F = self.field
        fmt = F.format_element
        return f"SL2[{fmt(self.a)} {fmt(self.b)}; {fmt(self.c)} {fmt(self.d)}]"


def evaluate_word_sl2(w: Word, g: SL2Elem, h: SL2Elem) -> SL2Elem:
    return evaluate(w, g, h)


def _point_index(F: Field, a: int, b: int) -> int:
    """Position of [a:b] on the projective line over F."""
    if b == 0:
        if a == 0:
            raise ValueError("(0, 0) is not a projective point")
        return 0
    return 1 + F.mul(a, F.inv(b))


def projective_permutation(g: SL2Elem) -> Permutation:
    """The permutation of the projective line under [a:b] -> [a:b] . g."""
    F = g.field
    images = [0] * (F.q + 1)
    # point [1:0]
    images[0] = _point_index(F, g.a, g.b)
    for a in range(F.q):
        # point [a:1] -> (a*g11 + g21, a*g12 + g22)
        na = F.add(F.mul(a, g.a), g.c)
        nb = F.add(F.mul(a, g.b), g.d)
        images[1 + a] = _point_index(F, na, nb)
    return Permutation(images)


def classify_cycle_type(g: SL2Elem) -> Tuple[Tuple[int, int], ...]:
    """Closed-form cycle type of the projective action of g.

    For eigenvalue order o > 2 the type depends only on o and q: two fixed
    points and (q-1)/o cycles when o | q-1 (halved lengths for even o), no
    fixed points and cycles over q+1 points when o | q+1.  The unipotent and
    central cases are handled separately.
    """
    F = g.field
    q = F.q
    two = F.add(1, 1)
    t = g.trace()
    if t == two or t == F.neg(two):
        if g.is_central():
            return ((1, q + 1),)
        # +/- a nontrivial unipotent: one fixed point, the rest p-cycles
        return ((1, 1), (F.p, q // F.p))
    o = g.order()
    if o % 2 == 0 and (q - 1) % o == 0:
        return normalize_type(((1, 2), (o // 2, 2 * (q - 1) // o)))
    if o % 2 == 1 and (q - 1) % o == 0:
        return normalize_type(((1, 2), (o, (q - 1) // o)))
    if o % 2 == 0 and (q + 1) % o == 0:
        return normalize_type(((o // 2, 2 * (q + 1) // o),))
    if o % 2 == 1 and (q + 1) % o == 0:
        return normalize_type(((o, (q + 1) // o),))
    raise AssertionError(f"eigenvalue order {o} divides neither q-1 nor q+1")


def normalize_type(pairs) -> Tuple[Tuple[int, int], ...]:
    counts = {}
    for length, cnt in pairs:
        if cnt:
            counts[length] = counts.get(length, 0) + cnt
    return tuple(sorted(counts.items()))


# -- unipotent trace polynomial and effective trace solving ------------------


def _standard_form(w: Word) -> SyllableForm:
    form = classify(w)
    if form.kind != "alternating":
        raise ValueError("word must be alternating (not trivial or a power)")
    return form


def _check_exponents(form: SyllableForm, p: int):
    if form.divides_exponent(p):
        raise ValueError(f"characteristic {p} divides a syllable exponent of the word")


def _unipotent_pair(field: Field, u: int) -> Tuple[SL2Elem, SL2Elem]:
    """g = [[1,0],[u,1]], h = [[1,1],[0,1]] over the given field."""
    return SL2Elem(field, 1, 0, u, 1), SL2Elem(field, 1, 1, 0, 1)


def unipotent_trace_poly(w: Word, field: Field) -> FqPoly:
    """tr of the word evaluated at [[1,0],[U,1]], [[1,1],[0,1]] over F[U].

    The result has degree l (the number of syllable pairs) and leading
    coefficient equal to the product of all syllable exponents mod p.
    """
    form = _standard_form(w)
    _check_exponents(form, field.p)
    one = FqPoly(field, [1])
    zero = FqPoly(field, [])
    u = FqPoly(field, [0, 1])

    def mat_mul(A, B):
        return (
            A[0] * B[0] + A[1] * B[2],
            A[0] * B[1] + A[1] * B[3],
            A[2] * B[0] + A[3] * B[2],
            A[2] * B[1] + A[3] * B[3],
        )

    def const(c: int) -> FqPoly:
        return FqPoly(field, [c % field.p])

    # powers of the elementary unipotents are scalar multiples in the
    # off-diagonal entry: g^a = [[1,0],[aU,1]], h^b = [[1,b],[0,1]]
    factors = [
        m
        for a, b in form.syllables
        for m in ((one, zero, u * const(a), one), (one, const(b), zero, one))
    ]
    value = reduce(mat_mul, factors)
    r = value[0] + value[3]
    lead = 1
    for a, b in form.syllables:
        lead = lead * a * b % field.p
    if r.degree != form.l or r.leading() != lead:
        raise AssertionError("trace polynomial violates the degree identity")
    return r


@dataclass
class TraceSolution:
    m: int
    field: Field
    g: SL2Elem
    h: SL2Elem


def solve_trace(w: Word, field: Field, t: int) -> TraceSolution:
    """Unipotent g, h over F_{q^m}, m <= l, with tr w(g, h) = t.

    Solves r(U) = t in the smallest extension; existence within degree l is
    guaranteed because r - t has degree l over F_q.
    """
    form = _standard_form(w)
    base = make_field(field.p, 1)
    r = unipotent_trace_poly(w, base)
    up = embed(base, field)
    r_q = r.map_coeffs(up, field)
    target = r_q - FqPoly(field, [t])
    found = min_extension_root(target, form.l)
    if found is None:
        raise AssertionError("degree argument guarantees a root within l")
    m, u, big = found
    g, h = form.pair(*_unipotent_pair(big, u))
    value = evaluate_word_sl2(w, g, h)
    t_big = embed(field, big)(t)
    if value.trace() != t_big:
        raise AssertionError("trace verification failed")
    return TraceSolution(m=m, field=big, g=g, h=h)


@dataclass
class BlockValue:
    """A word value sigma = w(g_perm, h_perm) on the projective line.

    The matrix preimages g, h and their projective permutations are kept as
    the surjectivity certificate.
    """

    sigma: Permutation
    field: Field
    g: SL2Elem
    h: SL2Elem
    g_perm: Permutation
    h_perm: Permutation

    @property
    def defect(self) -> int:
        """Points changed to reach some (q+1)-cycle: 0 or the cycle count."""
        count = len(self.sigma.cycles())
        return 0 if count == 1 else count


def _block_value(w: Word, g: SL2Elem, h: SL2Elem) -> BlockValue:
    g_perm = projective_permutation(g)
    h_perm = projective_permutation(h)
    sigma = evaluate_word(w, g_perm, h_perm)
    return BlockValue(sigma=sigma, field=g.field, g=g, h=h, g_perm=g_perm, h_perm=h_perm)


@lru_cache(maxsize=None)
def _isotypic_trace(w: Word, k: int, field: Field) -> TraceSolution:
    """The trace solution behind the isotypic value: tr w(g, h) = lam + 1/lam
    for lam of order 2k (k for odd k) in the field."""
    if k < 2:
        raise ValueError("k must be at least 2")
    need = 2 * k if k % 2 == 0 else k
    if (field.q - 1) % need != 0:
        raise ValueError(f"{need} does not divide q - 1 = {field.q - 1}")
    lam = element_of_order(field, need)
    return solve_trace(w, field, field.add(lam, field.inv(lam)))


def isotypic_word_value(w: Word, k: int, field: Field, i: int = 1) -> BlockValue:
    """A w-value on q^{im}+1 points of cycle type (1^2, k^{(q^{im}-1)/k}).

    Requires 2k | q-1 for even k (k | q-1 for odd k) so that a trace value
    with eigenvalue of the right order exists.
    """
    sol = _isotypic_trace(w, k, field)
    g, h = sol.g, sol.h
    if i > 1:
        big = make_field(field.p, sol.field.e * i)
        g, h = g.embed_into(big), h.embed_into(big)
    value = _block_value(w, g, h)
    sigma = value.sigma
    expected = normalize_type(((1, 2), (k, (value.field.q - 1) // k)))
    if sigma.cycle_type() != expected:
        raise AssertionError(
            f"value has cycle type {sigma.cycle_type()}, expected {expected}"
        )
    if projective_permutation(evaluate_word_sl2(w, g, h)) != sigma:
        raise AssertionError(
            "projective action of the matrix word value differs from the "
            "word value of the projective permutations"
        )
    return value


def _cycle_count_cap(l: int, qi: int) -> int:
    """Largest integer strictly below 2 + sqrt(l * q^i)."""
    root = math.isqrt(l * qi)
    return 1 + root if root * root == l * qi else 2 + root


def near_cycle_word_value(w: Word, field: Field) -> BlockValue:
    """Sweep the trace parameter and keep the value closest to a long cycle.

    The first parameter with the fewest cycles wins, and the sweep stops at
    the least cycle count the field allows: one for even q, two for odd q.
    Requires q > 4l.  The defect (number of cycles when there is more than
    one) is certified below the 2 + sqrt(q*l) bound.
    """
    form = _standard_form(w)
    _check_exponents(form, field.p)
    if field.q <= 4 * form.l:
        raise ValueError(f"need q > 4l = {4 * form.l}, got q = {field.q}")
    # for odd q no non-central element of SL2(q) acts on the projective line
    # as a single (q+1)-cycle: an elliptic one of eigenvalue order o | q+1 has
    # 2(q+1)/o cycles for even o and (q+1)/o for odd o, where q+1 is even,
    # and the split and unipotent ones fix a point
    fewest = 1 + field.q % 2
    best: Optional[Tuple[int, SL2Elem, SL2Elem]] = None  # (cycle_count, g, h)
    for u in range(1, field.q):
        g, h = form.pair(*_unipotent_pair(field, u))
        value = evaluate_word_sl2(w, g, h)
        if value.is_central():
            continue
        ctype = classify_cycle_type(value)
        count = sum(c for _, c in ctype)
        if best is None or count < best[0]:
            best = (count, g, h)
        if count == fewest:
            break
    if best is None:
        raise AssertionError("no noncentral value found in the sweep")
    value = _block_value(w, *best[1:])
    cap = _cycle_count_cap(form.l, field.q)
    if value.defect > cap:
        raise AssertionError(
            f"defect {value.defect} violates the 2 + sqrt(q*l) bound: "
            f"at most {cap} for q={field.q}, l={form.l}"
        )
    return value
