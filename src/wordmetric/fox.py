"""Fox calculus over Z[F2], abelianized derivatives, and SU_n certificates.

The derivative is the derivation with d(x)/dx = 1, d(y)/dx = 0 and product
rule d(uv) = du + u dv.  Abelianizing to Z[X^{±1}, Y^{±1}] (with the
exponent-negating involution applied) and specializing along a direction
Z^2 -> Z yields a one-variable polynomial p_w whose common roots with
X^n - 1 control surjectivity of the word map on SU_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .ffield import factorize
from .words import Word


class _SparseRing:
    """Sparse Z-linear combinations with nonzero coefficients; subclasses set
    _mono, the product of two keys."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict] = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        mono = self._mono
        out: Dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = mono(ka, kb)
                out[key] = out.get(key, 0) + ca * cb
        return type(self)(out)


class GroupRingElem(_SparseRing):
    """Element of Z[F2]: finite map from reduced words to nonzero ints."""

    __slots__ = ()
    _mono = staticmethod(Word.__mul__)

    @staticmethod
    def zero() -> "GroupRingElem":
        return GroupRingElem()

    @staticmethod
    def one() -> "GroupRingElem":
        return GroupRingElem({Word(()): 1})

    @staticmethod
    def of(w: Word, c: int = 1) -> "GroupRingElem":
        return GroupRingElem({w: c})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = [f"{c}*({w})" for w, c in sorted(self.terms.items(), key=str)]
        return " + ".join(parts)


def fox_derivative(w: Word, var: str) -> GroupRingElem:
    """d(w)/d(var), computed letterwise by the product rule."""
    if var not in ("x", "y"):
        raise ValueError("variable must be x or y")
    terms: Dict[Word, int] = {}
    prefix = Word(())
    for gen, step in w.unit_letters():
        if gen == var:
            key = prefix if step == 1 else prefix * Word(((gen, -1),))
            terms[key] = terms.get(key, 0) + step
        prefix = prefix * Word(((gen, step),))
    return GroupRingElem(terms)


def fox_identity_holds(w: Word) -> bool:
    """w - 1 = (dw/dx)(x - 1) + (dw/dy)(y - 1) in Z[F2]."""
    x = GroupRingElem.of(Word((("x", 1),)))
    y = GroupRingElem.of(Word((("y", 1),)))
    one = GroupRingElem.one()
    lhs = GroupRingElem.of(w) - one
    rhs = fox_derivative(w, "x") * (x - one) + fox_derivative(w, "y") * (y - one)
    return lhs == rhs


class LaurentPoly2(_SparseRing):
    """Z[X^{±1}, Y^{±1}] with sparse exponent dictionaries."""

    __slots__ = ()

    @staticmethod
    def _mono(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    def support(self):
        return set(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*X^{i}*Y^{j}" for (i, j), c in sorted(self.terms.items())
        )


class LaurentPoly1(_SparseRing):
    """Z[X^{±1}] with a sparse exponent dictionary."""

    __slots__ = ()
    _mono = staticmethod(int.__add__)

    def normalized(self) -> Tuple[int, ...]:
        """Coefficient tuple shifted to start at degree 0, sign-normalized."""
        if not self.terms:
            return ()
        lo = min(self.terms)
        hi = max(self.terms)
        coeffs = [self.terms.get(e, 0) for e in range(lo, hi + 1)]
        lead = next(c for c in coeffs if c != 0)
        if lead < 0:
            coeffs = [-c for c in coeffs]
        return tuple(coeffs)

    def equals_up_to_units(self, other: "LaurentPoly1") -> bool:
        """Equality modulo multiplication by ±X^k."""
        return self.normalized() == other.normalized()

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*X^{e}" for e, c in sorted(self.terms.items()))


def abelianized_derivatives(w: Word) -> Tuple[LaurentPoly2, LaurentPoly2]:
    """Both Fox derivatives pushed to Z[Z^2], exponent-negating involution
    applied."""
    out = []
    for var in ("x", "y"):
        der = fox_derivative(w, var)
        terms: Dict[Tuple[int, int], int] = {}
        for word, c in der.terms.items():
            ax, ay = word.abelianization()
            key = (-ax, -ay)
            terms[key] = terms.get(key, 0) + c
        out.append(LaurentPoly2(terms))
    return out[0], out[1]


NOT_IN_F2PRIME = "not_in_F2prime"
IN_F2PRIME_NOT_F2SECOND = "in_F2prime_not_F2second"
IN_F2SECOND = "in_F2second"


def derived_membership(w: Word) -> str:
    """Locate w in the chain F2 > F2' > F2''."""
    if w.cyclic_reduce().is_trivial():
        raise ValueError("membership is only defined for nontrivial words")
    if w.abelianization() != (0, 0):
        return NOT_IN_F2PRIME
    dx, dy = abelianized_derivatives(w)
    if dx.is_zero() and dy.is_zero():
        return IN_F2SECOND
    return IN_F2PRIME_NOT_F2SECOND


def _spiral_directions() -> Iterator[Tuple[int, int]]:
    """Coprime direction pairs in a fixed enumeration of growing radius."""
    radius = 1
    while True:
        for alpha in range(-radius, radius + 1):
            for beta in range(-radius, radius + 1):
                if max(abs(alpha), abs(beta)) != radius:
                    continue
                if math.gcd(alpha, beta) == 1:
                    yield (alpha, beta)
        radius += 1


def _specialize(z: LaurentPoly2, direction: Tuple[int, int]) -> LaurentPoly1:
    alpha, beta = direction
    terms: Dict[int, int] = {}
    for (i, j), c in z.terms.items():
        e = alpha * i + beta * j
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly1(terms)


def _choose_direction(z: LaurentPoly2) -> Tuple[Tuple[int, int], LaurentPoly1]:
    """Collapse along an axis when that stays nonzero; otherwise take the
    first coprime direction injective on the support of z."""
    for direction in ((1, 0), (0, 1)):
        p = _specialize(z, direction)
        if not p.is_zero():
            return direction, p
    support = z.support()
    for direction in _spiral_directions():
        alpha, beta = direction
        values = {alpha * i + beta * j for (i, j) in support}
        if len(values) == len(support):
            return direction, _specialize(z, direction)
    raise AssertionError("unreachable: injective directions are dense")


@dataclass(frozen=True)
class Specialization:
    z: LaurentPoly2
    direction: Tuple[int, int]
    p: LaurentPoly1
    used_y_derivative: bool


def specialize_details(w: Word) -> Specialization:
    if derived_membership(w) != IN_F2PRIME_NOT_F2SECOND:
        raise ValueError("word must lie in F2' but not F2''")
    dx, dy = abelianized_derivatives(w)
    used_y = not dy.is_zero()
    z = dy if used_y else dx
    direction, p = _choose_direction(z)
    if p.is_zero():
        raise AssertionError("specialization of a nonzero z must be nonzero")
    return Specialization(z=z, direction=direction, p=p, used_y_derivative=used_y)


def specialize_pw(w: Word) -> LaurentPoly1:
    """The one-variable polynomial p_w(X) used for root-of-unity counting."""
    return specialize_details(w).p


def _divmod_monic(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Integer long division by a monic b (coefficient lists, index = degree)."""
    m = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - m, 0)
    for i in range(len(a) - 1 - m, -1, -1):
        c = rem[i + m]
        if c:
            quot[i] = c
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    return quot, rem[:m]


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> Tuple[int, ...]:
    """Phi_d, as X^d - 1 divided by Phi_e for every proper divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _divmod_monic(poly, _cyclotomic(e))[0]
    return tuple(poly)


def _totient(d: int) -> int:
    out = d
    for prime in factorize(d):
        out -= out // prime
    return out


def count_Wn(p: LaurentPoly1, n: int) -> int:
    """Number of distinct nth roots of unity annihilating p, exactly over Q.

    X^n - 1 is the squarefree product of the irreducible Phi_d over d | n,
    so the count is the sum of phi(d) over the d | n with Phi_d | p.  Only
    phi(d) <= deg p can divide, and phi(d) >= sqrt(d/2) caps d at 2 deg^2.
    """
    if p.is_zero():
        raise ValueError("zero polynomial annihilates everything")
    if n < 1:
        raise ValueError("n must be positive")
    lo = min(p.terms)
    coeffs = [p.terms.get(e, 0) for e in range(lo, max(p.terms) + 1)]
    deg = len(coeffs) - 1
    count = 0
    for d in range(1, min(n, 2 * deg * deg) + 1):
        if n % d == 0:
            phi = _totient(d)
            if phi <= deg and not any(_divmod_monic(coeffs, _cyclotomic(d))[1]):
                count += phi
    return count


@dataclass(frozen=True)
class SUCertificate:
    word: Word
    n: int
    membership: str
    verdict: str
    p: Optional[LaurentPoly1] = None
    wn: Optional[int] = None
    direction: Optional[Tuple[int, int]] = None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "word": str(self.word),
            "n": self.n,
            "membership": self.membership,
            "verdict": self.verdict,
            "p_w": None if self.p is None else {str(e): c for e, c in sorted(self.p.terms.items())},
            "wn": self.wn,
            "direction": None if self.direction is None else list(self.direction),
        }


SURJECTIVE = "surjective"
SURJECTIVE_TRIVIALLY = "surjective_trivially"
UNKNOWN = "unknown"


def su_certificate(w: Word, n: int) -> SUCertificate:
    """One-sided surjectivity certificate for the word map on SU_n.

    A word outside F2' hits a generator power, hence is surjective for
    trivial reasons.  Inside F2' \\ F2'', a single common root of p_w and
    X^n - 1 certifies surjectivity; anything else is honestly unknown.
    """
    membership = derived_membership(w)
    if membership == NOT_IN_F2PRIME:
        return SUCertificate(word=w, n=n, membership=membership, verdict=SURJECTIVE_TRIVIALLY)
    if membership == IN_F2SECOND:
        return SUCertificate(word=w, n=n, membership=membership, verdict=UNKNOWN)
    spec = specialize_details(w)
    wn = count_Wn(spec.p, n)
    verdict = SURJECTIVE if wn == 1 else UNKNOWN
    return SUCertificate(
        word=w,
        n=n,
        membership=membership,
        verdict=verdict,
        p=spec.p,
        wn=wn,
        direction=spec.direction,
    )
