"""Exact arithmetic in F_{p^e}, polynomials, orders and root finding.

Field elements are plain ints in [0, q): the integer sum(c_i * p^i) encodes
the coefficient vector (c_0, ..., c_{e-1}) with respect to the canonical
generator.  The canonical field for (p, e) uses the lexicographically least
monic irreducible of degree e over F_p, so elements, enumeration order and
printing are deterministic across runs.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .words import power

# -- integer helpers ---------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Trial-division factorization; field sizes here stay below 2**64."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- irreducible moduli over F_p --------------------------------------------


def _is_irreducible(poly: FqPoly) -> bool:
    """Rabin's test over the field F_q of poly's coefficients: poly of degree
    e divides X^{q^e} - X and is coprime to X^{q^{e/r}} - X for each prime
    r | e."""
    F = poly.field
    e = poly.degree
    if e <= 0:
        return False
    if not FqPoly.x_pow_minus_x(F, F.q ** e, poly).is_zero():
        return False
    return all(
        FqPoly.x_pow_minus_x(F, F.q ** (e // r), poly).gcd(poly).degree == 0
        for r in factorize(e)
    )


def _least_irreducible(p: int, e: int) -> List[int]:
    """Lexicographically least monic irreducible of degree e over F_p.

    Candidates are ordered by the coefficient tuple (c_{e-1}, ..., c_0).
    """
    if e == 1:
        return [0, 1]
    F = make_field(p, 1)
    for code in range(p ** e):
        coeffs = []
        v = code
        for _ in range(e):  # c_0 varies fastest in lex order on (c_{e-1}..c_0)
            coeffs.append(v % p)
            v //= p
        poly = coeffs + [1]
        if _is_irreducible(FqPoly(F, poly)):
            return poly
    raise AssertionError("no irreducible polynomial found")


# -- the field itself --------------------------------------------------------

_LOG_TABLE_LIMIT = 1 << 17


class Field:
    """The canonical finite field with p^e elements.

    Elements are ints in [0, q) encoding coefficient vectors base p.
    Use :func:`make_field` to obtain the cached canonical instance.
    """

    def __init__(self, p: int, e: int, _token=None):
        if _token is not _FIELD_TOKEN:
            raise TypeError("use make_field(p, e)")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = _least_irreducible(p, e)
        self._exp: Optional[List[int]] = None
        self._log: Optional[List[int]] = None
        self._exp_array: Optional[np.ndarray] = None
        self._log_array: Optional[np.ndarray] = None
        self._unit_factorization: Optional[dict] = None
        # the longest side n of an int64 array: n * (p-1)^2 < 2^63, q <= 2^63
        self._int64_sides = (2**63 - 1) // (p - 1) ** 2 if self.q <= 2**63 else -1

    def __repr__(self):
        return f"F_{self.q}" if self.e == 1 else f"F_{self.q} (= F_{self.p}^{self.e})"

    # encoding and arithmetic: each body runs on Python ints and, entrywise
    # with broadcasting, on integer arrays of encoded elements

    def coeffs(self, a) -> tuple:
        """The base-p digits c_0, ..., c_{e-1} of a."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a = a // self.p
        return tuple(out)

    def encode(self, coeffs):
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + c % self.p
        return val

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        p, out, unit = self.p, 0, 1
        for _ in range(self.e):
            out = out + (a % p + b % p) % p * unit
            a, b, unit = a // p, b // p, unit * p
        return out

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        p, out, unit = self.p, 0, 1
        for _ in range(self.e):
            out = out + (a % p - b % p) % p * unit
            a, b, unit = a // p, b // p, unit * p
        return out

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._schoolbook(a, b, operator.mul)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._log is not None:
            return self._exp[(self.q - 1) - self._log[a] if self._log[a] else 0]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 0 if n > 0 else 1
        return power(a, n % (self.q - 1), 1, self.mul)

    # arrays of encoded elements

    def dtype(self, n: int):
        """int64 while a sum of n products of entries below p fits in it,
        n * (p-1)^2 < 2^63 (and every element does, q <= 2^63); else object
        arrays of Python ints, on which the same expressions run exactly."""
        return np.int64 if n <= self._int64_sides else object

    def array(self, values) -> np.ndarray:
        """A new array of the encoded elements in values (a vector, or equal
        rows), in the dtype for its longest side."""
        values = np.asarray(values)
        if values.size and values.dtype.kind not in "biuO":
            raise ValueError(f"elements of {self!r} are encoded as integers")
        return values.astype(self.dtype(max(values.shape, default=0)))

    def sub_product(self, a, b, c) -> np.ndarray:
        """a - b*c, with one reduction for a prime field."""
        if self.e == 1:
            return (a - b * c) % self.p
        return self.sub(a, self.mul_arrays(b, c))

    def mul_arrays(self, a, b) -> np.ndarray:
        if self.e == 1:
            return a * b % self.p
        if self._log is None:
            return self._schoolbook(a, b, np.multiply)
        if self._log_array is None:  # built on first use: S_n never needs them
            self._exp_array, self._log_array = np.array(self._exp), np.array(self._log)
        product = self._exp_array[self._log_array[a] + self._log_array[b]]
        return np.where((a == 0) | (b == 0), 0, product)

    def matmul(self, a, b) -> np.ndarray:
        """The matrix (or vector-matrix) product a @ b over the field."""
        if self.e == 1:
            return a @ b % self.p
        return self._schoolbook(a, b, np.matmul)

    def _schoolbook(self, a, b, product):
        """The product of the coefficient vectors of a and b, their digit
        products taken by `product` (operator.mul on ints; np.multiply or
        np.matmul on arrays) and each reduced mod p at once so that the dtype
        bound holds, then reduced top down by the monic modulus."""
        p, e, m = self.p, self.e, self.modulus
        x, y = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                prod[i + j] = prod[i + j] + product(x[i], y[j]) % p
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            for i in range(e):
                prod[k - e + i] = prod[k - e + i] - c * m[i]
        return self.encode(prod[:e])

    # tables, orders, generators

    def _build_tables(self):
        """exp[i] = g^i by doubling, exp[k:2k] = exp[:k] * g^k, and log its
        inverse; the list halves of exp share their int objects."""
        if self._exp is not None or self.q > _LOG_TABLE_LIMIT or self.e == 1:
            return
        g = self.multiplicative_generator()
        n = self.q - 1
        exp = np.ones(n, dtype=np.int64)
        k, g_k = 1, g
        while k < n:
            exp[k:2 * k] = self._schoolbook(exp[:min(k, n - k)], g_k, np.multiply)
            k, g_k = 2 * k, self._schoolbook(g_k, g_k, operator.mul)
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(n)
        exp = exp.tolist()
        self._exp, self._log = exp + exp, log.tolist()

    def unit_group_factorization(self) -> dict:
        if self._unit_factorization is None:
            self._unit_factorization = factorize(self.q - 1)
        return self._unit_factorization

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order = self.q - 1
        for r in self.unit_group_factorization():
            while order % r == 0 and self.pow(a, order // r) == 1:
                order //= r
        return order

    def multiplicative_generator(self) -> int:
        primes = list(self.unit_group_factorization())
        for a in range(1, self.q):
            if all(self.pow(a, (self.q - 1) // r) != 1 for r in primes):
                return a
        raise AssertionError("no primitive root found")

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def format_element(self, a: int) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs(a)) + ")"


_FIELD_TOKEN = object()


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> Field:
    """Canonical field F_{p^e}; p must be prime, e >= 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be positive")
    field = Field(p, e, _token=_FIELD_TOKEN)
    field._build_tables()
    return field


def element_of_order(field: Field, k: int) -> int:
    """An element of exact multiplicative order k; requires k | q - 1."""
    if k < 1:
        raise ValueError("order must be positive")
    if (field.q - 1) % k != 0:
        raise ValueError(f"{k} does not divide q - 1 = {field.q - 1}")
    g = field.multiplicative_generator()
    return field.pow(g, (field.q - 1) // k)


# -- polynomials over an arbitrary Field (elements as ints) ------------------


class FqPoly:
    """Dense polynomial over a Field; coefficient list, index = degree."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), tuple(self.coeffs)))

    def __add__(self, other: "FqPoly") -> "FqPoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return FqPoly(F, [F.add(x, y) for x, y in zip(a, b)])

    def __neg__(self) -> "FqPoly":
        F = self.field
        return FqPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        F = self.field
        if self.is_zero() or other.is_zero():
            return FqPoly(F, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return FqPoly(F, out)

    def scale(self, c: int) -> "FqPoly":
        F = self.field
        return FqPoly(F, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "FqPoly") -> Tuple["FqPoly", "FqPoly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = F.inv(other.leading())
        quot = [0] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            coef = F.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - d
            quot[shift] = coef
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = F.sub(rem[shift + i], F.mul(coef, oc))
            while rem and rem[-1] == 0:
                rem.pop()
        return FqPoly(F, quot), FqPoly(F, rem)

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return self.divmod(other)[0]

    def monic(self) -> "FqPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other: "FqPoly") -> "FqPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def powmod(self, n: int, modulus: "FqPoly") -> "FqPoly":
        return power(
            self % modulus, n, FqPoly(self.field, [1]), lambda a, b: (a * b) % modulus
        )

    def evaluate(self, a: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def map_coeffs(self, func, target: Field) -> "FqPoly":
        return FqPoly(target, [func(c) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "FqPoly(0)"
        terms = [f"{self.field.format_element(c)}*U^{i}" for i, c in enumerate(self.coeffs) if c]
        return "FqPoly(" + " + ".join(terms) + ")"

    @staticmethod
    def x_pow_minus_x(field: Field, qm: int, modulus: "FqPoly") -> "FqPoly":
        x = FqPoly(field, [0, 1])
        return (x.powmod(qm, modulus) - x) % modulus


# -- embeddings and root finding --------------------------------------------


@lru_cache(maxsize=None)
def embedding(small_key: Tuple[int, int], big_key: Tuple[int, int]):
    """Embedding table F_{p^e} -> F_{p^{e*m}} as a list indexed by element.

    The canonical generator of the small field is sent to the least root of
    its defining polynomial in the big field; Frobenius conjugates provide
    all roots, so the least one is deterministic.
    """
    small = make_field(*small_key)
    big = make_field(*big_key)
    if small.p != big.p or big.e % small.e != 0:
        raise ValueError("no embedding between these fields")
    if small.e == 1:
        return list(range(small.p))
    modulus_big = FqPoly(big, [c % big.p for c in small.modulus])
    root = find_any_root(modulus_big)
    if root is None:
        raise AssertionError("defining polynomial must split in the big field")
    # minimize over the Frobenius orbit for determinism
    candidates = set()
    r = root
    for _ in range(small.e):
        candidates.add(r)
        r = big.pow(r, big.p)
    root = min(c for c in candidates if modulus_big.evaluate(c) == 0)
    return [FqPoly(big, small.coeffs(a)).evaluate(root) for a in range(small.q)]


def embed(small: Field, big: Field):
    """Callable embedding small -> big (identity if the fields coincide)."""
    if small is big:
        return lambda a: a
    table = embedding((small.p, small.e), (big.p, big.e))
    return lambda a: table[a]


_SCAN_LIMIT = 4096  # fields up to this size find a root by trying every element


def find_any_root(f: FqPoly) -> Optional[int]:
    """A root of f in its own field, or None.

    Exhaustive scan for small fields; Cantor-Zassenhaus equal-degree
    splitting (deterministically seeded) otherwise.
    """
    F = f.field
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return None
    if F.q <= _SCAN_LIMIT:
        for a in range(F.q):
            if f.evaluate(a) == 0:
                return a
        return None
    # restrict to the product of linear factors
    linear = FqPoly.x_pow_minus_x(F, F.q, f).gcd(f)
    if linear.degree < 1:
        return None
    return _split_linear(linear)


def _split_linear(linear: FqPoly) -> Optional[int]:
    """A root of a monic product of distinct linear factors, split off by
    Cantor-Zassenhaus with a generator seeded from its coefficients."""
    F = linear.field
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


def min_extension_root(f: FqPoly, l: int):
    """Least m <= l with a root of f in F_{q^m}; returns (m, root, big field).

    Existence in F_{q^m} is decided by gcd(f, X^{q^m} - X) over the base
    field, then the root is extracted in the big field: by the scan of
    find_any_root in a small one, else by splitting that gcd, which is the
    product of the linear factors of f over F_{q^m}.  Returns None if no
    extension of degree <= l contains a root.
    """
    if f.degree < 1:
        raise ValueError("nonconstant polynomial required")
    F = f.field
    for m in range(1, l + 1):
        probe = FqPoly.x_pow_minus_x(F, F.q ** m, f).gcd(f)
        if probe.degree >= 1:
            big = make_field(F.p, F.e * m)
            up = embed(F, big)
            if big.q <= _SCAN_LIMIT:
                root = find_any_root(f.map_coeffs(up, big))
            else:
                root = _split_linear(probe.map_coeffs(up, big))
            if root is None:
                raise AssertionError("gcd test promised a root")
            return m, root, big
    return None
