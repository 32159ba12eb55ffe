"""Free-group words in two generators: parsing, reduction, and invariants.

Words are stored freely reduced as syllables (generator, exponent).  The
right-action convention is used throughout the package: a word evaluated at
(g, h) is the product of its letters read left to right.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Tuple

Letter = Tuple[str, int]

GENERATORS = ("x", "y")


def _reduce(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: list[Letter] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group on x and y."""

    letters: Tuple[Letter, ...] = ()

    def __post_init__(self):
        reduced = _reduce(self.letters)
        object.__setattr__(self, "letters", reduced)
        for gen, exp in reduced:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word(())
        if len(self.letters) == 1:
            gen, exp = self.letters[0]
            return Word(((gen, exp * n),))
        base = self if n > 0 else self.inverse()
        return Word(base.letters * abs(n))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_trivial(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> "Word":
        """Cyclically reduced conjugate: no cancellation across the seam.

        The result may be a rotation of ``self``, i.e. a conjugate.
        """
        letters = list(self.letters)
        while len(letters) > 1 and letters[0][0] == letters[-1][0]:
            gen, last = letters[-1]
            first = letters[0][1]
            letters = [(gen, last + first)] + letters[1:-1]
            letters = list(_reduce(letters))
        return Word(tuple(letters))

    def abelianization(self) -> Tuple[int, int]:
        """Exponent sums of x and y; (0, 0) iff the word is in [F2, F2]."""
        ax = sum(e for g, e in self.letters if g == "x")
        ay = sum(e for g, e in self.letters if g == "y")
        return ax, ay

    def unit_letters(self) -> Iterator[Tuple[str, int]]:
        """Letters split into unit steps (gen, +1/-1)."""
        for gen, exp in self.letters:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield gen, step

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            g if e == 1 else f"{g}^{e}" for g, e in self.letters
        )


@dataclass(frozen=True)
class SyllableForm:
    """Shape of a cyclically reduced word, up to swapping generator roles.

    kind is "trivial", "power" or "alternating".  For a power word the
    exponent is in power_exp; an alternating word is x^{a_1} y^{b_1} ...
    x^{a_l} y^{b_l} with its (a_i, b_i) pairs in syllables.  swapped records
    that x and y were exchanged to reach this shape.
    """

    kind: str
    power_exp: int = 0
    syllables: Tuple[Tuple[int, int], ...] = ()
    swapped: bool = False

    @property
    def l(self) -> int:
        return len(self.syllables)

    def pair(self, g, h):
        """Values (g, h) of the standard form's x and y, given in the order of
        the word's own generators: exchanged when the form swapped them."""
        return (h, g) if self.swapped else (g, h)

    def divides_exponent(self, p: int) -> bool:
        """Whether p divides some syllable exponent."""
        return any(a % p == 0 or b % p == 0 for a, b in self.syllables)

    def standard_word(self) -> Word:
        """The word x^{a_1} y^{b_1} ... in standard position."""
        if self.kind == "trivial":
            return Word(())
        if self.kind == "power":
            return Word((("x", self.power_exp),))
        letters = []
        for a, b in self.syllables:
            letters.append(("x", a))
            letters.append(("y", b))
        return Word(tuple(letters))


def classify(w: Word) -> SyllableForm:
    """Classify a word as trivial, a power word, or alternating.

    The word is cyclically reduced first; classification is therefore
    invariant under cyclic rotation.  If the reduced word starts with a
    y-syllable, generator roles are swapped (recorded in the flag) so the
    standard form always starts with an x-syllable.
    """
    c = w.cyclic_reduce()
    if c.is_trivial():
        return SyllableForm(kind="trivial")
    gens = {g for g, _ in c.letters}
    if len(gens) == 1:
        gen = next(iter(gens))
        exp = c.letters[0][1]
        return SyllableForm(kind="power", power_exp=exp, swapped=(gen == "y"))
    letters = list(c.letters)
    swapped = letters[0][0] == "y"
    if swapped:
        letters = [("x" if g == "y" else "y", e) for g, e in letters]
    # cyclically reduced and alternating: even length, pattern x,y,x,y,...
    if len(letters) % 2 != 0:
        raise AssertionError("cyclically reduced word with odd syllable count")
    syllables = []
    for i in range(0, len(letters), 2):
        (gx, a), (gy, b) = letters[i], letters[i + 1]
        if gx != "x" or gy != "y":
            raise AssertionError("syllables do not alternate")
        syllables.append((a, b))
    return SyllableForm(kind="alternating", syllables=tuple(syllables), swapped=swapped)


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    """Recursive-descent parser for the word grammar.

    Grammar: generators x, y; exponents with ^ (negative allowed);
    commutator brackets [u,v] = u^-1 v^-1 u v; parentheses; juxtaposition.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Word:
        w = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise WordSyntaxError("unexpected character", self.pos)
        return w

    def parse_expr(self, stop: str = "") -> Word:
        w = Word(())
        while True:
            ch = self.peek()
            if not ch or ch in stop or ch in ("]", ")", ","):
                return w
            w = w * self.parse_term()

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            exp = self.parse_int()
            return atom ** exp
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch in GENERATORS:
            self.pos += 1
            return Word(((ch, 1),))
        if ch == "1":  # the empty word prints as "1"
            self.pos += 1
            return Word(())
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                raise WordSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch == "[":
            self.pos += 1
            u = self.parse_expr()
            if self.peek() != ",":
                raise WordSyntaxError("expected ',' in commutator", self.pos)
            self.pos += 1
            v = self.parse_expr()
            if self.peek() != "]":
                raise WordSyntaxError("expected ']'", self.pos)
            self.pos += 1
            return u.inverse() * v.inverse() * u * v
        raise WordSyntaxError("expected generator, '(' or '['", self.pos)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        if not token or token in ("+", "-"):
            raise WordSyntaxError("expected integer exponent", start)
        return int(token)


def parse_word(text: str) -> Word:
    """Parse a word from text; the empty string is the trivial word."""
    return _Parser(text).parse()


# -- evaluation in any group -------------------------------------------------


def power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply; ``one`` is the empty product,
    returned for n = 0 and never multiplied.

    The result starts at the power of x for the lowest set bit of n, and the
    base is not squared after the last bit.
    """
    if n < 0:
        raise ValueError("power needs a nonnegative exponent")
    if n == 0:
        return one
    while not n & 1:
        x = mul(x, x)
        n >>= 1
    result = x
    n >>= 1
    while n:
        x = mul(x, x)
        if n & 1:
            result = mul(result, x)
        n >>= 1
    return result


def evaluate(w: Word, g, h):
    """w(g, h): the syllable powers of w multiplied left to right; the empty
    word gives the identity ``g ** 0``.

    g and h need ``*`` and ``**`` with integer (also negative) exponents.
    """
    factors = ((g if gen == "x" else h) ** exp for gen, exp in w.letters)
    return reduce(operator.mul, factors) if w.letters else g ** 0


# -- lower central series degree via the Magnus expansion --------------------

def _series_mul(a: dict, b: dict, deg: int) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if len(ka) + len(kb) > deg:
                continue
            key = ka + kb
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _magnus_letter(gen: str, exp: int, deg: int) -> dict:
    """Truncated series for x^exp under x -> 1 + X (exact big integers)."""
    sym = 0 if gen == "x" else 1
    base = {(): 1, (sym,): 1}
    if exp < 0:
        # (1+X)^{-1} = 1 - X + X^2 - ...
        base = {tuple([sym] * k): (-1) ** k for k in range(deg + 1)}
    result = {(): 1}
    for _ in range(abs(exp)):
        result = _series_mul(result, base, deg)
    return result


def magnus_expansion(w: Word, deg: int) -> dict:
    """Magnus expansion of w truncated at total degree deg.

    Keys are tuples over {0, 1} encoding noncommutative monomials in X, Y.
    """
    series = {(): 1}
    for gen, exp in w.letters:
        series = _series_mul(series, _magnus_letter(gen, exp, deg), deg)
    return series


def lcs_degree(w: Word) -> int:
    """The unique c with w in gamma_{c+1} \\ gamma_{c+2} of the free group.

    Detected as (lowest nonzero Magnus degree) - 1, raising the truncation
    budget until a nonzero homogeneous term appears.  For a word with l
    syllable pairs the degree is at most 2l, so the search is bounded.
    """
    if w.cyclic_reduce().is_trivial():
        raise ValueError("trivial word has no lower-central-series degree")
    form = classify(w)
    cap = 2 * max(form.l, 1) + 1
    deg = 2
    while True:
        series = magnus_expansion(w, deg)
        nonconst = [k for k in series if k]
        if nonconst:
            lowest = min(len(k) for k in nonconst)
            if lowest <= deg:
                return lowest - 1
        if deg > cap:
            raise AssertionError("no Magnus term up to the Fox bound")
        deg = min(2 * deg, cap + 1)
