"""Output checks that use none of ``wordmetric``'s own arithmetic.

Permutations are plain image lists with the right action x.(st) = (x.s).t;
matrices are row lists over Z/p.  Every check raises ``GateError``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import List, Sequence, Tuple

Letters = Sequence[Tuple[str, int]]


class GateError(Exception):
    """An operation's output failed an independent check."""


def letters_of(text: str) -> List[Tuple[str, int]]:
    """Letters of a word in the benchmark's syntax: x, y, ``^k``, ``[u,v]``
    (= u^-1 v^-1 u v) and products of these."""
    pos = 0

    def inverse(ls):
        return [(g, -e) for g, e in reversed(ls)]

    def expr(stop):
        nonlocal pos
        out = []
        while pos < len(text) and text[pos] not in stop:
            if text[pos] == "[":
                pos += 1
                u = expr(",")
                pos += 1
                v = expr("]")
                pos += 1
                atom = inverse(u) + inverse(v) + u + v
            else:
                atom = [(text[pos], 1)]
                pos += 1
            if pos < len(text) and text[pos] == "^":
                end = pos + 1
                while end < len(text) and (text[end].isdigit() or text[end] == "-"):
                    end += 1
                k = int(text[pos + 1 : end])
                pos = end
                atom = (atom if k > 0 else inverse(atom)) * abs(k)
            out.extend(atom)
        return out

    return expr("")


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


# -- permutations -------------------------------------------------------------


def check_bijection(images: Sequence[int], n: int, what: str) -> None:
    if len(images) != n or sorted(images) != list(range(n)):
        raise GateError(f"{what} is not a permutation of {n} points")


def _compose(s: List[int], t: List[int]) -> List[int]:
    return [t[i] for i in s]


def _inverse(s: List[int]) -> List[int]:
    inv = [0] * len(s)
    for i, im in enumerate(s):
        inv[im] = i
    return inv


def eval_word_perm(letters: Letters, g: List[int], h: List[int]) -> List[int]:
    value = list(range(len(g)))
    for gen, exp in letters:
        base = g if gen == "x" else h
        if exp < 0:
            base, exp = _inverse(base), -exp
        for _ in range(exp):
            value = _compose(value, base)
    return value


def hamming(s: Sequence[int], t: Sequence[int]) -> Fraction:
    return Fraction(sum(1 for a, b in zip(s, t) if a != b), len(s))


def check_sym_witness(record: dict, letters: Letters, target: Sequence[int]) -> None:
    """``record`` is ``Witness.to_dict()`` or the CLI's ``result``."""
    n = len(target)
    if record["n"] != n or list(record["target"]) != list(target):
        raise GateError("witness is for another target")
    g, h = list(record["g"]), list(record["h"])
    check_bijection(g, n, "g")
    check_bijection(h, n, "h")
    value = eval_word_perm(letters, g, h)
    if value != list(record["value"]):
        raise GateError("value is not w(g, h)")
    dist = hamming(value, target)
    if Fraction(record["achieved_distance"]) != dist:
        raise GateError(f"achieved distance {record['achieved_distance']} != {dist}")
    if dist > Fraction(record["bound_distance"]):
        raise GateError("achieved distance exceeds the bound")


# -- matrices over Z/p ---------------------------------------------------------


def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def rank_mod_p(rows, p: int) -> int:
    m = [list(r) for r in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _mat_inverse(a, p):
    n = len(a)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def eval_word_matrix(letters: Letters, g, h, p: int):
    n = len(g)
    value = [[int(i == j) for j in range(n)] for i in range(n)]
    for gen, exp in letters:
        base = g if gen == "x" else h
        if exp < 0:
            base, exp = _mat_inverse(base, p), -exp
        for _ in range(exp):
            value = _mat_mul(value, base, p)
    return value


def check_gl_witness(
    letters: Letters, g, h, value, target, achieved: Fraction, p: int
) -> None:
    n = len(target)
    for name, m in (("g", g), ("h", h)):
        if rank_mod_p(m, p) != n:
            raise GateError(f"{name} is not invertible mod {p}")
    if eval_word_matrix(letters, g, h, p) != [list(r) for r in value]:
        raise GateError("value is not w(g, h) mod p")
    diff = [[(a - b) % p for a, b in zip(ra, rb)] for ra, rb in zip(target, value)]
    if Fraction(rank_mod_p(diff, p), n) != achieved:
        raise GateError("achieved distance is not the rank distance")


# -- exact rational rank ---------------------------------------------------------


def rank_rational(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank
