"""The benchmark's workloads: inputs made from a seed, the timed call and the
output check of every operation.

An operation is ``Op(call, check)``.  Only ``call()`` is timed; input
objects are built before it and ``check(result)`` runs after it, returning
the canonical output whose SHA-256 is compared with the pinned digests.

Cost per operation is kept independent of the seed where the package's cost
depends on the input's shape: S_n targets have cycle types drawn once from a
fixed pool seed and the run's seed draws their point labels (the
constructions are equivariant, so the labels change the outputs but not the
work).  GL targets and the values of verify's inputs are drawn from the
seed; the sizes of verify's inputs are fixed.
"""

from __future__ import annotations

import cmath
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import gate

# ROADMAP item 2: the first invertible row-major draws over F_2 from these
# seeds make the polynomial Smith form run without end.
PINNED_HANGS = ((13, 13002), (14, 14003))


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int  # fresh processes per run, each set up and timed separately
    cap_s: float  # wall-clock cap of one operation
    cycle_s: float  # seconds one cycle of slots takes on a 2-core x86-64 VM
    slots: Tuple[tuple, ...]  # one cycle of operations, repeated in order


# -- inputs --------------------------------------------------------------------


def cycle_lengths(images: Sequence[int]) -> List[int]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def pool_cycle_type(n: int, tag: str) -> List[int]:
    """Cycle lengths of a uniform random permutation drawn from a fixed seed."""
    images = list(range(n))
    random.Random(f"pool:{tag}:{n}").shuffle(images)
    return sorted(cycle_lengths(images), reverse=True)


def relabeled(lengths: Sequence[int], rng: random.Random) -> List[int]:
    """A uniform random permutation with the given cycle lengths."""
    n = sum(lengths)
    points = list(range(n))
    rng.shuffle(points)
    images = list(range(n))
    i = 0
    for length in lengths:
        cyc = points[i : i + length]
        i += length
        for j, pt in enumerate(cyc):
            images[pt] = cyc[(j + 1) % length]
    return images


def cycle_notation(images: Sequence[int]) -> str:
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(str(x))
            x = images[x]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def random_invertible(p: int, n: int, rng: random.Random) -> List[List[int]]:
    """First invertible row-major draw over F_p."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if gate.rank_mod_p(rows, p) == n:
            return rows


def _cycle_type_key(images: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Cycle type in the package's label form ((length, count), ...)."""
    return tuple(sorted(Counter(cycle_lengths(images)).items()))


# -- the workloads ---------------------------------------------------------------

# (command, word, size) in the order one cycle runs them.  Two cheap slots
# cost little more than interpreter start-up; the seven approx-sym runs, whose
# cost is the SL2 sweep and field building, all take 1.2-1.7 s, so the
# median and the tail (with 18 samples, the 8th smallest) fall inside them.
# n stops at 10^4: a target in cycle notation for n = 3*10^4 no longer fits
# one argument list.
CLI_SLOTS = (
    ("approx-sym", "[x,y]", 10000),
    ("su-cert", "[x^2,y^3]", 7),
    ("approx-sym", "[x,y]^2", 3000),
    ("approx-sym", "[x^5,y]", 3000),
    ("approx-sym", "[x^2,y^3]", 10000),
    ("density-scan", "[x,y]", (20, 40)),
    ("approx-sym", "[x,y]", 2000),
    ("approx-sym", "[x^2,y^3]", 3000),
    ("approx-sym", "[x,y]", 5000),
)

# (word, n).  No [x,y]^2 here: its cold F_17^3 sweep alone (5 s at n = 10^4)
# would double the warm-up that every set-up pays.  Warm costs run from
# 0.04 s (x^2 at 10^4) to 0.55 s (x^2 at 10^5).  x^2 at 10^5 comes twice, so
# that the tail (the 11th largest of 72) falls inside its block, and the
# median falls between [x^2,y^3] and [x^5,y] at 10^4, which cost the same.
SYM_WARM_SLOTS = (
    ("[x,y]", 10000),
    ("x^2", 100000),
    ("[x^2,y^3]", 14000),
    ("[x^5,y]", 10000),
    ("x^2", 30000),
    ("[x,y]", 14000),
    ("x^2", 100000),
    ("[x^2,y^3]", 10000),
    ("x^2", 10000),
)

# (p, n, word).  Random draws stop at n = 8: from n = 10 on, whether a draw
# hangs is itself random (9 of 60 over F_5 at n = 10).  The n = 7 row comes
# twice: its six slots cost alike, and with ten slots cheaper and eight
# dearer the median falls inside that block.  The two ROADMAP hang
# matrices (PINNED_HANGS) are not timed operations; the traced run probes
# them under the cap and reports how many hit it as ``glapprox.capped``.
GL_SLOTS = tuple(
    (p, n, word)
    for n in (5, 6, 7, 7, 8)
    for p, word in ((2, "[x,y]"), (3, "[x^2,y^3]"), (5, "x^2"), (2, "[x^2,y^3]"), (3, "[x,y]"), (5, "[x,y]"))
)
GL_PROBES = tuple(("pinned", n, "[x,y]") for n, _ in PINNED_HANGS)

# One cycle per worker, sizes fixed so the seed changes the inputs' values
# only.  Per worker: six small operations (5-50 ms; the Fox and Cayley checks
# are batched over word lists so that none is a sub-millisecond call), four
# oracles at n = 6 or over GL_2(3) taking about 0.3 s, five on the longer
# words [x,y]^2 and [[x,y],x] taking about 0.5 s, and one at n = 7 (2.5 s).  With as many small operations as 0.5 s-or-longer ones,
# the median falls in the middle of the 0.3 s block, and over three workers
# the tail (the 11th largest of 48) in the middle of the 0.5 s block.  The
# workload runs one cycle per worker for any --seconds up to 25.
SU_WORDS = (
    ("[x,y]", 5),
    ("[x^2,y]", 9),
    ("[[x,y],[x,y^2]]", 6),
    ("[x^3,y^2]", 8),
    ("[x,y^3]", 12),
    ("[x^2,y^3]", 7),
)
COHOMOLOGY_WORDS = (("[x^2,y^3]", 12), ("[x,y^2]", 15), ("[x,y]", 20), ("[x^3,y]", 9))
MONOMIAL_WORDS = (("[x,y]", 8), ("[x,y^2]", 6), ("[x^2,y^3]", 12), ("[x,y]", 5))
# width_two_shift is a random search whose number of tries follows its seed:
# many small instances keep the operation's cost steady across seeds
SHIFT_SIZES = (7, 8, 8, 9, 9, 9)

VERIFY_SLOTS = (
    ("su_certificate", SU_WORDS, None),
    ("word_image_sym", "[x,y]", 6),
    ("exact_distance_sym", "[x,y]^2", 6),
    ("cohomology_defect", COHOMOLOGY_WORDS, None),
    ("word_image_matrix", "[x,y]", (2, 3)),
    ("exact_distance_sym", "[x,y]", 7),
    ("monomial_witness", MONOMIAL_WORDS, None),
    ("word_image_sym", "[[x,y],x]", 6),
    ("exact_distance_sym", "[x,y]", 6),
    ("word_image_sym", "[x,y]", 5),
    ("word_image_matrix", "[x,y]^2", (2, 3)),
    ("width_two_shift", None, SHIFT_SIZES),
    ("word_image_sym", "[x,y]^2", 6),
    ("exact_distance_sym", "[x^2,y^3]", 5),
    ("word_image_sym", "[x,y^2]", 6),
    ("exact_distance_sym", "[[x,y],x]", 6),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cli-cold",
            "fresh-interpreter CLI runs with empty caches, where field building "
            "and the SL2 near-cycle sweep dominate",
            workers=1,
            cap_s=60.0,
            cycle_s=9.5,
            slots=CLI_SLOTS,
        ),
        Workload(
            "sym-warm",
            "one process with full caches, so the SL2 sweep is bypassed and "
            "permutation arithmetic dominates",
            workers=2,
            cap_s=60.0,
            cycle_s=2.5,
            slots=SYM_WARM_SLOTS,
        ),
        Workload(
            "gl",
            "approx_gl over F2, F3, F5 at n = 5..8, where canonical forms and "
            "FqPoly arithmetic dominate",
            workers=2,
            cap_s=1.5,
            cycle_s=0.72,
            slots=GL_SLOTS,
        ),
        Workload(
            "verify",
            "small-scale oracles, Fox certificates and Cayley complexes: the "
            "only workload reaching oracle, fox and cayley",
            workers=3,
            cap_s=60.0,
            cycle_s=6.5,
            slots=VERIFY_SLOTS,
        ),
    )
}


def cli_argv(slot: tuple, rng: random.Random) -> Tuple[List[str], Callable[[bytes], None]]:
    """CLI arguments for one cold invocation and the check of its stdout."""
    command, word, size = slot
    letters = gate.letters_of(word)
    if command == "approx-sym":
        target = relabeled(pool_cycle_type(size, f"cli:{word}"), rng)
        argv = [command, "--word", word, "--n", str(size), "--target", cycle_notation(target)]
        argv += ["--seed", str(rng.randrange(10**6))]

        def check(out: bytes) -> None:
            gate.check_sym_witness(json.loads(out)["result"], letters, target)

    elif command == "su-cert":
        argv = [command, "--word", word, "--n", str(size)]

        def check(out: bytes) -> None:
            _check_su(json.loads(out)["result"], letters, size)

    else:
        argv = [command, "--word", word, "--ns", ",".join(map(str, size)), "--samples", "3"]
        argv += ["--seed", str(rng.randrange(10**6))]

        def check(out: bytes) -> None:
            rows = [ln for ln in out.decode().splitlines() if not ln.startswith("#")]
            if rows[0] != "n,mean,max,bound" or [int(r.split(",")[0]) for r in rows[1:]] != list(size):
                raise gate.GateError("density-scan table has the wrong rows")
            for row in rows[1:]:
                _, mean, worst, bound = map(float, row.split(","))
                if not 0 <= mean <= worst <= bound <= 1:
                    raise gate.GateError(f"density-scan row out of order: {row}")

    return argv, check


def _check_su(cert: dict, letters, n: int) -> None:
    sums = {"x": 0, "y": 0}
    for g, e in letters:
        sums[g] += e
    if cert["n"] != n:
        raise gate.GateError("certificate for another n")
    trivially = cert["verdict"] == "surjective_trivially"
    if (sums["x"], sums["y"]) != (0, 0) and not trivially:
        raise gate.GateError("word outside F2' must be certified trivially")
    if (sums["x"], sums["y"]) == (0, 0) and trivially:
        raise gate.GateError("word in F2' cannot be surjective trivially")
    if cert["verdict"] == "surjective" and cert["wn"] != 1:
        raise gate.GateError("surjective verdict needs exactly one root")


def cycles_for(workload: Workload, seconds: float) -> int:
    """Whole cycles per worker for a run of about ``seconds``.  The count is
    fixed by the reference cycle time, not by the clock, so every run with the
    same ``seconds`` attempts the same operations."""
    return max(1, round(seconds / workload.workers / workload.cycle_s))


def schedule(workload: Workload, cycles: int):
    for _ in range(cycles):
        yield from workload.slots


def make_op(workload: str, slot: tuple, rng: random.Random) -> Op:
    """Build the inputs of one in-process operation."""
    import wordmetric as wm

    if workload == "sym-warm":
        word, n = slot
        w = wm.parse_word(word)
        target = relabeled(pool_cycle_type(n, f"sym:{word}"), rng)
        sigma = wm.Permutation(target)
        letters = gate.letters_of(word)

        def check(record):
            gate.check_sym_witness(record, letters, target)
            return record

        return Op(lambda: wm.approx(w, sigma).to_dict(), check)

    if workload == "gl":
        p, n, word = slot
        if p == "pinned":
            p = 2
            rows = random_invertible(2, n, random.Random(dict(PINNED_HANGS)[n]))
        else:
            rows = random_invertible(p, n, rng)
        w = wm.parse_word(word)
        target = wm.MatrixFq(wm.make_field(p, 1), rows)
        letters = gate.letters_of(word)

        def check(wit):
            g, h, value = (list(map(list, m.rows)) for m in (wit.g, wit.h, wit.value))
            gate.check_gl_witness(letters, g, h, value, rows, wit.achieved_distance, p)
            return {
                "g": g,
                "h": h,
                "achieved": str(wit.achieved_distance),
                "trace": wit.trace,
            }

        return Op(lambda: wm.approx_gl(w, target), check)

    if workload == "verify":
        return _verify_op(slot, rng)
    raise ValueError(f"unknown in-process workload {workload!r}")


def _verify_op(slot: tuple, rng: random.Random) -> Op:
    import numpy as np

    import wordmetric as wm
    from wordmetric.cayley import (
        FiniteQuotient,
        build_d2,
        cohomology_defect,
        monomial_witness,
        width_two_shift,
    )

    kind, word, size = slot
    if kind in ("word_image_sym", "exact_distance_sym"):
        w, letters = wm.parse_word(word), gate.letters_of(word)
        samples = [(random_images(size, rng), random_images(size, rng)) for _ in range(8)]

    if kind == "word_image_sym":

        def check(report):
            n = size
            if ((1, n),) not in report.classes:
                raise gate.GateError("identity missing from the image")
            for g, h in samples:
                if _cycle_type_key(gate.eval_word_perm(letters, g, h)) not in report.classes:
                    raise gate.GateError("a sampled word value is missing from the image")
            return report.to_dict()

        return Op(lambda: wm.word_image_sym(w, size), check)

    if kind == "exact_distance_sym":
        images = random_images(size, rng)
        sigma = wm.Permutation(images)

        def check(dist):
            upper = min(
                [gate.hamming(images, list(range(size)))]
                + [gate.hamming(images, gate.eval_word_perm(letters, g, h)) for g, h in samples]
            )
            if not 0 <= dist <= upper or (dist * size).denominator != 1:
                raise gate.GateError(f"distance {dist} exceeds an attained value {upper}")
            return str(dist)

        return Op(lambda: wm.exact_distance_sym(w, sigma), check)

    if kind == "word_image_matrix":
        w = wm.parse_word(word)
        d, p = size
        field = wm.make_field(p, 1)

        def check(report):
            if not report.exhaustive or ((p - 1, 1),) * d not in report.classes:
                raise gate.GateError("identity class missing from the matrix image")
            return report.to_dict()

        return Op(lambda: wm.word_image_matrix(w, d, field), check)

    if kind == "su_certificate":
        words = [(wm.parse_word(text), gate.letters_of(text), n) for text, n in word]

        def check(certs):
            records = [cert.to_dict() for cert in certs]
            for record, (_, letters, n) in zip(records, words):
                _check_su(record, letters, n)
            return records

        return Op(lambda: [wm.su_certificate(w, n) for w, _, n in words], check)

    if kind == "cohomology_defect":
        cases = [(wm.parse_word(text), FiniteQuotient.cyclic(m)) for text, m in word]
        d2s = []

        def call():
            d2s[:] = [build_d2(w, q) for w, q in cases]
            return [cohomology_defect(d2) for d2 in d2s]

        def check(reports):
            out = []
            for report, d2, (_, m) in zip(reports, d2s, word):
                if report.n_cells != m or report.rank != gate.rank_rational(d2.rows):
                    raise gate.GateError("cohomology rank differs from exact elimination")
                out.append([report.defect, list(report.pivot_cells)])
            return out

        return Op(call, check)

    if kind == "monomial_witness":
        cases = []
        for text, n in word:
            angles = [rng.uniform(-3, 3) for _ in range(n - 1)]
            angles.append(-sum(angles))
            target = np.array([cmath.exp(1j * a) for a in angles])
            cases.append((wm.parse_word(text), gate.letters_of(text), FiniteQuotient.cyclic(n), target))

        def check(wits):
            out = []
            for wit, (_, letters, _, target) in zip(wits, cases):
                n = len(target)
                value = np.eye(n, dtype=complex)
                for gen, e in letters:
                    m = wit.m_g if gen == "x" else wit.m_h
                    m = m if e > 0 else m.conj().T
                    for _ in range(abs(e)):
                        value = value @ m
                diag = np.diag(value)
                if np.max(np.abs(value - np.diag(diag))) > 1e-9:
                    raise gate.GateError("word value of the monomial pair is not diagonal")
                if np.max(np.abs(diag - wit.diagonal)) > 1e-9:
                    raise gate.GateError("reported diagonal is not the word value's")
                if int(np.sum(np.abs(diag - target) <= 1e-8)) < n - wit.defect:
                    raise gate.GateError("monomial witness matches fewer entries than the defect bound")
                out.append([wit.matched, wit.defect])
            return out

        return Op(lambda: [monomial_witness(w, q, t) for w, _, q, t in cases], check)

    if kind == "width_two_shift":
        # the split d1 + d2 = n - 1 is fixed: the search cost depends on it
        cases = []
        for n in size:
            d1 = (n - 2) // 2
            u1, u2 = _zero_sum_vectors(rng, n, d1), _zero_sum_vectors(rng, n, n - 1 - d1)
            cases.append((u1, u2, n, rng.randrange(1000)))

        def check(sigmas):
            out = []
            for sigma, (u1, u2, n, _) in zip(sigmas, cases):
                images = list(sigma.images)
                gate.check_bijection(images, n, "shift")
                shifted = []
                for vec in u2:
                    image = [Fraction(0)] * n
                    for i, val in enumerate(vec):
                        image[images[i]] = val
                    shifted.append(image)
                if gate.rank_rational(u1 + shifted) != n - 1:
                    raise gate.GateError("shifted subspaces do not span the hyperplane")
                out.append(images)
            return out

        return Op(lambda: [width_two_shift(u1, u2, n, seed=s) for u1, u2, n, s in cases], check)
    raise ValueError(f"unknown verify operation {kind!r}")


def random_images(n: int, rng: random.Random) -> List[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def _zero_sum_vectors(rng: random.Random, n: int, d: int) -> List[List[Fraction]]:
    order = list(range(n))
    rng.shuffle(order)
    out = []
    for k in range(d):
        vec = [Fraction(0)] * n
        vec[order[k]] = Fraction(1)
        vec[order[k + 1]] = Fraction(-1)
        out.append(vec)
    return out


def warmup(workload: str) -> None:
    """Untimed pass that fills the package's caches for the timed ops."""
    if workload != "sym-warm":
        return
    rng = random.Random("warmup")
    for slot in dict.fromkeys(SYM_WARM_SLOTS):
        make_op(workload, slot, rng).call()
