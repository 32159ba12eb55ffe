"""Batch command-line front door.

Three subcommands: `approx-sym` builds one symmetric-group witness,
`su-cert` emits a special-unitary surjectivity certificate, and
`density-scan` tabulates achieved distances over an n-grid.  All output
is machine readable (JSON records, CSV tables), embeds the producing
configuration, and is byte-identical for a fixed seed.  Each subparser
names its handler, which returns the output text; `main` writes it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .fox import su_certificate
from .oracle import _partitions
from .perms import Permutation, parse_cycle_notation
from .symmetric import approx
from .words import Word, WordSyntaxError, parse_word

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONSTRUCTION = 3

SCHEMA_VERSION = 1
EXHAUSTIVE_MAX_N = 8


class CLIParseError(Exception):
    """Invalid user input; maps to exit code 2."""


def _parse_word_arg(text: str) -> Word:
    if not text.strip():
        raise CLIParseError("empty word")
    try:
        return parse_word(text)
    except WordSyntaxError as exc:
        raise CLIParseError(f"bad word {text!r}: {exc}") from exc


def _parse_ns(text: str) -> List[int]:
    # argparse passes a CLIParseError from a type function through to `main`
    parts = [p for p in text.split(",") if p.strip()]
    try:
        ns = [int(p) for p in parts]
    except ValueError:
        raise CLIParseError(f"bad --ns {text!r}")
    if any(n < 1 for n in ns):
        raise CLIParseError("sizes must be positive")
    return ns


def _random_permutation(n: int, rng: random.Random) -> Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _target_from_spec(spec: str, n: int, seed: int) -> Permutation:
    if spec == "random":
        return _random_permutation(n, random.Random(f"{seed}:{n}:target"))
    try:
        if os.path.isfile(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                spec = fh.read().strip()
        return parse_cycle_notation(spec, n)
    except (OSError, ValueError) as exc:
        raise CLIParseError(f"bad target {spec!r}: {exc}") from exc


def _write_output(text: str, out: Optional[str]) -> None:
    """Write atomically: temp file in the destination directory, then rename."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wordmetric-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config(args: argparse.Namespace) -> dict:
    """The run configuration embedded in every output."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("handler", "out") and value not in (None, "", [])
    }


def _json_record(args: argparse.Namespace, result: dict) -> str:
    record = {"schema": SCHEMA_VERSION, "config": _config(args), "result": result}
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def cmd_approx_sym(args: argparse.Namespace) -> str:
    w = _parse_word_arg(args.word)
    if args.n < 1:
        raise CLIParseError("n must be a positive integer")
    target = _target_from_spec(args.target or "random", args.n, args.seed)
    return _json_record(args, approx(w, target).to_dict())


def cmd_su_cert(args: argparse.Namespace) -> str:
    w = _parse_word_arg(args.word)
    if args.n < 2:
        raise CLIParseError("n must be at least 2")
    return _json_record(args, su_certificate(w, args.n).to_dict())


def _conjugacy_class_size(n: int, cycle_type: Tuple[Tuple[int, int], ...]) -> int:
    centralizer = 1
    for length, count in cycle_type:
        centralizer *= length**count * math.factorial(count)
    return math.factorial(n) // centralizer


def _scan_targets(n: int, samples: str, seed: int) -> List[Tuple[Permutation, int]]:
    """Weighted target list: (target, multiplicity)."""
    if samples == "all":
        if n > EXHAUSTIVE_MAX_N:
            raise CLIParseError(f"--samples all requires n <= {EXHAUSTIVE_MAX_N}")
        # The construction is equivariant under relabeling of the target's
        # points, so one representative per cycle type stands in for the
        # whole conjugacy class.
        reps = [Permutation.from_cycle_lengths(part) for part in _partitions(n)]
        return [(rep, _conjugacy_class_size(n, rep.cycle_type())) for rep in reps]
    count = int(samples)
    rng = random.Random(f"{seed}:{n}:scan")
    return [(_random_permutation(n, rng), 1) for _ in range(count)]


def _scan_row(w: Word, n: int, targets: List[Tuple[Permutation, int]]) -> str:
    total = Fraction(0)
    weight = 0
    worst = Fraction(0)
    bound = Fraction(0)
    for target, multiplicity in targets:
        witness = approx(w, target)
        total += witness.achieved_distance * multiplicity
        weight += multiplicity
        worst = max(worst, witness.achieved_distance)
        bound = max(bound, witness.bound_distance)
    return f"{n},{float(total / weight)!r},{float(worst)!r},{float(bound)!r}"


def cmd_density_scan(args: argparse.Namespace) -> str:
    w = _parse_word_arg(args.word)
    if not args.ns:
        raise CLIParseError("empty n-grid")
    samples = args.samples or "20"
    if samples != "all":
        try:
            if int(samples) < 1:
                raise ValueError
        except ValueError:
            raise CLIParseError(f"bad --samples {samples!r}")
    # every target list is drawn, and every size checked, before any witness
    jobs = [(n, _scan_targets(n, samples, args.seed)) for n in sorted(set(args.ns))]
    lines = [
        f"# schema={SCHEMA_VERSION}",
        f"# config={json.dumps(_config(args), sort_keys=True)}",
        "n,mean,max,bound",
    ]
    lines += [_scan_row(w, n, targets) for n, targets in jobs]
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordmetric",
        description="Witness constructions for metric density of word-map images.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--word", required=True)
    shared.add_argument("--out")
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx-sym", parents=[shared], help="build one symmetric-group witness")
    p_approx.add_argument("--n", type=int, required=True)
    p_approx.add_argument("--target", default="random", help="random | cycle notation | file path")
    p_approx.add_argument("--seed", type=int, default=0)
    p_approx.set_defaults(handler=cmd_approx_sym, format="json")

    p_cert = sub.add_parser("su-cert", parents=[shared], help="special-unitary surjectivity certificate")
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.set_defaults(handler=cmd_su_cert, format="json", seed=0)

    p_scan = sub.add_parser("density-scan", parents=[shared], help="tabulate achieved distances over an n-grid")
    p_scan.add_argument("--ns", type=_parse_ns, required=True, help="comma-separated sizes")
    p_scan.add_argument("--samples", default="20", help="targets per size, or 'all'")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.set_defaults(handler=cmd_density_scan, format="csv")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text = args.handler(args)
    except CLIParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, AssertionError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or '<stdout>'!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
