"""Batch command-line front door.

Three subcommands: `approx-sym` builds one symmetric-group witness,
`su-cert` emits a special-unitary surjectivity certificate, and
`density-scan` tabulates achieved distances over an n-grid.  All output
is machine readable (JSON records, CSV tables), embeds the producing
configuration, and is byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    word: str
    n: Optional[int] = None
    ns: Tuple[int, ...] = ()
    target: Optional[str] = None
    samples: Optional[str] = None
    seed: int = 0
    out: Optional[str] = None
    format: str = "json"

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "word": self.word,
            "seed": self.seed,
            "format": self.format,
        }
        if self.n is not None:
            out["n"] = self.n
        if self.ns:
            out["ns"] = list(self.ns)
        if self.target is not None:
            out["target"] = self.target
        if self.samples is not None:
            out["samples"] = self.samples
        return out


def _parse_word_arg(text: str) -> Word:
    if not text.strip():
        raise CLIParseError("empty word")
    try:
        return parse_word(text)
    except WordSyntaxError as exc:
        raise CLIParseError(f"bad word {text!r}: {exc}") from exc


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


def _json_record(config: RunConfig, result: dict) -> str:
    record = {"schema": SCHEMA_VERSION, "config": config.to_dict(), "result": result}
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def cmd_approx_sym(config: RunConfig) -> int:
    w = _parse_word_arg(config.word)
    if config.n is None or config.n < 1:
        raise CLIParseError("n must be a positive integer")
    target = _target_from_spec(config.target or "random", config.n, config.seed)
    try:
        witness = approx(w, target)
    except (ValueError, AssertionError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    _write_output(_json_record(config, witness.to_dict()), config.out)
    return EXIT_OK


def cmd_su_cert(config: RunConfig) -> int:
    w = _parse_word_arg(config.word)
    if config.n is None or config.n < 2:
        raise CLIParseError("n must be at least 2")
    cert = su_certificate(w, config.n)
    _write_output(_json_record(config, cert.to_dict()), config.out)
    return EXIT_OK


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


def _scan_row(w: Word, n: int, targets: List[Tuple[Permutation, int]]) -> Tuple[int, float, float, float]:
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
    return n, float(total / weight), float(worst), float(bound)


def cmd_density_scan(config: RunConfig) -> int:
    w = _parse_word_arg(config.word)
    if not config.ns:
        raise CLIParseError("empty n-grid")
    samples = config.samples or "20"
    if samples != "all":
        try:
            if int(samples) < 1:
                raise ValueError
        except ValueError:
            raise CLIParseError(f"bad --samples {samples!r}")
    grid = sorted(set(config.ns))
    jobs = [(n, _scan_targets(n, samples, config.seed)) for n in grid]
    try:
        rows = [_scan_row(w, n, targets) for n, targets in jobs]
    except (ValueError, AssertionError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    buf.write(f"# config={json.dumps(config.to_dict(), sort_keys=True)}\n")
    buf.write("n,mean,max,bound\n")
    for n, mean, worst, bound in sorted(rows):
        buf.write(f"{n},{mean!r},{worst!r},{bound!r}\n")
    _write_output(buf.getvalue(), config.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordmetric",
        description="Witness constructions for metric density of word-map images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx-sym", help="build one symmetric-group witness")
    p_approx.add_argument("--word", required=True)
    p_approx.add_argument("--n", type=int, required=True)
    p_approx.add_argument("--target", default="random", help="random | cycle notation | file path")
    p_approx.add_argument("--seed", type=int, default=0)
    p_approx.add_argument("--out")

    p_cert = sub.add_parser("su-cert", help="special-unitary surjectivity certificate")
    p_cert.add_argument("--word", required=True)
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--out")

    p_scan = sub.add_parser("density-scan", help="tabulate achieved distances over an n-grid")
    p_scan.add_argument("--word", required=True)
    p_scan.add_argument("--ns", required=True, help="comma-separated sizes")
    p_scan.add_argument("--samples", default="20", help="targets per size, or 'all'")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    ns: Tuple[int, ...] = ()
    if getattr(args, "ns", None) is not None:
        parts = [p for p in args.ns.split(",") if p.strip()]
        try:
            ns = tuple(int(p) for p in parts)
        except ValueError:
            raise CLIParseError(f"bad --ns {args.ns!r}")
        if any(n < 1 for n in ns):
            raise CLIParseError("sizes must be positive")
    return RunConfig(
        command=args.command,
        word=args.word,
        n=getattr(args, "n", None),
        ns=ns,
        target=getattr(args, "target", None),
        samples=getattr(args, "samples", None),
        seed=getattr(args, "seed", 0),
        out=args.out,
        format="csv" if args.command == "density-scan" else "json",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "approx-sym": cmd_approx_sym,
        "su-cert": cmd_su_cert,
        "density-scan": cmd_density_scan,
    }
    try:
        config = _config_from_args(args)
        return commands[args.command](config)
    except CLIParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
