"""Per-layer tracing of ``wordmetric`` from outside the package.

``Tracer.install()`` replaces the listed public functions and methods of each
``wordmetric`` module with wrappers.  A function is patched in every module
namespace that holds it, so call sites that imported it with
``from .sl2 import ...`` are seen too.  Timed functions record a span (name,
start, end, parent) in memory; hot methods are only counted.  Nothing in
``src/wordmetric`` is changed on disk.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

MODULES = (
    "words",
    "perms",
    "ffield",
    "sl2",
    "symmetric",
    "fox",
    "cayley",
    "glapprox",
    "oracle",
    "cli",
)

# Spans: each call is timed and its self time reported.
TIMED: Dict[str, Tuple[str, ...]] = {
    "words": ("classify",),
    "perms": ("evaluate_word", "hamming_distance", "Permutation.cycles"),
    "ffield": ("min_extension_root",),
    "sl2": (
        "near_cycle_word_value",
        "isotypic_word_value",
        "solve_trace",
        "projective_permutation",
    ),
    "symmetric": ("approx", "approx_isotypic", "cycle_alignment", "Witness.to_dict"),
    "fox": ("su_certificate", "count_Wn", "derived_membership"),
    "cayley": (
        "build_d2",
        "cohomology_defect",
        "smith_normal_form",
        "monomial_witness",
        "width_two_shift",
    ),
    "glapprox": (
        "approx_gl",
        "MatrixFq.invariant_factors",
        "similarity_transform",
        "evaluate_word_matrix",
        "rank_distance",
    ),
    "oracle": ("word_image_sym", "exact_distance_sym", "word_image_matrix"),
    "cli": ("main",),
}

# Hot functions: counted, not timed.
COUNTED: Dict[str, Tuple[str, ...]] = {
    "words": ("parse_word",),
    "perms": ("Permutation.__init__", "Permutation.conjugate"),
    "ffield": (
        "make_field",
        "Field.add",
        "Field.sub",
        "Field.neg",
        "Field.mul",
        "Field.inv",
        "FqPoly.__mul__",
        "FqPoly.divmod",
    ),
    "sl2": ("evaluate_word_sl2", "classify_cycle_type", "SL2Elem.order"),
    "glapprox": ("MatrixFq.__mul__",),
}

FIELD_OPS = tuple(f"ffield.Field.{op}" for op in ("add", "sub", "neg", "mul", "inv"))
POLY_OPS = ("ffield.FqPoly.__mul__", "ffield.FqPoly.divmod")


def self_times(
    names: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(names)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Spans and counts for one process; ``install`` patches, ``uninstall``
    restores."""

    def __init__(self):
        self.labels: List[str] = []
        self.calls: List[int] = []
        self.points_built = 0
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._caches = {}
        self._misses0: Dict[str, int] = {}

    # -- patching ---------------------------------------------------------

    def _label(self, label: str) -> int:
        self.labels.append(label)
        self.calls.append(0)
        return len(self.labels) - 1

    def _timed(self, idx: int, fn):
        calls, stack = self.calls, self._stack
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, idx: int, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _permutation_init(self, idx: int, fn):
        calls = self.calls
        tracer = self

        def __init__(perm, images):
            calls[idx] += 1
            fn(perm, images)
            tracer.points_built += len(perm.images)

        return __init__

    def _set(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"wordmetric.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("wordmetric")]
        # the lru_cache objects themselves, before they are wrapped
        self._caches = {
            "ffield.make_field.misses": mods["ffield"].make_field,
            "ffield.embedding.misses": mods["ffield"].embedding,
        }
        for table, kind in ((TIMED, "timed"), (COUNTED, "counted")):
            for mod_name, entries in table.items():
                mod = mods[mod_name]
                for entry in entries:
                    label = f"{mod_name}.{entry}"
                    idx = self._label(label)
                    if "." in entry:
                        cls_name, meth = entry.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        if label == "perms.Permutation.__init__":
                            new = self._permutation_init(idx, orig)
                        elif kind == "timed":
                            new = self._timed(idx, orig)
                        else:
                            new = self._counted(idx, orig)
                        self._set(cls, meth, new)
                        continue
                    orig = getattr(mod, entry)
                    new = self._timed(idx, orig) if kind == "timed" else self._counted(idx, orig)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is orig:
                                self._set(ns, attr, new)
        self._misses0 = self.cache_misses()
        return self

    def finish(self, spans_path: str) -> Dict[str, float]:
        """Restore the package, write the spans, and return the summary with
        cache misses counted since ``install``."""
        self.uninstall()
        summary = self.summary()
        for k, v in self.cache_misses().items():
            summary[k] = v - self._misses0[k]
        self.dump(spans_path)
        return summary

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- state ------------------------------------------------------------

    def cache_misses(self) -> Dict[str, int]:
        return {k: f.cache_info().misses for k, f in self._caches.items()}

    def snapshot(self):
        return list(self.calls), self.points_built

    def restore(self, snap) -> None:
        """Roll the counts back, e.g. over an operation cut off by the cap,
        whose counts depend on when the cap fired."""
        calls, points = snap
        self.calls[:] = calls
        self.points_built = points

    def dump(self, path: str) -> None:
        """Write every span as ``name,start,end,parent`` (gzip CSV)."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            labels = self.labels
            for i in range(len(self.names)):
                fh.write(
                    f"{labels[self.names[i]]},{self.starts[i]:.9f},"
                    f"{self.ends[i]:.9f},{self.parents[i]}\n"
                )

    def summary(self) -> Dict[str, float]:
        """Counts and self times keyed ``<module>.<function>.<stat>``."""
        out: Dict[str, float] = {}
        for label, n in zip(self.labels, self.calls):
            out[f"{label}.calls"] = n
        selfs = self_times(self.names, self.starts, self.ends, self.parents)
        for label in self.labels:
            if label.split(".", 1)[1] in TIMED.get(label.split(".", 1)[0], ()):
                out[f"{label}.self_s"] = 0.0
        for idx, s in zip(self.names, selfs):
            out[f"{self.labels[idx]}.self_s"] += s
        out["ffield.field_ops"] = sum(out[f"{k}.calls"] for k in FIELD_OPS)
        out["ffield.poly_ops"] = sum(out[f"{k}.calls"] for k in POLY_OPS)
        out["perms.points_built"] = self.points_built
        out["spans"] = len(self.names)
        return out


def merge(summaries: Sequence[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for s in summaries:
        for k, v in s.items():
            out[k] = out.get(k, 0) + v
    return out
