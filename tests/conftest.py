"""Shared helpers for the test suite."""

import importlib
import pkgutil
from functools import lru_cache

import wordmetric
from wordmetric.oracle import _gl_classes


def clear_package_caches():
    """Empty every module-level cache of the package: each attribute of a
    `wordmetric` module that has a `cache_clear`, as `lru_cache` gives.

    Fields are cached too, so build every field, polynomial and matrix of a
    test after the call, not before it."""
    for info in pkgutil.iter_modules(wordmetric.__path__):
        module = importlib.import_module(f"wordmetric.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# one group at a time, as the oracle keeps it; the MatrixFq objects keep
# their invariant factors, so a reference sweep classifies each element once
@lru_cache(maxsize=1)
def all_gl_elements(field, d):
    """The elements of GL_d(q) as MatrixFq, in the order of the oracle's
    cached group, so sorted by rows."""
    group = _gl_classes(field, d).group
    return tuple(group[i] for i in range(len(group)))
