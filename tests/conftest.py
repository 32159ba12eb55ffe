"""Shared helpers for the test suite."""

import importlib
import pkgutil

import wordmetric


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
