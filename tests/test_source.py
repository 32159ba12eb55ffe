"""Checks on the package source itself."""

import ast
import os

import wordmetric


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so a check that guards a
    # certificate must raise instead
    src = os.path.dirname(wordmetric.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert in the package: {found}"
