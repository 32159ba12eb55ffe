"""Checks on the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys

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


def test_private_helpers_are_referenced():
    # a private function or class that only its definition names is dead
    src = os.path.dirname(wordmetric.__file__)
    defined = {}
    uses = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found = node.name
                if found.startswith("_") and not found.endswith("__"):
                    defined.setdefault(found, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                found = node.id
            elif isinstance(node, ast.Attribute):
                found = node.attr
            elif isinstance(node, ast.alias):
                found = node.name
            else:
                continue
            uses[found] = uses.get(found, 0) + 1
    unused = sorted(where for helper, where in defined.items() if uses[helper] < 2)
    assert not unused, f"private helpers named only where defined: {unused}"


def test_no_environment_knobs():
    # no module reads the environment, so no variable can change a result
    src = os.path.dirname(wordmetric.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("environ", "environb", "getenv", "getenvb")
        ]
        found += [
            f"{name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "os"
            for alias in node.names
            if alias.name in ("environ", "environb", "getenv", "getenvb")
        ]
    assert not found, f"environment reads in the package: {found}"


def test_runtime_dependencies_are_stdlib_and_numpy():
    # numpy is the only runtime dependency; relative imports stay in the package
    src = os.path.dirname(wordmetric.__file__)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {module}"
                for module in modules
                if module.partition(".")[0] not in allowed
            ]
    assert not found, f"imports outside the standard library and numpy: {found}"


def test_traced_names_resolve():
    # the benchmark's tracer patches the package's functions by name; a
    # rename must fail here, not only in the benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


def _run(args):
    src = os.path.dirname(os.path.dirname(wordmetric.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout


def test_optimized_interpreter_prints_the_same_bytes():
    # python -O strips asserts and sets __debug__ false; no output may change
    gl = (
        "import random\n"
        "from wordmetric.ffield import make_field\n"
        "from wordmetric.glapprox import MatrixFq, approx_gl\n"
        "from wordmetric.words import parse_word\n"
        "F, rng = make_field(3, 1), random.Random(6)\n"
        "while True:\n"
        "    a = MatrixFq(F, [[rng.randrange(3) for _ in range(6)] for _ in range(6)])\n"
        "    if a.is_invertible():\n"
        "        break\n"
        "wit = approx_gl(parse_word('[x,y]'), a)\n"
        "print(wit.g.rows)\n"
        "print(wit.h.rows)\n"
    )
    cli = ["-m", "wordmetric.cli", "approx-sym", "--word", "[x,y]", "--n", "300", "--seed", "1"]
    for args in (cli, ["-c", gl]):
        plain = _run(args)
        assert plain
        assert _run(["-O", *args]) == plain
