"""The package holds no code that only the tests run.

Every module-level function or class and every public method defined in
src/cointwatch must be named somewhere the program reaches it: in package
code (a name, an attribute or an import; docstrings and comments do not
count), in cointwatch.__all__, or in the benchmark's perfbench/*.py (its
code, or a dotted name in a string, as perfbench/tracing.py names the
functions it wraps). A method that overrides one of a base class is
exempt: the base's caller reaches it. Helpers that only the tests call
belong under tests/ (oracle.py, scenarios.py).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import cointwatch

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cointwatch"
BENCHMARK = ROOT / "perfbench"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every identifier the code of tree reads: names, attributes and
    imported names; with strings, also the parts of each string constant
    that is a dotted name."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, class or None) of each module-level function
    and class and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, node.name


def _overrides(module: str, cls: str, name: str) -> bool:
    klass = getattr(importlib.import_module(f"cointwatch.{module}"), cls)
    return any(name in vars(base) for base in klass.__mro__[1:])


def _package_trees() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}


def unreached_definitions() -> list[str]:
    trees = _package_trees()
    named = set(cointwatch.__all__)
    for tree in trees.values():
        named |= _names(tree)
    for path in sorted(BENCHMARK.glob("*.py")):
        named |= _names(ast.parse(path.read_text(), str(path)), strings=True)
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name, cls in _definitions(module, tree)
        if name not in named and not (cls is not None and _overrides(module, cls, name))
    ]


def test_every_package_definition_is_reached_by_the_program():
    unreached = unreached_definitions()
    assert unreached == [], f"only the tests reach {unreached}; move them under tests/"


def test_an_override_is_exempt():
    # argparse calls cli._Parser.error; no package code names it
    trees = _package_trees()
    assert "cli._Parser.error" in [q for q, _, _ in _definitions("cli", trees["cli"])]
    assert not any("error" in _names(tree) for tree in trees.values())
    assert _overrides("cli", "_Parser", "error")
    assert "cli._Parser.error" not in unreached_definitions()
