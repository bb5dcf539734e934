"""Check that the definitions moved from src/cointwatch to tests/ kept their
code: each one must be ast.dump-equal to its definition at a git revision
of the package, and gone from the package in the working tree.

The two CointGraph methods that became functions (node_of, is_fresh) are
compared with self renamed to g and annotated CointGraph, the signature
the functions take; nothing else is rewritten.

Usage, from the repository root:
    python tests/moved_bodies.py REV
where REV is the commit the definitions were moved from. Exit status 0
when every definition matches.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (package module, class or None, name, test module it moved to)
MOVED = [
    ("src/cointwatch/synth.py", None, "RecomputeScenario", "tests/scenarios.py"),
    ("src/cointwatch/synth.py", None, "transient_scenario", "tests/scenarios.py"),
    ("src/cointwatch/synth.py", None, "regime_break_scenario", "tests/scenarios.py"),
    ("src/cointwatch/synth.py", None, "pair_graph", "tests/scenarios.py"),
    ("src/cointwatch/graph.py", None, "to_json_obj", "tests/oracle.py"),
    ("src/cointwatch/graph.py", "CointGraph", "node_of", "tests/oracle.py"),
    ("src/cointwatch/graph.py", "CointGraph", "is_fresh", "tests/oracle.py"),
]


def _find(body: list[ast.stmt], name: str) -> ast.stmt | None:
    return next((node for node in body if getattr(node, "name", None) == name), None)


def _as_function(method: ast.FunctionDef) -> ast.FunctionDef:
    """The method as a module function of g: CointGraph."""
    for node in ast.walk(method):
        if isinstance(node, ast.Name) and node.id == "self":
            node.id = "g"
    first = method.args.args[0]
    first.arg, first.annotation = "g", ast.Name(id="CointGraph", ctx=ast.Load())
    return method


def check(rev: str) -> list[str]:
    faults = []
    for source, cls, name, target in MOVED:
        old_text = subprocess.run(
            ["git", "show", f"{rev}:{source}"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout
        old_body = ast.parse(old_text).body
        if cls is not None:
            old_body = _find(old_body, cls).body
        old = _find(old_body, name)
        if old is None:
            faults.append(f"{name}: not defined in {source} at {rev}")
            continue
        if cls is not None:
            old = _as_function(old)
        new = _find(ast.parse((ROOT / target).read_text()).body, name)
        if new is None or ast.dump(new) != ast.dump(old):
            faults.append(f"{name}: {target} differs from {source} at {rev}")
        here = ast.parse((ROOT / source).read_text()).body
        if cls is not None:
            here = _find(here, cls).body
        if _find(here, name) is not None:
            faults.append(f"{name}: still defined in {source}")
    return faults


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    faults = check(sys.argv[1])
    for fault in faults:
        print(fault)
    if faults:
        sys.exit(1)
    print(f"all {len(MOVED)} moved definitions match {sys.argv[1]}")
