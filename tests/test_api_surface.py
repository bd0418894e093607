"""The public surface of `monogate` is what the program runs.

Every `__all__` entry of a library module must be used: referenced by code
in `src/monogate` outside its own definition, imported by the acceptance
tests, patched by the benchmark's tracer, or one half of a file format whose
other half the CLI runs.  Helpers that only tests need live in
`tests/oracles.py`.  References are read from the syntax tree, so a mention
in a docstring or an import does not count.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "monogate"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Writers whose readers the CLI runs, and readers whose writers it runs.
WIRE_FORMAT_HALVES = {
    ("fuchsian", "connection_to_json"),
    ("lappo_danilevski", "family_to_json"),
    ("lappo_danilevski", "connection_family_from_json"),
}
# Kept for a caller on the roadmap: Newton-Riemann-Hilbert synthesis starts
# from the residue logarithms of the targets.
PLANNED = {("fuchsian", "residue_log")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _uses(node: ast.AST, skip: str | None = None) -> set[str]:
    """Names loaded or attributes read anywhere under node, leaving out the
    top-level definition called `skip`."""
    found = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and cur.name == skip:
            continue
        if isinstance(cur, ast.Name):
            found.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            found.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return found


def _acceptance_imports() -> set[tuple[str, str]]:
    out = set()
    for node in ast.walk(_tree(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("monogate."):
            out |= {(node.module.split(".", 1)[1], a.name) for a in node.names}
    return out


def _traced() -> set[tuple[str, str]]:
    for node in _tree(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return {(mod.split(".", 1)[1], attr) for mod, attr, _ in ast.literal_eval(node.value)}
    return set()


def unused_exports() -> list[str]:
    trees = {p.stem: _tree(p) for p in MODULES + [SRC / "__init__.py"]}
    kept = _acceptance_imports() | _traced() | WIRE_FORMAT_HALVES | PLANNED
    unused = []
    for mod in sorted(p.stem for p in MODULES):
        for name in _exports(trees[mod]):
            if (mod, name) in kept:
                continue
            used = any(
                name in _uses(tree, skip=name if other == mod else None)
                for other, tree in trees.items()
            )
            if not used:
                unused.append(f"{mod}.{name}")
    return unused


def test_every_export_has_a_program_caller():
    assert unused_exports() == []


def test_the_rule_sees_through_docstrings_and_imports():
    tree = ast.parse(
        '"""Mentions helper."""\nfrom .x import helper\n\n'
        "def helper():\n    return helper()\n\n"
        "def caller():\n    return other.attr\n"
    )
    assert "helper" not in _uses(tree, skip="helper")
    assert {"other", "attr"} <= _uses(tree, skip="helper")


@pytest.mark.parametrize("mod", [p.stem for p in MODULES])
def test_exports_are_defined(mod):
    module = importlib.import_module(f"monogate.{mod}")
    assert [n for n in _exports(_tree(SRC / f"{mod}.py")) if not hasattr(module, n)] == []
