"""The package's public surface: every public name has a caller, and every
name the benchmark tracer wraps still exists.

A reference is an AST name, attribute or imported name in the code of
``src/`` or ``perfbench/``; in ``perfbench/`` a string constant that is
not a docstring also counts, which covers ``tracer.TRACED``.  Checks the
tests alone run belong in ``tests/oracles.py``, not in ``dispgeo``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dispgeo"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of a module and its defs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _references(directory: Path, strings: bool) -> set[str]:
    refs = set()
    for path in directory.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
            elif (strings and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docs):
                refs.add(node.value)
    return refs


def _public(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.fixture(scope="module")
def references():
    return (_references(ROOT / "src", strings=False)
            | _references(ROOT / "perfbench", strings=True))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller(module, references):
    uncalled = [name for name in _public(module) if name not in references]
    assert not uncalled, (
        f"dispgeo.{module}.__all__ names without a caller in src/ or "
        f"perfbench/: {uncalled}")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"dispgeo.{layer}")
        for name in names:
            assert callable(getattr(module, name)), f"{layer}.{name}"
