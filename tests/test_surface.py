"""The package's public surface: every public name has a caller, every
name the benchmark tracer wraps still exists, and the result records are
read-only tuples whose fields print in a fixed order.

A reference is an AST name, attribute or imported name in the code of
``src/`` or ``perfbench/``; in ``perfbench/`` a string constant that is
not a docstring also counts, which covers ``tracer.TRACED``.  Checks the
tests alone run belong in ``tests/oracles.py``, not in ``dispgeo``.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dispgeo import experiments, hyperbolic, lattice, matgeo, words

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


def test_import_leaves_dataclasses_out():
    # records are NamedTuples or plain classes: no generated code at import
    code = ("import sys; from dispgeo import cli, experiments, hyperbolic, "
            "lattice, matgeo, serialize, words; "
            "print('dataclasses' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def _records():
    """One instance of each result record, by the call that returns it,
    and the field order its printed form follows."""
    aab, bba = words.parse_word("aab"), words.parse_word("bba")
    pair = hyperbolic.certify_ping_pong(aab, bba)
    fib = ((2, 1), (1, 1))
    return [
        (words.cyclic_reduce(words.parse_word("Bab")),
         ("core", "conjugator")),
        (hyperbolic.is_almost_cyclically_reduced(aab),
         ("product", "threshold", "is_acr")),
        (pair, ("u", "v", "delta", "margin1", "margin2", "margin3")),
        (hyperbolic.stable_norm_length_bound(aab, pair),
         ("lhs", "rhs", "holds")),
        (lattice.depth_root_bound(fib, box_bound=1),
         ("matrix", "branch", "K", "K1", "b", "q", "M", "depth",
          "box_bound", "checked_powers", "roots_found")),
        (lattice.contortion_witness(((1, 1), (0, 1)), [((1, 1), (0, 1))]),
         ("gamma", "class_reps", "modulus", "k")),
        (matgeo.certify_proximal([[30.0, 0.0], [0.0, 1 / 30]], 0.5, 0.05),
         ("r", "epsilon", "attracting", "repelling_normal", "separation",
          "contraction_margin", "samples_tested")),
        (experiments.run_depth_roots([fib], box_bound=1),
         ("name", "config", "columns", "rows", "summary", "passed")),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_read_only_tuples(record, fields):
    # a record unpacks and compares as the tuple of its values, in the
    # order certificate_document prints them
    assert record._fields == fields
    assert record == tuple(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_generator_set_and_ball_table_are_read_only():
    gens = lattice.elementary_generators(2)
    table = lattice.enumerate_ball(gens, 2)
    for obj, name in ((gens, "norm_bound"), (gens, "elements"),
                      (table, "radius"), (table, "index")):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(obj, name, None)


def test_ball_index_is_built_on_first_read():
    # perfbench/tracer.py counts a ball's states through ``index``
    table = lattice.enumerate_ball(lattice.elementary_generators(2), 3)
    assert "index" not in vars(table)
    assert len(table.index) == table.offsets[-1] == 47
    assert vars(table)["index"] is table.index
