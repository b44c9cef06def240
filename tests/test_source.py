"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "streamfec").glob("*.py"))


def test_sources_found():
    assert any(path.name == "galois.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so no invariant may rest on
    # one; `raise AssertionError(...)` survives -O and stays allowed.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


OUTSIDE_ARITHMETIC = [path for path in SOURCES if path.name not in ("galois.py", "matrix.py")]


@pytest.mark.parametrize("path", OUTSIDE_ARITHMETIC, ids=lambda path: path.name)
def test_field_internals_read_only_by_arithmetic_layer(path):
    # `galois` and `matrix` are the one field-arithmetic layer: no other
    # module reads a field's characteristic or its log/antilog tables.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("p", "_exp", "_log")
    ]
    assert not reads, f"{path.name} reads field internals at {reads}"


OUTSIDE_GALOIS = [path for path in SOURCES if path.name != "galois.py"]


@pytest.mark.parametrize("path", OUTSIDE_GALOIS, ids=lambda path: path.name)
def test_table_rule_named_only_in_galois(path):
    # `Field.table` is the one place that chooses between a list and a
    # lazily filled table, so no other module names either side of it.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        (node.lineno, name)
        for node in ast.walk(tree)
        # a Name's id, an Attribute's attr, an imported alias's name
        if (name := getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None))
        in ("_Lazy", "_MAX_LIST_TABLE")
    ]
    assert not names, f"{path.name} names the table rule at {names}"
