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
