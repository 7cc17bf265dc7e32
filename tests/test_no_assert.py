"""Runtime checks raise typed errors: the package holds no ``assert``, which
``python -O`` would strip."""

import ast
from pathlib import Path

import pytest

import manhattan

SOURCES = sorted(Path(manhattan.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"
