"""Structure of the package sources: runtime checks raise typed errors, as it
holds no ``assert``, which ``python -O`` would strip, and one function owns the
way from a half spectrum back to an image."""

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


def _owned_nodes(tree):
    """(name of the innermost enclosing function or None, node) for every node."""
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        yield owner, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))


def test_one_checked_synthesis():
    # every image made from a spectrum passes the same Hermitian check
    inverts, compares = set(), set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("irfftn"):
                inverts.add((path.name, owner))
            if isinstance(node, ast.Compare) and "IMAG_RESIDUE_TOL" in ast.unparse(node):
                compares.add((path.name, owner))
    assert len(inverts) == 1, f"irfftn is called in {sorted(inverts, key=str)}"
    assert compares == inverts, f"IMAG_RESIDUE_TOL is compared in {sorted(compares, key=str)}"


def test_one_forward_half_transform():
    # every raw spectrum of the sweep comes from one rfftn site or a replica sum
    calls = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "rfftn":
                calls.add((path.name, owner))
    assert calls == {("reconstruct.py", "reconstruct")}, f"rfftn is called in {sorted(calls)}"
