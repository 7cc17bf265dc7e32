"""Structure of the package sources: runtime checks raise typed errors, as it
holds no ``assert``, which ``python -O`` would strip, one module calls
``numpy.fft``, one function owns the way from a half spectrum back to an
image and every inverse transform pass on it, one method decides whether a
grid is a real image, one property builds the (n, d) coordinate array of a
sample set, ``reconstruct`` scatters no samples onto a full-size image, and
one function forks, its helper leaving only by ``os._exit``."""

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


def test_inverse_passes_in_synthesis():
    # the in-place inverse: each ifft pass and the last-axis irfftn run on
    # synthesize's own half spectrum; the oracle keeps its ifftn
    calls = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            name = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else ""
            if name.startswith(("ifft", "irfft")):
                calls.add((path.name, owner))
    outside = {call for call in calls if call[0] != "oracle.py"}
    assert outside == {("grid.py", "synthesize")}, f"inverse FFTs in {sorted(calls, key=str)}"


def test_one_forward_half_transform():
    # every raw spectrum of the sweep comes from one rfftn site or a replica sum
    calls = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "rfftn":
                calls.add((path.name, owner))
    assert calls == {("grid.py", "_raw_spectrum")}, f"rfftn is called in {sorted(calls)}"


def test_one_transform_module():
    # every FFT call (np.fft.*, or an fft function imported bare) is in grid.py;
    # the oracle keeps its own ifftn so that it shares nothing with the engine
    calls = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "fft" in ast.unparse(node.func):
                calls.add((path.name, owner))
    outside = {call for call in calls if call[0] not in ("grid.py", "oracle.py")}
    assert ("grid.py", "_raw_spectrum") in calls, sorted(calls, key=str)
    assert not outside, f"np.fft is called in {sorted(outside, key=str)}"


def test_bandlimit_builds_no_full_spectrum():
    # bandlimit gathers the atom blocks from one half spectrum, as reconstruct does
    tree = ast.parse((Path(manhattan.__file__).parent / "reconstruct.py").read_text())
    called = {
        ast.unparse(node.func).split(".")[-1]
        for owner, node in _owned_nodes(tree)
        if owner == "bandlimit" and isinstance(node, ast.Call)
    }
    assert not called & {"fftn", "dft", "region_mask", "apply_mask", "idft"}, sorted(called)


def test_one_image_gate():
    # Grid.image decides "a real image on T"; only grid.py asks whether a grid
    # holds an image or a spectrum
    calls = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("iscomplexobj"):
                calls.add((path.name, owner))
    assert ("grid.py", "image") in calls, sorted(calls, key=str)
    outside = [path.name for path in SOURCES
               if path.name != "grid.py" and "iscomplexobj" in path.read_text()]
    assert not outside, f"iscomplexobj appears in {outside}"


def test_sample_producers_build_no_coordinates():
    # a canonical sample set carries no (n, d) array; only SampleSet.coords
    # derives one, and the producers and the writer never ask for it
    calls, reads = set(), set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("argwhere"):
                calls.add((path.name, owner))
            if isinstance(node, ast.Attribute) and node.attr == "coords":
                reads.add((path.name, owner))
    outside = {call for call in calls if call[0] != "oracle.py"}  # its bins, not samples
    assert outside == {("sampler.py", "coords")}, f"argwhere is called in {sorted(calls, key=str)}"
    producers = {("sampler.py", f) for f in ("extract_samples", "read_mhs1", "write_mhs1",
                                              "_mhs1_chunks", "_parse_rows", "_read_split")}
    assert not reads & producers, f".coords is read in {sorted(reads & producers)}"


def test_reconstruct_scatters_no_samples():
    # reconstruct reads each lattice from the canonical values; no full-size
    # image of the samples is built
    tree = ast.parse((Path(manhattan.__file__).parent / "reconstruct.py").read_text())
    called = {ast.unparse(node.func).split(".")[-1]
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "grid_from_samples" not in called, sorted(called)


def test_one_fork_that_ends_in_exit():
    # one function forks, and its child branch leaves only by os._exit from a
    # finally: the helper never returns into its caller's code or flushes a buffer
    forks = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                forks.add((path.name, owner))
    assert forks == {("sampler.py", "_forked")}, f"fork appears in {sorted(forks, key=str)}"
    tree = ast.parse((Path(manhattan.__file__).parent / "sampler.py").read_text())
    (forked,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_forked"]
    (child,) = [n for n in ast.walk(forked)
                if isinstance(n, ast.If) and "os._exit(" in ast.unparse(n.body[-1])]
    last = child.body[-1]
    assert isinstance(last, ast.Try) and not last.handlers and last.finalbody, ast.unparse(child)
    assert ast.unparse(last.finalbody[-1]).startswith("os._exit("), ast.unparse(child)
