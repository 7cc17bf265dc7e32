"""Structure of the package sources: runtime checks raise typed errors, as it
holds no ``assert``, which ``python -O`` would strip, one module calls
``numpy.fft``, one function owns the way from a spectrum back to an image, its
one Hermitian check and every inverse transform pass on it, one the way in and
every forward pass (a function nested in a function counts as the one it is in,
so a pass run in two halves stays its owner's), whose every ``rfft`` writes
through ``out=`` and is assigned nowhere, so it makes no temporary, one helper
starts the thread that runs a pass's first half, one cache holds the compiled reconstruction
plans, one method decides whether a grid is a real image, no sample set's
coordinates come from ``argwhere``, ``reconstruct`` scatters no samples onto a
full-size image and checks no values, as ``synthesize``'s check is the one
numerical gate after ``SampleSet``'s, a full-size mask of M(B) is built only to
compare or unravel its positions, as ``extract_samples``, ``SampleSet.coords``,
``comb_from_samples`` and ``reconstruct.py`` map its values through one cell,
the sampler builds no tensor product and no comb a mask, as a lattice is a
strided view written as x[::s], no function scatters every sample onto an
image, one function forks (its helper leaving only by ``os._exit``), makes the
only temp file and alone decides whether an MHS1 body is split, so the writer
and the reader each have one path through a body and the writer finds M(B)'s
positions once, and one function parses MHS1 rows."""

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
    """(name of the outermost enclosing function or None, node) for every node: a
    method is its own owner, a function nested in a function is its enclosing one's."""
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        yield owner, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
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


def _rfft(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "rfft"


def test_one_forward_half_transform():
    # every raw spectrum of the sweep comes from one forward site or a replica
    # sum: an rfft per class of rows and its leading-axis fft passes, in place;
    # each rfft writes into the spectrum's rows through out= and its result is
    # assigned nowhere, so that no temporary of the transform is made
    calls, temporaries = set(), []
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            name = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else ""
            if name in ("rfft", "rfftn", "fft"):
                calls.add((path.name, owner))
            if _rfft(node) and "out" not in {kw.arg for kw in node.keywords}:
                temporaries.append((path.name, node.lineno))
            assigned = isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr))
            if assigned and node.value is not None and any(map(_rfft, ast.walk(node.value))):
                temporaries.append((path.name, node.lineno))
    assert calls == {("grid.py", "_raw_spectrum")}, f"forward passes in {sorted(calls, key=str)}"
    assert not temporaries, f"an rfft result is made or assigned at {temporaries}"


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


def test_one_plan_cache():
    # the compiled sweep is the plan: one lru_cache, on ReconstructionPlan.for_collection
    cached = set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {ast.unparse(d).split("(")[0] for d in node.decorator_list}
                if names & {"lru_cache", "functools.lru_cache", "cache", "functools.cache"}:
                    cached.add((path.name, node.name))
    assert cached == {("reconstruct.py", "for_collection")}, sorted(cached)


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
    # a canonical sample set carries no (n, d) array; SampleSet.coords derives one
    # through _cells, not from argwhere of a mask, and the producers and the
    # writer never ask for it
    calls, reads = set(), set()
    for path in SOURCES:
        for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("argwhere"):
                calls.add((path.name, owner))
            if isinstance(node, ast.Attribute) and node.attr == "coords":
                reads.add((path.name, owner))
    outside = {call for call in calls if call[0] != "oracle.py"}  # its bins, not samples
    assert not outside, f"argwhere is called in {sorted(calls, key=str)}"
    producers = {("sampler.py", f) for f in ("extract_samples", "read_mhs1", "write_mhs1",
                                              "_mhs1_chunks", "_rows", "_body_rows")}
    assert not reads & producers, f".coords is read in {sorted(reads & producers)}"


def test_reconstruct_scatters_no_samples():
    # reconstruct reads each lattice from the canonical values; no full-size
    # image of the samples is built, and the sampler has no function that builds one
    tree = ast.parse((Path(manhattan.__file__).parent / "reconstruct.py").read_text())
    called = {ast.unparse(node.func).split(".")[-1]
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "comb_from_samples" not in called, sorted(called)
    tree = ast.parse((Path(manhattan.__file__).parent / "sampler.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "grid_from_samples" not in defined, sorted(defined)


def test_one_numerical_gate_after_sampleset():
    # a set's values are checked finite where it is built; after that, synthesize's
    # finite-and-Hermitian check is the one gate, so reconstruct.py checks no values
    checks = {call for call in _calls("isfinite") if call[0] == "reconstruct.py"}
    assert not checks, f"isfinite is called in {sorted(checks, key=str)}"


def test_comb_from_samples_reads_one_lattice():
    # a comb from samples reads lattice b from the canonical values through _cells,
    # a comb from a grid copies x[::s]: each writes x[::s] of a zero image, and
    # neither builds a mask
    combs = {("sampler.py", f) for f in ("comb_from_grid", "comb_from_samples")}
    masks = _calls("manhattan_indicator") & combs
    assert not masks, f"manhattan_indicator is called in {sorted(masks)}"
    assert ("sampler.py", "comb_from_samples") in _calls("_cells")


def test_no_full_size_mask_of_the_samples():
    # extract_samples, SampleSet.coords, comb_from_samples and the engine's lattice
    # reads go through sampler._cells, which builds the indicator of one cell
    # K = k*λ, not of M(B) on T; _order and write_mhs1 compare and unravel M(B)'s
    # positions by its mask, and nothing else in the sampler builds one
    calls = _calls("manhattan_indicator")
    assert ("sampler.py", "_cells") in calls, sorted(calls, key=str)
    built = {call for call in calls if call[0] == "reconstruct.py" or call in {
        ("sampler.py", f) for f in ("extract_samples", "coords")}}
    assert not built, f"manhattan_indicator is called in {sorted(built, key=str)}"
    sampler_calls = {f for module, f in calls if module == "sampler.py"}
    assert sampler_calls == {"_cells", "_order", "write_mhs1"}, sampler_calls


def test_sampler_builds_no_tensor_product():
    # a lattice is the strided view x[::s]: the sampler imports nothing from freq,
    # whose masks are full-size by contract, and builds no tensor-product mask
    tree = ast.parse((Path(manhattan.__file__).parent / "sampler.py").read_text())
    imported = [name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                for name in [getattr(n, "module", None) or "", *(a.name for a in n.names)]]
    freq = [name for name in imported if "freq" in name.split(".")]
    assert not freq, f"sampler.py imports {freq}"
    masks = {call for call in _calls("tensor_mask") if call[0] == "sampler.py"}
    assert not masks, f"tensor_mask is called in {sorted(masks, key=str)}"


def test_one_helper_thread():
    # every pass split across two CPUs goes through grid._halves, which alone
    # starts a thread and joins it before it returns
    threads = _calls("Thread")
    assert threads == {("grid.py", "_halves")}, f"Thread is built in {sorted(threads, key=str)}"


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


def _calls(suffix):
    """(module, function) of every call whose callee's text ends in suffix."""
    return {(path.name, owner)
            for path in SOURCES
            for owner, node in _owned_nodes(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(suffix)}


def test_one_mhs1_row_parser():
    # serial or split, from a file's bytes or a handle's lines, one loadtxt reads rows
    parsers = _calls("loadtxt")
    assert parsers == {("sampler.py", "_rows")}, sorted(parsers, key=str)


def test_one_temp_file():
    # the forked helper's output is the only temp file: the reader keeps none of its own
    made = _calls("TemporaryFile")
    assert made == {("sampler.py", "_forked")}, sorted(made, key=str)


def test_one_path_through_an_mhs1_body():
    # _forked alone asks _splits; the writer and the reader each hand it their body
    # once, with no serial branch of their own, and the writer, not each call for
    # chunks, builds the M(B) mask whose positions its helper inherits
    splits = _calls("_splits")
    assert splits == {("sampler.py", "_forked")}, f"_splits is called in {sorted(splits, key=str)}"
    tree = ast.parse((Path(manhattan.__file__).parent / "sampler.py").read_text())
    for name in ("write_mhs1", "_body_rows"):
        (body,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
        called = [ast.unparse(n.func) for n in ast.walk(body) if isinstance(n, ast.Call)]
        assert called.count("_forked") == 1 and "_splits" not in called, (name, called)
    masks = _calls("manhattan_indicator")
    assert ("sampler.py", "write_mhs1") in masks, sorted(masks, key=str)
    assert ("sampler.py", "_mhs1_chunks") not in masks, sorted(masks, key=str)
