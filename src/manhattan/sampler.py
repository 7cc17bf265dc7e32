"""Extracting Manhattan samples and building scaled comb grids.

A comb grid for bi-step lattice b is zero off the lattice and carries the
image values scaled by the product of the lattice step sizes, so that the
spectral replicas it induces have unit amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import TextIO

import numpy as np

from .core import BiStep, Collection, ManhattanParams, fundamental_cell_count
from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    MissingSamplesError,
)
from .freq import tensor_mask
from .grid import Grid

_MHS1_MAGIC = "MHS1"
_MHS1_CHUNK_ROWS = 1 << 14  # rows per write: bounds the formatted text in memory


def lattice_indicator(params: ManhattanParams, b: BiStep) -> np.ndarray:
    """Boolean grid over [0, T) marking the points of bi-step lattice b."""
    step = params.step_int(b)
    return tensor_mask([np.arange(t) % s == 0 for t, s in zip(params.extents, step)])


def manhattan_indicator(c: Collection) -> np.ndarray:
    """Boolean grid marking the Manhattan set M(B) within [0, T)."""
    out = np.zeros(c.params.extents, dtype=bool)
    for b in c.members:
        out |= lattice_indicator(c.params, b)
    return out


@dataclass(frozen=True)
class SampleSet:
    """Manhattan samples of one image: raw values at lexicographic coordinates."""

    params: ManhattanParams
    collection: Collection
    coords: np.ndarray  # int, shape (n, d)
    values: np.ndarray  # float64, shape (n,)

    def __post_init__(self) -> None:
        coords = np.ascontiguousarray(self.coords, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.params.d:
            raise DimensionError("coords must have shape (n, d)")
        if values.shape != (coords.shape[0],):
            raise DimensionError("values length must match coords")
        self.params.extents  # raises DomainError without T
        if self.params != self.collection.params:  # the plan reads the collection's
            raise DomainError("sample params differ from the collection's params")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)
        coords.setflags(write=False)
        values.setflags(write=False)

    @property
    def expected_count(self) -> int:
        lam = self.params.lam_int
        cells = prod(
            t // (k * li) for t, k, li in zip(self.params.T, self.params.k, lam)
        )
        return fundamental_cell_count(self.collection) * cells

    def __len__(self) -> int:
        return len(self.values)


def extract_samples(image: Grid, c: Collection) -> SampleSet:
    """All and only the Manhattan-grid values of the image, lexicographic order."""
    params = c.params
    params.check_extents(image.extents)
    if np.iscomplexobj(image.data):
        raise DomainError("samples are taken of a real image, got a spectrum")
    mask = manhattan_indicator(c)
    coords = np.argwhere(mask)  # argwhere is lexicographic in C order
    ss = SampleSet(params, c, coords, image.data[mask])
    if len(ss) != ss.expected_count:
        raise MissingSamplesError(
            f"extracted {len(ss)} samples, density accounting expects "
            f"{ss.expected_count}"
        )
    return ss


def grid_from_samples(ss: SampleSet) -> Grid:
    """Image holding the raw sample values, zero elsewhere.

    Refuses a sample set that does not hit every point of M(B) exactly once
    with a finite value: any such set would reconstruct to a wrong image.
    M(B) listed in lexicographic order, as ``extract_samples`` and MHS1
    give it, passes with one comparison; any other order takes the full check.
    """
    T = ss.params.T
    expected = manhattan_indicator(ss.collection)
    try:
        flat = np.ravel_multi_index(tuple(ss.coords.T), T)
    except ValueError:  # numpy refuses a coordinate outside [0, T)
        raise MissingSamplesError(f"sample coordinates outside [0, T) for T={T}")
    if not np.array_equal(flat, np.flatnonzero(expected)):  # not the canonical order
        hit = np.zeros(T, dtype=bool)
        hit.flat[flat] = True
        if np.count_nonzero(hit) != len(flat):
            raise MissingSamplesError("sample coordinates are repeated")
        if not np.array_equal(hit, expected):
            raise MissingSamplesError(
                f"{np.count_nonzero(expected & ~hit)} points of M({ss.collection}) "
                f"missing, {np.count_nonzero(hit & ~expected)} samples off it"
            )
    if not np.isfinite(ss.values).all():
        raise DomainError("sample values must be finite")
    x = np.zeros(T)
    x.reshape(-1)[flat] = ss.values  # a fancy assignment outruns put here
    return Grid(T, x)


@dataclass(frozen=True)
class CombGrid:
    """Scaled comb-sampled image on one bi-step lattice."""

    grid: Grid
    b: BiStep
    scale: int


def comb_from_grid(image: Grid, b: BiStep, params: ManhattanParams) -> CombGrid:
    """Comb of a full grid: step-size-scaled values on lattice b, zero off it."""
    T = params.check_extents(image.extents)
    scale = prod(params.step_int(b))
    arr = image.data * lattice_indicator(params, b) * scale
    return CombGrid(Grid(T, arr), b, scale)


def comb_from_samples(ss: SampleSet, b: BiStep) -> CombGrid:
    """Comb built from a sample set; b must lie in the collection's closure so
    that every lattice point of b is covered by the samples."""
    if b not in ss.collection.closure().members:
        raise MissingSamplesError(
            f"lattice {b} is not covered by collection {ss.collection}"
        )
    return comb_from_grid(grid_from_samples(ss), b, ss.params)


# ---------------------------------------------------------------------------
# MHS1 text format: magic line, header lines dims/T/k/lambda/collection, then
# one row per sample: d integer coordinates and the value to 17 significant
# digits (exact for float64). Blank lines are ignored, comment lines are not
# allowed, and a malformed row raises FormatError.
# ---------------------------------------------------------------------------


def write_mhs1(fh: TextIO, ss: SampleSet) -> None:
    p = ss.params
    fh.write(f"{_MHS1_MAGIC}\n")
    fh.write(f"dims {p.d}\n")
    fh.write("T " + " ".join(map(str, p.T)) + "\n")
    fh.write("k " + " ".join(map(str, p.k)) + "\n")
    fh.write("lambda " + " ".join(map(str, p.lam_int)) + "\n")
    fh.write(f"collection {ss.collection}\n")
    row = "%d " * p.d + "%.17g\n"
    for start in range(0, len(ss), _MHS1_CHUNK_ROWS):
        chunk = slice(start, start + _MHS1_CHUNK_ROWS)
        cols = [*ss.coords[chunk].T.tolist(), ss.values[chunk].tolist()]
        fh.write("".join(map(row.__mod__, zip(*cols))))


def _header_line(fh: TextIO, key: str) -> list[str]:
    line = fh.readline().strip()
    parts = line.split()
    if not parts or parts[0] != key:
        raise FormatError(f"expected header line {key!r}, got {line!r}")
    return parts[1:]


def read_mhs1(fh: TextIO) -> SampleSet:
    try:  # ValueError: bad numbers, undecodable bytes
        magic = fh.readline().strip()
        if magic != _MHS1_MAGIC:
            raise FormatError(f"unknown magic {magic!r}, expected {_MHS1_MAGIC!r}")
        (d,) = map(int, _header_line(fh, "dims"))
        T = tuple(map(int, _header_line(fh, "T")))
        k = tuple(map(int, _header_line(fh, "k")))
        lam = tuple(map(int, _header_line(fh, "lambda")))
        (coll_text,) = _header_line(fh, "collection")
        params = ManhattanParams(d=d, lam=lam, k=k, T=T)
        collection = Collection.from_string(params, coll_text)
    except ValueError as exc:
        raise FormatError(f"malformed MHS1 header: {exc}") from exc
    try:  # ValueError: bad numbers, ragged rows, undecodable bytes
        row = np.dtype([("coords", "<i8", (d,)), ("value", "<f8")])
        first = next((line for line in fh if line.strip()), None)
        rows = np.empty(0, row)
        if first is not None:  # loadtxt warns on an empty body
            rows = np.loadtxt(chain([first], fh), dtype=row, comments=None, ndmin=1)
    except ValueError as exc:  # numpy's message misnumbers rows, suggests usecols
        raise FormatError(
            f"malformed MHS1 body: each row must be {d} integer coordinates, one value"
        ) from exc
    return SampleSet(params, collection, rows["coords"], rows["value"])
