"""Extracting Manhattan samples and building scaled comb grids.

A sample set in canonical form holds only the values of M(B), which (T, k, λ, B)
fix, in lexicographic order: ``extract_samples`` gives it, ``read_mhs1`` for rows
in that order, and the gate ``_canonical_values`` the values of any valid set.

A comb grid for bi-step lattice b is zero off the lattice and carries the
image values scaled by the product of the lattice step sizes, so that the
spectral replicas it induces have unit amplitude.
"""

from __future__ import annotations

import codecs
import contextlib
import os
import signal
import tempfile
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, product
from math import prod
from typing import BinaryIO, TextIO

import numpy as np

from .core import BiStep, Collection, ManhattanParams, density, fundamental_cell_count
from .errors import DimensionError, DomainError, FormatError, MissingSamplesError
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
    explicit_coords: np.ndarray | None  # int, shape (n, d); None: canonical form
    values: np.ndarray  # float64, shape (n,)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if (coords := self.explicit_coords) is not None:
            coords = np.ascontiguousarray(coords, dtype=np.int64)
            if coords.ndim != 2 or coords.shape[1] != self.params.d:
                raise DimensionError("coords must have shape (n, d)")
            coords.setflags(write=False)
        if values.shape != (values.size if coords is None else coords.shape[0],):
            raise DimensionError("values length must match coords")
        self.params.extents  # raises DomainError without T
        if self.params != self.collection.params:  # the plan reads the collection's
            raise DomainError("sample params differ from the collection's params")
        if coords is None and len(values) != self.expected_count:
            raise MissingSamplesError(
                f"{len(values)} values given, M({self.collection}) has "
                f"{self.expected_count} points"
            )
        object.__setattr__(self, "explicit_coords", coords)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @cached_property
    def coords(self) -> np.ndarray:
        """Int coordinates, shape (n, d); the canonical form's are derived here."""
        if self.explicit_coords is not None:
            return self.explicit_coords
        coords = np.argwhere(manhattan_indicator(self.collection))  # C order
        coords.setflags(write=False)
        return coords

    @property
    def expected_count(self) -> int:
        p = self.params
        cells = prod(t // (k * li) for t, k, li in zip(p.T, p.k, p.lam_int))
        return fundamental_cell_count(self.collection) * cells

    def __len__(self) -> int:
        return len(self.values)


def extract_samples(image: Grid, c: Collection) -> SampleSet:
    """The image's values on M(B), canonical: a mask reads them in C order."""
    ss = SampleSet(c.params, c, None, image.image(c.params.extents)[manhattan_indicator(c)])
    if not np.isfinite(ss.values).all():  # reconstruct would refuse them
        raise DomainError("sample values must be finite")
    return ss


def _canonical_values(ss: SampleSet) -> np.ndarray:
    """The sample values in M(B)'s lexicographic order, as a canonical set holds them.

    Refuses a sample set that does not hit every point of M(B) exactly once
    with a finite value: any such set would reconstruct to a wrong image.
    The count comes first, before anything of size prod(T); with it equal,
    samples that cover M(B) hit no point twice.  A canonical set has no
    coordinates to check; explicit ones in M(B)'s order pass in one
    comparison, and any other order is sorted once it is known to cover M(B).
    """
    T, values = ss.params.T, ss.values
    if len(ss) != ss.expected_count:
        raise MissingSamplesError(
            f"{len(ss)} samples given, M({ss.collection}) has {ss.expected_count} points"
        )
    if ss.explicit_coords is not None:
        try:
            where = np.ravel_multi_index(tuple(ss.coords.T), T)
        except ValueError:  # numpy refuses a coordinate outside [0, T)
            raise MissingSamplesError(f"sample coordinates outside [0, T) for T={T}")
        expected = manhattan_indicator(ss.collection)
        if not np.array_equal(where, np.flatnonzero(expected)):  # not lexicographic
            hit = np.zeros(T, dtype=bool)
            hit.flat[where] = True
            if not np.array_equal(hit, expected):
                raise MissingSamplesError(
                    f"{np.count_nonzero(expected & ~hit)} points of M({ss.collection}) "
                    f"missing, {np.count_nonzero(hit & ~expected)} samples off it"
                )
            values = values[np.argsort(where)]
    if not np.isfinite(values).all():
        raise DomainError("sample values must be finite")
    return values


def _lattice_values(c: Collection, values: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
    """The samples ``x[::s]`` of a closure member's lattice (steps s), read from
    the canonical values of M(B), which repeats with the cell K = k*λ: on each
    leading axis i the values split into N_i = T_i/K_i equal chunks, residue r_i
    is one slice of each, and each kept last-axis residue is one strided copy."""
    p = c.params
    K = tuple(k * lam for k, lam in zip(p.k, p.lam_int))
    N = [t // ki for t, ki in zip(p.T, K)]
    cell = manhattan_indicator(Collection(c.members, replace(p, T=K)))
    out = np.empty([n for ni, ki, si in zip(N, K, s) for n in (ni, ki // si)])
    by_residue = out.transpose(*range(1, 2 * p.d, 2), *range(0, 2 * p.d, 2))
    for r in product(*(range(0, ki, si) for ki, si in zip(K[:-1], s[:-1]))):
        v = values
        for i, ri in enumerate(r):  # points per residue of axis i in one chunk
            sizes = cell[r[:i]].reshape(K[i], -1).sum(1) * prod(N[i + 1 :])
            v = v.reshape(*v.shape[:-1], N[i], -1)[..., sizes[:ri].sum() :][..., : sizes[ri]]
        v = v.reshape(*v.shape[:-1], N[-1], -1)
        pos = np.cumsum(cell[r]) - 1  # each last-axis residue's place in the cell row
        for rl in range(0, K[-1], s[-1]):
            by_residue[(*(ri // si for ri, si in zip(r, s)), rl // s[-1])] = v[..., pos[rl]]
    return out.reshape([t // si for t, si in zip(p.T, s)])


def grid_from_samples(ss: SampleSet) -> Grid:
    """Image holding the raw sample values, zero elsewhere; refuses the
    sample sets that ``_canonical_values`` refuses."""
    values = _canonical_values(ss)  # before anything of size prod(T)
    x = np.zeros(ss.params.T)
    x[manhattan_indicator(ss.collection)] = values
    return Grid(ss.params.T, x)


@dataclass(frozen=True)
class CombGrid:
    """Scaled comb-sampled image on one bi-step lattice."""

    grid: Grid
    b: BiStep
    scale: int


def comb_from_grid(image: Grid, b: BiStep, params: ManhattanParams) -> CombGrid:
    """Comb of a full grid: step-size-scaled values on lattice b, zero off it."""
    x = image.image(params.extents)
    scale = prod(params.step_int(b))
    return CombGrid(Grid(params.T, x * lattice_indicator(params, b) * scale), b, scale)


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
# allowed, and a malformed row raises FormatError. The writer formats each chunk
# of rows with one `%`; a canonical set's axis i takes its coordinate text from a
# table of T_i strings, built only where T_i <= rows, so no table outgrows the rows.
# With two CPUs a forked helper writes or reads the second half of a body of two
# full chunks or more at the same time; bytes, rows and refusals stay the serial
# path's, to which any read it cannot prove equal falls back.
# ---------------------------------------------------------------------------

_MHS1_PIECE_BYTES = 1 << 16  # text parsed or copied at a time: bounds it in memory
_mhs1_split = False  # whether the last MHS1 read or write split its body, for the log


def _splits(rows: int) -> bool:
    """Whether a body of this many rows is split: two full chunks at least (on 2D
    and 3D, 17k-24k rows ran no faster split, 33k rows 17-29% faster), two usable
    CPUs, no other thread whose held locks a forked helper would copy, and SIGCHLD
    at its default, so no handler or kernel reaps the helper before _forked does."""
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    return (rows >= 2 * _MHS1_CHUNK_ROWS and len(cpus) > 1 and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL)


def _forked(work: Callable[[], object], helper: Callable[[BinaryIO], object],
            append: Callable[[bytes], object]) -> bool:
    """Run work() here and helper(out) in a forked process at once, out an unlinked
    temp file, then pass out's bytes to append a piece at a time; False, with
    nothing passed, if the helper failed. The helper ends in os._exit, so it
    flushes no buffer it inherited; if work raises, it is killed. It is reaped.
    If no temp file or process can be made, work runs alone and the helper counts
    as failed."""
    with contextlib.ExitStack() as stack:
        try:
            out = stack.enter_context(tempfile.TemporaryFile())
            pid = os.fork()
        except OSError:  # no writable temp dir, EAGAIN, ENOMEM: the caller does its part
            pid = None
        if pid == 0:
            try:
                helper(out)
                out.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            work()
        except BaseException:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            ok = pid is not None and os.waitpid(pid, 0)[1] == 0
        if ok:
            out.seek(0)
            while piece := out.read(_MHS1_PIECE_BYTES):
                append(piece)
        return ok


def _mhs1_chunks(ss: SampleSet, starts: range) -> Iterator[str]:
    """The body text of the chunks of rows that begin at starts, one string each."""
    p = ss.params
    coords = ss.explicit_coords  # None: each chunk's rows from the flat positions
    flat = np.flatnonzero(manhattan_indicator(ss.collection)) if coords is None else None
    tables = {i: np.array([f"{j} " for j in range(t)], object)  # axis i's "j " texts
              for i, t in enumerate(p.T) if flat is not None and t <= len(ss)}
    row = "".join("%s" if i in tables else "%d " for i in range(p.d)) + "%.17g\n"
    for start in starts:
        chunk = slice(start, start + _MHS1_CHUNK_ROWS)
        axes = coords[chunk].T if flat is None else np.unravel_index(flat[chunk], p.T)
        cols = [*axes, ss.values[chunk]]
        fields = [None] * (len(cols) * len(cols[-1]))  # the chunk's fields in row order
        for i, col in enumerate(cols):
            fields[i :: len(cols)] = (tables[i][col] if i in tables else col).tolist()
        yield row * len(cols[-1]) % tuple(fields)  # one % formats the whole chunk


def write_mhs1(fh: TextIO, ss: SampleSet) -> None:
    global _mhs1_split
    p = ss.params
    fh.write(f"{_MHS1_MAGIC}\n")
    fh.write(f"dims {p.d}\n")
    fh.write("T " + " ".join(map(str, p.T)) + "\n")
    fh.write("k " + " ".join(map(str, p.k)) + "\n")
    fh.write("lambda " + " ".join(map(str, p.lam_int)) + "\n")
    fh.write(f"collection {ss.collection}\n")

    def write(starts: range) -> None:
        for text in _mhs1_chunks(ss, starts):
            fh.write(text)

    starts = range(0, len(ss), _MHS1_CHUNK_ROWS)
    head, tail = starts[: len(starts) // 2], starts[len(starts) // 2 :]
    _mhs1_split = False
    if not _splits(len(ss)):
        write(starts)
    elif not (_mhs1_split := _forked(
            lambda: write(head),
            lambda out: out.writelines(t.encode() for t in _mhs1_chunks(ss, tail)),
            lambda piece: fh.write(piece.decode("ascii")))):
        write(tail)  # the helper failed: its chunks are formatted here


def _header_line(fh: TextIO, key: str) -> list[str]:
    line = fh.readline().strip()
    parts = line.split()
    if not parts or parts[0] != key:
        raise FormatError(f"expected header line {key!r}, got {line!r}")
    return parts[1:]


def _parse_rows(fd: int, start: int, stop: int, row: np.dtype) -> Iterator[np.ndarray]:
    """The rows of bytes [start, stop), parsed in pieces that end at a line end.
    ValueError on what the serial reader might read otherwise: a byte outside
    ASCII, or a carriage return, which ends a line of text in some newline modes."""
    while start < stop:
        data = os.pread(fd, min(_MHS1_PIECE_BYTES, stop - start), start)
        cut = len(data) if start + len(data) >= stop else data.rfind(b"\n") + 1
        text = data[:cut].decode("ascii")
        if not cut or "\r" in text:
            raise ValueError("no line end in a piece, or a carriage return")
        if not text.isspace():  # loadtxt warns on a piece of blank lines
            yield np.loadtxt(text.split("\n"), dtype=row, comments=None, ndmin=1)
        start += cut


def _read_split(fh: TextIO, row: np.dtype, count: int) -> np.ndarray | None:
    """The body rows of fh, of which the header gives count, its halves parsed at
    once, leaving fh at its end; None, with fh unmoved, where the split does not
    run, or its rows might not be the serial reader's."""
    try:  # fh may be a StringIO, a pipe, a text file of another encoding
        fd, start, encoding = fh.fileno(), fh.tell(), codecs.lookup(fh.encoding).name
    except (AttributeError, LookupError, OSError, TypeError, ValueError):
        return None
    if (encoding not in ("utf-8", "ascii")  # else tell() need not be a byte offset
            or not _splits(count)
            or b"\r" in os.pread(fd, start, 0)):  # so any newline mode reads the header alike
        return None
    stop = os.fstat(fd).st_size
    mid = (start + stop) // 2  # the helper's half starts at the first line start after it
    cut = mid + i + 1 if (i := os.pread(fd, _MHS1_PIECE_BYTES, mid).find(b"\n")) >= 0 else stop
    try:  # OSError: no writable temp dir, or a full one
        with tempfile.TemporaryFile() as rows:  # so that no half's rows stay in this heap
            if _forked(lambda: rows.writelines(_parse_rows(fd, start, cut, row)),
                       lambda out: out.writelines(_parse_rows(fd, cut, stop, row)),
                       rows.write):
                fh.seek(0, 2)
                rows.seek(0)
                return np.fromfile(rows, row)
    except (OSError, ValueError):  # ValueError: a piece the serial reader might read otherwise
        pass
    fh.seek(start)
    return None


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
    global _mhs1_split
    count = int(density(collection) * prod(T))  # |M(B)|: K divides T
    try:  # ValueError: bad numbers, ragged rows, undecodable bytes
        row = np.dtype([("coords", "<i8", (d,)), ("value", "<f8")])
        rows = _read_split(fh, row, count)
        if not (_mhs1_split := rows is not None):
            first = next((line for line in fh if line.strip()), None)
            rows = np.empty(0, row)
            if first is not None:  # loadtxt warns on an empty body
                rows = np.loadtxt(chain([first], fh), dtype=row, comments=None, ndmin=1)
    except ValueError as exc:  # numpy's message misnumbers rows, suggests usecols
        raise FormatError(
            f"malformed MHS1 body: each row must be {d} integer coordinates, one value"
        ) from exc
    coords, values = rows["coords"], rows["value"]  # views: a SampleSet copies what it keeps
    if len(rows) == count:  # checked before anything of size T
        try:  # M(B) in lexicographic order needs no coordinates
            flat = np.ravel_multi_index(tuple(coords.T), T)
        except ValueError:  # outside [0, T): grid_from_samples refuses it
            return SampleSet(params, collection, coords, values)
        if np.array_equal(flat, np.flatnonzero(manhattan_indicator(collection))):
            return SampleSet(params, collection, None, values)
    return SampleSet(params, collection, coords, values)
