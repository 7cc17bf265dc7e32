"""Extracting Manhattan samples and building scaled comb grids.

A sample set holds the values of one image on M(B), which (T, k, λ, B) fix point by point,
in M(B)'s lexicographic order and nothing else; it is refused where it is built unless it
has a finite value for every point of M(B), once.  A NaN or inf written later through a view
the caller kept is left to ``grid.synthesize``'s check, the one numerical gate after this one.
A lattice of steps s is the view x[::s]: ``_cells`` maps the values to such views and back,
class by class of one cell K = k*λ, with no full-size mask, for ``extract_samples``,
``coords``, ``comb_from_samples`` and the engine.

A comb grid for bi-step lattice b of steps s is x[::s] * prod(s) written into x[::s] of a zero
image, so that the spectral replicas it induces have unit amplitude; neither comb builds a mask.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import os
import signal
import tempfile
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from itertools import chain, product
from math import prod
from typing import BinaryIO, TextIO

import numpy as np

from .core import BiStep, Collection, ManhattanParams, fundamental_cell_count
from .errors import DimensionError, DomainError, FormatError, MissingSamplesError
from .grid import Grid, _two_cpus

_MHS1_MAGIC = "MHS1"
_MHS1_CHUNK_ROWS = 1 << 14  # rows per write: bounds the formatted text in memory


def manhattan_indicator(c: Collection) -> np.ndarray:
    """Boolean grid marking M(B) within [0, T): each member's lattice of steps s is out[::s]."""
    out = np.zeros(c.params.extents, dtype=bool)
    for b in c.members:
        out[tuple(slice(None, None, s) for s in c.params.step_int(b))] = True
    return out


def _point_count(c: Collection) -> int:
    """|M(B)| on [0, T): the points of one cell K = k*λ times the cells."""
    p = c.params
    return fundamental_cell_count(c) * prod(t // (k * li) for t, k, li in zip(p.T, p.k, p.lam_int))


def _order(points: np.ndarray, c: Collection) -> slice | np.ndarray:
    """Where M(B)'s points, in its lexicographic order, are among as many ``points``;
    refuses points outside [0, T) or that do not hit every point of M(B) once."""
    T = c.params.T
    try:  # a view of the points, not a copy: read_mhs1's are its parsed rows
        where = np.ravel_multi_index(tuple(points.T), T)
    except ValueError:  # numpy refuses a coordinate outside [0, T)
        raise MissingSamplesError(f"sample coordinates outside [0, T) for T={T}")
    expected = manhattan_indicator(c)
    if np.array_equal(where, np.flatnonzero(expected)):
        return slice(None)
    hit = np.zeros(T, dtype=bool)
    hit.flat[where] = True
    if not np.array_equal(hit, expected):  # with the count equal, no point is hit twice
        raise MissingSamplesError(
            f"{np.count_nonzero(expected & ~hit)} points of M({c}) "
            f"missing, {np.count_nonzero(hit & ~expected)} samples off it"
        )
    return np.argsort(where)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Manhattan samples of one image: the real value at every point of M(B), once, in
    M(B)'s lexicographic order.  ``points`` (integers, shape (n, d)) give the values'
    coordinates in any order, or are None for values in that order.  A set is checked
    where it is built: its count first, before anything of size prod(T).  Float64 values
    in that order are adopted through a read-only view.  Sets compare and hash by identity."""

    params: ManhattanParams
    collection: Collection
    points: InitVar[np.ndarray | None]
    values: np.ndarray  # float64, shape (|M(B)|,)

    def __post_init__(self, points: np.ndarray | None) -> None:
        values = np.asarray(self.values)  # copied once it is in M(B)'s order
        if points is not None:
            points = np.asarray(points)
            if points.ndim != 2 or points.shape[1] != self.params.d:
                raise DimensionError("coords must have shape (n, d)")
        if values.shape != (values.size if points is None else len(points),):
            raise DimensionError("values length must match coords")
        self.params.extents  # raises DomainError without T
        if self.params != self.collection.params:  # the plan reads the collection's
            raise DomainError("sample params differ from the collection's params")
        if len(values) != self.expected_count:
            raise MissingSamplesError(
                f"{len(values)} {'values' if points is None else 'samples'} given, "
                f"M({self.collection}) has {self.expected_count} points"
            )
        if points is not None and not np.can_cast(points.dtype, np.int64, "same_kind"):
            raise DomainError(f"sample coordinates must be integers, not {points.dtype}")
        if not np.can_cast(values.dtype, np.float64, "same_kind"):
            raise DomainError(f"sample values must be real numbers, not {values.dtype}")
        if points is not None:  # read_mhs1's int64 views are not copied
            values = values[_order(points.astype(np.int64, copy=False), self.collection)]
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise DomainError("sample values must be finite")
        values = values.view() if values is self.values else values  # the caller's stays writable
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @cached_property
    def coords(self) -> np.ndarray:
        """Int coordinates of the values, shape (n, d): M(B)'s, derived on first use.
        Column i is read by ``_cells`` from axis i's coordinates broadcast over x[::λ]."""
        p, pairs = self.params, _cells(self.collection, self.params.lam_int)
        axes = np.broadcast_arrays(*np.ogrid[tuple(slice(0, t, s) for t, s in zip(p.T, p.lam_int))])
        coords = np.empty((len(self), p.d), dtype=np.intp, order="F")  # as argwhere's
        for column, axis in zip(coords.T, axes):
            for v, y in pairs(column, axis):
                v[...] = y
        coords.setflags(write=False)
        return coords

    @property
    def expected_count(self) -> int:
        return _point_count(self.collection)

    def __len__(self) -> int:
        return len(self.values)


def extract_samples(image: Grid, c: Collection) -> SampleSet:
    """The image's values on M(B), in its lexicographic order, read by ``_cells`` from x[::λ]."""
    x, lam = image.image(c.params.extents), c.params.lam_int
    values = np.empty(_point_count(c))
    for v, y in _cells(c, lam)(values, x[tuple(slice(None, None, li) for li in lam)]):
        v[...] = y
    return SampleSet(c.params, c, None, values)


def _cells(c: Collection, s: tuple[int, ...]) -> Callable[[np.ndarray, np.ndarray], Iterator]:
    """``pairs(values, y)``: per residue class of the leading axes, views of the same points
    of M(B) in its canonical values, shape (*N, kept), and in the samples ``y = x[::s]`` of
    a lattice of steps s, of any strides.  M(B) repeats with the cell K = k*λ: on leading
    axis i the values split into N_i = T_i/K_i equal chunks, residue r_i is one slice of
    each, and a class keeps the first min(points in its cell row, K/s) points of each row,
    the multiples of the last step.  Classes with no points are skipped; cuts are found once."""
    p = c.params
    K = tuple(k * lam for k, lam in zip(p.k, p.lam_int))
    N = [t // ki for t, ki in zip(p.T, K)]
    cell = manhattan_indicator(Collection(c.members, replace(p, T=K)))
    classes = []  # (cuts of the leading axes, the class's index into y's cells) per class r
    leading = product(*(range(0, ki, si) for ki, si in zip(K[:-1], s[:-1])))
    for r in (r for r in leading if cell[r].any()):
        cuts = []
        for i, ri in enumerate(r):  # points per residue of axis i in one chunk
            sizes = (cell[r[:i]].reshape(K[i], -1).sum(1) * prod(N[i + 1 :])).tolist()
            cuts.append(slice(sum(sizes[:ri]), sum(sizes[: ri + 1])))
        at = (*chain.from_iterable((slice(None), ri // si) for ri, si in zip(r, s)), slice(None))
        classes.append((cuts, (*at, slice(min(np.count_nonzero(cell[r]), K[-1] // s[-1])))))

    def pairs(values: np.ndarray, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        cells = y.reshape([n for ni, ki, si in zip(N, K, s) for n in (ni, ki // si)])
        for cuts, at in classes:
            v = values
            for n, cut in zip(N, cuts):
                v = v.reshape(*v.shape[:-1], n, -1)[..., cut]
            yield v.reshape(*v.shape[:-1], N[-1], -1)[..., at[-1]], cells[at]

    return pairs


@dataclass(frozen=True)
class CombGrid:
    """Scaled comb-sampled image on one bi-step lattice."""

    grid: Grid
    b: BiStep
    scale: int


def comb_from_grid(image: Grid, b: BiStep, params: ManhattanParams) -> CombGrid:
    """Comb of a full grid: x[::s] * prod(s) in x[::s] of a zero image, s the steps of b."""
    x, s = image.image(params.extents), params.step_int(b)
    out, on = np.zeros(params.T), tuple(slice(None, None, si) for si in s)
    np.multiply(x[on], prod(s), out=out[on])
    return CombGrid(Grid(params.T, out), b, prod(s))


def comb_from_samples(ss: SampleSet, b: BiStep) -> CombGrid:
    """Comb read from the samples: b must lie in the closure, so that they cover lattice b."""
    s = ss.params.step_int(b)  # a b of the wrong length: DimensionError, as from a grid
    if b not in ss.collection.closure().members:
        raise MissingSamplesError(f"lattice {b} is not covered by collection {ss.collection}")
    x = np.zeros(ss.params.T)
    for v, y in _cells(ss.collection, s)(ss.values, x[tuple(slice(None, None, si) for si in s)]):
        np.multiply(v, prod(s), out=y)
    return CombGrid(Grid(ss.params.T, x), b, prod(s))


# ---------------------------------------------------------------------------
# MHS1 text format: magic line, header lines dims/T/k/lambda/collection, then
# one row per sample: d integer coordinates and the value to 17 significant
# digits (exact for float64). Blank lines are ignored, comment lines are not
# allowed; a malformed row, or a header no sample set can have, raises FormatError.
# The writer formats each chunk of rows with one `%`, axis i's coordinates from a
# table of T_i strings built only where T_i <= rows. loadtxt parses the rows, in any
# order, of a UTF-8 or ASCII file on disk from its bytes; a body that is not M(B)
# once is refused as a SampleSet is. A body written, or read from such a file, is
# two halves: a forked helper does the second at once where _forked can fork, else
# (under two chunks, one CPU, a failed helper) the parent does it after the first.
# ---------------------------------------------------------------------------

_MHS1_PIECE_BYTES = 1 << 14  # text parsed or copied at a time: bounds it in memory
_mhs1_split = False  # whether the last MHS1 read or write split its body, for the log


def _splits(rows: int) -> bool:
    """Whether a body of this many rows is split: two full chunks at least (on 2D
    and 3D, 17k-24k rows ran no faster split, 33k rows 17-29% faster), two usable
    CPUs, no other thread whose held locks a forked helper would copy, and SIGCHLD
    at its default, so no handler or kernel reaps the helper before _forked does."""
    return (rows >= 2 * _MHS1_CHUNK_ROWS and _two_cpus() and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL)


def _forked(rows: int, work: Callable[[], object], helper: Callable[[BinaryIO], object],
            take: Callable[[BinaryIO], object]) -> bool:
    """Run work() here and, where _splits(rows) allows, helper(out) in a forked process at
    once, out an unlinked temp file, then take(out) from its start. False, with take not
    called, if no helper ran (a split refused, no temp file or process) or it failed: the
    caller then does the helper's part itself. The helper ends in os._exit, so it flushes
    no buffer it inherited; if work raises, it is killed. It is reaped."""
    with contextlib.ExitStack() as stack:
        pid = None
        if _splits(rows):  # decided before any temp file is made
            with contextlib.suppress(OSError):  # no writable temp dir, EAGAIN, ENOMEM
                out = stack.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
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
            take(out)
        return ok


def _mhs1_chunks(ss: SampleSet, flat: np.ndarray, starts: range) -> Iterator[str]:
    """The body text of the chunks of rows that begin at starts, one string each; flat
    holds M(B)'s positions in [0, T), in its lexicographic order."""
    p = ss.params
    tables = {i: np.array([f"{j} " for j in range(t)], object)  # axis i's "j " texts
              for i, t in enumerate(p.T) if t <= len(ss)}
    row = "".join("%s" if i in tables else "%d " for i in range(p.d)) + "%.17g\n"
    for start in starts:
        chunk = slice(start, start + _MHS1_CHUNK_ROWS)
        cols = [*np.unravel_index(flat[chunk], p.T), ss.values[chunk]]
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

    flat = np.flatnonzero(manhattan_indicator(ss.collection))  # found once, and inherited

    def write(starts: range) -> None:
        for text in _mhs1_chunks(ss, flat, starts):
            fh.write(text)

    def copy(out: BinaryIO) -> None:  # the helper's text, after the parent's
        while piece := out.read(_MHS1_PIECE_BYTES):
            fh.write(piece.decode("ascii"))

    starts = range(0, len(ss), _MHS1_CHUNK_ROWS)
    head, tail = starts[: len(starts) // 2], starts[len(starts) // 2 :]
    if not (_mhs1_split := _forked(len(ss), lambda: write(head), lambda out: out.writelines(
            t.encode() for t in _mhs1_chunks(ss, flat, tail)), copy)):
        write(tail)  # no helper, or it failed: its chunks are formatted here


def _header_line(fh: TextIO, key: str) -> list:
    """The values of header line key: integers, one of them for dims, or collection's one text."""
    line = fh.readline().strip()
    parts = line.split()
    if not parts or parts[0] != key:
        raise FormatError(f"expected header line {key!r}, got {line!r}")
    what = {"dims": "one integer", "collection": "one collection"}.get(key, "integers")
    with contextlib.suppress(ValueError):  # a value int cannot read
        if len(parts) == 2 or what == "integers":  # T, k and lambda: ManhattanParams counts
            return parts[1:] if key == "collection" else list(map(int, parts[1:]))
    raise FormatError(f"malformed MHS1 header: {key} must hold {what}, got {line!r}")


def _rows(pieces: Iterable[Iterable], row: np.dtype, encoding: str | None = None) -> np.ndarray:
    """The rows of the lines of pieces, by one loadtxt from the first line that is
    not blank; loadtxt decodes a line of bytes with encoding."""
    lines = chain.from_iterable(pieces)
    first = next((line for line in lines if line.strip()), None)
    if first is None:  # loadtxt warns on no rows
        return np.empty(0, row)
    return np.loadtxt(chain([first], lines), dtype=row, comments=None, ndmin=1, encoding=encoding)


def _pieces(fd: int, start: int, stop: int, encoding: str) -> Iterator[list[str] | list[bytes]]:
    """The lines of bytes [start, stop) with universal newlines, a list per piece
    read: a piece ends at a line end, and a longer line is carried into the next."""
    data = bytearray()
    while start < stop:
        piece = os.pread(fd, min(_MHS1_PIECE_BYTES, stop - start), start)
        start = start + len(piece) if piece else stop  # a file cut short ends here
        data += piece
        end = len(data) if start == stop else 1 + max(  # after the last \n, or \r not at the end
            data.rfind(b"\n", -len(piece)), data.rfind(b"\r", -len(piece) - 1, -1))
        text = data[:end]
        del data[:end]
        if b"\r" in text:  # universal newlines: \r\n and \r end a line as \n does
            text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            yield text.decode(encoding).split("\n")
        except UnicodeDecodeError:  # as bytes: loadtxt decodes them a line at a time, in order
            yield bytes(text).split(b"\n")


def _body_rows(fh: TextIO, row: np.dtype, count: int) -> np.ndarray:
    """The body rows of fh, of which the header gives count, leaving fh at its end.
    A UTF-8 or ASCII file on disk is read from its bytes in two halves, at once where
    _forked can fork; any other handle from its lines."""
    global _mhs1_split
    _mhs1_split = False
    raw = getattr(getattr(fh, "buffer", None), "raw", None)  # a compressed file's is no FileIO
    if not (isinstance(raw, io.FileIO) and raw.seekable() and fh.errors == "strict"
            and codecs.lookup(fh.encoding).name in ("utf-8", "ascii")
            and (start := fh.tell()) <= (stop := os.fstat(fd := raw.fileno()).st_size)):
        return _rows([fh], row)  # tell() past the end holds decoder state, as after a bare \r
    fh.seek(0, 2)

    def parse(begin: int, end: int) -> np.ndarray:  # the rows of bytes [begin, end)
        return _rows(_pieces(fd, begin, end, fh.encoding), row, fh.encoding)

    mid = (start + stop) // 2  # the helper's half starts at the first line start after it
    i = os.pread(fd, _MHS1_PIECE_BYTES, mid).find(b"\n")
    if i < 0:  # no line end near the middle to cut at
        return parse(start, stop)
    cut, rows = mid + i + 1, []  # the parent's rows, grown in place to take the helper's

    def grow(size: int) -> np.ndarray:  # the parent's rows made size bytes longer: those bytes
        rows[0].resize(len(rows[0]) + size // row.itemsize, refcheck=False)
        return rows[0].view(np.uint8)[rows[0].nbytes - size :]

    most = (stop - start) // (2 * row["coords"].shape[0] + 2)  # a row has 2d + 2 bytes at least
    if not (_mhs1_split := _forked(
            min(count, most), lambda: rows.append(parse(start, cut)),
            lambda out: out.write(parse(cut, stop).view(np.uint8)),
            lambda out: out.readinto(grow(os.fstat(out.fileno()).st_size)))):
        tail = parse(cut, stop).view(np.uint8)  # no helper, or it failed: its half is parsed here
        grow(len(tail))[:] = tail
    return rows[0]


def read_mhs1(fh: TextIO) -> SampleSet:
    body = False
    try:  # ValueError: bad numbers, ragged rows, undecodable bytes
        magic = fh.readline().strip()
        if magic != _MHS1_MAGIC:
            raise FormatError(f"unknown magic {magic!r}, expected {_MHS1_MAGIC!r}")
        (d,) = _header_line(fh, "dims")
        T, k, lam = (tuple(_header_line(fh, key)) for key in ("T", "k", "lambda"))
        (coll_text,) = _header_line(fh, "collection")
        params = ManhattanParams(d=d, lam=lam, k=k, T=T)
        collection = Collection.from_string(params, coll_text)
        body, count = True, _point_count(collection)
        rows = _body_rows(fh, np.dtype([("coords", "<i8", (d,)), ("value", "<f8")]), count)
    except UnicodeDecodeError as exc:  # in header or body: a text handle decodes ahead
        bad = exc.object[exc.start : exc.end].hex()
        raise FormatError(f"MHS1 file is not {exc.encoding} text: {exc.reason} 0x{bad}") from exc
    except (DomainError, DimensionError) as exc:  # from the header's params or collection only
        raise FormatError(f"malformed MHS1 header: {exc}") from exc
    except ValueError as exc:  # numpy's message misnumbers rows, suggests usecols
        what = (f"body: each row must be {d} integer coordinates, one value" if body
                else f"header: {exc}")
        raise FormatError(f"malformed MHS1 {what}") from exc
    return SampleSet(params, collection, rows["coords"], rows["value"])  # views of the rows
