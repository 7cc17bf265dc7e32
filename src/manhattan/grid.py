"""d-dimensional grids, the DFT and its half spectra, tensor/PGM file formats.

A grid's dtype says what it holds: float64 data is a real image, complex128
data is its spectrum.  Only this module asks which, and every transform but
the oracle's is made here, in numpy's fftn/ifftn convention: unnormalized
forward, 1/prod(T) inverse.

A real image has a Hermitian spectrum, X[-u] = conj(X[u]), so only the half
with last-axis residues 0..m//2 is kept.  A block is a spectrum on per-axis
kept indices, ascending and closed under negation, or lower-only: its last
axis stops at T//2.  Modulo m they form a few runs per axis: ``_slices``,
``_fold_slices`` and ``_layout`` build a block's slice copies once, for a
plan, and ``_fold``, ``_gather`` and ``synthesize`` replay them.
``_raw_spectrum``, the only ``rfftn``, is the way in; ``synthesize``, the
only way back to an image, checks every block is Hermitian, moves the blocks
into one half spectrum and inverts it in place: an ``ifft`` per leading axis,
then the one ``irfftn`` over the last axis, by slabs of rows, into the half
spectrum's own memory, whose head is the image.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from math import prod
from typing import BinaryIO

import numpy as np

from .core import MAX_DIMS
from .errors import DimensionError, DomainError, FormatError, NumericalFailureError

IMAG_RESIDUE_TOL = 1e-9
SPECTRUM_FLOOR = 1e-12  # times the peak |X|: keeps log10 finite, hides FFT noise

Axes = tuple[np.ndarray, ...]  # per-axis kept DFT indices, ascending

_MHT1_MAGIC = b"MHT1"
_SLAB_BYTES = 1 << 18  # image bytes per last-axis inverse in synthesize


@dataclass(frozen=True)
class Grid:
    """Read-only tensor with extents T: a real image or a complex spectrum.

    Real, integer and bool data are stored as float64, complex data as
    complex128.  An array already in that dtype and C order is adopted
    without a copy and made read-only.
    """

    extents: tuple[int, ...]
    data: np.ndarray  # float64 image or complex128 spectrum, shape == extents

    def __post_init__(self) -> None:
        if not 1 <= len(self.extents) <= MAX_DIMS:  # what MHT1 can hold
            raise DimensionError(f"a grid has 1 to {MAX_DIMS} axes, not {len(self.extents)}")
        if any(t <= 0 for t in self.extents):
            raise DomainError(f"grid extents must be positive, got {tuple(self.extents)}")
        dtype = np.complex128 if np.iscomplexobj(self.data) else np.float64
        arr = np.ascontiguousarray(self.data, dtype=dtype)
        if tuple(arr.shape) != tuple(self.extents):
            raise DimensionError(
                f"data shape {arr.shape} does not match extents {self.extents}"
            )
        object.__setattr__(self, "data", arr)
        arr.setflags(write=False)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Grid":
        return cls(tuple(np.shape(arr)), arr)

    def image(self, T: tuple[int, ...] | None = None) -> np.ndarray:
        """The data, no copy, after checking it is a real image (on T if given)."""
        if np.iscomplexobj(self.data):
            raise DomainError("expected a real image, got a spectrum")
        if T is not None and tuple(self.extents) != tuple(T):
            raise DomainError(f"image extents {tuple(self.extents)} do not match T {T}")
        return self.data


def dft(g: Grid) -> Grid:
    """Unnormalized forward DFT of an image, separable over dimensions."""
    return Grid(g.extents, np.fft.fftn(g.image()))


def idft(g: Grid) -> Grid:
    """Inverse DFT with 1/prod(T) normalization, back to a real image; the
    spectrum must be Hermitian (``synthesize`` of the one whole block)."""
    if not np.iscomplexobj(g.data):
        raise DomainError("idft expects a spectrum, got a real image")
    whole = tuple(np.arange(t) for t in g.extents)
    return synthesize(g.extents, {"spectrum": (_layout(whole, g.extents), g.data)})


def _raw_spectrum(y: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
    """Raw half spectrum ``rfftn(y) * prod(s)`` of the samples y = x[::s] of an image x."""
    H = np.empty((*y.shape[:-1], y.shape[-1] // 2 + 1), dtype=np.complex128)
    np.fft.rfftn(y, out=H)  # leading-axis passes run in place
    H *= prod(s)
    return H


def _runs(u: np.ndarray, m: int, top: int) -> list[tuple[slice, slice]]:
    """(position, residue) slices over the runs of consecutive residues of
    the ascending kept indices u modulo m, clipped to residues 0..top."""
    r = (u % m).tolist()
    edges = [a for a in range(1, len(r)) if r[a] != r[a - 1] + 1]  # short: faster than numpy
    starts, stops = [0, *edges], [*edges, len(r)]
    runs = [(a, min(z - a, top - r[a] + 1)) for a, z in zip(starts, stops) if a < z]
    return [(slice(a, a + n), slice(r[a], r[a] + n)) for a, n in runs if n > 0]


def _slices(axes: Axes, m: tuple[int, ...]) -> tuple[tuple, ...]:
    """(block, half-spectrum) slice pairs folding a block over the kept indices
    modulo m onto last-axis residues 0..m//2; none if an axis keeps nothing."""
    tops = [*(mi - 1 for mi in m[:-1]), m[-1] // 2]
    per_axis = [_runs(u, mi, top) for u, mi, top in zip(axes, m, tops)]
    return tuple(tuple(zip(*pairs)) for pairs in itertools.product(*per_axis))


def _fold_slices(axes: Axes, m: tuple[int, ...]) -> tuple:
    """``_fold``'s slices of a lower-only block modulo m: pairs for its bins,
    the size z of its u_last = 0 plane (its own mirror), and pairs for the
    mirrors -u of the rest (no atom keeps T/2), which reach residues up to m//2
    only when a dense last axis folds onto a coarse m."""
    z = np.count_nonzero(axes[-1] == 0)
    mirrors = (*(-u[::-1] for u in axes[:-1]), -axes[-1][z:][::-1])  # -u ascending
    return _slices(axes, m), z, _slices(mirrors, m)


def _fold(half: np.ndarray, block: np.ndarray, folds: tuple) -> None:
    """Subtract a lower-only Hermitian block, folded by its ``_fold_slices``,
    from a half spectrum: its bins, then their mirrors conj(X[u]) at -u."""
    direct, z, mirrored = folds
    for src, dst in direct:
        half[dst] -= block[src]
    mirror = np.flip(block[..., z:])  # X[u] in the order of -u ascending
    for src, dst in mirrored:
        half[dst] -= mirror[src].conj()


def _gather(half: np.ndarray, slices: tuple, shape: tuple[int, ...]) -> np.ndarray:
    """Lower-only block of the given shape read from a half spectrum through
    its ``_slices``: bin u mod m for each kept index u."""
    block = np.empty(shape, dtype=np.complex128)
    for src, dst in slices:
        block[src] = half[dst]
    return block


def _layout(axes: Axes, T: tuple[int, ...]) -> tuple:
    """``synthesize``'s layout of a block over the kept indices on T: its slices,
    the last-axis places of the kept u <= T//2 whose -u is kept (``rows``) and of
    that -u (``last``), and per leading axis the place of each -v (``lead``)."""
    u, t = axes[-1], T[-1]
    rows = np.flatnonzero((u <= t // 2) & np.isin(-u % t, u))
    last = np.searchsorted(u, -u[rows] % t)
    lead = tuple(np.searchsorted(v, -v % tv) for v, tv in zip(axes[:-1], T))
    return _slices(axes, T), rows, last, lead


def synthesize(T: tuple[int, ...], blocks: dict[str, tuple[tuple, np.ndarray]]) -> Grid:
    """Real image with extents T whose spectrum is made of the named blocks,
    each given with the ``_layout`` of its kept indices, disjoint from the
    others.  Refuses unless X[u] = conj(X[-u]) wherever a block holds both, to
    IMAG_RESIDUE_TOL times the largest |X[u]| of all blocks; NaN or inf
    anywhere fails too.  Consumes ``blocks`` in order, dropping each once it is
    in the half spectrum, which is then inverted in place: the image is the
    head of its memory, which holds at most 16 bytes more per last-axis row."""
    peak = max(np.abs(block).max(initial=0.0) for _, block in blocks.values())
    half = np.zeros((*T[:-1], T[-1] // 2 + 1), dtype=np.complex128)
    for what in list(blocks):
        (slices, rows, last, lead), block = blocks.pop(what)
        mirror = np.take(block, last, axis=-1)  # X[-u]
        for i, v in enumerate(lead):
            mirror = np.take(mirror, v, axis=i)
        np.conjugate(mirror, out=mirror)
        mirror -= np.take(block, rows, axis=-1)
        residue = np.abs(mirror).max(initial=0.0)
        del mirror  # not held through the copy or the inverse
        if not residue <= IMAG_RESIDUE_TOL * peak < np.inf:
            raise NumericalFailureError(
                f"{what} is not finite and Hermitian: residue {residue:.3e} exceeds "
                f"{IMAG_RESIDUE_TOL:.0e} relative to peak {peak:.3e}"
            )
        for src, dst in slices:
            half[dst] = block[src]
        del block  # the last one too is not held through the inverse
    for i in range(len(T) - 1):  # irfftn's own passes, in its order
        np.fft.ifft(half, axis=i, out=half)
    lines = half.reshape(-1, half.shape[-1])
    image = half.view(np.float64).reshape(-1)[: prod(T)].reshape(-1, T[-1])
    slab = max(1, _SLAB_BYTES // image[0].nbytes)
    for a in range(0, len(lines), slab):  # image row r ends before half row r + 1 begins
        image[a : a + slab] = np.fft.irfftn(lines[a : a + slab], s=T[-1:], axes=(-1,))
    return Grid(T, image.reshape(T))


def spectrum_report(image: Grid) -> Grid:
    """Centered log-magnitude spectrum of an image or a spectrum, for display."""
    spec = image.data if np.iscomplexobj(image.data) else dft(image).data
    if not np.isfinite(spec).all():
        raise NumericalFailureError("spectrum is not finite (NaN or inf)")
    mag = np.abs(np.fft.fftshift(spec))
    floor = SPECTRUM_FLOOR * (mag.max() or 1.0)  # 1.0 for an all-zero spectrum
    report = np.log10(mag + floor)
    return Grid(image.extents, report)


# ---------------------------------------------------------------------------
# MHT1 binary tensor format: magic "MHT1", u32 d, d x u64 extents, u8 dtype
# (0 = float64 image, 1 = complex128 spectrum), little-endian row-major
# payload, nothing after it.
# ---------------------------------------------------------------------------


def write_mht1(fh: BinaryIO, g: Grid) -> None:
    dtype_code = int(np.iscomplexobj(g.data))
    fh.write(_MHT1_MAGIC)
    fh.write(struct.pack("<I", len(g.extents)))
    fh.write(struct.pack(f"<{len(g.extents)}Q", *g.extents))
    fh.write(struct.pack("<B", dtype_code))
    fh.write(g.data.astype("<c16" if dtype_code else "<f8", copy=False).tobytes())


def read_mht1(fh: BinaryIO) -> Grid:
    magic = fh.read(4)
    if magic != _MHT1_MAGIC:
        raise FormatError(f"unknown magic {magic!r}, expected {_MHT1_MAGIC!r}")
    try:  # struct.error: the header ends early
        (d,) = struct.unpack("<I", fh.read(4))
        if not 1 <= d <= MAX_DIMS:
            raise FormatError(f"unreasonable dimension count {d}")
        extents = struct.unpack(f"<{d}Q", fh.read(8 * d))
        (dtype_code,) = struct.unpack("<B", fh.read(1))
    except struct.error as exc:
        raise FormatError("truncated MHT1 header") from exc
    if dtype_code not in (0, 1):
        raise FormatError(f"unknown dtype code {dtype_code}")
    np_dtype = np.dtype("<c16" if dtype_code else "<f8")
    raw = fh.read()  # the rest of the file: the declared size may be bogus
    if len(raw) != prod(extents) * np_dtype.itemsize:
        raise FormatError(f"MHT1 payload of {len(raw)} bytes does not fit {extents}")
    try:  # ValueError: an extent too large for numpy next to a zero one
        arr = np.frombuffer(raw, dtype=np_dtype).reshape(extents)
    except ValueError as exc:
        raise FormatError(f"unsupported MHT1 extents {extents}") from exc
    return Grid(tuple(extents), arr)


# ---------------------------------------------------------------------------
# 8-bit binary PGM (P5) for 2D interchange; math stays float64, quantization
# happens only on write.
# ---------------------------------------------------------------------------


def write_pgm(fh: BinaryIO, g: Grid) -> None:
    if len(g.extents) != 2:
        raise DomainError("PGM output is only defined for 2D images")
    img = np.clip(np.rint(g.image()), 0, 255).astype(np.uint8)
    rows, cols = g.extents
    fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
    fh.write(img.tobytes())


def read_pgm(fh: BinaryIO) -> Grid:
    magic = fh.read(2)
    if magic != b"P5":
        raise FormatError(f"unknown magic {magic!r}, expected b'P5'")

    def next_int() -> int:
        tok = b""
        while True:
            c = fh.read(1)
            if c == b"":
                raise FormatError("truncated PGM header")
            if c == b"#":  # comment until end of line
                while c not in (b"\n", b""):
                    c = fh.read(1)
                continue
            if c.isspace():
                if tok:
                    break
                continue
            tok += c
        if not tok.isdigit():
            raise FormatError(f"PGM header token {tok!r} is not a decimal integer")
        return int(tok)

    cols, rows, maxval = (next_int() for _ in range(3))
    if maxval != 255:
        raise FormatError(f"only 8-bit PGM supported, maxval={maxval}")
    raw = fh.read()  # the rest of the file: the declared size may be bogus
    if len(raw) < rows * cols:
        raise FormatError("truncated PGM payload")
    arr = np.frombuffer(raw, dtype=np.uint8, count=rows * cols).reshape(rows, cols)
    return Grid((rows, cols), arr)
