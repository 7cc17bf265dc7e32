"""d-dimensional grids, the DFT and its half spectra, tensor/PGM file formats.

A grid's dtype says what it holds: float64 data is a real image, complex128
data is its spectrum.  The transform pair is unnormalized forward,
1/prod(T) inverse, which is exactly numpy's fftn/ifftn convention.

A real image has a Hermitian spectrum, X[-u] = conj(X[u]), so only the half
with last-axis residues 0..m//2 is kept.  A block is a spectrum on per-axis
kept indices, ascending and closed under negation, or lower-only: its last
axis stops at T//2.  Modulo m they form a few runs per axis, so ``_slices``
and ``_fold`` fold a block onto a half spectrum in a few slice copies and
``_gather`` reads one back.  ``synthesize``, the only way back to an image,
checks every block is Hermitian, fills one half spectrum and calls ``irfftn`` once.
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
from .freq import FreqMask

IMAG_RESIDUE_TOL = 1e-9

Axes = tuple[np.ndarray, ...]  # per-axis kept DFT indices, ascending

_MHT1_MAGIC = b"MHT1"


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


def dft(g: Grid) -> Grid:
    """Unnormalized forward DFT of an image, separable over dimensions."""
    if np.iscomplexobj(g.data):
        raise DomainError("dft expects a real image, got a spectrum")
    return Grid(g.extents, np.fft.fftn(g.data))


def idft(g: Grid) -> Grid:
    """Inverse DFT with 1/prod(T) normalization, back to a real image; the
    spectrum must be Hermitian (``synthesize`` of the one whole block)."""
    if not np.iscomplexobj(g.data):
        raise DomainError("idft expects a spectrum, got a real image")
    whole = tuple(np.arange(t) for t in g.extents)
    return synthesize(g.extents, {"spectrum": (whole, g.data)})


def _runs(u: np.ndarray, m: int, top: int) -> list[tuple[slice, slice]]:
    """(position, residue) slices over the runs of consecutive residues of
    the ascending kept indices u modulo m, clipped to residues 0..top."""
    r = (u % m).tolist()
    edges = [0, *(np.flatnonzero(np.diff(r) != 1) + 1).tolist(), len(r)]
    runs = [(a, min(z - a, top - r[a] + 1)) for a, z in zip(edges, edges[1:]) if a < z]
    return [(slice(a, a + n), slice(r[a], r[a] + n)) for a, n in runs if n > 0]


def _slices(axes: Axes, m: tuple[int, ...]) -> list[tuple]:
    """(block, half-spectrum) slice pairs folding a block over the kept indices
    modulo m onto last-axis residues 0..m//2; none if an axis keeps nothing."""
    tops = [*(mi - 1 for mi in m[:-1]), m[-1] // 2]
    per_axis = [_runs(u, mi, top) for u, mi, top in zip(axes, m, tops)]
    return [tuple(zip(*pairs)) for pairs in itertools.product(*per_axis)]


def _fold(half: np.ndarray, axes: Axes, block: np.ndarray, m: tuple[int, ...]) -> None:
    """Subtract a lower-only Hermitian block, folded modulo m, from a half
    spectrum: its bins, then their mirrors conj(X[u]) at -u for u_last > 0 (no
    atom keeps T/2).  Those land at residues up to m//2 only when a dense last
    axis folds onto a coarse m."""
    for src, dst in _slices(axes, m):
        half[dst] -= block[src]
    z = np.count_nonzero(axes[-1] == 0)  # the u_last = 0 plane is its own mirror
    mirror = np.flip(block[..., z:])  # X[u] in the order of -u ascending
    for src, dst in _slices((*(-u[::-1] for u in axes[:-1]), -axes[-1][z:][::-1]), m):
        half[dst] -= mirror[src].conj()


def _gather(half: np.ndarray, axes: Axes, m: tuple[int, ...]) -> np.ndarray:
    """Lower-only block over the kept indices u of a Hermitian spectrum with
    extents m, read from its half: bin u mod m."""
    block = np.empty([len(u) for u in axes], dtype=np.complex128)
    for src, dst in _slices(axes, m):
        block[src] = half[dst]
    return block


def synthesize(T: tuple[int, ...], blocks: dict[str, tuple[Axes, np.ndarray]]) -> Grid:
    """Real image with extents T whose spectrum is made of the named blocks,
    each on its own kept indices, disjoint from the others.  Refuses unless
    X[u] = conj(X[-u]) wherever a block holds both, to IMAG_RESIDUE_TOL times
    the largest |X[u]| of all blocks; NaN or inf anywhere fails too."""
    peak = max(np.abs(block).max(initial=0.0) for _, block in blocks.values())
    half = np.zeros((*T[:-1], T[-1] // 2 + 1), dtype=np.complex128)
    for what, (axes, block) in blocks.items():
        u, t = axes[-1], T[-1]
        rows = np.flatnonzero((u <= t // 2) & np.isin(-u % t, u))
        mirror = np.take(block, np.searchsorted(u, -u[rows] % t), axis=-1)  # X[-u]
        for i, (v, tv) in enumerate(zip(axes[:-1], T)):
            mirror = np.take(mirror, np.searchsorted(v, -v % tv), axis=i)
        np.conjugate(mirror, out=mirror)
        mirror -= np.take(block, rows, axis=-1)
        residue = np.abs(mirror).max(initial=0.0)
        del mirror  # not held through irfftn
        if not residue <= IMAG_RESIDUE_TOL * peak < np.inf:
            raise NumericalFailureError(
                f"{what} is not finite and Hermitian: residue {residue:.3e} exceeds "
                f"{IMAG_RESIDUE_TOL:.0e} relative to peak {peak:.3e}"
            )
        for src, dst in _slices(axes, T):
            half[dst] = block[src]
    return Grid(T, np.fft.irfftn(half, s=T, axes=tuple(range(len(T)))))


def apply_mask(g: Grid, m: FreqMask) -> Grid:
    """Zero every bin outside the mask."""
    if not np.iscomplexobj(g.data):
        raise DomainError("apply_mask expects a spectrum, got a real image")
    if tuple(g.extents) != tuple(m.extents):
        raise DimensionError("grid/mask extent mismatch")
    return Grid(g.extents, g.data * m.kept)


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
    if len(g.extents) != 2 or np.iscomplexobj(g.data):
        raise DomainError("PGM output is only defined for 2D real images")
    img = np.clip(np.rint(g.data), 0, 255).astype(np.uint8)
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
