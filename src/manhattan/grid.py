"""d-dimensional grids, DFT convention, and tensor/PGM file formats.

A grid's dtype says what it holds: float64 data is a real image, complex128
data is its spectrum.  The transform pair is unnormalized forward,
1/prod(T) inverse, which is exactly numpy's fftn/ifftn convention; a
spectrum goes back to an image only if it is Hermitian, through ``irfftn``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import prod
from typing import BinaryIO

import numpy as np

from .errors import DimensionError, DomainError, FormatError, NumericalFailureError
from .freq import FreqMask

IMAG_RESIDUE_TOL = 1e-9

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


def check_hermitian(X: np.ndarray, X_neg: np.ndarray, peak: float, what: str) -> None:
    """Refuse unless X[u] = conj(X[-u]) to IMAG_RESIDUE_TOL times peak, the
    largest |X[u]|; X_neg holds X[-u].  NaN or inf anywhere fails too."""
    residue = np.abs(X - X_neg.conj()).max(initial=0.0)
    if not residue <= IMAG_RESIDUE_TOL * peak < np.inf:
        raise NumericalFailureError(
            f"{what} is not finite and Hermitian: residue {residue:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e} relative to peak {peak:.3e}"
        )


def idft(g: Grid) -> Grid:
    """Inverse DFT with 1/prod(T) normalization, back to a real image.

    The spectrum must be Hermitian (``check_hermitian``); then the image is
    the ``irfftn`` of its last-axis half.
    """
    if not np.iscomplexobj(g.data):
        raise DomainError("idft expects a spectrum, got a real image")
    T = g.extents
    half = g.data[..., : T[-1] // 2 + 1]
    neg = [-np.arange(n) % t for n, t in zip(half.shape, T)]  # -u mod T per axis
    peak = np.abs(g.data).max(initial=0.0)
    check_hermitian(half, g.data[np.ix_(*neg)], peak, "spectrum")
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
        if not 1 <= d <= 16:
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
