"""d-dimensional complex grids, DFT convention, and tensor/PGM file formats.

The transform pair is unnormalized forward, 1/prod(T) inverse, which is
exactly numpy's fftn/ifftn convention.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import prod
from typing import BinaryIO

import numpy as np

from .errors import DimensionError, DomainError, FormatError
from .freq import FreqMask

SPATIAL = "spatial"
SPECTRAL = "spectral"

_MHT1_MAGIC = b"MHT1"


@dataclass(frozen=True)
class Grid:
    """Complex tensor with extents T, tagged as a spatial image or a spectrum."""

    extents: tuple[int, ...]
    data: np.ndarray  # complex128, shape == extents
    domain: str = SPATIAL

    def __post_init__(self) -> None:
        if self.domain not in (SPATIAL, SPECTRAL):
            raise DomainError(f"unknown domain tag: {self.domain}")
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if tuple(arr.shape) != tuple(self.extents):
            raise DimensionError(
                f"data shape {arr.shape} does not match extents {self.extents}"
            )
        object.__setattr__(self, "data", arr)
        arr.setflags(write=False)

    @classmethod
    def from_array(cls, arr: np.ndarray, domain: str = SPATIAL) -> "Grid":
        return cls(tuple(arr.shape), np.asarray(arr, dtype=np.complex128), domain)

    @property
    def size(self) -> int:
        return prod(self.extents)


def dft(g: Grid) -> Grid:
    """Unnormalized forward DFT, separable over dimensions."""
    if g.domain != SPATIAL:
        raise DomainError("dft expects a spatial grid")
    return Grid(g.extents, np.fft.fftn(g.data), SPECTRAL)


def idft(g: Grid) -> Grid:
    """Inverse DFT with 1/prod(T) normalization."""
    if g.domain != SPECTRAL:
        raise DomainError("idft expects a spectral grid")
    return Grid(g.extents, np.fft.ifftn(g.data), SPATIAL)


def apply_mask(g: Grid, m: FreqMask) -> Grid:
    """Zero every bin outside the mask."""
    if g.domain != SPECTRAL:
        raise DomainError("apply_mask expects a spectral grid")
    if tuple(g.extents) != tuple(m.extents):
        raise DimensionError("grid/mask extent mismatch")
    return Grid(g.extents, g.data * m.kept, SPECTRAL)


# ---------------------------------------------------------------------------
# MHT1 binary tensor format: magic "MHT1", u32 d, d x u64 extents, u8 dtype
# (0 = float64 real, 1 = complex128), little-endian row-major payload.
# ---------------------------------------------------------------------------


def write_mht1(fh: BinaryIO, g: Grid) -> None:
    data = g.data
    if np.abs(data.imag).max(initial=0.0) == 0.0:
        dtype_code, payload = 0, data.real.astype("<f8")
    else:
        dtype_code, payload = 1, data.astype("<c16")
    fh.write(_MHT1_MAGIC)
    fh.write(struct.pack("<I", len(g.extents)))
    fh.write(struct.pack(f"<{len(g.extents)}Q", *g.extents))
    fh.write(struct.pack("<B", dtype_code))
    fh.write(np.ascontiguousarray(payload).tobytes())


def read_mht1(fh: BinaryIO, domain: str = SPATIAL) -> Grid:
    magic = fh.read(4)
    if magic != _MHT1_MAGIC:
        raise FormatError(f"unknown magic {magic!r}, expected {_MHT1_MAGIC!r}")
    (d,) = struct.unpack("<I", fh.read(4))
    if not 1 <= d <= 16:
        raise FormatError(f"unreasonable dimension count {d}")
    extents = struct.unpack(f"<{d}Q", fh.read(8 * d))
    (dtype_code,) = struct.unpack("<B", fh.read(1))
    if dtype_code not in (0, 1):
        raise FormatError(f"unknown dtype code {dtype_code}")
    np_dtype = "<f8" if dtype_code == 0 else "<c16"
    n = prod(extents)
    raw = fh.read(n * (8 if dtype_code == 0 else 16))
    arr = np.frombuffer(raw, dtype=np_dtype)
    if arr.size != n:
        raise FormatError("truncated MHT1 payload")
    return Grid(tuple(extents), arr.reshape(extents).astype(np.complex128), domain)


# ---------------------------------------------------------------------------
# 8-bit binary PGM (P5) for 2D interchange; math stays float64, quantization
# happens only on write.
# ---------------------------------------------------------------------------


def write_pgm(fh: BinaryIO, g: Grid) -> None:
    if len(g.extents) != 2:
        raise DomainError("PGM output is only defined for 2D grids")
    img = np.clip(np.rint(g.data.real), 0, 255).astype(np.uint8)
    rows, cols = g.extents
    fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
    fh.write(img.tobytes())


def read_pgm(fh: BinaryIO) -> Grid:
    magic = fh.read(2)
    if magic != b"P5":
        raise FormatError(f"unknown magic {magic!r}, expected b'P5'")

    def next_token() -> bytes:
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
                    return tok
                continue
            tok += c

    cols, rows, maxval = (int(next_token()) for _ in range(3))
    if maxval != 255:
        raise FormatError(f"only 8-bit PGM supported, maxval={maxval}")
    raw = fh.read(rows * cols)
    if len(raw) != rows * cols:
        raise FormatError("truncated PGM payload")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(rows, cols).astype(np.float64)
    return Grid((rows, cols), arr.astype(np.complex128), SPATIAL)

