"""d-dimensional grids, the DFT and its half spectra, tensor/PGM file formats.

A grid's dtype says what it holds: float64 data is a real image, complex128
data is its spectrum.  Only this module asks which, and every transform but
the oracle's is made here, in numpy's fftn/ifftn convention: unnormalized
forward, 1/prod(T) inverse.

A real image has a Hermitian spectrum, X[-u] = conj(X[u]), so only the half
with last-axis residues 0..m//2 is kept.  A block is a spectrum on per-axis
kept indices, ascending and closed under negation, or lower-only: its last
axis stops at T//2.  Modulo m they form a few runs per axis: ``_slices`` and
``_fold_slices`` build a block's slice copies once, for a plan, and ``_fold``
and ``_gather`` replay them.  The way in, ``_raw_spectrum``, transforms rows of
samples straight into their half spectrum's rows, with no copy; ``synthesize``,
the only way back, checks the spectrum itself, X[-u] = conj(X[u]) wherever it
holds both, and inverts it in place, by slabs of rows: its memory's head is the
image.  ``_halves`` runs each pass over a large array in two halves at once,
with the same bytes."""

from __future__ import annotations

import contextvars
import itertools
import os
import struct
import threading
from dataclasses import dataclass
from math import prod
from typing import BinaryIO, Callable

import numpy as np

from .core import MAX_DIMS
from .errors import DimensionError, DomainError, FormatError, NumericalFailureError

IMAG_RESIDUE_TOL = 1e-9
SPECTRUM_FLOOR = 1e-12  # times the peak |X|: keeps log10 finite, hides FFT noise

Axes = tuple[np.ndarray, ...]  # per-axis kept DFT indices, ascending

_MHT1_MAGIC = b"MHT1"
_SLAB_BYTES = 1 << 18  # bytes per inverse last-axis transform and per Hermitian-check gather
_SPLIT_BYTES = 1 << 22  # 2D's 4.2 MB member spectra ran faster split, facets' 2.5 MB slower


@dataclass(frozen=True, eq=False)
class Grid:
    """Read-only tensor with extents T: a real image or a complex spectrum.

    Real, integer and bool data are stored as float64, complex data as
    complex128.  An array already in that dtype and C order is adopted through
    a read-only view, not a copy.  Grids compare and hash by identity.
    """

    extents: tuple[int, ...]
    data: np.ndarray  # float64 image or complex128 spectrum, shape == extents

    def __post_init__(self) -> None:
        if not 1 <= len(self.extents) <= MAX_DIMS:  # what MHT1 can hold
            raise DimensionError(f"a grid has 1 to {MAX_DIMS} axes, not {len(self.extents)}")
        if any(t <= 0 for t in self.extents):
            raise DomainError(f"grid extents must be positive, got {tuple(self.extents)}")
        dtype = np.complex128 if np.iscomplexobj(self.data) else np.float64
        arr = np.ascontiguousarray(self.data, dtype=dtype).view()
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
    spectrum must be Hermitian (``synthesize`` checks it whole)."""
    if not np.iscomplexobj(g.data):
        raise DomainError("idft expects a spectrum, got a real image")
    with np.errstate(over="ignore", invalid="ignore"):  # synthesize refuses NaN and inf
        return synthesize(g.extents, g.data)  # read-only: its half is copied


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs at once; False where it cannot tell."""
    return len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1


def _halves(n: int, nbytes: int, work: Callable[[int, int], object]) -> list:
    """[work(0, n)], or for nbytes >= _SPLIT_BYTES and two usable CPUs [work(0, h), work(h, n)]
    at once: the first on a thread in a copy of this context, so numpy's errstate and bufsize
    hold there, joined before return; what it raised is raised here."""
    if n < 2 or nbytes < _SPLIT_BYTES or not _two_cpus():
        return [work(0, n)]
    h, first = n // 2, [None, None]  # its result, or what it raised
    def run() -> None:
        try:
            first[0] = work(0, h)
        except BaseException as exc:  # raised in the caller once joined
            first[1] = exc
    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
    thread.start()
    try:
        second = work(h, n)
    finally:
        thread.join()
    if first[1] is not None:
        raise first[1]
    return [first[0], second]


def _pass(X: np.ndarray, i: int, work: Callable[[np.ndarray], object]) -> None:
    """work(part) over X's halves along its longest axis but i, the first if tied."""
    j = max((k for k in range(X.ndim) if k != i), key=X.shape.__getitem__)
    _halves(X.shape[j], X.nbytes, lambda a, z: work(X[(slice(None),) * j + (slice(a, z),)]))


def _raw_spectrum(T: tuple[int, ...], s: tuple[int, ...], pairs, source) -> np.ndarray:
    """Raw half spectrum ``rfftn(y) * prod(s)`` of the samples y = x[::s], extents m = T/s:
    each (source rows, H rows) view of ``pairs(source, H)``, split along its first axis,
    is transformed by one ``rfft`` straight into H's rows, then in-place passes in rfftn's order."""
    m = tuple(t // si for t, si in zip(T, s))
    H = np.empty((*m[:-1], m[-1] // 2 + 1), dtype=np.complex128)
    for v, w in pairs(source, H):  # halves by H's size: a class is a part of one pass
        _halves(len(v), H.nbytes, lambda a, z: np.fft.rfft(v[a:z], out=w[a:z]))
    for i in reversed(range(len(m) - 1)):
        _pass(H, i, lambda part: np.fft.fft(part, axis=i, out=part))
    H *= prod(s)
    return H


def _runs(u: np.ndarray, m: int, top: int, at: np.ndarray) -> list[tuple[slice, slice]]:
    """(place, residue) slices over the runs of the ascending kept indices u whose
    places ``at`` and residues modulo m both go up by one, clipped to residues 0..top."""
    r, p = (u % m).tolist(), at.tolist()
    edges = [a for a in range(1, len(r)) if r[a] != r[a - 1] + 1 or p[a] != p[a - 1] + 1]
    starts, stops = [0, *edges], [*edges, len(r)]
    runs = [(a, min(z - a, top - r[a] + 1)) for a, z in zip(starts, stops) if a < z]
    return [(slice(p[a], p[a] + n), slice(r[a], r[a] + n)) for a, n in runs if n > 0]


def _slices(axes: Axes, m: tuple[int, ...], at: Axes | None = None) -> tuple[tuple, ...]:
    """(place, half-spectrum) slice pairs folding a block over the kept indices modulo
    m onto last-axis residues 0..m//2, a place in the block or, per axis, in ``at``."""
    tops, places = [*(mi - 1 for mi in m[:-1]), m[-1] // 2], at or map(np.arange, map(len, axes))
    per_axis = [_runs(u, mi, top, a) for u, mi, top, a in zip(axes, m, tops, places)]
    return tuple(tuple(zip(*pairs)) for pairs in itertools.product(*per_axis))


def _fold_slices(axes: Axes, T: tuple[int, ...], m: tuple[int, ...]) -> tuple:
    """``_fold``'s slices modulo m of a lower-only block in a half spectrum on T: its
    bins, and the mirrors -u of those with u_last > 0 (no atom keeps T/2), from the
    flipped half spectrum, whose place n - 1 - u holds X[u]."""
    z = np.count_nonzero(axes[-1] == 0)
    mirrors = (*(-u[::-1] for u in axes[:-1]), -axes[-1][z:][::-1])  # -u ascending
    flipped = tuple(w + n - 1 for w, n in zip(mirrors, (*T[:-1], T[-1] // 2 + 1)))
    return _slices(axes, m, axes), _slices(mirrors, m, flipped)


def _fold(H: np.ndarray, half: np.ndarray, folds: tuple) -> None:
    """Subtract from H a lower-only Hermitian block in ``half``, folded by its
    ``_fold_slices``: its bins, then their mirrors conj(X[u]) at -u; half is not written."""
    direct, mirrored = folds
    for src, dst in direct:
        H[dst] -= half[src]
    flipped = np.flip(half)
    for src, dst in mirrored:  # through float views: nothing is copied, half only read
        h, x = H[dst], flipped[src]
        h.real -= x.real
        h.imag += x.imag


def _gather(half: np.ndarray, H: np.ndarray, slices: tuple) -> None:
    """Copy a block from H to a half spectrum on T, bin u mod m to u, by its slices."""
    for src, dst in slices:
        half[src] = H[dst]


def _asymmetry(T: tuple[int, ...], X: np.ndarray) -> tuple[float, float]:
    """The largest |conj(X[-u]) - X[u]| over the bins u whose mirror -u X holds and the
    largest |X[u]| with u_last <= T//2, NaN if any is NaN, by slabs of first-axis places
    near _SLAB_BYTES (the residue's two gathers with numpy's buffer), the few picked
    last-axis planes second, so that the gathers' inner loops run along a long axis."""
    half = X[..., : T[-1] // 2 + 1]
    u = np.arange(half.shape[-1])
    order = [0, len(T) - 1, *range(1, len(T) - 1)][: len(T)]
    at = [*map(np.arange, T[:-1]), u[-u % T[-1] < X.shape[-1]]]  # a half's: u_last 0, T/2
    at, neg, Xt = [at[i] for i in order], [-at[i] % T[i] for i in order], X.transpose(order)
    sizes = (half[0].size, 4 * prod(map(len, at[1:])))  # bins per first-axis place
    rows, slab = (max(1, _SLAB_BYTES // (X.itemsize * n)) for n in sizes)
    peak = worst = 0.0
    for a in range(0, len(half), rows):
        peak = np.maximum(peak, np.abs(half[a : a + rows]).max())  # keeps a NaN
    for a in range(0, len(at[0]), slab):
        mirror = Xt[np.ix_(neg[0][a : a + slab], *neg[1:])]
        np.conjugate(mirror, out=mirror)
        mirror -= Xt[np.ix_(at[0][a : a + slab], *at[1:])]
        worst = np.maximum(worst, np.abs(mirror).max())
    return float(worst), float(peak)


def synthesize(T: tuple[int, ...], X: np.ndarray) -> Grid:
    """Real image with extents T whose spectrum is X, a half spectrum or, read-only, a whole
    one.  Refuses unless X[u] = conj(X[-u]) at every bin u whose mirror X holds, to
    IMAG_RESIDUE_TOL times the largest |X[u]| with u_last <= T//2; NaN or inf fails too.
    Then X, or a copy of its half if X is read-only, is inverted in place: the image is
    the head of that memory, at most 16 bytes shorter a row."""
    residue, peak = _asymmetry(T, X)
    if not residue <= IMAG_RESIDUE_TOL * peak < np.inf:
        raise NumericalFailureError(
            f"spectrum is not finite and Hermitian: residue {residue:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e} relative to peak {peak:.3e}"
        )
    half = X if X.flags.writeable else X[..., : T[-1] // 2 + 1].copy()  # once it is checked
    for i in range(len(T) - 1):  # irfftn's own passes, in its order
        _pass(half, i, lambda part: np.fft.ifft(part, axis=i, out=part))
    lines = half.reshape(-1, half.shape[-1])
    image = half.view(np.float64).reshape(-1)[: prod(T)].reshape(-1, T[-1])
    def rows(a: int, z: int) -> tuple[int, np.ndarray]:  # image row r ends before half row r + 1
        g = min(z, a + -(-a * (2 * lines.shape[-1] - T[-1]) // T[-1]))  # a·(R - T)/T rounded up
        held = np.fft.irfftn(lines[a:g], s=T[-1:], axes=(-1,))  # in place: over rows < a
        slab = max(1, _SLAB_BYTES * (z - a) // len(lines) // image[0].nbytes)  # halves share it
        for k in (slice(r, min(r + slab, z)) for r in range(g, z, slab)):
            image[k] = np.fft.irfftn(lines[k], s=T[-1:], axes=(-1,))
        return a, held
    for a, held in _halves(len(lines), half.nbytes, rows):  # joined: every row is read
        image[a : a + len(held)] = held
    return Grid(T, image.reshape(T))


def spectrum_report(image: Grid) -> Grid:
    """Centered log-magnitude spectrum of an image or a spectrum, for display."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        spec = image.data if np.iscomplexobj(image.data) else dft(image).data
        mag = np.abs(np.fft.fftshift(spec))  # inf where |X| overflows, NaN where X is NaN
    if not np.isfinite(mag).all():
        raise NumericalFailureError("spectrum magnitude is not finite (NaN or inf)")
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
    fh.write(g.data.astype("<c16" if dtype_code else "<f8", copy=False))  # its own buffer


def read_mht1(fh: BinaryIO) -> Grid:
    magic = fh.read(4)
    if magic != _MHT1_MAGIC:
        raise FormatError(f"unknown magic {magic!r}, expected {_MHT1_MAGIC!r}")
    try:  # struct.error: the header ends early
        (d,) = struct.unpack("<I", fh.read(4))
        if not 1 <= d <= MAX_DIMS:
            raise FormatError(f"unreasonable dimension count {d}")
        extents = struct.unpack(f"<{d}Q", fh.read(8 * d))
        if 0 in extents:  # a malformed file, where Grid's DomainError refuses an array
            raise FormatError(f"MHT1 extents {extents} must be positive")
        (dtype_code,) = struct.unpack("<B", fh.read(1))
    except struct.error as exc:
        raise FormatError("truncated MHT1 header") from exc
    if dtype_code not in (0, 1):
        raise FormatError(f"unknown dtype code {dtype_code}")
    np_dtype = np.dtype("<c16" if dtype_code else "<f8")
    raw = fh.read()  # the rest of the file: the declared size may be bogus
    if len(raw) != prod(extents) * np_dtype.itemsize:
        raise FormatError(f"MHT1 payload of {len(raw)} bytes does not fit {extents}")
    return Grid(tuple(extents), np.frombuffer(raw, dtype=np_dtype).reshape(extents))


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
    if not rows * cols:
        raise FormatError(f"PGM width {cols} and height {rows} must be positive")
    raw = fh.read()  # the rest of the file: the declared size may be bogus
    if len(raw) < rows * cols:
        raise FormatError("truncated PGM payload")
    arr = np.frombuffer(raw, dtype=np.uint8, count=rows * cols).reshape(rows, cols)
    return Grid((rows, cols), arr)
