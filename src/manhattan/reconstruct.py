"""Onion-peeling reconstruction of Manhattan-bandlimited images.

The sweep recovers the spectrum one atom at a time, highest weight first.
Higher-weight atoms alias lower-weight ones, never the reverse, so the
peeling terminates with the lowpass atom and the summed spectrum inverts
to the original image.

No sweep step needs a full-size grid.  By the replica identity, the comb
spectrum of the samples on lattice b (steps s, reduced extents m = T/s) is
the spectrum of the subsampled array ``x[::s]`` scaled by prod(s) and
tiled with period m, and the comb spectrum of an already-recovered
component x^{b'} on b is the fold of its spectrum modulo m.  Atom b lies
inside the Nyquist cell of lattice b, so its bins are read straight out of
the reduced spectrum at ``u mod m``.  Each atom is stored as a dense block
over the tensor product of its per-axis kept indices; one full-size
inverse transform of the assembled spectrum gives the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .errors import DomainError, MissingSamplesError
from .freq import FreqMask, atom_axes, atom_mask, region_mask
from .grid import Grid, apply_mask, dft, idft
from .sampler import SampleSet, manhattan_indicator


@dataclass(frozen=True)
class ReconstructionPlan:
    """Closure members in sweep order (weight descending, bitmask ascending)
    with the per-axis kept DFT indices of their atoms."""

    members: tuple[BiStep, ...]
    axes: dict[BiStep, tuple[np.ndarray, ...]]
    params: ManhattanParams

    @classmethod
    def for_collection(cls, c: Collection) -> "ReconstructionPlan":
        members = tuple(c.closure().sorted_members())
        axes = {
            b: tuple(np.flatnonzero(a) for a in atom_axes(b, c.params))
            for b in members
        }
        return cls(members, axes, c.params)

    @cached_property
    def masks(self) -> dict[BiStep, FreqMask]:
        """Full-size atom masks, for callers that work on the whole grid."""
        return {b: atom_mask(b, self.params) for b in self.members}


def _scatter(ss: SampleSet) -> np.ndarray:
    """Real T-grid holding the samples, zero elsewhere.

    Refuses a sample set that does not hit every point of M(B) exactly once
    with a finite value: any such set would reconstruct to a wrong image.
    """
    T = ss.params.T
    if ((ss.coords < 0) | (ss.coords >= np.asarray(T))).any():
        raise MissingSamplesError(f"sample coordinates outside [0, T) for T={T}")
    flat = np.ravel_multi_index(tuple(ss.coords.T), T)
    hit = np.zeros(T, dtype=bool)
    hit.flat[flat] = True
    if np.count_nonzero(hit) != len(flat):
        raise MissingSamplesError("sample coordinates are repeated")
    expected = manhattan_indicator(ss.collection)
    if not np.array_equal(hit, expected):
        raise MissingSamplesError(
            f"{np.count_nonzero(expected & ~hit)} points of M({ss.collection}) "
            f"missing, {np.count_nonzero(hit & ~expected)} samples off it"
        )
    if not np.isfinite(ss.values).all():
        raise DomainError("sample values must be finite")
    x = np.zeros(T)
    x.flat[flat] = ss.values
    return x


def _reduced(axes: tuple[np.ndarray, ...], m: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Open-mesh index of a block's bins taken modulo the reduced extents m."""
    return np.ix_(*(u % mi for u, mi in zip(axes, m)))


def _fold(
    block: np.ndarray, axes: tuple[np.ndarray, ...], m: tuple[int, ...]
) -> np.ndarray:
    """Sum of the replicas of a block spectrum modulo the reduced extents m."""
    idx = np.ravel_multi_index(_reduced(axes, m), m).ravel()
    n = prod(m)
    real = np.bincount(idx, block.real.ravel(), n)
    imag = np.bincount(idx, block.imag.ravel(), n)
    return (real + 1j * imag).reshape(m)


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    params = ss.params
    T = params.T
    plan = ReconstructionPlan.for_collection(ss.collection)
    x = _scatter(ss)
    blocks: dict[BiStep, np.ndarray] = {}  # spectrum of x^b on its atom's block
    for b in plan.members:
        s = params.step_int(b)
        m = tuple(t // si for t, si in zip(T, s))
        R = np.fft.fftn(x[tuple(slice(None, None, si) for si in s)]) * prod(s)
        for b_prime, block in blocks.items():
            if b_prime.weight > b.weight:
                R -= _fold(block, plan.axes[b_prime], m)
        blocks[b] = R[_reduced(plan.axes[b], m)]
    spectrum = np.zeros(T, dtype=np.complex128)
    for b, block in blocks.items():
        spectrum[np.ix_(*plan.axes[b])] = block
    return idft(Grid(T, spectrum))


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero every DFT bin outside the Manhattan region; idempotent."""
    if c.params.T is None or tuple(image.extents) != tuple(c.params.T):
        raise DomainError("image extents do not match params T")
    return idft(apply_mask(dft(image), region_mask(c)))


def spectrum_report(image: Grid, eps: float = 1e-12) -> Grid:
    """Centered log-magnitude spectrum of an image or a spectrum, for display."""
    spec = image.data if np.iscomplexobj(image.data) else dft(image).data
    report = np.log10(np.abs(np.fft.fftshift(spec)) + eps)
    return Grid(image.extents, report)


@dataclass(frozen=True)
class SpatialFilter:
    """Continuous-space impulse response whose spectrum is the atom of b."""

    b: BiStep
    params: ManhattanParams

    def center(self, i: int) -> float:
        lam = float(self.params.lam[i])
        k = self.params.k[i]
        return 0.5 * (1.0 / (2.0 * lam) + 1.0 / (2.0 * k * lam))

    def width(self, i: int) -> float:
        lam = float(self.params.lam[i])
        k = self.params.k[i]
        if self.b.bits[i]:
            return 1.0 / (2.0 * lam) - 1.0 / (2.0 * k * lam)
        return 1.0 / (k * lam)


def spatial_filter_eval(f: SpatialFilter, t) -> float:
    """Pointwise evaluation: product of scaled sincs, modulated along the
    highpass dimensions."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (f.params.d,):
        raise DomainError("coordinate length does not match d")
    value = 1.0
    for i in range(f.params.d):
        w = f.width(i)
        value *= w * np.sinc(w * t[i])
        if f.b.bits[i]:
            value *= 2.0 * np.cos(2.0 * np.pi * f.center(i) * t[i])
    return float(value)
