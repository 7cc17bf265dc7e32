"""Onion-peeling reconstruction of Manhattan-bandlimited images.

The sweep recovers the spectrum one atom at a time, highest weight first.
Higher-weight atoms alias lower-weight ones, never the reverse, and atom b
is reached only by the replicas of its supersets b' (Lemma 1,
``freq.guaranteed_disjoint``), so the peeling terminates with the lowpass
atom and the summed spectrum inverts to the original image.

By the replica identity, the half spectrum (``grid``) of the samples on
lattice b (steps s, reduced extents m = T/s) is ``rfftn(x[::s]) * prod(s)``
less every recovered superset block folded modulo m; atom b lies inside the
Nyquist cell of lattice b, so what is left on its kept indices is its block.
Lattice b is lattice b | e_i (i not the last axis) subsampled by k_i on axis
i, so its raw spectrum is also that one's summed over k_i replicas on axis i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .errors import DomainError, NumericalFailureError
from .freq import FreqMask, atom_axes, atom_mask, region_mask
from .grid import Axes, Grid, _fold, _gather, apply_mask, dft, idft, synthesize
from .sampler import SampleSet, grid_from_samples

SPECTRUM_FLOOR = 1e-12  # keeps log10 finite on empty bins in spectrum_report


@dataclass(frozen=True)
class ReconstructionPlan:
    """Closure members in sweep order (weight descending, bitmask ascending)
    with the per-axis kept DFT indices of their atoms."""

    members: tuple[BiStep, ...]
    axes: dict[BiStep, Axes]
    params: ManhattanParams

    @classmethod
    def for_collection(cls, c: Collection) -> "ReconstructionPlan":
        members = tuple(c.closure().sorted_members())
        axes = {b: tuple(map(np.flatnonzero, atom_axes(b, c.params))) for b in members}
        return cls(members, axes, c.params)

    @cached_property
    def masks(self) -> dict[BiStep, FreqMask]:
        """Full-size atom masks, for callers that work on the whole grid."""
        return {b: atom_mask(b, self.params) for b in self.members}


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    p, T = ss.params, ss.params.T
    plan = ReconstructionPlan.for_collection(ss.collection)
    lower = {b: (*u[:-1], u[-1][u[-1] <= T[-1] // 2]) for b, u in plan.axes.items()}
    x = grid_from_samples(ss).data
    sums: dict[BiStep, np.ndarray] = {}  # raw spectra of members yet to come
    blocks: dict[BiStep, np.ndarray] = {}  # spectrum of x^b on its atom's lower block
    for b in plan.members:
        s = p.step_int(b)
        m = tuple(t // si for t, si in zip(T, s))
        xb = x[tuple(slice(None, None, si) for si in s)]  # the samples on lattice b
        H = sums.pop(b) if b in sums else np.fft.rfftn(xb) * prod(s)
        for i, bit in enumerate(b.bits[:-1]):
            sub = BiStep((*b.bits[:i], 0, *b.bits[i + 1 :]))
            if bit and sub not in sums:  # replica sum over axis i, before the folds
                sums[sub] = H.reshape(*H.shape[:i], p.k[i], -1, *H.shape[i + 1 :]).sum(i)
        for b_prime, block in blocks.items():
            if b.issubset(b_prime):  # other replicas miss atom b (Lemma 1)
                _fold(H, lower[b_prime], block, m)
        blocks[b] = _gather(H, lower[b], m)
    return synthesize(T, {f"atom {b}": (lower[b], block) for b, block in blocks.items()})


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero every DFT bin outside the Manhattan region; idempotent."""
    c.params.check_extents(image.extents)
    return idft(apply_mask(dft(image), region_mask(c)))


def spectrum_report(image: Grid) -> Grid:
    """Centered log-magnitude spectrum of an image or a spectrum, for display."""
    spec = image.data if np.iscomplexobj(image.data) else dft(image).data
    if not np.isfinite(spec).all():
        raise NumericalFailureError("spectrum is not finite (NaN or inf)")
    report = np.log10(np.abs(np.fft.fftshift(spec)) + SPECTRUM_FLOOR)
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
