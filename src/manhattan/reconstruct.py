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
``bandlimit`` is the s = 1 case of the same gather and synthesis: every atom's
block is read straight from the image's half spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .errors import DomainError, NumericalFailureError
from .freq import FreqMask, atom_axes, atom_mask
from .grid import Axes, Grid, _fold, _gather, dft, synthesize
from .sampler import SampleSet, grid_from_samples

SPECTRUM_FLOOR = 1e-12  # times the peak |X|: keeps log10 finite, hides FFT noise


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

    @cached_property
    def lower(self) -> dict[BiStep, Axes]:
        """Kept indices of the lower-only atom blocks: the last axis stops at T//2."""
        t = self.params.T[-1]
        return {b: (*u[:-1], u[-1][u[-1] <= t // 2]) for b, u in self.axes.items()}

    def synthesize(self, blocks: dict[BiStep, np.ndarray]) -> Grid:
        """Image whose spectrum is the given lower-only atom blocks, zero elsewhere."""
        named = {f"atom {b}": (self.lower[b], block) for b, block in blocks.items()}
        return synthesize(self.params.T, named)


def _raw_spectrum(x: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
    """Raw half spectrum of x on the lattice of steps s: ``rfftn(x[::s]) * prod(s)``."""
    H = np.fft.rfftn(x[tuple(slice(None, None, si) for si in s)])
    H *= prod(s)
    return H


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    plan = ReconstructionPlan.for_collection(ss.collection)
    p, T, lower = plan.params, plan.params.T, plan.lower
    x = grid_from_samples(ss).data
    sums: dict[BiStep, np.ndarray] = {}  # raw spectra of members yet to come
    blocks: dict[BiStep, np.ndarray] = {}  # spectrum of x^b on its atom's lower block
    for b in plan.members:
        s = p.step_int(b)
        m = tuple(t // si for t, si in zip(T, s))
        H = sums.pop(b) if b in sums else _raw_spectrum(x, s)
        for i, bit in enumerate(b.bits[:-1]):
            sub = BiStep((*b.bits[:i], 0, *b.bits[i + 1 :]))
            if bit and sub not in sums:  # replica sum over axis i, before the folds
                sums[sub] = H.reshape(*H.shape[:i], p.k[i], -1, *H.shape[i + 1 :]).sum(i)
        for b_prime, block in blocks.items():
            if b.issubset(b_prime):  # other replicas miss atom b (Lemma 1)
                _fold(H, lower[b_prime], block, m)
        blocks[b] = _gather(H, lower[b], m)
    del x, H  # not held through irfftn
    return plan.synthesize(blocks)


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero the image's spectrum outside the Manhattan region, its atoms; idempotent."""
    T = c.params.check_extents(image.extents)
    if np.iscomplexobj(image.data):
        raise DomainError("bandlimit expects a real image, got a spectrum")
    plan = ReconstructionPlan.for_collection(c)
    H = _raw_spectrum(image.data, (1,) * len(T))
    blocks = {b: _gather(H, plan.lower[b], T) for b in plan.members}
    del H  # not held through irfftn
    return plan.synthesize(blocks)


def spectrum_report(image: Grid) -> Grid:
    """Centered log-magnitude spectrum of an image or a spectrum, for display."""
    spec = image.data if np.iscomplexobj(image.data) else dft(image).data
    if not np.isfinite(spec).all():
        raise NumericalFailureError("spectrum is not finite (NaN or inf)")
    mag = np.abs(np.fft.fftshift(spec))
    floor = SPECTRUM_FLOOR * (mag.max() or 1.0)  # 1.0 for an all-zero spectrum
    report = np.log10(mag + floor)
    return Grid(image.extents, report)

