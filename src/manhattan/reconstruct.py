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
Any other member reads its ``x[::s]`` straight from the canonical sample
values (``sampler._lattice_values``): no image of the samples is built.
``bandlimit`` is the s = 1 case of the same gather and synthesis: every atom's
block is read straight from the image's half spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .freq import FreqMask, atom_axes, atom_mask
from .grid import Axes, Grid, _fold, _gather, _raw_spectrum, synthesize
from .sampler import SampleSet, _canonical_values, _lattice_values


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
        """Image whose spectrum is the given lower-only atom blocks, zero
        elsewhere; the blocks are handed over, leaving ``blocks`` empty."""
        named = {f"atom {b}": (self.lower[b], blocks.pop(b)) for b in list(blocks)}
        return synthesize(self.params.T, named)


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    values = _canonical_values(ss)  # refuses a bad sample set before the plan
    plan = ReconstructionPlan.for_collection(ss.collection)
    p, T, lower = plan.params, plan.params.T, plan.lower
    sums: dict[BiStep, np.ndarray] = {}  # raw spectra of members yet to come
    blocks: dict[BiStep, np.ndarray] = {}  # spectrum of x^b on its atom's lower block
    for b in plan.members:
        s = p.step_int(b)
        m = tuple(t // si for t, si in zip(T, s))
        if (H := sums.pop(b, None)) is None:  # x[::s] is dropped once transformed
            H = _raw_spectrum(_lattice_values(ss.collection, values, s), s)
        for i, bit in enumerate(b.bits[:-1]):
            sub = BiStep((*b.bits[:i], 0, *b.bits[i + 1 :]))
            if bit and sub not in sums:  # replica sum over axis i, before the folds
                sums[sub] = H.reshape(*H.shape[:i], p.k[i], -1, *H.shape[i + 1 :]).sum(i)
        for b_prime in blocks:
            if b.issubset(b_prime):  # other replicas miss atom b (Lemma 1)
                _fold(H, lower[b_prime], blocks[b_prime], m)
        blocks[b] = _gather(H, lower[b], m)
        del H  # before the next member's spectrum is built
    return plan.synthesize(blocks)


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero the image's spectrum outside the Manhattan region, its atoms; idempotent."""
    x, T = image.image(c.params.extents), c.params.T
    plan = ReconstructionPlan.for_collection(c)
    H = _raw_spectrum(x, (1,) * len(T))
    blocks = {b: _gather(H, plan.lower[b], T) for b in plan.members}
    del H  # not held through synthesis
    return plan.synthesize(blocks)
