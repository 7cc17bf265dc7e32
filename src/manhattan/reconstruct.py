"""Onion-peeling reconstruction of Manhattan-bandlimited images.

The sweep recovers the spectrum one atom at a time, highest weight first.
Higher-weight atoms alias lower-weight ones, never the reverse, and atom b
is reached only by the replicas of its supersets b' (Lemma 1,
``freq.guaranteed_disjoint``), so the peeling terminates with the lowpass
atom and the summed spectrum inverts to the original image.

By the replica identity, the half spectrum (``grid``) of the samples on
lattice b (steps s, reduced extents m = T/s) is ``rfftn(x[::s]) * prod(s)``
less every recovered superset block folded modulo m; atom b lies inside the
Nyquist cell of lattice b, so what is left on its kept indices is its block,
and zeroing them, peeling it, is its own fold.  Lattice b - e_i (i not the
last axis) is lattice b subsampled by k_i on axis i, and a fold modulo m
summed over the k_i replicas on axis i is a fold modulo its m: that member
sums b's residual and folds only the supersets not above b (6 folds instead
of 12 on 3D facets, 1 instead of 2 on 2D ``10,01``; outputs move by rounding
only, within 1e-12, not bit for bit).  Any other member reads its ``x[::s]``
straight from the canonical sample values (``sampler._lattice_reader``).
``_sweep`` compiles all this once per ``Collection`` into slices and small
index arrays, keeping the last ``_SWEEPS``; ``reconstruct`` and ``bandlimit``,
its s = 1 gathers alone, replay it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .freq import FreqMask, atom_axes, atom_mask
from .grid import (
    Axes, Grid, _fold, _fold_slices, _gather, _layout, _raw_spectrum, _slices, synthesize,
)
from .sampler import SampleSet, _canonical_values, _lattice_reader

_SWEEPS = 16  # compiled sweeps kept, least recently used dropped first


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


# One member b of a compiled sweep: its name "atom b"; ``read``, its x[::s], or None;
# its steps s; its folds, (superset, ``_fold_slices`` modulo m), one for each superset
# its source still holds (Lemma 1: other replicas miss atom b); the ``_slices`` modulo
# m and shape of its lower block; its children, (member, axis i, k_i), which sum its
# residual; and that block's ``_layout`` on T.
_Step = namedtuple("_Step", "name read s folds gather shape children layout")


@lru_cache(maxsize=_SWEEPS)
def _sweep(c: Collection) -> tuple[_Step, ...]:
    """The sweep of a collection, compiled.  A member b's parent, whose residual
    it sums, is the first member b | e_i in sweep order, i not the last axis."""
    plan = ReconstructionPlan.for_collection(c)
    p, T, lower = plan.params, plan.params.T, plan.lower
    parent: dict[BiStep, tuple[BiStep, int]] = {}
    for b in plan.members:
        for i in np.flatnonzero(b.bits[:-1]).tolist():
            parent.setdefault(BiStep((*b.bits[:i], 0, *b.bits[i + 1 :])), (b, i))
    steps = []
    for j, b in enumerate(plan.members):
        s = p.step_int(b)
        m = tuple(t // si for t, si in zip(T, s))
        up = parent.get(b, (None,))[0]  # whose residual has every b' ⊇ up folded out
        folds = tuple((f"atom {bp}", _fold_slices(lower[bp], m)) for bp in plan.members[:j]
                      if b.issubset(bp) and not (up is not None and up.issubset(bp)))
        children = tuple((f"atom {sub}", i, p.k[i]) for sub, (q, i) in parent.items() if q == b)
        read = _lattice_reader(c, s) if up is None else None  # else a replica sum
        steps.append(_Step(f"atom {b}", read, s, folds, _slices(lower[b], m),
                           tuple(map(len, lower[b])), children, _layout(lower[b], T)))
    return tuple(steps)


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    values = _canonical_values(ss)  # refuses a bad sample set before the plan
    sums: dict[str, np.ndarray] = {}  # half spectra of members yet to come
    blocks: dict[str, tuple] = {}  # layout and spectrum of x^b on its atom's lower block
    for step in _sweep(ss.collection):
        if (H := sums.pop(step.name, None)) is None:  # x[::s] is dropped once transformed
            H = _raw_spectrum(step.read(values), step.s)
        for name, folds in step.folds:
            _fold(H, blocks[name][1], folds)
        blocks[step.name] = step.layout, _gather(H, step.gather, step.shape)
        if step.children:  # peel atom b: the residual has it folded out too
            for _, dst in step.gather:
                H[dst] = 0
        for name, i, k in step.children:
            sums[name] = H.reshape(*H.shape[:i], k, -1, *H.shape[i + 1 :]).sum(i)
        del H  # before the next member's spectrum is built
    return synthesize(ss.collection.params.T, blocks)


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero the image's spectrum outside the Manhattan region, its atoms; idempotent."""
    x, T = image.image(c.params.extents), c.params.T
    H = _raw_spectrum(x, (1,) * len(T))
    blocks = {st.name: (st.layout, _gather(H, st.layout[0], st.shape))  # s = 1: slices onto T
              for st in _sweep(c)}
    del H  # not held through synthesis
    return synthesize(T, blocks)
