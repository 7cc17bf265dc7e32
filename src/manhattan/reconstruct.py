"""Onion-peeling reconstruction of Manhattan-bandlimited images.

The sweep recovers the spectrum one atom at a time, highest weight first.
Higher-weight atoms alias lower-weight ones, never the reverse, and atom b
is reached only by the replicas of its supersets b' (Lemma 1,
``freq.guaranteed_disjoint``), so the peeling terminates with the lowpass
atom and the summed spectrum inverts to the original image.

By the replica identity, the half spectrum (``grid``) of the samples on
lattice b (steps s, reduced extents m = T/s) is ``rfftn(x[::s]) * prod(s)``
less every recovered superset atom folded modulo m; atom b lies inside the
Nyquist cell of lattice b, so what is left on its kept indices is atom b,
gathered straight into the output half spectrum, where later folds read it;
zeroing them, peeling it, is its own fold.  Lattice b - e_i (i not the last
axis) is lattice b subsampled by k_i on axis i: that member sums b's residual
over the k_i replicas on axis i, in b's memory if it is b's last child and is
ready once b is done, and folds only the supersets not above b.  Any other
member copies its ``x[::s]`` into its own spectrum's memory from the canonical values through
``sampler._cells``, as ``extract_samples`` reads them from an image, with no full-size mask.
``ReconstructionPlan.for_collection`` compiles this once per ``Collection`` into one cached
plan, which ``reconstruct`` replays and ``bandlimit`` reads for the bins its gathers place;
both hand ``synthesize`` the half spectrum that holds the atoms and nothing else, with numpy's
warnings off: its finite-and-Hermitian check is the one on the values after ``SampleSet``'s.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .freq import FreqMask, atom_axes, atom_mask
from .grid import Axes, Grid, _fold, _fold_slices, _gather, _raw_spectrum, _slices, synthesize
from .sampler import SampleSet, _cells

# A plan's member b: "atom b"; the ``_cells`` pairs of its x[::s], or None; its steps s; the
# ``_fold_slices`` modulo m of each superset its source holds (Lemma 1); its lower block's
# slices modulo m onto T; its children (member, axis i, k_i, in b's memory), summing b's residual.
_Step = namedtuple("_Step", "name read s folds gather children")


@dataclass(frozen=True, eq=False)
class ReconstructionPlan:
    """A collection's sweep, compiled: closure members in plan order (weight descending,
    bitmask ascending) with the per-axis kept DFT indices of their atoms, and the steps,
    in turn order, whose gathers place each atom's lower-only block (its last axis stops
    at T//2) in a half spectrum.  Plans compare and hash by identity."""

    members: tuple[BiStep, ...]
    axes: dict[BiStep, Axes]
    params: ManhattanParams
    steps: tuple[_Step, ...]

    @classmethod
    @lru_cache(maxsize=16)  # compiled plans kept, least recently used dropped first
    def for_collection(cls, c: Collection) -> "ReconstructionPlan":
        """The plan, compiled once per collection.  Member b's parent, whose residual it
        sums, is the first b | e_i, i not the last axis.  b's turn comes after its supersets':
        first one whose sum is held, else the read leaving fewest children waiting."""
        p, T = c.params, c.params.T
        members = tuple(c.closure().sorted_members())
        axes = {b: tuple(map(np.flatnonzero, atom_axes(b, p))) for b in members}
        lower = {b: (*u[:-1], u[-1][u[-1] <= T[-1] // 2]) for b, u in axes.items()}
        parent: dict[BiStep, tuple[BiStep, int]] = {}
        for b in members:
            for i in np.flatnonzero(b.bits[:-1]).tolist():
                parent.setdefault(BiStep((*b.bits[:i], 0, *b.bits[i + 1 :])), (b, i))
        kids = {b: [a for a, (q, _) in parent.items() if q == b] for b in members}
        above = {b: {a for a in members if a != b and b.issubset(a)} for b in members}
        order: list[BiStep] = []
        while len(order) < len(members):
            ready = [b for b in members if b not in order and above[b].issubset(order)]
            order.append(min(ready, key=lambda b: (b not in parent, sum(
                not above[a] <= {b, *order} for a in kids[b]))))
        steps = []
        for turn, b in enumerate(order):
            s = p.step_int(b)
            m = tuple(t // si for t, si in zip(T, s))
            up = parent.get(b, (None,))[0]  # whose residual has every b' ⊇ up folded out
            folds = tuple(_fold_slices(lower[bp], T, m) for bp in members
                          if bp in above[b] and not (up is not None and up.issubset(bp)))
            children = tuple((f"atom {a}", parent[a][1], p.k[parent[a][1]], a == kids[b][-1]
                              and above[a].issubset(order[: turn + 1])) for a in kids[b])
            read = _cells(c, s) if up is None else None  # else a replica sum
            steps.append(_Step(f"atom {b}", read, s, folds, _slices(lower[b], m, lower[b]),
                               children))
        return cls(members, axes, p, tuple(steps))

    @property
    def masks(self) -> dict[BiStep, FreqMask]:
        """Full-size atom masks, for callers that work on the whole grid; not kept."""
        return {b: atom_mask(b, self.params) for b in self.members}


def _replica_sum(H: np.ndarray, i: int, k: int, in_place: bool) -> np.ndarray:
    """H summed over its k replicas on axis i, in H's memory if ``in_place``: there
    by one index before axis i at a time, as numpy copies what may overlap."""
    parts = H.reshape(*H.shape[:i], k, -1, *H.shape[i + 1 :])
    if not in_place:
        return parts.sum(i)
    for at in np.ndindex(H.shape[:i]):
        total, *rest = parts[at]
        for part in rest:
            total += part
    return parts[(slice(None),) * i + (0,)]


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    T, plan = ss.collection.params.T, ReconstructionPlan.for_collection(ss.collection)
    half = np.zeros((*T[:-1], T[-1] // 2 + 1), dtype=np.complex128)  # every atom's bins
    sums: dict[str, np.ndarray] = {}  # half spectra of members yet to come
    with np.errstate(over="ignore", invalid="ignore"):  # refused by synthesize; restores bufsize
        np.setbufsize(256)  # elements per strided operand, not 8192: 4 KB, not 128 KB
        for step in plan.steps:
            if (H := sums.pop(step.name, None)) is None:  # x[::s] is transformed in place
                H = _raw_spectrum(T, step.s, step.read, ss.values)
            for folds in step.folds:
                _fold(H, half, folds)
            _gather(half, H, step.gather)
            if step.children:  # peel atom b: the residual has it folded out too
                for _, dst in step.gather:
                    H[dst] = 0
            for name, i, k, in_place in step.children:  # in place: it keeps H's memory
                sums[name] = _replica_sum(H, i, k, in_place)
            del H  # before the next member's spectrum is built
        return synthesize(T, half)


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero the image's spectrum outside the Manhattan region, its atoms; idempotent."""
    x, T, plan = image.image(c.params.extents), c.params.T, ReconstructionPlan.for_collection(c)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is synthesize's to refuse
        half = _raw_spectrum(T, (1,) * len(T), lambda v, y: [(v, y)], x)
        outside = np.ones(half.shape, dtype=bool)
        for src, _ in (pair for step in plan.steps for pair in step.gather):
            outside[src] = False
        half[outside] = 0
        del outside  # not held through synthesis
        return synthesize(T, half)
