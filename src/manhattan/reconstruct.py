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
gathered straight into the output half spectrum, where later folds read it.
Each step reads a member b: it transforms b's ``x[::s]`` straight into its spectrum's rows,
paired by ``sampler._cells`` as ``extract_samples`` reads them, folds b's supersets, gathers
atom b and, zeroing it there, peels it: its own fold.  Its leaves take the rest.  Lattice a
below b with b's last step is lattice b subsampled by k_i on each axis i of J, where b is
dense and a coarse, so its spectrum is b's replicas summed over J, and summing after a fold
modulo b's m folds modulo a's.  Once a's supersets are done, b's step folds those still in
its residual, earlier leaves among them, and sums the replicas at a's bins alone, straight
into the output: an atom that is not a superset of a never lands there (Lemma 1).
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

# A plan's read b: "atom b"; the ``_cells`` pairs of its x[::s]; its steps s; the ``_fold_slices``
# modulo m of each strict superset (Lemma 1); its lower block's slices modulo m onto T; its
# leaves a: "atom a"; the folds modulo b's m that b's residual lacks; per slice modulo a's m,
# the place in the half and the index into H.reshape(shape) of the replicas summed over axes.
_Step = namedtuple("_Step", "name read s folds gather leaves")
_Leaf = namedtuple("_Leaf", "name folds gather shape axes")


@dataclass(frozen=True, eq=False)
class ReconstructionPlan:
    """A collection's sweep, compiled: closure members in plan order (weight descending,
    bitmask ascending) with the per-axis kept DFT indices of their atoms, and the steps,
    in turn order, each a read and its leaves, whose gathers place each atom's lower-only
    block (its last axis stops at T//2) in a half spectrum; ``atoms`` names every member
    once, a leaf after its read.  Plans compare and hash by identity."""

    members: tuple[BiStep, ...]
    axes: dict[BiStep, Axes]
    params: ManhattanParams
    steps: tuple[_Step, ...]

    @classmethod
    @lru_cache(maxsize=16)  # compiled plans kept, least recently used dropped first
    def for_collection(cls, c: Collection) -> "ReconstructionPlan":
        """The plan, compiled once per collection.  Read b's leaves are the members below it
        with its last bit whose supersets are done, in plan order; the next read is the ready
        member that leaves the fewest of those waiting, the first in plan order if tied."""
        p, T = c.params, c.params.T
        members = tuple(c.closure().sorted_members())
        axes = {b: tuple(map(np.flatnonzero, atom_axes(b, p))) for b in members}
        lower = {b: (*u[:-1], u[-1][u[-1] <= T[-1] // 2]) for b, u in axes.items()}
        above = {b: {a for a in members if a != b and b.issubset(a)} for b in members}
        below = {b: [a for a in members if b in above[a] and a.bits[-1] == b.bits[-1]]
                 for b in members}
        reduced = lambda b: tuple(t // si for t, si in zip(T, p.step_int(b)))
        # r, per axis, with x[i] put before r[i] on each axis i of J: there b's k_i replicas of a's
        split = lambda J, r, x: sum(((x[i], v) if i in J else (v,) for i, v in enumerate(r)), ())

        def leaves(b: BiStep, done: set) -> list[BiStep]:  # b's, were b read next
            return [a for a in below[b] if a not in done and above[a] - done <= {b, *below[b]}]

        done, steps = set(), []
        while len(done) < len(members):
            ready = [b for b in members if b not in done and above[b] <= done]
            b = min(ready, key=lambda b: len(set(below[b]) - done) - len(leaves(b, done)))
            taken, s, m = leaves(b, done), p.step_int(b), reduced(b)
            done |= {b, *taken}
            fold = lambda bps: tuple(_fold_slices(lower[bp], T, m) for bp in members if bp in bps)
            out, written = above[b] | {b}, []  # out: the atoms folded out of b's residual
            for a in taken:  # J: the axes where b is dense and a coarse, never the last
                J, ma = [i for i in range(p.d) if b.bits[i] > a.bits[i]], reduced(a)
                gather = tuple((src, split(J, dst, (slice(None),) * p.d))
                               for src, dst in _slices(lower[a], ma, lower[a]))
                written.append(_Leaf(f"atom {a}", fold(above[a] - out), gather,
                                     split(J, (*ma[:-1], ma[-1] // 2 + 1), p.k),
                                     tuple(i + n for n, i in enumerate(J))))
                out |= above[a]  # a's own atom stays in the residual
            steps.append(_Step(f"atom {b}", _cells(c, s), s, fold(above[b]),
                               _slices(lower[b], m, lower[b]), tuple(written)))
        return cls(members, axes, p, tuple(steps))

    @property
    def masks(self) -> dict[BiStep, FreqMask]:
        """Full-size atom masks, for callers that work on the whole grid; not kept."""
        return {b: atom_mask(b, self.params) for b in self.members}

    @property
    def atoms(self) -> tuple:
        """Every member's step or leaf, in the order its atom is written: all of them."""
        return tuple(st for step in self.steps for st in (step, *step.leaves))


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    T, plan = ss.collection.params.T, ReconstructionPlan.for_collection(ss.collection)
    half = np.zeros((*T[:-1], T[-1] // 2 + 1), dtype=np.complex128)  # every atom's bins
    with np.errstate(over="ignore", invalid="ignore"):  # refused by synthesize; restores bufsize
        np.setbufsize(256)  # elements per strided operand, not 8192: 4 KB, not 128 KB
        for step in plan.steps:
            H = _raw_spectrum(T, step.s, step.read, ss.values)  # x[::s], transformed in place
            for folds in step.folds:
                _fold(H, half, folds)
            _gather(half, H, step.gather)
            for _, dst in step.gather if step.leaves else ():  # peel atom b: its own fold
                H[dst] = 0
            for leaf in step.leaves:  # into half: b's replicas on the axes J summed
                for folds in leaf.folds:
                    _fold(H, half, folds)
                for src, at in leaf.gather:
                    H.reshape(leaf.shape)[at].sum(leaf.axes, out=half[src])
            del H  # before the next member's spectrum is built
        return synthesize(T, half)


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero the image's spectrum outside the Manhattan region, its atoms; idempotent."""
    x, T, plan = image.image(c.params.extents), c.params.T, ReconstructionPlan.for_collection(c)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is synthesize's to refuse
        half = _raw_spectrum(T, (1,) * len(T), lambda *xy: [tuple(map(np.atleast_2d, xy))], x)
        outside = np.ones(half.shape, dtype=bool)
        for src, _ in (pair for atom in plan.atoms for pair in atom.gather):
            outside[src] = False
        half[outside] = 0
        del outside  # not held through synthesis
        return synthesize(T, half)
