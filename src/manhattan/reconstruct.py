"""Onion-peeling reconstruction of Manhattan-bandlimited images.

The sweep recovers the spectrum one atom at a time, highest weight first.
Higher-weight atoms alias lower-weight ones, never the reverse, and atom b
is reached only by the replicas of its supersets b' (Lemma 1,
``freq.guaranteed_disjoint``), so the peeling terminates with the lowpass
atom and the summed spectrum inverts to the original image.

The image is real, so every spectrum is Hermitian and the sweep keeps only
the half with last-axis residues 0..m//2.  By the replica identity, the
comb spectrum of the samples on lattice b (steps s, reduced extents
m = T/s) is ``rfftn(x[::s]) * prod(s)`` tiled with period m, and that of a
recovered superset component x^{b'} is its spectrum folded modulo m: an
atom's kept indices modulo m form a few runs per axis, so a fold is a few
slice subtractions.  Atom b lies inside the Nyquist cell of lattice b, so
its block is read at ``u mod m``, or as the conjugate of bin ``-u mod m``
where the last residue exceeds m//2.  The blocks, checked to be Hermitian,
fill one half spectrum of extents T, and one ``irfftn`` gives the image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .errors import DomainError
from .freq import FreqMask, atom_axes, atom_mask, region_mask
from .grid import Grid, apply_mask, check_hermitian, dft, idft
from .sampler import SampleSet, grid_from_samples

Axes = tuple[np.ndarray, ...]  # per-axis kept DFT indices, ascending
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


def _runs(u: np.ndarray, m: int, top: int) -> list[tuple[slice, slice]]:
    """(position, residue) slices over the runs of consecutive residues of
    the ascending kept indices u modulo m, clipped to residues 0..top."""
    r = (u % m).tolist()
    edges = [0, *(np.flatnonzero(np.diff(r) != 1) + 1).tolist(), len(r)]
    runs = [(a, min(z - a, top - r[a] + 1)) for a, z in zip(edges, edges[1:]) if a < z]
    return [(slice(a, a + n), slice(r[a], r[a] + n)) for a, n in runs if n > 0]


def _slices(axes: Axes, m: tuple[int, ...]) -> list[tuple]:
    """(block, half-spectrum) slice pairs folding a block over the kept indices
    modulo m onto last-axis residues 0..m//2; none if an axis keeps nothing."""
    tops = [*(mi - 1 for mi in m[:-1]), m[-1] // 2]
    per_axis = [_runs(u, mi, top) for u, mi, top in zip(axes, m, tops)]
    return [tuple(zip(*pairs)) for pairs in itertools.product(*per_axis)]


def _mirror(block: np.ndarray, axes: Axes) -> np.ndarray:
    """A block over kept index sets closed under negation, read at -u: each
    axis reversed, then rolled by one where it keeps 0 (its own mirror)."""
    shift = [int(len(u) > 0 and u[0] == 0) for u in axes]
    return np.roll(np.flip(block), shift, range(block.ndim))


def _gather(half: np.ndarray, axes: Axes, m: tuple[int, ...]) -> np.ndarray:
    """Block over the kept indices u of a Hermitian spectrum with extents m,
    from its half: bin u mod m, or conj(block[-u]) past residue m//2."""
    block = np.empty([len(u) for u in axes], dtype=np.complex128)
    for src, dst in _slices(axes, m):
        block[src] = half[dst]
    lower = np.count_nonzero(axes[-1] % m[-1] <= m[-1] // 2)
    block[..., lower:] = np.conj(_mirror(block, axes)[..., lower:])
    return block


def _assemble(plan: ReconstructionPlan, blocks: dict[BiStep, np.ndarray]) -> np.ndarray:
    """Last-axis half spectrum from the atom blocks; each must be Hermitian
    relative to the largest |X[u]| of all blocks."""
    T = plan.params.T
    peak = max(np.abs(block).max(initial=0.0) for block in blocks.values())
    half = np.zeros((*T[:-1], T[-1] // 2 + 1), dtype=np.complex128)
    for b, block in blocks.items():
        axes = plan.axes[b]
        n = np.count_nonzero(axes[-1] <= T[-1] // 2)  # the rest mirror these
        check_hermitian(block[..., :n], _mirror(block, axes)[..., :n], peak, f"atom {b}")
        for src, dst in _slices(axes, T):
            half[dst] = block[src]
    return half


def reconstruct(ss: SampleSet) -> Grid:
    """Recover a Manhattan-bandlimited image from its samples (any d)."""
    T = ss.params.T
    plan = ReconstructionPlan.for_collection(ss.collection)
    x = grid_from_samples(ss).data
    blocks: dict[BiStep, np.ndarray] = {}  # spectrum of x^b on its atom's block
    for b in plan.members:
        s = ss.params.step_int(b)
        m = tuple(t // si for t, si in zip(T, s))
        H = np.fft.rfftn(x[tuple(slice(None, None, si) for si in s)]) * prod(s)
        for b_prime, block in blocks.items():
            if b.issubset(b_prime):  # other replicas miss atom b (Lemma 1)
                for src, dst in _slices(plan.axes[b_prime], m):
                    H[dst] -= block[src]
        blocks[b] = _gather(H, plan.axes[b], m)
    half = _assemble(plan, blocks)
    return Grid(T, np.fft.irfftn(half, s=T, axes=tuple(range(len(T)))))


def bandlimit(image: Grid, c: Collection) -> Grid:
    """Zero every DFT bin outside the Manhattan region; idempotent."""
    c.params.check_extents(image.extents)
    return idft(apply_mask(dft(image), region_mask(c)))


def spectrum_report(image: Grid) -> Grid:
    """Centered log-magnitude spectrum of an image or a spectrum, for display."""
    spec = image.data if np.iscomplexobj(image.data) else dft(image).data
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
