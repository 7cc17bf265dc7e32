"""Frequency-space geometry: atom volumes, DFT-index masks, replica overlap.

Continuous side: each bi-step vector b owns an "atom", the region of the
dense-lattice Nyquist orthotope that is lowpass in dimensions with b_i = 0
and highpass (two bands) where b_i = 1.  Atom volumes are exact rationals
and sum, over a collection's closure, to the sampling density (the Landau
identity).

Discrete side: the same geometry on DFT indices.  The per-dimension kept
set for step alpha is ``u < T/(2 alpha)`` or ``u > T - T/(2 alpha)``; the
index exactly at T/(2 alpha), when integral, is excluded on both ends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .core import BiStep, Collection, ManhattanParams
from .errors import DimensionError, DomainError


def atom_volume(b: BiStep, params: ManhattanParams) -> Fraction:
    """Exact volume of the atom of b: prod over dense dims of
    2*(1/(2lam) - 1/(2klam)), times prod over coarse dims of 1/(klam)."""
    if b.d != params.d:
        raise DimensionError("bi-step length does not match d")
    vol = Fraction(1)
    for bit, lam, k in zip(b.bits, params.lam, params.k):
        if bit:
            vol *= 2 * (Fraction(1, 2) / lam - Fraction(1, 2) / (k * lam))
        else:
            vol *= Fraction(1) / (k * lam)
    return vol


def manhattan_region_volume(c: Collection) -> Fraction:
    """Volume of the Manhattan region: sum of atom volumes over the closure.

    Equals the sampling density exactly (Landau identity).
    """
    return sum(
        (atom_volume(b, c.params) for b in c.closure().members),
        Fraction(0),
    )


@dataclass(frozen=True)
class FreqMask:
    """Boolean keep-mask over the DFT index grid of extents T."""

    extents: tuple[int, ...]
    kept: np.ndarray  # bool, shape == extents

    def __post_init__(self) -> None:
        if tuple(self.kept.shape) != tuple(self.extents):
            raise DimensionError("mask shape does not match extents")
        self.kept.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.kept.sum())

    def disjoint(self, other: "FreqMask") -> bool:
        if self.extents != other.extents:
            raise DimensionError("mask extents mismatch")
        return not bool((self.kept & other.kept).any())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreqMask):
            return NotImplemented
        return self.extents == other.extents and bool(
            np.array_equal(self.kept, other.kept)
        )


def axis_kept(T: int, alpha: int) -> np.ndarray:
    """Per-dimension Nyquist keep vector for step alpha on T bins."""
    if alpha <= 0 or T % alpha != 0:
        raise DomainError(f"step {alpha} must divide extent {T}")
    u = np.arange(T)  # u < T/(2 alpha) or u > T - T/(2 alpha), in integers
    return 2 * alpha * np.minimum(u, T - u) < T


def tensor_mask(axes: list[np.ndarray]) -> np.ndarray:
    """Boolean tensor product of per-dimension keep vectors."""
    return reduce(np.logical_and.outer, axes)


def nyquist_mask(params: ManhattanParams, alpha_steps: tuple[int, ...]) -> FreqMask:
    """Tensor-product discrete Nyquist mask for per-dimension steps alpha."""
    T = params.extents
    if len(alpha_steps) != params.d:
        raise DimensionError("alpha_steps must have length d")
    axes = [axis_kept(t, a) for t, a in zip(T, alpha_steps)]
    return FreqMask(T, tensor_mask(axes))


def atom_axes(b: BiStep, params: ManhattanParams) -> list[np.ndarray]:
    """Per-dimension keep vectors of the atom of b; the atom is their tensor
    product: lowpass where b_i=0, dense-minus-lowpass where b_i=1."""
    T = params.extents
    lam = params.lam_int
    axes = []
    for i in range(params.d):
        low = axis_kept(T[i], params.k[i] * lam[i])
        if b.bits[i]:
            axes.append(axis_kept(T[i], lam[i]) & ~low)
        else:
            axes.append(low)
    return axes


def atom_mask(b: BiStep, params: ManhattanParams) -> FreqMask:
    """Discrete atom of b as a keep-mask over the full DFT grid."""
    T = params.extents
    return FreqMask(T, tensor_mask(atom_axes(b, params)))


def region_mask(c: Collection) -> FreqMask:
    """Union of the atom masks over the closure of the collection."""
    T = c.params.extents
    out = np.zeros(T, dtype=bool)
    for b in c.closure().members:
        out |= atom_mask(b, c.params).kept
    return FreqMask(T, out)


def guaranteed_disjoint(s: BiStep, b: BiStep, b_prime: BiStep) -> bool:
    """Sufficient conditions under which no nonzero replica of atom b' induced
    by sampling with lattice s can overlap atom b."""
    if not (s.d == b.d == b_prime.d):
        raise DimensionError("bi-step length mismatch")
    if b.issubset(s) and b_prime.issubset(s):
        return True
    if ((b ^ b_prime) & s).weight != 0:
        return True
    if b == s and b_prime.weight <= s.weight:
        return True
    return False


def reciprocal_offsets(params: ManhattanParams, s: BiStep) -> list[tuple[int, ...]]:
    """All DFT-bin offsets of the reciprocal sites of lattice s, zero included.

    Per dimension the spatial step a contributes the a multiples of T/a.
    """
    T = params.extents
    step = params.step_int(s)
    per_dim = [
        [j * (T[i] // step[i]) for j in range(step[i])] for i in range(params.d)
    ]
    return [tuple(v) for v in itertools.product(*per_dim)]


def replica_overlap_oracle(
    s: BiStep, b: BiStep, b_prime: BiStep, params: ManhattanParams
) -> bool:
    """Brute-force check: does any nonzero-offset cyclic shift of atom b' by a
    reciprocal site of lattice s intersect atom b?"""
    T = params.extents
    lam = params.lam_int
    if any(t < 2 * k * li for t, k, li in zip(T, params.k, lam)):
        raise DomainError("oracle requires T_i >= 2*k_i*lambda_i")
    target = atom_mask(b, params).kept
    source = atom_mask(b_prime, params).kept
    union = np.zeros(T, dtype=bool)
    for shift in reciprocal_offsets(params, s):
        if all(v == 0 for v in shift):
            continue
        union |= np.roll(source, shift, axis=tuple(range(params.d)))
    return bool((union & target).any())


def all_atom_masks(params: ManhattanParams) -> dict[BiStep, FreqMask]:
    """Masks of all 2^d atoms; they partition the dense Nyquist mask."""
    d = params.d
    return {
        b: atom_mask(b, params)
        for b in (BiStep(bits) for bits in itertools.product((0, 1), repeat=d))
    }
