"""Independent brute-force reconstruction by direct linear solve.

Builds the synthesis system mapping the spectrum bins inside the Manhattan
region to the sample values, and solves it by least squares.  Deliberately
shares nothing with the onion-peeling engine beyond the region mask, so the
two can cross-validate each other on tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DomainError, NumericalFailureError
from .freq import region_mask
from .grid import Grid
from .sampler import SampleSet

SIZE_GUARD = 4096
RESIDUAL_TOL = 1e-8


def _synthesis_matrix(ss: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Matrix A with A[s, u] = exp(+2j pi sum_i u_i t_i / T_i) / prod(T),
    one row per sample, one column per kept bin of the region mask."""
    params = ss.params
    T = np.asarray(params.T)
    if prod(params.T) > SIZE_GUARD:
        raise DomainError(f"grid size {prod(params.T)} exceeds guard {SIZE_GUARD}")
    bins = np.argwhere(region_mask(ss.collection).kept)
    phase = (ss.coords / T) @ bins.T  # (n_samples, n_bins)
    A = np.exp(2j * np.pi * phase) / prod(params.T)
    return A, bins


def solve_reconstruct(ss: SampleSet) -> Grid:
    """Least-squares solve for the in-region spectrum, then invert."""
    params = ss.params
    if not np.isfinite(ss.values).all():
        raise DomainError("sample values must be finite")
    A, bins = _synthesis_matrix(ss)
    if A.shape[0] < A.shape[1]:
        raise DomainError(
            f"underdetermined system: {A.shape[0]} samples, {A.shape[1]} bins"
        )
    coeffs, *_ = np.linalg.lstsq(A, ss.values, rcond=None)
    norm = np.linalg.norm(ss.values)
    residual = np.linalg.norm(A @ coeffs - ss.values)
    if residual > RESIDUAL_TOL * max(norm, 1.0):
        raise NumericalFailureError(
            f"inconsistent samples: residual {residual:.3e} vs norm {norm:.3e}"
        )
    spectrum = np.zeros(params.T, dtype=np.complex128)
    spectrum[tuple(bins.T)] = coeffs
    return Grid(tuple(params.T), np.fft.ifftn(spectrum).real)


@dataclass(frozen=True)
class RankReport:
    rows: int
    cols: int
    rank: int

    @property
    def full_column_rank(self) -> bool:
        return self.rank == self.cols


def rank_report(ss: SampleSet) -> RankReport:
    """Numerical rank of the synthesis system; full column rank certifies that
    the samples determine the bandlimited image uniquely."""
    A, _ = _synthesis_matrix(ss)
    return RankReport(
        rows=A.shape[0], cols=A.shape[1], rank=int(np.linalg.matrix_rank(A))
    )
