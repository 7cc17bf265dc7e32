"""Manhattan sampling: bi-step lattice unions, exact density accounting, and
perfect reconstruction of Manhattan-bandlimited images via frequency-space
onion peeling."""

from .core import (
    BiStep,
    Collection,
    ManhattanParams,
    density,
    fundamental_cell_count,
    lattice_contains,
    manhattan_contains,
    v_class,
)
from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    ManhattanError,
    MissingSamplesError,
    NumericalFailureError,
)
from .freq import (
    FreqMask,
    atom_mask,
    atom_volume,
    guaranteed_disjoint,
    manhattan_region_volume,
    nyquist_mask,
    region_mask,
    replica_overlap_oracle,
)
from .grid import Grid, dft, idft, read_mht1, read_pgm, write_mht1, write_pgm
from .oracle import rank_report, solve_reconstruct
from .reconstruct import (
    ReconstructionPlan,
    bandlimit,
    reconstruct,
    spectrum_report,
)
from .sampler import (
    CombGrid,
    SampleSet,
    comb_from_grid,
    comb_from_samples,
    extract_samples,
    read_mhs1,
    write_mhs1,
)

__all__ = [
    "BiStep", "Collection", "ManhattanParams", "density", "fundamental_cell_count",
    "lattice_contains", "manhattan_contains", "v_class",
    "DimensionError", "DomainError", "FormatError", "ManhattanError",
    "MissingSamplesError", "NumericalFailureError",
    "FreqMask", "atom_mask", "atom_volume", "guaranteed_disjoint",
    "manhattan_region_volume", "nyquist_mask", "region_mask", "replica_overlap_oracle",
    "Grid", "dft", "idft",
    "read_mht1", "read_pgm", "write_mht1", "write_pgm",
    "rank_report", "solve_reconstruct",
    "ReconstructionPlan", "bandlimit", "reconstruct", "spectrum_report",
    "CombGrid", "SampleSet", "comb_from_grid", "comb_from_samples", "extract_samples",
    "read_mhs1", "write_mhs1",
]
__version__ = "0.1.0"
