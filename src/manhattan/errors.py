"""Exception hierarchy shared across the package."""


class ManhattanError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ManhattanError):
    """Bi-step vectors or grids of mismatched dimensionality."""


class DomainError(ManhattanError):
    """Inputs outside an operation's domain (bad params, coordinates, masks)."""


class MissingSamplesError(ManhattanError):
    """Samples do not cover the Manhattan set exactly once: a coordinate is
    missing, repeated, off M(B) or outside [0, T), or a comb was requested
    for a lattice the collection does not cover."""


class FormatError(ManhattanError):
    """Malformed file contents (bad magic, truncated payload, bad header)."""


class NumericalFailureError(ManhattanError):
    """A numerical sanity check failed (imaginary residue, solver residual)."""
