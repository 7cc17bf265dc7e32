"""Bi-step lattices, Manhattan collections, and exact density accounting.

A bi-step lattice over dimension d steps by either the dense spacing
``lambda_i`` or the coarse spacing ``k_i * lambda_i`` in each dimension,
selected by a d-bit indicator vector.  A Manhattan set is a union of such
lattices; this module provides the indicator-vector algebra, membership
tests, closure/minimal forms of collections, the V_b partition of the dense
lattice, and exact (rational) sampling density.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, DomainError

MAX_DIMS = 16


@dataclass(frozen=True, order=True)
class BiStep:
    """d-bit indicator vector: bit i set means the lattice is dense along i."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _as_ints(self.bits, "bits"))  # True is 1, 1.0 refused
        if not all(b in (0, 1) for b in self.bits):
            raise DomainError(f"bits must be 0/1, got {self.bits}")
        if not 1 <= len(self.bits) <= MAX_DIMS:
            raise DimensionError(f"dimension must be in [1, {MAX_DIMS}]")

    @classmethod
    def from_string(cls, s: str) -> "BiStep":
        """Parse a bit string like '110'; leftmost character is dimension 1."""
        if not s or any(c not in "01" for c in s):
            raise DomainError(f"invalid bi-step string: {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def ones(cls, d: int) -> "BiStep":
        return cls((1,) * d)

    @property
    def d(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    @property
    def mask(self) -> int:
        """Integer bitmask; bit i is dimension i."""
        return sum(b << i for i, b in enumerate(self.bits))

    def _check(self, other: "BiStep") -> None:
        if self.d != other.d:
            raise DimensionError(f"length mismatch: {self.d} vs {other.d}")

    def __or__(self, other: "BiStep") -> "BiStep":
        self._check(other)
        return BiStep(tuple(a | b for a, b in zip(self.bits, other.bits)))

    def __and__(self, other: "BiStep") -> "BiStep":
        self._check(other)
        return BiStep(tuple(a & b for a, b in zip(self.bits, other.bits)))

    def __xor__(self, other: "BiStep") -> "BiStep":
        self._check(other)
        return BiStep(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def complement(self) -> "BiStep":
        return BiStep(tuple(1 - b for b in self.bits))

    def issubset(self, other: "BiStep") -> bool:
        self._check(other)
        return (self & other) == self

    def subsets(self) -> Iterator["BiStep"]:
        """All bi-step vectors contained in this one (2^weight of them)."""
        ones = [i for i, b in enumerate(self.bits) if b]
        for r in range(len(ones) + 1):
            for combo in itertools.combinations(ones, r):
                yield BiStep(tuple(1 if i in combo else 0 for i in range(self.d)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _as_fraction(x) -> Fraction:
    if not isinstance(x, (numbers.Rational, str)):  # 0.1 is not 1/10; no guessing
        raise DomainError(f"lambda {x!r} is not exact; give a Fraction, int or str")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"lambda {x!r} is not a rational number") from exc


def _as_ints(xs, name: str) -> tuple[int, ...]:
    try:  # operator.index refuses 2.5 and 16.9 instead of truncating them
        return tuple(operator.index(x) for x in xs)
    except TypeError as exc:
        raise DomainError(f"{name} must be integers, got {xs!r}") from exc


@dataclass(frozen=True)
class ManhattanParams:
    """Dimension, dense spacings, sampling factors, optional support extents.

    The one gate for exactness: ``lam`` entries must be rationals or strings
    (a float is refused), ``d``, ``k`` and ``T`` integers (2.5 is refused,
    not truncated).  The discrete-image regime (anything touching coordinates or
    DFT grids) additionally requires integer ``lam`` and extents ``T`` that
    are multiples of ``k_i * lam_i``.
    """

    d: int
    lam: tuple[Fraction, ...]
    k: tuple[int, ...]
    T: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _as_ints([self.d], "dimension d")[0])
        if not 1 <= self.d <= MAX_DIMS:
            raise DimensionError(f"d must be in [1, {MAX_DIMS}], got {self.d}")
        if isinstance(self.lam, str) or not isinstance(self.lam, Iterable):
            raise DomainError(f"lambda must be a sequence of d values, got {self.lam!r}")
        object.__setattr__(self, "lam", tuple(_as_fraction(x) for x in self.lam))
        object.__setattr__(self, "k", _as_ints(self.k, "sampling factors"))
        if len(self.lam) != self.d or len(self.k) != self.d:
            raise DimensionError("lam and k must have length d")
        if any(x <= 0 for x in self.lam):
            raise DomainError("dense spacings must be positive")
        if any(x < 2 for x in self.k):
            raise DomainError("sampling factors must be integers >= 2")
        if self.T is not None:
            object.__setattr__(self, "T", _as_ints(self.T, "extents T"))
            if len(self.T) != self.d:
                raise DimensionError("T must have length d")
            lam_i = self.lam_int  # raises if lam is not integral
            for i, (t, k, lam) in enumerate(zip(self.T, self.k, lam_i)):
                if t <= 0 or t % (k * lam) != 0:
                    raise DomainError(
                        f"T[{i}]={t} must be a positive multiple of "
                        f"k[{i}]*lambda[{i}]={k * lam}"
                    )

    @property
    def extents(self) -> tuple[int, ...]:
        """Support extents T; raises DomainError when they were not given."""
        if self.T is None:
            raise DomainError("operation requires support extents T")
        return self.T

    @property
    def lam_int(self) -> tuple[int, ...]:
        """Integer dense spacings; raises DomainError outside the discrete regime."""
        if any(x.denominator != 1 for x in self.lam):
            raise DomainError("discrete-image operations require integer lambda")
        return tuple(x.numerator for x in self.lam)

    def step_int(self, b: BiStep) -> tuple[int, ...]:
        lam = self.lam_int
        if b.d != self.d:
            raise DimensionError("bi-step length does not match d")
        return tuple(
            lam[i] if b.bits[i] else self.k[i] * lam[i] for i in range(self.d)
        )


def lattice_contains(params: ManhattanParams, b: BiStep, t: Sequence[int]) -> bool:
    """True iff integer coordinate t lies on bi-step lattice b."""
    step = params.step_int(b)
    if len(t) != params.d:
        raise DimensionError("coordinate length does not match d")
    return all(ti % si == 0 for ti, si in zip(t, step))


def v_class(params: ManhattanParams, t: Sequence[int]) -> BiStep:
    """The V_b partition class of a dense-lattice point t.

    b_i = 1 exactly where t_i is not a multiple of k_i*lambda_i.
    """
    lam = params.lam_int
    if len(t) != params.d:
        raise DimensionError("coordinate length does not match d")
    if any(ti % li != 0 for ti, li in zip(t, lam)):
        raise DomainError(f"{tuple(t)} is not on the dense lattice")
    return BiStep(
        tuple(
            1 if ti % (ki * li) != 0 else 0
            for ti, ki, li in zip(t, params.k, lam)
        )
    )


@dataclass(frozen=True)
class Collection:
    """An M-collection: the set of bi-step vectors generating a Manhattan set."""

    members: frozenset[BiStep]
    params: ManhattanParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise DomainError("collection must be non-empty")
        if any(b.d != self.params.d for b in self.members):
            raise DimensionError("all members must have length d")

    @classmethod
    def of(cls, params: ManhattanParams, members: Iterable[BiStep | str]) -> "Collection":
        parsed = frozenset(
            b if isinstance(b, BiStep) else BiStep.from_string(b) for b in members
        )
        return cls(parsed, params)

    @classmethod
    def from_string(cls, params: ManhattanParams, text: str) -> "Collection":
        """Parse the comma-separated bit-string format, e.g. '100,010,001'."""
        return cls.of(params, [tok.strip() for tok in text.split(",")])

    def sorted_members(self) -> list[BiStep]:
        """Canonical order: weight descending, then bitmask ascending."""
        return sorted(self.members, key=lambda b: (-b.weight, b.mask))

    def closure(self) -> "Collection":
        """All bi-step vectors contained in some member; generates the same set."""
        closed = frozenset(
            sub for member in self.members for sub in member.subsets()
        )
        return Collection(closed, self.params)

    def minimal(self) -> "Collection":
        """Members that are strict subsets of another member removed."""
        kept = frozenset(
            b
            for b in self.members
            if not any(b != other and b.issubset(other) for other in self.members)
        )
        return Collection(kept, self.params)

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.sorted_members())


def manhattan_contains(c: Collection, t: Sequence[int]) -> bool:
    """True iff t lies on the Manhattan set M(B) (some member lattice)."""
    return any(lattice_contains(c.params, b, t) for b in c.members)


def fundamental_cell_count(c: Collection) -> int:
    """Manhattan points per fundamental cell: sum over the closure of
    prod_{i: b_i=1} (k_i - 1)."""
    k = c.params.k
    return sum(
        prod(k[i] - 1 for i in range(c.params.d) if b.bits[i])
        for b in c.closure().members
    )


def density(c: Collection) -> Fraction:
    """Exact sampling density of M(B): cell count over cell volume."""
    cell_volume = prod(
        Fraction(k) * lam for k, lam in zip(c.params.k, c.params.lam)
    )
    return Fraction(fundamental_cell_count(c)) / cell_volume
