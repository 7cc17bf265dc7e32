"""The engine on every M-collection for d <= 4, not a random sample of them.

The M-collections are the non-empty antichains of {0,1}^d: 2, 5, 19 and 167
for d = 1..4, each checked with (k, lambda) = (2, 1) and (2, 2) and, for d = 4,
one mixed setting.  At T = 2*k*lambda, the smallest grid on which every atom
keeps a bin, a k = 2 axis folds the highpass band onto the coarse Nyquist
residue, which no atom keeps, so no fold reaches a gathered bin: T is
3*k*lambda per axis for d <= 3, the mixed setting's k = 3 axes fold for d = 4,
and d = 4 at k = 2, lambda = 1 is checked at T = 3*k*lambda too, 1,296 points,
against the bandlimited input alone, as the dense oracle's least squares would
be 1,296 x 1,296 per collection.  ``reconstruct`` runs one forward transform per
plan step, and the plan's atoms name each closure member once.  A NaN, +inf or
-inf written after building into the array a sample set adopted is refused by
``reconstruct`` with no warning first.  With each transform pass in two halves at once, ``reconstruct``
and ``bandlimit`` give their one-CPU bytes.  Every pair of ``sampler._cells``,
for x[::lambda] and each closure member's lattice, views the values and the
rows it maps, a lattice's or a half spectrum's, with no copy.  Every collection
also meets the Landau identity and the cell count, its M(B) mask, coordinates
and combs, from the image and from the samples, match the tensor-product definition of each
lattice, and at k = 2 its samples have full column rank on its region; Lemma
1's sufficient condition is checked on every triple.
"""

import functools
import importlib
import itertools

import numpy as np
import pytest

from conftest import bandlimited_image, split_at
from manhattan import (
    BiStep, Collection, Grid, ManhattanParams, NumericalFailureError, SampleSet, bandlimit,
    comb_from_grid, comb_from_samples, density, extract_samples, fundamental_cell_count,
    manhattan_region_volume, reconstruct, region_mask,
)
from manhattan.freq import guaranteed_disjoint, replica_overlap_oracle
from manhattan.oracle import SIZE_GUARD, rank_report, solve_reconstruct
from manhattan.reconstruct import ReconstructionPlan
from manhattan.sampler import _cells, manhattan_indicator

engine = importlib.import_module("manhattan.reconstruct")  # the attribute is the function


def m_collections(d):
    """Every non-empty antichain of bi-steps of length d, each once."""
    points = [BiStep(bits) for bits in itertools.product((0, 1), repeat=d)]

    def grow(chosen, start):
        if chosen:
            yield chosen
        for j in range(start, len(points)):
            b = points[j]
            if not any(b.issubset(a) or a.issubset(b) for a in chosen):
                yield from grow([*chosen, b], j + 1)

    return list(grow([], 0))


def test_m_collection_counts():
    assert [len(m_collections(d)) for d in range(1, 5)] == [2, 5, 19, 167]


SETTINGS = [(d, (2,) * d, (lam,) * d, 3 if d <= 3 else 2) for lam in (1, 2) for d in range(1, 5)]
SETTINGS.append((4, (2, 3, 2, 3), (1, 2, 1, 1), 2))
SETTINGS.append((4, (2, 2, 2, 2), (1, 1, 1, 1), 3))  # no oracle: its k = 2 folds bite
IDS = [f"d{d}-k{''.join(map(str, k))}-lam{''.join(map(str, lam))}" + ("-T3" if d == 4 and r == 3 else "")
       for d, k, lam, r in SETTINGS]


@pytest.mark.parametrize("d,k,lam,r", SETTINGS, ids=IDS)
def test_every_collection_reconstructs(d, k, lam, r, monkeypatch):
    # reconstruct returns the bandlimited input by one forward transform per step
    # of its plan, whose atoms name each member once, and the dense least-squares
    # oracle, which shares no code with the sweep, agrees with it
    T = tuple(r * ki * li for ki, li in zip(k, lam))
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    forward, reads = engine._raw_spectrum, []
    monkeypatch.setattr(engine, "_raw_spectrum", lambda *a: reads.append(1) or forward(*a))
    for seed, members in enumerate(m_collections(d)):
        c = Collection.of(p, members)
        ref = bandlimited_image(p, c, seed=seed)
        ss = extract_samples(ref, c)
        scale = np.abs(ref.data).max()
        reads.clear()
        got = reconstruct(ss).data
        assert np.abs(got - ref.data).max() <= 1e-12 * scale, str(c)
        plan = ReconstructionPlan.for_collection(c)
        assert len(reads) == len(plan.steps), str(c)
        assert sorted(atom.name for atom in plan.atoms) == sorted(
            f"atom {b}" for b in c.closure().members), str(c)
        shared = ss.values.copy()  # adopted, and still written to by the caller
        adopted = SampleSet(p, c, None, shared)
        at = np.random.default_rng(seed).integers(len(shared))
        for bad in (np.nan, np.inf, -np.inf):  # under filterwarnings = error: no warning first
            shared[at] = bad
            with pytest.raises(NumericalFailureError):
                reconstruct(adopted)
        if np.prod(T) <= SIZE_GUARD and (d, r) != (4, 3):
            direct = solve_reconstruct(ss).data.real
            assert np.abs(got - direct).max() <= 1e-9 * scale, str(c)


@pytest.mark.parametrize("d,k,lam,r", SETTINGS, ids=IDS)
def test_every_collection_same_bytes_in_halves(d, k, lam, r):
    # with every transform pass of two rows or more in two halves at once,
    # reconstruct and bandlimit give the bytes they give on one CPU
    T = tuple(r * ki * li for ki, li in zip(k, lam))
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    x = Grid.from_array(np.random.default_rng(d).normal(size=T))
    for members in m_collections(d):
        c = Collection.of(p, members)
        ss = extract_samples(x, c)
        got = []
        for cpus in ((0,), (0, 1)):
            with split_at(0, cpus):
                got.append((reconstruct(ss).data.tobytes(), bandlimit(x, c).data.tobytes()))
        assert got[0] == got[1], str(c)


@pytest.mark.parametrize("d,k,lam,r", SETTINGS, ids=IDS)
def test_every_collection_rows_are_views(d, k, lam, r):
    # _cells only splits and steps: every pair it yields, for x[::lambda] and for
    # every closure member's lattice, views the canonical values and y, a float
    # lattice or the complex rows of m[-1] // 2 + 1 columns that _raw_spectrum passes
    T = tuple(r * ki * li for ki, li in zip(k, lam))
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    for members in m_collections(d):
        c = Collection.of(p, members)
        values = np.empty(np.count_nonzero(manhattan_indicator(c)))
        for s in (p.lam_int, *map(p.step_int, c.closure().members)):
            x = np.empty(T)[tuple(slice(None, None, si) for si in s)]
            rows = np.empty((*x.shape[:-1], x.shape[-1] // 2 + 1), dtype=complex)
            for y in (x, rows):
                for v, w in _cells(c, s)(values, y):
                    assert np.shares_memory(v, values) and np.shares_memory(w, y), (str(c), s)


def lattice(p, b):
    """Bi-step lattice b on [0, T) by its definition: the tensor product of each
    axis's multiples of its step."""
    axes = [np.arange(t) % s == 0 for t, s in zip(p.T, p.step_int(b))]
    return functools.reduce(np.logical_and.outer, axes)


@pytest.mark.parametrize("d,k,lam,r", SETTINGS, ids=IDS)
def test_every_collection_counts(d, k, lam, r):
    # the Landau identity, region volume = sampling density, and M(B) on T is
    # the fundamental cell's points once per cell; M(B)'s mask, the samples'
    # coordinates and every comb, from the image and from the samples, match the
    # definitions, the combs byte for byte (+0.0 off the lattice)
    T = tuple(r * ki * li for ki, li in zip(k, lam))
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    cells = np.prod([t // (ki * li) for t, ki, li in zip(T, k, lam)])
    x = np.random.default_rng(d).normal(size=T)
    for members in m_collections(d):
        c = Collection.of(p, members)
        mask = functools.reduce(np.logical_or, [lattice(p, b) for b in members])
        assert manhattan_region_volume(c) == density(c), str(c)
        assert fundamental_cell_count(c) * cells == np.count_nonzero(mask), str(c)
        assert region_mask(c).count <= fundamental_cell_count(c) * cells, str(c)  # never too few
        assert np.array_equal(manhattan_indicator(c), mask), str(c)
        ss = extract_samples(Grid.from_array(x), c)
        assert np.array_equal(ss.coords, np.argwhere(mask)), str(c)
        for b in c.closure().members:
            want = np.where(lattice(p, b), x * np.prod(p.step_int(b)), 0.0).tobytes()
            assert comb_from_grid(Grid.from_array(x), b, p).grid.data.tobytes() == want, str(c)
            assert comb_from_samples(ss, b).grid.data.tobytes() == want, str(c)


@pytest.mark.parametrize("d", range(1, 5))
def test_every_collection_determines_its_region(d):
    # at k = 2, lambda = 1 the samples of every collection have full column rank
    # on its region, and Lemma 1 holds over every triple of bi-steps: where
    # guaranteed_disjoint promises that no replica of atom b' under lattice s
    # reaches atom b, the brute-force oracle finds none
    T = ((3 if d <= 3 else 2) * 2,) * d
    p = ManhattanParams(d=d, lam=(1,) * d, k=(2,) * d, T=T)
    for seed, members in enumerate(m_collections(d)):
        c = Collection.of(p, members)
        report = rank_report(extract_samples(bandlimited_image(p, c, seed=seed), c))
        assert report.rank == report.cols <= report.rows, str(c)
    points = [BiStep(bits) for bits in itertools.product((0, 1), repeat=d)]
    promised = [t for t in itertools.product(points, repeat=3) if guaranteed_disjoint(*t)]
    assert promised and not any(replica_overlap_oracle(*t, p) for t in promised)
