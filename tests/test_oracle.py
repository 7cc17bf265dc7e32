from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import bandlimited_image
from manhattan import (
    Collection,
    DomainError,
    Grid,
    ManhattanParams,
    NumericalFailureError,
    extract_samples,
    rank_report,
    reconstruct,
    region_mask,
    solve_reconstruct,
)
from manhattan.sampler import SampleSet


def make_case(d, lam, k, T, coll, seed=0):
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    c = Collection.from_string(p, coll)
    ref = bandlimited_image(p, c, seed=seed)
    return p, c, ref, extract_samples(ref, c)


class TestSolve:
    def test_matches_input_2d(self):
        _, _, ref, ss = make_case(2, (1, 1), (2, 2), (8, 8), "10,01")
        out = solve_reconstruct(ss)
        assert np.abs(out.data.real - ref.data.real).max() <= 1e-8 * np.abs(
            ref.data.real
        ).max()

    def test_agrees_with_engine(self):
        for args in [
            (2, (1, 1), (2, 2), (8, 8), "10,01"),
            (3, (1, 1, 1), (2, 2, 2), (4, 4, 4), "100,010,001"),
        ]:
            _, _, ref, ss = make_case(*args, seed=11)
            engine = reconstruct(ss).data.real
            direct = solve_reconstruct(ss).data.real
            assert np.abs(engine - direct).max() <= 1e-8 * np.abs(ref.data.real).max()

    def test_zero_samples(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 8))
        c = Collection.from_string(p, "10,01")
        ss = extract_samples(Grid.from_array(np.zeros((8, 8))), c)
        assert not solve_reconstruct(ss).data.any()

    def test_inconsistent_samples_rejected(self):
        _, _, _, ss = make_case(2, (1, 1), (2, 2), (8, 8), "10,01", seed=2)
        values = ss.values.copy()
        values.setflags(write=True)
        values[0] += 100.0
        bad = SampleSet(ss.params, ss.collection, ss.coords, values)
        with pytest.raises(NumericalFailureError):
            solve_reconstruct(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused(self, bad):
        # a NaN residual compares False with the bound, so it must be caught first
        _, _, _, ss = make_case(2, (1, 1), (4, 4), (16, 16), "10,01", seed=2)
        values = ss.values.copy()
        values[5] = bad
        with pytest.raises(DomainError, match="finite"):
            solve_reconstruct(SampleSet(ss.params, ss.collection, ss.coords, values))

    def test_size_guard(self):
        _, _, _, ss = make_case(2, (1, 1), (4, 4), (80, 80), "10,01")
        with pytest.raises(DomainError):
            solve_reconstruct(ss)


class TestRank:
    def test_cross_full_rank(self):
        _, c, _, ss = make_case(2, (1, 1), (2, 2), (8, 8), "10,01")
        rep = rank_report(ss)
        assert rep.rows == 48
        assert rep.cols == region_mask(c).count
        assert rep.full_column_rank

    def test_coarse_only(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(4, 4))
        c = Collection.from_string(p, "00")
        ss = extract_samples(Grid.from_array(np.zeros((4, 4))), c)
        rep = rank_report(ss)
        assert rep.rows == 4
        assert rep.rank == region_mask(c).count



@st.composite
def configs(draw):
    """d <= 4, k <= 4, lambda in {1, 2, 3}, prod(T) <= 1024, any collection."""
    d = draw(st.integers(1, 4))
    k = draw(st.tuples(*[st.integers(2, 4)] * d))
    lam = draw(st.tuples(*[st.integers(1, 3)] * d))
    cells = draw(st.tuples(*[st.integers(1, 3)] * d))
    T = tuple(ki * li * n for ki, li, n in zip(k, lam, cells))
    for i in sorted(range(d), key=lambda i: -T[i]):  # largest axes to one cell
        if prod(T) > 1024:
            T = T[:i] + (k[i] * lam[i],) + T[i + 1 :]
    assume(prod(T) <= 1024)
    members = draw(st.sets(st.tuples(*[st.integers(0, 1)] * d), min_size=1))
    return k, lam, T, sorted(members), draw(st.integers(0, 2**16))


class TestRandomCrossCheck:
    """The onion-peeling engine against the direct solve on random inputs."""

    @settings(max_examples=60, deadline=None)
    @given(configs())
    # T=6, k=2, lambda=3: the highpass axis of atom 1 keeps no DFT index
    @example(((2,), (3,), (6,), [(1,)], 0))
    @example(((2, 3), (3, 1), (6, 6), [(1, 0), (0, 1)], 1))
    def test_engine_matches_oracle(self, config):
        k, lam, T, members, seed = config
        p = ManhattanParams(d=len(T), lam=lam, k=k, T=T)
        c = Collection.of(p, ["".join(map(str, bits)) for bits in members])
        ref = bandlimited_image(p, c, seed=seed)
        ss = extract_samples(ref, c)
        engine = reconstruct(ss).data
        scale = max(np.abs(ref.data).max(), 1e-30)
        assert np.abs(engine - solve_reconstruct(ss).data).max() <= 1e-9 * scale
        perm = np.random.default_rng(seed).permutation(len(ss))
        shuffled = SampleSet(p, c, ss.coords[perm], ss.values[perm])
        assert np.array_equal(reconstruct(shuffled).data, engine)
