import errno
import io
import os
import random
import re
import signal
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from math import prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_collection, random_params
from manhattan import (
    BiStep,
    Collection,
    DimensionError,
    DomainError,
    FormatError,
    Grid,
    ManhattanError,
    ManhattanParams,
    MissingSamplesError,
    bandlimit,
    comb_from_grid,
    comb_from_samples,
    extract_samples,
    manhattan_contains,
    read_mhs1,
    reconstruct,
    write_mhs1,
)
from manhattan import sampler
from manhattan.freq import reciprocal_offsets
from manhattan.sampler import (
    SampleSet,
    grid_from_samples,
    lattice_indicator,
    manhattan_indicator,
)


def B(s):
    return BiStep.from_string(s)


class TestExtraction:
    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(8, 8))
        self.c = Collection.of(self.p, ["10", "01"])
        rng = np.random.default_rng(0)
        self.img = Grid.from_array(rng.uniform(0, 255, size=(8, 8)))

    def test_count_cross(self):
        assert len(extract_samples(self.img, self.c)) == 28  # 7 per cell x 4 cells

    def test_count_coarse(self):
        coarse = Collection.of(self.p, ["00"])
        assert len(extract_samples(self.img, coarse)) == 4

    def test_constant_values(self):
        const = Grid.from_array(np.full((8, 8), 5.0))
        ss = extract_samples(const, self.c)
        assert np.all(ss.values == 5.0)

    def test_coordinates_on_grid_and_sorted(self):
        ss = extract_samples(self.img, self.c)
        coords = [tuple(t) for t in ss.coords]
        assert coords == sorted(coords)
        assert all(manhattan_contains(self.c, t) for t in coords)

    def test_extent_mismatch(self):
        from manhattan import DomainError

        with pytest.raises(DomainError):
            extract_samples(Grid.from_array(np.zeros((4, 4))), self.c)

    def test_count_formula_random(self):
        rng = random.Random(31)
        for _ in range(50):
            p = random_params(rng, d_max=3, k_max=4)
            c = random_collection(rng, p)
            img = Grid.from_array(np.ones(p.T))
            ss = extract_samples(img, c)
            assert len(ss) == ss.expected_count


class TestCombs:
    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 3), T=(12, 12))
        self.c = Collection.of(self.p, ["10", "01"])
        rng = np.random.default_rng(1)
        self.img = Grid.from_array(rng.uniform(0, 1, size=(12, 12)))
        self.ss = extract_samples(self.img, self.c)

    def test_scales(self):
        assert comb_from_samples(self.ss, B("01")).scale == 4  # k1*lam1*lam2
        assert comb_from_samples(self.ss, B("00")).scale == 12
        p_dense = ManhattanParams(d=2, lam=(2, 3), k=(2, 2), T=(12, 12))
        c_dense = Collection.of(p_dense, ["11"])
        img = Grid.from_array(np.ones((12, 12)))
        ss = extract_samples(img, c_dense)
        assert comb_from_samples(ss, B("11")).scale == 6  # prod(lam)

    def test_zero_off_lattice(self):
        comb = comb_from_samples(self.ss, B("10"))
        off = ~lattice_indicator(self.p, B("10"))
        assert not comb.grid.data[off].any()

    def test_dc_bin(self):
        comb = comb_from_samples(self.ss, B("01"))
        on = lattice_indicator(self.p, B("01"))
        expected = comb.scale * self.img.data.real[on].sum()
        assert np.fft.fftn(comb.grid.data)[0, 0] == pytest.approx(expected)

    def test_missing_samples(self):
        with pytest.raises(MissingSamplesError):
            comb_from_samples(self.ss, B("11"))

    def test_extent_mismatch_is_domain_error(self):
        # the same refusal, and type, as extract_samples and bandlimit
        with pytest.raises(DomainError):
            comb_from_grid(Grid.from_array(np.ones((12, 6))), B("10"), self.p)

    def test_grid_and_sample_paths_agree(self):
        for b in ("10", "01", "00"):
            from_grid = comb_from_grid(self.img, B(b), self.p).grid.data
            from_samples = comb_from_samples(self.ss, B(b)).grid.data
            assert np.array_equal(from_grid, from_samples)

    def test_scatter_ignores_sample_order(self):
        # lexicographic order takes the fast path, any other order the full check
        perm = np.random.default_rng(3).permutation(len(self.ss))
        shuffled = SampleSet(
            self.p, self.c, self.ss.coords[perm], self.ss.values[perm]
        )
        canonical = grid_from_samples(self.ss).data
        assert np.array_equal(grid_from_samples(shuffled).data, canonical)
        assert np.array_equal(canonical, self.img.data * manhattan_indicator(self.c))

    def test_zero_grid_and_linearity(self):
        zero = comb_from_grid(Grid.from_array(np.zeros((12, 12))), B("10"), self.p)
        assert not zero.grid.data.any()
        rng = np.random.default_rng(2)
        a = Grid.from_array(rng.normal(size=(12, 12)))
        bgrid = Grid.from_array(rng.normal(size=(12, 12)))
        mixed = Grid.from_array(2 * a.data + 5 * bgrid.data)
        lhs = comb_from_grid(mixed, B("01"), self.p).grid.data
        rhs = (
            2 * comb_from_grid(a, B("01"), self.p).grid.data
            + 5 * comb_from_grid(bgrid, B("01"), self.p).grid.data
        )
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestReplicaIdentity:
    @pytest.mark.parametrize(
        "d,lam,k,T",
        [
            (2, (1, 1), (4, 4), (16, 16)),
            (2, (2, 1), (2, 3), (8, 12)),
            (3, (1, 1, 1), (2, 2, 2), (8, 8, 8)),
        ],
    )
    def test_comb_spectrum_is_replica_sum(self, d, lam, k, T):
        p = ManhattanParams(d=d, lam=lam, k=k, T=T)
        dense_all = Collection.of(p, [BiStep.ones(d)])
        rng = np.random.default_rng(d)
        x = bandlimit(Grid.from_array(rng.normal(size=T)), dense_all)
        X = np.fft.fftn(x.data)
        for b in dense_all.closure().members:
            comb = comb_from_grid(x, b, p).grid.data
            lhs = np.fft.fftn(comb)
            rhs = np.zeros(T, dtype=complex)
            for shift in reciprocal_offsets(p, b):
                rhs += np.roll(X, shift, axis=tuple(range(d)))
            assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(X).max()


class TestMhs1:
    def test_round_trip(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(8, 8))
        c = Collection.of(p, ["10", "01"])
        rng = np.random.default_rng(3)
        ss = extract_samples(Grid.from_array(rng.uniform(0, 255, (8, 8))), c)
        buf = io.StringIO()
        write_mhs1(buf, ss)
        buf.seek(0)
        back = read_mhs1(buf)
        assert back.params == ss.params
        assert back.collection.members == ss.collection.members
        assert np.array_equal(back.coords, ss.coords)
        assert np.array_equal(back.values, ss.values)

    def test_values_17_digits(self):
        p = ManhattanParams(d=1, lam=(1,), k=(2,), T=(2,))
        c = Collection.of(p, ["1"])
        ss = extract_samples(Grid.from_array(np.array([np.pi, 0.0])), c)
        buf = io.StringIO()
        write_mhs1(buf, ss)
        buf.seek(0)
        assert np.array_equal(read_mhs1(buf).values, ss.values)

    def test_bad_magic(self):
        from manhattan import FormatError

        with pytest.raises(FormatError):
            read_mhs1(io.StringIO("BOGUS\ndims 2\n"))

    def test_bad_header(self):
        from manhattan import FormatError

        with pytest.raises(FormatError):
            read_mhs1(io.StringIO("MHS1\nwrong 2\n"))

    def test_sparse_grid_round_trip(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(4, 4))
        c = Collection.of(p, ["10"])
        rng = np.random.default_rng(4)
        img = Grid.from_array(rng.normal(size=(4, 4)))
        ss = extract_samples(img, c)
        g = grid_from_samples(ss)
        on = lattice_indicator(p, BiStep((1, 0)))
        assert np.array_equal(g.data[on], img.data[on])
        assert not g.data[~on].any()


def mhs1_text(ss):
    buf = io.StringIO()
    write_mhs1(buf, ss)
    return buf.getvalue()


def mhs1_text_per_row(ss):
    """Reference writer: one formatted line per sample."""
    buf = io.StringIO()
    write_mhs1(buf, SampleSet(ss.params, ss.collection, ss.coords[:0], ss.values[:0]))
    for coord, value in zip(ss.coords, ss.values):
        buf.write(" ".join(map(str, coord)) + f" {value:.17g}\n")
    return buf.getvalue()


def golden_samples():
    p = ManhattanParams(d=3, lam=(1, 1, 1), k=(2, 2, 2), T=(4, 2, 2))
    c = Collection.of(p, ["100", "010"])
    values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, -255.0]
    return SampleSet(p, c, np.argwhere(manhattan_indicator(c)), values)


GOLDEN_MHS1 = """\
MHS1
dims 3
T 4 2 2
k 2 2 2
lambda 1 1 1
collection 100,010
0 0 0 -0
0 1 0 4.9406564584124654e-324
1 0 0 1.7976931348623157e+308
2 0 0 0.10000000000000001
2 1 0 0.33333333333333331
3 0 0 -255
"""

HEADER_2D = "MHS1\ndims 2\nT 8 8\nk 4 4\nlambda 1 1\ncollection 10,01\n"


def assert_same_samples(a, b):
    assert a.params == b.params
    assert a.collection.members == b.collection.members
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


class TestMhs1Body:
    def test_golden(self):
        ss = golden_samples()
        assert mhs1_text(ss) == GOLDEN_MHS1
        assert_same_samples(read_mhs1(io.StringIO(GOLDEN_MHS1)), ss)

    def test_golden_canonical(self):
        # the form extract_samples gives, and so the rows `manhattan sample` writes
        explicit = golden_samples()
        ss = SampleSet(explicit.params, explicit.collection, None, explicit.values)
        assert mhs1_text(ss) == GOLDEN_MHS1
        assert_same_samples(read_mhs1(io.StringIO(GOLDEN_MHS1)), ss)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_canonical_equals_per_row(self, data):
        d = data.draw(st.integers(1, 4))
        k = tuple(data.draw(st.integers(2, 4)) for _ in range(d))
        lam = tuple(data.draw(st.integers(1, 3)) for _ in range(d))
        T = tuple(ki * li * data.draw(st.integers(1, 3)) for ki, li in zip(k, lam))
        assume(prod(T) <= 30000)
        p = ManhattanParams(d=d, lam=lam, k=k, T=T)
        bits = st.tuples(*[st.integers(0, 1)] * d).map(BiStep)
        c = Collection(frozenset(data.draw(st.sets(bits, min_size=1))), p)
        n = int(np.count_nonzero(manhattan_indicator(c)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        forced = np.array(extremes + data.draw(st.lists(finite, max_size=8)))[:n]
        values[rng.choice(n, len(forced), replace=False)] = forced
        ss = SampleSet(p, c, None, values)
        chunk_rows = data.draw(st.sampled_from([1, 5, 7, sampler._MHS1_CHUNK_ROWS]))
        with mock.patch.object(sampler, "_MHS1_CHUNK_ROWS", chunk_rows):
            text = mhs1_text(ss)
        assert text == mhs1_text_per_row(ss)
        assert_same_samples(read_mhs1(io.StringIO(text)), ss)

    @pytest.mark.parametrize("chunk_rows", [1, 5, 7, sampler._MHS1_CHUNK_ROWS])
    def test_table_and_int_axes(self, monkeypatch, chunk_rows):
        # 16 rows: axis 1 (T=4) writes from its text table, axis 0 (T=4096) keeps %d
        p = ManhattanParams(d=2, lam=(1, 1), k=(512, 2), T=(4096, 4))
        c = Collection.from_string(p, "00")
        ss = extract_samples(Grid.from_array(np.random.default_rng(8).normal(size=p.T)), c)
        assert len(ss) == 16
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", chunk_rows)
        assert mhs1_text(ss) == mhs1_text_per_row(ss)

    @pytest.mark.parametrize(
        "T,k,coll,bound_mb",
        [((1 << 20,), (1 << 10,), "0", 20), ((1024, 1024), (2, 2), "10,01", 10)],
        ids=["1d-1024-rows", "2d-bench"],
    )
    def test_write_peak_memory(self, T, k, coll, bound_mb):
        # an axis's text table is built only where it has no more entries than
        # the set has rows: 1024 rows on T=2^20 would otherwise peak at ~67 MB
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        c = Collection.from_string(p, coll)
        ss = extract_samples(Grid.from_array(np.random.default_rng(9).normal(size=T)), c)

        class NullSink:
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            write_mhs1(NullSink(), ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6

    @given(st.data())
    def test_round_trip_bit_exact(self, data):
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(0, 40))
        p = ManhattanParams(d=d, lam=(1,) * d, k=(2,) * d, T=(2,) * d)
        c = Collection.of(p, ["1" * d])
        coords = data.draw(arrays(np.int64, (n, d)))
        values = data.draw(
            arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False))
        )
        ss = SampleSet(p, c, coords, values)
        text = mhs1_text(ss)
        assert text == mhs1_text_per_row(ss)
        assert_same_samples(read_mhs1(io.StringIO(text)), ss)

    @pytest.mark.parametrize("chunk_rows", [1, 5, 7])
    def test_chunk_boundaries(self, monkeypatch, chunk_rows):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(8, 8))
        c = Collection.of(p, ["10", "01"])
        rng = np.random.default_rng(5)
        ss = extract_samples(Grid.from_array(rng.normal(size=(8, 8))), c)
        expected = mhs1_text(ss)
        assert expected == mhs1_text_per_row(ss)
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", chunk_rows)
        assert mhs1_text(ss) == expected

    def test_header_only_is_empty_sample_set(self):
        for body in ("", "\n  \n\t\n"):
            ss = read_mhs1(io.StringIO(HEADER_2D + body))
            assert len(ss) == 0
            assert ss.coords.shape == (0, 2)

    def test_blank_lines_are_skipped(self):
        ss = read_mhs1(io.StringIO(HEADER_2D + "\n0 0 1.5\n\n  \n0 1 -2\n\n"))
        assert ss.coords.tolist() == [[0, 0], [0, 1]]
        assert ss.values.tolist() == [1.5, -2.0]

    @pytest.mark.parametrize(
        "row",
        [
            "0 x 1.0",  # non-numeric coordinate
            "1.5 0 1.0",  # float coordinate
            "1e3 0 1.0",  # float coordinate in exponent form
            "12345678901234567890123 0 1.0",  # coordinate overflows int64
            "0 1 0.5+09",  # bad value
            "0 1 one",  # non-numeric value
            "0 1",  # too few columns
            "0 1 1.0 2.0",  # too many columns
            "# 0 1 1.0",  # comment line
        ],
    )
    def test_malformed_row(self, row):
        text = HEADER_2D + "0 0 1.0\n" + row + "\n0 2 3.0\n"
        with pytest.raises(FormatError) as info:
            read_mhs1(io.StringIO(text))
        assert "usecols" not in str(info.value)
        assert "2 integer coordinates" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)


def _mutations(start, stop):
    """Byte edits at positions in [start, stop), mostly text bytes."""
    text_byte = st.sampled_from(b"0123456789 \t\n-+.eEinfx#,")
    byte = st.one_of(text_byte, text_byte, text_byte, st.integers(0, 255))
    op = st.sampled_from(["replace", "insert", "delete"])
    return st.lists(
        st.tuples(op, st.sampled_from(range(start, stop)), byte), min_size=1, max_size=6
    )


class TestMhs1Fuzz:
    VALID = GOLDEN_MHS1.encode()
    BODY = VALID.index(b"0 0 0 -0")

    def read_mutated(self, mutations):
        """read_mhs1 on the mutated file either returns or raises a typed error."""
        data = bytearray(self.VALID)
        for op, pos, byte in mutations:
            pos = min(pos, len(data) - 1)
            if op == "replace":
                data[pos] = byte
            elif op == "insert":
                data.insert(pos, byte)
            else:
                del data[pos]
        fh = io.TextIOWrapper(io.BytesIO(bytes(data)), encoding="utf-8")
        try:
            assert isinstance(read_mhs1(fh), SampleSet)
        except ManhattanError:
            pass

    @given(_mutations(0, len(VALID)))
    def test_mutated_file(self, mutations):
        self.read_mutated(mutations)

    @given(_mutations(BODY, len(VALID)))
    def test_mutated_body(self, mutations):
        self.read_mutated(mutations)


@st.composite
def canonical_sets(draw):
    """A random (params, collection) with d <= 3 and the canonical sample set
    of a random image on it."""
    d = draw(st.integers(1, 3))
    k = tuple(draw(st.integers(2, 4)) for _ in range(d))
    lam = tuple(draw(st.integers(1, 2)) for _ in range(d))
    T = tuple(ki * li * draw(st.integers(1, 3)) for ki, li in zip(k, lam))
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    bits = st.tuples(*[st.integers(0, 1)] * d).map(BiStep)
    c = Collection(frozenset(draw(st.sets(bits, min_size=1))), p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return extract_samples(Grid.from_array(rng.normal(size=T)), c)


class TestCanonicalForm:
    """The values-only form of M(B) and its explicit copy behave alike."""

    @given(canonical_sets())
    def test_agrees_with_explicit_copy(self, ss):
        grid, result, text = grid_from_samples(ss).data, reconstruct(ss).data, mhs1_text(ss)
        assert ss.explicit_coords is None and "coords" not in vars(ss)  # none derived
        assert np.array_equal(ss.coords, np.argwhere(manhattan_indicator(ss.collection)))
        explicit = SampleSet(ss.params, ss.collection, ss.coords, ss.values)
        assert explicit.explicit_coords is not None
        assert np.array_equal(grid_from_samples(explicit).data, grid)
        assert np.array_equal(reconstruct(explicit).data.view(np.uint64), result.view(np.uint64))
        assert mhs1_text(explicit) == text

    @given(canonical_sets(), st.data())
    def test_damaged_explicit_sets_refused(self, ss, data):
        # the same error and wording for a damaged explicit set as ever
        p, c, coords, values = ss.params, ss.collection, ss.coords, ss.values
        n, on = len(ss), manhattan_indicator(ss.collection)
        i = data.draw(st.integers(0, n - 1))
        axis = data.draw(st.integers(0, p.d - 1))
        outside = coords.copy()
        outside[i, axis] = data.draw(st.sampled_from([-1, p.T[axis]]))
        cases = [  # (coords, values, message fragment)
            (np.delete(coords, i, 0), np.delete(values, i),
             f"{n - 1} samples given, M({c}) has {n} points"),
            (np.vstack([coords, coords[i:i + 1]]), np.append(values, 0.0),
             f"{n + 1} samples given"),
            (outside, values, "outside [0, T)"),
        ]
        if n > 1:  # one row repeated in place of another: 1 point missing
            repeated = coords.copy()
            repeated[i] = coords[(i + 1) % n]
            cases.append((repeated, values, f"1 points of M({c}) missing, 0 samples off"))
        if not on.all():  # a point of T off M(B) to land on
            off = coords.copy()
            off[i] = np.argwhere(~on)[0]
            cases.append((off, values, "missing, 1 samples off it"))
        order = data.draw(st.permutations(range(n + 1)), label="row order")
        for bad_coords, bad_values, fragment in cases:
            rows = [j for j in order if j < len(bad_values)]  # any order refuses alike
            for bad in (SampleSet(p, c, bad_coords, bad_values),
                        SampleSet(p, c, bad_coords[rows], bad_values[rows])):
                for entry in (sampler._canonical_values, grid_from_samples, reconstruct):
                    with pytest.raises(MissingSamplesError, match=re.escape(fragment)):
                        entry(bad)

    @given(canonical_sets(), st.data())
    def test_permuted_set_reconstructs_as_canonical(self, ss, data):
        # the gate sorts the values of a shuffled set into M(B)'s order
        order = np.array(data.draw(st.permutations(range(len(ss))), label="row order"))
        permuted = SampleSet(ss.params, ss.collection, ss.coords[order], ss.values[order])
        assert np.array_equal(sampler._canonical_values(permuted), ss.values)
        assert np.array_equal(grid_from_samples(permuted).data, grid_from_samples(ss).data)
        want = reconstruct(ss).data.view(np.uint64)
        assert np.array_equal(reconstruct(permuted).data.view(np.uint64), want)
        values = ss.values[order]
        values[data.draw(st.integers(0, len(ss) - 1), label="bad row")] = np.nan
        for entry in (sampler._canonical_values, grid_from_samples, reconstruct):
            with pytest.raises(DomainError, match="sample values must be finite"):
                entry(SampleSet(ss.params, ss.collection, ss.coords[order], values))


class TestLatticeReader:
    """The samples x[::s] of every closure member, read from the canonical
    values of M(B) alone, equal the scattered image's lattice bit for bit."""

    def test_equals_scattered_lattice(self):
        rng = random.Random(16)
        configs = [  # an odd last axis, and a last axis of one cell (T = k*lam)
            ManhattanParams(d=2, lam=(1, 3), k=(2, 3), T=(4, 27)),
            ManhattanParams(d=3, lam=(2, 1, 3), k=(3, 4, 3), T=(12, 8, 9)),
            ManhattanParams(d=1, lam=(3,), k=(3,), T=(27,)),
        ]
        while len(configs) < 120:
            p = random_params(rng, d_max=4, k_max=4)
            if np.prod(p.T) <= 30000:
                configs.append(p)
        for i, p in enumerate(configs):
            c = random_collection(rng, p)
            ss = extract_samples(Grid.from_array(np.random.default_rng(i).normal(size=p.T)), c)
            x = grid_from_samples(ss).data
            for b in c.closure().members:
                s = p.step_int(b)
                want = x[tuple(slice(None, None, si) for si in s)]
                got = sampler._lattice_values(c, ss.values, s)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p, c, b)
        assert any(p.T[-1] % 2 for p in configs)
        assert any(p.T[-1] == p.k[-1] * p.lam_int[-1] for p in configs)
        assert any(p.d == 4 for p in configs)


class TestMhs1Canonical:
    """read_mhs1 gives the canonical form for M(B) in lexicographic order only."""

    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        self.c = Collection.of(self.p, ["10", "01"])
        self.image = bandlimit(
            Grid.from_array(np.random.default_rng(6).normal(size=(16, 16))), self.c
        )
        self.ss = extract_samples(self.image, self.c)
        self.lines = mhs1_text(self.ss).splitlines(keepends=True)

    def read(self, lines):
        return read_mhs1(io.StringIO("".join(lines)))

    def test_canonical_text_reads_values_only(self):
        back = self.read(self.lines)
        assert back.explicit_coords is None and "coords" not in vars(back)
        assert np.array_equal(reconstruct(back).data, reconstruct(self.ss).data)
        assert "coords" not in vars(back)  # reconstruct derives none
        assert_same_samples(back, self.ss)

    def test_shuffled_text_reads_explicit(self):
        body = self.lines[6:]
        random.Random(7).shuffle(body)
        back = self.read(self.lines[:6] + body)
        assert back.explicit_coords is not None
        assert sorted(map(tuple, back.coords.tolist())) == list(map(tuple, self.ss.coords))
        assert np.array_equal(reconstruct(back).data, reconstruct(self.ss).data)

    @pytest.mark.parametrize("coord", ["16 0", "-16 0", "0 16"])
    def test_out_of_range_row_reads_then_refused(self, coord):
        lines = list(self.lines)
        lines[6] = f"{coord} 1.0\n"  # first sample row, (0, 0) in the canonical order
        back = self.read(lines)
        assert back.explicit_coords is not None
        with pytest.raises(MissingSamplesError, match=re.escape("outside [0, T)")):
            reconstruct(back)

    def test_non_finite_value_reads_canonical_then_refused(self):
        lines = list(self.lines)
        lines[7] = lines[7].rsplit(" ", 1)[0] + " nan\n"  # the coordinates stay
        back = self.read(lines)
        assert back.explicit_coords is None
        for entry in (grid_from_samples, reconstruct):
            with pytest.raises(DomainError, match="finite"):
                entry(back)

    @pytest.mark.parametrize(
        "T,k,coll", [((256, 256), (2, 2), "10,01"), ((24, 24, 24), (3, 3, 3), "110,101,011")]
    )
    def test_canonical_read_peak_memory(self, T, k, coll):
        # the order is checked on the loaded rows, and only their values are
        # copied out; a copy of the coordinates as well would peak at 2x
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        c = Collection.from_string(p, coll)
        ss = extract_samples(Grid.from_array(np.random.default_rng(1).normal(size=T)), c)
        fh, rows = io.StringIO(mhs1_text(ss)), len(ss) * (len(T) + 1) * 8
        tracemalloc.start()
        try:
            back = read_mhs1(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.explicit_coords is None and back.values.flags.owndata
        assert peak <= 1.85 * rows

    def test_few_rows_counted_before_anything_of_size_T(self):
        # 2 rows on T = 4096^2: no 16 MB indicator of M(B) is built to compare them
        text = ("MHS1\ndims 2\nT 4096 4096\nk 4 4\nlambda 1 1\ncollection 10,01\n"
                "0 0 1.0\n0 1 2.0\n")
        tracemalloc.start()
        try:
            back = self.read([text])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.explicit_coords is not None and len(back) == 2
        assert peak < 1 << 20


def write_file(path, ss, **open_args):
    with open(path, "w", **open_args) as fh:
        write_mhs1(fh, ss)
    return path.read_text()


def read_outcome(path, split, newline=None):
    """read_mhs1 on the file with the split path allowed or not: the sample set,
    whether the file was left at its end and whether the body was split, or the
    refusal's type and text."""
    with mock.patch.object(sampler, "_splits", lambda rows: split):
        with open(path, encoding="utf-8", newline=newline) as fh:
            try:
                ss = read_mhs1(fh)
            except ManhattanError as exc:
                return type(exc), str(exc)
            return ss, fh.read() == "", sampler._mhs1_split


def assert_same_outcome(split, serial):
    if isinstance(serial[0], SampleSet):
        assert_same_samples(split[0], serial[0])
        assert (split[0].explicit_coords is None) == (serial[0].explicit_coords is None)
        assert split[1] and serial[1]  # both at the end of the file
    else:
        assert split == serial


@contextmanager
def leaves_nothing_behind():
    """No child process left to reap, and no file descriptor left open."""
    before = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == before


BAD_ROWS = ["0 x 1.0", "1.5 0 1.0", "0 1", "0 1 1.0 2.0", "# 0 1 1.0", "0 1 one"]


class TestMhs1Split:
    """A large body is written and read in two halves at once, with the bytes,
    rows and refusals of the serial path; the split is forced here so that small
    files split."""

    def setup_method(self):
        # 45 kB: a text file decodes its first 8 kB with the header, and the rest as read
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(64, 64))
        self.ss = extract_samples(
            Grid.from_array(np.random.default_rng(6).normal(size=p.T)), Collection.of(p, ["10", "01"])
        )
        self.lines = mhs1_text(self.ss).splitlines(keepends=True)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_reads_as_serial(self, data):
        body = list(self.lines[6:])
        if data.draw(st.booleans(), label="shuffled"):
            random.Random(data.draw(st.integers(0, 99))).shuffle(body)
        near_middle = st.integers(len(body) // 2 - 3, len(body) // 2 + 3)
        anywhere = st.integers(0, len(body))
        blanks = st.sampled_from(["\n", "  \n", "\t\n", "\x0c\n", "\x1c \n"])
        for _ in range(data.draw(st.integers(0, 6), label="blank lines")):
            body.insert(data.draw(st.one_of(near_middle, anywhere)), data.draw(blanks))
        clean = True
        if data.draw(st.booleans(), label="bad row"):
            half = data.draw(st.sampled_from([range(len(body) // 2), range(len(body) // 2, len(body))]))
            body[data.draw(st.sampled_from(half))] = data.draw(st.sampled_from(BAD_ROWS)) + "\n"
            clean = False
        text = self.lines[0] + "".join(self.lines[1:6]) + "".join(body)
        if data.draw(st.booleans(), label="no final newline"):
            text = text.rstrip("\n")
        raw = text.encode()
        edit = data.draw(st.sampled_from(["none", "crlf", "bare cr", "utf-8", "lone byte"]))
        at = data.draw(st.integers(len(raw) // 3, len(raw) - 1), label="edit at")
        at = raw.index(b"\n", at) + 1 if b"\n" in raw[at:] else at
        raw = {
            "none": raw,
            "crlf": raw.replace(b"\n", b"\r\n"),
            "bare cr": raw[: at - 1] + b"\r" + raw[at:],
            "utf-8": raw[:at] + "0\u00a00 1.0\n".encode() + raw[at:],  # a row: U+00A0 is a space
            "lone byte": raw[:at] + b"0\xa00 1.0\n" + raw[at:],  # not UTF-8; Latin-1's space
        }[edit]
        newline = data.draw(st.sampled_from([None, None, "", "\n", "\r\n", "\r"]))
        piece = data.draw(st.sampled_from([48, 100, 1 << 16]))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(sampler, "_MHS1_PIECE_BYTES", piece):
            path = Path(tmp) / "s.mhs1"
            path.write_bytes(raw)
            with leaves_nothing_behind():
                split, serial = read_outcome(path, True, newline), read_outcome(path, False, newline)
        assert_same_outcome(split, serial)
        if clean and edit == "none" and newline in (None, "", "\n") and piece > 48:
            assert split[2] and not serial[2]  # every line fits a piece: the halves ran

    @pytest.mark.parametrize("where", ["first half", "second half"])
    def test_refusal_is_serial_and_leaves_nothing(self, tmp_path, where):
        # a bad first row fails while the helper still parses; a bad last one in it
        ss = extract_samples(
            Grid.from_array(np.random.default_rng(2).normal(size=(256, 256))),
            Collection.from_string(ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(256, 256)), "10,01"),
        )
        lines = mhs1_text(ss).splitlines(keepends=True)
        lines[6 if where == "first half" else -2] = "0 1 one\n"
        path = tmp_path / "s.mhs1"
        path.write_text("".join(lines))
        assert sampler._splits(len(ss)) == sampler._splits(1 << 30)  # 49k rows: split
        with leaves_nothing_behind():
            split = read_outcome(path, True)
        assert split[0] is FormatError and split == read_outcome(path, False)

    def test_success_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", 7)
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        with leaves_nothing_behind():
            text = write_file(tmp_path / "s.mhs1", self.ss)
            assert sampler._mhs1_split
            with open(tmp_path / "s.mhs1") as fh:
                back = read_mhs1(fh)
            assert sampler._mhs1_split
        assert text == mhs1_text_per_row(self.ss)
        assert_same_samples(back, self.ss)

    def test_failing_sink_leaves_nothing(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", 7)
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)

        class FailingSink:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 10:  # the header's six lines, then chunks
                    raise OSError("disk full")
                return len(text)

        with leaves_nothing_behind(), pytest.raises(OSError, match="disk full"):
            write_mhs1(FailingSink(), self.ss)

    @pytest.mark.parametrize("death", ["raises", "killed", "never forked"])
    def test_failed_helper_is_redone_here(self, tmp_path, monkeypatch, death):
        # a helper that dies for any reason, or cannot be forked: the parent
        # writes the helper's half, or reads the whole body serially
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", 7)
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        parent = os.getpid()

        def dying(real):
            def helper_dies(*args):
                if os.getpid() != parent:
                    if death == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise RuntimeError("the helper fails")
                return real(*args)
            return helper_dies

        monkeypatch.setattr(sampler, "_mhs1_chunks", dying(sampler._mhs1_chunks))
        monkeypatch.setattr(sampler, "_parse_rows", dying(sampler._parse_rows))
        if death == "never forked":
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=BlockingIOError(11, "EAGAIN")))
        expected = mhs1_text_per_row(self.ss)  # before, as it writes its header by write_mhs1
        with leaves_nothing_behind():
            assert write_file(tmp_path / "s.mhs1", self.ss) == expected
            assert not sampler._mhs1_split  # the second half written here
            with open(tmp_path / "s.mhs1") as fh:
                back = read_mhs1(fh)
            assert not sampler._mhs1_split  # read serially
        assert_same_samples(back, self.ss)
        assert back.explicit_coords is None

    @pytest.mark.parametrize("temp", ["no temp dir", "full temp dir"])
    def test_no_temp_file_is_done_here(self, tmp_path, monkeypatch, temp):
        # a temp file that cannot be made, or fills up part-way, in the helper
        # or in the parent: the parent writes the helper's half, or reads serially
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", 7)
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        real = tempfile.TemporaryFile

        class FullTempFile:
            """A temp file that takes 1,000 bytes, then fails as a full disk does."""

            def __init__(self, *args, **kwargs):
                if temp == "no temp dir":
                    raise FileNotFoundError(errno.ENOENT, "No usable temporary directory")
                self.fh, self.room = real(*args, **kwargs), 1000

            def write(self, data):
                self.room -= len(data)
                if self.room < 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        expected = mhs1_text_per_row(self.ss)  # before, as it writes its header by write_mhs1
        monkeypatch.setattr(tempfile, "TemporaryFile", FullTempFile)
        with leaves_nothing_behind():
            assert write_file(tmp_path / "s.mhs1", self.ss) == expected
            assert not sampler._mhs1_split
            with open(tmp_path / "s.mhs1") as fh:
                back = read_mhs1(fh)
                assert fh.read() == ""
            assert not sampler._mhs1_split
        assert_same_samples(back, self.ss)
        assert back.explicit_coords is None

    def test_split_rule(self, tmp_path, monkeypatch):
        # two full chunks of rows at least, by the header's count when reading;
        # two CPUs; no other thread; SIGCHLD at its default, so no handler and
        # not the kernel reaps the helper before its status is read
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", 7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert not sampler._splits(13) and sampler._splits(14)
        for handler in (signal.SIG_IGN, lambda signum, frame: os.waitpid(-1, os.WNOHANG)):
            previous = signal.signal(signal.SIGCHLD, handler)
            try:
                assert not sampler._splits(14)
            finally:
                signal.signal(signal.SIGCHLD, previous)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not sampler._splits(14)
        finally:
            stop.set()
            thread.join()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not sampler._splits(14)
        write_file(tmp_path / "s.mhs1", self.ss)  # 1,792 rows
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for chunk_rows, split in [(897, False), (896, True)]:
            monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", chunk_rows)
            with open(tmp_path / "s.mhs1") as fh:
                assert_same_samples(read_mhs1(fh), self.ss)
            assert sampler._mhs1_split == split

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_split_write_equals_per_row(self, data):
        d = data.draw(st.integers(1, 4))
        k = tuple(data.draw(st.integers(2, 4)) for _ in range(d))
        lam = tuple(data.draw(st.integers(1, 3)) for _ in range(d))
        T = tuple(ki * li * data.draw(st.integers(1, 3)) for ki, li in zip(k, lam))
        assume(prod(T) <= 30000)
        p = ManhattanParams(d=d, lam=lam, k=k, T=T)
        bits = st.tuples(*[st.integers(0, 1)] * d).map(BiStep)
        c = Collection(frozenset(data.draw(st.sets(bits, min_size=1))), p)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ss = extract_samples(Grid.from_array(rng.normal(size=T) * 10.0 ** rng.integers(-300, 300, T)), c)
        if data.draw(st.booleans(), label="explicit"):
            ss = SampleSet(p, c, ss.coords, ss.values)
        chunk_rows = data.draw(st.sampled_from([1, 5, 7]))
        with mock.patch.object(sampler, "_MHS1_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            if data.draw(st.booleans(), label="real file"):
                with tempfile.TemporaryDirectory() as tmp:
                    text = write_file(Path(tmp) / "s.mhs1", ss)
            else:
                text = mhs1_text(ss)
            assert sampler._mhs1_split == (len(ss) >= 2 * chunk_rows)
        assert text == mhs1_text_per_row(ss)

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_unflushed_header_stays_the_parents(self, tmp_path, monkeypatch, chunk_rows):
        # the header is still in fh's buffer when the helper forks; it leaves by
        # os._exit and so never writes it a second time
        monkeypatch.setattr(sampler, "_MHS1_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        path, sizes, fork = tmp_path / "s.mhs1", [], os.fork

        def watched_fork():
            sizes.append(path.stat().st_size)
            return fork()

        expected = mhs1_text_per_row(self.ss)
        monkeypatch.setattr(os, "fork", watched_fork)
        assert write_file(path, self.ss, buffering=1 << 20) == expected
        assert sizes == [0]

    @pytest.mark.parametrize(
        "T,k,coll",
        [((256, 256), (2, 2), "10,01"), ((24, 24, 24), (3, 3, 3), "110,101,011"),
         ((1024, 1024), (2, 2), "10,01")],
    )
    def test_canonical_read_peak_memory(self, tmp_path, monkeypatch, T, k, coll):
        # the real-file twin of TestMhs1Canonical's: each half's rows go to a
        # file and from there straight into the result
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)  # 24^3 has 6k rows
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        c = Collection.from_string(p, coll)
        ss = extract_samples(Grid.from_array(np.random.default_rng(1).normal(size=T)), c)
        write_file(tmp_path / "s.mhs1", ss)
        rows = len(ss) * (len(T) + 1) * 8
        with open(tmp_path / "s.mhs1") as fh:
            tracemalloc.start()
            try:
                back = read_mhs1(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sampler._mhs1_split
        assert back.explicit_coords is None and back.values.flags.owndata
        assert_same_samples(back, ss)
        assert peak <= 1.85 * rows

    def test_write_peak_memory(self, tmp_path, monkeypatch):
        # the split twin of TestMhs1Body's 2d-bench case, into a real file: the
        # helper's text comes back a piece at a time
        monkeypatch.setattr(sampler, "_splits", lambda rows: True)
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(1024, 1024))
        c = Collection.from_string(p, "10,01")
        ss = extract_samples(Grid.from_array(np.random.default_rng(9).normal(size=p.T)), c)
        with open(tmp_path / "s.mhs1", "w") as fh:
            tracemalloc.start()
            try:
                write_mhs1(fh, ss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sampler._mhs1_split
        assert peak <= 10 * 1e6
