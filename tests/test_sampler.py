import io
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_collection, random_params
from manhattan import (
    BiStep,
    Collection,
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
