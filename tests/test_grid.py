import io
import struct
import threading
import tracemalloc
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bandlimited_image, split_at
from manhattan import (
    BiStep,
    Collection,
    DimensionError,
    DomainError,
    FormatError,
    Grid,
    ManhattanError,
    ManhattanParams,
    NumericalFailureError,
    SampleSet,
    bandlimit,
    comb_from_grid,
    dft,
    extract_samples,
    idft,
    read_mht1,
    read_pgm,
    reconstruct,
    solve_reconstruct,
    write_mht1,
    write_pgm,
)
from manhattan import grid, sampler
from manhattan.cli import main
from manhattan.grid import synthesize


class TestTransforms:
    def test_dc(self):
        X = dft(Grid.from_array(np.ones((4, 4))))
        assert X.data[0, 0] == pytest.approx(16)
        assert np.abs(X.data).sum() == pytest.approx(16)

    def test_impulse(self):
        arr = np.zeros((4, 4))
        arr[0, 0] = 1.0
        X = dft(Grid.from_array(arr))
        assert np.allclose(X.data, 1.0)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = Grid.from_array(rng.normal(size=(8, 8)))
        X = dft(x)
        assert np.sum(np.abs(x.data) ** 2) == pytest.approx(
            np.sum(np.abs(X.data) ** 2) / 64, rel=1e-12
        )

    def test_idft_dc(self):
        spec = np.zeros((3, 5), dtype=complex)
        spec[0, 0] = 15
        x = idft(Grid.from_array(spec))
        assert np.allclose(x.data, 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = Grid.from_array(rng.normal(size=(6, 10)))
        back = idft(dft(x))
        assert np.abs(back.data - x.data).max() <= 1e-12 * np.abs(x.data).max()

    def test_linearity(self):
        rng = np.random.default_rng(2)
        X = dft(Grid.from_array(rng.normal(size=(6, 6))))
        Y = dft(Grid.from_array(rng.normal(size=(6, 6))))
        mixed = Grid.from_array(2.0 * X.data + 3.0 * Y.data)
        lhs = idft(mixed).data
        rhs = 2.0 * idft(X).data + 3.0 * idft(Y).data
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_separability(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 4))
        full = dft(Grid.from_array(x)).data
        by_axis = x.astype(complex)
        for axis in range(3):
            by_axis = np.fft.fft(by_axis, axis=axis)
        assert np.abs(full - by_axis).max() <= 1e-10 * np.abs(full).max()

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        X = dft(Grid.from_array(rng.normal(size=(6, 8)))).data
        T1, T2 = X.shape
        for u1 in range(T1):
            for u2 in range(T2):
                assert X[u1, u2] == pytest.approx(
                    np.conj(X[(T1 - u1) % T1, (T2 - u2) % T2]), abs=1e-10
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    @pytest.mark.parametrize("u", [(1, 2), (3, 6), (0, 0)])
    def test_idft_refuses_non_finite_bin(self, bad, u):
        # one bin in either last-axis half, DC included: never a NaN image
        X = dft(Grid.from_array(np.random.default_rng(5).normal(size=(6, 8)))).data.copy()
        X[u] = bad
        with pytest.raises(NumericalFailureError):
            idft(Grid.from_array(X))

    def test_idft_refuses_non_hermitian_upper_half(self):
        # irfftn reads only the lower half; a bin above it must still be checked
        X = dft(Grid.from_array(np.random.default_rng(6).normal(size=(6, 8)))).data.copy()
        X[2, 6] += 1e-3 * np.abs(X).max()
        with pytest.raises(NumericalFailureError):
            idft(Grid.from_array(X))

    @pytest.mark.parametrize("T", [(48, 48, 48), (256, 256)])
    def test_idft_peak_memory(self, T):
        # the Hermitian check gathers the mirrors of the lower half only; with a
        # full-size mirror copy of the spectrum the peak was over twice its size
        X = dft(Grid.from_array(np.random.default_rng(7).normal(size=T)))
        tracemalloc.start()
        try:
            idft(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * X.data.nbytes

    @pytest.mark.parametrize("T", [(64, 64, 64), (512, 512)])
    def test_idft_peak_memory_in_slabs(self, T):
        # the Hermitian check copies its picked bins a slab of first-axis places
        # at a time; a whole mirror copy and a whole picked copy peaked at 3x
        X = dft(Grid.from_array(np.random.default_rng(7).normal(size=T)))
        tracemalloc.start()
        try:
            image = idft(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * image.data.nbytes

    def test_domain_tags(self):
        x = Grid.from_array(np.ones((4, 4)))
        with pytest.raises(DomainError):
            idft(x)
        with pytest.raises(DomainError):
            dft(dft(x))


class TestInPlaceSynthesis:
    """synthesize inverts its half spectrum in place, exactly as irfftn would."""

    @given(st.data())
    def test_matches_irfftn_in_place(self, data):
        # blocks split one axis into negation-closed groups, lower-only on the
        # last axis, held in one half spectrum; group 2 is left out, so its bins
        # stay zero; at a split floor of 0 each pass runs in two halves, and the
        # second half's first rows, written over rows the first may not have read
        # yet, are held until both are done
        d = data.draw(st.integers(1, 4), label="d")
        T = tuple(data.draw(st.lists(st.integers(1, 7), min_size=d, max_size=d), label="T"))
        j = data.draw(st.integers(0, d - 1), label="split axis")
        lower = T[-1] // 2 + 1
        classes = sorted({min(u, -u % T[j]) for u in range(lower if j == d - 1 else T[j])})
        groups = data.draw(st.lists(st.integers(0, 2), min_size=len(classes),
                                    max_size=len(classes)), label="groups")
        H = np.fft.rfftn(np.random.default_rng(len(classes)).normal(size=T))
        half = np.zeros_like(H)
        for g in (0, 1):
            kept = {c for c, gc in zip(classes, groups) if gc == g}
            if j < d - 1:
                kept |= {-c % T[j] for c in kept}
            axes = [np.arange(t) for t in (*T[:-1], lower)]
            axes[j] = np.array(sorted(kept), dtype=int)
            half[np.ix_(*axes)] = H[np.ix_(*axes)]
        want = np.fft.irfftn(half, s=T, axes=tuple(range(d)))
        slab = data.draw(st.sampled_from([8, 24, grid._SLAB_BYTES]), label="slab bytes")
        floor = data.draw(st.sampled_from([0, grid._SPLIT_BYTES]), label="split floor")
        with mock.patch.object(grid, "_SLAB_BYTES", slab), split_at(floor):
            got = synthesize(T, half).data  # one row per inverse, a few or all; in halves
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, half)

    @pytest.mark.parametrize("T", [(1,), (2,), (7,), (6, 8), (5, 7), (4, 3, 9), (96, 96, 96)])
    def test_image_in_half_spectrum_memory(self, T):
        # no second output buffer: the image is the head of the half spectrum,
        # which holds at most 16 bytes more per last-axis row
        H = np.fft.rfftn(np.random.default_rng(8).normal(size=T))
        image = synthesize(T, H).data
        base = image.base
        assert base is not None and base.flags.owndata and np.shares_memory(base, image)
        assert image.nbytes < base.nbytes <= image.nbytes + 16 * prod(T[:-1])


def one_pair(x, H):
    """The samples and the spectrum as one pair of rows, as bandlimit hands them over."""
    return [(np.atleast_2d(x), np.atleast_2d(H))]


class TestInPlaceTransform:
    """The raw half spectrum is made in its own memory, exactly as rfftn would."""

    @given(st.data())
    def test_matches_rfftn(self, data):
        # the samples, a strided view as a lattice's values are, go by one rfft
        # straight into the spectrum's rows, then by in-place leading-axis passes,
        # each whole or, at a split floor of 0, in two halves at once
        d = data.draw(st.integers(1, 4), label="d")
        m = tuple(data.draw(st.lists(st.integers(1, 9), min_size=d, max_size=d), label="m"))
        s = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d), label="s"))
        by = data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d), label="source steps")
        source = np.random.default_rng(sum(m)).normal(size=[mi * b for mi, b in zip(m, by)])
        y = source[tuple(slice(None, None, b) for b in by)]
        floor = data.draw(st.sampled_from([0, grid._SPLIT_BYTES]), label="split floor")
        with split_at(floor):
            got = grid._raw_spectrum(tuple(mi * si for mi, si in zip(m, s)), s, one_pair, y)
        assert got.tobytes() == (np.fft.rfftn(y) * prod(s)).tobytes()

    @pytest.mark.parametrize("T", [(512, 512), (64, 64, 64)])
    def test_holds_one_spectrum(self, T):
        # the spectrum and no temporary beside it: each rfft writes into its rows
        y = np.random.default_rng(9).normal(size=T)
        tracemalloc.start()
        try:
            H = grid._raw_spectrum(T, (1,) * len(T), one_pair, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= H.nbytes + (16 << 10)


class TestHalves:
    """Each large pass runs in two halves at once, the first on a helper thread that
    keeps the caller's numpy state, raises in the caller and is gone on return."""

    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(16, 16))
        self.c = Collection.from_string(self.p, "10,01")
        self.image = bandlimited_image(self.p, self.c, seed=4)

    @pytest.mark.parametrize("bad", [np.inf, 1.7e308])
    def test_values_written_after_building_refused(self, bad):
        # an inf written into adopted values, or a finite value whose transform
        # overflows: under filterwarnings = error, a helper thread without the
        # caller's errstate would raise RuntimeWarning, not the refusal
        values = extract_samples(self.image, self.c).values.copy()
        ss = SampleSet(self.p, self.c, None, values)
        values[3] = bad
        with split_at(0), pytest.raises(NumericalFailureError):
            reconstruct(ss)

    def test_no_thread_outlives_a_call(self):
        # every helper is joined before return, so the MHS1 split still forks after
        ss = extract_samples(self.image, self.c)
        before = threading.active_count()
        with split_at(0):
            reconstruct(ss), bandlimit(self.image, self.c), idft(dft(self.image))
            assert threading.active_count() == before and sampler._splits(1 << 30)

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_either_half_raises_in_the_caller(self, half):
        # the helper thread runs the first half, the caller the second
        boom, ifft = RuntimeError("boom"), np.fft.ifft

        def failing(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()) == (half == "second"):
                raise boom
            return ifft(*args, **kwargs)

        before, X = threading.active_count(), dft(self.image)
        with split_at(0), mock.patch.object(np.fft, "ifft", failing):
            with pytest.raises(RuntimeError) as raised:
                idft(X)
        assert raised.value is boom and threading.active_count() == before


class TestDataModel:
    """Images are float64 grids, spectra are complex128 grids."""

    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 8))
        self.c = Collection.from_string(self.p, "10,01")
        self.image = bandlimited_image(self.p, self.c, seed=3)

    @pytest.mark.parametrize("dtype", [np.int32, bool, np.float32])
    def test_real_input_is_float64(self, dtype):
        assert Grid.from_array(np.ones((2, 3), dtype=dtype)).data.dtype == np.float64

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0,)])
    def test_zero_extent_refused(self, shape):
        with pytest.raises(DomainError, match="positive"):
            Grid.from_array(np.zeros(shape))

    @pytest.mark.parametrize("d", [0, 17])
    def test_axis_count_refused(self, d):
        # MHT1 holds 1 to 16 axes, so no grid has more or fewer
        with pytest.raises(DimensionError, match="1 to 16 axes"):
            Grid.from_array(np.zeros((1,) * d))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_caller_array_stays_writable(self, dtype):
        # data in its dtype and C order is adopted through a read-only view
        arr = np.ones((3, 4), dtype=dtype)
        g = Grid.from_array(arr)
        assert arr.flags.writeable and not g.data.flags.writeable
        assert np.shares_memory(g.data, arr)

    def test_identity_equality_and_hash(self):
        g, g2 = Grid.from_array(np.ones((2, 3))), Grid.from_array(np.ones((2, 3)))
        assert g == g and g != g2 and hash(g) == hash(g) and len({g, g2}) == 2

    def test_complex_input_is_complex128(self):
        g = Grid.from_array(np.ones((2, 3), dtype=np.complex64))
        assert g.data.dtype == np.complex128

    def test_transforms(self):
        spectrum = dft(self.image)
        assert spectrum.data.dtype == np.complex128
        assert idft(spectrum).data.dtype == np.float64
        assert bandlimit(self.image, self.c).data.dtype == np.float64

    def test_reconstructions(self):
        ss = extract_samples(self.image, self.c)
        assert reconstruct(ss).data.dtype == np.float64
        assert solve_reconstruct(ss).data.dtype == np.float64

    def test_readers(self):
        buf = io.BytesIO()
        write_mht1(buf, self.image)
        assert buf.getvalue()[24] == 0  # dtype code 0: an image
        buf.seek(0)
        assert read_mht1(buf).data.dtype == np.float64
        pgm = io.BytesIO(b"P5\n2 1\n255\n" + bytes([3, 250]))
        assert read_pgm(pgm).data.dtype == np.float64

    def test_spectrum_is_refused_where_an_image_is_needed(self):
        spectrum = dft(self.image)
        with pytest.raises(DomainError):
            extract_samples(spectrum, self.c)
        with pytest.raises(DomainError):
            bandlimit(spectrum, self.c)
        with pytest.raises(DomainError):
            write_pgm(io.BytesIO(), spectrum)


P16 = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
C16 = Collection.from_string(P16, "10,01")


def _cli_reference(g, tmp_path):
    """Exit code of ``reconstruct --reference`` against g, on samples of T=(16, 16)."""
    raw, samples, ref = tmp_path / "raw.mht1", tmp_path / "s.mhs1", tmp_path / "ref.mht1"
    main(["generate", "--size", "16,16", "--kind", "constant", "--value", "3",
          "--output", str(raw)])
    main(["sample", "--k", "4,4", "--collection", "10,01", "--input", str(raw),
          "--samples", str(samples)])
    with open(ref, "wb") as fh:
        write_mht1(fh, g)
    return main(["reconstruct", "--samples", str(samples),
                 "--output", str(tmp_path / "rec.mht1"), "--reference", str(ref)])


IMAGE_CONSUMERS = {  # name -> (call on a grid, whether it takes T=(16, 16))
    "dft": (dft, False),
    "write_pgm": (lambda g: write_pgm(io.BytesIO(), g), False),
    "bandlimit": (lambda g: bandlimit(g, C16), True),
    "extract_samples": (lambda g: extract_samples(g, C16), True),
    "comb_from_grid": (lambda g: comb_from_grid(g, BiStep.from_string("10"), P16), True),
    "cli-reference": (None, True),  # reconstruct --reference, exit 2
}


class TestImageGate:
    """``Grid.image`` is the one check that a grid is a real image on T."""

    def test_returns_data_without_copy(self):
        g = Grid.from_array(np.ones((16, 16)))
        assert g.image() is g.data and g.image((16, 16)) is g.data

    @pytest.mark.parametrize(
        "consumer,bad",
        [(name, bad) for name, (_, takes_T) in IMAGE_CONSUMERS.items()
         for bad in ("spectrum", "extents")[: 1 + takes_T]],
    )
    def test_every_consumer_refuses(self, tmp_path, consumer, bad):
        call = IMAGE_CONSUMERS[consumer][0]
        g = Grid.from_array(np.ones((16, 16), dtype=complex) if bad == "spectrum"
                            else np.ones((16, 8)))
        if call is None:
            assert _cli_reference(g, tmp_path) == 2
        else:  # one wording for each refusal, whoever asks
            wording = "real image" if bad == "spectrum" else "do not match T"
            with pytest.raises(DomainError, match=wording):
                call(g)


# write_mht1 of np.arange(6.0).reshape(2, 3) / 4 - 0.5
GOLDEN_MHT1 = bytes.fromhex(
    "4d485431" "02000000" "0200000000000000" "0300000000000000" "00"
    "000000000000e0bf" "000000000000d0bf" "0000000000000000"
    "000000000000d03f" "000000000000e03f" "000000000000e83f"
)


class TestMht1:
    def _cycle(self, g):
        buf = io.BytesIO()
        write_mht1(buf, g)
        buf.seek(0)
        return read_mht1(buf)

    def test_real_round_trip(self):
        rng = np.random.default_rng(6)
        g = Grid.from_array(rng.normal(size=(3, 4, 5)))
        back = self._cycle(g)
        assert back.extents == (3, 4, 5)
        assert np.array_equal(back.data, g.data)

    def test_complex_round_trip(self):
        rng = np.random.default_rng(7)
        g = Grid.from_array(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert np.array_equal(self._cycle(g).data, g.data)

    def test_sixteen_axes_round_trip(self):
        g = Grid.from_array(np.arange(64.0).reshape((2,) * 6 + (1,) * 10))
        back = self._cycle(g)
        assert back.extents == g.extents
        assert np.array_equal(back.data, g.data)

    def test_golden_bytes(self):
        buf = io.BytesIO()
        write_mht1(buf, Grid.from_array(np.arange(6.0).reshape(2, 3) / 4 - 0.5))
        assert buf.getvalue() == GOLDEN_MHT1

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_writes_the_arrays_own_buffer(self, tmp_path, dtype):
        # the payload is written from the grid's memory, not from a bytes copy
        rng = np.random.default_rng(8)
        g = Grid.from_array(rng.normal(size=(512, 256)).astype(dtype))
        buf = io.BytesIO()
        write_mht1(buf, g)
        header = b"MHT1" + struct.pack("<I2QB", 2, 512, 256, dtype is complex)
        assert buf.getvalue() == header + g.data.tobytes()
        with open(tmp_path / "g.mht1", "wb") as fh:
            tracemalloc.start()
            try:
                write_mht1(fh, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.01 * g.data.nbytes
        assert (tmp_path / "g.mht1").read_bytes() == buf.getvalue()

    def test_spectrum_round_trip(self):
        # a spectrum is written with dtype code 1 even if its imaginary part is 0
        g = dft(Grid.from_array(np.ones((2, 2))))
        buf = io.BytesIO()
        write_mht1(buf, g)
        assert buf.getvalue()[24] == 1
        buf.seek(0)
        back = read_mht1(buf)
        assert back.data.dtype == np.complex128
        assert np.array_equal(back.data, g.data)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_mht1(io.BytesIO(b"NOPE" + b"\0" * 64))

    @pytest.mark.parametrize(
        "data",
        [
            b"MHT1\x01",  # header ends inside the dimension count
            b"MHT1" + struct.pack("<IQ", 2, 4),  # header ends inside the extents
            b"MHT1" + struct.pack("<IQB", 1, 2**61, 0) + b"\0" * 16,  # huge extent
            b"MHT1" + struct.pack("<I2QB", 2, 0, 2**64 - 1, 0),  # unrepresentable
            GOLDEN_MHT1 + b"\0",  # trailing byte
            b"MHT1" + struct.pack("<I2QB", 2, 0, 5, 0),  # a zero extent, no payload
        ],
        ids=["short-d", "short-extents", "huge-extent", "zero-and-huge", "trailing",
             "zero-extent"],
    )
    def test_malformed_header(self, data):
        with pytest.raises(FormatError):
            read_mht1(io.BytesIO(data))

    def test_truncated(self):
        buf = io.BytesIO()
        write_mht1(buf, Grid.from_array(np.ones((4, 4))))
        with pytest.raises(FormatError):
            read_mht1(io.BytesIO(buf.getvalue()[:-8]))


class TestPgm:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        img = np.floor(rng.uniform(0, 256, size=(5, 7)))
        buf = io.BytesIO()
        write_pgm(buf, Grid.from_array(img))
        buf.seek(0)
        back = read_pgm(buf)
        assert back.extents == (5, 7)
        assert np.array_equal(back.data.real, img)

    def test_comment_header(self):
        data = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255])
        g = read_pgm(io.BytesIO(data))
        assert g.data.real.tolist() == [[0, 64], [128, 255]]

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_pgm(io.BytesIO(b"P6\n2 2\n255\n" + b"\0" * 12))

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 x\n255\n\0\0",  # non-numeric token
            b"P5\n2 -1\n255\n\0\0",  # negative extent
            b"P5\n99999999999 99999999999\n255\n\0\0",  # huge extents
            b"P5\n2 2\n255\n\0\0",  # truncated payload
            b"P5\n0 4\n255\n",  # a zero extent, no payload
        ],
        ids=["non-numeric", "negative", "huge", "truncated", "zero-extent"],
    )
    def test_malformed_header(self, data):
        with pytest.raises(FormatError):
            read_pgm(io.BytesIO(data))

    def test_requires_2d(self):
        with pytest.raises(DomainError):
            write_pgm(io.BytesIO(), Grid.from_array(np.zeros((2, 2, 2))))


def _mutations(size):
    """Byte edits at positions in [0, size)."""
    op = st.sampled_from(["replace", "insert", "delete"])
    return st.lists(
        st.tuples(op, st.integers(0, size - 1), st.integers(0, 255)),
        min_size=1,
        max_size=6,
    )


def _mutate(data, mutations):
    data = bytearray(data)
    for op, pos, byte in mutations:
        pos = min(pos, len(data) - 1)
        if op == "replace":
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        else:
            del data[pos]
    return io.BytesIO(bytes(data))


def _read_or_refuse(reader, fh):
    """The reader on mutated bytes either returns a Grid or raises a typed error."""
    try:
        assert isinstance(reader(fh), Grid)
    except ManhattanError:
        pass


class TestMht1Fuzz:
    HEADER = 25  # magic, d, two extents, dtype code

    @given(_mutations(len(GOLDEN_MHT1)))
    def test_mutated_file(self, mutations):
        _read_or_refuse(read_mht1, _mutate(GOLDEN_MHT1, mutations))

    @given(_mutations(HEADER))
    def test_mutated_header(self, mutations):
        _read_or_refuse(read_mht1, _mutate(GOLDEN_MHT1, mutations))


class TestPgmFuzz:
    VALID = b"P5\n# comment\n3 2\n255\n" + bytes([0, 1, 2, 253, 254, 255])
    HEADER = VALID.index(b"255\n") + 4

    @given(_mutations(len(VALID)))
    def test_mutated_file(self, mutations):
        _read_or_refuse(read_pgm, _mutate(self.VALID, mutations))

    @given(_mutations(HEADER))
    def test_mutated_header(self, mutations):
        _read_or_refuse(read_pgm, _mutate(self.VALID, mutations))
