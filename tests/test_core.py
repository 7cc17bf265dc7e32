import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import all_bisteps, random_collection, random_params, window_points
from manhattan import (
    BiStep,
    Collection,
    DimensionError,
    DomainError,
    Grid,
    ManhattanParams,
    density,
    extract_samples,
    fundamental_cell_count,
    lattice_contains,
    manhattan_contains,
    read_mhs1,
    v_class,
    write_mhs1,
)


def B(s):
    return BiStep.from_string(s)


class TestBiStepAlgebra:
    def test_or_and_subset(self):
        a, b = B("10"), B("01")
        assert a | b == B("11")
        assert a & b == B("00")
        assert not a.issubset(b)

    def test_subset_true(self):
        assert B("100").issubset(B("110"))

    def test_complement_weight(self):
        a = B("11")
        assert a.complement() == B("00")
        assert a.weight == 2

    def test_xor(self):
        assert B("110") ^ B("011") == B("101")

    def test_length_mismatch(self):
        for op in (
            lambda a, b: a | b,
            lambda a, b: a & b,
            lambda a, b: a ^ b,
            lambda a, b: a.issubset(b),
        ):
            with pytest.raises(DimensionError):
                op(B("10"), B("100"))

    def test_bool_bits_are_ints(self):
        # bits are kept as Python ints, so a collection of bool bits writes an MHS1
        # header that its reader parses, and the file reads back to the same values
        a, b = BiStep((True, False)), BiStep((False, True))
        assert str(a) == "10" and a.bits == (1, 0) and type(a.bits[0]) is int
        assert a == B("10") and hash(a) == hash(B("10"))
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(4, 4))
        image = Grid.from_array(np.random.default_rng(0).normal(size=p.T))
        ss = extract_samples(image, Collection.of(p, [a, b]))
        buf = io.StringIO()
        write_mhs1(buf, ss)
        assert "collection 10,01\n" in buf.getvalue()
        buf.seek(0)
        back = read_mhs1(buf)
        assert back.collection.members == ss.collection.members
        assert back.values.tobytes() == ss.values.tobytes()

    @given(st.integers(1, 6), st.data())
    def test_subset_is_and_fixed_point(self, d, data):
        bits = st.tuples(*[st.integers(0, 1)] * d)
        a = BiStep(data.draw(bits))
        b = BiStep(data.draw(bits))
        assert a.issubset(b) == ((a & b) == a)
        assert (a | b).weight >= max(a.weight, b.weight)
        assert (a & b).issubset(a) and (a & b).issubset(b)


class TestLatticeMembership:
    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))

    def test_contains_examples(self):
        assert lattice_contains(self.p, B("10"), (5, 4))
        assert not lattice_contains(self.p, B("01"), (5, 4))
        assert lattice_contains(self.p, B("00"), (8, 12))

    def test_intersection_is_and(self):
        assert B("10") & B("01") == B("00")
        assert B("110") & B("011") == B("010")
        assert B("101") & B("101") == B("101")

    def test_intersection_pointwise(self):
        p = random_params(random.Random(7), d_max=2, k_max=4)
        pairs = all_bisteps(p.d)
        for b1 in pairs:
            for b2 in pairs:
                for t in window_points(p):
                    both = lattice_contains(p, b1, t) and lattice_contains(p, b2, t)
                    assert lattice_contains(p, b1 & b2, t) == both

    def test_fact1_inclusion_iff_subset(self):
        rng = random.Random(11)
        for _ in range(5):
            p = random_params(rng, d_max=2, k_max=4)
            pts = list(window_points(p))
            for b1 in all_bisteps(p.d):
                for b2 in all_bisteps(p.d):
                    included = all(
                        lattice_contains(p, b2, t)
                        for t in pts
                        if lattice_contains(p, b1, t)
                    )
                    assert included == b1.issubset(b2)

    def test_fact1d_witness(self):
        # A lattice not dominated by any member contains a point outside M(B).
        p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 4, 2), T=(12, 16, 8))
        c = Collection.of(p, ["110", "011"])
        b_tilde = B("101")
        assert not any(b_tilde.issubset(m) for m in c.members)
        witness = []
        lam = p.lam_int
        for i in range(p.d):
            in_witness_set = b_tilde.bits[i] == 1 and any(
                m.bits[i] == 0 for m in c.members
            )
            step = (p.k[i] + 1) if in_witness_set else p.k[i]
            witness.append(step * lam[i])
        assert lattice_contains(p, b_tilde, witness)
        assert not manhattan_contains(c, witness)


class TestCollections:
    def test_closure_single(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        c = Collection.of(p, ["10"])
        assert c.closure().members == {B("10"), B("00")}

    def test_closure_3d(self):
        p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3))
        c = Collection.of(p, ["110", "011"])
        expected = {"110", "100", "010", "000", "011", "001"}
        assert c.closure().members == {B(s) for s in expected}

    def test_closure_of_zero(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        assert Collection.of(p, ["00"]).closure().members == {B("00")}

    def test_minimal(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        assert Collection.of(p, ["10", "00"]).minimal().members == {B("10")}
        assert Collection.of(p, ["10", "01"]).minimal().members == {B("10"), B("01")}
        p3 = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3))
        c3 = Collection.of(p3, ["110", "100", "011"])
        assert c3.minimal().members == {B("110"), B("011")}

    def test_closure_minimal_generate_same_set(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_params(rng, d_max=2, k_max=4)
            c = random_collection(rng, p)
            for variant in (c.closure(), c.minimal()):
                for t in window_points(p):
                    assert manhattan_contains(c, t) == manhattan_contains(variant, t)

    def test_fact2b_inclusion_criterion(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_params(rng, d_max=2, k_max=4)
            c1 = random_collection(rng, p)
            c2 = random_collection(rng, p)
            pointwise = all(
                manhattan_contains(c2, t)
                for t in window_points(p)
                if manhattan_contains(c1, t)
            )
            dominated = all(
                any(b.issubset(b2) for b2 in c2.members) for b in c1.members
            )
            assert pointwise == dominated

    @pytest.mark.parametrize(
        "text,error",
        [
            ("10,011", DimensionError),  # wrong length
            ("1,01", DimensionError),
            ("10,2X", DomainError),  # not a bit
            ("10,", DomainError),  # empty token
        ],
    )
    def test_from_string_refuses_bad_tokens(self, text, error):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        with pytest.raises(error):
            Collection.from_string(p, text)
        assert Collection.from_string(p, " 10 , 01 ") == Collection.of(p, ["10", "01"])

    def test_manhattan_contains_examples(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        assert not manhattan_contains(c, (5, 3))
        assert manhattan_contains(c, (5, 4))
        assert manhattan_contains(c, (0, 0))


class TestVPartition:
    def test_examples(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        assert v_class(p, (0, 0)) == B("00")
        assert v_class(p, (2, 0)) == B("10")
        assert v_class(p, (2, 3)) == B("11")

    def test_off_dense_lattice(self):
        p = ManhattanParams(d=2, lam=(2, 2), k=(3, 3))
        with pytest.raises(DomainError):
            v_class(p, (1, 0))

    def test_partition_law(self):
        rng = random.Random(13)
        for _ in range(5):
            p = random_params(rng, d_max=2, k_max=4)
            lam = p.lam_int
            for b in all_bisteps(p.d):
                for t in window_points(p):
                    on_dense = all(ti % li == 0 for ti, li in zip(t, lam))
                    if not on_dense:
                        continue
                    cls = v_class(p, t)
                    # t in L_b iff its class is a subset of b
                    assert lattice_contains(p, b, t) == cls.issubset(b)


class TestDensity:
    def test_2d_closed_form(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(5, 3))
        c = Collection.of(p, ["10", "01"])
        assert density(c) == Fraction(7, 15)

    def test_table_3d(self):
        p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3))
        assert density(Collection.of(p, ["100", "010", "001"])) == Fraction(7, 27)
        assert density(Collection.of(p, ["110", "001"])) == Fraction(11, 27)
        assert density(Collection.of(p, ["110", "101", "011"])) == Fraction(19, 27)

    def test_cell_count_examples(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(5, 3))
        assert fundamental_cell_count(Collection.of(p, ["10", "01"])) == 7
        p3 = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3))
        assert fundamental_cell_count(Collection.of(p3, ["110", "001"])) == 11
        assert fundamental_cell_count(Collection.of(p, ["00"])) == 1

    def test_density_times_cell_volume_is_count(self):
        rng = random.Random(17)
        for _ in range(50):
            p = random_params(rng, d_max=4, k_max=7, discrete=False)
            c = random_collection(rng, p)
            cell_volume = 1
            for k, lam in zip(p.k, p.lam):
                cell_volume *= k * lam
            assert density(c) * cell_volume == fundamental_cell_count(c)

    def test_count_matches_window_enumeration(self):
        rng = random.Random(19)
        for _ in range(10):
            p = random_params(rng, d_max=2, k_max=4)
            c = random_collection(rng, p)
            lam = p.lam_int
            cell = [range(k * li) for k, li in zip(p.k, lam)]
            import itertools

            n = sum(
                1
                for t in itertools.product(*cell)
                if manhattan_contains(c, t)
            )
            assert n == fundamental_cell_count(c)


class TestParamsValidation:
    def test_k_must_exceed_one(self):
        with pytest.raises(DomainError):
            ManhattanParams(d=2, lam=(1, 1), k=(1, 4))

    def test_T_multiple_rule(self):
        with pytest.raises(DomainError):
            ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(10, 16))

    def test_discrete_requires_integer_lambda(self):
        with pytest.raises(DomainError):
            ManhattanParams(d=1, lam=(Fraction(1, 2),), k=(4,), T=(8,))

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, np.float64(2.0), np.float32(0.5)])
    def test_float_lambda_refused(self, lam):
        # 0.1 is not 1/10; the exact ratio must be given, not guessed
        with pytest.raises(DomainError, match="Fraction, int or str"):
            ManhattanParams(d=1, lam=(lam,), k=(4,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=(2.5,)),  # int() would truncate to 2
            dict(k=(4,), T=(16.9,)),  # int() would truncate to 16
            dict(d=1.0, k=(4,)),  # range(d) would fail later, untyped
            dict(k=(4,), T=16),  # not a sequence
            dict(k=(4,), lam=("1/0",)),  # zero denominator
            dict(k=(4,), lam=("one",)),  # unparsable
        ],
    )
    def test_inexact_numbers_refused(self, kwargs):
        with pytest.raises(DomainError):
            ManhattanParams(**{"d": 1, "lam": (1,), **kwargs})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=1, lam=1, k=(4,)),  # a scalar is not a sequence
            dict(d=1, lam=None, k=(4,)),
            dict(d=2, lam="12", k=(2, 2)),  # not read as lambda = (1, 2)
            dict(d=1, lam="1", k=(4,)),
        ],
    )
    def test_lambda_must_be_a_sequence(self, kwargs):
        with pytest.raises(DomainError, match="sequence"):
            ManhattanParams(**kwargs)

    def test_numpy_integers_accepted(self):
        i = np.int64
        p = ManhattanParams(d=1, lam=(i(2),), k=(i(4),), T=(i(16),))
        assert (p.lam, p.k, p.T) == ((Fraction(2),), (4,), (16,))
        assert all(type(x) is int for x in (*p.k, *p.T))

    def test_extents_accessors(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        with pytest.raises(DomainError):
            p.extents
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(8, 16))
        assert Grid.from_array(np.zeros((8, 16))).image(p.extents).shape == (8, 16)
        with pytest.raises(DomainError):
            Grid.from_array(np.zeros((16, 8))).image(p.extents)

    def test_exact_lambda_forms(self):
        for lam in (Fraction(1, 10), "1/10", "0.1"):
            assert ManhattanParams(d=1, lam=(lam,), k=(4,)).lam == (Fraction(1, 10),)
        assert ManhattanParams(d=1, lam=(np.int64(2),), k=(4,)).lam == (Fraction(2),)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            ManhattanParams(d=17, lam=(1,) * 17, k=(2,) * 17)
