import io
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import all_bisteps, random_collection, random_params
from manhattan import (
    BiStep,
    Collection,
    DimensionError,
    DomainError,
    ManhattanParams,
    atom_mask,
    atom_volume,
    density,
    guaranteed_disjoint,
    manhattan_region_volume,
    nyquist_mask,
    region_mask,
    replica_overlap_oracle,
)
from manhattan.freq import all_atom_masks, axis_kept
from manhattan.grid import Grid, write_pgm


def B(s):
    return BiStep.from_string(s)


class TestAtomVolumes:
    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(5, 3))

    def test_lowpass_atom(self):
        assert atom_volume(B("00"), self.p) == Fraction(1, 15)

    def test_highpass_atom(self):
        assert atom_volume(B("10"), self.p) == Fraction(4, 15)
        with pytest.raises(DimensionError):
            atom_volume(B("100"), self.p)

    def test_closure_sum_equals_density(self):
        c = Collection.of(self.p, ["10", "01"])
        assert manhattan_region_volume(c) == Fraction(7, 15) == density(c)

    def test_region_volume_examples(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4))
        assert manhattan_region_volume(Collection.of(p, ["10", "01"])) == Fraction(7, 16)
        p3 = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3))
        facets = Collection.of(p3, ["110", "101", "011"])
        assert manhattan_region_volume(facets) == Fraction(19, 27)

    def test_all_atoms_fill_dense_nyquist(self):
        p = ManhattanParams(d=2, lam=(2, 3), k=(4, 5))
        c = Collection.of(p, ["11"])
        assert manhattan_region_volume(c) == Fraction(1, 6)

    def test_landau_identity_random(self):
        rng = random.Random(23)
        for _ in range(100):
            p = random_params(rng, d_max=4, k_max=7, discrete=False)
            c = random_collection(rng, p)
            assert manhattan_region_volume(c) == density(c)


class TestNyquistMask:
    def test_axis_examples(self):
        assert list(np.nonzero(axis_kept(16, 4))[0]) == [0, 1, 15]
        assert axis_kept(16, 1).sum() == 15  # edge bin 8 excluded
        assert list(np.nonzero(axis_kept(12, 2))[0]) == [0, 1, 2, 10, 11]
        for T in range(1, 65):  # the Fraction definition, every divisor alpha
            for alpha in (a for a in range(1, T + 1) if T % a == 0):
                half = Fraction(T, 2 * alpha)
                expected = [u < half or u > T - half for u in range(T)]
                assert axis_kept(T, alpha).tolist() == expected, (T, alpha)

    def test_mask_counts(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        assert nyquist_mask(p, (4, 4)).count == 9
        assert nyquist_mask(p, (1, 1)).count == 225

    def test_step_must_divide(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        with pytest.raises(DomainError):
            nyquist_mask(p, (3, 4))


class TestAtomMasks:
    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))

    def test_counts(self):
        assert atom_mask(B("00"), self.p).count == 9
        assert atom_mask(B("10"), self.p).count == (15 - 3) * 3

    def test_union_is_dense_nyquist(self):
        masks = all_atom_masks(self.p)
        union = np.zeros(self.p.T, dtype=bool)
        for m in masks.values():
            union |= m.kept
        assert np.array_equal(union, nyquist_mask(self.p, (1, 1)).kept)

    def test_partition_exhaustive(self):
        # atoms pairwise disjoint, union dense Nyquist, for d <= 3, k_i <= 4
        rng = random.Random(29)
        for d in (1, 2, 3):
            for _ in range(3):
                k = tuple(rng.randint(2, 4) for _ in range(d))
                lam = tuple(rng.randint(1, 2) for _ in range(d))
                T = tuple(4 * ki * li for ki, li in zip(k, lam))
                p = ManhattanParams(d=d, lam=lam, k=k, T=T)
                masks = list(all_atom_masks(p).values())
                total = 0
                union = np.zeros(T, dtype=bool)
                for i, m in enumerate(masks):
                    total += m.count
                    union |= m.kept
                    for m2 in masks[i + 1 :]:
                        assert m.disjoint(m2)
                dense = nyquist_mask(p, p.lam_int)
                assert total == dense.count
                assert np.array_equal(union, dense.kept)

    def test_fact3b_atom_in_nyquist_iff_subset(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(3, 4), T=(12, 16))
        for b in all_bisteps(2):
            nyq = nyquist_mask(p, p.step_int(b))
            for b2 in all_bisteps(2):
                contained = bool(
                    np.array_equal(
                        atom_mask(b2, p).kept & nyq.kept, atom_mask(b2, p).kept
                    )
                )
                assert contained == b2.issubset(b)

    def test_region_mask_cross(self):
        c = Collection.of(self.p, ["10", "01"])
        m = region_mask(c)
        expected = (
            atom_mask(B("00"), self.p).kept
            | atom_mask(B("10"), self.p).kept
            | atom_mask(B("01"), self.p).kept
        )
        assert np.array_equal(m.kept, expected)

    def test_region_mask_degenerate(self):
        assert np.array_equal(
            region_mask(Collection.of(self.p, ["11"])).kept,
            nyquist_mask(self.p, (1, 1)).kept,
        )
        assert np.array_equal(
            region_mask(Collection.of(self.p, ["00"])).kept,
            nyquist_mask(self.p, (4, 4)).kept,
        )

    def test_volume_mask_consistency(self):
        # |mask|/prod(T) approaches the atom volume as T grows
        for n in (8, 16, 32):
            p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(4 * n, 4 * n))
            b = B("10")
            frac = atom_mask(b, p).count / (16 * n * n)
            vol = float(atom_volume(b, p))
            assert abs(frac - vol) < 2.0 / (4 * n)

    def test_mask_pgm_export(self):
        m = region_mask(Collection.of(self.p, ["10", "01"]))
        buf = io.BytesIO()
        write_pgm(buf, Grid.from_array(m.kept.astype(float)))
        assert buf.getvalue().startswith(b"P5\n16 16\n255\n")


class TestOverlapPredicates:
    def test_lemma1a_example(self):
        assert guaranteed_disjoint(B("01"), B("00"), B("01"))

    def test_overlap_case_not_guaranteed(self):
        assert not guaranteed_disjoint(B("01"), B("00"), B("10"))

    def test_corollary_example(self):
        assert guaranteed_disjoint(B("10"), B("10"), B("01"))

    def test_oracle_trivial_dense(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 8))
        one = B("11")
        assert not replica_overlap_oracle(one, one, one, p)

    def test_oracle_detects_known_overlap(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        assert replica_overlap_oracle(B("01"), B("00"), B("10"), p)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equal_lattice_rule_is_implied(self, d):
        # b == s with weight(b') <= weight(s) needs no rule of its own
        for s, b2 in itertools.product(all_bisteps(d), repeat=2):
            if b2.weight <= s.weight:
                assert guaranteed_disjoint(s, s, b2), (s, b2)

    @pytest.mark.parametrize(
        "d,k",
        [(2, (2, 3)), (3, (2, 2, 3))],
    )
    def test_lemma1_soundness(self, d, k):
        lam = (1,) * d
        T = tuple(4 * ki for ki in k)
        p = ManhattanParams(d=d, lam=lam, k=k, T=T)
        for s, b, b2 in itertools.product(all_bisteps(d), repeat=3):
            if guaranteed_disjoint(s, b, b2):
                assert not replica_overlap_oracle(s, b, b2, p), (s, b, b2)
