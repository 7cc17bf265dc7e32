"""Acceptance suite: one test per quantitative claim, each printing a
PASS/FAIL line with its measured figure.  Run with `pytest -s` to see them.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    all_bisteps,
    bandlimited_image,
    random_collection,
    random_params,
    reference_sweep,
    roundtrip_error,
)
from manhattan import (
    Collection,
    Grid,
    ManhattanParams,
    density,
    extract_samples,
    guaranteed_disjoint,
    manhattan_region_volume,
    rank_report,
    reconstruct,
    replica_overlap_oracle,
    solve_reconstruct,
)
from manhattan.freq import all_atom_masks, nyquist_mask
from manhattan.reconstruct import ReconstructionPlan
from manhattan.sampler import comb_from_grid, comb_from_samples
from manhattan.oracle import SIZE_GUARD

TOL = 1e-9


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def cross_2d(k, T, lam=(1, 1)):
    p = ManhattanParams(d=2, lam=lam, k=k, T=T)
    return p, Collection.of(p, ["10", "01"])


class TestAcceptance:
    def test_01_perfect_reconstruction_2d(self):
        start = time.perf_counter()
        worst = 0.0
        for k in [(5, 3), (4, 4), (8, 8)]:
            p, c = cross_2d(k, (40, 24))
            for seed in range(20):
                worst = max(worst, roundtrip_error(p, c, seed=seed))
        elapsed = time.perf_counter() - start
        report(
            "criterion 1: 2D perfect reconstruction (k=(5,3),(4,4),(8,8), 20 seeds)",
            worst <= TOL and elapsed < 1.0,
            f"max rel err {worst:.3e}, {elapsed:.2f}s",
        )

    def test_02_perfect_reconstruction_3d(self):
        p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3), T=(12, 12, 12))
        for name, coll in [
            ("lines", "100,010,001"),
            ("facets", "110,101,011"),
            ("video", "110,001"),
        ]:
            c = Collection.from_string(p, coll)
            start = time.perf_counter()
            err = roundtrip_error(p, c, seed=1)
            elapsed = time.perf_counter() - start
            report(
                f"criterion 2: 3D perfect reconstruction ({name})",
                err <= TOL and elapsed < 5.0,
                f"max rel err {err:.3e}, {elapsed:.2f}s",
            )

    def test_03_perfect_reconstruction_4d(self):
        p = ManhattanParams(d=4, lam=(1,) * 4, k=(2,) * 4, T=(6,) * 4)
        c = Collection.from_string(p, "1000,0100,0010,0001")
        err = roundtrip_error(p, c, seed=2)
        report("criterion 3: 4D lines smoke", err <= TOL, f"max rel err {err:.3e}")

    def test_04_density_table(self):
        p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3))
        rows = [
            ("100,010,001", Fraction(7, 27)),
            ("110,001", Fraction(11, 27)),
            ("110,101,011", Fraction(19, 27)),
        ]
        ok = all(
            density(Collection.from_string(p, coll)) == expected
            for coll, expected in rows
        )
        rng = random.Random(41)
        for _ in range(50):
            k = (rng.randint(2, 9), rng.randint(2, 9))
            lam = (
                Fraction(rng.randint(1, 4), rng.randint(1, 4)),
                Fraction(rng.randint(1, 4), rng.randint(1, 4)),
            )
            p2 = ManhattanParams(d=2, lam=lam, k=k)
            c2 = Collection.of(p2, ["10", "01"])
            expected = Fraction(k[0] + k[1] - 1, k[0] * k[1]) / (lam[0] * lam[1])
            ok = ok and density(c2) == expected
        report("criterion 4: density exact (Table values + 50 random 2D)", ok)

    def test_05_landau_identity(self):
        rng = random.Random(43)
        ok = True
        for _ in range(100):
            p = random_params(rng, d_max=4, k_max=7, discrete=False)
            c = random_collection(rng, p)
            ok = ok and manhattan_region_volume(c) == density(c)
        report("criterion 5: Landau identity, 100 random configs", ok)

    def test_06_sample_counting(self):
        rng = random.Random(47)
        ok = True
        for _ in range(50):
            p = random_params(rng, d_max=3, k_max=4)
            c = random_collection(rng, p)
            ss = extract_samples(Grid.from_array(np.zeros(p.T)), c)
            ok = ok and len(ss) == ss.expected_count
        report("criterion 6: sample count formula, 50 random configs", ok)

    @pytest.mark.parametrize("d,k", [(2, (2, 3)), (3, (2, 2, 3))])
    def test_07_lemma1_soundness(self, d, k):
        p = ManhattanParams(d=d, lam=(1,) * d, k=k, T=tuple(4 * ki for ki in k))
        violations = [
            (s, b, b2)
            for s, b, b2 in itertools.product(all_bisteps(d), repeat=3)
            if guaranteed_disjoint(s, b, b2) and replica_overlap_oracle(s, b, b2, p)
        ]
        report(
            f"criterion 7: overlap-guarantee soundness d={d}",
            not violations,
            f"{len(violations)} violations over {8 ** d} triples",
        )

    def test_08_procedure_cross_validation(self):
        worst = 0.0
        for k in [(5, 3), (4, 4), (8, 8)]:
            p, c = cross_2d(k, (40, 24))
            for seed in range(5):
                ref = bandlimited_image(p, c, seed=seed)
                ss = extract_samples(ref, c)
                folded = reconstruct(ss).data.real
                full_size = reference_sweep(ss)
                scale = np.abs(ref.data.real).max()
                worst = max(worst, np.abs(folded - full_size).max() / scale)
        report(
            "criterion 8a: folded engine vs full-size comb sweep",
            worst <= TOL,
            f"max rel diff {worst:.3e}",
        )

        # replica-sum form of each subtraction term on a 16x16 grid
        p, c = cross_2d((4, 4), (16, 16))
        ref = bandlimited_image(p, c, seed=13)
        ss = extract_samples(ref, c)
        plan = ReconstructionPlan.for_collection(c)
        spectra, spatial = {}, {}
        for b in plan.members:
            comb = comb_from_samples(ss, b).grid.data.copy()
            for b2, x2 in spatial.items():
                if b2.weight > b.weight:
                    comb -= comb_from_grid(x2, b, p).grid.data
            spectra[b] = np.fft.fftn(comb) * plan.masks[b].kept
            spatial[b] = Grid(tuple(p.T), np.fft.ifftn(spectra[b]).real)
        worst = 0.0
        for b in plan.members:
            for b2 in plan.members:
                if b2.weight <= b.weight:
                    continue
                term = (
                    np.fft.fftn(comb_from_grid(spatial[b2], b, p).grid.data)
                    * plan.masks[b].kept
                )
                per_dim = []
                for i in range(p.d):
                    if b.bits[i]:
                        per_dim.append([0])
                    else:
                        step = p.T[i] // (p.k[i] * p.lam_int[i])
                        per_dim.append(
                            sorted(
                                {
                                    (n * step) % p.T[i]
                                    for n in range(-(p.k[i] - 1), p.k[i])
                                }
                            )
                        )
                replica_sum = np.zeros(p.T, dtype=complex)
                for s in itertools.product(*per_dim):
                    replica_sum += np.roll(spectra[b2], s, axis=(0, 1))
                replica_sum *= plan.masks[b].kept
                scale = max(np.abs(term).max(), 1e-30)
                worst = max(worst, np.abs(term - replica_sum).max() / scale)
        report(
            "criterion 8b: replica-sum form reproduces subtraction terms",
            worst <= TOL,
            f"max rel diff {worst:.3e}",
        )

    def test_09_brute_force_oracle(self):
        worst = 0.0
        cases = [
            (2, (1, 1), (2, 2), (8, 8), "10,01"),
            (3, (1, 1, 1), (2, 2, 2), (4, 4, 4), "100,010,001"),
        ]
        for d, lam, k, T, coll in cases:
            p = ManhattanParams(d=d, lam=lam, k=k, T=T)
            c = Collection.from_string(p, coll)
            ref = bandlimited_image(p, c, seed=3)
            ss = extract_samples(ref, c)
            diff = np.abs(
                reconstruct(ss).data.real - solve_reconstruct(ss).data.real
            ).max()
            worst = max(worst, diff / np.abs(ref.data.real).max())
        report(
            "criterion 9a: engine vs linear-solve oracle",
            worst <= 1e-8,
            f"max rel diff {worst:.3e}",
        )

        ranks_ok = True
        small_configs = cases + [
            (2, (1, 1), (4, 4), (8, 8), "10,01"),
            (3, (1, 1, 1), (3, 3, 3), (6, 6, 6), "110,001"),
        ]
        import math

        for d, lam, k, T, coll in small_configs:
            if math.prod(T) > SIZE_GUARD:
                continue
            p = ManhattanParams(d=d, lam=lam, k=k, T=T)
            c = Collection.from_string(p, coll)
            ss = extract_samples(Grid.from_array(np.zeros(T)), c)
            ranks_ok = ranks_ok and rank_report(ss).full_column_rank
        report("criterion 9b: full column rank on small configs", ranks_ok)

    def test_10_partition_laws(self):
        rng = random.Random(53)
        masks_ok = True
        for d in (1, 2, 3):
            for _ in range(4):
                k = tuple(rng.randint(2, 4) for _ in range(d))
                lam = tuple(rng.randint(1, 2) for _ in range(d))
                T = tuple(4 * ki * li for ki, li in zip(k, lam))
                p = ManhattanParams(d=d, lam=lam, k=k, T=T)
                masks = list(all_atom_masks(p).values())
                union = np.zeros(T, dtype=bool)
                for i, m in enumerate(masks):
                    masks_ok = masks_ok and all(
                        m.disjoint(m2) for m2 in masks[i + 1 :]
                    )
                    union |= m.kept
                masks_ok = masks_ok and np.array_equal(
                    union, nyquist_mask(p, p.lam_int).kept
                )
        report("criterion 10a: atom masks partition the dense Nyquist mask", masks_ok)

        from math import lcm

        from manhattan import lattice_contains, v_class

        spatial_ok = True
        for _ in range(5):
            p = random_params(rng, d_max=2, k_max=4)
            lam = p.lam_int
            period = lcm(*(ki * li for ki, li in zip(p.k, lam)))
            pts = itertools.product(*[range(2 * period)] * p.d)
            for t in pts:
                if any(ti % li for ti, li in zip(t, lam)):
                    continue
                cls = v_class(p, t)
                for b in all_bisteps(p.d):
                    spatial_ok = spatial_ok and (
                        lattice_contains(p, b, t) == cls.issubset(b)
                    )
        report("criterion 10b: V_b partition of the dense lattice", spatial_ok)
