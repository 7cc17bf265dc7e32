import importlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    bandlimited_image,
    random_collection,
    random_params,
    reference_sweep,
    roundtrip_error,
    sweep_components,
)
from manhattan import (
    BiStep,
    Collection,
    DomainError,
    Grid,
    ManhattanParams,
    MissingSamplesError,
    NumericalFailureError,
    SampleSet,
    bandlimit,
    extract_samples,
    reconstruct,
    solve_reconstruct,
    spectrum_report,
)
from manhattan import grid
from manhattan.freq import atom_mask, region_mask
from manhattan.grid import _fold, _fold_slices, _slices, synthesize
from manhattan.reconstruct import ReconstructionPlan
from manhattan.sampler import comb_from_grid, comb_from_samples

engine = importlib.import_module("manhattan.reconstruct")  # the attribute is the function


def B(s):
    return BiStep.from_string(s)


class TestPerfectReconstruction:
    @pytest.mark.parametrize(
        "d,lam,k,T,coll",
        [
            (2, (1, 1), (5, 3), (40, 24), "10,01"),
            (2, (1, 1), (4, 4), (16, 16), "10,01"),
            (2, (2, 2), (4, 4), (32, 32), "10,01"),
            (3, (1, 1, 1), (3, 3, 3), (12, 12, 12), "100,010,001"),
            (3, (1, 1, 1), (3, 3, 3), (12, 12, 12), "110,101,011"),
            (3, (1, 1, 1), (2, 3, 2), (8, 12, 8), "110,001"),
            (1, (1,), (4,), (16,), "1"),
        ],
    )
    def test_round_trip(self, d, lam, k, T, coll):
        p = ManhattanParams(d=d, lam=lam, k=k, T=T)
        c = Collection.from_string(p, coll)
        assert roundtrip_error(p, c, seed=42) <= 1e-9

    def test_coarse_only_bandlimited(self):
        # image limited to the coarse Nyquist region reconstructs from any B
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        coarse = Collection.of(p, ["00"])
        ref = bandlimited_image(p, coarse, seed=5)
        rec = reconstruct(extract_samples(ref, c))
        err = np.abs(rec.data.real - ref.data.real).max()
        assert err <= 1e-9 * np.abs(ref.data.real).max()

    def test_zero_image(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 8))
        c = Collection.of(p, ["10", "01"])
        ss = extract_samples(Grid.from_array(np.zeros((8, 8))), c)
        assert not reconstruct(ss).data.any()

    def test_random_configs(self):
        rng = random.Random(37)
        for _ in range(10):
            p = random_params(rng, d_max=4, k_max=4)
            c = random_collection(rng, p)
            seed = rng.randint(0, 10**6)
            assert roundtrip_error(p, c, seed=seed) <= 1e-9
            ref = bandlimited_image(p, c, seed=seed)
            ss = extract_samples(ref, c)
            scale = np.abs(ref.data.real).max()
            diff = np.abs(reconstruct(ss).data.real - reference_sweep(ss)).max()
            assert diff <= 1e-9 * scale


MALFORMED = [
    ("missing", MissingSamplesError),
    ("duplicate", MissingSamplesError),
    ("off-set", MissingSamplesError),
    ("nan", DomainError),
    ("out-of-range", MissingSamplesError),
]
ENTRY_POINTS = {  # id prefix -> entry point; reconstruct keeps its original ids
    "": reconstruct,
    "comb-": lambda ss: comb_from_samples(ss, B("10")),
}


class TestMalformedSamples:
    """Sample sets that cannot give an exact reconstruction are refused where
    they are built, so that no entry point ever sees one."""

    @staticmethod
    def corrupt(ss, kind):
        """The points and values of ss with one fault of the given kind."""
        coords, values = ss.coords.copy(), ss.values.copy()
        if kind == "missing":
            coords, values = coords[1:], values[1:]
        elif kind == "duplicate":  # every point is still hit, one twice
            coords = np.vstack([coords, coords[:1]])
            values = np.append(values, values[0] + 1.0)
        elif kind == "off-set":
            coords[0] = (1, 1)  # dense in both dimensions: not on 10 or 01
        elif kind == "nan":
            values[3] = np.nan
        elif kind == "out-of-range":
            coords[0, 0] = -ss.params.T[0]  # numpy indexing would wrap it to 0
        return coords, values

    @pytest.mark.parametrize(
        "entry,kind,error",
        [
            pytest.param(entry, kind, error, id=f"{prefix}{kind}-{error.__name__}")
            for prefix, entry in ENTRY_POINTS.items()
            for kind, error in MALFORMED
        ],
    )
    def test_refused(self, entry, kind, error):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        ss = extract_samples(bandlimited_image(p, c, seed=3), c)
        with pytest.raises(error):  # by SampleSet: the entry is not reached
            entry(SampleSet(p, c, *self.corrupt(ss, kind)))

    @pytest.mark.parametrize(
        "entry,kind,error",
        [
            pytest.param(entry, kind, error, id=f"{prefix}{kind}-{error.__name__}")
            for prefix, entry in ENTRY_POINTS.items()
            for kind, error in MALFORMED
        ],
    )
    def test_refused_in_any_order(self, entry, kind, error):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        coords, values = self.corrupt(extract_samples(bandlimited_image(p, c, seed=3), c), kind)
        perm = np.random.default_rng(4).permutation(len(values))
        with pytest.raises(error):
            entry(SampleSet(p, c, coords[perm], values[perm]))

    @pytest.mark.parametrize("entry,error,bad", [
        pytest.param(entry, error, bad, id=entry.__name__ + suffix)
        for entry, error in [(reconstruct, NumericalFailureError), (solve_reconstruct, DomainError)]
        for bad, suffix in [(np.nan, ""), (np.inf, "-inf"), (-np.inf, "--inf")]
    ])
    def test_values_written_after_building_refused(self, entry, error, bad):
        # a set adopts a float64 array in order through a read-only view; the
        # caller's array stays writable and can still write a NaN or inf, which
        # synthesize's check refuses in reconstruct, and the oracle by its own gate
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        shared = extract_samples(bandlimited_image(p, c, seed=3), c).values.copy()
        ss = SampleSet(p, c, None, shared)
        shared[3] = bad
        with pytest.raises(error, match="finite"):  # "not finite and Hermitian" in reconstruct
            entry(ss)

    @pytest.mark.parametrize("T,k", [((32, 32), (4, 4)), ((16, 16), (2, 2))],
                             ids=["other-T", "other-k"])
    def test_params_differ_from_collection(self, T, k):
        # the plan reads the collection's params; the scatter and MHS1 the sample set's
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        ss = extract_samples(bandlimited_image(p, c, seed=3), c)
        other = ManhattanParams(d=2, lam=(1, 1), k=k, T=T)
        with pytest.raises(DomainError):
            SampleSet(other, c, ss.coords, ss.values)

    def test_count_checked_before_anything_of_size_T(self):
        # 2 samples on T = 4096^2: refused before a 16 MB indicator of M(B) is built
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(4096, 4096))
        c = Collection.of(p, ["10", "01"])
        tracemalloc.start()
        try:
            with pytest.raises(MissingSamplesError) as exc:
                SampleSet(p, c, np.array([[0, 0], [0, 1]]), np.array([1.0, 2.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "2 samples given" in str(exc.value)
        assert f"{7 * 4096 ** 2 // 16} points" in str(exc.value)
        assert peak < 1 << 20


class TestHalfSpectrumEngine:
    """Run-slice folds and the Hermitian check of the half-spectrum sweep."""

    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        self.c = Collection.of(self.p, ["10", "01"])
        self.ref = bandlimited_image(self.p, self.c, seed=6)
        self.plan = ReconstructionPlan.for_collection(self.c)
        self.X = np.fft.fftn(self.ref.data)
        t = self.p.T[-1]
        self.lower = {b: (*u[:-1], u[-1][u[-1] <= t // 2]) for b, u in self.plan.axes.items()}

    def held(self, axes, shape):
        """The setup's atom blocks on the given kept indices, held there in a spectrum
        of the given shape, zero elsewhere."""
        X = np.zeros(shape, dtype=complex)
        for u in axes.values():
            X[np.ix_(*u)] = self.X[np.ix_(*u)]
        return X

    def whole(self, b=B("00"), bump=0.0):
        """The setup's whole atom blocks in a read-only whole spectrum, the bin at place
        (1, 2) of atom b's block bumped by ``bump`` times the peak |X|, its mirror not."""
        X = self.held(self.plan.axes, self.p.T)
        u, v = (axes[p] for axes, p in zip(self.plan.axes[b], (1, 2)))
        X[u, v] += bump * np.abs(X).max()
        X.setflags(write=False)
        return X

    def test_assembly_inverts_to_image(self):
        image = synthesize(self.p.T, self.whole()).data
        assert np.abs(image - self.ref.data).max() <= 1e-12 * np.abs(self.ref.data).max()

    @pytest.mark.parametrize("bump", [1e-3j, 1e-3, np.nan])
    def test_non_hermitian_block_refused(self, bump):
        # the job of the old imaginary-residue scan, which irfftn cannot do
        with pytest.raises(NumericalFailureError, match="not finite and Hermitian"):
            synthesize(self.p.T, self.whole(B("10"), bump))

    def test_rounding_asymmetry_accepted(self):
        synthesize(self.p.T, self.whole(B("00"), 1e-13j))

    def test_overflowing_samples_refused(self):
        # finite samples whose spectrum overflows to inf/NaN: no NaN image
        checker = np.indices(self.p.T).sum(axis=0) % 2 * 2 - 1
        image = Grid.from_array(1.7e308 * checker)
        with pytest.raises(NumericalFailureError):
            reconstruct(extract_samples(image, self.c))

    def test_fold_matches_scatter_add(self):
        # every (T, step, atom) fold of a random block equals a brute-force fold
        rng = np.random.default_rng(8)
        for T, k, lam in [((16, 12), (4, 3), (1, 1)), ((18, 6), (3, 2), (1, 3))]:
            p = ManhattanParams(d=2, lam=lam, k=k, T=T)
            plan = ReconstructionPlan.for_collection(Collection.of(p, ["11"]))
            for b, b_prime in itertools.product(plan.members, repeat=2):
                axes = plan.axes[b_prime]
                m = tuple(t // s for t, s in zip(T, p.step_int(b)))
                block = rng.normal(size=[len(u) for u in axes])
                want = np.zeros(m)
                np.add.at(want, np.ix_(*(u % mi for u, mi in zip(axes, m))), block)
                got = np.zeros((m[0], m[1] // 2 + 1))
                for src, dst in _slices(axes, m):
                    got[dst] += block[src]
                assert np.allclose(got, want[:, : m[1] // 2 + 1], atol=1e-12)

    def test_lower_block_fold_matches_scatter_add(self):
        # _fold, through _fold_slices, of the lower half of a Hermitian block held in a
        # half spectrum on T equals the brute-force fold of the whole block, also where
        # a dense last axis wraps a coarse one; the half spectrum is left as it was
        rng = np.random.default_rng(9)
        wrapped = 0
        for T, k, lam in [((16, 12), (4, 3), (1, 1)), ((18, 6), (3, 2), (1, 3)),
                          ((12, 8, 16), (3, 2, 4), (1, 2, 1))]:
            p = ManhattanParams(d=len(T), lam=lam, k=k, T=T)
            plan = ReconstructionPlan.for_collection(Collection.of(p, ["1" * len(T)]))
            X = np.fft.fftn(rng.normal(size=T))
            for b, b_prime in itertools.product(plan.members, repeat=2):
                axes = plan.axes[b_prime]
                m = tuple(t // s for t, s in zip(T, p.step_int(b)))
                block = X[np.ix_(*axes)]
                want = np.zeros(m, dtype=complex)
                np.add.at(want, np.ix_(*(u % mi for u, mi in zip(axes, m))), block)
                low = axes[-1] <= T[-1] // 2
                lower = (*axes[:-1], axes[-1][low])
                half = np.zeros((*T[:-1], T[-1] // 2 + 1), dtype=complex)
                half[np.ix_(*lower)] = block[..., low]
                held = half.copy()
                half.setflags(write=False)  # a fold only reads the blocks it subtracts
                got = np.zeros((*m[:-1], m[-1] // 2 + 1), dtype=complex)
                _fold(got, half, _fold_slices(lower, T, m))
                assert np.abs(got + want[..., : m[-1] // 2 + 1]).max() <= 1e-12 * np.abs(X).max()
                assert half.tobytes() == held.tobytes()
                wrapped += block.size > 0 and not np.all(2 * axes[-1][low] < m[-1])
        assert wrapped >= 4

    def half(self):
        """The setup's lower blocks in one half spectrum."""
        return self.held(self.lower, (*self.p.T[:-1], self.p.T[-1] // 2 + 1))

    def test_lower_only_blocks_invert_to_image(self):
        half = self.half()
        image = synthesize(self.p.T, half).data
        assert np.abs(image - self.ref.data).max() <= 1e-12 * np.abs(self.ref.data).max()
        assert np.shares_memory(image, half)  # inverted in place

    @pytest.mark.parametrize("bump", [1e-3j, 1e-3, np.nan])
    def test_lower_only_bump_on_zero_plane_refused(self, bump):
        # a lower-only block's u_last = 0 plane holds both u and -u; in a read-only
        # whole spectrum, which holds the blocks' mirrors too, it is checked as well
        X = self.held(self.plan.axes, self.p.T)
        axes = self.lower[B("00")]
        assert axes[-1][0] == 0
        X[axes[0][1], 0] += bump * np.abs(X).max()  # its mirror is left alone
        X.setflags(write=False)
        with pytest.raises(NumericalFailureError, match="not finite and Hermitian"):
            synthesize(self.p.T, X)

    @pytest.mark.parametrize("bump", [1e-3j, 1e-3, np.nan])
    def test_held_bump_on_zero_plane_refused(self, bump):
        half = self.half()
        half[1, 0] += bump * np.abs(half).max()  # atom 00's; its mirror [-1, 0] is left alone
        with pytest.raises(NumericalFailureError, match="not finite and Hermitian"):
            synthesize(self.p.T, half)

    def test_bump_outside_every_atom_refused(self):
        # the check is on the spectrum, not on the atoms: bin (8, 0), which no atom
        # keeps, is its own mirror, so an imaginary part there is refused too
        half = self.half()
        assert all(8 not in u[0] for u in self.lower.values())
        half[8, 0] = 1e-3j * np.abs(half).max()
        with pytest.raises(NumericalFailureError, match="not finite and Hermitian"):
            synthesize(self.p.T, half)

    @pytest.mark.parametrize("in_half", [False, True])
    def test_nan_in_a_later_block_refused(self, in_half):
        # a NaN in a block after the first, u_last > 0, is refused by the largest |X|,
        # whether it is held in a half spectrum, where no mirror check reaches it,
        # or in a read-only whole one that holds the blocks' mirrors too
        b = B("01")
        u, v = (axes[p] for axes, p in zip(self.lower[b], (2, 3)))  # u_last > 0
        X = self.half() if in_half else self.held(self.plan.axes, self.p.T)
        X[u, v] = np.nan
        X.setflags(write=in_half)
        assert v > 0
        with pytest.raises(NumericalFailureError, match="peak nan"):
            synthesize(self.p.T, X)

    def test_empty_axis_has_no_slices(self):
        # T=6, k=2, lambda=3: the highpass band of atom 1 keeps no DFT index
        p = ManhattanParams(d=2, lam=(3, 1), k=(2, 2), T=(6, 4))
        c = Collection.of(p, ["10", "01"])
        plan = ReconstructionPlan.for_collection(c)
        assert len(plan.axes[B("10")][0]) == 0
        assert _slices(plan.axes[B("10")], p.T) == ()
        assert roundtrip_error(p, c, seed=5) <= 1e-9


class TestFinestLatticeTransforms:
    """Only members with no superset b | e_i (i not the last axis) run a forward
    transform; each other member sums the replicas of such a superset's raw spectrum."""

    @pytest.mark.parametrize(
        "T,k,coll,calls",
        [((12, 12, 12), (3, 3, 3), "110,101,011", 3), ((16, 16), (4, 4), "10,01", 2)],
    )
    def test_rfftn_calls(self, monkeypatch, T, k, coll, calls):
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        c = Collection.from_string(p, coll)
        ref = bandlimited_image(p, c, seed=10)
        ss = extract_samples(ref, c)
        forward, seen = engine._raw_spectrum, []
        monkeypatch.setattr(engine, "_raw_spectrum", lambda *a: seen.append(1) or forward(*a))
        result = reconstruct(ss)
        assert len(seen) == calls
        assert np.abs(result.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()

    def test_gather_sees_subsampled_transform_less_superset_folds(self, monkeypatch):
        # with the folds on, each member's half spectrum at its gather is
        # rfftn(x[::s]) * prod(s) less every strict superset's recovered block
        # folded modulo m, whether its source was a transform or a peeled residual
        gather, seen = engine._gather, []

        def spy(half, H, slices):
            gather(half, H, slices)
            seen.append((H.copy(), half.copy()))

        monkeypatch.setattr(engine, "_gather", spy)
        rng = random.Random(12)
        configs = [ManhattanParams(d=3, lam=(3, 1, 2), k=(2, 3, 4), T=(12, 6, 16)),
                   ManhattanParams(d=4, lam=(1, 3, 1, 1), k=(2, 2, 3, 2), T=(4, 12, 6, 4))]
        while len(configs) < 25:
            p = random_params(rng, d_max=4, k_max=4)
            if np.prod(p.T) <= 20000:
                configs.append(p)
        for p in configs:
            c = Collection.of(p, ["1" * p.d])  # every bi-step is in the closure
            x = np.random.default_rng(p.d).normal(size=p.T)
            seen.clear()
            reconstruct(extract_samples(Grid.from_array(x), c))
            plan = ReconstructionPlan.for_collection(c)
            assert len(seen) == len(plan.steps) == len(plan.members)
            spectra = {}  # each recovered atom, lower block and mirrors, on the full grid
            for step, (H, out) in zip(plan.steps, seen):
                b = B(step.name.removeprefix("atom "))
                assert {bp for bp in plan.members if bp != b and b.issubset(bp)} <= set(spectra)
                s = p.step_int(b)
                m = tuple(t // si for t, si in zip(p.T, s))
                want = np.fft.rfftn(x[tuple(slice(None, None, si) for si in s)]) * np.prod(s)
                for b_prime, X in spectra.items():
                    if b.issubset(b_prime):  # brute force: sum the replicas modulo m
                        folded = X.reshape([n for si, mi in zip(s, m) for n in (si, mi)])
                        want -= folded.sum(axis=tuple(range(0, 2 * p.d, 2)))[..., : m[-1] // 2 + 1]
                assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max()
                u = plan.axes[b]
                axes, X = (*u[:-1], u[-1][u[-1] <= p.T[-1] // 2]), np.zeros(p.T, dtype=complex)
                block = out[np.ix_(*axes)]  # the atom as gathered into the output
                X[np.ix_(*axes)] = block
                up = axes[-1] > 0  # the u_last = 0 plane holds its own mirrors
                mirrors = (*(-u % t for u, t in zip(axes[:-1], p.T)), -axes[-1][up] % p.T[-1])
                X[np.ix_(*mirrors)] = block[..., up].conj()
                spectra[b] = X


class TestCompiledSweep:
    """The plan is compiled once per collection; a call only replays its steps."""

    def setup_method(self):
        self.p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3), T=(12, 12, 12))
        self.c = Collection.from_string(self.p, "110,101,011")
        self.image = bandlimited_image(self.p, self.c, seed=13)

    def test_slices_built_only_while_compiling(self, monkeypatch):
        ss = extract_samples(self.image, self.c)
        ReconstructionPlan.for_collection.cache_clear()
        runs, calls = grid._runs, []
        monkeypatch.setattr(grid, "_runs", lambda *args: calls.append(1) or runs(*args))
        first = reconstruct(ss)
        compiled = len(calls)
        second = reconstruct(ss)
        p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3), T=(12, 12, 12))
        again = bandlimit(self.image, Collection.from_string(p, "011,101,110"))  # equal, not same
        assert compiled > 0 and len(calls) == compiled
        assert second.data.tobytes() == first.data.tobytes()
        plan = ReconstructionPlan.for_collection(self.c)  # cached; equal to itself, hashable
        assert plan is ReconstructionPlan.for_collection(self.c) and plan == plan
        assert len({plan, plan}) == 1
        assert np.abs(again.data - self.image.data).max() <= 1e-12 * np.abs(self.image.data).max()

    def test_holds_no_full_size_array(self):
        # the cache keeps slices and per-axis index arrays, never a mask or a spectrum,
        # even once a caller has read the plan's full-size masks
        T = (64, 48)
        c = Collection.from_string(ManhattanParams(d=2, lam=(1, 1), k=(2, 4), T=T), "10,01")
        plan = ReconstructionPlan.for_collection(c)
        assert max(mask.kept.size for mask in plan.masks.values()) == np.prod(T)
        sizes, todo, seen = [], [plan], set()
        while todo:
            x = todo.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, np.ndarray):
                sizes.append(x.size)
            elif isinstance(x, (tuple, list)):
                todo.extend(x)
            elif isinstance(x, dict):
                todo.extend(x.values())
            elif callable(x):  # a _cells pairs function and what it closes over
                todo.extend(cell.cell_contents for cell in x.__closure__ or ())
            elif hasattr(x, "__dict__"):
                todo.extend(vars(x).values())
        assert sizes and max(sizes) <= max(T)

    @pytest.mark.parametrize("T,k,coll,turns", [
        ((16, 16), (4, 4), "10,01", "01 10 00"),
        ((12, 12, 12), (3, 3, 3), "110,101,011", "011 101 001 110 010 100 000"),
        ((8, 8, 8, 8), (2, 2, 2, 2), "1100,0011,1010", "0011 0001 1010 0010 1100 0100 1000 0000")])
    def test_turns(self, T, k, coll, turns):
        # a member's turn comes once its supersets are done: a member whose sum
        # is held first, else the read that leaves the fewest children waiting; a
        # child summed in its parent's memory runs before any further read
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        steps = ReconstructionPlan.for_collection(Collection.from_string(p, coll)).steps
        names = [st.name for st in steps]
        assert " ".join(name.removeprefix("atom ") for name in names) == turns
        for j, step in enumerate(steps):
            for name, _, _, in_place in step.children:
                between = steps[j + 1 : names.index(name)]
                assert not in_place or all(st.read is None for st in between), (step.name, name)
        assert any(in_place for st in steps for *_, in_place in st.children)

    @pytest.mark.parametrize("T,k,coll,folds,pairs", [
        ((12, 12, 12), (3, 3, 3), "110,101,011", 6, 12), ((16, 16), (4, 4), "10,01", 1, 2)])
    def test_fold_counts(self, T, k, coll, folds, pairs):
        # a member sums its parent's peeled residual, which has already folded
        # out every superset of that parent: only the others are folded
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        c = Collection.from_string(p, coll)
        plan = ReconstructionPlan.for_collection(c)
        members = plan.members
        assert sum(b != b2 and b.issubset(b2) for b in members for b2 in members) == pairs
        assert sum(len(step.folds) for step in plan.steps) == folds


class TestSweepStructure:
    def setup_method(self):
        self.p = ManhattanParams(d=3, lam=(1, 1, 1), k=(3, 3, 3), T=(12, 12, 12))
        self.c = Collection.from_string(self.p, "110,101,011")
        self.ref = bandlimited_image(self.p, self.c, seed=9)
        self.ss = extract_samples(self.ref, self.c)

    def test_plan_order(self):
        plan = ReconstructionPlan.for_collection(self.c)
        weights = [b.weight for b in plan.members]
        assert weights == sorted(weights, reverse=True)
        assert set(plan.members) == self.c.closure().members

    def test_order_independence_within_weight_class(self):
        plan = ReconstructionPlan.for_collection(self.c)
        base = sweep_components(self.ss, list(plan.members))
        shuffled = []
        for w in sorted({b.weight for b in plan.members}, reverse=True):
            klass = [b for b in plan.members if b.weight == w]
            shuffled.extend(reversed(klass))
        other = sweep_components(self.ss, shuffled)
        scale = max(np.abs(v).max() for v in base.values())
        for b in base:
            assert np.abs(base[b] - other[b]).max() <= 1e-12 * scale

    def test_lemma2_maximal_weight_no_subtraction(self):
        # maximal-weight members take the direct masked-comb-spectrum path
        plan = ReconstructionPlan.for_collection(self.c)
        spectra = sweep_components(self.ss, list(plan.members))
        top = max(b.weight for b in plan.members)
        X_ref = np.fft.fftn(self.ref.data)
        for b in plan.members:
            if b.weight != top:
                continue
            direct = (
                np.fft.fftn(comb_from_samples(self.ss, b).grid.data)
                * atom_mask(b, self.p).kept
            )
            assert np.array_equal(spectra[b], direct)
            # and it already equals the true atom of the reference spectrum
            truth = X_ref * atom_mask(b, self.p).kept
            assert np.abs(direct - truth).max() <= 1e-9 * np.abs(X_ref).max()

    def test_alias_decomposition_replica_sum(self):
        # each subtraction term equals the cyclic replica sum over the
        # bounded offset set, within the atom mask
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.from_string(p, "10,01")
        ref = bandlimited_image(p, c, seed=21)
        ss = extract_samples(ref, c)
        plan = ReconstructionPlan.for_collection(c)
        spectra = sweep_components(ss, list(plan.members))
        for b in plan.members:
            for b2 in plan.members:
                if b2.weight <= b.weight:
                    continue
                x2 = Grid(tuple(p.T), np.fft.ifftn(spectra[b2]).real)
                term = (
                    np.fft.fftn(comb_from_grid(x2, b, p).grid.data)
                    * atom_mask(b, p).kept
                )
                shifts = set()
                per_dim = []
                for i in range(p.d):
                    if b.bits[i]:
                        per_dim.append([0])
                    else:
                        step = p.T[i] // (p.k[i] * p.lam_int[i])
                        per_dim.append(
                            [
                                (n * step) % p.T[i]
                                for n in range(-(p.k[i] - 1), p.k[i])
                            ]
                        )
                shifts = {s for s in itertools.product(*per_dim)}
                replica_sum = np.zeros(p.T, dtype=complex)
                for s in shifts:
                    replica_sum += np.roll(spectra[b2], s, axis=(0, 1))
                replica_sum *= atom_mask(b, p).kept
                scale = max(np.abs(term).max(), 1e-30)
                assert np.abs(term - replica_sum).max() <= 1e-9 * scale


class TestFast2d:
    @pytest.mark.parametrize("k,T", [((5, 3), (40, 24)), ((4, 4), (24, 40))])
    def test_matches_general_engine(self, k, T):
        p = ManhattanParams(d=2, lam=(1, 1), k=k, T=T)
        c = Collection.of(p, ["10", "01"])
        ref = bandlimited_image(p, c, seed=77)
        ss = extract_samples(ref, c)
        fast = reconstruct(ss).data.real
        general = reference_sweep(ss)
        scale = np.abs(ref.data.real).max()
        assert np.abs(fast - general).max() <= 1e-9 * scale
        assert np.abs(fast - ref.data.real).max() <= 1e-9 * scale

    def test_vertical_band_recovered_directly(self):
        # image limited to the vertical lattice's Nyquist region: the
        # vertical-highpass bins come straight from the vertical comb
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        vert_only = Collection.of(p, ["01"])
        ref = bandlimited_image(p, vert_only, seed=8)
        ss = extract_samples(ref, c)
        mask_v = atom_mask(B("01"), p).kept
        X_v = np.fft.fftn(comb_from_samples(ss, B("01")).grid.data)
        X_ref = np.fft.fftn(ref.data)
        assert np.abs((X_v - X_ref)[mask_v]).max() <= 1e-9 * np.abs(X_ref).max()

    def test_zero_image(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 8))
        c = Collection.of(p, ["10", "01"])
        ss = extract_samples(Grid.from_array(np.zeros((8, 8))), c)
        assert not reconstruct(ss).data.any()


class TestBandlimit:
    def setup_method(self):
        self.p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        self.c = Collection.of(self.p, ["10", "01"])

    def test_idempotent(self):
        once = bandlimited_image(self.p, self.c, seed=1)
        twice = bandlimit(once, self.c)
        assert np.abs(twice.data - once.data).max() <= 1e-12 * np.abs(once.data).max()

    def test_constant_unchanged(self):
        const = Grid.from_array(np.full((16, 16), 3.25))
        out = bandlimit(const, self.c)
        assert np.abs(out.data - const.data).max() <= 1e-12

    def test_output_is_real(self):
        out = bandlimited_image(self.p, self.c, seed=2)
        assert not out.data.imag.any()

    def test_overflowing_spectrum_refused(self):
        # a finite image whose spectrum overflows: no all-NaN output
        with pytest.raises(NumericalFailureError):
            bandlimit(Grid.from_array(np.full((16, 16), 1.7e308)), self.c)

    def test_imag_residue_guard(self):
        # the realness check in idft catches mask-symmetry bugs in intermediates
        from manhattan import idft

        arr = np.ones((4, 4), dtype=complex)
        arr[0, 0] += 1e-3j
        with pytest.raises(NumericalFailureError):
            idft(Grid.from_array(np.fft.fftn(arr)))
        arr[0, 0] = 1.0 + 1e-12j
        assert not idft(Grid.from_array(np.fft.fftn(arr))).data.imag.any()


class TestRegionSynthesis:
    """bandlimit and reconstruct both end in the plan's atom-block synthesis."""

    def test_bandlimit_matches_full_mask_definition(self):
        # the region is the union of the closure's atoms, as a full-size mask
        rng = random.Random(41)
        p = ManhattanParams(d=2, lam=(3, 1), k=(2, 2), T=(6, 4))  # atom 10 keeps nothing
        configs = [(p, Collection.of(p, ["10", "01"]))]
        while len(configs) < 40:
            p = random_params(rng, d_max=4)
            if np.prod(p.T) <= 20000:
                configs.append((p, random_collection(rng, p)))
        for seed, (p, c) in enumerate(configs):
            x = np.random.default_rng(seed).uniform(0.0, 255.0, size=p.T)
            want = np.fft.ifftn(np.fft.fftn(x) * region_mask(c).kept).real
            got = bandlimit(Grid.from_array(x), c).data
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "T,k,coll", [((256, 256), (2, 2), "10,01"), ((48, 48, 48), (3, 3, 3), "110,101,011"),
                     ((24, 24, 24, 24), (2, 2, 2, 2), "1100,0011,1010")]
    )
    @pytest.mark.parametrize("call", ["bandlimit", "reconstruct"])
    def test_peak_memory(self, T, k, coll, call):
        # no full-size spectrum, mask or scattered image is built, and the image
        # is inverted into the half spectrum's own memory; reconstruct gathers
        # each atom into that half spectrum and holds one member spectrum beside it
        p = ManhattanParams(d=len(T), lam=(1,) * len(T), k=k, T=T)
        c = Collection.from_string(p, coll)
        image = bandlimited_image(p, c, seed=11)
        ss, nbytes = extract_samples(image, c), image.data.nbytes
        tracemalloc.start()
        try:
            bandlimit(image, c) if call == "bandlimit" else reconstruct(ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2.0 if call == "bandlimit" else 1.6) * nbytes


class TestSpectrumReport:
    def test_impulse_flat(self):
        arr = np.zeros((8, 8))
        arr[0, 0] = 1.0
        rep = spectrum_report(Grid.from_array(arr))
        assert np.allclose(rep.data.real, 0.0, atol=1e-9)

    def test_bandlimited_floor_outside_region(self):
        p = ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))
        c = Collection.of(p, ["10", "01"])
        img = bandlimited_image(p, c, seed=4)
        rep = np.fft.ifftshift(spectrum_report(img).data.real)
        from manhattan import region_mask

        outside = ~region_mask(c).kept
        assert rep[outside].max() < -6.0  # near the 1e-12 floor

    def test_zero_image_finite(self):
        rep = spectrum_report(Grid.from_array(np.zeros((6, 4)))).data
        assert np.isfinite(rep).all()

    def test_real_input_symmetric(self):
        rng = np.random.default_rng(5)
        rep = spectrum_report(Grid.from_array(rng.normal(size=(9, 9)))).data.real
        assert np.abs(rep - rep[::-1, ::-1]).max() <= 1e-9

