import contextlib
import itertools
import os
import random
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from manhattan import (
    BiStep,
    Collection,
    Grid,
    ManhattanParams,
    bandlimit,
    extract_samples,
)
from manhattan import grid
from manhattan.freq import atom_mask
from manhattan.reconstruct import ReconstructionPlan
from manhattan.sampler import comb_from_grid, comb_from_samples

# The same examples on every run, so a tier-1 result does not depend on the draw.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def window_points(params, factor=2):
    """Integer coordinates of the periodic test window [0, factor*lcm(k_i*lam_i))^d."""
    lam = params.lam_int
    period = lcm(*(k * li for k, li in zip(params.k, lam)))
    ranges = [range(factor * period)] * params.d
    return itertools.product(*ranges)


def all_bisteps(d):
    return [BiStep(bits) for bits in itertools.product((0, 1), repeat=d)]


def random_params(rng: random.Random, d_max=3, k_max=5, discrete=True):
    d = rng.randint(1, d_max)
    k = tuple(rng.randint(2, k_max) for _ in range(d))
    if discrete:
        lam = tuple(rng.randint(1, 3) for _ in range(d))
        T = tuple(ki * li * rng.randint(1, 3) for ki, li in zip(k, lam))
        return ManhattanParams(d=d, lam=lam, k=k, T=T)
    lam = tuple(
        Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)
    )
    return ManhattanParams(d=d, lam=lam, k=k)


def random_collection(rng: random.Random, params):
    choices = all_bisteps(params.d)
    members = rng.sample(choices, rng.randint(1, len(choices)))
    return Collection(frozenset(members), params)


def bandlimited_image(params, collection, seed=0, scale=255.0):
    rng = np.random.default_rng(seed)
    img = Grid.from_array(rng.uniform(0.0, scale, size=params.T))
    return bandlimit(img, collection)


def roundtrip_error(params, collection, seed=0, engine=None):
    """Relative max error of bandlimit -> sample -> reconstruct."""
    from manhattan import reconstruct

    engine = engine or reconstruct
    reference = bandlimited_image(params, collection, seed=seed)
    result = engine(extract_samples(reference, collection))
    scale = max(np.abs(reference.data.real).max(), 1e-30)
    return np.abs(result.data.real - reference.data.real).max() / scale


def sweep_components(ss, order):
    """Literal onion peel on full-size combs with an explicit member order;
    the reference for the folded engine.  Returns spectra per member."""
    params = ss.params
    spectra = {}
    spatial = {}
    for b in order:
        comb = comb_from_samples(ss, b).grid.data.copy()
        for b2, x2 in spatial.items():
            if b2.weight > b.weight:
                comb -= comb_from_grid(x2, b, params).grid.data
        Xb = np.fft.fftn(comb) * atom_mask(b, params).kept
        spectra[b] = Xb
        spatial[b] = Grid(tuple(params.T), np.fft.ifftn(Xb).real)
    return spectra


def reference_sweep(ss):
    """Image from the full-size reference sweep in plan order."""
    plan = ReconstructionPlan.for_collection(ss.collection)
    spectra = sweep_components(ss, plan.members)
    return np.fft.ifftn(sum(spectra.values())).real


@pytest.fixture
def params_2d():
    return ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(16, 16))


@pytest.fixture
def lines_2d(params_2d):
    return Collection.of(params_2d, ["10", "01"])


@contextlib.contextmanager
def split_at(floor, cpus=(0, 1)):
    """The split's size floor at floor and these usable CPUs: at 0 and two CPUs, every
    pass over two rows or more runs in two halves, one of them on a helper thread."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(cpus), create=True), \
            mock.patch.object(grid, "_SPLIT_BYTES", floor):
        yield
