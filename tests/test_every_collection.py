"""The engine on every M-collection for d <= 4, not a random sample of them.

The M-collections are the non-empty antichains of {0,1}^d: 2, 5, 19 and 167
for d = 1..4, each checked with (k, lambda) = (2, 1) and (2, 2) and, for d = 4,
one mixed setting.  At T = 2*k*lambda, the smallest grid on which every atom
keeps a bin, a k = 2 axis folds the highpass band onto the coarse Nyquist
residue, which no atom keeps, so no fold reaches a gathered bin: T is
3*k*lambda per axis for d <= 3, and the mixed setting's k = 3 axes fold for d = 4.
"""

import itertools

import numpy as np
import pytest

from conftest import bandlimited_image
from manhattan import BiStep, Collection, ManhattanParams, extract_samples, reconstruct
from manhattan.oracle import SIZE_GUARD, solve_reconstruct


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


SETTINGS = [(d, (2,) * d, (lam,) * d) for lam in (1, 2) for d in range(1, 5)]
SETTINGS.append((4, (2, 3, 2, 3), (1, 2, 1, 1)))


@pytest.mark.parametrize("d,k,lam", SETTINGS,
                         ids=[f"d{d}-k{''.join(map(str, k))}-lam{''.join(map(str, lam))}"
                              for d, k, lam in SETTINGS])
def test_every_collection_reconstructs(d, k, lam):
    # reconstruct returns the bandlimited input, and the dense least-squares
    # oracle, which shares no code with the sweep, agrees with it
    T = tuple((3 if d <= 3 else 2) * ki * li for ki, li in zip(k, lam))
    p = ManhattanParams(d=d, lam=lam, k=k, T=T)
    for seed, members in enumerate(m_collections(d)):
        c = Collection.of(p, members)
        ref = bandlimited_image(p, c, seed=seed)
        ss = extract_samples(ref, c)
        scale = np.abs(ref.data).max()
        got = reconstruct(ss).data
        assert np.abs(got - ref.data).max() <= 1e-12 * scale, str(c)
        if np.prod(T) <= SIZE_GUARD:
            direct = solve_reconstruct(ss).data.real
            assert np.abs(got - direct).max() <= 1e-9 * scale, str(c)
