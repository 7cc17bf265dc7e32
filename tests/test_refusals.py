"""Each typed refusal that no other test reaches, with its error class and a
fragment of its message.  A CLI row is an argv: the command also exits 2."""

from functools import partial

import numpy as np
import pytest

from manhattan import (
    BiStep,
    Collection,
    DimensionError,
    DomainError,
    Grid,
    ManhattanParams,
    MissingSamplesError,
    SampleSet,
    atom_mask,
    comb_from_samples,
    extract_samples,
    guaranteed_disjoint,
    lattice_contains,
    nyquist_mask,
    replica_overlap_oracle,
    v_class,
)
from manhattan.cli import build_parser, main

P = ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 8))
C = Collection.from_string(P, "10,01")


def B(s):
    return BiStep.from_string(s)


def _few_samples():
    ss = extract_samples(Grid.from_array(np.ones(P.T)), C)
    return SampleSet(P, C, ss.coords[:3], ss.values[:3])


def _moved_samples():
    ss = extract_samples(Grid.from_array(np.ones(P.T)), C)
    return SampleSet(P, C, ss.coords + 0.7, ss.values)  # int64 truncation would keep them


REFUSALS = [
    pytest.param(["generate", "--size", "4,x", "--output", "g.mht1"],
                 DomainError, "comma-separated integers", id="cli-size-token"),
    pytest.param(["generate", "--size", "0,4", "--output", "g.mht1"],
                 DomainError, "invalid size", id="cli-size-zero"),
    pytest.param(lambda: BiStep((0, 2)), DomainError, "bits must be 0/1", id="bistep-bits"),
    pytest.param(lambda: BiStep((1.0, 0)), DomainError, "bits must be integers", id="bistep-float"),
    pytest.param(lambda: BiStep(()), DimensionError, "dimension must be in", id="bistep-empty"),
    pytest.param(lambda: ManhattanParams(d=2, lam=(1,), k=(2, 2)),
                 DimensionError, "lam and k must have length d", id="params-lam-length"),
    pytest.param(lambda: ManhattanParams(d=2, lam=(1, 1), k=(2,)),
                 DimensionError, "lam and k must have length d", id="params-k-length"),
    pytest.param(lambda: ManhattanParams(d=2, lam=(1, 0), k=(2, 2)),
                 DomainError, "dense spacings must be positive", id="params-lam-zero"),
    pytest.param(lambda: P.step_int(B("1")),
                 DimensionError, "bi-step length does not match d", id="step-int-length"),
    pytest.param(lambda: lattice_contains(P, B("10"), (0,)),
                 DimensionError, "coordinate length does not match d", id="lattice-contains"),
    pytest.param(lambda: v_class(P, (0, 0, 0)),
                 DimensionError, "coordinate length does not match d", id="v-class"),
    pytest.param(lambda: Collection(frozenset(), P),
                 DomainError, "collection must be non-empty", id="collection-empty"),
    pytest.param(lambda: atom_mask(B("10"), P).disjoint(
                     atom_mask(B("10"), ManhattanParams(d=2, lam=(1, 1), k=(2, 2), T=(8, 4)))),
                 DimensionError, "mask extents mismatch", id="mask-disjoint"),
    pytest.param(lambda: nyquist_mask(P, (1,)),
                 DimensionError, "alpha_steps must have length d", id="nyquist-steps"),
    pytest.param(lambda: guaranteed_disjoint(B("10"), B("1"), B("10")),
                 DimensionError, "bi-step length mismatch", id="guaranteed-disjoint"),
    pytest.param(lambda: replica_overlap_oracle(
                     B("01"), B("00"), B("10"),
                     ManhattanParams(d=2, lam=(1, 1), k=(4, 4), T=(4, 4))),
                 DomainError, "oracle requires", id="overlap-oracle-small-T"),
    pytest.param(lambda: Grid((2, 3), np.zeros((3, 2))),
                 DimensionError, "does not match extents", id="grid-shape"),
    pytest.param(_few_samples, MissingSamplesError,
                 r"3 samples given, M\(10,01\) has 48 points", id="samples-count"),
    pytest.param(lambda: SampleSet(P, C, np.zeros((3, 3)), np.zeros(3)),
                 DimensionError, r"coords must have shape \(n, d\)", id="samples-coords"),
    pytest.param(lambda: SampleSet(P, C, np.zeros((3, 2)), np.zeros(2)),
                 DimensionError, "values length must match coords", id="samples-values"),
    pytest.param(_moved_samples,
                 DomainError, "sample coordinates must be integers", id="samples-float-coords"),
    pytest.param(lambda: SampleSet(P, C, None, np.ones(48) + 1j),
                 DomainError, "sample values must be real numbers", id="samples-complex-values"),
    pytest.param(lambda: SampleSet(P, C, None, [None] * 48),
                 DomainError, "sample values must be real numbers", id="samples-none-values"),
    pytest.param(lambda: SampleSet(P, C, None, ["a"] * 48),
                 DomainError, "sample values must be real numbers", id="samples-text-values"),
    pytest.param(lambda: SampleSet(P, C, None, np.zeros(3)), MissingSamplesError,
                 r"3 values given, M\(10,01\) has 48 points", id="canonical-count"),
    pytest.param(lambda: SampleSet(P, C, None, np.zeros((4, 7))),
                 DimensionError, "values length must match coords", id="canonical-values"),
    pytest.param(lambda: comb_from_samples(
                     extract_samples(Grid.from_array(np.ones(P.T)), C), B("1")),
                 DimensionError, "bi-step length does not match d", id="comb-samples-length"),
]


@pytest.mark.parametrize("call,error,fragment", REFUSALS)
def test_refused(tmp_path, monkeypatch, call, error, fragment):
    monkeypatch.chdir(tmp_path)
    if isinstance(call, list):
        assert main(call) == 2
        assert not list(tmp_path.iterdir())
        args = build_parser().parse_args(call)
        call = partial(args.func, args)
    with pytest.raises(error, match=fragment):
        call()
