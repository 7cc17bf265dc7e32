"""Tests of the benchmark itself, at toy size.

Every workload must report every metric of BENCHMARK.json with its unit, the
correctness gates must count a wrong result as a failure, and the benchmark
must refuse to run without the library sources.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules["bench_run"] = bench  # dataclasses look their module up while it loads
_spec.loader.exec_module(bench)


def test_config_matches_runner():
    assert [w["name"] for w in CONFIG["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_toy_run_reports_every_metric(workload, trace, tmp_path):
    out = bench.run(workload, seed=3, seconds=0.05, trace=trace, toy=True,
                    work_root=tmp_path / "work", out_dir=tmp_path / "out")
    result = out["result"]
    assert result["correct"], out["details"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert out["details"]["error_rate"] == 0.0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name
    assert not any((tmp_path / "work").iterdir())  # work files are removed
    if trace and workload == "cli-2d-dense" and hasattr(bench.manhattan, "reconstruct_2d_fast"):
        assert out["details"]["reconstruct.fast2d_s"] > 0
    if trace:
        trace_file = json.loads(Path(out["details"]["trace_file"]).read_text())
        names = {s["name"] for s in trace_file["spans"]}
        assert {"cli.sample", "cli.reconstruct", "reconstruct.reconstruct"} <= names
        for s in trace_file["spans"]:
            assert set(s) == {"id", "name", "parent", "op", "start", "end"}
            assert s["end"] >= s["start"]


def test_toy_counts_match_the_paper_accounting(tmp_path):
    out = bench.run("recon-3d-facets", seed=1, seconds=0.05, trace=True, toy=True,
                    work_root=tmp_path / "work", out_dir=tmp_path / "out")
    metrics = {n: m["value"] for n, m in out["result"]["metrics"].items()}
    assert metrics["core.closure_atoms"] == 7
    assert metrics["core.alias_pairs"] == 15
    assert metrics["core.samples"] == 19 * 64  # fundamental_cell_count * cells
    assert metrics["freq.redundancy"] == metrics["core.samples"] - metrics["freq.region_bins"]


@pytest.fixture
def toy_inputs(tmp_path):
    return bench.prepare("cli-2d-dense", seed=5, toy=True, workdir=tmp_path)


def test_corrupted_sample_counts_as_failure(toy_inputs):
    ss = toy_inputs.samples
    values = ss.values.copy()
    values[len(values) // 2] += 1.0
    corrupted = bench.SampleSet(ss.params, ss.collection, ss.coords, values)
    stats = bench.Stats()
    assert bench.recon_op(toy_inputs, stats) is not None
    assert bench.recon_op(toy_inputs, stats, ss=corrupted) is None
    assert (stats.attempted, stats.failed) == (2, 1)
    assert "relative max error" in stats.failures[0]


def test_failed_cli_round_counts_as_failure(toy_inputs, tmp_path):
    toy_inputs.image_path.write_bytes(b"MHT1 truncated")
    stats = bench.Stats()
    assert bench.cli_round(toy_inputs, tmp_path, stats) is None
    assert (stats.attempted, stats.failed, stats.nonzero_exits) == (1, 1, 1)
    assert "sample exited 3" in stats.failures[0]


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert bench.tail([float(i) for i in range(1, 1001)]) == (99, 990.0, 10)
    assert bench.tail([3.0, 1.0, 2.0, 4.0]) == (75, 3.0, 1)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(BENCH_DIR / "run.py", tmp_path / "bench" / "run.py")
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-2d-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_depend_only_on_seed(tmp_path):
    a = bench.prepare("cli-2d-dense", seed=7, toy=True, workdir=tmp_path)
    b = bench.prepare("cli-2d-dense", seed=7, toy=True, workdir=tmp_path)
    c = bench.prepare("cli-2d-dense", seed=8, toy=True, workdir=tmp_path)
    assert np.array_equal(a.samples.values, b.samples.values)
    assert not np.array_equal(a.samples.values, c.samples.values)
