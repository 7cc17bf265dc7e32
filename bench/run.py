#!/usr/bin/env python3
"""Benchmark of the manhattan library and CLI.

    python3 bench/run.py --workload cli-2d-dense --seed 1 --seconds 45 --trace 0

One process drives one closed-loop client: each operation starts only after
the previous one has returned. Every workload times two operations on the
same seeded input: an in-process ``reconstruct(ss)`` call, and a CLI round
(``python -m manhattan.cli sample`` then ``reconstruct --reference`` as child
processes). Every operation is checked for correctness and each failure is
counted. With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics and writes its spans to ``bench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "manhattan" / "__init__.py").is_file():
    raise SystemExit(f"bench: no manhattan package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import manhattan  # noqa: E402
from manhattan import (  # noqa: E402
    Collection,
    Grid,
    ManhattanParams,
    bandlimit,
    extract_samples,
    reconstruct,
)
from manhattan.freq import atom_mask, region_mask  # noqa: E402
from manhattan.grid import dft, idft, read_mht1, write_mht1  # noqa: E402
from manhattan.reconstruct import ReconstructionPlan  # noqa: E402
from manhattan.sampler import SampleSet, comb_from_samples, read_mhs1, write_mhs1  # noqa: E402

if Path(manhattan.__file__).resolve().parent != (SRC / "manhattan").resolve():
    raise SystemExit(f"bench: imported manhattan from {manhattan.__file__}, not from {SRC}")

TOL = 1e-9  # relative max error; the tolerance of tests/test_acceptance.py
SETUP_PROBES = 3  # fresh processes timed per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0
HELD_OUT_SEED = 9001  # never used while tuning; reserve it for confirming claims
FLOOR_CALLS = 3  # irfftn floor calls after each reconstruct call
MB = 1e6

# Every workload uses lambda = 1 and a uniform random image bandlimited to its
# collection. cli_share is the share of the measured time spent on CLI rounds.
WORKLOADS = {
    # Bound by per-atom work: 7 atoms, 15 alias subtractions.
    "recon-3d-facets": dict(
        k=(3, 3, 3), T=(96, 96, 96), toy_T=(12, 12, 12),
        collection="110,101,011", cli_share=0.45,
    ),
    # 2D engine bound by full-size FFTs with 3 atoms (reconstruct_2d_fast
    # applies); its CLI round is dominated by the 21 MB of MHS1 text and by
    # interpreter start.
    "cli-2d-dense": dict(
        k=(2, 2), T=(1024, 1024), toy_T=(16, 16), collection="10,01", cli_share=0.85
    ),
}

END_TO_END = {
    "setup_s": "s",
    "recon_s_p50": "s",
    "recon_s_tail": "s",
    "recon_over_floor": "ratio",
    "recon_peak_mb": "MB",
    "cli_s_p50": "s",
    "cli_s_tail": "s",
    "cli_peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.closure_s": "s",
    "core.closure_atoms": "count",
    "core.alias_pairs": "count",
    "core.samples": "count",
    "freq.atom_masks_s": "s",
    "freq.region_mask_s": "s",
    "freq.region_bins": "count",
    "freq.redundancy": "count",
    "grid.dft_s": "s",
    "grid.idft_s": "s",
    "grid.floor_irfftn_s": "s",
    "grid.mht1_write_s": "s",
    "grid.mht1_read_s": "s",
    "grid.mht1_bytes": "bytes",
    "sampler.extract_s": "s",
    "sampler.comb_s": "s",
    "sampler.mhs1_write_s": "s",
    "sampler.mhs1_read_s": "s",
    "sampler.mhs1_bytes": "bytes",
    "sampler.mhs1_write_mb_s": "MB/s",
    "sampler.mhs1_read_mb_s": "MB/s",
    "reconstruct.plan_s": "s",
    "reconstruct.reconstruct_s": "s",
    "reconstruct.bandlimit_s": "s",
    "reconstruct.peak_alloc_mb": "MB",
    "reconstruct.max_rel_err": "ratio",
    "cli.sample_s": "s",
    "cli.reconstruct_s": "s",
    "cli.overhead_s": "s",
    "cli.nonzero_exits": "count",
    "trace.untraced_recon_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans around calls into the library; written out at the end.

    A span with no open parent starts a new operation, whose id is that
    root span's id; nested spans share it.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus what children cover.

        Children of one span run one after another, so their durations add.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


class NullTracer:
    enabled = False

    def span(self, name: str):
        return nullcontext()


# ---------------------------------------------------------------------------
# Inputs and correctness gates
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    params: ManhattanParams
    collection: Collection
    reference: Grid  # the bandlimited image
    samples: SampleSet
    image_path: Path  # the reference written as MHT1, input of the CLI round


def prepare(workload: str, seed: int, toy: bool, workdir: Path, tracer=NullTracer()) -> Inputs:
    """Seeded generation, bandlimit, extract_samples and the CLI input file."""
    spec = WORKLOADS[workload]
    T = spec["toy_T"] if toy else spec["T"]
    d = len(T)
    params = ManhattanParams(d=d, lam=(1,) * d, k=spec["k"], T=T)
    collection = Collection.from_string(params, spec["collection"])
    raw = Grid.from_array(np.random.default_rng(seed).uniform(size=T))
    with tracer.span("reconstruct.bandlimit"):
        reference = bandlimit(raw, collection)
    with tracer.span("sampler.extract"):
        samples = extract_samples(reference, collection)
    image_path = workdir / "reference.mht1"
    with tracer.span("grid.mht1_write"), open(image_path, "wb") as fh:
        write_mht1(fh, reference)
    return Inputs(params, collection, reference, samples, image_path)


def relative_error(result: Grid, reference: Grid) -> float:
    got, want = np.real(result.data), np.real(reference.data)
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def reconstruction_failure(result: Grid, inputs: Inputs, ss: SampleSet) -> str | None:
    """Why a reconstruction is wrong, or None when it passes the gate."""
    if len(ss) != ss.expected_count:
        return f"{len(ss)} samples, expected {ss.expected_count}"
    err = relative_error(result, inputs.reference)
    if not err <= TOL:  # also catches NaN
        return f"relative max error {err:.3e} exceeds {TOL:.0e}"
    return None


@dataclass
class Stats:
    """Attempted and failed operations; every failure keeps its message."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0
    nonzero_exits: int = 0  # CLI child processes that exited with a nonzero code

    def record(self, what: str, failure: str | None) -> bool:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(f"{what}: {failure}")
        return failure is None


def recon_op(inputs: Inputs, stats: Stats, tracer=NullTracer(), ss: SampleSet | None = None):
    """One gated reconstruct call; returns its wall time, or None if it failed."""
    ss = inputs.samples if ss is None else ss
    start = time.perf_counter()
    try:
        with tracer.span("reconstruct.reconstruct"):
            result = reconstruct(ss)
    except Exception as exc:  # the loop must go on; the failure is counted
        stats.record("reconstruct", f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    failure = reconstruction_failure(result, inputs, ss)
    if failure is None:
        stats.max_rel_err = max(stats.max_rel_err, relative_error(result, inputs.reference))
    return elapsed if stats.record("reconstruct", failure) else None


def peak_alloc_mb(inputs: Inputs, stats: Stats) -> float | None:
    """Peak traced allocation of one gated reconstruct call, in MB, or None
    if the call failed."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = reconstruct(inputs.samples)
        _, peak = tracemalloc.get_traced_memory()
    except Exception as exc:  # counted like any failed operation
        stats.record("reconstruct (peak memory)", f"{type(exc).__name__}: {exc}")
        return None
    finally:
        tracemalloc.stop()
    ok = stats.record("reconstruct (peak memory)",
                      reconstruction_failure(result, inputs, inputs.samples))
    return (peak - before) / MB if ok else None


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@contextmanager
def reaped(proc: subprocess.Popen):
    """Kill `proc` after CHILD_TIMEOUT_S, or at once if the body raises before
    it has been waited for."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        yield
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_cli(args: list[str], workdir: Path, stem: str) -> ChildResult:
    """Run ``python -m manhattan.cli`` and reap it with wait4, so its own peak
    RSS is known; a watchdog kills it after CHILD_TIMEOUT_S."""
    out_path, err_path = workdir / f"{stem}.stdout", workdir / f"{stem}.stderr"
    cmd = [sys.executable, "-m", "manhattan.cli", *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        with reaped(proc):
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_maxrss * 1024 / MB,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace")[-500:],
    )


def cli_round(inputs: Inputs, workdir: Path, stats: Stats, tracer=NullTracer()):
    """One gated CLI round. Returns (sample child, reconstruct child), or None
    if the round failed."""
    samples_path, output_path = workdir / "samples.mhs1", workdir / "output.mht1"
    for stale in (samples_path, output_path):
        stale.unlink(missing_ok=True)
    params = inputs.params
    with tracer.span("cli.round"):
        with tracer.span("cli.sample"):
            sample = run_cli(
                ["sample", "--k", ",".join(map(str, params.k)),
                 "--collection", str(inputs.collection),
                 "--input", str(inputs.image_path), "--samples", str(samples_path)],
                workdir, "sample",
            )
        children = [sample]
        if sample.code == 0:
            with tracer.span("cli.reconstruct"):
                children.append(run_cli(
                    ["reconstruct", "--samples", str(samples_path),
                     "--output", str(output_path), "--reference", str(inputs.image_path)],
                    workdir, "reconstruct",
                ))
    stats.nonzero_exits += sum(c.code != 0 for c in children)
    ok = stats.record("cli round", cli_failure(children, inputs, output_path))
    return tuple(children) if ok else None


def cli_failure(children: list[ChildResult], inputs: Inputs, output_path: Path) -> str | None:
    for name, child in zip(("sample", "reconstruct"), children):
        if child.code != 0:
            return f"{name} exited {child.code}: {child.stderr.strip()}"
    recon = children[1]
    if not any(line.startswith("PASS") for line in recon.stdout.splitlines()):
        return f"reconstruct printed no PASS line: {recon.stdout.strip()!r}"
    try:
        with open(output_path, "rb") as fh:
            result = read_mht1(fh)
    except (OSError, manhattan.ManhattanError) as exc:
        return f"output does not read back: {exc}"
    if tuple(result.extents) != tuple(inputs.params.T):
        return f"output extents {result.extents}, expected {inputs.params.T}"
    err = relative_error(result, inputs.reference)
    if not err <= TOL:
        return f"output relative max error {err:.3e} exceeds {TOL:.0e}"
    return None


def setup_times(workload: str, seed: int, toy: bool, work_root: Path) -> list[float]:
    """Wall time from spawning a fresh benchmark process until its inputs are
    ready, SETUP_PROBES times."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = work_root / f"{os.getpid()}-setup{i}"
        probe_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe_dir),
               "--workload", workload, "--seed", str(seed)] + (["--toy"] if toy else [])
        try:
            with open(probe_dir / "stderr", "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
                with reaped(proc):
                    line = proc.stdout.readline()
                    elapsed = time.perf_counter() - start
                    proc.stdout.close()
                    proc.wait()
            if line.strip() != "ready" or proc.returncode != 0:
                detail = (probe_dir / "stderr").read_text(errors="replace")[-500:]
                raise RuntimeError(f"setup probe exited {proc.returncode}: {detail}")
            times.append(elapsed)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return times


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest of p99.9..p75 with at
    least ten samples beyond it by nearest rank; p75 when none has."""
    xs = sorted(values)
    n = len(xs)
    for pct in (99.9, 99, 95, 90, 75):
        rank = ceil(pct / 100 * n)
        if n - rank >= 10 or pct == 75:
            return pct, xs[rank - 1], n - rank


@dataclass
class Samples:
    recon: list[float] = field(default_factory=list)
    recon_untraced: list[float] = field(default_factory=list)
    floor: list[float] = field(default_factory=list)
    cli: list[float] = field(default_factory=list)
    cli_sample: list[float] = field(default_factory=list)
    cli_reconstruct: list[float] = field(default_factory=list)
    cli_rss_mb: list[float] = field(default_factory=list)


def measure(inputs: Inputs, workdir: Path, seconds: float, cli_share: float,
            stats: Stats, tracer) -> Samples:
    """Closed loop for `seconds`: CLI rounds take cli_share of the elapsed
    time, reconstruct calls the rest, each followed by FLOOR_CALLS full-size
    irfftn calls (the floor). When tracing, every second reconstruct call is
    untraced."""
    T = inputs.params.T
    axes = tuple(range(len(T)))
    half = np.fft.rfftn(np.real(inputs.reference.data))
    out = Samples()
    n_recon = n_cli = 0
    min_recon = 2 if tracer.enabled else 1  # a traced and an untraced call
    cli_spent = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and n_recon >= min_recon and n_cli:
            break
        if n_cli == 0 or (n_recon and cli_spent < cli_share * elapsed):
            n_cli += 1
            t0 = time.perf_counter()
            children = cli_round(inputs, workdir, stats, tracer)
            cli_spent += time.perf_counter() - t0
            if children:
                sample, recon = children
                out.cli.append(sample.wall_s + recon.wall_s)
                out.cli_sample.append(sample.wall_s)
                out.cli_reconstruct.append(recon.wall_s)
                out.cli_rss_mb.append(max(sample.maxrss_mb, recon.maxrss_mb))
            continue
        traced = tracer.enabled and n_recon % 2 == 0
        n_recon += 1
        wall = recon_op(inputs, stats, tracer if traced else NullTracer())
        if wall is not None:
            (out.recon if traced or not tracer.enabled else out.recon_untraced).append(wall)
        for _ in range(FLOOR_CALLS):
            t0 = time.perf_counter()
            with tracer.span("grid.floor_irfftn"):
                np.fft.irfftn(half, s=T, axes=axes)
            out.floor.append(time.perf_counter() - t0)
    return out


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(setup: list[float], peak_mb: float, s: Samples) -> tuple[dict, dict]:
    recon_tail = tail(s.recon) if s.recon else (None, None, 0)
    cli_tail = tail(s.cli) if s.cli else (None, None, 0)
    recon_p50 = median(s.recon)
    values = {
        "setup_s": median(setup),
        "recon_s_p50": recon_p50,
        "recon_s_tail": recon_tail[1],
        "recon_over_floor": recon_p50 / median(s.floor) if recon_p50 else None,
        "recon_peak_mb": peak_mb,
        "cli_s_p50": median(s.cli),
        "cli_s_tail": cli_tail[1],
        "cli_peak_rss_mb": max(s.cli_rss_mb, default=None),
    }
    details = {
        "setup_samples_s": setup,
        "recon_samples": len(s.recon),
        "recon_tail_percentile": recon_tail[0],
        "recon_tail_beyond": recon_tail[2],
        "floor_irfftn_s_p50": median(s.floor),
        "cli_samples": len(s.cli),
        "cli_tail_percentile": cli_tail[0],
        "cli_tail_beyond": cli_tail[2],
        "recon_s": s.recon,
        "cli_s": s.cli,
    }
    return values, details


def trace_layers(inputs: Inputs, stats: Stats, tracer: Tracer) -> dict:
    """One traced call into each layer not covered by the setup or the loop."""
    c, params, ss = inputs.collection, inputs.params, inputs.samples
    with tracer.span("core.closure"):
        members = c.closure().sorted_members()
    with tracer.span("freq.atom_masks"):
        for b in members:
            atom_mask(b, params)
    with tracer.span("freq.region_mask"):
        region_bins = region_mask(c).count
    with tracer.span("grid.dft"):
        spectrum = dft(inputs.reference)
    with tracer.span("grid.idft"):
        back = idft(spectrum)
    stats.record("dft/idft round trip", reconstruction_failure(back, inputs, ss))
    with tracer.span("sampler.comb"):
        for b in members:
            comb_from_samples(ss, b)
    with tracer.span("reconstruct.plan"):
        ReconstructionPlan.for_collection(c)
    fast2d = getattr(manhattan, "reconstruct_2d_fast", None)  # absent once the engine is unified
    members_min = c.minimal().members
    if fast2d is not None and params.d == 2 and {str(b) for b in members_min} == {"10", "01"}:
        with tracer.span("reconstruct.fast2d"):
            result = fast2d(ss)
        stats.record("reconstruct_2d_fast", reconstruction_failure(result, inputs, ss))
    alias_pairs = sum(1 for b in members for bp in members if bp.weight > b.weight)
    if len(ss) != ss.expected_count:
        stats.record("sample count", f"{len(ss)} samples, expected {ss.expected_count}")
    return {
        "core.closure_atoms": len(members),
        "core.alias_pairs": alias_pairs,
        "core.samples": len(ss),
        "freq.region_bins": region_bins,
        "freq.redundancy": len(ss) - region_bins,
    }


def trace_replay(inputs: Inputs, workdir: Path, stats: Stats, tracer: Tracer) -> dict:
    """In-process replay of the layer calls one CLI round makes, traced."""
    samples_path, output_path = workdir / "replay.mhs1", workdir / "replay.mht1"
    with tracer.span("cli.replay"):
        with tracer.span("grid.mht1_read"), open(inputs.image_path, "rb") as fh:
            image = read_mht1(fh)
        with tracer.span("sampler.extract"):
            ss = extract_samples(image, inputs.collection)
        with tracer.span("sampler.mhs1_write"), open(samples_path, "w") as fh:
            write_mhs1(fh, ss)
        with tracer.span("sampler.mhs1_read"), open(samples_path) as fh:
            ss_back = read_mhs1(fh)
        with tracer.span("reconstruct.reconstruct"):
            result = reconstruct(ss_back)
        with tracer.span("grid.mht1_write"), open(output_path, "wb") as fh:
            write_mht1(fh, result)
        with tracer.span("grid.mht1_read"), open(inputs.image_path, "rb") as fh:
            read_mht1(fh)
    same = np.array_equal(ss_back.values, inputs.samples.values) and np.array_equal(
        ss_back.coords, inputs.samples.coords
    )
    stats.record("MHS1 round trip", None if same else "samples differ after MHS1 round trip")
    stats.record("replayed reconstruct", reconstruction_failure(result, inputs, ss_back))
    return {
        "grid.mht1_bytes": inputs.image_path.stat().st_size,
        "sampler.mhs1_bytes": samples_path.stat().st_size,
    }


def per_layer(tracer: Tracer, counts: dict, peak_mb: float, s: Samples, stats: Stats) -> dict:
    def p50(name):
        return median(tracer.durations(name))

    replay_s = p50("cli.replay")
    cli_p50 = median(s.cli)
    values = dict(counts)
    values.update({
        "core.closure_s": p50("core.closure"),
        "freq.atom_masks_s": p50("freq.atom_masks"),
        "freq.region_mask_s": p50("freq.region_mask"),
        "grid.dft_s": p50("grid.dft"),
        "grid.idft_s": p50("grid.idft"),
        "grid.floor_irfftn_s": p50("grid.floor_irfftn"),
        "grid.mht1_write_s": p50("grid.mht1_write"),
        "grid.mht1_read_s": p50("grid.mht1_read"),
        "sampler.extract_s": p50("sampler.extract"),
        "sampler.comb_s": p50("sampler.comb"),
        "sampler.mhs1_write_s": p50("sampler.mhs1_write"),
        "sampler.mhs1_read_s": p50("sampler.mhs1_read"),
        "reconstruct.plan_s": p50("reconstruct.plan"),
        "reconstruct.reconstruct_s": p50("reconstruct.reconstruct"),
        "reconstruct.bandlimit_s": p50("reconstruct.bandlimit"),
        "reconstruct.peak_alloc_mb": peak_mb,
        "reconstruct.max_rel_err": stats.max_rel_err,
        "cli.sample_s": median(s.cli_sample),
        "cli.reconstruct_s": median(s.cli_reconstruct),
        "cli.overhead_s": cli_p50 - replay_s if cli_p50 is not None else None,
        "cli.nonzero_exits": stats.nonzero_exits,
        "trace.untraced_recon_s": median(s.recon_untraced),
    })
    values["sampler.mhs1_write_mb_s"] = values["sampler.mhs1_bytes"] / MB / values["sampler.mhs1_write_s"]
    values["sampler.mhs1_read_mb_s"] = values["sampler.mhs1_bytes"] / MB / values["sampler.mhs1_read_s"]
    traced = median(s.recon)
    untraced = values["trace.untraced_recon_s"]
    values["trace.overhead_ratio"] = traced / untraced if traced and untraced else None
    return values


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def metadata() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "public_names": len(manhattan.__all__),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        work_root: Path = WORK_ROOT, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns {"result": <last stdout line>, "details": ...}."""
    spec = WORKLOADS[workload]
    workdir = work_root / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    stats = Stats()
    try:
        setup = setup_times(workload, seed, toy, work_root)
        tracer = Tracer() if trace else NullTracer()
        inputs = prepare(workload, seed, toy, workdir, tracer)
        counts = trace_layers(inputs, stats, tracer) if trace else {}
        peak_mb = peak_alloc_mb(inputs, stats)  # also the untimed warm-up call
        samples = measure(inputs, workdir, seconds, spec["cli_share"], stats, tracer)
        if trace:
            counts.update(trace_replay(inputs, workdir, stats, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, details = end_to_end(setup, peak_mb, samples)
    details.update(
        workload=workload, seed=seed, held_out_seed=HELD_OUT_SEED, seconds=seconds, toy=toy,
        error_rate=stats.failed / stats.attempted, failures=stats.failures,
        metadata=metadata(),
    )
    if trace:
        values = per_layer(tracer, counts, peak_mb, samples, stats)
        units = PER_LAYER
        fast2d = tracer.durations("reconstruct.fast2d")
        if fast2d:
            details["reconstruct.fast2d_s"] = median(fast2d)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "metrics": values, "details": details,
            "self_time_s": tracer.self_times(), "spans": tracer.spans,
        }, indent=1))
        details["trace_file"] = str(trace_path)
    else:
        values, units = e2e, END_TO_END
    result = {
        "correct": stats.failed == 0 and all(values[n] is not None for n in units),
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    return {"result": result, "details": details}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="test-size inputs")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        prepare(args.workload, args.seed, args.toy, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    result = out["result"]
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:28s} {value:>14s} {m['unit']}")
    print(json.dumps({"details": out["details"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
