"""Command-line front end for the Manhattan sampling pipeline.

Exit codes: 0 ok, 2 usage error, 3 format error, 4 numerical failure.
Set MANHATTAN_LOG=quiet|info|debug to control verbosity.
"""

from __future__ import annotations

import argparse
import io
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import sampler
from .core import Collection, ManhattanParams, density, fundamental_cell_count
from .errors import DomainError, FormatError, ManhattanError, NumericalFailureError
from .freq import atom_volume, manhattan_region_volume
from .grid import Grid, read_mht1, read_pgm, spectrum_report, write_mht1, write_pgm
from .reconstruct import bandlimit, reconstruct
from .sampler import extract_samples, read_mhs1, write_mhs1

log = logging.getLogger("manhattan")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4


def _setup_logging() -> None:
    level_name = os.environ.get("MANHATTAN_LOG", "info").lower()
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _collection(args, T: tuple[int, ...] | None) -> Collection:
    """The collection named by --k, --lambda and --collection; d is len(k)."""
    k = _parse_ints(args.k)
    lam = args.lam.split(",") if args.lam is not None else (1,) * len(k)
    params = ManhattanParams(d=len(k), lam=lam, k=k, T=T)
    return Collection.from_string(params, args.collection)


def _is_pgm(path: str) -> bool:
    """A file's suffix alone picks its format: .pgm in any case is PGM, else MHT1."""
    return Path(path).suffix.lower() == ".pgm"


def _read_grid(path: str) -> Grid:
    with open(path, "rb") as fh:
        return read_pgm(fh) if _is_pgm(path) else read_mht1(fh)


def _write_grid(path: str, g: Grid) -> None:
    if _is_pgm(path):
        pgm = io.BytesIO()
        write_pgm(pgm, g)  # refuses a 3D image or a spectrum before the path is opened
        Path(path).write_bytes(pgm.getvalue())
        return
    with open(path, "wb") as fh:
        write_mht1(fh, g)


def cmd_info(args) -> int:
    collection = _collection(args, None)
    closure = collection.closure()
    minimal = collection.minimal()
    rho = density(collection)
    volume = manhattan_region_volume(collection)
    print(f"collection: {collection}")
    print(f"closure ({len(closure.members)}): {closure}")
    print(f"minimal: {minimal}")
    print(f"density: {rho} = {float(rho):.6f} samples per unit volume")
    print(f"samples per fundamental cell: {fundamental_cell_count(collection)}")
    for b in closure.sorted_members():
        print(f"  atom {b}: volume {atom_volume(b, collection.params)}")
    status = "holds" if volume == rho else "VIOLATED"
    print(f"landau identity (region volume == density): {status} ({volume})")
    return EXIT_OK if volume == rho else EXIT_NUMERICAL


def cmd_bandlimit(args) -> int:
    image = _read_grid(args.input)
    collection = _collection(args, tuple(image.extents))
    _write_grid(args.output, bandlimit(image, collection))
    log.info("bandlimited %s -> %s", args.input, args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    image = _read_grid(args.input)
    collection = _collection(args, tuple(image.extents))
    ss = extract_samples(image, collection)
    start = time.perf_counter()
    with open(args.samples, "w") as fh:
        write_mhs1(fh, ss)
    log.debug("sampler.mhs1_write_s %.6f sampler.mhs1_bytes %d sampler.mhs1_split %d",
              time.perf_counter() - start, os.path.getsize(args.samples), sampler._mhs1_split)
    log.info("wrote %d samples to %s", len(ss), args.samples)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    start = time.perf_counter()
    with open(args.samples) as fh:
        ss = read_mhs1(fh)
    log.debug("sampler.mhs1_read_s %.6f sampler.mhs1_bytes %d sampler.mhs1_split %d",
              time.perf_counter() - start, os.path.getsize(args.samples), sampler._mhs1_split)
    result = reconstruct(ss)
    _write_grid(args.output, result)
    log.info("reconstructed %s -> %s", args.samples, args.output)
    if args.reference:
        ref = _read_grid(args.reference).image(ss.params.T)
        scale = max(np.abs(ref).max(), 1e-30)
        err = np.abs(result.data - ref).max() / scale
        ok = err <= 1e-9
        print(f"{'PASS' if ok else 'FAIL'} relative max error {err:.3e}")
        return EXIT_OK if ok else EXIT_NUMERICAL
    return EXIT_OK


def cmd_spectrum(args) -> int:
    image = _read_grid(args.input)
    report = spectrum_report(image)
    if _is_pgm(args.output):
        out = report.data
        lo, hi = out.min(), out.max()
        scaled = (out - lo) / (hi - lo) * 255.0 if hi > lo else out * 0.0
        report = Grid(report.extents, scaled)
    _write_grid(args.output, report)
    log.info("spectrum of %s -> %s", args.input, args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    size = _parse_ints(args.size)
    if any(s <= 0 for s in size):
        raise DomainError(f"invalid size {args.size!r}")
    try:  # MemoryError, or ValueError for a size numpy will not even try
        if args.kind == "random":
            rng = np.random.default_rng(args.seed)
            arr = rng.uniform(0.0, 255.0, size=size)
        elif args.kind == "impulse":
            arr = np.zeros(size)
            arr[(0,) * len(size)] = 1.0
        elif np.isfinite(args.value):  # a constant image
            arr = np.full(size, args.value, dtype=np.float64)
        else:
            raise DomainError(f"constant value must be finite, got {args.value}")
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"cannot generate size {args.size!r}: {exc}") from exc
    _write_grid(args.output, Grid(size, arr))
    log.info("generated %s image %s -> %s", args.kind, args.size, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manhattan",
        description="Manhattan sampling sets: density accounting, sampling, "
        "and perfect reconstruction of Manhattan-bandlimited images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    params = argparse.ArgumentParser(add_help=False)  # flags of ManhattanParams
    params.add_argument("--k", required=True, help="sampling factors, e.g. 4,4")
    params.add_argument("--lambda", dest="lam", help="dense spacings, e.g. 1,1 or 1/2,3")
    params.add_argument("--collection", required=True, help="bit strings, e.g. 10,01")

    def command(name: str, func, summary: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=list(parents), help=summary)
        p.set_defaults(func=func)
        return p

    command("info", cmd_info, "report closure, density, atom volumes", params)

    p = command("bandlimit", cmd_bandlimit, "zero spectrum outside the Manhattan region",
                params)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = command("sample", cmd_sample, "extract Manhattan samples to an MHS1 file",
                params)
    p.add_argument("--input", required=True)
    p.add_argument("--samples", required=True, help="output MHS1 path")

    p = command("reconstruct", cmd_reconstruct, "reconstruct an image from MHS1 samples")
    p.add_argument("--samples", required=True, help="input MHS1 path")
    p.add_argument("--output", required=True)
    p.add_argument("--reference", default=None, help="compare against this image")

    p = command("spectrum", cmd_spectrum, "write centered log-magnitude spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = command("generate", cmd_generate, "write a synthetic test image")
    p.add_argument("--size", required=True, help="extents, e.g. 64,64")
    p.add_argument("--kind", choices=["random", "constant", "impulse"], default="random")
    p.add_argument("--value", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        log.error("format error: %s", exc)
        return EXIT_FORMAT
    except NumericalFailureError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (ManhattanError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
