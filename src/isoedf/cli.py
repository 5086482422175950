"""Command-line front end: spectra, atomic models, predictions, simulations.

Output convention: a `#`-prefixed JSON header line with run metadata,
then plain CSV rows, so one file feeds both scripts and plot tools.
Exit codes: 0 success (also when the reader closes the output pipe early),
2 usage error or invalid input, 1 numeric failure or out of memory.  Input checks live in
the library constructors and functions; their ValueError exits 2, and so
does an OSError from opening --out, which happens before any computation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import nullcontext

from .ecm import ArrayNoiseConfig, ensemble_spectrum
from .linalg import NumericError
from .mc import McConfig, run_mc
from .report import compare
from .rmt import FmcProblem, SolverError, default_grid, density_curve, predict_edf
from .spike import classify, full_measure, reduce


def _fmt(v: float) -> str:
    return f"{v:.12g}"  # also prints ints below 1e12, e.g. trial and index, unchanged


def _write(out, header, columns=None, rows=()):
    """Print to `out`: a `# header` line, the columns and CSV rows, or,
    without columns, the header as an indented JSON report."""
    if columns is None:
        print(json.dumps(header, indent=2), file=out)
        return
    print(f"# {json.dumps(header)}", file=out)
    print(columns, file=out)
    for row in rows:
        print(",".join(map(_fmt, row)), file=out)


def _resolve_c_and_l(args, parser) -> tuple[float, int]:
    """Aspect ratio and snapshot count from --c / --snapshots (either suffices).

    --c implies the snapshot count round(n / c); given together, --snapshots
    must equal it.
    """
    if args.c is None and args.snapshots is None:
        parser.error("one of --c or --snapshots is required")
    if args.c is None:
        if not args.snapshots > 0:
            raise ValueError(f"snapshots must be a positive integer, got {args.snapshots}")
        return args.n / args.snapshots, args.snapshots
    if not 0 < args.c < math.inf:
        raise ValueError(f"aspect ratio c must be finite and > 0, got {args.c}")
    snapshots = round(args.n / args.c)
    if args.snapshots is not None and args.snapshots != snapshots:
        parser.error(
            f"--c {args.c} implies --snapshots {snapshots} at --n {args.n}, "
            f"not {args.snapshots}"
        )
    return args.c, snapshots


def _cmd_eigvals(args, parser, out):
    spectrum = ensemble_spectrum(ArrayNoiseConfig(n=args.n, zeta=args.zeta))
    header = {"n": args.n, "zeta": args.zeta}
    _write(out, header, "index,gamma", enumerate(spectrum.values, start=1))


def _cmd_atoms(args, parser, out):
    c, _ = _resolve_c_and_l(args, parser)
    spectrum = ensemble_spectrum(ArrayNoiseConfig(n=args.n, zeta=args.zeta))
    measure = reduce(classify(spectrum, c))
    header = {"n": args.n, "zeta": args.zeta, "c": c, "atoms": len(measure.atoms)}
    _write(out, header, "location,weight", measure.atoms)


def _cmd_predict(args, parser, out):
    c, _ = _resolve_c_and_l(args, parser)
    pred = predict_edf(
        ArrayNoiseConfig(n=args.n, zeta=args.zeta),
        c,
        mode=args.mode,
        points=args.grid_points,
        eta=args.eta,
    )
    density = pred.density
    header = {
        "atoms": pred.atom_count,
        "c": c,
        "eta": args.eta,
        "zero_mass": density.zero_mass,
        "wall_ms": round(pred.wall_ms, 3),
    }
    _write(out, header, "x,f", zip(density.grid, density.values))


def _cmd_simulate(args, parser, out):
    _, snapshots = _resolve_c_and_l(args, parser)
    cfg = ArrayNoiseConfig(n=args.n, zeta=args.zeta)
    mc_cfg = McConfig(
        cfg=cfg, snapshots=snapshots, trials=args.trials, seed=args.seed, bins=args.bins
    )
    start = time.perf_counter()
    emp = run_mc(mc_cfg)
    wall_ms = (time.perf_counter() - start) * 1e3
    header = {
        "n": args.n,
        "zeta": args.zeta,
        "snapshots": snapshots,
        "trials": args.trials,
        "seed": args.seed,
        "bins": args.bins,
        "c": mc_cfg.c,
        "zero_count": emp.zero_count,
        "wall_ms": round(wall_ms, 3),
    }
    if args.format == "pooled":
        columns = "trial,index,g"
        rows = (
            (trial, i, g)
            for trial, values in enumerate(emp.per_trial)
            for i, g in enumerate(values, start=1)
        )
    else:
        columns = "bin_left,bin_right,height"
        rows = zip(emp.hist_edges[:-1], emp.hist_edges[1:], emp.hist_heights)
    _write(out, header, columns, rows)


def _cmd_compare(args, parser, out):
    _, snapshots = _resolve_c_and_l(args, parser)
    cfg = ArrayNoiseConfig(n=args.n, zeta=args.zeta)
    mc_cfg = McConfig(
        cfg=cfg, snapshots=snapshots, trials=args.trials, seed=args.seed, bins=args.bins
    )
    c = mc_cfg.c  # model the aspect ratio n / L that is simulated
    pred = predict_edf(cfg, c, mode=args.mode, points=args.grid_points, eta=args.eta)
    start = time.perf_counter()
    emp = run_mc(mc_cfg)
    mc_ms = (time.perf_counter() - start) * 1e3
    rep = compare(pred.density, emp)
    payload = {
        "n": args.n,
        "zeta": args.zeta,
        "c": c,
        "mode": args.mode,
        "atom_count": pred.atom_count,
        "ks": rep.ks,
        "l1": rep.l1,
        "zero_mass_model": rep.zero_mass_model,
        "zero_frac_empirical": rep.zero_frac_empirical,
        "runtime_model_ms": round(pred.wall_ms, 3),
        "runtime_mc_ms": round(mc_ms, 3),
        "seed": args.seed,
    }
    _write(out, payload)


def _cmd_bench(args, parser, out):
    c, _ = _resolve_c_and_l(args, parser)
    spectrum = ensemble_spectrum(ArrayNoiseConfig(n=args.n, zeta=args.zeta))
    reduced = FmcProblem(measure=reduce(classify(spectrum, c)), c=c)
    full = FmcProblem(measure=full_measure(spectrum), c=c)
    grid = default_grid(full, args.grid_points)
    start = time.perf_counter()
    density_curve(reduced, grid, args.eta)
    reduced_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    density_curve(full, grid, args.eta)
    full_ms = (time.perf_counter() - start) * 1e3
    payload = {
        "n": args.n,
        "zeta": args.zeta,
        "c": c,
        "grid_points": args.grid_points,
        "eta": args.eta,
        "atoms_reduced": len(reduced.measure.atoms),
        "atoms_full": len(full.measure.atoms),
        "reduced_ms": round(reduced_ms, 3),
        "full_ms": round(full_ms, 3),
        "speedup": round(full_ms / reduced_ms, 3),
    }
    _write(out, payload)


def _add_common(sub, *, snapshots=False, model=False, sim=False):
    sub.add_argument("--n", type=int, required=True, help="sensor count")
    sub.add_argument("--zeta", type=float, default=0.5, help="sensor spacing / wavelength")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    if snapshots:
        sub.add_argument("--c", type=float, default=None, help="aspect ratio N/L")
        sub.add_argument(
            "--snapshots", type=int, default=None, help="snapshot count L (alternative to --c)"
        )
    if model:
        sub.add_argument("--grid-points", type=int, default=1500, help="density grid size")
        sub.add_argument("--eta", type=float, default=1e-6, help="smoothing offset")
    if sim:
        sub.add_argument("--trials", type=int, default=500, help="Monte Carlo trials")
        sub.add_argument("--seed", type=int, default=0, help="reproducibility seed")
        sub.add_argument("--bins", type=int, default=75, help="histogram bin count")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoedf",
        description=(
            "Limiting eigenvalue density of sample covariance matrices for "
            "cylindrically isotropic line-array noise, with Monte Carlo validation."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("eigvals", help="ensemble covariance spectrum as CSV")
    _add_common(sub)
    sub.set_defaults(func=_cmd_eigvals)

    sub = subs.add_parser("atoms", help="reduced atomic measure as CSV")
    _add_common(sub, snapshots=True)
    sub.set_defaults(func=_cmd_atoms)

    sub = subs.add_parser("predict", help="limiting density curve as CSV")
    _add_common(sub, snapshots=True, model=True)
    sub.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    sub.set_defaults(func=_cmd_predict)

    sub = subs.add_parser("simulate", help="Monte Carlo eigenvalues or histogram as CSV")
    _add_common(sub, snapshots=True, sim=True)
    sub.add_argument("--format", choices=("pooled", "hist"), default="pooled")
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("compare", help="model vs simulation report as JSON")
    _add_common(sub, snapshots=True, model=True, sim=True)
    sub.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser("bench", help="reduced vs full mode timing as JSON")
    _add_common(sub, snapshots=True, model=True)
    sub.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # --out is opened first, so a bad path fails before any computation
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
            args.func(args, parser, out)
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's final flush of the buffered rest cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (SolverError, NumericError) as e:
        print(f"isoedf: numeric failure: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"isoedf: out of memory: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"isoedf: invalid input: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
