"""Command-line front end: spectra, atomic models, predictions, simulations.

`main` owns parsing, input resolution, output and exit codes: it opens
--out, resolves --c / --snapshots once, builds the one ArrayNoiseConfig,
calls the subcommand and prints what it returns.  Subcommands only compute.
Output: a `#`-prefixed JSON header line with run metadata, then plain
CSV rows, so one file feeds both scripts and plot tools.
Exit codes: 0 success (also when the reader closes the output pipe early),
2 usage error or invalid input, 1 numeric failure or out of memory.  Input checks live in
the library constructors and functions; their ValueError exits 2, and so
does an OSError from opening --out, which happens before any computation.
A run that exits non-zero leaves an existing --out file as it was and
removes one that it created.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import time
from contextlib import contextmanager

from .ecm import ArrayNoiseConfig, check_int, ensemble_spectrum
from .linalg import NumericError
from .mc import McConfig, run_mc
from .report import compare
from .rmt import SolverError, predict_edf
from .specfun import check_ratio
from .spike import classify, reduce


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


@contextmanager
def _output(path):
    """stdout, or path opened for append; if the run fails, a file this created is removed."""
    if not path:
        yield sys.stdout
        return
    try:
        out, created = open(path, "x"), True
    except FileExistsError:
        out, created = open(path, "a"), False
    try:
        with out:
            yield out
    except BaseException:  # also argparse's SystemExit from a usage error
        if created:
            os.remove(path)
        raise


def _resolve_c_and_l(args, parser) -> tuple[float, int]:
    """Aspect ratio and snapshot count from --c / --snapshots (either suffices).

    --c implies the snapshot count round(n / c), which must be finite; given
    together, --snapshots must equal it.
    """
    if args.c is None and args.snapshots is None:
        parser.error("one of --c or --snapshots is required")
    if args.c is None:
        check_int("snapshots", args.snapshots, 1)
        return args.n / args.snapshots, args.snapshots
    check_ratio(args.c)
    if not math.isfinite(args.n / args.c):
        raise ValueError(f"--c {args.c} implies a snapshot count n / c that is not finite")
    snapshots = round(args.n / args.c)
    if args.snapshots is not None and args.snapshots != snapshots:
        parser.error(
            f"--c {args.c} implies --snapshots {snapshots} at --n {args.n}, "
            f"not {args.snapshots}"
        )
    return args.c, snapshots


def _cmd_eigvals(args, cfg):
    header = {"n": args.n, "zeta": args.zeta}
    return header, "index,gamma", enumerate(ensemble_spectrum(cfg).values, start=1)


def _cmd_atoms(args, cfg):
    measure = reduce(classify(ensemble_spectrum(cfg), args.c))
    header = {"n": args.n, "zeta": args.zeta, "c": args.c, "atoms": len(measure.atoms)}
    return header, "location,weight", measure.atoms


def _cmd_predict(args, cfg):
    pred = predict_edf(cfg, args.c, mode=args.mode, points=args.grid_points, eta=args.eta)
    header = {
        "atoms": pred.atom_count,
        "c": args.c,
        "eta": args.eta,
        "zero_mass": pred.density.zero_mass,
        "wall_ms": round(pred.wall_ms, 3),
        "stage_ms": {stage: round(ms, 3) for stage, ms in pred.stage_ms.items()},
    }
    return header, "x,f", zip(pred.density.grid, pred.density.values)


def _timed_mc(args, cfg):
    """The McConfig of the parsed options, its run_mc result and wall time in ms."""
    mc_cfg = McConfig(
        cfg=cfg, snapshots=args.snapshots, trials=args.trials, seed=args.seed, bins=args.bins
    )
    start = time.perf_counter()
    emp = run_mc(mc_cfg)
    return mc_cfg, emp, (time.perf_counter() - start) * 1e3


def _cmd_simulate(args, cfg):
    mc_cfg, emp, wall_ms = _timed_mc(args, cfg)
    header = {
        "n": args.n,
        "zeta": args.zeta,
        "snapshots": args.snapshots,
        "trials": args.trials,
        "seed": args.seed,
        "bins": args.bins,
        "c": mc_cfg.c,
        "zero_count": emp.zero_count,
        "wall_ms": round(wall_ms, 3),
    }
    if args.format == "pooled":
        rows = (
            (trial, i, g)
            for trial, values in enumerate(emp.per_trial)
            for i, g in enumerate(values, start=1)
        )
        return header, "trial,index,g", rows
    rows = zip(emp.hist_edges[:-1], emp.hist_edges[1:], emp.hist_heights)
    return header, "bin_left,bin_right,height", rows


def _cmd_compare(args, cfg):
    mc_cfg, emp, mc_ms = _timed_mc(args, cfg)
    c = mc_cfg.c  # model the aspect ratio n / L that is simulated
    pred = predict_edf(cfg, c, mode=args.mode, points=args.grid_points, eta=args.eta)
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
    return (payload,)


def _cmd_bench(args, cfg):
    reduced, full = (
        predict_edf(cfg, args.c, mode=mode, points=args.grid_points, eta=args.eta)
        for mode in ("reduced", "full")
    )
    reduced_ms, full_ms = reduced.stage_ms["density"], full.stage_ms["density"]
    payload = {
        "n": args.n,
        "zeta": args.zeta,
        "c": args.c,
        "grid_points": args.grid_points,
        "eta": args.eta,
        "atoms_reduced": reduced.atom_count,
        "atoms_full": full.atom_count,
        "reduced_ms": round(reduced_ms, 3),
        "full_ms": round(full_ms, 3),
        "speedup": round(full_ms / reduced_ms, 3),
    }
    return (payload,)


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

    sub = subs.add_parser("bench", help="reduced vs full density-stage time of `predict` as JSON")
    _add_common(sub, snapshots=True, model=True)
    sub.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # --out is opened first, so a bad path fails before any computation, and
        # for append, so it is emptied only once the subcommand has succeeded
        with _output(args.out) as out:
            if hasattr(args, "c"):
                args.c, args.snapshots = _resolve_c_and_l(args, parser)
            result = args.func(args, ArrayNoiseConfig(n=args.n, zeta=args.zeta))
            if args.out and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)  # a pipe or a device such as /dev/null cannot be emptied
            _write(out, *result)
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
