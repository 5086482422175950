"""Output checks and accuracy figures, run after the timed passes.

Every check counts as one operation in the ledger, so a failed check shows
in ``failed`` and ``ok_frac``.
"""

from __future__ import annotations

import math

import numpy as np

import isoedf
from workloads import MODEL_C, Ledger, Outputs, Workload, compare, predict, simulate

# Largest interior |density_curve - mp_density| for a single unit atom.
MP_TOL = 1e-4
# Points closer than this share of the support width to an MP edge are not
# interior: the eta = 1e-6 smoothing dominates there.
MP_EDGE_MARGIN = 0.01
# KS allowance for model error.  The reduced model sits about 0.056 from the
# simulation at these sizes and the full one about 0.003; a mis-selected
# branch or a c mismatch gives about 0.19.
KS_MODEL_TOL = 0.1
# Sampling allowance: a DKW deviation at false-alarm rate 1e-6 over the
# pooled count, sqrt(ln(2e6) / 2) / sqrt(pooled).
KS_DKW = math.sqrt(math.log(2e6) / 2)
LAYOUT_TRIALS = 8


def mp_oracle_error(c: float, points: int) -> float:
    """Largest interior error of a single-atom density curve against MP."""
    measure = isoedf.AtomicMeasure(atoms=((1.0, 1.0),), kind="full")
    problem = isoedf.FmcProblem(measure=measure, c=c)
    grid = isoedf.default_grid(problem, points)
    values = isoedf.density_curve(problem, grid).values
    return mp_error(values, grid, c)


def mp_error(values, grid, c: float) -> float:
    params = isoedf.MpParams(c)
    a, b = params.support
    margin = MP_EDGE_MARGIN * (b - a)
    interior = (grid > a + margin) & (grid < b - margin)
    ref = np.array([isoedf.mp_density(x, params) for x in grid[interior]])
    return float(np.max(np.abs(values[interior] - ref)))


def layout_matches(emp, n: int, snapshots: int, seed: int) -> bool:
    """A short run must reproduce the first trials of the workload's run."""
    k = min(LAYOUT_TRIALS, emp.trials)
    short = isoedf.run_mc(isoedf.McConfig(isoedf.ArrayNoiseConfig(n), snapshots, k, seed=seed))
    return bool(np.array_equal(short.per_trial, emp.per_trial[:k]))


def _mp_check(c: float, points: int) -> tuple[bool, str]:
    err = mp_oracle_error(c, points)
    return err <= MP_TOL, f"(error {err:.3g} > {MP_TOL})"


def _layout_check(emp, s, seed: int) -> tuple[bool, str]:
    return layout_matches(emp, s.n, s.snapshots, seed), ""


def ks_bound(pooled: int) -> float:
    return KS_MODEL_TOL + KS_DKW / math.sqrt(pooled)


def density_ok(d) -> bool:
    return bool(np.isfinite(d.values).all() and np.min(d.values) >= 0)


def run_checks(w: Workload, seed: int, last: Outputs, ledger: Ledger) -> Outputs:
    """Untimed extra work plus every output check; returns all outputs merged."""
    extra = Outputs({}, {}, [])
    for s in w.check_full:
        predict(w, s, extra, ledger)
    for s in w.check_mc:
        simulate(s, w.check_trials, seed, extra, ledger)
    merged = Outputs(
        {**last.predictions, **extra.predictions},
        {**last.spectra, **extra.spectra},
        list(last.reports),
    )
    compared = {key for key, _ in merged.reports}
    for key in merged.predictions:
        if key[:2] in merged.spectra and key not in compared:
            compare(key, merged, ledger)

    for key, pred in merged.predictions.items():
        ledger.check(f"density finite and >= 0 {key}", density_ok(pred.density))
    for c in MODEL_C:
        ledger.check_by(f"mp oracle c={c}", _mp_check, c, w.points)
    for s in w.scenarios + w.check_mc:
        emp = merged.spectra.get(s.key[:2]) if s.snapshots else None
        if emp is not None:
            ledger.check_by(f"mc layout invariance {s.label}", _layout_check, emp, s, seed)
    for key, report in merged.reports:
        bound = ks_bound(len(merged.spectra[key[:2]].pooled))
        ledger.check(f"ks sanity {key}", report.ks <= bound, f"(ks {report.ks:.4f} > {bound:.4f})")
    return merged


def mass_defect_max(predictions) -> float:
    """Largest |total_mass - 1|; 1.0 when nothing was predicted."""
    return max((abs(p.density.total_mass - 1.0) for p in predictions.values()), default=1.0)


def reduction_ks_max(predictions) -> float:
    """Largest sup |F_reduced - F_full| over the union of both default grids.

    1.0, the largest possible distance, when no pair was predicted.
    """
    gaps = []
    for (n, c, mode), red in predictions.items():
        full = predictions.get((n, c, "full"))
        if mode == "reduced" and full is not None:
            xs = np.union1d(red.density.grid, full.density.grid)
            gap = np.abs(isoedf.model_cdf(red.density, xs) - isoedf.model_cdf(full.density, xs))
            gaps.append(float(np.max(gap)))
    return max(gaps, default=1.0)
