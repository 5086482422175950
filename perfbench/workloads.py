"""The benchmark's workloads and the pass that runs one of them.

Each workload is a closed loop: one caller in one single-threaded benchmark
process issues the next library call only after the previous one returns.
Calls go through the public ``isoedf`` names, looked up at call time, so the
traced run can wrap them.  An MC scenario derives c = N/L from one (N, L)
pair and uses that c for both the model and the simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import isoedf

# A call that raises one of these counts as a failed operation.
FAILURES = (isoedf.SolverError, isoedf.NumericError, ValueError)

MODEL_C = (0.25, 1.0, 1.5)


@dataclass(frozen=True)
class Scenario:
    n: int
    c: float
    mode: str = "reduced"
    snapshots: int | None = None  # MC scenarios: run_mc at L = snapshots

    @property
    def key(self) -> tuple[int, float, str]:
        return (self.n, round(self.c, 12), self.mode)

    @property
    def label(self) -> str:
        mc = f" L={self.snapshots}" if self.snapshots else ""
        return f"N={self.n} c={self.c:.4g} {self.mode}{mc}"


def mc_scenario(n: int, snapshots: int, mode: str = "reduced") -> Scenario:
    return Scenario(n, n / snapshots, mode, snapshots)


@dataclass(frozen=True)
class Workload:
    """Timed scenarios plus the untimed work the output checks need.

    ``check_full`` scenarios give each reduced MC prediction a full-mode
    counterpart for ``reduction_ks_max``; ``check_mc`` scenarios give the
    model-only sweep a Monte Carlo reference for the KS check.
    """

    name: str
    scenarios: tuple[Scenario, ...]
    trials: int = 0  # MC trials per timed MC scenario
    check_full: tuple[Scenario, ...] = ()
    check_mc: tuple[Scenario, ...] = ()
    check_trials: int = 0
    points: int = 1500  # density grid points per prediction
    setup_repeats: int = 16

    @property
    def first(self) -> Scenario:
        return self.scenarios[0]


def _model_sweep() -> Workload:
    reduced = tuple(Scenario(n, c) for n in (51, 256, 1024) for c in MODEL_C)
    full = tuple(Scenario(n, c, "full") for n in (51, 256) for c in MODEL_C)
    return Workload(
        "model_sweep",
        reduced + full,
        check_mc=tuple(mc_scenario(51, l) for l in (204, 51, 34)),
        check_trials=500,
    )


def _mc_workload(name: str, n: int, snapshots: tuple[int, ...], trials: int) -> Workload:
    return Workload(
        name,
        tuple(mc_scenario(n, l) for l in snapshots),
        trials=trials,
        check_full=tuple(mc_scenario(n, l, "full") for l in snapshots),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _model_sweep(),
        _mc_workload("mc_n51", 51, (204, 34), 500),
    )
}


class Ledger:
    """Operations attempted and failed: library calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library call; on a counted failure record it and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except FAILURES as e:
            self._fail(f"{label}: {type(e).__name__}: {e}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check {label} failed {detail}".rstrip())

    def check_by(self, label: str, fn, *args) -> None:
        """A check computed by ``fn(*args) -> (ok, detail)``; a counted exception fails it."""
        try:
            ok, detail = fn(*args)
        except FAILURES as e:
            ok, detail = False, f"({type(e).__name__}: {e})"
        self.check(label, ok, detail)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


@dataclass
class Outputs:
    """What one pass (or the check phase) produced, keyed for cross-matching."""

    predictions: dict  # Scenario.key -> EdfPrediction
    spectra: dict  # (n, c) -> EmpiricalSpectrum
    reports: list  # ((n, c, mode), ComparisonReport)
    predict_s: float = 0.0
    mc_s: float = 0.0
    mc_trials: int = 0
    wall_s: float = 0.0

    def timings_only(self) -> Outputs:
        """The same pass with its outputs dropped, so that it holds no memory."""
        return replace(self, predictions={}, spectra={}, reports=[])


def predict(w: Workload, s: Scenario, out: Outputs, ledger: Ledger) -> None:
    t = time.perf_counter()
    pred = ledger.call(
        f"predict_edf {s.label}",
        isoedf.predict_edf,
        isoedf.ArrayNoiseConfig(s.n),
        s.c,
        mode=s.mode,
        points=w.points,
    )
    out.predict_s += time.perf_counter() - t
    if pred is not None:
        out.predictions[s.key] = pred


def simulate(s: Scenario, trials: int, seed: int, out: Outputs, ledger: Ledger) -> None:
    mc = isoedf.McConfig(isoedf.ArrayNoiseConfig(s.n), s.snapshots, trials, seed=seed)
    t = time.perf_counter()
    emp = ledger.call(f"run_mc {s.label}", isoedf.run_mc, mc)
    out.mc_s += time.perf_counter() - t
    if emp is not None:
        out.spectra[s.key[:2]] = emp
        out.mc_trials += trials


def compare(key, out: Outputs, ledger: Ledger) -> None:
    pred, emp = out.predictions.get(key), out.spectra.get(key[:2])
    if pred is None or emp is None:
        ledger.check(f"compare inputs {key}", False, "(a prediction or simulation failed)")
        return
    report = ledger.call(f"compare {key}", isoedf.compare, pred.density, emp)
    if report is not None:
        out.reports.append((key, report))


def run_pass(w: Workload, seed: int, ledger: Ledger) -> Outputs:
    """One timed pass: per scenario predict_edf, then run_mc and compare."""
    out = Outputs({}, {}, [])
    start = time.perf_counter()
    for s in w.scenarios:
        predict(w, s, out, ledger)
        if s.snapshots:
            simulate(s, w.trials, seed, out, ledger)
            compare(s.key, out, ledger)
    out.wall_s = time.perf_counter() - start
    return out


def warm_up(w: Workload, seed: int) -> None:
    """The first scenario's spectrum, plus a 1-trial run_mc for MC workloads."""
    s = w.first
    cfg = isoedf.ArrayNoiseConfig(s.n)
    isoedf.ensemble_spectrum(cfg)
    if s.snapshots:
        isoedf.run_mc(isoedf.McConfig(cfg, s.snapshots, 1, seed=seed))
