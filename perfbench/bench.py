"""Workload runner and metric tables behind ``run.py``.

Imported only after ``run.bootstrap`` has put the checkout's ``src`` first on
``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, Ledger, Outputs, Workload, run_pass, simulate, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREADS_ENV = "ISO_EDF_THREADS"
# An untraced run makes at least this many passes, so that no timing rests on
# a single pass even when one pass outlasts --seconds.
MIN_PASSES = 2

# name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "predict_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ks_vs_mc": ("frac", "lower"),
    "mass_defect_max": ("frac", "lower"),
    "reduction_ks_max": ("frac", "lower"),
    "ok_frac": ("frac", "higher"),
}

PER_LAYER = {
    "rmt.density_curve.self_ms": ("ms", "lower"),
    "rmt.grid_points": ("count", "lower"),
    "rmt.atom_points": ("count", "lower"),
    "rmt.ns_per_atom_point": ("ns", "lower"),
    "rmt.points_per_s": ("1/s", "higher"),
    "linalg.poly_roots.calls": ("count", "lower"),
    "linalg.poly_roots.ms": ("ms", "lower"),
    "ecm.ensemble_spectrum.calls": ("count", "lower"),
    "ecm.ensemble_spectrum.self_ms": ("ms", "lower"),
    "ecm.build_ecm.self_ms": ("ms", "lower"),
    "linalg.sym_eigenvalues.calls": ("count", "lower"),
    "linalg.sym_eigenvalues.ms": ("ms", "lower"),
    "specfun.bessel_j0.calls": ("count", "lower"),
    "specfun.bessel_j0.ms": ("ms", "lower"),
    "spike.classify.ms": ("ms", "lower"),
    "spike.reduce.ms": ("ms", "lower"),
    "spike.full_measure.ms": ("ms", "lower"),
    "spike.atoms_reduced": ("count", "lower"),
    "spike.atoms_full": ("count", "lower"),
    "mc.make_stream.ms": ("ms", "lower"),
    "mc.gaussian_snapshots.ms": ("ms", "lower"),
    "mc.scm_eigenvalues.self_ms": ("ms", "lower"),
    "linalg.hermitian_eigenvalues.calls": ("count", "lower"),
    "linalg.hermitian_eigenvalues.ms": ("ms", "lower"),
    "linalg.sqrt_psd.ms": ("ms", "lower"),
    "mc.gemm_gflop": ("GFLOP_computed", "lower"),
    "mc.gemm_gflop_per_s": ("GFLOP/s_computed", "higher"),
    "mc.gemm_mflop_per_trial": ("MFLOP_computed", "lower"),
    "mc.gemm_mbyte_per_trial": ("MB_computed", "lower"),
    "mc.gemm_flop_per_byte": ("flop/B_computed", "higher"),
    "mc.trials_per_s": ("1/s", "higher"),
    "mc.run_mc.wall_ms": ("ms", "lower"),
    "mc.busy_ms": ("ms", "lower"),
    "mc.workers": ("count", "lower"),
    "mc.run_mc.self_ms": ("ms", "lower"),
    "mc.speedup_vs_1thread": ("x", "higher"),
    "report.compare.ms": ("ms", "lower"),
    "report.l1_vs_mc": ("frac", "lower"),
    "report.pooled_count": ("count", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # as found; the timed passes run with both as found
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_samples(w, seed: int, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters."""
    s = w.first
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(s.n), str(s.snapshots or 0), str(seed)]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(w, seed: int, seconds: float, ledger, traced: bool, after_round=None):
    """Timed passes for about ``seconds``.

    Another round starts only while it is expected to end within ``seconds``,
    going by the median round so far, so that a run does not overshoot by
    most of a long pass.  A round is one untraced pass, followed with
    ``traced`` by a traced one.  Untraced runs make at least MIN_PASSES
    passes and traced runs at least one round.  ``after_round``, if given,
    is called between rounds with the share of ``seconds`` gone by.  The
    spans of the last traced pass are returned with both lists of passes.
    """
    min_rounds = 1 if traced else MIN_PASSES
    plain, with_spans, spans, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if plain:
            # Only the last pass's outputs are checked; keeping the others
            # would make peak_rss_mb grow with the number of passes.
            plain[-1] = plain[-1].timings_only()
        plain.append(run_pass(w, seed, ledger))
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                with_spans.append(run_pass(w, seed, ledger).timings_only())
            spans = tracer.spans
        rounds.append(time.perf_counter() - round_start)
        if after_round is not None:
            after_round((time.perf_counter() - start) / seconds if seconds else 1.0)
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now - start + statistics.median(rounds) > seconds:
            return plain, with_spans, spans


def single_thread_mc_s(w, seed: int, ledger) -> float:
    """Summed run_mc time of one pass's simulations with ISO_EDF_THREADS=1."""
    out = Outputs({}, {}, [])
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = "1"
    try:
        for s in w.scenarios:
            if s.snapshots:
                simulate(s, w.trials, seed, out, ledger)
    finally:
        if saved is None:
            del os.environ[THREADS_ENV]
        else:
            os.environ[THREADS_ENV] = saved
    return out.mc_s


def end_to_end(plain, merged, setup_s: float, rss_mb: float, ledger) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in plain),
        "predict_s": statistics.median(p.predict_s for p in plain),
        "peak_rss_mb": rss_mb,
        "ks_vs_mc": max((r.ks for _, r in merged.reports), default=1.0),
        "mass_defect_max": checks.mass_defect_max(plain[-1].predictions),
        "reduction_ks_max": checks.reduction_ks_max(merged.predictions),
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def per_layer(spans, plain, with_spans, speedup: float) -> dict:
    stats = tracing.aggregate(spans)
    empty = tracing.LayerStats()

    def get(name):
        return stats.get(name, empty)

    def ms(name):
        return get(name).ns / 1e6

    def self_ms(name):
        return get(name).self_ns / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    dc, scm = get("rmt.density_curve"), get("mc.scm_eigenvalues")
    flop, byte = scm.counts.get("gemm_flop", 0), scm.counts.get("gemm_byte", 0)
    busy_ms, workers = tracing.run_mc_orchestration(spans)
    compares = [s for s in spans if s.name == "report.compare"]
    overhead = statistics.median(p.wall_s for p in with_spans) / statistics.median(p.wall_s for p in plain) - 1
    return {
        "rmt.density_curve.self_ms": self_ms("rmt.density_curve"),
        "rmt.grid_points": dc.counts.get("grid_points", 0),
        "rmt.atom_points": dc.counts.get("atom_points", 0),
        "rmt.ns_per_atom_point": ratio(dc.self_ns, dc.counts.get("atom_points", 0)),
        "rmt.points_per_s": ratio(dc.counts.get("grid_points", 0), dc.ns / 1e9),
        "linalg.poly_roots.calls": get("linalg.poly_roots").calls,
        "linalg.poly_roots.ms": ms("linalg.poly_roots"),
        "ecm.ensemble_spectrum.calls": get("ecm.ensemble_spectrum").calls,
        "ecm.ensemble_spectrum.self_ms": self_ms("ecm.ensemble_spectrum"),
        "ecm.build_ecm.self_ms": self_ms("ecm.build_ecm"),
        "linalg.sym_eigenvalues.calls": get("linalg.sym_eigenvalues").calls,
        "linalg.sym_eigenvalues.ms": ms("linalg.sym_eigenvalues"),
        "specfun.bessel_j0.calls": get("specfun.bessel_j0").calls,
        "specfun.bessel_j0.ms": ms("specfun.bessel_j0"),
        "spike.classify.ms": ms("spike.classify"),
        "spike.reduce.ms": ms("spike.reduce"),
        "spike.full_measure.ms": ms("spike.full_measure"),
        "spike.atoms_reduced": get("spike.reduce").counts.get("atoms", 0),
        "spike.atoms_full": get("spike.full_measure").counts.get("atoms", 0),
        "mc.make_stream.ms": ms("mc.make_stream"),
        "mc.gaussian_snapshots.ms": ms("mc.gaussian_snapshots"),
        "mc.scm_eigenvalues.self_ms": self_ms("mc.scm_eigenvalues"),
        "linalg.hermitian_eigenvalues.calls": get("linalg.hermitian_eigenvalues").calls,
        "linalg.hermitian_eigenvalues.ms": ms("linalg.hermitian_eigenvalues"),
        "linalg.sqrt_psd.ms": ms("linalg.sqrt_psd"),
        "mc.gemm_gflop": flop / 1e9,
        "mc.gemm_gflop_per_s": ratio(flop, scm.self_ns),
        "mc.gemm_mflop_per_trial": ratio(flop / 1e6, scm.calls),
        "mc.gemm_mbyte_per_trial": ratio(byte / 1e6, scm.calls),
        "mc.gemm_flop_per_byte": ratio(flop, byte),
        "mc.trials_per_s": ratio(scm.calls, get("mc.run_mc").ns / 1e9),
        "mc.run_mc.wall_ms": ms("mc.run_mc"),
        "mc.busy_ms": busy_ms,
        "mc.workers": workers,
        "mc.run_mc.self_ms": self_ms("mc.run_mc"),
        "mc.speedup_vs_1thread": speedup,
        "report.compare.ms": ms("report.compare"),
        "report.l1_vs_mc": max((s.counts["l1"] for s in compares if s.counts), default=0.0),
        "report.pooled_count": sum(s.counts.get("pooled", 0) for s in compares),
        "trace.overhead_frac": overhead,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result record."""
    ledger = Ledger()
    setup: list[float] = []

    def sample_setup(share: float) -> None:
        """Keep the set-up samples level with the share of the run gone by,
        so that they meet the same spells of the machine as the passes."""
        due = min(w.setup_repeats, math.ceil(w.setup_repeats * share))
        if due > len(setup):
            setup.extend(setup_samples(w, seed, due - len(setup)))

    if not trace:
        setup_samples(w, seed, 1)  # one unrecorded probe first
    warm_up(w, seed)
    plain, with_spans, spans = run_passes(
        w, seed, seconds, ledger, traced=trace, after_round=None if trace else sample_setup
    )
    rss_mb = peak_rss_mb()
    if not trace:
        sample_setup(1.0)
    merged = checks.run_checks(w, seed, plain[-1], ledger)
    if trace:
        speedup = 0.0
        if plain[0].mc_trials:
            mc_s = statistics.median(p.mc_s for p in plain)
            speedup = single_thread_mc_s(w, seed, ledger) / mc_s
        metrics = per_layer(spans, plain, with_spans, speedup)
        specs = PER_LAYER
    else:
        metrics = end_to_end(plain, merged, statistics.median(setup), rss_mb, ledger)
        specs = END_TO_END
    return {
        "workload": w.name,
        "trace": int(trace),
        "provenance": provenance(seed),
        "setup_s": setup,
        "passes": [
            {"traced": traced, "wall_s": p.wall_s, "predict_s": p.predict_s, "mc_s": p.mc_s}
            for traced, passes in ((False, plain), (True, with_spans))
            for p in passes
        ],
        "failures": ledger.failures,
        "spans": spans,
        "summary": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": specs[k][0]} for k in specs},
        },
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Run one isoedf benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans:
        tracing.write_spans(spans, RESULTS / f"{stem}.spans.jsonl")

    summary = result["summary"]
    print("# provenance " + json.dumps(result["provenance"]))
    for message in result["failures"]:
        print("# FAILED " + message)
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(summary))
    return 0
