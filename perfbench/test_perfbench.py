"""Tests of the benchmark itself: metric tables, checks, spans and a smoke pass."""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import run

isoedf = run.bootstrap()

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("section,table", [("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)])
def test_metric_tables_match_benchmark_json(section, table):
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
    assert len(listed) == len(SPEC[section])
    assert listed == table
    assert all(better in ("lower", "higher") for _, better in table.values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def tiny(w):
    """The workload's scenarios at smoke-test sizes; 200 grid points keep the
    c = 1 model within the KS check, 64 would not."""
    return dataclasses.replace(
        w,
        trials=min(w.trials, 4),
        check_trials=min(w.check_trials, 4),
        points=200,
        setup_repeats=2,
    )


# The traced smoke pass of model_sweep is left out: it only repeats the
# untraced one with the recorder installed, at twice the cost.
@pytest.mark.parametrize(
    "name,trace",
    [(name, False) for name in WORKLOADS] + [("mc_n51", True)],
)
def test_smoke_pass(name, trace):
    result = bench.run(tiny(WORKLOADS[name]), seed=3, seconds=0, trace=trace)
    summary = result["summary"]
    assert summary["correct"], result["failures"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(summary["metrics"]) == list(table)
    for metric, value in summary["metrics"].items():
        assert value["unit"] == table[metric][0]
        assert np.isfinite(value["value"])
    json.dumps(summary)


def _single_atom(c, points=200):
    problem = isoedf.FmcProblem(isoedf.AtomicMeasure(((1.0, 1.0),), "full"), c)
    grid = isoedf.default_grid(problem, points)
    return isoedf.density_curve(problem, grid).values, grid


@pytest.mark.parametrize("c", [0.25, 1.5])
def test_corrupted_density_fails_mp_check(c):
    values, grid = _single_atom(c)
    assert checks.mp_error(values, grid, c) <= checks.MP_TOL
    assert checks.mp_error(values * 1.1, grid, c) > checks.MP_TOL


def test_permuted_trial_fails_layout_check():
    emp = isoedf.run_mc(isoedf.McConfig(isoedf.ArrayNoiseConfig(12), 24, 10, seed=5))
    assert checks.layout_matches(emp, 12, 24, 5)
    order = np.arange(10)
    order[[2, 3]] = order[[3, 2]]
    permuted = dataclasses.replace(emp, per_trial=emp.per_trial[order])
    assert not checks.layout_matches(permuted, 12, 24, 5)


def test_spans_nest_across_threads_and_self_times_are_nonnegative(monkeypatch):
    monkeypatch.setenv(bench.THREADS_ENV, "2")
    tracer = tracing.Tracer()
    with tracer.installed():
        isoedf.run_mc(isoedf.McConfig(isoedf.ArrayNoiseConfig(16), 32, 6, seed=1))
        isoedf.predict_edf(isoedf.ArrayNoiseConfig(16), 0.5, points=64)
    assert not hasattr(isoedf.mc.scm_eigenvalues, "__wrapped__")
    spans = tracer.spans
    own = tracing.self_ns(spans)
    assert all(v >= 0 for v in own.values())
    (run_mc,) = [s for s in spans if s.name == "mc.run_mc"]
    trials = [s for s in spans if s.name == "mc.scm_eigenvalues"]
    assert len(trials) == 6
    assert all(s.parent == run_mc.sid for s in trials)
    assert {s.thread for s in trials} - {threading.get_ident()}
    busy_ms, workers = tracing.run_mc_orchestration(spans)
    assert workers >= 1 and busy_ms > 0


def test_covered_ns_counts_overlaps_once():
    assert tracing.covered_ns([(0, 10), (5, 20), (30, 40)], 0, 35) == 25


def test_gemm_counts_are_computed_from_n_and_l():
    counts = tracing._gemm_counts((np.zeros((4, 4)), 6, None), {}, None)
    assert counts == {"gemm_flop": 16 * 16 * 6, "gemm_byte": 24 * 16 + 80 * 24}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc_n51", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
