import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import isoedf.mc
from isoedf import (
    ArrayNoiseConfig,
    EmpiricalSpectrum,
    McConfig,
    compare,
    density_curve,
    full_measure,
    FmcProblem,
    gaussian_snapshots,
    hermitian_eigenvalues,
    make_stream,
    run_mc,
    scm_eigenvalues,
    build_ecm,
    default_grid,
    ensemble_spectrum,
)
from test_mc_stream import bartlett_factor, scales_of

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, threads: str = "1") -> str:
    """Stdout of `code` run by a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC), ISO_EDF_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestGaussianSnapshots:
    def test_moments(self):
        g = gaussian_snapshots(1000, 1000, make_stream(123, 0))
        assert abs(g.mean()) <= 5e-3
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) <= 5e-3

    def test_component_variances(self):
        g = gaussian_snapshots(700, 700, make_stream(9, 1))
        assert np.var(g.real) == pytest.approx(0.5, abs=5e-3)
        assert np.var(g.imag) == pytest.approx(0.5, abs=5e-3)

    def test_stream_determinism(self):
        a = gaussian_snapshots(16, 8, make_stream(5, 9))
        b = gaussian_snapshots(16, 8, make_stream(5, 9))
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct_by_trial(self):
        a = gaussian_snapshots(16, 8, make_stream(5, 0))
        b = gaussian_snapshots(16, 8, make_stream(5, 1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,trial", [(-1, 0), (2**64, 0), (1.5, 0), (0, 1.5)])
    def test_stream_rejects_keys_outside_the_philox_range(self, seed, trial):
        # the key used to wrap mod 2**64: -1 gave seed 2**64 - 1's stream, 1.5 trial 1's
        with pytest.raises(ValueError):
            make_stream(seed, trial)

    def test_numpy_integer_keys_give_the_python_int_stream(self):
        a = make_stream(np.uint64(5), np.int64(3)).random(4)
        np.testing.assert_array_equal(a, make_stream(5, 3).random(4))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            gaussian_snapshots(0, 4, make_stream(0, 0))


class TestScmEigenvalues:
    def test_white_noise_consistency(self):
        vals = scm_eigenvalues(np.ones(4), 10_000, make_stream(11, 0))
        assert np.all(vals >= 0.9) and np.all(vals <= 1.1)

    def test_rank_deficiency(self):
        vals = scm_eigenvalues(np.ones(4), 2, make_stream(3, 0))
        assert np.count_nonzero(vals > 1e-9 * vals[0]) == 2
        assert np.all(vals[2:] == 0.0)

    @pytest.mark.parametrize("l", [1, 17, 50, 51, 52, 204])
    def test_matches_the_n_by_n_gram(self, l):
        # the squared singular values of the scaled factor are the eigenvalues
        # of the N x N Gram of the same factor; for L < N its N - L round-off
        # eigenvalues are the trial's exact zeros
        n = 51
        scales = scales_of(ArrayNoiseConfig(n=n, zeta=0.5))
        got = scm_eigenvalues(scales, l, make_stream(8, l))
        assert got.shape == (n,)
        x = scales[:, None] * bartlett_factor(n, l, make_stream(8, l))
        gram = hermitian_eigenvalues((x @ x.conj().T) / l)
        np.testing.assert_allclose(got, gram, rtol=0, atol=1e-12 * gram.max())
        assert np.all(got[l:] == 0.0)

    def test_rejects_complex_scales(self):
        with pytest.raises(ValueError, match="real"):
            scm_eigenvalues(np.ones(4, dtype=complex), 8, make_stream(0, 0))

    @pytest.mark.parametrize(
        "scales",
        [np.eye(4), [1.0, np.nan], [1.0, np.inf], [1.0, -1e-300]],
        ids=["matrix", "nan", "inf", "negative"],
    )
    def test_rejects_scales_that_are_not_a_finite_nonnegative_vector(self, scales):
        # a matrix, such as a covariance square root, is not a vector of scales
        with pytest.raises(ValueError, match="scales"):
            scm_eigenvalues(scales, 8, make_stream(0, 0))

    @pytest.mark.parametrize("n,l", [(4, 0), (4, -1), (4, 2.0), (1, 8)])
    def test_rejects_bad_shape(self, n, l):
        # a 1 x 1 factor has no normals to draw
        with pytest.raises(ValueError, match="must be an integer"):
            scm_eigenvalues(np.ones(n), l, make_stream(0, 0))

    def test_a_zero_scale_gives_a_zero_eigenvalue(self):
        # up to the SVD's round-off, which EmpiricalSpectrum snaps to 0.0
        vals = scm_eigenvalues(np.array([2.0, 0.0, 1.0]), 5, make_stream(0, 0))
        assert vals[1] > 0.1 and 0 <= vals[2] <= 1e-12 * vals[0]

    @pytest.mark.parametrize("l", [48, 8])
    def test_trace_moments_match_the_wishart_law(self, l):
        # E tr S = tr Sigma and E tr S^2 = tr Sigma^2 + (tr Sigma)^2 / L, exactly
        cfg = ArrayNoiseConfig(n=12)
        sigma = build_ecm(cfg)
        per_trial = run_mc(McConfig(cfg, snapshots=l, trials=4000, seed=4)).per_trial
        for sample, exact in (
            (per_trial.sum(axis=1), np.trace(sigma)),
            ((per_trial**2).sum(axis=1), np.trace(sigma @ sigma) + np.trace(sigma) ** 2 / l),
        ):
            stderr = sample.std(ddof=1) / np.sqrt(len(sample))
            assert abs(sample.mean() - exact) <= 3 * stderr

    def test_a_billion_snapshots_give_the_population_spectrum(self):
        # a trial holds nothing of size N x L: 12 x 10^9 complex would be 192 GB
        cfg = ArrayNoiseConfig(n=12)
        emp = run_mc(McConfig(cfg, snapshots=10**9, trials=2, seed=1))
        expected = ensemble_spectrum(cfg).values
        np.testing.assert_allclose(emp.per_trial, np.tile(expected, (2, 1)), rtol=1e-3)

    def test_mean_eigenvalue_matches_unit_trace(self):
        total = 0.0
        trials = 200
        for trial in range(trials):
            vals = scm_eigenvalues(np.ones(8), 16, make_stream(42, trial))
            total += vals.mean()
        assert total / trials == pytest.approx(1.0, abs=0.03)


class TestRunMc:
    def test_pooling_structure(self):
        cfg = McConfig(
            cfg=ArrayNoiseConfig(n=51, zeta=0.5), snapshots=204, trials=30, seed=1
        )
        emp = run_mc(cfg)
        assert len(emp.pooled) == 51 * 30
        assert emp.zero_count == 0
        assert np.all(np.diff(emp.pooled) >= 0)
        assert emp.per_trial.shape == (30, 51)
        # histogram area equals the nonzero fraction
        area = np.sum(emp.hist_heights * np.diff(emp.hist_edges))
        assert area == pytest.approx(1.0 - emp.zero_fraction, abs=1e-12)
        assert emp.ecdf(emp.pooled[-1]) == 1.0

    def test_rank_law_snapshot_deficient(self):
        cfg = McConfig(cfg=ArrayNoiseConfig(n=51, zeta=0.5), snapshots=34, trials=60, seed=2)
        emp = run_mc(cfg)
        assert emp.zero_count == 60 * (51 - 34)
        assert emp.zero_fraction == pytest.approx(1 / 3, abs=1e-12)
        assert abs(emp.zero_fraction - (1 - 1 / cfg.c)) <= 2e-2
        assert np.all(emp.pooled[: emp.zero_count] == 0.0)

    def test_reproducible_across_worker_counts(self, monkeypatch):
        cfg = McConfig(cfg=ArrayNoiseConfig(n=16, zeta=0.5), snapshots=8, trials=12, seed=3)
        monkeypatch.setenv("ISO_EDF_THREADS", "1")
        serial = run_mc(cfg)
        monkeypatch.setenv("ISO_EDF_THREADS", "3")
        threaded = run_mc(cfg)
        np.testing.assert_array_equal(serial.pooled, threaded.pooled)
        np.testing.assert_array_equal(serial.per_trial, threaded.per_trial)
        np.testing.assert_array_equal(serial.hist_heights, threaded.hist_heights)

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_a_failing_trial_raises_its_error_and_leaves_no_thread(self, monkeypatch, threads):
        failure = ArithmeticError("trial 4 failed")

        def scm_failing_on_trial_4(scales, l, stream):
            if stream.bit_generator.state["state"]["key"][1] == 4:
                raise failure
            return scm_eigenvalues(scales, l, stream)

        monkeypatch.setattr(isoedf.mc, "scm_eigenvalues", scm_failing_on_trial_4)
        monkeypatch.setenv("ISO_EDF_THREADS", threads)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            run_mc(McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=16, trials=7))
        assert raised.value is failure
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads, pooled", [("1", False), ("3", True)])
    def test_the_thread_pool_is_imported_only_for_more_than_one_worker(self, threads, pooled):
        # concurrent.futures loads logging too: ~0.6 MB of RSS that a
        # one-thread run, the default, never needs
        out = run_fresh(
            "import sys, isoedf\n"
            "print('concurrent.futures' in sys.modules)\n"
            "isoedf.run_mc(isoedf.McConfig(isoedf.ArrayNoiseConfig(12), 8, trials=6))\n"
            "print('concurrent.futures' in sys.modules)\n",
            threads,
        )
        assert out.split() == ["False", str(pooled)]

    @pytest.mark.parametrize("threads", ["0", "-1", "abc", "1.5", " 2", ""])
    def test_threads_must_be_a_positive_integer(self, monkeypatch, threads):
        # 0 and -1 used to mean one thread per CPU
        monkeypatch.setenv("ISO_EDF_THREADS", threads)
        cfg = McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=4, trials=2)
        with pytest.raises(ValueError, match="ISO_EDF_THREADS must be an integer in"):
            run_mc(cfg)

    def test_trial_count_is_the_per_trial_row_count(self):
        cfg = McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=16, trials=5, seed=9)
        emp = run_mc(cfg)
        assert emp.trials == 5
        assert "trials" not in [f.name for f in dataclasses.fields(emp)]
        assert dataclasses.replace(emp, per_trial=emp.per_trial[:3]).trials == 3

    def test_replacing_per_trial_rederives_the_pooled_fields(self):
        cfg = McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=16, trials=5, seed=9)
        emp = run_mc(cfg)
        part = dataclasses.replace(emp, per_trial=emp.per_trial[:3])
        assert len(part.pooled) == 3 * 8
        np.testing.assert_array_equal(part.pooled, np.sort(emp.per_trial[:3].ravel()))
        assert part.ecdf(np.inf) == 1.0 and part.bins == emp.bins
        area = np.sum(part.hist_heights * np.diff(part.hist_edges))
        assert area == pytest.approx(1 - part.zero_fraction, rel=1e-12)
        np.testing.assert_array_equal(
            run_mc(dataclasses.replace(cfg, trials=3)).pooled, part.pooled
        )

    def test_a_trial_holds_no_n_by_n_array(self):
        # the N x N covariance or its square root would be 8 MB at N = 1024;
        # the scales come from the cached spectrum
        cfg = ArrayNoiseConfig(n=1024)
        ensemble_spectrum(cfg)
        tracemalloc.start()
        try:
            run_mc(McConfig(cfg, snapshots=8, trials=1, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cfg.n**2

    def test_identical_config_identical_result(self):
        cfg = McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=16, trials=5, seed=9)
        a, b = run_mc(cfg), run_mc(cfg)
        np.testing.assert_array_equal(a.pooled, b.pooled)

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=0, trials=1)
        with pytest.raises(ValueError):
            McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=4, trials=-1)
        # integral floats used to pass here and fail later inside numpy with TypeError
        for bad in ({"snapshots": 24.0}, {"trials": 2.0}, {"bins": 75.0}):
            kwargs = {"snapshots": 24, "trials": 2, "bins": 75, **bad}
            with pytest.raises(ValueError, match=next(iter(bad))):
                McConfig(cfg=ArrayNoiseConfig(n=12, zeta=0.5), **kwargs)

    @pytest.mark.parametrize("seed", [1.5, 3.0, -1, 2**64, 2**64 + 3, "7"])
    def test_rejects_a_seed_outside_the_philox_key_range(self, seed):
        # make_stream keys by the seed mod 2**64: -1 and 2**64 - 1 gave the same trials
        with pytest.raises(ValueError, match="seed"):
            McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=4, trials=1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(3)])
    def test_accepts_integer_seeds_in_the_philox_key_range(self, seed):
        mc = McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=4, trials=1, seed=seed)
        assert mc.seed == seed

    def test_ks_decreases_with_trials(self, cfg51):
        # pooled spectra converge toward the all-atom prediction
        problem = FmcProblem(measure=full_measure_from51(cfg51), c=0.25)
        density = density_curve(problem, default_grid(problem, 1200))
        medians = []
        for trials in (50, 500, 5000):
            distances = []
            for seed in (0, 1, 2):
                emp = run_mc(
                    McConfig(cfg=cfg51, snapshots=204, trials=trials, seed=seed)
                )
                distances.append(compare(density, emp).ks)
            medians.append(sorted(distances)[1])
        assert medians[0] > medians[1] > medians[2]


_ULP = 5e-324  # the least subnormal
_TINY = float(np.finfo(float).tiny)  # the least normal


@pytest.mark.parametrize(
    "per_trial, bins",
    [
        # 1.05 x 20 = 21, so the 21 bins have the integer edges 0, 1, ..., 21 and
        # these values lie on interior edges, some of them more than once
        ([[20.0, 1.0, 2.0, 2.0, 3.0, 7.0], [5.0, 5.0, 19.0, 0.0, 0.0, 1.0]], 21),
        # one nonzero value, after a zero run
        ([[3.0, 0.0, 0.0]], 75),
        ([[3.0]], 1),
        # bins 1.05 times the least normal float wide
        ([[8 * _TINY, _TINY, 0.0], [2 * _TINY, 0.0, 3 * _TINY]], 8),
    ],
    ids=["interior-edges", "one-nonzero-after-zeros", "one-value", "near-least-normal-width"],
)
def test_histogram_counts_are_numpys(per_trial, bins):
    # a bin holds [e_i, e_i+1), the last [e_n-1, e_n]: np.histogram's rule,
    # and no value reaches the top edge 1.05 max
    emp = EmpiricalSpectrum(per_trial=per_trial, bins=bins)
    counts, _ = np.histogram(emp.pooled[emp.zero_count :], bins=emp.hist_edges)
    expected = counts / (len(emp.pooled) * np.diff(emp.hist_edges))
    np.testing.assert_array_equal(emp.hist_heights, expected)
    assert emp.hist_heights.dtype == expected.dtype
    assert np.all(np.isfinite(emp.hist_heights))


@pytest.mark.parametrize(
    "per_trial, bins",
    [
        # 1.05 x max rounds back to max for a max a few ulps above 0, and the
        # bins are one ulp wide: the heights used to overflow to inf
        ([[8 * _ULP, 2 * _ULP, 0.0], [_ULP, 0.0, 8 * _ULP]], 8),
        # a normal maximum, but too many bins for it
        ([[1e-305, 0.0]], 10**4),
        # the top edge 1.05 max overflows
        ([[1.75e308, 1.0]], 75),
    ],
    ids=["subnormal-max", "subnormal-width", "top-edge-overflows"],
)
def test_histogram_refuses_a_bin_width_that_is_not_a_normal_float(per_trial, bins):
    with pytest.raises(ValueError, match="bin width"):
        EmpiricalSpectrum(per_trial=per_trial, bins=bins)


@pytest.mark.parametrize("snapshots", [8, 4])
def test_histogram_counts_are_numpys_for_zero_runs(snapshots):
    # L < N: each trial pools N - L exact zeros, which the histogram leaves out
    emp = run_mc(McConfig(ArrayNoiseConfig(n=12, zeta=0.5), snapshots, trials=40, seed=5))
    assert emp.zero_count == 40 * (12 - snapshots)
    counts, _ = np.histogram(emp.pooled[emp.zero_count :], bins=emp.hist_edges)
    expected = counts / (len(emp.pooled) * np.diff(emp.hist_edges))
    np.testing.assert_array_equal(emp.hist_heights, expected)


def full_measure_from51(cfg51):
    from isoedf import ensemble_spectrum

    return full_measure(ensemble_spectrum(cfg51))


class TestSqrtConsistency:
    def test_colored_mean_covariance(self):
        # E[(1/L) X X^H] = Sigma: check the trace across a few trials
        cfg = ArrayNoiseConfig(n=8, zeta=0.5)
        scales = scales_of(cfg)
        total = 0.0
        for trial in range(100):
            total += scm_eigenvalues(scales, 32, make_stream(17, trial)).sum()
        assert total / 100 == pytest.approx(8.0, abs=0.25)
