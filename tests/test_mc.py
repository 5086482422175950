import numpy as np
import pytest

from isoedf import (
    ArrayNoiseConfig,
    McConfig,
    compare,
    density_curve,
    full_measure,
    FmcProblem,
    gaussian_snapshots,
    make_stream,
    run_mc,
    scm_eigenvalues,
    sqrt_psd,
    build_ecm,
    default_grid,
)


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

    def test_matches_the_complex_exp_form(self):
        # radius * exp(2 pi i u2), the form the cos/sin kernel replaces
        for trial in range(4):
            stream = make_stream(17, trial)
            u1, u2 = stream.random((51, 204)), stream.random((51, 204))
            expected = np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)
            got = gaussian_snapshots(51, 204, make_stream(17, trial))
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double"
    )
    def test_phase_within_one_and_a_half_ulp_of_a_longdouble_reference(self):
        # g / radius against cos and sin of 2 pi u2 in extended precision; the
        # full-range double angle 2 pi u2 alone is off by up to 6.9e-16
        two_pi = 2 * np.arccos(np.longdouble(-1))
        worst = 0.0
        for trial in range(20):
            stream = make_stream(23, trial)
            u1, u2 = stream.random((51, 204)), stream.random((51, 204))
            radius = np.sqrt(-np.log1p(-u1)).astype(np.longdouble)
            phase = two_pi * u2.astype(np.longdouble)
            got = gaussian_snapshots(51, 204, make_stream(23, trial))
            for part, ref in ((got.real, np.cos(phase)), (got.imag, np.sin(phase))):
                worst = max(worst, float(np.max(np.abs(part.astype(np.longdouble) / radius - ref))))
        assert worst <= 3.3e-16

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            gaussian_snapshots(0, 4, make_stream(0, 0))


class TestScmEigenvalues:
    def test_white_noise_consistency(self):
        vals = scm_eigenvalues(np.eye(4), 10_000, make_stream(11, 0))
        assert np.all(vals >= 0.9) and np.all(vals <= 1.1)

    def test_rank_deficiency(self):
        vals = scm_eigenvalues(np.eye(4), 2, make_stream(3, 0))
        assert np.count_nonzero(vals > 1e-9 * vals[0]) == 2
        assert np.all(np.abs(vals[2:]) <= 1e-9 * vals[0])

    @pytest.mark.parametrize("l", [1, 17, 50, 51, 52])
    def test_matches_the_n_by_n_gram(self, l):
        # for L < N the L x L Gram gives the nonzero part and N - L exact zeros
        n = 51
        half = sqrt_psd(build_ecm(ArrayNoiseConfig(n=n, zeta=0.5)))
        g = gaussian_snapshots(n, l, make_stream(8, l))
        x = half @ g
        expected = np.linalg.eigvalsh(x @ x.conj().T / l)[::-1]
        got = scm_eigenvalues(half, l, make_stream(8, l))
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * expected[0])
        assert np.all(got[min(l, n) :] == 0.0)

    def test_rejects_complex_sigma_half(self):
        with pytest.raises(ValueError):
            scm_eigenvalues(np.eye(4, dtype=complex), 8, make_stream(0, 0))

    def test_mean_eigenvalue_matches_unit_trace(self):
        total = 0.0
        trials = 200
        for trial in range(trials):
            vals = scm_eigenvalues(np.eye(8), 16, make_stream(42, trial))
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

    def test_identical_config_identical_result(self):
        cfg = McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=16, trials=5, seed=9)
        a, b = run_mc(cfg), run_mc(cfg)
        np.testing.assert_array_equal(a.pooled, b.pooled)

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=0, trials=1)
        with pytest.raises(ValueError):
            McConfig(cfg=ArrayNoiseConfig(n=8, zeta=0.5), snapshots=4, trials=-1)

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


def full_measure_from51(cfg51):
    from isoedf import ensemble_spectrum

    return full_measure(ensemble_spectrum(cfg51))


class TestSqrtConsistency:
    def test_colored_mean_covariance(self):
        # E[(1/L) X X^H] = Sigma: check the trace across a few trials
        cfg = ArrayNoiseConfig(n=8, zeta=0.5)
        half = sqrt_psd(build_ecm(cfg))
        total = 0.0
        for trial in range(100):
            total += scm_eigenvalues(half, 32, make_stream(17, trial)).sum()
        assert total / 100 == pytest.approx(8.0, abs=0.25)
