import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import isoedf.ecm
from isoedf import (
    ArrayNoiseConfig,
    EnsembleSpectrum,
    bessel_j0,
    build_ecm,
    ensemble_spectrum,
    predict_edf,
    sym_eigenvalues,
)
from test_specfun import j0_series


def traced_peak(f):
    """f() and the peak bytes that tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_alpha(self):
        assert ArrayNoiseConfig(n=4, zeta=0.5).alpha == pytest.approx(math.pi)

    @pytest.mark.parametrize(
        "kwargs", [{"n": 1}, {"n": 2, "zeta": 0.0}, {"n": 2, "zeta": -1.0}, {"n": 12.0}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArrayNoiseConfig(**kwargs)

    @pytest.mark.parametrize("zeta", [math.inf, math.nan, 1e308])
    def test_rejects_non_finite_alpha(self, zeta):
        # 2 pi 1e308 overflows to inf, so a finite zeta can still be refused
        with pytest.raises(ValueError, match="finite"):
            ArrayNoiseConfig(n=12, zeta=zeta)

    @pytest.mark.parametrize(
        "zeta,expected", [(np.array(0.5), 0.5), (np.float64(0.5), 0.5), (1, 1.0)]
    )
    def test_zeta_is_kept_as_a_float(self, zeta, expected):
        # the config keys the spectrum cache, so it must hash like the float one
        cfg = ArrayNoiseConfig(n=51, zeta=zeta)
        assert type(cfg.zeta) is float
        assert cfg == ArrayNoiseConfig(n=51, zeta=expected)
        assert hash(cfg) == hash(ArrayNoiseConfig(n=51, zeta=expected))

    def test_rejects_non_scalar_zeta(self):
        with pytest.raises(ValueError, match="scalar"):
            ArrayNoiseConfig(n=51, zeta=np.array([0.5]))


class TestBuildEcm:
    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0])
    def test_unit_diagonal(self, zeta):
        sigma = build_ecm(ArrayNoiseConfig(n=3, zeta=zeta))
        np.testing.assert_array_equal(np.diag(sigma), np.ones(3))

    def test_half_wavelength_neighbour(self):
        sigma = build_ecm(ArrayNoiseConfig(n=3, zeta=0.5))
        assert sigma[0, 1] == pytest.approx(j0_series(math.pi), abs=1e-9)
        assert sigma[0, 1] == pytest.approx(-0.30424, abs=1e-5)

    def test_toeplitz_structure(self):
        sigma = build_ecm(ArrayNoiseConfig(n=7, zeta=0.3))
        for p in range(7):
            for q in range(7):
                assert sigma[p, q] == sigma[0, abs(p - q)]
        np.testing.assert_array_equal(sigma, sigma.T)


    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0])
    def test_first_row_matches_scalar_j0(self, zeta):
        cfg = ArrayNoiseConfig(n=1024, zeta=zeta)
        row = build_ecm(cfg)[0]
        scalar = np.array([bessel_j0(cfg.alpha * k) for k in range(cfg.n)])
        np.testing.assert_allclose(row, scalar, rtol=0, atol=1e-15)


class TestEnsembleSpectrum:
    def test_reference_extremes(self, spectrum51):
        # half-wavelength N = 51 landmarks: background level 2/pi,
        # three well separated top eigenvalues
        assert spectrum51.gamma_n == pytest.approx(2 / math.pi, abs=1e-3)
        assert spectrum51.values[0] == pytest.approx(6.11, abs=0.01)
        assert spectrum51.values[1] == pytest.approx(2.74, abs=0.01)
        assert spectrum51.values[2] == pytest.approx(2.12, abs=0.01)

    @pytest.mark.parametrize("n", [16, 51])
    def test_trace(self, n):
        spectrum = ensemble_spectrum(ArrayNoiseConfig(n=n, zeta=0.5))
        assert abs(spectrum.values.sum() - n) <= 1e-8 * n

    def test_bulk_clusters_near_background(self, spectrum51):
        inside = (spectrum51.values >= 0.6) & (spectrum51.values <= 1.6)
        assert inside.mean() >= 0.8

    def test_descending(self, spectrum51):
        assert np.all(np.diff(spectrum51.values) <= 0)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0])
    def test_psd_up_to_roundoff(self, n, zeta):
        vals = sym_eigenvalues(build_ecm(ArrayNoiseConfig(n=n, zeta=zeta)))
        assert vals[-1] >= -1e-10 * vals[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 51, 256, 257])
    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0])
    def test_split_matches_dense_eigensolve(self, n, zeta):
        # odd n borders the even half-size block with the middle row
        cfg = ArrayNoiseConfig(n=n, zeta=zeta)
        dense = sym_eigenvalues(build_ecm(cfg))
        got = ensemble_spectrum(cfg).values
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * dense[0])

    @pytest.mark.parametrize("n", [2, 3, 51, 52, 256, 257, 1024])
    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0])
    def test_same_bits_as_the_blocks_formed_whole(self, n, zeta):
        # the even block a + jb, bordered by np.block for odd n, and a - jb
        # formed while it is still held
        cfg = ArrayNoiseConfig(n=n, zeta=zeta)
        t, m = build_ecm(cfg), n // 2
        a, jb = t[:m, :m], t[n - m :, :m][::-1]
        even = a + jb
        if n % 2:
            border = math.sqrt(2) * t[:m, m : m + 1]
            even = np.block([[even, border], [border.T, t[m : m + 1, m : m + 1]]])
        values = np.concatenate([sym_eigenvalues(even), sym_eigenvalues(a - jb)])
        expected = EnsembleSpectrum(values=np.sort(values)[::-1]).values
        ensemble_spectrum.cache_clear()
        assert np.array_equal(ensemble_spectrum(cfg).values, expected)

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_holds_one_half_block_at_a_time(self, n):
        # LAPACK's copy of a block is allocated outside tracemalloc's view, so
        # the even block (2 MiB here) is all it should see: holding it while
        # a - jb is formed read 4.34 MiB at n = 1024 and 4.35 MiB at 1025,
        # against 2.34 MiB for one half-block at a time
        ensemble_spectrum.cache_clear()
        _, peak = traced_peak(lambda: ensemble_spectrum(ArrayNoiseConfig(n)))
        assert peak < 1.5 * 8 * (n - n // 2) ** 2

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            EnsembleSpectrum(values=np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        # classify and full_measure read values[-1] and values[0] on this guarantee
        with pytest.raises(ValueError):
            EnsembleSpectrum(values=np.array([]))

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan, -5.0]])
    def test_rejects_non_finite_values(self, values):
        # the first two used to be accepted, and classify read [nan, 1] as one atom at 1
        with pytest.raises(ValueError, match="finite"):
            EnsembleSpectrum(values=np.array(values))

    def test_rejects_a_negative_eigenvalue_beyond_round_off(self):
        # with no positive eigenvalue the check used to be skipped, and both
        # of the last two were clipped to [0, 0]
        for values in ([1.0, -1e-9], [0.0, -1.0], [-1.0, -2.0]):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                EnsembleSpectrum(values=np.array(values))
        # round-off below 1e-10 of the largest is clipped to zero
        assert EnsembleSpectrum(values=np.array([1.0, -1e-11])).values.tolist() == [1.0, 0.0]

    def test_stores_only_the_values(self):
        spectrum = EnsembleSpectrum(values=[3.0, 2.0, 1.0])
        assert [f.name for f in dataclasses.fields(spectrum)] == ["values"]
        assert spectrum.n == 3


class TestSpectrumCache:
    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        ensemble_spectrum.cache_clear()

    def test_c_sweep_solves_each_array_once(self, monkeypatch):
        # one even and one odd half-size solve, shared by all six predictions
        calls = []

        def counted(a):
            calls.append(a.shape)
            return sym_eigenvalues(a)

        monkeypatch.setattr(isoedf.ecm, "sym_eigenvalues", counted)
        cfg = ArrayNoiseConfig(n=51)
        for c in (0.25, 1.0, 1.5):
            for mode in ("reduced", "full"):
                predict_edf(cfg, c, mode=mode, points=200)
        assert sorted(calls) == [(25, 25), (26, 26)]

    def test_equal_configs_share_one_spectrum(self):
        spectrum = ensemble_spectrum(ArrayNoiseConfig(51))
        assert ensemble_spectrum(ArrayNoiseConfig(np.int64(51), 0.5)) is spectrum
        assert ensemble_spectrum(ArrayNoiseConfig(51, 0.6)) is not spectrum

    def test_cached_spectrum_equals_a_fresh_solve(self):
        cfg = ArrayNoiseConfig(51)
        cached = ensemble_spectrum(cfg)
        ensemble_spectrum.cache_clear()
        fresh = ensemble_spectrum(cfg)
        assert fresh is not cached
        assert np.array_equal(fresh.values, cached.values)

    def test_values_are_read_only(self):
        spectrum = ensemble_spectrum(ArrayNoiseConfig(51))
        with pytest.raises(ValueError):
            spectrum.values[0] = 1

    def test_cache_is_bounded(self):
        assert ensemble_spectrum.cache_info().maxsize == isoedf.ecm.SPECTRUM_CACHE_SIZE


def _ks_two_empirical(a, b):
    a, b = np.sort(a), np.sort(b)
    xs = np.union1d(a, b)
    fa = np.searchsorted(a, xs, side="right") / len(a)
    fb = np.searchsorted(b, xs, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


class TestSzego:
    def test_spectrum_converges_to_symbol(self):
        # eigenvalues distribute like symbol samples; quantile-matched KS
        # distance should shrink as the matrix grows
        distances = {}
        for n in (64, 256):
            cfg = ArrayNoiseConfig(n=n, zeta=0.5)
            eig = sym_eigenvalues(build_ecm(cfg))
            omegas = (np.arange(n) + 0.5) / n * cfg.alpha
            symbol = 2 / np.sqrt(cfg.alpha**2 - omegas**2)  # the Szego symbol
            distances[n] = _ks_two_empirical(eig, symbol)
        assert distances[256] < distances[64]

    @pytest.mark.parametrize("n", [2, 3, 50, 51, 256, 257])
    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0])
    def test_matches_the_dense_scalar_j0_covariance(self, n, zeta):
        # the half-size blocks come straight off the first row; check them
        # against the full matrix built entry by entry from scalar J0 calls
        cfg = ArrayNoiseConfig(n=n, zeta=zeta)
        first = [bessel_j0(cfg.alpha * k) for k in range(n)]
        dense = np.array([[first[abs(p - q)] for q in range(n)] for p in range(n)])
        expected = sym_eigenvalues(dense)
        got = ensemble_spectrum(cfg).values
        np.testing.assert_allclose(got, np.clip(expected, 0, None), rtol=1e-13, atol=1e-13 * expected[0])
