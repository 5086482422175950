"""The Monte Carlo trial against allocating Bartlett oracles.

`bartlett_factor` draws the N x min(N, L) factor T from the documented
draw order: the normals below its diagonal row by row, then the gammas of
its diagonal.  `oracle_scm_eigenvalues` is the documented trial on it:
T's rows scaled by `scales`, its squared singular values over L, and the
N - L exact zeros appended for L < N.  `run_mc` has to give its bits
trial for trial, for every L and any worker count.

`dense_scm_eigenvalues` colours T by the dense square root A of the
covariance and takes the eigenvalues of the N x N Gram (1/L) (A T)(A T)^H.
That is the same law, which `test_run_mc_draws_the_law_of_the_dense_colouring`
checks.
"""

import math

import numpy as np
import pytest

from isoedf import (
    ArrayNoiseConfig,
    McConfig,
    build_ecm,
    ensemble_spectrum,
    gaussian_snapshots,
    hermitian_eigenvalues,
    make_stream,
    run_mc,
    scm_eigenvalues,
    sqrt_psd,
)


def bartlett_factor(n: int, l: int, stream: np.random.Generator) -> np.ndarray:
    k = min(n, l)
    t = np.zeros((n, k), dtype=complex)
    for i in range(1, n):  # row i has min(i, k) entries below the diagonal
        t[i, : min(i, k)] = stream.standard_normal(2 * min(i, k)).view(complex) * np.sqrt(0.5)
    t[np.arange(k), np.arange(k)] = np.sqrt(stream.standard_gamma(l - np.arange(k, dtype=float)))
    return t


def oracle_scm_eigenvalues(scales: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    n = len(scales)
    t = bartlett_factor(n, l, stream) * scales[:, None]
    vals = np.zeros(n)
    vals[: min(n, l)] = np.linalg.svd(t, compute_uv=False) ** 2 / l
    return vals


def dense_scm_eigenvalues(sigma_half: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    x = sigma_half @ bartlett_factor(sigma_half.shape[0], l, stream)
    return hermitian_eigenvalues((x @ x.conj().T) / l)


def scales_of(cfg: ArrayNoiseConfig) -> np.ndarray:
    return np.sqrt(ensemble_spectrum(cfg).values)


# 7 trials over 3 workers split 2 / 2 / 3, so each worker re-keys its Philox
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n,l", [(51, 204), (51, 51), (51, 34), (12, 100), (64, 16)])
def test_run_mc_matches_the_allocating_kernel(monkeypatch, n, l, seed, threads):
    monkeypatch.setenv("ISO_EDF_THREADS", threads)
    cfg = ArrayNoiseConfig(n=n, zeta=0.5)
    emp = run_mc(McConfig(cfg=cfg, snapshots=l, trials=7, seed=seed))
    scales = scales_of(cfg)
    expected = np.array(
        [oracle_scm_eigenvalues(scales, l, make_stream(seed, trial)) for trial in range(7)]
    )
    assert np.array_equal(emp.per_trial, expected)
    assert np.all(emp.per_trial[:, l:] == 0.0)


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| of two empirical CDFs, attained at one of the pooled values."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    f_a = np.searchsorted(a, at, side="right") / len(a)
    f_b = np.searchsorted(b, at, side="right") / len(b)
    return float(np.max(np.abs(f_a - f_b)))


def dkw(count: int, alpha: float = 1e-6) -> float:
    """The DKW radius of an ECDF of `count` values at false-alarm rate alpha."""
    return math.sqrt(math.log(2 / alpha) / (2 * count))


def pooled_trials(trial, colouring, l: int, trials: int, seed: int) -> np.ndarray:
    """The eigenvalues of `trials` trials of trial(colouring, l, stream), pooled."""
    return np.concatenate([trial(colouring, l, make_stream(seed, t)) for t in range(trials)])


@pytest.mark.parametrize("l", [8, 48, 204])
@pytest.mark.parametrize("n", [12, 51])
def test_run_mc_draws_the_law_of_the_dense_colouring(n, l):
    # independent pools (seeds 1 and 2), each within its DKW radius of the
    # common law, so their KS distance is below the sum of the two radii.
    # The pooled eigenvalues of a trial are not independent, but they spread
    # less than independent values would, which makes the bound conservative
    cfg = ArrayNoiseConfig(n=n)
    got = run_mc(McConfig(cfg, l, trials=300, seed=1)).pooled
    dense = pooled_trials(dense_scm_eigenvalues, sqrt_psd(build_ecm(cfg)), l, 300, seed=2)
    dense[dense < 1e-9 * dense.max()] = 0.0  # run_mc's exact zeros
    assert two_sample_ks(got, dense) <= dkw(len(got)) + dkw(len(dense))


@pytest.mark.parametrize("n", [12, 51])
def test_the_law_test_tells_a_white_colouring_apart(n):
    # at L = 204 the sample spectrum is near the population's, and scales of
    # ones draw the white law, far outside the bound above
    cfg = ArrayNoiseConfig(n=n)
    got = run_mc(McConfig(cfg, 204, trials=300, seed=1)).pooled
    white = pooled_trials(oracle_scm_eigenvalues, np.ones(n), 204, 300, seed=2)
    assert two_sample_ks(got, white) > 2 * (dkw(len(got)) + dkw(len(white)))


def test_calls_without_a_workspace_return_unshared_arrays():
    a = gaussian_snapshots(16, 8, make_stream(5, 0))
    b = gaussian_snapshots(16, 8, make_stream(5, 1))
    assert not np.shares_memory(a, b)
    vals_a = scm_eigenvalues(np.ones(16), 8, make_stream(5, 0))
    vals_b = scm_eigenvalues(np.ones(16), 8, make_stream(5, 1))
    assert not np.shares_memory(vals_a, vals_b)
