"""The Monte Carlo trial against an allocating Bartlett oracle.

`oracle_scm_eigenvalues` is a Bartlett trial written from its documented
draw order: the normals below the diagonal of T row by row, then the
gammas of its diagonal.  It always solves the N x N Gram.  `run_mc` has to
give its bits trial for trial for L >= N, and the same eigenvalues with
N - L exact zeros for L < N, for any worker count.
"""

import numpy as np
import pytest

from isoedf import (
    ArrayNoiseConfig,
    McConfig,
    build_ecm,
    gaussian_snapshots,
    hermitian_eigenvalues,
    make_stream,
    run_mc,
    scm_eigenvalues,
    sqrt_psd,
)


def oracle_scm_eigenvalues(sigma_half: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    n = sigma_half.shape[0]
    k = min(n, l)
    t = np.zeros((n, k), dtype=complex)
    for i in range(1, n):  # row i has min(i, k) entries below the diagonal
        t[i, : min(i, k)] = stream.standard_normal(2 * min(i, k)).view(complex) * np.sqrt(0.5)
    t[np.arange(k), np.arange(k)] = np.sqrt(stream.standard_gamma(l - np.arange(k, dtype=float)))
    x = (sigma_half @ t.view(float)).view(complex)
    return hermitian_eigenvalues((x @ x.conj().T) / l)


def assert_matches_the_oracle(got: np.ndarray, expected: np.ndarray, l: int) -> None:
    n = got.shape[-1]
    if l >= n:
        assert np.array_equal(got, expected)
    else:  # the L x L Gram: the same eigenvalues and N - L exact zeros
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * expected.max())
        assert np.all(got[..., l:] == 0.0)


# 7 trials over 3 workers split 2 / 2 / 3, so each worker re-keys its Philox
@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n,l", [(51, 204), (51, 51), (51, 34), (12, 100), (64, 16)])
def test_run_mc_matches_the_allocating_kernel(monkeypatch, n, l, seed, threads):
    monkeypatch.setenv("ISO_EDF_THREADS", threads)
    cfg = ArrayNoiseConfig(n=n, zeta=0.5)
    emp = run_mc(McConfig(cfg=cfg, snapshots=l, trials=7, seed=seed))
    half = sqrt_psd(build_ecm(cfg))
    expected = np.array(
        [oracle_scm_eigenvalues(half, l, make_stream(seed, trial)) for trial in range(7)]
    )
    assert_matches_the_oracle(emp.per_trial, expected, l)


def test_calls_without_a_workspace_return_unshared_arrays():
    a = gaussian_snapshots(16, 8, make_stream(5, 0))
    b = gaussian_snapshots(16, 8, make_stream(5, 1))
    assert not np.shares_memory(a, b)
    vals_a = scm_eigenvalues(np.eye(16), 8, make_stream(5, 0))
    vals_b = scm_eigenvalues(np.eye(16), 8, make_stream(5, 1))
    assert not np.shares_memory(vals_a, vals_b)

