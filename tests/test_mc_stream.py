"""The in-place Monte Carlo kernels against allocating ones.

`oracle_gaussian_snapshots` is the earlier body of `gaussian_snapshots`,
copied unchanged, and `oracle_scm_eigenvalues` a Bartlett trial written
plainly: a fresh array for every step.  The reused-workspace kernels have to
give the same bits trial for trial, for L above, at and below N and for any
worker count.
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
from isoedf.mc import SnapshotWorkspace, TrialWorkspace

_QUARTER_TURNS = np.array([1, 1j, -1, -1j])  # i**q


def oracle_gaussian_snapshots(n: int, l: int, stream: np.random.Generator) -> np.ndarray:
    if n < 1 or l < 1:
        raise ValueError("matrix dimensions must be positive")
    u1 = stream.random((n, l))
    u2 = stream.random((n, l))
    radius = np.sqrt(-np.log1p(-u1))  # 1 - u1 lies in (0, 1]
    quarters = np.rint(4 * u2)
    sine = np.sin(2 * np.pi * (u2 - 0.25 * quarters))  # u2 - q/4 is exact
    g = np.empty((n, l), dtype=complex)
    np.multiply(radius, np.sqrt((1 - sine) * (1 + sine)), out=g.real)
    np.multiply(radius, sine, out=g.imag)
    g *= _QUARTER_TURNS.take(quarters.astype(np.intp), mode="wrap")
    return g


def oracle_scm_eigenvalues(sigma_half: np.ndarray, l: int, stream: np.random.Generator) -> np.ndarray:
    if np.iscomplexobj(sigma_half):
        raise ValueError("sigma_half must be real")
    n = sigma_half.shape[0]
    k = min(n, l)
    t = np.zeros((n, k), dtype=complex)
    below = np.tril_indices(n, -1, k)
    t[below] = oracle_gaussian_snapshots(1, len(below[0]), stream)[0]
    t[np.arange(k), np.arange(k)] = np.sqrt(stream.standard_gamma(l - np.arange(k, dtype=float)))
    x = (sigma_half @ t.view(float)).view(complex)
    if l >= n:
        return hermitian_eigenvalues((x @ x.conj().T) / l)
    vals = hermitian_eigenvalues((x.conj().T @ x) / l)
    return np.sort(np.concatenate([vals, np.zeros(n - l)]))[::-1]


# 7 trials over 3 workers split 2 / 2 / 3, so each workspace serves several trials
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
    assert np.array_equal(emp.per_trial, expected)


def test_snapshots_in_a_reused_workspace_match_the_allocating_kernel():
    work = SnapshotWorkspace(51, 204)
    for trial in range(3):
        got = gaussian_snapshots(51, 204, make_stream(4, trial), work=work)
        assert got is work.g
        assert np.array_equal(got, oracle_gaussian_snapshots(51, 204, make_stream(4, trial)))


def test_calls_without_a_workspace_return_unshared_arrays():
    a = gaussian_snapshots(16, 8, make_stream(5, 0))
    b = gaussian_snapshots(16, 8, make_stream(5, 1))
    assert not np.shares_memory(a, b)
    vals_a = scm_eigenvalues(np.eye(16), 8, make_stream(5, 0))
    vals_b = scm_eigenvalues(np.eye(16), 8, make_stream(5, 1))
    assert not np.shares_memory(vals_a, vals_b)


def test_eigenvalues_do_not_alias_the_workspace():
    work = TrialWorkspace(8, 16)
    first = scm_eigenvalues(np.eye(8), 16, make_stream(6, 0), work=work)
    kept = first.copy()
    scm_eigenvalues(np.eye(8), 16, make_stream(6, 1), work=work)
    assert np.array_equal(first, kept)


def test_workspace_of_another_shape_is_rejected():
    with pytest.raises(ValueError, match="workspace"):
        gaussian_snapshots(16, 8, make_stream(0, 0), work=SnapshotWorkspace(16, 9))
    with pytest.raises(ValueError, match="workspace"):
        scm_eigenvalues(np.eye(4), 8, make_stream(0, 0), work=TrialWorkspace(5, 8))
