"""The model CDF F in closed form from the solved roots, against independent references."""

import math

import numpy as np
import pytest

import isoedf.rmt
from isoedf import (
    AtomicMeasure,
    ArrayNoiseConfig,
    FmcProblem,
    McConfig,
    MpParams,
    compare,
    default_grid,
    density_curve,
    ensemble_spectrum,
    full_measure,
    mp_density,
    predict_edf,
    run_mc,
)
from test_ecm import traced_peak


def unit_atom(c):
    return FmcProblem(measure=AtomicMeasure(atoms=((1.0, 1.0),), kind="full"), c=c)


def trapezoid_cdf(d):
    """Zero atom from x = 0 on, plus F at the first node, plus the trapezoid of the density."""
    steps = 0.5 * (d.values[1:] + d.values[:-1]) * np.diff(d.grid)
    cont = np.concatenate([[0.0], np.cumsum(steps)])
    return d.zero_mass * (d.grid >= 0) + d.cdf[0] + cont


@pytest.mark.parametrize("c", [0.25, 1.5, 1e6])
def test_cdf_below_zero_leaves_out_the_zero_atom(c):
    # (a/pi) atan2(eta, x) alone tends to a for x < 0: F(-1) read 1/3 at c = 1.5
    p = unit_atom(c)
    d = density_curve(p, np.linspace(-1.0, default_grid(p, 64)[-1], 44_000))
    assert abs(d.cdf[0]) <= 1e-6
    np.testing.assert_allclose(d.cdf, trapezoid_cdf(d), rtol=0, atol=2e-6)


def test_a_node_at_zero_includes_the_zero_atom():
    p = unit_atom(1.5)
    d = density_curve(p, np.array([-1.0, 0.0, 1.0]))
    assert d.cdf[0] == pytest.approx(0.0, abs=1e-6)
    assert d.cdf[1] == pytest.approx(p.zero_mass, abs=1e-6)


def mp_cdf(x, c):
    """Zero atom plus the integral of mp_density, by the midpoint rule in the angle theta.

    x = (lo + hi)/2 - (hi - lo)/2 cos theta takes the edges to theta = 0 and pi,
    where the integrand mp_density(x) dx/dtheta stays bounded, also at the
    c = 1 hard edge.
    """
    params = MpParams(c)
    lo, hi = params.support
    half = (hi - lo) / 2
    edges = np.linspace(0.0, math.pi, 40_001)
    mids = 0.5 * (edges[1:] + edges[:-1])
    xs = (lo + hi) / 2 - half * np.cos(mids)
    integrand = [mp_density(x, params) * half * math.sin(t) for x, t in zip(xs, mids)]
    cum = np.concatenate([[0.0], np.cumsum(integrand) * (edges[1] - edges[0])])
    theta = np.arccos(np.clip(((lo + hi) / 2 - x) / half, -1.0, 1.0))
    return max(0.0, 1 - 1 / c) * (x >= 0) + np.interp(theta, edges, cum)


@pytest.mark.parametrize("c,tol", [(0.25, 1e-5), (1.0, 1e-4), (1.5, 1e-5)])
def test_one_unit_atom_matches_the_marchenko_pastur_cdf(c, tol):
    # at c = 1 the eta = 1e-6 smoothing of the x^(-1/2) hard edge sets the gap
    p = unit_atom(c)
    d = density_curve(p, default_grid(p, 1500))
    np.testing.assert_allclose(d.cdf, mp_cdf(d.grid, c), rtol=0, atol=tol)


@pytest.mark.parametrize("c", [0.25, 1.5])
def test_full_model_matches_a_fine_trapezoid(spectrum51, c):
    p = FmcProblem(full_measure(spectrum51), c)
    d = density_curve(p, default_grid(p, 1500))
    fine = density_curve(p, np.linspace(d.grid[0], d.grid[-1], 48_000))
    steps = 0.5 * (fine.values[1:] + fine.values[:-1]) * np.diff(fine.grid)
    reference = p.zero_mass + np.concatenate([[0.0], np.cumsum(steps)])
    np.testing.assert_allclose(d.cdf, np.interp(d.grid, fine.grid, reference), rtol=0, atol=1e-5)


def gap_midpoints(d):
    """The middle node of every run of near-zero density with support on both sides."""
    low = d.values < 1e-3 * d.values.max()
    edges = np.flatnonzero(np.diff(low.astype(int)))
    starts, stops = edges[::2] + 1, edges[1::2] + 1  # the runs low[start:stop], when low[0] is not
    if low[0]:
        starts, stops = edges[1::2] + 1, edges[2::2] + 1
    return [(a + b - 1) // 2 for a, b in zip(starts, stops)]


@pytest.mark.parametrize("n,c", [(51, 0.25), (51, 1.5), (204, 0.25)])
def test_each_gap_holds_a_whole_number_of_eigenvalues(n, c):
    p = FmcProblem(full_measure(ensemble_spectrum(ArrayNoiseConfig(n=n))), c)
    d = density_curve(p, default_grid(p, 1500))
    mids = gap_midpoints(d)
    assert mids
    counts = d.cdf[mids] * n
    np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-6 * n)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 100, 200, 300])
def test_cdf_is_monotone_and_in_the_unit_interval(k):
    d = predict_edf(ArrayNoiseConfig(n=51), 10.0**-k).density
    assert np.all(np.diff(d.cdf) >= 0)
    assert 0 <= d.cdf[0] and d.cdf[-1] <= 1


def test_full_model_ks_against_mc_at_n204():
    cfg = ArrayNoiseConfig(n=204)
    density = predict_edf(cfg, 1.5, mode="full").density
    emp = run_mc(McConfig(cfg, snapshots=136, trials=600, seed=0))
    assert compare(density, emp).ks <= 0.003


def test_cdf_holds_one_block_at_a_time():
    # the full N = 256 measure over 1500 nodes takes 6 blocks of _blocks; one
    # block and its args read 1.57 MiB, and two blocks at once 2.19 MiB
    d = predict_edf(ArrayNoiseConfig(256), 1.5, mode="full").density
    assert len(d.problem.measure.atoms) * len(d.grid) > 5 * isoedf.rmt._BLOCK_ELEMENTS
    _, peak = traced_peak(lambda: d.cdf)
    assert peak < 1.75 * 16 * isoedf.rmt._BLOCK_ELEMENTS
