"""The subgrid continuation levels against an every-point oracle.

Each level of `rmt._continue` above eta solves one grid point per bin of
width 2 Im z among the points still descending and interpolates the rest
of them; a solved point whose start was already within the level
tolerance of its root leaves the descent for eta.  `every_point_continue`
is the same continuation with every level solving every point and no
point leaving early; the curves the two give must agree, and the subgrid
must hand each level starts as good as the solved roots would.
"""

from collections import defaultdict

import numpy as np
import pytest

import isoedf.rmt as rmt
from isoedf import (
    ArrayNoiseConfig,
    FmcProblem,
    default_grid,
    density_curve,
    predict_edf,
    stieltjes_at,
)
from test_rmt import random_problem, unit_atom

TOL = 1e-12  # times max(1, curve max)
MODEL_SWEEP = [(n, c, "reduced") for n in (51, 256, 1024) for c in (0.25, 1.0, 1.5)] + [
    (n, c, "full") for n in (51, 256) for c in (0.25, 1.0, 1.5)
]
FULL = [s for s in MODEL_SWEEP if s[2] == "full"]


def every_point_continue(ct, w, a, b, x, eta, top):
    """The continuation with every level solved at every point; returns what _continue does."""
    h = max(top, eta)
    u = -(1 - a) / (x + 1j * h)
    slope = None
    while True:
        lower = max(eta, rmt._ETA_RATIO * h)
        if slope is not None:
            z, shift = x + 1j * h, b / (x + 1j * h)
            with np.errstate(all="ignore"):
                guess = u + (shift / z - (u + shift) / slope) * (1j * (lower - h))
            u = np.where(np.isfinite(guess) & (guess.imag > 0), guess, u)
        h = lower
        if h == eta:
            return rmt._newton(ct, w, a, b, x + 1j * h, u)
        u, _, _, slope = rmt._newton(ct, w, a, b, x + 1j * h, u, rmt._LEVEL_TOL)


@pytest.fixture
def oracle(monkeypatch):
    """Run f(*args) once as shipped and once with every level solving every point."""

    def run(f, *args):
        with monkeypatch.context() as m:
            m.setattr(rmt, "_continue", every_point_continue)
            expected = f(*args)
        return f(*args), expected

    return run


def assert_close(curve, expected):
    np.testing.assert_allclose(curve, expected, rtol=0, atol=TOL * max(1.0, expected.max()))


def values(p, grid, eta):
    return density_curve(p, grid, eta).values


# at c = 0.05 and 0.07727 (L = 1020 and 660) one level's Newton stops on
# steps cut short at the real axis, far from the root: that root must not
# anchor the level, or the solve at eta fails from the start it hands down
UNLANDED = [(51, 0.05, "reduced"), (51, 0.07727, "reduced")]


@pytest.mark.parametrize("n,c,mode", MODEL_SWEEP + UNLANDED)
def test_model_sweep_curves_match_the_oracle(oracle, n, c, mode):
    curve, expected = oracle(lambda: predict_edf(ArrayNoiseConfig(n), c, mode=mode).density.values)
    assert_close(curve, expected)


@pytest.mark.parametrize("eta", [1e-3, 1e-9])
def test_random_measures_match_the_oracle(oracle, eta):
    # the measures and grids of TestContinuationSchedule.test_random_measures
    rng = np.random.default_rng(20161026)
    for i in range(100):
        p = random_problem(rng, clustered=bool(i % 2))
        grid = default_grid(p, int(rng.choice([64, 400, 1500])))
        assert_close(*oracle(values, p, grid, eta))


class TestEdgeCases:
    def test_one_point_through_stieltjes_at(self, oracle, spectrum51):
        from isoedf import classify, reduce

        p = FmcProblem(measure=reduce(classify(spectrum51, 0.25)), c=0.25)
        for z in (complex(1.0, 1e-6), complex(0.3, 1e-9), complex(30.0, 1e-3)):
            m, expected = oracle(stieltjes_at, p, z)
            assert abs(m - expected) <= TOL * max(1.0, abs(expected))

    def test_two_point_grid(self, oracle):
        grid = np.array([0.5, 2.5])
        assert_close(*oracle(values, unit_atom(0.5), grid, 1e-6))

    def test_graded_grid_at_c_one(self, oracle, spectrum51):
        from isoedf import classify, reduce

        p = FmcProblem(measure=reduce(classify(spectrum51, 1.0)), c=1.0)
        grid = default_grid(p, 1500)
        steps = np.diff(grid)
        assert steps[-1] > 1000 * steps[0]  # graded as u^2, not uniform
        assert_close(*oracle(values, p, grid, 1e-6))

    def test_grid_narrower_than_one_bin(self, oracle):
        # the levels at Im z = 0.3 and 0.009 each hold the whole grid in one bin
        grid = np.linspace(1.0, 1.001, 50)
        assert_close(*oracle(values, unit_atom(0.25), grid, 1e-6))

    @pytest.mark.parametrize("eta", [1e-308, 5e-324])
    def test_eta_near_the_smallest_float(self, eta):
        # no RuntimeWarning reaches the suite's error filter; every point of
        # this grid leaves the descent by Im z ~ 2e-5, so the levels where
        # x / (2 Im z) overflows are left to
        # test_overflowed_bin_numbers_keep_every_point_its_own_bin
        from isoedf import classify, ensemble_spectrum, reduce

        spectrum = ensemble_spectrum(ArrayNoiseConfig(12))
        p = FmcProblem(measure=reduce(classify(spectrum, 0.5)), c=0.5)
        grid = default_grid(p, 64)
        expected = values(p, grid, 1e-300)
        atol = 1e-12 * expected.max()
        np.testing.assert_allclose(values(p, grid, eta), expected, rtol=0, atol=atol)
        m, expected_m = stieltjes_at(p, 0.5 + eta * 1j), stieltjes_at(p, 0.5 + 1e-300j)
        assert abs(m - expected_m) <= 1e-12 * abs(expected_m)


def converged_at_the_start(a, start, roots):
    """The leave rule, on Newton's scale max(1 - a, |u|)."""
    return np.abs(roots - start) <= rmt._LEVEL_TOL * np.maximum(1 - a, np.abs(roots))


def record_levels(monkeypatch, run):
    """(a, z, start, corrected root) of every _newton call in run(), in call order."""
    calls = []
    real_newton = rmt._newton

    def recording(ct, w, a, b, z, u, tol=rmt._NEWTON_TOL):
        out = real_newton(ct, w, a, b, z, u, tol)
        calls.append((a, z, np.array(u, dtype=complex), out[0]))
        return out

    with monkeypatch.context() as m:
        m.setattr(rmt, "_newton", recording)
        run()
    return calls


@pytest.mark.parametrize("eta", [1e-308, 5e-324])
def test_overflowed_bin_numbers_keep_every_point_its_own_bin(monkeypatch, eta):
    # Where x / (2 Im z) overflows to inf, the bin steps inf - inf are nan,
    # not 0, so every descending point is solved: none is interpolated from
    # a neighbour whose bin number overflowed too.  At the default level
    # tolerance every point of this grid leaves the descent long before
    # that; with none the levels go on until each start is its root exactly.
    from isoedf import classify, ensemble_spectrum, reduce

    spectrum = ensemble_spectrum(ArrayNoiseConfig(12))
    p = FmcProblem(measure=reduce(classify(spectrum, 0.5)), c=0.5)
    grid = default_grid(p, 64)
    monkeypatch.setattr(rmt, "_LEVEL_TOL", 0.0)
    calls = record_levels(monkeypatch, lambda: density_curve(p, grid, eta))
    descending, overflowed = grid, 0
    for a, z, start, roots in calls[:-1]:
        with np.errstate(over="ignore"):
            if np.isinf(descending / (rmt._BIN_WIDTH * z[0].imag)).sum() > 1:
                np.testing.assert_array_equal(z.real, descending)
                overflowed += 1
        left = z.real[converged_at_the_start(a, start, roots)]
        descending = descending[~np.isin(descending, left)]
    assert overflowed


def newton_effort(monkeypatch, run, continue_):
    """Evaluations of G per grid point at each level of run(), and the atom-point total.

    The levels are keyed by Im z; each holds the ascending x it solved
    and how many times G was evaluated at each.  The points that left the
    descent early are dropped from the level at eta: they start there
    from a longer tangent, which is what saves their lower levels.
    """
    zs, total = [], [0]
    real_g = rmt._g
    shipped = continue_ is rmt._continue

    def counting_g(ct, w, a, z, u, v):
        zs.append(z)
        total[0] += len(z) * len(ct)
        return real_g(ct, w, a, z, u, v)

    with monkeypatch.context() as m:
        m.setattr(rmt, "_g", counting_g)
        m.setattr(rmt, "_continue", continue_)
        calls = record_levels(monkeypatch, run)
    z = np.concatenate(zs)
    eta = z.imag.min()
    if shipped:
        left = [x.real[converged_at_the_start(a, u, r)] for a, x, u, r in calls if x[0].imag > eta]
        z = z[(z.imag > eta) | ~np.isin(z.real, np.concatenate([np.empty(0), *left]))]
    levels = {float(h): np.unique(z.real[z.imag == h], return_counts=True) for h in np.unique(z.imag)}
    return levels, total[0]


def prediction(n, c, mode):
    return lambda: predict_edf(ArrayNoiseConfig(n), c, mode=mode)


def assert_no_more_steps_than_the_oracle(levels, expected, slack):
    """At each level, the points solved there take at most slack times the
    evaluations the oracle takes at the same points."""
    for h, (x, counts) in levels.items():
        ex, expected_counts = expected[h]
        j = np.searchsorted(ex, x)
        np.testing.assert_array_equal(ex[j], x)
        assert counts.sum() <= slack * expected_counts[j].sum(), f"Im z = {h}"


@pytest.mark.parametrize("n,c,mode", FULL)
def test_interpolated_levels_hand_down_starts_as_good_as_solved_ones(monkeypatch, n, c, mode):
    # The level at eta corrects any start that converges, so the curves
    # alone cannot see a level handing down poor starts.  Per solved point,
    # each level needs about as many Newton steps as the oracle's at the
    # same points.  On these scenarios the worst level takes 1.71-2.46x the
    # oracle's steps if the interpolated points keep the root above as
    # their start, and 1.04-1.13x with the tangent interpolated from the
    # solved points.
    levels, _ = newton_effort(monkeypatch, prediction(n, c, mode), rmt._continue)
    expected, _ = newton_effort(monkeypatch, prediction(n, c, mode), every_point_continue)
    assert levels.keys() <= expected.keys()
    assert_no_more_steps_than_the_oracle(levels, expected, 1.15)


def test_subgrid_saves_over_a_third_of_the_evaluations(monkeypatch):
    total = expected = 0
    for n, c, mode in FULL:
        total += newton_effort(monkeypatch, prediction(n, c, mode), rmt._continue)[1]
        expected += newton_effort(monkeypatch, prediction(n, c, mode), every_point_continue)[1]
    assert total <= 0.65 * expected


def test_model_sweep_evaluations(monkeypatch):
    # the benchmark's 15 predictions take 7.10 M atom-point evaluations of G
    # (10.43 M with every point taking every level and a separate acceptance pass)
    total = sum(newton_effort(monkeypatch, prediction(*s), rmt._continue)[1] for s in MODEL_SWEEP)
    assert total <= 7.8e6


@pytest.mark.parametrize("n,c,mode", [(51, 0.25, "reduced"), (51, 1.5, "full"), (256, 1.0, "full")])
def test_a_converged_start_takes_no_lower_level(monkeypatch, n, c, mode):
    calls = record_levels(monkeypatch, prediction(n, c, mode))
    left = set()
    for a, z, start, roots in calls:
        if z[0].imag == 1e-6:  # the level at eta solves every point
            continue
        assert left.isdisjoint(z.real), f"Im z = {z[0].imag}"
        left.update(z.real[converged_at_the_start(a, start, roots)])
    assert left
    solved_at_eta = np.concatenate([z.real for _, z, _, _ in calls if z[0].imag == 1e-6])
    assert len(solved_at_eta) == 1500 and left <= set(solved_at_eta)


def test_a_level_where_no_root_landed_hands_its_starts_down_unchanged(monkeypatch):
    # the first level's roots are made to look unlanded, a full step from
    # each last iterate crossing the real axis: the next level starts every
    # point from the far-field start, and the level at eta still lands
    p = unit_atom(0.5)
    grid = default_grid(p, 64)
    expected = density_curve(p, grid).values
    real_newton = rmt._newton
    starts = []

    def unlanded_first_level(ct, w, a, b, z, u, tol=rmt._NEWTON_TOL):
        roots, at, g, slope = real_newton(ct, w, a, b, z, u, tol)
        starts.append((z, np.array(u, dtype=complex)))
        if len(starts) == 1:
            g = 2j * at.imag * slope  # g / slope = 2i Im at
        return roots, at, g, slope

    monkeypatch.setattr(rmt, "_newton", unlanded_first_level)
    d = density_curve(p, grid)
    top = max(10.0, 2 * grid[-1])
    z, u = starts[1]
    np.testing.assert_array_equal(u, -1 / (z.real + 1j * top))
    np.testing.assert_allclose(d.values, expected, rtol=0, atol=TOL * max(1.0, expected.max()))


def test_bins_narrower_than_the_spacing_keep_every_point(monkeypatch):
    # an 8-point grid on [0.1, 10]: its spacing 1.41 exceeds the widest
    # bin, 2 x 0.6 at the first level (top 20), so no level interpolates a
    # point it could solve: each solves every point still descending.  The
    # starts of those are the oracle's, and so are their steps.
    grid = np.linspace(0.1, 10.0, 8)
    run = lambda: density_curve(unit_atom(0.5), grid, 1e-6)  # noqa: E731
    calls = record_levels(monkeypatch, run)
    descending = grid
    for a, z, start, roots in calls[:-1]:
        np.testing.assert_array_equal(z.real, descending)
        descending = descending[~converged_at_the_start(a, start, roots)]
    np.testing.assert_array_equal(calls[-1][1].real, grid)
    assert len(calls) > 2 and len(calls[-2][1]) < 8
    levels, _ = newton_effort(monkeypatch, run, rmt._continue)
    expected, _ = newton_effort(monkeypatch, run, every_point_continue)
    assert_no_more_steps_than_the_oracle(levels, expected, 1.0)
