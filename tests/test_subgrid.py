"""The subgrid continuation levels against an every-point oracle.

Each level of `rmt._continue` above eta solves one grid point per bin of
width 2 Im z and interpolates the rest.  `every_point_continue` is the
same continuation with every level solving every point; the curves the
two give must agree, and the subgrid must hand each level starts as good
as the solved roots would.
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
    """The continuation with every level solved at every point."""
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
        slope = np.empty_like(u)
        u = rmt._newton(ct, w, a, b, x + 1j * h, u, rmt._LEVEL_TOL, slope)


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


@pytest.mark.parametrize("n,c,mode", MODEL_SWEEP)
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
        # at the levels just above eta, x / (2 Im z) overflows: every point is
        # its own bin, and no RuntimeWarning reaches the suite's error filter
        from isoedf import classify, ensemble_spectrum, reduce

        spectrum = ensemble_spectrum(ArrayNoiseConfig(12))
        p = FmcProblem(measure=reduce(classify(spectrum, 0.5)), c=0.5)
        grid = default_grid(p, 64)
        expected = values(p, grid, 1e-300)
        atol = 1e-12 * expected.max()
        np.testing.assert_allclose(values(p, grid, eta), expected, rtol=0, atol=atol)
        m, expected_m = stieltjes_at(p, 0.5 + eta * 1j), stieltjes_at(p, 0.5 + 1e-300j)
        assert abs(m - expected_m) <= 1e-12 * abs(expected_m)


def newton_effort(monkeypatch, n, c, mode, continue_):
    """Atom-point evaluations of G per continuation level, keyed by Im z, and in total."""
    levels = defaultdict(lambda: [0, 0])  # Im z -> [evaluations, points solved]
    total = [0]
    real_g, real_newton = rmt._g, rmt._newton

    def counting_g(ct, w_row, a, z, u, v):
        total[0] += len(z) * len(ct)
        return real_g(ct, w_row, a, z, u, v)

    def per_level(ct, w, a, b, z, u, *args):
        before = total[0]
        out = real_newton(ct, w, a, b, z, u, *args)
        level = levels[float(z[0].imag)]
        level[0] += total[0] - before
        level[1] += len(z)
        return out

    with monkeypatch.context() as m:
        m.setattr(rmt, "_g", counting_g)
        m.setattr(rmt, "_newton", per_level)
        m.setattr(rmt, "_continue", continue_)
        predict_edf(ArrayNoiseConfig(n), c, mode=mode)
    return dict(levels), total[0]


@pytest.mark.parametrize("n,c,mode", FULL)
def test_interpolated_levels_hand_down_starts_as_good_as_solved_ones(monkeypatch, n, c, mode):
    # The level at eta corrects any start that converges, so the curves
    # alone cannot see a level handing down poor starts.  Per solved point,
    # each level needs about as many Newton steps as the oracle's: without
    # the interpolated slope G' the first level below the subgrid ones takes
    # 1.27-1.64x the oracle's steps on these scenarios, with it 0.91-1.05x.
    levels, _ = newton_effort(monkeypatch, n, c, mode, rmt._continue)
    expected, _ = newton_effort(monkeypatch, n, c, mode, every_point_continue)
    assert levels.keys() == expected.keys()
    for h, (evals, points) in levels.items():
        per_point, expected_per_point = evals / points, expected[h][0] / expected[h][1]
        assert per_point <= 1.15 * expected_per_point, f"Im z = {h}"


def test_subgrid_saves_over_a_third_of_the_evaluations(monkeypatch):
    # every returned root is still checked by _admissible at every point
    total = expected = 0
    for n, c, mode in FULL:
        total += newton_effort(monkeypatch, n, c, mode, rmt._continue)[1]
        expected += newton_effort(monkeypatch, n, c, mode, every_point_continue)[1]
    assert total <= 0.65 * expected


def test_bins_narrower_than_the_spacing_keep_every_point(monkeypatch):
    # an 8-point grid on [0.1, 10]: its spacing 1.41 exceeds the widest
    # bin, 2 x 0.6 at the first level (top 20), so no point is interpolated
    solved = []
    real_newton = rmt._newton

    def recording(ct, w, a, b, z, u, *args):
        solved.append(len(z))
        return real_newton(ct, w, a, b, z, u, *args)

    monkeypatch.setattr(rmt, "_newton", recording)
    density_curve(unit_atom(0.5), np.linspace(0.1, 10.0, 8), 1e-6)
    assert len(solved) > 1 and all(k == 8 for k in solved)
