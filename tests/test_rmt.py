import cmath
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from isoedf import (
    AtomicMeasure,
    FmcProblem,
    MpParams,
    default_grid,
    density_curve,
    mp_density,
    polynomial_coefficients,
    predict_edf,
    stieltjes_at,
    stieltjes_by_enumeration,
)


def unit_atom(c):
    return FmcProblem(measure=AtomicMeasure(atoms=((1.0, 1.0),), kind="full"), c=c)


def measure_from(locs, raw_weights, kind="full"):
    total = math.fsum(raw_weights)
    weights = [w / total for w in raw_weights]
    weights[-1] += 1.0 - math.fsum(weights)
    pairs = sorted(zip(locs, weights))
    return AtomicMeasure(atoms=tuple(pairs), kind=kind)


@st.composite
def problems(draw, max_atoms=8):
    locs = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=2.0),
            min_size=1,
            max_size=max_atoms,
            unique=True,
        )
    )
    raw = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=1.0),
            min_size=len(locs),
            max_size=len(locs),
        )
    )
    c = draw(st.floats(min_value=0.1, max_value=2.0))
    return FmcProblem(measure=measure_from(locs, raw), c=c)


@pytest.mark.parametrize("c", [0.0, math.inf, math.nan])
def test_problem_rejects_bad_ratio(c):
    with pytest.raises(ValueError, match="finite and > 0"):
        unit_atom(c)


def test_every_stage_states_one_ratio_rule(spectrum51, capsys):
    from isoedf import classify, zero_atom_mass
    from isoedf.cli import main

    stages = [
        lambda: unit_atom(-1.0),
        lambda: classify(spectrum51, -1.0),
        lambda: MpParams(c=-1.0),
        lambda: zero_atom_mass(-1.0),
    ]
    for stage in stages:
        with pytest.raises(ValueError) as err:
            stage()
        assert str(err.value) == "aspect ratio c must be finite and > 0, got -1.0"
    assert main(["atoms", "--n", "12", "--c", "-1"]) == 2
    assert capsys.readouterr().err == (
        "isoedf: invalid input: aspect ratio c must be finite and > 0, got -1.0\n"
    )


class TestBuildPolynomial:
    def test_single_atom_reduces_to_mp_quadratic(self):
        for c, z in [(0.25, 1.0 + 0.5j), (1.5, 0.3 + 2.0j), (0.5, -1.0 + 1e-3j)]:
            got = polynomial_coefficients(unit_atom(c), z)
            assert len(got) == 3
            expected = np.array([1.0, -(1 - c - z), c * z])
            np.testing.assert_allclose(got, expected, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_degree_is_atom_count_plus_one(self, p):
        k = len(p.measure.atoms)
        assert len(polynomial_coefficients(p, 0.7 + 0.3j)) == k + 2

    def test_two_atom_symbolic_expansion(self):
        # independent oracle: expand the cleared equation with sympy
        c_val, z_val = sympy.Rational(1, 2), 2 + sympy.I
        t_vals = (1, 4)
        w_vals = (sympy.Rational(1, 2), sympy.Rational(1, 2))
        m = sympy.symbols("m")
        u = 1 - c_val - c_val * z_val * m
        factors = [t * u - z_val for t in t_vals]
        expr = (
            w_vals[0] * factors[1] + w_vals[1] * factors[0] - m * factors[0] * factors[1]
        )
        expected = [complex(v) for v in reversed(sympy.Poly(sympy.expand(expr), m).all_coeffs())]

        problem = FmcProblem(
            measure=AtomicMeasure(atoms=((1.0, 0.5), (4.0, 0.5)), kind="reduced"), c=0.5
        )
        got = polynomial_coefficients(problem, complex(2, 1))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def fixed_point_residual(p, z, m):
    u = 1 - p.c - p.c * z * m
    total = sum(w / (t * u - z) for t, w in p.measure.atoms)
    return abs(m - total)


class TestStieltjesAt:
    def test_far_field_asymptote(self):
        p = unit_atom(0.25)
        for z in (1e6j, 1e6 + 1e6j, -3e5 + 8e5j):
            m = stieltjes_at(p, z)
            assert abs(m - (-1 / z)) <= 1e-5 * abs(1 / z)

    def test_matches_mp_boundary_value(self):
        m = stieltjes_at(unit_atom(0.25), 1.0 + 1e-6j)
        assert m.imag / math.pi == pytest.approx(mp_density(1.0, MpParams(c=0.25)), abs=2e-3)

    def test_residual_at_returned_root(self, spectrum51):
        from isoedf import classify, reduce

        reduced = FmcProblem(measure=reduce(classify(spectrum51, 0.25)), c=0.25)
        cases = [
            (unit_atom(0.25), 1.0 + 1e-6j),
            (unit_atom(1.5), 0.01 + 1e-6j),  # inside the gap below the bulk
            (unit_atom(1.5), 2.0 + 1e-6j),
            (reduced, 0.8 + 1e-6j),
            (reduced, 20.0 + 1e-6j),
        ]
        for p, z in cases:
            m = stieltjes_at(p, z)
            assert fixed_point_residual(p, z, m) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        problems(),
        st.floats(min_value=-15.0, max_value=15.0),
        st.floats(min_value=1e-4, max_value=30.0),
    )
    def test_herglotz(self, p, re, im):
        m = stieltjes_at(p, complex(re, im))
        assert m.imag > 0

    @settings(max_examples=40, deadline=None)
    @given(
        problems(),
        st.floats(min_value=3e4, max_value=1e6),
        st.floats(min_value=0.1, max_value=math.pi - 0.1),
    )
    def test_far_field_invariant(self, p, radius, angle):
        z = radius * cmath.exp(1j * angle)
        m = stieltjes_at(p, z)
        assert abs(z * m + 1) <= 1e-4

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            stieltjes_at(unit_atom(0.5), 1.0 - 1j)
        with pytest.raises(ValueError):
            stieltjes_at(unit_atom(0.5), 1.0 + 0j)


class TestDensityCurve:
    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 1.5])
    def test_reduces_to_mp_law(self, c):
        p = unit_atom(c)
        params = MpParams(c=c)
        a, b = params.support
        grid = default_grid(p, 900)
        d = density_curve(p, grid)
        away = (np.abs(grid - a) >= 0.05) & (np.abs(grid - b) >= 0.05)
        reference = np.array([mp_density(x, params) for x in grid])
        assert np.max(np.abs(d.values - reference)[away]) <= 2e-3

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 1.0, 1.5])
    def test_mass_conservation(self, c):
        p = unit_atom(c)
        if c == 1.0:
            u = np.linspace(1e-3, math.sqrt(1.25 * 4.0), 1200)
            grid = u * u
        else:
            grid = default_grid(p, 1200)
        d = density_curve(p, grid)
        assert d.total_mass == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize(
        "locs,raw,c",
        [
            ((1.0,), (1.0,), 0.5),
            ((1.0, 4.0), (0.5, 0.5), 0.8),
            ((0.5, 2.0, 7.0), (0.6, 0.3, 0.1), 1.5),
        ],
    )
    def test_first_moment_preserved(self, locs, raw, c):
        p = FmcProblem(measure=measure_from(locs, raw), c=c)
        grid = default_grid(p, 2500)
        d = density_curve(p, grid)
        mean = np.trapezoid(d.grid * d.values, d.grid)
        assert mean == pytest.approx(p.measure.mean, rel=0.01)

    def test_values_nonnegative_and_eta_recorded(self):
        d = density_curve(unit_atom(0.25), default_grid(unit_atom(0.25), 300), eta=1e-6)
        assert np.all(d.values >= 0)
        assert d.eta == 1e-6

    def test_rejects_bad_grid(self):
        p = unit_atom(0.25)
        with pytest.raises(ValueError):
            density_curve(p, np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            density_curve(p, np.array([1.0]))
        with pytest.raises(ValueError):
            density_curve(p, np.array([1.0, 2.0]), eta=0.0)

    @pytest.mark.parametrize("c", [1.0, 1.5, 4.0])
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_grid_reaching_below_zero_at_c_at_least_one(self, spectrum51, c, mode):
        # u = m + a/z has no pole at 0, so a grid may reach x <= 0 at every c
        from isoedf import classify, full_measure, reduce

        measure = reduce(classify(spectrum51, c)) if mode == "reduced" else full_measure(spectrum51)
        p = FmcProblem(measure=measure, c=c)
        grid = default_grid(p, 1500)
        d = density_curve(p, np.concatenate([np.linspace(-1.0, 0.0, 50), grid]))
        expected = density_curve(p, grid).values
        atol = 1e-12 * max(1.0, expected.max())
        np.testing.assert_allclose(d.values[50:], expected, rtol=0, atol=atol)
        assert np.all(d.values[:49] < 1e-3)
        if c == 1.0:  # the eta-smoothed x^(-1/2) hard edge
            assert d.values[49] > 100


class TestDefaultGrid:
    def test_single_atom_quarter_ratio_span(self):
        grid = default_grid(unit_atom(0.25), 64)
        assert grid[0] == pytest.approx(0.125)
        assert grid[-1] == pytest.approx(2.8125)

    def test_zero_touching_support_floors_at_tiny(self):
        grid = default_grid(unit_atom(1.5), 64)
        assert grid[0] == pytest.approx(1e-4)

    def test_reference_case_covers_top_spike_band(self, spectrum51):
        from isoedf import classify, reduce

        p = FmcProblem(measure=reduce(classify(spectrum51, 0.25)), c=0.25)
        grid = default_grid(p, 64)
        assert grid[-1] >= 13.7

    def test_bulk_at_the_origin_is_graded_as_squares(self):
        grid = default_grid(unit_atom(1.0), 64)
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(5.0)
        np.testing.assert_allclose(np.diff(np.sqrt(grid)), np.diff(np.sqrt(grid))[0])

    def test_uniform_spacing(self):
        grid = default_grid(unit_atom(0.5), 50)
        np.testing.assert_allclose(np.diff(grid), np.diff(grid)[0])

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            default_grid(unit_atom(0.5), 15)

    def test_every_atom_at_zero_is_refused(self):
        # hi = 1.25 t_max (1 + sqrt(c))^2 is 0: the grid would run from 1e-4 down to 0
        p = FmcProblem(measure=AtomicMeasure(atoms=((0.0, 1.0),), kind="full"), c=0.5)
        with pytest.raises(ValueError, match="needs an atom above 0"):
            default_grid(p, 16)

    @pytest.mark.parametrize("points", [20.0, np.float64(20), "20"])
    def test_points_must_be_an_integer(self, points):
        # these used to reach np.linspace and raise TypeError there
        from isoedf import ArrayNoiseConfig

        with pytest.raises(ValueError, match="points must be an integer"):
            predict_edf(ArrayNoiseConfig(12), 0.5, points=points)


class TestPredictEdf:
    @pytest.mark.parametrize("c,expected_atoms", [(0.25, 7), (0.5, 5), (1.0, 4), (1.5, 3)])
    def test_reduced_atom_counts(self, cfg51, c, expected_atoms):
        pred = predict_edf(cfg51, c, mode="reduced", points=300)
        assert pred.atom_count == expected_atoms
        assert pred.mode == "reduced"
        assert pred.wall_ms > 0

    def test_zero_mass_snapshot_deficient(self, cfg51):
        for mode in ("reduced", "full"):
            pred = predict_edf(cfg51, 1.5, mode=mode, points=300)
            assert pred.density.zero_mass == pytest.approx(1 / 3, abs=1e-12)

    def test_full_mode_uses_all_atoms(self, cfg51):
        pred = predict_edf(cfg51, 0.5, mode="full", points=300)
        assert pred.atom_count == 51

    def test_refinement_stability(self, cfg51):
        coarse = predict_edf(cfg51, 0.25, points=800, eta=1e-6)
        fine = predict_edf(cfg51, 0.25, points=1600, eta=5e-7)
        assert abs(coarse.density.trapezoid_mass - fine.density.trapezoid_mass) < 2e-3

    def test_rejects_unknown_mode(self, cfg51):
        with pytest.raises(ValueError):
            predict_edf(cfg51, 0.5, mode="other")

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_stage_times_split_the_wall_time(self, mode):
        from isoedf import ArrayNoiseConfig

        pred = predict_edf(ArrayNoiseConfig(n=12), 0.5, mode=mode, points=64)
        assert list(pred.stage_ms) == ["spectrum", "measure", "density"]
        assert all(ms >= 0 for ms in pred.stage_ms.values())
        assert sum(pred.stage_ms.values()) <= pred.wall_ms


class TestGridSolverAgainstPolynomial:
    """The grid solver against the paper's route: roots of the cleared polynomial."""

    @pytest.mark.parametrize("c", [0.25, 1.0, 1.5])
    def test_density_equals_admissible_polynomial_root(self, spectrum51, c):
        from isoedf import classify, poly_roots, reduce

        p = FmcProblem(measure=reduce(classify(spectrum51, c)), c=c)
        eta = 1e-6
        d = density_curve(p, default_grid(p, 1500), eta)
        inside = np.flatnonzero(d.values > 1e-2 * d.values.max())
        picked = inside[np.linspace(0, len(inside) - 1, 20).astype(int)]
        z0 = 1 - 1 / c
        for j in picked:
            z = complex(d.grid[j], eta)
            roots = poly_roots(polynomial_coefficients(p, z))
            # the one root whose companion transform (m + z0/z) is Herglotz
            (m,) = [r for r in roots if (r + z0 / z).imag > 0]
            expected = (m + p.zero_mass / z).imag / math.pi
            assert d.values[j] == pytest.approx(expected, rel=1e-8)


class TestCompanionFallback:
    def test_no_admissible_root_raises_solver_error(self, monkeypatch):
        import isoedf.rmt as rmt
        from isoedf import SolverError

        real_continue = rmt._continue

        def off_the_root(ct, w, a, b, x, eta, top):
            # roots moved by 0.3, handed on with G evaluated where they now are
            u = real_continue(ct, w, a, b, x, eta, top)[1] + 0.3
            z = x + 1j * eta
            return (u, u, *rmt._g(ct, w, a, z, u, u + b / z))

        monkeypatch.setattr(rmt, "_continue", off_the_root)
        monkeypatch.setattr(rmt, "poly_roots", lambda coeffs: np.empty(0, dtype=complex))
        grid = default_grid(unit_atom(0.5), 32)
        with pytest.raises(SolverError) as err:
            density_curve(unit_atom(0.5), grid)
        assert err.value.z == complex(grid[0], 1e-6)
        assert err.value.residual > rmt._RESIDUAL_TOL
        assert err.value.im_u > 0
        assert str(err.value).endswith(f"residual {err.value.residual:.3e} > 1e-10")


def test_enumeration_without_an_admissible_root_raises_solver_error(monkeypatch):
    import isoedf.rmt as rmt
    from isoedf import SolverError

    # only the companion root below the real axis: Newton polishes it to a
    # true root of G, which the half-plane test alone refuses
    real_roots = rmt.poly_roots
    monkeypatch.setattr(rmt, "poly_roots", lambda coeffs: real_roots(coeffs)[:1])
    assert real_roots(polynomial_coefficients(unit_atom(0.5), 1.0 + 0.5j))[0].imag < 0
    with pytest.raises(SolverError) as err:
        stieltjes_by_enumeration(unit_atom(0.5), 1.0 + 0.5j)
    assert err.value.z == 1.0 + 0.5j
    assert err.value.residual <= rmt._RESIDUAL_TOL  # the best root was fine; it was refused
    assert str(err.value).endswith(f"Im u = {err.value.im_u:.3e} <= 0")


@pytest.mark.parametrize(
    "residual, im_u, failed",
    [
        (3e-10, 0.25, "residual 3.000e-10 > 1e-10"),
        (0.0, 0.0, "Im u = 0.000e+00 <= 0"),
        (math.nan, -1.0, "Im u = -1.000e+00 <= 0 and residual nan > 1e-10"),
    ],
)
def test_solver_error_names_the_failed_test(residual, im_u, failed):
    from isoedf import SolverError

    err = SolverError(0.5 + 1e-6j, residual, im_u)
    assert (err.z, err.im_u) == (0.5 + 1e-6j, im_u)
    assert str(err) == f"no admissible root at z = (0.5+1e-06j): {failed}"


def test_newton_out_of_iterations_returns_its_last_evaluated_iterate(monkeypatch):
    import isoedf.rmt as rmt

    # two steps from a far start: the returned G is that of the returned iterate
    monkeypatch.setattr(rmt, "_NEWTON_MAX_ITER", 2)
    ct, w, a, b = rmt._columns(unit_atom(0.5))
    z = np.array([1.0 + 1e-6j, 0.1 + 1e-6j])
    corrected, u, g, dg = rmt._newton(ct, w, a, b, z, np.array([5.0 + 5.0j, 5.0 + 5.0j]))
    np.testing.assert_array_equal((g, dg), rmt._g(ct, w, a, z, u, u + b / z))
    assert np.all(corrected != u)
    ok, residual = rmt._accepted(a, z, u, g)
    assert not ok.any() and np.all(residual > rmt._RESIDUAL_TOL)


def test_newton_cuts_a_step_that_would_cross_the_real_axis(monkeypatch):
    import isoedf.rmt as rmt

    # one step from u = -1 + 0.5i: at x = 5 the full step would land at
    # Im u = -0.094 and is cut to half the old height; at x = 0.1 it stays
    # above the axis and is taken whole
    monkeypatch.setattr(rmt, "_NEWTON_MAX_ITER", 1)
    ct, w, a, b = rmt._columns(unit_atom(0.5))
    z = np.array([5.0 + 1e-6j, 0.1 + 1e-6j])
    u = np.full(2, -1.0 + 0.5j)
    g, dg = rmt._g(ct, w, a, z, u, u + b / z)
    step = g / dg
    assert (u - step).imag[0] < 0 < (u - step).imag[1]
    corrected, at, _, _ = rmt._newton(ct, w, a, b, z, u)
    np.testing.assert_array_equal(at, u)
    assert corrected[0].imag == pytest.approx(0.25, rel=1e-15)
    # the cut step keeps the full step's direction
    assert (u[0] - corrected[0]) / step[0] == pytest.approx(0.25 / step[0].imag, rel=1e-15)
    assert corrected[1] == u[1] - step[1]


class TestBranchSelection:
    def test_warm_start_near_the_wrong_branch_is_rejected(self, monkeypatch):
        import isoedf.rmt as rmt
        from isoedf import SolverError

        # for c > 1, G(u) also has a root with Im m > 0 but Im u < 0;
        # Newton started near it at z itself lands on it
        p = FmcProblem(
            measure=measure_from(
                (1.0546, 1.2275, 1.8005, 1.9233, 1.9447),
                (0.2577, 0.2084, 0.0982, 0.2854, 0.1504),
            ),
            c=1.5698,
        )
        z = 0.02814 + 0.00102j
        cold = stieltjes_at(p, z)
        wrong = []

        def wrong_branch(ct, w, a, b, x, eta, top):
            zs = x + 1j * eta
            out = rmt._newton(ct, w, a, b, zs, -13.44 + 0.4668j + a / zs)
            wrong.append(out[1].copy())
            return out

        monkeypatch.setattr(rmt, "_continue", wrong_branch)
        with pytest.raises(SolverError) as err:
            stieltjes_at(p, z)
        assert wrong[0][0].imag < 0
        # the residual passes: Im u <= 0 alone rejects the wrong root
        assert err.value.residual <= 1e-10
        assert err.value.im_u == wrong[0][0].imag
        assert "Im u" in str(err.value) and "residual" not in str(err.value)
        assert cold == pytest.approx(-12.042 + 0.471j, abs=1e-3)
        assert stieltjes_by_enumeration(p, z) == pytest.approx(cold, abs=1e-12)

    def test_companion_roots_have_one_herglotz_root_near_clustered_poles(self):
        from isoedf import poly_roots

        # seven atoms, five of them light: their roots crowd the poles just
        # below the real axis, where unrefined companion eigenvalues often
        # land in the upper half plane
        atoms = (
            (0.63674, 0.745), (1.19389, 0.157), (1.57589, 0.0196), (1.77978, 0.0196),
            (2.12389, 0.0196), (2.74239, 0.0196), (6.11305, 0.0196),
        )
        p = FmcProblem(measure=AtomicMeasure(atoms=atoms, kind="reduced"), c=0.25)
        for x in np.linspace(0.15, 0.3, 60):
            z = complex(x, 1e-6)
            mc = poly_roots(polynomial_coefficients(p, z)) + (1 - 1 / p.c) / z
            assert np.count_nonzero(mc.imag > 0) == 1


class TestContinuationWithoutFallback:
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    @pytest.mark.parametrize("n", [4, 51, 128])
    def test_every_point_accepted_by_continuation(self, monkeypatch, n, mode):
        import isoedf.rmt as rmt
        from isoedf import ArrayNoiseConfig

        def no_roots(coeffs):
            raise AssertionError("companion fallback reached")

        worst = []
        real_continue = rmt._continue

        def recording(ct, w, a, b, x, eta, top):
            out = real_continue(ct, w, a, b, x, eta, top)
            worst.append(rmt._accepted(a, x + 1j * eta, out[1], out[2])[1].max())
            return out

        monkeypatch.setattr(rmt, "poly_roots", no_roots)
        monkeypatch.setattr(rmt, "_continue", recording)
        for c in (0.05, 0.25, 1.0, 1.5, 20.0, 100.0):
            predict_edf(ArrayNoiseConfig(n=n), c, mode=mode, points=400)
        assert max(worst) <= rmt._RESIDUAL_TOL


def random_problem(rng, clustered):
    """Up to 12 atoms, uniform in [0.05, 20] or within 1e-3 of three centres."""
    k = int(rng.integers(1, 13))
    if clustered:
        centres = rng.uniform(0.05, 20.0, 3)
        locs = rng.choice(centres, k) + rng.uniform(-1e-3, 1e-3, k)
    else:
        locs = rng.uniform(0.05, 20.0, k)
    locs = np.unique(locs)
    c = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
    return FmcProblem(measure=measure_from(locs, rng.dirichlet(np.ones(len(locs)))), c=c)


class TestContinuationSchedule:
    """The continuation alone lands every point: the companion is never needed."""

    @staticmethod
    def forbid_companion(monkeypatch):
        import isoedf.rmt as rmt

        def no_roots(coeffs):
            raise AssertionError("companion fallback reached")

        monkeypatch.setattr(rmt, "poly_roots", no_roots)

    def test_random_measures(self, monkeypatch):
        self.forbid_companion(monkeypatch)
        rng = np.random.default_rng(20161026)
        for i in range(100):
            p = random_problem(rng, clustered=bool(i % 2))
            grid = default_grid(p, int(rng.choice([64, 400, 1500])))
            assert np.all(np.isfinite(density_curve(p, grid).values))

    @pytest.mark.parametrize("eta", [1e-3, 1e-6, 1e-9])
    def test_a_fresh_g_confirms_the_residual_the_solver_used(self, monkeypatch, eta):
        # the acceptance test reads G from Newton's last sweep; evaluated
        # afresh at each returned root, G gives the same verdict and residual
        import isoedf.rmt as rmt

        real_continue = rmt._continue
        checked = []

        def fresh_g(ct, w, a, b, x, eta, top):
            out = real_continue(ct, w, a, b, x, eta, top)
            _, u, g, _ = out
            z = x + 1j * eta
            ok, residual = rmt._accepted(a, z, u, g)
            fresh_ok, fresh = rmt._accepted(a, z, u, rmt._g(ct, w, a, z, u, u + b / z)[0])
            assert ok.all() and fresh_ok.all()
            np.testing.assert_allclose(fresh, residual, rtol=0, atol=1e-14)
            checked.append(len(u))
            return out

        monkeypatch.setattr(rmt, "_continue", fresh_g)
        rng = np.random.default_rng(20161026)
        for i in range(100):
            p = random_problem(rng, clustered=bool(i % 2))
            density_curve(p, default_grid(p, int(rng.choice([64, 400, 1500]))), eta)
        assert sum(checked) > 50_000

    @pytest.mark.parametrize("eta", [1e-3, 1e-9])
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    @pytest.mark.parametrize("n", [4, 51, 128])
    def test_scenarios_away_from_the_default_eta(self, monkeypatch, n, mode, eta):
        from isoedf import ArrayNoiseConfig

        self.forbid_companion(monkeypatch)
        for c in (0.05, 0.25, 1.0, 1.5, 20.0, 100.0):
            predict_edf(ArrayNoiseConfig(n=n), c, mode=mode, points=400, eta=eta)

    @pytest.mark.parametrize("eta", [1e-3, 1e-9])
    @pytest.mark.parametrize("c", [0.25, 1.5])
    def test_density_equals_admissible_polynomial_root(self, spectrum51, c, eta):
        from isoedf import classify, poly_roots, reduce

        p = FmcProblem(measure=reduce(classify(spectrum51, c)), c=c)
        d = density_curve(p, default_grid(p, 1500), eta)
        inside = np.flatnonzero(d.values > 1e-2 * d.values.max())
        picked = inside[np.linspace(0, len(inside) - 1, 20).astype(int)]
        z0 = 1 - 1 / c
        for j in picked:
            z = complex(d.grid[j], eta)
            (m,) = [r for r in poly_roots(polynomial_coefficients(p, z)) if (r + z0 / z).imag > 0]
            expected = (m + p.zero_mass / z).imag / math.pi
            assert d.values[j] == pytest.approx(expected, rel=1e-8)


def complex_g(ct, w, a, z, u, v):
    """_g's sums in plain complex arithmetic, block for block as _g takes them."""
    import isoedf.rmt as rmt

    g, dg = np.empty_like(v), np.empty_like(v)
    size = max(1, rmt._BLOCK_ELEMENTS // len(ct))
    for lo in range(0, len(v), size):
        t = ct * v[lo : lo + size]
        t += 1
        np.reciprocal(t, out=t)
        g[lo : lo + size] = rmt._row_times(w.T, t)
        t *= t
        dg[lo : lo + size] = rmt._row_times((ct * w).T, t)
    return z * u - a + g, z - dg


@pytest.mark.parametrize("c", [1e-300, 0.25, 1.0, 1.5, 1e16])
def test_g_has_the_bits_of_plain_complex_arithmetic(c):
    # _g forms c t v as one real product on the (re, im) pairs of v, which
    # is the complex product exactly while Im v > 0, and G in place
    import isoedf.rmt as rmt

    rng = np.random.default_rng(20161026)
    points = rmt._BLOCK_ELEMENTS // 4 + 1  # above _BLOCK_ELEMENTS with 4 atoms or more
    measures = [
        measure_from(np.sort(rng.uniform(0.05, 20.0, 300)), rng.dirichlet(np.ones(300))),
        measure_from([0.0, 0.5, 1.0, 4.0], rng.dirichlet(np.ones(4))),
        random_problem(rng, clustered=True).measure,
    ]
    for measure in measures:
        ct, w, a, b = rmt._columns(FmcProblem(measure=measure, c=c))
        z = rng.uniform(-1.0, 50.0, points) + 1j * np.exp(rng.uniform(-20.0, 2.0, points))
        u = rng.normal(0.0, 2.0, points) + 1j * rng.exponential(1.0, points)
        v = u + b / z
        assert np.all(v.imag > 0)
        g, dg = rmt._g(ct, w, a, z, u, v)
        expected_g, expected_dg = complex_g(ct, w, a, z, u, v)
        assert np.array_equal(g, expected_g) and np.array_equal(dg, expected_dg)


class TestMemoryBound:
    """_g sums G and G' over at most _BLOCK_ELEMENTS atoms x points at a time."""

    @staticmethod
    def full_256(monkeypatch, block):
        """The full N = 256, c = 1 curve at the given bound, and the widest array summed."""
        import isoedf.rmt as rmt
        from isoedf import ArrayNoiseConfig

        widest = []
        real_row_times = rmt._row_times

        def watched(row, t):
            widest.append(t.shape)
            return real_row_times(row, t)

        with monkeypatch.context() as m:
            if block is not None:
                m.setattr(rmt, "_BLOCK_ELEMENTS", block)
            m.setattr(rmt, "_row_times", watched)
            d = predict_edf(ArrayNoiseConfig(256), 1.0, mode="full").density
        return d.values, max(widest, key=lambda shape: shape[0] * shape[1])

    def test_the_default_bound_holds(self, monkeypatch):
        import isoedf.rmt as rmt

        _, (atoms, points) = self.full_256(monkeypatch, None)
        assert atoms == 256 and points > 1
        assert atoms * points <= rmt._BLOCK_ELEMENTS

    @pytest.mark.parametrize("block", [1, 300, 2**30])
    def test_any_bound_gives_the_same_curve(self, monkeypatch, block):
        expected, _ = self.full_256(monkeypatch, None)
        values, (atoms, points) = self.full_256(monkeypatch, block)
        # a bound below one column still sums one point at a time
        assert points <= max(1, block // atoms)
        atol = 1e-15 * max(1.0, expected.max())
        np.testing.assert_allclose(values, expected, rtol=0, atol=atol)


class TestSmallAspectRatio:
    """Small c: G(u) has no term of size 1/c that rounding could cancel."""

    @pytest.mark.parametrize(
        "n, c",
        [(12, 2e-6), (51, 1e-6), (256, 1e-7), (1024, 1e-8), (12, 1e-100), (51, 1e-200)],
    )
    def test_reduced_predictions(self, n, c):
        from isoedf import ArrayNoiseConfig

        values = predict_edf(ArrayNoiseConfig(n=n), c).density.values
        assert np.all(np.isfinite(values)) and np.all(values >= 0)
        assert values.max() > 0

    def test_density_equals_enumeration_across_the_top_band(self):
        from isoedf import ArrayNoiseConfig, classify, ensemble_spectrum, reduce

        c = 2e-6
        p = FmcProblem(measure=reduce(classify(ensemble_spectrum(ArrayNoiseConfig(n=12)), c)), c=c)
        t = p.measure.locations[-1]
        grid = np.linspace(t * (1 - math.sqrt(c)) ** 2, t * (1 + math.sqrt(c)) ** 2, 40)
        d = density_curve(p, grid)
        ref = [stieltjes_by_enumeration(p, complex(x, d.eta)) for x in grid]
        atol = 1e-12 * max(1.0, d.values.max())
        np.testing.assert_allclose(d.values, np.imag(ref) / math.pi, rtol=0, atol=atol)

    def test_newton_stops_within_its_iteration_cap(self, monkeypatch):
        # points at G's rounding floor used to cycle through 100 iterations
        # each: this prediction made 114 calls of _g then, 34 with a cap of 20
        import isoedf.rmt as rmt
        from isoedf import ArrayNoiseConfig

        cfg = ArrayNoiseConfig(n=12)
        predict_edf(cfg, 1e-5)  # the spectrum is cached before counting
        calls = []
        real_g = rmt._g

        def counting(*args):
            calls.append(1)
            return real_g(*args)

        monkeypatch.setattr(rmt, "_g", counting)
        predict_edf(cfg, 1e-5)
        assert len(calls) <= 40

    def test_smallest_ratios(self):
        # at these c the tangent cancels two terms of order 1/c exactly, which
        # holds only where G' is Newton's own: the tangent is formed at the
        # solved points, and only it is interpolated
        from isoedf import ArrayNoiseConfig

        for k in range(-307, -199):
            values = predict_edf(ArrayNoiseConfig(n=51), 10.0**k, points=200).density.values
            assert np.all(np.isfinite(values)) and np.all(values >= 0)

    def test_enumeration_with_a_subnormal_leading_coefficient(self, spectrum51):
        from isoedf import classify, reduce

        # the leading coefficient is 1.3e-318 and the largest 2.2e-25
        p = FmcProblem(measure=reduce(classify(spectrum51, 1e-6)), c=1e-6)
        z = 0.5 + 1e-6j
        assert abs(polynomial_coefficients(p, z)[-1]) < 1e-300
        m = stieltjes_at(p, z)
        assert stieltjes_by_enumeration(p, z) == pytest.approx(m, rel=1e-12)


class TestLargeAspectRatio:
    """Large c: Newton's step is measured against the continuous part's mass 1/c."""

    @pytest.mark.parametrize("c", [1e5, 1e6, 1e7, 1e9, 1e12, 1e16])
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    @pytest.mark.parametrize("n", [12, 51])
    def test_predictions(self, n, mode, c):
        # c = 1e6 and 1e7 used to stop Newton short of the root at the first
        # grid point, where |u| ~ 1/c, and fail the residual test
        from isoedf import ArrayNoiseConfig

        d = predict_edf(ArrayNoiseConfig(n=n), c, mode=mode, points=200).density
        assert np.all(np.isfinite(d.values)) and np.all(d.values >= 0)

    def test_a_step_that_would_cross_the_real_axis_is_cut(self):
        # Newton's full step takes Im u below 0 here (without the cut the
        # prediction fails with Im u = -1.446e-29 <= 0)
        from isoedf import ArrayNoiseConfig

        d = predict_edf(ArrayNoiseConfig(n=12), 1e8, points=200, eta=1e-9).density
        assert np.all(np.isfinite(d.values)) and np.all(d.values >= 0)


def support_edges(p):
    """Support edges: z(u) at the real critical points of
    z(u) = -1/u + c sum_i w_i t_i / (1 + t_i u), u the companion transform
    (Silverstein & Choi, J. Multivariate Anal. 54, 1995).

    The sign changes of z'(u) are bracketed on a Chebyshev-spaced sample of
    each piece of the real line between the poles -1/t_i and 0, then bisected.
    """
    t, w, c = p.measure.locations, p.measure.weights, p.c

    def dz(u):
        return 1 / u**2 - c * (w * t**2 / (1 + np.multiply.outer(u, t)) ** 2).sum(axis=-1)

    poles = np.unique(np.append(-1 / t[t > 0], 0.0))
    s = (1 - np.cos(np.linspace(0, math.pi, 4001)[1:-1])) / 2
    pieces = [poles[0] / (1 - s), s / (1 - s)]
    pieces += [a + (b - a) * s for a, b in zip(poles, poles[1:])]
    lo, hi = [], []
    for u in pieces:
        up = dz(u) > 0
        k = np.flatnonzero(up[:-1] != up[1:])
        lo.append(u[k])
        hi.append(u[k + 1])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    up = dz(lo) > 0
    for _ in range(200):
        mid = (lo + hi) / 2
        same = (dz(mid) > 0) == up
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    u = (lo + hi) / 2
    return np.sort(-1 / u + c * (w * t / (1 + np.multiply.outer(u, t))).sum(axis=-1))


class TestSupportEdges:
    """Grid points on the exact support edges, where the density has a square-root onset."""

    @staticmethod
    def check_edges(p, edges):
        offsets = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
        grid = np.unique(np.outer(edges, 1 + offsets))
        for eta in (1e-6, 1e-9):
            d = density_curve(p, grid, eta)
            # the samples are Im u/pi, u = m + a/z without the zero atom's pole
            z = grid + 1j * eta
            ref = [stieltjes_by_enumeration(p, zi) + p.zero_mass / zi for zi in z]
            atol = 1e-10 * max(1.0, d.values.max())
            np.testing.assert_allclose(d.values, np.imag(ref) / math.pi, rtol=0, atol=atol)

    @pytest.mark.parametrize("c", [0.01, 0.25, 1.0, 1.5, 100.0])
    def test_single_atom(self, c):
        # edges (1 -+ sqrt(c))^2; at c = 1 the lower one is the origin, off the grid
        edges = support_edges(unit_atom(c))
        expected = [(1 - math.sqrt(c)) ** 2] * (c != 1) + [(1 + math.sqrt(c)) ** 2]
        np.testing.assert_allclose(edges, expected, rtol=1e-12)
        self.check_edges(unit_atom(c), edges)

    @pytest.mark.parametrize("n, c, mode", [(51, 0.25, "reduced"), (51, 1.5, "reduced"), (12, 0.5, "full")])
    def test_ensemble_measures(self, n, c, mode):
        from isoedf import ArrayNoiseConfig, classify, ensemble_spectrum, full_measure, reduce

        spectrum = ensemble_spectrum(ArrayNoiseConfig(n=n))
        measure = reduce(classify(spectrum, c)) if mode == "reduced" else full_measure(spectrum)
        p = FmcProblem(measure=measure, c=c)
        edges = support_edges(p)
        assert len(edges) >= 2
        self.check_edges(p, edges)


@pytest.mark.parametrize("eta", [math.inf, math.nan])
def test_density_curve_rejects_non_finite_eta(eta):
    p = unit_atom(0.25)
    with pytest.raises(ValueError, match="eta must be finite and > 0"):
        density_curve(p, default_grid(p, 32), eta)


@pytest.mark.parametrize("grid", [[1.0, math.inf], [-math.inf, 1.0], [math.nan, 1.0]])
def test_density_curve_rejects_non_finite_grid(grid):
    # an infinite point would start the continuation at Im z = inf, which never shrinks
    with pytest.raises(ValueError, match="grid"):
        density_curve(unit_atom(0.5), np.array(grid))


@pytest.mark.parametrize(
    "grid",
    [[1.0], [[0.5, 1.0], [1.5, 2.0]], [1.0, 0.5], [1.0, 1.0, 2.0], [0.5, math.nan]],
    ids=["one-point", "2-D", "descending", "repeated", "nan"],
)
def test_density_curve_and_density_share_one_grid_rule(grid):
    from isoedf import SpectralDensity

    with pytest.raises(ValueError) as from_curve:
        density_curve(unit_atom(0.5), grid)
    with pytest.raises(ValueError) as from_density:
        SpectralDensity(unit_atom(0.5), grid, 1e-6)
    assert str(from_curve.value) == str(from_density.value)
    assert str(from_curve.value).startswith("grid must be")


@pytest.mark.parametrize(
    "z", [complex(1.0, math.inf), complex(math.inf, 1.0), complex(math.nan, 1.0)]
)
def test_stieltjes_at_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="finite"):
        stieltjes_at(unit_atom(0.5), z)


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_predict_edf_rejects_fewer_than_16_points(c):
    # c = 0.5 takes the uniform default grid, c = 1 the square-root graded one
    from isoedf import ArrayNoiseConfig

    with pytest.raises(ValueError, match=r"points must be an integer in \[16, inf\)"):
        predict_edf(ArrayNoiseConfig(n=12), c, points=15)
