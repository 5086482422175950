import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoedf import ArrayNoiseConfig, MpParams, bessel_j0, mp_density, zero_atom_mass
from isoedf.specfun import _PP, _PQ, _QP, _QQ, check_ratio

J0_FIRST_ZERO = 2.404825557695773


def j0_series(x: float, terms: int = 40) -> float:
    """Alternating power series sum (-1)^k (x/2)^(2k) / (k!)^2."""
    q = 0.25 * x * x
    total = 1.0
    term = 1.0
    for k in range(1, terms + 1):
        term *= -q / (k * k)
        total += term
    return total


def j0_scalar_loop(x: float) -> float:
    """One value at a time: the series term by term up to |x| = 8, Horner
    on each of the four Hankel polynomials beyond."""
    x = abs(x)
    if x <= 8.0:
        q = 0.25 * x * x
        total = term = 1.0
        for k in range(1, 61):
            term *= -q / (k * k)
            total += term
        return total

    def horner(coef, v):
        ans = 0.0
        for c in coef:
            ans = ans * v + c
        return ans

    q = 25.0 / (x * x)
    p = horner(_PP, q) / horner(_PQ, q)
    s = horner(_QP, q) / horner((1.0, *_QQ), q)
    xn = x - math.pi / 4
    return math.sqrt(2 / math.pi) * (p * math.cos(xn) - 5.0 / x * s * math.sin(xn)) / math.sqrt(x)


class TestBesselJ0:
    def test_array_matches_the_scalar_loop(self):
        xs = np.concatenate([np.linspace(-200.0, 200.0, 4001), 0.5 * np.pi * np.arange(128)])
        expected = np.array([j0_scalar_loop(x) for x in xs])
        np.testing.assert_allclose(bessel_j0(xs), expected, rtol=0, atol=1e-15)
        assert bessel_j0(xs.reshape(-1, 1)).shape == (len(xs), 1)
        assert isinstance(bessel_j0(3.0), float)


    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) <= 1e-9

    def test_at_pi(self):
        assert bessel_j0(math.pi) == pytest.approx(j0_series(math.pi), abs=1e-9)
        assert bessel_j0(math.pi) == pytest.approx(-0.30424, abs=1e-5)

    def test_series_agreement_to_twelve(self):
        for x in np.linspace(0.0, 12.0, 481):
            assert abs(bessel_j0(x) - j0_series(x)) <= 1e-9

    @given(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False))
    def test_parity(self, x):
        assert bessel_j0(x) == bessel_j0(-x)

    def test_wide_range_absolute_error(self):
        # the covariance row takes J0(alpha k) for k < N: out to 2.6e4 at N = 4096, zeta = 1
        k = np.arange(0, 4096, 7)
        rows = [ArrayNoiseConfig(4096, zeta).alpha * k for zeta in (0.5, 1.0)]
        xs = np.concatenate([np.linspace(0.0, 200.0, 1201), *rows])
        with mpmath.workdps(30):
            for x in xs:
                ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
                assert abs(bessel_j0(x) - ref) <= 1e-13, f"x={x}"

    def test_bounded_by_one(self):
        for x in np.linspace(-60, 200, 757):
            assert abs(bessel_j0(x)) <= 1.0 + 1e-15

    def test_past_the_square_overflow(self):
        # above x ~ 1.34e154 x^2 overflows; 25/x^2 -> 0 is the Hankel form's
        # limit, and no RuntimeWarning reaches the suite's error filter
        xs = np.array([1e155, 1e300])
        assert np.all(np.abs(bessel_j0(xs)) <= np.sqrt(2 / (np.pi * xs)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            bessel_j0(bad)


class TestMpParams:
    def test_support(self):
        a, b = MpParams(c=0.25).support
        assert a == pytest.approx(0.25) and b == pytest.approx(2.25)

    def test_scaled_support(self):
        a, b = MpParams(c=0.25, scale=2.0).support
        assert a == pytest.approx(0.5) and b == pytest.approx(4.5)

    @pytest.mark.parametrize(
        "kwargs", [{"c": 0.0}, {"c": -1.0}, {"c": 1.0, "scale": 0.0}, {"c": math.inf}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MpParams(**kwargs)


def mp_reference(x: float, c: float, scale: float = 1.0) -> float:
    """Independent high-precision evaluation of the density formula."""
    with mpmath.workdps(40):
        xm, cm, sm = mpmath.mpf(x), mpmath.mpf(c), mpmath.mpf(scale)
        a = sm * (1 - mpmath.sqrt(cm)) ** 2
        b = sm * (1 + mpmath.sqrt(cm)) ** 2
        if xm <= a or xm >= b:
            return 0.0
        return float(mpmath.sqrt((b - xm) * (xm - a)) / (2 * mpmath.pi * cm * xm * sm))


class TestMpDensity:
    def test_outside_support(self):
        assert mp_density(3.0, MpParams(c=0.25)) == 0.0
        assert mp_density(0.1, MpParams(c=0.25)) == 0.0

    def test_interior_value(self):
        val = mp_density(1.0, MpParams(c=0.25))
        assert val == pytest.approx(mp_reference(1.0, 0.25), rel=1e-12)
        assert val == pytest.approx(0.6164, abs=1e-4)

    def test_edges_vanish(self):
        p = MpParams(c=0.25)
        a, b = p.support
        assert mp_density(a, p) == 0.0
        assert mp_density(b, p) == 0.0

    def test_hard_edge_sentinel(self):
        assert mp_density(0.0, MpParams(c=1.0)) == math.inf

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 1.0, 1.5, 4.0])
    def test_normalization(self, c):
        # square-root-graded trapezoid handles the x^(-1/2) edge at c = 1
        p = MpParams(c=c)
        a, b = p.support
        u = np.linspace(math.sqrt(a) if a > 0 else 1e-9, math.sqrt(b), 50_001)
        x = u * u
        f = np.array([mp_density(v, p) for v in x])
        mass = np.trapezoid(f * 2 * u, u) + zero_atom_mass(c)
        assert mass == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("c,scale", [(0.25, 1.0), (0.5, 2.0), (1.5, 0.7)])
    def test_mean(self, c, scale):
        p = MpParams(c=c, scale=scale)
        a, b = p.support
        u = np.linspace(math.sqrt(a) if a > 0 else 1e-9, math.sqrt(b), 50_001)
        x = u * u
        f = np.array([mp_density(v, p) for v in x])
        mean = np.trapezoid(x * f * 2 * u, u)
        assert mean == pytest.approx(scale, abs=1e-3 * scale)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_scale_is_a_dilation(self, c, scale, frac):
        unit = MpParams(c=c)
        scaled = MpParams(c=c, scale=scale)
        a, b = unit.support
        x = a + frac * (b - a)
        assert mp_density(scale * x, scaled) == pytest.approx(
            mp_density(x, unit) / scale, rel=1e-9, abs=1e-12
        )


class TestZeroAtomMass:
    def test_values(self):
        assert zero_atom_mass(0.25) == 0.0
        assert zero_atom_mass(1.0) == 0.0
        assert zero_atom_mass(1.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, -2.0, math.inf])
    def test_domain(self, c):
        with pytest.raises(ValueError):
            zero_atom_mass(c)

    def test_a_mass_that_rounds_to_one_is_refused(self):
        # at c >= 2^54, 1 - 1/c rounds to 1 and the continuous part has no mass left
        check_ratio(1e16)
        assert zero_atom_mass(1e16) < 1
        with pytest.raises(ValueError, match=r"aspect ratio c = 3\.602879701896397e\+16 "):
            check_ratio(2.0**55)
