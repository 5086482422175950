import numpy as np
import pytest

from isoedf import model_cdf, predict_edf


@pytest.fixture(scope="module")
def density15(cfg51):
    # c = 1.5 carries a zero atom of mass 1/3
    return predict_edf(cfg51, 1.5, points=300).density


class TestModelCdf:
    def test_zero_below_the_origin(self, density15):
        np.testing.assert_array_equal(model_cdf(density15, [-5.0, -1e-12]), 0.0)

    def test_zero_atom_at_the_origin(self, density15):
        total = density15.total_mass
        assert model_cdf(density15, 0.0) == pytest.approx(density15.zero_mass / total, rel=1e-12)
        assert density15.zero_mass == pytest.approx(1 / 3, abs=1e-12)

    def test_one_at_and_beyond_the_grid_end(self, density15):
        end = density15.grid[-1]
        np.testing.assert_array_equal(model_cdf(density15, [end, end + 1.0, 1e9]), 1.0)

    def test_nondecreasing_along_the_grid(self, density15):
        values = model_cdf(density15, density15.grid)
        assert np.all(np.diff(values) >= 0)

    def test_scalar_input_returns_float(self, density15):
        assert type(model_cdf(density15, 1.0)) is float
