import numpy as np
import pytest

import isoedf.report
from isoedf import (
    ArrayNoiseConfig,
    ComparisonReport,
    EmpiricalSpectrum,
    McConfig,
    SpectralDensity,
    compare,
    model_cdf,
    predict_edf,
    run_mc,
)
from test_mc import run_fresh


@pytest.fixture(scope="module")
def density15(cfg51):
    # c = 1.5 carries a zero atom of mass 1/3
    return predict_edf(cfg51, 1.5, points=300).density


class TestModelCdf:
    def test_zero_below_the_origin(self, density15):
        np.testing.assert_array_equal(model_cdf(density15, [-5.0, -1e-12]), 0.0)

    def test_zero_atom_at_the_origin(self, density15):
        # the zero atom plus the continuous part up to the first node; no rescale
        assert model_cdf(density15, 0.0) == pytest.approx(density15.cdf[0], rel=1e-12)
        assert 0 <= density15.cdf[0] - density15.zero_mass <= 1e-6
        assert density15.zero_mass == pytest.approx(1 / 3, abs=1e-12)

    def test_one_at_and_beyond_the_grid_end(self, density15):
        end = density15.grid[-1]
        assert model_cdf(density15, end) == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_array_equal(model_cdf(density15, [end + 1.0, 1e9]), 1.0)

    def test_nondecreasing_along_the_grid(self, density15):
        values = model_cdf(density15, density15.grid)
        assert np.all(np.diff(values) >= 0)

    def test_scalar_input_returns_float(self, density15):
        assert type(model_cdf(density15, 1.0)) is float


def test_density_built_from_lists_matches_one_built_from_arrays():
    # the lists used to be stored as given, and model_cdf raised TypeError on them
    d = predict_edf(ArrayNoiseConfig(n=12), 0.5, points=64).density
    listed = SpectralDensity(d.problem, list(d.grid), d.eta)
    xs = np.linspace(-0.5, 1.2 * d.grid[-1], 41)
    np.testing.assert_array_equal(listed.roots, d.roots)
    np.testing.assert_array_equal(model_cdf(listed, xs), model_cdf(d, xs))
    emp = run_mc(McConfig(ArrayNoiseConfig(n=12), snapshots=24, trials=4, seed=2))
    assert compare(listed, emp) == compare(d, emp)


def test_empirical_spectrum_rejects_an_empty_per_trial():
    # an empty spectrum is refused where it is built, so compare never sees one
    for per_trial in (np.empty((0, 51)), np.empty((3, 0)), np.zeros((2, 4))):
        with pytest.raises(ValueError, match="non-empty"):
            EmpiricalSpectrum(per_trial=per_trial, bins=75)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_spectrum_rejects_a_non_finite_eigenvalue(bad):
    # a NaN or -inf fails the round-off floor, +inf the finite maximum
    with pytest.raises(ValueError, match="negative eigenvalue|finite eigenvalues"):
        EmpiricalSpectrum(per_trial=[[3.0, bad], [1.0, 2.0]], bins=3)


def test_empirical_spectrum_rejects_a_negative_eigenvalue_beyond_round_off():
    # -5 used to be snapped to 0.0 and counted as a rank-deficiency zero
    with pytest.raises(ValueError, match="negative eigenvalue"):
        EmpiricalSpectrum(per_trial=[[3.0, 1.0, -5.0]], bins=3)
    # round-off below 1e-10 of the largest is a zero eigenvalue
    emp = EmpiricalSpectrum(per_trial=[[3.0, 1.0, -1e-12]], bins=3)
    assert emp.pooled.tolist() == [0.0, 1.0, 3.0] and emp.zero_count == 1


@pytest.mark.parametrize("ks,l1,what", [(1.5, 0.1, "ks"), (0.1, -1.0, "l1")])
def test_report_rejects_distances_out_of_range(ks, l1, what):
    with pytest.raises(ValueError, match=what):
        ComparisonReport(ks=ks, l1=l1, zero_mass_model=0.0, zero_frac_empirical=0.0)


def ks_by_unique(model, emp):
    """compare's KS with the distinct pooled values taken by np.unique."""
    pooled = emp.pooled
    xs = np.unique(pooled)
    f_right = model_cdf(model, xs)
    f_left = np.where(xs == 0.0, 0.0, f_right)
    e_right = emp.ecdf(xs)
    e_left = np.searchsorted(pooled, xs, side="left") / len(pooled)
    return max(
        float(np.max(np.abs(f_right - e_right))),
        float(np.max(np.abs(f_left - e_left))),
    )


@pytest.mark.parametrize("snapshots, ties", [(204, False), (34, True)])
def test_compare_reads_the_same_distinct_values_as_unique(cfg51, snapshots, ties):
    # L < N pools N - L exact zeros per trial
    emp = run_mc(McConfig(cfg51, snapshots, trials=40, seed=2))
    assert (len(np.unique(emp.pooled)) < len(emp.pooled)) == ties
    model = predict_edf(cfg51, 51 / snapshots, points=300).density
    assert compare(model, emp).ks == ks_by_unique(model, emp)


def pool_of(values):
    """An EmpiricalSpectrum whose sorted pool is `values`, rows of 2 shuffled."""
    values = np.random.default_rng(3).permutation(values)
    return EmpiricalSpectrum(per_trial=values.reshape(-1, 2), bins=75)


def test_compare_walks_the_pool_chunk_by_chunk_like_unique(density15):
    chunk = isoedf.report._CHUNK
    rng = np.random.default_rng(4)
    spread = rng.uniform(0.01, 1.2 * density15.grid[-1], 3 * chunk)
    straddle = np.sort(spread)
    straddle[chunk - 5 : chunk + 7] = straddle[chunk - 5]  # a run across the first boundary
    pools = {
        "straddling run": straddle,
        # zeros past the end of the second chunk: one comparison, then a walk from mid-chunk
        "long zero run": np.concatenate([np.zeros(2 * chunk + 100), spread[: chunk // 2]]),
        "ends on a boundary": spread[: 2 * chunk],
        # each value ten times: runs of ten, some across boundaries
        "tens": np.repeat(spread[: 3 * chunk // 10], 10),
        # the ECDF climbs to 0.98 through a narrow cluster that fills the first
        # chunk, so the sup sits at the chunk's last value
        "cluster": np.concatenate([0.1 + 1e-9 * np.arange(chunk), np.sort(spread)[-100:]]),
    }
    for name, values in pools.items():
        emp = pool_of(values)
        assert len(emp.pooled) > chunk, name
        assert compare(density15, emp).ks == ks_by_unique(density15, emp), name
    assert pool_of(pools["long zero run"]).zero_count > 2 * chunk
    assert len(pools["ends on a boundary"]) % chunk == 0


def test_compare_peak_is_below_one_pool():
    # a fresh interpreter, so that a module compare imports on first use would
    # be counted; model.cdf is read before tracing, so that its one-time
    # solve (about 1 MB) is not.  The peak is a few arrays of one 4096-value
    # chunk, 0.17 MB, below the 0.20 MB of 25 500 pooled values and the same
    # for ten times as many
    out = run_fresh(
        "import tracemalloc\n"
        "import numpy as np\n"
        "from isoedf import ArrayNoiseConfig, EmpiricalSpectrum, McConfig, compare, predict_edf, run_mc\n"
        "cfg = ArrayNoiseConfig(51)\n"
        "emp = run_mc(McConfig(cfg, 204, trials=500, seed=1))\n"
        "big = EmpiricalSpectrum(np.random.default_rng(1).uniform(0, 4, (5000, 51)), 75)\n"
        "model = predict_edf(cfg, 0.25).density\n"
        "model.cdf\n"
        "for pool in (emp, big):\n"
        "    tracemalloc.start()\n"
        "    compare(model, pool)\n"
        "    print(tracemalloc.get_traced_memory()[1], pool.pooled.nbytes)\n"
        "    tracemalloc.stop()\n"
    )
    (peak, pool), (big_peak, big_pool) = [map(int, line.split()) for line in out.splitlines()]
    assert big_pool == 10 * pool
    assert peak < pool and big_peak < pool
