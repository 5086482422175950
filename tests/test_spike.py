import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoedf import AtomicMeasure, EnsembleSpectrum, classify, full_measure, reduce


def spectrum_from(values):
    values = np.sort(np.asarray(values, dtype=float))[::-1]
    return EnsembleSpectrum(values=values)


positive_spectra = st.lists(
    st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=40
).map(spectrum_from)

aspect_ratios = st.floats(min_value=0.01, max_value=4.0)


class TestClassify:
    def test_n51_quarter_ratio_partition(self, spectrum51):
        # thresholds scaled by the background eigenvalue 2/pi
        cls = classify(spectrum51, 0.25)
        g_n = spectrum51.gamma_n
        assert cls.t_low == pytest.approx(g_n * 1.5)
        assert cls.t_high == pytest.approx(g_n * 2.25)
        assert cls.t_high == pytest.approx(1.4324, abs=1e-3)
        assert cls.gamma_mid == pytest.approx(g_n * (1.5 + 2.25) / 2)
        assert cls.gamma_mid == pytest.approx(1.1937, abs=1e-3)
        # the spectrum slides smoothly through the threshold: gammas 4 and 5
        # (1.7798, 1.5759) sit above t_high as well, so five stay distinct
        assert len(cls.gamma_dist) == 5
        assert cls.n_mid == 8
        assert cls.n_low == 38

    def test_n51_half_ratio_partition(self, spectrum51):
        cls = classify(spectrum51, 0.5)
        assert len(cls.gamma_dist) == 3
        assert cls.n_mid == 7
        assert cls.n_low == 41

    def test_all_equal_spectrum(self):
        cls = classify(spectrum_from([2.0, 2.0, 2.0, 2.0]), 0.25)
        assert len(cls.gamma_dist) == 0
        assert cls.n_mid == 0
        assert cls.n_low == 4

    def test_tie_at_lower_threshold_counts_low(self):
        # gamma exactly at gamma_N (1 + sqrt(c)) belongs to the background
        c = 0.25
        cls = classify(spectrum_from([1.5, 1.0]), c)
        assert cls.n_low == 2 and cls.n_mid == 0

    def test_tie_at_upper_threshold_counts_mid(self):
        c = 0.25
        cls = classify(spectrum_from([2.25, 1.0]), c)
        assert len(cls.gamma_dist) == 0 and cls.n_mid == 1

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(ValueError):
            classify(spectrum_from([1.0, 0.0]), 0.25)

    def test_bad_ratio_rejected(self, spectrum51):
        with pytest.raises(ValueError):
            classify(spectrum51, 0.0)
        with pytest.raises(ValueError):
            classify(spectrum51, math.inf)

    @settings(max_examples=100, deadline=None)
    @given(positive_spectra, aspect_ratios)
    def test_partition_complete(self, spectrum, c):
        cls = classify(spectrum, c)
        assert len(cls.gamma_dist) + cls.n_mid + cls.n_low == spectrum.n

    @settings(max_examples=60, deadline=None)
    @given(positive_spectra, aspect_ratios, aspect_ratios)
    def test_distinct_count_monotone_in_c(self, spectrum, c1, c2):
        lo, hi = min(c1, c2), max(c1, c2)
        assert len(classify(spectrum, lo).gamma_dist) >= len(classify(spectrum, hi).gamma_dist)


class TestReduce:
    def test_n51_quarter_ratio_atoms(self, spectrum51):
        measure = reduce(classify(spectrum51, 0.25))
        assert measure.kind == "reduced"
        assert len(measure.atoms) == 7  # 5 distinct + mid + background
        assert math.fsum(measure.weights) == pytest.approx(1.0, abs=1e-12)
        locs = measure.locations
        assert np.all(np.diff(locs) > 0)
        assert locs[0] == spectrum51.gamma_n

    def test_n51_half_ratio_is_five_atoms(self, spectrum51):
        measure = reduce(classify(spectrum51, 0.5))
        assert len(measure.atoms) == 5
        assert sorted(measure.weights)[:3] == [1 / 51] * 3

    def test_collapses_to_single_atom(self):
        spectrum = spectrum_from([2.0, 2.0, 2.0])
        measure = reduce(classify(spectrum, 0.25))
        assert measure.atoms == ((2.0, 1.0),)

    def test_mid_atom_omitted_when_empty(self):
        spectrum = spectrum_from([10.0, 1.0, 1.0])
        measure = reduce(classify(spectrum, 0.04))
        locations = measure.locations
        assert len(measure.atoms) == 2
        assert locations[0] == 1.0 and locations[1] == 10.0

    @settings(max_examples=100, deadline=None)
    @given(positive_spectra, aspect_ratios)
    def test_mass_conserved(self, spectrum, c):
        measure = reduce(classify(spectrum, c))
        assert abs(math.fsum(measure.weights) - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(positive_spectra, aspect_ratios)
    def test_first_moment_drift_bound(self, spectrum, c):
        # collapsed atoms move at most half the collapsed band width
        cls = classify(spectrum, c)
        reduced = reduce(cls)
        full = full_measure(spectrum)
        bound = (cls.t_high - cls.gamma_n) / 2 * (cls.n_mid + cls.n_low) / spectrum.n
        assert abs(reduced.mean - full.mean) <= bound + 1e-9


class TestFullMeasure:
    def test_three_distinct(self):
        measure = full_measure(spectrum_from([3.0, 2.0, 1.0]))
        assert measure.kind == "full"
        assert measure.atoms == ((1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3))

    def test_merges_coincident(self):
        measure = full_measure(spectrum_from([2.0, 2.0]))
        assert measure.atoms == ((2.0, 1.0),)

    def test_n51_generic_spacing(self, spectrum51):
        # neighbouring gaps all exceed the merge tolerance, so nothing merges
        gaps = -np.diff(spectrum51.values)
        assert np.all(gaps > 1e-10 * spectrum51.values[0])
        assert len(full_measure(spectrum51).atoms) == 51

    @settings(max_examples=80, deadline=None)
    @given(positive_spectra)
    def test_mass_conserved(self, spectrum):
        measure = full_measure(spectrum)
        assert abs(math.fsum(measure.weights) - 1.0) <= 1e-12


class TestAtomicMeasureInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=((1.0, 0.5), (2.0, 0.6)), kind="full")

    def test_locations_strictly_increasing(self):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=((2.0, 0.5), (1.0, 0.5)), kind="full")

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_locations_must_be_finite(self, t):
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure(atoms=((1.0, 0.5), (t, 0.5)), kind="full")

    def test_no_zero_weights(self):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=((1.0, 0.0), (2.0, 1.0)), kind="full")

    def test_rejects_an_empty_measure(self):
        with pytest.raises(ValueError, match="at least one atom"):
            AtomicMeasure(atoms=(), kind="full")

    def test_kind_tag(self):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=((1.0, 1.0),), kind="other")
