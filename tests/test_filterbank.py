import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qefilters import (
    ConfigurationError,
    DataError,
    FilterBankParams,
    WavelengthRange,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)

from oracles import PeakParams, bank_peaks, peak_response

HYKO = WavelengthRange(470.0, 630.0)


def scalar_filter_oracle(filters, lam):
    """Brute-force scalar evaluation of the response pipeline, all loops."""
    import math

    out = []
    for peaks in filters:
        raw = []
        for lam_c in lam:
            total = 0.0
            for peak in peaks:
                beta = math.exp(peak.log_bandwidth)
                a = 1.0 / (1.0 + math.exp(-peak.amplitude_logit))
                s = 0.5 * math.tanh(peak.skewness_raw)
                x = (lam_c - peak.centroid) / beta
                x_skew = x * (1.0 + s * math.tanh(x))
                total += a * math.exp(-0.5 * x_skew**2)
            raw.append(total)
        m = max(raw)
        out.append([v / (m + 1e-8) for v in raw])
    return np.array(out)


class TestWavelengthRange:
    def test_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            WavelengthRange(630.0, 470.0)
        with pytest.raises(ConfigurationError):
            WavelengthRange(500.0, 500.0)


class TestNormalizeWavelengths:
    def test_endpoints_and_midpoint(self):
        lam = normalize_wavelengths([470.0, 550.0, 630.0], HYKO)
        assert lam[0] == 0.0
        assert lam[2] == 1.0
        assert lam[1] == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range_names_channel(self):
        with pytest.raises(DataError, match="channel 1"):
            normalize_wavelengths([470.0, 640.0], HYKO)
        with pytest.raises(DataError, match="channel 0"):
            normalize_wavelengths([400.0, 500.0], HYKO)

    def test_nan_wavelength_is_out_of_range(self):
        with pytest.raises(DataError, match="channel 0 at nan nm"):
            normalize_wavelengths([np.nan, 500.0], HYKO)

    @given(st.lists(st.floats(470.0, 630.0), min_size=1, max_size=40))
    def test_outputs_in_unit_interval_order_preserved(self, wavelengths):
        lam = normalize_wavelengths(wavelengths, HYKO)
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert np.array_equal(np.argsort(lam, kind="stable"), np.argsort(wavelengths, kind="stable"))


class TestInit:
    def test_parameter_counts(self):
        assert init_filter_bank(3, 1, HYKO, seed=0).num_parameters == 12
        assert init_filter_bank(3, 3, HYKO, seed=0).num_parameters == 36

    @pytest.mark.parametrize("num_filters,peaks", [(1, 1), (2, 3), (7, 2)])
    def test_count_contract(self, num_filters, peaks):
        bank = init_filter_bank(num_filters, peaks, HYKO, seed=5)
        assert bank.num_parameters == 4 * num_filters * peaks

    def test_initial_distributions(self):
        bank = init_filter_bank(6, 4, HYKO, seed=9)
        assert np.all(bank.bandwidths >= 0.05) and np.all(bank.bandwidths < 0.07)
        assert np.all(bank.skews == 0.0)
        assert np.all(bank.centroids >= 0.0) and np.all(bank.centroids <= 1.0)

    def test_seed_reproducibility(self):
        a = init_filter_bank(3, 2, HYKO, seed=1234)
        b = init_filter_bank(3, 2, HYKO, seed=1234)
        assert np.array_equal(a.table, b.table)
        c = init_filter_bank(3, 2, HYKO, seed=1235)
        assert not np.array_equal(a.table, c.table)

    def test_rejects_empty_bank(self):
        with pytest.raises(ConfigurationError):
            init_filter_bank(0, 1, HYKO, seed=0)
        with pytest.raises(ConfigurationError):
            init_filter_bank(1, 0, HYKO, seed=0)


class TestPeakResponse:
    def test_value_at_centroid_is_amplitude(self):
        # x = 0 kills the skew transform; sigmoid(0) = 0.5
        peak = PeakParams(0.3, np.log(0.07), 0.0, 2.0)
        assert peak_response(peak, 0.3) == pytest.approx(0.5, abs=1e-15)

    def test_zero_skew_is_symmetric(self):
        # dyadic centroid and offsets make lam - c exactly symmetric
        peak = PeakParams(0.5, np.log(0.1), 0.7, 0.0)
        for delta in (0.03125, 0.125, 0.25):
            assert peak_response(peak, 0.5 + delta) == peak_response(peak, 0.5 - delta)
        # general offsets agree to rounding of the inputs
        assert peak_response(peak, 0.5 + 0.017) == pytest.approx(
            peak_response(peak, 0.5 - 0.017), rel=1e-12
        )

    def test_skewed_asymmetry_matches_direct_evaluation(self):
        import math

        peak = PeakParams(0.5, np.log(0.1), 0.0, 2.0)

        def direct(lam):
            beta = math.exp(peak.log_bandwidth)
            a = 1.0 / (1.0 + math.exp(-peak.amplitude_logit))
            s = 0.5 * math.tanh(peak.skewness_raw)
            x = (lam - 0.5) / beta
            return a * math.exp(-0.5 * (x * (1 + s * math.tanh(x))) ** 2)

        hi, lo = peak_response(peak, 0.6), peak_response(peak, 0.4)
        assert hi != lo
        assert np.sign(hi - lo) == np.sign(direct(0.6) - direct(0.4))
        assert hi == pytest.approx(direct(0.6), rel=1e-12)
        assert lo == pytest.approx(direct(0.4), rel=1e-12)

    @given(
        st.floats(-1.0, 2.0),
        st.floats(-5.0, 1.0),
        st.floats(-6.0, 6.0),
        st.floats(-4.0, 4.0),
        st.floats(0.0, 1.0),
    )
    def test_bounded_by_amplitude(self, c, log_bw, alpha, gamma, lam):
        peak = PeakParams(c, log_bw, alpha, gamma)
        g = peak_response(peak, lam)
        assert 0.0 <= g <= peak.amplitude + 1e-15

    @given(st.floats(-4.0, 4.0), st.floats(-3.0, 0.0))
    def test_centroid_anchoring_under_skew(self, gamma, log_bw):
        peak = PeakParams(0.37, log_bw, 1.3, gamma)
        assert peak_response(peak, 0.37) == pytest.approx(peak.amplitude, abs=1e-15)


class TestEvaluateFilterBank:
    def test_centroid_channel_is_row_max(self):
        lam = np.linspace(0.0, 1.0, 11)
        table = np.array([[[lam[4], np.log(0.08), 0.3, 0.0]]])
        resp = evaluate_filter_bank(FilterBankParams(table, HYKO), lam)
        assert resp.argmax_channel[0] == 4
        m = resp.row_max[0]
        assert resp.weights[0, 4] == pytest.approx(m / (m + 1e-8), abs=1e-16)
        assert resp.weights[0, 4] == pytest.approx(1.0, abs=1e-6)

    def test_vanishing_amplitudes_stay_finite(self):
        bank = init_filter_bank(2, 2, HYKO, seed=0)
        table = bank.table.copy()
        table[:, :, 2] = -40.0
        resp = evaluate_filter_bank(FilterBankParams(table, HYKO), np.linspace(0, 1, 15))
        assert np.all(np.isfinite(resp.weights))
        assert np.all(resp.weights < 1e-6)

    def test_matches_scalar_oracle(self):
        bank = init_filter_bank(2, 2, HYKO, seed=7)
        table = bank.table.copy()
        table[:, :, 3] = [[0.5, -1.0], [2.0, 0.0]]  # exercise skew paths
        bank = FilterBankParams(table, HYKO)
        lam = np.linspace(0.0, 1.0, 5)
        resp = evaluate_filter_bank(bank, lam)
        oracle = scalar_filter_oracle(bank_peaks(bank), lam)
        np.testing.assert_allclose(resp.weights, oracle, rtol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3))
    def test_weights_bounded(self, seed, num_filters, peaks):
        bank = init_filter_bank(num_filters, peaks, HYKO, seed=seed)
        resp = evaluate_filter_bank(bank, np.linspace(0, 1, 9))
        assert np.all(resp.weights >= 0.0) and np.all(resp.weights <= 1.0)
        assert np.all(bank.amplitudes > 0.0) and np.all(bank.amplitudes < 1.0)
        assert np.all(np.abs(bank.skews) < 0.5)
        row_max_weight = resp.weights.max(axis=1)
        expected = resp.row_max / (resp.row_max + 1e-8)
        np.testing.assert_allclose(row_max_weight, expected, rtol=0, atol=1e-16)


class TestSerialization:
    def test_json_round_trip_is_lossless(self):
        bank = init_filter_bank(3, 2, HYKO, seed=11)
        # perturb with awkward values
        table = bank.table.copy()
        table[0, 0, 0] = 0.1234567890123456789
        table[1, 1, 1] = -7.000000000000001
        bank = FilterBankParams(table, HYKO)
        restored = FilterBankParams.from_json_dict(json.loads(bank.to_json()))
        assert np.array_equal(restored.table, bank.table)
        assert restored.range == bank.range

    def test_json_layout(self):
        bank = init_filter_bank(2, 1, HYKO, seed=3)
        doc = json.loads(bank.to_json())
        assert set(doc) == {"range", "filters"}
        assert doc["range"] == {"start_nm": 470.0, "end_nm": 630.0}
        assert len(doc["filters"]) == 2
        assert set(doc["filters"][0][0]) == {"c", "log_bw", "alpha", "gamma"}

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterBankParams.from_json_dict({"range": {"start_nm": 1, "end_nm": 2}})
