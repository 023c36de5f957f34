import numpy as np
import pytest

from qefilters.filterbank import EPSILON, FilterBankParams, WavelengthRange, init_filter_bank
from qefilters.regularization import (
    RegConfig,
    RegLosses,
    bandwidth_loss,
    dominance_loss,
    separation_loss,
    total_reg,
)
from qefilters.errors import ConfigurationError
from qefilters.regularization import BETA_MAX, BETA_MIN, R_MAX

from oracles import lobe_certificates

HYKO = WavelengthRange(470.0, 630.0)


def logit(a):
    return float(np.log(a / (1.0 - a)))


def bank_from(centroids, bandwidths, amplitudes, skews=None):
    centroids = np.asarray(centroids, dtype=float)
    num_filters, peaks = centroids.shape
    skews = np.zeros_like(centroids) if skews is None else np.asarray(skews, dtype=float)
    table = np.stack(
        [
            centroids,
            np.log(np.asarray(bandwidths, dtype=float)),
            np.vectorize(logit)(np.asarray(amplitudes, dtype=float)),
            skews,
        ],
        axis=2,
    )
    return FilterBankParams(table, HYKO)


class TestDominance:
    def test_single_peak_is_zero(self):
        bank = bank_from([[0.5]], [[0.1]], [[0.9]])
        value, grads = dominance_loss(bank, 0.3)
        assert value == 0.0
        assert np.all(grads == 0.0)

    def test_worked_active_case(self):
        bank = bank_from([[0.2, 0.8]], [[0.1, 0.1]], [[0.8, 0.5]])
        value, _ = dominance_loss(bank, 0.3)
        expected = max(0.5 / (0.8 + 1e-8) - 0.3, 0.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.325, abs=1e-8)

    def test_worked_inactive_case(self):
        bank = bank_from([[0.2, 0.8]], [[0.1, 0.1]], [[0.8, 0.2]])
        value, grads = dominance_loss(bank, 0.3)
        assert value == 0.0
        assert np.all(grads == 0.0)

    def test_monotone_in_secondary_amplitude(self):
        values = []
        for secondary in (0.4, 0.5, 0.6, 0.7):
            bank = bank_from([[0.2, 0.8]], [[0.1, 0.1]], [[0.8, secondary]])
            values.append(dominance_loss(bank, 0.3)[0])
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSeparation:
    def test_single_filter_zero(self):
        bank = bank_from([[0.5]], [[0.1]], [[0.7]])
        assert separation_loss(bank, 0.1)[0] == 0.0

    def test_well_separated_zero(self):
        bank = bank_from([[0.2], [0.8]], [[0.1], [0.1]], [[0.7], [0.7]])
        value, grads = separation_loss(bank, 0.1)
        assert value == 0.0
        assert np.all(grads == 0.0)

    def test_worked_value(self):
        bank = bank_from([[0.50], [0.55]], [[0.1], [0.1]], [[0.7], [0.7]])
        value, _ = separation_loss(bank, 0.1)
        # both ordered pairs contribute ReLU(0.1 - 0.05) / F^2
        assert value == pytest.approx((0.05 + 0.05) / 4.0, abs=1e-15)
        assert value == pytest.approx(0.025, abs=1e-12)

    def test_strictly_increasing_as_centroids_approach(self):
        gaps = (0.09, 0.06, 0.03, 0.01)
        values = []
        for gap in gaps:
            bank = bank_from([[0.5], [0.5 + gap]], [[0.1], [0.1]], [[0.7], [0.7]])
            values.append(separation_loss(bank, 0.1)[0])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_uses_dominant_peak_centroid(self):
        # Dominant peaks far apart even though secondary centroids collide.
        bank = bank_from(
            [[0.2, 0.5], [0.8, 0.5]],
            [[0.1, 0.1], [0.1, 0.1]],
            [[0.9, 0.2], [0.9, 0.2]],
        )
        assert separation_loss(bank, 0.1)[0] == 0.0


class TestBandwidth:
    def test_inside_bounds_zero(self):
        bank = bank_from([[0.5]], [[0.10]], [[0.7]])
        value, grads = bandwidth_loss(bank, 0.03, 0.25)
        assert value == 0.0
        assert np.all(grads == 0.0)

    def test_worked_values(self):
        wide = bank_from([[0.5]], [[0.30]], [[0.7]])
        assert bandwidth_loss(wide, 0.03, 0.25)[0] == pytest.approx(0.05, abs=1e-12)
        narrow = bank_from([[0.5]], [[0.01]], [[0.7]])
        assert bandwidth_loss(narrow, 0.03, 0.25)[0] == pytest.approx(0.02, abs=1e-12)


class TestRegLosses:
    def test_total_sums_terms_in_order(self):
        assert RegLosses(0.0, 0.0, 0.0).total == 0.0
        # the order is visible in the last bit: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert RegLosses(0.1, 0.2, 0.3).total == (0.1 + 0.2) + 0.3
        assert RegLosses(0.1, 0.2, 0.3).total != 0.1 + (0.2 + 0.3)


class TestTotal:
    def test_sum_identity(self):
        bank = bank_from(
            [[0.50, 0.2], [0.55, 0.9]],
            [[0.30, 0.1], [0.01, 0.1]],
            [[0.8, 0.5], [0.8, 0.2]],
        )
        losses, grads = total_reg(bank, RegConfig())
        assert losses.total == losses.dominance + losses.separation + losses.bandwidth
        parts = [
            dominance_loss(bank, 0.3)[1],
            separation_loss(bank, 0.1)[1],
            bandwidth_loss(bank, 0.03, 0.25)[1],
        ]
        np.testing.assert_array_equal(grads, sum(parts))

    def test_worked_combination(self):
        # dominance 0.325, separation 0.025, bandwidth 0.05
        bank = bank_from(
            [[0.50, 0.2], [0.55, 0.9]],
            [[0.30, 0.1], [0.10, 0.1]],
            [[0.8, 0.5], [0.9, 0.2]],
        )
        losses, _ = total_reg(bank, RegConfig())
        assert losses.dominance == pytest.approx(0.325 / 2, abs=1e-8)  # averaged over F=2
        assert losses.total == pytest.approx(
            losses.dominance + losses.separation + losses.bandwidth, abs=1e-15
        )

    def test_component_toggles(self):
        bank = bank_from(
            [[0.50, 0.2], [0.55, 0.9]],
            [[0.30, 0.1], [0.01, 0.1]],
            [[0.8, 0.5], [0.8, 0.2]],
        )
        full, _ = total_reg(bank, RegConfig())
        only_sep, grads_sep = total_reg(bank, RegConfig(enabled=("separation",)))
        assert only_sep.dominance == 0.0 and only_sep.bandwidth == 0.0
        assert only_sep.separation == full.separation
        np.testing.assert_array_equal(grads_sep, separation_loss(bank, 0.1)[1])
        none, grads_none = total_reg(bank, RegConfig(enabled=()))
        assert none.total == 0.0
        assert np.all(grads_none == 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RegConfig(enabled=("dominance", "sharpness"))
        with pytest.raises(ConfigurationError):
            RegConfig(lambda_reg=-0.1)


class TestLobeCertificate:
    """What the penalties bound: peak parameters, not the summed curve's lobes."""

    def test_symmetric_single_peak(self):
        (cert,) = lobe_certificates(bank_from([[0.5]], [[0.05]], [[0.9]]))
        assert cert.maxima_nm == pytest.approx((550.0,), abs=0.01)
        assert cert.second_over_first == 0.0
        assert cert.fwhm_nm == pytest.approx(2 * np.sqrt(2 * np.log(2)) * 0.05 * HYKO.span_nm, rel=1e-6)
        assert cert.peak_inside

    def test_peak_outside_the_range(self):
        (cert,) = lobe_certificates(bank_from([[1.2]], [[0.05]], [[0.9]]))
        assert cert.maxima_nm == ()
        assert cert.second_over_first == 0.0
        assert cert.fwhm_nm == pytest.approx(2 * np.sqrt(2 * np.log(2)) * 0.05 * HYKO.span_nm, rel=1e-6)
        assert not cert.peak_inside

    def test_two_lobes_pass_the_dominance_penalty(self):
        # A secondary peak of 0.2 / 0.75 = 0.27 of the dominant amplitude is
        # under R_MAX, but skewed towards each other the two sum to a curve
        # with two maxima of nearly equal height.
        bank = bank_from([[0.1, 0.25]], [[0.1, 0.1]], [[0.2, 0.75]], skews=[[1.5, 1.5]])
        (cert,) = lobe_certificates(bank)
        positions = (np.array(cert.maxima_nm) - HYKO.start_nm) / HYKO.span_nm
        np.testing.assert_allclose(positions, [0.171, 0.231], atol=5e-4)
        assert cert.second_over_first == pytest.approx(0.9987, abs=1e-4)
        assert cert.second_over_first > R_MAX
        assert dominance_loss(bank, R_MAX)[0] == 0.0
        assert cert.peak_inside


def away_from_kinks(bank, cfg, margin=1e-3):
    amplitude = bank.amplitudes
    num_filters, peaks = amplitude.shape
    star = bank.dominant_peaks()
    if peaks >= 2:
        for f in range(num_filters):
            top = np.sort(amplitude[f])[::-1]
            if top[0] - top[1] < margin:
                return False
            if abs(top[1] / (top[0] + EPSILON) - R_MAX) < margin:
                return False
    centroids = bank.centroids[np.arange(num_filters), star]
    for f in range(num_filters):
        for k in range(f + 1, num_filters):
            gap = abs(centroids[f] - centroids[k])
            if gap < margin or abs(gap - cfg.d_min) < margin:
                return False
    beta = bank.bandwidths[np.arange(num_filters), star]
    if np.any(np.abs(beta - BETA_MIN) < margin) or np.any(np.abs(beta - BETA_MAX) < margin):
        return False
    return True


def test_gradients_match_finite_differences_away_from_kinks():
    cfg = RegConfig()
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 15:
        num_filters = int(rng.integers(1, 4))
        peaks = int(rng.integers(1, 4))
        bank = init_filter_bank(num_filters, peaks, HYKO, seed=int(rng.integers(100_000)))
        table = bank.table.copy()
        table[:, :, 1] += rng.normal(0, 1.0, (num_filters, peaks))
        table[:, :, 3] = rng.normal(0, 1.0, (num_filters, peaks))
        bank = FilterBankParams(table, HYKO)
        if not away_from_kinks(bank, cfg):
            continue
        checked += 1
        _, grads = total_reg(bank, cfg)
        step = 1e-6
        for f in range(num_filters):
            for p in range(peaks):
                for s in range(4):
                    plus = bank.table.copy()
                    plus[f, p, s] += step
                    minus = bank.table.copy()
                    minus[f, p, s] -= step
                    l_plus, _ = total_reg(FilterBankParams(plus, HYKO), cfg)
                    l_minus, _ = total_reg(FilterBankParams(minus, HYKO), cfg)
                    fd = (l_plus.total - l_minus.total) / (2 * step)
                    rel = abs(grads[f, p, s] - fd) / (abs(fd) + 1e-8)
                    assert rel < 1e-4
