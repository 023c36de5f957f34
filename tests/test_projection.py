import numpy as np
import pytest

from qefilters import (
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    FilterBankParams,
    Hypercube,
    WavelengthRange,
    apply_filter_bank,
    backward,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)
from qefilters.projection import _contract_channels

HYKO = WavelengthRange(470.0, 630.0)


def make_cube(seed, b, c, h, w):
    rng = np.random.default_rng(seed)
    wl = np.linspace(470.0, 630.0, c)
    return Hypercube(rng.random((b, c, h, w)), wl)


def loss_of(table, cube, lam, upstream):
    bank = FilterBankParams(table, HYKO)
    resp = evaluate_filter_bank(bank, lam)
    reduced = apply_filter_bank(cube, resp)
    return float(np.sum(upstream * reduced.data))


class TestHypercube:
    def test_validates_wavelength_order(self):
        with pytest.raises(DataError):
            Hypercube(np.zeros((1, 3, 2, 2)), [500.0, 490.0, 510.0])

    def test_validates_finiteness(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError):
            Hypercube(data, [500.0, 510.0])

    def test_wavelength_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            Hypercube(np.zeros((1, 3, 2, 2)), [500.0, 510.0])


class TestContractChannels:
    @staticmethod
    def check(matrix, x):
        expected = np.einsum("fc,bchw->bfhw", matrix, x)
        np.testing.assert_allclose(_contract_channels(matrix, x), expected, rtol=1e-12, atol=0)

    def test_non_contiguous_cube_views(self):
        rng = np.random.default_rng(0)
        data = rng.random((5, 12, 7, 9))
        self.check(rng.random((3, 6)), data[:, ::2])
        self.check(rng.random((3, 12)), data[[4, 1]])
        self.check(rng.random((2, 12)), data[1:4, :, 2:, ::3])

    def test_transposed_weight(self):
        rng = np.random.default_rng(1)
        weight = rng.random((6, 4))
        assert not weight.T.flags.c_contiguous
        self.check(weight.T, rng.random((2, 6, 5, 3)))

    def test_single_image_and_single_filter(self):
        rng = np.random.default_rng(2)
        self.check(rng.random((3, 5)), rng.random((1, 5, 4, 6)))
        self.check(rng.random((1, 5)), rng.random((3, 5, 4, 6)))
        self.check(rng.random((1, 5)), rng.random((1, 5, 1, 1)))


class TestApplyFilterBank:
    def test_one_hot_row_selects_channel(self):
        cube = make_cube(0, 2, 3, 2, 2)
        bank = init_filter_bank(1, 1, HYKO, seed=0)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        resp.weights = np.array([[1.0, 0.0, 0.0]])
        out = apply_filter_bank(cube, resp)
        np.testing.assert_array_equal(out.data[:, 0], cube.data[:, 0])

    def test_zero_weights_zero_output(self):
        cube = make_cube(1, 1, 4, 3, 3)
        bank = init_filter_bank(2, 1, HYKO, seed=1)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        resp.weights = np.zeros_like(resp.weights)
        assert np.all(apply_filter_bank(cube, resp).data == 0.0)

    def test_matches_scalar_oracle(self):
        cube = make_cube(3, 1, 3, 1, 1)
        bank = init_filter_bank(2, 1, HYKO, seed=2)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        out = apply_filter_bank(cube, resp).data
        for f in range(2):
            expected = 0.0
            for c in range(3):
                expected += resp.weights[f, c] * cube.data[0, c, 0, 0]
            assert out[0, f, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_channel_mismatch_raises(self):
        cube = make_cube(4, 1, 4, 2, 2)
        bank = init_filter_bank(2, 1, HYKO, seed=3)
        resp = evaluate_filter_bank(bank, np.linspace(0, 1, 6))
        with pytest.raises(DimensionMismatchError):
            apply_filter_bank(cube, resp)

    def test_requires_reduction(self):
        cube = make_cube(5, 1, 3, 2, 2)
        bank = init_filter_bank(3, 1, HYKO, seed=4)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        with pytest.raises(ConfigurationError):
            apply_filter_bank(cube, resp)


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        cube = make_cube(6, 1, 5, 2, 2)
        bank = init_filter_bank(2, 2, HYKO, seed=5)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        grads, _ = backward(cube, resp, np.zeros((1, 2, 2, 2)))
        assert np.all(grads.table == 0.0)

    def test_symmetric_setup_zero_centroid_gradient(self):
        # Grid symmetric about the centroid, zero skew, channel-uniform data
        # and upstream: contributions cancel pairwise.
        lam = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        table = np.array([[[0.3, np.log(0.1), 0.4, 0.0]]])
        bank = FilterBankParams(table, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        wl = 470.0 + lam * 160.0
        cube = Hypercube(np.ones((1, 5, 2, 2)), wl)
        upstream = np.full((1, 1, 2, 2), 0.7)
        grads, _ = backward(cube, resp, upstream)
        assert abs(grads.centroid[0, 0]) < 1e-12

    def test_matches_finite_differences(self):
        cube = make_cube(7, 1, 6, 2, 2)
        rng = np.random.default_rng(8)
        bank = init_filter_bank(2, 2, HYKO, seed=6)
        table = bank.table.copy()
        table[:, :, 3] = rng.normal(0, 1, (2, 2))
        bank = FilterBankParams(table, HYKO)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        upstream = rng.normal(size=(1, 2, 2, 2))
        grads, _ = backward(cube, resp, upstream)
        step = 1e-5
        for f in range(2):
            for p in range(2):
                for s in range(4):
                    plus = bank.table.copy()
                    plus[f, p, s] += step
                    minus = bank.table.copy()
                    minus[f, p, s] -= step
                    fd = (loss_of(plus, cube, lam, upstream) - loss_of(minus, cube, lam, upstream)) / (2 * step)
                    rel = abs(grads.table[f, p, s] - fd) / (abs(fd) + 1e-8)
                    assert rel < 1e-4, (f, p, s, grads.table[f, p, s], fd)

    def test_linear_in_upstream(self):
        cube = make_cube(9, 2, 5, 3, 3)
        bank = init_filter_bank(2, 1, HYKO, seed=7)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        rng = np.random.default_rng(10)
        g1 = rng.normal(size=(2, 2, 3, 3))
        g2 = rng.normal(size=(2, 2, 3, 3))
        a, _ = backward(cube, resp, g1)
        b, _ = backward(cube, resp, g2)
        both, _ = backward(cube, resp, g1 + g2)
        np.testing.assert_allclose(both.table, a.table + b.table, rtol=1e-12, atol=1e-14)

    def test_extreme_parameters_finite(self):
        cube = make_cube(11, 1, 15, 2, 2)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        table = np.array(
            [
                [[0.2, np.log(1e-3), 40.0, 3.0]],
                [[0.9, np.log(1e-3), -40.0, -3.0]],
            ]
        )
        bank = FilterBankParams(table, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        grads, input_grad = backward(cube, resp, np.ones((1, 2, 2, 2)), compute_input_grad=True)
        assert np.all(np.isfinite(grads.table))
        assert np.all(np.isfinite(input_grad))

    def test_underflowed_bandwidth_still_finite(self):
        cube = make_cube(12, 1, 8, 2, 2)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        table = np.array([[[0.5, -800.0, 0.0, 1.0]], [[0.2, np.log(0.05), 0.0, 0.0]]])
        bank = FilterBankParams(table, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        grads, _ = backward(cube, resp, np.ones((1, 2, 2, 2)))
        assert np.all(np.isfinite(grads.table))

    def test_input_gradient_matches_finite_differences(self):
        cube = make_cube(13, 1, 4, 2, 2)
        bank = init_filter_bank(2, 1, HYKO, seed=9)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        rng = np.random.default_rng(14)
        upstream = rng.normal(size=(1, 2, 2, 2))
        _, input_grad = backward(cube, resp, upstream, compute_input_grad=True)
        step = 1e-6
        idx = (0, 2, 1, 0)
        plus = cube.data.copy()
        plus[idx] += step
        minus = cube.data.copy()
        minus[idx] -= step
        f_plus = np.sum(upstream * apply_filter_bank(Hypercube(plus, cube.wavelengths_nm), resp).data)
        f_minus = np.sum(upstream * apply_filter_bank(Hypercube(minus, cube.wavelengths_nm), resp).data)
        fd = (f_plus - f_minus) / (2 * step)
        assert input_grad[idx] == pytest.approx(fd, rel=1e-6)

    def test_shape_mismatch_raises(self):
        cube = make_cube(15, 1, 5, 2, 2)
        bank = init_filter_bank(2, 1, HYKO, seed=10)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        with pytest.raises(DimensionMismatchError):
            backward(cube, resp, np.zeros((1, 3, 2, 2)))
