import json

import numpy as np
import pytest

from qefilters import (
    ConfigurationError,
    DataError,
    Hypercube,
    fit_nmf,
    fit_pca,
    fit_reduction_pipeline,
    project,
)
from qefilters.classical import (
    BandStats,
    LinearProjection,
    PixelSample,
    _standardize,
    fit_band_stats,
    stratified_sample,
)


def labeled_cube(seed, images, h, w, channels=6, num_classes=3):
    rng = np.random.default_rng(seed)
    wl = np.linspace(470.0, 630.0, channels)
    data = rng.random((images, channels, h, w))
    labels = rng.integers(0, num_classes, (images, h, w))
    return Hypercube(data, wl), labels


def power_iteration_eigh(cov, k, iters=20_000, tol=1e-12):
    """Independent eigensolver: power iteration with deflation."""
    cov = cov.copy()
    rng = np.random.default_rng(12345)
    vectors, values = [], []
    for _ in range(k):
        v = rng.normal(size=cov.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            nxt = cov @ v
            norm = np.linalg.norm(nxt)
            if norm == 0:
                break
            nxt = nxt / norm
            if np.linalg.norm(nxt - v) < tol or np.linalg.norm(nxt + v) < tol:
                v = nxt
                break
            v = nxt
        lam = float(v @ cov @ v)
        vectors.append(v)
        values.append(lam)
        cov = cov - lam * np.outer(v, v)
    return np.array(values), np.array(vectors)


class TestStratifiedSample:
    def test_per_class_quota(self):
        cube, labels = labeled_cube(0, 4, 16, 16, num_classes=4)
        sample = stratified_sample([(cube, labels)], 400, seed=1)
        assert np.all(np.bincount(sample.labels) <= 100)
        assert sample.matrix.shape[0] == sample.labels.size
        assert sample.matrix.shape[0] <= 400

    def test_rare_class_fully_taken(self):
        cube, labels = labeled_cube(1, 2, 8, 8)
        labels[:] = 0
        labels[0, 0, :3] = 1  # only 3 pixels of class 1
        sample = stratified_sample([(cube, labels)], 100, seed=0)
        assert np.bincount(sample.labels).tolist() == [50, 3]

    def test_proportional_allocation_between_images(self):
        # Two equal images with a 30/70 split of class 0: draws within +-1.
        wl = np.linspace(470, 630, 4)
        cube_a = Hypercube(np.random.default_rng(2).random((1, 4, 10, 10)), wl)
        cube_b = Hypercube(np.random.default_rng(3).random((1, 4, 10, 10)), wl)
        lab_a = np.full((1, 10, 10), 1)
        lab_b = np.full((1, 10, 10), 1)
        lab_a[0, :3, :] = 0  # 30 pixels
        lab_b[0, :7, :] = 0  # 70 pixels
        quota = 50
        sample = stratified_sample([(cube_a, lab_a), (cube_b, lab_b)], quota * 2, seed=4)
        # oracle: largest-remainder of 50 proportional to (30, 70)
        exact = np.array([50 * 30 / 100, 50 * 70 / 100])
        drawn_a = np.bincount(sample.labels)[0]
        assert drawn_a == quota
        # recover per-image counts by re-running selection logic on labels
        spectra_a = cube_a.data[0, :, :3, :].reshape(4, -1).T
        from_a = sum(
            1
            for row in sample.matrix[sample.labels == 0]
            if any(np.array_equal(row, s) for s in spectra_a)
        )
        assert abs(from_a - exact[0]) <= 1.0

    def test_deterministic_under_seed(self):
        cube, labels = labeled_cube(5, 3, 12, 12)
        a = stratified_sample([(cube, labels)], 200, seed=9)
        b = stratified_sample([(cube, labels)], 200, seed=9)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.labels, b.labels)

    def test_no_labeled_pixels(self):
        from qefilters.metrics import IGNORE_LABEL

        cube, labels = labeled_cube(6, 1, 4, 4)
        with pytest.raises(DataError):
            stratified_sample([(cube, np.full_like(labels, IGNORE_LABEL))], 10, seed=0)

    def test_target_below_class_count(self):
        cube, labels = labeled_cube(7, 1, 4, 4, num_classes=3)
        with pytest.raises(ConfigurationError):
            stratified_sample([(cube, labels)], 2, seed=0)

    def test_negative_label(self):
        cube, labels = labeled_cube(9, 1, 4, 4, num_classes=2)
        labels[0, 1, 2] = -1
        with pytest.raises(DataError, match="label -1 is negative"):
            stratified_sample([(cube, labels)], 20, seed=0)

    def test_non_integer_label(self):
        # Truncated, 1.7 would count as class 1 and never be drawn.
        cube, labels = labeled_cube(8, 1, 4, 4, num_classes=1)
        labels = labels.astype(float)
        labels[0, 0] = 1.7
        with pytest.raises(DataError, match="label 1.7 is not an integer"):
            stratified_sample([(cube, labels)], 20, seed=0)

    # Smaller labels would draw the sample at the wrong pixels; larger ones index past the cube.
    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 5, 5)])
    def test_label_shape_must_match_cube(self, shape):
        cube, _ = labeled_cube(10, 2, 4, 4, channels=5)
        labels = np.zeros(shape, dtype=np.int64)
        with pytest.raises(DataError, match=rf"labels have shape \({shape[0]}, {shape[1]}, {shape[2]}\), not .* \(2, 4, 4\)"):
            stratified_sample([(cube, labels)], 20, seed=0)

    # Unchecked, 5 and 6 channels fail inside np.concatenate and two 5-channel grids pool unlike bands.
    @pytest.mark.parametrize(
        "grid", [np.linspace(470.0, 630.0, 6), np.linspace(700.0, 800.0, 5)], ids=["6-channels", "other-grid"]
    )
    def test_channel_grid_must_match_first_cube(self, grid):
        first = Hypercube(np.random.default_rng(11).random((1, 5, 4, 4)), np.linspace(500.0, 600.0, 5))
        other = Hypercube(np.random.default_rng(12).random((1, grid.size, 4, 4)), grid)
        labels = np.zeros((1, 4, 4), dtype=np.int64)
        with pytest.raises(DataError, match="cube 2's wavelengths_nm differ from cube 0's"):
            stratified_sample([(first, labels), (first, labels), (other, labels)], 20, seed=0)


class TestBandStats:
    def test_constant_band_floored(self):
        matrix = np.ones((10, 3))
        matrix[:, 1] = np.linspace(0, 1, 10)
        sample = PixelSample(matrix, np.zeros(10, dtype=int))
        stats = fit_band_stats(sample)
        assert stats.std[0] == 1e-8
        standardized = _standardize(sample.matrix, stats)
        assert np.all(standardized[:, 0] == 0.0)

    def test_self_standardization(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(3.0, 2.0, (500, 4))
        sample = PixelSample(matrix, np.zeros(500, dtype=int))
        stats = fit_band_stats(sample)
        z = _standardize(sample.matrix, stats)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)

    def test_no_leakage_across_splits(self):
        rng = np.random.default_rng(9)
        matrix_a = rng.normal(0.0, 1.0, (200, 3))
        matrix_b = rng.normal(5.0, 1.0, (200, 3))
        sample_a = PixelSample(matrix_a, np.zeros(200, dtype=int))
        stats = fit_band_stats(sample_a)
        cube_b = Hypercube(matrix_b.T.reshape(1, 3, 10, 20), [500.0, 510.0, 520.0])
        identity = LinearProjection(kind="pca", components=np.eye(3))
        standardized = project(cube_b, stats, identity)
        band_means = standardized.mean(axis=(0, 2, 3))
        assert np.all(np.abs(band_means) > 1.0)  # split B means stay far from 0


class TestPCA:
    def test_single_direction_of_variance(self):
        rng = np.random.default_rng(10)
        t = rng.normal(size=(100, 1))
        matrix = np.zeros((100, 3))
        matrix[:, 0:1] = t  # all variance along e1
        proj = fit_pca(matrix, 1)
        np.testing.assert_allclose(np.abs(proj.components[0]), [1, 0, 0], atol=1e-12)
        assert proj.components[0, 0] > 0  # sign rule

    def test_isotropic_variances_close(self):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(20_000, 2))
        proj = fit_pca(matrix, 2)
        v1, v2 = proj.explained_variance
        assert abs(v1 - v2) / v1 < 0.1

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(5, 3)) @ np.diag([3.0, 1.0, 0.2])
        proj = fit_pca(matrix, 2)
        centered = matrix - matrix.mean(axis=0)
        cov = centered.T @ centered / len(matrix)
        values, vectors = power_iteration_eigh(cov, 2)
        for row, oracle_vec, oracle_val in zip(proj.components, vectors, values):
            cos = abs(float(row @ oracle_vec))
            assert cos > 1 - 1e-8
        np.testing.assert_allclose(proj.explained_variance, values, rtol=1e-8)

    def test_orthonormal_and_ordered(self):
        rng = np.random.default_rng(13)
        matrix = rng.normal(size=(50, 6)) * np.array([3, 2.5, 2, 1, 0.5, 0.1])
        proj = fit_pca(matrix, 4)
        gram = proj.components @ proj.components.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)
        assert np.all(np.diff(proj.explained_variance) <= 0)

    def test_too_many_components(self):
        with pytest.raises(ConfigurationError):
            fit_pca(np.zeros((4, 3)), 4)

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_component(self, count):
        matrix = np.random.default_rng(18).normal(size=(20, 5))
        with pytest.raises(ConfigurationError, match="num_components"):
            fit_pca(matrix, count)


def reference_nmf(v, k, iters, seed):
    """Step-for-step multiplicative-update oracle with the same init."""
    from qefilters.rng import make_generator

    gen = make_generator(seed)
    scale = np.sqrt(max(v.mean(), np.finfo(float).tiny) / k)
    w = gen.random((v.shape[0], k)) * scale + 1e-4
    h = gen.random((k, v.shape[1])) * scale + 1e-4
    delta = 1e-12
    for _ in range(iters):
        h = h * (w.T @ v) / (w.T @ w @ h + delta)
        w = w * (v @ h.T) / (w @ (h @ h.T) + delta)
    return float(np.linalg.norm(v - w @ h))


class TestNMF:
    def test_rank_one_exact(self):
        u = np.array([1.0, 2.0, 0.5, 3.0])
        v = np.array([0.2, 1.0, 0.7])
        matrix = np.outer(u, v)
        proj, _ = fit_nmf(matrix, 1, max_iter=2000, tol=1e-14, seed=0)
        assert proj.final_residual < 1e-6 * np.linalg.norm(matrix)

    def test_monotone_residuals(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            matrix = rng.random((12, 6))
            proj, _ = fit_nmf(matrix, 3, max_iter=300, tol=1e-12, seed=trial)
            history = np.array(proj.residual_history)
            assert np.all(np.diff(history) <= 0)

    def test_matches_reference_updates(self):
        rng = np.random.default_rng(15)
        matrix = rng.random((4, 3))
        proj, _ = fit_nmf(matrix, 2, max_iter=25, tol=0.0, seed=0)
        oracle = reference_nmf(matrix, 2, proj.iterations_run, seed=0)
        assert proj.final_residual == pytest.approx(oracle, rel=1e-12)

    def test_nonnegative_outputs(self):
        rng = np.random.default_rng(16)
        proj, w = fit_nmf(rng.random((10, 5)), 2, seed=3)
        assert np.all(proj.components >= 0)
        assert np.all(w >= 0)

    def test_negative_input_rejected(self):
        with pytest.raises(DataError):
            fit_nmf(np.array([[1.0, -0.1]]), 1)

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_component(self, count):
        matrix = np.random.default_rng(19).random((20, 5))
        with pytest.raises(ConfigurationError, match="num_components"):
            fit_nmf(matrix, count)


class TestProject:
    def test_identity_projection(self):
        cube, _ = labeled_cube(17, 1, 4, 4, channels=3)
        stats = BandStats(mean=np.zeros(3), std=np.ones(3))
        proj = LinearProjection(kind="pca", components=np.eye(3))
        # identity needs F == C; bypass the filter-bank reduction rule on purpose
        out = project(cube, stats, proj)
        np.testing.assert_allclose(out, cube.data, rtol=1e-14)

    def test_one_hot_components_select_bands(self):
        cube, _ = labeled_cube(18, 1, 3, 3, channels=4)
        stats = BandStats(mean=np.full(4, 0.5), std=np.full(4, 2.0))
        comps = np.zeros((2, 4))
        comps[0, 1] = 1.0
        comps[1, 3] = 1.0
        out = project(cube, stats, LinearProjection(kind="pca", components=comps))
        np.testing.assert_allclose(out[:, 0], (cube.data[:, 1] - 0.5) / 2.0, rtol=1e-14)
        np.testing.assert_allclose(out[:, 1], (cube.data[:, 3] - 0.5) / 2.0, rtol=1e-14)

    def test_matches_scalar_oracle_with_shift(self):
        cube, _ = labeled_cube(19, 1, 2, 2, channels=3)
        stats = BandStats(mean=np.array([0.1, 0.2, 0.3]), std=np.array([1.0, 2.0, 0.5]))
        shift = np.array([0.4, 0.0, 1.0])
        comps = np.array([[0.5, 1.0, -1.0], [0.0, 2.0, 0.3]])
        proj = LinearProjection(kind="nmf", components=comps, shift=shift)
        out = project(cube, stats, proj)
        for b, h, w in np.ndindex(1, 2, 2):
            z = (cube.data[b, :, h, w] - stats.mean) / stats.std + shift
            for f in range(2):
                assert out[b, f, h, w] == pytest.approx(float(comps[f] @ z), rel=1e-12)

    def test_stats_of_another_band_count_rejected(self):
        cube, _ = labeled_cube(20, 1, 2, 2, channels=4)
        stats = BandStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DataError, match="stats cover 3 bands"):
            project(cube, stats, LinearProjection(kind="pca", components=np.eye(4)))


class TestPipeline:
    def test_fit_and_serialize_round_trip(self):
        # pipeline.json alone holds the fitted bits and reproduces ``project`` with numpy alone.
        cube, labels = labeled_cube(20, 3, 10, 10, channels=5)
        for method in ("pca", "nmf"):
            pipeline = fit_reduction_pipeline([(cube, labels)], method, 2, target_total=150, seed=0)
            doc = json.loads(pipeline.to_json())
            read = {**doc["stats"], **doc["projection"]}
            fitted = {
                "mean": pipeline.stats.mean,
                "std": pipeline.stats.std,
                "components": pipeline.projection.components,
                "shift": pipeline.projection.shift,
            }
            for key, value in fitted.items():
                if value is None:
                    assert key not in read
                else:
                    assert np.shape(read[key]) == value.shape and np.array(read[key]).tobytes() == value.tobytes()
            per_band = (slice(None), None, None)
            z = (cube.data - np.array(read["mean"])[per_band]) / np.array(read["std"])[per_band]
            if "shift" in read:
                z = z + np.array(read["shift"])[per_band]
            recomputed = np.einsum("fc,bchw->bfhw", np.array(read["components"]), z)
            np.testing.assert_array_equal(recomputed, project(cube, pipeline.stats, pipeline.projection))

    def test_nmf_shift_makes_input_nonnegative(self):
        cube, labels = labeled_cube(21, 2, 8, 8, channels=4)
        pipeline = fit_reduction_pipeline([(cube, labels)], "nmf", 2, target_total=100, seed=1)
        assert pipeline.projection.shift is not None
        assert np.all(pipeline.projection.components >= 0)

    def test_unknown_method(self):
        cube, labels = labeled_cube(22, 1, 4, 4)
        with pytest.raises(ConfigurationError):
            fit_reduction_pipeline([(cube, labels)], "ica", 2, target_total=20)
