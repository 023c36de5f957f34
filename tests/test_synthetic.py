import sys

import numpy as np
import pytest

from qefilters import ConfigurationError, SpectralBump, SynthSpec, gen_synthetic, mixture_spectrum
from qefilters import projection, synthetic
from qefilters.synthetic import spec_from_dict

from oracles import dense_nearest_center, serial_synthetic
from tasks import metameric_spec, planted3_spec


def simple_spec(noise=0.0, seed=0, **overrides):
    base = (SpectralBump(550.0, 100.0, 0.4),)
    fields = dict(
        class_bumps=(
            base,
            base + (SpectralBump(550.0, 15.0, 0.3),),
        ),
        planted_centers_nm=(550.0,),
        wavelengths_nm=tuple(np.linspace(470.0, 630.0, 15)),
        noise_sigma=noise,
        images=2,
        height=8,
        width=8,
        blobs_per_image=4,
        seed=seed,
    )
    fields.update(overrides)
    return SynthSpec(**fields)


class TestPresets:
    def test_grids(self):
        doc = {
            "classes": [
                [{"center_nm": 700, "width_nm": 100, "height": 0.4}],
                [{"center_nm": 700, "width_nm": 100, "height": 0.4}, {"center_nm": 620, "width_nm": 15, "height": 0.3}],
            ],
            "planted_centers_nm": [620],
            "images": 1,
            "height": 4,
            "width": 4,
        }
        for preset, (start, end, channels) in {"hyko": (470, 630, 15), "hsi-drive": (600, 975, 25)}.items():
            named = spec_from_dict(dict(doc, wavelengths={"preset": preset})).wavelengths_nm
            grid = {"start_nm": start, "end_nm": end, "channels": channels}
            assert len(named) == channels and named[0] == start and named[-1] == end
            assert named == spec_from_dict(dict(doc, wavelengths=grid)).wavelengths_nm


class TestMetamericInvariant:
    def test_valid_pair_accepted(self):
        spec = simple_spec()
        assert (0, 1) in spec.metameric_pairs()

    def test_missing_pair_rejected(self):
        base = (SpectralBump(550.0, 100.0, 0.4),)
        with pytest.raises(ConfigurationError):
            SynthSpec(
                class_bumps=(
                    base,
                    base + (SpectralBump(500.0, 15.0, 0.3),),  # not at a planted center
                ),
                planted_centers_nm=(600.0,),
                wavelengths_nm=tuple(np.linspace(470, 630, 15)),
                noise_sigma=0.0,
                images=1,
                height=4,
                width=4,
                blobs_per_image=2,
                seed=0,
            )

    def test_frozen_tasks_are_metameric(self):
        assert planted3_spec(0, 2).metameric_pairs()
        assert metameric_spec(0, 2).metameric_pairs()


class TestGenerator:
    def test_noiseless_spectra_match_mixture_exactly(self):
        spec = simple_spec(noise=0.0)
        cube, labels = gen_synthetic(spec)
        means = spec.class_means()
        for b, h, w in np.ndindex(2, 8, 8):
            np.testing.assert_allclose(
                cube.data[b, :, h, w], means[labels.values[b, h, w]], atol=1e-12
            )

    def test_classes_identical_off_planted_band(self):
        spec = simple_spec(noise=0.0)
        means = spec.class_means()
        wl = np.asarray(spec.wavelengths_nm)
        far = np.abs(wl - 550.0) > 60.0
        np.testing.assert_allclose(means[0, far], means[1, far], atol=1e-3)

    def test_same_seed_identical(self):
        a_cube, a_labels = gen_synthetic(simple_spec(noise=0.1, seed=5))
        b_cube, b_labels = gen_synthetic(simple_spec(noise=0.1, seed=5))
        np.testing.assert_array_equal(a_cube.data, b_cube.data)
        np.testing.assert_array_equal(a_labels.values, b_labels.values)

    def test_subset_streams_differ(self):
        a_cube, _ = gen_synthetic(simple_spec(noise=0.1, seed=5))
        c_cube, _ = gen_synthetic(simple_spec(noise=0.1, seed=5, subset=1))
        assert not np.array_equal(a_cube.data, c_cube.data)

    def test_class_mean_gap_exceeds_bump_minus_noise(self):
        spec = simple_spec(noise=0.02, images=8, height=16, width=16)
        cube, labels = gen_synthetic(spec)
        wl = np.asarray(spec.wavelengths_nm)
        channel = int(np.argmin(np.abs(wl - 550.0)))
        vals0 = cube.data[:, channel][labels.values == 0]
        vals1 = cube.data[:, channel][labels.values == 1]
        bump_height = 0.3 * np.exp(-0.5 * ((wl[channel] - 550.0) / 15.0) ** 2)
        assert abs(vals1.mean() - vals0.mean()) >= bump_height - 3 * 0.02

    def test_empirical_mean_matches_analytic(self):
        spec = simple_spec(noise=0.0, images=4, height=32, width=32)
        cube, labels = gen_synthetic(spec)
        means = spec.class_means()
        for k in range(2):
            mask = labels.values == k
            empirical = cube.data.transpose(0, 2, 3, 1)[mask].mean(axis=0)
            np.testing.assert_allclose(empirical, means[k], atol=1e-6)

    def test_all_classes_present(self):
        _, labels = gen_synthetic(simple_spec(noise=0.0, images=4))
        assert set(np.unique(labels.values)) == {0, 1}


class TestFiniteSettings:
    # Rejected when the spec is built, not after gen_synthetic has made every image.
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_noise_sigma(self, value):
        with pytest.raises(ConfigurationError, match="noise_sigma must be finite"):
            simple_spec(noise=value)

    @pytest.mark.parametrize("field", ["center_nm", "width_nm", "height"])
    def test_bump_field(self, field):
        values = dict(center_nm=550.0, width_nm=15.0, height=0.3)
        values[field] = np.nan
        with pytest.raises(ConfigurationError, match=f"bump {field} must be finite"):
            SpectralBump(**values)


class TestThreadedGenerator:
    """gen_synthetic equals the serial one-image-at-a-time generator byte for byte."""

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_matches_serial_oracle(self, monkeypatch, cpus, noise):
        # 7 images over 1, 2 or 5 workers; 67 rows end in a partial noise
        # block. Any work reaches the pool, so these small images still split.
        assert 67 % synthetic._ROW_BLOCK
        spec = simple_spec(noise=noise, seed=3, images=7, height=67, width=64)
        monkeypatch.setattr(projection, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(projection, "_POOL_WORK", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so overlapping writes would show
        try:
            cube, labels = gen_synthetic(spec)
        finally:
            sys.setswitchinterval(interval)
        data, values = serial_synthetic(spec)
        assert cube.data.tobytes() == data.tobytes()
        assert labels.values.tobytes() == values.tobytes()

    def test_voronoi_matches_dense_argmin(self):
        gen = np.random.default_rng(4)
        centers_y, centers_x = gen.uniform(0, 19, 9), gen.uniform(0, 23, 9)
        np.testing.assert_array_equal(
            synthetic._nearest_center(19, 23, centers_y, centers_x),
            dense_nearest_center(19, 23, centers_y, centers_x),
        )

    def test_voronoi_tie_goes_to_lower_index(self):
        # Column 2 is equidistant from both centers.
        centers_y, centers_x = np.array([1.0, 1.0]), np.array([3.0, 1.0])
        nearest = synthetic._nearest_center(3, 5, centers_y, centers_x)
        np.testing.assert_array_equal(nearest, dense_nearest_center(3, 5, centers_y, centers_x))
        assert np.all(nearest[:, 2] == 0)
        assert np.all(nearest[:, :2] == 1) and np.all(nearest[:, 3:] == 0)

    def test_failing_worker_raises_and_joins(self, monkeypatch):
        # Images 0-2 run on the calling thread and 3-5 on the pool; the
        # failure of image 1 is raised only after the pool's block is done.
        make_generator, fill_images = synthetic.make_generator, synthetic._fill_images
        finished = []

        def failing(seed, subset, image):
            if image == 1:
                raise RuntimeError("image 1 failed")
            return make_generator(seed, subset, image)

        def recorded(spec, means, images, *rest):
            try:
                fill_images(spec, means, images, *rest)
            finally:
                finished.append(images)

        monkeypatch.setattr(synthetic, "make_generator", failing)
        monkeypatch.setattr(synthetic, "_fill_images", recorded)
        monkeypatch.setattr(projection, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(projection, "_POOL_WORK", 0)
        with pytest.raises(RuntimeError, match="image 1 failed"):
            gen_synthetic(simple_spec(noise=0.1, images=6, height=64, width=64))
        assert sorted(finished, key=lambda images: images.start) == [range(0, 3), range(3, 6)]


class TestSpecFromDict:
    def test_preset_and_explicit_grid(self):
        doc = {
            "classes": [
                [{"center_nm": 550, "width_nm": 100, "height": 0.4}],
                [
                    {"center_nm": 550, "width_nm": 100, "height": 0.4},
                    {"center_nm": 510, "width_nm": 15, "height": 0.3},
                ],
            ],
            "planted_centers_nm": [510],
            "wavelengths": {"preset": "hyko"},
            "noise_sigma": 0.05,
            "images": 2,
            "height": 6,
            "width": 6,
            "blobs_per_image": 4,
            "seed": 3,
        }
        spec = spec_from_dict(doc)
        assert spec.num_classes == 2
        assert len(spec.wavelengths_nm) == 15
        doc["wavelengths"] = {"start_nm": 600, "end_nm": 975, "channels": 25}
        assert len(spec_from_dict(doc).wavelengths_nm) == 25

    def test_malformed_config(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"classes": []})
