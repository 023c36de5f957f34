"""Synthetic labeled hypercubes with planted discriminative wavelengths.

Each class's material spectrum is a mixture of Gaussian reflectance bumps.
The generator requires at least one metameric pair: two classes whose
mixtures are identical except for bumps centered at the planted
discriminative wavelengths, so that separating them forces a spectral model
to attend to exactly those bands.

Pixel spectra are the class mixture evaluated at the channel wavelengths
plus iid Gaussian noise. Each image draws from its own counter-based Philox
substream keyed by (seed, subset, image index) in a fixed order, so
``gen_synthetic`` makes its images on threads, one contiguous block of
images per usable CPU (``projection._each_image_block``), and writes the same
bytes as one thread would: each block fills whole images in place, drawing
the noise a block of rows at a time into one small buffer of its own.

``spec_from_dict`` reads the JSON layout that ``qefilters gen-synth`` takes.
Its ``wavelengths`` entry is a named preset (``hyko``: 15 channels over
470-630 nm; ``hsi-drive``: 25 channels over 600-975 nm), an explicit
``{start_nm, end_nm, channels}`` grid, or a list of wavelengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cubeio import LabelMap
from .errors import ConfigurationError, check_keys, config_value, config_values, json_typed
from .metrics import IGNORE_LABEL
from .projection import Hypercube, _each_image_block
from .rng import make_generator

_CENTER_TOL = 1e-6  # nm; bump centers this close to a planted center count as planted
_ROW_BLOCK = 16  # image rows per noise draw; each block of images holds one (rows, W, C) buffer


@dataclass(frozen=True)
class SpectralBump:
    """One Gaussian reflectance component: height * exp(-(lam-center)^2 / (2 width^2))."""

    center_nm: float
    width_nm: float
    height: float

    def __post_init__(self):
        # Written so that NaN fails each check: every comparison with NaN is false.
        for name in ("center_nm", "height"):
            if not -np.inf < getattr(self, name) < np.inf:
                raise ConfigurationError(f"bump {name} must be finite, got {getattr(self, name)}")
        if not 0 < self.width_nm < np.inf:
            raise ConfigurationError(f"bump width_nm must be finite and > 0, got {self.width_nm}")


def mixture_spectrum(bumps: Sequence[SpectralBump], wavelengths_nm: np.ndarray) -> np.ndarray:
    wl = np.asarray(wavelengths_nm, dtype=float)
    out = np.zeros_like(wl)
    for bump in bumps:
        out += bump.height * np.exp(-0.5 * ((wl - bump.center_nm) / bump.width_nm) ** 2)
    return out


@dataclass(frozen=True)
class SynthSpec:
    class_bumps: tuple[tuple[SpectralBump, ...], ...]  # one mixture per class
    planted_centers_nm: tuple[float, ...]
    wavelengths_nm: tuple[float, ...]
    noise_sigma: float
    images: int
    height: int
    width: int
    blobs_per_image: int = 6
    seed: int = 0
    subset: int = 0  # distinguishes e.g. train from val streams under one seed

    def __post_init__(self):
        if len(self.class_bumps) < 2:
            raise ConfigurationError("need at least two classes")
        if self.images < 1 or self.height < 1 or self.width < 1:
            raise ConfigurationError("dims must all be >= 1")
        if self.blobs_per_image < len(self.class_bumps):
            raise ConfigurationError("need at least one blob per class")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigurationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        if wl.ndim != 1 or wl.size < 2 or not np.all(np.diff(wl) > 0):
            raise ConfigurationError("wavelengths must be a strictly increasing vector")
        self._validate_metameric_pair()

    @property
    def num_classes(self) -> int:
        return len(self.class_bumps)

    def class_means(self) -> np.ndarray:
        """(K, C) analytic mixture values at the channel wavelengths."""
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        return np.stack([mixture_spectrum(bumps, wl) for bumps in self.class_bumps])

    def metameric_pairs(self) -> list[tuple[int, int]]:
        """Class pairs whose mixtures differ only by bumps at planted centers."""
        pairs = []
        for i in range(self.num_classes):
            for j in range(i + 1, self.num_classes):
                left = set(self.class_bumps[i])
                right = set(self.class_bumps[j])
                differing = left.symmetric_difference(right)
                if not differing:
                    continue
                if all(
                    any(abs(bump.center_nm - c) <= _CENTER_TOL for c in self.planted_centers_nm)
                    for bump in differing
                ):
                    pairs.append((i, j))
        return pairs

    def _validate_metameric_pair(self):
        if not self.metameric_pairs():
            raise ConfigurationError(
                "no metameric class pair: some two classes must differ only by bumps "
                "centered at the planted wavelengths"
            )


def _nearest_center(height: int, width: int, centers_y: np.ndarray, centers_x: np.ndarray) -> np.ndarray:
    """(H, W) index of each pixel's nearest center; ties go to the lower index, as in np.argmin."""
    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    best = (yy - centers_y[0]) ** 2 + (xx - centers_x[0]) ** 2
    nearest = np.zeros((height, width), dtype=np.intp)
    for i in range(1, centers_y.size):
        d2 = (yy - centers_y[i]) ** 2 + (xx - centers_x[i]) ** 2
        closer = d2 < best
        nearest[closer] = i
        np.minimum(best, d2, out=best)
    return nearest


def _blob_labels(gen: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """Voronoi cells of random seed points, classes assigned round-robin."""
    k = spec.num_classes
    classes = np.tile(np.arange(k), (spec.blobs_per_image + k - 1) // k)[: spec.blobs_per_image]
    gen.shuffle(classes)
    centers_y = gen.uniform(0, spec.height, spec.blobs_per_image)
    centers_x = gen.uniform(0, spec.width, spec.blobs_per_image)
    return classes[_nearest_center(spec.height, spec.width, centers_y, centers_x)]


def _fill_images(spec: SynthSpec, means: np.ndarray, images: range, data, labels, block) -> None:
    """Write ``images`` of the batch into ``data`` and ``labels`` in place.

    The (H, W, C) noise is drawn block by block into ``block``; consecutive
    draws continue one stream, so the values equal one full-image draw.
    ``sigma * noise + mean`` rounds as ``mean + sigma * noise`` does.
    """
    for b in images:
        gen = make_generator(spec.seed, spec.subset, b)
        lab = _blob_labels(gen, spec)
        labels[b] = lab
        image = data[b]  # (C, H, W)
        for top in range(0, spec.height, block.shape[0]):
            rows = block[: spec.height - top]
            gen.standard_normal(out=rows)
            np.multiply(np.moveaxis(rows, 2, 0), spec.noise_sigma, out=image[:, top : top + rows.shape[0]])
        for c in range(image.shape[0]):
            image[c] += means[:, c][lab]


def gen_synthetic(spec: SynthSpec) -> tuple[Hypercube, LabelMap]:
    """Generate one labeled batch from a SynthSpec. Pure in the seed.

    Each image comes from its own substream, so the bytes depend neither on
    how the images are split into blocks nor on the scheduling.
    """
    wl = np.asarray(spec.wavelengths_nm, dtype=float)
    means = spec.class_means()  # (K, C)
    data = np.empty((spec.images, wl.size, spec.height, spec.width))
    labels = np.empty((spec.images, spec.height, spec.width), dtype=np.int64)
    rows = min(_ROW_BLOCK, spec.height)

    def fill(lo, hi):
        _fill_images(spec, means, range(lo, hi), data, labels, np.empty((rows, spec.width, wl.size)))

    _each_image_block(fill, spec.images, spec.height * spec.width)
    return (
        Hypercube(data, wl),
        LabelMap(labels, spec.num_classes, IGNORE_LABEL),
    )


def _floats(values) -> tuple[float, ...]:
    return tuple(float(json_typed(v, float)) for v in values)


_BUMP_KEYS = ("center_nm", "width_nm", "height")
_GRID_KEYS = {"start_nm": float, "end_nm": float, "channels": int}
# Named channel grids, each (start_nm, end_nm, channels) as an explicit grid gives them.
_PRESETS = {"hyko": (470.0, 630.0, 15), "hsi-drive": (600.0, 975.0, 25)}
_SPEC_OPTIONS = {"blobs_per_image": int, "seed": int, "subset": int}  # absent: SynthSpec's defaults


def _bump(doc, where: str) -> SpectralBump:
    check_keys(doc, _BUMP_KEYS, where)
    return SpectralBump(*(config_value(doc, key, float, where) for key in _BUMP_KEYS))


def spec_from_dict(doc: dict) -> SynthSpec:
    """Build a SynthSpec from the CLI's JSON configuration layout.

    A value of the wrong type is a ConfigurationError that names its key, as
    is an unknown key inside ``wavelengths`` or inside a bump. Unknown keys at
    the top level pass, so one document can also carry gen-synth's image
    counts.
    """
    where = "synthetic-data config"
    try:
        wl_doc = doc["wavelengths"]
        grid = f"{where} 'wavelengths'"
        if isinstance(wl_doc, dict) and "preset" in wl_doc:
            check_keys(wl_doc, ("preset",), grid)
            if wl_doc["preset"] not in _PRESETS:
                raise ConfigurationError(f"unknown wavelength preset {wl_doc['preset']!r}")
            wl = np.linspace(*_PRESETS[wl_doc["preset"]])
        elif isinstance(wl_doc, dict):
            check_keys(wl_doc, _GRID_KEYS, grid)
            wl = np.linspace(*(config_value(wl_doc, key, kind, grid) for key, kind in _GRID_KEYS.items()))
        else:
            wl = np.asarray(config_value(doc, "wavelengths", _floats, where))
        classes = tuple(tuple(_bump(b, f"{where} 'classes'") for b in bumps) for bumps in doc["classes"])
        return SynthSpec(
            class_bumps=classes,
            planted_centers_nm=config_value(doc, "planted_centers_nm", _floats, where, ()),
            wavelengths_nm=tuple(wl),
            noise_sigma=config_value(doc, "noise_sigma", float, where, 0.0),
            images=config_value(doc, "images", int, where),
            height=config_value(doc, "height", int, where),
            width=config_value(doc, "width", int, where),
            **config_values(doc, _SPEC_OPTIONS, where),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed synthetic-data config: {exc}") from exc
