"""Synthetic labeled hypercubes with planted discriminative wavelengths.

Each class's material spectrum is a mixture of Gaussian reflectance bumps.
The generator requires at least one metameric pair: two classes whose
mixtures are identical except for bumps centered at the planted
discriminative wavelengths, so that separating them forces a spectral model
to attend to exactly those bands.

Pixel spectra are the class mixture evaluated at the channel wavelengths
plus iid Gaussian noise. Each image draws from its own counter-based Philox
substream keyed by (seed, subset, image index) in a fixed order, so images
can be generated independently or in parallel without changing the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cubeio import LabelMap
from .errors import ConfigurationError, check_keys, config_value, json_typed
from .metrics import IGNORE_LABEL
from .projection import Hypercube
from .rng import make_generator

_CENTER_TOL = 1e-6  # nm; bump centers this close to a planted center count as planted


@dataclass(frozen=True)
class SpectralBump:
    """One Gaussian reflectance component: height * exp(-(lam-center)^2 / (2 width^2))."""

    center_nm: float
    width_nm: float
    height: float

    def __post_init__(self):
        if self.width_nm <= 0:
            raise ConfigurationError(f"bump width must be positive, got {self.width_nm}")


def hyko_like_wavelengths() -> np.ndarray:
    """15 channels over 470-630 nm."""
    return np.linspace(470.0, 630.0, 15)


def hsi_drive_like_wavelengths() -> np.ndarray:
    """25 channels over 600-975 nm."""
    return np.linspace(600.0, 975.0, 25)


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
        if self.noise_sigma < 0:
            raise ConfigurationError("noise sigma must be >= 0")
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


def _blob_labels(gen: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """Voronoi cells of random seed points, classes assigned round-robin."""
    k = spec.num_classes
    classes = np.tile(np.arange(k), (spec.blobs_per_image + k - 1) // k)[: spec.blobs_per_image]
    gen.shuffle(classes)
    centers_y = gen.uniform(0, spec.height, spec.blobs_per_image)
    centers_x = gen.uniform(0, spec.width, spec.blobs_per_image)
    yy, xx = np.meshgrid(np.arange(spec.height), np.arange(spec.width), indexing="ij")
    d2 = (yy[:, :, None] - centers_y[None, None, :]) ** 2 + (
        xx[:, :, None] - centers_x[None, None, :]
    ) ** 2
    nearest = np.argmin(d2, axis=2)
    return classes[nearest]


def gen_synthetic(spec: SynthSpec) -> tuple[Hypercube, LabelMap]:
    """Generate one labeled batch from a SynthSpec. Pure in the seed."""
    wl = np.asarray(spec.wavelengths_nm, dtype=float)
    means = spec.class_means()  # (K, C)
    num_channels = wl.size
    data = np.empty((spec.images, num_channels, spec.height, spec.width))
    labels = np.empty((spec.images, spec.height, spec.width), dtype=np.int64)
    for b in range(spec.images):
        gen = make_generator(spec.seed, spec.subset, b)
        lab = _blob_labels(gen, spec)
        spectra = means[lab]  # (H, W, C)
        noise = gen.standard_normal((spec.height, spec.width, num_channels))
        cube_hw = spectra + spec.noise_sigma * noise
        data[b] = np.moveaxis(cube_hw, 2, 0)
        labels[b] = lab
    return (
        Hypercube(data, wl),
        LabelMap(labels, spec.num_classes, IGNORE_LABEL),
    )


def _floats(values) -> tuple[float, ...]:
    return tuple(float(json_typed(v, float)) for v in values)


_BUMP_KEYS = ("center_nm", "width_nm", "height")


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
            preset = wl_doc["preset"]
            if preset == "hyko":
                wl = hyko_like_wavelengths()
            elif preset == "hsi-drive":
                wl = hsi_drive_like_wavelengths()
            else:
                raise ConfigurationError(f"unknown wavelength preset {preset!r}")
        elif isinstance(wl_doc, dict):
            check_keys(wl_doc, ("start_nm", "end_nm", "channels"), grid)
            wl = np.linspace(
                config_value(wl_doc, "start_nm", float, grid),
                config_value(wl_doc, "end_nm", float, grid),
                config_value(wl_doc, "channels", int, grid),
            )
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
            blobs_per_image=config_value(doc, "blobs_per_image", int, where, 6),
            seed=config_value(doc, "seed", int, where, 0),
            subset=config_value(doc, "subset", int, where, 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed synthetic-data config: {exc}") from exc
