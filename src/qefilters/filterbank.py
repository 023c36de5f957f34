"""Learnable multi-peak spectral response filters.

A filter bank holds F filters of P asymmetric Gaussian peaks each, evaluated
on a normalized wavelength axis. Every peak carries four raw scalars:

* ``centroid``         - peak position on the normalized axis,
* ``log_bandwidth``    - width through ``bandwidth = exp(log_bandwidth)``,
* ``amplitude_logit``  - height through ``amplitude = sigmoid(logit)``,
* ``skewness_raw``     - asymmetry through ``skew = 0.5 * tanh(raw)``.

The exp / sigmoid / scaled-tanh mappings keep the derived quantities positive
and bounded, so the raw values are unconstrained and safe to move with plain
gradient steps. A filter's response is the sum of its peak responses divided
by the response maximum over the dataset channels (plus a small epsilon), so
every evaluated weight lies in [0, 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .rng import make_generator

EPSILON = 1e-8  # guard in the response-normalization denominator; not configurable

# Slot order along the last axis of the raw parameter table.
CENTROID, LOG_BANDWIDTH, AMPLITUDE_LOGIT, SKEWNESS_RAW = 0, 1, 2, 3

# Floor for exp(log_bandwidth), so a wildly negative log-bandwidth underflowing
# to zero cannot produce a division by zero. Unreachable for any bandwidth the
# regularizers consider plausible.
_BANDWIDTH_FLOOR = np.finfo(float).tiny


def sigmoid(x):
    """Numerically safe logistic function."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class WavelengthRange:
    """Inclusive spectral range of a dataset, in nanometers."""

    start_nm: float
    end_nm: float

    def __post_init__(self):
        if not (np.isfinite(self.start_nm) and np.isfinite(self.end_nm)):
            raise ConfigurationError("wavelength range must be finite")
        if not self.end_nm > self.start_nm:
            raise ConfigurationError(
                f"wavelength range end ({self.end_nm} nm) must exceed start ({self.start_nm} nm)"
            )

    @property
    def span_nm(self) -> float:
        return self.end_nm - self.start_nm


class FilterBankParams:
    """All learnable parameters of a bank: an (F, P, 4) table plus the range.

    The table layout is ``table[f, p] = (centroid, log_bandwidth,
    amplitude_logit, skewness_raw)``, giving exactly ``4 * P * F`` learnable
    scalars. The table is the single source of truth; the properties below
    are views of its slots and the quantities derived from them.
    """

    def __init__(self, table: np.ndarray, wavelength_range: WavelengthRange):
        table = np.array(table, dtype=float)
        if table.ndim != 3 or table.shape[2] != 4:
            raise ConfigurationError(f"parameter table must have shape (F, P, 4), got {table.shape}")
        if table.shape[0] < 1 or table.shape[1] < 1:
            raise ConfigurationError("need at least one filter and one peak per filter")
        if not np.all(np.isfinite(table)):
            raise ConfigurationError("parameter table contains non-finite values")
        self.table = table
        self.range = wavelength_range

    @property
    def num_filters(self) -> int:
        return self.table.shape[0]

    @property
    def peaks_per_filter(self) -> int:
        return self.table.shape[1]

    @property
    def num_parameters(self) -> int:
        """Total learnable scalar count, always 4 * P * F."""
        return self.table.size

    # Raw views -----------------------------------------------------------
    @property
    def centroids(self) -> np.ndarray:
        return self.table[:, :, CENTROID]

    @property
    def log_bandwidths(self) -> np.ndarray:
        return self.table[:, :, LOG_BANDWIDTH]

    @property
    def amplitude_logits(self) -> np.ndarray:
        return self.table[:, :, AMPLITUDE_LOGIT]

    @property
    def skewness_raw(self) -> np.ndarray:
        return self.table[:, :, SKEWNESS_RAW]

    # Derived quantities ----------------------------------------------------
    @property
    def bandwidths(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.maximum(np.exp(self.log_bandwidths), _BANDWIDTH_FLOOR)

    @property
    def amplitudes(self) -> np.ndarray:
        return sigmoid(self.amplitude_logits)

    @property
    def skews(self) -> np.ndarray:
        return 0.5 * np.tanh(self.skewness_raw)

    def dominant_peaks(self) -> np.ndarray:
        """Index of the largest-amplitude peak per filter (ties: lowest index)."""
        return np.argmax(self.amplitude_logits, axis=1)

    def copy(self) -> "FilterBankParams":
        return FilterBankParams(self.table.copy(), self.range)

    # Serialization ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "range": {"start_nm": self.range.start_nm, "end_nm": self.range.end_nm},
            "filters": [
                [
                    {
                        "c": float(self.table[f, p, CENTROID]),
                        "log_bw": float(self.table[f, p, LOG_BANDWIDTH]),
                        "alpha": float(self.table[f, p, AMPLITUDE_LOGIT]),
                        "gamma": float(self.table[f, p, SKEWNESS_RAW]),
                    }
                    for p in range(self.peaks_per_filter)
                ]
                for f in range(self.num_filters)
            ],
        }

    def to_json(self) -> str:
        # json emits shortest round-trip float representations, so the
        # document parses back to bit-identical 64-bit values.
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FilterBankParams":
        try:
            rng = WavelengthRange(float(doc["range"]["start_nm"]), float(doc["range"]["end_nm"]))
            filters = doc["filters"]
            table = np.array(
                [
                    [[peak["c"], peak["log_bw"], peak["alpha"], peak["gamma"]] for peak in row]
                    for row in filters
                ],
                dtype=float,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed filter-bank document: {exc}") from exc
        if table.ndim != 3:
            raise ConfigurationError("filter-bank document has ragged or empty peak lists")
        return cls(table, rng)


def normalize_wavelengths(wavelengths_nm: Sequence[float], wavelength_range: WavelengthRange) -> np.ndarray:
    """Map channel wavelengths onto the normalized [0, 1] axis.

    Every wavelength must lie within the range; a violation reports the
    offending channel index.
    """
    wl = np.asarray(wavelengths_nm, dtype=float)
    if wl.ndim != 1 or wl.size < 1:
        raise ConfigurationError("wavelengths must be a non-empty 1-D sequence")
    # Written as "not inside" so that NaN, which compares false, is outside.
    outside = ~((wl >= wavelength_range.start_nm) & (wl <= wavelength_range.end_nm))
    if np.any(outside):
        idx = int(np.argmax(outside))
        raise DataError(
            f"channel {idx} at {wl[idx]} nm lies outside "
            f"[{wavelength_range.start_nm}, {wavelength_range.end_nm}] nm"
        )
    return (wl - wavelength_range.start_nm) / wavelength_range.span_nm


def init_filter_bank(
    num_filters: int,
    peaks_per_filter: int,
    wavelength_range: WavelengthRange,
    seed: int,
) -> FilterBankParams:
    """Draw a fresh parameter table from the documented initialization scheme.

    With ``gen`` the Philox generator for ``seed``, draws happen in this fixed
    order, each of shape (F, P):

    1. centroids ~ Uniform(0.1, 0.9), then += Normal(0, 0.05), clamped to [0, 1]
    2. log-bandwidths = log(0.05 + 0.02 * u), u ~ Uniform[0, 1)
       (so every initial bandwidth lies in [0.05, 0.07))
    3. amplitude logits ~ Normal(0, 0.5)
    4. skewness raw = 0 (initially symmetric peaks)

    The function is pure: identical arguments reproduce identical tables
    bit-for-bit.
    """
    if num_filters < 1 or peaks_per_filter < 1:
        raise ConfigurationError(
            f"invalid bank shape: F={num_filters}, P={peaks_per_filter} (both must be >= 1)"
        )
    gen = make_generator(seed)
    shape = (num_filters, peaks_per_filter)
    centroids = gen.uniform(0.1, 0.9, shape)
    centroids = np.clip(centroids + gen.normal(0.0, 0.05, shape), 0.0, 1.0)
    log_bandwidths = np.log(0.05 + 0.02 * gen.random(shape))
    amplitude_logits = gen.normal(0.0, 0.5, shape)
    skewness = np.zeros(shape)
    table = np.stack([centroids, log_bandwidths, amplitude_logits, skewness], axis=2)
    return FilterBankParams(table, wavelength_range)


def _peak_geometry(params: FilterBankParams, lambda_norm: np.ndarray):
    """Shared forward geometry for evaluation and the backward pass.

    Returns the (F, P, C) arrays of the standardized distance
    ``x = (lam - c) / beta``, ``t = tanh(x)``, the skewed distance
    ``x_skew = x * (1 + skew * t)`` and ``envelope = exp(-x_skew^2 / 2)``.
    A peak's response is ``amplitude * envelope``: smooth in the wavelength
    and in all four raw parameters, and exactly the amplitude at the
    centroid, whatever the skew.
    """
    lam = lambda_norm[None, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        beta = params.bandwidths[:, :, None]
        x = (lam - params.centroids[:, :, None]) / beta
        t = np.tanh(x)
        x_skew = x * (1.0 + params.skews[:, :, None] * t)
        envelope = np.exp(-0.5 * np.square(x_skew))
    return x, t, x_skew, envelope


@dataclass
class FilterResponseMatrix:
    """Evaluated, normalized filter weights plus backward-pass caches.

    ``weights[f, c]`` is filter ``f``'s normalized response at channel ``c``.
    ``row_max`` holds the pre-normalization maxima over channels and
    ``argmax_channel`` the first channel attaining each maximum, which is the
    channel the normalization subgradient flows through.
    """

    weights: np.ndarray  # (F, C)
    per_peak_responses: np.ndarray  # (F, P, C)
    row_max: np.ndarray  # (F,)
    argmax_channel: np.ndarray  # (F,)
    normalized_wavelengths: np.ndarray  # (C,)
    params: FilterBankParams


def evaluate_filter_bank(params: FilterBankParams, lambda_norm: Sequence[float]) -> FilterResponseMatrix:
    """Evaluate the whole bank on a normalized wavelength grid.

    For each filter, sums its peak responses per channel, records the maximum
    over channels, and divides by (max + EPSILON). The per-peak responses and
    the grid are cached for the backward pass.
    """
    lam = np.asarray(lambda_norm, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ConfigurationError("lambda_norm must be a non-empty 1-D array")
    if not np.all(np.isfinite(lam)):
        raise ConfigurationError("lambda_norm contains non-finite values")
    _, _, _, envelope = _peak_geometry(params, lam)
    per_peak = params.amplitudes[:, :, None] * envelope  # (F, P, C)
    raw = per_peak.sum(axis=1)  # (F, C)
    row_max = raw.max(axis=1)
    argmax_channel = raw.argmax(axis=1)
    weights = raw / (row_max + EPSILON)[:, None]
    return FilterResponseMatrix(
        weights=weights,
        per_peak_responses=per_peak,
        row_max=row_max,
        argmax_channel=argmax_channel,
        normalized_wavelengths=lam,
        params=params,
    )
