"""Scalar reference forms of one filter peak, for tests to check the vectorized bank against."""

from dataclasses import dataclass

import numpy as np

from qefilters.filterbank import sigmoid


@dataclass(frozen=True)
class PeakParams:
    """Raw parameters of a single peak, with derived accessors."""

    centroid: float
    log_bandwidth: float
    amplitude_logit: float
    skewness_raw: float

    @property
    def bandwidth(self) -> float:
        return float(max(np.exp(self.log_bandwidth), np.finfo(float).tiny))

    @property
    def amplitude(self) -> float:
        return float(sigmoid(self.amplitude_logit))

    @property
    def skew(self) -> float:
        return float(0.5 * np.tanh(self.skewness_raw))


def bank_peaks(bank) -> list[list[PeakParams]]:
    """Every peak of a ``FilterBankParams``, one list per filter."""
    return [[PeakParams(*peak) for peak in row] for row in bank.table]


def peak_response(peak: PeakParams, lambda_norm) -> np.ndarray | float:
    """Evaluate one asymmetric Gaussian peak at normalized wavelengths.

    Computes the standardized distance ``x = (lam - c) / beta``, the skewed
    distance ``x * (1 + skew * tanh(x))`` and the response
    ``amplitude * exp(-x_skew^2 / 2)``.
    """
    lam = np.asarray(lambda_norm, dtype=float)
    x = (lam - peak.centroid) / peak.bandwidth
    t = np.tanh(x)
    x_skew = x * (1.0 + peak.skew * t)
    with np.errstate(over="ignore"):
        g = peak.amplitude * np.exp(-0.5 * np.square(x_skew))
    if np.ndim(lambda_norm) == 0:
        return float(g)
    return g
