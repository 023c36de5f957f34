"""Physics-inspired penalties on the filter bank, with analytic gradients.

Three terms on the peak parameters, not on the summed curve: a cap on each
filter's secondary-peak amplitudes relative to its dominant one, minimum
spacing between the dominant-peak centroids of different filters, and
bandwidth bounds on each filter's dominant peak. The dominant-peak selection
(argmax over amplitudes) is treated as piecewise constant: no gradient flows
through which peak is dominant, only through the selected peak's parameters.
The ReLU subgradient at zero is taken as zero, so a penalty sitting exactly
on its boundary stays inactive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .filterbank import AMPLITUDE_LOGIT, CENTROID, EPSILON, LOG_BANDWIDTH, FilterBankParams

REG_COMPONENTS = ("dominance", "separation", "bandwidth")

# The dominance and bandwidth thresholds ``total_reg`` applies: a secondary
# peak may reach R_MAX of the dominant one, a dominant bandwidth [BETA_MIN, BETA_MAX].
R_MAX, BETA_MIN, BETA_MAX = 0.3, 0.03, 0.25


@dataclass(frozen=True)
class RegConfig:
    """The separation threshold, the objective weight and the enabled terms.

    ``d_min`` has no canonical value; 0.1 on the normalized axis keeps up to
    seven filters placeable while still forcing diversity. ``enabled`` exists
    for component-ablation studies; disabling a term zeroes exactly that term
    and its gradient. The dominance and bandwidth thresholds are the module
    constants ``R_MAX``, ``BETA_MIN`` and ``BETA_MAX``.
    """

    d_min: float = 0.1
    lambda_reg: float = 0.1
    enabled: tuple[str, ...] = REG_COMPONENTS

    def __post_init__(self):
        if not 0.0 <= self.d_min < 1.0:
            raise ConfigurationError(f"d_min must lie in [0, 1), got {self.d_min}")
        if not 0.0 <= self.lambda_reg < np.inf:
            raise ConfigurationError(f"lambda_reg must be finite and >= 0, got {self.lambda_reg}")
        unknown = set(self.enabled) - set(REG_COMPONENTS)
        if unknown:
            raise ConfigurationError(f"enabled names unknown regularizer components: {sorted(unknown)}")


@dataclass(frozen=True)
class RegLosses:
    """The three penalty values; ``total`` sums them in that order."""

    dominance: float
    separation: float
    bandwidth: float

    @property
    def total(self) -> float:
        return self.dominance + self.separation + self.bandwidth


def dominance_loss(params: FilterBankParams, r_max: float) -> tuple[float, np.ndarray]:
    """Penalize secondary peaks taller than r_max of the dominant one.

    Per filter: ReLU(a_second / (a_max + EPSILON) - r_max), averaged over
    filters, with the response guard ``filterbank.EPSILON``.
    Defined as zero for single-peak filters, where no secondary peak exists.
    Gradients reach the amplitude logits through the sigmoid chain. Like
    every penalty here, returns the value and its (F, P, 4) gradient in the
    slot order of ``params.table``.
    """
    grad = np.zeros_like(params.table)
    num_filters, num_peaks = params.num_filters, params.peaks_per_filter
    if num_peaks == 1:
        return 0.0, grad
    amplitude = params.amplitudes
    total = 0.0
    for f in range(num_filters):
        a = amplitude[f]
        star = int(np.argmax(params.amplitude_logits[f]))
        rest = np.delete(np.arange(num_peaks), star)
        second = rest[int(np.argmax(a[rest]))]
        ratio = a[second] / (a[star] + EPSILON)
        margin = ratio - r_max
        if margin > 0.0:
            total += margin
            d_second = 1.0 / (a[star] + EPSILON) / num_filters
            d_star = -a[second] / (a[star] + EPSILON) ** 2 / num_filters
            grad[f, second, AMPLITUDE_LOGIT] += d_second * a[second] * (1.0 - a[second])
            grad[f, star, AMPLITUDE_LOGIT] += d_star * a[star] * (1.0 - a[star])
    return float(total) / num_filters, grad


def separation_loss(params: FilterBankParams, d_min: float) -> tuple[float, np.ndarray]:
    """Penalize dominant-peak centroids of different filters closer than d_min.

    (1/F^2) * sum over ordered pairs f != k of ReLU(d_min - |c_f* - c_k*|).
    Gradients reach only the selected centroids; the argmax choosing each
    filter's dominant peak is locally constant.
    """
    grad = np.zeros_like(params.table)
    num_filters = params.num_filters
    if num_filters == 1:
        return 0.0, grad
    star = params.dominant_peaks()
    c = params.centroids[np.arange(num_filters), star]  # (F,)
    diff = c[:, None] - c[None, :]
    margin = d_min - np.abs(diff)
    np.fill_diagonal(margin, 0.0)
    active = margin > 0.0
    loss = float(margin[active].sum()) / num_filters**2
    # Both ordered pairs (f, k) and (k, f) contribute the same derivative.
    d_c = -2.0 * np.sum(np.sign(diff) * active, axis=1) / num_filters**2
    grad[np.arange(num_filters), star, CENTROID] = d_c
    return loss, grad


def bandwidth_loss(
    params: FilterBankParams, beta_min: float, beta_max: float
) -> tuple[float, np.ndarray]:
    """Penalize dominant-peak bandwidths outside [beta_min, beta_max].

    (1/F) * sum over filters of ReLU(beta_min - beta*) + ReLU(beta* - beta_max),
    with the exp chain back to the log-bandwidth.
    """
    grad = np.zeros_like(params.table)
    num_filters = params.num_filters
    star = params.dominant_peaks()
    rows = np.arange(num_filters)
    beta = params.bandwidths[rows, star]
    low = np.maximum(beta_min - beta, 0.0)
    high = np.maximum(beta - beta_max, 0.0)
    loss = float((low + high).sum()) / num_filters
    d_beta = (-(beta < beta_min).astype(float) + (beta > beta_max).astype(float)) / num_filters
    grad[rows, star, LOG_BANDWIDTH] = d_beta * beta
    return loss, grad


def total_reg(params: FilterBankParams, config: RegConfig) -> tuple[RegLosses, np.ndarray]:
    """Sum the enabled penalty terms; the gradient is the sum of theirs."""
    grad = np.zeros_like(params.table)
    dom = sep = bw = 0.0
    if "dominance" in config.enabled:
        dom, g = dominance_loss(params, R_MAX)
        grad += g
    if "separation" in config.enabled:
        sep, g = separation_loss(params, config.d_min)
        grad += g
    if "bandwidth" in config.enabled:
        bw, g = bandwidth_loss(params, BETA_MIN, BETA_MAX)
        grad += g
    return RegLosses(dom, sep, bw), grad
