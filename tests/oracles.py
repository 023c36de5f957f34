"""Reference forms for tests to check the package against.

The scalar form of one filter peak checks the vectorized bank. The dense
one-hot forms of the two loss terms check the in-place ones in
``qefilters.training``: they compute the same formulas with a boolean
(B, K, H, W) one-hot and fresh arrays at every step, so the two must agree
byte for byte. The blocked pixel reduction checks the head weight
gradients, which ``qefilters.training`` sums in the same fixed blocks.
"""

from dataclasses import dataclass

import numpy as np

from qefilters.errors import ConfigurationError, DataError
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


def _dense_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _onehot_targets(labels: np.ndarray, num_classes: int, ignore: int) -> np.ndarray:
    """(B, K, H, W) boolean one-hot targets, all False on ignored pixels."""
    labels = np.asarray(labels)
    mask = labels != ignore
    vals = labels[mask]
    if vals.size and (vals.min() < 0 or vals.max() >= num_classes):
        bad = vals[(vals < 0) | (vals >= num_classes)][0]
        raise DataError(f"label {bad} outside [0, {num_classes}) and not the ignore value")
    classes = np.arange(num_classes)[:, None, None]
    return (labels[:, None] == classes) & mask[:, None]


def dense_weighted_cross_entropy(logits, labels, class_weights, ignore):
    """Class-weighted cross-entropy and its gradient on a dense one-hot."""
    weights = np.asarray(class_weights, dtype=float)
    if weights.shape != (logits.shape[1],) or np.any(weights < 0):
        raise ConfigurationError("bad class weights")
    onehot = _onehot_targets(labels, logits.shape[1], ignore)
    if not onehot.any():
        raise DataError("all pixels are ignored; cross-entropy undefined")
    probs = _dense_softmax(logits)
    pix_w = np.sum(onehot * weights[:, None, None], axis=1, keepdims=True)
    w_total = pix_w.sum()
    if w_total <= 0:
        raise ConfigurationError("total class weight over present labels is zero")
    p_y = np.sum(probs * onehot, axis=1, keepdims=True)
    log_p = np.log(np.maximum(p_y, np.finfo(float).tiny))
    value = float(-np.sum(pix_w * log_p) / w_total)
    return value, (probs - onehot) * (pix_w / w_total)


def dense_soft_dice(logits, labels, ignore, smoothing=1.0):
    """Soft Dice averaged over classes and its gradient on a dense one-hot."""
    num_classes = logits.shape[1]
    onehot = _onehot_targets(labels, num_classes, ignore)
    if not onehot.any():
        raise DataError("all pixels are ignored; Dice undefined")
    p = _dense_softmax(logits) * onehot.any(axis=1, keepdims=True)
    pixels = (0, 2, 3)
    overlap = np.sum(p * onehot, axis=pixels, keepdims=True)
    denom = np.sum(p + onehot, axis=pixels, keepdims=True) + smoothing
    dice_k = (2.0 * overlap + smoothing) / denom
    value = float(1.0 - dice_k.mean())
    d_p = -(2.0 * onehot / denom - (2.0 * overlap + smoothing) / denom**2)
    d_p /= num_classes
    inner = np.sum(d_p * p, axis=1, keepdims=True)
    return value, p * (d_p - inner)


PIXEL_BLOCK = 4096


def blocked_pixel_reduction(a, x):
    """out[f,c] = sum_{b,h,w} a[b,f,h,w] * x[b,c,h,w] as an explicit loop.

    Adds ``a @ x.T`` over the images and, within each image, over slices of
    ``PIXEL_BLOCK`` pixels in order, starting from zeros.
    """
    _, num_rows, height, width = a.shape
    pixels = height * width
    out = np.zeros((num_rows, x.shape[1]))
    for b in range(len(a)):
        a_img = a[b].reshape(num_rows, pixels)
        x_img = x[b].reshape(x.shape[1], pixels)
        for start in range(0, pixels, PIXEL_BLOCK):
            out += a_img[:, start : start + PIXEL_BLOCK] @ x_img[:, start : start + PIXEL_BLOCK].T
    return out
