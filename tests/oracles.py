"""Reference forms for tests to check the package against.

The scalar form of one filter peak checks the vectorized bank. The dense
one-hot forms of the two loss terms check the in-place ones in
``qefilters.training``: they compute the same formulas with a boolean
(B, K, H, W) one-hot and fresh arrays at every step, so the two must agree
byte for byte. The blocked pixel reduction checks the head weight
gradients, which ``qefilters.training`` sums in the same fixed blocks. The
two-layer MLP, written out with both layers' math, checks the MLP head that
``qefilters.training`` composes from two linear layers byte for byte. The
functional Adam step checks the in-place ``AdamW``, which must reproduce it
byte for byte. The serial synthetic generator, one image at a time with a
dense (H, W, blobs) distance array and one full-image noise draw, checks the
threaded ``gen_synthetic`` byte for byte. The batched evaluation, whole-cube
features, the public head forward, ``np.argmax`` and
``ConfusionMatrix.accumulate``, checks the image-by-image evaluation pass of
``train`` and ``predict`` byte for byte. The lobe certificate reads a
bank's summed response curves on a fine grid, to check what the penalties,
which read only the peak parameters, leave the curves looking like.
"""

from dataclasses import dataclass

import numpy as np

from qefilters.errors import ConfigurationError, DataError
from qefilters.filterbank import evaluate_filter_bank, sigmoid
from qefilters.metrics import ConfusionMatrix, compute_metrics
from qefilters.projection import _contract_channels, apply_filter_bank
from qefilters.rng import make_generator


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


def two_layer_mlp(params, feats, d_logits):
    """``(logits, grads, d_feats)`` of the MLP head with arrays ``params`` = (w1, b1, w2, b2).

    Both layers and the tanh written out in fresh arrays:
    hidden = tanh(w1 @ feats + b1) and logits = w2 @ hidden + b2, then back
    through 1 - hidden**2. The contractions are the package's per-image
    GEMMs and the weight gradients the blocked pixel reduction. ``grads``
    are in (w1, b1, w2, b2) order.
    """
    w1, b1, w2, b2 = params
    hidden = np.tanh(_contract_channels(w1, feats) + b1[None, :, None, None])
    logits = _contract_channels(w2, hidden) + b2[None, :, None, None]
    d_hidden = _contract_channels(w2.T, d_logits) * (1.0 - np.square(hidden))
    grads = [
        blocked_pixel_reduction(d_hidden, feats),
        np.sum(d_hidden, axis=(0, 2, 3)),
        blocked_pixel_reduction(d_logits, hidden),
        np.sum(d_logits, axis=(0, 2, 3)),
    ]
    return logits, grads, _contract_channels(w1.T, d_hidden)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update with decoupled weight decay.

    Decay is applied multiplicatively to the parameters before the moment
    update; ``step`` is the 1-based update count. Returns new
    (params, m, v) without mutating the inputs.
    """
    if step < 1:
        raise ConfigurationError("adam step count is 1-based")
    with np.errstate(over="ignore", invalid="ignore"):
        p = params * (1.0 - lr * weight_decay)
        m = beta1 * m + (1.0 - beta1) * grads
        v = beta2 * v + (1.0 - beta2) * np.square(grads)
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def dense_nearest_center(height, width, centers_y, centers_x):
    """(H, W) argmin over the dense (H, W, blobs) squared-distance array."""
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    d2 = (yy[:, :, None] - centers_y[None, None, :]) ** 2 + (xx[:, :, None] - centers_x[None, None, :]) ** 2
    return np.argmin(d2, axis=2)


def serial_synthetic(spec):
    """``(data, labels)`` of ``gen_synthetic(spec)``, one image after another."""
    wl = np.asarray(spec.wavelengths_nm, dtype=float)
    means = spec.class_means()
    k = spec.num_classes
    data = np.empty((spec.images, wl.size, spec.height, spec.width))
    labels = np.empty((spec.images, spec.height, spec.width), dtype=np.int64)
    for b in range(spec.images):
        gen = make_generator(spec.seed, spec.subset, b)
        classes = np.tile(np.arange(k), (spec.blobs_per_image + k - 1) // k)[: spec.blobs_per_image]
        gen.shuffle(classes)
        centers_y = gen.uniform(0, spec.height, spec.blobs_per_image)
        centers_x = gen.uniform(0, spec.width, spec.blobs_per_image)
        lab = classes[dense_nearest_center(spec.height, spec.width, centers_y, centers_x)]
        noise = gen.standard_normal((spec.height, spec.width, wl.size))
        data[b] = np.moveaxis(means[lab] + spec.noise_sigma * noise, 2, 0)
        labels[b] = lab
    return data, labels


def batched_evaluation(response, head, cube, labels, num_classes):
    """``(pred, metrics)`` of a head on a whole cube, each step over the whole batch."""
    pred = np.argmax(head.forward(apply_filter_bank(cube, response))[0], axis=1)
    return pred, compute_metrics(ConfusionMatrix(num_classes).accumulate(pred, labels))


@dataclass(frozen=True)
class LobeCertificate:
    """The shape of one filter's summed response curve.

    ``maxima_nm`` are the curve's local maxima strictly inside the range, in
    wavelength order, and ``second_over_first`` the second-highest of their
    heights over the highest (0.0 with fewer than two). ``fwhm_nm`` is the
    full width at half maximum of the lobe around the curve's highest point
    on the whole axis (NaN if the curve stays above half of it to a grid
    end), and ``peak_inside`` whether that point lies inside the range.
    """

    maxima_nm: tuple[float, ...]
    second_over_first: float
    fwhm_nm: float
    peak_inside: bool


CERTIFICATE_STEP = 1.0 / 20_000  # grid spacing on the normalized axis: 0.008 nm on HyKo's 160 nm


def lobe_certificates(bank) -> list[LobeCertificate]:
    """One ``LobeCertificate`` per filter of a ``FilterBankParams``.

    The grid covers the range and reaches four bandwidths past every
    centroid. Each peak falls monotonically on both sides of its centroid,
    so a curve's highest point lies between its filter's centroids, on the
    grid. The half-maximum crossings are interpolated linearly.
    """
    c, beta = bank.centroids, bank.bandwidths
    lo, hi = min(0.0, float((c - 4 * beta).min())), max(1.0, float((c + 4 * beta).max()))
    grid = np.linspace(lo, hi, int(np.ceil((hi - lo) / CERTIFICATE_STEP)) + 1)
    span = bank.range.span_nm
    certificates = []
    for curve in evaluate_filter_bank(bank, grid).per_peak_responses.sum(axis=1):
        maxima = np.flatnonzero((curve[1:-1] > curve[:-2]) & (curve[1:-1] >= curve[2:])) + 1
        maxima = maxima[(grid[maxima] > 0.0) & (grid[maxima] < 1.0)]
        heights = np.sort(curve[maxima])[::-1]
        top = int(np.argmax(curve))
        half = curve[top] / 2
        below = np.flatnonzero(curve < half)
        left, right = below[below < top], below[below > top]
        fwhm = np.nan
        if left.size and right.size:
            i, j = left[-1], right[0]  # curve[i] < half <= curve[i + 1], curve[j] < half <= curve[j - 1]
            x_left = np.interp(half, curve[[i, i + 1]], grid[[i, i + 1]])
            x_right = np.interp(half, curve[[j, j - 1]], grid[[j, j - 1]])
            fwhm = float(x_right - x_left) * span
        certificates.append(LobeCertificate(
            maxima_nm=tuple(float(v) for v in bank.range.start_nm + grid[maxima] * span),
            second_over_first=float(heights[1] / heights[0]) if heights.size > 1 else 0.0,
            fwhm_nm=fwhm,
            peak_inside=bool(0.0 <= grid[top] <= 1.0),
        ))
    return certificates
