"""End-to-end training of the filter bank against a per-pixel objective.

The gradient consumer is deliberately tiny: a per-pixel head standing in for
a full segmentation network, ``LinearHead`` (the package's one dense layer)
or ``MlpHead`` (two of them with a tanh between), whose start ``make_head``
draws. It preserves the exact gradient path from the objective through the
spectral integration back to all bank parameters while keeping the package
dependency-free.

The objective is cross-entropy weighted by inverse class frequency, plus
soft Dice, plus the weighted regularization total. Optimization is AdamW
with decoupled weight decay over ``[bank.table, *head.parameters().values()]``,
updated in place, one step per batch; the bank table takes no decay (its
derived quantities are bounded by construction), head arrays 1e-2, the AdamW
default.

A head takes the cube array, the bank matrix Q and a batch's image index,
reads those images in place and returns dL/dQ. The linear head folds Q into
its weight, one GEMM per image with the (K, C) matrix W·Q and one pixel
reduction against the cube, so it makes no (B, F, H, W) features; the MLP
head contracts with Q, then runs its layers. Contractions are one BLAS GEMM
per image (``projection._contract_channels``) and pixel sums one per fixed
pixel block, added in block order (``projection._reduce_pixels``). The
per-image work of a step runs on threads through
``projection._each_image_block`` when it is large enough, and every sum
across images is taken on the calling thread in image order. The
evaluation at each epoch's end and in ``predict`` is one pass per block of
images (``_predict``): the head's private ``_forward``, the argmax and at
the epoch's end the counts of ``metrics._count``, which the calling thread
adds. None of this depends on the BLAS thread count or the worker count (see
:mod:`qefilters.projection`), so runs reproduce bit-for-bit under any count.

Validation and allocation happen at fixed places. A cube is checked once,
when it is built or read, and ``train`` checks once, before the first step,
that the bank fits the training cube, and each split's labels, shape and
values, in one ``metrics._check_labels`` call per split. Its class weights,
losses (``_seg_loss``) and mIoU counts read the pair that returns; public
``seg_loss`` checks its own against the logits. The
loss computes one softmax that both terms read: cross-entropy scatters at the
label into a new gradient array, then Dice turns the softmax into its
gradient in place, selecting each pixel's per-class gradient with a boolean
one-hot, one image-sized array per block of images. The heads add biases and
apply ``tanh`` in place. The bank and its regularizers are evaluated once at
the start and once after every optimizer step; the next batch, the epoch-end
evaluations and the epoch record all reuse that evaluation.
"""

from __future__ import annotations

import copy
import json
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, TrainingDivergedError
from .filterbank import (
    FilterBankParams,
    WavelengthRange,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)
from .metrics import ConfusionMatrix, _check_labels, _count, compute_metrics
from .projection import (
    Hypercube,
    _chain,
    _check_response,
    _contract_channels,
    _each_image_block,
    _image_values,
    _reduce_pixels,
)
from .regularization import RegConfig, total_reg
from .rng import make_generator


# ---------------------------------------------------------------------------
# Segmentation heads
# ---------------------------------------------------------------------------

class LinearHead:
    """The one per-pixel dense layer, (weight @ q) @ x[images] + bias; backward returns dL/dq, or dL/dx if q is None."""

    kind = "linear"

    def __init__(self, weight: np.ndarray):
        self.weight = weight
        self.bias = np.zeros(len(weight))

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def _forward(self, x: np.ndarray, q: np.ndarray | None = None, images=None):
        matrix = self.weight if q is None else self.weight @ q
        logits = _contract_channels(matrix, x, images)
        logits += self.bias[None, :, None, None]
        return logits, (x, q, images)

    forward = _forward

    def backward(self, cache, d_logits: np.ndarray):
        x, q, images = cache
        reduced = _reduce_pixels(d_logits, x, images)
        bias = np.sum(d_logits, axis=(0, 2, 3))
        if q is None:
            return {"weight": reduced, "bias": bias}, _contract_channels(self.weight.T, d_logits)
        return {"weight": reduced @ q.T, "bias": bias}, self.weight.T @ reduced


class MlpHead:
    """Two ``LinearHead`` layers with a tanh between: w1 (hidden, F), then w2 (K, hidden), on the features q @ x."""

    kind = "mlp"

    def __init__(self, w1: np.ndarray, w2: np.ndarray):
        self.layer1, self.layer2 = LinearHead(w1), LinearHead(w2)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.layer1.weight, "b1": self.layer1.bias, "w2": self.layer2.weight, "b2": self.layer2.bias}

    def _forward(self, x: np.ndarray, q: np.ndarray, images=None):
        hidden, first = self.layer1._forward(_contract_channels(q, x, images))
        np.tanh(hidden, out=hidden)
        logits, second = self.layer2._forward(hidden)
        return logits, (x, images, first, second)

    forward = _forward

    def backward(self, cache, d_logits: np.ndarray):
        x, images, first_cache, second_cache = cache
        second, d_hidden = self.layer2.backward(second_cache, d_logits)
        d_tanh = np.square(second_cache[0])
        d_hidden *= np.subtract(1.0, d_tanh, out=d_tanh)
        first, d_feats = self.layer1.backward(first_cache, d_hidden)
        del d_hidden, d_tanh  # before the bank reduction
        grads = {"w1": first["weight"], "b1": first["bias"], "w2": second["weight"], "b2": second["bias"]}
        return grads, _reduce_pixels(d_feats, x, images)


# The head kinds ``TrainConfig.head`` may name, each drawing its start (see make_head).
_HEADS = {
    "linear": lambda k, f, rng, hidden: LinearHead(rng.normal(0.0, 0.1, (k, f))),
    "mlp": lambda k, f, rng, hidden: MlpHead(
        rng.normal(0.0, 1.0 / np.sqrt(max(f, 1)), (hidden, f)), rng.normal(0.0, 0.3, (k, hidden))
    ),
}


def _head_kind(kind: str):
    if kind not in _HEADS:
        raise ConfigurationError(f"head must be one of {', '.join(map(repr, _HEADS))}, got {kind!r}")
    return _HEADS[kind]


def make_head(kind: str, num_classes: int, num_features: int, rng, hidden: int = 8):
    """A new head of ``kind`` for K = ``num_classes`` on F = ``num_features`` channels.

    The one place a head's start is drawn from ``rng``: the linear weight
    (K, F) from N(0, 0.1); the MLP's w1 (``hidden``, F) from N(0, 1/sqrt(F)),
    then w2 (K, ``hidden``) from N(0, 0.3). Biases start at zero.
    """
    return _head_kind(kind)(num_classes, num_features, rng, hidden)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis, computed in one new array."""
    p = np.empty_like(logits)

    def softmax(lo, hi):
        block = p[lo:hi]
        np.subtract(logits[lo:hi], logits[lo:hi].max(axis=1, keepdims=True), out=block)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)

    _each_image_block(softmax, len(p), _image_values(p))
    return p


def weighted_cross_entropy(
    probs: np.ndarray, target: np.ndarray, mask: np.ndarray, class_weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean negative log-softmax over labelled pixels, and its logit gradient.

    Reads the softmax ``probs``; the callers of ``_seg_loss`` check the rest.
    Normalizes by the summed weights of the contributing pixels, so uniform
    weights give the plain per-pixel mean.
    """
    pix_w, p_y, weighted_log_p = (np.empty(target.shape) for _ in range(3))

    def log_likelihood(lo, hi):
        w, log_p = pix_w[lo:hi], weighted_log_p[lo:hi]
        np.take(class_weights, target[lo:hi], out=w, mode="clip")  # the labels are checked
        w *= mask[lo:hi]  # zero where ignored
        p_y[lo:hi] = np.take_along_axis(probs[lo:hi], target[lo:hi], axis=1)
        np.maximum(p_y[lo:hi], np.finfo(float).tiny, out=log_p)
        np.log(log_p, out=log_p)
        log_p *= w

    _each_image_block(log_likelihood, len(probs), _image_values(probs))
    w_total = pix_w.sum()
    if w_total <= 0:
        raise ConfigurationError("total class weight over present labels is zero")
    value = float(-np.sum(weighted_log_p) / w_total)
    del weighted_log_p  # before the gradient array, which would otherwise raise the peak
    grad = np.empty_like(probs)

    # (probs - onehot) * pix_w / w_total
    def gradient(lo, hi):
        p_y[lo:hi] -= mask[lo:hi]
        np.copyto(grad[lo:hi], probs[lo:hi])
        np.put_along_axis(grad[lo:hi], target[lo:hi], p_y[lo:hi], axis=1)
        pix_w[lo:hi] /= w_total
        grad[lo:hi] *= pix_w[lo:hi]

    _each_image_block(gradient, len(probs), _image_values(probs))
    return value, grad


def soft_dice(p: np.ndarray, target: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice on softmax probabilities, averaged over all classes.

    1 - mean_k (2 * sum(p_k * g_k) + s) / (sum(p_k) + sum(g_k) + s), with
    smoothing s = 1, one-hot targets g and sums over labelled pixels. Turns
    the softmax ``p`` into the logit gradient in place.
    """
    num_classes = p.shape[1]
    classes = np.arange(num_classes)[:, None, None]
    onehot = np.empty(p.shape, dtype=bool)  # labelled pixels of each class

    # Image by image, so the temporaries stay small; ``image`` holds one
    # image's values at a time. Adding each image's plane sums in image order,
    # on the calling thread, adds the same values in the same order as one
    # np.sum over the (B, H, W) axes, which the dense oracle in the tests
    # checks.
    def plane_sums(lo, hi):
        p[lo:hi] *= mask[lo:hi]  # zero where ignored
        np.equal(target[lo:hi], classes, out=onehot[lo:hi])
        onehot[lo:hi] &= mask[lo:hi]
        image = np.empty(p.shape[1:])
        sums = []
        for p_img, g_img in zip(p[lo:hi], onehot[lo:hi]):
            overlap = np.sum(np.multiply(p_img, g_img, out=image), axis=(1, 2))
            sums.append((overlap, np.sum(np.add(p_img, g_img, out=image), axis=(1, 2))))
        return sums

    overlap = np.zeros(num_classes)
    total = np.zeros(num_classes)
    for block in _each_image_block(plane_sums, len(p), _image_values(p)):
        for image_overlap, image_total in block:
            overlap += image_overlap
            total += image_total
    denom = total + 1.0
    dice_k = (2.0 * overlap + 1.0) / denom
    value = float(1.0 - dice_k.mean())

    # d(value)/dp takes one value per class where g = 0 and one where g = 1;
    # then through the softmax Jacobian per pixel, into p's array. p = 0
    # keeps ignored pixels at zero gradient.
    through_denom = (2.0 * overlap + 1.0) / denom**2
    at_miss = (-(2.0 * 0.0 / denom - through_denom) / num_classes)[:, None, None]
    at_hit = (-(2.0 * 1.0 / denom - through_denom) / num_classes)[:, None, None]

    def gradient(lo, hi):
        image = np.empty(p.shape[1:])
        for p_img, g_img in zip(p[lo:hi], onehot[lo:hi]):
            np.copyto(image, at_miss)
            np.copyto(image, at_hit, where=g_img)
            image -= np.sum(image * p_img, axis=0, keepdims=True)
            p_img *= image

    _each_image_block(gradient, len(p), _image_values(p))
    return value, p


def seg_loss(logits: np.ndarray, labels: np.ndarray, class_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Combined class-weighted cross-entropy and soft Dice, unit weights each, on one softmax."""
    num_classes = logits.shape[1]
    weights = np.asarray(class_weights, dtype=float)
    if weights.shape != (num_classes,):
        raise ConfigurationError(f"class weights must have shape ({num_classes},)")
    if not np.all(weights >= 0):  # NaN fails this too
        raise ConfigurationError("class weights must be non-negative numbers")
    shape = (len(logits),) + logits.shape[2:]
    target, mask = (a[:, None] for a in _check_labels(labels, num_classes, shape))  # (B, 1, H, W)
    if not mask.any():
        raise DataError("all pixels are ignored; the loss is undefined")
    return _seg_loss(logits, target, mask, weights)


def _seg_loss(logits, target, mask, weights) -> tuple[float, np.ndarray]:
    """``seg_loss`` on a checked (B, 1, H, W) ``(target, mask)`` pair with a labelled pixel."""
    probs = _softmax(logits)
    ce, grad = weighted_cross_entropy(probs, target, mask, weights)
    dice, dice_grad = soft_dice(probs, target, mask)
    grad += dice_grad
    return ce + dice, grad


def inverse_frequency_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class weights proportional to inverse pixel frequency, mean 1, of labels that pass ``_check_labels``."""
    return _class_weights(*_check_labels(labels, num_classes), num_classes)


def _class_weights(target, mask, num_classes) -> np.ndarray:
    """The weights of a checked pair; counts floor at one pixel, so a class absent from the split stays finite."""
    weights = 1.0 / np.maximum(np.bincount(target[mask], minlength=num_classes), 1.0)
    return weights / weights.mean()


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_HEAD_WEIGHT_DECAY = 1e-2  # the bank takes none


class AdamW:
    """Bias-corrected Adam with decoupled weight decay, one decay per array.

    ``step`` updates ``params`` and the moments in place, element by element;
    decay scales a parameter before its moment update.
    """

    def __init__(self, params: list[np.ndarray], lr: float, weight_decay: list[float]):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.step_count += 1
        m_scale = 1.0 - _BETA1**self.step_count
        v_scale = 1.0 - _BETA2**self.step_count
        with np.errstate(over="ignore", invalid="ignore"):
            for p, g, m, v, wd in zip(self.params, grads, self.m, self.v, self.weight_decay):
                p *= 1.0 - self.lr * wd
                m *= _BETA1
                m += (1.0 - _BETA1) * g
                v *= _BETA2
                v += (1.0 - _BETA2) * np.square(g)
                p -= self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + _EPS)


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    max_epochs: int = 300
    patience: int = 30
    batch_size: int = 4
    seed: int = 42
    reg: RegConfig = field(default_factory=RegConfig)
    head: str = "linear"
    head_hidden: int = 8

    def __post_init__(self):
        _head_kind(self.head)
        for name in ("max_epochs", "patience", "batch_size", "head_hidden"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.patience > self.max_epochs:
            raise ConfigurationError("patience must lie in [1, max_epochs]")
        # Written so that NaN fails it: every comparison with NaN is false.
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


# An inferred K above this comes from a stray label, not a class: the paper's
# datasets have a few tens of classes, and K sizes K x K counts.
_MAX_INFERRED_K = 256

# The epochs.csv header and the report.json record keys, in EpochRecord field order.
_EPOCH_COLUMNS = ("epoch", "seg_loss", "L_dom", "L_sep", "L_bw", "train_miou", "val_miou")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    seg_loss: float
    dominance: float
    separation: float
    bandwidth: float
    train_miou: float
    val_miou: float


@dataclass
class TrainReport:
    """Everything a run produced: per-epoch records, trajectory, best snapshot."""

    records: list[EpochRecord]
    best_epoch: int
    best_val_miou: float
    params: FilterBankParams  # best-epoch snapshot
    head: LinearHead | MlpHead  # best-epoch snapshot
    centroid_history: np.ndarray  # (epochs, F, P)
    num_classes: int
    stopped_early: bool

    @property
    def centroid_out_of_range_epochs(self) -> int:
        """Epochs that ended with a centroid outside [0, 1], which training never clamps."""
        outside = (self.centroid_history < 0.0) | (self.centroid_history > 1.0)
        return int(np.count_nonzero(outside.any(axis=(1, 2))))

    def epochs_csv(self) -> str:
        lines = [",".join(_EPOCH_COLUMNS)]
        lines += [",".join(map(repr, astuple(r))) for r in self.records]
        return "\n".join(lines) + "\n"

    def centroids_csv(self) -> str:
        lines = ["epoch,filter,peak,centroid"]
        for e, snapshot in enumerate(self.centroid_history.tolist(), start=1):
            for f, centroids in enumerate(snapshot):
                lines += [f"{e},{f},{p},{c!r}" for p, c in enumerate(centroids)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "best_epoch": self.best_epoch,
            "best_val_miou": self.best_val_miou,
            "epochs_run": len(self.records),
            "stopped_early": self.stopped_early,
            "num_classes": self.num_classes,
            "centroid_out_of_range_epochs": self.centroid_out_of_range_epochs,
            "head": self.head.kind,
            "filters": self.params.to_json_dict(),
            "records": [dict(zip(_EPOCH_COLUMNS, astuple(r))) for r in self.records],
        }, indent=2)


def _argmax_classes(logits: np.ndarray) -> np.ndarray:
    """``np.argmax(logits, axis=1)`` as K - 1 strict comparisons of whole class planes.

    A later class wins only when strictly greater, so ties go to the lower
    class index, as with ``np.argmax``.
    """
    pred = np.zeros((len(logits),) + logits.shape[2:], dtype=np.intp)
    best = logits[:, 0].copy()
    better = np.empty(best.shape, dtype=bool)
    for k in range(1, logits.shape[1]):
        np.greater(logits[:, k], best, out=better)
        pred[better] = k
        np.maximum(best, logits[:, k], out=best)
    return pred


def _predict(response, head, cube: Hypercube, fn) -> list:
    """``fn(lo, hi, pred)`` for each block of images, ``pred`` the head's classes on them.

    Runs ``apply_filter_bank``'s checks first; then each block runs the
    head's private forward and the argmax on the calling thread and the
    pool. Returns ``fn``'s results in block order. One block's logits (and
    an MLP's features) are alive per thread.
    """
    _check_response(response, cube)

    def block(lo, hi):
        logits = head._forward(cube.data[lo:hi], response.weights)[0]
        return fn(lo, hi, _argmax_classes(logits))

    return _each_image_block(block, cube.dims[0], _image_values(cube.data))


def _miou(response, head, cube, target, mask, num_classes) -> float:
    """mIoU of the head on ``cube`` against a ``_check_labels`` pair, counted block by block by ``metrics._count``."""
    counts = _predict(response, head, cube, lambda lo, hi, pred: _count(target[lo:hi], mask[lo:hi], pred, num_classes))
    cm = ConfusionMatrix(num_classes)
    cm.counts += sum(counts)
    return compute_metrics(cm).miou


def _bank_state(bank, lam_norm, reg):
    """The bank's response, its ``RegLosses`` and ``lambda_reg`` times their gradient.

    The response refers to ``bank`` itself, which the optimizer updates in
    place, so the state holds only until the next step.
    """
    response = evaluate_filter_bank(bank, lam_norm)
    reg_losses, reg_grad = total_reg(bank, reg)
    return response, reg_losses, reg.lambda_reg * reg_grad


def _batch_gradients(head, response, reg_grad, data, idx, labels, weights, epoch, step):
    """Segmentation loss of the batch ``data[idx]`` and its gradients in parameter order.

    ``data`` is the array of a cube that ``response`` fits; the head reads its
    ``idx`` images in place, and ``labels`` is their ``_seg_loss`` pair. The
    gradients are those of ``[bank.table, *head.parameters().values()]``;
    the bank's is ``_chain`` of the head's dL/dQ plus ``reg_grad``.
    """
    logits, cache = head.forward(data, response.weights, idx)
    seg, d_logits = _seg_loss(logits, *labels, weights)
    if not np.isfinite(seg):
        raise TrainingDivergedError(epoch, step, "seg_loss")
    head_grads, grad_q = head.backward(cache, d_logits)
    return seg, [_chain(response, grad_q) + reg_grad, *head_grads.values()]


def train(
    train_data: tuple[Hypercube, np.ndarray],
    val_data: tuple[Hypercube, np.ndarray],
    num_filters: int,
    peaks_per_filter: int,
    config: TrainConfig,
    num_classes: int | None = None,
) -> TrainReport:
    """Jointly optimize the filter bank and the head on the full objective.

    Evaluates validation mIoU every epoch, stops after ``patience`` epochs
    without strict improvement, and returns the best-epoch snapshot together
    with the full trajectory. The bank's wavelength range is the first/last
    channel wavelength of the training cube. Each split's labels pass
    ``metrics._check_labels`` once; the weights, losses and mIoU counts read
    its pair. K is inferred as one more than the largest label, and at most
    ``_MAX_INFERRED_K``; a given ``num_classes`` has no bound. Unlabelled
    pixels enter no loss and no metric: a batch with none takes no step.
    """
    train_cube, train_labels = train_data
    val_cube, val_labels = val_data
    if train_cube.dims[0] < 1 or val_cube.dims[0] < 1:
        raise ConfigurationError("need at least one training and one validation image")
    (train_target, train_mask), (val_target, val_mask) = (
        _check_labels(labels, num_classes, (cube.dims[0],) + cube.dims[2:], f"{split} labels")
        for split, cube, labels in (("train", train_cube, train_labels), ("val", val_cube, val_labels))
    )
    if not train_mask.any() or not val_mask.any():
        raise ConfigurationError("a split has no labeled pixels")

    if num_classes is None:
        num_classes = max(int(train_target.max()), int(val_target.max())) + 1
        if num_classes > _MAX_INFERRED_K:
            message = f"largest label {num_classes - 1} infers more than {_MAX_INFERRED_K} classes; pass num_classes"
            raise ConfigurationError(message)
    weights = _class_weights(train_target, train_mask, num_classes)

    wl = train_cube.wavelengths_nm
    wl_range = WavelengthRange(float(wl[0]), float(wl[-1]))
    lam_norm = normalize_wavelengths(wl, wl_range)
    if not np.array_equal(val_cube.wavelengths_nm, wl):
        raise ConfigurationError("train and validation cubes have different channel grids")

    bank = init_filter_bank(num_filters, peaks_per_filter, wl_range, config.seed)
    head = make_head(
        config.head, num_classes, num_filters, make_generator(config.seed, 1), hidden=config.head_hidden
    )
    shuffle_rng = make_generator(config.seed, 2)

    params = [bank.table, *head.parameters().values()]
    decay = [0.0] + [_HEAD_WEIGHT_DECAY] * (len(params) - 1)
    optimizer = AdamW(params, config.learning_rate, decay)

    num_images = train_cube.dims[0]
    records: list[EpochRecord] = []
    centroid_history = []
    best_epoch = 0
    best_val = -np.inf
    best_bank = bank.copy()
    best_head = copy.deepcopy(head)
    since_improvement = 0
    stopped_early = False
    response, reg_losses, reg_grad = _bank_state(bank, lam_norm, config.reg)
    _check_response(response, train_cube)  # every step's response has the same shape

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(num_images)
        epoch_seg = []
        for step, start in enumerate(range(0, num_images, config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            batch = train_target[idx, None], train_mask[idx, None]
            if not batch[1].any():
                continue  # no labelled pixel, so no loss to descend
            seg, grads = _batch_gradients(head, response, reg_grad, train_cube.data, idx, batch, weights, epoch, step)
            epoch_seg.append(seg)
            optimizer.step(grads)
            for group, p in zip(("bank", *head.parameters()), params):
                if not np.all(np.isfinite(p)):
                    raise TrainingDivergedError(epoch, step, group)
            response, reg_losses, reg_grad = _bank_state(bank, lam_norm, config.reg)

        train_miou = _miou(response, head, train_cube, train_target, train_mask, num_classes)
        val_miou = _miou(response, head, val_cube, val_target, val_mask, num_classes)
        records.append(
            EpochRecord(
                epoch=epoch,
                seg_loss=float(np.mean(epoch_seg)),
                dominance=reg_losses.dominance,
                separation=reg_losses.separation,
                bandwidth=reg_losses.bandwidth,
                train_miou=train_miou,
                val_miou=val_miou,
            )
        )
        centroid_history.append(bank.centroids.copy())

        if val_miou > best_val:
            best_val = val_miou
            best_epoch = epoch
            best_bank = bank.copy()
            best_head = copy.deepcopy(head)
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                stopped_early = True
                break

    return TrainReport(
        records=records,
        best_epoch=best_epoch,
        best_val_miou=float(best_val),
        params=best_bank,
        head=best_head,
        centroid_history=np.array(centroid_history),
        num_classes=num_classes,
        stopped_early=stopped_early,
    )


def predict(report: TrainReport, cube: Hypercube) -> np.ndarray:
    """Per-pixel class predictions of a report's best snapshot on a cube."""
    bank = report.params
    response = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, bank.range))
    return np.concatenate(_predict(response, report.head, cube, lambda lo, hi, pred: pred))
