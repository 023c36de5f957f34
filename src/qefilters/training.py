"""End-to-end training of the filter bank against a per-pixel objective.

The gradient consumer is deliberately tiny: a per-pixel linear softmax head
(optionally with one tanh hidden layer) standing in for a full segmentation
network. It preserves the exact gradient path from the objective through the
spectral integration back to all bank parameters while keeping the package
dependency-free.

The objective is class-weighted cross-entropy plus soft Dice, plus the
weighted regularization total. Optimization is AdamW with decoupled weight
decay; bank parameters take no decay (their derived quantities are bounded by
construction), head parameters default to 1e-2.

The training loop itself is single-threaded. Head contractions over the
feature axis are one BLAS GEMM per image (``projection._contract_channels``);
head weight gradients, which sum over pixels, are plain ``np.einsum`` calls
with no BLAS routine. Neither depends on the BLAS thread count (see
:mod:`qefilters.projection`), so identical configs and data reproduce runs
bit-for-bit under any thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DataError, TrainingDivergedError
from .filterbank import (
    FilterBankParams,
    WavelengthRange,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)
from .metrics import IGNORE_LABEL, ConfusionMatrix, compute_metrics
from .projection import Hypercube, _contract_channels, apply_filter_bank, backward
from .regularization import RegConfig, RegLosses, total_reg
from .rng import make_generator


# ---------------------------------------------------------------------------
# Segmentation heads
# ---------------------------------------------------------------------------

class LinearHead:
    """Per-pixel K-way linear classifier on the reduced channels."""

    kind = "linear"

    def __init__(self, num_classes: int, num_features: int, rng: np.random.Generator):
        self.weight = rng.normal(0.0, 0.1, (num_classes, num_features))
        self.bias = np.zeros(num_classes)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        self.weight = params["weight"].copy()
        self.bias = params["bias"].copy()

    def forward(self, feats: np.ndarray):
        logits = _contract_channels(self.weight, feats) + self.bias[None, :, None, None]
        return logits, feats

    def backward(self, cache, d_logits: np.ndarray):
        feats = cache
        grads = {
            "weight": np.einsum("bkhw,bfhw->kf", d_logits, feats),
            "bias": np.sum(d_logits, axis=(0, 2, 3)),
        }
        d_feats = _contract_channels(self.weight.T, d_logits)
        return grads, d_feats


class MlpHead:
    """Linear head with one tanh hidden layer (default width 8)."""

    kind = "mlp"

    def __init__(
        self, num_classes: int, num_features: int, rng: np.random.Generator, hidden: int = 8
    ):
        scale = 1.0 / np.sqrt(max(num_features, 1))
        self.w1 = rng.normal(0.0, scale, (hidden, num_features))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, 0.3, (num_classes, hidden))
        self.b2 = np.zeros(num_classes)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        self.w1 = params["w1"].copy()
        self.b1 = params["b1"].copy()
        self.w2 = params["w2"].copy()
        self.b2 = params["b2"].copy()

    def forward(self, feats: np.ndarray):
        pre = _contract_channels(self.w1, feats) + self.b1[None, :, None, None]
        hidden = np.tanh(pre)
        logits = _contract_channels(self.w2, hidden) + self.b2[None, :, None, None]
        return logits, (feats, hidden)

    def backward(self, cache, d_logits: np.ndarray):
        feats, hidden = cache
        d_hidden = _contract_channels(self.w2.T, d_logits) * (1.0 - hidden**2)
        grads = {
            "w1": np.einsum("bjhw,bfhw->jf", d_hidden, feats),
            "b1": np.sum(d_hidden, axis=(0, 2, 3)),
            "w2": np.einsum("bkhw,bjhw->kj", d_logits, hidden),
            "b2": np.sum(d_logits, axis=(0, 2, 3)),
        }
        d_feats = _contract_channels(self.w1.T, d_hidden)
        return grads, d_feats


def make_head(kind: str, num_classes: int, num_features: int, rng, hidden: int = 8):
    if kind == "linear":
        return LinearHead(num_classes, num_features, rng)
    if kind == "mlp":
        return MlpHead(num_classes, num_features, rng, hidden=hidden)
    raise ConfigurationError(f"unknown head kind {kind!r} (expected 'linear' or 'mlp')")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_labels(labels: np.ndarray, num_classes: int, ignore: int) -> np.ndarray:
    labels = np.asarray(labels)
    mask = labels != ignore
    vals = labels[mask]
    if vals.size and (vals.min() < 0 or vals.max() >= num_classes):
        bad = vals[(vals < 0) | (vals >= num_classes)][0]
        raise DataError(f"label {bad} outside [0, {num_classes}) and not the ignore value")
    return mask


def _onehot_targets(labels: np.ndarray, num_classes: int, ignore: int) -> np.ndarray:
    """(B, K, H, W) boolean one-hot targets, all False on ignored pixels.

    The ignore value may lie inside [0, K), so the one-hot is masked rather
    than trusted to miss it.
    """
    mask = _check_labels(labels, num_classes, ignore)
    classes = np.arange(num_classes)[:, None, None]
    return (np.asarray(labels)[:, None] == classes) & mask[:, None]


def weighted_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    ignore: int = IGNORE_LABEL,
) -> tuple[float, np.ndarray]:
    """Weighted mean negative log-softmax over non-ignored pixels.

    Normalizes by the summed weights of the contributing pixels, so uniform
    weights give the plain per-pixel mean.
    """
    num_classes = logits.shape[1]
    weights = np.asarray(class_weights, dtype=float)
    if weights.shape != (num_classes,):
        raise ConfigurationError(f"class weights must have shape ({num_classes},)")
    if np.any(weights < 0):
        raise ConfigurationError("class weights must be non-negative")
    onehot = _onehot_targets(labels, num_classes, ignore)
    if not onehot.any():
        raise DataError("all pixels are ignored; cross-entropy undefined")

    probs = _softmax(logits)
    pix_w = np.sum(onehot * weights[:, None, None], axis=1, keepdims=True)  # zero where ignored
    w_total = pix_w.sum()
    if w_total <= 0:
        raise ConfigurationError("total class weight over present labels is zero")
    p_y = np.sum(probs * onehot, axis=1, keepdims=True)
    log_p = np.log(np.maximum(p_y, np.finfo(float).tiny))
    value = float(-np.sum(pix_w * log_p) / w_total)
    grad = (probs - onehot) * (pix_w / w_total)
    return value, grad


def soft_dice(
    logits: np.ndarray,
    labels: np.ndarray,
    ignore: int = IGNORE_LABEL,
    smoothing: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Soft Dice on softmax probabilities, averaged over all classes.

    1 - mean_k (2 * sum(p_k * g_k) + s) / (sum(p_k) + sum(g_k) + s), with
    one-hot targets g and sums over non-ignored pixels.
    """
    num_classes = logits.shape[1]
    onehot = _onehot_targets(labels, num_classes, ignore)
    if not onehot.any():
        raise DataError("all pixels are ignored; Dice undefined")
    p = _softmax(logits) * onehot.any(axis=1, keepdims=True)  # zero where ignored

    pixels = (0, 2, 3)  # per-class sums, shaped (1, K, 1, 1)
    overlap = np.sum(p * onehot, axis=pixels, keepdims=True)
    denom = np.sum(p + onehot, axis=pixels, keepdims=True) + smoothing
    dice_k = (2.0 * overlap + smoothing) / denom
    value = float(1.0 - dice_k.mean())

    # d(value)/dp then through the softmax Jacobian per pixel; p = 0 keeps
    # ignored pixels at zero gradient.
    d_p = -(2.0 * onehot / denom - (2.0 * overlap + smoothing) / denom**2)
    d_p /= num_classes
    inner = np.sum(d_p * p, axis=1, keepdims=True)
    return value, p * (d_p - inner)


def seg_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    ignore: int = IGNORE_LABEL,
) -> tuple[float, np.ndarray]:
    """Combined class-weighted cross-entropy and soft Dice, unit weights each."""
    ce, ce_grad = weighted_cross_entropy(logits, labels, class_weights, ignore)
    dice, dice_grad = soft_dice(logits, labels, ignore)
    return ce + dice, ce_grad + dice_grad


def total_loss(seg: float, reg: RegLosses, lambda_reg: float) -> float:
    """Full objective: segmentation loss plus weighted regularization total."""
    if lambda_reg < 0:
        raise ConfigurationError(f"lambda_reg must be >= 0, got {lambda_reg}")
    return seg + lambda_reg * reg.total


def inverse_frequency_weights(
    labels: np.ndarray, num_classes: int, ignore: int = IGNORE_LABEL
) -> np.ndarray:
    """Per-class weights proportional to inverse pixel frequency, mean 1.

    Counts are floored at one pixel so classes absent from the split stay
    finite; they never contribute to the loss anyway.
    """
    mask = np.asarray(labels) != ignore
    vals = np.asarray(labels)[mask].astype(np.int64)
    counts = np.bincount(vals, minlength=num_classes).astype(float)
    counts = np.maximum(counts, 1.0)
    weights = 1.0 / counts
    return weights / weights.mean()


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

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


class AdamW:
    """Named-parameter AdamW with per-group weight decay."""

    def __init__(self, named_params: dict[str, np.ndarray], lr: float, weight_decay: dict[str, float]):
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(p) for k, p in named_params.items()}
        self.v = {k: np.zeros_like(p) for k, p in named_params.items()}
        self.step_count = 0

    def step(self, named_params: dict[str, np.ndarray], named_grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        self.step_count += 1
        out = {}
        for name, p in named_params.items():
            wd = self.weight_decay.get(name, 0.0)
            out[name], self.m[name], self.v[name] = adam_step(
                p, named_grads[name], self.m[name], self.v[name], self.step_count,
                lr=self.lr, weight_decay=wd,
            )
        return out


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
    class_weights: str | tuple[float, ...] = "inverse-frequency"
    accumulate_steps: int = 1
    head: str = "linear"
    head_hidden: int = 8
    head_weight_decay: float = 1e-2

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigurationError("patience must lie in [1, max_epochs]")
        if self.batch_size < 1 or self.accumulate_steps < 1:
            raise ConfigurationError("batch_size and accumulate_steps must be >= 1")


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
    head_kind: str
    head_state: dict[str, np.ndarray]  # best-epoch snapshot
    centroid_history: np.ndarray  # (epochs, F, P)
    num_classes: int
    stopped_early: bool
    # Centroids are never hard-clamped during training; this diagnostic counts
    # epochs that ended with any centroid outside [0, 1].
    centroid_out_of_range_epochs: int = 0

    def epochs_csv(self) -> str:
        lines = ["epoch,seg_loss,L_dom,L_sep,L_bw,train_miou,val_miou"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.seg_loss!r},{r.dominance!r},{r.separation!r},"
                f"{r.bandwidth!r},{r.train_miou!r},{r.val_miou!r}"
            )
        return "\n".join(lines) + "\n"

    def centroids_csv(self) -> str:
        lines = ["epoch,filter,peak,centroid"]
        for e, snapshot in enumerate(self.centroid_history, start=1):
            for f in range(snapshot.shape[0]):
                for p in range(snapshot.shape[1]):
                    lines.append(f"{e},{f},{p},{snapshot[f, p]!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "best_val_miou": self.best_val_miou,
            "epochs_run": len(self.records),
            "stopped_early": self.stopped_early,
            "num_classes": self.num_classes,
            "centroid_out_of_range_epochs": self.centroid_out_of_range_epochs,
            "head": self.head_kind,
            "filters": self.params.to_json_dict(),
            "records": [
                {
                    "epoch": r.epoch,
                    "seg_loss": r.seg_loss,
                    "L_dom": r.dominance,
                    "L_sep": r.separation,
                    "L_bw": r.bandwidth,
                    "train_miou": r.train_miou,
                    "val_miou": r.val_miou,
                }
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _dominant_centroids(params: FilterBankParams) -> np.ndarray:
    star = params.dominant_peaks()
    return params.centroids[np.arange(params.num_filters), star]


def _predict(bank, head, lam_norm, cube: Hypercube) -> np.ndarray:
    response = evaluate_filter_bank(bank, lam_norm)
    feats = apply_filter_bank(cube, response).data
    logits, _ = head.forward(feats)
    return np.argmax(logits, axis=1)


def _miou(bank, head, lam_norm, cube, labels, num_classes, ignore) -> float:
    pred = _predict(bank, head, lam_norm, cube)
    cm = ConfusionMatrix(num_classes).accumulate(pred, labels, ignore)
    return compute_metrics(cm).miou


def _batch_gradients(bank, head, lam_norm, cube, labels, idx, weights, ignore, reg, epoch):
    """Segmentation loss and named gradients of the images ``idx`` of ``cube``.

    The batch copy and its activations are locals here, so they are freed on
    return, before the caller gathers the next batch.
    """
    sub = Hypercube(cube.data[idx], cube.wavelengths_nm)
    response = evaluate_filter_bank(bank, lam_norm)
    feats = apply_filter_bank(sub, response).data
    logits, cache = head.forward(feats)
    seg, d_logits = seg_loss(logits, labels[idx], weights, ignore)
    if not np.isfinite(seg):
        raise TrainingDivergedError(epoch)
    head_grads, d_feats = head.backward(cache, d_logits)
    bank_grads, _ = backward(sub, response, d_feats)
    _, reg_grads = total_reg(bank, reg)
    grads = {"bank": bank_grads.table + reg.lambda_reg * reg_grads.table}
    grads.update({f"head.{k}": g for k, g in head_grads.items()})
    return seg, grads


def train(
    train_data: tuple[Hypercube, np.ndarray],
    val_data: tuple[Hypercube, np.ndarray],
    num_filters: int,
    peaks_per_filter: int,
    config: TrainConfig,
    num_classes: int | None = None,
    ignore: int = IGNORE_LABEL,
) -> TrainReport:
    """Jointly optimize the filter bank and the head on the full objective.

    Evaluates validation mIoU every epoch, stops after ``patience`` epochs
    without strict improvement, and returns the best-epoch snapshot together
    with the full trajectory. The bank's wavelength range is the first/last
    channel wavelength of the training cube.
    """
    train_cube, train_labels = train_data
    val_cube, val_labels = val_data
    train_labels = np.asarray(train_labels)
    val_labels = np.asarray(val_labels)
    if train_cube.dims[0] < 1 or val_cube.dims[0] < 1:
        raise ConfigurationError("need at least one training and one validation image")
    if not np.any(train_labels != ignore) or not np.any(val_labels != ignore):
        raise ConfigurationError("a split has no labeled pixels")

    if num_classes is None:
        num_classes = int(
            max(train_labels[train_labels != ignore].max(), val_labels[val_labels != ignore].max())
        ) + 1
    _check_labels(train_labels, num_classes, ignore)
    _check_labels(val_labels, num_classes, ignore)

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

    if config.class_weights == "inverse-frequency":
        weights = inverse_frequency_weights(train_labels, num_classes, ignore)
    else:
        weights = np.asarray(config.class_weights, dtype=float)
        if weights.shape != (num_classes,):
            raise ConfigurationError(
                f"class_weights must have {num_classes} entries, got shape {weights.shape}"
            )

    named = {"bank": bank.table}
    named.update({f"head.{k}": p for k, p in head.parameters().items()})
    decay = {"bank": 0.0}
    decay.update({f"head.{k}": config.head_weight_decay for k in head.parameters()})
    optimizer = AdamW(named, lr=config.learning_rate, weight_decay=decay)

    num_images = train_cube.dims[0]
    batch = min(config.batch_size, num_images)

    records: list[EpochRecord] = []
    centroid_history = []
    best_epoch = 0
    best_val = -np.inf
    best_bank = bank.copy()
    best_head = {k: p.copy() for k, p in head.parameters().items()}
    since_improvement = 0
    stopped_early = False
    out_of_range_epochs = 0

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(num_images)
        starts = range(0, num_images, batch)
        epoch_seg = []
        pending_grads: dict[str, np.ndarray] | None = None
        pending = 0
        for start in starts:
            idx = order[start : start + batch]
            seg, grads = _batch_gradients(
                bank, head, lam_norm, train_cube, train_labels, idx, weights, ignore, config.reg, epoch
            )
            epoch_seg.append(seg)
            if pending_grads is None:
                pending_grads = grads
            else:
                pending_grads = {k: pending_grads[k] + grads[k] for k in grads}
            pending += 1
            if pending < config.accumulate_steps:
                continue

            mean_grads = {k: g / pending for k, g in pending_grads.items()}
            named = {"bank": bank.table}
            named.update({f"head.{k}": p for k, p in head.parameters().items()})
            updated = optimizer.step(named, mean_grads)
            if any(not np.all(np.isfinite(p)) for p in updated.values()):
                raise TrainingDivergedError(epoch)
            bank = FilterBankParams(updated["bank"], wl_range)
            head.set_parameters({k.removeprefix("head."): v for k, v in updated.items() if k != "bank"})
            pending_grads = None
            pending = 0

        reg_losses, _ = total_reg(bank, config.reg)
        train_miou = _miou(bank, head, lam_norm, train_cube, train_labels, num_classes, ignore)
        val_miou = _miou(bank, head, lam_norm, val_cube, val_labels, num_classes, ignore)
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
        if np.any((bank.centroids < 0.0) | (bank.centroids > 1.0)):
            out_of_range_epochs += 1

        if val_miou > best_val:
            best_val = val_miou
            best_epoch = epoch
            best_bank = bank.copy()
            best_head = {k: p.copy() for k, p in head.parameters().items()}
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
        head_kind=config.head,
        head_state=best_head,
        centroid_history=np.array(centroid_history),
        num_classes=num_classes,
        stopped_early=stopped_early,
        centroid_out_of_range_epochs=out_of_range_epochs,
    )


def restore_head(report: TrainReport, num_filters: int):
    """Rebuild the best-epoch head from a report for prediction."""
    head = make_head(report.head_kind, report.num_classes, num_filters, make_generator(0),
                     hidden=report.head_state.get("w1", np.zeros((8, 1))).shape[0]
                     if report.head_kind == "mlp" else 8)
    head.set_parameters(report.head_state)
    return head


def predict(report: TrainReport, cube: Hypercube) -> np.ndarray:
    """Per-pixel class predictions of a report's best snapshot on a cube."""
    bank = report.params
    lam_norm = normalize_wavelengths(cube.wavelengths_nm, bank.range)
    head = restore_head(report, bank.num_filters)
    return _predict(bank, head, lam_norm, cube)
