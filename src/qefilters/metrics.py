"""Per-pixel segmentation metrics from a confusion matrix.

Rows index ground truth, columns index predictions. Classes absent from the
ground truth have undefined IoU/F1 and are excluded from the macro means.
All metrics are reported on a 0-100 scale (kappa on -100..100), two decimals
in formatted output. ``_check_labels`` holds the package's one rule for a
label map, its values and its (B, H, W) shape against its batch: ``train``
(each split), ``seg_loss``, ``accumulate``, ``stratified_sample`` and the
``.hypc`` writer run it with the shape, ``inverse_frequency_weights`` without.
``_count`` counts truth·K + prediction on its pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

IGNORE_LABEL = 65535  # the library's one unlabeled value; the CLI maps each file's to it


def _check_labels(labels, num_classes: int | None = None, shape=None, name="labels") -> tuple[np.ndarray, np.ndarray]:
    """The class index (``np.intp``, 0 where unlabelled) and the labelled mask of a label map.

    The package's one rule for labels: the map has the (B, H, W) ``shape`` of
    its batch, if given; each label is an integer, not NaN or infinite;
    ``IGNORE_LABEL`` marks an unlabelled pixel; any other lies in [0, K), or
    in [0, IGNORE_LABEL) without K. It runs on the values as given, before
    the cast, and its ``DataError`` names both shapes or the first bad label.
    An integer map costs one mask, one ``np.where`` and its min and max.
    """
    labels = np.asarray(labels)
    if shape is not None and labels.shape != shape:
        raise DataError(f"{name} have shape {labels.shape}, not the batch's {shape}")
    mask = labels != IGNORE_LABEL
    target = np.where(mask, labels, 0)
    limit = IGNORE_LABEL if num_classes is None else num_classes
    if labels.dtype.kind not in "biu" or target.size and (target.min() < 0 or target.max() >= limit):
        _reject_first(labels, mask, num_classes)
    return target.astype(np.intp, copy=False), mask


def _reject_first(values: np.ndarray, mask: np.ndarray, num_classes: int | None, what: str = "label") -> None:
    """Raise ``DataError`` for the first of ``values`` not an integer, or out of range where ``mask`` holds."""
    limit = IGNORE_LABEL if num_classes is None else num_classes
    bad = mask & ~((values >= 0) & (values < limit))  # NaN compares false
    if values.dtype.kind not in "biu":
        bad |= (values != np.floor(values)) | np.isinf(values)
    if not bad.any():
        return
    value = values[bad][0]
    if value != np.floor(value) or np.isinf(value):
        raise DataError(f"{what} {value} is not an integer")
    if num_classes is None and value < 0:
        raise DataError(f"{what} {value} is negative")
    raise DataError(f"{what} {value} outside [0, {limit})" + (" and not IGNORE_LABEL" if what == "label" else ""))


def _count(target: np.ndarray, mask: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    """K x K counts of truth·K + integer prediction on a ``_check_labels`` pair, read only where ``mask`` holds."""
    codes = np.full(target.shape, k * k, dtype=np.intp)  # one code past the counts where unlabelled
    np.multiply(target, k, out=codes, where=mask)
    np.add(codes, pred, out=codes, where=mask, casting="unsafe")
    return np.bincount(codes.ravel(), minlength=k * k + 1)[: k * k].reshape(k, k)


class ConfusionMatrix:
    """K x K integer counts; pixels labelled ``IGNORE_LABEL`` are never counted."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise DataError(f"need at least one class, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, predictions, labels) -> "ConfusionMatrix":
        """Add one count per labelled pixel. Order-independent.

        ``labels`` pass ``_check_labels``, whose pair ``_count`` reads;
        predictions are integers, and in [0, K) where the labels are labelled.
        """
        pred = np.asarray(predictions)
        target, mask = _check_labels(labels, self.num_classes, pred.shape)
        _reject_first(pred, mask, self.num_classes, "prediction")
        self.counts += _count(target, mask, pred, self.num_classes)
        return self


@dataclass(frozen=True)
class MetricsReport:
    per_class_iou: np.ndarray  # percent; NaN for classes absent from ground truth
    miou: float
    mf1: float
    kappa: float
    accuracy: float
    specificity: float

    def to_dict(self) -> dict:
        return {
            "per_class_iou": [None if np.isnan(v) else float(v) for v in self.per_class_iou],
            "miou": self.miou,
            "mf1": self.mf1,
            "kappa": self.kappa,
            "accuracy": self.accuracy,
            "specificity": self.specificity,
        }

    def format_table(self) -> str:
        """Aligned plain-text table, two decimals, one row per class."""
        names = [f"class_{i}" for i in range(len(self.per_class_iou))]
        width = max(len(n) for n in names + ["mSpecificity"])
        lines = [f"{'Class'.ljust(width)}  {'IoU':>7}"]
        for name, iou in zip(names, self.per_class_iou):
            cell = "  absent" if np.isnan(iou) else f"{iou:7.2f}"
            lines.append(f"{name.ljust(width)}  {cell}")
        lines.append("-" * (width + 9))
        for label, value in [
            ("mIoU", self.miou),
            ("mF1", self.mf1),
            ("Kappa", self.kappa),
            ("mAccuracy", self.accuracy),
            ("mSpecificity", self.specificity),
        ]:
            lines.append(f"{label.ljust(width)}  {value:7.2f}")
        return "\n".join(lines)


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive IoU / F1 / kappa / accuracy / specificity from the counts.

    kappa = (p_o - p_e) / (1 - p_e) with p_o the observed agreement and p_e
    the chance agreement from the marginals. A fully concentrated matrix has
    p_e = 1; agreement is then perfect by construction and kappa is reported
    as 100.
    """
    counts = cm.counts.astype(float)
    total = counts.sum()
    if total <= 0:
        raise DataError("confusion matrix is empty")
    tp = np.diag(counts)
    row = counts.sum(axis=1)  # ground-truth pixels per class
    col = counts.sum(axis=0)  # predicted pixels per class
    fp = col - tp
    fn = row - tp
    tn = total - tp - fp - fn
    present = row > 0

    with np.errstate(invalid="ignore", divide="ignore"):
        iou = tp / (tp + fp + fn)
        f1 = 2 * tp / (2 * tp + fp + fn)
        spec = tn / (tn + fp)
    acc = (tp + tn) / total

    iou_pct = np.where(present, iou * 100.0, np.nan)
    p_o = tp.sum() / total
    p_e = float(np.sum(row * col)) / total**2
    if 1.0 - p_e < 1e-15:
        kappa = 1.0 if p_o >= 1.0 - 1e-15 else 0.0
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)

    return MetricsReport(
        per_class_iou=iou_pct,
        miou=float(np.mean(iou[present])) * 100.0,
        mf1=float(np.mean(f1[present])) * 100.0,
        kappa=float(kappa) * 100.0,
        accuracy=float(np.mean(acc[present])) * 100.0,
        specificity=float(np.mean(spec[present])) * 100.0,
    )
