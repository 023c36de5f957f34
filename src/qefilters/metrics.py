"""Per-pixel segmentation metrics from a confusion matrix.

Rows index ground truth, columns index predictions. Classes absent from the
ground truth have undefined IoU/F1 and are excluded from the macro means.
All metrics are reported on a 0-100 scale (kappa on -100..100), two decimals
in formatted output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

IGNORE_LABEL = 65535  # the library's one unlabeled value; the CLI maps each file's to it


def _check_integer_labels(labels: np.ndarray, what: str = "label") -> None:
    """Raise ``DataError`` naming the first ``what`` that is not a whole number.

    Integer and boolean arrays can hold nothing else, so their values go unread.
    """
    if labels.dtype.kind in "biu":
        return
    bad = (labels != np.floor(labels)) | np.isinf(labels)  # NaN differs from itself
    if bad.any():
        raise DataError(f"{what} {labels[bad][0]} is not an integer")


class ConfusionMatrix:
    """K x K integer counts; pixels labelled ``IGNORE_LABEL`` are never counted."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise DataError(f"need at least one class, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, predictions, labels) -> "ConfusionMatrix":
        """Add one count per labelled pixel. Order-independent."""
        pred = np.asarray(predictions)
        truth = np.asarray(labels)
        if pred.shape != truth.shape:
            raise DataError(f"prediction shape {pred.shape} does not match labels {truth.shape}")
        _check_integer_labels(truth)
        _check_integer_labels(pred, "prediction")
        mask = truth != IGNORE_LABEL
        pred = pred[mask].astype(np.int64)
        truth = truth[mask].astype(np.int64)
        if truth.size and (truth.min() < 0 or truth.max() >= self.num_classes):
            bad = truth[(truth < 0) | (truth >= self.num_classes)][0]
            raise DataError(f"label {bad} outside [0, {self.num_classes})")
        if pred.size and (pred.min() < 0 or pred.max() >= self.num_classes):
            bad = pred[(pred < 0) | (pred >= self.num_classes)][0]
            raise DataError(f"prediction {bad} outside [0, {self.num_classes})")
        flat = truth * self.num_classes + pred
        self.counts += np.bincount(flat, minlength=self.num_classes**2).reshape(
            self.num_classes, self.num_classes
        )
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
