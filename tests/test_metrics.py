import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qefilters import ConfusionMatrix, DataError, compute_metrics
from qefilters.metrics import IGNORE_LABEL


def naive_metrics(counts):
    """Per-formula oracle, plain Python loops."""
    k = len(counts)
    total = sum(sum(row) for row in counts)
    row = [sum(counts[i]) for i in range(k)]
    col = [sum(counts[i][j] for i in range(k)) for j in range(k)]
    ious, f1s, accs, specs = [], [], [], []
    for i in range(k):
        if row[i] == 0:
            continue
        tp = counts[i][i]
        fp = col[i] - tp
        fn = row[i] - tp
        tn = total - tp - fp - fn
        ious.append(tp / (tp + fp + fn))
        f1s.append(2 * tp / (2 * tp + fp + fn))
        accs.append((tp + tn) / total)
        specs.append(tn / (tn + fp) if tn + fp > 0 else 1.0)
    p_o = sum(counts[i][i] for i in range(k)) / total
    p_e = sum(row[i] * col[i] for i in range(k)) / total**2
    kappa = 1.0 if p_o >= 1 - 1e-15 else 0.0
    if 1 - p_e >= 1e-15:
        kappa = (p_o - p_e) / (1 - p_e)
    mean = lambda xs: sum(xs) / len(xs)
    return {
        "miou": 100 * mean(ious),
        "mf1": 100 * mean(f1s),
        "kappa": 100 * kappa,
        "accuracy": 100 * mean(accs),
        "specificity": 100 * mean(specs),
    }


def matrix_of(counts):
    cm = ConfusionMatrix(len(counts))
    cm.counts[:] = np.asarray(counts, dtype=np.int64)
    return cm


class TestAccumulate:
    def test_all_ignored_leaves_matrix_unchanged(self):
        cm = ConfusionMatrix(3)
        cm.accumulate(np.zeros((2, 2), dtype=int), np.full((2, 2), IGNORE_LABEL))
        assert cm.total == 0

    def test_perfect_predictions_are_diagonal(self):
        cm = ConfusionMatrix(3)
        labels = np.array([[0, 1], [2, 1]])
        cm.accumulate(labels, labels)
        assert np.all(cm.counts == np.diag([1, 2, 1]))

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, (3, 5, 5))
        truth = rng.integers(0, 4, (3, 5, 5))
        a = ConfusionMatrix(4).accumulate(pred[:2], truth[:2]).accumulate(pred[2:], truth[2:])
        b = ConfusionMatrix(4).accumulate(pred[2:], truth[2:]).accumulate(pred[:2], truth[:2])
        assert np.array_equal(a.counts, b.counts)

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(DataError):
            cm.accumulate(np.array([[0]]), np.array([[5]]))
        with pytest.raises(DataError):
            cm.accumulate(np.array([[5]]), np.array([[0]]))

    def test_non_integer_label_rejected(self):
        with pytest.raises(DataError, match="label 0.5 is not an integer"):
            ConfusionMatrix(2).accumulate([0, 1], [0.5, 1.2])

    def test_non_integer_prediction_rejected(self):
        # Truncated, 0.5 and 1.7 would count as classes 0 and 1.
        with pytest.raises(DataError, match="prediction 0.5 is not an integer"):
            ConfusionMatrix(2).accumulate([0.5, 1.7], [0, 1])


class TestComputeMetrics:
    def test_perfect_two_class(self):
        report = compute_metrics(matrix_of([[50, 0], [0, 50]]))
        assert report.miou == pytest.approx(100.0)
        assert report.mf1 == pytest.approx(100.0)
        assert report.kappa == pytest.approx(100.0)

    def test_worked_case(self):
        report = compute_metrics(matrix_of([[40, 10], [10, 40]]))
        assert report.miou == pytest.approx(100 * 40 / 60, abs=1e-9)
        assert round(report.miou, 2) == 66.67
        assert round(report.kappa, 2) == 60.00

    def test_absent_class_excluded(self):
        report = compute_metrics(matrix_of([[40, 10, 0], [10, 40, 0], [0, 0, 0]]))
        baseline = compute_metrics(matrix_of([[40, 10], [10, 40]]))
        assert np.isnan(report.per_class_iou[2])
        assert report.miou == pytest.approx(baseline.miou, abs=1e-12)
        assert report.mf1 == pytest.approx(baseline.mf1, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            compute_metrics(ConfusionMatrix(2))

    @settings(max_examples=60)
    @given(st.integers(2, 19), st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, k, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 50, (k, k))
        counts[0, 0] += 1  # keep at least one present class
        perm = rng.permutation(k)
        permuted = counts[np.ix_(perm, perm)]
        a = compute_metrics(matrix_of(counts))
        b = compute_metrics(matrix_of(permuted))
        assert a.miou == pytest.approx(b.miou, rel=1e-12)
        assert a.mf1 == pytest.approx(b.mf1, rel=1e-12)
        assert a.kappa == pytest.approx(b.kappa, rel=1e-12)
        np.testing.assert_allclose(a.per_class_iou[perm], b.per_class_iou, rtol=1e-12)

    def test_oracle_equivalence_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 20))
            counts = rng.integers(0, 100, (k, k))
            if counts.sum() == 0:
                counts[0, 0] = 1
            report = compute_metrics(matrix_of(counts))
            oracle = naive_metrics(counts.tolist())
            for key in oracle:
                got = getattr(report, key)
                assert abs(got - oracle[key]) <= 1e-9 * max(1.0, abs(oracle[key])), key

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            counts = rng.integers(0, 30, (k, k))
            counts[0, 0] += 1
            report = compute_metrics(matrix_of(counts))
            assert 0.0 <= report.miou <= 100.0
            assert 0.0 <= report.mf1 <= 100.0
            assert -100.0 <= report.kappa <= 100.0

    def test_table_formatting(self):
        report = compute_metrics(matrix_of([[40, 10], [10, 40]]))
        table = report.format_table()
        assert "mIoU" in table and "66.67" in table
        assert "Kappa" in table and "60.00" in table
