import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import qefilters

from qefilters import (
    ConfigurationError,
    ConfusionMatrix,
    DataError,
    Hypercube,
    RegConfig,
    TrainConfig,
    TrainingDivergedError,
    compute_metrics,
    evaluate_filter_bank,
    gen_synthetic,
    init_filter_bank,
    inverse_frequency_weights,
    normalize_wavelengths,
    predict,
    train,
)
from qefilters.filterbank import FilterBankParams, WavelengthRange
from qefilters.metrics import IGNORE_LABEL
from qefilters.projection import _contract_channels, apply_filter_bank
from qefilters.regularization import total_reg
from qefilters import projection, training
from qefilters.training import (
    AdamW,
    TrainReport,
    _argmax_classes,
    _bank_state,
    _batch_gradients,
    make_head,
    seg_loss,
    soft_dice,
    weighted_cross_entropy,
)
from qefilters.rng import make_generator

from oracles import (
    adam_step,
    batched_evaluation,
    blocked_pixel_reduction,
    dense_soft_dice,
    dense_weighted_cross_entropy,
    two_layer_mlp,
    two_step_linear,
)
from tasks import planted3_config, planted3_data, planted3_spec

HYKO = WavelengthRange(470.0, 630.0)


def loss_terms(logits, labels, weights):
    """Both loss terms and their gradients on one softmax, as ``seg_loss`` calls them."""
    target, mask = (a[:, None] for a in training._check_labels(labels, logits.shape[1]))
    probs = training._softmax(logits)
    ce, ce_grad = weighted_cross_entropy(probs, target, mask, weights)
    dice, dice_grad = soft_dice(probs, target, mask)
    return ce, ce_grad, dice, dice_grad


def record_calls(monkeypatch, name):
    """Wrap ``training.<name>`` for the test; returns the list of its calls' arguments."""
    calls = []
    original = getattr(training, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(training, name, recorded)
    return calls


class TestSegLoss:
    def test_perfect_prediction_near_zero(self):
        labels = np.array([[[0, 1], [2, 1]]])
        logits = np.full((1, 3, 2, 2), -20.0)
        for b, h, w in np.ndindex(1, 2, 2):
            logits[b, labels[b, h, w], h, w] = 20.0
        value, _ = seg_loss(logits, labels, np.ones(3))
        assert value < 1e-6

    def test_uniform_logits_give_ln2(self):
        logits = np.zeros((1, 2, 3, 3))
        labels = np.zeros((1, 3, 3), dtype=int)
        labels[0, 1] = 1
        ce, _, _, _ = loss_terms(logits, labels, np.ones(2))
        assert ce == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = rng.integers(0, 3, size=(1, 2, 2))
        weights = np.array([1.0, 2.0, 0.5])
        weights /= weights.mean()
        _, grad = seg_loss(logits, labels, weights)
        step = 1e-6
        it = np.nditer(logits, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = logits.copy()
            plus[idx] += step
            minus = logits.copy()
            minus[idx] -= step
            fd = (seg_loss(plus, labels, weights)[0] - seg_loss(minus, labels, weights)[0]) / (2 * step)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_ignored_pixels_carry_no_gradient(self):
        logits = np.random.default_rng(2).normal(size=(1, 2, 2, 2))
        labels = np.array([[[0, IGNORE_LABEL], [1, IGNORE_LABEL]]])
        _, grad = seg_loss(logits, labels, np.ones(2))
        assert np.all(grad[0, :, 0, 1] == 0.0)
        assert np.all(grad[0, :, 1, 1] == 0.0)

    def test_label_out_of_range(self):
        logits = np.zeros((1, 2, 1, 1))
        with pytest.raises(DataError):
            seg_loss(logits, np.array([[[3]]]), np.ones(2))

    @pytest.mark.parametrize("bad", [0.5, 1.7, float("nan")], ids=["0.5", "1.7", "nan"])
    def test_non_integer_label(self, bad):
        logits = np.zeros((1, 2, 1, 2))
        with pytest.raises(DataError, match=f"label {bad} is not an integer"):
            seg_loss(logits, np.array([[[0.0, bad]]]), np.ones(2))

    @pytest.mark.parametrize("bad", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_class_weights_must_be_non_negative_numbers(self, bad):
        logits = np.zeros((1, 2, 1, 2))
        with pytest.raises(ConfigurationError, match="class weights"):
            seg_loss(logits, np.array([[[0, 1]]]), np.array([bad, 1.0]))

    def test_class_weights_must_have_one_per_class(self):
        with pytest.raises(ConfigurationError, match=r"class weights must have shape \(2,\)"):
            seg_loss(np.zeros((1, 2, 1, 2)), np.array([[[0, 1]]]), np.ones(3))

    # Labels that numpy would broadcast against a (2, 3, 4, 4) batch, or
    # that index it out of range.
    @pytest.mark.parametrize(
        "shape", [(1, 4, 4), (4, 4), (1, 1, 4), (2, 4, 1), (2, 4, 5), (2, 1, 4, 4)],
        ids=["one-image", "2-d", "row", "column", "wider", "4-d"],
    )
    def test_labels_must_have_the_logits_batch_and_plane_shape(self, monkeypatch, shape):
        softmax_calls = record_calls(monkeypatch, "_softmax")
        logits = np.zeros((2, 3, 4, 4))
        message = re.escape(f"labels have shape {shape}, not the batch's (2, 4, 4)")
        with pytest.raises(DataError, match=message):
            seg_loss(logits, np.zeros(shape, dtype=int), np.ones(3))
        assert softmax_calls == []

    def test_all_pixels_ignored(self, monkeypatch):
        softmax_calls = record_calls(monkeypatch, "_softmax")
        with pytest.raises(DataError, match="all pixels are ignored"):
            seg_loss(np.zeros((1, 2, 2, 2)), np.full((1, 2, 2), IGNORE_LABEL), np.ones(2))
        assert softmax_calls == []

    def test_one_softmax_and_one_label_check_per_call(self, monkeypatch):
        softmax_calls = record_calls(monkeypatch, "_softmax")
        label_checks = record_calls(monkeypatch, "_check_labels")
        logits = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
        seg_loss(logits, np.random.default_rng(4).integers(0, 3, (2, 4, 4)), np.ones(3))
        assert (len(softmax_calls), len(label_checks)) == (1, 1)

    @staticmethod
    def _dense_case(name):
        rng = np.random.default_rng(sum(map(ord, name)))
        shape = {
            "single-pixel-many-classes": (2, 12, 1, 1),
            "single-class": (9, 1, 2, 3),
            "planes-past-8192-pixels": (3, 4, 96, 100),
        }.get(name, (2, 4, 6, 5))
        b, k, h, w = shape
        logits = 3.0 * rng.normal(size=shape)
        labels = rng.integers(0, k, (b, h, w))
        weights = np.ones(k)
        if name == "class-2-unlabeled":
            labels[labels == 2] = IGNORE_LABEL
        elif name == "ignored-rows":
            labels[0, 1:3] = IGNORE_LABEL
            labels[1, :] = IGNORE_LABEL
        elif name == "non-uniform-weights":
            weights = rng.random(k) * 3.0
        elif name == "single-labelled-pixel":
            labels[:] = IGNORE_LABEL
            labels[1, 4, 2] = 3
        return logits, labels, weights

    @pytest.mark.parametrize(
        "name",
        ["class-2-unlabeled", "ignored-rows", "non-uniform-weights", "single-labelled-pixel",
         "single-pixel-many-classes", "single-class", "planes-past-8192-pixels"],
    )
    def test_terms_equal_dense_one_hot_oracle(self, name):
        logits, labels, weights = self._dense_case(name)
        target, mask = (a[:, None] for a in training._check_labels(labels, logits.shape[1]))
        probs = training._softmax(logits)
        before = probs.copy()
        ce, ce_grad = weighted_cross_entropy(probs, target, mask, weights)
        np.testing.assert_array_equal(probs, before)  # cross-entropy reads the softmax only
        ref_ce, ref_ce_grad = dense_weighted_cross_entropy(logits, labels, weights, IGNORE_LABEL)
        assert ce == ref_ce
        np.testing.assert_array_equal(ce_grad, ref_ce_grad)
        dice, dice_grad = soft_dice(probs, target, mask)
        ref_dice, ref_dice_grad = dense_soft_dice(logits, labels, IGNORE_LABEL)
        assert dice == ref_dice
        np.testing.assert_array_equal(dice_grad, ref_dice_grad)
        before = logits.copy()
        value, grad = seg_loss(logits, labels, weights)
        assert value == ref_ce + ref_dice
        np.testing.assert_array_equal(grad, ref_ce_grad + ref_dice_grad)
        np.testing.assert_array_equal(logits, before)  # the loss leaves its input alone

    def test_dice_component_zero_for_perfect(self):
        labels = np.array([[[0, 1], [1, 0]]])
        logits = np.full((1, 2, 2, 2), -20.0)
        for b, h, w in np.ndindex(1, 2, 2):
            logits[b, labels[b, h, w], h, w] = 20.0
        _, _, dice, _ = loss_terms(logits, labels, np.ones(2))
        assert dice == pytest.approx(0.0, abs=1e-8)


class TestArgmaxClasses:
    def test_matches_np_argmax_with_ties_and_infinities(self):
        rng = np.random.default_rng(5)
        logits = rng.integers(-2, 3, size=(3, 6, 5, 7)).astype(float)  # many ties
        logits[0, 2, 0, 0] = logits[0, 4, 0, 0] = np.inf
        logits[1, :, 1, 1] = -np.inf
        logits[2, :, 2, 2] = np.inf
        logits[2, 3, 3, :] = -np.inf
        logits[2, 0, 4, 4] = np.inf
        pred = _argmax_classes(logits)
        expected = np.argmax(logits, axis=1)
        assert pred.dtype == expected.dtype
        np.testing.assert_array_equal(pred, expected)

    def test_single_class(self):
        np.testing.assert_array_equal(_argmax_classes(np.ones((2, 1, 3, 3))), np.zeros((2, 3, 3)))


class TestWorkerCount:
    """The per-image kernels and a whole run write the same bytes under any worker count."""

    # 5 images of 70 x 70 pixels, split 3 + 2 over two workers and 1 + 2 + 2
    # over three, with unlabelled pixels and uneven class weights.
    def test_loss_terms_and_argmax(self, under_workers):
        rng = np.random.default_rng(21)
        logits = 3.0 * rng.normal(size=(5, 4, 70, 70))
        labels = rng.integers(0, 4, (5, 70, 70))
        labels[1, 10:30] = IGNORE_LABEL
        labels[3, :, :5] = IGNORE_LABEL
        weights = rng.random(4) * 3.0

        def run():
            ce, ce_grad, dice, dice_grad = loss_terms(logits, labels, weights)
            value, grad = seg_loss(logits, labels, weights)
            values = np.array([ce, dice, value]).tobytes()
            return values + ce_grad.tobytes() + dice_grad.tobytes() + grad.tobytes() + _argmax_classes(logits).tobytes()

        results = under_workers(run)
        assert all(r == results[0] for r in results)

    # 5 training images in batches of 4 leave a last batch of one image; 64 x
    # 64 pixels are just enough for a batch to be split.
    @pytest.mark.parametrize("head", ["linear", "mlp"])
    def test_train_and_predict(self, under_workers, head):
        (tc, tl), (vc, vl) = (gen_synthetic(replace(planted3_spec(subset, images), height=64, width=64))
                              for subset, images in ((0, 5), (1, 3)))
        config = replace(planted3_config(0, head), max_epochs=3, patience=3)

        def run():
            report = train((tc, tl.values), (vc, vl.values), 3, 1, config)
            return "".join([report.to_json(), report.epochs_csv(), report.centroids_csv()]).encode() + (
                predict(report, vc).tobytes()
            )

        results = under_workers(run, first_last=False)
        assert all(r == results[0] for r in results)


def report_of(bank, head, num_classes):
    """A TrainReport that holds only what ``predict`` reads."""
    centroids = np.zeros((0,) + bank.table.shape[:2])
    return TrainReport([], 0, 0.0, bank, head, centroids, num_classes, False)


class TestEvaluationPass:
    """``train``'s mIoU passes and ``predict`` equal the batched evaluation byte for byte."""

    # 5 images of 12 channels at 30 x 30, with unlabelled pixels; class 2 of
    # 4 is absent from the truth. Random data and head arrays make every
    # class the prediction somewhere.
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    @pytest.mark.parametrize("head_kind", ["linear", "mlp"])
    def test_matches_batched_oracle(self, under_workers, head_kind, dtype):
        rng = np.random.default_rng(31)
        cube = Hypercube(rng.normal(size=(5, 12, 30, 30)), np.linspace(470.0, 630.0, 12))
        labels = rng.choice([0, 1, 3], size=(5, 30, 30)).astype(dtype)
        labels[0, :4] = IGNORE_LABEL
        labels[3, :, -3:] = IGNORE_LABEL
        bank = init_filter_bank(3, 2, HYKO, seed=4)
        response = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        head = make_head(head_kind, 4, 3, make_generator(9))
        for array in head.parameters().values():
            array[...] = 3.0 * rng.normal(size=array.shape)
        pred, metrics = batched_evaluation(response, head, cube, labels, 4)
        assert set(np.unique(pred)) == {0, 1, 2, 3}
        expected = np.float64(metrics.miou).tobytes() + pred.tobytes()

        def run():
            miou = training._miou(response, head, cube, *training._check_labels(labels, 4), 4)
            return np.float64(miou).tobytes() + predict(report_of(bank, head, 4), cube).tobytes()

        assert under_workers(run) == [expected] * 5

    def test_predict_rejects_too_few_channels_before_any_block(self, monkeypatch):
        bank = init_filter_bank(3, 1, HYKO, seed=2)
        head = make_head("linear", 2, 3, make_generator(1))
        cube = Hypercube(np.random.default_rng(2).random((2, 3, 4, 4)), np.array([480.0, 550.0, 620.0]))
        blocks = []
        monkeypatch.setattr(training, "_each_image_block", lambda *args: blocks.append(args))
        with pytest.raises(ConfigurationError, match="fewer filters than channels"):
            predict(report_of(bank, head, 2), cube)
        assert blocks == []


class TestPoolRouting:
    """The work each per-image call passes, and which calls reach the pool, at the bench shapes.

    One training step, its two epoch-end evaluation passes and a predict,
    on 2 usable CPUs. Calls from inside a block run inline.
    """

    @pytest.mark.parametrize(
        "shape, filters, head_kind, matrix_sizes, bias_planes, pooled",
        [
            # matrix_sizes: rows + columns of each matrix that contracts or
            # reduces. The linear head folds the bank into one (K, C) matrix.
            # bias_planes: the planes of each layer's output gradient, whose
            # plane sums are its bias gradient.
            pytest.param((4, 25, 256, 256), 3, "linear", [5 + 25], [5], None, id="hsidrive"),
            pytest.param(
                (4, 128, 64, 64), 8, "mlp", [8 + 128, 8 + 8, 5 + 8], [8, 5],
                {
                    ("_contract_channels.<locals>.contract", 4096 * 136),
                    ("_reduce_pixels.<locals>.products", 4096 * 136),
                    ("_predict.<locals>.block", 4096 * 128),
                },
                id="wide",
            ),
        ],
    )
    def test_calls_reaching_the_pool(self, monkeypatch, shape, filters, head_kind, matrix_sizes, bias_planes, pooled):
        b, c, h, w = shape
        rng = np.random.default_rng(5)
        wl = np.linspace(600.0, 975.0, c)
        train_cube, val_cube = (Hypercube(rng.random((images, c, h, w)), wl) for images in (b, 2))
        train_labels, val_labels = (rng.integers(0, 5, (images, h, w)) for images in (b, 2))
        calls = []  # (call site, work, called from inside a block, ran on the pool)
        each_image_block = projection._each_image_block

        def recorded(fn, count, work):
            inside = getattr(projection._local, "inside", False)
            results = each_image_block(fn, count, work)
            calls.append((fn.__qualname__, work, inside, len(results) > 1))
            return results

        monkeypatch.setattr(projection, "_usable_cpus", lambda: 2)
        for module in (projection, training):
            monkeypatch.setattr(module, "_each_image_block", recorded)
        config = TrainConfig(learning_rate=0.01, max_epochs=1, patience=1, seed=1, head=head_kind)
        report = train((train_cube, train_labels), (val_cube, val_labels), filters, 1, config, num_classes=5)
        predict(report, val_cube)

        top = [(name, work, on_pool) for name, work, inside, on_pool in calls if not inside]
        if pooled is None:
            assert all(on_pool for _, _, on_pool in top)
        else:
            assert {(name, work) for name, work, on_pool in top if on_pool} == pooled
            assert not any((name, work) in pooled for name, work, on_pool in top if not on_pool)
        assert not any(on_pool for _, _, inside, on_pool in calls if inside)
        passed = {}
        for name, work, _ in top:
            passed.setdefault(name, set()).add(work)
        pixels = h * w
        spectral = {pixels * size for size in matrix_sizes}
        loss = {pixels * 5}
        assert passed == {
            "_contract_channels.<locals>.contract": spectral,
            "_reduce_pixels.<locals>.products": spectral,
            "_plane_sums.<locals>.sums": {pixels * planes for planes in bias_planes},
            "_softmax.<locals>.softmax": loss,
            "weighted_cross_entropy.<locals>.log_likelihood": loss,
            "weighted_cross_entropy.<locals>.gradient": loss,
            "soft_dice.<locals>.plane_sums": loss,
            "soft_dice.<locals>.gradient": loss,
            "_seg_loss.<locals>.add": {pixels * 5 * 2},  # the loss gradient and Dice's
            "_predict.<locals>.block": {pixels * c},
        }


class TestHeadWeightGradients:
    # Plain einsum, one BLAS product over all pixels (np.tensordot) or one
    # per image sums the pixels in another order and changes the last bits
    # at this size, so these pin the fixed-block reduction of
    # tests/oracles.py. 70 x 70 pixels leave a remainder block; the index
    # reads the cube's images out of order.
    def test_linear_weight_gradient_is_the_blocked_reduction(self):
        rng = np.random.default_rng(7)
        x, q, idx = rng.random((2, 25, 70, 70)), rng.random((3, 25)), np.array([1, 0])
        head = make_head("linear", 5, 3, make_generator(1))
        logits, cache = head.forward(x, q, idx)
        d_logits = rng.normal(size=logits.shape)
        grads, grad_q = head.backward(cache, d_logits)
        reduced = blocked_pixel_reduction(d_logits, x[idx])
        assert grads["weight"].tobytes() == (reduced @ q.T).tobytes()
        assert grad_q.tobytes() == (head.weight.T @ reduced).tobytes()

    def test_linear_head_matches_the_two_step_oracle(self):
        # The fold reassociates W·(Q·X) as (W·Q)·X, so it agrees to rounding.
        rng = np.random.default_rng(17)
        x, q, idx = rng.random((2, 25, 70, 70)), rng.random((3, 25)), np.array([1, 0])
        head = make_head("linear", 5, 3, make_generator(1))
        head.bias[...] = rng.normal(size=5)
        logits, cache = head.forward(x, q, idx)
        d_logits = rng.normal(size=logits.shape)
        grads, grad_q = head.backward(cache, d_logits)
        expected_logits, expected_grads, expected_grad_q = two_step_linear(head.weight, head.bias, q, x[idx], d_logits)
        np.testing.assert_allclose(logits, expected_logits, rtol=1e-12)
        np.testing.assert_allclose(grads["weight"], expected_grads[0], rtol=1e-12)
        assert grads["bias"].tobytes() == expected_grads[1].tobytes()
        np.testing.assert_allclose(grad_q, expected_grad_q, rtol=1e-12)

    # Each layer's bias gradient is its output gradient's plane sums, the
    # images' sums added in image order; at 100 x 100 pixels that is
    # np.sum over the batch and plane axes byte for byte, under any worker
    # count. The linear head adds its bias to each image's contraction.
    def test_bias_gradients_are_the_plane_sums(self, under_workers):
        rng = np.random.default_rng(9)
        x, q, idx = rng.random((3, 25, 100, 100)), rng.random((3, 25)), np.array([2, 0])
        linear, mlp = make_head("linear", 5, 3, make_generator(3)), make_head("mlp", 5, 3, make_generator(4))
        for head in (linear, mlp.layer1, mlp.layer2):
            head.bias[...] = rng.normal(size=head.bias.shape)
        d_logits = rng.normal(size=(2, 5, 100, 100))

        def run():
            logits, cache = linear.forward(x, q, idx)
            grads = linear.backward(cache, d_logits)[0]
            mlp_logits, mlp_cache = mlp.forward(x, q, idx)
            mlp_grads = mlp.backward(mlp_cache, d_logits)[0]
            return logits, grads, mlp_cache[3][0], mlp_grads

        for logits, grads, hidden, mlp_grads in under_workers(run):
            expected_logits = _contract_channels(linear.weight @ q, x, idx) + linear.bias[None, :, None, None]
            assert logits.tobytes() == expected_logits.tobytes()
            assert grads["bias"].tobytes() == np.sum(d_logits, axis=(0, 2, 3)).tobytes()
            assert mlp_grads["b2"].tobytes() == np.sum(d_logits, axis=(0, 2, 3)).tobytes()
            d_hidden = _contract_channels(mlp.layer2.weight.T, d_logits) * (1.0 - hidden**2)
            assert mlp_grads["b1"].tobytes() == np.sum(d_hidden, axis=(0, 2, 3)).tobytes()

    def test_mlp_weight_gradients_are_the_blocked_reduction(self):
        rng = np.random.default_rng(8)
        x, q, idx = rng.random((2, 25, 70, 70)), rng.random((3, 25)), np.array([1, 0])
        head = make_head("mlp", 5, 3, make_generator(2))
        logits, cache = head.forward(x, q, idx)
        (feats, _, _), (hidden, _, _) = cache[2:]
        d_logits = rng.normal(size=logits.shape)
        grads, grad_q = head.backward(cache, d_logits)
        d_hidden = _contract_channels(head.parameters()["w2"].T, d_logits) * (1.0 - hidden**2)
        assert grads["w1"].tobytes() == blocked_pixel_reduction(d_hidden, feats).tobytes()
        assert grads["w2"].tobytes() == blocked_pixel_reduction(d_logits, hidden).tobytes()
        d_feats = _contract_channels(head.parameters()["w1"].T, d_hidden)
        assert grad_q.tobytes() == blocked_pixel_reduction(d_feats, x[idx]).tobytes()


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = np.array([1.0, -2.0])
        AdamW([p], lr=0.1, weight_decay=[0.0]).step([np.zeros(2)])
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_constant_gradient_approaches_lr_steps(self):
        p = np.array([0.0])
        optimizer = AdamW([p], lr=1e-3, weight_decay=[0.0])
        g = np.array([3.7])
        for _ in range(199):
            optimizer.step([g])
        assert p[0] < 0.0  # moving against the gradient
        # after warmup each step is ~lr * sign(g)
        before = p[0]
        optimizer.step([g])
        assert abs((before - p[0]) - 1e-3) < 1e-5

    def test_three_step_trace_matches_hand_oracle(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        grads = [0.5, -0.2, 0.3]
        # hand-stepped recurrences
        theta, m, v = 1.0, 0.0, 0.0
        expected = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            expected.append(theta)
        p = np.array([1.0])
        optimizer = AdamW([p], lr=lr, weight_decay=[0.0])
        for t, g in enumerate(grads, start=1):
            optimizer.step([np.array([g])])
            assert p[0] == pytest.approx(expected[t - 1], rel=1e-14)

    def test_decoupled_weight_decay(self):
        p = np.array([2.0])
        AdamW([p], lr=0.1, weight_decay=[0.5]).step([np.zeros(1)])
        assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_matches_functional_oracle_byte_for_byte(self):
        rng = np.random.default_rng(21)
        shapes, decays, lr = [(3, 2, 4), (5, 3)], [0.0, 1e-2], 3e-2
        params = [rng.normal(size=shape) for shape in shapes]
        want = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
        optimizer = AdamW(params, lr=lr, weight_decay=decays)
        for step in range(1, 6):
            grads = [rng.normal(scale=10.0**-step, size=shape) for shape in shapes]
            optimizer.step(grads)
            want = [
                adam_step(p, g, m, v, step, lr=lr, weight_decay=wd)
                for (p, m, v), g, wd in zip(want, grads, decays)
            ]
        for i, (p, m, v) in enumerate(want):
            assert params[i].tobytes() == p.tobytes(), i
            assert optimizer.m[i].tobytes() == m.tobytes(), i
            assert optimizer.v[i].tobytes() == v.tobytes(), i


class TestClassWeights:
    def test_inverse_frequency_mean_one(self):
        labels = np.array([0, 0, 0, 1])
        weights = inverse_frequency_weights(labels, 2)
        assert weights.mean() == pytest.approx(1.0)
        assert weights[1] > weights[0]

    def test_absent_class_stays_finite(self):
        weights = inverse_frequency_weights(np.array([0, 0]), 3)
        assert np.all(np.isfinite(weights))

    def test_non_integer_label(self):
        with pytest.raises(DataError, match="label 0.5 is not an integer"):
            inverse_frequency_weights(np.array([0.5, 1.7, 1.0]), 2)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_label_outside_class_range(self, bad):
        # Unchecked, 5 made the weights K + 4 long and -1 a bare ValueError from np.bincount.
        with pytest.raises(DataError, match=rf"label {bad} outside \[0, 2\)"):
            inverse_frequency_weights(np.array([[[0, 1, bad]]]), 2)


def tiny_dataset(seed=0, images=4, noise=0.05):
    rng = np.random.default_rng(seed)
    wl = np.linspace(470.0, 630.0, 8)
    means = np.stack([np.full(8, 0.3), np.full(8, 0.3)])
    means[1, 3] += 0.4  # single discriminative band
    labels = rng.integers(0, 2, (images, 5, 5))
    data = means[labels].transpose(0, 3, 1, 2) + noise * rng.standard_normal((images, 8, 5, 5))
    return Hypercube(data, wl), labels


class TestEndToEndGradient:
    def test_total_objective_gradient_check(self):
        # one 2 x 3 x 4 x 4 instance, F=2 filters; the two centroids lie closer
        # than d_min, so the separation term's gradient is part of the check
        rng = np.random.default_rng(30)
        wl = np.linspace(470.0, 630.0, 3)
        cube = Hypercube(rng.random((2, 3, 4, 4)), wl)
        labels = rng.integers(0, 2, (2, 4, 4))
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        bank = init_filter_bank(2, 1, HYKO, seed=2)
        head = make_head("linear", 2, 2, make_generator(5))
        weights = np.ones(2)
        reg_cfg = RegConfig()

        def objective(table):
            b = FilterBankParams(table, HYKO)
            resp = evaluate_filter_bank(b, lam)
            feats = apply_filter_bank(cube, resp)
            logits, _ = head.forward(feats)
            seg, _ = seg_loss(logits, labels, weights)
            reg, _ = total_reg(b, reg_cfg)
            return seg + reg_cfg.lambda_reg * reg.total

        assert total_reg(bank, reg_cfg)[0].separation > 0.0
        # the bank gradient the training loop applies
        response, _, reg_grad = _bank_state(bank, lam, reg_cfg)
        pair = tuple(a[:, None] for a in training._check_labels(labels, 2))
        _, grads = _batch_gradients(head, response, reg_grad, cube.data, np.arange(2), pair, weights, 1, 1)
        full_grad = grads[0]

        step = 1e-5
        # Single-peak amplitude partials are epsilon-scale (~1e-10); below the
        # float64 central-difference noise floor the oracle carries no signal.
        noise_floor = 8 * np.finfo(float).eps * abs(objective(bank.table)) / (2 * step)
        for f in range(2):
            for s in range(4):
                plus = bank.table.copy()
                plus[f, 0, s] += step
                minus = bank.table.copy()
                minus[f, 0, s] -= step
                fd = (objective(plus) - objective(minus)) / (2 * step)
                err = abs(full_grad[f, 0, s] - fd)
                if err <= noise_floor:
                    continue
                assert err / (abs(fd) + 1e-8) < 1e-3, (f, s)

    def test_descent_smoke(self):
        cube, labels = tiny_dataset(seed=4)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        bank = init_filter_bank(2, 1, HYKO, seed=1)
        head = make_head("linear", 2, 2, make_generator(6))
        weights = np.ones(2)
        cfg = RegConfig()

        params = [bank.table, *head.parameters().values()]
        optimizer = AdamW(params, lr=1e-4, weight_decay=[0.0] * len(params))

        def current_loss(b):
            resp = evaluate_filter_bank(b, lam)
            feats = apply_filter_bank(cube, resp)
            logits, _ = head.forward(feats)
            seg, _ = seg_loss(logits, labels, weights)
            reg, _ = total_reg(b, cfg)
            return seg + cfg.lambda_reg * reg.total

        initial = current_loss(bank)
        pair = tuple(a[:, None] for a in training._check_labels(labels, 2))
        for _ in range(50):
            response, _, reg_grad = _bank_state(bank, lam, cfg)
            _, grads = _batch_gradients(head, response, reg_grad, cube.data, np.arange(len(labels)), pair, weights, 1, 1)
            optimizer.step(grads)
        assert current_loss(bank) < initial


class TestBatchLoading:
    def test_each_batch_holds_its_images_in_the_epoch_order(self, monkeypatch):
        # 5 images in batches of 2: each epoch's last batch holds one image.
        # The batch is an index into the training cube's own array, and its
        # labels the slices of the split's checked (target, mask) pair.
        cube, labels = tiny_dataset(seed=13, images=5)
        calls = record_calls(monkeypatch, "_batch_gradients")
        config = TrainConfig(learning_rate=1e-2, max_epochs=2, patience=2, batch_size=2, seed=4)
        train((cube, labels), (cube, labels), 2, 1, config)

        shuffle = make_generator(config.seed, 2)
        expected = []
        for _ in range(config.max_epochs):
            order = shuffle.permutation(5)
            expected += [order[start : start + 2] for start in range(0, 5, 2)]
        assert [len(idx) for idx in expected] == [2, 2, 1, 2, 2, 1]
        assert len(calls) == len(expected)
        for (_, _, _, data, idx, (target, mask), *_), expected_idx in zip(calls, expected):
            assert data is cube.data
            assert np.array_equal(idx, expected_idx)
            assert target.dtype == np.intp and np.array_equal(target, labels[expected_idx, None])
            assert mask.all() and mask.shape == target.shape

    def test_too_few_channels_rejected_before_any_block(self, monkeypatch):
        # The bank is checked against the training cube once, before the
        # first step touches an image.
        cube = Hypercube(np.random.default_rng(3).random((2, 3, 4, 4)), np.array([480.0, 550.0, 620.0]))
        labels = np.array([[[0, 1] * 2] * 4] * 2)
        blocks = []
        for module in (projection, training):
            monkeypatch.setattr(module, "_each_image_block", lambda *args: blocks.append(args))
        config = TrainConfig(max_epochs=1, patience=1)
        with pytest.raises(ConfigurationError, match="fewer filters than channels"):
            train((cube, labels), (cube, labels), 3, 1, config)
        assert blocks == []


class TestMlpHead:
    # 70 x 70 pixels leave a remainder pixel block; width 33 is the one
    # test_report_independent_of_blas_threads trains.
    @pytest.mark.parametrize("hidden", [8, 33])
    def test_matches_the_two_layer_oracle(self, hidden):
        rng = np.random.default_rng(12)
        x, q, idx = rng.random((2, 25, 70, 70)), rng.random((3, 25)), np.array([1, 0])
        head = make_head("mlp", 5, 3, make_generator(2), hidden=hidden)
        for array in head.parameters().values():
            array[...] = rng.normal(size=array.shape)
        logits, cache = head.forward(x, q, idx)
        d_logits = rng.normal(size=logits.shape)
        grads, grad_q = head.backward(cache, d_logits)
        expected_logits, expected_grads, expected_d_feats = two_layer_mlp(
            list(head.parameters().values()), _contract_channels(q, x[idx]), d_logits
        )
        assert logits.tobytes() == expected_logits.tobytes()
        assert list(grads) == list(head.parameters()) == ["w1", "b1", "w2", "b2"]
        for grad, expected in zip(grads.values(), expected_grads):
            assert grad.tobytes() == expected.tobytes()
        assert grad_q.tobytes() == blocked_pixel_reduction(expected_d_feats, x[idx]).tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        head = make_head("mlp", 3, 2, make_generator(4), hidden=8)
        x, q = rng.normal(size=(1, 4, 3, 3)), rng.normal(size=(2, 4))
        labels = rng.integers(0, 3, (1, 3, 3))
        weights = np.ones(3)

        def set_arrays(params):
            for name, array in head.parameters().items():
                array[...] = params[name]

        def loss_with(params, bank=q):
            set_arrays(params)
            logits, _ = head.forward(x, bank)
            return seg_loss(logits, labels, weights)[0]

        base = {k: p.copy() for k, p in head.parameters().items()}
        logits, cache = head.forward(x, q)
        _, d_logits = seg_loss(logits, labels, weights)
        grads, grad_q = head.backward(cache, d_logits)
        step = 1e-6
        for name in base:
            flat = base[name].reshape(-1)
            for i in range(min(flat.size, 6)):
                plus = {k: p.copy() for k, p in base.items()}
                plus[name].reshape(-1)[i] += step
                minus = {k: p.copy() for k, p in base.items()}
                minus[name].reshape(-1)[i] -= step
                fd = (loss_with(plus) - loss_with(minus)) / (2 * step)
                assert grads[name].reshape(-1)[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)
        # the bank matrix's gradient too
        for idx in ((0, 1), (1, 3)):
            plus, minus = q.copy(), q.copy()
            plus[idx] += step
            minus[idx] -= step
            fd = (loss_with(base, plus) - loss_with(base, minus)) / (2 * step)
            assert grad_q[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestTrainLoop:
    def test_patience_exhaustion_with_frozen_loss(self):
        # A learning rate of ~0 freezes everything; the baseline epoch is the
        # only improvement, so training stops after exactly patience+1 epochs.
        cube, labels = tiny_dataset(seed=5)
        config = TrainConfig(
            learning_rate=1e-30, max_epochs=50, patience=5, batch_size=4, seed=0
        )
        report = train((cube, labels), (cube, labels), 2, 1, config)
        assert report.stopped_early
        assert len(report.records) == 6
        assert report.best_epoch == 1

    def test_single_band_task_learnable(self):
        # Oracle: a logistic head on the discriminative band alone reaches
        # > 95 mIoU, so the task is learnable; the full pipeline must too.
        cube, labels = tiny_dataset(seed=6, images=8, noise=0.05)
        val_cube, val_labels = tiny_dataset(seed=7, images=4, noise=0.05)

        band = cube.data[:, 3].reshape(-1)
        target = labels.reshape(-1)
        w, b = 0.0, 0.0
        lr = 0.5
        for _ in range(300):
            z = w * band + b
            p = 1.0 / (1.0 + np.exp(-z))
            grad_w = np.mean((p - target) * band)
            grad_b = np.mean(p - target)
            w -= lr * grad_w
            b -= lr * grad_b
        val_band = val_cube.data[:, 3].reshape(-1)
        pred = (1.0 / (1.0 + np.exp(-(w * val_band + b))) > 0.5).astype(int)
        cm = ConfusionMatrix(2).accumulate(pred, val_labels.reshape(-1))
        oracle_miou = compute_metrics(cm).miou
        assert oracle_miou > 95.0

        config = TrainConfig(
            learning_rate=2e-2, max_epochs=200, patience=40, batch_size=4, seed=3,
            reg=RegConfig(d_min=0.25),
        )
        report = train((cube, labels), (val_cube, val_labels), 1, 1, config)
        assert report.best_val_miou > 95.0

    def test_empty_split_rejected(self):
        cube, labels = tiny_dataset(seed=8)
        all_ignored = np.full_like(labels, IGNORE_LABEL)
        with pytest.raises(ConfigurationError):
            train((cube, all_ignored), (cube, labels), 1, 1, TrainConfig())

    def test_batch_without_a_labelled_pixel_takes_no_step(self, monkeypatch):
        # Image 1 holds no labelled pixel, so in batches of one its batch has
        # no loss. Before, it raised "all pixels are ignored" mid-epoch.
        rng = np.random.default_rng(15)
        cube = Hypercube(rng.random((3, 6, 8, 8)), np.linspace(470.0, 630.0, 6))
        labels = rng.integers(0, 2, (3, 8, 8))
        labels[1] = IGNORE_LABEL
        steps = []
        original = training._batch_gradients

        def recorded(*args):
            seg, grads = original(*args)
            steps.append((args[4].tolist(), args[-1], seg))
            return seg, grads

        monkeypatch.setattr(training, "_batch_gradients", recorded)
        config = TrainConfig(learning_rate=1e-2, max_epochs=3, patience=3, batch_size=1, seed=2)
        report = train((cube, labels), (cube, labels), 2, 1, config)

        shuffle = make_generator(config.seed, 2)
        orders = [shuffle.permutation(3).tolist() for _ in range(config.max_epochs)]
        expected = [([i], order.index(i) + 1) for order in orders for i in order if i != 1]
        assert [(idx, step) for idx, step, _ in steps] == expected
        for epoch, record in enumerate(report.records):
            assert record.seg_loss == np.mean([seg for _, _, seg in steps[2 * epoch : 2 * epoch + 2]])

    # Unbounded, one stray label of 65534 made K = 65,535 and a 34 GB
    # confusion matrix. An inferred K stops at 256 before any K-sized array;
    # a given K has no bound.
    @pytest.mark.parametrize("largest, num_classes", [(255, None), (256, None), (65534, None), (299, 300)])
    def test_inferred_class_count_is_bounded(self, largest, num_classes):
        cube = Hypercube(np.random.default_rng(16).random((1, 3, 2, 2)), np.array([480.0, 550.0, 620.0]))
        labels = np.array([[[0, 1], [1, largest]]])
        config = TrainConfig(max_epochs=1, patience=1)

        def run():
            return train((cube, labels), (cube, labels), 1, 1, config, num_classes=num_classes)

        if num_classes is not None or largest < 256:
            assert run().num_classes == (num_classes or largest + 1)
            return
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=f"largest label {largest} infers more than 256 classes; pass"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_divergence_raises_with_epoch(self):
        cube, labels = tiny_dataset(seed=9)
        config = TrainConfig(learning_rate=1e200, max_epochs=10, patience=5, batch_size=4, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train((cube, labels), (cube, labels), 2, 1, config)
        assert err.value.epoch >= 1

    @pytest.mark.parametrize("head", ["linear", "mlp"])
    def test_divergence_names_the_epoch_step_and_group(self, head):
        # Adam's first step moves every parameter by about lr = 1e200, which
        # stays finite; after the second no group is finite, and the bank
        # comes first in parameter order.
        cube, labels = tiny_dataset(seed=9, images=8)
        config = TrainConfig(learning_rate=1e200, max_epochs=10, patience=5, batch_size=4, seed=0, head=head)
        with pytest.raises(TrainingDivergedError, match="at epoch 1, step 2: bank is not finite") as err:
            train((cube, labels), (cube, labels), 2, 1, config)
        assert (err.value.epoch, err.value.step, err.value.group) == (1, 2, "bank")
        copy = pickle.loads(pickle.dumps(err.value))  # as a process pool returns it
        assert (str(copy), copy.epoch, copy.step, copy.group) == (str(err.value), 1, 2, "bank")

    @pytest.mark.parametrize("num_classes", [3, None])
    def test_labels_checked_once_per_split(self, monkeypatch, num_classes):
        # Before, the class weights and every step's loss checked them again:
        # 23 checks in these 5 epochs of 4 steps.
        label_checks = record_calls(monkeypatch, "_check_labels")
        (tc, tl), (vc, vl) = planted3_data()
        config = replace(planted3_config(seed=0), max_epochs=5, patience=5)
        report = train((tc, tl.values), (vc, vl.values), 2, 1, config, num_classes=num_classes)
        assert len(report.records) == 5
        assert len(label_checks) == 2
        assert label_checks[0][0] is tl.values and label_checks[1][0] is vl.values
        assert [args[1:] for args in label_checks] == [
            (num_classes, (tc.dims[0],) + tc.dims[2:], "train labels"),
            (num_classes, (vc.dims[0],) + vc.dims[2:], "val labels"),
        ]

    def test_seed_determinism_byte_identical(self):
        (tr_cube, tr_lab), (va_cube, va_lab) = planted3_data()
        config = planted3_config(seed=0)
        config = TrainConfig(
            learning_rate=config.learning_rate, max_epochs=12, patience=10,
            batch_size=config.batch_size, seed=0, reg=config.reg,
        )
        a = train((tr_cube, tr_lab.values), (va_cube, va_lab.values), 2, 1, config)
        b = train((tr_cube, tr_lab.values), (va_cube, va_lab.values), 2, 1, config)
        assert a.epochs_csv() == b.epochs_csv()
        assert a.centroids_csv() == b.centroids_csv()
        assert a.to_json() == b.to_json()
        assert np.array_equal(a.params.table, b.params.table)

    # planted3 is too small for a pixel-axis GEMM to change bytes with the
    # thread count. At 3 x 100 x 100 pixels per batch, np.tensordot in place
    # of the einsum gives different reports under 1 and 2 threads for
    # backward's 4 x 33 pixel sum and, at hidden width 33, for the MLP head's
    # 33 x 4 w1 gradient. The w1 case needs 4 epochs or more: Adam's first
    # step is lr * sign(g), which hides a last-bit change in g.
    _THREAD_SCRIPTS = {
        "planted3": (
            "import sys\n"
            "from dataclasses import replace\n"
            "from qefilters import train\n"
            "from tasks import planted3_config, planted3_data\n"
            "(tc, tl), (vc, vl) = planted3_data()\n"
            "epochs = int(sys.argv[3])\n"
            "config = replace(planted3_config(seed=0, head=sys.argv[1]), max_epochs=epochs,\n"
            "                 patience=epochs, head_hidden=int(sys.argv[2]))\n"
            "sys.stdout.write(train((tc, tl.values), (vc, vl.values), 2, 1, config).to_json())\n"
        ),
        "33ch-100px": (
            "import sys\n"
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from qefilters import SpectralBump, SynthSpec, TrainConfig, gen_synthetic, train\n"
            "base = (SpectralBump(780.0, 150.0, 0.4),)\n"
            "spec = SynthSpec(\n"
            "    class_bumps=(base, base + (SpectralBump(660.0, 30.0, 0.3),),\n"
            "                 base + (SpectralBump(900.0, 30.0, 0.3),)),\n"
            "    planted_centers_nm=(660.0, 900.0),\n"
            "    wavelengths_nm=tuple(np.linspace(600.0, 975.0, 33)),\n"
            "    noise_sigma=0.15, images=3, height=100, width=100, seed=5,\n"
            ")\n"
            "tc, tl = gen_synthetic(spec)\n"
            "vc, vl = gen_synthetic(replace(spec, subset=1, images=1))\n"
            "epochs = int(sys.argv[3])\n"
            "config = TrainConfig(learning_rate=2e-2, max_epochs=epochs, patience=epochs,\n"
            "                     batch_size=3, seed=0, head=sys.argv[1], head_hidden=int(sys.argv[2]))\n"
            "sys.stdout.write(train((tc, tl.values), (vc, vl.values), 4, 2, config).to_json())\n"
        ),
    }

    @pytest.mark.parametrize(
        "task, head, hidden, epochs",
        [
            pytest.param("planted3", "linear", 8, 5, id="linear"),
            pytest.param("planted3", "mlp", 8, 5, id="mlp"),
            pytest.param("33ch-100px", "linear", 8, 3, id="33ch-100px-linear"),
            pytest.param("33ch-100px", "mlp", 8, 3, id="33ch-100px-mlp"),
            pytest.param("33ch-100px", "mlp", 33, 5, id="33ch-100px-mlp-hidden33"),
        ],
    )
    def test_report_independent_of_blas_threads(self, task, head, hidden, epochs):
        src_dir = Path(qefilters.__file__).resolve().parent.parent
        tests_dir = Path(__file__).resolve().parent
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([str(src_dir), str(tests_dir)])
            done = subprocess.run(
                [sys.executable, "-c", self._THREAD_SCRIPTS[task], head, str(hidden), str(epochs)],
                env=env, capture_output=True, check=True,
            )
            reports.append(done.stdout)
        assert json.loads(reports[0])["epochs_run"] == epochs
        assert reports[0] == reports[1]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(patience=500, max_epochs=300)

    @pytest.mark.parametrize(
        "make, field",
        [
            pytest.param(lambda: TrainConfig(learning_rate=float("nan")), "learning_rate", id="lr-nan"),
            pytest.param(lambda: TrainConfig(learning_rate=float("inf")), "learning_rate", id="lr-inf"),
            pytest.param(lambda: TrainConfig(head_hidden=0), "head_hidden", id="hidden-0"),
            # Accepted before, these failed only inside train: the head after
            # the bank was built, a count with a bare TypeError or as 2.5 epochs.
            pytest.param(lambda: TrainConfig(head="cnn"), "head", id="head-cnn"),
            pytest.param(lambda: TrainConfig(max_epochs=2.5), "max_epochs", id="max_epochs-float"),
            pytest.param(lambda: TrainConfig(patience=2.0), "patience", id="patience-float"),
            pytest.param(lambda: TrainConfig(batch_size=True), "batch_size", id="batch_size-bool"),
            pytest.param(lambda: TrainConfig(head_hidden="8"), "head_hidden", id="hidden-string"),
            pytest.param(lambda: RegConfig(lambda_reg=float("nan")), "lambda_reg", id="lambda-nan"),
            pytest.param(lambda: RegConfig(lambda_reg=float("inf")), "lambda_reg", id="lambda-inf"),
        ],
    )
    def test_config_rejects_non_finite_and_out_of_range(self, make, field):
        with pytest.raises(ConfigurationError, match=field):
            make()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_label_shape_checked_before_training(self, split):
        cube, labels = tiny_dataset(seed=14)
        data = {"train": (cube, labels), "val": (cube, labels)}
        data[split] = (cube, labels[:-1])
        config = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, batch_size=4, seed=0)
        with pytest.raises(DataError, match=split):
            train(data["train"], data["val"], 2, 1, config)

    def test_report_csv_headers(self):
        cube, labels = tiny_dataset(seed=10)
        config = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, batch_size=4, seed=0)
        report = train((cube, labels), (cube, labels), 2, 1, config)
        assert report.epochs_csv().splitlines()[0] == "epoch,seg_loss,L_dom,L_sep,L_bw,train_miou,val_miou"
        assert report.centroids_csv().splitlines()[0] == "epoch,filter,peak,centroid"
        assert len(report.centroid_history) == len(report.records)

    def test_report_csvs_hold_plain_numbers(self):
        # 3 filters of 3 peaks, so the dominance penalty is active.
        (tr_cube, tr_lab), (va_cube, va_lab) = planted3_data()
        config = replace(planted3_config(seed=0), max_epochs=3, patience=3)
        report = train((tr_cube, tr_lab.values), (va_cube, va_lab.values), 3, 3, config)
        assert all(r.dominance > 0 for r in report.records)
        rows = [line.split(",") for line in report.epochs_csv().splitlines()[1:]]
        assert [[int(row[0]), *map(float, row[1:])] for row in rows] == [list(astuple(r)) for r in report.records]
        rows = [line.split(",") for line in report.centroids_csv().splitlines()[1:]]
        history = report.centroid_history
        assert [[*map(int, row[:3]), float(row[3])] for row in rows] == [
            [e + 1, f, p, history[e, f, p]] for e, f, p in np.ndindex(history.shape)
        ]

    def test_one_step_per_batch(self, monkeypatch):
        # 5 images in batches of 2 give batches of 2, 2 and 1 images, and
        # each, the remainder too, takes one optimizer step.
        steps = []
        step = AdamW.step

        def counted_step(self, grads):
            steps.append(len(grads))
            step(self, grads)

        monkeypatch.setattr(AdamW, "step", counted_step)
        cube, labels = tiny_dataset(seed=11, images=5)
        config = TrainConfig(learning_rate=1e-2, max_epochs=4, patience=4, batch_size=2, seed=0)
        train((cube, labels), (cube, labels), 2, 1, config)
        assert len(steps) == 12

    @pytest.mark.parametrize("bad", [0.5, 1.7])
    def test_non_integer_labels_are_rejected(self, bad):
        # Truncation would train these pixels as class int(bad).
        cube, labels = tiny_dataset(seed=12)
        labels = labels.astype(float)
        labels[0, 0, 0] = bad
        config = TrainConfig(max_epochs=2, patience=2, seed=0)
        with pytest.raises(DataError, match=f"label {bad} is not an integer"):
            train((cube, labels), (cube, labels), 2, 1, config)

    def test_predict_shapes_and_accuracy(self):
        cube, labels = tiny_dataset(seed=6, images=8, noise=0.05)
        val_cube, val_labels = tiny_dataset(seed=7, images=4, noise=0.05)
        config = TrainConfig(
            learning_rate=2e-2, max_epochs=200, patience=40, batch_size=4, seed=3,
            reg=RegConfig(d_min=0.25),
        )
        report = train((cube, labels), (val_cube, val_labels), 1, 1, config)
        pred = predict(report, val_cube)
        assert pred.shape == val_labels.shape
        assert (pred == val_labels).mean() > 0.9

    def test_predict_restores_mlp_of_any_width(self):
        cube, labels = tiny_dataset(seed=6, images=8, noise=0.05)
        val_cube, val_labels = tiny_dataset(seed=7, images=4, noise=0.05)
        config = TrainConfig(
            learning_rate=2e-2, max_epochs=10, patience=10, batch_size=4, seed=3,
            head="mlp", head_hidden=16,
        )
        report = train((cube, labels), (val_cube, val_labels), 1, 1, config)
        assert report.head.parameters()["w1"].shape == (16, 1)
        cm = ConfusionMatrix(report.num_classes).accumulate(predict(report, val_cube), val_labels)
        assert compute_metrics(cm).miou == report.best_val_miou

    @pytest.mark.parametrize("head", ["linear", "mlp"])
    def test_predict_uses_the_best_epoch_head(self, head):
        # Noisy data and a large step: the best epoch comes before the last,
        # so a head that kept training would predict differently.
        cube, labels = tiny_dataset(seed=6, images=8, noise=0.3)
        val_cube, val_labels = tiny_dataset(seed=7, images=4, noise=0.3)
        config = TrainConfig(learning_rate=0.05, max_epochs=10, patience=10, batch_size=4, seed=3, head=head)
        report = train((cube, labels), (val_cube, val_labels), 1, 1, config)
        assert report.best_epoch < len(report.records)
        cm = ConfusionMatrix(report.num_classes).accumulate(predict(report, val_cube), val_labels)
        assert compute_metrics(cm).miou == report.best_val_miou


@pytest.mark.slow
class TestRegularizedSpacing:
    def test_lambda_sweep_separation_contract(self):
        # With the separation term active and converged to zero penalty, the
        # dominant centroids end at least d_min apart; an unregularized run
        # carries no such guarantee.
        from tasks import bands3_config, bands3_spec, dominant_centroids_sorted
        from qefilters import gen_synthetic
        from qefilters.regularization import separation_loss

        train_data = gen_synthetic(bands3_spec(0, 16))
        val_data = gen_synthetic(bands3_spec(1, 6))
        config = bands3_config(seed=0)
        report = train(
            (train_data[0], train_data[1].values),
            (val_data[0], val_data[1].values),
            3, 1, config,
        )
        sep_value, _ = separation_loss(report.params, config.reg.d_min)
        if sep_value == 0.0:
            spacing = np.diff(dominant_centroids_sorted(report.params))
            assert np.all(spacing >= config.reg.d_min)
