import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qefilters

from qefilters import (
    ConfigurationError,
    DataError,
    Hypercube,
    RegConfig,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    evaluate_filter_bank,
    init_filter_bank,
    inverse_frequency_weights,
    normalize_wavelengths,
    seg_loss,
    soft_dice,
    total_loss,
    train,
    weighted_cross_entropy,
)
from qefilters.filterbank import FilterBankParams, WavelengthRange
from qefilters.projection import apply_filter_bank, backward
from qefilters.regularization import RegLosses, total_reg
from qefilters.training import make_head
from qefilters.rng import make_generator

from tasks import planted3_config, planted3_data, planted3_spec

HYKO = WavelengthRange(470.0, 630.0)


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
        ce, _ = weighted_cross_entropy(logits, labels, np.ones(2))
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
        from qefilters.metrics import IGNORE_LABEL

        logits = np.random.default_rng(2).normal(size=(1, 2, 2, 2))
        labels = np.array([[[0, IGNORE_LABEL], [1, IGNORE_LABEL]]])
        _, grad = seg_loss(logits, labels, np.ones(2))
        assert np.all(grad[0, :, 0, 1] == 0.0)
        assert np.all(grad[0, :, 1, 1] == 0.0)

    def test_ignore_value_inside_class_range(self):
        from qefilters.metrics import IGNORE_LABEL

        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 3, 4, 4))
        labels = rng.integers(0, 3, size=(2, 4, 4))
        ignored = labels == 1
        assert ignored.any()
        weights = np.array([1.0, 2.0, 0.5])
        value, grad = seg_loss(logits, labels, weights, ignore=1)
        ref_value, ref_grad = seg_loss(logits, np.where(ignored, IGNORE_LABEL, labels), weights)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)
        assert np.all(grad.transpose(0, 2, 3, 1)[ignored] == 0.0)

    def test_label_out_of_range(self):
        logits = np.zeros((1, 2, 1, 1))
        with pytest.raises(DataError):
            seg_loss(logits, np.array([[[3]]]), np.ones(2))

    def test_dice_component_zero_for_perfect(self):
        labels = np.array([[[0, 1], [1, 0]]])
        logits = np.full((1, 2, 2, 2), -20.0)
        for b, h, w in np.ndindex(1, 2, 2):
            logits[b, labels[b, h, w], h, w] = 20.0
        dice, _ = soft_dice(logits, labels)
        assert dice == pytest.approx(0.0, abs=1e-8)


class TestTotalLoss:
    def test_zero_reg_identity(self):
        reg = RegLosses.of(0.0, 0.0, 0.0)
        assert total_loss(1.37, reg, 0.1) == 1.37

    def test_worked_combination(self):
        reg = RegLosses.of(0.325, 0.025, 0.05)
        assert total_loss(1.0, reg, 0.1) == pytest.approx(1.04, abs=1e-12)

    def test_lambda_zero_is_seg_only(self):
        reg = RegLosses.of(0.3, 0.2, 0.1)
        assert total_loss(2.0, reg, 0.0) == 2.0


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = np.array([1.0, -2.0])
        new_p, m, v = adam_step(p, np.zeros(2), np.zeros(2), np.zeros(2), 1, lr=0.1)
        np.testing.assert_array_equal(new_p, p)

    def test_constant_gradient_approaches_lr_steps(self):
        p = np.array([0.0])
        m = np.zeros(1)
        v = np.zeros(1)
        g = np.array([3.7])
        last = p.copy()
        for t in range(1, 200):
            p, m, v = adam_step(p, g, m, v, t, lr=1e-3)
        assert (last - p)[0] > 0  # moving against the gradient
        step_size = last[0] - p[0]
        # after warmup each step is ~lr * sign(g)
        p2, _, _ = adam_step(p, g, m, v, 200, lr=1e-3)
        assert abs((p - p2)[0] - 1e-3) < 1e-5

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
        ms = np.zeros(1)
        vs = np.zeros(1)
        for t, g in enumerate(grads, start=1):
            p, ms, vs = adam_step(p, np.array([g]), ms, vs, t, lr=lr)
            assert p[0] == pytest.approx(expected[t - 1], rel=1e-14)

    def test_decoupled_weight_decay(self):
        p = np.array([2.0])
        new_p, _, _ = adam_step(p, np.zeros(1), np.zeros(1), np.zeros(1), 1, lr=0.1, weight_decay=0.5)
        assert new_p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


class TestClassWeights:
    def test_inverse_frequency_mean_one(self):
        labels = np.array([0, 0, 0, 1])
        weights = inverse_frequency_weights(labels, 2)
        assert weights.mean() == pytest.approx(1.0)
        assert weights[1] > weights[0]

    def test_absent_class_stays_finite(self):
        weights = inverse_frequency_weights(np.array([0, 0]), 3)
        assert np.all(np.isfinite(weights))


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
        # one 2 x 3 x 4 x 4 instance, F=2 filters
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
            feats = apply_filter_bank(cube, resp).data
            logits, _ = head.forward(feats)
            seg, _ = seg_loss(logits, labels, weights)
            reg, _ = total_reg(b, reg_cfg)
            return total_loss(seg, reg, reg_cfg.lambda_reg)

        resp = evaluate_filter_bank(bank, lam)
        feats = apply_filter_bank(cube, resp).data
        logits, cache = head.forward(feats)
        _, d_logits = seg_loss(logits, labels, weights)
        _, d_feats = head.backward(cache, d_logits)
        bank_grads, _ = backward(cube, resp, d_feats)
        _, reg_grads = total_reg(bank, reg_cfg)
        full_grad = bank_grads.table + reg_cfg.lambda_reg * reg_grads.table

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
        from qefilters.training import AdamW

        named = {"bank": bank.table}
        named.update({f"head.{k}": p for k, p in head.parameters().items()})
        opt = AdamW(named, lr=1e-4, weight_decay={k: 0.0 for k in named})

        def current_loss(b):
            resp = evaluate_filter_bank(b, lam)
            feats = apply_filter_bank(cube, resp).data
            logits, _ = head.forward(feats)
            seg, _ = seg_loss(logits, labels, weights)
            reg, _ = total_reg(b, cfg)
            return total_loss(seg, reg, cfg.lambda_reg)

        initial = current_loss(bank)
        for _ in range(50):
            resp = evaluate_filter_bank(bank, lam)
            feats = apply_filter_bank(cube, resp).data
            logits, cache = head.forward(feats)
            _, d_logits = seg_loss(logits, labels, weights)
            head_grads, d_feats = head.backward(cache, d_logits)
            bank_grads, _ = backward(cube, resp, d_feats)
            _, reg_grads = total_reg(bank, cfg)
            grads = {"bank": bank_grads.table + cfg.lambda_reg * reg_grads.table}
            grads.update({f"head.{k}": g for k, g in head_grads.items()})
            named = {"bank": bank.table}
            named.update({f"head.{k}": p for k, p in head.parameters().items()})
            updated = opt.step(named, grads)
            bank = FilterBankParams(updated["bank"], HYKO)
            head.set_parameters({k.removeprefix("head."): v for k, v in updated.items() if k != "bank"})
        assert current_loss(bank) < initial


class TestMlpHead:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        head = make_head("mlp", 3, 2, make_generator(4), hidden=8)
        feats = rng.normal(size=(1, 2, 3, 3))
        labels = rng.integers(0, 3, (1, 3, 3))
        weights = np.ones(3)

        def loss_with(params):
            head.set_parameters(params)
            logits, _ = head.forward(feats)
            return seg_loss(logits, labels, weights)[0]

        base = {k: p.copy() for k, p in head.parameters().items()}
        logits, cache = head.forward(feats)
        _, d_logits = seg_loss(logits, labels, weights)
        grads, d_feats = head.backward(cache, d_logits)
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
        # feature gradient too
        head.set_parameters(base)
        idx = (0, 1, 2, 0)
        plus = feats.copy()
        plus[idx] += step
        minus = feats.copy()
        minus[idx] -= step
        fd = (
            seg_loss(head.forward(plus)[0], labels, weights)[0]
            - seg_loss(head.forward(minus)[0], labels, weights)[0]
        ) / (2 * step)
        assert d_feats[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


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
        from qefilters import ConfusionMatrix, compute_metrics

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
        from qefilters.metrics import IGNORE_LABEL

        all_ignored = np.full_like(labels, IGNORE_LABEL)
        with pytest.raises(ConfigurationError):
            train((cube, all_ignored), (cube, labels), 1, 1, TrainConfig())

    def test_divergence_raises_with_epoch(self):
        cube, labels = tiny_dataset(seed=9)
        config = TrainConfig(learning_rate=1e200, max_epochs=10, patience=5, batch_size=4, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train((cube, labels), (cube, labels), 2, 1, config)
        assert err.value.epoch >= 1

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
    # thread count; at 3 x 100 x 100 pixels per batch, backward's pixel sum
    # run through np.tensordot gives different reports under 1 and 2 threads.
    _THREAD_SCRIPTS = {
        "planted3": (
            "import sys\n"
            "from dataclasses import replace\n"
            "from qefilters import train\n"
            "from tasks import planted3_config, planted3_data\n"
            "(tc, tl), (vc, vl) = planted3_data()\n"
            "config = replace(planted3_config(seed=0, head=sys.argv[1]), max_epochs=5, patience=5)\n"
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
            "config = TrainConfig(learning_rate=2e-2, max_epochs=3, patience=3, batch_size=3,\n"
            "                     seed=0, head=sys.argv[1])\n"
            "sys.stdout.write(train((tc, tl.values), (vc, vl.values), 4, 2, config).to_json())\n"
        ),
    }

    @pytest.mark.parametrize(
        "task, head, epochs",
        [
            pytest.param("planted3", "linear", 5, id="linear"),
            pytest.param("planted3", "mlp", 5, id="mlp"),
            pytest.param("33ch-100px", "linear", 3, id="33ch-100px-linear"),
            pytest.param("33ch-100px", "mlp", 3, id="33ch-100px-mlp"),
        ],
    )
    def test_report_independent_of_blas_threads(self, task, head, epochs):
        src_dir = Path(qefilters.__file__).resolve().parent.parent
        tests_dir = Path(__file__).resolve().parent
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([str(src_dir), str(tests_dir)])
            done = subprocess.run(
                [sys.executable, "-c", self._THREAD_SCRIPTS[task], head],
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

    def test_report_csv_headers(self):
        cube, labels = tiny_dataset(seed=10)
        config = TrainConfig(learning_rate=1e-3, max_epochs=2, patience=2, batch_size=4, seed=0)
        report = train((cube, labels), (cube, labels), 2, 1, config)
        assert report.epochs_csv().splitlines()[0] == "epoch,seg_loss,L_dom,L_sep,L_bw,train_miou,val_miou"
        assert report.centroids_csv().splitlines()[0] == "epoch,filter,peak,centroid"
        assert len(report.centroid_history) == len(report.records)

    def test_gradient_accumulation_runs(self):
        cube, labels = tiny_dataset(seed=11, images=8)
        config = TrainConfig(
            learning_rate=1e-2, max_epochs=4, patience=4, batch_size=2, seed=0,
            accumulate_steps=2,
        )
        report = train((cube, labels), (cube, labels), 2, 1, config)
        assert len(report.records) == 4
        assert np.all(np.isfinite(report.params.table))

    def test_explicit_class_weights(self):
        cube, labels = tiny_dataset(seed=12)
        config = TrainConfig(
            learning_rate=1e-3, max_epochs=2, patience=2, batch_size=4, seed=0,
            class_weights=(1.5, 0.5),
        )
        report = train((cube, labels), (cube, labels), 2, 1, config)
        assert len(report.records) == 2
        with pytest.raises(ConfigurationError):
            train(
                (cube, labels), (cube, labels), 2, 1,
                TrainConfig(max_epochs=2, patience=2, class_weights=(1.0, 1.0, 1.0)),
            )

    def test_predict_shapes_and_accuracy(self):
        from qefilters import predict

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
