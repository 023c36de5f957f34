"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Training-based criteria use the frozen tasks in tasks.py.
"""

import time

import numpy as np
import pytest

import qefilters as q
from qefilters.cubeio import CubeFormatError, parse_cube, serialize_cube
from qefilters.filterbank import FilterBankParams, WavelengthRange
from qefilters.projection import apply_filter_bank, backward
from qefilters.regularization import RegConfig, separation_loss, total_reg
from qefilters.rng import make_generator
from qefilters.training import AdamW, make_head, seg_loss

from tasks import (
    bands3_config,
    bands3_spec,
    control_spec,
    dominant_centroids_sorted,
    metameric_config,
    metameric_spec,
    planted3_config,
    planted3_data,
)
from test_regularization import away_from_kinks

HYKO = WavelengthRange(470.0, 630.0)


def report_line(number, description, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] criterion {number}: {description}{suffix}")


# ---------------------------------------------------------------------------
# 1. Gradient oracle suite
# ---------------------------------------------------------------------------

def _argmax_margins_ok(bank, lam, margin=1e-3):
    resp = q.evaluate_filter_bank(bank, lam)
    raw = resp.per_peak_responses.sum(axis=1)
    for row in raw:
        top = np.sort(row)[::-1]
        if row.size >= 2 and top[0] - top[1] < margin:
            return False
    return True


def test_criterion_01_gradient_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240)
    reg_cfg = RegConfig()
    checked = 0
    worst = 0.0
    while checked < 50:
        num_filters = int(rng.choice([1, 2, 3]))
        peaks = int(rng.choice([1, 2, 3]))
        channels = int(rng.choice([5, 15]))
        if num_filters >= channels:
            continue
        bank = q.init_filter_bank(num_filters, peaks, HYKO, seed=int(rng.integers(1_000_000)))
        table = bank.table.copy()
        table[:, :, 1] += rng.normal(0, 0.7, (num_filters, peaks))
        table[:, :, 3] = rng.normal(0, 1.0, (num_filters, peaks))
        bank = FilterBankParams(table, HYKO)
        wl = np.linspace(470.0, 630.0, channels)
        lam = q.normalize_wavelengths(wl, HYKO)
        if not away_from_kinks(bank, reg_cfg) or not _argmax_margins_ok(bank, lam):
            continue
        checked += 1

        b = int(rng.integers(1, 3))
        h = int(rng.integers(2, 5))
        w = int(rng.integers(2, 5))
        cube = q.Hypercube(rng.random((b, channels, h, w)), wl)
        num_classes = int(rng.integers(2, 4))
        labels = rng.integers(0, num_classes, (b, h, w))
        head = make_head("linear", num_classes, num_filters, make_generator(checked))
        weights = np.ones(num_classes)

        def objective(table):
            bank2 = FilterBankParams(table, HYKO)
            resp = q.evaluate_filter_bank(bank2, lam)
            feats = apply_filter_bank(cube, resp).data
            logits, _ = head.forward(feats)
            seg, _ = seg_loss(logits, labels, weights)
            reg, _ = total_reg(bank2, reg_cfg)
            return seg + reg_cfg.lambda_reg * reg.total

        resp = q.evaluate_filter_bank(bank, lam)
        feats = apply_filter_bank(cube, resp).data
        logits, cache = head.forward(feats)
        _, d_logits = seg_loss(logits, labels, weights)
        _, d_feats = head.backward(cache, d_logits)
        bank_grads, _ = backward(cube, resp, d_feats)
        _, reg_grads = total_reg(bank, reg_cfg)
        analytic = bank_grads + reg_cfg.lambda_reg * reg_grads

        step = 1e-5
        base_value = objective(bank.table)
        # Central differences on a float64 objective cannot resolve changes
        # below ~eps * |objective| / (2 * step). Single-peak filters have
        # epsilon-scale amplitude partials (~1e-10) that sit under that
        # floor, so agreement there is checked against the floor instead of
        # the relative tolerance; every resolvable partial uses the stated
        # tolerance.
        fd_noise_floor = 8 * np.finfo(float).eps * abs(base_value) / (2 * step)
        for f in range(num_filters):
            for p in range(peaks):
                for s in range(4):
                    plus = bank.table.copy()
                    plus[f, p, s] += step
                    minus = bank.table.copy()
                    minus[f, p, s] -= step
                    fd = (objective(plus) - objective(minus)) / (2 * step)
                    err = abs(analytic[f, p, s] - fd)
                    rel = err / (abs(fd) + 1e-8)
                    if err > fd_noise_floor:
                        worst = max(worst, rel)
                        assert rel < 1e-4, (checked, f, p, s, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    report_line(1, "analytic gradients match finite differences on 50 random configs",
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Parameter-count contract
# ---------------------------------------------------------------------------

def test_criterion_02_parameter_count():
    assert q.init_filter_bank(3, 1, HYKO, seed=0).num_parameters == 12
    assert q.init_filter_bank(3, 3, HYKO, seed=0).num_parameters == 36
    report_line(2, "parameter count is exactly 4*P*F (12 and 36 for the reference shapes)")


# ---------------------------------------------------------------------------
# 3. Regularizer worked values
# ---------------------------------------------------------------------------

def test_criterion_03_regularizer_worked_values():
    def logit(a):
        return float(np.log(a / (1 - a)))

    eps = 1e-8
    dom_bank = FilterBankParams(
        np.array([[[0.2, np.log(0.1), logit(0.8), 0.0], [0.8, np.log(0.1), logit(0.5), 0.0]]]),
        HYKO,
    )
    dom, _ = q.dominance_loss(dom_bank, 0.3)
    dom_direct = max(0.5 / (0.8 + eps) - 0.3, 0.0)
    assert abs(dom - dom_direct) < 1e-12

    sep_bank = FilterBankParams(
        np.array([[[0.50, np.log(0.1), 0.0, 0.0]], [[0.55, np.log(0.1), 0.0, 0.0]]]),
        HYKO,
    )
    sep, _ = q.separation_loss(sep_bank, 0.1)
    sep_direct = (max(0.1 - 0.05, 0.0) + max(0.1 - 0.05, 0.0)) / 4.0
    assert abs(sep - sep_direct) < 1e-12
    assert abs(sep - 0.025) < 1e-12

    bw_bank = FilterBankParams(np.array([[[0.5, np.log(0.30), 0.0, 0.0]]]), HYKO)
    bw, _ = q.bandwidth_loss(bw_bank, 0.03, 0.25)
    bw_direct = max(0.03 - 0.30, 0.0) + max(0.30 - 0.25, 0.0)
    assert abs(bw - bw_direct) < 1e-12
    report_line(
        3,
        "worked regularizer values match direct formula evaluation",
        f"dom {dom:.6f}, sep {sep:.6f}, bw {bw:.6f}",
    )


# ---------------------------------------------------------------------------
# 4. Planted-band recovery
# ---------------------------------------------------------------------------

def _train_planted3(seed, head="linear"):
    (tr_cube, tr_lab), (va_cube, va_lab) = planted3_data()
    return q.train(
        (tr_cube, tr_lab.values), (va_cube, va_lab.values), 2, 1, planted3_config(seed, head)
    )


def test_criterion_04_planted_band_recovery():
    targets = np.array([0.25, 0.70])
    successes = 0
    details = []
    for seed in range(5):
        start = time.perf_counter()
        report = _train_planted3(seed)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"run took {elapsed:.0f}s"
        centroids = dominant_centroids_sorted(report.params)
        distances = np.abs(centroids - targets)
        ok = bool(np.all(distances < 0.05) and report.best_val_miou > 90.0)
        successes += ok
        details.append(f"seed {seed}: dist {distances.max():.3f} mIoU {report.best_val_miou:.1f}")
    assert successes >= 4, details
    report_line(4, "planted centers recovered within 0.05 with val mIoU > 90",
                f"{successes}/5 seeds; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Architecture-agnostic convergence
# ---------------------------------------------------------------------------

def test_criterion_05_architecture_agnostic_convergence():
    linear = _train_planted3(0, head="linear")
    mlp = _train_planted3(0, head="mlp")
    c_linear = dominant_centroids_sorted(linear.params)
    c_mlp = dominant_centroids_sorted(mlp.params)
    # optimal bottleneck matching over the two possible pairings
    direct = np.abs(c_linear - c_mlp).max()
    swapped = np.abs(c_linear - c_mlp[::-1]).max()
    match = min(direct, swapped)
    assert match < 0.05, (c_linear, c_mlp)
    report_line(5, "linear and MLP heads converge to matching dominant centroids",
                f"matching distance {match:.3f}")


# ---------------------------------------------------------------------------
# 6. Learned filters vs PCA
# ---------------------------------------------------------------------------

def _train_head_only(train_feats, train_labels, val_feats, val_labels, num_classes, seed=0,
                     steps=400, lr=5e-2):
    head = make_head("linear", num_classes, train_feats.shape[1], make_generator(seed, 1))
    weights = q.inverse_frequency_weights(train_labels, num_classes)
    named = dict(head.parameters())
    optimizer = AdamW(named, lr=lr, weight_decay={k: 0.0 for k in named})
    for _ in range(steps):
        logits, cache = head.forward(train_feats)
        _, d_logits = seg_loss(logits, train_labels, weights)
        grads, _ = head.backward(cache, d_logits)
        head.set_parameters(optimizer.step(head.parameters(), grads))
    logits, _ = head.forward(val_feats)
    pred = np.argmax(logits, axis=1)
    cm = q.ConfusionMatrix(num_classes).accumulate(pred, val_labels)
    return q.compute_metrics(cm).miou


def _learned_vs_pca(spec_fn, config, num_classes, seed=0):
    tr_cube, tr_lab = q.gen_synthetic(spec_fn(0, 16))
    va_cube, va_lab = q.gen_synthetic(spec_fn(1, 6))
    report = q.train((tr_cube, tr_lab.values), (va_cube, va_lab.values), 2, 1, config)
    pipeline = q.fit_reduction_pipeline(
        [(tr_cube, tr_lab.values)], "pca", 2, target_total=20_000, seed=seed
    )
    tr_red = q.project(tr_cube, pipeline.stats, pipeline.projection).data
    va_red = q.project(va_cube, pipeline.stats, pipeline.projection).data
    pca_miou = _train_head_only(tr_red, tr_lab.values, va_red, va_lab.values, num_classes, seed=seed)
    return report.best_val_miou, pca_miou


def test_criterion_06_learned_vs_pca():
    learned, pca = _learned_vs_pca(metameric_spec, metameric_config(0), num_classes=4, seed=0)
    assert learned - pca >= 10.0, (learned, pca)
    learned_control, pca_control = _learned_vs_pca(
        control_spec, planted3_config(0), num_classes=3, seed=0
    )
    assert abs(learned_control - pca_control) <= 5.0, (learned_control, pca_control)
    report_line(
        6,
        "learned filters beat PCA on the metameric task and tie on the control",
        f"metameric {learned:.1f} vs {pca:.1f}; control {learned_control:.1f} vs {pca_control:.1f}",
    )


# ---------------------------------------------------------------------------
# 7. Regularization ablation
# ---------------------------------------------------------------------------

def test_criterion_07_regularization_ablation():
    variants = {
        "full": ("dominance", "separation", "bandwidth"),
        "dominance": ("dominance",),
        "separation": ("separation",),
        "bandwidth": ("bandwidth",),
    }
    train_data = q.gen_synthetic(bands3_spec(0, 16))
    val_data = q.gen_synthetic(bands3_spec(1, 6))
    means = {}
    full_reports = []
    for name, enabled in variants.items():
        scores = []
        for seed in range(5):
            config = bands3_config(seed, enabled=enabled)
            report = q.train(
                (train_data[0], train_data[1].values),
                (val_data[0], val_data[1].values),
                3, 1, config,
            )
            scores.append(report.best_val_miou)
            if name == "full":
                full_reports.append((config, report))
        means[name] = float(np.mean(scores))
    for single in ("dominance", "separation", "bandwidth"):
        assert means["full"] >= means[single], means

    converged = 0
    for config, report in full_reports:
        sep_value, _ = separation_loss(report.params, config.reg.d_min)
        if sep_value == 0.0:
            converged += 1
            centroids = dominant_centroids_sorted(report.params)
            assert np.all(np.diff(centroids) >= config.reg.d_min)
    assert converged >= 1, "no full run converged to zero separation penalty"
    report_line(
        7,
        "full regularization is >= every single-component variant; spacing guarantee exact",
        f"means {means}; {converged}/5 full runs at zero separation penalty",
    )


# ---------------------------------------------------------------------------
# 8. Metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_08_metric_oracle():
    from test_metrics import matrix_of, naive_metrics

    rng = np.random.default_rng(606)
    for _ in range(1000):
        k = int(rng.integers(2, 20))
        counts = rng.integers(0, 200, (k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        got = q.compute_metrics(matrix_of(counts))
        oracle = naive_metrics(counts.tolist())
        for key in ("miou", "mf1", "kappa"):
            assert abs(getattr(got, key) - oracle[key]) <= 1e-9 * max(1.0, abs(oracle[key]))
    worked = q.compute_metrics(matrix_of([[40, 10], [10, 40]]))
    assert round(worked.miou, 2) == 66.67
    assert round(worked.kappa, 2) == 60.00
    report_line(8, "metrics match the naive formula oracle on 1000 random matrices",
                "worked case mIoU 66.67, kappa 60.00")


# ---------------------------------------------------------------------------
# 9. PCA / NMF oracles
# ---------------------------------------------------------------------------

def test_criterion_09_pca_nmf_oracles():
    from test_classical import power_iteration_eigh

    rng = np.random.default_rng(909)
    for trial in range(20):
        channels = int(rng.integers(4, 9))
        scales = 3.0 * 0.7 ** np.arange(channels)
        mixing, _ = np.linalg.qr(rng.normal(size=(channels, channels)))
        matrix = rng.normal(size=(50, channels)) @ np.diag(scales) @ mixing
        k = 2
        proj = q.fit_pca(matrix, k)
        centered = matrix - matrix.mean(axis=0)
        cov = centered.T @ centered / len(matrix)
        _, vectors = power_iteration_eigh(cov, k)
        for row, oracle_vec in zip(proj.components, vectors):
            assert abs(float(row @ oracle_vec)) > 1 - 1e-8, trial

    for trial in range(20):
        matrix = rng.random((20, 6))
        proj, _ = q.fit_nmf(matrix, 3, max_iter=200, tol=1e-13, seed=trial)
        history = np.array(proj.residual_history)
        assert np.all(np.diff(history) <= 0.0), trial
    report_line(9, "PCA matches the power-iteration oracle; NMF residuals are monotone")


# ---------------------------------------------------------------------------
# 10. Determinism and format robustness
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_and_fuzz():
    (tr_cube, tr_lab), (va_cube, va_lab) = planted3_data()
    config = q.TrainConfig(
        learning_rate=2e-2, max_epochs=10, patience=10, batch_size=4, seed=0,
        reg=RegConfig(d_min=0.25),
    )
    runs = [
        q.train((tr_cube, tr_lab.values), (va_cube, va_lab.values), 2, 1, config)
        for _ in range(2)
    ]
    assert runs[0].to_json() == runs[1].to_json()
    assert runs[0].epochs_csv() == runs[1].epochs_csv()
    assert runs[0].centroids_csv() == runs[1].centroids_csv()
    assert runs[0].params.to_json() == runs[1].params.to_json()

    rng = np.random.default_rng(4242)
    wl = np.linspace(470.0, 630.0, 3)
    cube = q.Hypercube(
        rng.random((1, 3, 2, 2)).astype(np.float32).astype(float), wl
    )
    labels = q.LabelMap(rng.integers(0, 3, (1, 2, 2)), num_classes=3)
    blob = serialize_cube(cube, labels)
    rejected = accepted = 0
    for _ in range(10_000):
        mutated = bytearray(blob)
        if rng.random() < 0.15:
            mutated = mutated[: rng.integers(0, len(blob))]  # truncation
        else:
            mutated[rng.integers(0, len(blob))] = int(rng.integers(0, 256))
        try:
            parsed_cube, parsed_labels = parse_cube(bytes(mutated))
        except CubeFormatError:
            rejected += 1
            continue
        accepted += 1
        # a successful parse must reproduce the mutated bytes exactly
        assert serialize_cube(parsed_cube, parsed_labels) == bytes(mutated)
    report_line(
        10,
        "identical seeds give byte-identical reports; 10k mutated files never crash or misparse",
        f"{rejected} rejected, {accepted} accepted faithfully",
    )
