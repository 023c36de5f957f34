"""Tests of the benchmark itself: its definition, span arithmetic and workloads.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec
from spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_spec_definition():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.definition()


def test_definition_keeps_to_the_format():
    doc = spec.definition()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [m.name for m in spec.REPORTED_ONLY]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 15) < 3420


def test_layer_table_names_real_metrics_and_workloads():
    reported = {m.name for m in spec.END_TO_END + spec.REPORTED_ONLY}
    for metric in spec.PER_LAYER:
        assert set(metric.moves) <= reported, metric.name
        assert metric.most in spec.WORKLOADS and metric.least in spec.WORKLOADS


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("c", 5.5, 7.0, 0),  # overlaps b: the union 5..7 counts once
        Span("d", 9.0, 12.0, 0),  # runs past its parent: only 9..10 is covered
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2 - 1, 2.0, 1.0, 1.0, 1.5, 3.0])


def test_tracer_nests_spans_and_restores_the_package():
    import numpy as np

    import qefilters.projection as projection
    import qefilters.training as training

    original_loss, original_init = training.seg_loss, projection.Hypercube.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert training.seg_loss is not original_loss
        logits = np.zeros((1, 2, 2, 2))
        labels = np.array([[[0, 1], [1, 0]]])
        training.seg_loss(logits, labels, np.ones(2))
    finally:
        tracer.uninstall()
    assert training.seg_loss is original_loss
    assert projection.Hypercube.__init__ is original_init
    spans, _, _ = tracer.take()
    names = [s.name for s in spans]
    assert names == ["training.seg_loss", "training.weighted_cross_entropy", "training.soft_dice"]
    assert [s.parent for s in spans] == [None, 0, 0]


TINY = {
    "hsidrive-train": dict(size=16, train_images=4, val_images=2, epochs=1, predict_repeats=2, io_repeats=1),
    "wide-train": dict(channels=16, size=16, train_images=4, val_images=2, epochs=1, predict_repeats=2, io_repeats=1),
    "cli-pipeline": dict(size=16, train_images=4, val_images=2, epochs=1, io_repeats=1, reduce_samples=200),
}


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_checks_its_outputs(name, trace, tmp_path, monkeypatch):
    # Tiny inputs train to an arbitrary mIoU, so the floor is off here.
    tiny = dataclasses.replace(spec.WORKLOADS[name], miou_floor=0.0, **TINY[name])
    if trace:
        monkeypatch.setattr("machine.copy_bandwidth", lambda: {"copy_gb_s": 10.0})
    m = run.measure(tiny, seed=3, seconds=0.01, trace=trace, work_root=tmp_path)
    runner = m["runner"]
    assert runner.ops.failed == 0, runner.ops.errors
    assert runner.ops.attempted > 0
    assert list(tmp_path.iterdir()) == []  # the work directory is removed
    if trace:
        figures = run.per_layer(m)
        assert set(figures) == {metric.name for metric in spec.PER_LAYER}
        assert figures["training.train.epochs"] == tiny.epochs
        assert figures["training.train.steps"] == tiny.epochs * -(-tiny.train_images // 4)
    else:
        e2e = run.end_to_end(m, import_s=0.0)
        assert all(e2e[metric.name] > 0 for metric in spec.END_TO_END)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    argv = [sys.executable, "bench/run.py", "--workload", "cli-pipeline", "--seed", "0", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
