"""Set-up, timed body and output checks of each workload.

A body repetition reads its inputs from ``.hypc`` files, trains for a fixed
number of epochs, then predicts (Python API) or reduces (CLI), and finally
writes and re-reads the validation cube. Every call into the package is an
operation: it fails when it raises, when a CLI step exits nonzero, or when
its output check fails.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qefilters.cubeio as cubeio
import qefilters.projection as projection
import qefilters.regularization as regularization
import qefilters.synthetic as synthetic
import qefilters.training as training
from qefilters.metrics import IGNORE_LABEL
import spec
from spec import Workload

# The package re-exports the function ``cli`` under the submodule's name.
cli = importlib.import_module("qefilters.cli")

BATCH = 4
TRAIN_SEED = 0  # the workload seed makes the data; the model init stays fixed


class StepFailed(Exception):
    """A CLI step failed, was counted, and leaves the repetition nothing to go on with."""


class Ops:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


@dataclass
class Rep:
    """Timings of one body repetition, in seconds unless named otherwise."""

    run_s: float = 0.0
    train_s: float = 0.0
    reduce_s: float | None = None
    predict_s: list[float] = field(default_factory=list)
    read_mb_s: list[float] = field(default_factory=list)
    write_mb_s: list[float] = field(default_factory=list)
    val_miou: float = float("nan")


def _gen_doc(w: Workload, seed: int) -> dict:
    return {
        "wavelengths": {"start_nm": spec.START_NM, "end_nm": spec.END_NM, "channels": w.channels},
        "classes": [
            [{"center_nm": c, "width_nm": wd, "height": h} for c, wd, h in bumps]
            for bumps in spec.CLASS_BUMPS
        ],
        "planted_centers_nm": list(spec.PLANTED_NM),
        "noise_sigma": spec.NOISE_SIGMA,
        "train_images": w.train_images,
        "val_images": w.val_images,
        "height": w.size,
        "width": w.size,
        "blobs_per_image": spec.BLOBS,
        "seed": seed,
    }


def _generate(doc: dict, subset: int, images: int):
    # Mirrors what ``qefilters gen-synth`` does for its train (0) and val (1) subsets.
    return synthetic.gen_synthetic(synthetic.spec_from_dict(dict(doc, subset=subset, images=images)))


def _stored(cube) -> np.ndarray:
    """The values a cube reads back as: float32-rounded, widened to float64."""
    return cube.data.astype(np.float32).astype(float)


def _file_mb(path: Path) -> float:
    return path.stat().st_size / 1e6


def _reduce_reference(pipeline_path: Path, data: np.ndarray) -> np.ndarray:
    """What ``reduce`` must have written for ``data``, computed here with numpy
    alone, so the check calls no package function and adds no spans."""
    doc = json.loads(pipeline_path.read_text())
    per_band = (slice(None), None, None)
    x = (data - np.array(doc["stats"]["mean"])[per_band]) / np.array(doc["stats"]["std"])[per_band]
    if "shift" in doc["projection"]:
        x = x + np.array(doc["projection"]["shift"])[per_band]
    reduced = np.einsum("fc,bchw->bfhw", np.array(doc["projection"]["components"]), x)
    return reduced.astype(np.float32).astype(float)


class Runner:
    """Owns one workload's inputs in a work directory and runs its body."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.ops = Ops()
        self.expected: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.first_val_miou: float | None = None
        self.first_prediction: np.ndarray | None = None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        """Generate the inputs, write them (API workloads) and warm up."""
        doc = _gen_doc(self.w, self.seed)
        data = {
            "train": _generate(doc, 0, self.w.train_images),
            "val": _generate(doc, 1, self.w.val_images),
        }
        self.expected = {k: (_stored(cube), labels.values) for k, (cube, labels) in data.items()}
        self.val_cube = data["val"][0]
        self.train_pixels = int(np.count_nonzero(data["train"][1].values != IGNORE_LABEL))
        self.val_pixels = int(np.count_nonzero(data["val"][1].values != IGNORE_LABEL))
        if self.w.cli:
            self._write_cli_configs(doc)
            self._cli(["gen-synth", "--config", str(self.work / "warm_gen.json"), "--out", str(self.work / "warm")])
            self._cli(["train", "--config", str(self.work / "warm_train.json"), "--out", str(self.work / "warm")])
        else:
            for name, (cube, labels) in data.items():
                cubeio.write_cube(cube, labels, self.work / f"{name}.hypc")
            cube, labels = data["train"]
            warm = (projection.Hypercube(cube.data[:BATCH], cube.wavelengths_nm), labels.values[:BATCH])
            training.train(warm, warm, self.w.filters, spec.PEAKS, self._config(1), spec.NUM_CLASSES)

    def _config(self, epochs: int) -> training.TrainConfig:
        return training.TrainConfig(
            learning_rate=self.w.learning_rate,
            max_epochs=epochs,
            patience=epochs,
            batch_size=BATCH,
            seed=TRAIN_SEED,
            reg=regularization.RegConfig(d_min=spec.D_MIN),
            head=self.w.head,
        )

    def _write_cli_configs(self, doc: dict) -> None:
        data = self.work / "data"
        train_doc = {
            "train_data": str(data / "train.hypc"),
            "val_data": str(data / "val.hypc"),
            "num_filters": self.w.filters,
            "peaks_per_filter": spec.PEAKS,
            "learning_rate": self.w.learning_rate,
            "max_epochs": self.w.epochs,
            "patience": self.w.epochs,
            "batch_size": BATCH,
            "seed": TRAIN_SEED,
            "reg": {"d_min": spec.D_MIN},
            "head": self.w.head,
        }
        warm = self.work / "warm"
        configs = {
            "gen.json": doc,
            # The warm-up runs every CLI code path once on small inputs.
            "warm_gen.json": dict(doc, height=32, width=32, train_images=4, val_images=1),
            "train.json": train_doc,
            "warm_train.json": dict(
                train_doc,
                train_data=str(warm / "train.hypc"),
                val_data=str(warm / "val.hypc"),
                max_epochs=1,
                patience=1,
            ),
        }
        for method in ("pca", "nmf"):
            configs[f"{method}.json"] = {
                "method": method,
                "num_filters": self.w.filters,
                "train_data": str(data / "train.hypc"),
                "apply": [str(data / "val.hypc")],
                "target_samples": self.w.reduce_samples,
                "seed": 0,
            }
        for name, content in configs.items():
            (self.work / name).write_text(json.dumps(content))

    # -- body --------------------------------------------------------------
    def body(self) -> Rep:
        """One repetition. Raises only on a failure that leaves nothing to continue with."""
        rep = Rep()
        start = time.perf_counter()
        if self.w.cli:
            self._cli_body(rep)
        else:
            self._api_body(rep)
        self._io_round_trips(rep)
        rep.run_s = time.perf_counter() - start
        # Every repetition writes fresh files, so no timed write pays for
        # truncating the previous repetition's file.
        for name in ("data", "run", "pca", "nmf", "roundtrip"):
            shutil.rmtree(self.work / name, ignore_errors=True)
        return rep

    def _read(self, path: Path, expected, rates: list[float] | None = None) -> tuple:
        t = time.perf_counter()
        cube, labels = cubeio.read_cube(path)
        if rates is not None:
            rates.append(_file_mb(path) / (time.perf_counter() - t))
        data, values = expected
        self.ops.check(
            np.array_equal(cube.data, data) and labels is not None and np.array_equal(labels.values, values),
            f"{path.name} does not read back as written",
        )
        return cube, labels

    def _api_body(self, rep: Rep) -> None:
        train_cube, train_labels = self._read(self.work / "train.hypc", self.expected["train"])
        val_cube, val_labels = self._read(self.work / "val.hypc", self.expected["val"])

        t = time.perf_counter()
        report = training.train(
            (train_cube, train_labels.values),
            (val_cube, val_labels.values),
            self.w.filters,
            spec.PEAKS,
            self._config(self.w.epochs),
            num_classes=spec.NUM_CLASSES,
        )
        rep.train_s = time.perf_counter() - t
        self._check_training(len(report.records), report.best_val_miou, rep)

        for _ in range(self.w.predict_repeats):
            t = time.perf_counter()
            labels = training.predict(report, val_cube)
            rep.predict_s.append(time.perf_counter() - t)
            if self.first_prediction is None:
                self.first_prediction = labels
            self.ops.check(np.array_equal(labels, self.first_prediction), "predict is not repeatable")

    def _cli(self, argv: list[str]) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli(argv)
        return self.ops.check(code == 0, f"qefilters {argv[0]} exited {code}")

    def _cli_body(self, rep: Rep) -> None:
        data = self.work / "data"
        if not self._cli(["gen-synth", "--config", str(self.work / "gen.json"), "--out", str(data)]):
            raise StepFailed("gen-synth")
        self._read(data / "train.hypc", self.expected["train"])
        self._read(data / "val.hypc", self.expected["val"])

        t = time.perf_counter()
        trained = self._cli(["train", "--config", str(self.work / "train.json"), "--out", str(self.work / "run")])
        rep.train_s = time.perf_counter() - t
        if not trained:
            raise StepFailed("train")
        report = json.loads((self.work / "run" / "report.json").read_text())
        self._check_training(report["epochs_run"], report["best_val_miou"], rep)

        t = time.perf_counter()
        for method in ("pca", "nmf"):
            self._cli(["reduce", "--config", str(self.work / f"{method}.json"), "--out", str(self.work / method)])
        rep.reduce_s = time.perf_counter() - t
        val_data, val_labels = self.expected["val"]
        for method in ("pca", "nmf"):
            expected = _reduce_reference(self.work / method / "pipeline.json", val_data)
            self._read(self.work / method / "val.reduced.hypc", (expected, val_labels))

    def _check_training(self, epochs: int, val_miou: float, rep: Rep) -> None:
        rep.val_miou = val_miou
        if self.first_val_miou is None:
            self.first_val_miou = val_miou
        problems = []
        if epochs != self.w.epochs:
            problems.append(f"trained {epochs} epochs, expected {self.w.epochs}")
        if val_miou < self.w.miou_floor:
            problems.append(f"val mIoU {val_miou:.2f} below the floor {self.w.miou_floor}")
        if val_miou != self.first_val_miou:
            problems.append("val mIoU differs between repetitions")
        self.ops.check(not problems, "; ".join(problems))

    def _io_round_trips(self, rep: Rep) -> None:
        folder = self.work / "roundtrip"
        folder.mkdir()
        labels = cubeio.LabelMap(self.expected["val"][1], spec.NUM_CLASSES)
        for i in range(self.w.io_repeats):
            path = folder / f"val{i}.hypc"
            t = time.perf_counter()
            cubeio.write_cube(self.val_cube, labels, path)
            rep.write_mb_s.append(_file_mb(path) / (time.perf_counter() - t))
            self._read(path, self.expected["val"], rep.read_mb_s)

    def fail(self, exc: BaseException) -> None:
        """Record an operation that raised, with its traceback."""
        self.ops.attempted += 1
        self.ops.failed += 1
        self.ops.errors.append("".join(traceback.format_exception(exc)).rstrip())
