"""What the benchmark runs and reports: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json``; ``definition()``
returns its content and a test keeps the committed file equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30
PATHS = ["bench"]
COMMAND = ["python3", "bench/run.py"]

# The process-wide BLAS/OpenMP thread count, set before numpy loads. One
# thread keeps timings steady on a small shared machine and matches the
# package's single-threaded design.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# Settings that every workload shares. The synthetic scene has five classes
# over the HSI-Drive range: a broad base, the base plus a narrow bump at 25%
# or 75% of the range, and a bright and a dark broad spectrum. Classes 0 and 1
# are the metameric pair that differs only at the planted 25% band.
START_NM, END_NM = 600.0, 975.0
_SPAN = END_NM - START_NM
_BASE = ((START_NM + 0.5 * _SPAN, 0.75 * _SPAN, 0.3),)  # (center, width, height)
_BUMP = 0.12 * _SPAN
CLASS_BUMPS = (
    _BASE,
    _BASE + ((START_NM + 0.25 * _SPAN, _BUMP, 0.4),),
    _BASE + ((START_NM + 0.75 * _SPAN, _BUMP, 0.4),),
    ((START_NM + 0.5 * _SPAN, 0.75 * _SPAN, 0.8),),
    ((START_NM + 0.5 * _SPAN, 0.75 * _SPAN, 0.05),),
)
NUM_CLASSES = len(CLASS_BUMPS)
PLANTED_NM = (START_NM + 0.25 * _SPAN,)
NOISE_SIGMA = 0.05
BLOBS = 8
PEAKS = 2
D_MIN = 0.1


@dataclass(frozen=True)
class Workload:
    """One input set. Sizes are fixed so that every commit does identical work."""

    name: str
    why: str
    cli: bool  # run through ``qefilters.cli.cli`` instead of the Python API
    channels: int
    size: int  # image height and width
    train_images: int
    val_images: int
    filters: int
    head: str
    learning_rate: float
    epochs: int  # patience equals epochs, so training never stops early
    # Single-class prediction scores about 100/K; a floor well above it
    # rejects a fast but wrong change.
    miou_floor: float
    predict_repeats: int
    io_repeats: int
    reduce_samples: int = 0  # pixels sampled to fit PCA and NMF (CLI workload only)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hsidrive-train",
            why=(
                "HSI-Drive-like deployment shape (25 ch, 256x256, K=5, F=3, linear head): "
                "few channels and big batches, so the per-pixel loss dominates a step"
            ),
            cli=False,
            channels=25,
            size=256,
            train_images=8,
            val_images=4,
            filters=3,
            head="linear",
            learning_rate=0.1,
            epochs=6,
            miou_floor=40.0,
            predict_repeats=5,
            io_repeats=3,
        ),
        Workload(
            name="wide-train",
            why=(
                "128 channels at 64x64, F=8, MLP head: the spectral contractions "
                "(apply_filter_bank, backward) do most of a step; the only run of the MLP head"
            ),
            cli=False,
            channels=128,
            size=64,
            train_images=8,
            val_images=4,
            filters=8,
            head="mlp",
            # The MLP head diverges at 0.1 and needs more steps than the
            # linear head to clear the floor on every seed.
            learning_rate=0.02,
            epochs=16,
            miou_floor=40.0,
            predict_repeats=5,
            io_repeats=3,
        ),
        Workload(
            name="cli-pipeline",
            why=(
                "the CLI chain gen-synth, train, reduce pca, reduce nmf on the HSI-Drive-like "
                "shape: the only run of cli, classical and the CLI artifacts"
            ),
            cli=True,
            channels=25,
            size=256,
            train_images=8,
            val_images=4,
            filters=3,
            head="linear",
            learning_rate=0.1,
            epochs=6,
            miou_floor=40.0,
            predict_repeats=0,
            io_repeats=3,
            reduce_samples=5000,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of the median
    # Per-layer only: the end-to-end metrics this layer should move, and the
    # workloads where it does most and least of the work.
    moves: tuple[str, ...] = ()
    most: str = ""
    least: str = ""


# Timings on a small shared machine swing by up to 25% within minutes; the
# spread of ten runs reached 8-15% on the training workloads. The time and
# rate bounds therefore sit at the largest allowed share. Peak memory barely
# moves within a set of runs, but numpy asks for transparent huge pages, and
# between two sets of ten wide-train runs it shifted by 3.5% (215 to 223 MB)
# with the same code, so its bound leaves room for that.
END_TO_END = (
    Metric("run_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("train_mpix_s", "Mpx/s", "higher", 0.25),
    Metric("hypc_read_mb_s", "MB/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

# Printed by every run next to the end-to-end metrics, but not in
# BENCHMARK.json: each exists on only some workloads (predict, reduce), is a
# correctness guard that varies with the seed (val_miou), is zero on a healthy
# run (ops_failed_frac, carried by the result's failed/attempted), or follows
# the file system more than the package (hypc_write_mb_s: over ten seeds on
# wide-train's 8.4 MB cube it split into runs near 480 and near 900 MB/s,
# a spread of 0.57 of the median, because the kernel's write of a fresh 8.4 MB
# file took 3.4 ms in some processes and 10-12 ms in others; cubeio.write_cube.ms
# carries the writer's own cost).
REPORTED_ONLY = (
    Metric("hypc_write_mb_s", "MB/s", "higher"),
    Metric("predict_mpix_s", "Mpx/s", "higher"),
    Metric("reduce_s", "s", "lower"),
    Metric("val_miou", "%", "higher"),
    Metric("ops_failed_frac", "ratio", "lower"),
)

_H, _W, _C = "hsidrive-train", "wide-train", "cli-pipeline"
_TRAIN = ("train_mpix_s",)
_TRAIN_PREDICT = ("train_mpix_s", "predict_mpix_s")
_RUN_TRAIN = ("run_s", "train_mpix_s")
_REDUCE = ("reduce_s", "run_s")


def _layer(name, unit, better, moves, most, least):
    return Metric(name, unit, better, moves=moves, most=most, least=least)


# ``most`` and ``least`` are the workloads where the layer's self time is the
# largest and smallest share of a body repetition, as measured in traced runs.
PER_LAYER = (
    _layer("training.seg_loss.ms", "ms", "lower", _TRAIN, _H, _W),
    _layer("training.weighted_cross_entropy.ms", "ms", "lower", _TRAIN, _H, _W),
    _layer("training.soft_dice.ms", "ms", "lower", _TRAIN, _H, _W),
    _layer("projection.backward.ms", "ms", "lower", _TRAIN, _W, _C),
    _layer("projection.backward.calls", "count", "lower", _TRAIN, _W, _C),
    _layer("projection.backward.gb_s", "GB/s", "higher", _TRAIN, _W, _C),
    _layer("projection.backward.roofline_frac", "ratio", "higher", _TRAIN, _W, _C),
    _layer("projection.apply_filter_bank.ms", "ms", "lower", _TRAIN_PREDICT, _W, _C),
    _layer("projection.apply_filter_bank.calls", "count", "lower", _TRAIN_PREDICT, _W, _C),
    _layer("projection.apply_filter_bank.gb_s", "GB/s", "higher", _TRAIN_PREDICT, _W, _C),
    _layer("projection.apply_filter_bank.roofline_frac", "ratio", "higher", _TRAIN_PREDICT, _W, _C),
    _layer("training.head.forward.ms", "ms", "lower", _TRAIN_PREDICT, _H, _C),
    _layer("training.head.backward.ms", "ms", "lower", _TRAIN_PREDICT, _H, _C),
    _layer("projection.Hypercube.ms", "ms", "lower", _TRAIN, _C, _W),
    _layer("projection.Hypercube.calls", "count", "lower", _TRAIN, _C, _W),
    _layer("filterbank.evaluate_filter_bank.ms", "ms", "lower", _RUN_TRAIN, _W, _C),
    _layer("filterbank.evaluate_filter_bank.calls", "count", "lower", _RUN_TRAIN, _W, _C),
    _layer("filterbank.evaluate_filter_bank.useful_frac", "ratio", "higher", _RUN_TRAIN, _W, _C),
    _layer("regularization.total_reg.ms", "ms", "lower", _RUN_TRAIN, _W, _C),
    _layer("regularization.total_reg.calls", "count", "lower", _RUN_TRAIN, _W, _C),
    _layer("training.AdamW.step.ms", "ms", "lower", _RUN_TRAIN, _W, _C),
    _layer("training.AdamW.step.calls", "count", "lower", _RUN_TRAIN, _W, _C),
    _layer("metrics.ConfusionMatrix.accumulate.ms", "ms", "lower", _TRAIN, _H, _W),
    _layer("metrics.compute_metrics.ms", "ms", "lower", _TRAIN, _W, _C),
    _layer("training.predict.ms", "ms", "lower", ("predict_mpix_s",), _H, _C),
    _layer("training.train.ms", "ms", "lower", _TRAIN, _H, _W),
    _layer("training.train.wall_ms", "ms", "lower", _TRAIN, _W, _C),
    _layer("training.train.epochs", "count", "lower", _TRAIN, _W, _C),
    _layer("training.train.steps", "count", "lower", _TRAIN, _W, _C),
    _layer("training.train.span_coverage", "ratio", "higher", (), _W, _C),
    _layer("training.train.val_miou", "%", "higher", (), _W, _C),
    _layer("cubeio.read_cube.ms", "ms", "lower", ("hypc_read_mb_s",), _C, _W),
    _layer("cubeio.write_cube.ms", "ms", "lower", ("hypc_write_mb_s", "run_s"), _C, _W),
    _layer("setup.cubeio.write_cube.ms", "ms", "lower", ("setup_s",), _H, _C),
    _layer("classical.stratified_sample.ms", "ms", "lower", _REDUCE, _C, _H),
    _layer("classical.fit_band_stats.ms", "ms", "lower", _REDUCE, _C, _H),
    _layer("classical.fit_pca.ms", "ms", "lower", _REDUCE, _C, _H),
    _layer("classical.fit_nmf.ms", "ms", "lower", _REDUCE, _C, _H),
    _layer("classical.fit_nmf.iterations", "count", "lower", _REDUCE, _C, _H),
    _layer("classical.project.ms", "ms", "lower", _REDUCE, _C, _H),
    _layer("synthetic.gen_synthetic.ms", "ms", "lower", ("run_s",), _C, _H),
    _layer("setup.synthetic.gen_synthetic.ms", "ms", "lower", ("setup_s",), _H, _W),
    _layer("cli.gen-synth.ms", "ms", "lower", ("run_s",), _C, _H),
    _layer("cli.train.ms", "ms", "lower", ("run_s",), _C, _H),
    _layer("cli.reduce.ms", "ms", "lower", ("run_s", "reduce_s"), _C, _H),
    _layer("machine.copy_gb_s", "GB/s", "higher", (), _H, _W),
    _layer("trace.overhead_frac", "ratio", "lower", (), _H, _W),
)


def definition() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
