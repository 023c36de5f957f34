"""Command-line interface.

Subcommands: gen-synth, train, reduce, eval, export-filters. Exit codes:
0 success, 1 usage error, 2 data/configuration error, 3 training divergence.
All artifacts land under --out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .classical import fit_reduction_pipeline, project
from .cubeio import read_cube, write_cube
from .errors import (
    ConfigurationError,
    DataError,
    QEFiltersError,
    TrainingDivergedError,
    config_value,
    config_values,
)
from .filterbank import (
    EPSILON,
    FilterBankParams,
    evaluate_filter_bank,
    normalize_wavelengths,
)
from .metrics import ConfusionMatrix, compute_metrics
from .projection import Hypercube
from .regularization import RegConfig
from .synthetic import gen_synthetic, spec_from_dict
from .training import TrainConfig, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def export_filters(
    params: FilterBankParams,
    channel_wavelengths_nm,
    path,
    grid: int | None = None,
) -> None:
    """Write normalized response curves as CSV.

    Columns are ``wavelength_nm,filter_1..filter_F``. With ``grid``, curves
    are evaluated on a dense grid of that many points across the bank's
    range, but normalization still divides by each filter's maximum over the
    dataset channels, which a leading comment row states.
    """
    channels = np.asarray(channel_wavelengths_nm, dtype=float)
    lam_channels = normalize_wavelengths(channels, params.range)
    reference = evaluate_filter_bank(params, lam_channels)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if grid is None:
        wavelengths = channels
        weights = reference.weights
    else:
        if grid < 2:
            raise ConfigurationError(f"grid must have at least 2 points, got {grid}")
        buf.write("# normalization uses the dataset-channel response maxima\n")
        wavelengths = np.linspace(params.range.start_nm, params.range.end_nm, grid)
        dense = evaluate_filter_bank(params, normalize_wavelengths(wavelengths, params.range))
        raw = dense.per_peak_responses.sum(axis=1)
        weights = raw / (reference.row_max + EPSILON)[:, None]
    writer.writerow(["wavelength_nm"] + [f"filter_{f + 1}" for f in range(params.num_filters)])
    for i, wl in enumerate(wavelengths):
        writer.writerow([repr(float(wl))] + [repr(float(weights[f, i])) for f in range(len(weights))])
    Path(path).write_text(buf.getvalue())


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gen_synth(args) -> int:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    counts = config_values(doc, {"images": int, "train_images": int, "val_images": int}, "gen-synth config")
    images = {"train": counts.get("train_images", counts.get("images", 4))}
    images["val"] = counts.get("val_images", max(1, images["train"] // 4))
    out = _out_dir(args.out)
    for subset_index, (name, count) in enumerate(images.items()):
        sub_doc = dict(doc)
        sub_doc["images"] = count
        sub_doc["subset"] = subset_index
        cube, labels = gen_synthetic(spec_from_dict(sub_doc))
        write_cube(cube, labels, out / f"{name}.hypc")
        print(f"wrote {out / (name + '.hypc')}")
    return 0


def _class_weights(value) -> str | tuple[float, ...]:
    return value if isinstance(value, str) else tuple(float(v) for v in value)


# Optional train-config keys and the types their values convert to; a key the
# document leaves out takes the TrainConfig or RegConfig default.
_TRAIN_KEYS = {
    "learning_rate": float,
    "max_epochs": int,
    "patience": int,
    "batch_size": int,
    "seed": int,
    "class_weights": _class_weights,
    "accumulate_steps": int,
    "head": str,
    "head_hidden": int,
    "head_weight_decay": float,
}
_REG_KEYS = {
    "r_max": float,
    "d_min": float,
    "beta_min": float,
    "beta_max": float,
    "lambda_reg": float,
    "enabled": tuple,
}


def _train_config_from(doc: dict, seed_override) -> TrainConfig:
    reg_doc = doc.get("reg", {})
    if not isinstance(reg_doc, dict):
        raise DataError(f"train config key 'reg' must be an object, got {reg_doc!r}")
    options = config_values(doc, _TRAIN_KEYS, "train config")
    if seed_override is not None:
        options["seed"] = seed_override
    return TrainConfig(reg=RegConfig(**config_values(reg_doc, _REG_KEYS, "train config 'reg'")), **options)


def _read_labeled(path):
    cube, labels = read_cube(path)
    if labels is None:
        raise DataError(f"{path} carries no label block")
    return cube, labels


def _cmd_train(args) -> int:
    doc = _load_json(args.config)
    train_path = config_value(doc, "train_data", str, "train config")
    val_path = config_value(doc, "val_data", str, "train config")
    num_filters = config_value(doc, "num_filters", int, "train config")
    peaks = config_value(doc, "peaks_per_filter", int, "train config")
    config = _train_config_from(doc, args.seed)
    train_cube, train_labels = _read_labeled(train_path)
    val_cube, val_labels = _read_labeled(val_path)
    num_classes = max(train_labels.num_classes, val_labels.num_classes)
    # The two files may mark unlabeled pixels differently; train takes one value.
    ignore = train_labels.ignore_value
    val_values = np.where(val_labels.values == val_labels.ignore_value, ignore, val_labels.values)

    report = train(
        (train_cube, train_labels.values),
        (val_cube, val_values),
        num_filters,
        peaks,
        config,
        num_classes=num_classes,
        ignore=ignore,
    )
    out = _out_dir(args.out)
    (out / "report.json").write_text(report.to_json())
    (out / "epochs.csv").write_text(report.epochs_csv())
    (out / "centroids.csv").write_text(report.centroids_csv())
    (out / "filters.json").write_text(report.params.to_json())
    print(
        f"best val mIoU {report.best_val_miou:.2f} at epoch {report.best_epoch} "
        f"({len(report.records)} epochs run)"
    )
    return 0


def _paths(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of file paths")
    return value


def _cmd_reduce(args) -> int:
    doc = _load_json(args.config)
    method = config_value(doc, "method", str, "reduce config")
    num_filters = config_value(doc, "num_filters", int, "reduce config")
    train_path = config_value(doc, "train_data", str, "reduce config")
    apply_paths = config_value(doc, "apply", _paths, "reduce config", default=[])
    options = config_values(doc, {"target_samples": int, "seed": int}, "reduce config")
    cube, labels = _read_labeled(train_path)
    pipeline = fit_reduction_pipeline(
        [(cube, labels.values)],
        method,
        num_filters,
        target_total=options.get("target_samples", 50_000),
        seed=args.seed if args.seed is not None else options.get("seed", 0),
        ignore=labels.ignore_value,
    )
    out = _out_dir(args.out)
    (out / "pipeline.json").write_text(pipeline.to_json())
    print(f"wrote {out / 'pipeline.json'}")
    for path in apply_paths:
        src_cube, src_labels = read_cube(path)
        reduced = project(src_cube, pipeline.stats, pipeline.projection)
        # Reduced channels have no physical wavelengths; store component indices.
        reduced_cube = Hypercube(reduced.data, np.arange(1.0, num_filters + 1.0))
        dest = out / (Path(path).stem + ".reduced.hypc")
        write_cube(reduced_cube, src_labels, dest)
        print(f"wrote {dest}")
    return 0


def _cmd_eval(args) -> int:
    pred_cube, pred_labels = _read_labeled(args.pred)
    truth_cube, truth_labels = _read_labeled(args.truth)
    if pred_labels.values.shape != truth_labels.values.shape:
        raise DataError(
            f"prediction labels {pred_labels.values.shape} do not match "
            f"truth {truth_labels.values.shape}"
        )
    num_classes = max(pred_labels.num_classes, truth_labels.num_classes)
    cm = ConfusionMatrix(num_classes).accumulate(
        pred_labels.values, truth_labels.values, truth_labels.ignore_value
    )
    report = compute_metrics(cm)
    print(report.format_table())
    print(json.dumps(report.to_dict(), indent=2))
    if args.out:
        out = _out_dir(args.out)
        (out / "metrics.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _cmd_export_filters(args) -> int:
    params = FilterBankParams.from_json_dict(_load_json(args.filters))
    if args.channels:
        cube, _ = read_cube(args.channels)
        channels = cube.wavelengths_nm
    else:
        channels = np.linspace(params.range.start_nm, params.range.end_nm, 64)
    out = _out_dir(args.out)
    export_filters(params, channels, out / "filters.csv", grid=args.grid)
    print(f"wrote {out / 'filters.csv'}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qefilters", description="Learnable spectral filter banks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic labeled dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="train a filter bank end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("reduce", help="fit and apply a classical reduction pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("eval", help="compare prediction labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-filters", help="export response curves as CSV")
    p.add_argument("--filters", required=True)
    p.add_argument("--grid", type=int)
    p.add_argument("--channels", help="cube file supplying the channel grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_filters)
    return parser


def cli(argv) -> int:
    """Run the CLI on an argument vector and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ConfigurationError, QEFiltersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
