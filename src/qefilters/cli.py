"""Command-line interface.

Run as the ``qefilters`` console script or as ``python -m qefilters.cli``;
the package does not import this module. Subcommands: gen-synth, train,
reduce, eval, export-filters. Each of gen-synth, train and reduce reads a
JSON config whose ``seed`` key is the one way to reseed it. Exit codes:
0 success, 1 usage error, 2 data/configuration error, 3 training divergence.
All artifacts land under --out, each written to a temp file beside it and
moved into place, so a failed write leaves an earlier file as it was.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
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
    check_keys,
    config_value,
    config_values,
)
from .filterbank import (
    EPSILON,
    FilterBankParams,
    evaluate_filter_bank,
    normalize_wavelengths,
)
from .metrics import IGNORE_LABEL, ConfusionMatrix, compute_metrics
from .projection import Hypercube
from .regularization import RegConfig
from .synthetic import SynthSpec, gen_synthetic, spec_from_dict
from .training import TrainConfig, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_atomic(path: Path, write) -> None:
    """``write(temp)`` on a temp file beside ``path``, then move it onto ``path``.

    If either raises, the temp file is removed and ``path`` keeps what it held.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(temp)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def export_filters(
    params: FilterBankParams,
    channel_wavelengths_nm,
    path,
    grid: int | None = None,
) -> None:
    """Write normalized response curves as CSV.

    Columns are ``wavelength_nm,filter_1..filter_F``. Curves are evaluated on
    the dataset channels or, with ``grid``, on a dense grid of that many
    points across the bank's range. Either way each filter is divided by its
    maximum over the dataset channels (plus ``EPSILON``), which a leading
    comment row states for the grid.
    """
    channels = np.asarray(channel_wavelengths_nm, dtype=float)
    reference = evaluate_filter_bank(params, normalize_wavelengths(channels, params.range))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    wavelengths = channels
    if grid is not None:
        if grid < 2:
            raise ConfigurationError(f"grid must have at least 2 points, got {grid}")
        buf.write("# normalization uses the dataset-channel response maxima\n")
        wavelengths = np.linspace(params.range.start_nm, params.range.end_nm, grid)
    curves = evaluate_filter_bank(params, normalize_wavelengths(wavelengths, params.range))
    weights = curves.per_peak_responses.sum(axis=1) / (reference.row_max + EPSILON)[:, None]
    writer.writerow(["wavelength_nm"] + [f"filter_{f + 1}" for f in range(params.num_filters)])
    for i, wl in enumerate(wavelengths):
        writer.writerow([repr(float(wl))] + [repr(float(weights[f, i])) for f in range(len(weights))])
    _write_atomic(Path(path), lambda temp: temp.write_text(buf.getvalue()))


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    except ValueError as exc:  # also a file that is not UTF-8, or an integer past Python's digit limit
        raise DataError(f"invalid JSON in {path}: {exc}") from exc


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config(doc, required: dict, optional: dict, where: str) -> tuple[list, dict]:
    """The ``required`` values in order and the ``optional`` ones ``doc`` sets, each converted by its kind."""
    check_keys(doc, [*required, *optional], where)
    values = [config_value(doc, key, kind, where) for key, kind in required.items()]
    return values, config_values(doc, optional, where)


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of strings")
    return tuple(value)


# The keys ``spec_from_dict`` reads, less "images" and "subset", which
# gen-synth sets per file from the counts below.
_SYNTH_SPEC_KEYS = ("classes", "wavelengths", "planted_centers_nm", "noise_sigma", "height", "width",
                    "blobs_per_image", "seed")
_SYNTH_COUNTS = {"train_images": int, "val_images": int}


def _synth_specs(doc) -> dict[str, SynthSpec]:
    """The specs of the ``train`` and ``val`` files a gen-synth config document describes."""
    check_keys(doc, [*_SYNTH_SPEC_KEYS, *_SYNTH_COUNTS], "gen-synth config")
    counts = config_values(doc, _SYNTH_COUNTS, "gen-synth config")
    images = {"train": counts.get("train_images", 4)}
    images["val"] = counts.get("val_images", max(1, images["train"] // 4))
    return {
        name: spec_from_dict(dict(doc, images=count, subset=subset))
        for subset, (name, count) in enumerate(images.items())
    }


def _cmd_gen_synth(args) -> int:
    specs = _synth_specs(_load_json(args.config))
    out = _out_dir(args.out)
    for name, spec in specs.items():
        cube, labels = gen_synthetic(spec)
        _write_atomic(out / f"{name}.hypc", lambda temp: write_cube(cube, labels, temp))
        print(f"wrote {out / (name + '.hypc')}")
    return 0


def _reg_config(doc) -> RegConfig:
    _, options = _read_config(doc, {}, _REG_KEYS, "train config 'reg'")
    return RegConfig(**options)


_TRAIN_REQUIRED = {"train_data": str, "val_data": str, "num_filters": int, "peaks_per_filter": int}
# Optional train-config keys and the functions their values convert with; a
# key the document leaves out takes the TrainConfig or RegConfig default.
_TRAIN_KEYS = {
    "learning_rate": float,
    "max_epochs": int,
    "patience": int,
    "batch_size": int,
    "seed": int,
    "head": str,
    "head_hidden": int,
    "reg": _reg_config,
}
_REG_KEYS = {
    "d_min": float,
    "lambda_reg": float,
    "enabled": _strings,
}


def _train_settings(doc) -> tuple[list, TrainConfig]:
    """The values of a train config document's required keys, in order, and its TrainConfig."""
    required, options = _read_config(doc, _TRAIN_REQUIRED, _TRAIN_KEYS, "train config")
    return required, TrainConfig(**options)


def _read_labeled(path) -> tuple[Hypercube, np.ndarray, int]:
    """A labelled cube file as (cube, labels, K), its own ignore value replaced by ``IGNORE_LABEL``."""
    cube, labels = read_cube(path)
    if labels is None:
        raise DataError(f"{path} carries no label block")
    values = labels.values  # parse_cube's own int64 array
    values[values == labels.ignore_value] = IGNORE_LABEL
    return cube, values, labels.num_classes


def _cmd_train(args) -> int:
    (train_path, val_path, num_filters, peaks), config = _train_settings(_load_json(args.config))
    train_cube, train_labels, train_classes = _read_labeled(train_path)
    val_cube, val_labels, val_classes = _read_labeled(val_path)
    report = train(
        (train_cube, train_labels),
        (val_cube, val_labels),
        num_filters,
        peaks,
        config,
        num_classes=max(train_classes, val_classes),
    )
    out = _out_dir(args.out)
    for name, text in (("report.json", report.to_json()), ("epochs.csv", report.epochs_csv()),
                       ("centroids.csv", report.centroids_csv()), ("filters.json", report.params.to_json())):
        _write_atomic(out / name, lambda temp: temp.write_text(text))
    print(
        f"best val mIoU {report.best_val_miou:.2f} at epoch {report.best_epoch} "
        f"({len(report.records)} epochs run)"
    )
    return 0


_REDUCE_REQUIRED = {"method": str, "num_filters": int, "train_data": str}
_REDUCE_KEYS = {"apply": _strings, "target_samples": int, "seed": int}


def _cmd_reduce(args) -> int:
    doc = _load_json(args.config)
    (method, num_filters, train_path), options = _read_config(doc, _REDUCE_REQUIRED, _REDUCE_KEYS, "reduce config")
    outputs = {}  # output file name -> the 'apply' entry it reduces
    for path in options.pop("apply", ()):
        name = Path(path).stem + ".reduced.hypc"
        if name in outputs:
            raise ConfigurationError(f"reduce config 'apply' entries {outputs[name]!r} and {path!r} both write {name}")
        outputs[name] = path
    cube, labels, _ = _read_labeled(train_path)
    # The keys the config sets; fit_reduction_pipeline holds the defaults of the rest.
    fitting = {"target_total" if key == "target_samples" else key: value for key, value in options.items()}
    pipeline = fit_reduction_pipeline([(cube, labels)], method, num_filters, **fitting)
    out = _out_dir(args.out)
    _write_atomic(out / "pipeline.json", lambda temp: temp.write_text(pipeline.to_json()))
    print(f"wrote {out / 'pipeline.json'}")
    for name, path in outputs.items():
        src_cube, src_labels = read_cube(path)
        reduced = project(src_cube, pipeline.stats, pipeline.projection)
        # Reduced channels have no physical wavelengths; store component indices.
        reduced_cube = Hypercube(reduced, np.arange(1.0, num_filters + 1.0))
        dest = out / name
        _write_atomic(dest, lambda temp: write_cube(reduced_cube, src_labels, temp))
        print(f"wrote {dest}")
    return 0


def _cmd_eval(args) -> int:
    # Predictions are compared as stored; only the truth marks unlabeled pixels.
    _, pred = read_cube(args.pred)
    if pred is None:
        raise DataError(f"{args.pred} carries no label block")
    _, truth, truth_classes = _read_labeled(args.truth)
    cm = ConfusionMatrix(max(pred.num_classes, truth_classes)).accumulate(pred.values, truth)
    report = compute_metrics(cm)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    print(report.format_table())
    print(text, end="")
    if args.out:
        _write_atomic(_out_dir(args.out) / "metrics.json", lambda temp: temp.write_text(text))
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
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="train a filter bank end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("reduce", help="fit and apply a classical reduction pipeline")
    p.add_argument("--config", required=True)
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
    except (QEFiltersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
