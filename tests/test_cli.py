import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qefilters import (
    FilterBankParams,
    LabelMap,
    WavelengthRange,
    evaluate_filter_bank,
    fit_reduction_pipeline,
    init_filter_bank,
    normalize_wavelengths,
    read_cube,
    write_cube,
)
import qefilters.cli
from qefilters.cli import _write_atomic, cli, export_filters

HYKO = WavelengthRange(470.0, 630.0)


def synth_config(tmp_path, noise=0.05, train_images=6, val_images=2, seed=11):
    doc = {
        "classes": [
            [{"center_nm": 550, "width_nm": 100, "height": 0.4}],
            [
                {"center_nm": 550, "width_nm": 100, "height": 0.4},
                {"center_nm": 510, "width_nm": 20, "height": 0.35},
            ],
        ],
        "planted_centers_nm": [510],
        "wavelengths": {"preset": "hyko"},
        "noise_sigma": noise,
        "train_images": train_images,
        "val_images": val_images,
        "height": 10,
        "width": 10,
        "blobs_per_image": 4,
        "seed": seed,
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    return path


def relabeled(src, dest, ignore, num_classes=None):
    """Copy a labelled file to ``dest`` with its first two rows unlabeled, marked ``ignore``."""
    cube, labels = read_cube(src)
    values = labels.values.copy()
    values[:, :2] = ignore
    write_cube(cube, LabelMap(values, num_classes or labels.num_classes, ignore), dest)
    return dest


class TestGenSynth:
    def test_writes_train_and_val(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        out = tmp_path / "data"
        assert cli(["gen-synth", "--config", str(config), "--out", str(out)]) == 0
        cube, labels = read_cube(out / "train.hypc")
        assert cube.dims == (6, 15, 10, 10)
        assert labels.num_classes == 2
        val_cube, _ = read_cube(out / "val.hypc")
        assert val_cube.dims[0] == 2


class TestTrainCommand:
    def test_artifacts_written(self, tmp_path):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        train_doc = {
            "train_data": str(data_dir / "train.hypc"),
            "val_data": str(data_dir / "val.hypc"),
            "num_filters": 1,
            "peaks_per_filter": 1,
            "learning_rate": 1e-2,
            "max_epochs": 6,
            "patience": 6,
            "batch_size": 4,
            "seed": 0,
        }
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps(train_doc))
        out = tmp_path / "run"
        assert cli(["train", "--config", str(train_path), "--out", str(out)]) == 0
        for name in ("report.json", "epochs.csv", "centroids.csv", "filters.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["epochs_run"] == 6
        bank = FilterBankParams.from_json_dict(json.loads((out / "filters.json").read_text()))
        assert bank.num_parameters == 4
        assert bank.to_json() == (out / "filters.json").read_text()
        # Both CSVs hold plain numbers: the epoch rows are the report's records.
        header, *rows = list(csv.reader(io.StringIO((out / "epochs.csv").read_text())))
        assert [dict(zip(header, [int(row[0]), *map(float, row[1:])])) for row in rows] == report["records"]
        header, *rows = list(csv.reader(io.StringIO((out / "centroids.csv").read_text())))
        assert header == ["epoch", "filter", "peak", "centroid"]
        assert [[*map(int, row[:3]), 0 <= float(row[3]) <= 1] for row in rows] == [[e, 0, 0, True] for e in range(1, 7)]

    def test_deterministic_outputs(self, tmp_path):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        train_doc = {
            "train_data": str(data_dir / "train.hypc"),
            "val_data": str(data_dir / "val.hypc"),
            "num_filters": 1,
            "peaks_per_filter": 1,
            "learning_rate": 1e-2,
            "max_epochs": 4,
            "patience": 4,
            "seed": 5,
        }
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps(train_doc))
        cli(["train", "--config", str(train_path), "--out", str(tmp_path / "r1")])
        cli(["train", "--config", str(train_path), "--out", str(tmp_path / "r2")])
        for name in ("report.json", "epochs.csv", "centroids.csv", "filters.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_val_file_with_its_own_ignore_value(self, tmp_path):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        val_cube, val_labels = read_cube(data_dir / "val.hypc")
        unlabeled = np.zeros(val_labels.values.shape, dtype=bool)
        unlabeled[:, :3] = True
        reports = []
        for ignore in (65535, 255):
            values = np.where(unlabeled, ignore, val_labels.values)
            val_path = tmp_path / f"val_{ignore}.hypc"
            write_cube(val_cube, LabelMap(values, val_labels.num_classes, ignore), val_path)
            train_doc = {
                "train_data": str(data_dir / "train.hypc"),
                "val_data": str(val_path),
                "num_filters": 1,
                "peaks_per_filter": 1,
                "learning_rate": 1e-2,
                "max_epochs": 4,
                "patience": 4,
                "seed": 5,
            }
            train_path = tmp_path / f"train_{ignore}.json"
            train_path.write_text(json.dumps(train_doc))
            out = tmp_path / f"r{ignore}"
            assert cli(["train", "--config", str(train_path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_ignore_value_inside_class_range(self, tmp_path):
        # Ignore value 2 with K = 3 marks the same pixels as 65535 does.
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        reports = []
        for ignore in (65535, 2):
            train_doc = {
                "train_data": str(relabeled(data_dir / "train.hypc", tmp_path / f"train_{ignore}.hypc", ignore, 3)),
                "val_data": str(relabeled(data_dir / "val.hypc", tmp_path / f"val_{ignore}.hypc", ignore, 3)),
                "num_filters": 1,
                "peaks_per_filter": 1,
                "learning_rate": 1e-2,
                "max_epochs": 4,
                "patience": 4,
                "seed": 5,
            }
            train_path = tmp_path / f"train_{ignore}.json"
            train_path.write_text(json.dumps(train_doc))
            out = tmp_path / f"r{ignore}"
            assert cli(["train", "--config", str(train_path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert json.loads(reports[0])["num_classes"] == 3
        assert reports[0] == reports[1]

    def test_divergence_exit_code(self, tmp_path):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        train_doc = {
            "train_data": str(data_dir / "train.hypc"),
            "val_data": str(data_dir / "val.hypc"),
            "num_filters": 1,
            "peaks_per_filter": 1,
            "learning_rate": 1e200,
            "max_epochs": 4,
            "patience": 4,
        }
        train_path = tmp_path / "diverge.json"
        train_path.write_text(json.dumps(train_doc))
        assert cli(["train", "--config", str(train_path), "--out", str(tmp_path / "d")]) == 3


class TestReduceCommand:
    def test_pipeline_and_reduced_cubes(self, tmp_path):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        reduce_doc = {
            "method": "pca",
            "num_filters": 2,
            "train_data": str(data_dir / "train.hypc"),
            "apply": [str(data_dir / "val.hypc")],
            "target_samples": 300,
        }
        reduce_path = tmp_path / "reduce.json"
        reduce_path.write_text(json.dumps(reduce_doc))
        out = tmp_path / "red"
        assert cli(["reduce", "--config", str(reduce_path), "--out", str(out)]) == 0
        assert (out / "pipeline.json").exists()
        reduced, labels = read_cube(out / "val.reduced.hypc")
        assert reduced.dims[1] == 2
        assert labels is not None

    @pytest.mark.parametrize("method", ["pca", "nmf"])
    def test_train_file_with_its_own_ignore_value(self, tmp_path, method):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        pipelines = []
        for ignore in (65535, 255):
            train_path = relabeled(data_dir / "train.hypc", tmp_path / f"train_{ignore}.hypc", ignore)
            doc = {"method": method, "num_filters": 2, "train_data": str(train_path), "target_samples": 300}
            path = tmp_path / f"reduce_{ignore}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"red_{ignore}"
            assert cli(["reduce", "--config", str(path), "--out", str(out)]) == 0
            pipelines.append((out / "pipeline.json").read_bytes())
        assert pipelines[0] == pipelines[1]

    @pytest.mark.parametrize("method", ["pca", "nmf"])
    def test_unset_keys_take_the_library_defaults(self, tmp_path, method):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        doc = {"method": method, "num_filters": 2, "train_data": str(data_dir / "train.hypc")}
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "red"
        assert cli(["reduce", "--config", str(path), "--out", str(out)]) == 0
        cube, labels = read_cube(data_dir / "train.hypc")
        direct = fit_reduction_pipeline([(cube, labels.values)], method, 2)
        assert (out / "pipeline.json").read_bytes() == direct.to_json().encode()

    @pytest.mark.parametrize("method", ["pca", "nmf"])
    def test_fewer_than_one_component_writes_nothing(self, tmp_path, capsys, method):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        doc = {"method": method, "num_filters": -1, "train_data": str(data_dir / "train.hypc")}
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "red"
        assert cli(["reduce", "--config", str(path), "--out", str(out)]) == 2
        assert "num_components" in capsys.readouterr().err
        assert not (out / "pipeline.json").exists()

    def test_apply_entries_of_one_output_name_write_nothing(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        sources = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            sources.append(tmp_path / name / "x.hypc")
            sources[-1].write_bytes((data_dir / "val.hypc").read_bytes())
        doc = {"method": "pca", "num_filters": 2, "train_data": str(data_dir / "train.hypc"),
               "apply": [str(path) for path in sources]}
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "red"
        assert cli(["reduce", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(sources[0]) in err and str(sources[1]) in err
        assert not out.exists()


class TestEvalCommand:
    def test_identical_labels_print_100(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        capsys.readouterr()
        code = cli(
            [
                "eval",
                "--pred", str(data_dir / "val.hypc"),
                "--truth", str(data_dir / "val.hypc"),
                "--out", str(tmp_path / "m"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mIoU" in out and "100.00" in out
        metrics = json.loads((tmp_path / "m" / "metrics.json").read_text())
        assert metrics["miou"] == pytest.approx(100.0)

    def test_truth_file_with_its_own_ignore_value(self, tmp_path):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        # Predictions that are wrong on a labelled row, so the metrics depend on the mask.
        cube, labels = read_cube(data_dir / "val.hypc")
        pred = labels.values.copy()
        pred[:, 2] = 1 - pred[:, 2]
        write_cube(cube, LabelMap(pred, labels.num_classes), tmp_path / "pred.hypc")
        metrics = []
        for ignore in (65535, 255):
            truth = relabeled(data_dir / "val.hypc", tmp_path / f"truth_{ignore}.hypc", ignore)
            out = tmp_path / f"m_{ignore}"
            code = cli(["eval", "--pred", str(tmp_path / "pred.hypc"), "--truth", str(truth), "--out", str(out)])
            assert code == 0
            metrics.append((out / "metrics.json").read_bytes())
        assert metrics[0] == metrics[1]
        assert json.loads(metrics[0])["miou"] < 100.0


class TestExportFilters:
    def test_header_and_consistency(self, tmp_path):
        bank = init_filter_bank(2, 1, HYKO, seed=4)
        wl = np.linspace(470.0, 630.0, 15)
        path = tmp_path / "curves.csv"
        export_filters(bank, wl, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "wavelength_nm,filter_1,filter_2"
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        resp = evaluate_filter_bank(bank, normalize_wavelengths(wl, HYKO))
        for i, row in enumerate(rows):
            assert float(row[0]) == pytest.approx(wl[i])
            assert float(row[1]) == pytest.approx(resp.weights[0, i], rel=1e-15)
            assert float(row[2]) == pytest.approx(resp.weights[1, i], rel=1e-15)

    def test_single_peak_max_near_centroid(self, tmp_path):
        table = np.array([[[0.5, np.log(0.08), 0.4, 0.0]]])
        bank = FilterBankParams(table, HYKO)
        wl = np.linspace(470.0, 630.0, 33)
        path = tmp_path / "one.csv"
        export_filters(bank, wl, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        values = np.array([float(r[1]) for r in rows])
        centers = np.array([float(r[0]) for r in rows])
        assert centers[np.argmax(values)] == pytest.approx(550.0, abs=160 / 32)

    def test_dense_grid_normalizes_against_channels(self, tmp_path):
        table = np.array([[[0.5, np.log(0.05), 0.0, 0.0]]])
        bank = FilterBankParams(table, HYKO)
        # channel grid that misses the centroid: channel max < dense max
        wl = np.array([470.0, 500.0, 560.0, 630.0])
        path = tmp_path / "dense.csv"
        export_filters(bank, wl, path, grid=101)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "wavelength_nm,filter_1"
        values = np.array([float(line.split(",")[1]) for line in lines[2:]])
        assert values.max() > 1.0  # dense peak exceeds the channel-based maximum

    def test_cli_export(self, tmp_path):
        bank = init_filter_bank(3, 2, HYKO, seed=6)
        filters_path = tmp_path / "filters.json"
        filters_path.write_text(bank.to_json())
        out = tmp_path / "exp"
        code = cli(["export-filters", "--filters", str(filters_path), "--out", str(out)])
        assert code == 0
        header = (out / "filters.csv").read_text().splitlines()[0]
        assert header == "wavelength_nm,filter_1,filter_2,filter_3"


class TestAtomicArtifacts:
    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("earlier")

        def write(temp):
            temp.write_text("part")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_atomic(target, write)
        assert target.read_text() == "earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        _write_atomic(target, lambda temp: temp.write_text("later"))
        assert target.read_text() == "later"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_gen_synth_failing_mid_file_keeps_the_earlier_cubes(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "data"
        assert cli(["gen-synth", "--config", str(synth_config(tmp_path)), "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing(cube, labels, path):
            Path(path).write_bytes(b"HYPC")
            raise OSError("disk full")

        monkeypatch.setattr(qefilters.cli, "write_cube", failing)
        assert cli(["gen-synth", "--config", str(synth_config(tmp_path, seed=12)), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert cli(["eval", "--bogus", "x"]) == 1
        # A config's ``seed`` key is the one way to reseed a command.
        for command in ("gen-synth", "train", "reduce"):
            assert cli([command, "--config", "c.json", "--seed", "3", "--out", "out"]) == 1
            assert "--seed" in capsys.readouterr().err

    def test_module_entry_point_runs_without_warnings(self):
        # The package does not import its CLI, so runpy finds no copy of it loaded before it runs.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "qefilters.cli", "--help"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "gen-synth" in done.stdout

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli(["eval", "--pred", str(tmp_path / "no.hypc"), "--truth", str(tmp_path / "no.hypc")]) == 2

    def test_corrupt_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hypc"
        bad.write_bytes(b"XYZW" + b"\x00" * 40)
        assert cli(["eval", "--pred", str(bad), "--truth", str(bad)]) == 2

    def test_gen_synth_config_value_of_wrong_type(self, tmp_path, capsys):
        doc = json.loads(synth_config(tmp_path).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, train_images="x")))
        assert cli(["gen-synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
        assert "train_images" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [
            pytest.param({"noise_sigma": "x"}, "noise_sigma", id="noise_sigma"),
            pytest.param({"wavelengths": {"start_nm": 470, "end_nm": "far", "channels": 15}}, "end_nm",
                         id="wavelengths.end_nm"),
            pytest.param({"blobs_per_image": [4]}, "blobs_per_image", id="blobs_per_image"),
            pytest.param({"train_images": 4.8}, "train_images", id="train_images-float"),
            pytest.param({"height": 12.5}, "height", id="height-float"),
            pytest.param({"wavelengths": {"start_nm": 470, "end_nm": 630, "channels": 15.0}}, "channels",
                         id="wavelengths.channels-float"),
            pytest.param({"noise_sigma": True}, "noise_sigma", id="noise_sigma-bool"),
            pytest.param({"seed": "3"}, "seed", id="seed-string"),
            pytest.param({"planted_centers_nm": ["510"]}, "planted_centers_nm", id="planted_centers_nm-string"),
            pytest.param({"planted_centers_nm": [510, True]}, "planted_centers_nm", id="planted_centers_nm-bool"),
            pytest.param({"wavelengths": [470, "480", 630]}, "wavelengths", id="wavelengths-list-string"),
            pytest.param({"wavelengths": [True, 480, 630]}, "wavelengths", id="wavelengths-list-bool"),
        ],
    )
    def test_gen_synth_spec_value_of_wrong_type(self, tmp_path, capsys, setting, key):
        doc = json.loads(synth_config(tmp_path).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, **setting)))
        assert cli(["gen-synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [
            pytest.param({"learning_rate": "fast"}, "learning_rate", id="learning_rate"),
            pytest.param({"num_filters": "two"}, "num_filters", id="num_filters"),
            pytest.param({"reg": {"enabled": 5}}, "enabled", id="reg.enabled"),
            pytest.param({"reg": {"enabled": "dominance"}}, "enabled", id="reg.enabled-string"),
            pytest.param({"class_weights": "uniform"}, "class_weights", id="class_weights"),
            pytest.param({"num_filters": 2.9}, "num_filters", id="num_filters-float"),
            pytest.param({"peaks_per_filter": 1.5}, "peaks_per_filter", id="peaks_per_filter-float"),
            pytest.param({"max_epochs": 2.7}, "max_epochs", id="max_epochs-float"),
            pytest.param({"seed": 3.9}, "seed", id="seed-float"),
            pytest.param({"batch_size": True}, "batch_size", id="batch_size-bool"),
            pytest.param({"learning_rate": True}, "learning_rate", id="learning_rate-bool"),
            pytest.param({"learning_rate": "0.1"}, "learning_rate", id="learning_rate-numeric-string"),
            pytest.param({"learning_rate": 10**400}, "learning_rate", id="learning_rate-integer-past-float"),
            pytest.param({"train_data": 5}, "train_data", id="train_data-number"),
            pytest.param({"reg": {"d_min": False}}, "d_min", id="reg.d_min-bool"),
        ],
    )
    def test_train_config_value_of_wrong_type(self, tmp_path, capsys, setting, key):
        assert self._train_with(tmp_path, capsys, setting) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [
            pytest.param({"learning_rate": float("nan")}, "learning_rate", id="learning_rate-nan"),
            pytest.param({"head": "mlp", "head_hidden": 0}, "head_hidden", id="head_hidden-0"),
            pytest.param({"class_weights": [float("nan"), 1.0]}, "class_weights", id="class_weights-nan"),
        ],
    )
    def test_train_config_value_out_of_range(self, tmp_path, capsys, setting, key):
        # json reads NaN; the config must reject it before training diverges.
        assert self._train_with(tmp_path, capsys, setting) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [
            pytest.param({"lerning_rate": 5.0}, "lerning_rate", id="top-level"),
            pytest.param({"reg": {"d_min": 0.1, "epsilon": 1e-6}}, "epsilon", id="reg"),
            pytest.param({"accumulate_steps": 1}, "accumulate_steps", id="removed-accumulate_steps"),
            pytest.param({"reg": {"beta_max": 0.25}}, "beta_max", id="removed-reg.beta_max"),
        ],
    )
    def test_train_config_unknown_key(self, tmp_path, capsys, setting, key):
        assert self._train_with(tmp_path, capsys, setting) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _train_with(tmp_path, capsys, setting) -> int:
        """Exit code of ``train`` on a small valid config updated by ``setting``."""
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        doc = {
            "train_data": str(data_dir / "train.hypc"),
            "val_data": str(data_dir / "val.hypc"),
            "num_filters": 1,
            "peaks_per_filter": 1,
            "max_epochs": 2,
            "patience": 2,
        }
        path = tmp_path / "train.json"
        path.write_text(json.dumps(dict(doc, **setting)))
        capsys.readouterr()
        return cli(["train", "--config", str(path), "--out", str(tmp_path / "run")])

    def test_reduce_config_value_of_wrong_type(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        doc = {"method": "pca", "num_filters": "x", "train_data": str(data_dir / "train.hypc")}
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(doc))
        assert cli(["reduce", "--config", str(path), "--out", str(tmp_path / "red")]) == 2
        assert "num_filters" in capsys.readouterr().err

    def test_reduce_config_unknown_key(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        doc = {"method": "pca", "num_filters": 2, "train_data": str(data_dir / "train.hypc"), "target_sample": 300}
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "red"
        assert cli(["reduce", "--config", str(path), "--out", str(out)]) == 2
        assert "'target_sample'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, key",
        [
            pytest.param({"noise": 0.1}, "noise", id="top-level"),
            pytest.param({"images": 4}, "images", id="images"),
            pytest.param({"wavelengths": {"preset": "hyko", "channels": 40}}, "channels", id="wavelengths.preset"),
            pytest.param({"wavelengths": {"start_nm": 470, "end_nm": 630, "channels": 15, "step": 2}}, "step",
                         id="wavelengths.grid"),
            pytest.param({"classes": [[{"center_nm": 550, "width_nm": 100, "height": 0.4}],
                                      [{"center_nm": 550, "width_nm": 100, "height": 0.4, "heigth": 0.3}]]},
                         "heigth", id="classes.bump"),
        ],
    )
    def test_gen_synth_config_unknown_key(self, tmp_path, capsys, setting, key):
        doc = json.loads(synth_config(tmp_path).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, **setting)))
        out = tmp_path / "data"
        assert cli(["gen-synth", "--config", str(path), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, "val.hypc", ["val.hypc", 3]], ids=["number", "string", "mixed-list"])
    def test_reduce_apply_of_wrong_type_writes_nothing(self, tmp_path, capsys, value):
        config = synth_config(tmp_path)
        data_dir = tmp_path / "data"
        cli(["gen-synth", "--config", str(config), "--out", str(data_dir)])
        doc = {"method": "pca", "num_filters": 2, "train_data": str(data_dir / "train.hypc"), "apply": value}
        path = tmp_path / "reduce.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "red"
        assert cli(["reduce", "--config", str(path), "--out", str(out)]) == 2
        assert "'apply'" in capsys.readouterr().err
        assert not out.exists()

    def test_export_filters_of_a_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "filters.json"
        path.write_text("{not json")
        assert cli(["export-filters", "--filters", str(path), "--out", str(tmp_path / "exp")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b'{"range": ' + b"1" * 5000 + b"}"], ids=["not-utf8", "integer-past-digit-limit"]
    )
    def test_config_file_that_json_cannot_read(self, tmp_path, capsys, content):
        path = tmp_path / "synth.json"
        path.write_bytes(content)
        assert cli(["gen-synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda doc: doc.update(note=1), "'note'", id="top-level-unknown"),
            pytest.param(lambda doc: doc.pop("range"), "'range'", id="range-missing"),
            pytest.param(lambda doc: doc["range"].update(end_nm="630"), "'end_nm'", id="range-numeric-string"),
            pytest.param(lambda doc: doc["range"].update(start_nm=True), "'start_nm'", id="range-bool"),
            pytest.param(lambda doc: doc["range"].update(end_nm=float("inf")), "'end_nm'", id="range-infinity"),
            pytest.param(lambda doc: doc["range"].update(end_nm=10**400), "'end_nm'", id="range-integer-past-float"),
            pytest.param(lambda doc: doc["range"].update(center_nm=550), "'center_nm'", id="range-unknown"),
            pytest.param(lambda doc: doc["filters"][0][0].update(c="0.5"), "'c'", id="peak-numeric-string"),
            pytest.param(lambda doc: doc["filters"][0][1].update(alpha=True), "'alpha'", id="peak-bool"),
            pytest.param(lambda doc: doc["filters"][1][0].update(gamma=float("nan")), "'gamma'", id="peak-nan"),
            pytest.param(lambda doc: doc["filters"][1][0].update(gama=2), "'gama'", id="peak-unknown"),
            pytest.param(lambda doc: doc["filters"][1][1].pop("log_bw"), "'log_bw'", id="peak-missing"),
            pytest.param(lambda doc: doc["filters"][1].pop(), "'filters'", id="ragged"),
            pytest.param(lambda doc: doc.update(filters=[]), "'filters'", id="no-filters"),
            pytest.param(lambda doc: doc.update(filters=[[1.0, 2.0, 3.0, 4.0]]), "peak [0][0]", id="peak-not-object"),
        ],
    )
    def test_export_filters_of_a_bad_value(self, tmp_path, capsys, edit, named):
        doc = json.loads(init_filter_bank(2, 2, HYKO, seed=6).to_json())
        edit(doc)
        path = tmp_path / "filters.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "exp"
        assert cli(["export-filters", "--filters", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
