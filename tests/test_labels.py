"""The one label rule (``metrics._check_labels``) at every entry that takes labels.

A label map has the (B, H, W) of the batch it labels. A label is an integer;
``IGNORE_LABEL`` marks an unlabelled pixel; any other label lies in [0, K),
or in [0, IGNORE_LABEL) when K is not given. Every entry rejects a label
that breaks the rule with a ``DataError`` naming the value as given, and a
map of another shape with one naming both shapes, before it casts the labels
or infers K from them.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qefilters import ConfusionMatrix, DataError, Hypercube, TrainConfig, train, write_cube
from qefilters.classical import stratified_sample
from qefilters.cli import cli
from qefilters.cubeio import LabelMap, serialize_cube
from qefilters.metrics import IGNORE_LABEL
from qefilters.training import inverse_frequency_weights, seg_loss

K = 3
SHAPE = (2, 3, 4)  # (B, H, W)
BAD_AT = (1, 2, 3)
CONFIG = TrainConfig(learning_rate=1e-2, max_epochs=1, patience=1, batch_size=2, seed=0)


def make_cube(shape=SHAPE):
    """A 4-channel cube whose label maps have the (B, H, W) ``shape``."""
    data = np.random.default_rng(1).random((shape[0], 4) + shape[1:])
    return Hypercube(data, np.linspace(470.0, 630.0, 4))


def valid_labels():
    labels = np.random.default_rng(0).integers(0, K, SHAPE)
    labels[0, 0, 1] = IGNORE_LABEL
    return labels


# Each entry takes the label map under test and a file path for the writer;
# the entries given K first.
ENTRIES_WITH_K = {
    "seg_loss": lambda labels, path: seg_loss(np.zeros((SHAPE[0], K) + SHAPE[1:]), labels, np.ones(K)),
    "inverse_frequency_weights": lambda labels, path: inverse_frequency_weights(labels, K),
    "train-K-train-split": lambda labels, path: train(
        (make_cube(), labels), (make_cube(), valid_labels()), 1, 1, CONFIG, num_classes=K),
    "train-K-val-split": lambda labels, path: train(
        (make_cube(), valid_labels()), (make_cube(), labels), 1, 1, CONFIG, num_classes=K),
    "accumulate-truth": lambda labels, path: ConfusionMatrix(K).accumulate(valid_labels() % IGNORE_LABEL, labels),
    "accumulate-prediction": lambda labels, path: ConfusionMatrix(K).accumulate(labels, valid_labels()),
    "serialize_cube": lambda labels, path: serialize_cube(make_cube(), LabelMap(labels, K)),
    "write_cube": lambda labels, path: write_cube(make_cube(), LabelMap(labels, K), path),
}
ENTRIES_INFERRING_K = {
    "train-train-split": lambda labels, path: train(
        (make_cube(), labels), (make_cube(), valid_labels()), 1, 1, CONFIG),
    "train-val-split": lambda labels, path: train(
        (make_cube(), valid_labels()), (make_cube(), labels), 1, 1, CONFIG),
    "stratified_sample": lambda labels, path: stratified_sample([(make_cube(), labels)], 100, seed=0),
}
ENTRIES = {**ENTRIES_WITH_K, **ENTRIES_INFERRING_K}


def call(name, labels, tmp_path):
    return ENTRIES[name](labels, tmp_path / "labels.hypc")


BAD = [0.5, float("nan"), float("inf"), -1, 1e300, K, 70000]
CASES = [
    pytest.param(name, bad, id=f"{name}-{bad}")
    for name in ENTRIES
    for bad in BAD
    if not (bad == K and name in ENTRIES_INFERRING_K)  # K is a valid label when K is inferred
]


class TestEveryEntry:
    @pytest.mark.parametrize("name, bad", CASES)
    def test_bad_label_raises_data_error_naming_it(self, tmp_path, name, bad):
        labels = valid_labels().astype(type(bad))
        labels[BAD_AT] = bad
        as_given = str(labels[BAD_AT])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                call(name, labels, tmp_path)
        assert re.search(rf"\b(label|prediction) {re.escape(as_given)} ", str(err.value)), str(err.value)
        assert not (tmp_path / "labels.hypc").exists()

    def test_ignore_label_is_no_prediction_at_a_labelled_pixel(self):
        pred = valid_labels() % IGNORE_LABEL
        pred[BAD_AT] = IGNORE_LABEL
        with pytest.raises(DataError, match=rf"prediction {IGNORE_LABEL} outside \[0, {K}\)"):
            ConfusionMatrix(K).accumulate(pred, valid_labels())


# inverse_frequency_weights labels no batch, so a map of any shape is its own.
SHAPED = [name for name in ENTRIES if name != "inverse_frequency_weights"]
OTHER_SHAPES = {"one-image-short": slice(1, None), "2-d": 0}  # indexes into valid_labels()
SHAPE_MESSAGE = r"(?:(train|val) )?labels have shape (\(.*\)), not the batch's (\(.*\))"


class TestShape:
    @pytest.mark.parametrize("index", OTHER_SHAPES.values(), ids=OTHER_SHAPES)
    @pytest.mark.parametrize("name", SHAPED)
    def test_map_of_another_shape_raises_one_data_error_naming_both(self, tmp_path, name, index):
        labels = valid_labels()[index]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                call(name, labels, tmp_path)
        match = re.fullmatch(SHAPE_MESSAGE, str(err.value))
        assert match, str(err.value)
        assert {match[2], match[3]} == {str(labels.shape), str(SHAPE)}
        assert match[1] == (name.split("-")[-2] if name.startswith("train") else None)
        assert not (tmp_path / "labels.hypc").exists()

    @pytest.mark.parametrize("shape", [(SHAPE[0] - 1,) + SHAPE[1:], SHAPE[:2] + (SHAPE[2] - 1,)],
                             ids=["one-image-short", "narrower"])
    def test_eval_of_a_prediction_file_of_another_shape(self, tmp_path, capsys, shape):
        write_cube(make_cube(), LabelMap(valid_labels(), K), tmp_path / "truth.hypc")
        pred = np.zeros(shape, dtype=np.int64)
        write_cube(make_cube(shape), LabelMap(pred, K), tmp_path / "pred.hypc")
        argv = ["--pred", str(tmp_path / "pred.hypc"), "--truth", str(tmp_path / "truth.hypc")]
        assert cli(["eval", *argv, "--out", str(tmp_path / "m")]) == 2
        # The truth file holds the labels; the predictions are the batch they label.
        err = capsys.readouterr().err.strip()
        match = re.fullmatch("error: " + SHAPE_MESSAGE, err)
        assert match and match.groups() == (None, str(SHAPE), str(shape)), err
        assert not (tmp_path / "m").exists()


# Label maps of integers or of floats: valid classes and the unlabelled
# value, with up to two values replaced by any kind of bad value. The first
# pixel is class 0, so every split has a labelled pixel.
VALID = st.one_of(st.integers(0, K - 1), st.just(IGNORE_LABEL))
BAD_VALUES = st.sampled_from([0.5, -2.5, float("nan"), float("inf"), float("-inf"), -1, -7, 1e300, 70000, 2**40])
MAYBE_BAD = st.sampled_from([K, K + 3])  # bad when K is given, valid when it is inferred
LABEL_MAPS = st.tuples(
    st.lists(VALID, min_size=23, max_size=23),
    st.lists(st.tuples(st.integers(0, 22), st.one_of(BAD_VALUES, MAYBE_BAD)), max_size=2),
    st.booleans(),
)


def label_map(drawn):
    values, replaced, as_float = drawn
    values = [0, *values]
    for at, value in replaced:
        values[1 + at] = value
    kind = float if as_float or any(isinstance(v, float) for v in values) else np.int64
    return np.array(values, dtype=kind).reshape(SHAPE)


def rule(labels, num_classes):
    """The label rule, written out value by value."""
    limit = IGNORE_LABEL if num_classes is None else num_classes
    values = labels.ravel().tolist()
    ok = all(v == IGNORE_LABEL or (np.isfinite(v) and v == int(v) and 0 <= v < limit) for v in values)
    return "accepted" if ok else "rejected"


def outcome(name, labels, tmp_path):
    try:
        call(name, labels, tmp_path)
    except DataError:
        return "rejected"
    return "accepted"


class TestOneRule:
    @settings(max_examples=60, deadline=None)
    @given(LABEL_MAPS)
    def test_entries_given_k_agree(self, tmp_path_factory, drawn):
        labels = label_map(drawn)
        tmp_path = tmp_path_factory.mktemp("agree")
        # As a prediction, the map follows the prediction rule instead.
        names = [name for name in ENTRIES_WITH_K if name != "accumulate-prediction"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = {name: outcome(name, labels, tmp_path) for name in names}
        assert results == dict.fromkeys(names, rule(labels, K))

    @settings(max_examples=60, deadline=None)
    @given(LABEL_MAPS)
    def test_entries_inferring_k_agree(self, tmp_path_factory, drawn):
        labels = label_map(drawn)
        tmp_path = tmp_path_factory.mktemp("agree")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = {name: outcome(name, labels, tmp_path) for name in ENTRIES_INFERRING_K}
        assert results == dict.fromkeys(ENTRIES_INFERRING_K, rule(labels, None))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(VALID, min_size=24, max_size=24),
        st.lists(st.integers(0, K - 1), min_size=24, max_size=24),
        st.lists(st.sampled_from([-1, -2**40, IGNORE_LABEL, 10 * K, 2**40, 0, 1e300]), min_size=24, max_size=24),
    )
    def test_accumulate_equals_masked_bincount(self, truth, pred, garbage):
        truth = np.array(truth).reshape(SHAPE)
        labelled = truth != IGNORE_LABEL
        pred = np.where(labelled, np.array(pred).reshape(SHAPE), np.array(garbage).reshape(SHAPE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = ConfusionMatrix(K).accumulate(pred, truth).counts
        oracle = np.bincount(truth[labelled] * K + pred[labelled].astype(int), minlength=K * K).reshape(K, K)
        np.testing.assert_array_equal(counts, oracle)

