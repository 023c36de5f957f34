import functools
import importlib
import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qefilters

from qefilters import (
    ConfigurationError,
    DataError,
    FilterBankParams,
    Hypercube,
    WavelengthRange,
    apply_filter_bank,
    backward,
    evaluate_filter_bank,
    init_filter_bank,
    normalize_wavelengths,
)
from qefilters import cubeio, projection, synthetic, training
from qefilters.filterbank import CENTROID
from qefilters.projection import _POOL_WORK, _contract_channels, _each_image_block, _reduce_pixels

from tasks import planted3_spec

HYKO = WavelengthRange(470.0, 630.0)


def make_cube(seed, b, c, h, w):
    rng = np.random.default_rng(seed)
    wl = np.linspace(470.0, 630.0, c)
    return Hypercube(rng.random((b, c, h, w)), wl)


def loss_of(table, cube, lam, upstream):
    bank = FilterBankParams(table, HYKO)
    resp = evaluate_filter_bank(bank, lam)
    reduced = apply_filter_bank(cube, resp)
    return float(np.sum(upstream * reduced))


class TestHypercube:
    def test_validates_wavelength_order(self):
        with pytest.raises(DataError):
            Hypercube(np.zeros((1, 3, 2, 2)), [500.0, 490.0, 510.0])

    def test_validates_finiteness(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError):
            Hypercube(data, [500.0, 510.0])

    def test_wavelength_count_must_match(self):
        with pytest.raises(DataError, match="wavelength vector length 2 does not match channel count 3"):
            Hypercube(np.zeros((1, 3, 2, 2)), [500.0, 510.0])


class TestContractChannels:
    @staticmethod
    def check(matrix, x, images=None):
        expected = np.einsum("fc,bchw->bfhw", matrix, x if images is None else x[images])
        np.testing.assert_allclose(_contract_channels(matrix, x, images), expected, rtol=1e-12, atol=0)

    def test_non_contiguous_cube_views(self):
        rng = np.random.default_rng(0)
        data = rng.random((5, 12, 7, 9))
        self.check(rng.random((3, 6)), data[:, ::2])
        self.check(rng.random((3, 12)), data[[4, 1]])
        self.check(rng.random((2, 12)), data[1:4, :, 2:, ::3])
        self.check(rng.random((3, 12)), data, np.array([4, 1, 3]))
        self.check(rng.random((3, 6)), data[:, ::2], [2])

    def test_transposed_weight(self):
        rng = np.random.default_rng(1)
        weight = rng.random((6, 4))
        assert not weight.T.flags.c_contiguous
        self.check(weight.T, rng.random((2, 6, 5, 3)))

    def test_single_image_and_single_filter(self):
        rng = np.random.default_rng(2)
        self.check(rng.random((3, 5)), rng.random((1, 5, 4, 6)))
        self.check(rng.random((1, 5)), rng.random((3, 5, 4, 6)))
        self.check(rng.random((1, 5)), rng.random((1, 5, 1, 1)))


class TestReducePixels:
    @staticmethod
    def check(a, x, images=None):
        # Non-negative inputs, so no sum cancels and rtol bounds every entry.
        expected = np.einsum("bfhw,bchw->fc", a, x if images is None else x[images])
        np.testing.assert_allclose(_reduce_pixels(a, x, images), expected, rtol=1e-12, atol=0)

    def test_views_and_fancy_indexed_batches(self):
        rng = np.random.default_rng(3)
        data = rng.random((5, 12, 70, 90))
        self.check(rng.random((3, 2, 70, 90)), data[1:4, ::3])
        self.check(data[[4, 1], :5], data[[0, 2], 5:])
        self.check(rng.random((2, 3, 35, 30)), data[:2, :, ::2, 30:60])
        self.check(rng.random((3, 2, 70, 90)), data, np.array([4, 1, 3]))
        self.check(rng.random((1, 3, 70, 90)), data[:, ::3], [2])

    def test_remainder_block_single_image_and_single_pixel(self):
        rng = np.random.default_rng(4)
        self.check(rng.random((3, 4, 100, 100)), rng.random((3, 33, 100, 100)))
        self.check(rng.random((1, 8, 64, 64)), rng.random((1, 128, 64, 64)))
        self.check(rng.random((1, 3, 1, 1)), rng.random((1, 5, 1, 1)))
        self.check(rng.random((4, 2, 1, 1)), rng.random((4, 6, 1, 1)))

    # The shapes training reduces (hsidrive: the linear head's folded K x C =
    # 5 x 25 at 256 x 256, and F x C = 3 x 25 of an unfolded head; wide: 8 x
    # 128 and the MLP's 8 x 8 at 64 x 64, batches of 4) plus 3 images of
    # 100 x 100 at 4 x 33, 33 x 4 and the folded 5 x 33, where one GEMM per
    # image or 16,384-pixel blocks change bytes with the thread count.
    _THREAD_SCRIPT = (
        "import sys\n"
        "import numpy as np\n"
        "from qefilters.projection import _reduce_pixels\n"
        "shapes = [(4, 3, 25, 256, 256), (4, 5, 25, 256, 256), (4, 8, 128, 64, 64),\n"
        "          (4, 8, 8, 64, 64), (3, 4, 33, 100, 100), (3, 33, 4, 100, 100),\n"
        "          (3, 5, 33, 100, 100)]\n"
        "rng = np.random.default_rng(11)\n"
        "for b, f, c, h, w in shapes:\n"
        "    a = rng.normal(size=(b, f, h, w))\n"
        "    x = rng.random((b, c, h, w))\n"
        "    sys.stdout.write(_reduce_pixels(a, x).tobytes().hex() + '\\n')\n"
    )

    def test_bytes_independent_of_blas_threads(self):
        src_dir = Path(qefilters.__file__).resolve().parent.parent
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = str(src_dir)
            done = subprocess.run(
                [sys.executable, "-c", self._THREAD_SCRIPT],
                env=env, capture_output=True, check=True, timeout=300,
            )
            outputs.append(done.stdout.decode().split())
        assert len(outputs[0]) == 7
        for shape_index, (one, two) in enumerate(zip(*outputs)):
            assert one == two, shape_index


class TestEachImageBlock:
    @staticmethod
    def use_cpus(monkeypatch, cpus):
        # Any work reaches the pool, so these small calls still split.
        monkeypatch.setattr(projection, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(projection, "_POOL_WORK", 0)

    def test_contiguous_blocks_in_block_order(self, monkeypatch):
        self.use_cpus(monkeypatch, 3)
        assert _each_image_block(lambda lo, hi: (lo, hi), 5, _POOL_WORK) == [(0, 1), (1, 3), (3, 5)]
        self.use_cpus(monkeypatch, 8)  # at most one block per image
        assert _each_image_block(lambda lo, hi: (lo, hi), 2, _POOL_WORK) == [(0, 1), (1, 2)]

    # These keep the real _POOL_WORK.
    @pytest.mark.parametrize(
        "cpus, count, work",
        [
            pytest.param(2, 4, _POOL_WORK - 1, id="small-images"),
            pytest.param(2, 1, _POOL_WORK, id="one-image"),
            pytest.param(1, 4, _POOL_WORK, id="one-cpu"),
        ],
    )
    def test_whole_batch_on_the_calling_thread(self, monkeypatch, cpus, count, work):
        monkeypatch.setattr(projection, "_usable_cpus", lambda: cpus)
        calls = []
        _each_image_block(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), count, work)
        assert calls == [(0, count, threading.get_ident())]

    def test_work_at_the_constant_splits(self, monkeypatch):
        monkeypatch.setattr(projection, "_usable_cpus", lambda: 2)
        assert _each_image_block(lambda lo, hi: (lo, hi), 4, _POOL_WORK) == [(0, 2), (2, 4)]

    @pytest.mark.parametrize("failing", [0, 2], ids=["calling-thread", "pool"])
    def test_failure_raised_after_every_block_finished(self, monkeypatch, failing):
        self.use_cpus(monkeypatch, 3)
        finished = []

        def block(lo, hi):
            try:
                if lo == failing:
                    raise RuntimeError(f"block {lo} failed")
                time.sleep(0.05)
            finally:
                finished.append(lo)

        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            _each_image_block(block, 3, _POOL_WORK)
        assert sorted(finished) == [0, 1, 2]

    def test_call_from_inside_a_block_runs_inline(self, monkeypatch):
        self.use_cpus(monkeypatch, 2)

        def inner(lo, hi):
            return lo, hi, threading.get_ident()

        def outer(lo, hi):
            return threading.get_ident(), _each_image_block(inner, 4, _POOL_WORK)

        results = _each_image_block(outer, 2, _POOL_WORK)
        assert results[0][0] == threading.get_ident() != results[1][0]
        for ident, inner_results in results:
            assert inner_results == [(0, 4, ident)]
        # Outside a block, the pool is used again.
        assert len(_each_image_block(inner, 4, _POOL_WORK)) == 2

    # The modules whose public functions and methods a profiler such as
    # bench/spans.py wraps: all but rng and errors.
    _WRAPPED_LAYERS = (
        "synthetic", "cubeio", "filterbank", "projection", "training", "regularization", "metrics", "classical", "cli",
    )

    def test_blocks_call_no_public_function(self, monkeypatch, tmp_path):
        # A profiler that wraps the public names keeps one span stack per
        # process, so a public call from inside a block would nest its span
        # under whatever the calling thread has open. Each public function,
        # constructor and public method records whether it ran inside a block;
        # module names bound to a function by import are rebound too.
        calls = []  # (name, ran inside a block)

        def wrap(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, getattr(projection._local, "inside", False)))
                return fn(*args, **kwargs)

            return wrapper

        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in self._WRAPPED_LAYERS:
            module = importlib.import_module(f"qefilters.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for method, raw in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{method}"
                        if inspect.isfunction(raw) and (method == "__init__" or not method.startswith("_")):
                            monkeypatch.setattr(obj, method, wrap(name, raw))
                        elif isinstance(raw, (classmethod, staticmethod)) and not method.startswith("_"):
                            monkeypatch.setattr(obj, method, type(raw)(wrap(name, raw.__func__)))
        for module_name, module in list(sys.modules.items()):
            if module_name == "qefilters" or module_name.startswith("qefilters."):
                for attr, obj in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(obj), (None, None))
                    if original is obj:
                        monkeypatch.setattr(module, attr, wrapper)

        self.use_cpus(monkeypatch, 2)
        cube, labels = synthetic.gen_synthetic(planted3_spec(0, 3))
        cubeio.write_cube(cube, labels, tmp_path / "train.hypc")
        cube, labels = cubeio.read_cube(tmp_path / "train.hypc")
        for head in ("linear", "mlp"):
            config = training.TrainConfig(learning_rate=2e-2, max_epochs=1, patience=1, batch_size=3, head=head)
            report = training.train((cube, labels.values), (cube, labels.values), 2, 1, config)
            training.predict(report, cube)

        assert {name for name, _ in calls} >= {
            "synthetic.gen_synthetic", "cubeio.write_cube", "cubeio.read_cube", "training.train",
            "training.LinearHead.forward", "training.MlpHead.backward", "training.predict",
        }
        assert [name for name, inside in calls if inside] == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        # The child inherits the pool's idle thread as a count, not as a
        # thread; a job queued on the inherited pool would never run.
        self.use_cpus(monkeypatch, 2)
        assert len(_each_image_block(lambda lo, hi: None, 2, _POOL_WORK)) == 2
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if _each_image_block(lambda lo, hi: (lo, hi), 2, _POOL_WORK) == [(0, 1), (1, 2)] else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(projection.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(projection.os, "cpu_count", lambda: 8)
        assert projection._usable_cpus() == 1
        monkeypatch.delattr(projection.os, "sched_getaffinity")
        assert projection._usable_cpus() == 8
        monkeypatch.setattr(projection.os, "cpu_count", lambda: None)
        assert projection._usable_cpus() == 1

    # 5 images of 70 x 70 pixels: one full pixel block and a remainder each,
    # split 3 + 2 over two workers and 1 + 2 + 2 over three. The indexed
    # calls read 3 of them in place, split 1 + 2 over two workers, and give
    # the bytes of the same call on the gathered copy.
    def test_contractions_bytes_independent_of_workers(self, under_workers):
        rng = np.random.default_rng(12)
        x = rng.random((5, 25, 70, 70))
        a = rng.normal(size=(5, 3, 70, 70))
        matrix = rng.normal(size=(25, 3))
        images = np.array([4, 0, 2])

        def run():
            return [
                _contract_channels(matrix.T, x).tobytes(),
                _contract_channels(matrix[::2].T, x[:, ::2]).tobytes(),
                _reduce_pixels(a, x).tobytes(),
                _reduce_pixels(a[[4, 0, 2]], x[[1, 3, 0], 5:]).tobytes(),
                _contract_channels(matrix.T, x, images).tobytes(),
                _contract_channels(matrix.T, x[images]).tobytes(),
                _reduce_pixels(a[:3], x, images).tobytes(),
                _reduce_pixels(a[:3], x[images]).tobytes(),
                _contract_channels(matrix[::2].T, x[:, ::2], [3]).tobytes(),
                _contract_channels(matrix[::2].T, x[[3], ::2]).tobytes(),
            ]

        results = under_workers(run)
        assert all(r == results[0] for r in results)
        indexed, gathered = results[0][4::2], results[0][5::2]
        assert indexed == gathered


class TestApplyFilterBank:
    def test_one_hot_row_selects_channel(self):
        cube = make_cube(0, 2, 3, 2, 2)
        bank = init_filter_bank(1, 1, HYKO, seed=0)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        resp.weights = np.array([[1.0, 0.0, 0.0]])
        out = apply_filter_bank(cube, resp)
        np.testing.assert_array_equal(out[:, 0], cube.data[:, 0])

    def test_zero_weights_zero_output(self):
        cube = make_cube(1, 1, 4, 3, 3)
        bank = init_filter_bank(2, 1, HYKO, seed=1)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        resp.weights = np.zeros_like(resp.weights)
        assert np.all(apply_filter_bank(cube, resp) == 0.0)

    def test_matches_scalar_oracle(self):
        cube = make_cube(3, 1, 3, 1, 1)
        bank = init_filter_bank(2, 1, HYKO, seed=2)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        out = apply_filter_bank(cube, resp)
        for f in range(2):
            expected = 0.0
            for c in range(3):
                expected += resp.weights[f, c] * cube.data[0, c, 0, 0]
            assert out[0, f, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_channel_mismatch_raises(self):
        cube = make_cube(4, 1, 4, 2, 2)
        bank = init_filter_bank(2, 1, HYKO, seed=3)
        resp = evaluate_filter_bank(bank, np.linspace(0, 1, 6))
        with pytest.raises(DataError, match="response has 6 channels but cube has 4"):
            apply_filter_bank(cube, resp)

    def test_requires_reduction(self):
        cube = make_cube(5, 1, 3, 2, 2)
        bank = init_filter_bank(3, 1, HYKO, seed=4)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        with pytest.raises(ConfigurationError):
            apply_filter_bank(cube, resp)


class TestBackward:
    def test_zero_upstream_zero_gradients(self):
        cube = make_cube(6, 1, 5, 2, 2)
        bank = init_filter_bank(2, 2, HYKO, seed=5)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        grads = backward(cube, resp, np.zeros((1, 2, 2, 2)))
        assert np.all(grads == 0.0)

    def test_symmetric_setup_zero_centroid_gradient(self):
        # Grid symmetric about the centroid, zero skew, channel-uniform data
        # and upstream: contributions cancel pairwise.
        lam = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        table = np.array([[[0.3, np.log(0.1), 0.4, 0.0]]])
        bank = FilterBankParams(table, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        wl = 470.0 + lam * 160.0
        cube = Hypercube(np.ones((1, 5, 2, 2)), wl)
        upstream = np.full((1, 1, 2, 2), 0.7)
        grads = backward(cube, resp, upstream)
        assert abs(grads[0, 0, CENTROID]) < 1e-12

    def test_matches_finite_differences(self):
        cube = make_cube(7, 1, 6, 2, 2)
        rng = np.random.default_rng(8)
        bank = init_filter_bank(2, 2, HYKO, seed=6)
        table = bank.table.copy()
        table[:, :, 3] = rng.normal(0, 1, (2, 2))
        bank = FilterBankParams(table, HYKO)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        upstream = rng.normal(size=(1, 2, 2, 2))
        grads = backward(cube, resp, upstream)
        step = 1e-5
        for f in range(2):
            for p in range(2):
                for s in range(4):
                    plus = bank.table.copy()
                    plus[f, p, s] += step
                    minus = bank.table.copy()
                    minus[f, p, s] -= step
                    fd = (loss_of(plus, cube, lam, upstream) - loss_of(minus, cube, lam, upstream)) / (2 * step)
                    rel = abs(grads[f, p, s] - fd) / (abs(fd) + 1e-8)
                    assert rel < 1e-4, (f, p, s, grads[f, p, s], fd)

    def test_linear_in_upstream(self):
        cube = make_cube(9, 2, 5, 3, 3)
        bank = init_filter_bank(2, 1, HYKO, seed=7)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        rng = np.random.default_rng(10)
        g1 = rng.normal(size=(2, 2, 3, 3))
        g2 = rng.normal(size=(2, 2, 3, 3))
        a = backward(cube, resp, g1)
        b = backward(cube, resp, g2)
        both = backward(cube, resp, g1 + g2)
        np.testing.assert_allclose(both, a + b, rtol=1e-12, atol=1e-14)

    def test_extreme_parameters_finite(self):
        cube = make_cube(11, 1, 15, 2, 2)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        table = np.array(
            [
                [[0.2, np.log(1e-3), 40.0, 3.0]],
                [[0.9, np.log(1e-3), -40.0, -3.0]],
            ]
        )
        bank = FilterBankParams(table, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        grads = backward(cube, resp, np.ones((1, 2, 2, 2)))
        assert np.all(np.isfinite(grads))

    def test_underflowed_bandwidth_still_finite(self):
        cube = make_cube(12, 1, 8, 2, 2)
        lam = normalize_wavelengths(cube.wavelengths_nm, HYKO)
        table = np.array([[[0.5, -800.0, 0.0, 1.0]], [[0.2, np.log(0.05), 0.0, 0.0]]])
        bank = FilterBankParams(table, HYKO)
        resp = evaluate_filter_bank(bank, lam)
        grads = backward(cube, resp, np.ones((1, 2, 2, 2)))
        assert np.all(np.isfinite(grads))

    def test_channel_mismatch_raises(self):
        cube = make_cube(4, 1, 4, 2, 2)
        bank = init_filter_bank(2, 1, HYKO, seed=3)
        resp = evaluate_filter_bank(bank, np.linspace(0, 1, 6))
        with pytest.raises(DataError, match="response has 6 channels but cube has 4"):
            backward(cube, resp, np.zeros((1, 2, 2, 2)))

    def test_requires_reduction(self):
        # The F = C bank apply_filter_bank refuses gets no gradient either.
        cube = make_cube(5, 1, 3, 2, 2)
        bank = init_filter_bank(3, 1, HYKO, seed=4)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        with pytest.raises(ConfigurationError, match="fewer filters than channels"):
            backward(cube, resp, np.zeros((1, 3, 2, 2)))

    def test_shape_mismatch_raises(self):
        cube = make_cube(15, 1, 5, 2, 2)
        bank = init_filter_bank(2, 1, HYKO, seed=10)
        resp = evaluate_filter_bank(bank, normalize_wavelengths(cube.wavelengths_nm, HYKO))
        with pytest.raises(DataError, match=r"upstream gradient shape \(1, 3, 2, 2\) does not match"):
            backward(cube, resp, np.zeros((1, 3, 2, 2)))
