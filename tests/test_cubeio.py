import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qefilters import DataError, Hypercube, cubeio, projection
from qefilters.cubeio import CubeFormatError, LabelMap, parse_cube, read_cube, serialize_cube, write_cube


def sample_cube(seed=0, b=2, c=3, h=2, w=2, with_labels=True):
    rng = np.random.default_rng(seed)
    data = rng.random((b, c, h, w)).astype(np.float32).astype(float)
    cube = Hypercube(data, np.linspace(470.0, 630.0, c))
    labels = None
    if with_labels:
        labels = LabelMap(rng.integers(0, 3, (b, h, w)), num_classes=3)
    return cube, labels


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        cube, labels = sample_cube()
        path = tmp_path / "cube.hypc"
        write_cube(cube, labels, path)
        restored, restored_labels = read_cube(path)
        np.testing.assert_array_equal(restored.data, cube.data)
        np.testing.assert_array_equal(restored.wavelengths_nm, cube.wavelengths_nm)
        np.testing.assert_array_equal(restored_labels.values, labels.values)
        assert restored_labels.num_classes == 3
        assert restored_labels.ignore_value == 65535
        # serializing again reproduces identical bytes
        assert serialize_cube(restored, restored_labels) == path.read_bytes()

    def test_round_trip_without_labels(self, tmp_path):
        cube, _ = sample_cube(with_labels=False)
        path = tmp_path / "plain.hypc"
        write_cube(cube, None, path)
        restored, labels = read_cube(path)
        assert labels is None
        np.testing.assert_array_equal(restored.data, cube.data)

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_read_cube_is_parse_of_the_file_bytes(self, tmp_path, with_labels):
        cube, labels = sample_cube(seed=4, b=3, c=5, h=4, w=3, with_labels=with_labels)
        path = tmp_path / "cube.hypc"
        write_cube(cube, labels, path)
        read, read_labels = read_cube(path)
        parsed, parsed_labels = parse_cube(path.read_bytes())
        for got, want in ((read.data, parsed.data), (read.wavelengths_nm, parsed.wavelengths_nm)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous
        if with_labels:
            assert read_labels.values.dtype == parsed_labels.values.dtype
            np.testing.assert_array_equal(read_labels.values, parsed_labels.values)
            assert (read_labels.num_classes, read_labels.ignore_value) == (
                parsed_labels.num_classes, parsed_labels.ignore_value)
        else:
            assert read_labels is None and parsed_labels is None

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_file_bytes_are_the_serialized_bytes(self, tmp_path, with_labels):
        cube, labels = sample_cube(seed=5, b=3, c=6, h=5, w=4, with_labels=with_labels)
        # A strided view, so the file is written in index order, not memory order.
        strided = Hypercube(cube.data[:, ::2].transpose(0, 1, 3, 2)[..., ::-1, :], cube.wavelengths_nm[::2])
        assert not strided.data.flags.c_contiguous
        if labels is not None:
            labels = LabelMap(labels.values.transpose(0, 2, 1)[:, ::-1], labels.num_classes)
        path = tmp_path / "cube.hypc"
        write_cube(strided, labels, path)
        assert path.read_bytes() == serialize_cube(strided, labels)

    def test_ignore_labels_survive(self, tmp_path):
        cube, labels = sample_cube()
        labels.values[0, 0, 0] = labels.ignore_value
        path = tmp_path / "ign.hypc"
        write_cube(cube, labels, path)
        _, restored = read_cube(path)
        assert restored.values[0, 0, 0] == labels.ignore_value


class TestParseErrors:
    def blob(self):
        cube, labels = sample_cube()
        return serialize_cube(cube, labels)

    def test_bad_magic_offset_zero(self):
        blob = b"XYZW" + self.blob()[4:]
        with pytest.raises(CubeFormatError, match="^bad magic") as err:
            parse_cube(blob)
        assert err.value.offset == 0

    def test_unsupported_version(self):
        blob = bytearray(self.blob())
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(CubeFormatError, match="unsupported version 99") as err:
            parse_cube(bytes(blob))
        assert err.value.offset == 4

    def test_truncation_reports_lengths(self):
        blob = self.blob()[:-1]
        expected = f"truncated file: expected {len(self.blob())} bytes, have {len(blob)}"
        with pytest.raises(CubeFormatError, match=expected):
            parse_cube(blob)

    def test_zero_dimension(self):
        blob = bytearray(self.blob())
        blob[6:10] = (0).to_bytes(4, "little")
        with pytest.raises(CubeFormatError, match="dimension B is zero") as err:
            parse_cube(bytes(blob))
        assert err.value.offset == 6

    def test_nonincreasing_wavelengths(self):
        cube, labels = sample_cube()
        wl = cube.wavelengths_nm.copy()
        blob = bytearray(serialize_cube(cube, labels))
        # overwrite second wavelength with the first
        blob[22 + 8 : 22 + 16] = np.array([wl[0]], dtype="<f8").tobytes()
        with pytest.raises(CubeFormatError, match="wavelengths not strictly increasing at channel 1") as err:
            parse_cube(bytes(blob))
        assert err.value.offset == 22 + 8

    def test_nan_reflectance_detected(self):
        cube, labels = sample_cube()
        data_off = 22 + 8 * 3
        blob = bytearray(serialize_cube(cube, labels))
        blob[data_off : data_off + 4] = np.array([np.nan], dtype="<f4").tobytes()
        with pytest.raises(CubeFormatError, match="reflectance value 0 is not finite") as err:
            parse_cube(bytes(blob))
        assert err.value.offset == data_off

    def test_label_out_of_range(self):
        cube, labels = sample_cube()
        labels.values[:] = 0
        blob = bytearray(serialize_cube(cube, labels))
        blob[-2:] = (77).to_bytes(2, "little")  # last label; K=3, not ignore
        with pytest.raises(CubeFormatError, match=r"label 77 outside \[0, 3\) and not the ignore value") as err:
            parse_cube(bytes(blob))
        assert err.value.offset == len(blob) - 2

    def test_trailing_bytes(self):
        with pytest.raises(CubeFormatError, match="1 unexpected trailing bytes") as err:
            parse_cube(self.blob() + b"\x00")
        assert err.value.offset == len(self.blob())

    def test_bad_label_magic(self):
        cube, labels = sample_cube()
        plain = serialize_cube(cube, None)
        label_block = serialize_cube(cube, labels)[len(plain) :]
        blob = plain + b"QQQQ" + label_block[4:]
        with pytest.raises(CubeFormatError, match="bad label-block magic") as err:
            parse_cube(blob)
        assert err.value.offset == len(plain)

    def test_huge_declared_dims_do_not_allocate(self):
        blob = bytearray(self.blob())
        blob[6:10] = (2**31).to_bytes(4, "little")
        with pytest.raises(CubeFormatError, match="truncated file"):
            parse_cube(bytes(blob))


class TestChunkedRead:
    """The payload is read ``_CHUNK_VALUES`` values at a time; here 7 of a cube's 180."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cubeio, "_CHUNK_VALUES", 7)

    @staticmethod
    def written(tmp_path, with_labels=True):
        cube, labels = sample_cube(seed=6, b=3, c=5, h=4, w=3, with_labels=with_labels)
        assert cube.data.size % cubeio._CHUNK_VALUES  # a partial last chunk
        path = tmp_path / "cube.hypc"
        write_cube(cube, labels, path)
        return cube, labels, path

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_read_and_parse_give_the_written_cube(self, tmp_path, with_labels):
        cube, labels, path = self.written(tmp_path, with_labels)
        for got, got_labels in (read_cube(path), parse_cube(path.read_bytes())):
            assert got.data.dtype == np.float64 and got.data.flags.c_contiguous
            assert got.data.tobytes() == cube.data.tobytes()
            if with_labels:
                np.testing.assert_array_equal(got_labels.values, labels.values)
            else:
                assert got_labels is None

    @pytest.mark.parametrize("index", [0, 6, 7, 100, 179])
    def test_non_finite_value_named_in_any_chunk(self, tmp_path, index):
        _, _, path = self.written(tmp_path)
        blob = bytearray(path.read_bytes())
        at = 22 + 8 * 5 + 4 * index
        blob[at : at + 4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(blob)
        for parse in (lambda: read_cube(path), lambda: parse_cube(bytes(blob))):
            with pytest.raises(CubeFormatError, match=f"reflectance value {index} is not finite") as err:
                parse()
            assert err.value.offset == at

    # 2**32 - 1 channels would need 32 GiB of wavelengths, and 2**31 images
    # a payload of 360 GiB: the file's size rejects both before any allocation.
    @pytest.mark.parametrize("field, value, offset", [(10, 2**32 - 1, 22), (6, 2**31, 22 + 8 * 5)])
    def test_declared_sizes_checked_against_the_file(self, tmp_path, field, value, offset):
        _, _, path = self.written(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[field : field + 4] = value.to_bytes(4, "little")
        path.write_bytes(blob)
        with pytest.raises(CubeFormatError, match=f"truncated file: .* have {len(blob)}") as err:
            read_cube(path)
        assert err.value.offset == offset


class TestBlockRead:
    """The payload is read image block by image block, each block in chunks of 7 values.

    Under ``under_workers`` the 3 images of 60 values split into blocks of
    whole images, and each block reads its images' bytes by position.
    """

    VALUES_PER_IMAGE = 5 * 4 * 3
    DATA_OFF = 22 + 8 * 5

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cubeio, "_CHUNK_VALUES", 7)

    @staticmethod
    def written(tmp_path, with_labels=True):
        cube, labels = sample_cube(seed=7, b=3, c=5, h=4, w=3, with_labels=with_labels)
        path = tmp_path / "cube.hypc"
        write_cube(cube, labels, path)
        return cube, labels, path

    @staticmethod
    def errors(path, blob):
        """The message and offset that ``read_cube`` and ``parse_cube`` raise."""
        raised = []
        for parse in (lambda: read_cube(path), lambda: parse_cube(blob)):
            with pytest.raises(CubeFormatError) as err:
                parse()
            raised.append((str(err.value), err.value.offset))
        return raised

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_same_bytes_under_any_worker_count(self, tmp_path, under_workers, with_labels):
        cube, labels, path = self.written(tmp_path, with_labels)
        blob = path.read_bytes()

        def read():
            return [
                (got.data.tobytes(), got_labels and got_labels.values.tobytes())
                for got, got_labels in (read_cube(path), parse_cube(blob))
            ]

        expected = [(cube.data.tobytes(), labels and labels.values.tobytes())] * 2
        for result in under_workers(read):
            assert result == expected

    # Images 0 and 2 fall in different blocks under 2 and 3 workers, images 1
    # and 2 under 3; with the first block held back, the later failure
    # happens first.
    @pytest.mark.parametrize("images", [(0, 2), (1, 2)])
    def test_first_non_finite_value_in_file_order_named(self, tmp_path, under_workers, images):
        _, _, path = self.written(tmp_path)
        blob = bytearray(path.read_bytes())
        indices = [images[0] * self.VALUES_PER_IMAGE + 9, images[1] * self.VALUES_PER_IMAGE + 2]
        for index in indices:
            at = self.DATA_OFF + 4 * index
            blob[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(blob)
        at = self.DATA_OFF + 4 * indices[0]
        expected = [(f"reflectance value {indices[0]} is not finite (at byte offset {at})", at)] * 2
        for result in under_workers(lambda: self.errors(path, bytes(blob))):
            assert result == expected

    # The file shrinks to ``have`` bytes after its size was read: in the
    # header, in the second image's payload, in the labels.
    @pytest.mark.parametrize("have", [10, 22 + 8 * 5 + 4 * 70 + 1, -3])
    def test_file_shrinking_while_read(self, tmp_path, monkeypatch, under_workers, have):
        _, _, path = self.written(tmp_path)
        size = path.stat().st_size
        have %= size
        preadv = os.preadv

        def shrunk(fd, buffers, offset):
            (view,) = buffers
            return preadv(fd, [view[: max(0, have - offset)]], offset)

        monkeypatch.setattr(os, "preadv", shrunk)

        def error():
            with pytest.raises(CubeFormatError) as err:
                read_cube(path)
            return str(err.value), err.value.offset

        expected = (f"truncated file: expected {size} bytes, have {have} (at byte offset {have})", have)
        for result in under_workers(error):
            assert result == expected


class TestPayloadRouting:
    """Which payload fills reach the pool on 2 usable CPUs: the work per image is C·H·W."""

    @pytest.mark.parametrize(
        "dims, pooled",
        [
            pytest.param((4, 25, 256, 256), True, id="hsidrive"),
            pytest.param((4, 128, 64, 64), True, id="wide"),
            pytest.param((2, 3, 2, 2), False, id="sample"),
            pytest.param((3, 5, 4, 3), False, id="chunked"),
        ],
    )
    def test_payload_fill_reaches_the_pool(self, tmp_path, monkeypatch, dims, pooled):
        b, c, h, w = dims
        path = tmp_path / "cube.hypc"
        write_cube(Hypercube(np.zeros(dims), np.linspace(600.0, 975.0, c)), None, path)
        calls = []  # (images, work, ran on the pool)
        each_image_block = projection._each_image_block

        def recorded(fn, count, work):
            results = each_image_block(fn, count, work)
            calls.append((count, work, len(results) > 1))
            return results

        monkeypatch.setattr(projection, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(projection, "_each_image_block", recorded)
        read_cube(path)
        parse_cube(path.read_bytes())
        assert calls == [(b, c * h * w, pooled)] * 2


class TestFuzzSmoke:
    @staticmethod
    def mutate_and_parse(data, buffer):
        cube, labels = sample_cube(seed=1)
        blob = bytearray(serialize_cube(cube, labels))
        pos = data.draw(st.integers(0, len(blob) - 1))
        value = data.draw(st.integers(0, 255))
        blob[pos] = value
        try:
            parsed_cube, parsed_labels = parse_cube(buffer(blob))
        except CubeFormatError:
            return  # classified rejection is fine
        # Accepted parses must faithfully reflect the mutated bytes.
        assert serialize_cube(parsed_cube, parsed_labels) == bytes(blob)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_classified(self, data):
        self.mutate_and_parse(data, bytes)

    # parse_cube takes any contiguous byte buffer, a np.uint8 array too.
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_classified_in_uint8_buffer(self, data):
        self.mutate_and_parse(data, lambda blob: np.frombuffer(bytes(blob), dtype=np.uint8))

    def test_write_rejects_mismatched_labels(self, tmp_path):
        cube, _ = sample_cube()
        bad = LabelMap(np.zeros((1, 9, 9), dtype=int), num_classes=2)
        with pytest.raises(DataError):
            write_cube(cube, bad, tmp_path / "x.hypc")


class TestWriteRejectsWhatReadRejects:
    @pytest.mark.filterwarnings("error")
    def test_negative_label(self):
        cube, labels = sample_cube()
        labels.values[0, 0, 0] = -1  # would wrap to 65535, the ignore value
        with pytest.raises(DataError):
            serialize_cube(cube, labels)

    @pytest.mark.filterwarnings("error")
    def test_reflectance_beyond_float32(self):
        cube, labels = sample_cube()
        cube.data[0, 0, 0, 0] = 1e39  # finite in float64, inf in float32
        with pytest.raises(DataError):
            serialize_cube(cube, labels)

    @pytest.mark.parametrize("ignore", [-1, 65536])
    def test_ignore_value_outside_u16(self, ignore):
        cube, labels = sample_cube()
        bad = LabelMap(labels.values, labels.num_classes, ignore_value=ignore)
        with pytest.raises(DataError):
            serialize_cube(cube, bad)

    @pytest.mark.parametrize("fault", ["label-shape", "negative-label", "beyond-float32", "class-count"])
    def test_rejected_write_creates_no_file(self, tmp_path, fault):
        cube, labels = sample_cube()
        if fault == "label-shape":
            labels = LabelMap(np.zeros((1, 9, 9), dtype=int), num_classes=2)
        elif fault == "negative-label":
            labels.values[0, 0, 0] = -1
        elif fault == "beyond-float32":
            cube.data[0, 0, 0, 0] = 1e39
        else:
            labels = LabelMap(labels.values, num_classes=0)
        path = tmp_path / "rejected.hypc"
        with pytest.raises(DataError):
            write_cube(cube, labels, path)
        assert not path.exists()

    # Each fault once in memory for the writer, and once patched into the bytes
    # of the valid cube for the reader: both raise the one error.
    @pytest.mark.parametrize(
        "fault", ["zero-dimension", "wavelength-order", "beyond-float32", "zero-classes", "label-range"]
    )
    def test_writer_raises_the_readers_error(self, fault):
        cube, labels = sample_cube()
        blob = bytearray(serialize_cube(cube, labels))
        data_off = 22 + 8 * cube.dims[1]
        k_off = data_off + 4 * cube.data.size + 4
        if fault == "zero-dimension":
            cube = Hypercube(cube.data[:, :, :0], cube.wavelengths_nm)
            labels = LabelMap(labels.values[:, :0], labels.num_classes)
            blob[14:18] = (0).to_bytes(4, "little")  # H
        elif fault == "wavelength-order":
            cube.wavelengths_nm[1] = cube.wavelengths_nm[0]
            blob[30:38] = blob[22:30]
        elif fault == "beyond-float32":
            cube.data[1, 2, 0, 1] = 1e39
            at = data_off + 4 * int(np.ravel_multi_index((1, 2, 0, 1), cube.dims))
            blob[at : at + 4] = np.array([np.inf], dtype="<f4").tobytes()
        elif fault == "zero-classes":
            labels = LabelMap(labels.values, num_classes=0)
            blob[k_off : k_off + 2] = (0).to_bytes(2, "little")
        else:
            labels.values[1, 1, 0] = 77
            at = k_off + 4 + 2 * int(np.ravel_multi_index((1, 1, 0), labels.values.shape))
            blob[at : at + 2] = (77).to_bytes(2, "little")
        with pytest.raises(CubeFormatError) as written:
            serialize_cube(cube, labels)
        with pytest.raises(CubeFormatError) as read:
            parse_cube(bytes(blob))
        assert (str(written.value), written.value.offset) == (str(read.value), read.value.offset)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*[st.sampled_from([0, 1, 1, 2, 2, 3, 3, 3])] * 4),
        scale=st.sampled_from([1.0, 1.0, 1.0, 1e30, 1e39, 1e300]),
        label_range=st.tuples(st.sampled_from([-1, 0, 0, 0, 1]), st.sampled_from([0, 1, 2, 2, 70000])),
        num_classes=st.sampled_from([0, 1, 3, 3, 5, 255, 65535, 65536]),
        ignore=st.sampled_from([-1, 0, 2, 255, 65535, 65536]),
        seed=st.integers(0, 2**16),
    )
    def test_write_raises_or_round_trips(self, dims, scale, label_range, num_classes, ignore, seed):
        b, c, h, w = dims
        rng = np.random.default_rng(seed)
        cube = Hypercube(scale * rng.standard_normal(dims), np.linspace(470.0, 630.0, c))
        low, span = label_range
        labels = LabelMap(rng.integers(low, low + span + 1, (b, h, w)), num_classes, ignore)
        try:
            blob = serialize_cube(cube, labels)
        except DataError:
            return
        parsed, parsed_labels = parse_cube(blob)
        np.testing.assert_array_equal(parsed.data, cube.data.astype(np.float32).astype(float))
        np.testing.assert_array_equal(parsed.wavelengths_nm, cube.wavelengths_nm)
        np.testing.assert_array_equal(parsed_labels.values, labels.values)
        assert (parsed_labels.num_classes, parsed_labels.ignore_value) == (num_classes, ignore)
