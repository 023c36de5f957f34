import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qefilters import DataError, Hypercube
from qefilters.cubeio import (
    BadMagicError,
    CubeFormatError,
    LabelMap,
    LabelRangeError,
    NonFiniteValueError,
    TrailingBytesError,
    TruncatedFileError,
    UnsupportedVersionError,
    WavelengthOrderError,
    parse_cube,
    read_cube,
    serialize_cube,
    write_cube,
)


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
        with pytest.raises(BadMagicError) as err:
            parse_cube(blob)
        assert err.value.offset == 0

    def test_unsupported_version(self):
        blob = bytearray(self.blob())
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(UnsupportedVersionError) as err:
            parse_cube(bytes(blob))
        assert err.value.offset == 4

    def test_truncation_reports_lengths(self):
        blob = self.blob()[:-1]
        with pytest.raises(TruncatedFileError) as err:
            parse_cube(blob)
        assert err.value.expected == len(self.blob())
        assert err.value.actual == len(blob)

    def test_zero_dimension(self):
        blob = bytearray(self.blob())
        blob[6:10] = (0).to_bytes(4, "little")
        with pytest.raises(CubeFormatError) as err:
            parse_cube(bytes(blob))
        assert err.value.offset == 6

    def test_nonincreasing_wavelengths(self):
        cube, labels = sample_cube()
        wl = cube.wavelengths_nm.copy()
        blob = bytearray(serialize_cube(cube, labels))
        # overwrite second wavelength with the first
        blob[22 + 8 : 22 + 16] = np.array([wl[0]], dtype="<f8").tobytes()
        with pytest.raises(WavelengthOrderError):
            parse_cube(bytes(blob))

    def test_nan_reflectance_detected(self):
        cube, labels = sample_cube()
        data_off = 22 + 8 * 3
        blob = bytearray(serialize_cube(cube, labels))
        blob[data_off : data_off + 4] = np.array([np.nan], dtype="<f4").tobytes()
        with pytest.raises(NonFiniteValueError) as err:
            parse_cube(bytes(blob))
        assert err.value.offset == data_off

    def test_label_out_of_range(self):
        cube, labels = sample_cube()
        labels.values[:] = 0
        blob = bytearray(serialize_cube(cube, labels))
        blob[-2:] = (77).to_bytes(2, "little")  # last label; K=3, not ignore
        with pytest.raises(LabelRangeError):
            parse_cube(bytes(blob))

    def test_trailing_bytes(self):
        with pytest.raises(TrailingBytesError):
            parse_cube(self.blob() + b"\x00")

    def test_bad_label_magic(self):
        cube, labels = sample_cube()
        plain = serialize_cube(cube, None)
        label_block = serialize_cube(cube, labels)[len(plain) :]
        blob = plain + b"QQQQ" + label_block[4:]
        with pytest.raises(BadMagicError) as err:
            parse_cube(blob)
        assert err.value.offset == len(plain)

    def test_huge_declared_dims_do_not_allocate(self):
        blob = bytearray(self.blob())
        blob[6:10] = (2**31).to_bytes(4, "little")
        with pytest.raises(TruncatedFileError):
            parse_cube(bytes(blob))


class TestFuzzSmoke:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_classified(self, data):
        cube, labels = sample_cube(seed=1)
        blob = bytearray(serialize_cube(cube, labels))
        pos = data.draw(st.integers(0, len(blob) - 1))
        value = data.draw(st.integers(0, 255))
        blob[pos] = value
        try:
            parsed_cube, parsed_labels = parse_cube(bytes(blob))
        except CubeFormatError:
            return  # classified rejection is fine
        # Accepted parses must faithfully reflect the mutated bytes.
        assert serialize_cube(parsed_cube, parsed_labels) == bytes(blob)

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
