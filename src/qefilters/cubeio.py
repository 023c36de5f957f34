"""Binary hypercube file format.

Byte layout, all little-endian:

====================  ========================================================
offset 0              magic ``HYPC`` (4 bytes)
4                     version, u16 (currently 1)
6                     B, C, H, W as four u32
22                    C wavelengths, f64, nanometers, strictly increasing
22 + 8C               B*C*H*W reflectances, f32, index order (B, C, H, W)
--- optional label block ---
...                   magic ``LBLS`` (4 bytes)
+4                    K (class count), u16
+6                    ignore value, u16
+8                    B*H*W labels, u16, index order (B, H, W)
====================  ========================================================

Declared sizes must match the payload exactly; a parser never reads past a
length check, so corrupt headers cannot trigger huge allocations. Every
failure mode is a distinct :class:`CubeFormatError` subclass carrying the
byte offset where parsing stopped. Reflectance is stored as float32 and
widened to float64 in memory.

:func:`read_cube` reads a file into one ``np.uint8`` buffer, and
:func:`parse_cube` takes views of its buffer, so the only large allocations
of a read are that buffer and the float64 cube. Finiteness is checked once,
on the stored float32 values; the cube is not checked again when it is
wrapped. :func:`write_cube` holds one payload-sized array, the float32 copy
of the cube, and writes it to the file directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metrics import IGNORE_LABEL
from .projection import Hypercube

MAGIC = b"HYPC"
LABEL_MAGIC = b"LBLS"
VERSION = 1
_U16_MAX = 0xFFFF


class CubeFormatError(DataError):
    """Malformed cube file; ``offset`` is where parsing stopped."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte offset {offset})")


class BadMagicError(CubeFormatError):
    pass


class UnsupportedVersionError(CubeFormatError):
    pass


class TruncatedFileError(CubeFormatError):
    def __init__(self, expected: int, actual: int, offset: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"truncated file: expected {expected} bytes, have {actual}", offset)


class InvalidDimensionsError(CubeFormatError):
    pass


class WavelengthOrderError(CubeFormatError):
    pass


class NonFiniteValueError(CubeFormatError):
    pass


class LabelRangeError(CubeFormatError):
    pass


class TrailingBytesError(CubeFormatError):
    pass


@dataclass
class LabelMap:
    """Per-pixel class labels for a cube batch."""

    values: np.ndarray  # (B, H, W) integer labels
    num_classes: int
    ignore_value: int = IGNORE_LABEL


class _Cursor:
    """Reads a byte buffer front to back; each piece is a view, not a copy."""

    def __init__(self, blob):
        self.blob = memoryview(blob).cast("B")
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if self.offset + count > len(self.blob):
            raise TruncatedFileError(self.offset + count, len(self.blob), self.offset)
        out = self.blob[self.offset : self.offset + count]
        self.offset += count
        return out

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.offset


def parse_cube(blob) -> tuple[Hypercube, LabelMap | None]:
    """Parse the byte layout above; raises CubeFormatError subclasses.

    ``blob`` is any contiguous byte buffer, such as ``bytes`` or a ``np.uint8``
    array. The arrays returned are copies and never alias it.
    """
    cur = _Cursor(blob)
    if cur.take(4) != MAGIC:
        raise BadMagicError(f"bad magic, expected {MAGIC!r}", 0)
    version_off = cur.offset
    (version,) = struct.unpack("<H", cur.take(2))
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}", version_off)
    dims_off = cur.offset
    b, c, h, w = struct.unpack("<4I", cur.take(16))
    for i, (name, value) in enumerate(zip("BCHW", (b, c, h, w))):
        if value == 0:
            raise InvalidDimensionsError(f"dimension {name} is zero", dims_off + 4 * i)

    wl_off = cur.offset
    wavelengths = np.frombuffer(cur.take(8 * c), dtype="<f8").astype(float)
    if not np.all(np.isfinite(wavelengths)):
        bad = int(np.flatnonzero(~np.isfinite(wavelengths))[0])
        raise NonFiniteValueError(f"wavelength {bad} is not finite", wl_off + 8 * bad)
    increasing = np.diff(wavelengths) > 0
    if not np.all(increasing):
        bad = int(np.flatnonzero(~increasing)[0]) + 1
        raise WavelengthOrderError(
            f"wavelengths not strictly increasing at channel {bad}", wl_off + 8 * bad
        )

    data_off = cur.offset
    count = b * c * h * w
    stored = np.frombuffer(cur.take(4 * count), dtype="<f4")
    # The min or the max is NaN or infinite exactly when some value is, and
    # neither needs a temporary array.
    if not (np.isfinite(stored.min()) and np.isfinite(stored.max())):
        bad = int(np.flatnonzero(~np.isfinite(stored))[0])
        raise NonFiniteValueError(f"reflectance value {bad} is not finite", data_off + 4 * bad)
    # Every check Hypercube makes has been made above, on the stored values.
    cube = Hypercube._checked(stored.astype(float).reshape(b, c, h, w), wavelengths)

    labels = None
    if cur.remaining:
        block_off = cur.offset
        if cur.take(4) != LABEL_MAGIC:
            raise BadMagicError(f"bad label-block magic, expected {LABEL_MAGIC!r}", block_off)
        k_off = cur.offset
        (num_classes,) = struct.unpack("<H", cur.take(2))
        if num_classes == 0:
            raise InvalidDimensionsError("label block declares zero classes", k_off)
        (ignore_value,) = struct.unpack("<H", cur.take(2))
        values_off = cur.offset
        values = np.frombuffer(cur.take(2 * b * h * w), dtype="<u2").astype(np.int64)
        out_of_range = (values >= num_classes) & (values != ignore_value)
        if out_of_range.any():
            bad = int(np.flatnonzero(out_of_range)[0])
            raise LabelRangeError(
                f"label {values[bad]} outside [0, {num_classes}) and not the ignore value",
                values_off + 2 * bad,
            )
        labels = LabelMap(values.reshape(b, h, w), num_classes, ignore_value)

    if cur.remaining:
        raise TrailingBytesError(f"{cur.remaining} unexpected trailing bytes", cur.offset)
    return cube, labels


def _encode(cube: Hypercube, labels: LabelMap | None) -> tuple[bytes, np.ndarray, bytes]:
    """The header, the float32 payload and the label block of the layout above.

    The label block is empty without labels. Raises :class:`DataError` for
    anything :func:`parse_cube` would reject, before anything is returned.
    """
    b, c, h, w = cube.dims
    if min(cube.dims) < 1:
        raise DataError(f"cube dimensions {cube.dims} include a zero")
    wavelengths = np.asarray(cube.wavelengths_nm, dtype=float)
    if not (np.all(np.isfinite(wavelengths)) and np.all(np.diff(wavelengths) > 0)):
        raise DataError("wavelengths must be finite and strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.asarray(cube.data).astype("<f4")
    if not np.all(np.isfinite(data)):
        raise DataError("reflectance values are not finite as float32")
    header = b"".join(
        [
            MAGIC,
            struct.pack("<H", VERSION),
            struct.pack("<4I", b, c, h, w),
            wavelengths.astype("<f8").tobytes(),
        ]
    )
    label_block = b""
    if labels is not None:
        values = np.asarray(labels.values)
        if values.shape != (b, h, w):
            raise DataError(f"label shape {values.shape} does not match cube {(b, h, w)}")
        num_classes, ignore = labels.num_classes, labels.ignore_value
        if not 1 <= num_classes <= _U16_MAX:
            raise DataError(f"invalid class count {num_classes}")
        if not 0 <= ignore <= _U16_MAX:
            raise DataError(f"ignore value {ignore} outside [0, {_U16_MAX}]")
        with np.errstate(invalid="ignore"):
            ints = values.astype(np.int64)
        if not np.array_equal(ints, values):
            raise DataError("labels must be integers")
        bad = (ints < 0) | ((ints >= num_classes) & (ints != ignore))
        if bad.any():
            raise DataError(
                f"label {ints[bad][0]} outside [0, {num_classes}) and not the ignore value {ignore}"
            )
        label_block = b"".join(
            [
                LABEL_MAGIC,
                struct.pack("<H", num_classes),
                struct.pack("<H", ignore),
                ints.astype("<u2").tobytes(),
            ]
        )
    return header, data, label_block


def serialize_cube(cube: Hypercube, labels: LabelMap | None = None) -> bytes:
    """Encode a cube and optional labels in the byte layout above.

    Raises :class:`DataError`, before any bytes are produced, for anything
    :func:`parse_cube` would reject, so a successful write reads back equal
    to its input after float32 rounding of the reflectances.
    """
    header, data, label_block = _encode(cube, labels)
    return b"".join([header, data.tobytes(), label_block])


def read_cube(path) -> tuple[Hypercube, LabelMap | None]:
    # The file goes straight into one numpy buffer, which parse_cube only
    # takes views of.
    return parse_cube(np.fromfile(path, dtype=np.uint8))


def write_cube(cube: Hypercube, labels: LabelMap | None, path) -> None:
    """Write the bytes of :func:`serialize_cube` to ``path``.

    Every check runs before the file is opened, so a rejected cube creates
    no file. The float32 payload goes from its array to the file, with no
    copy into a bytes object.
    """
    header, data, label_block = _encode(cube, labels)
    with open(path, "wb") as f:
        f.write(header)
        data.tofile(f)
        f.write(label_block)
