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
failure is one :class:`CubeFormatError` whose message names it and carries
the byte offset where parsing stopped. The writer runs the reader's value
checks, at the offsets the file would have had, so a cube is written only
if its bytes would parse. Reflectance is stored as float32 and widened to
float64 in memory.

One parser reads a stream front to back: :func:`read_cube` runs it over the
open file and :func:`parse_cube` over ``io.BytesIO``. It checks every declared
size against the stream's length before it reads or allocates for it, and
reads the float32 payload ``_CHUNK_VALUES`` values at a time into one reused
buffer, checking each chunk for finiteness and widening it straight into the
float64 cube. So the only payload-sized allocation of a read is the cube
itself, and the cube is not checked again when it is wrapped.
:func:`write_cube` holds one payload-sized array, the float32 copy of the
cube, and writes it to the file directly.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metrics import IGNORE_LABEL, _check_integer_labels
from .projection import Hypercube

MAGIC = b"HYPC"
LABEL_MAGIC = b"LBLS"
VERSION = 1
_U16_MAX = 0xFFFF
_CHUNK_VALUES = 1 << 18  # float32 payload values per read: a 1 MiB buffer


class CubeFormatError(DataError):
    """Malformed cube file; ``offset`` is where parsing stopped."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte offset {offset})")


@dataclass
class LabelMap:
    """Per-pixel class labels for a cube batch."""

    values: np.ndarray  # (B, H, W) integer labels
    num_classes: int
    ignore_value: int = IGNORE_LABEL


class _Cursor:
    """Reads a binary stream of ``size`` bytes front to back.

    Every read checks first that the stream holds the bytes it asks for, so
    a corrupt header cannot trigger a huge allocation.
    """

    def __init__(self, stream, size: int):
        self.stream = stream
        self.size = size
        self.offset = 0

    def need(self, count: int) -> None:
        end = self.offset + count
        if end > self.size:
            raise CubeFormatError(f"truncated file: expected {end} bytes, have {self.size}", self.offset)

    def read_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a contiguous array, with the next ``out.nbytes`` bytes."""
        self.need(out.nbytes)
        view = memoryview(out).cast("B")
        while view:
            got = self.stream.readinto(view)
            if not got:  # the file shrank while it was read
                raise CubeFormatError(f"truncated file: expected {self.size} bytes, have {self.offset}", self.offset)
            view = view[got:]
            self.offset += got
        return out

    def array(self, count: int, dtype: str) -> np.ndarray:
        self.need(count * np.dtype(dtype).itemsize)
        return self.read_into(np.empty(count, dtype))

    def take(self, count: int) -> bytes:
        return self.array(count, "u1").tobytes()

    @property
    def remaining(self) -> int:
        return self.size - self.offset


# The value checks, shared by the reader and the writer; each takes its field's offset.


def _check_dims(dims, offset: int) -> None:
    for i, (name, value) in enumerate(zip("BCHW", dims)):
        if value == 0:
            raise CubeFormatError(f"dimension {name} is zero", offset + 4 * i)


def _check_wavelengths(wavelengths: np.ndarray, offset: int) -> None:
    if not np.all(np.isfinite(wavelengths)):
        bad = int(np.flatnonzero(~np.isfinite(wavelengths))[0])
        raise CubeFormatError(f"wavelength {bad} is not finite", offset + 8 * bad)
    increasing = np.diff(wavelengths) > 0
    if not np.all(increasing):
        bad = int(np.flatnonzero(~increasing)[0]) + 1
        raise CubeFormatError(f"wavelengths not strictly increasing at channel {bad}", offset + 8 * bad)


def _check_reflectance(stored: np.ndarray, offset: int, first: int = 0) -> None:
    """``stored`` holds float32 values ``first, first + 1, ...`` of a payload at ``offset``."""
    # Its min or its max is NaN or infinite exactly when some value is, and
    # neither needs a temporary array.
    if not (np.isfinite(stored.min()) and np.isfinite(stored.max())):
        bad = first + int(np.flatnonzero(~np.isfinite(stored))[0])
        raise CubeFormatError(f"reflectance value {bad} is not finite", offset + 4 * bad)


def _check_class_count(num_classes: int, offset: int) -> None:
    if num_classes == 0:
        raise CubeFormatError("label block declares zero classes", offset)


def _check_labels(values: np.ndarray, num_classes: int, ignore_value: int, offset: int) -> None:
    """``values`` are whole numbers, none negative; a label's offset follows index order."""
    out_of_range = (values >= num_classes) & (values != ignore_value)
    if out_of_range.any():
        bad = int(np.flatnonzero(out_of_range)[0])
        label = int(values.flat[bad])
        raise CubeFormatError(f"label {label} outside [0, {num_classes}) and not the ignore value", offset + 2 * bad)


def _parse(stream, size: int) -> tuple[Hypercube, LabelMap | None]:
    """Parse the byte layout above from a binary stream of ``size`` bytes."""
    cur = _Cursor(stream, size)
    if cur.take(4) != MAGIC:
        raise CubeFormatError(f"bad magic, expected {MAGIC!r}", 0)
    (version,) = struct.unpack("<H", cur.take(2))
    if version != VERSION:
        raise CubeFormatError(f"unsupported version {version}", 4)
    b, c, h, w = struct.unpack("<4I", cur.take(16))
    _check_dims((b, c, h, w), 6)
    wavelengths = cur.array(c, "<f8").astype(float)
    _check_wavelengths(wavelengths, 22)
    data_off = cur.offset
    count = b * c * h * w
    cur.need(4 * count)
    data = np.empty(count)
    chunk = np.empty(min(count, _CHUNK_VALUES), "<f4")
    for start in range(0, count, len(chunk)):
        stored = cur.read_into(chunk[: count - start])
        _check_reflectance(stored, data_off, start)
        data[start : start + len(stored)] = stored
    # Every check Hypercube makes has been made above, on the stored values.
    cube = Hypercube._checked(data.reshape(b, c, h, w), wavelengths)

    labels = None
    if cur.remaining:
        block_off = cur.offset
        if cur.take(4) != LABEL_MAGIC:
            raise CubeFormatError(f"bad label-block magic, expected {LABEL_MAGIC!r}", block_off)
        k_off = cur.offset
        (num_classes,) = struct.unpack("<H", cur.take(2))
        _check_class_count(num_classes, k_off)
        (ignore_value,) = struct.unpack("<H", cur.take(2))
        values = cur.array(b * h * w, "<u2").astype(np.int64)
        _check_labels(values, num_classes, ignore_value, k_off + 4)
        labels = LabelMap(values.reshape(b, h, w), num_classes, ignore_value)

    if cur.remaining:
        raise CubeFormatError(f"{cur.remaining} unexpected trailing bytes", cur.offset)
    return cube, labels


def parse_cube(blob) -> tuple[Hypercube, LabelMap | None]:
    """Parse the byte layout above; raises :class:`CubeFormatError`.

    ``blob`` is any contiguous byte buffer, such as ``bytes`` or a ``np.uint8``
    array. The arrays returned are copies and never alias it.
    """
    blob = memoryview(blob).cast("B")
    return _parse(io.BytesIO(blob), len(blob))


def _encode(cube: Hypercube, labels: LabelMap | None) -> tuple[bytes, np.ndarray, bytes]:
    """The header, the float32 payload and the label block (empty without labels).

    Rejects with :class:`DataError` the label values u16 cannot hold, and runs
    the checks of :func:`parse_cube`, whose errors carry the offset the file
    would have had.
    """
    b, c, h, w = cube.dims
    _check_dims(cube.dims, 6)
    wavelengths = np.asarray(cube.wavelengths_nm, dtype=float)
    _check_wavelengths(wavelengths, 22)
    data_off = 22 + 8 * c
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.asarray(cube.data).astype("<f4")
    _check_reflectance(data, data_off)
    header = MAGIC + struct.pack("<H4I", VERSION, b, c, h, w) + wavelengths.astype("<f8").tobytes()
    label_block = b""
    if labels is not None:
        values = np.asarray(labels.values)
        if values.shape != (b, h, w):
            raise DataError(f"label shape {values.shape} does not match cube {(b, h, w)}")
        num_classes, ignore = labels.num_classes, labels.ignore_value
        for name, value in (("class count", num_classes), ("ignore value", ignore)):
            if not 0 <= value <= _U16_MAX:
                raise DataError(f"{name} {value} outside [0, {_U16_MAX}]")
        _check_integer_labels(values)
        if values.min() < 0:
            raise DataError(f"label {values[values < 0][0]} is negative")
        k_off = data_off + 4 * data.size + 4
        _check_class_count(num_classes, k_off)
        _check_labels(values, num_classes, ignore, k_off + 4)
        label_block = LABEL_MAGIC + struct.pack("<2H", num_classes, ignore) + values.astype("<u2").tobytes()
    return header, data, label_block


def serialize_cube(cube: Hypercube, labels: LabelMap | None = None) -> bytes:
    """Encode a cube and optional labels in the byte layout above.

    Raises, before any bytes are produced, for anything :func:`parse_cube`
    would reject, so a successful write reads back equal to its input after
    float32 rounding of the reflectances.
    """
    header, data, label_block = _encode(cube, labels)
    return b"".join([header, data.tobytes(), label_block])


def read_cube(path) -> tuple[Hypercube, LabelMap | None]:
    """:func:`parse_cube` of the file's bytes, read from the file in chunks."""
    with open(path, "rb", buffering=0) as f:
        return _parse(f, os.fstat(f.fileno()).st_size)


def write_cube(cube: Hypercube, labels: LabelMap | None, path) -> None:
    """Write the bytes of :func:`serialize_cube` to ``path``.

    Every check runs before the file is opened, so a rejected cube creates no
    file. The float32 payload goes to the file with no copy into a bytes object.
    """
    header, data, label_block = _encode(cube, labels)
    with open(path, "wb") as f:
        f.write(header)
        data.tofile(f)
        f.write(label_block)
