"""Raster types, phantom kinds, seeded randomness, and the CTR1 binary container.

Rasters store 32-bit floats, the same precision the container serializes,
so a write/read cycle is bit-exact.  Numerical routines elsewhere promote
to float64 internally and cast back when producing a raster.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Raster or operator dimensions are invalid or inconsistent."""


class ParameterError(ValueError):
    """A scalar parameter is outside its documented range."""


class DataError(ValueError):
    """Payload values violate finiteness or range invariants."""


class FormatError(ValueError):
    """A container file is malformed."""


class NumericalError(ArithmeticError):
    """A computation produced a non-finite or otherwise invalid state."""


F32_MAX = float(np.finfo(np.float32).max)  # the largest value a raster can hold


def unit_rescale(arr: np.ndarray) -> np.ndarray:
    """arr mapped onto [0, 1] by its min and max (rounding is monotone, so no
    entry exceeds 1); a constant array maps to zeros."""
    lo, hi = arr.min(), arr.max()
    return (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)


class PhantomKind(enum.Enum):
    """The test objects of evaluation.make_phantom, by their `phantom --kind` names."""

    SHEPP_LOGAN = "shepp_logan"
    DISKS = "disks"
    ELLIPSES = "ellipses"


def _frozen_f32(data, rows, cols, what):
    # the one copy; C order, so a transposed input reduces in the same order
    arr = np.array(data, dtype=np.float32, order="C")
    if arr.size != rows * cols:
        raise DimensionError(
            f"{what} payload has {arr.size} values, expected {rows}x{cols}"
        )
    arr = arr.reshape(rows, cols)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _check_view_angles(angles: np.ndarray, nonfinite_error: type) -> None:
    """The view-angle rule of Sinogram and Geometry: finite (else
    nonfinite_error), within [0, 180) degrees and strictly increasing."""
    if not np.all(np.isfinite(angles)):
        raise nonfinite_error("view angles must be finite")
    if np.any(angles < 0.0) or np.any(angles >= 180.0):
        raise ParameterError("view angles must lie in [0, 180) degrees")
    if np.any(np.diff(angles) <= 0.0):
        raise ParameterError("view angles must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Image:
    """H x W grid of attenuation values, row-major float32."""

    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"image dimensions must be positive, got {self.rows}x{self.cols}")
        object.__setattr__(self, "data", _frozen_f32(self.data, self.rows, self.cols, "image"))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def as_f64(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.float64)

    def __eq__(self, other):
        return (
            isinstance(other, Image)
            and self.shape == other.shape
            and self.data.tobytes() == other.data.tobytes()
        )


@dataclass(frozen=True, eq=False)
class Sinogram:
    """V x D grid of line integrals with one acquisition angle per view.

    Angles are degrees, strictly increasing within [0, 180).
    """

    views: int
    detectors: int
    angles_deg: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if self.views < 1 or self.detectors < 1:
            raise DimensionError(
                f"sinogram dimensions must be positive, got {self.views}x{self.detectors}"
            )
        angles = np.array(self.angles_deg, dtype=np.float32).ravel()
        if angles.size != self.views:
            raise DimensionError(f"expected {self.views} angles, got {angles.size}")
        # a non-finite angle is corrupt payload, as a non-finite value is
        _check_view_angles(angles, DataError)
        angles.setflags(write=False)
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(
            self, "data", _frozen_f32(self.data, self.views, self.detectors, "sinogram")
        )

    @property
    def shape(self):
        return (self.views, self.detectors)

    def as_f64(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.float64)

    def __eq__(self, other):
        return (
            isinstance(other, Sinogram)
            and self.shape == other.shape
            and self.angles_deg.tobytes() == other.angles_deg.tobytes()
            and self.data.tobytes() == other.data.tobytes()
        )


def check_seed(seed: int) -> int:
    """seed, refused with ParameterError unless an unsigned 64-bit integer."""
    if not 0 <= seed < (1 << 64):
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


class SeededRng:
    """Deterministic random source: one PCG64 bit stream for both kinds of draw.

    Each 64-bit word w becomes the open-interval uniform
    u = ((w >> 12) + 0.5) * 2**-52, a mapping frozen across platforms, and
    standard normals are numpy's ziggurat draws from the same bit generator
    (numpy's stream policy lets those change with a numpy release; a golden
    test pins them).  The whole value stream is a pure function of the seed.
    Instances are single-owner; never share one across concurrent chains.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(check_seed(int(seed)))
        self._normals = np.random.Generator(self._bits)

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in the open interval (0, 1)."""
        if n < 1:
            raise ParameterError(f"sample count must be >= 1, got {n}")
        raw = self._bits.random_raw(n)
        return ((raw >> np.uint64(12)) + 0.5) * 2.0**-52

    def standard_normal(self, n: int) -> np.ndarray:
        if n < 1:
            raise ParameterError(f"sample count must be >= 1, got {n}")
        return self._normals.standard_normal(n)

    def normal_image(self, rows: int, cols: int) -> Image:
        return Image(rows, cols, self.standard_normal(rows * cols).reshape(rows, cols))


_MAGIC = b"CTR1"
_KIND_IMAGE = 0
_KIND_SINOGRAM = 1
_DTYPE_F32 = 0
_HEADER = struct.Struct("<4sBBHII")


def write_raster(path, payload) -> None:
    """Write an Image or Sinogram to `path` in the CTR1 container.

    Layout (little-endian): magic "CTR1", kind u8 (0=image, 1=sinogram),
    dtype u8 (0=f32), reserved u16 = 0, rows u32, cols u32; sinograms add
    an angle block (count u32 == rows, then count f32 degrees); then the
    rows*cols f32 payload, row-major.
    """
    if isinstance(payload, Image):
        head = _HEADER.pack(_MAGIC, _KIND_IMAGE, _DTYPE_F32, 0, payload.rows, payload.cols)
        blocks = [head, payload.data.astype("<f4", copy=False).tobytes()]
    elif isinstance(payload, Sinogram):
        head = _HEADER.pack(
            _MAGIC, _KIND_SINOGRAM, _DTYPE_F32, 0, payload.views, payload.detectors
        )
        blocks = [
            head,
            struct.pack("<I", payload.views),
            payload.angles_deg.astype("<f4", copy=False).tobytes(),
            payload.data.astype("<f4", copy=False).tobytes(),
        ]
    else:
        raise ParameterError(f"cannot serialize {type(payload).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"".join(blocks))


def read_raster(path):
    """Parse a CTR1 container back into an Image or Sinogram.

    Raises FormatError for malformed files and DataError for non-finite
    payload values.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("file shorter than the CTR1 header")
    magic, kind, dtype, reserved, rows, cols = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if dtype != _DTYPE_F32:
        raise FormatError(f"unsupported dtype code {dtype}")
    if reserved != 0:
        raise FormatError(f"reserved field must be 0, got {reserved}")
    if rows < 1 or cols < 1:
        raise FormatError(f"invalid dimensions {rows}x{cols}")
    offset = _HEADER.size

    angles = None
    if kind == _KIND_SINOGRAM:
        if len(blob) < offset + 4:
            raise FormatError("truncated angle block")
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if count != rows:
            raise FormatError(f"angle count {count} != view count {rows}")
        if len(blob) < offset + 4 * count:
            raise FormatError("truncated angle block")
        angles = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
    elif kind != _KIND_IMAGE:
        raise FormatError(f"unknown raster kind {kind}")

    expected = rows * cols * 4
    if len(blob) - offset != expected:
        raise FormatError(
            f"payload holds {len(blob) - offset} bytes, expected {expected}"
        )
    data = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=offset)

    try:
        if kind == _KIND_IMAGE:
            return Image(rows, cols, data)
        return Sinogram(rows, cols, angles, data)
    except DataError:
        raise
    except ValueError as exc:
        raise FormatError(f"invalid raster content: {exc}") from exc


def write_pgm(path, raster) -> None:
    """8-bit binary PGM preview, min-max normalized; constant rasters map to 0.

    For human inspection only; previews are never re-imported.
    """
    arr = np.asarray(raster.data, dtype=np.float64)
    quant = np.round(unit_rescale(arr) * 255.0).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + quant.tobytes())
