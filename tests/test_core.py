"""Raster types, seeded randomness, and container round-trips."""

import struct

import numpy as np
import pytest

from lactdiff.core import (
    DataError,
    DimensionError,
    FormatError,
    Image,
    ParameterError,
    PhantomKind,
    SeededRng,
    Sinogram,
    read_raster,
    write_pgm,
    write_raster,
)
from lactdiff.evaluation import PhantomSpec


class TestImage:
    def test_constant_fill(self):
        img = Image(2, 3, np.zeros((2, 3)))
        assert img.shape == (2, 3)
        assert np.all(img.data == 0.0)

    def test_single_pixel(self):
        img = Image(1, 1, [1.5])
        assert img.data[0, 0] == np.float32(1.5)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            Image(0, 4, np.zeros(0))

    def test_payload_length_mismatch(self):
        with pytest.raises(DimensionError):
            Image(2, 2, np.zeros(3))

    def test_nan_payload_rejected(self):
        data = np.zeros((2, 2))
        data[0, 1] = np.nan
        with pytest.raises(DataError):
            Image(2, 2, data)

    def test_data_is_float32_and_readonly(self):
        img = Image(2, 2, np.arange(4.0))
        assert img.data.dtype == np.float32
        with pytest.raises(ValueError):
            img.data[0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_data_is_a_c_order_copy(self, dtype):
        source = np.arange(6.0, dtype=dtype).reshape(3, 2).T
        img = Image(2, 3, source)
        assert img.data.flags.c_contiguous
        assert not np.shares_memory(img.data, source)
        assert img.data.tobytes() == source.astype(np.float32).tobytes()


class TestSinogram:
    def test_angles_must_increase(self):
        with pytest.raises(ParameterError):
            Sinogram(2, 3, [10.0, 10.0], np.zeros(6))

    def test_angles_must_stay_below_180(self):
        with pytest.raises(ParameterError):
            Sinogram(2, 3, [0.0, 180.0], np.zeros(6))

    def test_angle_count_must_match_views(self):
        with pytest.raises(DimensionError):
            Sinogram(2, 3, [0.0, 10.0, 20.0], np.zeros(6))


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7).standard_normal(5)
        b = SeededRng(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_stream_is_function_of_seed_only(self):
        rng = SeededRng(7)
        first = rng.standard_normal(3)
        rest = rng.standard_normal(3)
        both = SeededRng(7).standard_normal(6)
        assert np.array_equal(np.concatenate([first, rest]), both)

    def test_different_seeds_differ(self):
        assert SeededRng(7).standard_normal(1)[0] != SeededRng(8).standard_normal(1)[0]

    def test_moments(self):
        v = SeededRng(7).standard_normal(100000)
        assert abs(v.mean()) < 0.02
        assert abs(v.var() - 1.0) < 0.02

    def test_uniform_open_interval(self):
        u = SeededRng(3).uniform(10000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_seed_range_validated(self):
        # core's one seed rule, as the random source and a phantom spec apply it
        for seed in (-1, 1 << 64):
            with pytest.raises(ParameterError):
                SeededRng(seed)
            with pytest.raises(ParameterError, match="unsigned 64-bit"):
                PhantomSpec(PhantomKind.DISKS, 8, seed)
        assert PhantomSpec(PhantomKind.DISKS, 8, (1 << 64) - 1).seed == (1 << 64) - 1

    def test_count_validated(self):
        with pytest.raises(ParameterError):
            SeededRng(0).standard_normal(0)

    def test_frozen_stream_values(self):
        # golden values pin the documented algorithm (PCG64 bits,
        # open-interval uniforms, numpy's ziggurat normals); a change here is
        # a breaking change to every seeded artifact
        assert np.allclose(
            SeededRng(0).uniform(4),
            [0.6369616873214544, 0.2697867137638704,
             0.04097352393619469, 0.016527635528529205],
            rtol=0.0, atol=1e-15,
        )
        assert np.allclose(
            SeededRng(0).standard_normal(4),
            [0.1257302210933933, -0.1321048632913019,
             0.6404226504432821, 0.10490011715303971],
            rtol=0.0, atol=1e-12,
        )


class TestContainer:
    def test_image_round_trip_bit_exact(self, tmp_path):
        img = Image(3, 4, np.linspace(-2.0, 7.5, 12).reshape(3, 4))
        path = tmp_path / "img.ctr"
        write_raster(path, img)
        back = read_raster(path)
        assert back == img

    def test_sinogram_round_trip_bit_exact(self, tmp_path):
        sino = Sinogram(2, 3, [0.0, 90.5], np.arange(6.0))
        path = tmp_path / "sino.ctr"
        write_raster(path, sino)
        back = read_raster(path)
        assert back == sino

    def test_image_file_layout(self, tmp_path):
        img = Image(2, 2, [0.0, 1.0, 2.0, 3.0])
        path = tmp_path / "img.ctr"
        write_raster(path, img)
        blob = path.read_bytes()
        assert len(blob) == 16 + 16
        magic, kind, dtype, reserved, rows, cols = struct.unpack_from("<4sBBHII", blob)
        assert (magic, kind, dtype, reserved, rows, cols) == (b"CTR1", 0, 0, 0, 2, 2)
        assert np.array_equal(
            np.frombuffer(blob, "<f4", offset=16), [0.0, 1.0, 2.0, 3.0]
        )

    def test_sinogram_file_layout(self, tmp_path):
        sino = Sinogram(2, 3, [0.0, 45.0], np.zeros(6))
        path = tmp_path / "s.ctr"
        write_raster(path, sino)
        blob = path.read_bytes()
        assert len(blob) == 16 + 4 + 2 * 4 + 6 * 4
        (count,) = struct.unpack_from("<I", blob, 16)
        assert count == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ctr"
        path.write_bytes(b"XXXX" + bytes(28))
        with pytest.raises(FormatError):
            read_raster(path)

    def test_truncated_payload(self, tmp_path):
        img = Image(2, 2, np.zeros(4))
        path = tmp_path / "img.ctr"
        write_raster(path, img)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_raster(path)

    def test_nonzero_reserved_rejected(self, tmp_path):
        head = struct.pack("<4sBBHII", b"CTR1", 0, 1, 0, 1, 1)
        path = tmp_path / "odd.ctr"
        path.write_bytes(head + bytes(4))
        with pytest.raises(FormatError):
            read_raster(path)

    def test_non_finite_payload_is_data_error(self, tmp_path):
        head = struct.pack("<4sBBHII", b"CTR1", 0, 0, 0, 1, 1)
        path = tmp_path / "nan.ctr"
        path.write_bytes(head + struct.pack("<f", float("nan")))
        with pytest.raises(DataError):
            read_raster(path)

    def test_unwritable_path(self, tmp_path):
        img = Image(1, 1, [0.0])
        with pytest.raises(OSError):
            write_raster(tmp_path / "missing" / "img.ctr", img)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_raster(tmp_path / "nope.ctr")


class TestPgm:
    def test_minmax_normalization(self, tmp_path):
        img = Image(1, 3, [1.0, 2.0, 3.0])
        path = tmp_path / "p.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n3 1\n255\n")
        assert list(blob[-3:]) == [0, 128, 255]

    def test_constant_maps_to_zero(self, tmp_path):
        img = Image(2, 2, np.full((2, 2), 5.0))
        path = tmp_path / "c.pgm"
        write_pgm(path, img)
        assert set(path.read_bytes()[-4:]) == {0}

    def test_previews_are_not_reimportable(self, tmp_path):
        img = Image(2, 2, np.arange(4.0))
        path = tmp_path / "p.pgm"
        write_pgm(path, img)
        with pytest.raises(FormatError):
            read_raster(path)
