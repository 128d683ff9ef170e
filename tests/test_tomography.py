"""Projection operators: geometry, adjointness, filtering, and FBP."""

import numpy as np
import pytest
import scipy.sparse as sp

from lactdiff import tomography
from lactdiff.core import DimensionError, Image, ParameterError, Sinogram
from lactdiff.evaluation import PhantomKind, PhantomSpec, make_phantom, psnr
from lactdiff.tomography import (
    FilterKind,
    Geometry,
    TomoOperator,
    back_project,
    backproject_array,
    default_detectors,
    fbp_reconstruct,
    forward_project,
    make_limited_geometry,
    project_array,
    ramp_filter,
    square_geometry,
)


def coverage_disk(n: int, radius_px: float, sub: int = 8) -> np.ndarray:
    """Centered disk rasterized by subpixel coverage, radius in pixels."""
    fine = n * sub
    c = (np.arange(fine) - (fine - 1) / 2.0) / sub
    inside = (c[None, :] ** 2 + c[:, None] ** 2) <= radius_px**2
    return inside.reshape(n, sub, n, sub).mean(axis=(1, 3))


def coo_stencil_matrix(geom: Geometry) -> sp.csr_matrix:
    """Reference plan: COO triplets of every in-range stencil entry, then tocsr."""
    rows_n, cols_n, det = geom.image_rows, geom.image_cols, geom.detectors
    row_idx, col_idx, values = [], [], []
    for v, theta_deg in enumerate(geom.angles_deg):
        drive_rows, coord, weight = tomography._view_coords(geom, theta_deg)
        n_drive = coord.shape[0]
        interp_n = cols_n if drive_rows else rows_n
        j0 = np.floor(coord).astype(np.int64)
        frac = coord - j0
        det_grid = np.broadcast_to(np.arange(det, dtype=np.int64)[None, :], coord.shape)
        drive_grid = np.broadcast_to(
            np.arange(n_drive, dtype=np.int64)[:, None], coord.shape
        )
        for idx, w in ((j0, weight * (1.0 - frac)), (j0 + 1, weight * frac)):
            keep = (idx >= 0) & (idx < interp_n)
            if drive_rows:
                flat_col = drive_grid[keep] * cols_n + idx[keep]
            else:
                flat_col = idx[keep] * cols_n + drive_grid[keep]
            row_idx.append(v * det + det_grid[keep])
            col_idx.append(flat_col)
            values.append(w[keep])
    coo = sp.coo_matrix(
        (np.concatenate(values), (np.concatenate(row_idx), np.concatenate(col_idx))),
        shape=(geom.n_views * det, rows_n * cols_n),
    )
    return coo.tocsr()


class TestStencilPlan:
    @pytest.mark.parametrize(
        "geom",
        [
            make_limited_geometry(32, default_detectors(32), 40, 60.0),
            make_limited_geometry(32, default_detectors(32), 45, 180.0),
            make_limited_geometry(37, default_detectors(37), 50, 180.0),
            make_limited_geometry(16, 23, 1, 180.0),
            Geometry(16, 16, 23, [90.0]),
            Geometry(13, 21, 40, np.linspace(0.0, 179.0, 33)),
            Geometry(24, 9, 30, [0.0, 45.0, 90.0, 135.0, 170.5]),
            make_limited_geometry(30, 20, 77, 180.0),
            # 36,787 entries against a 512,000-entry bound: the build's
            # buffers are 14 times the plan before they shrink in place
            make_limited_geometry(32, 400, 20, 180.0),
        ],
        ids=["60deg", "180deg", "odd-size", "one-view-0deg", "one-view-90deg",
             "non-square", "non-square-tall", "widened-spacing", "wide-detector"],
    )
    def test_matches_coo_reference(self, geom):
        plan = tomography._build_stencil_matrix(geom)
        ref = coo_stencil_matrix(geom)
        assert plan.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(plan, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert plan.has_sorted_indices

    def test_keeps_explicit_zeros(self):
        # a ray through integer crossings puts zero weight on one neighbour;
        # the entry stays in the plan, as tocsr keeps it
        geom = Geometry(24, 9, 30, [0.0, 45.0, 90.0, 135.0, 170.5])
        plan = tomography._build_stencil_matrix(geom)
        assert np.count_nonzero(plan.data == 0.0) > 0


class TestGeometry:
    def test_even_spacing_half_open(self):
        geom = make_limited_geometry(64, 95, 4, 180.0)
        assert np.array_equal(geom.angles_deg, [0.0, 45.0, 90.0, 135.0])

    def test_quarter_degree_spacing(self):
        geom = make_limited_geometry(512, 512, 720, 180.0)
        steps = np.diff(geom.angles_deg)
        assert np.allclose(steps, 0.25, atol=1e-12)

    def test_limited_range_spacing(self):
        geom = make_limited_geometry(64, 95, 240, 60.0)
        assert np.allclose(geom.angles_deg, 0.25 * np.arange(240), atol=1e-12)
        assert geom.angles_deg[-1] == pytest.approx(59.75)

    def test_theta_max_out_of_range(self):
        with pytest.raises(ParameterError):
            make_limited_geometry(64, 95, 4, 200.0)
        with pytest.raises(ParameterError):
            make_limited_geometry(64, 95, 4, 0.0)

    def test_detector_span_must_cover_diagonal(self):
        with pytest.raises(ParameterError):
            Geometry(64, 64, 50, [0.0, 90.0])

    def test_narrow_array_widens_spacing(self):
        geom = make_limited_geometry(512, 512, 720, 180.0)
        assert geom.detectors * geom.detector_spacing >= np.hypot(512, 512) - 1e-6

    @pytest.mark.parametrize("detectors", [0, -1])
    def test_square_geometry_rejects_a_count_below_one(self, detectors):
        with pytest.raises(ParameterError, match="detector count"):
            square_geometry(16, detectors, [0.0, 45.0])

    def test_default_detectors(self):
        assert default_detectors(64) == 92
        assert default_detectors(128) == 183


class TestForwardProjection:
    def test_zero_image_projects_to_zero(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        sino = forward_project(Image(16, 16, np.zeros((16, 16))), geom)
        assert np.all(sino.data == 0.0)

    def test_linearity(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 16))
        a = project_array(3.5 * x, geom)
        b = 3.5 * project_array(x, geom)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_disk_chord_profile(self):
        # oracle: the line integral through a unit disk is 2*sqrt(R^2 - r^2);
        # the bound is checked away from the tangent ray, where the ideal
        # profile has unbounded slope and no raster can match it pointwise
        n, radius = 128, 40.0
        disk = coverage_disk(n, radius)
        geom = make_limited_geometry(n, default_detectors(n), 12, 180.0)
        sino = project_array(disk, geom)
        r = geom.detector_offsets()
        chord = 2.0 * np.sqrt(np.maximum(radius**2 - r**2, 0.0))
        interior = np.abs(r) <= radius - geom.pixel_size
        dev = np.abs(sino - chord[None, :])[:, interior]
        assert dev.max() <= 2.0 * geom.pixel_size

    def test_rotational_consistency(self):
        n, radius = 128, 40.0
        disk = coverage_disk(n, radius)
        geom = make_limited_geometry(n, default_detectors(n), 12, 180.0)
        sino = project_array(disk, geom)
        spread = np.abs(sino - sino.mean(axis=0, keepdims=True))
        assert spread.max() <= 2.0 * geom.pixel_size

    def test_dimension_mismatch(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        with pytest.raises(DimensionError):
            forward_project(Image(8, 8, np.zeros((8, 8))), geom)


class TestAdjoint:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("views", [10, 45, 90])
    def test_adjoint_identity(self, n, views):
        geom = make_limited_geometry(n, default_detectors(n), views, 180.0)
        rng = np.random.default_rng(n * 1000 + views)
        for _ in range(5):
            x = rng.standard_normal((n, n))
            y = rng.standard_normal((views, geom.detectors))
            ax = project_array(x, geom)
            aty = backproject_array(y, geom)
            lhs = float((ax * y).sum())
            rhs = float((x * aty).sum())
            bound = 1e-4 * np.linalg.norm(ax) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= bound

    def test_zero_sinogram(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        img = back_project(
            Sinogram(8, 23, geom.angles_deg, np.zeros((8, 23))), geom
        )
        assert np.all(img.data == 0.0)

    def test_single_bin_backprojects_to_one_strip(self):
        # at angle 0 a detector bin maps onto at most two adjacent columns
        geom = make_limited_geometry(16, 23, 1, 180.0)
        data = np.zeros((1, 23))
        data[0, 11] = 1.0
        img = backproject_array(data, geom)
        nonzero_cols = np.flatnonzero(np.abs(img).sum(axis=0) > 0)
        assert nonzero_cols.size <= 2
        assert np.all(np.diff(nonzero_cols) == 1) or nonzero_cols.size == 1

    def test_linearity(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        rng = np.random.default_rng(6)
        y = rng.standard_normal((8, 23))
        a = backproject_array(-1.4 * y, geom)
        b = -1.4 * backproject_array(y, geom)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_angle_mismatch_rejected(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        other = Sinogram(8, 23, geom.angles_deg + 1.0, np.zeros((8, 23)))
        with pytest.raises(DimensionError):
            back_project(other, geom)


def fresh_geometry() -> Geometry:
    # both driving axes on a non-square image; each test takes a new geometry,
    # because a geometry keeps the plan it builds on first use
    return Geometry(13, 21, 40, np.linspace(0.0, 179.0, 33))


class TestPlanBlocks:
    """Each view's stencil is a block of plan rows.  Above _PLAN_NNZ_LIMIT the
    geometry keeps no plan, and products stream those blocks one view at a
    time, with the bits of the whole plan's products."""

    @staticmethod
    def limit_views(monkeypatch, geom, views):
        # the plan's estimate is views * _view_nnz_bound, so this keeps the
        # whole plan from `views` = 33 (the geometry's view count) up
        limit = views * tomography._view_nnz_bound(geom)
        monkeypatch.setattr(tomography, "_PLAN_NNZ_LIMIT", limit)

    @pytest.mark.parametrize("views", [1, 7, 32, 33, 50])
    def test_blocks_stack_to_the_plan(self, monkeypatch, views):
        geom = fresh_geometry()
        whole = tomography._build_stencil_matrix(geom)
        self.limit_views(monkeypatch, geom, views)
        if views >= geom.n_views:
            assert tomography._stencil_plan(geom) is not None
        else:
            assert tomography._stencil_plan(geom) is None
        work = tomography._stencil_work(geom)
        blocks = [tomography._view_stencil(geom, t, work) for t in geom.angles_deg]
        counts = np.concatenate([block[0] for block in blocks])
        assert np.array_equal(np.cumsum([0, *counts]), whole.indptr)
        for i, name in enumerate(("indices", "data"), start=1):
            stacked = np.concatenate([block[i] for block in blocks])
            assert stacked.dtype == getattr(whole, name).dtype, name
            assert np.array_equal(stacked, getattr(whole, name)), name

    def test_one_coordinate_walk_per_view(self, monkeypatch):
        calls = []
        original = tomography._view_coords

        def counted(geom, theta_deg, out=None):
            calls.append(theta_deg)
            return original(geom, theta_deg, out=out)

        monkeypatch.setattr(tomography, "_view_coords", counted)
        geom = fresh_geometry()
        x, y = np.ones((13, 21)), np.ones((33, 40))
        for product in (lambda: tomography._build_stencil_matrix(geom),
                        lambda: project_array(x, geom),
                        lambda: backproject_array(y, geom)):
            calls.clear()
            product()
            assert calls == list(geom.angles_deg)

    @pytest.mark.parametrize("views", [1, 7])
    def test_products_match_the_whole_plan(self, monkeypatch, views):
        geom = fresh_geometry()
        whole = tomography._build_stencil_matrix(geom)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((13, 21))
        y = rng.standard_normal((33, 40))
        want_ax, want_aty = whole @ x.ravel(), whole.T @ y.ravel()
        self.limit_views(monkeypatch, geom, views)
        op = TomoOperator(geom)
        for got in (project_array(x, geom).ravel(), op.forward(x.ravel())):
            assert np.array_equal(got, want_ax)
        for got in (backproject_array(y, geom).ravel(), op.adjoint(y.ravel())):
            assert np.array_equal(got, want_aty)
        assert geom.plan is None


class TestOneOffProducts:
    """forward_project, back_project and fbp_reconstruct build no plan; they
    stream the stencil."""

    def test_stream_without_a_plan(self, monkeypatch):
        def refuse(geom):
            raise AssertionError("the plan was built")

        monkeypatch.setattr(tomography, "_build_stencil_matrix", refuse)
        geom = fresh_geometry()
        image = Image(13, 21, np.random.default_rng(13).standard_normal((13, 21)))
        sino = forward_project(image, geom)
        back_project(sino, geom)
        fbp_reconstruct(sino, geom)
        assert "plan" not in geom.__dict__


class TestTomoOperator:
    GEOM = Geometry(13, 21, 40, np.linspace(0.0, 179.0, 33))

    def test_products_equal_the_array_functions(self):
        op = TomoOperator(self.GEOM)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((13, 21))
        y = rng.standard_normal((33, 40))
        assert np.array_equal(op.forward(x.ravel()), project_array(x, self.GEOM).ravel())
        assert np.array_equal(op.adjoint(y.ravel()), backproject_array(y, self.GEOM).ravel())

    def test_fetches_the_plan_once(self, monkeypatch):
        builds = []
        original = tomography._build_stencil_matrix

        def counted(geom):
            builds.append(geom)
            return original(geom)

        monkeypatch.setattr(tomography, "_build_stencil_matrix", counted)
        geom = fresh_geometry()
        x = np.ones(13 * 21)
        for op in (TomoOperator(geom), TomoOperator(geom)):
            for _ in range(5):
                x = op.adjoint(op.forward(x))
        assert builds == [geom]

    def test_size_mismatch(self):
        op = TomoOperator(self.GEOM)
        with pytest.raises(DimensionError):
            op.forward(np.zeros(13 * 21 + 1))
        with pytest.raises(DimensionError):
            op.adjoint(np.zeros((33, 39)))


class TestRampFilter:
    def _sino(self, data):
        views, det = data.shape
        angles = 180.0 * np.arange(views) / views
        return Sinogram(views, det, angles, data)

    def test_rows_have_zero_mean(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((6, 95))
        out = ramp_filter(self._sino(data)).as_f64()
        norms = np.linalg.norm(out, axis=1)
        assert np.all(np.abs(out.mean(axis=1)) <= 1e-6 * norms)

    def test_impulse_response_symmetric(self):
        data = np.zeros((1, 95))
        data[0, 47] = 1.0
        out = ramp_filter(self._sino(data)).as_f64()[0]
        assert np.allclose(out, out[::-1], atol=1e-12)

    def test_linearity(self):
        # rasters quantize to float32, so linearity holds to that precision
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 64))
        a = ramp_filter(self._sino(2.5 * data)).as_f64()
        b = 2.5 * ramp_filter(self._sino(data)).as_f64()
        assert np.allclose(a, b, rtol=1e-5, atol=1e-5)

    def test_needs_two_detectors(self):
        with pytest.raises(ParameterError):
            ramp_filter(self._sino(np.zeros((2, 1))))

    def test_hann_tames_high_frequencies(self):
        data = np.zeros((1, 64))
        data[0, 32] = 1.0
        ram = ramp_filter(self._sino(data), FilterKind.RAM_LAK).as_f64()
        hann = ramp_filter(self._sino(data), FilterKind.HANN).as_f64()
        assert np.abs(hann).max() < np.abs(ram).max()


class TestFbp:
    def test_zero_sinogram_reconstructs_zero(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        img = fbp_reconstruct(
            Sinogram(8, 23, geom.angles_deg, np.zeros((8, 23))), geom
        )
        assert np.all(img.data == 0.0)

    def test_full_view_disk_accuracy(self):
        n = 128
        disk = Image(n, n, coverage_disk(n, 0.35 * n))
        geom = make_limited_geometry(n, default_detectors(n), 180, 180.0)
        recon = fbp_reconstruct(forward_project(disk, geom), geom, FilterKind.RAM_LAK)
        assert psnr(recon, disk) >= 30.0

    def test_limited_angle_is_worse(self):
        n = 64
        phantom = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, n))
        full = make_limited_geometry(n, default_detectors(n), 90, 180.0)
        limited = make_limited_geometry(n, default_detectors(n), 30, 60.0)
        p_full = psnr(fbp_reconstruct(forward_project(phantom, full), full), phantom)
        p_lim = psnr(
            fbp_reconstruct(forward_project(phantom, limited), limited), phantom
        )
        assert p_lim < p_full

    def test_linearity(self):
        geom = make_limited_geometry(16, 23, 8, 180.0)
        rng = np.random.default_rng(7)
        data = rng.standard_normal((8, 23))
        sino_a = Sinogram(8, 23, geom.angles_deg, 2.0 * data)
        sino_b = Sinogram(8, 23, geom.angles_deg, data)
        a = fbp_reconstruct(sino_a, geom).as_f64()
        b = 2.0 * fbp_reconstruct(sino_b, geom).as_f64()
        assert np.allclose(a, b, rtol=1e-5, atol=1e-5)

    def test_psnr_monotone_in_angular_coverage(self):
        n = 64
        phantom = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=5))
        scores = []
        for theta in (60, 90, 120, 180):
            geom = make_limited_geometry(n, default_detectors(n), theta, theta)
            recon = fbp_reconstruct(forward_project(phantom, geom), geom)
            scores.append(psnr(recon, phantom))
        assert np.all(np.diff(scores) >= 0.0)
