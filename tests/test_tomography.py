"""Projection operators: geometry, adjointness, filtering, and FBP."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import PlanReference, walked_matrix
from lactdiff import tomography
from lactdiff.core import (
    DataError,
    DimensionError,
    Image,
    ParameterError,
    Sinogram,
    read_raster,
    write_raster,
)
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
    """Reference plan: COO triplets of every in-range stencil entry, then tocsr.

    A view in a mirror run takes its partner's walk, with the detector order
    reversed and every pixel index transposed."""
    rows_n, cols_n, det = geom.image_rows, geom.image_cols, geom.detectors
    partners = {lo + k: top - k for lo, hi, top in geom.mirror_runs for k in range(hi - lo + 1)}
    row_idx, col_idx, values = [], [], []
    coord_buf = np.empty((max(rows_n, cols_n), det))
    for v in range(geom.n_views):
        walked = partners.get(v, v)
        drive_rows, coord, weight = tomography._view_coords(
            geom, geom.angles_deg[walked], coord_buf
        )
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
            pixel_row, pixel_col = (
                (drive_grid[keep], idx[keep]) if drive_rows else (idx[keep], drive_grid[keep])
            )
            if walked != v:
                pixel_row, pixel_col = pixel_col, pixel_row
                row_idx.append(v * det + det - 1 - det_grid[keep])
            else:
                row_idx.append(v * det + det_grid[keep])
            col_idx.append(pixel_row * cols_n + pixel_col)
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
        # the plan keeps each row in walk order, the reference in column
        # order, so the entries are compared once both rows are sorted
        plan = PlanReference(tomography._build_stencil_matrix(geom)).matrix.sorted_indices()
        ref = coo_stencil_matrix(geom)
        assert plan.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(plan, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_keeps_explicit_zeros(self):
        # a ray through integer crossings puts zero weight on one neighbour;
        # the entry stays in the plan, as tocsr keeps it
        geom = Geometry(24, 9, 30, [0.0, 45.0, 90.0, 135.0, 170.5])
        plan = tomography._build_stencil_matrix(geom)
        assert np.count_nonzero(plan.data == 0.0) > 0

    @pytest.mark.parametrize(
        "geom",
        [
            Geometry(13, 21, 40, np.linspace(0.0, 179.0, 33)),
            square_geometry(16, 23, [44.9, 45.0, 45.1, 134.9, 135.0, 135.1]),
            Geometry(24, 9, 30, [44.9, 45.0, 45.1, 134.9, 135.0, 135.1]),
        ],
        ids=["non-square", "diagonals-square", "diagonals-non-square"],
    )
    def test_rows_in_walk_order(self, geom):
        # within a detector row the driving index never falls, and a step's
        # j0 entry comes right before its j0+1 entry
        work = tomography._stencil_work(geom)
        for theta_deg in geom.angles_deg:
            drive_rows = tomography._view_coords(geom, theta_deg, work[0])[0]
            counts, cols, _ = tomography._view_stencil(geom, theta_deg, work)
            pixel_row, pixel_col = np.divmod(cols, geom.image_cols)
            drive, interp = (pixel_row, pixel_col) if drive_rows else (pixel_col, pixel_row)
            for row in np.split(np.arange(cols.size), np.cumsum(counts)[:-1]):
                step = np.diff(drive[row])
                assert np.all(step >= 0), theta_deg
                assert np.all(np.diff(interp[row])[step == 0] == 1), theta_deg


# the benchmark's two geometries, 90 degrees, and 180 degrees with a 0/90 pair
MIRRORED = [
    make_limited_geometry(128, default_detectors(128), 240, 60.0),
    make_limited_geometry(64, default_detectors(64), 120, 60.0),
    make_limited_geometry(64, default_detectors(64), 120, 90.0),
    make_limited_geometry(64, default_detectors(64), 120, 180.0),
]
MIRRORED_IDS = ["128-60deg", "64-60deg", "64-90deg", "64-180deg"]


class TestMirrorRuns:
    """View 90 - t of an image is view t of its transpose with the detector
    order reversed; the plan stores one view of each such pair."""

    @pytest.mark.parametrize("geom", MIRRORED, ids=MIRRORED_IDS)
    def test_mirrored_views_are_their_walked_stencils(self, geom):
        # each mirrored view's walk has its partner's entries, reversed onto
        # the transposed image: the same indices in each row, except where a
        # coordinate lies within 1e-9 of an integer, and weights that differ
        # by the coordinate's rounding, n float64 ulps of the path length
        n, det = geom.image_rows, geom.detectors
        work = tomography._stencil_work(geom)
        tolerance = 4 * n * np.finfo(np.float64).eps * geom.pixel_size / np.cos(np.pi / 4)
        assert geom.mirror_runs
        for lo, hi, top in geom.mirror_runs:
            for v, w in zip(range(lo, hi + 1), range(top, top - (hi - lo) - 1, -1)):
                assert geom.angles_deg[v] == 90.0 - geom.angles_deg[w]
                coord = tomography._view_coords(geom, geom.angles_deg[v], work[0])[1]
                near = np.any(np.abs(coord - np.round(coord)) <= 1e-9, axis=0)
                counts, indices, data = (
                    a.copy() for a in tomography._view_stencil(geom, geom.angles_deg[v], work)
                )
                p_counts, p_indices, p_data = tomography._view_stencil(
                    geom, geom.angles_deg[w], work
                )
                pixel_row, pixel_col = np.divmod(p_indices, n)
                p_indices = pixel_col * n + pixel_row
                rows = np.split(indices, np.cumsum(counts)[:-1])
                p_rows = np.split(p_indices, np.cumsum(p_counts)[:-1])[::-1]
                for d in np.flatnonzero(~near):
                    assert np.array_equal(rows[d], p_rows[d]), (v, d)
                walked = sp.csr_matrix(
                    (data, indices, np.concatenate([[0], np.cumsum(counts)])), shape=(det, n * n)
                )
                p_indptr = np.concatenate([[0], np.cumsum(p_counts)])
                mirrored = sp.csr_matrix((p_data, p_indices, p_indptr), shape=(det, n * n))[::-1]
                assert abs(walked - mirrored).max() <= tolerance, v

    @pytest.mark.parametrize("geom", MIRRORED, ids=MIRRORED_IDS)
    def test_products_match_the_walked_operator(self, geom):
        walked = walked_matrix(geom)
        op = TomoOperator(geom)
        rng = np.random.default_rng(geom.n_views)
        x, y = rng.standard_normal(op.shape[1]), rng.standard_normal(op.shape[0])
        ax, aty = walked @ x, walked.T @ y
        assert np.linalg.norm(op.forward(x) - ax) <= 1e-13 * np.linalg.norm(ax)
        assert np.linalg.norm(op.adjoint(y) - aty) <= 1e-13 * np.linalg.norm(aty)

    @pytest.mark.parametrize(
        "geom",
        [Geometry(12, 16, 21, [10.0, 30.0, 45.0, 60.0, 80.0]),
         make_limited_geometry(32, default_detectors(32), 45, 180.0)],
        ids=["non-square", "180deg-4deg-steps"],
    )
    def test_geometries_without_pairs_store_every_view(self, geom):
        # no image transpose to pair views on, and no 90 - t among 4k degrees
        rows = geom.n_views * geom.detectors
        plan = tomography._build_stencil_matrix(geom)
        assert geom.mirror_runs == ()
        assert plan.indptr.size == rows + 1
        assert plan.pieces == ((0, rows, 0, 0),)

    def test_the_plan_limit_counts_the_stored_views(self, monkeypatch):
        # 35 and 40 degrees are stored, 50 and 55 are mirrored
        def geometry():
            return make_limited_geometry(16, 24, 12, 60.0)

        geom = geometry()
        assert geom.mirror_runs == ((10, 11, 8),)
        stored = len(tomography._stored_views(geom)) * tomography._view_nnz_bound(geom)
        every = geom.n_views * tomography._view_nnz_bound(geom)
        monkeypatch.setattr(tomography, "_PLAN_NNZ_LIMIT", (stored + every) // 2)
        assert geom.plan is not None
        monkeypatch.setattr(tomography, "_PLAN_NNZ_LIMIT", stored - 1)
        assert geometry().plan is None


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

    def test_digest_is_the_sha256_of_the_geometry(self):
        geom = Geometry(13, 21, 40, np.linspace(0.0, 179.0, 33), 1.0, 1.25)
        h = hashlib.sha256()
        h.update(np.array([13, 21, 40, 1.0, 1.25], dtype=np.float64).tobytes())
        h.update(geom.angles_deg.astype(np.float32).tobytes())
        assert geom.digest() == h.hexdigest()[:16]

    @pytest.mark.parametrize(
        "angles",
        [[0.0, np.nan, 20.0], [-1.0, 10.0, 20.0], [0.0, 10.0, 180.0], [0.0, 10.0, 10.0],
         [0.0, 20.0, 10.0]],
        ids=["nan", "negative", "180", "repeat", "decrease"],
    )
    def test_sinogram_and_geometry_share_the_angle_rule(self, angles):
        # a non-finite angle is corrupt payload in a sinogram, a bad
        # parameter in a geometry; every other bad angle is a bad parameter
        sino_error = DataError if np.isnan(angles).any() else ParameterError
        with pytest.raises(sino_error):
            Sinogram(3, 23, angles, np.zeros((3, 23)))
        with pytest.raises(ParameterError):
            Geometry(16, 16, 23, angles)

    def test_geometry_matches_the_sinogram_it_projects(self, tmp_path):
        # angles no float32 holds exactly; the sinogram rounds them, and a
        # geometry rebuilt from its file has the same float32 angles and
        # digest, so each geometry reconstructs either copy of the sinogram
        geom = make_limited_geometry(16, 23, 7, 60.0)
        sino = forward_project(Image(16, 16, coverage_disk(16, 5.0)), geom)
        assert not np.array_equal(sino.angles_deg, geom.angles_deg)
        recon = fbp_reconstruct(sino, geom)
        write_raster(tmp_path / "s.ctr", sino)
        read = read_raster(tmp_path / "s.ctr")
        assert read == sino
        rebuilt = square_geometry(16, read.detectors, read.angles_deg)
        assert rebuilt.digest() == geom.digest()
        assert fbp_reconstruct(read, geom) == recon
        # the rebuilt geometry's float64 angles are the rounded ones
        assert np.allclose(fbp_reconstruct(read, rebuilt).data, recon.data, atol=1e-5)


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
        # one view a ten-thousandth of a degree off, well above float32 rounding
        angles = geom.angles_deg.copy()
        angles[3] += 1e-4
        with pytest.raises(DimensionError, match="angles"):
            back_project(Sinogram(8, 23, angles, np.zeros((8, 23))), geom)


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

        def counted(geom, theta_deg, out):
            calls.append(theta_deg)
            return original(geom, theta_deg, out=out)

        monkeypatch.setattr(tomography, "_view_coords", counted)
        # no plan, so the operator's normal streams: A and A^T on each view in turn
        monkeypatch.setattr(tomography, "_PLAN_NNZ_LIMIT", 0)
        geom = fresh_geometry()
        x, y = np.ones((13, 21)), np.ones((33, 40))
        for product in (lambda: tomography._build_stencil_matrix(geom),
                        lambda: project_array(x, geom),
                        lambda: backproject_array(y, geom),
                        lambda: TomoOperator(geom).normal(x)):
            calls.clear()
            product()
            assert calls == list(geom.angles_deg)
        assert geom.plan is None

    @staticmethod
    def laid_out(a, layout):
        """a's values in C order, Fortran order, or as the [:, :cols] slice of
        a wider array, the layout fbp_reconstruct hands to backproject_array."""
        if layout == "fortran":
            return np.asfortranarray(a)
        if layout == "column_slice":
            wide = np.zeros((a.shape[0], 2 * a.shape[1]))
            wide[:, : a.shape[1]] = a
            return wide[:, : a.shape[1]]
        return np.ascontiguousarray(a)

    # a C-order case keeps the bare view count as its id
    @pytest.mark.parametrize("views, layout", [
        pytest.param(views, layout, id=str(views) if layout == "c" else f"{views}-{layout}")
        for views in (1, 7) for layout in ("c", "fortran", "column_slice")
    ])
    def test_products_match_the_whole_plan(self, monkeypatch, views, layout):
        geom = fresh_geometry()
        whole = PlanReference(tomography._build_stencil_matrix(geom))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((13, 21))
        y = rng.standard_normal((33, 40))
        want_ax, want_aty = whole.forward(x.ravel()), whole.adjoint(y.ravel())
        x, y = self.laid_out(x, layout), self.laid_out(y, layout)
        self.limit_views(monkeypatch, geom, views)
        op = TomoOperator(geom)
        ax, atax = op.normal(x)
        for got in (project_array(x, geom).ravel(), op.forward(x), ax):
            assert np.array_equal(got, want_ax)
        for got in (backproject_array(y, geom).ravel(), op.adjoint(y)):
            assert np.array_equal(got, want_aty)
        assert np.array_equal(atax, whole.adjoint(want_ax))
        assert geom.plan is None


class TestOneOffProducts:
    """forward_project, back_project and fbp_reconstruct build no plan; they
    use the one their geometry holds, and otherwise stream the stencil."""

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

    def test_use_the_plan_the_geometry_holds(self, monkeypatch):
        image = Image(13, 21, np.random.default_rng(14).standard_normal((13, 21)))

        def products(geom):
            sino = forward_project(image, geom)
            return [sino, back_project(sino, geom), fbp_reconstruct(sino, geom)]

        streamed = products(fresh_geometry())
        geom = fresh_geometry()
        TomoOperator(geom).forward(image.as_f64())
        assert geom.held_plan is not None
        walks = []
        original = tomography._view_stencil

        def counted(geom, theta_deg, work):
            walks.append(theta_deg)
            return original(geom, theta_deg, work)

        monkeypatch.setattr(tomography, "_view_stencil", counted)
        for got, want in zip(products(geom), streamed):
            assert got.data.tobytes() == want.data.tobytes()
        assert walks == []


class TestTomoOperator:
    GEOM = Geometry(13, 21, 40, np.linspace(0.0, 179.0, 33))

    def test_products_equal_the_array_functions(self):
        op = TomoOperator(self.GEOM)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((13, 21))
        y = rng.standard_normal((33, 40))
        # on a geometry that holds no plan, the array functions stream
        geom = fresh_geometry()
        assert np.array_equal(op.forward(x.ravel()), project_array(x, geom).ravel())
        assert np.array_equal(op.adjoint(y.ravel()), backproject_array(y, geom).ravel())

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


class TestSparseKernels:
    def test_fall_back_to_scipy_sparse_without_the_file(self, monkeypatch):
        # with no kernels loaded and the extension file hidden, the kernels
        # come from scipy.sparse, and the products keep scipy's bits
        def refuse(*args, **kwargs):
            raise AssertionError("the kernels were loaded from their file")

        monkeypatch.delitem(sys.modules, tomography._KERNELS, raising=False)
        monkeypatch.setattr(tomography, "_KERNELS_FILE", Path("sparse", "hidden"))
        monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
        geom = fresh_geometry()
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal(13 * 21), rng.standard_normal(33 * 40)
        op = TomoOperator(geom)
        ax, atax = op.normal(x)
        aty = op.adjoint(y)
        plan = PlanReference(geom.plan)
        assert np.array_equal(ax, plan.forward(x))
        assert np.array_equal(atax, plan.adjoint(plan.forward(x)))
        assert np.array_equal(aty, plan.adjoint(y))


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
