"""Property tests: adjointness, the norm estimate, streamed products and the
operators' three products over random small geometries and over square ones
with mirror runs, the norm estimate on non-negative matrices, the TV
difference pair, CTR1 files that were cut or altered, the schedules for every
length, the respaced schedule for every chain length, and the phantom
rasterizer against a whole-grid reference."""

import math
from unittest import mock

import numpy as np
import pytest

from conftest import PlanReference, dense_tomo_matrix, walked_matrix
from lactdiff.core import DataError, FormatError, Image, Sinogram, read_raster, write_raster
from lactdiff.diffusion import NoiseSchedule, cosine_schedule, default_linear_schedule, respace
from lactdiff.evaluation import _HEAD_ELLIPSES, _SUBSAMPLE, _rasterize
from lactdiff.solvers import DenseOperator, _div2d, _grad2d, operator_norm_sq
from lactdiff import tomography
from lactdiff.tomography import (
    Geometry,
    TomoOperator,
    default_detectors,
    make_limited_geometry,
    square_geometry,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def geometries(draw):
    """Non-square images, widened or narrowed detector spacing, any increasing angles."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    pixel = draw(st.floats(0.5, 2.0))
    spacing = draw(st.floats(0.5, 2.5))
    # the fewest bins whose span covers the diagonal, plus a few
    cover = math.ceil(math.hypot(rows * pixel, cols * pixel) / spacing)
    detectors = cover + draw(st.integers(0, 3))
    angles = draw(
        st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=6, unique=True)
    )
    return Geometry(rows, cols, detectors, np.sort(angles), pixel, spacing)


@hypothesis.given(geometries(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(geom, seed):
    op = TomoOperator(geom)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.shape[1])
    y = rng.standard_normal(op.shape[0])
    ax = op.forward(x)
    lhs, rhs = float(ax @ y), float(x @ op.adjoint(y))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)


@hypothesis.given(geometries())
# close top pairs, found by this test: the estimate rests on the lower
# eigenvalue for one step (first case) or two steps (second) after a small beta
@hypothesis.example(Geometry(1, 7, 4, [0.0], 0.5, 0.99999))
@hypothesis.example(Geometry(1, 7, 4, [0.0, 54.0], 0.5, 0.99999))
# a top cluster of three: the Ritz bound alone holds at step 2, 5e-10 low
@hypothesis.example(Geometry(6, 1, 5, [90.0], 0.5, 0.99999))
# both rays pass outside the half-unit pixel, so A = 0 and the norm is 0
@hypothesis.example(Geometry(1, 1, 2, [0.0], 0.5, 1.0))
def test_norm_estimate_matches_dense_eigenvalue(geom):
    mat = dense_tomo_matrix(geom)
    expected = np.linalg.eigvalsh(mat.T @ mat)[-1]
    assert operator_norm_sq(TomoOperator(geom)) == pytest.approx(expected, rel=1e-12)


@st.composite
def non_negative_matrices(draw):
    """Non-negative matrices with zero rows and columns, some made of block-diagonal
    copies of one block, so that the top singular value repeats exactly."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    block = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    block = block.reshape(rows, cols)
    block[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0.0
    block[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0.0
    return np.kron(np.eye(draw(st.integers(1, 3))), block)


@hypothesis.given(non_negative_matrices())
def test_norm_estimate_is_exact_on_non_negative_operators(mat):
    # A^T A >= 0 entrywise has a non-negative top eigenvector (Perron-Frobenius),
    # which the estimate's all-ones start always overlaps
    expected = np.linalg.eigvalsh(mat.T @ mat)[-1]
    assert operator_norm_sq(DenseOperator(mat)) == pytest.approx(expected, rel=1e-12)


@st.composite
def streamed_geometries(draw):
    """Non-square images (both driving axes), 1-40 views anywhere in [0, 180),
    detector counts from the fewest that cover the diagonal up."""
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 24))
    spacing = draw(st.floats(0.5, 2.0))
    cover = math.ceil(math.hypot(rows, cols) / spacing)
    detectors = cover + draw(st.integers(0, 8))
    angles = draw(
        st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=40, unique=True)
    )
    return Geometry(rows, cols, detectors, np.sort(angles), 1.0, spacing)


@hypothesis.given(streamed_geometries(), st.integers(0, 2**32 - 1))
# views at, below and above 45 and 135 degrees, where the driving axis changes
@hypothesis.example(Geometry(9, 17, 20, [0.0, 44.9, 45.0, 45.1, 90.0, 134.9, 135.0, 135.1]), 0)
def test_streamed_products_are_bit_equal_to_the_plan(geom, seed):
    plan = PlanReference(tomography._build_stencil_matrix(geom))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((geom.image_rows, geom.image_cols))
    y = rng.standard_normal((geom.n_views, geom.detectors))
    assert np.array_equal(tomography.project_array(x, geom).ravel(), plan.forward(x.ravel()))
    assert np.array_equal(tomography.backproject_array(y, geom).ravel(), plan.adjoint(y.ravel()))


@hypothesis.given(
    streamed_geometries(), st.integers(0, 2**32 - 1), st.booleans(), st.integers(12, 2**16)
)
# square limited-angle and 180-degree geometries, each on both paths; a
# 12-byte block holds one entry, so most blocks are empty
@hypothesis.example(make_limited_geometry(16, default_detectors(16), 24, 60.0), 1, False, 12)
@hypothesis.example(make_limited_geometry(16, default_detectors(16), 24, 60.0), 1, True, 12)
@hypothesis.example(make_limited_geometry(12, default_detectors(12), 30, 180.0), 2, False, 600)
@hypothesis.example(make_limited_geometry(12, default_detectors(12), 30, 180.0), 2, True, 600)
@hypothesis.example(Geometry(9, 17, 20, [0.0, 44.9, 45.0, 45.1, 90.0, 134.9, 135.0, 135.1]), 3, False, 2**16)
def test_operator_products_are_bit_equal_to_the_plan(geom, seed, streamed, block_bytes):
    """forward, adjoint and normal call scipy's private sparse kernels on the
    plan's arrays, or stream; either way they keep the bits of scipy's own
    products, whatever the block size of normal."""
    plan = PlanReference(tomography._build_stencil_matrix(geom))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(plan.matrix.shape[1])
    y = rng.standard_normal(plan.matrix.shape[0])
    op = TomoOperator(geom)
    limit = 0 if streamed else tomography._PLAN_NNZ_LIMIT
    with mock.patch.object(tomography, "_PLAN_NNZ_LIMIT", limit), \
            mock.patch.object(tomography, "_NORMAL_BLOCK_BYTES", block_bytes):
        ax, atax = op.normal(x)
        assert (geom.plan is None) == streamed
        assert np.array_equal(op.forward(x), plan.forward(x))
        assert np.array_equal(op.adjoint(y), plan.adjoint(y))
    assert np.array_equal(ax, plan.forward(x))
    assert np.array_equal(atax, plan.adjoint(plan.forward(x)))


@st.composite
def paired_geometries(draw):
    """Square images whose views hold 90 - t pairs, often in several separate
    runs, sometimes with 0, 45 and 90 degrees among them, on widened or
    narrowed pixels and detector spacing."""
    n = draw(st.integers(1, 16))
    pixel = draw(st.floats(0.5, 2.0))
    spacing = draw(st.floats(0.5, 2.0))
    cover = math.ceil(math.hypot(n * pixel, n * pixel) / spacing)
    detectors = cover + draw(st.integers(0, 4))
    # eighths of a degree, so that 90 - t is exact
    low = draw(st.lists(st.integers(1, 359), min_size=1, max_size=12, unique=True))
    paired = draw(st.lists(st.sampled_from(low), min_size=1, unique=True))
    others = draw(st.lists(st.integers(0, 1439), max_size=6))
    special = draw(st.lists(st.sampled_from([0, 360, 720]), unique=True))
    eighths = {*low, *(720 - k for k in paired), *others, *special}
    return Geometry(n, n, detectors, np.sort([k / 8 for k in eighths]), pixel, spacing)


@hypothesis.given(
    paired_geometries(), st.integers(0, 2**32 - 1), st.booleans(), st.integers(12, 2**12)
)
@hypothesis.example(square_geometry(8, 12, [0.0, 10.0, 20.0, 45.0, 70.0, 80.0, 90.0]), 4, False, 12)
@hypothesis.example(square_geometry(8, 12, [0.0, 10.0, 20.0, 45.0, 70.0, 80.0, 90.0]), 4, True, 12)
def test_mirror_runs_keep_the_bits_of_the_plan(geom, seed, streamed, block_bytes):
    """Every product, on the plan with blocks that split its runs or
    streamed, has the bits of the expanded plan, and agrees with the
    operator whose views are all walked to round-off."""
    assert geom.mirror_runs
    plan = PlanReference(tomography._build_stencil_matrix(geom))
    walked = walked_matrix(geom)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((geom.image_rows, geom.image_cols))
    y = rng.standard_normal((geom.n_views, geom.detectors))
    want_ax, want_aty = plan.forward(x.ravel()), plan.adjoint(y.ravel())
    op = TomoOperator(geom)
    limit = 0 if streamed else tomography._PLAN_NNZ_LIMIT
    with mock.patch.object(tomography, "_PLAN_NNZ_LIMIT", limit), \
            mock.patch.object(tomography, "_NORMAL_BLOCK_BYTES", block_bytes):
        ax, atax = op.normal(x)
        assert (geom.plan is None) == streamed
        for got in (ax, op.forward(x), tomography.project_array(x, geom).ravel()):
            assert np.array_equal(got, want_ax)
        for got in (op.adjoint(y), tomography.backproject_array(y, geom).ravel()):
            assert np.array_equal(got, want_aty)
        assert np.array_equal(atax, plan.adjoint(want_ax))
    ax, aty = walked @ x.ravel(), walked.T @ y.ravel()
    assert np.linalg.norm(want_ax - ax) <= 1e-13 * np.linalg.norm(ax)
    assert np.linalg.norm(want_aty - aty) <= 1e-13 * np.linalg.norm(aty)


@hypothesis.given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_dense_operator_products_are_its_matrix_products(rows, cols, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, cols))
    x, y = rng.standard_normal(cols), rng.standard_normal(rows)
    op = DenseOperator(mat)
    ax, atax = op.normal(x)
    assert np.array_equal(op.forward(x), mat @ x)
    assert np.array_equal(op.adjoint(y), mat.T @ y)
    assert np.array_equal(ax, mat @ x)
    assert np.array_equal(atax, mat.T @ (mat @ x))


@hypothesis.given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_tv_divergence_is_negative_adjoint_of_gradient(rows, cols, seed):
    rng = np.random.default_rng(seed)
    u, px, py = rng.standard_normal((3, rows, cols))
    gx, gy = _grad2d(u, np.empty_like(u), np.empty_like(u))
    div = _div2d(px, py, np.empty_like(px))
    lhs, rhs = float(np.sum(gx * px) + np.sum(gy * py)), -float(np.sum(u * div))
    scale = np.linalg.norm(u) * (np.linalg.norm(px) + np.linalg.norm(py))
    assert abs(lhs - rhs) <= 1e-12 * scale


@st.composite
def rasters(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = np.asarray(draw(st.lists(st.floats(-1e3, 1e3), min_size=rows * cols,
                                    max_size=rows * cols))).reshape(rows, cols)
    if draw(st.booleans()):
        return Image(rows, cols, data)
    angles = np.sort(draw(st.lists(st.floats(0.0, 179.0), min_size=rows, max_size=rows,
                                   unique=True)))
    hypothesis.assume(rows == 1 or np.all(np.diff(angles.astype(np.float32)) > 0))
    return Sinogram(rows, cols, angles, data)


@hypothesis.settings(max_examples=300)
@hypothesis.given(rasters(), st.data())
def test_ctr1_damage_is_parsed_or_rejected(tmp_path_factory, raster, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ctr"
    write_raster(path, raster)
    blob = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        if not blob:
            break
        if data.draw(st.booleans()):
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))
    try:
        parsed = read_raster(path)
    except (FormatError, DataError):
        return
    assert isinstance(parsed, (Image, Sinogram))
    assert parsed.data.shape == parsed.shape and np.all(np.isfinite(parsed.data))


@st.composite
def schedules(draw):
    """A default linear schedule (T >= 21, its shortest) or a cosine one, T up to 4000."""
    if draw(st.booleans()):
        return default_linear_schedule(draw(st.integers(21, 4000)))
    return cosine_schedule(draw(st.integers(1, 4000)))


@hypothesis.given(schedules())
@hypothesis.example(default_linear_schedule(21))
@hypothesis.example(cosine_schedule(1))
@hypothesis.example(cosine_schedule(4000))
def test_schedule_invariants(sched):
    ab = sched.alpha_bar
    assert np.all(ab > 0.0) and np.all(ab < 1.0)
    assert np.all(np.diff(ab) < 0.0)
    assert sched.beta_tilde[0] == 0.0
    assert np.all(sched.beta_tilde <= sched.beta)


@hypothesis.given(schedules())
@hypothesis.example(cosine_schedule(1))
@hypothesis.example(default_linear_schedule(1000))
def test_schedule_is_its_alpha_bar(sched):
    rebuilt = NoiseSchedule(sched.alpha_bar)
    for name in ("alpha_bar", "alpha", "beta", "beta_tilde"):
        assert getattr(rebuilt, name).tobytes() == getattr(sched, name).tobytes()


@st.composite
def schedules_and_lengths(draw):
    """A linear schedule (T >= 21, its shortest) or a cosine one, and any K in [1, T)."""
    if draw(st.booleans()):
        sched = default_linear_schedule(draw(st.integers(21, 2000)))
    else:
        sched = cosine_schedule(draw(st.integers(2, 2000)))
    return sched, draw(st.integers(1, sched.T - 1))


@hypothesis.given(schedules_and_lengths())
# 1 - (1 - ab/prev) lost the precision of the tiny last ratio here
@hypothesis.example((cosine_schedule(1000), 2))
def test_respace_keeps_the_lattice_and_alpha_bar(case):
    sched, K = case
    tmap = respace(sched, K)
    idx, short = tmap.indices, tmap.schedule
    assert idx.size == short.T == K
    # every lattice ends at T, where a chain's N(0, I) start stands;
    # K = 1 keeps T alone, and longer lattices start at 1
    assert idx[-1] == sched.T and np.all(np.diff(idx) > 0)
    assert K == 1 or idx[0] == 1
    assert short.alpha_bar.tobytes() == sched.alpha_bar[idx - 1].tobytes()
    assert short.beta_tilde[0] == 0.0
    assert np.all(short.beta_tilde >= 0.0)
    assert np.all(short.beta_tilde <= short.beta)
    assert np.all(short.beta < 1.0)


def whole_grid_raster(n, shapes):
    """Reference rasterizer: every ellipse tested on the whole supersampled grid."""
    fine = n * _SUBSAMPLE
    u = (np.arange(fine, dtype=np.float64) - (fine - 1) / 2.0) * (2.0 / fine)
    x = np.broadcast_to(u[None, :], (fine, fine))
    y = np.broadcast_to(-u[:, None], (fine, fine))
    img = np.zeros((fine, fine))
    for value, a, b, x0, y0, phi_deg in shapes:
        phi = math.radians(phi_deg)
        c, s = math.cos(phi), math.sin(phi)
        dx = x - x0
        dy = y - y0
        img[((dx * c + dy * s) / a) ** 2 + ((-dx * s + dy * c) / b) ** 2 <= 1.0] += value
    return img.reshape(n, _SUBSAMPLE, n, _SUBSAMPLE).mean(axis=(1, 3))


# centres up to 1.6 from the middle of the [-1, 1] plane, so that shapes
# cross or lie beyond its border as well as inside it
ellipses = st.tuples(
    st.floats(-2.0, 2.0),
    st.floats(0.01, 1.5),
    st.floats(0.01, 1.5),
    st.floats(-1.6, 1.6),
    st.floats(-1.6, 1.6),
    st.floats(-180.0, 360.0),
)


@hypothesis.given(st.integers(1, 12), st.lists(ellipses, min_size=1, max_size=4))
@hypothesis.example(16, list(_HEAD_ELLIPSES))
# touching the right, top, left and bottom borders from inside and outside
@hypothesis.example(4, [(1.0, 0.5, 0.25, 0.5, 0.0, 0.0), (1.0, 0.25, 0.5, 0.0, 1.5, 0.0)])
@hypothesis.example(4, [(1.0, 0.5, 0.25, -1.5, 0.0, 0.0), (1.0, 0.5, 0.25, 0.0, -0.75, 90.0)])
def test_rasterizer_matches_the_whole_grid(n, shapes):
    assert _rasterize(n, shapes).tobytes() == whole_grid_raster(n, shapes).tobytes()
