"""Parallel-beam acquisition geometry, projection operators, and FBP.

The forward projector is ray-driven with linear interpolation along the
driving axis; the backprojector is the exact transpose of the same stencil,
so the pair satisfies the adjoint identity <Ax, y> = <x, A^T y> to round-off.

Every view's stencil comes from one walk, _view_stencil, which yields the
row counts and the entries together.  A product takes one of two paths,
with the same bits.  TomoOperator, which iterative solvers call many times,
builds the geometry's CSR stencil plan (and imports scipy.sparse) on first
use, in one walk over the views, and multiplies by it.  The one-off
products (project_array, backproject_array and the functions built on them)
always walk the stencil a view at a time with numpy alone.  A streamed
product costs about one plan build, or 15 to 70 plan products (fewer at
128^2 than at 64^2), so from the second product on one geometry
TomoOperator is the cheaper path (from about the third to the eighth while
scipy.sparse is still to import).

Coordinate conventions, frozen so sinograms are portable:
  pixel (row i, col j) center at ((j - (cols-1)/2), ((rows-1)/2 - i)) * pixel_size
  detector bin d at signed offset (d - (detectors-1)/2) * detector_spacing
  the ray for (angle t, offset r) is the line {x cos t + y sin t = r}.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import DimensionError, Image, ParameterError, Sinogram

if TYPE_CHECKING:
    import scipy.sparse as sp


class FilterKind(enum.Enum):
    RAM_LAK = "ramlak"
    HANN = "hann"


def default_detectors(n: int) -> int:
    """Bin count covering the diagonal of an n x n image at unit spacing."""
    return int(math.ceil(n * math.sqrt(2.0))) + 1


@dataclass(frozen=True, eq=False)
class Geometry:
    """Immutable acquisition description binding images to sinograms.

    The detector array must span the image diagonal (no truncation of the
    object); construction fails otherwise.  A geometry owns its stencil plan
    and its ||A^T A||: each is computed on first use and lives as long as
    the geometry does.  Only TomoOperator products (so the solvers and the
    norm estimate) build and use the plan; one-off products (project_array,
    backproject_array) stream the stencil instead.
    """

    image_rows: int
    image_cols: int
    detectors: int
    angles_deg: np.ndarray
    pixel_size: float = 1.0
    detector_spacing: float = 1.0

    def __post_init__(self):
        if self.image_rows < 1 or self.image_cols < 1:
            raise DimensionError(
                f"image dimensions must be positive, got {self.image_rows}x{self.image_cols}"
            )
        if self.detectors < 1:
            raise ParameterError("detector count must be >= 1")
        if not (self.pixel_size > 0.0 and np.isfinite(self.pixel_size)):
            raise ParameterError("pixel_size must be positive and finite")
        if not (self.detector_spacing > 0.0 and np.isfinite(self.detector_spacing)):
            raise ParameterError("detector_spacing must be positive and finite")
        angles = np.asarray(self.angles_deg, dtype=np.float64).ravel().copy()
        if angles.size < 1:
            raise ParameterError("at least one view angle is required")
        if not np.all(np.isfinite(angles)):
            raise ParameterError("view angles must be finite")
        if np.any(angles < 0.0) or np.any(angles >= 180.0):
            raise ParameterError("view angles must lie in [0, 180) degrees")
        if angles.size > 1 and np.any(np.diff(angles) <= 0.0):
            raise ParameterError("view angles must be strictly increasing")
        diagonal = math.hypot(
            self.image_rows * self.pixel_size, self.image_cols * self.pixel_size
        )
        span = self.detectors * self.detector_spacing
        if span + 1e-9 < diagonal:
            raise ParameterError(
                f"detector span {span:g} does not cover the image diagonal {diagonal:g}"
            )
        angles.setflags(write=False)
        object.__setattr__(self, "angles_deg", angles)

    @property
    def n_views(self) -> int:
        return self.angles_deg.size

    def detector_offsets(self) -> np.ndarray:
        d = np.arange(self.detectors, dtype=np.float64)
        return (d - (self.detectors - 1) / 2.0) * self.detector_spacing

    def matches_image(self, image: Image) -> None:
        if image.shape != (self.image_rows, self.image_cols):
            raise DimensionError(
                f"image {image.shape} does not match geometry "
                f"{(self.image_rows, self.image_cols)}"
            )

    def matches_sinogram(self, sino: Sinogram) -> None:
        if sino.shape != (self.n_views, self.detectors):
            raise DimensionError(
                f"sinogram {sino.shape} does not match geometry "
                f"{(self.n_views, self.detectors)}"
            )
        if not np.allclose(sino.angles_deg, self.angles_deg, rtol=0.0, atol=2e-4):
            raise DimensionError("sinogram angles do not match geometry angles")

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(
            np.array(
                [
                    self.image_rows,
                    self.image_cols,
                    self.detectors,
                    self.pixel_size,
                    self.detector_spacing,
                ],
                dtype=np.float64,
            ).tobytes()
        )
        # the angles as a sinogram stores them, so that a geometry rebuilt
        # from that sinogram has the digest of the one that projected it
        h.update(self.angles_deg.astype(np.float32).tobytes())
        return h.hexdigest()[:16]

    @cached_property
    def plan(self) -> Optional[sp.csr_matrix]:
        """The whole (V*D, R*C) CSR stencil plan, built on first use.

        None when its estimated entry count exceeds _PLAN_NNZ_LIMIT; products
        then stream the stencil a view at a time.
        """
        if self.n_views * _view_nnz_bound(self) > _PLAN_NNZ_LIMIT:
            return None
        return _build_stencil_matrix(self)

    @cached_property
    def plan_t(self) -> Optional[sp.csc_matrix]:
        """plan.T, a CSC view of the plan's arrays; None when plan is.

        Kept because forming it scans every index, which costs an A^T
        product about 2% at 64^2 and 120 views.
        """
        return None if self.plan is None else self.plan.T

    @cached_property
    def norm_sq(self) -> float:
        """||A^T A||_2 by the Lanczos estimate, computed on first use."""
        from . import solvers  # solvers imports this module

        return solvers.operator_norm_sq(TomoOperator(self))


def make_limited_geometry(
    n: int, detectors: int, n_views: int, theta_max_deg: float
) -> Geometry:
    """Limited-angle geometry for an n x n image.

    Angles are n_views values evenly spaced on the half-open interval
    [0, theta_max_deg).  The detector spacing follows `square_geometry`,
    preserving the no-truncation invariant.
    """
    if n < 1:
        raise DimensionError("image size must be >= 1")
    if n_views < 1:
        raise ParameterError("view count must be >= 1")
    if detectors < 1:
        raise ParameterError("detector count must be >= 1")
    if not (0.0 < theta_max_deg <= 180.0):
        raise ParameterError(
            f"theta_max must lie in (0, 180] degrees, got {theta_max_deg}"
        )
    angles = theta_max_deg * np.arange(n_views, dtype=np.float64) / n_views
    return square_geometry(n, detectors, angles)


def square_geometry(n: int, detectors: int, angles_deg) -> Geometry:
    """Geometry for an n x n image of unit pixels on the given view angles.

    The detector spacing is 1, or widened to exactly cover the image
    diagonal when `detectors` bins at unit spacing cannot span it.
    """
    diagonal = math.hypot(n, n)
    # a count below 1 keeps spacing 1, and Geometry rejects it
    spacing = diagonal / detectors if 0 < detectors < diagonal else 1.0
    return Geometry(n, n, detectors, angles_deg, 1.0, spacing)


def _view_coords(geom: Geometry, theta_deg: float, out=None):
    """Driving-axis layout for one view.

    Returns (drive_rows, coord, ray_weight): coord is the fractional index
    into the interpolated axis for every (driving index, detector) pair, and
    ray_weight is the path length per driving-axis step.  When out is an
    (n, detectors) array with n at least the driving count, coord is written
    into its leading rows.
    """
    theta = math.radians(theta_deg)
    ct, st = math.cos(theta), math.sin(theta)
    ps = geom.pixel_size
    offsets = geom.detector_offsets()
    rows, cols = geom.image_rows, geom.image_cols
    half_r = (rows - 1) / 2.0
    half_c = (cols - 1) / 2.0
    if abs(ct) >= abs(st):
        # near-vertical rays: march over rows, interpolate between columns
        y = (half_r - np.arange(rows, dtype=np.float64)) * ps
        coord = np.subtract(offsets, (y * st)[:, None], out=None if out is None else out[:rows])
        coord /= ct * ps
        coord += half_c
        return True, coord, ps / abs(ct)
    # near-horizontal rays: march over columns, interpolate between rows
    x = (np.arange(cols, dtype=np.float64) - half_c) * ps
    coord = np.subtract(offsets, (x * ct)[:, None], out=None if out is None else out[:cols])
    coord /= st * ps
    np.subtract(half_r, coord, out=coord)
    return False, coord, ps / abs(st)


# A geometry keeps its whole plan when the estimated entry count is at most
# this; above it, each product streams the stencil a view at a time.
_PLAN_NNZ_LIMIT = 40_000_000


def _view_nnz_bound(geom: Geometry) -> int:
    """Upper bound on one view's plan entries: two per driving step and detector."""
    return 2 * geom.detectors * max(geom.image_rows, geom.image_cols)


def _stencil_work(geom: Geometry):
    """Work arrays for one view, shared by all the views of a plan build or
    of a streamed product.

    Fresh arrays for every view cost a new process more than the arithmetic
    on them: the allocator returns them to the system between views, and the
    next view faults their pages in again.
    """
    n = max(geom.image_rows, geom.image_cols)
    size = n * geom.detectors
    return (
        np.empty((n, geom.detectors)),
        np.empty(size),
        np.empty(2 * size),
        np.empty(2 * size, dtype=np.int32),
        np.empty(2 * size, dtype=bool),
    )


def _view_stencil(geom: Geometry, theta_deg: float, work):
    """One view's in-range stencil entries, detector row by detector row.

    Returns (counts, cols, weights): the number of entries in each detector
    row, then the int32 flat pixel index and the coefficient of every j0 /
    j0+1 interpolation entry that falls inside the image, each row in
    ascending column order.  It is the one walk of a view that both the
    plan build and the streamed products make.  work is from _stencil_work.
    """
    coord_buf, floor_buf, weight_buf, idx_buf, keep_buf = work
    drive_rows, coord, weight = _view_coords(geom, theta_deg, out=coord_buf)
    n_drive, det = coord.shape
    size = n_drive * det
    interp_n = geom.image_cols if drive_rows else geom.image_rows
    cols_n = geom.image_cols
    # Each detector row holds the j0 and the j0+1 entry of every step: side
    # by side when the row is in column order as built, else in two halves,
    # which leaves the stable sort below two ascending runs to merge when j0
    # rises with the drive index.
    shape, pair_axis = ((det, n_drive, 2), 2) if drive_rows else ((det, 2, n_drive), 1)
    j0 = np.floor(coord.T, out=floor_buf[:size].reshape(det, n_drive))
    weights = weight_buf[: 2 * size].reshape(shape)
    w0, w1 = np.moveaxis(weights, pair_axis, 0)
    np.subtract(coord.T, j0, out=w1)
    np.subtract(1.0, w1, out=w0)
    weights *= weight
    idx = idx_buf[: 2 * size].reshape(shape)
    i0, i1 = np.moveaxis(idx, pair_axis, 0)
    # entries outside the image are dropped, so clipping them keeps int32 exact
    np.clip(j0, -2, interp_n, out=i0, casting="unsafe")
    np.add(i0, 1, out=i1)
    idx = idx.reshape(det, 2 * n_drive)
    weights = weights.reshape(det, 2 * n_drive)
    # a negative index wraps to a large unsigned one
    keep = np.less(idx.view(np.uint32), interp_n, out=keep_buf[: 2 * size].reshape(det, -1))
    counts = np.count_nonzero(keep, axis=1)
    if drive_rows:
        # columns rise with the drive index, and j0 < j0+1 within one step
        idx += np.arange(0, n_drive * cols_n, cols_n, dtype=np.int32).repeat(2)
        return counts, idx[keep], weights[keep]
    idx *= cols_n
    idx += np.tile(np.arange(n_drive, dtype=np.int32), 2)
    # a row never holds one pixel twice, so sorting by column is unambiguous
    order = np.argsort(idx, axis=1, kind="stable")
    order += np.arange(0, idx.size, 2 * n_drive)[:, None]
    order = order.ravel()
    order = order[keep.ravel()[order]]
    return counts, idx.ravel()[order], weights.ravel()[order]


def _build_stencil_matrix(geom: Geometry) -> sp.csr_matrix:
    """Assemble the projection stencil as a (V*D, R*C) CSR matrix.

    Entries are the linear interpolation coefficients of every ray's samples
    along its driving axis; using one matrix for both directions makes the
    adjoint the literal transpose.  One walk over the views fills arrays
    sized at the n_views * _view_nnz_bound estimate with sorted int32
    indices, keeping the explicit zeros of integer crossings, and then
    shrinks them in place to the entry count.  Nothing is copied, and the
    unwritten tail is never touched, so none of it becomes resident past the
    page that holds the last entry (a 2 MB page where numpy asks for huge
    pages, so the peak can exceed the plan by up to 4 MB).
    """
    # imported here: scipy.sparse costs about 0.2 s and 18 MB at start-up,
    # which processes that never build a plan need not pay
    import scipy.sparse as sp

    det = geom.detectors
    bound = geom.n_views * _view_nnz_bound(geom)
    indptr = np.zeros(geom.n_views * det + 1, dtype=np.int32)
    indices = np.empty(bound, dtype=np.int32)
    data = np.empty(bound, dtype=np.float64)
    nnz = 0
    work = _stencil_work(geom)
    for v, theta_deg in enumerate(geom.angles_deg):
        counts, cols, weights = _view_stencil(geom, theta_deg, work)
        indptr[1 + v * det : 1 + (v + 1) * det] = nnz + np.cumsum(counts)
        indices[nnz : nnz + cols.size] = cols
        data[nnz : nnz + cols.size] = weights
        nnz += cols.size
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    return sp.csr_matrix(
        (data, indices, indptr),
        shape=(geom.n_views * det, geom.image_rows * geom.image_cols),
    )


def _stencil_plan(geom: Geometry) -> Optional[sp.csr_matrix]:
    """geom's whole CSR plan (Geometry.plan), or None above _PLAN_NNZ_LIMIT.

    The benchmark harness reads the plan's size through this name.
    """
    return geom.plan


def project_array(image: np.ndarray, geom: Geometry) -> np.ndarray:
    """Forward projection of a float64 (rows, cols) array to (views, detectors).

    Streams the stencil without a plan or scipy, one _view_stencil walk per
    view: one call costs about one plan build, or 15 to 70 products with the
    plan, so callers that make two or more products on one geometry should
    use TomoOperator.  np.add.at applies its updates one at a time, in index
    order, starting from zero: the order in which csr_matvec sums a row of
    the plan, so the result has the bits of geom.plan @ x.
    """
    geom.matches_image(image)
    x = np.asarray(image, dtype=np.float64).ravel()
    det = geom.detectors
    out = np.zeros((geom.n_views, det))
    rows = np.arange(det)
    work = _stencil_work(geom)
    for v, theta_deg in enumerate(geom.angles_deg):
        counts, cols, weights = _view_stencil(geom, theta_deg, work)
        weights *= x[cols]
        np.add.at(out[v], rows.repeat(counts), weights)
    return out


def backproject_array(sino: np.ndarray, geom: Geometry) -> np.ndarray:
    """Exact transpose of project_array, (views, detectors) -> (rows, cols).

    Streams the stencil, at the cost that project_array describes.  The
    updates reach each pixel in plan row order, as in csc_matvec on
    geom.plan_t, so the result has the bits of geom.plan_t @ y.  Summing a
    view on its own first (np.bincount, np.add.reduceat) would not.
    """
    if sino.shape != (geom.n_views, geom.detectors):
        raise DimensionError(
            f"sinogram {sino.shape} does not match geometry "
            f"{(geom.n_views, geom.detectors)}"
        )
    y = np.asarray(sino, dtype=np.float64)
    out = np.zeros(geom.image_rows * geom.image_cols)
    work = _stencil_work(geom)
    for v, theta_deg in enumerate(geom.angles_deg):
        counts, cols, weights = _view_stencil(geom, theta_deg, work)
        weights *= y[v].repeat(counts)
        np.add.at(out, cols, weights)
    return out.reshape(geom.image_rows, geom.image_cols)


def forward_project(image: Image, geom: Geometry) -> Sinogram:
    """Line integrals of `image` along every (angle, detector offset) ray.

    Each call streams the stencil (see project_array); for repeated products
    on one geometry, TomoOperator reuses the geometry's plan.
    """
    data = project_array(image.as_f64(), geom)
    return Sinogram(geom.n_views, geom.detectors, geom.angles_deg, data)


def back_project(sino: Sinogram, geom: Geometry) -> Image:
    """Adjoint of forward_project (unfiltered smearing of the sinogram).

    Each call streams the stencil, as forward_project does.
    """
    geom.matches_sinogram(sino)
    data = backproject_array(sino.as_f64(), geom)
    return Image(geom.image_rows, geom.image_cols, data)


def _pad_length(detectors: int) -> int:
    return 2 * (1 << int(math.ceil(math.log2(detectors))))


def _ramp_filter_array(
    rows: np.ndarray, kind: FilterKind, remove_dc: bool = True
) -> np.ndarray:
    """Row-wise ramp filtering: pad, multiply the spectrum by |w|, crop.

    Rows are zero-padded to twice the next power of two to suppress circular
    wrap.  Cropping the padded result reintroduces a small DC component (the
    discarded kernel tails); with remove_dc it is subtracted so every output
    row has exactly zero mean.  Reconstruction keeps that tail mass instead
    (remove_dc=False), since spreading it over the crop window as a constant
    offset measurably biases the image.
    """
    n = rows.shape[1]
    padded = _pad_length(n)
    freqs = np.fft.rfftfreq(padded)
    response = freqs.copy()
    if kind is FilterKind.HANN:
        response *= 0.5 * (1.0 + np.cos(2.0 * np.pi * freqs))
    spectrum = np.fft.rfft(rows, n=padded, axis=1)
    filtered = np.fft.irfft(spectrum * response, n=padded, axis=1)[:, :n]
    if remove_dc:
        filtered -= filtered.mean(axis=1, keepdims=True)
    return filtered


def ramp_filter(sino: Sinogram, kind: FilterKind = FilterKind.RAM_LAK) -> Sinogram:
    """Filter each view independently with the |w| (optionally Hann) response."""
    if sino.detectors < 2:
        raise ParameterError("ramp filtering needs at least 2 detector bins")
    if not isinstance(kind, FilterKind):
        raise ParameterError(f"unknown filter kind {kind!r}")
    data = _ramp_filter_array(sino.as_f64(), kind)
    return Sinogram(sino.views, sino.detectors, sino.angles_deg, data)


def fbp_reconstruct(
    sino: Sinogram, geom: Geometry, kind: FilterKind = FilterKind.RAM_LAK
) -> Image:
    """Filtered back-projection: ramp-filter each view, smear back, rescale.

    On full-angle data this approximates the original image; restricted
    angular coverage loses the edges oriented along the missing directions.
    The back-projection streams the stencil, as back_project does.
    """
    geom.matches_sinogram(sino)
    if not isinstance(kind, FilterKind):
        raise ParameterError(f"unknown filter kind {kind!r}")
    filtered = _ramp_filter_array(sino.as_f64(), kind, remove_dc=False)
    recon = backproject_array(filtered, geom)
    recon *= math.pi / (geom.n_views * geom.detector_spacing)
    return Image(geom.image_rows, geom.image_cols, recon)


@dataclass(frozen=True)
class TomoOperator:
    """Flattened-vector view of the projection pair for iterative solvers.

    Products use the plan that the geometry owns, and build it on first use:
    an iterative solver makes many.  Above _PLAN_NNZ_LIMIT they stream.
    """

    geom: Geometry

    @property
    def shape(self):
        g = self.geom
        return (g.n_views * g.detectors, g.image_rows * g.image_cols)

    def forward(self, x: np.ndarray) -> np.ndarray:
        g = self.geom
        x = np.asarray(x, dtype=np.float64)
        if x.size != g.image_rows * g.image_cols:
            raise DimensionError(
                f"vector of size {x.size} does not match image "
                f"{(g.image_rows, g.image_cols)}"
            )
        plan = g.plan
        if plan is None:
            return project_array(x.reshape(g.image_rows, g.image_cols), g).ravel()
        return plan @ x.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        g = self.geom
        y = np.asarray(y, dtype=np.float64)
        if y.size != g.n_views * g.detectors:
            raise DimensionError(
                f"vector of size {y.size} does not match sinogram "
                f"{(g.n_views, g.detectors)}"
            )
        plan_t = g.plan_t
        if plan_t is None:
            return backproject_array(y.reshape(g.n_views, g.detectors), g).ravel()
        return plan_t @ y.ravel()
