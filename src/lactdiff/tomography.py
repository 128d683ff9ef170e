"""Parallel-beam acquisition geometry, projection operators, and FBP.

The forward projector is ray-driven with linear interpolation along the
driving axis; the backprojector is the exact transpose of the same stencil,
so the pair satisfies the adjoint identity <Ax, y> = <x, A^T y> to round-off.

Every view's stencil comes from one walk, _view_stencil: a block of rows of
the (V*D, R*C) CSR matrix A.  Every product is one loop over such blocks,
_block_products, which applies each with scipy's compiled csr_matvec (A)
and csc_matvec (A^T), loaded without the scipy.sparse package
(_sparse_kernels).  TomoOperator, which iterative solvers call many times,
takes the blocks from the geometry's stencil plan (a StencilPlan), which
keeps those of one walk and which only TomoOperator builds.  The one-off
products (project_array, backproject_array and the functions built on
them) use the plan a geometry holds, else walk each view's block, apply
it and drop it.  Same rows, kernels and order: the same bits.  Every
plan entry is an interpolation weight, so >= 0; Geometry.norm_sq relies on
that to start its Lanczos estimate from the all-ones image.  A streamed
product costs a little less than one plan build, or about 8 plan products
at 128^2 with 240 views and 10 to 20 at 64^2 with 120, so from the second
product on one geometry TomoOperator is the cheaper path.

Coordinate conventions, frozen so sinograms are portable:
  pixel (row i, col j) center at ((j - (cols-1)/2), ((rows-1)/2 - i)) * pixel_size
  detector bin d at signed offset (d - (detectors-1)/2) * detector_spacing
  the ray for (angle t, offset r) is the line {x cos t + y sin t = r}.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .core import DimensionError, Image, ParameterError, Sinogram, _check_view_angles

# The interpreter's own SHA-256, which gives hashlib's digest without
# loading OpenSSL's libcrypto (about 3.5 MiB) into a process that has no
# other use for it; hashlib only where the interpreter was built without it.
try:
    from _sha2 import sha256 as _sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


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
    norm estimate) build the plan; one-off products (project_array,
    backproject_array) use it once built (held_plan), else walk the same
    blocks of rows a view at a time.
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
        angles = np.array(self.angles_deg, dtype=np.float64).ravel()
        if angles.size < 1:
            raise ParameterError("at least one view angle is required")
        _check_view_angles(angles, ParameterError)
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
        # a sinogram stores its angles as float32, the identity digest() hashes
        if not np.array_equal(sino.angles_deg, self.angles_deg.astype(np.float32)):
            raise DimensionError("sinogram angles do not match geometry angles")

    def digest(self) -> str:
        h = _sha256()
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
    def plan(self) -> Optional[StencilPlan]:
        """The whole (V*D, R*C) CSR stencil plan, built on first use.

        None when its estimated entry count exceeds _PLAN_NNZ_LIMIT; products
        then stream the stencil a view at a time.
        """
        if self.n_views * _view_nnz_bound(self) > _PLAN_NNZ_LIMIT:
            return None
        return _build_stencil_matrix(self)

    @property
    def held_plan(self) -> Optional[StencilPlan]:
        """The plan if it has been built, else None; never builds it."""
        # cached_property keeps a built plan in the instance dict
        return self.__dict__.get("plan")

    @cached_property
    def norm_sq(self) -> float:
        """||A^T A||_2 by the Lanczos estimate, computed on first use.

        This is the only production caller of solvers.operator_norm_sq.  Its
        all-ones start is safe here because every plan entry is an
        interpolation weight, (1 - f) * c or f * c for a fraction f in [0, 1)
        and a path length c > 0, so >= 0: A^T A is then entrywise
        non-negative, and by Perron-Frobenius its top eigenvector is
        non-negative too, which the all-ones image always overlaps.
        """
        from . import solvers  # solvers imports this module

        return solvers.operator_norm_sq(TomoOperator(self))


def make_limited_geometry(
    n: int, detectors: int, n_views: int, theta_max_deg: float
) -> Geometry:
    """Limited-angle geometry for an n x n image.

    Angles are n_views values evenly spaced on the half-open interval
    [0, theta_max_deg).  The detector spacing follows `square_geometry`,
    preserving the no-truncation invariant.  Geometry checks the sizes;
    only the angular range is checked here.
    """
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


def _view_coords(geom: Geometry, theta_deg: float, out: np.ndarray):
    """Driving-axis layout for one view.

    Returns (drive_rows, coord, ray_weight): coord is the fractional index
    into the interpolated axis for every (driving index, detector) pair, and
    ray_weight is the path length per driving-axis step.  coord is written
    into the leading rows of out, an (n, detectors) array with n at least
    the driving count.
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
        coord = np.subtract(offsets, (y * st)[:, None], out=out[:rows])
        coord /= ct * ps
        coord += half_c
        return True, coord, ps / abs(ct)
    # near-horizontal rays: march over columns, interpolate between rows
    x = (np.arange(cols, dtype=np.float64) - half_c) * ps
    coord = np.subtract(offsets, (x * ct)[:, None], out=out[:cols])
    coord /= st * ps
    np.subtract(half_r, coord, out=coord)
    return False, coord, ps / abs(st)


# A geometry keeps its whole plan when the estimated entry count is at most
# this; above it, each product streams the stencil a view at a time.
_PLAN_NNZ_LIMIT = 40_000_000

# TomoOperator.normal takes the plan in blocks of whole rows holding about
# this many bytes of entries, so that A^T reads a block while A's pass has
# left it in cache (2 MB of L2 per core; 256 KB to 1.5 MB measured the same
# at 128^2 and 240 views).
_NORMAL_BLOCK_BYTES = 512 * 1024


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
    j0+1 interpolation entry that falls inside the image, each row in walk
    order: the driving index rises, and j0 comes before j0+1 within a step.
    It is the one walk of a view that both the plan build and the streamed
    products make.  work is from _stencil_work.
    """
    coord_buf, floor_buf, weight_buf, idx_buf, keep_buf = work
    drive_rows, coord, weight = _view_coords(geom, theta_deg, out=coord_buf)
    n_drive, det = coord.shape
    size = n_drive * det
    interp_n = geom.image_cols if drive_rows else geom.image_rows
    # a row holds each step's j0 and j0+1 entries side by side
    j0 = np.floor(coord.T, out=floor_buf[:size].reshape(det, n_drive))
    weights = weight_buf[: 2 * size].reshape(det, 2 * n_drive)
    np.subtract(coord.T, j0, out=weights[:, 1::2])
    np.subtract(1.0, weights[:, 1::2], out=weights[:, ::2])
    weights *= weight
    idx = idx_buf[: 2 * size].reshape(det, 2 * n_drive)
    # entries outside the image are dropped, so clipping them keeps int32 exact
    np.clip(j0, -2, interp_n, out=idx[:, ::2], casting="unsafe")
    np.add(idx[:, ::2], 1, out=idx[:, 1::2])
    # a negative index wraps to a large unsigned one
    keep = np.less(idx.view(np.uint32), interp_n, out=keep_buf[: 2 * size].reshape(det, -1))
    counts = np.count_nonzero(keep, axis=1)
    # flat index: drive * cols + j on a row-driven view, j * cols + drive otherwise
    drive = np.arange(n_drive, dtype=np.int32).repeat(2)
    if drive_rows:
        idx += drive * geom.image_cols
    else:
        idx *= geom.image_cols
        idx += drive
    return counts, idx[keep], weights[keep]


@dataclass(frozen=True, eq=False)
class StencilPlan:
    """The projection stencil as the arrays of a (V*D, R*C) CSR matrix.

    indptr and indices are int32, data float64; each row is in walk order
    and keeps its explicit zeros.  block_ends are the row ends of
    TomoOperator.normal's blocks of about _NORMAL_BLOCK_BYTES of entries,
    the last one shape[0].
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]
    block_ends: Tuple[int, ...]

    format = "csr"  # scipy's name for the layout

    @property
    def nnz(self) -> int:
        return self.data.size


# the module of scipy's compiled sparse kernels, and its file in the scipy package
_KERNELS = "scipy.sparse._sparsetools"
_KERNELS_FILE = Path("sparse", "_sparsetools" + importlib.machinery.EXTENSION_SUFFIXES[0])


def _sparse_kernels():
    """scipy's compiled _sparsetools module, without the scipy.sparse package.

    The plan's products use only its csr_matvec and csc_matvec, and
    importing scipy.sparse to reach them costs a process about 0.2 s and
    22 MB, nearly all of it in modules that scipy.sparse imports and the
    kernels do not need.  So the extension is loaded from its file inside
    the scipy package (after `import scipy`, which manifests record), and
    kept in sys.modules under its own name, where a later `import
    scipy.sparse` finds it and loads no second copy.  Loaded so, the
    kernels cost about 10 ms and 1 MB.  Where the file is not there, they
    come from scipy.sparse after all.
    """
    kernels = sys.modules.get(_KERNELS)
    if kernels is not None:
        return kernels
    import scipy

    path = Path(scipy.__file__).parent / _KERNELS_FILE
    if not path.is_file():
        from scipy.sparse import _sparsetools

        return _sparsetools
    spec = importlib.util.spec_from_file_location(_KERNELS, path)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    sys.modules[_KERNELS] = kernels
    return kernels


def _view_blocks(geom: Geometry):
    """Each view's stencil as (start, end, indptr, indices, data): its rows
    start:end of the plan as a CSR block, with one indptr buffer for all."""
    det = geom.detectors
    work = _stencil_work(geom)
    indptr = np.zeros(det + 1, dtype=np.int32)
    for v, theta_deg in enumerate(geom.angles_deg):
        counts, cols, weights = _view_stencil(geom, theta_deg, work)
        np.cumsum(counts, out=indptr[1:])
        yield v * det, (v + 1) * det, indptr, cols, weights


def _build_stencil_matrix(geom: Geometry) -> StencilPlan:
    """Assemble the projection stencil as a (V*D, R*C) CSR plan.

    Entries are the linear interpolation coefficients of every ray's samples
    along its driving axis; using one matrix for both directions makes the
    adjoint the literal transpose.  The plan keeps the blocks of one
    _view_blocks walk in arrays sized at the n_views * _view_nnz_bound
    estimate, then shrunk in place to the entry count.  Nothing is copied,
    and the unwritten tail is never touched, so none of it becomes resident
    past the page that holds the last entry (a 2 MB page where numpy asks
    for huge pages, so the peak can exceed the plan by up to 4 MB).
    """
    bound = geom.n_views * _view_nnz_bound(geom)
    m = geom.n_views * geom.detectors
    indptr = np.zeros(m + 1, dtype=np.int32)
    indices = np.empty(bound, dtype=np.int32)
    data = np.empty(bound, dtype=np.float64)
    nnz = 0
    for start, end, rows, cols, weights in _view_blocks(geom):
        indptr[start + 1 : end + 1] = nnz + rows[1:]
        indices[nnz : nnz + cols.size] = cols
        data[nnz : nnz + cols.size] = weights
        nnz += cols.size
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    # block ends: the first row boundary at or past every step entries
    step = _NORMAL_BLOCK_BYTES // (indices.itemsize + data.itemsize)
    ends = np.searchsorted(indptr, np.arange(step, nnz, step)).tolist()
    return StencilPlan(
        indptr, indices, data, (m, geom.image_rows * geom.image_cols), (*ends, m)
    )


def _stencil_plan(geom: Geometry) -> Optional[StencilPlan]:
    """geom's whole CSR plan (Geometry.plan), or None above _PLAN_NNZ_LIMIT.

    The benchmark harness reads the plan's size through this name.
    """
    return geom.plan


def _block_products(geom: Geometry, plan, x, y, adjoint: bool):
    """The one product loop: for each row block of A, csr_matvec adds its
    rows of A x into y when x is given, and then, with adjoint, csc_matvec
    (reading the block as the CSC matrix of its A^T) adds their share of
    A^T y into the returned image while the block is in cache.

    The blocks are each view's as it is walked when plan is None, else the
    plan's block_ends ranges for two kernels and the whole plan for one (a
    call costs about 2 us).  x and y are contiguous float64 vectors.  Rows
    sum in walk order and pixels in row order, as M @ x and M.T @ y do with
    M the plan as a scipy csr_matrix, so every path has the same bits.
    """
    kernels = _sparse_kernels()
    n = geom.image_rows * geom.image_cols
    image = np.zeros(n) if adjoint else None
    if plan is None:
        blocks = _view_blocks(geom)
    else:
        ends = plan.block_ends if x is not None and adjoint else plan.shape[:1]
        # indptr[start:end + 1] holds offsets into the whole indices and data
        blocks = ((start, end, plan.indptr[start : end + 1], plan.indices, plan.data)
                  for start, end in zip((0, *ends), ends))
    for start, end, indptr, indices, data in blocks:
        y_block = y[start:end]
        if x is not None:
            kernels.csr_matvec(end - start, n, indptr, indices, data, x, y_block)
        if adjoint:
            kernels.csc_matvec(n, end - start, indptr, indices, data, y_block, image)
    return image


def project_array(image: np.ndarray, geom: Geometry) -> np.ndarray:
    """Forward projection of a float64 (rows, cols) array to (views, detectors).

    Runs the loop of TomoOperator.forward, so the result has its bits, on
    the plan the geometry holds, else streaming one _view_stencil walk per
    view; it never builds the plan.  A streamed call costs a little less
    than one plan build, or 8 to 20 products with the plan, so callers that
    make two or more products on one geometry should use TomoOperator.
    """
    geom.matches_image(image)
    out = np.zeros((geom.n_views, geom.detectors))
    x = np.asarray(image, dtype=np.float64).ravel()
    _block_products(geom, geom.held_plan, x, out.reshape(-1), adjoint=False)
    return out


def backproject_array(sino: np.ndarray, geom: Geometry) -> np.ndarray:
    """Exact transpose of project_array, (views, detectors) -> (rows, cols).

    Runs the loop of TomoOperator.adjoint, so the result has its bits, on
    the plan the geometry holds or else streaming, as project_array does.
    """
    if sino.shape != (geom.n_views, geom.detectors):
        raise DimensionError(
            f"sinogram {sino.shape} does not match geometry "
            f"{(geom.n_views, geom.detectors)}"
        )
    y = np.asarray(sino, dtype=np.float64).ravel()
    out = _block_products(geom, geom.held_plan, None, y, adjoint=True)
    return out.reshape(geom.image_rows, geom.image_cols)


def forward_project(image: Image, geom: Geometry) -> Sinogram:
    """Line integrals of `image` along every (angle, detector offset) ray.

    Uses the plan the geometry holds, else streams (see project_array); for
    repeated products on one geometry, TomoOperator builds and reuses the plan.
    """
    data = project_array(image.as_f64(), geom)
    return Sinogram(geom.n_views, geom.detectors, geom.angles_deg, data)


def back_project(sino: Sinogram, geom: Geometry) -> Image:
    """Adjoint of forward_project (unfiltered smearing of the sinogram).

    Uses the plan the geometry holds, else streams, as forward_project does.
    """
    geom.matches_sinogram(sino)
    data = backproject_array(sino.as_f64(), geom)
    return Image(geom.image_rows, geom.image_cols, data)


def _pad_length(detectors: int) -> int:
    return 2 * (1 << int(math.ceil(math.log2(detectors))))


def _ramp_filter_array(rows: np.ndarray, kind: FilterKind) -> np.ndarray:
    """Row-wise ramp filtering: pad, multiply the spectrum by |w|, crop.

    Rows are zero-padded to twice the next power of two to suppress circular
    wrap.  Cropping the padded result reintroduces a small DC component (the
    discarded kernel tails).  Reconstruction keeps that tail mass, since
    spreading it over the crop window as a constant offset measurably biases
    the image; ramp_filter removes it.
    """
    n = rows.shape[1]
    padded = _pad_length(n)
    freqs = np.fft.rfftfreq(padded)
    response = freqs.copy()
    if kind is FilterKind.HANN:
        response *= 0.5 * (1.0 + np.cos(2.0 * np.pi * freqs))
    spectrum = np.fft.rfft(rows, n=padded, axis=1)
    return np.fft.irfft(spectrum * response, n=padded, axis=1)[:, :n]


def ramp_filter(sino: Sinogram, kind: FilterKind = FilterKind.RAM_LAK) -> Sinogram:
    """Filter each view independently with the |w| (optionally Hann) response.

    Each output row has exactly zero mean: the DC component that cropping
    reintroduces is subtracted.
    """
    if sino.detectors < 2:
        raise ParameterError("ramp filtering needs at least 2 detector bins")
    if not isinstance(kind, FilterKind):
        raise ParameterError(f"unknown filter kind {kind!r}")
    data = _ramp_filter_array(sino.as_f64(), kind)
    data -= data.mean(axis=1, keepdims=True)
    return Sinogram(sino.views, sino.detectors, sino.angles_deg, data)


def fbp_reconstruct(
    sino: Sinogram, geom: Geometry, kind: FilterKind = FilterKind.RAM_LAK
) -> Image:
    """Filtered back-projection: ramp-filter each view, smear back, rescale.

    On full-angle data this approximates the original image; restricted
    angular coverage loses the edges oriented along the missing directions.
    The back-projection uses the plan the geometry holds, else streams.
    """
    geom.matches_sinogram(sino)
    if not isinstance(kind, FilterKind):
        raise ParameterError(f"unknown filter kind {kind!r}")
    filtered = _ramp_filter_array(sino.as_f64(), kind)
    recon = backproject_array(filtered, geom)
    recon *= math.pi / (geom.n_views * geom.detector_spacing)
    return Image(geom.image_rows, geom.image_cols, recon)


@dataclass(frozen=True)
class TomoOperator:
    """Flattened-vector view of the projection pair for iterative solvers.

    Three products: forward (A x), adjoint (A^T y) and normal, which returns
    (A x, A^T A x) from one pass.  Each runs _block_products on the plan the
    geometry owns (built on first use: an iterative solver makes many
    products), or, above _PLAN_NNZ_LIMIT, on each view's block as it is
    walked, so a streamed normal walks each view once.  scipy's public
    product cannot run a block of rows into slices of two outputs, as
    normal does.  These are the kernels of scipy's own csr_matrix products,
    in the plan's summation order, so with M the plan as a csr_matrix the
    results have the bits of M @ x, M.T @ y and M.T @ (M @ x).
    """

    geom: Geometry

    @property
    def shape(self):
        g = self.geom
        return (g.n_views * g.detectors, g.image_rows * g.image_cols)

    def _image_vector(self, x: np.ndarray) -> np.ndarray:
        g = self.geom
        x = np.asarray(x, dtype=np.float64)
        if x.size != g.image_rows * g.image_cols:
            raise DimensionError(
                f"vector of size {x.size} does not match image "
                f"{(g.image_rows, g.image_cols)}"
            )
        return x.ravel()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._image_vector(x)
        ax = np.zeros(self.shape[0])
        _block_products(self.geom, self.geom.plan, x, ax, adjoint=False)
        return ax

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        g = self.geom
        y = np.asarray(y, dtype=np.float64)
        if y.size != g.n_views * g.detectors:
            raise DimensionError(
                f"vector of size {y.size} does not match sinogram "
                f"{(g.n_views, g.detectors)}"
            )
        return _block_products(g, g.plan, None, y.ravel(), adjoint=True)

    def normal(self, x: np.ndarray):
        """(A x, A^T A x), with the bits of forward(x) and adjoint(forward(x))."""
        x = self._image_vector(x)
        ax = np.zeros(self.shape[0])
        return ax, _block_products(self.geom, self.geom.plan, x, ax, adjoint=True)
