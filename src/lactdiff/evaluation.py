"""Phantom generators, image-quality metrics, and closed-form oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    DimensionError, Image, NumericalError, ParameterError, PhantomKind, SeededRng, check_seed,
)

if TYPE_CHECKING:
    from .denoiser import GmmPrior


@dataclass(frozen=True)
class PhantomSpec:
    kind: PhantomKind
    size: int
    seed: int = 0

    def __post_init__(self):
        if self.size < 8:
            raise ParameterError(f"phantom size must be >= 8, got {self.size}")
        check_seed(self.seed)


# Classic head phantom: additive intensity, semi-axes, center, tilt (degrees)
# on the [-1, 1]^2 plane.  Summed values stay within [0, 2].
_HEAD_ELLIPSES = (
    (2.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.98, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.02, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.02, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.01, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.01, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.01, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.01, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.01, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.01, 0.023, 0.046, 0.06, -0.605, 0.0),
)


# Boundary pixels carry their subpixel coverage fraction so that projection
# and reconstruction oracles see box-averaged rather than aliased edges;
# pixels away from a boundary hold the exact pointwise ellipse sum.
_SUBSAMPLE = 8


def _pixel_grid(n: int):
    """Pixel-center coordinates mapped onto [-1, 1]^2, y up."""
    idx = np.arange(n, dtype=np.float64)
    u = (idx - (n - 1) / 2.0) * (2.0 / n)
    x = np.broadcast_to(u[None, :], (n, n))
    y = np.broadcast_to(-u[:, None], (n, n))
    return x, y


def _grid_span(center: float, reach: float, fine: int) -> slice:
    """Indices of the grid coordinates u (see _pixel_grid) within reach of
    center, widened by 2 on each side so that rounding cannot drop one.
    Index i holds u = (i - (fine-1)/2) * 2/fine."""
    half = fine / 2.0
    lo = math.floor((center - reach + 1.0) * half - 0.5) - 2
    hi = math.ceil((center + reach + 1.0) * half - 0.5) + 3
    return slice(max(0, lo), max(0, min(fine, hi)))


def _add_ellipse(img, x, y, value, a, b, x0, y0, phi_deg):
    """Add value to the points of img inside the ellipse, testing only the
    rows and columns of its bounding box; img, x and y are (fine, fine)."""
    phi = math.radians(phi_deg)
    c, s = math.cos(phi), math.sin(phi)
    fine = img.shape[0]
    # columns hold x = u and rows y = -u
    box = (_grid_span(-y0, math.hypot(a * s, b * c), fine),
           _grid_span(x0, math.hypot(a * c, b * s), fine))
    dx = x[box] - x0
    dy = y[box] - y0
    inside = ((dx * c + dy * s) / a) ** 2 + ((-dx * s + dy * c) / b) ** 2 <= 1.0
    img[box][inside] += value


def _rasterize(n: int, ellipse_list) -> np.ndarray:
    fine = n * _SUBSAMPLE
    img = np.zeros((fine, fine))
    x, y = _pixel_grid(fine)
    for value, a, b, x0, y0, phi in ellipse_list:
        _add_ellipse(img, x, y, value, a, b, x0, y0, phi)
    return img.reshape(n, _SUBSAMPLE, n, _SUBSAMPLE).mean(axis=(1, 3))


def _random_shapes(n: int, seed: int, ellipses: bool) -> np.ndarray:
    """Non-overlapping random disks/ellipses with seeded placement."""
    rng = SeededRng(seed)
    shapes = []
    placed = []  # (x0, y0, bounding radius)
    count = 4 + int(rng.uniform(1)[0] * 4.0)
    attempts = 0
    while len(placed) < count and attempts < 200:
        attempts += 1
        u = rng.uniform(6)
        a = 0.08 + 0.17 * u[0]
        b = a if not ellipses else 0.08 + 0.17 * u[1]
        radius = max(a, b)
        x0 = (2.0 * u[2] - 1.0) * (0.85 - radius)
        y0 = (2.0 * u[3] - 1.0) * (0.85 - radius)
        if any(
            math.hypot(x0 - px, y0 - py) < radius + pr + 0.02 for px, py, pr in placed
        ):
            continue
        value = 0.4 + 1.2 * u[4]
        phi = 180.0 * u[5] if ellipses else 0.0
        shapes.append((value, a, b, x0, y0, phi))
        placed.append((x0, y0, radius))
    return _rasterize(n, shapes)


def make_phantom(spec: PhantomSpec) -> Image:
    """Deterministic test object with values in [0, 2]."""
    if spec.kind is PhantomKind.SHEPP_LOGAN:
        data = _rasterize(spec.size, _HEAD_ELLIPSES)
    elif spec.kind is PhantomKind.DISKS:
        data = _random_shapes(spec.size, spec.seed, ellipses=False)
    elif spec.kind is PhantomKind.ELLIPSES:
        data = _random_shapes(spec.size, spec.seed, ellipses=True)
    else:
        raise ParameterError(f"unknown phantom kind {spec.kind!r}")
    return Image(spec.size, spec.size, data)


def psnr(x: Image, reference: Image) -> float:
    """Peak signal-to-noise ratio in dB with peak = reference dynamic range.

    Identical inputs return +inf.  A constant reference has no defined peak,
    so it is only accepted when x equals it exactly.
    """
    if x.shape != reference.shape:
        raise DimensionError(f"shapes {x.shape} and {reference.shape} differ")
    ref = reference.as_f64()
    err = x.as_f64() - ref
    mse = float((err**2).mean())
    if mse == 0.0:
        return math.inf
    peak = float(ref.max() - ref.min())
    if peak <= 0.0:
        raise ParameterError("reference image is constant; peak is undefined")
    return 10.0 * math.log10(peak**2 / mse)


def _gaussian_taps(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """1-D taps of the SSIM window: the 2-D window, outer(g, g) normalised,
    is the outer product of these with themselves."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    return g / g.sum()


def ssim(x: Image, reference: Image) -> float:
    """Mean local structural similarity (11x11 Gaussian window, sigma 1.5).

    Stabilizers are C1 = (0.01 L)^2 and C2 = (0.03 L)^2 with L the dynamic
    range of the reference.  A constant reference has L = 0, which leaves
    0/0; as in psnr, it is only accepted when x equals it exactly, and then
    gives 1.0.
    """
    if x.shape != reference.shape:
        raise DimensionError(f"shapes {x.shape} and {reference.shape} differ")
    if min(x.shape) < 11:
        raise DimensionError("ssim needs images at least 11 pixels per side")
    a = x.as_f64()
    b = reference.as_f64()
    peak = float(b.max() - b.min())
    if peak <= 0.0:
        if np.array_equal(a, b):
            return 1.0
        raise ParameterError("reference image is constant; ssim is undefined")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    taps = _gaussian_taps()
    windows = np.lib.stride_tricks.sliding_window_view

    def smooth(img):
        # the separable window as two 1-D "valid" passes, rows then columns
        return windows(windows(img, taps.size, axis=1) @ taps, taps.size, axis=0) @ taps

    mu_a = smooth(a)
    mu_b = smooth(b)
    var_a = smooth(a * a) - mu_a**2
    var_b = smooth(b * b) - mu_b**2
    cov = smooth(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def gaussian_posterior_oracle(
    prior: GmmPrior, matrix: np.ndarray, y: np.ndarray, noise_var: float
):
    """Closed-form posterior for a single-Gaussian prior and linear data.

    Returns (mean, covariance) of x | y for y = A x + N(0, noise_var I):
      cov  = (Sigma0^-1 + A^T A / noise_var)^-1
      mean = cov @ (Sigma0^-1 mu0 + A^T y / noise_var).
    """
    if prior.n_components != 1:
        raise ParameterError("oracle requires a single-component prior")
    matrix = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if matrix.ndim != 2 or matrix.shape[1] != prior.dim:
        raise DimensionError(
            f"matrix {matrix.shape} does not act on dim {prior.dim}"
        )
    if y.size != matrix.shape[0]:
        raise DimensionError(f"y has dim {y.size}, matrix has {matrix.shape[0]} rows")
    if not (noise_var > 0.0 and np.isfinite(noise_var)):
        raise ParameterError("noise_var must be positive and finite")
    s2 = prior.variances[0]
    mu0 = prior.means[0]
    precision = np.eye(prior.dim) / s2 + matrix.T @ matrix / noise_var
    try:
        cov = np.linalg.inv(precision)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior precision is singular: {exc}") from exc
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (mu0 / s2 + matrix.T @ y / noise_var)
    return mean, cov


METRICS_CSV_HEADER = "phantom_id,method,theta_max,views,psnr_db,ssim"


def psnr_text(psnr_db: float) -> str:
    """A PSNR as the metrics outputs print it: "inf", or dB to 4 decimals."""
    return "inf" if math.isinf(psnr_db) else f"{psnr_db:.4f}"


def metrics_csv_row(
    phantom_id: str, method: str, theta_max: float, views: int, psnr_db: float, ssim_val: float
) -> str:
    return f"{phantom_id},{method},{theta_max:g},{views},{psnr_text(psnr_db)},{ssim_val:.6f}"
