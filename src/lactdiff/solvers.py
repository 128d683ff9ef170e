"""Iterative solvers: conjugate gradient, Tikhonov least squares, TV
reconstruction, and the measurement-consistency proximal map.

All solvers run in float64 on flattened vectors and accept any operator
exposing forward (A x), adjoint (A^T y), normal ((A x, A^T A x)) and shape
over flat arrays.  Every A^T A they apply is one normal call, which
TomoOperator makes in one pass over its plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import DimensionError, Image, NumericalError, ParameterError, Sinogram
from .tomography import Geometry, TomoOperator

# the most Lanczos steps of one operator_norm_sq call, and projection steps of one tv_prox call
_LANCZOS_MAX_STEPS = 50
_TV_PROX_MAX_STEPS = 20


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> of 1-D float64 arrays, with bits that BLAS threads cannot change.

    BLAS (`@`, np.linalg.norm) sums in an order set by its thread count;
    np.einsum without optimize sums in numpy's own loop.
    """
    return float(np.einsum("i,i->", a, b))


@dataclass
class CgReport:
    iterations: int
    final_residual_norm: float
    converged: bool


@dataclass(frozen=True)
class ProxConfig:
    """Weight and solver budget for the data-consistency proximal step.

    The sampler applies the one weight gamma at every reverse step.
    """

    gamma: float
    cg_tol: float = 1e-8
    cg_max_iter: int = 100

    def __post_init__(self):
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ParameterError("gamma must be positive and finite")
        if not (self.cg_tol > 0.0 and np.isfinite(self.cg_tol)):
            raise ParameterError("cg_tol must be positive and finite")
        if self.cg_max_iter < 1:
            raise ParameterError("cg_max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense matrix with the forward, adjoint and normal products of TomoOperator."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise DimensionError("operator matrix must be 2-D")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def shape(self):
        return self.matrix.shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=np.float64).ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.matrix.T @ np.asarray(y, dtype=np.float64).ravel()

    def normal(self, x: np.ndarray):
        """(A x, A^T A x), with the bits of forward(x) and adjoint(forward(x))."""
        ax = self.forward(x)
        return ax, self.matrix.T @ ax


def conjugate_gradient(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 500,
):
    """Solve apply_op(x) = rhs for a symmetric positive semi-definite operator.

    Stops when ||apply_op(x) - rhs|| <= tol * ||rhs|| (tol >= 0), otherwise
    reports converged=False after max_iter steps.  Returns (x, CgReport).  A
    start x0 costs one product for the first residual; a zero start (x0
    None) needs none.
    """
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if x0 is None:
        x = np.zeros_like(rhs)
    else:
        x = np.asarray(x0, dtype=np.float64).ravel().copy()
        if x.shape != rhs.shape:
            raise DimensionError(f"x0 has size {x.size}, rhs has size {rhs.size}")
    if max_iter < 0:
        raise ParameterError("max_iter must be >= 0")
    # written negated, so that NaN fails too
    if not tol >= 0.0:
        raise ParameterError(f"tol must be >= 0, got {tol}")

    def checked(out):
        out = np.asarray(out, dtype=np.float64).ravel()
        if out.shape != rhs.shape:
            raise DimensionError(
                f"operator returned size {out.size}, expected {rhs.size}"
            )
        if not np.all(np.isfinite(out)):
            raise NumericalError("operator produced non-finite values")
        return out

    target = tol * _dot(rhs, rhs) ** 0.5
    if x0 is None:
        r = rhs.copy()
    else:
        r = rhs - checked(apply_op(x))
    rs = _dot(r, r)
    res_norm = rs**0.5
    if res_norm <= target:
        return x, CgReport(0, res_norm, True)

    p = r.copy()
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        ap = checked(apply_op(p))
        p_ap = _dot(p, ap)
        if not np.isfinite(p_ap) or p_ap <= 0.0:
            raise NumericalError(
                f"conjugate gradient breakdown (p^T A p = {p_ap:g}); operator is not SPD"
            )
        alpha = rs / p_ap
        x += alpha * p
        r -= alpha * ap
        rs_new = _dot(r, r)
        if not np.isfinite(rs_new):
            raise NumericalError("conjugate gradient residual became non-finite")
        res_norm = rs_new**0.5
        if res_norm <= target:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, CgReport(iterations, res_norm, converged)


def operator_norm_sq(op) -> float:
    """Largest eigenvalue of A^T A, by Lanczos from the normalised all-ones image.

    Each step makes one op.normal product and extends the tridiagonal of the
    plain three-term recurrence (no reorthogonalisation); the estimate is the
    top eigenvalue theta of that tridiagonal.  From the second step on it
    stops once the top Ritz pair's a-posteriori bound
    (beta_k * |s_k|)^2 <= 1e-14 * theta * (theta - theta_2) holds, on a step
    that moved theta by at most 1e-14 relative.  Here s_k is the last entry
    of theta's eigenvector of the tridiagonal and theta_2 the second Ritz
    value; theta then lies within residual^2 / gap of an eigenvalue, the
    residual being beta_k * |s_k| (Parlett, The Symmetric Eigenvalue
    Problem, SIAM 1998, ch. 11).  The still step is needed because
    theta - theta_2 only estimates the gap: while a cluster at the top is
    not yet resolved, theta sits inside it with a small residual and theta_2
    far below, and the next step moves theta (a 6 x 1 image seen at 90
    degrees with detector spacing 0.99999 stops 5e-10 low on the bound
    alone).  It also stops when the Krylov space becomes invariant
    (beta <= 1e-12 * theta, as for low-rank geometries), or after
    _LANCZOS_MAX_STEPS (50) steps.

    The start makes theta the top eigenvalue for every operator with
    entries >= 0, as a stencil plan's interpolation weights are: A^T A is
    then entrywise non-negative, so by Perron-Frobenius it has a
    non-negative top eigenvector, which the all-ones start always overlaps
    (unlike a random start, which puts almost no weight on that smooth
    vector; Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4),
    1992).  A signed operator whose top eigenvector is orthogonal to the
    all-ones image is outside this guarantee: the estimate is then a lower
    eigenvalue.
    """
    n = op.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta = theta = 0.0
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        w = op.normal(v)[1] - beta * v_prev
        alpha = _dot(v, w)
        w -= alpha * v
        alphas.append(alpha)
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(tri)
        theta_prev, theta = theta, float(ritz[-1])
        beta = _dot(w, w) ** 0.5
        if beta <= 1e-12 * theta:
            break
        still = k >= 2 and abs(theta - theta_prev) <= 1e-14 * theta
        if still and (beta * vecs[-1, -1]) ** 2 <= 1e-14 * theta * (theta - ritz[-2]):
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return max(theta, 0.0)


def default_rls_tau(geom: Geometry) -> float:
    """Default Tikhonov weight, scaled to the operator: 0.05 * ||A^T A||_2."""
    return 0.05 * geom.norm_sq


def rls_reconstruct(
    sino: Sinogram,
    geom: Geometry,
    tau: Optional[float] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> Tuple[Image, CgReport]:
    """Minimize ||Ax - y||^2 + tau * ||x||^2 via CG on the normal equations.

    Returns (Image, CgReport); the report tells a solve that stopped at
    max_iter short of tol.
    """
    geom.matches_sinogram(sino)
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    if tau is None:
        tau = default_rls_tau(geom)
    if tau < 0.0 or not np.isfinite(tau):
        raise ParameterError(f"tau must be >= 0, got {tau}")
    op = TomoOperator(geom)
    y = sino.as_f64().ravel()
    rhs = op.adjoint(y)

    def normal_apply(v):
        return op.normal(v)[1] + tau * v

    x, report = conjugate_gradient(normal_apply, rhs, None, tol, max_iter)
    rows, cols = geom.image_rows, geom.image_cols
    return Image(rows, cols, x.reshape(rows, cols)), report


def _grad2d(u: np.ndarray, gx: np.ndarray, gy: np.ndarray):
    """Forward differences written into gx and gy; the last row of gx and the
    last column of gy are 0.
    """
    np.subtract(u[1:, :], u[:-1, :], out=gx[:-1, :])
    gx[-1, :] = 0.0
    np.subtract(u[:, 1:], u[:, :-1], out=gy[:, :-1])
    gy[:, -1] = 0.0
    return gx, gy


def _div2d(px: np.ndarray, py: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Negative adjoint of _grad2d, <grad u, p> = -<u, div p>, for every shape,
    written into out.

    An axis of length 1 has no differences, so its component adds nothing.
    """
    rows, cols = px.shape
    if rows > 1:
        out[0, :] = px[0, :]
        np.subtract(px[1:-1, :], px[:-2, :], out=out[1:-1, :])
        np.negative(px[-2, :], out=out[-1, :])
    else:
        out.fill(0.0)
    if cols > 1:
        out[:, 0] += py[:, 0]
        out[:, 1:-1] += py[:, 1:-1] - py[:, :-2]
        out[:, -1] -= py[:, -2]
    return out


def total_variation(u: np.ndarray) -> float:
    """Isotropic discrete TV with forward differences."""
    u = np.asarray(u, dtype=np.float64)
    gx, gy = _grad2d(u, np.empty_like(u), np.empty_like(u))
    return float(np.sqrt(gx**2 + gy**2).sum())


class TvDual:
    """Chambolle's dual field (px, py) of tv_prox, and its work buffers.

    Handed to tv_prox call after call, it starts each projection from the
    field the previous call ended with.  `iterations` counts the projection
    steps of every call.
    """

    def __init__(self, shape):
        self.px, self.py = np.zeros(shape), np.zeros(shape)
        self.work = tuple(np.empty(shape) for _ in range(6))
        self.iterations = 0


def tv_prox(g: np.ndarray, weight: float, dual: TvDual) -> np.ndarray:
    """argmin_u 0.5*||u - g||^2 + weight*TV(u) by dual projection iterations.

    Chambolle's projection (J. Math. Imaging Vis. 20, 2004) with step 1/4.
    It starts from dual's field (p = 0 in a fresh TvDual), leaves its last
    field there, and stops once u_j = g - weight * div p_j moves by at most
    1e-6 of its norm in one step, ||u_j - u_{j-1}|| <= 1e-6 * ||u_j||, or
    after _TV_PROX_MAX_STEPS (20) steps.  The test reuses the div p that
    each step computes anyway.
    """
    if weight <= 0.0:
        return np.asarray(g, dtype=np.float64).copy()
    g = np.asarray(g, dtype=np.float64)
    if dual.px.shape != g.shape:
        raise DimensionError(f"dual field {dual.px.shape} does not match {g.shape}")
    tau = 0.25
    g_scaled = g / weight
    px, py = dual.px, dual.py
    div, div_prev, work, gx, gy, denom = dual.work
    _div2d(px, py, out=div)
    for _ in range(_TV_PROX_MAX_STEPS):
        # px, py <- (p + tau * grad(div p - g / weight)) / (1 + tau * |grad(...)|)
        np.subtract(div, g_scaled, out=work)
        _grad2d(work, gx, gy)
        np.square(gx, out=denom)
        denom += np.square(gy, out=work)
        np.sqrt(denom, out=denom)
        denom *= tau
        denom += 1.0
        gx *= tau
        px += gx
        px /= denom
        gy *= tau
        py += gy
        py /= denom
        dual.iterations += 1
        div, div_prev = div_prev, div
        _div2d(px, py, out=div)
        # ||u_j - u_{j-1}|| / ||u_j|| = ||div_j - div_{j-1}|| / ||g / weight - div_j||
        np.subtract(div, div_prev, out=work)
        moved = _dot(work.ravel(), work.ravel())
        np.subtract(g_scaled, div, out=work)
        if moved <= 1e-12 * _dot(work.ravel(), work.ravel()):
            break
    return g - weight * div


@dataclass
class TvReport:
    """What tv_reconstruct did: the candidates its monotone safeguard
    rejected, and the tv_prox steps of all its calls."""

    rejected: int
    prox_iterations: int


def tv_reconstruct(
    sino: Sinogram,
    geom: Geometry,
    lam: float,
    outer_iters: int = 50,
) -> Tuple[Image, TvReport]:
    """Approximately minimize 0.5*||Ax - y||^2 + lam*TV(x); returns (Image, TvReport).

    Accelerated proximal gradient with a monotone safeguard (Beck & Teboulle,
    IEEE TIP 18(11), 2009): the candidate from the momentum point is kept
    only when it does not increase the composite objective, so the objective
    is non-increasing across outer iterations.  As there, the inner TV prox
    is warm-started: one TvDual is carried from call to call, and each call
    stops by tv_prox's rule, within its 20-step cap.  A rejected candidate
    thus does not come back, since the next prox starts from a further dual.
    The gradient step is 1/L with L = 1.05 * ||A^T A|| from the Lanczos
    estimate the geometry keeps (Geometry.norm_sq).  The gradient at the
    momentum point z is A^T A z - A^T y.  A^T y is formed once, A^T A is
    kept for the iterate and the candidate, and A^T A z is formed from them,
    since z is their combination; so each outer iteration costs one normal
    product (A and A^T A of the candidate, one pass over the plan).
    """
    geom.matches_sinogram(sino)
    if lam < 0.0 or not np.isfinite(lam):
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if outer_iters < 1:
        raise ParameterError("outer_iters must be >= 1")
    op = TomoOperator(geom)
    y = sino.as_f64().ravel()
    rows, cols = geom.image_rows, geom.image_cols
    lipschitz = 1.05 * geom.norm_sq
    if lipschitz <= 0.0:
        lipschitz = 1.0
    step = 1.0 / lipschitz

    def objective(x_flat, ax):
        res = ax - y
        val = 0.5 * _dot(res, res)
        if lam > 0.0:
            val += lam * total_variation(x_flat.reshape(rows, cols))
        return val

    adj_y = op.adjoint(y)
    # A and A^T A applied to the zero start are zero
    x, nx = np.zeros(rows * cols), np.zeros(rows * cols)
    z_momentum, nz = x, nx
    f_x = objective(x, np.zeros(y.size))
    t_k = 1.0
    dual = TvDual((rows, cols))
    rejected = 0
    for _ in range(outer_iters):
        grad = nz - adj_y
        if not np.all(np.isfinite(grad)):
            raise NumericalError("TV solver produced non-finite gradient")
        cand = z_momentum - step * grad
        if lam > 0.0:
            cand = tv_prox(cand.reshape(rows, cols), lam * step, dual).ravel()
        acand, ncand = op.normal(cand)
        f_cand = objective(cand, acand)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
        if f_cand <= f_x:
            x_next, nx_next, f_next = cand, ncand, f_cand
        else:
            x_next, nx_next, f_next = x, nx, f_x
            rejected += 1
        # z and A^T A z share the coefficients, since A^T A is linear
        c_cand, c_prev = t_k / t_next, (t_k - 1.0) / t_next
        z_momentum = x_next + c_cand * (cand - x_next) + c_prev * (x_next - x)
        nz = nx_next + c_cand * (ncand - nx_next) + c_prev * (nx_next - nx)
        x, nx, f_x = x_next, nx_next, f_next
        t_k = t_next
    return Image(rows, cols, x.reshape(rows, cols)), TvReport(rejected, dual.iterations)


def prox_consistency(
    x_tilde: np.ndarray,
    y: np.ndarray,
    op,
    cfg: ProxConfig,
):
    """argmin_z ||z - x_tilde||^2 + gamma * ||op(z) - y||^2 on flat arrays.

    Solved by CG on (I + gamma A^T A) z = x_tilde + gamma A^T y, warm-started
    at x_tilde.  Every CG iterate keeps the prox objective at or below its
    value at x_tilde, so the measurement residual never increases even when
    the iteration budget runs out (reported via converged=False).  Each call
    makes its own products: one A^T y for the right-hand side, and one
    normal for CG's first residual plus one per CG iteration.
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x_tilde.size != op.shape[1] or y.size != op.shape[0]:
        raise DimensionError(
            f"prox inputs {x_tilde.size}/{y.size} do not match operator {op.shape}"
        )
    gamma = cfg.gamma

    def apply(v):
        return v + gamma * op.normal(v)[1]

    rhs = x_tilde + gamma * op.adjoint(y)
    return conjugate_gradient(apply, rhs, x_tilde, cfg.cg_tol, cfg.cg_max_iter)


def data_consistency_prox(x_tilde: Image, sino: Sinogram, geom: Geometry, cfg: ProxConfig):
    """Proximal data-consistency step on rasters; returns (Image, CgReport)."""
    geom.matches_image(x_tilde)
    geom.matches_sinogram(sino)
    z, report = prox_consistency(
        x_tilde.as_f64().ravel(), sino.as_f64().ravel(), TomoOperator(geom), cfg
    )
    rows, cols = geom.image_rows, geom.image_cols
    return Image(rows, cols, z.reshape(rows, cols)), report
