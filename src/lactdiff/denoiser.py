"""Noise-prediction interface and analytic stand-ins for a trained network.

A denoiser maps a stack of chain states x_t, a timestep t and a condition to
a noise estimate eps.  For Gaussian mixture priors the minimum-MSE
estimator E[x0 | x_t] is available in closed form, which yields an exact
eps-predictor:

    eps_hat = (x_t - sqrt(ab_t) * E[x0 | x_t]) / sqrt(1 - ab_t)
            = -sqrt(1 - ab_t) * grad log p_t(x_t).

These analytic denoisers let the whole sampling stack be verified against
closed-form posteriors; no network training happens here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import DataError, DimensionError, Image, ParameterError
from .diffusion import NoiseSchedule


class ConditionSource(enum.Enum):
    FBP = "fbp"
    RLS = "rls"
    NONE = "none"


@dataclass(frozen=True)
class ConditionInput:
    """Low-fidelity reconstruction used as conditioning, normalized to [0, 1]."""

    image: Image
    source: ConditionSource

    def __post_init__(self):
        if self.source is not ConditionSource.NONE:
            arr = self.image.data
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise DataError("condition image values must lie in [0, 1]")

    @classmethod
    def none(cls, rows: int, cols: int) -> "ConditionInput":
        return cls(Image(rows, cols, np.zeros((rows, cols))), ConditionSource.NONE)


class Denoiser(Protocol):
    """A noise predictor for a stack of chain states.

    denoise(x, t, cond) takes an (n, rows, cols) float64 stack x at original
    timestep t and returns the eps stack, of x's shape.  Row i of eps
    depends only on x[i], t and cond, never on the other rows or on n, so a
    chain gets the same bits alone or in a batch.  A model must accept
    cond.source == NONE.
    """

    def denoise(self, x: np.ndarray, t: int, cond: ConditionInput) -> np.ndarray:
        ...


def denoise(model: Denoiser, x: np.ndarray, t: int, cond: ConditionInput) -> np.ndarray:
    """model.denoise(x, t, cond) with its inputs and output checked.

    x must be an (n, rows, cols) stack matching the condition image, and
    eps an array of x's shape.
    """
    if x.ndim != 3:
        raise DimensionError(f"expected an (n, rows, cols) stack, got shape {x.shape}")
    if cond.source is not ConditionSource.NONE and cond.image.shape != x.shape[1:]:
        raise DimensionError(f"condition {cond.image.shape} does not match sample {x.shape[1:]}")
    eps = model.denoise(x, t, cond)
    if not isinstance(eps, np.ndarray):
        raise DimensionError(f"denoiser returned a {type(eps).__name__}, not an eps array")
    if eps.shape != x.shape:
        raise DimensionError(f"denoiser returned eps of shape {eps.shape}")
    return eps


def guided_epsilon(eps_cond: np.ndarray, eps_uncond: np.ndarray, lam: float) -> np.ndarray:
    """Blend conditional and unconditional noise predictions:
    lam * eps_cond + (1 - lam) * eps_uncond.  lam = 1 returns eps_cond itself
    (guidance off); lam = 0 returns eps_uncond itself.
    """
    if eps_cond.shape != eps_uncond.shape:
        raise DimensionError("guidance branches have mismatched shapes")
    if lam == 1.0:
        return eps_cond
    if lam == 0.0:
        return eps_uncond
    return lam * eps_cond + (1.0 - lam) * eps_uncond


@dataclass(frozen=True, eq=False)
class GmmPrior:
    """Isotropic Gaussian mixture over flattened images.

    weights are normalized at construction; each component is
    N(mean_i, variance_i * I) on R^dim.
    """

    dim: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel().copy()
        mu = np.asarray(self.means, dtype=np.float64).reshape(w.size, -1).copy()
        s2 = np.asarray(self.variances, dtype=np.float64).ravel().copy()
        if w.size < 1:
            raise ParameterError("mixture needs at least one component")
        if s2.size != w.size:
            raise ParameterError("one variance per component is required")
        if mu.shape[1] != self.dim:
            raise DimensionError(
                f"component means have dim {mu.shape[1]}, expected {self.dim}"
            )
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ParameterError("component weights must be positive and finite")
        if np.any(s2 <= 0.0) or not np.all(np.isfinite(s2)):
            raise ParameterError("component variances must be positive and finite")
        if not np.all(np.isfinite(mu)):
            raise ParameterError("component means must be finite")
        w /= w.sum()
        for arr in (w, mu, s2):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", s2)

    @property
    def n_components(self) -> int:
        return self.weights.size


def save_gmm_prior(path, prior: GmmPrior) -> None:
    """One line per component: weight, dim mean entries, variance."""
    with open(path, "w", encoding="ascii") as fh:
        for w, mu, s2 in zip(prior.weights, prior.means, prior.variances):
            fields = [f"{w:.17g}"] + [f"{m:.17g}" for m in mu] + [f"{s2:.17g}"]
            fh.write(" ".join(fields) + "\n")


def load_gmm_prior(path) -> GmmPrior:
    rows = []
    # a byte outside ASCII decodes to U+FFFD, which float() rejects with the line
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise ParameterError(f"{path} line {number}: {exc}") from exc
    if not rows:
        raise ParameterError(f"no mixture components found in {path}")
    width = len(rows[0])
    if width < 3 or any(len(r) != width for r in rows):
        raise ParameterError("every component line needs weight, means, variance")
    arr = np.asarray(rows, dtype=np.float64)
    return GmmPrior(width - 2, arr[:, 0], arr[:, 1:-1], arr[:, -1])


def _logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over `axis` of a real array, in the arithmetic of
    scipy.special.logsumexp (scipy 1.17): the maxima are kept out of the sum,
    and the result is log1p(rest / count) + log(count) + max."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max(axis=axis, keepdims=True)
    is_top = a == top
    count = is_top.sum(axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + top
        # without a finite maximum there is no shift; sum directly
        out = np.where(np.isfinite(out), out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return out if keepdims else np.squeeze(out, axis=axis)[()]


def _diffused_components(prior: GmmPrior, t: int, sched: NoiseSchedule):
    """Marginal of x_t per component: N(sqrt(ab)*mu_i, (ab*s2_i + 1 - ab) I)."""
    ab = sched.alpha_bar_at(t)
    return ab, np.sqrt(ab) * prior.means, ab * prior.variances + (1.0 - ab)


def gmm_log_marginal(prior: GmmPrior, x_t: np.ndarray, t: int, sched: NoiseSchedule) -> float:
    """log p_t(x_t) of the diffused mixture (log-sum-exp stabilized)."""
    x = np.asarray(x_t, dtype=np.float64).ravel()
    if x.size != prior.dim:
        raise DimensionError(f"x has dim {x.size}, prior has dim {prior.dim}")
    _, centers, m2 = _diffused_components(prior, t, sched)
    sq = ((x[None, :] - centers) ** 2).sum(axis=1)
    log_comp = -0.5 * (prior.dim * np.log(2.0 * np.pi * m2) + sq / m2)
    return float(_logsumexp(log_comp + np.log(prior.weights)))


def _gmm_posterior_mean_rows(
    prior: GmmPrior, x: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """E[x0 | x_t] for each row of an (n, dim) array; every row's arithmetic
    is independent of n, so a chain gives the same bits alone or in a batch."""
    if x.shape[1] != prior.dim:
        raise DimensionError(f"x has dim {x.shape[1]}, prior has dim {prior.dim}")
    ab, centers, m2 = _diffused_components(prior, t, sched)
    sqrt_ab = np.sqrt(ab)
    comp_means = [
        (sqrt_ab * s2 * x + (1.0 - ab) * mu) / m2_i
        for s2, mu, m2_i in zip(prior.variances, prior.means, m2)
    ]
    if prior.n_components == 1:
        return comp_means[0]
    sq = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    log_resp = np.log(prior.weights) - 0.5 * (prior.dim * np.log(2.0 * np.pi * m2) + sq / m2)
    return _mixture_average(log_resp, comp_means)


def _mixture_average(log_resp: np.ndarray, comp_means) -> np.ndarray:
    """Sum of the (n, dim) component means weighted by the responsibilities
    normalised from the (n, k) log_resp, accumulated in component order."""
    resp = np.exp(log_resp - _logsumexp(log_resp, axis=1, keepdims=True))
    total = resp[:, :1] * comp_means[0]
    for i in range(1, len(comp_means)):
        total += resp[:, i : i + 1] * comp_means[i]
    return total


def gmm_posterior_mean(
    prior: GmmPrior, x_t: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """Exact E[x0 | x_t] under the mixture prior.

    Component responsibilities come from the diffused marginals; each
    component contributes its conjugate-Gaussian posterior mean
    (sqrt(ab)*s2*x_t + (1-ab)*mu) / (ab*s2 + 1 - ab).
    """
    x = np.asarray(x_t, dtype=np.float64).reshape(1, -1)
    return _gmm_posterior_mean_rows(prior, x, t, sched)[0]


def _eps_from_posterior_mean(x: np.ndarray, post_mean: np.ndarray, ab: float) -> np.ndarray:
    return (x - math.sqrt(ab) * post_mean) / math.sqrt(1.0 - ab)


class GmmDenoiser:
    """Exact eps-predictor for a Gaussian-mixture data distribution."""

    def __init__(self, prior: GmmPrior, sched: NoiseSchedule):
        self.prior = prior
        self.sched = sched

    def denoise(self, x: np.ndarray, t: int, cond: ConditionInput):
        flat = x.reshape(x.shape[0], -1)
        post = _gmm_posterior_mean_rows(self.prior, flat, t, self.sched)
        eps = _eps_from_posterior_mean(flat, post, self.sched.alpha_bar_at(t))
        return eps.reshape(x.shape)


def gmm_denoiser(prior: GmmPrior, sched: NoiseSchedule) -> GmmDenoiser:
    return GmmDenoiser(prior, sched)


@dataclass(frozen=True, eq=False)
class GaussianMixtureFull:
    """Mixture with full covariances; used for measurement posteriors."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray


# the per-timestep tables of one ConditionalGmmDenoiser stop growing once
# their gains take this many bytes; a timestep without a table forms its
# terms on every call
_STEP_TABLE_BYTES = 1 << 24


class ConditionalGmmDenoiser:
    """Exact eps-predictor for the posterior of a GMM prior under a linear
    Gaussian measurement y = A x0 + noise.

    The posterior of a mixture under such a likelihood is again a mixture
    (reweighted components, updated means, full covariances), so the exact
    conditional MMSE denoiser is available in closed form.  Used as the
    conditional branch in guidance and sampling tests; `posterior` exposes
    the updated mixture for oracle cross-checks.
    """

    def __init__(
        self,
        prior: GmmPrior,
        matrix: np.ndarray,
        y: np.ndarray,
        noise_var: float,
        sched: NoiseSchedule,
    ):
        matrix = np.asarray(matrix, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if matrix.ndim != 2 or matrix.shape[1] != prior.dim:
            raise DimensionError(
                f"measurement matrix {matrix.shape} does not act on dim {prior.dim}"
            )
        if y.size != matrix.shape[0]:
            raise DimensionError(
                f"measurement vector has dim {y.size}, matrix has {matrix.shape[0]} rows"
            )
        if not (noise_var > 0.0 and np.isfinite(noise_var)):
            raise ParameterError("noise_var must be positive and finite")
        self.sched = sched
        dim = prior.dim
        gram = matrix.T @ matrix
        at_y = matrix.T @ y

        k = prior.n_components
        means = np.empty((k, dim))
        covs = np.empty((k, dim, dim))
        log_w = np.empty(k)
        eye = np.eye(dim)
        for i in range(k):
            s2 = prior.variances[i]
            prec = eye / s2 + gram / noise_var
            cov = np.linalg.inv(prec)
            cov = 0.5 * (cov + cov.T)
            means[i] = cov @ (prior.means[i] / s2 + at_y / noise_var)
            covs[i] = cov
            # evidence N(y; A mu_i, s2 A A^T + noise_var I)
            ev_cov = s2 * (matrix @ matrix.T) + noise_var * np.eye(y.size)
            diff = y - matrix @ prior.means[i]
            sign, logdet = np.linalg.slogdet(ev_cov)
            if sign <= 0:
                raise ParameterError("evidence covariance is not positive definite")
            log_w[i] = (
                np.log(prior.weights[i])
                - 0.5 * (y.size * np.log(2.0 * np.pi) + logdet)
                - 0.5 * float(diff @ np.linalg.solve(ev_cov, diff))
            )
        log_w -= _logsumexp(log_w)
        self.posterior = GaussianMixtureFull(np.exp(log_w), means, covs)
        # eigendecompositions make every timestep's marginals cheap
        self._eigvals = np.empty((k, dim))
        self._eigvecs = np.empty((k, dim, dim))
        for i in range(k):
            vals, vecs = np.linalg.eigh(covs[i])
            self._eigvals[i] = np.maximum(vals, 0.0)
            self._eigvecs[i] = vecs
        self._eigvecs_t = np.ascontiguousarray(self._eigvecs.transpose(0, 2, 1))
        # per original timestep, the terms of _step_table
        self._tables = {}

    def _step_table(self, t: int):
        """(ab, parts) at original timestep t, kept from the first call at t
        while the kept gains fit in _STEP_TABLE_BYTES.

        parts holds, for each component i, its shift sqrt(ab) mean_i, its
        symmetric gain G_i = V_i diag(sqrt(ab) lam_i / marg_i) V_i^T with
        marg_i = ab lam_i + 1 - ab, marg_i itself, and, when there are
        several components, its log-density constant dim log(2 pi) +
        sum(log marg_i).  None of them depends on x, so a BLAS product is
        fine here.
        """
        table = self._tables.get(t)
        if table is None:
            post = self.posterior
            k, dim = post.means.shape
            ab = self.sched.alpha_bar_at(t)
            sqrt_ab = np.sqrt(ab)
            parts = []
            for i in range(k):
                lam = self._eigvals[i]
                marg = ab * lam + (1.0 - ab)
                gain = (self._eigvecs[i] * (sqrt_ab * lam / marg)) @ self._eigvecs_t[i]
                log_norm = dim * np.log(2.0 * np.pi) + np.log(marg).sum() if k > 1 else None
                parts.append((sqrt_ab * post.means[i], gain, marg, log_norm))
            table = (ab, parts)
            # all gains together take the bytes of the eigenvectors
            if (len(self._tables) + 1) * self._eigvecs.nbytes <= _STEP_TABLE_BYTES:
                self._tables[t] = table
        return table

    def _posterior_mean_rows(self, x: np.ndarray, parts) -> np.ndarray:
        """E[x0 | x_t, y] for each row of an (n, dim) array, from the parts
        of _step_table at t.

        Component i's mean is mean_i + (x - sqrt(ab) mean_i) G_i.  Every
        product with x is an np.einsum without optimize, which sums each row
        by itself; a BLAS matmul (`@`, np.dot, optimize=True) would give row
        bits that depend on n.
        """
        post = self.posterior
        k = post.weights.size
        log_resp = np.empty((x.shape[0], k))
        comp_means = []
        for i, (shift, gain, marg, log_norm) in enumerate(parts):
            diff = x - shift
            comp_means.append(post.means[i] + np.einsum("nj,jk->nk", diff, gain))
            if k > 1:
                proj = np.einsum("nj,aj->na", diff, self._eigvecs_t[i])
                log_resp[:, i] = np.log(post.weights[i]) - 0.5 * (
                    log_norm + ((proj**2) / marg).sum(axis=1)
                )
        if k == 1:
            return comp_means[0]
        return _mixture_average(log_resp, comp_means)

    def denoise(self, x: np.ndarray, t: int, cond: ConditionInput):
        ab, parts = self._step_table(t)
        flat = x.reshape(x.shape[0], -1)
        post = self._posterior_mean_rows(flat, parts)
        eps = _eps_from_posterior_mean(flat, post, ab)
        return eps.reshape(x.shape)


def conditional_gmm_denoiser(
    prior: GmmPrior,
    matrix: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    sched: NoiseSchedule,
) -> ConditionalGmmDenoiser:
    return ConditionalGmmDenoiser(prior, matrix, y, noise_var, sched)

