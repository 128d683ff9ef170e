"""Noise-prediction interface and analytic stand-ins for a trained network.

A denoiser maps a stack of chain states x_t, a timestep t and a condition to
a noise estimate eps.  For a Gaussian mixture the exact eps-predictor is the
scaled score, summed over components i with responsibilities r_i:

    eps_hat = -sqrt(1 - ab_t) * grad log p_t(x_t)
            = sum_i r_i * sqrt(1 - ab_t) * Sigma_i^-1 (x_t - sqrt(ab_t) mu_i),

where Sigma_i = ab_t Cov_i + (1 - ab_t) I; both models end in _mixture_eps.
These analytic denoisers let the whole sampling stack be verified against
closed-form posteriors; no network training happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import DataError, DimensionError, Image, ParameterError
from .diffusion import NoiseSchedule


@dataclass(frozen=True)
class ConditionInput:
    """Conditioning image in [0, 1]: a low-fidelity reconstruction, or the
    zero image of ConditionInput.none for the unconditional branch."""

    image: Image

    def __post_init__(self):
        arr = self.image.data
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DataError("condition image values must lie in [0, 1]")

    @classmethod
    def none(cls, rows: int, cols: int) -> "ConditionInput":
        return cls(Image(rows, cols, np.zeros((rows, cols))))


class Denoiser(Protocol):
    """A noise predictor for a stack of chain states.

    denoise(x, t, cond) takes an (n, rows, cols) float64 stack x at original
    timestep t and returns the eps stack, of x's shape.  Row i of eps
    depends only on x[i], t and cond, never on the other rows or on n, so a
    chain gets the same bits alone or in a batch.  The unconditional branch
    of guidance receives ConditionInput.none, a zero image.
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
    if cond.image.shape != x.shape[1:]:
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


def gmm_posterior_mean(
    prior: GmmPrior, x_t: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """Exact E[x0 | x_t] under the mixture prior, for x_t of any shape
    (..., dim); the result has x_t's shape.

    Component responsibilities come from the diffused marginals; each
    component contributes its conjugate-Gaussian posterior mean
    (sqrt(ab)*s2*x_t + (1-ab)*mu) / (ab*s2 + 1 - ab).  Each state's
    arithmetic is independent of the others, so a chain gives the same bits
    alone or in a batch.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim < 1 or x_t.shape[-1] != prior.dim:
        raise DimensionError(f"x has shape {x_t.shape}, prior has dim {prior.dim}")
    x = x_t.reshape(-1, prior.dim)
    ab, centers, m2 = _diffused_components(prior, t, sched)
    sqrt_ab = np.sqrt(ab)
    comp_means = [
        (sqrt_ab * s2 * x + (1.0 - ab) * mu) / m2_i
        for s2, mu, m2_i in zip(prior.variances, prior.means, m2)
    ]
    if prior.n_components == 1:
        return comp_means[0].reshape(x_t.shape)
    sq = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    log_resp = np.log(prior.weights) - 0.5 * (prior.dim * np.log(2.0 * np.pi * m2) + sq / m2)
    return _mixture_average(log_resp, comp_means).reshape(x_t.shape)


def _mixture_average(log_resp: np.ndarray, comp_terms) -> np.ndarray:
    """Sum of the (n, dim) component terms weighted by the responsibilities
    normalised from the (n, k) log_resp, accumulated in component order."""
    resp = np.exp(log_resp - _logsumexp(log_resp, axis=1, keepdims=True))
    total = resp[:, :1] * comp_terms[0]
    for i in range(1, len(comp_terms)):
        total += resp[:, i : i + 1] * comp_terms[i]
    return total


def _mixture_eps(ab: float, log_weights, diffs, eps, log_norms) -> np.ndarray:
    """eps of a Gaussian mixture for each row of x_t, from its components.

    For component i, diffs[i] = x_t - sqrt(ab) mu_i and eps[i] =
    sqrt(1 - ab) Sigma_i^-1 diffs[i] are (n, dim) arrays, and log_norms[i] =
    dim log(2 pi) + log det Sigma_i.  The squared Mahalanobis distance is
    <eps[i], diffs[i]> / sqrt(1 - ab), so the responsibilities need no
    further product; each is a row-wise sum, so a row's bits do not depend
    on n.
    """
    if len(eps) == 1:
        return eps[0]
    scale = math.sqrt(1.0 - ab)
    log_resp = np.stack(
        [
            log_w - 0.5 * (log_norm + (e * diff).sum(axis=1) / scale)
            for log_w, diff, e, log_norm in zip(log_weights, diffs, eps, log_norms)
        ],
        axis=1,
    )
    return _mixture_average(log_resp, eps)


class GmmDenoiser:
    """Exact eps-predictor for a Gaussian-mixture data distribution."""

    def __init__(self, prior: GmmPrior, sched: NoiseSchedule):
        self.prior = prior
        self.sched = sched
        self._log_weights = np.log(prior.weights)

    def denoise(self, x: np.ndarray, t: int, cond: ConditionInput):
        flat = x.reshape(x.shape[0], -1)
        ab, centers, m2 = _diffused_components(self.prior, t, self.sched)
        diffs = [flat - center for center in centers]
        eps = [diff * (math.sqrt(1.0 - ab) / m2_i) for diff, m2_i in zip(diffs, m2)]
        log_norms = self.prior.dim * np.log(2.0 * np.pi * m2)
        return _mixture_eps(ab, self._log_weights, diffs, eps, log_norms).reshape(x.shape)


def gmm_denoiser(prior: GmmPrior, sched: NoiseSchedule) -> GmmDenoiser:
    return GmmDenoiser(prior, sched)


@dataclass(frozen=True, eq=False)
class GaussianMixtureFull:
    """Mixture with full covariances; used for measurement posteriors."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray


# the per-timestep tables of one ConditionalGmmDenoiser stop growing once
# their maps take this many bytes; a timestep without a table forms its
# terms on every call
_STEP_TABLE_BYTES = 1 << 24


class ConditionalGmmDenoiser:
    """Exact eps-predictor for the posterior of a GMM prior under a linear
    Gaussian measurement y = A x0 + noise.

    The posterior of a mixture under such a likelihood is again a mixture
    (reweighted components, updated means, full covariances), so its exact
    eps-predictor is the scaled score of _mixture_eps.  Every prior
    covariance is s2_i I, so all the posterior covariances share one
    eigenbasis, that of A^T A, and one eigh builds every component; each
    weight comes from Bayes' rule evaluated at the component's posterior
    mean.  In that basis each diffused covariance is diagonal, so each
    timestep's Sigma_i^-1 maps are tabled once.  Used as the conditional
    branch in guidance and sampling tests; `posterior` exposes the updated
    mixture for oracle cross-checks.
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
        # A^T A = V diag(g) V^T; component i's covariance is V diag(lam_i) V^T
        g, vecs = np.linalg.eigh(matrix.T @ matrix)
        s2 = prior.variances[:, None]
        lam = 1.0 / (1.0 / s2 + np.maximum(g, 0.0) / noise_var)
        rhs = prior.means / s2 + matrix.T @ y / noise_var
        means = ((rhs @ vecs) * lam) @ vecs.T
        # the evidence N(y; A mu_i, s2_i A A^T + noise_var I) by Bayes' rule at
        # x = mean_i: N(y; A x, noise_var I) N(x; mu_i, s2_i I) / N(x; mean_i, cov_i)
        resid = y - means @ matrix.T
        log_w = np.log(prior.weights) - 0.5 * (
            y.size * np.log(2.0 * np.pi * noise_var)
            + (resid**2).sum(axis=1) / noise_var
            + ((means - prior.means) ** 2).sum(axis=1) / prior.variances
            + prior.dim * np.log(prior.variances)
            - np.log(lam).sum(axis=1)
        )
        log_w -= _logsumexp(log_w)
        covs = (vecs * lam[:, None, :]) @ vecs.T
        self.posterior = GaussianMixtureFull(np.exp(log_w), means, covs)
        self._log_weights = log_w
        # the shared eigenbasis makes every timestep's marginals cheap
        self._eigvals = lam
        self._eigvecs = vecs
        # per original timestep, the terms of _step_table
        self._tables = {}

    def _step_table(self, t: int):
        """(shifts, maps, log_norms) at original timestep t, kept from the
        first call at t while the kept maps fit in _STEP_TABLE_BYTES.

        Row i of each holds component i's sqrt(ab) mean_i, its symmetric
        E_i = sqrt(1 - ab) V diag(1 / marg_i) V^T (the sqrt(1 - ab)
        Sigma_i^-1 of _mixture_eps, with marg_i = ab lam_i + 1 - ab) and
        dim log(2 pi) + sum(log marg_i).  None of them depends on x, so a
        BLAS product is fine here.
        """
        table = self._tables.get(t)
        if table is None:
            ab = self.sched.alpha_bar_at(t)
            vecs = self._eigvecs
            marg = ab * self._eigvals + (1.0 - ab)
            maps = (vecs * (math.sqrt(1.0 - ab) / marg)[:, None, :]) @ vecs.T
            log_norms = vecs.shape[0] * np.log(2.0 * np.pi) + np.log(marg).sum(axis=1)
            table = (math.sqrt(ab) * self.posterior.means, maps, log_norms)
            # the k maps take k d^2 float64s
            if (len(self._tables) + 1) * maps.nbytes <= _STEP_TABLE_BYTES:
                self._tables[t] = table
        return table

    def denoise(self, x: np.ndarray, t: int, cond: ConditionInput):
        """eps for each row of x.  Every product with x is an np.einsum
        without optimize, which sums each row by itself; a BLAS matmul
        (`@`, np.dot, optimize=True) would give row bits that depend on n."""
        flat = x.reshape(x.shape[0], -1)
        shifts, maps, log_norms = self._step_table(t)
        diffs = [flat - shift for shift in shifts]
        eps = [np.einsum("nj,jk->nk", diff, e_map) for diff, e_map in zip(diffs, maps)]
        ab = self.sched.alpha_bar_at(t)
        return _mixture_eps(ab, self._log_weights, diffs, eps, log_norms).reshape(x.shape)


def conditional_gmm_denoiser(
    prior: GmmPrior,
    matrix: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    sched: NoiseSchedule,
) -> ConditionalGmmDenoiser:
    return ConditionalGmmDenoiser(prior, matrix, y, noise_var, sched)

