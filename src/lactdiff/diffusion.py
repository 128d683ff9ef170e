"""Noise schedules and the elementary diffusion steps.

A schedule of length T holds the per-step noise variances beta_t, the
complements alpha_t = 1 - beta_t, the running products alpha_bar_t, and the
reverse-variance lower bounds beta_tilde_t = beta_t * (1 - alpha_bar_{t-1})
/ (1 - alpha_bar_t) with alpha_bar_0 = 1.  Timesteps are 1-based in the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, ParameterError


def _check_t(t: int, T: int) -> int:
    t = int(t)
    if not 1 <= t <= T:
        raise ParameterError(f"timestep {t} outside schedule range 1..{T}")
    return t


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    beta_tilde: np.ndarray

    def __post_init__(self):
        for name in ("beta", "alpha", "alpha_bar", "beta_tilde"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).ravel().copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        T = self.beta.size
        if T < 1:
            raise ParameterError("schedule must have at least one step")
        if any(getattr(self, n).size != T for n in ("alpha", "alpha_bar", "beta_tilde")):
            raise ParameterError("schedule tables must all have length T")
        if np.any(self.beta <= 0.0) or np.any(self.beta >= 1.0):
            raise ParameterError("beta values must lie strictly in (0, 1)")
        if not np.allclose(self.alpha, 1.0 - self.beta, rtol=0.0, atol=1e-12):
            raise ParameterError("alpha must equal 1 - beta")
        prev = np.concatenate(([1.0], self.alpha_bar[:-1]))
        if np.any(self.alpha_bar >= prev):
            raise ParameterError("alpha_bar must be strictly decreasing")
        if np.any(self.alpha_bar <= 0.0):
            raise ParameterError("alpha_bar must stay positive")
        if not np.allclose(self.alpha_bar, prev * self.alpha, rtol=1e-9, atol=0.0):
            raise ParameterError("alpha_bar must be the running product of alpha")
        expected_bt = self.beta * (1.0 - prev) / (1.0 - self.alpha_bar)
        if not np.allclose(self.beta_tilde, expected_bt, rtol=1e-9, atol=1e-15):
            raise ParameterError("beta_tilde is inconsistent with beta and alpha_bar")
        if self.beta_tilde[0] != 0.0:
            raise ParameterError("beta_tilde must start at exactly 0")
        if np.any(self.beta_tilde < 0.0) or np.any(self.beta_tilde > self.beta + 1e-15):
            raise ParameterError("beta_tilde must lie within [0, beta]")

    @classmethod
    def from_betas(cls, betas) -> "NoiseSchedule":
        beta = np.asarray(betas, dtype=np.float64).ravel()
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        prev = np.concatenate(([1.0], alpha_bar[:-1]))
        beta_tilde = beta * (1.0 - prev) / (1.0 - alpha_bar)
        beta_tilde[0] = 0.0
        return cls(beta, alpha, alpha_bar, beta_tilde)

    @property
    def T(self) -> int:
        return self.beta.size

    def beta_at(self, t: int) -> float:
        return float(self.beta[_check_t(t, self.T) - 1])

    def alpha_at(self, t: int) -> float:
        return float(self.alpha[_check_t(t, self.T) - 1])

    def alpha_bar_at(self, t: int) -> float:
        return float(self.alpha_bar[_check_t(t, self.T) - 1])

    def beta_tilde_at(self, t: int) -> float:
        return float(self.beta_tilde[_check_t(t, self.T) - 1])


@dataclass(frozen=True, eq=False)
class TimestepMap:
    """Shortened chain: original 1-based indices plus the rebuilt schedule.

    The rebuilt alpha_bar values equal the original ones at the selected
    indices exactly (they are copied, not recomputed).
    """

    indices: np.ndarray
    schedule: NoiseSchedule

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).ravel().copy()
        if idx.size != self.schedule.T:
            raise ParameterError("index count must match the respaced schedule length")
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ParameterError("indices must be strictly increasing")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Variances linear from beta_start to beta_end inclusive."""
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}"
        )
    return NoiseSchedule.from_betas(np.linspace(beta_start, beta_end, T))


def default_linear_schedule(T: int) -> NoiseSchedule:
    """Linear schedule with the customary endpoints rescaled to length T.

    The last beta is 20 / T, so T must be at least 21.
    """
    if T < 21:
        raise ParameterError(f"the default linear schedule needs T >= 21, got T = {T}")
    scale = 1000.0 / T
    return linear_schedule(T, 1e-4 * scale, 0.02 * scale)


def cosine_schedule(T: int) -> NoiseSchedule:
    """Squared-cosine alpha_bar profile with offset s = 0.008.

    alpha_bar(t/T) = f(t/T) / f(0) with f(u) = cos((u + s)/(1 + s) * pi/2)^2;
    betas are the successive ratios, clipped to at most 0.999.
    """
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    s = 0.008

    def f(u):
        return math.cos((u + s) / (1.0 + s) * math.pi / 2.0) ** 2

    ratios = np.empty(T)
    prev = 1.0
    for t in range(1, T + 1):
        cur = f(t / T) / f(0.0)
        ratios[t - 1] = cur / prev
        prev = cur
    betas = np.minimum(1.0 - ratios, 0.999)
    return NoiseSchedule.from_betas(betas)


def forward_sample(x0, t: int, eps, sched: NoiseSchedule):
    """Noisy sample at level t: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps, on
    float64 arrays of one shape."""
    if x0.shape != eps.shape:
        raise DimensionError(f"forward_sample: shapes {x0.shape} and {eps.shape} differ")
    ab = sched.alpha_bar_at(t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


def reverse_step(x_t, eps_hat, sigma2, t: int, sched: NoiseSchedule, z):
    """One reverse transition from level t to t-1, on float64 arrays.

    (1/sqrt(alpha_t)) * (x_t - ((1 - alpha_t)/sqrt(1 - alpha_bar_t)) * eps_hat)
    plus sqrt(sigma2) * z elementwise.  eps_hat has the shape of x_t, sigma2
    is a float >= 0, and z a scalar or an array of x_t's shape.  The sampler
    applies it to the (n, rows*cols) stack of all its chains at once.
    """
    # attribute reads and scalar comparisons only: this runs on every step
    if eps_hat.shape != x_t.shape:
        raise DimensionError(f"reverse_step: eps_hat has shape {eps_hat.shape}, x_t {x_t.shape}")
    shape = getattr(z, "shape", ())
    if shape and shape != x_t.shape:
        raise DimensionError(f"reverse_step: z has shape {shape}, x_t {x_t.shape}")
    if sigma2 < 0.0:
        raise ParameterError("reverse variance must be non-negative")
    alpha = sched.alpha_at(t)
    ab = sched.alpha_bar_at(t)
    mean = (x_t - ((1.0 - alpha) / math.sqrt(1.0 - ab)) * eps_hat) / math.sqrt(alpha)
    return mean + math.sqrt(sigma2) * z


def respace(sched: NoiseSchedule, K: int) -> TimestepMap:
    """Shorten a T-step chain to K steps on a rounded even lattice.

    K evenly spaced reals spanning [1, T] are rounded to the nearest integer
    and deduplicated ascending; the shortened schedule reuses the original
    alpha_bar values at those indices exactly and rederives alpha as their
    ratios, then beta and beta_tilde from those.  K = T keeps every step and
    returns sched itself.
    """
    K = int(K)
    if not 1 <= K <= sched.T:
        raise ParameterError(f"K must satisfy 1 <= K <= T={sched.T}, got {K}")
    if K == sched.T:
        return TimestepMap(np.arange(1, K + 1), sched)
    raw = np.linspace(1.0, float(sched.T), K)
    indices = np.unique(np.round(raw).astype(np.int64))
    ab = sched.alpha_bar[indices - 1].copy()
    prev = np.concatenate(([1.0], ab[:-1]))
    # alpha as the ratio itself: 1 - (1 - ratio) loses the relative precision
    # of a small ratio that the running-product check needs
    alpha = ab / prev
    beta = 1.0 - alpha
    beta_tilde = beta * (1.0 - prev) / (1.0 - ab)
    beta_tilde[0] = 0.0
    respaced = NoiseSchedule(beta, alpha, ab, beta_tilde)
    return TimestepMap(indices, respaced)
