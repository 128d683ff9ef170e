"""Noise schedules and the elementary diffusion steps.

A schedule of length T is its table of running products alpha_bar_t, which
falls strictly from below 1 and stays positive.  With alpha_bar_0 = 1 it
defines alpha_t = alpha_bar_t / alpha_bar_{t-1}, beta_t = 1 - alpha_t and the
reverse-variance lower bounds beta_tilde_t = beta_t * (1 - alpha_bar_{t-1}) /
(1 - alpha_bar_t), with beta_tilde_1 = 0; a chain shortened by `respace`
applies the same rule to the alpha_bar values it keeps.  Timesteps are
1-based in the API.
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
    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64).ravel().copy()
        if ab.size < 1:
            raise ParameterError("schedule must have at least one step")
        prev = np.concatenate(([1.0], ab[:-1]))
        # negated comparisons, so that NaN fails them
        if not np.all(ab < prev):
            raise ParameterError("alpha_bar must fall strictly from below 1")
        if not np.all(ab > 0.0):
            raise ParameterError("alpha_bar must stay positive")
        # alpha as the ratio: 1 - (1 - ratio) would lose a small ratio's precision
        alpha = ab / prev
        beta = 1.0 - alpha
        beta_tilde = beta * (1.0 - prev) / (1.0 - ab)
        beta_tilde[0] = 0.0
        for name, arr in (("alpha_bar", ab), ("alpha", alpha), ("beta", beta),
                          ("beta_tilde", beta_tilde)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_betas(cls, betas) -> "NoiseSchedule":
        return cls(np.cumprod(1.0 - np.asarray(betas, dtype=np.float64).ravel()))

    @property
    def T(self) -> int:
        return self.alpha_bar.size

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
    betas are one minus the successive ratios, clipped to at most 0.999.
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

    K evenly spaced reals spanning [1, T] are rounded to the nearest integer.
    For K < T neighbours lie (T-1)/(K-1) > 1 apart, so the K indices are
    distinct and strictly increasing: the map keeps exactly K steps.  The
    shortened schedule is the original alpha_bar at those indices, copied
    exactly, with alpha, beta and beta_tilde derived from it by the schedule's
    one rule.  K = T keeps every step: the lattice is exactly 1..T.
    """
    K = int(K)
    if not 1 <= K <= sched.T:
        raise ParameterError(f"K must satisfy 1 <= K <= T={sched.T}, got {K}")
    indices = np.round(np.linspace(1.0, float(sched.T), K)).astype(np.int64)
    indices.setflags(write=False)
    return TimestepMap(indices, NoiseSchedule(sched.alpha_bar[indices - 1]))
