"""Conditional reverse-diffusion reconstruction with measurement consistency.

One chain starts from white noise and walks the shortened reverse schedule;
every step takes the model's noise prediction, applies the stochastic
reverse transition, and, when configured, pulls the iterate toward the
measurements with the proximal consistency map.  A guided model is one
more Denoiser (denoiser.GuidedDenoiser).  All chains of one call advance
together, as the rows of one float64 array.  Averaging many chains
estimates the posterior mean; the per-pixel spread is an uncertainty
proxy.  Each chain returns its ChainTrace with its sample: its seed and,
when it has measurements, its residuals and prox reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    F32_MAX, DimensionError, Image, NumericalError, ParameterError, SeededRng, Sinogram,
    check_seed, unit_rescale,
)
from .denoiser import ConditionInput, Denoiser, denoise
from .diffusion import NoiseSchedule, respace, reverse_step
from .solvers import CgReport, ProxConfig, _dot, prox_consistency, rls_reconstruct
from .tomography import FilterKind, Geometry, TomoOperator, fbp_reconstruct


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, consistency settings, and seeding.

    prox is None to disable the data-consistency step entirely; prox_skip
    leaves the first few (largest-noise) steps unconstrained, and must be
    below steps when prox is set, so that some step applies it.  seed is an
    unsigned 64-bit integer.
    """

    steps: int
    prox: Optional[ProxConfig] = None
    prox_skip: int = 0
    seed: int = 0
    n_samples: int = 8

    def __post_init__(self):
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if self.n_samples < 1:
            raise ParameterError("n_samples must be >= 1")
        if self.prox_skip < 0:
            raise ParameterError("prox_skip must be >= 0")
        if self.prox is not None and self.prox_skip >= self.steps:
            raise ParameterError(f"prox_skip must be below steps ({self.steps}) with prox set")
        check_seed(self.seed)


@dataclass
class ChainTrace:
    """What one chain did: its seed and the measurement residuals it met.

    seed is the seed the chain's SeededRng was given.  With measurements,
    residuals holds ||A x - y|| after every completed step; prox_residuals
    holds (before, after) pairs around each consistency application, and
    prox_reports the CG report of each of those applications.
    """

    seed: int
    residuals: List[float] = field(default_factory=list)
    prox_residuals: List[Tuple[float, float]] = field(default_factory=list)
    prox_reports: List[CgReport] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """The samples of one draw_samples call, all of one shape, and the
    ChainTrace of each chain."""

    samples: Tuple[Image, ...]
    traces: Tuple[ChainTrace, ...] = ()

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ParameterError("sample set must not be empty")
        shape = samples[0].shape
        if any(s.shape != shape for s in samples):
            raise DimensionError("samples in a set must share one shape")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "traces", tuple(self.traces))


def build_condition(
    sino: Sinogram, geom: Geometry, method: str
) -> Tuple[ConditionInput, Optional[CgReport]]:
    """Low-fidelity reconstruction rescaled to [0, 1] for conditioning.

    Returns (ConditionInput, report): the CgReport of an "rls" solve, None
    for "fbp".  Constant reconstructions map to all-zeros.
    """
    report = None
    if method == "fbp":
        recon = fbp_reconstruct(sino, geom, FilterKind.RAM_LAK)
    elif method == "rls":
        recon, report = rls_reconstruct(sino, geom)
    else:
        raise ParameterError(f"condition method must be 'fbp' or 'rls', got {method!r}")
    arr = unit_rescale(recon.as_f64())
    return ConditionInput(Image(geom.image_rows, geom.image_cols, arr)), report


# noise is drawn a block of steps at a time, at most this many float64 values
# for all chains together; a chain's stream is the same whatever the block size
_NOISE_BLOCK_VALUES = 1 << 16


def _noise_rows(rngs: List[SeededRng], dim: int, count: int):
    """Yield `count` (n, dim) arrays of standard normals, row i from rngs[i].

    Each chain's stream is read in the order one chain at a time would read
    it; several steps are drawn per call to keep the calls few.
    """
    per_block = max(1, _NOISE_BLOCK_VALUES // (len(rngs) * dim))
    for start in range(0, count, per_block):
        m = min(per_block, count - start)
        yield from np.stack([rng.standard_normal(m * dim).reshape(m, dim) for rng in rngs], axis=1)


def _run_chains(
    model: Denoiser,
    measurements: Optional[np.ndarray],
    operator,
    shape: Tuple[int, int],
    cond: ConditionInput,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    seeds: List[int],
) -> Tuple[np.ndarray, List[ChainTrace]]:
    """Run one chain per seed, all at once; returns their (n, rows*cols) end
    states and one ChainTrace per chain.

    The state of every chain is one row of a float64 array.  Each step calls
    the denoiser once on the whole (n, rows, cols) stack and takes one
    reverse_step for all rows.  With measurements, one loop then walks the
    chains: it records the residual of the stepped state and, on a prox
    step, replaces the state by prox_consistency's answer and records the
    (before, after) pair, the CG report and the residual after.  Chain i
    draws only from SeededRng(seeds[i]), and row i of every denoiser call
    depends only on row i of the state, so a chain's result does not depend
    on the others run with it.
    """
    if (measurements is None) != (operator is None):
        raise ParameterError("measurements and an operator are given together or not at all")
    if cfg.prox is not None and operator is None:
        raise ParameterError("consistency needs measurements and an operator")
    y = None
    if measurements is not None:
        y = np.asarray(measurements, dtype=np.float64).ravel()
        if y.size != operator.shape[0]:
            raise DimensionError(
                f"measurements have dim {y.size}, operator expects {operator.shape[0]}"
            )
    tmap = respace(sched, cfg.steps)
    chain_sched = tmap.schedule
    K = chain_sched.T
    rows, cols = shape
    n = len(seeds)
    traces = [ChainTrace(seed) for seed in seeds]
    # chain start plus one noise vector for every step but the last
    noise = _noise_rows([SeededRng(seed) for seed in seeds], rows * cols, K)
    x = next(noise)

    def residual(ax: np.ndarray) -> float:
        res = ax - y
        return _dot(res, res) ** 0.5

    for k in range(K, 0, -1):
        step_index = K - k  # 0 for the first (noisiest) step
        t_orig = int(tmap.indices[k - 1])
        eps = denoise(model, x.reshape(n, rows, cols), t_orig, cond).reshape(n, -1)
        if k == 1:
            sigma2, z = 0.0, 0.0
        else:
            sigma2, z = chain_sched.beta_tilde_at(k), next(noise)
        x = reverse_step(x, eps, sigma2, k, chain_sched, z)
        # the samples are float32 rasters, so a state they cannot hold is invalid;
        # the max is NaN when any entry is, so NaN fails too
        if not np.abs(x).max() <= F32_MAX:
            raise NumericalError(
                f"chain state became non-finite or left the float32 range at step {k} "
                f"(t={t_orig})"
            )
        if y is None:
            continue
        prox_step = cfg.prox is not None and step_index >= cfg.prox_skip
        for i, trace in enumerate(traces):
            res = residual(operator.forward(x[i]))
            if prox_step:
                x[i], report = prox_consistency(x[i], y, operator, cfg.prox)
                after = residual(operator.forward(x[i]))
                trace.prox_residuals.append((res, after))
                trace.prox_reports.append(report)
                res = after
            trace.residuals.append(res)
    return x, traces


def sample_posterior(
    model: Denoiser,
    measurements: Optional[np.ndarray],
    operator,
    shape: Tuple[int, int],
    cond: ConditionInput,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    seed: Optional[int] = None,
) -> Tuple[Image, ChainTrace]:
    """Run one reverse chain; returns (reconstructed image, its ChainTrace).

    The chain draws its start from N(0, I), then for each shortened step:
    the model's noise prediction, the stochastic reverse update with the
    shortened schedule's lower-bound variance beta_tilde (no noise on the
    final step), and the consistency prox when enabled.  The denoiser
    receives original-schedule timestep indices.
    The chain draws from SeededRng(seed), so everything is a pure function
    of (seed, config, inputs); with seed chain_seeds(cfg.seed, n)[i] the
    result equals chain i of draw_samples.  seed None means
    chain_seeds(cfg.seed, 1)[0], so the result equals the one sample of
    draw_samples with n_samples = 1.
    """
    x, traces = _run_chains(
        model, measurements, operator, shape, cond, sched, cfg,
        [chain_seeds(cfg.seed, 1)[0] if seed is None else seed],
    )
    return Image(*shape, x[0].reshape(shape)), traces[0]


def sample_posterior_ct(
    model: Denoiser,
    sino: Sinogram,
    geom: Geometry,
    cond: ConditionInput,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    seed: Optional[int] = None,
) -> Tuple[Image, ChainTrace]:
    """Tomographic wrapper around sample_posterior."""
    geom.matches_sinogram(sino)
    return sample_posterior(
        model, sino.as_f64().ravel(), TomoOperator(geom), (geom.image_rows, geom.image_cols),
        cond, sched, cfg, seed,
    )


def chain_seeds(seed: int, n: int) -> List[int]:
    """The seeds of n chains drawn with one seed: SeedSequence(seed).spawn(n),
    one 64-bit word from each child.  Seed i depends only on (seed, i), and
    the streams of different seeds and chains are statistically independent.
    """
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def draw_samples(
    model: Denoiser,
    measurements: Optional[np.ndarray],
    operator,
    shape: Tuple[int, int],
    cond: ConditionInput,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
) -> SampleSet:
    """cfg.n_samples independent chains; chain i uses chain_seeds(cfg.seed, n)[i].

    The chains run together, one step at a time for all of them; chain i
    equals sample_posterior with that seed bit for bit, trace included, and
    does not depend on n.  The set holds one ChainTrace per chain.
    """
    x, traces = _run_chains(
        model, measurements, operator, shape, cond, sched, cfg,
        chain_seeds(cfg.seed, cfg.n_samples),
    )
    return SampleSet(tuple(Image(*shape, row.reshape(shape)) for row in x), traces)


def sample_average(sample_set: SampleSet) -> Image:
    """Elementwise mean over the set; estimates the posterior mean."""
    stack = np.stack([s.as_f64() for s in sample_set.samples])
    first = sample_set.samples[0]
    return Image(first.rows, first.cols, stack.mean(axis=0))


def uncertainty_map(sample_set: SampleSet) -> Image:
    """Per-pixel sample standard deviation (unbiased, divisor n-1)."""
    if len(sample_set.samples) < 2:
        raise ParameterError("uncertainty map needs at least 2 samples")
    stack = np.stack([s.as_f64() for s in sample_set.samples])
    first = sample_set.samples[0]
    return Image(first.rows, first.cols, stack.std(axis=0, ddof=1))
