"""Conditional reverse-diffusion reconstruction with measurement consistency.

One chain starts from white noise and walks the shortened reverse schedule;
every step takes a (optionally guidance-blended) noise prediction, applies
the stochastic reverse transition, and, when configured, pulls the iterate
toward the measurements with the proximal consistency map.  All chains of
one call advance together, as the rows of one float64 array.  Averaging
many chains estimates the posterior mean; the per-pixel spread is an
uncertainty proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import DimensionError, Image, NumericalError, ParameterError, SeededRng, Sinogram
from .denoiser import ConditionInput, ConditionSource, Denoiser, denoise, guided_epsilon
from .diffusion import NoiseSchedule, respace, reverse_step
from .solvers import CgReport, ProxConfig, prox_consistency, rls_reconstruct
from .tomography import FilterKind, Geometry, TomoOperator, fbp_reconstruct


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, guidance weight, consistency settings, and seeding.

    prox is None to disable the data-consistency step entirely; prox_skip
    leaves the first few (largest-noise) steps unconstrained.  Guidance
    weights other than 1 require an unconditional model.  seed is an
    unsigned 64-bit integer.
    """

    steps: int
    guidance: float = 1.0
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
        if not np.isfinite(self.guidance):
            raise ParameterError("guidance weight must be finite")
        if not 0 <= self.seed < (1 << 64):
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class ChainTrace:
    """Measurement residuals recorded while a chain runs.

    residuals holds ||A x - y|| after every completed step; prox_residuals
    holds (before, after) pairs around each consistency application, and
    prox_reports the CG report of each of those applications.
    """

    residuals: List[float] = field(default_factory=list)
    prox_residuals: List[Tuple[float, float]] = field(default_factory=list)
    prox_reports: List[CgReport] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """The samples of one draw_samples call, all of one shape."""

    samples: Tuple[Image, ...]

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ParameterError("sample set must not be empty")
        shape = samples[0].shape
        if any(s.shape != shape for s in samples):
            raise DimensionError("samples in a set must share one shape")
        object.__setattr__(self, "samples", samples)


def build_condition(sino: Sinogram, geom: Geometry, method: str) -> ConditionInput:
    """Low-fidelity reconstruction rescaled to [0, 1] for conditioning.

    Constant reconstructions map to all-zeros.
    """
    if method == "fbp":
        recon = fbp_reconstruct(sino, geom, FilterKind.RAM_LAK)
        source = ConditionSource.FBP
    elif method == "rls":
        recon = rls_reconstruct(sino, geom)
        source = ConditionSource.RLS
    else:
        raise ParameterError(f"condition method must be 'fbp' or 'rls', got {method!r}")
    arr = recon.as_f64()
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        arr = np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
    else:
        arr = np.zeros_like(arr)
    return ConditionInput(Image(geom.image_rows, geom.image_cols, arr), source)


# noise is drawn a block of steps at a time, at most this many float64 values
# for all chains together; a chain's stream is the same whatever the block size
_NOISE_BLOCK_VALUES = 1 << 16
_F32_MAX = float(np.finfo(np.float32).max)


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
    uncond_model: Optional[Denoiser],
    seeds: List[int],
    traces: Optional[List[ChainTrace]],
) -> np.ndarray:
    """Run one chain per seed, all at once; returns their (n, rows*cols) end states.

    The state of every chain is one row of a float64 array.  Each step calls
    the denoiser (and the unconditional model when guidance is on) once on
    the whole (n, rows, cols) stack, blends with guided_epsilon, takes one
    reverse_step for all rows, and applies the prox and the residual traces
    chain by chain.  Chain i draws only from SeededRng(seeds[i]), and row i
    of every denoiser call depends only on row i of the state, so a chain's
    result does not depend on the others run with it.
    """
    if cfg.guidance != 1.0 and uncond_model is None:
        raise ParameterError("guidance weight != 1 requires an unconditional model")
    if (cfg.prox is not None or traces is not None) and (operator is None or measurements is None):
        raise ParameterError("consistency and tracing need measurements and an operator")
    y = None
    if measurements is not None:
        y = np.asarray(measurements, dtype=np.float64).ravel()
        if operator is not None and y.size != operator.shape[0]:
            raise DimensionError(
                f"measurements have dim {y.size}, operator expects {operator.shape[0]}"
            )
    tmap = respace(sched, cfg.steps)
    chain_sched = tmap.schedule
    K = chain_sched.T
    rows, cols = shape
    n = len(seeds)
    # chain start plus one noise vector for every step but the last
    noise = _noise_rows([SeededRng(seed) for seed in seeds], rows * cols, K)
    x = next(noise)
    cond_none = ConditionInput.none(rows, cols)
    aty = operator.adjoint(y) if cfg.prox is not None else None

    def residual(row: np.ndarray) -> float:
        return float(np.linalg.norm(operator.forward(row) - y))

    for k in range(K, 0, -1):
        step_index = K - k  # 0 for the first (noisiest) step
        t_orig = int(tmap.indices[k - 1])
        stack = x.reshape(n, rows, cols)
        eps = denoise(model, stack, t_orig, cond)
        if cfg.guidance != 1.0:
            eps_u = denoise(uncond_model, stack, t_orig, cond_none)
            eps = guided_epsilon(eps, eps_u, cfg.guidance)
        eps = eps.reshape(n, -1)
        if k == 1:
            sigma2, z = 0.0, 0.0
        else:
            sigma2, z = chain_sched.beta_tilde_at(k), next(noise)
        x = reverse_step(x, eps, sigma2, k, chain_sched, z)
        # the samples are float32 rasters, so a state they cannot hold is invalid;
        # the max is NaN when any entry is, so NaN fails too
        if not np.abs(x).max() <= _F32_MAX:
            raise NumericalError(
                f"chain state became non-finite or left the float32 range at step {k} "
                f"(t={t_orig})"
            )
        if cfg.prox is not None and step_index >= cfg.prox_skip:
            for i in range(n):
                # A x~ behind the "before" residual is also CG's first product
                ax = operator.forward(x[i]) if traces is not None else None
                x[i], report = prox_consistency(
                    x[i], y, operator, cfg.prox, aty=aty, ax_tilde=ax
                )
                if traces is not None:
                    before = float(np.linalg.norm(ax - y))
                    after = residual(x[i])
                    traces[i].prox_residuals.append((before, after))
                    traces[i].prox_reports.append(report)
                    traces[i].residuals.append(after)
        elif traces is not None:
            for row, trace in zip(x, traces):
                trace.residuals.append(residual(row))
    return x


def sample_posterior(
    model: Denoiser,
    measurements: Optional[np.ndarray],
    operator,
    shape: Tuple[int, int],
    cond: ConditionInput,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    uncond_model: Optional[Denoiser] = None,
    seed: Optional[int] = None,
    trace: Optional[ChainTrace] = None,
) -> Image:
    """Run one reverse chain and return the reconstructed image.

    The chain draws its start from N(0, I), then for each shortened step:
    noise prediction (guidance-blended when the weight is not 1), the
    stochastic reverse update with the schedule's lower-bound variance
    beta_tilde (no noise on the final step), and the consistency prox when
    enabled.  The denoiser receives original-schedule timestep indices.
    The chain draws from SeededRng(seed), so everything is a pure function
    of (seed, config, inputs); with seed chain_seeds(cfg.seed, n)[i] the
    result equals chain i of draw_samples.  seed None means
    chain_seeds(cfg.seed, 1)[0], so the result equals the one sample of
    draw_samples with n_samples = 1.
    """
    x = _run_chains(
        model, measurements, operator, shape, cond, sched, cfg, uncond_model,
        [chain_seeds(cfg.seed, 1)[0] if seed is None else seed],
        None if trace is None else [trace],
    )
    return Image(*shape, x[0].reshape(shape))


def sample_posterior_ct(
    model: Denoiser,
    sino: Sinogram,
    geom: Geometry,
    cond: ConditionInput,
    sched: NoiseSchedule,
    cfg: SamplerConfig,
    uncond_model: Optional[Denoiser] = None,
    seed: Optional[int] = None,
    trace: Optional[ChainTrace] = None,
) -> Image:
    """Tomographic wrapper around sample_posterior."""
    geom.matches_sinogram(sino)
    return sample_posterior(
        model,
        sino.as_f64().ravel(),
        TomoOperator(geom),
        (geom.image_rows, geom.image_cols),
        cond,
        sched,
        cfg,
        uncond_model=uncond_model,
        seed=seed,
        trace=trace,
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
    uncond_model: Optional[Denoiser] = None,
    traces: Optional[List[ChainTrace]] = None,
) -> SampleSet:
    """cfg.n_samples independent chains; chain i uses chain_seeds(cfg.seed, n)[i].

    The chains run together, one step at a time for all of them; chain i
    equals sample_posterior with that seed bit for bit, and does not depend
    on n.  When traces is a list, one ChainTrace per chain is appended to it.
    """
    chain_traces = None
    if traces is not None:
        chain_traces = [ChainTrace() for _ in range(cfg.n_samples)]
        traces.extend(chain_traces)
    x = _run_chains(
        model, measurements, operator, shape, cond, sched, cfg, uncond_model,
        chain_seeds(cfg.seed, cfg.n_samples), chain_traces,
    )
    return SampleSet(tuple(Image(*shape, row.reshape(shape)) for row in x))


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
