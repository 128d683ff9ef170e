"""Reverse-diffusion reconstruction: conditioning, chains, and aggregation."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import TableDenoiser
from lactdiff.core import DimensionError, Image, NumericalError, ParameterError, Sinogram
from lactdiff.denoiser import (
    ConditionInput,
    GmmPrior,
    conditional_gmm_denoiser,
    gmm_denoiser,
)
from lactdiff.diffusion import default_linear_schedule, linear_schedule, respace
from lactdiff.evaluation import PhantomKind, PhantomSpec, make_phantom, psnr
from lactdiff.sampler import (
    ChainTrace,
    SampleSet,
    SamplerConfig,
    build_condition,
    chain_seeds,
    draw_samples,
    sample_average,
    sample_posterior,
    sample_posterior_ct,
    uncertainty_map,
)
from lactdiff.solvers import DenseOperator, ProxConfig
from lactdiff.tomography import (
    TomoOperator,
    default_detectors,
    forward_project,
    make_limited_geometry,
)


SCHED = default_linear_schedule(400)


def gaussian_setup(seed=42):
    rng = np.random.default_rng(seed)
    dim = 16
    mat = rng.standard_normal((8, dim)) * 0.5
    noise_var = 0.05
    y = mat @ rng.standard_normal(dim) + np.sqrt(noise_var) * rng.standard_normal(8)
    prior = GmmPrior(dim, [1.0], np.zeros((1, dim)), [1.0])
    model = conditional_gmm_denoiser(prior, mat, y, noise_var, SCHED)
    return model, mat, y


def assert_chains_match_lone_runs(model, measurements, operator, shape, cond, cfg,
                                  uncond_model=None):
    """Chain i of draw_samples equals sample_posterior with seed
    chain_seeds(cfg.seed, n)[i], byte for byte, and so does its trace."""
    batch = draw_samples(model, measurements, operator, shape, cond, SCHED, cfg,
                         uncond_model=uncond_model)
    seeds = chain_seeds(cfg.seed, cfg.n_samples)
    assert [trace.seed for trace in batch.traces] == seeds
    for i, sample in enumerate(batch.samples):
        lone, trace = sample_posterior(model, measurements, operator, shape, cond, SCHED, cfg,
                                       uncond_model=uncond_model, seed=seeds[i])
        assert sample.data.tobytes() == lone.data.tobytes()
        prox_steps = 0 if cfg.prox is None else cfg.steps - cfg.prox_skip
        assert len(trace.prox_reports) == prox_steps
        assert batch.traces[i] == trace


class TestBuildCondition:
    def test_zero_sinogram_gives_zero_condition(self):
        geom = make_limited_geometry(16, 23, 8, 90.0)
        sino = Sinogram(8, 23, geom.angles_deg, np.zeros((8, 23)))
        cond, _ = build_condition(sino, geom, "fbp")
        assert np.all(cond.image.data == 0.0)

    def test_output_in_unit_range(self):
        n = 32
        geom = make_limited_geometry(n, default_detectors(n), 20, 60.0)
        ph = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=2))
        sino = forward_project(ph, geom)
        for method in ("fbp", "rls"):
            cond, _ = build_condition(sino, geom, method)
            # the rescale maps the extremes to 0 and 1 exactly, and nothing beyond
            assert cond.image.data.min() == 0.0
            assert cond.image.data.max() == 1.0

    def test_rls_condition_beats_fbp_at_60_degrees(self):
        n = 64
        geom = make_limited_geometry(n, default_detectors(n), 60, 60.0)
        ph = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=1))
        sino = forward_project(ph, geom)
        scaled = ph.as_f64()
        scaled = (scaled - scaled.min()) / (scaled.max() - scaled.min())
        reference = Image(n, n, scaled)
        p_fbp = psnr(build_condition(sino, geom, "fbp")[0].image, reference)
        p_rls = psnr(build_condition(sino, geom, "rls")[0].image, reference)
        assert p_rls > p_fbp

    def test_unknown_method(self):
        geom = make_limited_geometry(16, 23, 8, 90.0)
        sino = Sinogram(8, 23, geom.angles_deg, np.zeros((8, 23)))
        with pytest.raises(ParameterError):
            build_condition(sino, geom, "tv")


class TestChain:
    def test_seeded_determinism(self):
        model, mat, y = gaussian_setup()
        cond = ConditionInput.none(4, 4)
        cfg = SamplerConfig(steps=40, seed=3)
        a, _ = sample_posterior(model, None, None, (4, 4), cond, SCHED, cfg)
        b, _ = sample_posterior(model, None, None, (4, 4), cond, SCHED, cfg)
        assert a == b
        c, _ = sample_posterior(model, None, None, (4, 4), cond, SCHED,
                                SamplerConfig(steps=40, seed=4))
        assert a != c

    def test_full_length_chain_runs(self):
        model, _, _ = gaussian_setup()
        sched = linear_schedule(20, 1e-3, 0.05)
        prior = GmmPrior(16, [1.0], np.zeros((1, 16)), [1.0])
        model = gmm_denoiser(prior, sched)
        cfg = SamplerConfig(steps=20, seed=0)
        out, _ = sample_posterior(model, None, None, (4, 4), ConditionInput.none(4, 4),
                                  sched, cfg)
        assert np.all(np.isfinite(out.data))

    def test_steps_beyond_schedule_rejected(self):
        model, _, _ = gaussian_setup()
        cfg = SamplerConfig(steps=SCHED.T + 1, seed=0)
        with pytest.raises(ParameterError):
            sample_posterior(model, None, None, (4, 4), ConditionInput.none(4, 4),
                             SCHED, cfg)

    def test_guidance_requires_unconditional_model(self):
        model, _, _ = gaussian_setup()
        cfg = SamplerConfig(steps=10, guidance=1.5, seed=0)
        with pytest.raises(ParameterError):
            sample_posterior(model, None, None, (4, 4), ConditionInput.none(4, 4),
                             SCHED, cfg)

    @pytest.mark.parametrize("guidance", [np.nan, np.inf, -np.inf])
    def test_guidance_weight_must_be_finite(self, guidance):
        with pytest.raises(ParameterError, match="finite"):
            SamplerConfig(steps=5, guidance=guidance)

    def test_guided_chain_runs(self):
        model, mat, y = gaussian_setup()
        prior = GmmPrior(16, [1.0], np.zeros((1, 16)), [1.0])
        uncond = gmm_denoiser(prior, SCHED)
        cfg = SamplerConfig(steps=20, guidance=1.5, seed=0)
        out, _ = sample_posterior(model, None, None, (4, 4), ConditionInput.none(4, 4),
                                  SCHED, cfg, uncond_model=uncond)
        assert np.all(np.isfinite(out.data))

    def test_prox_requires_measurements(self):
        model, _, _ = gaussian_setup()
        cfg = SamplerConfig(steps=10, prox=ProxConfig(gamma=1.0), seed=0)
        with pytest.raises(ParameterError):
            sample_posterior(model, None, None, (4, 4), ConditionInput.none(4, 4),
                             SCHED, cfg)

    def test_measurements_and_operator_come_together(self):
        # measurements without an operator, or an operator without
        # measurements, are rejected even with no prox to use them
        model, mat, y = gaussian_setup()
        cfg = SamplerConfig(steps=5, seed=0)
        cond = ConditionInput.none(4, 4)
        with pytest.raises(ParameterError, match="together"):
            draw_samples(model, y, None, (4, 4), cond, SCHED, cfg)
        with pytest.raises(ParameterError, match="together"):
            draw_samples(model, None, DenseOperator(mat), (4, 4), cond, SCHED, cfg)

    def test_prox_residuals_never_increase(self):
        model, mat, y = gaussian_setup()
        cfg = SamplerConfig(
            steps=30, prox=ProxConfig(gamma=1.0, cg_tol=1e-10, cg_max_iter=50), seed=5
        )
        _, trace = sample_posterior(model, y, DenseOperator(mat), (4, 4),
                                    ConditionInput.none(4, 4), SCHED, cfg)
        assert len(trace.prox_residuals) == 30
        assert len(trace.prox_reports) == 30
        for before, after in trace.prox_residuals:
            assert after <= before + 1e-10

    def test_prox_skip_leaves_early_steps_alone(self):
        model, mat, y = gaussian_setup()
        cfg = SamplerConfig(
            steps=30, prox=ProxConfig(gamma=1.0), prox_skip=12, seed=5
        )
        _, trace = sample_posterior(model, y, DenseOperator(mat), (4, 4),
                                    ConditionInput.none(4, 4), SCHED, cfg)
        assert len(trace.prox_residuals) == 30 - 12

    def test_prox_skip_must_leave_a_consistency_step(self):
        prox = ProxConfig(gamma=1.0)
        with pytest.raises(ParameterError, match="prox_skip"):
            SamplerConfig(steps=5, prox=prox, prox_skip=5)
        assert SamplerConfig(steps=5, prox=prox, prox_skip=4).prox_skip == 4
        # with no prox, a skip count has nothing to leave out
        assert SamplerConfig(steps=5, prox_skip=9).prox_skip == 9

    def test_non_finite_state_reports_step(self):
        # a state float32 cannot hold, or a non-finite prediction, stops the run
        class ExplodingDenoiser:
            def __init__(self, value):
                self.value = value

            def denoise(self, x, t, cond):
                return np.full(x.shape, self.value)

        cfg = SamplerConfig(steps=5, seed=0)
        for value in (-3e38, np.nan, np.inf):
            with pytest.raises(NumericalError, match="step"):
                sample_posterior(ExplodingDenoiser(value), None, None, (2, 2),
                                 ConditionInput.none(2, 2), SCHED, cfg)

    @pytest.mark.parametrize("state", [np.nan, np.inf, 1e39])
    def test_range_check_names_the_step(self, state):
        # one entry of one chain of three leaves the float32 range at the
        # third step of five; the run stops there and names that step
        cfg = SamplerConfig(steps=5, seed=0, n_samples=3)
        tmap = respace(SCHED, cfg.steps)
        k = 3
        t_bad = int(tmap.indices[k - 1])
        alpha, ab = tmap.schedule.alpha_at(k), tmap.schedule.alpha_bar_at(k)

        class Poisoned:
            def denoise(self, x, t, cond):
                eps = np.zeros(x.shape)
                if t == t_bad:
                    # reverse_step's mean (x - (1-alpha)/sqrt(1-ab) eps)/sqrt(alpha)
                    # lands at about `state`
                    eps[1, 0, 1] = -state * np.sqrt(alpha) * np.sqrt(1.0 - ab) / (1.0 - alpha)
                return eps

        with pytest.raises(NumericalError, match=rf"at step {k} \(t={t_bad}\)"):
            draw_samples(Poisoned(), None, None, (2, 2), ConditionInput.none(2, 2), SCHED, cfg)

    def test_table_denoiser_integration(self, tmp_path):
        # a file-loaded piecewise response drives a full deterministic chain
        path = tmp_path / "response.txt"
        path.write_text("-4.0 -3.2\n0.0 0.0\n4.0 3.2\n")
        model = TableDenoiser.from_file(path)
        cfg = SamplerConfig(steps=12, seed=2)
        cond = ConditionInput.none(3, 3)
        a, _ = sample_posterior(model, None, None, (3, 3), cond, SCHED, cfg)
        b, _ = sample_posterior(model, None, None, (3, 3), cond, SCHED, cfg)
        assert a == b
        assert np.all(np.isfinite(a.data))

    def test_two_component_ct_chains_with_prox_match_lone_runs(self):
        n = 16
        geom = make_limited_geometry(n, default_detectors(n), 10, 120.0)
        sino = forward_project(make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=4)), geom)
        cond, _ = build_condition(sino, geom, "fbp")
        means = np.stack([cond.image.as_f64().ravel(), np.zeros(n * n)])
        model = gmm_denoiser(GmmPrior(n * n, [0.6, 0.4], means, [0.25, 0.5]), SCHED)
        cfg = SamplerConfig(
            steps=12, prox=ProxConfig(gamma=0.5, cg_max_iter=20), seed=3, n_samples=3
        )
        assert_chains_match_lone_runs(
            model, sino.as_f64().ravel(), TomoOperator(geom), (n, n), cond, cfg
        )

    def test_guided_chains_match_lone_runs(self):
        model, _, _ = gaussian_setup()
        uncond = gmm_denoiser(GmmPrior(16, [1.0], np.zeros((1, 16)), [1.0]), SCHED)
        cfg = SamplerConfig(steps=20, guidance=1.5, seed=11, n_samples=4)
        assert_chains_match_lone_runs(
            model, None, None, (4, 4), ConditionInput.none(4, 4), cfg, uncond_model=uncond
        )

    def test_elementwise_model_chains_match_lone_runs(self):
        class Shrink:
            def denoise(self, x, t, cond):
                return 0.8 * x

        cfg = SamplerConfig(steps=12, seed=2, n_samples=3)
        for model in (TableDenoiser([-4.0, 0.0, 4.0], [-3.2, 0.0, 3.2]), Shrink()):
            assert_chains_match_lone_runs(
                model, None, None, (3, 3), ConditionInput.none(3, 3), cfg
            )

    def test_guidance_endpoints_select_one_model(self):
        model, _, _ = gaussian_setup()
        uncond = gmm_denoiser(GmmPrior(16, [1.0], np.zeros((1, 16)), [1.0]), SCHED)

        class Counting:
            calls = 0

            def denoise(self, x, t, cond):
                Counting.calls += 1
                return uncond.denoise(x, t, cond)

        cond = ConditionInput.none(4, 4)
        cfg = SamplerConfig(steps=20, seed=11, n_samples=3)

        def draw(cond_model, lam, uncond_model):
            sample_set = draw_samples(cond_model, None, None, (4, 4), cond, SCHED,
                                      replace(cfg, guidance=lam), uncond_model=uncond_model)
            return [s.data.tobytes() for s in sample_set.samples]

        # lambda = 0: the unconditional model's own chains
        assert draw(model, 0.0, uncond) == draw(uncond, 1.0, None)
        # lambda = 1: the conditional chains, and the unconditional model is never called
        assert draw(model, 1.0, Counting()) == draw(model, 1.0, None)
        assert Counting.calls == 0
        assert draw(model, 0.5, Counting()) != draw(model, 1.0, None)
        assert Counting.calls == cfg.steps

    def test_prox_products_per_step(self, count_products):
        n = 8
        geom = make_limited_geometry(n, default_detectors(n), 6, 120.0)
        sino = forward_project(make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=4)), geom)
        prior = GmmPrior(n * n, [1.0], np.zeros((1, n * n)), [0.25])
        model = gmm_denoiser(prior, SCHED)
        cfg = SamplerConfig(
            steps=6, prox=ProxConfig(gamma=0.5, cg_tol=1e-30, cg_max_iter=3), seed=1,
            n_samples=2,
        )
        args = (model, sino.as_f64().ravel(), TomoOperator(geom), (n, n),
                ConditionInput.none(n, n), SCHED, cfg)
        sample_set = draw_samples(*args)
        iters = [r.iterations for t in sample_set.traces for r in t.prox_reports]
        assert len(iters) == cfg.steps * cfg.n_samples
        # per prox step: A x~ for the "before" residual, A^T y for the prox's
        # right-hand side, one normal for CG's first residual at x~ and one
        # per CG iteration, and A z for the "after" residual
        assert count_products == {
            "forward": 2 * len(iters), "adjoint": len(iters),
            "normal": sum(i + 1 for i in iters),
        }

    def test_ct_wrapper_smoke(self):
        n = 16
        geom = make_limited_geometry(n, default_detectors(n), 10, 120.0)
        ph = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=4))
        sino = forward_project(ph, geom)
        cond, _ = build_condition(sino, geom, "fbp")
        prior = GmmPrior(n * n, [1.0], cond.image.as_f64().reshape(1, -1), [0.25])
        model = gmm_denoiser(prior, SCHED)
        cfg = SamplerConfig(
            steps=15, prox=ProxConfig(gamma=0.5, cg_max_iter=30), seed=1
        )
        out, trace = sample_posterior_ct(model, sino, geom, cond, SCHED, cfg)
        assert out.shape == (n, n)
        assert len(trace.residuals) == 15
        assert trace.seed == chain_seeds(cfg.seed, 1)[0]


class TestAggregation:
    def _set(self, arrays):
        images = tuple(Image(2, 2, a) for a in arrays)
        return SampleSet(images)

    def test_average_of_one_is_identity(self):
        s = self._set([np.arange(4.0).reshape(2, 2)])
        assert sample_average(s) == s.samples[0]

    def test_average_permutation_invariant(self):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal((2, 2)) for _ in range(4)]
        fwd = sample_average(self._set(arrays))
        rev = sample_average(self._set(arrays[::-1]))
        assert fwd == rev

    def test_average_arithmetic(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 2.0)
        out = sample_average(self._set([a, b]))
        assert np.allclose(out.as_f64(), 1.0)

    def test_uncertainty_of_identical_samples_is_zero(self):
        a = np.full((2, 2), 1.5)
        out = uncertainty_map(self._set([a, a.copy(), a.copy()]))
        assert np.all(out.data == 0.0)

    def test_two_point_standard_deviation(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, 1] = 2.0
        out = uncertainty_map(self._set([a, b]))
        assert out.as_f64()[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-6)
        assert out.as_f64()[0, 0] == 0.0

    def test_uncertainty_needs_two_samples(self):
        with pytest.raises(ParameterError):
            uncertainty_map(self._set([np.zeros((2, 2))]))

    def test_sample_set_validation(self):
        with pytest.raises(ParameterError):
            SampleSet(())
        with pytest.raises(DimensionError):
            SampleSet((Image(2, 2, np.zeros((2, 2))), Image(2, 3, np.zeros((2, 3)))))

    def test_sampling_improves_on_its_condition(self):
        # end to end: conditioned chains with the consistency prox beat the
        # conditioning reconstruction itself on a limited-angle problem
        n = 32
        ph = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=6))
        geom = make_limited_geometry(n, default_detectors(n), 30, 75.0)
        sino = forward_project(ph, geom)
        cond, _ = build_condition(sino, geom, "rls")
        prior = GmmPrior(n * n, [1.0], cond.image.as_f64().reshape(1, -1), [0.25])
        model = gmm_denoiser(prior, SCHED)
        cfg = SamplerConfig(
            steps=30, prox=ProxConfig(gamma=2.0, cg_max_iter=40), seed=1, n_samples=4
        )
        sample_set = draw_samples(
            model, sino.as_f64().ravel(), TomoOperator(geom), (n, n), cond, SCHED, cfg
        )
        averaged = sample_average(sample_set)
        assert psnr(averaged, ph) > psnr(cond.image, ph) + 1.0

    def test_draw_samples_derives_seeds(self):
        model, mat, y = gaussian_setup()
        cfg = SamplerConfig(steps=10, seed=7, n_samples=3)
        s = draw_samples(model, y, DenseOperator(mat), (4, 4),
                         ConditionInput.none(4, 4), SCHED, cfg)
        assert len(s.samples) == 3 and len(s.traces) == 3
        # chain i is the single-sample run with the i-th seed spawned from 7,
        # and its trace records that seed
        seeds = chain_seeds(7, 3)
        assert [trace.seed for trace in s.traces] == seeds
        lone, _ = sample_posterior(model, None, None, (4, 4), ConditionInput.none(4, 4),
                                   SCHED, cfg, seed=seeds[1])
        assert s.samples[1] == lone
        # and that seed does not depend on how many chains were drawn
        assert chain_seeds(7, 2) == seeds[:2]
        assert chain_seeds(7, 5)[:3] == seeds

    def test_default_seed_is_the_one_sample_draw(self):
        # without seed=, sample_posterior is draw_samples with n_samples = 1
        model, _, _ = gaussian_setup()
        cfg = SamplerConfig(steps=10, seed=7, n_samples=3)
        args = (model, None, None, (4, 4), ConditionInput.none(4, 4), SCHED)
        lone, trace = sample_posterior(*args, cfg)
        drawn = draw_samples(*args, replace(cfg, n_samples=1))
        assert lone.data.tobytes() == drawn.samples[0].data.tobytes()
        # with no measurements a chain records its seed and nothing else
        assert trace == drawn.traces[0] == ChainTrace(chain_seeds(7, 1)[0])

    def test_neighbouring_seeds_share_no_chain(self):
        # seed + i streams would make seed 3's chain 1 equal seed 4's chain 0
        model, _, _ = gaussian_setup()
        cond = ConditionInput.none(4, 4)
        samples = [
            sample.data.tobytes()
            for seed in (3, 4)
            for sample in draw_samples(model, None, None, (4, 4), cond, SCHED,
                                       SamplerConfig(steps=10, seed=seed, n_samples=2)).samples
        ]
        assert len(set(samples)) == 4

    def test_seed_range_validated(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ParameterError):
                SamplerConfig(steps=1, seed=seed)
        assert SamplerConfig(steps=1, seed=(1 << 64) - 1).seed == (1 << 64) - 1
