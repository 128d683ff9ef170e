"""Noise schedules, forward/reverse steps, and respacing."""

import numpy as np
import pytest

from lactdiff.core import DimensionError, ParameterError, SeededRng
from lactdiff.diffusion import (
    NoiseSchedule,
    cosine_schedule,
    default_linear_schedule,
    forward_sample,
    linear_schedule,
    respace,
    reverse_step,
)


def tiny_schedule():
    return NoiseSchedule.from_betas([0.1, 0.2, 0.3, 0.4])


class TestSchedules:
    def test_hand_product(self):
        sched = tiny_schedule()
        assert np.allclose(sched.alpha_bar, [0.9, 0.72, 0.504, 0.3024], rtol=1e-12)
        assert sched.beta_tilde[0] == 0.0

    def test_single_step(self):
        sched = linear_schedule(1, 0.25, 0.25)
        assert sched.alpha_bar_at(1) == pytest.approx(0.75)

    def test_training_length_builds(self):
        sched = linear_schedule(2000, 1e-4 * 0.5, 0.02 * 0.5)
        assert sched.T == 2000
        assert np.all(np.diff(sched.alpha_bar) < 0.0)
        assert np.all(sched.beta_tilde <= sched.beta + 1e-15)

    def test_default_schedule_rescales_endpoints(self):
        sched = default_linear_schedule(2000)
        assert sched.beta_at(1) == pytest.approx(5e-5)
        assert sched.beta_at(2000) == pytest.approx(0.01)

    @pytest.mark.parametrize("T", [0, 1, 20])
    def test_default_schedule_names_its_shortest_length(self, T):
        # the last beta is 20 / T, so T <= 20 has no valid linear schedule
        with pytest.raises(ParameterError, match=rf"T >= 21, got T = {T}$"):
            default_linear_schedule(T)
        assert default_linear_schedule(21).beta_at(21) == pytest.approx(20 / 21)

    def test_endpoint_validation(self):
        with pytest.raises(ParameterError):
            linear_schedule(10, 0.0, 0.5)
        with pytest.raises(ParameterError):
            linear_schedule(10, 0.5, 0.1)
        with pytest.raises(ParameterError):
            linear_schedule(0, 0.1, 0.2)

    def test_cosine_profile(self):
        sched = cosine_schedule(1000)
        assert sched.alpha_bar_at(1) >= 0.99
        assert sched.alpha_bar_at(1000) < sched.alpha_bar_at(1)
        assert np.all(sched.beta <= 0.999)

    def test_from_betas_is_the_running_product(self):
        betas = np.linspace(1e-4, 0.02, 1000)
        sched = NoiseSchedule.from_betas(betas)
        assert sched.alpha_bar.tobytes() == np.cumprod(1.0 - betas).tobytes()

    @pytest.mark.parametrize(
        "alpha_bar",
        [[], [np.nan], [0.9, np.nan, 0.5], [0.9, 0.9], [0.5, 0.7], [0.9, 0.0],
         [0.9, -0.1], [1.0, 0.5], [1.5]],
        ids=["empty", "nan", "nan-inside", "flat", "rising", "zero", "negative",
             "starts-at-1", "starts-above-1"],
    )
    def test_bad_alpha_bar_rejected(self, alpha_bar):
        with pytest.raises(ParameterError):
            NoiseSchedule(alpha_bar)

    def test_tables_are_read_only(self):
        sched = tiny_schedule()
        for name in ("alpha_bar", "alpha", "beta", "beta_tilde"):
            with pytest.raises(ValueError):
                getattr(sched, name)[0] = 0.5

    def test_timestep_bounds(self):
        sched = tiny_schedule()
        with pytest.raises(ParameterError):
            sched.alpha_bar_at(0)
        with pytest.raises(ParameterError):
            sched.alpha_bar_at(5)


class TestForwardSample:
    def test_zero_noise(self):
        sched = tiny_schedule()
        out = forward_sample(np.full((2, 2), 2.0), 3, np.zeros((2, 2)), sched)
        assert np.allclose(out, np.sqrt(0.504) * 2.0, rtol=1e-6)

    def test_zero_signal(self):
        sched = tiny_schedule()
        out = forward_sample(np.zeros((2, 2)), 2, np.full((2, 2), -1.0), sched)
        assert np.allclose(out, -np.sqrt(1.0 - 0.72), rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            forward_sample(np.zeros((2, 2)), 2, np.zeros((2, 3)), tiny_schedule())

    def test_chain_matches_marginal_moments(self):
        # one-step transitions composed t times agree with the closed-form
        # marginal in mean and variance at Monte-Carlo precision
        sched = linear_schedule(100, 1e-3, 0.05)
        t_check, n = 60, 20000
        x0 = 0.8
        rng = SeededRng(99)
        x = np.full(n, x0)
        for t in range(1, t_check + 1):
            beta = sched.beta_at(t)
            x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(n)
        ab = sched.alpha_bar_at(t_check)
        mean_th, var_th = np.sqrt(ab) * x0, 1.0 - ab
        assert abs(x.mean() - mean_th) <= 3.0 * np.sqrt(var_th / n)
        assert abs(x.var(ddof=1) - var_th) <= 3.0 * var_th * np.sqrt(2.0 / (n - 1))


class TestReverseStep:
    def test_vanishing_step_is_identity(self):
        sched = NoiseSchedule.from_betas([1e-12])
        x = np.array([[0.3, -1.2], [2.0, 0.0]])
        zeros = np.zeros((2, 2))
        out = reverse_step(x, zeros, 0.0, 1, sched, zeros)
        assert np.allclose(out, x, atol=1e-9)

    def test_scalar_hand_oracle(self):
        # independent arithmetic for t=3 on the beta=[.1,.2,.3,.4] schedule
        sched = tiny_schedule()
        x0, eps_val = 1.3, 0.4
        alpha3, ab3 = 0.7, 0.504
        x3 = np.sqrt(ab3) * x0 + np.sqrt(1.0 - ab3) * eps_val
        expected = (x3 - (1.0 - alpha3) / np.sqrt(1.0 - ab3) * eps_val) / np.sqrt(alpha3)

        # the same quantities through the library
        eps = np.array([[eps_val]])
        x3_arr = forward_sample(np.array([[x0]]), 3, eps, sched)
        out = reverse_step(x3_arr, eps, 0.0, 3, sched, 0.0)
        assert out[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_noise_variance_injected(self):
        sched = tiny_schedule()
        n = 100000
        c = 0.37
        z = SeededRng(17).standard_normal(n).reshape(1, n)
        zeros = np.zeros((1, n))
        out = reverse_step(zeros, zeros, c, 2, sched, z)
        var = out.var(ddof=1)
        assert abs(var - c) <= 3.0 * c * np.sqrt(2.0 / (n - 1))

    def test_scalar_and_array_operands_agree(self):
        sched = tiny_schedule()
        rng = np.random.default_rng(3)
        x, eps = rng.standard_normal((2, 2, 4))
        assert np.array_equal(reverse_step(x, eps, 0.0, 3, sched, 0.0),
                              reverse_step(x, eps, 0.25, 3, sched, np.zeros_like(x)))

    def test_shape_mismatch_rejected(self):
        sched = tiny_schedule()
        x = np.zeros((2, 4))
        wrong = np.zeros((2, 3))
        for eps, z in ((wrong, 0.0), (x, wrong), (np.float64(0.0), 0.0)):
            with pytest.raises(DimensionError):
                reverse_step(x, eps, 0.0, 2, sched, z)

    def test_negative_variance_rejected(self):
        sched = tiny_schedule()
        x = np.zeros((1, 2))
        with pytest.raises(ParameterError):
            reverse_step(x, x, -1e-3, 2, sched, x)


class TestRespace:
    def test_subsequence_property(self):
        sched = linear_schedule(10, 0.01, 0.3)
        tmap = respace(sched, 9)
        assert tmap.indices.size >= 8
        assert np.array_equal(
            tmap.schedule.alpha_bar, sched.alpha_bar[tmap.indices - 1]
        )

    def test_single_step(self):
        sched = linear_schedule(10, 0.01, 0.3)
        tmap = respace(sched, 1)
        assert tmap.indices.size == 1
        idx = int(tmap.indices[0])
        assert tmap.schedule.beta_at(1) == pytest.approx(
            1.0 - sched.alpha_bar_at(idx), rel=1e-12
        )

    def test_keeps_exactly_k_steps(self):
        # for K < T the rounded reals lie (T-1)/(K-1) > 1 apart, so none merge
        for T in (5, 10, 60):
            sched = linear_schedule(T, 0.01, 0.3)
            for K in range(1, T):
                tmap = respace(sched, K)
                assert tmap.indices.size == K
                assert np.all(np.diff(tmap.indices) > 0)
                assert tmap.schedule.T == np.unique(tmap.indices).size

    def test_bounds(self):
        # K = T keeps every step: the identity map, with every table bit-equal
        for sched in (linear_schedule(10, 0.01, 0.3), default_linear_schedule(1000),
                      default_linear_schedule(2000), cosine_schedule(7),
                      cosine_schedule(1000)):
            tmap = respace(sched, sched.T)
            assert np.array_equal(tmap.indices, np.arange(1, sched.T + 1))
            for name in ("alpha_bar", "alpha", "beta", "beta_tilde"):
                got, want = getattr(tmap.schedule, name), getattr(sched, name)
                assert got.tobytes() == want.tobytes()
        sched = linear_schedule(10, 0.01, 0.3)
        for K in (0, 11):
            with pytest.raises(ParameterError):
                respace(sched, K)

    @pytest.mark.parametrize("K", [1, 2, 50, 999])
    @pytest.mark.parametrize("make", [default_linear_schedule, cosine_schedule])
    def test_shortened_schedule_is_its_alpha_bar(self, make, K):
        sched = make(1000)
        tmap = respace(sched, K)
        direct = NoiseSchedule(sched.alpha_bar[tmap.indices - 1])
        for name in ("alpha_bar", "alpha", "beta", "beta_tilde"):
            assert np.array_equal(getattr(tmap.schedule, name), getattr(direct, name))

    def test_paper_operating_point(self):
        sched = default_linear_schedule(2000)
        tmap = respace(sched, 50)
        resp = tmap.schedule
        assert np.all(np.diff(resp.alpha_bar) < 0.0)
        assert resp.beta_tilde[0] == 0.0
        assert np.all(resp.beta_tilde <= resp.beta + 1e-15)
