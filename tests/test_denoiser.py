"""Analytic denoisers: posterior means, score identity, guidance, priors."""

import numpy as np
import pytest

from conftest import TableDenoiser
from lactdiff import denoiser
from lactdiff.core import DataError, DimensionError, Image, ParameterError
from lactdiff.denoiser import (
    ConditionInput,
    ConditionSource,
    GmmPrior,
    _logsumexp,
    conditional_gmm_denoiser,
    denoise,
    gmm_denoiser,
    gmm_log_marginal,
    gmm_posterior_mean,
    guided_epsilon,
    load_gmm_prior,
    save_gmm_prior,
)
from lactdiff.diffusion import default_linear_schedule


SCHED = default_linear_schedule(1000)


class ZeroDenoiser:
    def denoise(self, x, t, cond):
        return np.zeros_like(x)


class FixedOutput:
    """Returns the given output whatever its input."""

    def __init__(self, out):
        self.out = out

    def denoise(self, x, t, cond):
        return self.out


def none_cond(rows, cols):
    return ConditionInput.none(rows, cols)


class TestInterface:
    def test_zero_stub(self):
        x = np.ones((1, 2, 2))
        eps = denoise(ZeroDenoiser(), x, 10, none_cond(2, 2))
        assert np.all(eps == 0.0)

    def test_purity(self):
        prior = GmmPrior(4, [1.0], np.zeros((1, 4)), [1.0])
        model = gmm_denoiser(prior, SCHED)
        x = np.array([[[0.1, -0.5], [2.0, 0.3]]])
        a = denoise(model, x, 500, none_cond(2, 2))
        b = denoise(model, x, 500, none_cond(2, 2))
        assert a.tobytes() == b.tobytes()

    def test_unconditional_input_accepted_everywhere(self):
        prior = GmmPrior(4, [1.0], np.zeros((1, 4)), [1.0])
        x = np.ones((1, 2, 2))
        cond = none_cond(2, 2)
        for model in (
            gmm_denoiser(prior, SCHED),
            conditional_gmm_denoiser(prior, np.zeros((2, 4)), np.zeros(2), 1.0, SCHED),
            TableDenoiser([-1.0, 1.0], [-1.0, 1.0]),
            ZeroDenoiser(),
        ):
            eps = denoise(model, x, 100, cond)
            assert np.all(np.isfinite(eps))

    def test_stack_rows_equal_single_row_calls(self):
        # row i of a stack's answer is the answer for x[i] alone, bit for bit
        rng = np.random.default_rng(12)
        prior = GmmPrior(4, [0.4, 0.6], rng.standard_normal((2, 4)), [0.5, 1.2])
        stack = rng.standard_normal((3, 2, 2))
        cond = none_cond(2, 2)
        for model in (
            gmm_denoiser(prior, SCHED),
            conditional_gmm_denoiser(prior, rng.standard_normal((2, 4)), np.zeros(2), 1.0, SCHED),
            TableDenoiser([-1.0, 1.0], [-2.0, 2.0]),
        ):
            eps = denoise(model, stack, 300, cond)
            assert eps.shape == stack.shape
            for i in range(len(stack)):
                alone = denoise(model, stack[i : i + 1], 300, cond)
                assert eps[i].tobytes() == alone[0].tobytes()

    def test_condition_shape_checked(self):
        x = np.ones((1, 2, 2))
        cond = ConditionInput(Image(3, 3, np.zeros((3, 3))), ConditionSource.FBP)
        with pytest.raises(DimensionError):
            denoise(ZeroDenoiser(), x, 10, cond)

    def test_condition_range_checked(self):
        with pytest.raises(DataError):
            ConditionInput(Image(1, 2, [[0.0, 1.5]]), ConditionSource.FBP)

    def test_shapes_checked(self):
        x = np.zeros((2, 1, 2))
        cond = none_cond(1, 2)
        with pytest.raises(DimensionError):
            denoise(ZeroDenoiser(), x[0], 10, cond)  # one image, not a stack
        with pytest.raises(DimensionError):
            denoise(FixedOutput(np.zeros((2, 2))), x, 10, cond)
        # the contract is eps alone: a pair, or anything else not an array, is refused
        for out in ((np.zeros_like(x), None), x.tolist(), None):
            with pytest.raises(DimensionError):
                denoise(FixedOutput(out), x, 10, cond)


class TestPosteriorMean:
    def test_point_mass_prior(self):
        mu = np.array([0.4, -1.0])
        prior = GmmPrior(2, [1.0], mu.reshape(1, 2), [1e-12])
        out = gmm_posterior_mean(prior, np.array([5.0, 5.0]), 500, SCHED)
        assert np.allclose(out, mu, atol=1e-6)

    def test_single_component_conjugate_formula_and_quadrature(self):
        mu, s2 = 0.7, 0.4
        prior = GmmPrior(1, [1.0], [[mu]], [s2])
        t = 400
        ab = SCHED.alpha_bar_at(t)
        x_t = 0.9
        closed = (np.sqrt(ab) * s2 * x_t + (1.0 - ab) * mu) / (ab * s2 + 1.0 - ab)
        # independent check: numerical integration of the posterior
        grid = np.linspace(mu - 12 * np.sqrt(s2), mu + 12 * np.sqrt(s2), 20001)
        like = np.exp(-((x_t - np.sqrt(ab) * grid) ** 2) / (2.0 * (1.0 - ab)))
        pri = np.exp(-((grid - mu) ** 2) / (2.0 * s2))
        quad = np.trapezoid(grid * like * pri, grid) / np.trapezoid(like * pri, grid)
        assert closed == pytest.approx(quad, rel=1e-8)
        got = gmm_posterior_mean(prior, np.array([x_t]), t, SCHED)[0]
        assert got == pytest.approx(closed, rel=1e-12)

    def test_symmetric_components_average(self):
        t = 300
        ab = SCHED.alpha_bar_at(t)
        x_t = np.array([0.25])
        delta = 0.8
        mus = np.array([[(x_t[0] + delta) / np.sqrt(ab)], [(x_t[0] - delta) / np.sqrt(ab)]])
        prior = GmmPrior(1, [0.5, 0.5], mus, [0.3, 0.3])
        got = gmm_posterior_mean(prior, x_t, t, SCHED)[0]
        single_a = gmm_posterior_mean(GmmPrior(1, [1.0], mus[:1], [0.3]), x_t, t, SCHED)[0]
        single_b = gmm_posterior_mean(GmmPrior(1, [1.0], mus[1:], [0.3]), x_t, t, SCHED)[0]
        assert got == pytest.approx(0.5 * (single_a + single_b), rel=1e-9)

    def test_log_space_responsibilities_survive_small_t(self):
        # at t=1 the component marginals are extremely peaked; log-sum-exp
        # keeps the posterior mean finite and snapped to the nearby component
        prior = GmmPrior(1, [0.5, 0.5], [[-50.0], [50.0]], [0.01, 0.01])
        out = gmm_posterior_mean(prior, np.array([49.5]), 1, SCHED)
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(49.5, abs=0.6)

    def test_mean_within_convex_hull(self):
        rng = np.random.default_rng(21)
        prior = GmmPrior(
            1, rng.uniform(0.1, 1.0, 3), rng.standard_normal((3, 1)), rng.uniform(0.2, 1.0, 3)
        )
        t = 250
        x_t = np.array([0.4])
        comp_means = []
        for i in range(3):
            sub = GmmPrior(1, [1.0], prior.means[i : i + 1], prior.variances[i : i + 1])
            comp_means.append(gmm_posterior_mean(sub, x_t, t, SCHED)[0])
        got = gmm_posterior_mean(prior, x_t, t, SCHED)[0]
        assert min(comp_means) - 1e-12 <= got <= max(comp_means) + 1e-12


class TestScoreIdentity:
    def test_eps_matches_finite_difference_score(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4):
            prior = GmmPrior(
                dim,
                rng.uniform(0.2, 1.0, 3),
                rng.standard_normal((3, dim)),
                rng.uniform(0.3, 1.5, 3),
            )
            model = gmm_denoiser(prior, SCHED)
            for t in (3, 77, 512, 900):
                x = rng.standard_normal(dim)
                ab = SCHED.alpha_bar_at(t)
                eps = model.denoise(x.reshape(1, 1, dim), t, none_cond(1, dim))
                eps = eps.ravel()
                h = 1e-4
                grad = np.empty(dim)
                for j in range(dim):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    grad[j] = (
                        gmm_log_marginal(prior, xp, t, SCHED)
                        - gmm_log_marginal(prior, xm, t, SCHED)
                    ) / (2.0 * h)
                assert np.abs(eps + np.sqrt(1.0 - ab) * grad).max() <= 1e-4

    def test_models_return_eps_only(self):
        # the shipped models answer with the eps stack alone, a float64 array
        prior = GmmPrior(2, [1.0], np.zeros((1, 2)), [1.0])
        x = np.array([[[0.0, 1.0]]])
        for model in (
            gmm_denoiser(prior, SCHED),
            conditional_gmm_denoiser(prior, np.eye(2), np.zeros(2), 1.0, SCHED),
        ):
            eps = model.denoise(x, 100, none_cond(1, 2))
            assert isinstance(eps, np.ndarray)
            assert eps.shape == x.shape and eps.dtype == np.float64


class TestConditionalDenoiser:
    def test_zero_matrix_equals_unconditional(self):
        rng = np.random.default_rng(31)
        prior = GmmPrior(4, [0.4, 0.6], rng.standard_normal((2, 4)), [0.5, 1.2])
        uncond = gmm_denoiser(prior, SCHED)
        cond = conditional_gmm_denoiser(prior, np.zeros((3, 4)), np.zeros(3), 1.0, SCHED)
        x = rng.standard_normal((1, 2, 2))
        a = uncond.denoise(x, 600, none_cond(2, 2))
        b = cond.denoise(x, 600, none_cond(2, 2))
        assert np.allclose(a, b, atol=1e-12)

    def test_exact_observation_limit(self):
        rng = np.random.default_rng(32)
        prior = GmmPrior(3, [1.0], np.zeros((1, 3)), [1.0])
        y = rng.standard_normal(3)
        model = conditional_gmm_denoiser(prior, np.eye(3), y, 1e-12, SCHED)
        t = 700
        ab = SCHED.alpha_bar_at(t)
        x = rng.standard_normal(3)
        eps = model.denoise(x.reshape(1, 1, 3), t, none_cond(1, 3))
        post_mean = (x - np.sqrt(1.0 - ab) * eps.ravel()) / np.sqrt(ab)
        assert np.allclose(post_mean, y, atol=1e-6)
        expected = (x - np.sqrt(ab) * y) / np.sqrt(1.0 - ab)
        assert np.allclose(eps.ravel(), expected, atol=1e-6)

    def test_posterior_matches_dense_bayes_update(self):
        rng = np.random.default_rng(33)
        dim = 2
        mu0 = rng.standard_normal(dim)
        s2 = 0.7
        prior = GmmPrior(dim, [1.0], mu0.reshape(1, dim), [s2])
        mat = rng.standard_normal((3, dim))
        y = rng.standard_normal(3)
        noise_var = 0.2
        model = conditional_gmm_denoiser(prior, mat, y, noise_var, SCHED)
        # standard linear-Gaussian update computed densely
        prec = np.eye(dim) / s2 + mat.T @ mat / noise_var
        cov = np.linalg.inv(prec)
        mean = cov @ (mu0 / s2 + mat.T @ y / noise_var)
        assert np.allclose(model.posterior.means[0], mean, atol=1e-10)
        assert np.allclose(model.posterior.covariances[0], cov, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    def test_dim16_rows_are_stack_invariant_and_match_dense_oracle(self, k):
        # the gauss_4x4 shape; every product with x is a row-wise einsum, so
        # a row's bits must not depend on how many rows share the call
        rng = np.random.default_rng(34 + k)
        dim, rows = 16, 8
        prior = GmmPrior(dim, [0.4, 0.6][:k], 0.5 * rng.standard_normal((k, dim)), [1.0, 0.4][:k])
        mat = rng.standard_normal((rows, dim)) * np.geomspace(0.25, 2.0, dim)
        model = conditional_gmm_denoiser(prior, mat, rng.standard_normal(rows), 0.05, SCHED)
        post = model.posterior
        stack = rng.standard_normal((500, 4, 4))
        x = stack.reshape(500, dim)
        cond = none_cond(4, 4)
        for t in (50, 500, 950):
            alone = np.concatenate([denoise(model, row[None], t, cond) for row in stack])
            for n in (1, 2, 7, 50, 500):
                eps = denoise(model, stack[:n], t, cond)
                assert eps.tobytes() == alone[:n].tobytes()
            # dense oracle: solve with each component's diffused covariance
            ab = SCHED.alpha_bar_at(t)
            log_resp = np.empty((500, k))
            comp_means = []
            for i in range(k):
                marg = ab * post.covariances[i] + (1.0 - ab) * np.eye(dim)
                diff = x - np.sqrt(ab) * post.means[i]
                sol = np.linalg.solve(marg, diff.T).T
                comp_means.append(post.means[i] + np.sqrt(ab) * sol @ post.covariances[i])
                logdet = np.linalg.slogdet(marg)[1]
                log_resp[:, i] = np.log(post.weights[i]) - 0.5 * (logdet + (diff * sol).sum(1))
            resp = np.exp(log_resp - log_resp.max(axis=1, keepdims=True))
            resp /= resp.sum(axis=1, keepdims=True)
            mean = sum(resp[:, i : i + 1] * comp_means[i] for i in range(k))
            oracle = (x - np.sqrt(ab) * mean) / np.sqrt(1.0 - ab)
            err = np.abs(alone.reshape(500, dim) - oracle).max()
            assert err <= 1e-10 * np.abs(oracle).max()

    @pytest.mark.parametrize("k", [1, 2])
    def test_revisited_timesteps_match_a_fresh_model(self, k):
        # each timestep's gains are built on its first call and kept; every
        # later call at t gives the bits of a model that has seen only t
        rng = np.random.default_rng(40 + k)
        dim, rows = 16, 8
        prior = GmmPrior(dim, [0.4, 0.6][:k], 0.5 * rng.standard_normal((k, dim)), [1.0, 0.4][:k])
        mat = rng.standard_normal((rows, dim)) * np.geomspace(0.25, 2.0, dim)
        y = rng.standard_normal(rows)
        model = conditional_gmm_denoiser(prior, mat, y, 0.05, SCHED)
        cond = none_cond(4, 4)
        steps = [1, 2, 300, 301, 999, 1000]
        for t in np.concatenate([rng.permutation(steps), rng.permutation(steps)]):
            stack = rng.standard_normal((7, 4, 4))
            eps = denoise(model, stack, int(t), cond)
            fresh = conditional_gmm_denoiser(prior, mat, y, 0.05, SCHED)
            assert eps.tobytes() == denoise(fresh, stack, int(t), cond).tobytes()
        assert sorted(model._tables) == steps

    def test_step_tables_stop_at_their_byte_limit(self, monkeypatch):
        # a dim-3 gain is 3*3 float64s; room for two of them
        monkeypatch.setattr(denoiser, "_STEP_TABLE_BYTES", 2 * 9 * 8)
        rng = np.random.default_rng(43)
        prior = GmmPrior(3, [1.0], np.zeros((1, 3)), [1.0])
        mat, y = rng.standard_normal((2, 3)), rng.standard_normal(2)
        model = conditional_gmm_denoiser(prior, mat, y, 0.1, SCHED)
        cond = none_cond(1, 3)
        for t in (5, 9, 700, 5, 700, 9):
            x = rng.standard_normal((4, 1, 3))
            fresh = conditional_gmm_denoiser(prior, mat, y, 0.1, SCHED)
            assert denoise(model, x, t, cond).tobytes() == denoise(fresh, x, t, cond).tobytes()
        assert sorted(model._tables) == [5, 9]

    def test_dimension_validation(self):
        prior = GmmPrior(4, [1.0], np.zeros((1, 4)), [1.0])
        with pytest.raises(DimensionError):
            conditional_gmm_denoiser(prior, np.zeros((2, 3)), np.zeros(2), 1.0, SCHED)


class TestGuidance:
    def _eps(self):
        return np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])

    def test_weight_one_is_conditional_exactly(self):
        cond, uncond = self._eps()
        assert guided_epsilon(cond, uncond, 1.0) is cond

    def test_weight_zero_is_unconditional(self):
        cond, uncond = self._eps()
        assert guided_epsilon(cond, uncond, 0.0) is uncond

    def test_extrapolation_arithmetic(self):
        cond, uncond = self._eps()
        assert np.allclose(guided_epsilon(cond, uncond, 2.0), 2.0)

    def test_affine_in_weight(self):
        rng = np.random.default_rng(40)
        cond = rng.standard_normal((3, 2, 2))
        uncond = rng.standard_normal((3, 2, 2))
        lam = 0.3
        lo = guided_epsilon(cond, uncond, lam)
        hi = guided_epsilon(cond, uncond, 2.0 - lam)
        mid = guided_epsilon(cond, uncond, 1.0)
        assert np.allclose(lo + hi, 2.0 * mid, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            guided_epsilon(np.zeros((1, 2)), np.zeros((2, 1)), 0.5)


class TestPriorSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        prior = GmmPrior(
            3, rng.uniform(0.2, 1.0, 2), rng.standard_normal((2, 3)), [0.4, 0.9]
        )
        path = tmp_path / "prior.txt"
        save_gmm_prior(path, prior)
        back = load_gmm_prior(path)
        assert np.allclose(back.weights, prior.weights)
        assert np.allclose(back.means, prior.means)
        assert np.allclose(back.variances, prior.variances)

    def test_weights_normalized(self):
        prior = GmmPrior(1, [2.0, 6.0], [[0.0], [1.0]], [1.0, 1.0])
        assert np.allclose(prior.weights, [0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ParameterError):
            GmmPrior(1, [1.0], [[0.0]], [0.0])
        with pytest.raises(ParameterError):
            GmmPrior(1, [-1.0], [[0.0]], [1.0])
        with pytest.raises(DimensionError):
            GmmPrior(2, [1.0], [[0.0]], [1.0])

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 0.0 1.0\n0.5 0.0 0.0 1.0\n")
        with pytest.raises(ParameterError):
            load_gmm_prior(path)


class TestLogSumExp:
    def test_bit_equal_to_scipy(self):
        # the mixture responsibilities keep scipy's bits with numpy alone
        from scipy.special import logsumexp

        rng = np.random.default_rng(5)
        flat = rng.standard_normal(7) * 40.0
        assert np.array_equal(_logsumexp(flat), logsumexp(flat))
        rows = rng.standard_normal((6, 4)) * [[1.0], [30.0], [800.0], [1.0], [5.0], [0.1]]
        assert np.array_equal(
            _logsumexp(rows, axis=1, keepdims=True), logsumexp(rows, axis=1, keepdims=True)
        )
        # tied maxima, a -inf term and an all -inf row
        tied = np.array([[2.5, -1.0, 2.5, 2.5], [0.0, -np.inf, 0.0, -3.0],
                         [-np.inf, -np.inf, -np.inf, -np.inf]])
        assert np.array_equal(
            _logsumexp(tied, axis=1, keepdims=True), logsumexp(tied, axis=1, keepdims=True)
        )
        assert np.array_equal(_logsumexp(tied[0]), logsumexp(tied[0]))


class TestTableDenoiser:
    def test_from_file_and_interpolation(self, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text("# knots\n-1.0 -0.5\n0.0 0.0\n2.0 1.0\n")
        model = TableDenoiser.from_file(path)
        eps = model.denoise(np.array([[[-1.0, 1.0, 3.0]]]), 5, none_cond(1, 3))
        assert np.allclose(eps.ravel(), [-0.5, 0.5, 1.0], atol=1e-7)

    def test_knot_validation(self):
        with pytest.raises(ParameterError):
            TableDenoiser([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ParameterError):
            TableDenoiser([0.0], [1.0])
