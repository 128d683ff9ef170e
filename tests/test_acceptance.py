"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value is produced by an independent oracle (dense solves,
closed-form posteriors, finite differences, hand arithmetic) before being
asserted against the implementation.  Run with `pytest -s` to see the
per-criterion lines.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_tomo_matrix
from lactdiff.core import SeededRng
from lactdiff.denoiser import (
    ConditionInput,
    GmmPrior,
    conditional_gmm_denoiser,
    gmm_denoiser,
    gmm_log_marginal,
    guided_epsilon,
)
from lactdiff.diffusion import default_linear_schedule, respace
from lactdiff.evaluation import (
    PhantomKind,
    PhantomSpec,
    gaussian_posterior_oracle,
    make_phantom,
    psnr,
)
from lactdiff.sampler import SamplerConfig, draw_samples
from lactdiff.solvers import (
    DenseOperator,
    ProxConfig,
    prox_consistency,
    rls_reconstruct,
    tv_reconstruct,
)
from lactdiff.tomography import (
    FilterKind,
    TomoOperator,
    backproject_array,
    default_detectors,
    fbp_reconstruct,
    forward_project,
    make_limited_geometry,
    project_array,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d}: FAIL after {elapsed:.1f}s - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number:2d}: PASS in {elapsed:.1f}s (budget {budget_s:.0f}s)"
        f" - {description}"
    )
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


TRAIN_SCHED = default_linear_schedule(2000)


@pytest.fixture(scope="module")
def gauss_case():
    """4x4 Gaussian prior observed through a dense random map (8 rows)."""
    rng = np.random.default_rng(42)
    dim = 16
    matrix = rng.standard_normal((8, dim)) * np.geomspace(0.25, 2.0, dim)[None, :]
    noise_var = 0.05
    x_true = rng.standard_normal(dim)
    y = matrix @ x_true + np.sqrt(noise_var) * rng.standard_normal(8)
    prior = GmmPrior(dim, [1.0], np.zeros((1, dim)), [1.0])
    model = conditional_gmm_denoiser(prior, matrix, y, noise_var, TRAIN_SCHED)
    mean, cov = gaussian_posterior_oracle(prior, matrix, y, noise_var)
    return {
        "dim": dim,
        "matrix": matrix,
        "noise_var": noise_var,
        "y": y,
        "prior": prior,
        "model": model,
        "oracle_mean": mean,
        "oracle_cov": cov,
        "cond": ConditionInput.none(4, 4),
        "cfg": SamplerConfig(steps=200, seed=0),
    }


_SAMPLE_CACHE = {}


def chain_block(gauss_case, seed, n, measurements=None, operator=None, traces=None, **cfg):
    """Chains with seeds seed .. seed+n-1 of the criterion-5 configuration, as rows."""
    sample_set = draw_samples(
        gauss_case["model"], measurements, operator, (4, 4), gauss_case["cond"],
        TRAIN_SCHED, replace(gauss_case["cfg"], seed=seed, n_samples=n, **cfg),
        traces=traces,
    )
    return np.stack([s.as_f64().ravel() for s in sample_set.samples])


def posterior_samples(gauss_case):
    """500 seeded chains from the criterion-5 configuration (cached)."""
    if "samples" not in _SAMPLE_CACHE:
        _SAMPLE_CACHE["samples"] = chain_block(gauss_case, 1000, 500)
    return _SAMPLE_CACHE["samples"]


def test_criterion_01_adjoint_identity():
    with criterion(1, "adjoint identity over sizes and view counts", 30.0):
        for n in (16, 32, 64):
            for views in (10, 45, 90):
                geom = make_limited_geometry(n, default_detectors(n), views, 180.0)
                rng = np.random.default_rng(n * 100 + views)
                for _ in range(50):
                    x = rng.standard_normal((n, n))
                    y = rng.standard_normal((views, geom.detectors))
                    ax = project_array(x, geom)
                    aty = backproject_array(y, geom)
                    gap = abs(float((ax * y).sum()) - float((x * aty).sum()))
                    assert gap <= 1e-4 * np.linalg.norm(ax) * np.linalg.norm(y)


def test_criterion_02_fbp_oracle():
    with criterion(2, "full-view FBP reaches 30 dB on the head phantom", 10.0):
        phantom = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, 128))
        geom = make_limited_geometry(128, default_detectors(128), 180, 180.0)
        sino = forward_project(phantom, geom)
        recon = fbp_reconstruct(sino, geom, FilterKind.RAM_LAK)
        assert psnr(recon, phantom) >= 30.0


def test_criterion_03_forward_marginal_equivalence():
    with criterion(3, "stepwise noising chain matches the closed-form marginal", 10.0):
        n = 100_000
        x0 = 1.3
        rng = SeededRng(123)
        x = np.full(n, x0)
        states = {}
        for t in range(1, 2000):
            beta = TRAIN_SCHED.beta_at(t)
            x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(n)
            if t in (10, 500, 1999):
                states[t] = x.copy()
        for t, xs in states.items():
            ab = TRAIN_SCHED.alpha_bar_at(t)
            mean_th, var_th = np.sqrt(ab) * x0, 1.0 - ab
            se_mean = np.sqrt(var_th / n)
            se_var = var_th * np.sqrt(2.0 / (n - 1))
            assert abs(xs.mean() - mean_th) <= 3.0 * se_mean
            assert abs(xs.var(ddof=1) - var_th) <= 3.0 * se_var


def test_criterion_04_analytic_score():
    with criterion(4, "mixture denoiser equals the finite-difference score", 10.0):
        rng = np.random.default_rng(5)
        for dim in (2, 4):
            prior = GmmPrior(
                dim,
                rng.uniform(0.2, 1.0, 3),
                rng.standard_normal((3, dim)),
                rng.uniform(0.3, 1.5, 3),
            )
            model = gmm_denoiser(prior, TRAIN_SCHED)
            cond = ConditionInput.none(1, dim)
            for t in rng.integers(1, 2001, 5):
                t = int(t)
                x = rng.standard_normal(dim)
                ab = TRAIN_SCHED.alpha_bar_at(t)
                eps = model.denoise(x.reshape(1, 1, dim), t, cond)
                eps = eps.ravel()
                h = 1e-4
                grad = np.empty(dim)
                for j in range(dim):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    grad[j] = (
                        gmm_log_marginal(prior, xp, t, TRAIN_SCHED)
                        - gmm_log_marginal(prior, xm, t, TRAIN_SCHED)
                    ) / (2.0 * h)
                assert np.abs(eps + np.sqrt(1.0 - ab) * grad).max() <= 1e-4


def test_criterion_05_conditional_posterior_convergence(gauss_case):
    with criterion(5, "sampling chain converges to the closed-form posterior", 300.0):
        samples = posterior_samples(gauss_case)
        n = samples.shape[0]
        mean = gauss_case["oracle_mean"]
        var = np.diag(gauss_case["oracle_cov"])
        se_mean = np.sqrt(var / n)
        se_var = var * np.sqrt(2.0 / (n - 1))
        emp_mean = samples.mean(axis=0)
        emp_var = samples.var(axis=0, ddof=1)
        assert np.all(np.abs(emp_mean - mean) <= 3.0 * se_mean)
        assert np.all(np.abs(emp_var - var) <= 5.0 * se_var)


def test_criterion_06_data_consistency_benefit(gauss_case):
    with criterion(6, "consistency prox lowers residuals and never raises them", 600.0):
        matrix, y = gauss_case["matrix"], gauss_case["y"]
        traces = []
        with_prox = chain_block(
            gauss_case, 0, 100, y, DenseOperator(matrix), traces,
            prox=ProxConfig(gamma=1.0, cg_tol=1e-10, cg_max_iter=50),
        )
        for trace in traces:
            for before, after in trace.prox_residuals:
                assert after <= before + 1e-10
        without = chain_block(gauss_case, 0, 100)
        res_on = np.linalg.norm(with_prox @ matrix.T - y, axis=1)
        res_off = np.linalg.norm(without @ matrix.T - y, axis=1)
        assert np.mean(res_on) <= np.mean(res_off)


def test_criterion_07_limited_angle_ordering():
    with criterion(7, "FBP/RLS/TV mean PSNR grows with angular coverage", 300.0):
        n = 128
        phantoms = [
            make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=s)) for s in range(5)
        ] + [
            make_phantom(PhantomSpec(PhantomKind.ELLIPSES, n, seed=s))
            for s in range(5, 10)
        ]
        means = {"fbp": [], "rls": [], "tv": []}
        for theta in (60, 90, 120, 180):
            geom = make_limited_geometry(n, default_detectors(n), theta, float(theta))
            scores = {"fbp": [], "rls": [], "tv": []}
            for phantom in phantoms:
                sino = forward_project(phantom, geom)
                scores["fbp"].append(psnr(fbp_reconstruct(sino, geom), phantom))
                scores["rls"].append(
                    psnr(rls_reconstruct(sino, geom, max_iter=60), phantom)
                )
                scores["tv"].append(
                    psnr(tv_reconstruct(sino, geom, lam=1.0, outer_iters=25), phantom)
                )
            for method in means:
                means[method].append(np.mean(scores[method]))
        for method, values in means.items():
            assert np.all(np.diff(values) >= 0.0), f"{method} not monotone: {values}"


def test_criterion_08_uncertainty_calibration(gauss_case):
    with criterion(8, "sample spread correlates with reconstruction error", 600.0):
        mean = gauss_case["oracle_mean"]
        non_negative = 0
        for rep in range(20):
            samples = chain_block(gauss_case, rep * 1000, 64)
            spread = samples.std(axis=0, ddof=1)
            error = np.abs(samples.mean(axis=0) - mean)
            if np.corrcoef(spread, error)[0, 1] >= 0.0:
                non_negative += 1
        assert non_negative >= 18


def test_criterion_09_sample_average_variance_reduction(gauss_case):
    with criterion(9, "averaged estimate beats the mean per-sample error", 60.0):
        samples = posterior_samples(gauss_case)
        mean = gauss_case["oracle_mean"]
        avg_sq_err = float(((samples.mean(axis=0) - mean) ** 2).sum())
        per_sample = float(
            ((samples - mean[None, :]) ** 2).sum(axis=1).mean()
        )
        assert avg_sq_err <= per_sample * (1.0 + 1e-12)


def test_criterion_10_guidance_endpoints():
    with criterion(10, "guidance weights 1 and 0 select the exact branches", 1.0):
        rng = np.random.default_rng(77)
        cond = rng.standard_normal((2, 3, 3))
        uncond = rng.standard_normal((2, 3, 3))
        assert guided_epsilon(cond, uncond, 1.0).tobytes() == cond.tobytes()
        assert guided_epsilon(cond, uncond, 0.0).tobytes() == uncond.tobytes()


def test_criterion_11_respacing_lattice():
    with criterion(11, "shortened schedules reuse the original noise levels", 1.0):
        for K in (10, 50, 250):
            tmap = respace(TRAIN_SCHED, K)
            assert np.array_equal(
                tmap.schedule.alpha_bar, TRAIN_SCHED.alpha_bar[tmap.indices - 1]
            )
            assert np.all(np.diff(tmap.schedule.alpha_bar) < 0.0)


def test_criterion_12_prox_dense_oracle():
    with criterion(12, "consistency prox matches the dense linear solve", 30.0):
        geom = make_limited_geometry(8, default_detectors(8), 12, 180.0)
        dense = dense_tomo_matrix(geom)
        rng = np.random.default_rng(88)
        x_tilde = rng.standard_normal(64)
        y = rng.standard_normal(dense.shape[0])
        for gamma in (0.1, 1.0, 10.0):
            oracle = np.linalg.solve(
                np.eye(64) + gamma * dense.T @ dense,
                x_tilde + gamma * dense.T @ y,
            )
            z, report = prox_consistency(
                x_tilde, y, TomoOperator(geom),
                ProxConfig(gamma=gamma, cg_tol=1e-12, cg_max_iter=400),
            )
            assert report.converged
            assert np.linalg.norm(z - oracle) <= 1e-5 * np.linalg.norm(oracle)
