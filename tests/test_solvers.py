"""Conjugate gradient, regularized least squares, TV, and the consistency prox."""

import gc
import weakref

import numpy as np
import pytest

from conftest import dense_tomo_matrix
from lactdiff import solvers, tomography
from lactdiff.core import DimensionError, Image, NumericalError, ParameterError, Sinogram
from lactdiff.evaluation import PhantomKind, PhantomSpec, make_phantom
from lactdiff.solvers import (
    DenseOperator,
    ProxConfig,
    conjugate_gradient,
    data_consistency_prox,
    operator_norm_sq,
    prox_consistency,
    rls_reconstruct,
    total_variation,
    tv_prox,
    tv_reconstruct,
)
from lactdiff.tomography import (
    Geometry,
    TomoOperator,
    default_detectors,
    fbp_reconstruct,
    forward_project,
    make_limited_geometry,
)


def small_case(n=8, views=12, theta=180.0, seed=0):
    geom = make_limited_geometry(n, default_detectors(n), views, theta)
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((n, n))
    sino_data = TomoOperator(geom).forward(img.ravel()).reshape(views, geom.detectors)
    sino = Sinogram(views, geom.detectors, geom.angles_deg, sino_data)
    return geom, sino


class TestConjugateGradient:
    def test_identity_converges_in_one_step(self):
        rhs = np.array([1.0, -2.0, 3.0])
        x, report = conjugate_gradient(lambda v: v, rhs, tol=1e-12)
        assert np.allclose(x, rhs, atol=1e-12)
        assert report.converged and report.iterations == 1

    def test_matches_dense_solve(self):
        mat = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
        rhs = np.array([1.0, 2.0, 3.0])
        x, report = conjugate_gradient(lambda v: mat @ v, rhs, tol=1e-12)
        assert report.converged
        assert np.allclose(x, np.linalg.solve(mat, rhs), atol=1e-8)

    def test_zero_budget_returns_start(self):
        rhs = np.array([1.0, 1.0])
        x0 = np.array([0.5, -0.5])
        x, report = conjugate_gradient(lambda v: 2.0 * v, rhs, x0=x0, max_iter=0)
        assert np.array_equal(x, x0)
        assert not report.converged

    def test_residual_norm_non_increasing(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        mat = q @ np.diag(rng.uniform(0.5, 2.5, 20)) @ q.T
        rhs = rng.standard_normal(20)
        norms = []
        for k in range(1, 15):
            _, report = conjugate_gradient(lambda v: mat @ v, rhs, tol=0.0, max_iter=k)
            norms.append(report.final_residual_norm)
        assert np.all(np.diff(norms) <= 1e-12)

    @pytest.mark.parametrize("tol", [-1e-8, np.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        # either would run to max_iter and report "not converged"
        with pytest.raises(ParameterError, match="tol"):
            conjugate_gradient(lambda v: 2.0 * v, np.ones(3), tol=tol)

    def test_non_spd_detected(self):
        with pytest.raises(NumericalError):
            conjugate_gradient(lambda v: -v, np.ones(3), tol=1e-12)

    def test_start_point_does_not_change_solution(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((10, 10))
        mat = mat @ mat.T + 0.5 * np.eye(10)
        rhs = rng.standard_normal(10)
        xa, _ = conjugate_gradient(lambda v: mat @ v, rhs, tol=1e-12, max_iter=200)
        xb, _ = conjugate_gradient(
            lambda v: mat @ v, rhs, x0=rng.standard_normal(10), tol=1e-12, max_iter=200
        )
        assert np.linalg.norm(xa - xb) <= 1e-4 * np.linalg.norm(xa)


class TestRls:
    def test_zero_data_gives_zero(self):
        geom, _ = small_case()
        sino = Sinogram(
            geom.n_views, geom.detectors, geom.angles_deg,
            np.zeros((geom.n_views, geom.detectors)),
        )
        recon, _ = rls_reconstruct(sino, geom, tau=0.1)
        assert np.all(recon.data == 0.0)

    def test_matches_dense_normal_equations(self):
        geom, sino = small_case(seed=11)
        tau = 0.7
        dense = dense_tomo_matrix(geom)
        oracle = np.linalg.solve(
            dense.T @ dense + tau * np.eye(64), dense.T @ sino.as_f64().ravel()
        )
        recon, _ = rls_reconstruct(sino, geom, tau=tau, tol=1e-12, max_iter=500)
        err = np.linalg.norm(recon.as_f64().ravel() - oracle)
        assert err <= 1e-5 * np.linalg.norm(oracle)

    def test_huge_tau_bound(self):
        geom, sino = small_case(seed=2)
        y = sino.as_f64().ravel()
        y /= np.linalg.norm(y)
        unit = Sinogram(
            geom.n_views, geom.detectors, geom.angles_deg,
            y.reshape(geom.n_views, geom.detectors),
        )
        tau = 1e6
        recon, _ = rls_reconstruct(unit, geom, tau=tau, tol=1e-12, max_iter=200)
        aty = TomoOperator(geom).adjoint(unit.as_f64().ravel())
        assert np.linalg.norm(recon.as_f64()) <= np.linalg.norm(aty) / tau * (1 + 1e-6)

    def test_negative_tau_rejected(self):
        geom, sino = small_case()
        with pytest.raises(ParameterError):
            rls_reconstruct(sino, geom, tau=-1.0)

    def test_zero_iterations_rejected(self):
        # with no iteration CG would return its zero start as the reconstruction
        geom, sino = small_case()
        with pytest.raises(ParameterError, match="max_iter"):
            rls_reconstruct(sino, geom, tau=0.1, max_iter=0)

    def test_solution_unique_for_positive_tau(self):
        # the regularized normal equations have one minimizer; CG reaches it
        # from different starting points
        geom, sino = small_case(seed=17)
        op = TomoOperator(geom)
        tau = 0.5
        rhs = op.adjoint(sino.as_f64().ravel())

        def normal_apply(v):
            return op.adjoint(op.forward(v)) + tau * v

        xa, _ = conjugate_gradient(normal_apply, rhs, None, 1e-10, 500)
        start = np.random.default_rng(18).standard_normal(rhs.size)
        xb, _ = conjugate_gradient(normal_apply, rhs, start, 1e-10, 500)
        assert np.linalg.norm(xa - xb) <= 1e-4 * np.linalg.norm(xa)

    def test_reports_whether_the_solve_converged(self):
        geom, sino = small_case(n=16, views=8, theta=60.0, seed=3)
        capped, capped_report = rls_reconstruct(sino, geom, tau=0.1, max_iter=2)
        full, full_report = rls_reconstruct(sino, geom, tau=0.1)
        assert capped_report.iterations == 2 and not capped_report.converged
        assert 2 < full_report.iterations < 200 and full_report.converged
        # a repeated solve returns the same reconstruction
        assert np.array_equal(full.as_f64(), rls_reconstruct(sino, geom, tau=0.1)[0].as_f64())
        assert np.array_equal(
            capped.as_f64(), rls_reconstruct(sino, geom, tau=0.1, max_iter=2)[0].as_f64()
        )


class TestTv:
    def test_zero_weight_agrees_with_least_squares(self):
        n = 16
        phantom = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=3))
        geom = make_limited_geometry(n, default_detectors(n), 30, 180.0)
        sino_data = TomoOperator(geom).forward(phantom.as_f64().ravel())
        sino = Sinogram(
            30, geom.detectors, geom.angles_deg, sino_data.reshape(30, -1)
        )
        tv0, _ = tv_reconstruct(sino, geom, lam=0.0, outer_iters=8000)
        ls, _ = rls_reconstruct(sino, geom, tau=0.0, tol=1e-13, max_iter=3000)
        rel = np.linalg.norm(tv0.as_f64() - ls.as_f64()) / np.linalg.norm(ls.as_f64())
        assert rel <= 1e-3

    def test_zero_data_gives_zero(self):
        geom, _ = small_case()
        sino = Sinogram(
            geom.n_views, geom.detectors, geom.angles_deg,
            np.zeros((geom.n_views, geom.detectors)),
        )
        recon, _ = tv_reconstruct(sino, geom, lam=0.3, outer_iters=10)
        assert np.allclose(recon.as_f64(), 0.0, atol=1e-12)

    def test_large_weight_reduces_total_variation(self):
        n = 32
        phantom = make_phantom(PhantomSpec(PhantomKind.DISKS, n, seed=3))
        geom = make_limited_geometry(n, default_detectors(n), 24, 120.0)
        sino_data = TomoOperator(geom).forward(phantom.as_f64().ravel())
        sino = Sinogram(24, geom.detectors, geom.angles_deg, sino_data.reshape(24, -1))
        plain, _ = tv_reconstruct(sino, geom, lam=0.0, outer_iters=120)
        smooth, _ = tv_reconstruct(sino, geom, lam=20.0, outer_iters=120)
        assert total_variation(smooth.as_f64()) < total_variation(plain.as_f64())

    def test_objective_non_increasing(self):
        # the iterate sequence is deterministic, so prefixes of a longer run
        # visit exactly the same states
        n = 16
        geom, sino = small_case(n=n, views=12, seed=7)
        lam = 0.5
        dense = dense_tomo_matrix(geom)
        y = sino.as_f64().ravel()

        def objective(img):
            x = img.as_f64().ravel()
            return 0.5 * np.sum((dense @ x - y) ** 2) + lam * total_variation(
                img.as_f64()
            )

        values = [
            objective(tv_reconstruct(sino, geom, lam=lam, outer_iters=k)[0])
            for k in range(5, 41, 5)
        ]
        assert np.all(np.diff(values) <= 1e-6)

    def test_zero_norm_geometry_gives_zero(self):
        # both rays pass outside the half-unit pixel, so A = 0 and ||A^T A|| = 0:
        # TV's step falls back to 1 instead of dividing by zero
        geom = Geometry(1, 1, 2, [0.0], 0.5, 1.0)
        assert geom.norm_sq == 0.0
        sino = Sinogram(1, 2, geom.angles_deg, np.array([[1.0, 2.0]]))
        for recon, _ in (tv_reconstruct(sino, geom, lam=0.3, outer_iters=10),
                         rls_reconstruct(sino, geom)):
            assert recon.shape == (1, 1)
            assert np.all(recon.as_f64() == 0.0)


def grad2d_reference(u):
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def div2d_reference(px, py):
    """Negative adjoint of grad2d_reference, for at least 2 rows and 2 columns."""
    div = np.zeros_like(px)
    div[0, :] = px[0, :]
    div[1:-1, :] = px[1:-1, :] - px[:-2, :]
    div[-1, :] = -px[-2, :]
    div[:, 0] += py[:, 0]
    div[:, 1:-1] += py[:, 1:-1] - py[:, :-2]
    div[:, -1] += -py[:, -2]
    return div


def tv_prox_warm_reference(g, weight, px, py):
    """Chambolle's dual projection from the dual (px, py), with fresh arrays,
    stopped once u = g - weight * div p moves by at most 1e-6 of its norm in
    one step, or after 20 steps.  Returns (u, px, py, steps)."""
    tau = 0.25
    u = g - weight * div2d_reference(px, py)
    for steps in range(1, 21):
        gx, gy = grad2d_reference(div2d_reference(px, py) - g / weight)
        denom = 1.0 + tau * np.sqrt(gx**2 + gy**2)
        px = (px + tau * gx) / denom
        py = (py + tau * gy) / denom
        u_prev, u = u, g - weight * div2d_reference(px, py)
        if np.linalg.norm(u - u_prev) <= 1e-6 * np.linalg.norm(u):
            break
    return u, px, py, steps


def tv_reconstruct_reference(sino, geom, lam, outer_iters):
    """The TV loop that projects every point it evaluates (the zero start, each
    momentum point and each candidate) and carries one TV dual from prox to
    prox.  Returns (x, rejected candidates)."""
    op = TomoOperator(geom)
    y = sino.as_f64().ravel()
    rows, cols = geom.image_rows, geom.image_cols
    step = 1.0 / (1.05 * geom.norm_sq)

    def objective(x):
        res = op.forward(x) - y
        return 0.5 * float(res @ res) + lam * total_variation(x.reshape(rows, cols))

    x = np.zeros(rows * cols)
    z = x.copy()
    px = py = np.zeros((rows, cols))
    f_x = objective(x)
    t_k = 1.0
    rejected = 0
    for _ in range(outer_iters):
        cand = z - step * op.adjoint(op.forward(z) - y)
        if lam > 0.0:
            u, px, py, _ = tv_prox_warm_reference(cand.reshape(rows, cols), lam * step, px, py)
            cand = u.ravel()
        f_cand = objective(cand)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
        if f_cand <= f_x:
            x_next, f_next = cand, f_cand
        else:
            x_next, f_next = x, f_x
            rejected += 1
        z = x_next + (t_k / t_next) * (cand - x_next) + ((t_k - 1.0) / t_next) * (x_next - x)
        x, f_x = x_next, f_next
        t_k = t_next
    return x, rejected


def noisy_case(geom, image, noise_std, seed):
    data = TomoOperator(geom).forward(image.ravel())
    data += noise_std * np.random.default_rng(seed).standard_normal(data.size)
    return Sinogram(geom.n_views, geom.detectors, geom.angles_deg, data.reshape(geom.n_views, -1))


class TestTvMatchesReference:
    DISKS = make_phantom(PhantomSpec(PhantomKind.DISKS, 16, seed=3)).as_f64()

    @pytest.mark.parametrize(
        "geom, image, lam, iters, min_rejected",
        [
            (make_limited_geometry(16, default_detectors(16), 12, 90.0), DISKS, 0.0, 30, 0),
            (Geometry(9, 13, 18, np.linspace(0.0, 150.0, 10)),
             np.random.default_rng(2).standard_normal((9, 13)), 0.5, 40, 0),
            (make_limited_geometry(16, default_detectors(16), 12, 90.0), DISKS, 5.0, 30, 1),
        ],
        ids=["lam0", "non-square", "rejects"],
    )
    def test_agrees_with_recomputed_products(self, geom, image, lam, iters, min_rejected):
        sino = noisy_case(geom, image, 0.05, 0)
        ref, rejected = tv_reconstruct_reference(sino, geom, lam, iters)
        assert rejected >= min_rejected
        got, report = tv_reconstruct(sino, geom, lam, iters)
        got = got.as_f64().ravel()
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)
        assert report.rejected == rejected


class TestTvKeepsMoving:
    """A rejected candidate does not stop TV: the warm-started prox does not
    return it again.  With the dual restarted on every prox, the 30- and
    100-iteration iterates of these cases were byte-equal."""

    GEOM = make_limited_geometry(16, default_detectors(16), 12, 90.0)

    @pytest.mark.parametrize("lam", [5.0, 20.0])
    def test_objective_falls_after_rejections(self, lam):
        sino = noisy_case(self.GEOM, TestTvMatchesReference.DISKS, 0.05, 0)
        y = sino.as_f64().ravel()
        op = TomoOperator(self.GEOM)

        def objective(k):
            recon, report = tv_reconstruct(sino, self.GEOM, lam, k)
            x = recon.as_f64()
            res = op.forward(x.ravel()) - y
            return 0.5 * float(res @ res) + lam * total_variation(x), report

        long_run, report = objective(100)
        assert long_run < objective(30)[0]
        assert report.rejected >= 1

    def test_report_counts_the_prox_steps(self):
        sino = noisy_case(self.GEOM, TestTvMatchesReference.DISKS, 0.05, 0)
        counted = []

        def counting_prox(g, weight, dual):
            before = dual.iterations
            out = tv_prox(g, weight, dual)
            counted.append(dual.iterations - before)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "tv_prox", counting_prox)
            _, report = tv_reconstruct(sino, self.GEOM, 5.0, 12)
        assert len(counted) == 12 and all(1 <= k <= 20 for k in counted)
        assert report.prox_iterations == sum(counted)

    def test_zero_weight_runs_no_prox(self):
        sino = noisy_case(self.GEOM, TestTvMatchesReference.DISKS, 0.05, 0)
        _, report = tv_reconstruct(sino, self.GEOM, 0.0, 5)
        assert report.prox_iterations == 0


class TestTvProx:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 3), (16, 16), (13, 40)])
    def test_matches_allocating_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        zero = np.zeros(shape)
        for weight in (1e-3, 0.1, 3.0):
            g = rng.uniform(0.1, 10.0) * rng.standard_normal(shape)
            dual = solvers.TvDual(shape)
            want, px, py, steps = tv_prox_warm_reference(g, weight, zero, zero)
            assert np.array_equal(tv_prox(g, weight, dual), want)
            assert dual.iterations == steps
            assert np.array_equal(dual.px, px) and np.array_equal(dual.py, py)

    @pytest.mark.parametrize("shape", [(2, 9), (16, 16), (13, 40)])
    def test_warm_start_matches_reference(self, shape):
        # calls on one dual: a small weight stops by the rule after 2 steps,
        # the others at the cap of 20
        rng = np.random.default_rng(sum(shape))
        dual = solvers.TvDual(shape)
        px = py = np.zeros(shape)
        for weight in (1e-4, 1e-4, 0.3, 3.0):
            g = rng.standard_normal(shape)
            before = dual.iterations
            got = tv_prox(g, weight, dual)
            want, px, py, steps = tv_prox_warm_reference(g, weight, px, py)
            assert dual.iterations - before == steps == (2 if weight < 0.1 else 20)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert np.allclose(dual.px, px, rtol=0.0, atol=1e-12)

    def test_dual_of_another_shape_rejected(self):
        with pytest.raises(DimensionError):
            tv_prox(np.zeros((4, 5)), 0.5, solvers.TvDual((5, 4)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1)])
    def test_runs_on_a_single_row_or_column(self, shape):
        g = np.arange(float(np.prod(shape))).reshape(shape)
        out = tv_prox(g, 0.5, solvers.TvDual(shape))
        assert out.shape == shape
        # the mean is invariant under the TV prox
        assert out.sum() == pytest.approx(g.sum(), abs=1e-9)


class TestProductCounts:
    """A, A^T and normal products per solve, with the geometry's ||A^T A||
    estimated first."""

    def test_tv_makes_one_of_each_per_outer_iteration(self, count_products):
        geom, sino = small_case()
        geom.norm_sq
        for k in (1, 6):
            count_products.clear()
            tv_reconstruct(sino, geom, lam=0.3, outer_iters=k)
            # A^T y, then one normal product of the candidate per iteration
            assert count_products == {"normal": k, "adjoint": 1}

    def test_rls_zero_start_makes_no_product(self, count_products):
        geom, sino = small_case()
        geom.norm_sq
        count_products.clear()
        k = 5
        rls_reconstruct(sino, geom, tol=0.0, max_iter=k)
        # A^T y, then one normal product per iteration
        assert count_products == {"normal": k, "adjoint": 1}

    def test_norm_estimate_makes_one_normal_per_lanczos_step(self, count_products, monkeypatch):
        # the estimate stops after 11 steps on this geometry, so 1 and 10 steps
        # stop at the budget
        op = TomoOperator(make_limited_geometry(16, default_detectors(16), 8, 30.0))
        for k in (1, 10):
            monkeypatch.setattr(solvers, "_LANCZOS_MAX_STEPS", k)
            count_products.clear()
            operator_norm_sq(op)
            assert count_products == {"normal": k}

    def test_norm_estimate_stops_within_ten_normals(self, count_products):
        op = TomoOperator(make_limited_geometry(64, default_detectors(64), 120, 60.0))
        operator_norm_sq(op)
        assert count_products["normal"] <= 10
        assert set(count_products) == {"normal"}


class TestProx:
    def test_tiny_gamma_returns_input(self):
        geom, sino = small_case(seed=5)
        rng = np.random.default_rng(8)
        x_tilde = Image(8, 8, rng.standard_normal((8, 8)))
        z, _ = data_consistency_prox(
            x_tilde, sino, geom, ProxConfig(gamma=1e-12, cg_tol=1e-14, cg_max_iter=100)
        )
        assert np.allclose(z.as_f64(), x_tilde.as_f64(), atol=1e-6)

    def test_matches_dense_solve(self):
        geom, sino = small_case(seed=6)
        dense = dense_tomo_matrix(geom)
        rng = np.random.default_rng(9)
        x_tilde = rng.standard_normal(64)
        y = sino.as_f64().ravel()
        gamma = 5.0
        oracle = np.linalg.solve(
            np.eye(64) + gamma * dense.T @ dense, x_tilde + gamma * dense.T @ y
        )
        z, report = prox_consistency(
            x_tilde, y, TomoOperator(geom),
            ProxConfig(gamma=gamma, cg_tol=1e-12, cg_max_iter=300),
        )
        assert report.converged
        assert np.linalg.norm(z - oracle) <= 1e-5 * np.linalg.norm(oracle)

    def test_residual_never_increases(self):
        geom, sino = small_case(seed=10)
        op = TomoOperator(geom)
        y = sino.as_f64().ravel()
        rng = np.random.default_rng(12)
        for budget in (2, 5, 200):
            x_tilde = rng.standard_normal(64)
            z, _ = prox_consistency(
                x_tilde, y, op, ProxConfig(gamma=2.0, cg_tol=1e-12, cg_max_iter=budget)
            )
            before = np.linalg.norm(op.forward(x_tilde) - y)
            after = np.linalg.norm(op.forward(z) - y)
            assert after <= before + 1e-12

    def test_objective_beats_start(self):
        geom, sino = small_case(seed=13)
        op = TomoOperator(geom)
        y = sino.as_f64().ravel()
        rng = np.random.default_rng(14)
        x_tilde = rng.standard_normal(64)
        gamma = 3.0
        z, _ = prox_consistency(
            x_tilde, y, op, ProxConfig(gamma=gamma, cg_tol=1e-10, cg_max_iter=200)
        )
        obj = np.sum((z - x_tilde) ** 2) + gamma * np.sum((op.forward(z) - y) ** 2)
        assert obj <= gamma * np.sum((op.forward(x_tilde) - y) ** 2) + 1e-9

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ProxConfig(gamma=0.0)
        with pytest.raises(ParameterError):
            ProxConfig(gamma=1.0, cg_tol=0.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_cg_tol_rejected(self, tol):
        # an infinite tolerance would accept x_tilde untouched as a converged prox
        with pytest.raises(ParameterError, match="cg_tol"):
            ProxConfig(gamma=1.0, cg_tol=tol)


class TestDenseOperator:
    def test_forward_adjoint(self):
        rng = np.random.default_rng(15)
        mat = rng.standard_normal((5, 7))
        op = DenseOperator(mat)
        x = rng.standard_normal(7)
        y = rng.standard_normal(5)
        assert np.allclose(op.forward(x), mat @ x)
        assert np.allclose(op.adjoint(y), mat.T @ y)
        assert op.shape == (5, 7)


NORM_GEOMETRIES = {
    "16px-8views-30deg": make_limited_geometry(16, default_detectors(16), 8, 30.0),
    "8px-one-view": make_limited_geometry(8, default_detectors(8), 1, 10.0),
    "5px-3views-179deg": make_limited_geometry(5, default_detectors(5), 3, 179.0),
    "non-square-wide-spacing": Geometry(
        6, 11, 9, np.array([0.0, 33.0, 71.5, 120.0, 150.0]), 1.0, 1.5
    ),
}


class TestOperatorNormSq:
    @pytest.mark.parametrize("name", sorted(NORM_GEOMETRIES))
    def test_matches_dense_eigenvalue(self, name):
        geom = NORM_GEOMETRIES[name]
        mat = dense_tomo_matrix(geom)
        expected = np.linalg.eigvalsh(mat.T @ mat)[-1]
        assert operator_norm_sq(TomoOperator(geom)) == pytest.approx(expected, rel=1e-12)

    def test_dense_operator(self):
        mat = np.random.default_rng(21).standard_normal((7, 5))
        expected = np.linalg.eigvalsh(mat.T @ mat)[-1]
        assert operator_norm_sq(DenseOperator(mat)) == pytest.approx(expected, rel=1e-12)

    def test_zero_operator_gives_zero(self):
        assert operator_norm_sq(DenseOperator(np.zeros((3, 4)))) == 0.0


class TestGeometryOwnsPlanAndNorm:
    def test_builds_and_estimates_once(self, monkeypatch):
        builds, estimates = [], []
        build, estimate = tomography._build_stencil_matrix, solvers.operator_norm_sq

        def counted_build(geom):
            builds.append(geom)
            return build(geom)

        def counted_estimate(op, *args, **kwargs):
            estimates.append(op.geom)
            return estimate(op, *args, **kwargs)

        monkeypatch.setattr(tomography, "_build_stencil_matrix", counted_build)
        monkeypatch.setattr(solvers, "operator_norm_sq", counted_estimate)
        geom = make_limited_geometry(16, default_detectors(16), 12, 90.0)
        sino = forward_project(make_phantom(PhantomSpec(PhantomKind.DISKS, 16)), geom)
        fbp_reconstruct(sino, geom)
        op = TomoOperator(geom)
        op.adjoint(op.forward(np.ones(op.shape[1])))
        for _ in range(2):
            rls_reconstruct(sino, geom, max_iter=5)
            tv_reconstruct(sino, geom, lam=0.1, outer_iters=3)
        assert builds == [geom]
        assert estimates == [geom]

    def test_plan_dies_with_its_geometry(self):
        geom, sino = small_case()
        rls_reconstruct(sino, geom, max_iter=5)
        plan = weakref.ref(tomography._stencil_plan(geom))
        del geom, sino
        gc.collect()
        assert plan() is None
