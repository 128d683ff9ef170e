"""Phantoms, metrics, and the closed-form posterior oracle."""

import math

import numpy as np
import pytest

from lactdiff.core import DimensionError, Image, ParameterError
from lactdiff.denoiser import GmmPrior, conditional_gmm_denoiser
from lactdiff.diffusion import default_linear_schedule
from lactdiff.evaluation import (
    METRICS_CSV_HEADER,
    PhantomKind,
    PhantomSpec,
    _grid_span,
    gaussian_posterior_oracle,
    make_phantom,
    metrics_csv_row,
    psnr,
    ssim,
)


class TestPhantoms:
    @pytest.mark.parametrize("center, expected", [(-1.6, range(0)), (1.6, range(0)),
                                                  (0.0, range(26, 38))])
    def test_ellipse_span_clips_to_the_grid(self, center, expected):
        # reach 0.1 on a 64-point grid: 3.2 points each side, plus a margin of 2
        assert range(64)[_grid_span(center, 0.1, 64)] == expected

    def test_outside_support_is_zero(self):
        ph = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, 128))
        assert ph.data[0, 0] == 0.0
        assert ph.data[0, 127] == 0.0

    def test_center_matches_pointwise_ellipse_sum(self):
        # at the origin only the two outer ellipses contribute: 2 - 0.98
        ph = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, 256))
        assert ph.data[128, 128] == pytest.approx(1.02, abs=1e-6)

    def test_value_range(self):
        for kind in PhantomKind:
            ph = make_phantom(PhantomSpec(kind, 64, seed=3))
            assert ph.data.min() >= 0.0
            assert ph.data.max() <= 2.0

    def test_seeded_determinism(self):
        a = make_phantom(PhantomSpec(PhantomKind.DISKS, 64, seed=9))
        b = make_phantom(PhantomSpec(PhantomKind.DISKS, 64, seed=9))
        assert a == b
        c = make_phantom(PhantomSpec(PhantomKind.DISKS, 64, seed=10))
        assert a != c

    def test_minimum_size(self):
        with pytest.raises(ParameterError):
            PhantomSpec(PhantomKind.DISKS, 4)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, 32))
        assert math.isinf(psnr(img, img))

    def test_unit_range_offset(self):
        ref = Image(16, 16, np.linspace(0.0, 1.0, 256).reshape(16, 16))
        shifted = Image(16, 16, ref.as_f64() + 0.1)
        assert psnr(shifted, ref) == pytest.approx(20.0, abs=1e-5)

    def test_double_range_offset(self):
        ref = Image(16, 16, np.linspace(0.0, 2.0, 256).reshape(16, 16))
        shifted = Image(16, 16, ref.as_f64() + 0.1)
        assert psnr(shifted, ref) == pytest.approx(10.0 * math.log10(400.0), abs=1e-4)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        ref = Image(16, 16, rng.standard_normal((16, 16)))
        x = Image(16, 16, rng.standard_normal((16, 16)))
        a, b = 3.0, -1.5
        scaled = psnr(
            Image(16, 16, a * x.as_f64() + b), Image(16, 16, a * ref.as_f64() + b)
        )
        assert scaled == pytest.approx(psnr(x, ref), abs=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(Image(2, 2, np.zeros((2, 2))), Image(2, 3, np.zeros((2, 3))))

    def test_constant_reference_rejected(self):
        ref = Image(4, 4, np.zeros((4, 4)))
        other = Image(4, 4, np.ones((4, 4)))
        with pytest.raises(ParameterError):
            psnr(other, ref)


class TestSsim:
    def test_identical_is_one(self):
        img = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, 32))
        assert ssim(img, img) == 1.0

    @pytest.mark.parametrize("shape", [(11, 11), (32, 32), (40, 23)])
    def test_matches_a_2d_convolution_reference(self, shape):
        # the window applied as one 11x11 kernel with scipy's convolve2d
        from scipy.signal import convolve2d

        rng = np.random.default_rng(sum(shape))
        x = Image(*shape, rng.uniform(0.0, 2.0, shape))
        ref = Image(*shape, x.as_f64() + 0.2 * rng.standard_normal(shape))
        a, b = x.as_f64(), ref.as_f64()
        g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5**2))
        win = np.outer(g, g) / np.outer(g, g).sum()

        def smooth(img):
            return convolve2d(img, win, mode="valid")

        c1, c2 = (0.01 * np.ptp(b)) ** 2, (0.03 * np.ptp(b)) ** 2
        mu_a, mu_b = smooth(a), smooth(b)
        var_a, var_b = smooth(a * a) - mu_a**2, smooth(b * b) - mu_b**2
        cov = smooth(a * b) - mu_a * mu_b
        want = np.mean(
            (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
            / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
        )
        assert abs(ssim(x, ref) - want) <= 1e-12 * abs(want)

    def test_affine_distortion_below_one(self):
        ref = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, 64))
        distorted = Image(64, 64, 1.3 * ref.as_f64() + 0.2)
        assert ssim(distorted, ref) < 1.0

    def test_negation_of_zero_mean_pattern(self):
        i = np.arange(32)
        x, y = np.meshgrid(i, i)
        pattern = np.sin(2.0 * np.pi * x / 3.0) * np.sin(2.0 * np.pi * y / 3.0)
        ref = Image(32, 32, pattern)
        neg = Image(32, 32, -pattern)
        assert ssim(neg, ref) < 0.0

    def test_minimum_size(self):
        with pytest.raises(DimensionError):
            ssim(Image(8, 8, np.zeros((8, 8))), Image(8, 8, np.zeros((8, 8))))

    def test_constant_reference(self):
        # as in psnr: only an exact copy of a constant reference is accepted
        ref = Image(16, 16, np.full((16, 16), 0.5))
        assert ssim(ref, ref) == 1.0
        with pytest.raises(ParameterError):
            ssim(Image(16, 16, np.full((16, 16), 0.25)), ref)

    def test_deterministic(self):
        a = make_phantom(PhantomSpec(PhantomKind.DISKS, 32, seed=1))
        b = make_phantom(PhantomSpec(PhantomKind.DISKS, 32, seed=2))
        assert ssim(a, b) == ssim(a, b)


class TestPosteriorOracle:
    def test_no_information_returns_prior(self):
        prior = GmmPrior(3, [1.0], [[0.5, -0.5, 0.0]], [0.8])
        mean, cov = gaussian_posterior_oracle(prior, np.zeros((2, 3)), np.zeros(2), 1.0)
        assert np.allclose(mean, prior.means[0])
        assert np.allclose(cov, 0.8 * np.eye(3))

    def test_exact_observation_limit(self):
        prior = GmmPrior(2, [1.0], [[0.0, 0.0]], [1.0])
        y = np.array([1.2, -0.7])
        mean, cov = gaussian_posterior_oracle(prior, np.eye(2), y, 1e-12)
        assert np.allclose(mean, y, atol=1e-6)
        assert np.all(np.abs(cov) <= 1e-10)

    def test_worked_instance(self):
        # mu0=(0,0), Sigma0=I, A=[[1,0]], y=(2), noise=1 -> mean (1,0), cov diag(1/2, 1)
        prior = GmmPrior(2, [1.0], [[0.0, 0.0]], [1.0])
        mat = np.array([[1.0, 0.0]])
        mean, cov = gaussian_posterior_oracle(prior, mat, np.array([2.0]), 1.0)
        assert np.allclose(mean, [1.0, 0.0], atol=1e-12)
        assert np.allclose(cov, np.diag([0.5, 1.0]), atol=1e-12)
        # independent dense cross-check
        prec = np.eye(2) + mat.T @ mat
        assert np.allclose(cov, np.linalg.inv(prec), atol=1e-12)

    def test_multi_component_rejected(self):
        prior = GmmPrior(1, [0.5, 0.5], [[0.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ParameterError):
            gaussian_posterior_oracle(prior, np.zeros((1, 1)), np.zeros(1), 1.0)

    def test_consistency_with_conditional_denoiser(self):
        # the sampler-side conditional model must carry the same posterior
        rng = np.random.default_rng(60)
        sched = default_linear_schedule(500)
        for dim in (2, 4, 8):
            prior = GmmPrior(dim, [1.0], rng.standard_normal((1, dim)), [0.6])
            mat = rng.standard_normal((dim // 2 + 1, dim))
            y = rng.standard_normal(dim // 2 + 1)
            mean, cov = gaussian_posterior_oracle(prior, mat, y, 0.3)
            model = conditional_gmm_denoiser(prior, mat, y, 0.3, sched)
            assert np.abs(model.posterior.means[0] - mean).max() <= 1e-8
            assert np.abs(model.posterior.covariances[0] - cov).max() <= 1e-8


class TestCsv:
    def test_header_and_row(self):
        assert METRICS_CSV_HEADER.split(",") == [
            "phantom_id", "method", "theta_max", "views", "psnr_db", "ssim",
        ]
        row = metrics_csv_row("p01", "fbp", 60.0, 240, 15.1234567, 0.6543219)
        assert row == "p01,fbp,60,240,15.1235,0.654322"
        assert metrics_csv_row("p", "m", 90.0, 1, math.inf, 1.0).split(",")[4] == "inf"
