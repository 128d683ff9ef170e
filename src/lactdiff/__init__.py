"""Limited-angle CT reconstruction toolkit.

Classical reconstructions (FBP, regularized least squares, TV) over an
exact forward/adjoint projection pair, plus conditional reverse-diffusion
sampling with proximal measurement consistency, sample averaging, and
per-pixel uncertainty maps.  Analytic mixture-model denoisers stand in for
a trained network so the sampling stack can be verified against
closed-form posteriors.

Each exported name, and each submodule, is imported on first access
(PEP 562), so `import lactdiff` loads no submodule and a command loads
only the modules it runs.
"""

import importlib

_EXPORTS = {
    "core": (
        "DataError",
        "DimensionError",
        "FormatError",
        "Image",
        "NumericalError",
        "ParameterError",
        "SeededRng",
        "Sinogram",
        "read_raster",
        "write_pgm",
        "write_raster",
    ),
    "tomography": (
        "FilterKind",
        "Geometry",
        "TomoOperator",
        "back_project",
        "default_detectors",
        "fbp_reconstruct",
        "forward_project",
        "make_limited_geometry",
        "ramp_filter",
    ),
    "solvers": (
        "CgReport",
        "DenseOperator",
        "ProxConfig",
        "conjugate_gradient",
        "data_consistency_prox",
        "rls_reconstruct",
        "tv_reconstruct",
    ),
    "diffusion": (
        "NoiseSchedule",
        "TimestepMap",
        "cosine_schedule",
        "default_linear_schedule",
        "forward_sample",
        "linear_schedule",
        "respace",
        "reverse_step",
    ),
    "denoiser": (
        "ConditionInput",
        "ConditionSource",
        "Denoiser",
        "GmmPrior",
        "conditional_gmm_denoiser",
        "denoise",
        "gmm_denoiser",
        "gmm_posterior_mean",
        "guided_epsilon",
        "load_gmm_prior",
        "save_gmm_prior",
    ),
    "sampler": (
        "ChainTrace",
        "SampleSet",
        "SamplerConfig",
        "build_condition",
        "chain_seeds",
        "draw_samples",
        "sample_average",
        "sample_posterior",
        "sample_posterior_ct",
        "uncertainty_map",
    ),
    "evaluation": (
        "PhantomKind",
        "PhantomSpec",
        "gaussian_posterior_oracle",
        "make_phantom",
        "psnr",
        "ssim",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # Resolved on every access and never stored here, so the package always
    # hands out what the submodule holds now (a patched function included).
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
