"""Limited-angle CT reconstruction toolkit.

Classical reconstructions (FBP, regularized least squares, TV) over an
exact forward/adjoint projection pair, plus conditional reverse-diffusion
sampling with proximal measurement consistency, sample averaging, and
per-pixel uncertainty maps.  Analytic mixture-model denoisers stand in for
a trained network so the sampling stack can be verified against
closed-form posteriors.
"""

from .core import (
    DataError,
    DimensionError,
    FormatError,
    Image,
    NumericalError,
    ParameterError,
    SeededRng,
    Sinogram,
    read_raster,
    write_pgm,
    write_raster,
)
from .tomography import (
    FilterKind,
    Geometry,
    TomoOperator,
    back_project,
    default_detectors,
    fbp_reconstruct,
    forward_project,
    make_limited_geometry,
    ramp_filter,
)
from .solvers import (
    CgReport,
    DenseOperator,
    ProxConfig,
    conjugate_gradient,
    data_consistency_prox,
    rls_reconstruct,
    tv_reconstruct,
)
from .diffusion import (
    NoiseSchedule,
    TimestepMap,
    cosine_schedule,
    default_linear_schedule,
    forward_sample,
    linear_schedule,
    respace,
    reverse_step,
)
from .denoiser import (
    ConditionInput,
    ConditionSource,
    Denoiser,
    GmmPrior,
    conditional_gmm_denoiser,
    denoise,
    gmm_denoiser,
    gmm_posterior_mean,
    guided_epsilon,
    load_gmm_prior,
    save_gmm_prior,
)
from .sampler import (
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
from .evaluation import (
    PhantomKind,
    PhantomSpec,
    gaussian_posterior_oracle,
    make_phantom,
    psnr,
    ssim,
)

__version__ = "0.1.0"
