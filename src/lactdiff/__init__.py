"""Limited-angle CT reconstruction toolkit.

Classical reconstructions (FBP, regularized least squares, TV) over an
exact forward/adjoint projection pair, plus conditional reverse-diffusion
sampling with proximal measurement consistency, sample averaging, and
per-pixel uncertainty maps.  Analytic mixture-model denoisers stand in for
a trained network so the sampling stack can be verified against
closed-form posteriors.

The package holds only __version__: callers import the submodules they
use (`from lactdiff import tomography`), so `import lactdiff` loads no
submodule and a command loads only the modules it runs.
"""

__version__ = "0.1.0"
