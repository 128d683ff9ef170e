import math
from collections import Counter

import numpy as np
import pytest

from lactdiff.core import ParameterError
from lactdiff.tomography import Geometry, TomoOperator

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test dependency
    pass
else:
    # derandomized: every run of the suite draws the same examples
    settings.register_profile("lactdiff", derandomize=True, deadline=None, database=None)
    settings.load_profile("lactdiff")


def dense_tomo_matrix(geom: Geometry) -> np.ndarray:
    """Materialize the projection operator by projecting unit pixels."""
    op = TomoOperator(geom)
    m, n = op.shape
    mat = np.zeros((m, n))
    basis = np.zeros(n)
    for j in range(n):
        basis[j] = 1.0
        mat[:, j] = op.forward(basis)
        basis[j] = 0.0
    return mat


def plan_matrix(plan):
    """A stencil plan as scipy's csr_matrix on the same arrays, so that scipy's
    own products and conversions can serve as the oracle."""
    import scipy.sparse as sp

    return sp.csr_matrix((plan.data, plan.indices, plan.indptr), shape=plan.shape)


@pytest.fixture()
def count_products(monkeypatch):
    """Counter of the TomoOperator products made from here on, by "forward",
    "adjoint" and "normal"."""
    counts = Counter()

    def counted(name):
        original = getattr(TomoOperator, name)

        def product(self, v):
            counts[name] += 1
            return original(self, v)

        monkeypatch.setattr(TomoOperator, name, product)

    counted("forward")
    counted("adjoint")
    counted("normal")
    return counts


class TableDenoiser:
    """Piecewise-linear elementwise response loaded from a file.

    Each line of the file holds an (input, output) knot pair; the prediction
    applies linear interpolation through the sorted knots to every pixel,
    independent of t and the condition.  Deterministic stand-in for a
    trained model in the sampler and denoiser tests.
    """

    def __init__(self, knots_x, knots_y):
        x = np.asarray(knots_x, dtype=np.float64).ravel()
        y = np.asarray(knots_y, dtype=np.float64).ravel()
        if x.size != y.size or x.size < 2:
            raise ParameterError("need at least two (x, y) knots")
        if np.any(np.diff(x) <= 0.0):
            raise ParameterError("knot inputs must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ParameterError("knots must be finite")
        self.knots_x = x
        self.knots_y = y

    @classmethod
    def from_file(cls, path) -> "TableDenoiser":
        pairs = []
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                a, b = line.split()
                pairs.append((float(a), float(b)))
        if len(pairs) < 2:
            raise ParameterError(f"no usable knots in {path}")
        arr = np.asarray(pairs)
        return cls(arr[:, 0], arr[:, 1])

    def denoise(self, x: np.ndarray, t: int, cond):
        return np.interp(x, self.knots_x, self.knots_y)


def affine_chain_law(T, K, terms):
    """Exact per-pixel mean and scalar variance at the end of a chain whose
    eps is affine in the state.

    The chain walks the default linear schedule of length T (betas linear
    from 0.1/T to 20/T) shortened to K steps on the lattice
    round(linspace(1, T, K)), or index T alone for K = 1, from an N(0, I)
    start, with reverse variance beta_tilde and no noise on the last step.
    terms lists (weight, mean, s2): eps is the weighted sum of the exact eps
    of each isotropic Gaussian prior N(mean, s2 I), so [(1, mu, s2)] is a
    plain prior and [(lam, mu_c, s2_c), (1 - lam, mu_u, s2_u)] a guided
    pair; mean is a scalar or a per-pixel array.  Every step is then affine
    with one scalar gain, so the law stays N(mean, variance * I).  Written
    from the formulas alone, independently of lactdiff's diffusion and
    sampler code.
    """
    scale = 1000.0 / T
    alpha_bar = np.cumprod(1.0 - np.linspace(1e-4 * scale, 0.02 * scale, T))
    lattice = np.round(np.linspace(1.0 if K > 1 else float(T), float(T), K)).astype(int)
    ab = alpha_bar[lattice - 1]
    mean, var = 0.0, 1.0
    for k in range(K, 0, -1):
        a, a_prev = ab[k - 1], (ab[k - 2] if k > 1 else 1.0)
        alpha = a / a_prev
        # eps(x) = slope * x - offset, with N(m, s2)'s eps
        # sqrt(1 - a) (x - sqrt(a) m) / (a s2 + 1 - a)
        slope = sum(w * math.sqrt(1.0 - a) / (a * s2 + 1.0 - a) for w, _, s2 in terms)
        offset = sum(w * math.sqrt((1.0 - a) * a) * m / (a * s2 + 1.0 - a) for w, m, s2 in terms)
        # x' = (x - (1 - alpha) / sqrt(1 - a) * eps(x)) / sqrt(alpha) + noise
        c = (1.0 - alpha) / math.sqrt(1.0 - a)
        gain = (1.0 - c * slope) / math.sqrt(alpha)
        mean = gain * mean + c * offset / math.sqrt(alpha)
        beta_tilde = (1.0 - alpha) * (1.0 - a_prev) / (1.0 - a) if k > 1 else 0.0
        var = gain**2 * var + beta_tilde
    return mean, var
