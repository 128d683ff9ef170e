import math
from collections import Counter

import numpy as np
import pytest

from lactdiff.core import ParameterError
from lactdiff import tomography
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


class PlanReference:
    """A stencil plan expanded with scipy, to serve as the products' oracle.

    matrix is the whole (V*D, R*C) csr_matrix: each stored row where the
    plan's pieces put it, and each mirrored row as its partner's row
    reversed onto the transposed image, entries in walk order.  forward is
    matrix @ x.  adjoint is the plan's documented accumulation: the stored
    rows' A^T y, in row order, plus the transpose of the partner rows' share
    of the mirrored rows, also in stored row order.
    """

    def __init__(self, plan):
        import scipy.sparse as sp

        m, n = plan.shape
        self.side = math.isqrt(n)
        self.stored = sp.csr_matrix(
            (plan.data, plan.indices, plan.indptr), shape=(plan.indptr.size - 1, n)
        )
        none = np.zeros(0, dtype=int)
        self.rows = np.concatenate([np.arange(y, y + end - start)
                                    for start, end, y, _ in plan.pieces])
        self.partners = np.concatenate([np.arange(start, end)
                                        for start, end, _, mirror in plan.pieces if mirror] + [none])
        self.mirrored = np.concatenate([mirror - 1 - np.arange(y, y + end - start)
                                        for start, end, y, mirror in plan.pieces if mirror] + [none])
        # the stored row that each row of A reads
        source = np.full(m, -1)
        source[self.rows] = np.arange(self.rows.size)
        source[self.mirrored] = self.partners
        assert np.all(source >= 0)
        counts = np.diff(plan.indptr)[source]
        entries = np.concatenate(
            [np.arange(plan.indptr[r], plan.indptr[r + 1]) for r in source] + [none]
        )
        indices = plan.indices[entries]
        transposed = np.repeat(np.isin(np.arange(m), self.mirrored), counts)
        row, col = np.divmod(indices[transposed], self.side)
        indices[transposed] = col * self.side + row
        self.matrix = sp.csr_matrix(
            (plan.data[entries], indices, np.concatenate([[0], np.cumsum(counts)])),
            shape=(m, n),
        )

    def forward(self, x):
        return self.matrix @ x

    def adjoint(self, y):
        image = self.stored.T @ y[self.rows]
        if self.partners.size:
            image_t = self.stored[self.partners].T @ y[self.mirrored]
            square = image.reshape(self.side, self.side)
            square += image_t.reshape(self.side, self.side).T
        return image


def walked_matrix(geom: Geometry):
    """The (V*D, R*C) operator as a csr_matrix with every view walked on its
    own, mirror runs included."""
    import scipy.sparse as sp

    work = tomography._stencil_work(geom)
    counts, indices, data = zip(*(
        [array.copy() for array in tomography._view_stencil(geom, theta, work)]
        for theta in geom.angles_deg
    ))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    shape = (geom.n_views * geom.detectors, geom.image_rows * geom.image_cols)
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=shape)


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
