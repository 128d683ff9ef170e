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


@pytest.fixture()
def count_products(monkeypatch):
    """Counter of the TomoOperator products made from here on, by "forward" and "adjoint"."""
    counts = Counter()

    def counted(name):
        original = getattr(TomoOperator, name)

        def product(self, v):
            counts[name] += 1
            return original(self, v)

        monkeypatch.setattr(TomoOperator, name, product)

    counted("forward")
    counted("adjoint")
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
