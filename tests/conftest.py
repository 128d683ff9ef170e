from collections import Counter

import numpy as np
import pytest

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
