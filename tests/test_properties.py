"""Property tests over random small geometries: adjointness and the norm estimate."""

import math

import numpy as np
import pytest

from conftest import dense_tomo_matrix
from lactdiff.solvers import operator_norm_sq
from lactdiff.tomography import Geometry, TomoOperator

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def geometries(draw):
    """Non-square images, widened or narrowed detector spacing, any increasing angles."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    pixel = draw(st.floats(0.5, 2.0))
    spacing = draw(st.floats(0.5, 2.5))
    # the fewest bins whose span covers the diagonal, plus a few
    cover = math.ceil(math.hypot(rows * pixel, cols * pixel) / spacing)
    detectors = cover + draw(st.integers(0, 3))
    angles = draw(
        st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=6, unique=True)
    )
    return Geometry(rows, cols, detectors, np.sort(angles), pixel, spacing)


@hypothesis.given(geometries(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(geom, seed):
    op = TomoOperator(geom)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.shape[1])
    y = rng.standard_normal(op.shape[0])
    ax = op.forward(x)
    lhs, rhs = float(ax @ y), float(x @ op.adjoint(y))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)


@hypothesis.given(geometries())
# close top pairs, found by this test: the estimate rests on the lower
# eigenvalue for one step (first case) or two steps (second) after a small beta
@hypothesis.example(Geometry(1, 7, 4, [0.0], 0.5, 0.99999))
@hypothesis.example(Geometry(1, 7, 4, [0.0, 54.0], 0.5, 0.99999))
def test_norm_estimate_matches_dense_eigenvalue(geom):
    mat = dense_tomo_matrix(geom)
    expected = np.linalg.eigvalsh(mat.T @ mat)[-1]
    assert operator_norm_sq(TomoOperator(geom)) == pytest.approx(expected, rel=1e-12)
