import numpy as np
import pytest

from qifkit.errors import ParameterError
from qifkit.simplex import project_to_simplex, projected_ascent, simplex_grid


def recursive_grid(dim, resolution):
    """The grid as nested levels: the first coordinate, then the grid of
    the remaining units scaled back to the whole."""
    if dim == 1:
        return np.ones((1, 1))
    if dim == 2:
        t = np.arange(resolution + 1) / resolution
        return np.stack([t, 1.0 - t], axis=1)
    points = []
    for i in range(resolution + 1):
        rest = recursive_grid(dim - 1, resolution - i) * ((resolution - i) / resolution) \
            if resolution - i > 0 else np.zeros((1, dim - 1))
        first = np.full((rest.shape[0], 1), i / resolution)
        points.append(np.hstack([first, rest]))
    return np.vstack(points)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("resolution", [1, 2, 3, 7, 12])
def test_simplex_grid_matches_the_nested_construction(dim, resolution):
    grid = simplex_grid(dim, resolution)
    reference = recursive_grid(dim, resolution)
    assert np.array_equal(grid, reference)
    assert not np.signbit(grid).any()


def test_simplex_grid_at_search_resolutions():
    for dim, resolution in ((2, 200), (3, 20), (3, 60), (3, 100), (4, 20)):
        assert np.array_equal(simplex_grid(dim, resolution), recursive_grid(dim, resolution))
    with pytest.raises(ParameterError):
        simplex_grid(0, 3)
    with pytest.raises(ParameterError):
        simplex_grid(3, 0)


def projection_of_one(v):
    """The sort-based projection of a single vector, written out."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v + (1.0 - css[rho]) / (rho + 1.0), 0.0)


def test_project_to_simplex_rows_equal_the_single_vector_projection():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 16):
        stack = np.vstack([
            rng.normal(size=(30, dim)),
            rng.dirichlet(np.ones(dim), size=10),         # already on the simplex
            -rng.random((10, dim)),                       # negative rows
            np.round(rng.normal(size=(10, dim)), 1),      # ties
            np.full((2, dim), 0.3),
            np.full((1, dim), 1.0 / dim),
        ])
        projected = project_to_simplex(stack)
        assert projected.shape == stack.shape
        for row, got in zip(stack, projected):
            expected = projection_of_one(row)
            assert np.array_equal(got, expected)
            assert np.array_equal(project_to_simplex(row), expected)


def test_projected_ascent_scores_each_stencil_in_one_call():
    target = np.array([0.2, 0.5, 0.3])
    calls = []

    def fun(points):
        calls.append(np.array(points))
        return -((points - target) ** 2).sum(axis=1)

    value, point = projected_ascent(fun, np.full(3, 1.0 / 3))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(point, target, atol=1e-5)
    assert calls[0].shape == (1, 3)
    stencil = calls[1]
    assert stencil.shape == (6, 3)
    x = calls[0][0]
    for i in range(3):
        step = np.zeros(3)
        step[i] = 1e-6
        assert np.array_equal(stencil[2 * i], projection_of_one(x + step))
        assert np.array_equal(stencil[2 * i + 1], projection_of_one(x - step))
    assert all(len(c) in (1, 6) for c in calls)
