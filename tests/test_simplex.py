from collections import Counter

import numpy as np
import pytest

from qifkit.errors import ParameterError
from qifkit.simplex import project_to_simplex, projected_ascent, simplex_grid

from conftest import blocks_scored, reference_ascent, rungs_past_rise


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
    # a grid numpy cannot index: 10**20 used to fail with a TypeError from an
    # object array; at dim 2, two entries per row put this one past the limit
    with pytest.raises(ParameterError, match=r"^grid_resolution 10{20} gives a 3-secret grid"):
        simplex_grid(3, 10**20)
    with pytest.raises(ParameterError, match="more than an array can index"):
        simplex_grid(2, np.iinfo(np.intp).max // 2)


@pytest.mark.parametrize("dim, resolution", [(1, 5), (2, 200), (3, 20), (3, 60)])
def test_simplex_grid_is_built_once_and_read_only(dim, resolution):
    grid = simplex_grid(dim, resolution)
    assert simplex_grid(dim, resolution) is grid
    assert np.array_equal(grid, simplex_grid.__wrapped__(dim, resolution))
    assert np.array_equal(grid, recursive_grid(dim, resolution))
    with pytest.raises(ValueError):
        grid[0, 0] = 0.5
    with pytest.raises(ValueError):
        grid *= 2.0


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
    assert all(len(c) in (1, 3, 6, 12, 24) for c in calls)  # starts, stencils or step blocks


def rugged(P):
    """A test objective of a stack: a kinked concave bowl, flat (zero
    gradient) near the face x0 = 0, NaN past x0 = 0.8 and +inf past x2 = 0.95."""
    P = np.atleast_2d(P)
    target = np.linspace(0.1, 1.0, P.shape[1])
    v = -((P - target / target.sum()) ** 2).sum(axis=1) - 0.1 * np.abs(P[:, 1] - 0.3)
    v = np.where(P[:, 0] < 0.05, -1.0, v)
    v = np.where(P[:, 0] > 0.8, np.nan, v)
    return np.where(P[:, 2] > 0.95, np.inf, v)


def recording(fun, rows, calls):
    def scored(P):
        calls.append(len(P))
        rows.extend(map(tuple, P))
        return fun(P)
    return scored


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("max_iterations", [0, 1, 7, 300])
def test_lockstep_ascent_matches_each_start_ascending_alone(dim, max_iterations):
    rng = np.random.default_rng(100 + dim)
    special = np.zeros((3, dim))
    special[0, :3] = [0.9, 0.05, 0.05]   # starts in the NaN region
    special[1, 2] = 1.0                  # starts at +inf
    special[2, :3] = [0.01, 0.5, 0.49]   # starts where the gradient is zero
    starts = np.vstack([rng.dirichlet(np.ones(dim), size=12), special,
                        rng.normal(size=(2, dim))])  # off the simplex
    kwargs = dict(max_iterations=max_iterations)

    ref_rows, ref_calls, trajectories = [], [], []
    expected = []
    for s in starts:
        trajectories.append([])
        expected.append(reference_ascent(recording(rugged, ref_rows, ref_calls), s,
                                         rungs=trajectories[-1], **kwargs))
    rows, calls = [], []
    values, points = projected_ascent(recording(rugged, rows, calls), starts, **kwargs)

    assert values.shape == (len(starts),) and points.shape == starts.shape
    for (value, point), got_value, got_point in zip(expected, values, points):
        assert np.float64(value).tobytes() == got_value.tobytes()
        assert point.tobytes() == got_point.tobytes()
    # every reference row is scored; each extra row is a step past the first rise in its block
    extra = Counter(rows)
    extra.subtract(ref_rows)
    assert min(extra.values()) >= 0
    assert extra.total() == sum(rungs_past_rise(r) for t in trajectories for r in t)
    assert np.isnan(values).any() and np.isposinf(values).any()
    assert max_iterations == 0 or [0] in trajectories  # the zero-gradient start stopped at once
    # one call for the starts, then per iteration one for the stencils and
    # one per block of line-search steps that some ascent still needs
    blocks = [max(blocks_scored(t[i]) for t in trajectories if len(t) > i)
              for i in range(max(map(len, trajectories)))]
    assert calls[0] == len(starts)
    assert len(calls) == 1 + sum(1 + b for b in blocks)
    assert len(calls) < len(ref_calls) or max_iterations == 0


def test_one_start_is_the_one_row_case():
    start = np.array([0.2, 0.3, 0.5])
    calls = []
    value, point = projected_ascent(recording(rugged, [], calls), start)
    expected_value, expected_point = reference_ascent(rugged, start)
    assert isinstance(value, float) and value == expected_value
    assert point.shape == (3,) and np.array_equal(point, expected_point)
    stacked = projected_ascent(rugged, start[None])
    assert np.array_equal(stacked[0], [value]) and np.array_equal(stacked[1], [point])
    assert calls[0] == 1
