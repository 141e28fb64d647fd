import numpy as np
import pytest

from qifkit.alpha import _arimoto
from qifkit.core import Channel, Prior
from qifkit.simplex import project_to_simplex


def bsc(p: float) -> Channel:
    """Binary symmetric channel with crossover probability p."""
    return Channel([[1.0 - p, p], [p, 1.0 - p]])


def random_prior(rng: np.random.Generator, dim: int) -> Prior:
    return Prior(rng.dirichlet(np.ones(dim)))


def random_channel(rng: np.random.Generator, n_in: int, n_out: int) -> Channel:
    return Channel(rng.dirichlet(np.ones(n_out), size=n_in))


def joint_arimoto(joints: np.ndarray, order) -> tuple:
    """H_alpha(U) and H_alpha(U | Y) of joints p(u, y) (n, |U|, |Y|) through
    the Arimoto kernel, each joint read as a hyper over U."""
    rows = np.swapaxes(joints, 1, 2)
    p_y = rows.sum(axis=2)
    inners = np.divide(rows, p_y[:, :, None], out=np.zeros_like(rows), where=p_y[:, :, None] > 0)
    return _arimoto(p_y, inners, order)


def reference_ascent(fun, start, max_iterations=300, tolerance=1e-12, fd_step=1e-6, rungs=None):
    """One start's projected ascent as a loop of its own: one call per
    stencil and per line-search step.  ``rungs``, if given, collects the
    steps each iteration scored (0 when the gradient stopped it)."""
    rungs = [] if rungs is None else rungs
    x = project_to_simplex(np.asarray(start, dtype=float))
    fx = float(fun(x[None])[0])
    steps = fd_step * np.eye(x.size)
    for _ in range(max_iterations):
        if fx == np.inf:
            break
        stencil = np.stack([x + steps, x - steps], axis=1).reshape(-1, x.size)
        values = np.asarray(fun(project_to_simplex(stencil)), dtype=float)
        grad = (values[0::2] - values[1::2]) / (2.0 * fd_step)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0 or not np.isfinite(norm):
            rungs.append(0)
            break
        step = 0.25
        for k in range(40):
            cand = project_to_simplex(x + step * grad / norm)
            fc = float(fun(cand[None])[0])
            if fc > fx + tolerance:
                x, fx = cand, fc
                break
            step *= 0.5
        else:
            rungs.append(40)
            break
        rungs.append(k + 1)
    return fx, x


LADDER_BLOCKS = ((0, 1), (1, 4), (4, 16), (16, 40))  # the line-search steps scored per call


def blocks_scored(rungs: int) -> int:
    """The line-search calls a lockstep ascent makes for an iteration in
    which the reference ascent scored ``rungs`` steps (0: it stopped)."""
    return sum(lo < rungs for lo, _ in LADDER_BLOCKS)


def rungs_past_rise(rungs: int) -> int:
    """The steps the lockstep ascent also scores after the first rise, to
    the end of its block; 0 when no step rose (40) or none was scored (0)."""
    return next(hi for _, hi in LADDER_BLOCKS if rungs <= hi) - rungs if rungs else 0


def sequential_ascent(fun, starts, **kwargs):
    """Stand-in for the lockstep ``projected_ascent``: each start ascends alone, in order."""
    results = [reference_ascent(fun, s, **kwargs) for s in starts]
    return np.array([v for v, _ in results]), np.array([x for _, x in results])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
