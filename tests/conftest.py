import numpy as np
import pytest

from qifkit.alpha import _arimoto
from qifkit.core import Channel, Prior


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
