"""Utilities on the probability simplex: grids, projection, projected ascent."""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError

_FD_STEP = 1e-6  # the central-difference step of projected_ascent
_LADDER_BLOCKS = (0, 1, 4, 16, 40)  # its line search: rungs [0, 1), [1, 4), ... one call each


@functools.lru_cache(maxsize=8)
def simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates that are multiples of
    1/resolution, in lexicographic order, read-only and built once while among
    the last 8 used.  Rows are distributions.  Intended for dim <= 3; the grid
    size grows as resolution**(dim-1)."""
    if dim < 1 or resolution < 1:
        raise ParameterError("dim and resolution must be positive")
    if dim == 1:
        return np.broadcast_to(1.0, (1, 1))  # a read-only [[1.0]]
    # stars and bars: m[:, l] units are left before level l takes its share
    m = np.array([[resolution]])
    for _ in range(dim - 1):
        reps = m[:, -1] + 1
        m = np.repeat(m, reps, axis=0)
        take = np.arange(len(m)) - np.repeat(np.cumsum(reps) - reps, reps)
        m = np.hstack([m, m[:, -1:] - take[:, None]])
    # level l is take / left (the last also 1 - that), and the levels after
    # it scale by rest / left, innermost first; no units left reads as zero
    left, rest = m[:, :-1], m[:, 1:]
    live = left > 0
    frac = np.divide(left - rest, left, out=np.zeros(rest.shape), where=live)
    points = np.hstack([frac, np.where(live[:, -1:], 1.0 - frac[:, -1:], 0.0)])
    scale = np.divide(rest, left, out=np.zeros(rest.shape), where=live)
    for level in reversed(range(dim - 2)):
        points[:, level + 1:] *= scale[:, level:level + 1]
    points.flags.writeable = False
    return points


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector, or of each row of a stack, onto
    the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    lams = (1.0 - np.cumsum(u, axis=-1)) / np.arange(1, v.shape[-1] + 1)
    # the shift is the one at the last rank where it keeps u positive
    rho = v.shape[-1] - 1 - np.argmax((u + lams > 0)[..., ::-1], axis=-1)
    return np.maximum(v + np.take_along_axis(lams, rho[..., None], axis=-1), 0.0)


def projected_ascent(fun, start: np.ndarray, max_iterations: int = 300,
                     tolerance: float = 1e-12) -> tuple:
    """Maximize ``fun`` over the simplex by finite-difference projected
    gradient ascent with backtracking, from a start (dim,) or, in lockstep,
    from each row of a stack (n, dim).  ``fun`` scores an (m, dim) stack: the
    projected starts in one call, then per iteration the 2 * dim difference
    points (up and down interleaved) of every running ascent in one call, and
    their line-search steps 0.25 * 2^-k (k < 40), projected in one call and
    scored in four (k = 0, 1-3, 4-15, 16-39) over the ascents still searching:
    each takes the first rise of its earliest block with one, as alone, and
    is also scored past it in that block.  Callers provide the multi-start.
    Points are scored only once projected; an ascent stops at +inf, which
    nothing beats.  Returns (value, point), or both as arrays for a stack."""
    start = np.asarray(start, dtype=float)
    X = project_to_simplex(start.reshape(-1, start.shape[-1]))
    fX = np.array(fun(X), dtype=float)
    steps, ladder = _FD_STEP * np.eye(X.shape[1]), 0.25 * 0.5 ** np.arange(40.0)
    running = np.arange(len(X))
    for _ in range(max_iterations):
        if not (running := running[fX[running] != np.inf]).size:
            break
        x = X[running]
        stencil = np.stack([x[:, None] + steps, x[:, None] - steps], axis=2).reshape(-1, x.shape[1])
        values = np.asarray(fun(project_to_simplex(stencil)), dtype=float).reshape(len(x), -1)
        grad = (values[:, 0::2] - values[:, 1::2]) / (2.0 * _FD_STEP)
        norm = np.sqrt((grad[:, None] @ grad[:, :, None])[:, 0, 0])  # np.linalg.norm's dot, per row
        live = (norm != 0.0) & np.isfinite(norm)
        cands = project_to_simplex(x[live, None] + ladder[:, None] * grad[live, None]
                                   / norm[live, None, None])
        running = running[live]
        floor, searching = fX[running] + tolerance, np.arange(len(running))
        for lo, hi in zip(_LADDER_BLOCKS, _LADDER_BLOCKS[1:]):
            if not searching.size:
                break
            fc = np.asarray(fun(cands[searching, lo:hi].reshape(-1, X.shape[1])),
                            dtype=float).reshape(len(searching), -1)
            rose = (up := fc > floor[searching][:, None]).any(axis=1)
            won, k = searching[rose], up.argmax(axis=1)[rose]  # k: each one's first rising rung
            X[at := running[won]], fX[at] = cands[won, lo + k], fc[rose, k]
            searching = searching[~rose]
        running = np.delete(running, searching)  # a ladder with no rise ends its ascent
    return (float(fX[0]), X[0]) if start.ndim == 1 else (fX, X)
