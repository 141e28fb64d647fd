"""Utilities on the probability simplex: grids, projection, projected ascent."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates that are multiples of
    1/resolution, in lexicographic order.  Rows are distributions.  Intended
    for dim <= 3; the grid size grows as resolution**(dim-1).
    """
    if dim < 1 or resolution < 1:
        raise ParameterError("dim and resolution must be positive")
    if dim == 1:
        return np.ones((1, 1))
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


def projected_ascent(fun, start: np.ndarray, max_iterations: int = 300, tolerance: float = 1e-12,
                     fd_step: float = 1e-6) -> tuple[float, np.ndarray]:
    """Maximize ``fun`` over the simplex by finite-difference projected
    gradient ascent with backtracking.  ``fun`` scores an (n, dim) stack:
    each iteration's 2 * dim difference points (up and down interleaved) in
    one call, its line-search points one per call.  A local method: callers
    provide the multi-start.  Evaluations happen only at projected points,
    and the ascent stops at +inf, which nothing beats.
    """
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
            break
        step = 0.25
        for _ in range(40):
            cand = project_to_simplex(x + step * grad / norm)
            fc = float(fun(cand[None])[0])
            if fc > fx + tolerance:
                x, fx = cand, fc
                break
            step *= 0.5
        else:
            break
    return fx, x
