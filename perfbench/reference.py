"""Independent numpy references for the benchmark's output checks.

Written from the closed forms in plain power sums, without calling qifkit,
so a fast but wrong library result is caught.  All values are in nats.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def renyi_entropy(p: np.ndarray, alpha: float) -> float:
    """Finite alpha other than 1."""
    return math.log((p[p > 0] ** alpha).sum()) / (1.0 - alpha)


def renyi_divergence(mu: np.ndarray, pi: np.ndarray, alpha: float) -> float:
    """Finite alpha other than 1, pi positive wherever mu is."""
    on = mu > 0
    return math.log((mu[on] ** alpha * pi[on] ** (1.0 - alpha)).sum()) / (alpha - 1.0)


def push(p: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outer distribution over reachable outputs and one posterior per row."""
    joint = p[:, None] * C
    p_y = joint.sum(axis=0)
    keep = p_y > 0
    return p_y[keep], (joint[:, keep] / p_y[keep]).T


def _mutual_information(p: np.ndarray, C: np.ndarray) -> float:
    joint = p[:, None] * C
    outer = p[:, None] * joint.sum(axis=0)[None, :]
    on = joint > 0
    return float((joint[on] * np.log(joint[on] / outer[on])).sum())


def arimoto_mi(p: np.ndarray, C: np.ndarray, alpha: float) -> float:
    """H_alpha(X) - H_alpha(X|Y) with Arimoto's conditional entropy."""
    if alpha == 1.0:
        return _mutual_information(p, C)
    joint = p[:, None] * C
    if alpha == INF:
        return math.log(joint.max(axis=0).sum() / p.max())
    column_norms = ((joint**alpha).sum(axis=0)) ** (1.0 / alpha)
    conditional = alpha / (1.0 - alpha) * math.log(column_norms.sum())
    return renyi_entropy(p, alpha) - conditional


def sibson_mi(p: np.ndarray, C: np.ndarray, alpha: float) -> float:
    on = p > 0
    if alpha == 1.0:
        return _mutual_information(p, C)
    if alpha == INF:
        return math.log(C[on].max(axis=0).sum())
    inner = (p[on, None] * C[on] ** alpha).sum(axis=0) ** (1.0 / alpha)
    return alpha / (alpha - 1.0) * math.log(inner.sum())


def alpha_beta_leakage(p: np.ndarray, C: np.ndarray, alpha: float, beta: float) -> float:
    """Two-parameter leakage for finite alpha > 1 and beta >= 1:
    alpha/((alpha-1) beta) log sum_y p(y)^(1-beta) (||J_y||_alpha / ||p||_alpha)^beta."""
    joint = p[:, None] * C
    p_y = joint.sum(axis=0)
    keep = p_y > 0
    ratio = ((joint[:, keep] ** alpha).sum(axis=0)) ** (1.0 / alpha) / (
        (p**alpha).sum() ** (1.0 / alpha)
    )
    total = (p_y[keep] ** (1.0 - beta) * ratio**beta).sum()
    return alpha / ((alpha - 1.0) * beta) * math.log(total)


def simplex_posterior_vulnerability(p: np.ndarray, C: np.ndarray, alpha: float) -> float:
    """Average posterior vulnerability for the simplex gain with f = h = f_alpha,
    finite alpha > 1: (sum_y ||J_y||_alpha)^(alpha/(alpha-1))."""
    joint = p[:, None] * C
    norms = ((joint**alpha).sum(axis=0)) ** (1.0 / alpha)
    return float(norms.sum() ** (alpha / (alpha - 1.0)))


def bayes_capacity(C: np.ndarray) -> float:
    return math.log(C.max(axis=0).sum())


def ldp_leakage(C: np.ndarray) -> float:
    reachable = C.max(axis=0) > 0
    top, bottom = C.max(axis=0)[reachable], C.min(axis=0)[reachable]
    if np.any(bottom == 0):
        return INF
    return math.log((top / bottom).max())


def renyi_ldp(C: np.ndarray, alpha: float) -> float:
    """max over row pairs of D_alpha(C_x || C_x'), for finite alpha > 1 and a
    channel without zero entries."""
    pairwise = (C**alpha) @ (C ** (1.0 - alpha)).T
    return max(0.0, math.log(pairwise.max()) / (alpha - 1.0))


def _rows_to(C: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """max_x D_alpha(C_x || q)."""
    if alpha == 1.0:
        with np.errstate(divide="ignore"):
            terms = np.where(C > 0, C * np.log(C / q), 0.0)
        return float(terms.sum(axis=1).max())
    with np.errstate(divide="ignore", over="ignore"):
        sums = (np.where(C > 0, C**alpha * q ** (1.0 - alpha), 0.0)).sum(axis=1)
        return float((np.log(sums) / (alpha - 1.0)).max())


def _sibson_center(p: np.ndarray, C: np.ndarray, alpha: float) -> np.ndarray:
    q = (p[:, None] * C**alpha).sum(axis=0) ** (1.0 / alpha)
    return q / q.sum()


def renyi_radius_bound(C: np.ndarray, witness: np.ndarray, alpha: float) -> float:
    """Certified upper bound on the order-alpha capacity (Renyi radius):
    max_x D_alpha(C_x || q) holds for every q.  Two choices of q are tried
    and the smaller bound kept: the Sibson center of the witness, and the
    Sibson center of the alpha-tilted witness p^alpha / sum p^alpha (which
    turns an Arimoto maximizer into a Sibson one).  At alpha = inf the
    bound is the closed form log sum_y max_x C."""
    if alpha == INF:
        return bayes_capacity(C)
    p = np.clip(np.asarray(witness, dtype=float), 0.0, None)
    p = p / p.sum()
    tilted = p**alpha / (p**alpha).sum()
    return min(
        _rows_to(C, _sibson_center(p, C, alpha), alpha),
        _rows_to(C, _sibson_center(tilted, C, alpha), alpha),
    )
