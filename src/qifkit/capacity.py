"""Leakage capacities: closed forms and sup-over-prior optimization.

Closed forms: Bayes capacity, LDP leakage, Renyi LDP, and the
multiplicative-inverse capacity family.  Everything else goes through
``sup_over_prior``, which certifies a lower bound on the supremum from a
union of candidate sources (simplex grid, Dirichlet restarts with projected
ascent, and the near-vertex prior family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder, _logsumexp, _logsumexp_into, _sibson
from .core import Channel, Prior, _check_dims, _clean_rows
from .errors import ParameterError
from .fmeans import FMeanSpec, has_multiplicative_inverse
from .simplex import dirichlet_priors, projected_ascent, simplex_grid, vertex_prior

INF = math.inf


@dataclass(frozen=True)
class SimplexOptimizerConfig:
    """Search budget for sup-over-prior optimizations.

    The grid is exhaustive only for alphabets of size <= 3; the vertex
    sequence realizes the near-corner priors pi^n with mass 1 - 1/n on one
    symbol.  Results are deterministic for a fixed seed.
    """

    restarts: int = 12
    grid_resolution: int = 60
    vertex_epsilon_sequence: tuple = (10, 100, 1000, 10000)
    ascent_tolerance: float = 1e-12
    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.ascent_tolerance <= 0:
            raise ParameterError("restarts must be >= 1 and tolerance positive")


def bayes_capacity(channel: Channel) -> float:
    """log of the summed column maxima: the worst-case average-case
    multiplicative leakage over all priors and non-negative gains."""
    return math.log(float(channel.matrix.max(axis=0).sum()))


def _reachable_column_extremes(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of each reachable (not all-zero) column of C."""
    top = C.max(axis=0)
    reachable = top > 0.0
    return top[reachable], C.min(axis=0)[reachable]


def ldp_leakage(channel: Channel) -> float:
    """Worst-case max-case leakage: log max_y (max_x C / min_x C).

    +inf when some reachable column mixes zero and non-zero entries;
    all-zero columns are unreachable and skipped.
    """
    top, bottom = _reachable_column_extremes(channel.matrix)
    if np.any(bottom == 0.0):
        return INF
    return math.log(float((top / bottom).max()))


def renyi_ldp(channel: Channel, alpha) -> float:
    """Renyi local-DP leakage: the largest order-alpha Renyi divergence
    between two rows of the channel.  Defined for alpha in (1, inf]."""
    a = AlphaOrder.of(alpha)
    if a.branch not in ("finite_gt1", "infinity"):
        raise ParameterError(f"renyi_ldp needs alpha > 1, got {a.value}")
    if a.branch == "infinity":
        return ldp_leakage(channel)
    C = channel.matrix
    with np.errstate(divide="ignore"):
        log_C = np.log(C)
    worst = 0.0
    for x in range(C.shape[0]):
        for xp in range(C.shape[0]):
            with np.errstate(invalid="ignore"):
                terms = a.value * log_C[x] + (1.0 - a.value) * log_C[xp]
            # zero numerator kills the term even against a zero denominator
            terms = np.where(C[x] == 0.0, -INF, terms)
            if np.any(np.isposinf(terms)):
                return INF
            worst = max(worst, _logsumexp(terms) / (a.value - 1.0))
    return worst


def _check_ab_orders(alpha, beta: float) -> AlphaOrder:
    a = AlphaOrder.of(alpha)
    if a.branch not in ("finite_gt1", "infinity"):
        raise ParameterError(f"alpha must lie in (1, inf], got {a.value}")
    if not beta >= 1.0:
        raise ParameterError(f"beta must lie in [1, inf], got {beta}")
    return a


def _ab_coefficient(a: AlphaOrder, beta: float) -> float:
    """The factor in front of the log-sum (or the max at beta = inf)."""
    if math.isinf(beta):
        return 1.0 if a.branch == "infinity" else a.value / (a.value - 1.0)
    return (1.0 / beta) if a.branch == "infinity" else a.value / ((a.value - 1.0) * beta)


def alpha_beta_leakage(prior: Prior, channel: Channel, alpha, beta: float) -> float:
    """Two-parameter generalized leakage of a specific prior, closed form.

    Reduces to Arimoto mutual information at beta = 1.  The alpha and beta
    infinities are dedicated max-branches rather than large exponents.
    """
    a = _check_ab_orders(alpha, beta)
    _check_dims(prior, channel)
    p_y = prior.probs @ channel.matrix
    keep = p_y > 0.0
    log_py = np.log(p_y[keep])
    with np.errstate(divide="ignore"):  # zero prior entries and unreachable outputs give -inf
        log_p, log_joint = np.log(prior.probs), np.log(channel.matrix)
    log_joint += log_p[:, None]
    if a.branch == "infinity":
        norm = log_joint.max(axis=0)            # log max_x pi_x C_{x,y}
        z = float(log_p.max())
    else:
        log_joint *= a.value
        norm = _logsumexp_into(log_joint, 0) / a.value
        z = _logsumexp(a.value * log_p) / a.value
    centered = norm[keep] - z
    coeff = _ab_coefficient(a, beta)
    if math.isinf(beta):
        return coeff * float((centered - log_py).max())
    return coeff * _logsumexp((1.0 - beta) * log_py + beta * centered)


def alpha_beta_capacity_objective(channel: Channel, alpha, beta: float):
    """The capacity-side objective for the two-parameter leakage family.

    This is the reduced form in which the output weighting runs over a
    fixed channel row (maximized over rows) while the candidate prior
    reweights the order-alpha row mixture.  Its supremum over priors is the
    maximal (alpha, beta)-leakage; at beta = 1 it coincides with Sibson
    mutual information, at alpha = beta its vertex limit is the Renyi LDP
    leakage, and at alpha = beta = inf the LDP leakage.
    """
    a = _check_ab_orders(alpha, beta)
    coeff = _ab_coefficient(a, beta)
    with np.errstate(divide="ignore"):
        log_C = np.log(channel.matrix)

    def objective(weights: np.ndarray) -> float:
        w = np.asarray(weights, dtype=float)
        on = w > 0.0
        if a.branch == "infinity":
            mix = log_C[on].max(axis=0)
        else:
            mix = _logsumexp_into(np.log(w[on])[:, None] + a.value * log_C[on], 0) / a.value
        # outputs no weighted row reaches drop out of every row's sum
        cols = np.isfinite(mix)
        mix, rows = mix[cols], log_C[:, cols]
        if math.isinf(beta):
            return coeff * float((mix - rows).max())
        if beta == 1.0:
            return coeff * _logsumexp(mix)
        return coeff * float(_logsumexp_into((1.0 - beta) * rows + beta * mix, 1).max())

    return objective


class _Stacked:
    """An objective that scores an (n, dim) stack of priors in one call."""

    def __init__(self, scores) -> None:
        self.scores = scores


def sup_over_prior(objective, dim: int, config: SimplexOptimizerConfig | None = None):
    """Best objective value over the simplex from a union of candidate
    sources, with the witnessing prior and search diagnostics.

    The value is a certified lower bound on the supremum; global optimality
    is not claimed unless a closed form exists.  NaN evaluations are skipped;
    every objective call, the ascent's included, is counted.  ``objective``
    maps one prior to a number and sees the candidates one by one in order.
    """
    cfg = config or SimplexOptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    evaluations = nan_count = 0
    scores = objective.scores if isinstance(objective, _Stacked) else (
        lambda points: np.array([float(objective(p)) for p in points]))

    def counted(points: np.ndarray) -> np.ndarray:
        nonlocal evaluations, nan_count
        values = scores(points)
        evaluations += len(points)
        nan_count += int(np.isnan(values).sum())
        return values

    levels = [int(n) for n in cfg.vertex_epsilon_sequence] if dim >= 2 else []
    candidates = [np.full((1, dim), 1.0 / dim)]
    if dim <= 3:
        candidates.append(simplex_grid(dim, cfg.grid_resolution))
    candidates += [[vertex_prior(dim, corner, n) for corner in range(dim)] for n in levels]
    points = np.vstack(candidates)
    values = np.fmax(counted(points), -INF)  # NaN candidates read as -inf
    best = int(np.argmax(values))
    best_val, best_point = float(values[best]), points[best]
    vertices = values[len(points) - dim * len(levels):].reshape(-1, dim)
    vertex_trend = {n: float(v) for n, v in zip(levels, vertices.max(axis=1))}
    for s in [best_point, *dirichlet_priors(rng, dim, cfg.restarts)]:
        val, point = projected_ascent(counted, s, max_iterations=cfg.max_iterations,
                                      tolerance=cfg.ascent_tolerance)
        if val > best_val:
            best_val, best_point = val, point
    diagnostics = {
        "evaluations": evaluations,
        "nan_evaluations": nan_count,
        "vertex_trend": vertex_trend,
        "restarts": cfg.restarts,
        "seed": cfg.seed,
    }
    return best_val, Prior(best_point), diagnostics


def maximal_alpha_leakage(
    channel: Channel, alpha, config: SimplexOptimizerConfig | None = None
):
    """Maximal order-alpha leakage: sup over priors of the alpha-leakage.

    Arimoto mutual information at a prior P equals Sibson mutual
    information at the tilted prior P^alpha / sum P^alpha, so the two share
    this supremum; Sibson, which needs no hyper, is the one searched, on
    whole stacks of priors that pass the same checks as ``Prior``.
    """
    a, C = AlphaOrder.of(alpha), channel.matrix
    stacked = _Stacked(lambda P: _sibson(_clean_rows(P, "prior", rows=True), C, a))
    return sup_over_prior(stacked, channel.n_inputs, config)


def maximal_alpha_beta_leakage(
    channel: Channel, alpha, beta: float, config: SimplexOptimizerConfig | None = None
):
    """Maximal (alpha, beta)-leakage via the reduced capacity objective."""
    objective = alpha_beta_capacity_objective(channel, alpha, beta)
    return sup_over_prior(objective, channel.n_inputs, config)


def multiplicative_f_capacity(channel: Channel, f: FMeanSpec) -> float:
    """Capacity over priors and gains when both means equal f and the
    inverse of f is multiplicative: log f^-1(sum_y max_x C[x, y])."""
    if not has_multiplicative_inverse(f):
        raise ParameterError(f"{f.name} does not have a multiplicative inverse")
    total = float(channel.matrix.max(axis=0).sum())
    return float(np.log(f.inverse(total)))


def max_case_capacity_bound(channel: Channel, f: FMeanSpec) -> float:
    """Upper bound on the max-case capacity for a multiplicative f-inverse.

    Increasing inverse: log max_y f^-1(max_x C / min_x C); decreasing
    inverse: log max_y f^-1(min_x C / max_x C).  The true capacity may be
    below this value.
    """
    if not has_multiplicative_inverse(f):
        raise ParameterError(f"{f.name} does not have a multiplicative inverse")
    top, bottom = _reachable_column_extremes(channel.matrix)
    with np.errstate(divide="ignore", over="ignore"):
        ratios = top / bottom if f.increasing else bottom / top
        return float(np.log(f.inverse(ratios)).max())
