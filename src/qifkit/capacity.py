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

from .alpha import AlphaOrder, arimoto_mi, sibson_mi, _logsumexp
from .core import Channel, Prior, push
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


def ldp_leakage(channel: Channel) -> float:
    """Worst-case max-case leakage: log max_y (max_x C / min_x C).

    +inf when some reachable column mixes zero and non-zero entries;
    all-zero columns are unreachable and skipped.
    """
    C = channel.matrix
    best = 0.0
    for y in range(C.shape[1]):
        col = C[:, y]
        top = float(col.max())
        if top == 0.0:
            continue
        bottom = float(col.min())
        if bottom == 0.0:
            return INF
        best = max(best, top / bottom)
    return math.log(best)


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


def alpha_beta_leakage(prior: Prior, channel: Channel, alpha, beta: float) -> float:
    """Two-parameter generalized leakage of a specific prior, closed form.

    Reduces to Arimoto mutual information at beta = 1.  The alpha and beta
    infinities are dedicated max-branches rather than large exponents.
    """
    a = _check_ab_orders(alpha, beta)
    hyper = push(prior, channel)
    sup = prior.support
    p = prior.probs[sup]
    C = channel.matrix[sup][:, list(hyper.retained_outputs)]
    log_py = np.log(hyper.outer)
    with np.errstate(divide="ignore"):
        log_joint = np.log(p)[:, None] + np.log(C)
    if a.branch == "infinity":
        norm = log_joint.max(axis=0)            # log max_x pi_x C_{x,y}
        z = float(np.log(p.max()))
    else:
        norm = _logsumexp(a.value * log_joint, axis=0) / a.value
        z = _logsumexp(a.value * np.log(p)) / a.value
    centered = norm - z
    if math.isinf(beta):
        coeff = 1.0 if a.branch == "infinity" else a.value / (a.value - 1.0)
        return coeff * float((centered - log_py).max())
    terms = (1.0 - beta) * log_py + beta * centered
    coeff = (1.0 / beta) if a.branch == "infinity" else a.value / ((a.value - 1.0) * beta)
    return coeff * _logsumexp(terms)


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
    C = channel.matrix
    with np.errstate(divide="ignore"):
        log_C = np.log(C)
    reachable = C.max(axis=0) > 0.0

    def objective(weights: np.ndarray) -> float:
        w = np.asarray(weights, dtype=float)
        on = w > 0.0
        if a.branch == "infinity":
            mix = log_C[on].max(axis=0)
        else:
            mix = _logsumexp(np.log(w[on])[:, None] + a.value * log_C[on], axis=0) / a.value
        best = -INF
        for xp in range(C.shape[0]):
            cols = reachable & ~(np.isneginf(mix))
            if math.isinf(beta):
                vals = mix[cols] - log_C[xp, cols]
                coeff = 1.0 if a.branch == "infinity" else a.value / (a.value - 1.0)
                best = max(best, coeff * float(vals.max()))
                continue
            if beta == 1.0:
                terms = mix[cols]
            else:
                terms = (1.0 - beta) * log_C[xp, cols] + beta * mix[cols]
            coeff = (1.0 / beta) if a.branch == "infinity" else a.value / (
                (a.value - 1.0) * beta
            )
            best = max(best, coeff * _logsumexp(terms))
        return best

    return objective


def sup_over_prior(objective, dim: int, config: SimplexOptimizerConfig | None = None):
    """Best objective value over the simplex from a union of candidate
    sources, with the witnessing prior and search diagnostics.

    The value is a certified lower bound on the supremum; global optimality
    is not claimed unless a closed form exists.  NaN evaluations are skipped;
    every objective call, the ascent's included, is counted.
    """
    cfg = config or SimplexOptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    evaluations = 0
    nan_count = 0
    best_val = -INF
    best_point = np.full(dim, 1.0 / dim)

    def counted(point: np.ndarray) -> float:
        nonlocal evaluations, nan_count
        evaluations += 1
        val = float(objective(point))
        if math.isnan(val):
            nan_count += 1
        return val

    def consider(point: np.ndarray) -> float:
        nonlocal best_val, best_point
        val = counted(point)
        if math.isnan(val):
            return -INF
        if val > best_val:
            best_val = val
            best_point = np.array(point, dtype=float)
        return val

    consider(np.full(dim, 1.0 / dim))
    if dim <= 3:
        for row in simplex_grid(dim, cfg.grid_resolution):
            consider(row)
    vertex_trend: dict[int, float] = {}
    if dim >= 2:
        for n in cfg.vertex_epsilon_sequence:
            level = max(
                consider(vertex_prior(dim, corner, n)) for corner in range(dim)
            )
            vertex_trend[int(n)] = level
    starts = [np.array(best_point)]
    starts.extend(dirichlet_priors(rng, dim, cfg.restarts))
    for s in starts:
        val, point = projected_ascent(
            counted,
            s,
            max_iterations=cfg.max_iterations,
            tolerance=cfg.ascent_tolerance,
        )
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

    Arimoto and Sibson mutual information share this supremum, so both are
    searched and the better certificate wins.
    """
    a = AlphaOrder.of(alpha)
    dim = channel.n_inputs

    def via_arimoto(p: np.ndarray) -> float:
        return arimoto_mi(push(Prior(p), channel), a)

    def via_sibson(p: np.ndarray) -> float:
        return sibson_mi(Prior(p), channel, a)

    val_a, wit_a, diag_a = sup_over_prior(via_arimoto, dim, config)
    val_s, wit_s, diag_s = sup_over_prior(via_sibson, dim, config)
    if val_s > val_a:
        return val_s, wit_s, {"route": "sibson", **diag_s}
    return val_a, wit_a, {"route": "arimoto", **diag_a}


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
    C = channel.matrix
    best = -INF
    for y in range(C.shape[1]):
        col = C[:, y]
        top, bottom = float(col.max()), float(col.min())
        if top == 0.0:
            continue
        if f.increasing:
            ratio = INF if bottom == 0.0 else top / bottom
        else:
            ratio = bottom / top
        with np.errstate(divide="ignore", over="ignore"):
            best = max(best, float(np.log(f.inverse(ratio))))
    return best
