"""Leakage capacities: closed forms and sup-over-prior optimization.

Closed forms: Bayes capacity, LDP leakage, Renyi LDP, and the
multiplicative-inverse capacity family.  The maximal leakages search whole
stacks of priors and certify a lower bound on the supremum from a union of
candidate sources (simplex grid, Dirichlet restarts with projected ascent,
and the near-vertex prior family); ``sup_over_prior`` runs the same search
for a user objective scored one prior at a time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .alpha import INFINITY, AlphaOrder, _ab_orders, _ab_scores, _logsumexp_into, _sibson
from .core import Channel, Prior, _check_dims, _clean_rows
from .errors import ParameterError
from .fmeans import FMeanSpec, has_multiplicative_inverse
from .simplex import projected_ascent, simplex_grid

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
        if not np.iterable(self.vertex_epsilon_sequence):
            raise ParameterError("vertex_epsilon_sequence must be a sequence of integers, "
                                 f"got {self.vertex_epsilon_sequence!r}")
        object.__setattr__(self, "vertex_epsilon_sequence", tuple(self.vertex_epsilon_sequence))
        if not isinstance(self.ascent_tolerance, numbers.Real):
            raise ParameterError("ascent_tolerance must be a real number, "
                                 f"got {self.ascent_tolerance!r}")
        counts = [(name, getattr(self, name))
                  for name in ("restarts", "grid_resolution", "max_iterations", "seed")]
        counts += [("vertex_epsilon_sequence", n) for n in self.vertex_epsilon_sequence]
        for name, value in counts:
            if not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must hold integers, got {value!r}")
        if self.restarts < 1 or not self.ascent_tolerance > 0:  # NaN too: no step would pass
            raise ParameterError("restarts must be >= 1 and tolerance positive")
        if self.grid_resolution < 1 or self.max_iterations < 0 or self.seed < 0:
            raise ParameterError("grid_resolution must be >= 1, max_iterations and seed >= 0")
        if any(n < 2 for n in self.vertex_epsilon_sequence):
            raise ParameterError("vertex prior needs n >= 2")


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
    _ab_orders(a, a.value)  # checked as the alpha = beta member of the (alpha, beta) family
    if a.branch == INFINITY:
        return ldp_leakage(channel)
    C, worst = channel.matrix, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_C = np.log(C)
        for x in range(C.shape[0]):
            for xp in range(C.shape[0]):
                terms = a.value * log_C[x] + (1.0 - a.value) * log_C[xp]
                # zero numerator kills the term even against a zero denominator
                terms = np.where(C[x] == 0.0, -INF, terms)
                if np.any(np.isposinf(terms)):
                    return INF
                worst = max(worst, float(_logsumexp_into(terms, -1)) / (a.value - 1.0))
    return worst


def alpha_beta_leakage(prior: Prior, channel: Channel, alpha, beta: float) -> float:
    """Two-parameter generalized leakage of a specific prior, closed form.

    Reduces to Arimoto mutual information at beta = 1.  The alpha and beta
    infinities are dedicated max-branches rather than large exponents.  One row scored
    over every output: R = p(y), or 1 where no mass reaches y (M_y = 0, as in the maximal
    objective), w = pi^alpha shifted by log ||pi||_alpha, the prior tilted to order alpha."""
    a, coeff = _ab_orders(alpha, beta)
    _check_dims(prior, channel)
    C, p_y = channel.matrix, prior.probs @ channel.matrix
    with np.errstate(divide="ignore"):  # zero prior entries give -inf
        log_p, terms, log_py = np.log(prior.probs), np.log(C), np.log(np.where(p_y > 0.0, p_y, 1.0))
    terms += log_p[:, None]
    if a.branch == INFINITY:
        return coeff * float(_ab_scores(terms[None], log_py, a, beta, float(log_p.max()))[0])
    terms *= a.value
    z = float(_logsumexp_into(a.value * log_p, -1)) / a.value
    return coeff * float(_ab_scores(terms[None], log_py, a, beta, z)[0])


def _ab_capacity_scores(channel: Channel, alpha, beta: float):
    """The maximal-(alpha, beta) objective of a stack of priors (n, |X|): the
    best score over R the channel rows, with w the prior (at alpha = inf,
    its support).  At beta = 1, where R does not count, it passes zeros."""
    (a, coeff), C = _ab_orders(alpha, beta), channel.matrix
    with np.errstate(divide="ignore"):
        log_C = np.log(C)
    scaled = log_C if a.branch == INFINITY else a.value * log_C
    rows = np.zeros((1, 1, C.shape[1])) if beta == 1.0 else log_C[:, None, :]

    def scores(P: np.ndarray) -> np.ndarray:
        on = P > 0.0
        with np.errstate(divide="ignore"):
            log_w = np.where(on, 0.0, -INF) if a.branch == INFINITY else np.log(P)
        log_R = np.where(on @ (C > 0.0), rows, 0.0)  # outputs the prior reaches
        return coeff * np.maximum.reduce(_ab_scores(log_w[:, :, None] + scaled, log_R, a, beta),
                                         axis=0)

    return scores


def alpha_beta_capacity_objective(channel: Channel, alpha, beta: float):
    """The capacity-side objective for the two-parameter leakage family.

    This is the reduced form in which the output weighting runs over a
    fixed channel row (maximized over rows) while the candidate prior
    reweights the order-alpha row mixture.  Its supremum over priors is the
    maximal (alpha, beta)-leakage; at beta = 1 it coincides with Sibson
    mutual information, at alpha = beta its vertex limit is the Renyi LDP
    leakage, and at alpha = beta = inf the LDP leakage."""
    scores = _ab_capacity_scores(channel, alpha, beta)
    return lambda weights: float(scores(np.asarray(weights, dtype=float)[None])[0])


@functools.lru_cache(maxsize=8)
def _search_tables(dim: int, cfg: SimplexOptimizerConfig) -> tuple:
    """A search's candidates (the uniform prior, the grid, the near-vertex priors: 1 - 1/n on one
    corner), the levels n and the restarts; read-only, built once while among the last 8 used."""
    levels = tuple(int(n) for n in cfg.vertex_epsilon_sequence) if dim >= 2 else ()
    n = np.array(levels, dtype=float)[:, None, None]
    vertices = np.where(np.eye(dim, dtype=bool), 1.0 - 1.0 / n, 1.0 / (n * (dim - 1)))
    grid = simplex_grid(dim, cfg.grid_resolution) if dim <= 3 else np.empty((0, dim))
    if cfg.restarts * dim > np.iinfo(np.intp).max:
        raise ParameterError(f"restarts {cfg.restarts} over {dim} secrets need more entries "
                             "than an array can index")
    points = np.vstack([np.full((1, dim), 1.0 / dim), grid, vertices.reshape(-1, dim)])
    restarts = np.random.default_rng(cfg.seed).dirichlet(np.ones(dim), size=cfg.restarts)
    points.flags.writeable = restarts.flags.writeable = False
    return points, levels, restarts


def _stack_search(scores, dim: int, config: SimplexOptimizerConfig | None = None):
    """:func:`sup_over_prior` for ``scores``, which maps an (n, dim) stack of priors to
    their n values, from the tables built once per ``dim`` and config (:func:`_search_tables`)."""
    cfg = config or SimplexOptimizerConfig()
    evaluations = nan_count = 0

    def counted(points: np.ndarray) -> np.ndarray:
        nonlocal evaluations, nan_count
        values = scores(points)
        evaluations += len(points)
        nan_count += int(np.isnan(values).sum())
        return values

    points, levels, restarts = _search_tables(dim, cfg)
    values = np.fmax(counted(points), -INF)  # NaN candidates read as -inf
    best = int(np.argmax(values))
    best_val, best_point = float(values[best]), points[best]
    vertex_values = values[len(points) - dim * len(levels):].reshape(-1, dim)
    vertex_trend = {n: float(v) for n, v in zip(levels, vertex_values.max(axis=1))}
    starts = np.vstack([best_point, restarts])  # in lockstep; in start order, a strict rise wins
    for val, point in zip(*projected_ascent(counted, starts, max_iterations=cfg.max_iterations,
                                            tolerance=cfg.ascent_tolerance)):
        if val > best_val:
            best_val, best_point = float(val), point
    diagnostics = {"evaluations": evaluations, "nan_evaluations": nan_count,
                   "vertex_trend": vertex_trend, "restarts": cfg.restarts, "seed": cfg.seed}
    return best_val, Prior(best_point), diagnostics


def sup_over_prior(objective, dim: int, config: SimplexOptimizerConfig | None = None):
    """Best objective value over the simplex from a union of candidate
    sources, with the witnessing prior and search diagnostics.

    The value is a certified lower bound on the supremum; global optimality
    is not claimed unless a closed form exists.  NaN evaluations are skipped;
    every objective call, the ascent's included, is counted.  ``objective``
    maps one prior to a number and sees the candidates one by one, the lockstep
    restarts' points interleaved, line-search steps past a first rise included.
    Each point first passes the checks of ``Prior``, as in the built-in
    searches, so the value is the witness's own score.
    No built-in measure uses it: they search stacks of priors directly.
    """
    return _stack_search(lambda points: np.array(
        [float(objective(p)) for p in _clean_rows(points, "prior", rows=True)]), dim, config)


def maximal_alpha_leakage(channel: Channel, alpha, config: SimplexOptimizerConfig | None = None):
    """Maximal order-alpha leakage: sup over priors of the alpha-leakage.

    Arimoto mutual information at a prior P equals Sibson mutual
    information at the tilted prior P^alpha / sum P^alpha, so the two share
    this supremum; Sibson, which needs no hyper, is the one searched, on
    whole stacks of priors that pass the same checks as ``Prior``.
    """
    a, C = AlphaOrder.of(alpha), channel.matrix
    return _stack_search(lambda P: _sibson(_clean_rows(P, "prior", rows=True), C, a),
                         channel.n_inputs, config)


def maximal_alpha_beta_leakage(channel: Channel, alpha, beta: float,
                               config: SimplexOptimizerConfig | None = None):
    """Maximal (alpha, beta)-leakage: the reduced capacity objective,
    searched on whole stacks of priors that pass the same checks as ``Prior``."""
    ab = _ab_capacity_scores(channel, alpha, beta)
    return _stack_search(lambda P: ab(_clean_rows(P, "prior", rows=True)), channel.n_inputs, config)


def multiplicative_f_capacity(channel: Channel, f: FMeanSpec) -> float:
    """Capacity over priors and gains when both means equal f and the
    inverse of f is multiplicative and increasing: log f^-1(sum_y max_x C[x, y]).
    A decreasing inverse raises, as finite gains exceed that number then."""
    if not has_multiplicative_inverse(f):
        raise ParameterError(f"{f.name} does not have a multiplicative inverse")
    if not f.increasing:
        raise ParameterError(f"{f.name} has a decreasing inverse, for which log f^-1(sum_y "
                             "max_x C) is no upper bound and no capacity closed form is known")
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
