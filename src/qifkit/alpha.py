"""Closed-form order-alpha information measures.

The order is carried as an :class:`AlphaOrder` with an exact branch tag so
that the removable singularities at 0, 1 and infinity never reach the
generic formulas.  At orders 1/2 and 2, where numpy takes p**alpha and
s**(1/alpha) as a square root and a square, the Renyi-entropy, Arimoto and
Sibson kernels sum powers in the linear domain, with no log of a zero entry
(their docstrings bound what underflow can cost).  Every other sum of powers
is evaluated in the log domain, which keeps the generic branches stable up
to orders around 1e6 (used by the limit-continuity tests).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .core import Channel, Hyper, Prior, _check_dims
from .errors import DimensionMismatch, ParameterError

INF = math.inf

_LINEAR_ORDERS = (0.5, 2.0)  # numpy takes p**alpha and p**(1/alpha) as sqrt and square

ZERO = "zero"
OPEN_UNIT = "open_unit"
ONE = "one"
FINITE_GT1 = "finite_gt1"
INFINITY = "infinity"


@dataclass(frozen=True)
class AlphaOrder:
    """An order alpha in [0, inf] with its exact branch tag."""

    value: float
    branch: str

    @staticmethod
    def of(x) -> "AlphaOrder":
        if isinstance(x, AlphaOrder):
            return x
        v = float(x)
        if math.isnan(v) or v < 0.0:
            raise ParameterError(f"alpha must lie in [0, inf], got {x}")
        if v == 0.0:
            return AlphaOrder(0.0, ZERO)
        if v == 1.0:
            return AlphaOrder(1.0, ONE)
        if math.isinf(v):
            return AlphaOrder(INF, INFINITY)
        return AlphaOrder(v, OPEN_UNIT if v < 1.0 else FINITE_GT1)


def _logsumexp_into(scratch: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of each slice along ``axis`` of a float array that it
    overwrites: the slice maxima are subtracted, exponentiated and summed in place.
    -inf entries add nothing, so an all -inf slice gives -inf; any +inf gives +inf
    and any NaN gives NaN.  A finite maximum leaves its sum at least 1, so only
    other slices need errstate, and one slice with a finite maximum takes a lean path."""
    if scratch.size == scratch.shape[axis] and math.isfinite(m := np.maximum.reduce(scratch, None)):
        scratch -= m
        return np.log(np.add.reduce(np.exp(scratch, out=scratch), axis=axis)) + m
    m = np.maximum.reduce(scratch, axis=axis, keepdims=True)
    finite = np.isfinite(m)
    if not (tame := np.count_nonzero(finite) == finite.size):
        m[~finite] = 0.0
    with nullcontext() if tame else np.errstate(divide="ignore", over="ignore"):
        scratch -= m
        total = np.add.reduce(np.exp(scratch, out=scratch), axis=axis)
        return np.log(total) + m.squeeze(axis)


def _log(x) -> np.ndarray:
    """np.log of an array or a number, silent on a zero entry (a padded row's), which gives -inf."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and x > 0.0 or np.count_nonzero(x) == x.size:
        return np.log(x)
    with np.errstate(divide="ignore"):
        return np.log(x)


def _shannon(p: np.ndarray) -> np.ndarray:
    """Shannon entropy along the last axis (zero entries add nothing)."""
    logs = np.log(p, out=np.zeros_like(p), where=p > 0)
    logs *= p
    return -logs.sum(axis=-1)


def _renyi_entropies(P: np.ndarray, a: AlphaOrder) -> np.ndarray:
    """Renyi entropy of each distribution along the last axis of P.  Orders 1/2 and 2 sum
    P**alpha (a square root or square, zeros included) with no shift, as p_max^alpha >=
    |X|^-alpha cannot underflow; every other order reduces alpha log P by
    :func:`_logsumexp_into`.  An all-zero (padded) row gives log 0, silently."""
    if a.branch == ZERO:
        return _log((P > 0).sum(axis=-1))
    if a.branch == ONE:
        return _shannon(P)
    if a.branch == INFINITY:
        return -_log(P.max(axis=-1))
    with np.errstate(divide="ignore"):
        if a.value in _LINEAR_ORDERS:
            return np.log((P ** a.value).sum(axis=-1)) / (1.0 - a.value)
        log_p = np.log(P)
    log_p *= a.value
    return _logsumexp_into(log_p, -1) / (1.0 - a.value)


def _arimoto(outer: np.ndarray, inners: np.ndarray, a: AlphaOrder) -> tuple:
    """H_alpha(X) = H_alpha(outer @ inners) and the Arimoto conditional entropy
    of each hyper in a stack: outer weights (..., |Y|) and posterior rows
    (..., |Y|, |X|), secret axis last, a weight-0 row all zero.  H_alpha(X | Y)
    is the Kolmogorov-Nagumo mean of the posteriors' entropies,
    alpha/(1-alpha) log sum_y p_y exp((1-alpha)/alpha H_alpha(X | y)): the
    average at order 1, the largest at 0 and -log sum_y p_y max_x at inf.
    At orders 1/2 and 2 the mean sums p_y exp(rate H_alpha(X | y)) with no
    shift: each exponential is a posterior's alpha-norm, in [|X|^-1/2, |X|]."""
    h_x = _renyi_entropies((outer[..., None, :] @ inners)[..., 0, :], a)
    if a.branch == ZERO:
        return h_x, _log((inners > 0.0).sum(axis=-1).max(axis=-1))
    if a.branch == INFINITY:
        return h_x, -_log((outer * inners.max(axis=-1)).sum(axis=-1))
    h_post = _renyi_entropies(inners, a)  # each row reduced in place along the secret axis
    if a.branch == ONE:
        return h_x, (outer * h_post).sum(axis=-1)
    rate = (1.0 - a.value) / a.value  # a weight-0 row adds 0; all-zero weights give log 0
    if a.value in _LINEAR_ORDERS:
        return h_x, _log((outer * np.exp(rate * h_post)).sum(axis=-1)) / rate
    return h_x, _logsumexp_into(_log(outer) + rate * h_post, -1) / rate


def renyi_entropy(prior: Prior, alpha) -> float:
    """Renyi entropy of the given order, in nats."""
    return float(_renyi_entropies(prior.probs[None], AlphaOrder.of(alpha))[0])


def _renyi_divergences(rows: np.ndarray, q: np.ndarray, a: AlphaOrder) -> np.ndarray:
    """Renyi divergence D_alpha(row || q) of each row of a stack of
    distributions (n, |X|), in nats, as :func:`renyi_divergence` defines it."""
    if rows.shape[1] != q.size:
        raise DimensionMismatch("distributions have different alphabet sizes")
    on = rows > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if a.branch == ZERO:
            return -np.log(np.where(on, q, 0.0).sum(axis=1))
        violated = (on & (q == 0.0)).any(axis=1)
        if a.branch in (ONE, INFINITY):
            # off the row's support the ratio reads 1: it adds 0 * log 1 to
            # the KL sum and cannot raise the largest ratio, which is >= 1
            ratio = np.divide(rows, q, out=np.ones_like(rows), where=on & (q > 0.0))
            values = ((rows * np.log(ratio)).sum(axis=1) if a.branch == ONE
                      else np.log(ratio.max(axis=1)))
        else:
            terms = np.where(on, a.value * np.log(rows) - (a.value - 1.0) * np.log(q), -INF)
            values = _logsumexp_into(terms, 1) / (a.value - 1.0)
    return np.where(violated, INF, values)


def renyi_divergence(mu: Prior, pi: Prior, alpha) -> float:
    """Renyi divergence D_alpha(mu || pi) in nats.

    For every positive order the result is +inf when mu puts mass outside
    the support of pi; order 0 uses -log of pi's mass on mu's support.
    """
    return float(_renyi_divergences(mu.probs[None], pi.probs, AlphaOrder.of(alpha))[0])


def arimoto_conditional_entropy(hyper: Hyper, alpha) -> float:
    """Arimoto conditional entropy H_alpha(X | Y) of a hyper, in nats."""
    return float(_arimoto(hyper.outer, hyper.inners, AlphaOrder.of(alpha))[1])


def arimoto_mi(hyper: Hyper, alpha) -> float:
    """Arimoto mutual information of order alpha: H_alpha(X) - H_alpha(X|Y).
    Order 0 reads supports off the hyper, where a posterior entry below the
    float range is already 0, so it can exceed the order-0 value of the
    prior and channel themselves, which sibson_mi reads."""
    return float(np.subtract(*_arimoto(hyper.outer, hyper.inners, AlphaOrder.of(alpha))))


def _ab_orders(alpha, beta: float) -> tuple[AlphaOrder, float]:
    """The checked order alpha in (1, inf] of the (alpha, beta) family, beta in
    [1, inf], and the factor in front of the log-sum (log-max at beta = inf)."""
    a = AlphaOrder.of(alpha)
    if a.branch not in (FINITE_GT1, INFINITY):
        raise ParameterError(f"alpha must lie in (1, inf], got {a.value}")
    if not beta >= 1.0:
        raise ParameterError(f"beta must lie in [1, inf], got {beta}")
    if math.isinf(beta):
        return a, 1.0 if a.branch == INFINITY else a.value / (a.value - 1.0)
    return a, (1.0 / beta) if a.branch == INFINITY else a.value / ((a.value - 1.0) * beta)


def _ab_scores(terms: np.ndarray, log_R: np.ndarray | float, a: AlphaOrder, beta: float,
               shift: float = 0.0) -> np.ndarray:
    """Reduce a stack (n, |X|, |Y|) of log w_x + alpha log C_xy (log w_x +
    log C_xy at alpha = inf) in place to log M_y - shift, M_y = (sum_x w_x
    C_xy^alpha)^(1/alpha) (max_x at alpha = inf), and score it against log_R
    broadcast with it (a scalar or a row gives n scores, (r, 1, |Y|) rows give
    (r, n)): log sum_y R_y^(1-beta) M_y^beta, or log max_y M_y / R_y at
    beta = inf, before the order factor.  log_R must be finite where M_y = 0,
    which drops those outputs."""
    log_M = (np.maximum.reduce(terms, axis=1) if a.branch == INFINITY
             else _logsumexp_into(terms, 1) / a.value) - shift
    if math.isinf(beta):
        return np.maximum.reduce(log_M - log_R, axis=-1)
    return _logsumexp_into((1.0 - beta) * log_R + beta * log_M, -1)


def _sibson(P: np.ndarray, C: np.ndarray, a: AlphaOrder) -> np.ndarray:
    """Sibson mutual information of each prior in a stack (n, |X|) through
    the channel matrix C (|X|, |Y|), in nats: alpha/(alpha-1) log F with
    F = sum_y (sum_x pi_x C_xy^alpha)^(1/alpha).  Zero prior entries drop
    out.  At orders 1/2 and 2 F is summed directly, with no shift: each
    inner sum is at most 1 and loses at most |X| 2^-1022 to underflow, so F
    loses at most |Y| (|X| 2^-1022)^(1/alpha) of F >= 1 at alpha > 1, and
    |Y| |X| 2^-1022 / alpha of F >= |X|^(1-1/alpha) (the value is at most
    log|X|) at alpha < 1.  Other orders take log F from the (alpha, beta)
    kernel at beta = 1."""
    if a.branch == INFINITY:
        return _log(np.where(P[:, :, None] > 0.0, C, 0.0).max(axis=1).sum(axis=1))
    if a.branch == ONE:  # Shannon information is symmetric: H(Y) - H(Y | X), C's rows the inners
        return np.subtract(*_arimoto(P, C, a))
    if a.branch == ZERO:
        # an output every secret in the support reaches makes the value
        # exactly 0; otherwise the mass is clamped at 1 so 0 never turns -0
        shared = ~((P > 0.0) @ (C == 0.0)).all(axis=1)
        mass = np.minimum((P[:, None, :] @ (C > 0.0))[:, 0].max(axis=1), 1.0)
        return np.where(shared, 0.0, 0.0 - _log(mass))
    with np.errstate(divide="ignore"):  # log 0 of a zero entry or an all-zero prior row
        if a.value in _LINEAR_ORDERS:
            F = (((P[:, None, :] @ C ** a.value)[:, 0, :]) ** (1.0 / a.value)).sum(axis=1)
            return np.log(F) * a.value / (a.value - 1.0)
        # log pi_x + alpha log C_xy, one scratch per prior
        terms = np.log(C, out=np.empty((len(P),) + C.shape))
        terms *= a.value
        terms += np.log(P)[:, :, None]
    return _ab_scores(terms, 0.0, a, 1.0) * a.value / (a.value - 1.0)


def sibson_mi(prior: Prior, channel: Channel, alpha) -> float:
    """Sibson mutual information of order alpha, in nats.

    At order infinity this is log of the summed column maxima over the
    prior's support (maximal leakage at full support); order 1 is Shannon
    mutual information; order 0 is the continuous limit
    -log max_y pi(supp(posterior_y)).
    """
    _check_dims(prior, channel)
    return float(_sibson(prior.probs[None], channel.matrix, AlphaOrder.of(alpha))[0])


def alpha_loss(p_hat: float, alpha) -> float:
    """Loss of reporting probability p_hat for the realized secret."""
    a = AlphaOrder.of(alpha)
    if a.branch == ZERO:
        raise ParameterError("alpha-loss is not defined at alpha = 0")
    if not 0.0 <= p_hat <= 1.0:
        raise ParameterError(f"p_hat must lie in [0, 1], got {p_hat}")
    if a.branch == ONE:
        return math.log(1.0 / p_hat) if p_hat > 0 else INF
    if a.branch == INFINITY:
        return 1.0 - p_hat
    coeff = a.value / (a.value - 1.0)
    with np.errstate(divide="ignore"):
        powered = float(np.power(p_hat, (a.value - 1.0) / a.value))
    return coeff * (1.0 - powered)


def min_expected_alpha_loss(prior: Prior, alpha) -> tuple[float, Prior]:
    """Minimum of the expected alpha-loss over probabilistic estimators,
    with the optimal estimator (the alpha-scaled/tilted prior).
    """
    a = AlphaOrder.of(alpha)
    if a.branch == ZERO:
        raise ParameterError("alpha-loss is not defined at alpha = 0")
    if a.branch == ONE:
        return float(_shannon(prior.probs)), prior
    if a.branch == INFINITY:
        best = int(np.argmax(prior.probs))
        return 1.0 - float(prior.probs[best]), Prior.point_mass(best, prior.dim)
    entropy = renyi_entropy(prior, a)
    coeff = a.value / (a.value - 1.0)
    value = coeff * (1.0 - math.exp((1.0 - a.value) / a.value * entropy))
    with np.errstate(divide="ignore"):  # p^alpha / sum p^alpha, the sum read off H_alpha
        tilted = np.exp(a.value * np.log(prior.probs) - (1.0 - a.value) * entropy)
    return value, Prior(tilted)


def pointwise_alpha_leakage(prior: Prior, posterior: Prior, alpha) -> float:
    """Pointwise leakage of a single observed output: the Renyi divergence
    of the posterior from the prior (+inf on a support violation)."""
    return renyi_divergence(posterior, prior, alpha)


def sibson_via_pointwise(hyper: Hyper, prior: Prior, alpha) -> float:
    """Exponential-mean aggregation of the pointwise alpha-leakages over
    outputs.  Agrees with :func:`sibson_mi` when the hyper was pushed from
    the given prior.
    """
    a = AlphaOrder.of(alpha)
    gains = _renyi_divergences(hyper.inners, prior.probs, a)
    if a.branch == ONE:
        return float((hyper.outer * gains).sum())
    if a.branch == ZERO:
        return float(gains.min())
    rate = 1.0 if a.branch == INFINITY else (a.value - 1.0) / a.value
    return float(_logsumexp_into(np.log(hyper.outer) + rate * gains, -1)) / rate
