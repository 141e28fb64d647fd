"""Closed-form order-alpha information measures.

The order is carried as an :class:`AlphaOrder` with an exact branch tag so
that the removable singularities at 0, 1 and infinity never reach the
generic formulas.  Sums of powers are evaluated in the log domain, which
keeps the generic branches stable up to orders around 1e6 (used by the
limit-continuity tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Channel, Hyper, Prior
from .errors import DimensionMismatch, ParameterError

INF = math.inf

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


def _logsumexp(values: np.ndarray, axis: int | None = None):
    """log sum exp over all entries (a float) or along ``axis`` (an array).

    -inf entries add nothing, so an all -inf slice gives -inf; any +inf
    gives +inf and any NaN gives NaN.
    """
    v = np.asarray(values, dtype=float)
    if axis is None:
        v = v[v != -INF]
        if v.size == 0:
            return -INF
        m = float(v.max())
        if math.isinf(m):
            return INF
        return m + math.log(float(np.exp(v - m).sum()))
    m = v.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        shifted = v - m
        return np.log(np.exp(shifted, out=shifted).sum(axis=axis)) + np.squeeze(m, axis)


def _shannon(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row (zero entries add nothing)."""
    logs = np.log(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logs).sum(axis=-1)


def _renyi_entropies(P: np.ndarray, a: AlphaOrder) -> np.ndarray:
    """Renyi entropy of each row of a stack of distributions (n, |X|)."""
    if a.branch == ZERO:
        return np.log((P > 0).sum(axis=1))
    if a.branch == ONE:
        return _shannon(P)
    if a.branch == INFINITY:
        return -np.log(P.max(axis=1))
    with np.errstate(divide="ignore"):
        log_p = np.log(P)
    return _logsumexp(a.value * log_p, axis=1) / (1.0 - a.value)


def _arimoto(joints: np.ndarray, a: AlphaOrder) -> tuple[np.ndarray, np.ndarray]:
    """H_alpha(X) and the Arimoto conditional entropy H_alpha(X | Y) of each
    joint in a stack (n, |X|, |Y|); the Arimoto mutual information is their
    difference.  All-zero rows and columns are allowed.
    """
    h_x = _renyi_entropies(joints.sum(axis=2), a)
    if a.branch == ZERO:
        return h_x, np.log((joints > 0).sum(axis=1).max(axis=1))
    if a.branch == ONE:
        p_y = joints.sum(axis=1, keepdims=True)
        ratio = np.divide(joints, p_y, out=np.ones_like(joints), where=joints > 0)
        return h_x, -(joints * np.log(ratio)).sum(axis=(1, 2))
    if a.branch == INFINITY:
        return h_x, -np.log(joints.max(axis=1).sum(axis=1))
    with np.errstate(divide="ignore"):
        log_j = np.log(joints)
    log_j *= a.value
    log_norms = _logsumexp(log_j, axis=1) / a.value
    return h_x, _logsumexp(log_norms, axis=1) * a.value / (1.0 - a.value)


def _hyper_joint(hyper: Hyper) -> np.ndarray:
    """The hyper's joint p(x, y) over retained outputs, as a stack of one."""
    return (hyper.outer[:, None] * hyper.inners).T[None]


def renyi_entropy(prior: Prior, alpha) -> float:
    """Renyi entropy of the given order, in nats."""
    return float(_renyi_entropies(prior.probs[None], AlphaOrder.of(alpha))[0])


def _renyi_divergences(rows: np.ndarray, q: np.ndarray, a: AlphaOrder) -> np.ndarray:
    """Renyi divergence D_alpha(row || q) of each row of a stack of
    distributions (n, |X|), in nats.

    For every positive order a row with mass outside the support of q gives
    +inf; order 0 uses -log of q's mass on the row's support.
    """
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
            if a.branch == ONE:
                values = (rows * np.log(ratio)).sum(axis=1)
            else:
                values = np.log(ratio.max(axis=1))
        else:
            terms = np.where(on, a.value * np.log(rows) - (a.value - 1.0) * np.log(q), -INF)
            values = _logsumexp(terms, axis=1) / (a.value - 1.0)
    return np.where(violated, INF, values)


def renyi_divergence(mu: Prior, pi: Prior, alpha) -> float:
    """Renyi divergence D_alpha(mu || pi) in nats.

    For every positive order the result is +inf when mu puts mass outside
    the support of pi; order 0 uses -log of pi's mass on mu's support.
    """
    return float(_renyi_divergences(mu.probs[None], pi.probs, AlphaOrder.of(alpha))[0])


def arimoto_conditional_entropy(hyper: Hyper, alpha) -> float:
    """Arimoto conditional entropy H_alpha(X | Y) of a hyper, in nats."""
    _, h_cond = _arimoto(_hyper_joint(hyper), AlphaOrder.of(alpha))
    return float(h_cond[0])


def arimoto_mi(hyper: Hyper, alpha) -> float:
    """Arimoto mutual information of order alpha: H_alpha(X) - H_alpha(X|Y)."""
    h_x, h_cond = _arimoto(_hyper_joint(hyper), AlphaOrder.of(alpha))
    return float(h_x[0] - h_cond[0])


def _sibson(P: np.ndarray, C: np.ndarray, a: AlphaOrder) -> np.ndarray:
    """Sibson mutual information of each prior in a stack (n, |X|) through
    the channel matrix C (|X|, |Y|), in nats.  Zero prior entries drop out.
    """
    if a.branch == INFINITY:
        return np.log(np.where(P[:, :, None] > 0.0, C, 0.0).max(axis=1).sum(axis=1))
    if a.branch == ONE:
        h_x, h_cond = _arimoto(P[:, :, None] * C, a)
        return h_x - h_cond
    if a.branch == ZERO:
        # an output every secret in the support reaches makes the value
        # exactly 0; otherwise the mass is clamped at 1 so 0 never turns -0
        on = P > 0.0
        reached = on.astype(float) @ (C > 0.0)
        mass = np.minimum((P @ (C > 0.0)).max(axis=1), 1.0)
        return np.where(reached.max(axis=1) == on.sum(axis=1), 0.0, 0.0 - np.log(mass))
    with np.errstate(divide="ignore"):
        terms = np.log(P)[:, :, None] + a.value * np.log(C)
    per_output = _logsumexp(terms, axis=1) / a.value
    return _logsumexp(per_output, axis=1) * a.value / (a.value - 1.0)


def sibson_mi(prior: Prior, channel: Channel, alpha) -> float:
    """Sibson mutual information of order alpha, in nats.

    At order infinity this is log of the summed column maxima over the
    prior's support (maximal leakage at full support); order 1 is Shannon
    mutual information; order 0 is the continuous limit
    -log max_y pi(supp(posterior_y)).
    """
    if prior.dim != channel.n_inputs:
        raise DimensionMismatch("prior/channel dimensions disagree")
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
    log_p = np.full(prior.dim, -INF)
    sup = prior.support
    log_p[sup] = a.value * np.log(prior.probs[sup])
    tilted = np.exp(log_p - _logsumexp(log_p))
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
    return _logsumexp(np.log(hyper.outer) + rate * gains) / rate
