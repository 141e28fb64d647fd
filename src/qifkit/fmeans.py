"""Kolmogorov-Nagumo mean functions and their analytic metadata.

Power and exponential means are stored with their exponent or rate (not as
opaque callables) so that closed-form code paths can pattern-match on
structure, and every other property of a catalog mean is read off that one
number.  Limit orders that have no usable pointwise forward map (exponent or
rate +-infinity: the order-0 means, the beta = infinity posterior mean) are
limit specs whose callables refuse evaluation; the consuming code dispatches
on the kind and the infinite exponent or rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .alpha import INFINITY, ONE, ZERO, AlphaOrder, _ab_orders
from .errors import ParameterError

INCREASING = "increasing"
DECREASING = "decreasing"

CONVEX = "convex"
CONCAVE = "concave"
AFFINE = "affine"
_INVERSE_PAIRS, _INVERSE_SEED = 64, 0  # the seeded pairs has_multiplicative_inverse checks


class FMeanValidityWarning(UserWarning):
    """The requested mean is outside the parameter range with guaranteed
    convexity/axiom properties."""


def _pow(t, p: float):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.power(t, p)


def _log(t):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class FMeanSpec:
    """A strictly monotonic continuous mean function with its inverse.

    ``kind`` is one of "power" (forward t -> t**power), "log",
    "exp" (forward t -> exp(exp_rate * t)), "limit" (no pointwise map; its
    ``power`` or ``exp_rate`` is +-inf) or "custom".  ``alpha`` is the order
    of an ``f_alpha`` or ``ell_alpha`` mean and None otherwise; everything
    else about a catalog mean follows from its ``power`` or ``exp_rate``.
    """

    name: str
    forward: Callable = field(repr=False)
    inverse: Callable = field(repr=False)
    direction: str
    inverse_convexity: str
    domain: tuple = (0.0, math.inf)
    kind: str = "custom"
    power: float | None = None
    exp_rate: float | None = None
    alpha: float | None = None

    @property
    def is_affine(self) -> bool:
        return self.inverse_convexity == AFFINE

    @property
    def increasing(self) -> bool:
        return self.direction == INCREASING


def _catalog_spec(name, kind, x, affine_at, increasing, forward, inverse, domain,
                  **params) -> FMeanSpec:
    """The spec of exponent or rate x: its inverse is affine at x = affine_at, concave above
    and convex below, and at x = +-inf the spec is a limit that refuses evaluation."""
    if math.isinf(x):
        def refuse(_t):
            raise ParameterError(
                f"{name} is a tagged limit without a usable pointwise map; "
                "use the dedicated closed-form branch"
            )

        forward = inverse = refuse
        kind = "limit"
    convexity = AFFINE if x == affine_at else (CONCAVE if x > affine_at else CONVEX)
    return FMeanSpec(name, forward, inverse, INCREASING if increasing else DECREASING,
                     convexity, domain, kind, **params)


def _power_spec(name, p, alpha=None) -> FMeanSpec:
    """t -> t**p on (0, inf), increasing for p > 0; its inverse s**(1/p) is affine at p = 1."""
    return _catalog_spec(name, "power", p, 1.0, p > 0.0, lambda t: _pow(t, p),
                         lambda s: _pow(s, 1.0 / p), (0.0, math.inf), power=float(p), alpha=alpha)


def _exp_spec(name, r, alpha) -> FMeanSpec:
    """t -> exp(r t) on the real line, increasing for r >= 0; at r = 0 the mean is plain
    averaging, served by the identity map."""
    if r == 0.0:
        forward = inverse = lambda t: np.asarray(t, dtype=float)
    else:
        coeff = 1.0 / r
        forward = lambda t: np.exp(r * np.asarray(t, dtype=float))
        inverse = lambda s: coeff * _log(s)
    return _catalog_spec(name, "exp", r, 0.0, r >= 0.0, forward, inverse,
                         (-math.inf, math.inf), exp_rate=float(r), alpha=alpha)


def identity_fmean() -> FMeanSpec:
    """Plain averaging: the affine mean that recovers classical measures."""
    return _power_spec("identity", 1.0)


def f_alpha(alpha: float) -> FMeanSpec:
    """The order-alpha power mean family f(t) = t^((alpha-1)/alpha).

    alpha = 1 is served by its logarithmic limit (means are invariant under
    the affine reparameterization (t^e - 1)/e -> log t), alpha = infinity is
    the identity, and alpha = 0 (exponent -infinity) is exposed only as a
    limit whose consumers use the support-size closed form.
    """
    a = AlphaOrder.of(alpha)
    if a.branch == ONE:  # the exponent-0 member: t**0 is constant, so log t stands in
        return _catalog_spec("f_alpha[1]", "log", 0.0, 1.0, True, _log, np.exp,
                             (0.0, math.inf), alpha=1.0)
    exponent = -math.inf if a.branch == ZERO else 1.0 if a.branch == INFINITY else (
        (a.value - 1.0) / a.value)
    return _power_spec(f"f_alpha[{a.value:g}]", exponent, alpha=a.value)


def h_alpha_beta(alpha: float, beta: float) -> FMeanSpec:
    """Posterior mean h(t) = t^((alpha-1)*beta/alpha) for the two-parameter
    leakage family; alpha in (1, inf], beta in [1, inf].

    beta = infinity is a limit (the power mean degenerates to a max over
    outputs); consumers branch on it.  Convexity of h holds only for
    beta >= alpha/(alpha-1); outside that range a validity warning is
    emitted because the posterior-vulnerability axioms are not guaranteed.
    The spec carries no order tag: t^e is the same mean whichever (alpha,
    beta) gave e.
    """
    a, _ = _ab_orders(alpha, beta)
    exponent = beta if a.branch == INFINITY else (a.value - 1.0) * beta / a.value
    if exponent < 1.0:
        warnings.warn(
            f"h_alpha_beta(alpha={a.value:g}, beta={beta:g}) has exponent "
            f"{exponent:g} < 1: h is concave increasing, so the posterior "
            "axioms are not guaranteed",
            FMeanValidityWarning,
            stacklevel=2,
        )
    return _power_spec(f"h_ab[{a.value:g},{beta:g}]", exponent)


def ell_alpha(alpha: float) -> FMeanSpec:
    """Exponential mean ell(t) = exp(((alpha-1)/alpha) * t) used by the
    pointwise information-gain measures.

    alpha = 1 degenerates to plain averaging (rate 0); alpha = 0 is the
    min-over-outputs limit (rate -> -infinity), exposed as a limit spec.
    """
    a = AlphaOrder.of(alpha)
    rate = -math.inf if a.branch == ZERO else 1.0 if a.branch == INFINITY else (
        (a.value - 1.0) / a.value)
    return _exp_spec(f"ell[{a.value:g}]", rate, a.value)


def custom_fmean(
    forward: Callable,
    inverse: Callable,
    direction: str,
    inverse_convexity: str,
    domain: tuple = (0.0, math.inf),
    name: str = "custom",
) -> FMeanSpec:
    """Wrap a user-supplied mean function, sanity-checking the round trip
    and the declared monotonicity on sampled domain points.
    """
    if direction not in (INCREASING, DECREASING):
        raise ParameterError(f"unknown direction {direction!r}")
    if inverse_convexity not in (CONVEX, CONCAVE, AFFINE):
        raise ParameterError(f"unknown convexity class {inverse_convexity!r}")
    lo, hi = domain
    lo = max(lo, -10.0) + 1e-6
    hi = min(hi, 10.0)
    ts = np.linspace(lo, hi, 257)
    vals = np.asarray(forward(ts), dtype=float)
    back = np.asarray(inverse(vals), dtype=float)
    if not np.all(np.abs(back - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts))):
        raise ParameterError("inverse(forward(t)) deviates from t on the domain")
    diffs = np.diff(vals)
    if direction == INCREASING and not np.all(diffs > 0):
        raise ParameterError("forward is not increasing on the sampled domain")
    if direction == DECREASING and not np.all(diffs < 0):
        raise ParameterError("forward is not decreasing on the sampled domain")
    return FMeanSpec(
        name=name,
        forward=forward,
        inverse=inverse,
        direction=direction,
        inverse_convexity=inverse_convexity,
        domain=domain,
        kind="custom",
    )


def fmeans_equal(f: FMeanSpec, h: FMeanSpec) -> bool:
    """Structural equality: the two specs denote the same mean."""
    if f is h:
        return True
    # a catalog mean is fixed by its kind and its exponent or rate; a custom one by identity
    return f.kind == h.kind != "custom" and (f.power, f.exp_rate) == (h.power, h.exp_rate)


def has_multiplicative_inverse(spec: FMeanSpec) -> bool:
    """Whether the inverse satisfies f^-1(ab) = f^-1(a) f^-1(b), checked
    numerically on seeded random pairs (power-shaped inverses always qualify).
    """
    if spec.kind == "limit":
        return False
    if spec.kind == "power":
        return True
    a, b = np.random.default_rng(_INVERSE_SEED).uniform(0.2, 3.0, (2, _INVERSE_PAIRS))
    lhs = np.asarray(spec.inverse(a * b), dtype=float)
    rhs = np.asarray(spec.inverse(a), dtype=float) * np.asarray(spec.inverse(b), dtype=float)
    return bool(np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(lhs))))
