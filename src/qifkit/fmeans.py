"""Kolmogorov-Nagumo mean functions and their analytic metadata.

Power-shaped means are stored with their exponent (not as opaque callables)
so that closed-form code paths can pattern-match on structure.  Limit orders
that have no usable pointwise forward map (the order-0 power family, the
beta = infinity posterior mean) are represented as tagged limit specs whose
callables refuse evaluation; the consuming code dispatches on the tag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError

INCREASING = "increasing"
DECREASING = "decreasing"

CONVEX = "convex"
CONCAVE = "concave"
AFFINE = "affine"


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
    "exp" (forward t -> exp(exp_rate * t)), "limit" (no pointwise map) or
    "custom".  ``alpha``/``beta`` tag members of the order-parameterized
    catalog families so that theorem code can recognize them.
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
    beta: float | None = None

    @property
    def is_affine(self) -> bool:
        return self.inverse_convexity == AFFINE

    @property
    def increasing(self) -> bool:
        return self.direction == INCREASING


def _power_spec(name, p, direction, inverse_convexity, **tags) -> FMeanSpec:
    return FMeanSpec(
        name=name,
        forward=lambda t, _p=p: _pow(t, _p),
        inverse=lambda s, _p=p: _pow(s, 1.0 / _p),
        direction=direction,
        inverse_convexity=inverse_convexity,
        domain=(0.0, math.inf),
        kind="power",
        power=float(p),
        **tags,
    )


def _limit_spec(name, direction, inverse_convexity, domain, **tags) -> FMeanSpec:
    def refuse(_t):
        raise ParameterError(
            f"{name} is a tagged limit without a usable pointwise map; "
            "use the dedicated closed-form branch"
        )

    return FMeanSpec(name, refuse, refuse, direction, inverse_convexity, domain,
                     kind="limit", **tags)


def identity_fmean() -> FMeanSpec:
    """Plain averaging: the affine mean that recovers classical measures."""
    return _power_spec("identity", 1.0, INCREASING, AFFINE)


def f_alpha(alpha: float) -> FMeanSpec:
    """The order-alpha power mean family f(t) = t^((alpha-1)/alpha).

    alpha = 1 is served by its logarithmic limit (means are invariant under
    the affine reparameterization (t^e - 1)/e -> log t), alpha = infinity is
    the identity, and alpha = 0 is exposed only as a tagged limit whose
    consumers use the support-size closed form.
    """
    if not (alpha >= 0.0):
        raise ParameterError(f"alpha must lie in [0, inf], got {alpha}")
    if alpha == 0.0:
        return _limit_spec("f_alpha[0]", DECREASING, CONVEX, (0.0, math.inf),
                           power=-math.inf, alpha=0.0)
    if alpha == 1.0:
        return FMeanSpec(
            name="f_alpha[1]",
            forward=_log,
            inverse=np.exp,
            direction=INCREASING,
            inverse_convexity=CONVEX,
            domain=(0.0, math.inf),
            kind="log",
            alpha=1.0,
        )
    if math.isinf(alpha):
        return _power_spec("f_alpha[inf]", 1.0, INCREASING, AFFINE, alpha=math.inf)
    exponent = (alpha - 1.0) / alpha
    direction = INCREASING if alpha > 1.0 else DECREASING
    return _power_spec(f"f_alpha[{alpha:g}]", exponent, direction, CONVEX, alpha=float(alpha))


def h_alpha_beta(alpha: float, beta: float) -> FMeanSpec:
    """Posterior mean h(t) = t^((alpha-1)*beta/alpha) for the two-parameter
    leakage family; alpha in (1, inf], beta in [1, inf].

    beta = infinity is a tagged limit (the power mean degenerates to a max
    over outputs); consumers branch on it.  Convexity of h holds only for
    beta >= alpha/(alpha-1); outside that range a validity warning is
    emitted because the posterior-vulnerability axioms are not guaranteed.
    """
    if not alpha > 1.0:
        raise ParameterError(f"alpha must lie in (1, inf], got {alpha}")
    if not beta >= 1.0:
        raise ParameterError(f"beta must lie in [1, inf], got {beta}")
    if math.isinf(beta):
        return _limit_spec(f"h_ab[{alpha:g},inf]", INCREASING, CONCAVE, (0.0, math.inf),
                           power=math.inf, alpha=float(alpha), beta=math.inf)
    exponent = beta if math.isinf(alpha) else (alpha - 1.0) * beta / alpha
    if exponent < 1.0:
        warnings.warn(
            f"h_alpha_beta(alpha={alpha:g}, beta={beta:g}) has exponent "
            f"{exponent:g} < 1: h is concave increasing, so the posterior "
            "axioms are not guaranteed",
            FMeanValidityWarning,
            stacklevel=2,
        )
    # inverse is s^(1/exponent): concave for exponent > 1, convex below
    convexity = AFFINE if exponent == 1.0 else (CONCAVE if exponent > 1.0 else CONVEX)
    return _power_spec(
        f"h_ab[{alpha:g},{beta:g}]", exponent, INCREASING, convexity,
        alpha=float(alpha), beta=float(beta),
    )


def ell_alpha(alpha: float) -> FMeanSpec:
    """Exponential mean ell(t) = exp(((alpha-1)/alpha) * t) used by the
    pointwise information-gain measures.

    alpha = 1 degenerates to plain averaging (rate 0); alpha = 0 is the
    min-over-outputs limit (rate -> -infinity), exposed as a tagged limit.
    """
    if not (alpha >= 0.0):
        raise ParameterError(f"alpha must lie in [0, inf], got {alpha}")
    if alpha == 0.0:
        return _limit_spec("ell[0]", DECREASING, CONVEX, (-math.inf, math.inf),
                           exp_rate=-math.inf, alpha=0.0)
    if alpha == 1.0:
        return FMeanSpec(
            name="ell[1]",
            forward=lambda t: np.asarray(t, dtype=float),
            inverse=lambda s: np.asarray(s, dtype=float),
            direction=INCREASING,
            inverse_convexity=AFFINE,
            domain=(-math.inf, math.inf),
            kind="exp",
            exp_rate=0.0,
            alpha=1.0,
        )
    rate = 1.0 if math.isinf(alpha) else (alpha - 1.0) / alpha
    coeff = 1.0 / rate
    return FMeanSpec(
        name=f"ell[{alpha:g}]",
        forward=lambda t, _r=rate: np.exp(_r * np.asarray(t, dtype=float)),
        inverse=lambda s, _c=coeff: _c * _log(s),
        direction=INCREASING if rate > 0 else DECREASING,
        inverse_convexity=CONCAVE if rate > 0 else CONVEX,
        domain=(-math.inf, math.inf),
        kind="exp",
        exp_rate=rate,
        alpha=float(alpha),
    )


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
    if f.kind != h.kind:
        return False
    if f.kind == "power":
        return f.power == h.power
    if f.kind == "exp":
        return f.exp_rate == h.exp_rate
    if f.kind == "log":
        return True
    return False


def has_multiplicative_inverse(spec: FMeanSpec, samples: int = 64, seed: int = 0) -> bool:
    """Whether the inverse satisfies f^-1(ab) = f^-1(a) f^-1(b), checked
    numerically on random pairs (power-shaped inverses always qualify).
    """
    if spec.kind == "limit":
        return False
    if spec.kind == "power":
        return True
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 3.0, samples)
    b = rng.uniform(0.2, 3.0, samples)
    lhs = np.asarray(spec.inverse(a * b), dtype=float)
    rhs = np.asarray(spec.inverse(a), dtype=float) * np.asarray(spec.inverse(b), dtype=float)
    return bool(np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(lhs))))
