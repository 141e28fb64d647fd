"""Brute-force oracles and theorem-verification harness.

Random instances are always drawn Dirichlet(1, ..., 1) from a seeded
generator, so violation statistics are reproducible and comparable across
runs.  Each check returns a :class:`VerificationResult`; ``passed`` is
derived from ``max_violation <= tolerance`` and never set independently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .alpha import AlphaOrder, _arimoto, alpha_loss, arimoto_mi, min_expected_alpha_loss
from .alpha import sibson_mi, sibson_via_pointwise
from .capacity import SimplexOptimizerConfig, alpha_beta_leakage, bayes_capacity, maximal_alpha_leakage
from .core import Channel, Prior, compose, ni_channel, push
from .errors import ParameterError
from .fmeans import FMeanSpec, FMeanValidityWarning, f_alpha, fmeans_equal, h_alpha_beta, identity_fmean
from .gains import FiniteMatrixGain, GainSpec, IdentityGain, SimplexGain
from .simplex import simplex_grid
from .vulnerability import (
    gen_posterior_vulnerability_avg,
    gen_posterior_vulnerability_max,
    gen_prior_vulnerability,
    leakage,
)

AXIOMS = ("NI", "MONO", "DPI_AVG", "DPI_MAX", "CVX", "QCVX", "AVG_LE_MAX")


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one numerical check over a batch of instances."""

    theorem_id: str
    instances_checked: int
    max_violation: float
    tolerance: float
    worst_instance: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.max_violation <= self.tolerance))


@dataclass(frozen=True)
class MeasureFamily:
    """A (f, h, gain) triple drawn from in every axiom-suite instance.

    ``gain`` selects the per-instance gain: "identity", "simplex", or
    "finite_random" (a fresh non-negative matrix each draw).
    ``enforce_h_class`` is switched off only to run negative controls with
    deliberately invalid posterior means.
    """

    name: str
    f: FMeanSpec
    h: FMeanSpec
    gain: str = "identity"
    enforce_h_class: bool = True


def classical_family() -> MeasureFamily:
    ident = identity_fmean()
    return MeasureFamily("classical-identity-gain", ident, ident, "identity")


def alpha_family(alpha: float, gain: str = "simplex") -> MeasureFamily:
    f = f_alpha(alpha)
    return MeasureFamily(f"alpha[{alpha:g}]-{gain}", f, f, gain)


def _draw_gain(rng: np.random.Generator, kind: str, n_secrets: int) -> GainSpec:
    if kind == "identity":
        return IdentityGain()
    if kind == "simplex":
        return SimplexGain()
    if kind == "finite_random":
        n_actions = int(rng.integers(2, 5))
        return FiniteMatrixGain(rng.uniform(0.0, 2.0, size=(n_actions, n_secrets)))
    raise ParameterError(f"unknown gain kind {kind!r}")


def run_axiom_suite(
    family: MeasureFamily,
    n_instances: int = 1000,
    seed: int = 0,
    tolerance: float = 1e-9,
    axioms: tuple = AXIOMS,
) -> list[VerificationResult]:
    """Check the vulnerability axioms on random (prior, channel, refinement,
    gain) draws: point-hyper equality, monotonicity, the two data-processing
    inequalities, prior convexity and quasi-convexity, and avg <= max.
    """
    if n_instances < 1:
        raise ParameterError("a suite over no instances would pass vacuously")
    rng = np.random.default_rng(seed)
    worst = {ax: (0.0, {}) for ax in axioms}
    for idx in range(n_instances):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        nz = int(rng.integers(2, 5))
        prior = Prior(rng.dirichlet(np.ones(nx)))
        channel = Channel(rng.dirichlet(np.ones(ny), size=nx))
        post_channel = Channel(rng.dirichlet(np.ones(nz), size=ny))
        gain = _draw_gain(rng, family.gain, nx)
        f, h = family.f, family.h
        enforce = family.enforce_h_class

        v_prior = gen_prior_vulnerability(prior, gain, f)
        hyper = push(prior, channel)
        post_avg = gen_posterior_vulnerability_avg(hyper, gain, f, h, enforce)
        post_max = gen_posterior_vulnerability_max(hyper, gain, f)
        hyper_ref = push(prior, compose(channel, post_channel))
        post_avg_ref = gen_posterior_vulnerability_avg(hyper_ref, gain, f, h, enforce)
        post_max_ref = gen_posterior_vulnerability_max(hyper_ref, gain, f)
        point_hyper = push(prior, ni_channel(nx))
        ni_avg = gen_posterior_vulnerability_avg(point_hyper, gain, f, h, enforce)
        ni_max = gen_posterior_vulnerability_max(point_hyper, gain, f)

        mixture_k = int(rng.integers(2, 4))
        parts = [Prior(rng.dirichlet(np.ones(nx))) for _ in range(mixture_k)]
        weights = rng.dirichlet(np.ones(mixture_k))
        mixed = Prior(sum(w * p.probs for w, p in zip(weights, parts)))
        v_mixed = gen_prior_vulnerability(mixed, gain, f)
        v_parts = [gen_prior_vulnerability(p, gain, f) for p in parts]

        values = {
            "NI": max(abs(ni_avg - v_prior), abs(ni_max - v_prior)),
            "MONO": max(0.0, v_prior - post_avg),
            "DPI_AVG": max(0.0, post_avg_ref - post_avg),
            "DPI_MAX": max(0.0, post_max_ref - post_max),
            "CVX": max(0.0, v_mixed - float(np.dot(weights, v_parts))),
            "QCVX": max(0.0, v_mixed - max(v_parts)),
            "AVG_LE_MAX": max(0.0, post_avg - post_max),
        }
        for ax in axioms:
            if values[ax] > worst[ax][0]:
                worst[ax] = (
                    values[ax],
                    {
                        "instance": idx,
                        "prior": prior.probs.tolist(),
                        "channel": channel.matrix.tolist(),
                        "refinement": post_channel.matrix.tolist(),
                    },
                )
    return [
        VerificationResult(
            theorem_id=f"axiom:{ax}:{family.name}",
            instances_checked=n_instances,
            max_violation=worst[ax][0],
            tolerance=tolerance,
            worst_instance=worst[ax][1],
        )
        for ax in axioms
    ]


def _grid_min_expected_loss(prior: Prior, alpha: float, resolution: int = 200) -> float:
    """Brute-force oracle: minimum expected alpha-loss over a simplex grid
    of estimators."""
    grid = simplex_grid(prior.dim, resolution)
    best = math.inf
    for w in grid:
        total = 0.0
        for px, wx in zip(prior.probs, w):
            if px == 0.0:
                continue
            loss = alpha_loss(float(wx), alpha)
            total += px * loss
            if total >= best:
                break
        best = min(best, total)
    return best


def verify_dual_formulas(n_instances: int = 200, seed: int = 0) -> list[VerificationResult]:
    """Cross-check every pair of independent routes to the same measure:

    (a) generalized multiplicative leakage vs Arimoto mutual information,
    (b) pointwise aggregation vs the direct Sibson formula,
    (c) the two-parameter closed form vs the vulnerability-ratio route,
    (d) the minimum expected loss closed form vs a grid-search oracle.
    """
    if n_instances < 1:
        raise ParameterError("a suite over no instances would pass vacuously")
    rng = np.random.default_rng(seed)
    gain = SimplexGain()
    worst = {k: (0.0, {}) for k in ("a", "b", "c", "d")}

    def record(which: str, violation: float, info: dict) -> None:
        if violation > worst[which][0]:
            worst[which] = (violation, info)

    for idx in range(n_instances):
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        prior = Prior(rng.dirichlet(np.ones(nx)))
        channel = Channel(rng.dirichlet(np.ones(ny), size=nx))
        hyper = push(prior, channel)
        info = {"instance": idx, "prior": prior.probs.tolist(), "channel": channel.matrix.tolist()}

        for a in (0.5, 2.0, math.inf):
            f = f_alpha(a)
            route = leakage(
                gen_prior_vulnerability(prior, gain, f),
                gen_posterior_vulnerability_avg(hyper, gain, f, f),
            )
            record("a", abs(route - arimoto_mi(hyper, a)), {**info, "alpha": a})
        for a in (0.5, 2.0, 10.0):
            record(
                "b",
                abs(sibson_via_pointwise(hyper, prior, a) - sibson_mi(prior, channel, a)),
                {**info, "alpha": a},
            )
        for a, b in ((1.5, 2.0), (2.0, 1.0), (2.0, 3.0), (5.0, 2.0), (2.0, math.inf)):
            f = f_alpha(a)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FMeanValidityWarning)
                h = h_alpha_beta(a, b) if b != 1.0 else f
            route = leakage(
                gen_prior_vulnerability(prior, gain, f),
                gen_posterior_vulnerability_avg(hyper, gain, f, h),
            )
            record(
                "c",
                abs(route - alpha_beta_leakage(prior, channel, a, b)),
                {**info, "alpha": a, "beta": b},
            )
        if idx < max(10, n_instances // 20):
            for a in (0.5, 2.0, 10.0):
                closed, _ = min_expected_alpha_loss(prior, a)
                oracle = _grid_min_expected_loss(prior, a)
                # the grid value can only sit above the true minimum; allow
                # it a resolution-limited margin, none the other way
                violation = max(closed - oracle, (oracle - closed) - 1e-3, 0.0)
                record("d", violation, {**info, "alpha": a})

    names = {
        "a": "alpha-leakage-equals-arimoto",
        "b": "sibson-via-pointwise",
        "c": "alpha-beta-dual-route",
        "d": "min-alpha-loss-grid-oracle",
    }
    tolerances = {"a": 1e-8, "b": 1e-9, "c": 1e-8, "d": 1e-8}
    return [
        VerificationResult(
            theorem_id=f"dual:{names[k]}",
            instances_checked=n_instances,
            max_violation=worst[k][0],
            tolerance=tolerances[k],
            worst_instance=worst[k][1],
        )
        for k in ("a", "b", "c", "d")
    ]


def verify_maximal_equals_capacity(
    channel: Channel,
    gain: GainSpec,
    f: FMeanSpec,
    h: FMeanSpec,
    sizes: tuple,
    config: SimplexOptimizerConfig | None = None,
    agreement_tolerance: float = 2e-2,
    n_stochastic: int = 40,
) -> VerificationResult:
    """Desk-scale check that guessing a randomized function of the secret
    adds nothing: the best generalized leakage over (prior, deterministic or
    stochastic side channel into U) equals the sup-over-prior capacity of
    the original channel.

    The enumeration side must stay within ``agreement_tolerance`` of the
    optimizer side (both are grid-limited) and must never exceed it beyond
    1e-9.  ``max_violation`` is the excess over those two allowances, so the
    configured tolerance is 0.  A non-finite leakage of any candidate
    system, deterministic map or stochastic draw alike, is counted in
    ``non_finite_values`` and makes ``max_violation`` +inf.
    """
    cfg = config or SimplexOptimizerConfig(grid_resolution=100)
    n_x, u_max = sizes
    if n_x != channel.n_inputs:
        raise ParameterError("sizes[0] must match the channel input count")
    if n_x > 3 or not 2 <= u_max <= 4:
        raise ParameterError("enumeration is feasible only for |X| <= 3, 2 <= |U| <= 4")
    if n_stochastic < 0:
        raise ParameterError("n_stochastic must be non-negative")
    if not isinstance(gain, (IdentityGain, SimplexGain)):
        raise ParameterError("the equivalence check needs an alphabet-generic gain")
    classical = f.is_affine and h.is_affine
    matched = (
        fmeans_equal(f, h)
        and f.kind in ("power", "log")
        and f.alpha is not None
        and isinstance(gain, SimplexGain)
    )
    if not (classical or matched):
        raise ParameterError(
            "the equivalence is certified for affine means (either gain) or "
            "h = f from the order-alpha family with the simplex gain"
        )

    C = channel.matrix
    priors = np.vstack([simplex_grid(n_x, cfg.grid_resolution), np.full((1, n_x), 1.0 / n_x)])

    # Bayes multiplicative leakage is the Arimoto information of order inf
    order = AlphaOrder.of(math.inf if classical else f.alpha)

    # the stochastic side channels, drawn n_u, pi, conditional per draw; each
    # conditional is zero-padded to u_max symbols of U that never occur
    rng = np.random.default_rng(cfg.seed)
    n_us = []
    pis = np.empty((n_stochastic, n_x))
    conditionals = np.zeros((n_stochastic, n_x, u_max))
    for k in range(n_stochastic):
        n_us.append(int(rng.integers(2, u_max + 1)))
        pis[k] = rng.dirichlet(np.ones(n_x))
        conditionals[k, :, : n_us[k]] = rng.dirichlet(np.ones(n_us[k]), size=n_x)

    # each system pairs a stack of priors over X with conditionals P(U | X)
    # and gives the witness of its row i: the deterministic maps one at a
    # time (all at once would take ~40 MB at resolution 100), then the draws
    systems = [
        (priors, np.eye(u_max)[None, list(m)],
         lambda i, m=list(m): {"map": m, "prior": priors[i].tolist()})
        for m in product(range(u_max), repeat=n_x)
    ]
    if n_stochastic:
        systems.append((pis, conditionals, lambda i: {
            "stochastic_prior": pis[i].tolist(),
            "conditional": conditionals[i, :, : n_us[i]].tolist(),
        }))

    lhs = -math.inf
    lhs_witness: dict = {}
    non_finite = 0
    for P, K, witness in systems:
        h_u, h_cond = _arimoto(np.einsum("nx,nxu,xy->nuy", P, K, C), order)
        values = h_u - h_cond
        non_finite += int(np.count_nonzero(~np.isfinite(values)))
        best = int(np.argmax(values))
        if values[best] > lhs:
            lhs = float(values[best])
            lhs_witness = witness(best)

    if classical:
        rhs = bayes_capacity(channel)
        rhs_route = "bayes-capacity-closed-form"
    else:
        rhs, _, _ = maximal_alpha_leakage(channel, f.alpha, cfg)
        rhs_route = "maximal-alpha-leakage"

    structural_excess = max(0.0, lhs - rhs)
    violation = math.inf if non_finite else max(
        0.0,
        abs(lhs - rhs) - agreement_tolerance,
        structural_excess - 1e-9,
    )
    return VerificationResult(
        theorem_id="maximal-leakage-equals-capacity",
        instances_checked=priors.shape[0] * (u_max**n_x) + n_stochastic,
        max_violation=violation,
        tolerance=0.0,
        worst_instance={
            "lhs": lhs,
            "rhs": rhs,
            "rhs_route": rhs_route,
            "structural_excess": structural_excess,
            "non_finite_values": non_finite,
            "lhs_witness": lhs_witness,
        },
    )
