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
from .core import Channel, Prior, _clean_rows, _push_columns, push
from .errors import ParameterError
from .fmeans import FMeanSpec, FMeanValidityWarning, f_alpha, fmeans_equal, h_alpha_beta, identity_fmean
from .gains import GainSpec, IdentityGain, SimplexGain
from .simplex import simplex_grid
from .vulnerability import (
    _gen_values,
    _posterior_values,
    gen_posterior_vulnerability_avg,
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

    Every instance is drawn first into zero-padded stacks of 4 secrets,
    outputs and actions; a padded secret has no prior mass, so it never
    weighs in, and the suite is scored as one stack.  A non-finite violation
    counts as +inf.
    """
    if n_instances < 1:
        raise ParameterError("a suite over no instances would pass vacuously")
    if not axioms or any(ax not in AXIOMS for ax in axioms):
        raise ParameterError(f"axioms must be one or more of AXIOMS {AXIOMS}, got {axioms!r}")
    shared = {"identity": IdentityGain(), "simplex": SimplexGain(), "finite_random": None}
    if family.gain not in shared:
        raise ParameterError(f"unknown gain kind {family.gain!r}")
    gain, rng, n, pad = shared[family.gain], np.random.default_rng(seed), n_instances, np.arange(4)
    ones = [np.ones(k) for k in range(5)]
    # per instance: prior, 4 channel rows, 4 refinement rows, 3 parts, as drawn
    tables, weights, gains = np.zeros((n, 12, 4)), np.zeros((n, 3)), np.empty((n, 4, 4))
    sizes = np.empty((4, n), dtype=int)  # nx, ny, nz, parts
    for i, t in enumerate(tables):
        nx, ny, nz = sizes[:3, i] = [int(rng.integers(2, 5)) for _ in range(3)]
        t[0, :nx] = rng.dirichlet(ones[nx])
        t[1:1 + nx, :ny] = rng.dirichlet(ones[ny], size=nx)
        t[5:5 + ny, :nz] = rng.dirichlet(ones[nz], size=ny)
        if gain is None:  # the padding repeats a drawn action row and secret column
            g = rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 5)), nx))
            gains[i] = g[np.minimum(pad, len(g) - 1)][:, np.minimum(pad, nx - 1)]
        sizes[3, i] = k = int(rng.integers(2, 4))
        for j in range(k):
            t[9 + j, :nx] = rng.dirichlet(ones[nx])
        weights[i, :k] = rng.dirichlet(ones[k])
    one, (nx, ny, _, k) = np.ones((n, 1), dtype=bool), sizes[:, :, None] > pad  # drawn rows
    drawn, parts = np.hstack([one, nx, ny, k[:, :3]]), k[:, :3]
    tables[drawn] = _clean_rows(tables[drawn], "drawn table", rows=True)
    # then each instance's composed channel and mixed prior
    derived = np.concatenate([tables[:, 1:5] @ tables[:, 5:9],
                              (weights[:, :, None] * tables[:, 9:]).sum(axis=1)[:, None]], axis=1)
    drawn = np.hstack([nx, one])
    derived[drawn] = _clean_rows(derived[drawn], "drawn table", rows=True)

    def gain_of(rows):  # the shared gain, or the drawn matrix of each row's instance
        return gain if gain is not None else gains[rows]

    priors, owner = tables[:, 0], np.repeat(np.arange(n), sizes[3])
    v = _gen_values(np.vstack([priors, derived[:, 4], tables[:, 9:][parts]]),
                    gain_of(np.concatenate([np.arange(n), np.arange(n), owner])), family.f)
    v_prior, v_mixed, v_parts = v[:n], v[n:2 * n], v[2 * n:]
    dot = np.bincount(owner, weights=weights[parts] * v_parts)
    top = np.maximum.reduceat(v_parts, np.searchsorted(owner, np.arange(n)))
    # each instance's hypers: [prior, channel], the refined one, [prior, NI];
    # padded outputs have no mass, so the push drops them
    columns = np.concatenate([tables[:, 1:5], derived[:, :4], np.ones((n, 4, 1))], axis=2)
    outer, inners, hyper, _ = _push_columns(
        np.repeat(priors, 3, axis=0), np.hstack(columns), np.tile([4, 4, 1], n))
    (post_avg, ref_avg, ni_avg), (post_max, ref_max, ni_max) = (a.reshape(n, 3).T for a in (
        _posterior_values(outer, inners, hyper, gain_of(hyper // 3), family.f, family.h,
                          family.enforce_h_class)))
    violations = np.array((  # in the order of AXIOMS
        np.maximum(abs(ni_avg - v_prior), abs(ni_max - v_prior)), v_prior - post_avg,
        ref_avg - post_avg, ref_max - post_max, v_mixed - dot, v_mixed - top,
        post_avg - post_max))

    results = []
    for ax in axioms:
        value = np.maximum(0.0, violations[AXIOMS.index(ax)]) + 0.0  # and -0.0 reads 0.0
        value[~np.isfinite(value)] = math.inf  # NaN included
        best = int(np.argmax(value))  # the first instance of the largest violation
        keys, found = ("instance", "prior", "channel", "refinement"), bool(value[best] > 0.0)
        a, b, c = sizes[:3, best]
        drawn = tables[best, 0, :a], tables[best, 1:1 + a, :b], tables[best, 5:5 + b, :c]
        witness = dict(zip(keys, [best] + [t.tolist() for t in drawn])) if found else {}
        results.append(VerificationResult(
            f"axiom:{ax}:{family.name}", n_instances, float(value[best]), tolerance, witness))
    return results


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
        violation = violation if math.isfinite(violation) else math.inf  # NaN fails too
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

    Relabeling U changes no leakage, so one map per partition of X is
    scored: ``instances_checked`` counts the (prior, map) systems covered,
    ``systems_scored`` the rows computed, and a witness ``map`` is its
    partition's representative.  The enumeration side must stay within
    ``agreement_tolerance`` of the optimizer side (both grid-limited) and
    never exceed it beyond 1e-9; ``max_violation`` is the excess over those
    allowances, so the tolerance is 0.  A non-finite leakage of any system,
    map or draw alike, counts in ``non_finite_values`` and makes it +inf.
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

    # H_alpha(U) and H_alpha(U | Y) ignore labels: the restricted-growth
    # strings, one per partition, each its first labeling in product order.
    # One stack scores them map-major over the priors, then the draws
    maps = [m for m in product(range(u_max), repeat=n_x)
            if all(m[i] <= 1 + max(m[:i], default=-1) for i in range(n_x))]
    split = len(maps) * len(priors)
    joints = np.empty((split + n_stochastic, channel.n_outputs, u_max))  # rows p(y, .)
    np.einsum("nx,mxu,xy->mnyu", priors, np.eye(u_max)[maps], C,
              out=joints[:split].reshape(len(maps), len(priors), -1, u_max))
    np.einsum("nx,nxu,xy->nyu", pis, conditionals, C, out=joints[split:])
    p_y = joints.sum(axis=2)
    np.divide(joints, p_y[:, :, None], out=joints, where=p_y[:, :, None] > 0.0)  # posteriors
    h_u, h_cond = _arimoto(p_y, joints, order)
    values = np.fmax(h_u - h_cond, -math.inf)  # a NaN loses to every number
    non_finite = int(np.count_nonzero(~np.isfinite(values)))
    best = int(np.argmax(values))
    lhs = float(values[best])
    if best < split:
        m, i = divmod(best, len(priors))
        lhs_witness = {"map": list(maps[m]), "prior": priors[i].tolist()}
    else:
        k = best - split
        lhs_witness = {"stochastic_prior": pis[k].tolist(),
                       "conditional": conditionals[k, :, : n_us[k]].tolist()}

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
            "systems_scored": joints.shape[0],
            "lhs_witness": lhs_witness,
        },
    )
