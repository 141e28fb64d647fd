"""Brute-force oracles and theorem-verification harness.

Random instances are always drawn Dirichlet(1, ..., 1) from a seeded
generator, so violation statistics are reproducible and comparable across
runs.  Each check returns a :class:`VerificationResult`; ``passed`` is
derived from ``max_violation <= tolerance`` and never set independently.
"""

from __future__ import annotations

import functools
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
_ORACLE_RESOLUTION = 200  # the grid oracle's estimators have coordinates in 1/200ths
_AXIOM_TOLERANCE = 1e-9  # the largest violation an axiom check forgives
_AGREEMENT_TOLERANCE, _STOCHASTIC_DRAWS = 2e-2, 40  # the equivalence check's allowance and draws


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


def alpha_family(alpha: float) -> MeasureFamily:
    f = f_alpha(alpha)
    return MeasureFamily(f"alpha[{alpha:g}]-simplex", f, f, "simplex")


def _result(theorem_ids, violations, instances_checked, tolerance, witness) -> list:
    """One result per row of checks x instances: each violation clamped at 0
    (-0.0 reads 0.0), a NaN counting as +inf, and ``witness(row, i)`` taken from
    the first instance of the row's largest violation when that is positive."""
    value = np.maximum(0.0, np.asarray(violations, dtype=float)) + 0.0
    value[~np.isfinite(value)] = math.inf
    best = value.argmax(axis=1)
    largest = value[np.arange(len(value)), best].tolist()
    return [VerificationResult(name, instances_checked, v, tolerance,
                               witness(row, int(i)) if v > 0.0 else {})
            for row, (name, i, v) in enumerate(zip(theorem_ids, best, largest))]


def _dirichlet_rows(exponentials: np.ndarray) -> np.ndarray:
    """Rows (the last axis) of unit exponentials made Dirichlet(1, ..., 1) rows
    the way numpy's gamma path does it: each row times the reciprocal of its
    left-to-right (cumulative) sum.  Padded zeros add exactly 0, so
    ``standard_exponential(r * k)`` rows normalized here equal
    ``dirichlet(np.ones(k), size=r)`` bit for bit."""
    return exponentials * (1.0 / exponentials.cumsum(axis=-1)[..., -1:])


def run_axiom_suite(
    family: MeasureFamily,
    n_instances: int = 1000,
    seed: int = 0,
    axioms: tuple = AXIOMS,
) -> list[VerificationResult]:
    """Check the vulnerability axioms on random (prior, channel, refinement,
    gain) draws: point-hyper equality, monotonicity, the two data-processing
    inequalities, prior convexity and quasi-convexity, and avg <= max.

    Each instance draws, in order: nx, ny, nz (``integers(2, 5)`` each); one
    ``standard_exponential`` block for the prior, channel and refinement
    rows; for "finite_random" the action count and a ``uniform(0, 2)`` gain;
    k = ``integers(2, 4)``; one block for the k parts and their weights.
    Every row is then normalized as numpy's Dirichlet(1, ..., 1) gamma path
    does, so the draws equal a per-instance ``Generator.dirichlet`` loop bit
    for bit.  Zero-padded to 4 secrets, outputs and actions (a padded secret
    has no prior mass, so it never weighs in), the suite is scored as one
    stack.  A NaN violation counts as +inf.  A witness holds the draws its
    check read: prior, channel, refinement, the mixed ``parts`` and
    ``weights`` for CVX and QCVX, and a "finite_random" ``gain``.
    """
    if n_instances < 1:
        raise ParameterError("a suite over no instances would pass vacuously")
    if not axioms or any(ax not in AXIOMS for ax in axioms):
        raise ParameterError(f"axioms must be one or more of AXIOMS {AXIOMS}, got {axioms!r}")
    shared = {"identity": IdentityGain(), "simplex": SimplexGain(), "finite_random": None}
    if family.gain not in shared:
        raise ParameterError(f"unknown gain kind {family.gain!r}")
    gain, rng, n, pad = shared[family.gain], np.random.default_rng(seed), n_instances, np.arange(4)
    exponentials, sizes, gains = [], [], np.empty((n, 4, 4))
    for i in range(n):
        nx, ny, nz = (int(rng.integers(2, 5)) for _ in range(3))
        exponentials.append(rng.standard_exponential(nx + nx * ny + ny * nz))
        if gain is None:  # the padding repeats a drawn action row and secret column
            g = rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 5)), nx))
            gains[i] = g[np.minimum(pad, len(g) - 1)][:, np.minimum(pad, nx - 1)]
        k = int(rng.integers(2, 4))
        exponentials.append(rng.standard_exponential(k * (nx + 1)))
        sizes.append((nx, ny, nz, k, len(g) if gain is None else 0))
    sizes = np.array(sizes).T  # nx, ny, nz, parts, actions
    # per instance: prior, 4 channel rows, 4 refinement rows, 3 parts, weights;
    # the drawn cells in row-major order are the draws in their order
    table = np.zeros((n, 13, 4))
    width = np.repeat(sizes[[0, 1, 2, 0, 3]].T, [1, 4, 4, 3, 1], axis=1)  # each row's draws
    one, (nx, ny, _, k) = np.ones((n, 1), dtype=bool), sizes[:4, :, None] > pad  # drawn rows
    drawn, parts = np.hstack([one, nx, ny, k[:, :3], one]), k[:, :3]
    table[drawn[:, :, None] & (pad < width[:, :, None])] = np.concatenate(exponentials)
    table[drawn] = _dirichlet_rows(table[drawn])
    tables, weights, drawn = table[:, :12], table[:, 12, :3], drawn[:, :12]
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

    def witness(i, ax):  # the draws that the check of ax read
        a, b, c, k, m = sizes[:, i]
        drawn = {"instance": i, "prior": tables[i, 0, :a].tolist(),
                 "channel": tables[i, 1:1 + a, :b].tolist(),
                 "refinement": tables[i, 5:5 + b, :c].tolist()}
        if ax in ("CVX", "QCVX"):
            drawn.update(parts=tables[i, 9:9 + k, :a].tolist(), weights=weights[i, :k].tolist())
        if gain is None:
            drawn["gain"] = gains[i, :m, :a].tolist()
        return drawn

    return _result([f"axiom:{ax}:{family.name}" for ax in axioms],
                   violations[[AXIOMS.index(ax) for ax in axioms]], n_instances, _AXIOM_TOLERANCE,
                   lambda row, i: witness(i, axioms[row]))


def _grid_min_expected_loss(prior: Prior, alpha: float) -> float:
    """Brute-force oracle: minimum expected alpha-loss over a simplex grid
    of estimators."""
    grid = simplex_grid(prior.dim, _ORACLE_RESOLUTION)
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
    (d) the minimum expected loss closed form vs a grid-search oracle, on
        the first max(10, n_instances // 20) instances only.
    """
    if n_instances < 1:
        raise ParameterError("a suite over no instances would pass vacuously")
    gain = SimplexGain()

    def mean_route(f, closed, h=None):  # the simplex-gain leakage under (f, h) vs a closed form
        return lambda prior, channel, hyper: abs(leakage(
            gen_prior_vulnerability(prior, gain, f),
            gen_posterior_vulnerability_avg(hyper, gain, f, h or f),
        ) - closed(prior, channel, hyper))

    def grid_gap(prior, a):
        closed, _ = min_expected_alpha_loss(prior, a)
        oracle = _grid_min_expected_loss(prior, a)
        # the grid value can only sit above the true minimum; allow it a
        # resolution-limited margin, none the other way
        return max(closed - oracle, (oracle - closed) - 1e-3, 0.0)

    # each check: name, tolerance, instances compared, per instance its (params, gap) pairs
    with warnings.catch_warnings():  # h_alpha_beta(1.5, 2) is outside the axioms' range
        warnings.simplefilter("ignore", FMeanValidityWarning)
        checks = (
            ("alpha-leakage-equals-arimoto", 1e-8, n_instances, [
                ({"alpha": a},
                 mean_route(f_alpha(a), lambda p, c, hyper, a=a: arimoto_mi(hyper, a)))
                for a in (0.5, 2.0, math.inf)]),
            ("sibson-via-pointwise", 1e-9, n_instances, [
                ({"alpha": a}, lambda p, c, hyper, a=a:
                    abs(sibson_via_pointwise(hyper, p, a) - sibson_mi(p, c, a)))
                for a in (0.5, 2.0, 10.0)]),
            ("alpha-beta-dual-route", 1e-8, n_instances, [
                ({"alpha": a, "beta": b}, mean_route(
                    f_alpha(a), lambda p, c, hyper, a=a, b=b: alpha_beta_leakage(p, c, a, b),
                    h_alpha_beta(a, b) if b != 1.0 else None))
                for a, b in ((1.5, 2.0), (2.0, 1.0), (2.0, 3.0), (5.0, 2.0), (2.0, math.inf))]),
            ("min-alpha-loss-grid-oracle", 1e-8, min(n_instances, max(10, n_instances // 20)),
             [({"alpha": a}, lambda p, c, hyper, a=a: grid_gap(p, a)) for a in (0.5, 2.0, 10.0)]),
        )

    rng = np.random.default_rng(seed)
    info, gaps = [], [[] for _ in checks]
    for i in range(n_instances):
        nx = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        prior = Prior(rng.dirichlet(np.ones(nx)))
        channel = Channel(rng.dirichlet(np.ones(ny), size=nx))
        hyper = push(prior, channel)
        info.append(dict(instance=i, prior=prior.probs.tolist(), channel=channel.matrix.tolist()))
        for (_, _, count, comparisons), out in zip(checks, gaps):
            if i < count:
                out += [gap(prior, channel, hyper) for _, gap in comparisons]

    # a check's gaps run instance-major, so gap i is comparison i % k of instance i // k
    return [_result([f"dual:{name}"], [out], count, tolerance,
                    lambda _, i, c=comparisons: {**info[i // len(c)], **c[i % len(c)][0]})[0]
            for (name, tolerance, count, comparisons), out in zip(checks, gaps)]


@functools.lru_cache(maxsize=8)
def _equivalence_tables(n_x: int, u_max: int, resolution: int, seed: int, draws: int) -> tuple:
    """The equivalence check's priors, maps with their one-hot rows, and stochastic draws,
    read-only and built once while among the last 8 used."""
    priors = np.vstack([simplex_grid(n_x, resolution), np.full((1, n_x), 1.0 / n_x)])
    # H_alpha(U) and H_alpha(U | Y) ignore labels: the restricted-growth
    # strings, one per partition, each its first labeling in product order
    maps = tuple(m for m in product(range(u_max), repeat=n_x)
                 if all(m[i] <= 1 + max(m[:i], default=-1) for i in range(n_x)))
    # per draw n_u, then one exponential block for pi and the conditional rows (zero-padded)
    rng, n_us = np.random.default_rng(seed), []
    pis, conditionals = np.empty((draws, n_x)), np.zeros((draws, n_x, u_max))
    for k in range(draws):
        n_us.append(int(rng.integers(2, u_max + 1)))
        block = rng.standard_exponential(n_x * (n_us[k] + 1))
        pis[k], conditionals[k, :, : n_us[k]] = block[:n_x], block[n_x:].reshape(n_x, -1)
    tables = priors, np.eye(u_max)[list(maps)], _dirichlet_rows(pis), _dirichlet_rows(conditionals)
    for table in tables:
        table.flags.writeable = False
    return (*tables, maps, tuple(n_us))


def verify_maximal_equals_capacity(
    channel: Channel,
    gain: GainSpec,
    f: FMeanSpec,
    h: FMeanSpec,
    sizes: tuple,
    config: SimplexOptimizerConfig | None = None,
) -> VerificationResult:
    """Desk-scale check that guessing a randomized function of the secret
    adds nothing: the best generalized leakage over (prior, deterministic or
    stochastic side channel into U) equals the sup-over-prior capacity of
    the original channel.

    Relabeling U changes no leakage, so one map per partition of X is scored,
    then 40 seeded stochastic maps: ``instances_checked`` counts the (prior,
    map) systems covered and the draws, ``systems_scored`` the rows computed,
    and a witness ``map`` is its partition's representative.  The enumeration
    side must stay within 2e-2 of the optimizer side (both grid-limited) and
    never exceed it beyond 1e-9; ``max_violation`` is the excess over those
    fixed allowances, so the tolerance is 0.  A non-finite leakage of any
    system, map or draw alike, counts in ``non_finite_values`` and makes it +inf.
    Priors, maps and draws are built once per sizes, grid and seed
    (:func:`_equivalence_tables`); a map sums blocks of one pi_x C_xy table.
    """
    cfg = config or SimplexOptimizerConfig(grid_resolution=100)
    n_x, u_max = sizes
    if n_x != channel.n_inputs:
        raise ParameterError("sizes[0] must match the channel input count")
    if n_x > 3 or not 2 <= u_max <= 4:
        raise ParameterError("enumeration is feasible only for |X| <= 3, 2 <= |U| <= 4")
    if not isinstance(gain, (IdentityGain, SimplexGain)):
        raise ParameterError("the equivalence check needs an alphabet-generic gain")
    classical = f.is_affine and h.is_affine
    # only f_alpha sets alpha on a power or log mean, so it is that mean's own order
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
    priors, onehots, pis, conditionals, maps, n_us = _equivalence_tables(
        n_x, u_max, cfg.grid_resolution, cfg.seed, _STOCHASTIC_DRAWS)

    # Bayes multiplicative leakage is the Arimoto information of order inf
    order = AlphaOrder.of(math.inf if classical else f.alpha)

    # one stack scores the maps map-major over the priors, then the draws
    split = len(maps) * len(priors)
    joints = np.empty((split + _STOCHASTIC_DRAWS, channel.n_outputs, u_max))  # rows p(y, .)
    np.matmul((priors[:, :, None] * C).swapaxes(1, 2), onehots[:, None],
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
        abs(lhs - rhs) - _AGREEMENT_TOLERANCE,
        structural_excess - 1e-9,
    )
    return VerificationResult(
        theorem_id="maximal-leakage-equals-capacity",
        instances_checked=priors.shape[0] * (u_max**n_x) + _STOCHASTIC_DRAWS,
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
