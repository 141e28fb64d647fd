"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np

from qifkit.alpha import (
    alpha_loss,
    arimoto_conditional_entropy,
    arimoto_mi,
    min_expected_alpha_loss,
    pointwise_alpha_leakage,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
    sibson_via_pointwise,
)
from qifkit.capacity import (
    SimplexOptimizerConfig,
    alpha_beta_leakage,
    bayes_capacity,
    ldp_leakage,
    maximal_alpha_beta_leakage,
    multiplicative_f_capacity,
    renyi_ldp,
)
from qifkit.core import push
from qifkit.fmeans import custom_fmean, f_alpha, identity_fmean
from qifkit.gains import FiniteMatrixGain, IdentityGain, SimplexGain
from qifkit.simplex import simplex_grid
from qifkit.verify import (
    MeasureFamily,
    alpha_family,
    classical_family,
    run_axiom_suite,
    verify_maximal_equals_capacity,
)
from qifkit.vulnerability import (
    gen_posterior_vulnerability_avg,
    gen_prior_vulnerability,
    leakage,
)

from conftest import bsc, random_channel, random_prior


def _report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"[ACCEPTANCE {number}] {status} {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_closed_form_regression():
    started = time.time()
    channel = bsc(0.1)
    errs = [
        abs(bayes_capacity(channel) - math.log(1.8)),
        abs(ldp_leakage(channel) - math.log(9.0)),
        abs(renyi_ldp(channel, 2) - math.log(0.81 / 0.1 + 0.01 / 0.9)),
    ]
    _report(
        1,
        "closed-form regression on BSC(0.1)",
        max(errs) <= 1e-12 and time.time() - started < 1.0,
        f"max error {max(errs):.2e} vs 1e-12",
        started,
    )


def test_criterion_2_alpha_vulnerability_theorem():
    started = time.time()
    rng = np.random.default_rng(2024)
    gain = SimplexGain()
    orders = (0.0, 0.5, 1.0, 2.0, 10.0, math.inf)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        prior = random_prior(rng, dim)
        for a in orders:
            closed = gen_prior_vulnerability(prior, gain, f_alpha(a))
            worst = max(worst, abs(closed - math.exp(-renyi_entropy(prior, a))))
    grid_shortfall = 0.0   # closed form below a feasible grid point
    grid_gap = 0.0         # closed form above the best grid point
    for dim in (2, 3):
        grid = simplex_grid(dim, 200)
        for a in (0.5, 2.0, 10.0):
            f = f_alpha(a)
            forwarded = np.asarray(f.forward(grid), dtype=float)
            for _ in range(15):
                prior = random_prior(rng, dim)
                closed = gen_prior_vulnerability(prior, gain, f)
                means = np.where(prior.probs[None, :] > 0, forwarded, 0.0) @ prior.probs
                best = means.max() if f.increasing else means.min()
                gridded = float(f.inverse(best))
                grid_shortfall = max(grid_shortfall, gridded - closed)
                grid_gap = max(grid_gap, closed - gridded)
    ok = worst <= 1e-9 and grid_shortfall <= 1e-12 and grid_gap <= 5e-3
    _report(
        2,
        "alpha-vulnerability closed form",
        ok and time.time() - started < 60.0,
        f"max |closed - exp(-H)| {worst:.2e} vs 1e-9; grid gap {grid_gap:.2e} vs 5e-3",
        started,
    )


def test_criterion_3_alpha_leakage_identity():
    started = time.time()
    rng = np.random.default_rng(31)
    gain = SimplexGain()
    worst = 0.0
    for _ in range(1000):
        nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        hyper = push(prior, channel)
        for a in (0.5, 2.0, math.inf):
            f = f_alpha(a)
            mult = leakage(
                gen_prior_vulnerability(prior, gain, f),
                gen_posterior_vulnerability_avg(hyper, gain, f, f),
            )
            worst = max(worst, abs(mult - arimoto_mi(hyper, a)))
    _report(
        3,
        "generalized leakage equals Arimoto MI",
        worst <= 1e-8 and time.time() - started < 60.0,
        f"max violation {worst:.2e} vs 1e-8",
        started,
    )


def test_criterion_4_sibson_identity():
    started = time.time()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        hyper = push(prior, channel)
        for a in (0.5, 2.0, 10.0):
            worst = max(
                worst,
                abs(sibson_via_pointwise(hyper, prior, a) - sibson_mi(prior, channel, a)),
            )
    _report(
        4,
        "pointwise aggregation equals Sibson MI",
        worst <= 1e-9 and time.time() - started < 60.0,
        f"max violation {worst:.2e} vs 1e-9",
        started,
    )


def test_criterion_5_alpha_beta_collapse_and_capacity():
    started = time.time()
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(1000):
        nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        hyper = push(prior, channel)
        for a in (1.5, 2.0, 5.0):
            worst = max(
                worst, abs(alpha_beta_leakage(prior, channel, a, 1.0) - arimoto_mi(hyper, a))
            )
    channel = bsc(0.1)
    config = SimplexOptimizerConfig(
        restarts=8, grid_resolution=60, vertex_epsilon_sequence=(10, 100, 1000, 10000), seed=5
    )
    cap, _, diagnostics = maximal_alpha_beta_leakage(channel, 2.0, 2.0, config)
    target = renyi_ldp(channel, 2)
    cap_gap = abs(cap - target)
    vertex_best = diagnostics["vertex_trend"][10000]
    ok = worst <= 1e-8 and cap_gap <= 1e-3 and abs(vertex_best - target) <= 1e-3
    _report(
        5,
        "two-parameter collapse and Renyi-LDP capacity",
        ok and time.time() - started < 120.0,
        f"beta=1 violation {worst:.2e} vs 1e-8; capacity gap {cap_gap:.2e} vs 1e-3",
        started,
    )


def test_criterion_6_maximal_equals_capacity_desk_scale():
    started = time.time()
    rng = np.random.default_rng(61)
    config = SimplexOptimizerConfig(restarts=8, grid_resolution=100, seed=6)
    ident = identity_fmean()
    f2 = f_alpha(2.0)
    agreement_worst = 0.0
    excess_worst = 0.0
    for index in range(20):
        n = 2 if index < 10 else 3
        channel = random_channel(rng, n, n)
        for gain, f, h in (
            (IdentityGain(), ident, ident),
            (SimplexGain(), f2, f2),
        ):
            result = verify_maximal_equals_capacity(channel, gain, f, h, (n, 4), config)
            info = result.worst_instance
            agreement_worst = max(agreement_worst, abs(info["lhs"] - info["rhs"]))
            excess_worst = max(excess_worst, info["structural_excess"])
            assert result.passed, info
    ok = agreement_worst <= 2e-2 and excess_worst <= 1e-9
    _report(
        6,
        "randomized-function guessing equals capacity",
        ok and time.time() - started < 300.0,
        f"max |LHS-RHS| {agreement_worst:.2e} vs 2e-2; max excess {excess_worst:.2e} vs 1e-9",
        started,
    )


def test_criterion_7_axiom_suites_with_negative_control():
    started = time.time()
    families = [classical_family()] + [alpha_family(a) for a in (0.5, 2.0, math.inf)]
    worst = 0.0
    for family in families:
        results = run_axiom_suite(family, n_instances=1000, seed=7)
        worst = max(worst, max(r.max_violation for r in results))
        assert all(r.passed for r in results), family.name
    bad_h = custom_fmean(
        lambda t: 1.0 / np.asarray(t, dtype=float),
        lambda s: 1.0 / np.asarray(s, dtype=float),
        "decreasing",
        "convex",
        domain=(1e-9, math.inf),
        name="reciprocal",
    )
    control = MeasureFamily(
        "corrupted-h", identity_fmean(), bad_h, "identity", enforce_h_class=False
    )
    control_results = run_axiom_suite(control, n_instances=1000, seed=7, axioms=("DPI_AVG",))
    control_failed = not control_results[0].passed
    ok = worst <= 1e-9 and control_failed
    _report(
        7,
        "axiom suites plus negative control",
        ok and time.time() - started < 120.0,
        f"max violation {worst:.2e} vs 1e-9; negative control failed: {control_failed}",
        started,
    )


def test_criterion_8_multiplicative_inverse_capacity():
    started = time.time()
    rng = np.random.default_rng(81)
    channel = bsc(0.1)
    base = bayes_capacity(channel)
    closed_err = 0.0
    specs = {1: identity_fmean(), 2: f_alpha(2.0), 3: f_alpha(1.5)}
    for k, spec in specs.items():  # inverse s -> s^k
        closed_err = max(
            closed_err, abs(multiplicative_f_capacity(channel, spec) - k * base)
        )
    bound_excess = 0.0
    f = specs[2]
    cap = multiplicative_f_capacity(channel, f)
    for _ in range(1000):
        prior = random_prior(rng, 2)
        gain = FiniteMatrixGain(rng.uniform(0.0, 3.0, size=(int(rng.integers(2, 5)), 2)))
        hyper = push(prior, channel)
        v_prior = gen_prior_vulnerability(prior, gain, f)
        if v_prior == 0.0:
            continue
        value = leakage(v_prior, gen_posterior_vulnerability_avg(hyper, gain, f, f))
        bound_excess = max(bound_excess, value - cap)
    ok = closed_err <= 1e-12 and bound_excess <= 1e-9
    _report(
        8,
        "multiplicative-inverse capacity",
        ok and time.time() - started < 60.0,
        f"closed-form error {closed_err:.2e} vs 1e-12; max excess {bound_excess:.2e} vs 1e-9",
        started,
    )


def test_criterion_9_limit_continuity():
    started = time.time()
    rng = np.random.default_rng(91)
    worst_one = 0.0
    worst_inf = 0.0
    for _ in range(100):
        nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
        prior = random_prior(rng, nx)
        other = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        hyper = push(prior, channel)
        p_hat = float(rng.uniform(0.05, 0.95))
        gain = SimplexGain()

        near_one = [
            (renyi_entropy(prior, 1.0), renyi_entropy(prior, 1.0001)),
            (renyi_entropy(prior, 1.0), renyi_entropy(prior, 0.9999)),
            (renyi_divergence(other, prior, 1.0), renyi_divergence(other, prior, 1.0001)),
            (
                arimoto_conditional_entropy(hyper, 1.0),
                arimoto_conditional_entropy(hyper, 1.0001),
            ),
            (arimoto_mi(hyper, 1.0), arimoto_mi(hyper, 0.9999)),
            (sibson_mi(prior, channel, 1.0), sibson_mi(prior, channel, 1.0001)),
            (alpha_loss(p_hat, 1.0), alpha_loss(p_hat, 1.0001)),
            (alpha_loss(p_hat, 1.0), alpha_loss(p_hat, 0.9999)),
            (
                min_expected_alpha_loss(prior, 1.0)[0],
                min_expected_alpha_loss(prior, 1.0001)[0],
            ),
            (
                pointwise_alpha_leakage(prior, other, 1.0),
                pointwise_alpha_leakage(prior, other, 0.9999),
            ),
            (
                sibson_via_pointwise(hyper, prior, 1.0),
                sibson_via_pointwise(hyper, prior, 1.0001),
            ),
            (
                gen_prior_vulnerability(prior, gain, f_alpha(1.0)),
                gen_prior_vulnerability(prior, gain, f_alpha(1.0001)),
            ),
        ]
        big = 1e6
        near_inf = [
            (renyi_entropy(prior, math.inf), renyi_entropy(prior, big)),
            (renyi_divergence(other, prior, math.inf), renyi_divergence(other, prior, big)),
            (
                arimoto_conditional_entropy(hyper, math.inf),
                arimoto_conditional_entropy(hyper, big),
            ),
            (arimoto_mi(hyper, math.inf), arimoto_mi(hyper, big)),
            (sibson_mi(prior, channel, math.inf), sibson_mi(prior, channel, big)),
            (alpha_loss(p_hat, math.inf), alpha_loss(p_hat, big)),
            (
                min_expected_alpha_loss(prior, math.inf)[0],
                min_expected_alpha_loss(prior, big)[0],
            ),
            (
                pointwise_alpha_leakage(prior, other, math.inf),
                pointwise_alpha_leakage(prior, other, big),
            ),
            (
                sibson_via_pointwise(hyper, prior, math.inf),
                sibson_via_pointwise(hyper, prior, big),
            ),
            (
                gen_prior_vulnerability(prior, gain, f_alpha(math.inf)),
                gen_prior_vulnerability(prior, gain, f_alpha(big)),
            ),
            (renyi_ldp(channel, math.inf), renyi_ldp(channel, big)),
            (
                alpha_beta_leakage(prior, channel, math.inf, 2.0),
                alpha_beta_leakage(prior, channel, big, 2.0),
            ),
        ]
        for exact, approx in near_one:
            if math.isinf(exact) and math.isinf(approx):
                continue
            worst_one = max(worst_one, abs(exact - approx))
        for exact, approx in near_inf:
            if math.isinf(exact) and math.isinf(approx):
                continue
            worst_inf = max(worst_inf, abs(exact - approx))
    ok = worst_one <= 1e-2 and worst_inf <= 1e-3
    _report(
        9,
        "limit continuity at the branch points",
        ok and time.time() - started < 30.0,
        f"near 1: {worst_one:.2e} vs 1e-2; near inf: {worst_inf:.2e} vs 1e-3",
        started,
    )
