import math

import numpy as np
import pytest

from qifkit.alpha import arimoto_mi, sibson_mi
from qifkit.capacity import (
    SimplexOptimizerConfig,
    alpha_beta_capacity_objective,
    alpha_beta_leakage,
    bayes_capacity,
    ldp_leakage,
    max_case_capacity_bound,
    maximal_alpha_beta_leakage,
    maximal_alpha_leakage,
    multiplicative_f_capacity,
    renyi_ldp,
    sup_over_prior,
)
from qifkit.core import Channel, Prior, ni_channel, push
from qifkit.errors import ParameterError
from qifkit.fmeans import f_alpha, identity_fmean
from qifkit.gains import FiniteMatrixGain
from qifkit.vulnerability import (
    gen_posterior_vulnerability_avg,
    gen_prior_vulnerability,
    leakage,
    posterior_vulnerability_avg,
    posterior_vulnerability_max,
    prior_vulnerability,
)

from conftest import bsc, random_channel, random_prior

FAST = SimplexOptimizerConfig(restarts=6, grid_resolution=40, seed=3)


def test_bayes_capacity_examples():
    assert bayes_capacity(Channel.identity(4)) == pytest.approx(math.log(4))
    assert bayes_capacity(ni_channel(3)) == pytest.approx(0.0, abs=1e-15)
    assert bayes_capacity(bsc(0.1)) == pytest.approx(math.log(1.8))


def test_ldp_leakage_examples():
    assert ldp_leakage(ni_channel(3)) == pytest.approx(0.0, abs=1e-15)
    assert ldp_leakage(Channel.identity(2)) == math.inf
    assert ldp_leakage(bsc(0.1)) == pytest.approx(math.log(9))


def test_renyi_ldp_examples():
    assert renyi_ldp(ni_channel(4), 2) == pytest.approx(0.0, abs=1e-12)
    assert renyi_ldp(bsc(0.1), math.inf) == pytest.approx(math.log(9))
    assert renyi_ldp(bsc(0.1), 2) == pytest.approx(math.log(0.81 / 0.1 + 0.01 / 0.9))
    assert renyi_ldp(Channel.identity(2), 2) == math.inf
    with pytest.raises(ParameterError):
        renyi_ldp(bsc(0.1), 1.0)
    with pytest.raises(ParameterError):
        renyi_ldp(bsc(0.1), 0.5)


def test_alpha_beta_leakage_examples(rng):
    for _ in range(30):
        nx, ny = rng.integers(2, 5, size=2)
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        assert alpha_beta_leakage(prior, channel, 2.0, 1.0) == pytest.approx(
            arimoto_mi(push(prior, channel), 2.0), abs=1e-9
        )
    assert alpha_beta_leakage(Prior([0.4, 0.6]), ni_channel(2), 3.0, 2.0) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ParameterError):
        alpha_beta_leakage(Prior.uniform(2), bsc(0.1), 0.5, 2.0)
    with pytest.raises(ParameterError):
        alpha_beta_leakage(Prior.uniform(2), bsc(0.1), 2.0, 0.5)


def test_alpha_beta_limit_branches_are_continuous():
    prior = Prior([0.3, 0.7])
    channel = bsc(0.15)
    at_inf = alpha_beta_leakage(prior, channel, math.inf, 2.0)
    assert at_inf == pytest.approx(alpha_beta_leakage(prior, channel, 1e6, 2.0), abs=1e-3)
    b_inf = alpha_beta_leakage(prior, channel, 2.0, math.inf)
    assert b_inf == pytest.approx(alpha_beta_leakage(prior, channel, 2.0, 400.0), abs=1e-2)


def test_sup_over_prior_constant_objective():
    value, witness, diagnostics = sup_over_prior(lambda p: 0.0, 3, FAST)
    assert value == 0.0
    assert witness.dim == 3
    assert diagnostics["evaluations"] > 0


def test_sup_over_prior_counts_every_objective_call():
    calls = {"all": 0, "nan": 0}

    def objective(p):
        calls["all"] += 1
        if p[0] > 0.95:
            calls["nan"] += 1
            return math.nan
        return -((p[0] - 0.3) ** 2)

    value, _, diagnostics = sup_over_prior(objective, 2, FAST)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert diagnostics["evaluations"] == calls["all"]
    assert diagnostics["nan_evaluations"] == calls["nan"] > 0


def test_sup_over_prior_identity_channel_capacity():
    ident = Channel.identity(2)

    def objective(p):
        return arimoto_mi(push(Prior(p), ident), 2.0)

    value, witness, _ = sup_over_prior(objective, 2, FAST)
    assert value == pytest.approx(math.log(2), abs=1e-9)
    assert np.allclose(witness.probs, 0.5, atol=1e-4)


def test_maximal_alpha_leakage_routes_agree(rng):
    for _ in range(3):
        nx, ny = rng.integers(2, 4, size=2)
        channel = random_channel(rng, nx, ny)
        for a in (0.5, 2.0):
            def via_a(p):
                return arimoto_mi(push(Prior(p), channel), a)

            def via_s(p):
                return sibson_mi(Prior(p), channel, a)

            val_a, _, _ = sup_over_prior(via_a, nx, FAST)
            val_s, _, _ = sup_over_prior(via_s, nx, FAST)
            assert val_a == pytest.approx(val_s, abs=1e-6)


def test_maximal_alpha_leakage_infty_is_bayes_capacity(rng):
    for _ in range(3):
        channel = random_channel(rng, 3, 3)
        value, _, _ = maximal_alpha_leakage(channel, math.inf, FAST)
        assert value == pytest.approx(bayes_capacity(channel), abs=1e-6)


def test_maximal_alpha_beta_vertex_trend_reaches_renyi_ldp():
    channel = bsc(0.1)
    target = renyi_ldp(channel, 2)
    value, _, diagnostics = maximal_alpha_beta_leakage(channel, 2.0, 2.0, FAST)
    assert value <= target + 1e-9
    assert abs(value - target) < 1e-3
    trend = diagnostics["vertex_trend"]
    levels = [trend[n] for n in sorted(trend)]
    assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
    assert all(level <= target + 1e-9 for level in levels)


def test_alpha_beta_capacity_objective_beta1_is_sibson(rng):
    channel = random_channel(rng, 3, 3)
    objective = alpha_beta_capacity_objective(channel, 2.0, 1.0)
    for _ in range(20):
        p = random_prior(rng, 3)
        assert objective(p.probs) == pytest.approx(sibson_mi(p, channel, 2.0), abs=1e-9)


def test_classical_leakage_bounded_by_capacities(rng):
    for _ in range(200):
        nx, ny = rng.integers(2, 5, size=2)
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        gain = FiniteMatrixGain(rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 5)), nx)))
        hyper = push(prior, channel)
        v_prior = prior_vulnerability(prior, gain)
        if v_prior == 0.0:
            continue
        avg = leakage(v_prior, posterior_vulnerability_avg(hyper, gain))
        assert avg <= bayes_capacity(channel) + 1e-9
        worst = leakage(v_prior, posterior_vulnerability_max(hyper, gain))
        assert worst <= ldp_leakage(channel) + 1e-9


def test_multiplicative_f_capacity_powers():
    channel = bsc(0.1)
    assert multiplicative_f_capacity(channel, identity_fmean()) == bayes_capacity(channel)
    # forward sqrt means the inverse squares: capacity doubles in log scale
    half = f_alpha(2.0)
    assert multiplicative_f_capacity(channel, half) == pytest.approx(
        2.0 * math.log(1.8)
    )
    assert multiplicative_f_capacity(ni_channel(3), half) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        multiplicative_f_capacity(channel, f_alpha(1.0))  # exp inverse


def test_generalized_leakage_bounded_by_f_capacity(rng):
    channel = bsc(0.1)
    f = f_alpha(2.0)
    cap = multiplicative_f_capacity(channel, f)
    for _ in range(100):
        prior = random_prior(rng, 2)
        gain = FiniteMatrixGain(rng.uniform(0.0, 3.0, size=(int(rng.integers(2, 4)), 2)))
        hyper = push(prior, channel)
        v_prior = gen_prior_vulnerability(prior, gain, f)
        if v_prior == 0.0:
            continue
        value = leakage(v_prior, gen_posterior_vulnerability_avg(hyper, gain, f, f))
        assert value <= cap + 1e-9


def test_max_case_capacity_bound_examples():
    channel = bsc(0.1)
    assert max_case_capacity_bound(channel, identity_fmean()) == pytest.approx(math.log(9))
    # inverse squares the LDP ratio
    assert max_case_capacity_bound(channel, f_alpha(2.0)) == pytest.approx(2 * math.log(9))
    assert max_case_capacity_bound(ni_channel(4), identity_fmean()) == pytest.approx(
        0.0, abs=1e-12
    )
    # decreasing inverse flips the ratio
    dec = f_alpha(0.5)  # forward t^-1, inverse s^-1
    assert max_case_capacity_bound(channel, dec) == pytest.approx(math.log(9))


def test_max_case_bound_dominates_max_leakage(rng):
    channel = bsc(0.1)
    f = f_alpha(2.0)
    bound = max_case_capacity_bound(channel, f)
    for _ in range(50):
        prior = random_prior(rng, 2)
        gain = FiniteMatrixGain(rng.uniform(0.0, 3.0, size=(3, 2)))
        hyper = push(prior, channel)
        v_prior = gen_prior_vulnerability(prior, gain, f)
        if v_prior == 0.0:
            continue
        from qifkit.vulnerability import gen_posterior_vulnerability_max

        value = leakage(v_prior, gen_posterior_vulnerability_max(hyper, gain, f))
        assert value <= bound + 1e-9
