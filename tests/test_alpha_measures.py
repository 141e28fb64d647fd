import math
import warnings

import numpy as np
import pytest

from qifkit import alpha as alpha_module
from qifkit.alpha import (
    AlphaOrder,
    _arimoto,
    _renyi_entropies,
    _sibson,
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
from qifkit.capacity import alpha_beta_leakage
from qifkit.core import Channel, Prior, ni_channel, push
from qifkit.errors import DimensionMismatch, ParameterError
from qifkit.simplex import simplex_grid

from conftest import bsc, random_channel, random_prior

ALPHAS = (0.0, 0.5, 1.0, 2.0, 10.0, math.inf)


def test_alpha_order_branches():
    assert AlphaOrder.of(0).branch == "zero"
    assert AlphaOrder.of(0.3).branch == "open_unit"
    assert AlphaOrder.of(1).branch == "one"
    assert AlphaOrder.of(7).branch == "finite_gt1"
    assert AlphaOrder.of(math.inf).branch == "infinity"
    with pytest.raises(ParameterError):
        AlphaOrder.of(-1)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_renyi_entropy_uniform_and_point_mass(alpha):
    assert renyi_entropy(Prior.uniform(4), alpha) == pytest.approx(math.log(4))
    assert renyi_entropy(Prior([1.0, 0.0]), alpha) == pytest.approx(0.0, abs=1e-12)


def test_renyi_entropy_order2_value():
    # sum of squares 0.5625 + 0.0625 = 0.625
    assert renyi_entropy(Prior([0.75, 0.25]), 2) == pytest.approx(-math.log(0.625))


def test_renyi_divergence_examples():
    u = Prior([0.5, 0.5])
    assert renyi_divergence(u, u, 2) == pytest.approx(0.0, abs=1e-12)
    for a in ALPHAS[1:]:
        assert renyi_divergence(u, u, a) == pytest.approx(0.0, abs=1e-12)
    assert renyi_divergence(Prior([1.0, 0.0]), u, math.inf) == pytest.approx(math.log(2))
    # sum mu^2/pi = (0.81 + 0.01) / 0.5
    assert renyi_divergence(Prior([0.9, 0.1]), u, 2) == pytest.approx(math.log(1.64))


def test_renyi_divergence_support_violation():
    mu = Prior([0.5, 0.5])
    pi = Prior([1.0, 0.0])
    for a in (0.5, 1.0, 2.0, math.inf):
        assert renyi_divergence(mu, pi, a) == math.inf
    # order 0 only measures pi's mass on mu's support
    assert renyi_divergence(mu, pi, 0) == pytest.approx(0.0, abs=1e-12)


def test_renyi_divergence_monotone_in_alpha(rng):
    orders = (0.0, 0.3, 0.7, 1.0, 1.5, 3.0, 8.0, math.inf)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        mu, pi = random_prior(rng, dim), random_prior(rng, dim)
        values = [renyi_divergence(mu, pi, a) for a in orders]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_arimoto_conditional_entropy_branches(rng):
    prior = Prior([0.2, 0.5, 0.3])
    for a in ALPHAS:
        point = push(prior, ni_channel(3))
        assert arimoto_conditional_entropy(point, a) == pytest.approx(
            renyi_entropy(prior, a), abs=1e-9
        )
        ident = push(prior, Channel.identity(3))
        assert arimoto_conditional_entropy(ident, a) == pytest.approx(0.0, abs=1e-12)
    hyper = push(Prior.uniform(2), bsc(0.1))
    assert arimoto_conditional_entropy(hyper, math.inf) == pytest.approx(-math.log(0.9))


def test_arimoto_mi_examples():
    hyper = push(Prior.uniform(2), bsc(0.1))
    assert arimoto_mi(hyper, math.inf) == pytest.approx(math.log(1.8))
    for a in ALPHAS:
        ni = push(Prior([0.4, 0.6]), ni_channel(2))
        assert arimoto_mi(ni, a) == pytest.approx(0.0, abs=1e-9)
        ident = push(Prior.uniform(3), Channel.identity(3))
        assert arimoto_mi(ident, a) == pytest.approx(math.log(3), abs=1e-9)


def test_sibson_mi_examples(rng):
    prior = Prior.uniform(2)
    assert sibson_mi(prior, ni_channel(2), 2) == pytest.approx(0.0, abs=1e-12)
    assert sibson_mi(prior, bsc(0.1), math.inf) == pytest.approx(math.log(1.8))
    # order 1 agrees with Arimoto (both are Shannon MI)
    for _ in range(20):
        nx, ny = rng.integers(2, 5, size=2)
        p = random_prior(rng, nx)
        ch = random_channel(rng, nx, ny)
        assert sibson_mi(p, ch, 1) == pytest.approx(arimoto_mi(push(p, ch), 1), abs=1e-10)


def test_mutual_informations_nonnegative(rng):
    for _ in range(100):
        nx, ny = rng.integers(2, 5, size=2)
        p = random_prior(rng, nx)
        ch = random_channel(rng, nx, ny)
        hyper = push(p, ch)
        for a in (0.5, 1.0, 2.0, 10.0, math.inf):
            assert arimoto_mi(hyper, a) >= -1e-9
            assert sibson_mi(p, ch, a) >= -1e-9


def test_alpha_loss_examples():
    for a in (0.5, 1.0, 2.0, math.inf):
        assert alpha_loss(1.0, a) == pytest.approx(0.0, abs=1e-12)
    assert alpha_loss(0.3, math.inf) == pytest.approx(0.7)
    assert alpha_loss(0.25, 2.0) == pytest.approx(1.0)  # 2 * (1 - 0.5)
    with pytest.raises(ParameterError):
        alpha_loss(0.5, 0.0)
    with pytest.raises(ParameterError):
        alpha_loss(1.5, 2.0)


def test_min_expected_alpha_loss_closed_forms():
    value, minimizer = min_expected_alpha_loss(Prior([1.0, 0.0]), 2.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(minimizer.probs, [1.0, 0.0])
    for n in (2, 3, 5):
        value, minimizer = min_expected_alpha_loss(Prior.uniform(n), 2.0)
        assert value == pytest.approx(2.0 * (1.0 - n**-0.5))
        assert np.allclose(minimizer.probs, 1.0 / n)
    with pytest.raises(ParameterError):
        min_expected_alpha_loss(Prior.uniform(2), 0.0)


def test_min_expected_alpha_loss_against_grid(rng):
    # brute-force oracle: sweep estimators over a fine simplex grid
    grid = simplex_grid(3, 200)
    for _ in range(5):
        prior = random_prior(rng, 3)
        for a in (0.5, 2.0, 10.0):
            closed, minimizer = min_expected_alpha_loss(prior, a)
            losses = np.array(
                [
                    sum(p * alpha_loss(float(w), a) for p, w in zip(prior.probs, row))
                    for row in grid
                ]
            )
            oracle = float(losses.min())
            assert closed <= oracle + 1e-10
            assert oracle - closed <= 1e-3
            direct = sum(
                p * alpha_loss(float(w), a) for p, w in zip(prior.probs, minimizer.probs)
            )
            assert direct == pytest.approx(closed, abs=1e-10)


def test_min_expected_alpha_loss_minimizer_is_the_tilted_prior(rng):
    # p^alpha / sum p^alpha, written with the largest entry factored out
    with_zero = rng.dirichlet(np.ones(6))
    with_zero[2] = 0.0
    for prior in (random_prior(rng, 6), Prior(with_zero / with_zero.sum())):
        for a in (0.5, 2.0, 10.0, 1e3, 1e6):
            powered = (prior.probs / prior.probs.max()) ** a
            _, minimizer = min_expected_alpha_loss(prior, a)
            assert np.allclose(minimizer.probs, powered / powered.sum(), rtol=0.0, atol=1e-12)
            assert not minimizer.probs[prior.probs == 0.0].any()


def test_pointwise_alpha_leakage_examples():
    u = Prior([0.5, 0.5])
    assert pointwise_alpha_leakage(u, u, 2) == pytest.approx(0.0, abs=1e-12)
    assert pointwise_alpha_leakage(u, Prior([1.0, 0.0]), math.inf) == pytest.approx(math.log(2))
    assert pointwise_alpha_leakage(u, Prior([0.9, 0.1]), 2) == pytest.approx(math.log(1.64))
    assert pointwise_alpha_leakage(Prior([1.0, 0.0]), u, 2) == math.inf


def test_pointwise_leakage_matches_mean_optimization_oracle(rng):
    # the defining optimization over guess distributions, on an interior grid
    eps = 1e-6
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        prior = random_prior(rng, dim)
        posterior = random_prior(rng, dim)
        grid = (1.0 - eps * dim) * simplex_grid(dim, 150) + eps
        for a in (0.5, 2.0, 10.0):
            rate = (a - 1.0) / a
            ratios = np.log(grid) - np.log(prior.probs)[None, :]
            means = (np.exp(rate * ratios) * posterior.probs[None, :]).sum(axis=1)
            best = means.max() if rate > 0 else means.min()
            oracle = math.log(best) / rate
            assert pointwise_alpha_leakage(prior, posterior, a) == pytest.approx(
                oracle, abs=5e-3
            )


def test_sibson_via_pointwise_matches_direct(rng):
    for _ in range(100):
        nx, ny = rng.integers(2, 5, size=2)
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        hyper = push(prior, channel)
        for a in ALPHAS:
            assert sibson_via_pointwise(hyper, prior, a) == pytest.approx(
                sibson_mi(prior, channel, a), abs=1e-9
            )


def test_sibson_mi_gives_the_stacks_bits(rng):
    raw = rng.dirichlet(np.ones(6), size=20)
    raw[4, 0] = 0.0
    priors = [Prior(row / row.sum()) for row in raw]
    P = np.stack([prior.probs for prior in priors])
    channel = random_channel(rng, 6, 5)
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, 10.0, 1e3, 1e6, math.inf):
        stacked = _sibson(P, channel.matrix, AlphaOrder.of(alpha))
        assert [sibson_mi(prior, channel, alpha) for prior in priors] == stacked.tolist()


def test_renyi_divergence_rows_keep_each_rows_rules():
    # pointwise leakages over a hyper's inners: one ordinary row, one with
    # mass off the reference's support and one point mass
    q = Prior([0.5, 0.5, 0.0])
    rows = [Prior([0.2, 0.8, 0.0]), Prior([0.1, 0.1, 0.8]), Prior([1.0, 0.0, 0.0])]
    expected = {
        0.0: [0.0, 0.0, math.log(2)],
        0.5: [-2 * math.log(math.sqrt(0.1) + math.sqrt(0.4)), math.inf, math.log(2)],
        1.0: [0.2 * math.log(0.4) + 0.8 * math.log(1.6), math.inf, math.log(2)],
        2.0: [math.log(0.08 + 1.28), math.inf, math.log(2)],
        math.inf: [math.log(1.6), math.inf, math.log(2)],
    }
    hyper = push(Prior([0.4, 0.6, 0.0]), Channel([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]]))
    for a, values in expected.items():
        for row, value in zip(rows, values):
            assert renyi_divergence(row, q, a) == pytest.approx(value, abs=1e-12)
            assert pointwise_alpha_leakage(q, row, a) == pytest.approx(value, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        renyi_divergence(Prior.uniform(2), q, 2.0)
    with pytest.raises(DimensionMismatch):
        sibson_via_pointwise(hyper, Prior.uniform(2), 2.0)


def sibson_of_row(p, C, a):
    """Sibson mutual information of one prior, written out per order over
    the secrets in the prior's support."""
    xs = [x for x in range(len(p)) if p[x] > 0]
    ys = range(C.shape[1])
    if a == 0:
        return -math.log(max(sum(p[x] for x in xs if C[x, y] > 0) for y in ys))
    if a == 1:
        q = [sum(p[x] * C[x, y] for x in xs) for y in ys]
        return sum(p[x] * C[x, y] * math.log(C[x, y] / q[y])
                   for x in xs for y in ys if C[x, y] > 0)
    if a == math.inf:
        return math.log(sum(max(C[x, y] for x in xs) for y in ys))
    total = sum(sum(p[x] * C[x, y] ** a for x in xs) ** (1 / a) for y in ys)
    return a / (a - 1) * math.log(total)


def test_sibson_stack_matches_per_row_closed_forms():
    rng = np.random.default_rng(17)
    channels = [
        random_channel(rng, 3, 4).matrix,
        np.array([[0.5, 0.0, 0.5, 0.0], [0.1, 0.0, 0.2, 0.7], [0.0, 0.0, 0.6, 0.4]]),
    ]
    stack = np.array([
        rng.dirichlet(np.ones(3)),
        [0.3, 0.0, 0.7],
        [0.0, 1.0, 0.0],
        [1.0 / 3, 1.0 / 3, 1.0 / 3],
        [0.0, 0.25, 0.75],
    ])
    for C in channels:
        for a in (0.0, 0.5, 1.0, 2.0, 50.0, math.inf):
            values = _sibson(stack, C, AlphaOrder.of(a))
            assert values.shape == (len(stack),)
            for p, value in zip(stack, values):
                assert value == pytest.approx(sibson_of_row(p, C, a), rel=1e-12, abs=1e-12)
                assert sibson_mi(Prior(p), Channel(C), a) == pytest.approx(value, rel=1e-14)


def test_sibson_order_zero_is_exactly_zero_when_an_output_is_shared():
    rng = np.random.default_rng(31)
    channels = [bsc(0.1), random_channel(rng, 3, 3), random_channel(rng, 4, 4)]
    for channel in channels:
        n = channel.n_inputs
        priors = [Prior.uniform(n), Prior.point_mass(n - 1, n)]
        priors += [random_prior(rng, n) for _ in range(20)]
        for prior in priors:
            value = sibson_mi(prior, channel, 0)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # rounded masses land on either side of 1: (0.2, 0.7, 0.1) sums above
    # it, the grid's own (0.2, 0.7, 0.1) below it
    uniform = Channel(np.full((3, 3), 1 / 3))
    for p in [[0.2, 0.7, 0.1], *simplex_grid(3, 10)]:
        value = sibson_mi(Prior(p), uniform, 0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # no shared output, but the rounded mass on the first output exceeds 1
    tail = Channel([[1.0, 0.0]] * 4 + [[0.0, 1.0]])
    p = [0.2831414698192896, 0.25363779231894, 0.2027279133539111, 0.2604928245078594, 1e-300]
    value = sibson_mi(Prior(p), tail, 0)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # no shared output: -log of the largest mass on one output's reach
    split = Channel([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    assert sibson_mi(Prior([0.2, 0.3, 0.5]), split, 0) == pytest.approx(-math.log(0.8))
    assert sibson_mi(Prior.uniform(2), Channel.identity(2), 0) == pytest.approx(math.log(2))


def test_arimoto_at_prior_is_sibson_at_tilted_prior():
    # the identity behind searching Sibson alone for the maximal leakage
    rng = np.random.default_rng(5)
    for _ in range(40):
        nx, ny = rng.integers(2, 7, size=2)
        prior = random_prior(rng, nx)
        channel = random_channel(rng, nx, ny)
        hyper = push(prior, channel)
        for a in (0.3, 0.5, 2.0, 5.0, 50.0):
            log_w = a * np.log(prior.probs)
            tilted = Prior(np.exp(log_w - np.logaddexp.reduce(log_w)))
            assert arimoto_mi(hyper, a) == pytest.approx(
                sibson_mi(tilted, channel, a), rel=1e-12, abs=1e-12
            )


def test_branch_continuity_spot():
    prior = Prior([0.6, 0.3, 0.1])
    channel = Channel([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
    hyper = push(prior, channel)
    assert renyi_entropy(prior, 1.0) == pytest.approx(renyi_entropy(prior, 1.0001), abs=1e-2)
    assert renyi_entropy(prior, math.inf) == pytest.approx(renyi_entropy(prior, 1e6), abs=1e-3)
    assert sibson_mi(prior, channel, 1.0) == pytest.approx(
        sibson_mi(prior, channel, 0.9999), abs=1e-2
    )
    assert arimoto_mi(hyper, math.inf) == pytest.approx(arimoto_mi(hyper, 1e6), abs=1e-3)


def _linear_closed_forms(p, C, a):
    """H_a(X | Y), the Arimoto and the Sibson information of prior p through
    C in plain power sums over the joint J = p C, for orders 0, 0.5, 1, 2
    and inf."""
    J = p[:, None] * C
    p_y = J.sum(axis=0)
    on, reached = p > 0, p_y > 0
    if a == 0.0:
        h_x = math.log(on.sum())
        h_cond = math.log((J > 0).sum(axis=0).max())
        shared = (C[on] > 0).all(axis=0).any()
        mass = max(p[C[:, y] > 0].sum() for y in range(C.shape[1]))
        sibson = 0.0 if shared else -math.log(min(mass, 1.0))
    elif a == 1.0:
        h_x = -(p[on] * np.log(p[on])).sum()
        post = J[:, reached] / p_y[reached]
        h_cond = -(J[:, reached][post > 0] * np.log(post[post > 0])).sum()
        sibson = h_x - h_cond
    elif a == math.inf:
        h_x = -math.log(p.max())
        h_cond = -math.log(J.max(axis=0).sum())
        sibson = math.log(C[on].max(axis=0).sum())
    else:
        h_x = math.log((p[on] ** a).sum()) / (1.0 - a)
        h_cond = a / (1.0 - a) * math.log((((J**a).sum(axis=0)) ** (1.0 / a)).sum())
        inner = (p[on, None] * C[on] ** a).sum(axis=0) ** (1.0 / a)
        sibson = a / (a - 1.0) * math.log(inner.sum())
    return h_cond, h_x - h_cond, sibson


def _linear_alpha_beta(p, C, a, beta):
    """a/((a-1) beta) log sum_y p_y^(1-beta) (||J_y||_a / ||p||_a)^beta over
    reached outputs; at a = inf the norms are maxima and the factor 1/beta;
    at beta = inf the sum is max_y ratio_y / p_y without the 1/beta."""
    J = p[:, None] * C
    p_y = J.sum(axis=0)
    reached = p_y > 0
    if a == math.inf:
        ratio, coeff = J[:, reached].max(axis=0) / p.max(), 1.0
    else:
        norms = ((J[:, reached] ** a).sum(axis=0)) ** (1.0 / a)
        ratio, coeff = norms / (p**a).sum() ** (1.0 / a), a / (a - 1.0)
    if beta == math.inf:
        return coeff * math.log((ratio / p_y[reached]).max())
    return coeff / beta * math.log((p_y[reached] ** (1.0 - beta) * ratio**beta).sum())


@pytest.mark.parametrize("n", [64, 256])
def test_large_channel_kernels_match_linear_closed_forms(n):
    rng = np.random.default_rng(n)
    p = rng.dirichlet(np.ones(n))
    p[1] = 0.0
    C = rng.dirichlet(np.ones(n), size=n)
    C[:, 2] = 0.0
    prior = Prior(p / p.sum())
    channel = Channel(C / C.sum(axis=1, keepdims=True))
    p, C = prior.probs, channel.matrix
    hyper = push(prior, channel)
    J = p[:, None] * C
    p_y = J.sum(axis=0)
    assert hyper.retained_outputs == tuple(np.flatnonzero(p_y > 0))
    np.testing.assert_allclose(hyper.outer, p_y[p_y > 0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(hyper.inners, (J[:, p_y > 0] / p_y[p_y > 0]).T, rtol=1e-12, atol=0)
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        h_cond, arimoto, sibson = _linear_closed_forms(p, C, a)
        assert arimoto_conditional_entropy(hyper, a) == pytest.approx(h_cond, rel=1e-12, abs=0)
        assert arimoto_mi(hyper, a) == pytest.approx(arimoto, rel=1e-12, abs=0)
        assert sibson_mi(prior, channel, a) == pytest.approx(sibson, rel=1e-12, abs=0)
    for a, beta in ((2.0, 1.0), (2.0, 2.0), (5.0, 3.0), (math.inf, 2.0), (2.0, math.inf),
                    (math.inf, math.inf)):
        assert alpha_beta_leakage(prior, channel, a, beta) == pytest.approx(
            _linear_alpha_beta(p, C, a, beta), rel=1e-12, abs=0
        )
    # order 1e6 has no closed form in plain powers (they underflow); it stays
    # finite and within 1e-4 of the infinity branch
    near = (
        (arimoto_conditional_entropy, (hyper,)), (arimoto_mi, (hyper,)),
        (sibson_mi, (prior, channel)),
    )
    for measure, args in near:
        value = measure(*args, 1e6)
        assert math.isfinite(value) and value == pytest.approx(measure(*args, math.inf), abs=1e-4)
    value = alpha_beta_leakage(prior, channel, 1e6, 2.0)
    assert math.isfinite(value)
    assert value == pytest.approx(alpha_beta_leakage(prior, channel, math.inf, 2.0), abs=1e-4)


def _log_sum_exp(terms, axis):
    """log sum exp along an axis; -inf terms add nothing, an all -inf slice gives -inf."""
    top = terms.max(axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(terms - top).sum(axis=axis)) + top.squeeze(axis)


def _log_domain_forms(p, C, a):
    """H_a(X), H_a(X | Y) and Sibson's information of prior p through C at a
    finite order, from each entry's log (zeros at -inf) and shifted sums."""
    with np.errstate(divide="ignore"):
        log_p, log_C = np.log(p), np.log(C)
    h_x = _log_sum_exp(a * log_p, 0) / (1.0 - a)
    # H_a(X | Y) = a/(1-a) log sum_y (sum_x J_xy^a)^(1/a), J = p C
    h_cond = a / (1.0 - a) * _log_sum_exp(_log_sum_exp(a * (log_p[:, None] + log_C), 0) / a, 0)
    sibson = a / (a - 1.0) * _log_sum_exp(_log_sum_exp(log_p[:, None] + a * log_C, 0) / a, 0)
    return h_x, h_cond, sibson


def _assert_log_domain_forms(prior, channel):
    hyper = push(prior, channel)
    for a in (0.5, 2.0):
        h_x, h_cond, sibson = _log_domain_forms(prior.probs, channel.matrix, a)
        assert renyi_entropy(prior, a) == pytest.approx(h_x, rel=1e-12, abs=0)
        assert arimoto_conditional_entropy(hyper, a) == pytest.approx(h_cond, rel=1e-12, abs=0)
        assert arimoto_mi(hyper, a) == pytest.approx(h_x - h_cond, rel=1e-12, abs=0)
        assert sibson_mi(prior, channel, a) == pytest.approx(sibson, rel=1e-12, abs=0)


def test_linear_orders_match_the_log_domain_on_a_sparse_channel():
    rng = np.random.default_rng(7)
    C = rng.dirichlet(np.ones(256), size=256)
    C[rng.random(C.shape) < 0.3] = 0.0
    channel = Channel(C / C.sum(axis=1, keepdims=True))
    assert 0.29 < (channel.matrix == 0.0).mean() < 0.31
    _assert_log_domain_forms(Prior(rng.dirichlet(np.ones(256))), channel)


def test_linear_orders_match_the_log_domain_where_powers_underflow():
    # 1e-200**2 and (5e-324)**2 flush to 0 and 5e-324 is subnormal; the
    # middle output is reached only through such entries
    channel = Channel([[0.5, 1e-200, 0.5], [5e-324, 5e-324, 1.0], [0.7, 1e-200, 0.3],
                       [0.2, 5e-324, 0.8]])
    for probs in ([0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]):
        _assert_log_domain_forms(Prior(probs), channel)


def test_linear_orders_match_the_log_domain_on_priors_with_zeros(rng):
    channel = random_channel(rng, 6, 5)
    for probs in ([0.5, 0.0, 0.25, 0.0, 0.25, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.3, 0.3, 0.0, 0.0, 0.4]):
        _assert_log_domain_forms(Prior(probs), channel)


def test_linear_orders_keep_padded_rows_silent():
    # at every order, a zero-padded row (weight 0, or an all-zero prior)
    # gives its limit value and raises no RuntimeWarning
    outer = np.array([0.3, 0.7, 0.0])
    inners = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 0.0]])
    C = np.array([[0.9, 0.1], [0.4, 0.6], [0.0, 1.0]])
    P = np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 1e3, math.inf):
            order = AlphaOrder.of(a)
            # H_alpha of the zero row, H_alpha(X | Y) of an all-zero outer, Sibson of a zero prior
            if a == 1.0:
                zero_row, empty, zero_prior = 0.0, 0.0, 0.0
            elif a == math.inf:
                zero_row, empty, zero_prior = math.inf, math.inf, -math.inf
            else:
                zero_row = -math.inf / (1.0 - a)
                empty = math.log(3) if a == 0.0 else -math.inf / ((1.0 - a) / a)
                zero_prior = 0.0 if a == 0.0 else -math.inf * a / (a - 1.0)
            assert _renyi_entropies(inners, order)[2] == zero_row
            padded, unpadded = _arimoto(outer, inners, order), _arimoto(outer[:2], inners[:2], order)
            assert padded == pytest.approx(unpadded, rel=1e-15, abs=0)
            stacked = _arimoto(np.stack([outer, 0.0 * outer]), np.stack([inners, inners]), order)
            assert stacked[1][1] == empty
            sibson = _sibson(P, C, order)
            assert sibson[0] == pytest.approx(sibson_mi(Prior(P[0]), Channel(C), a), rel=1e-15)
            assert sibson[1] == zero_prior


def test_linear_orders_skip_the_log_sum_exp(monkeypatch, rng):
    # orders 1/2 and 2 sum powers directly; 1.5 and 1e6 still shift in the log domain
    calls = []
    real = alpha_module._logsumexp_into

    def counted(scratch, axis):
        calls.append(axis)
        return real(scratch, axis)

    monkeypatch.setattr(alpha_module, "_logsumexp_into", counted)
    prior, channel = random_prior(rng, 5), random_channel(rng, 5, 4)
    hyper = push(prior, channel)
    for a, shifted in ((0.5, False), (2.0, False), (1.5, True), (1e6, True)):
        for measure, args in ((sibson_mi, (prior, channel)), (arimoto_mi, (hyper,))):
            calls.clear()
            measure(*args, a)
            assert bool(calls) == shifted, (measure.__name__, a)


def test_one_slice_log_sum_exp_takes_the_stack_bits(rng):
    # a lone slice with a finite maximum takes the lean path; stacked with a
    # second slice, the same entries take the general one
    lse = alpha_module._logsumexp_into
    for n in (1, 4, 17):
        sparse = np.where(rng.random(n) < 0.4, -math.inf, rng.normal(size=n))
        for x in (30.0 * rng.normal(size=n), sparse):
            x[0] = 0.0
            pair = np.stack([x, x + 1.0])
            column = pair[:, :, None]
            for lone, stacked in ((lse(x.copy(), -1), lse(pair.copy(), -1)[0]),
                                  (lse(x[None].copy(), -1), lse(pair.copy(), -1)[:1]),
                                  (lse(column[:1].copy(), 1), lse(column.copy(), 1)[:1])):
                assert np.shape(lone) == np.shape(stacked)
                assert np.asarray(lone).tobytes() == np.asarray(stacked).tobytes()
    for edge, expected in (([-math.inf] * 3, -math.inf), ([0.0, math.inf], math.inf)):
        assert lse(np.array(edge), -1) == expected
    assert math.isnan(lse(np.array([0.0, math.nan]), -1))
