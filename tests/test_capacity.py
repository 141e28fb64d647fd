import math
import warnings

import numpy as np
import pytest

from qifkit import capacity
from qifkit.alpha import AlphaOrder, _renyi_divergences, _sibson, arimoto_mi, sibson_mi
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
from qifkit.cli import main
from qifkit.core import Channel, Prior, _clean_rows, ni_channel, push
from qifkit.errors import ParameterError, ValidationError
from qifkit.fmeans import f_alpha, identity_fmean
from qifkit.gains import FiniteMatrixGain, SimplexGain
from qifkit.simplex import simplex_grid
from qifkit.verify import verify_maximal_equals_capacity
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
    # an all-zero column is unreachable and skipped
    padded = Channel([[0.9, 0.0, 0.1], [0.1, 0.0, 0.9]])
    assert ldp_leakage(padded) == pytest.approx(math.log(9))


def test_renyi_ldp_examples():
    assert renyi_ldp(ni_channel(4), 2) == pytest.approx(0.0, abs=1e-12)
    assert renyi_ldp(bsc(0.1), math.inf) == pytest.approx(math.log(9))
    assert renyi_ldp(bsc(0.1), 2) == pytest.approx(math.log(0.81 / 0.1 + 0.01 / 0.9))
    assert renyi_ldp(Channel.identity(2), 2) == math.inf
    with pytest.raises(ParameterError):
        renyi_ldp(bsc(0.1), 1.0)
    with pytest.raises(ParameterError):
        renyi_ldp(bsc(0.1), 0.5)


def test_renyi_ldp_is_the_largest_row_divergence_bit_for_bit():
    # one log-sum-exp: each pair reduces as _renyi_divergences reduces a row
    rng = np.random.default_rng(21)
    for n in (4, 16, 64):
        C = rng.dirichlet(np.ones(n), size=n)
        zero_column = C.copy()
        zero_column[:, 1] = 0.0
        scattered = C.copy()  # row 1 reaches an output row 0 misses: +inf
        scattered[rng.random((n, n)) < 0.2] = 0.0
        scattered[:, 0] += 0.1
        scattered[0, 1], scattered[1, 1] = 0.0, 0.5
        for matrix, finite in ((C, True), (zero_column, True), (scattered, False)):
            channel = Channel(matrix / matrix.sum(axis=1, keepdims=True))
            rows = channel.matrix
            for alpha in (1.5, 2.0, 5.0):
                a = AlphaOrder.of(alpha)
                value = renyi_ldp(channel, alpha)
                assert value == max(_renyi_divergences(rows, q, a).max() for q in rows)
                assert math.isfinite(value) == finite


def test_alpha_beta_objective_gives_the_stacks_bits(rng):
    P = rng.dirichlet(np.ones(5), size=12)
    P[3, 1] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    channel = random_channel(rng, 5, 4)
    for alpha, beta in ((2.0, 1.0), (2.0, 2.0), (5.0, 1.5), (3.0, math.inf),
                        (math.inf, 2.0), (math.inf, math.inf)):
        stacked = capacity._ab_capacity_scores(channel, alpha, beta)(P)
        objective = alpha_beta_capacity_objective(channel, alpha, beta)
        assert [objective(row) for row in P] == stacked.tolist()


def test_optimizer_config_rejects_negative_budgets():
    for fields in ({"grid_resolution": 0}, {"grid_resolution": -5}, {"max_iterations": -1},
                   {"seed": -1}):
        with pytest.raises(ParameterError, match="grid_resolution must be >= 1"):
            SimplexOptimizerConfig(**fields)
    # the benchmark's fixed search budget and an ascent-free search stay valid
    SimplexOptimizerConfig(restarts=1, grid_resolution=20, max_iterations=3, seed=0)
    SimplexOptimizerConfig(grid_resolution=1, max_iterations=0)


def test_optimizer_config_rejects_non_integer_budgets():
    # a float budget used to pass here and fail at search time with a TypeError
    for field in ("restarts", "grid_resolution", "max_iterations", "seed"):
        for value in (2.5, 3.0, "3"):
            with pytest.raises(ParameterError, match=f"^{field} must hold integers"):
                SimplexOptimizerConfig(**{field: value})
    for sequence in ((10, 2.5), (10.0,)):
        with pytest.raises(ParameterError, match="^vertex_epsilon_sequence must hold integers"):
            SimplexOptimizerConfig(vertex_epsilon_sequence=sequence)
    # Python and numpy integers alike, with the same search
    channel = Channel([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
    python = SimplexOptimizerConfig(restarts=2, grid_resolution=5, max_iterations=4, seed=3,
                                    vertex_epsilon_sequence=(10, 100))
    numpy_ints = SimplexOptimizerConfig(
        restarts=np.int64(2), grid_resolution=np.int32(5), max_iterations=np.uint8(4),
        seed=np.int64(3), vertex_epsilon_sequence=(np.int16(10), np.int64(100)))
    assert (maximal_alpha_leakage(channel, 2.0, numpy_ints)
            == maximal_alpha_leakage(channel, 2.0, python))


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
    with pytest.raises(ParameterError, match="n >= 2"):
        SimplexOptimizerConfig(vertex_epsilon_sequence=(10, 1))


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


def test_maximal_alpha_leakage_is_one_sibson_search(monkeypatch, rng):
    channel = random_channel(rng, 3, 3)
    calls = []

    search = capacity._stack_search

    def counting(scores, dim, config=None):
        calls.append(dim)
        return search(scores, dim, config)

    monkeypatch.setattr(capacity, "_stack_search", counting)
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        calls.clear()
        value, witness, diagnostics = maximal_alpha_leakage(channel, a, FAST)
        assert calls == [3]
        assert "route" not in diagnostics
        assert value == pytest.approx(sibson_mi(witness, channel, a), abs=1e-12)


def test_sup_over_prior_scores_stacks_like_single_priors(rng):
    for channel in (random_channel(rng, 3, 3), random_channel(rng, 4, 3)):
        C = channel.matrix
        for a in (0.5, 2.0):
            order = AlphaOrder.of(a)

            def scalar(p):
                return math.nan if p[0] > 0.9 else sibson_mi(Prior(p), channel, a)

            def stacked(P):
                values = _sibson(_clean_rows(P, "prior", rows=True), C, order)
                return np.where(P[:, 0] > 0.9, math.nan, values)

            one = sup_over_prior(scalar, channel.n_inputs, FAST)
            many = capacity._stack_search(stacked, channel.n_inputs, FAST)
            assert one[0] == pytest.approx(many[0], abs=1e-12)
            assert np.allclose(one[1].probs, many[1].probs, rtol=0.0, atol=1e-12)
            for key in ("evaluations", "nan_evaluations"):
                assert one[2][key] == many[2][key]
            assert one[2]["nan_evaluations"] > 0
            assert one[2]["vertex_trend"].keys() == many[2]["vertex_trend"].keys()


def test_maximal_alpha_leakage_objective_validates_each_stack(monkeypatch, rng):
    channel = random_channel(rng, 3, 3)
    seen = []

    search = capacity._stack_search

    def keep(scores, dim, config=None):
        seen.append(scores)
        return search(scores, dim, config)

    monkeypatch.setattr(capacity, "_stack_search", keep)
    maximal_alpha_leakage(channel, 2.0, FAST)
    score = seen[0]
    good = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0]])
    assert np.allclose(score(good), [sibson_mi(Prior(p), channel, 2.0) for p in good])
    for bad in ([math.nan, 0.5, 0.5], [-0.01, 0.51, 0.5], [0.2, 0.3, 0.5 + 1e-6]):
        with pytest.raises(ValidationError):
            Prior(bad)
        with pytest.raises(ValidationError):
            score(np.array([[0.2, 0.3, 0.5], bad]))


def test_order_zero_capacity_is_exactly_zero_with_a_shared_output(rng, tmp_path):
    channels = [bsc(0.1), random_channel(rng, 3, 3), random_channel(rng, 4, 4)]
    for k, channel in enumerate(channels):
        for prior in (Prior.uniform(channel.n_inputs), random_prior(rng, channel.n_inputs)):
            value = sibson_mi(prior, channel, 0)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        value, _, _ = maximal_alpha_leakage(channel, 0.0, FAST)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        path = tmp_path / f"channel{k}.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                   for row in channel.matrix) + "\n")
        out = tmp_path / f"report{k}.json"
        argv = ["compute", "max-alpha-capacity", "--alpha", "0", "--channel", str(path),
                "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().endswith('"value": 0.0\n}\n')


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


def test_maximal_alpha_beta_leakage_stops_at_infinity():
    # a zero entry that every prior reaches makes the objective +inf everywhere
    channel = Channel([[0.5, 0.0, 0.5], [0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
    assert renyi_ldp(channel, 2) == math.inf
    config = SimplexOptimizerConfig(restarts=1, grid_resolution=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _, _ = maximal_alpha_beta_leakage(channel, 2, 2, config)
    assert value == math.inf


def test_built_in_searches_score_stacks(monkeypatch, rng):
    calls = []
    search = capacity._stack_search

    def spy(scores, dim, config=None):
        def recorded(P):
            calls.append(np.array(P))
            return scores(P)

        return search(recorded, dim, config)

    def refuse(*args, **kwargs):
        raise AssertionError("a built-in measure entered the per-row adapter")

    monkeypatch.setattr(capacity, "_stack_search", spy)
    monkeypatch.setattr(capacity, "sup_over_prior", refuse)
    channel = random_channel(rng, 3, 3)
    maximal_alpha_beta_leakage(channel, 2.0, 1.5, FAST)
    grid = simplex_grid(3, FAST.grid_resolution)
    levels = FAST.vertex_epsilon_sequence
    first = calls[0]
    assert first.shape == (1 + len(grid) + 3 * len(levels), 3)
    np.testing.assert_array_equal(first[0], np.full(3, 1.0 / 3))
    np.testing.assert_array_equal(first[1:1 + len(grid)], grid)
    for k, n in enumerate(levels):
        block = first[1 + len(grid) + 3 * k:][:3]
        np.testing.assert_array_equal(np.diag(block), np.full(3, 1.0 - 1.0 / n))
        assert np.all(block[~np.eye(3, dtype=bool)] == 1.0 / (2 * n))
    calls.clear()
    maximal_alpha_leakage(channel, 2.0, FAST)
    f2 = f_alpha(2.0)
    verify_maximal_equals_capacity(channel, SimplexGain(), f2, f2, (3, 2), FAST)
    assert len(calls[0]) == len(first)


def test_alpha_beta_capacity_objective_beta1_is_sibson(rng):
    channel = random_channel(rng, 3, 3)
    objective = alpha_beta_capacity_objective(channel, 2.0, 1.0)
    for _ in range(20):
        p = random_prior(rng, 3)
        assert objective(p.probs) == pytest.approx(sibson_mi(p, channel, 2.0), abs=1e-9)


def _per_row_ab_objective(C, w, alpha, beta):
    """The reduced (alpha, beta) objective written out row by row."""
    n_x, n_y = len(C), len(C[0])
    mix = []
    for y in range(n_y):
        if math.isinf(alpha):
            mix.append(max(C[x][y] for x in range(n_x) if w[x] > 0))
        else:
            mix.append(sum(w[x] * C[x][y] ** alpha for x in range(n_x)) ** (1 / alpha))
    if math.isinf(beta):
        coeff = 1.0 if math.isinf(alpha) else alpha / (alpha - 1)
    else:
        coeff = 1.0 / beta if math.isinf(alpha) else alpha / ((alpha - 1) * beta)
    best = -math.inf
    for row in C:
        reached = [(c, m) for c, m in zip(row, mix) if m > 0]
        if math.isinf(beta):
            value = max(math.inf if c == 0 else math.log(m / c) for c, m in reached)
        elif any(c == 0 for c, _ in reached) and beta > 1:
            value = math.inf
        else:
            value = math.log(sum(c ** (1 - beta) * m ** beta for c, m in reached))
        best = max(best, coeff * value)
    return best


def test_alpha_beta_capacity_objective_matches_per_row_formula(rng):
    channels = [
        random_channel(rng, 3, 4),
        # a zero entry (+inf once its column is reached) and an all-zero column
        Channel([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8], [0.0, 0.0, 1.0]]),
    ]
    weights = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.5])]
    weights += [random_prior(rng, 3).probs for _ in range(4)]
    seen_inf = False
    for channel in channels:
        C = channel.matrix.tolist()
        for alpha in (2.0, math.inf):
            for beta in (1.0, 1.5, 2.0, math.inf):
                objective = alpha_beta_capacity_objective(channel, alpha, beta)
                for w in weights:
                    expected = _per_row_ab_objective(C, w, alpha, beta)
                    got = objective(w)
                    if math.isinf(expected):
                        seen_inf = True
                        assert got == expected
                    else:
                        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert seen_inf


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
    padded = Channel([[0.9, 0.0, 0.1], [0.1, 0.0, 0.9]])
    for f in (identity_fmean(), dec):
        assert max_case_capacity_bound(padded, f) == pytest.approx(math.log(9))


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
