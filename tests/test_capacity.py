import dataclasses
import functools
import math
import warnings
from collections import Counter

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
from qifkit.fmeans import ell_alpha, f_alpha, identity_fmean
from qifkit.gains import FiniteMatrixGain, SimplexGain
from qifkit.simplex import project_to_simplex, projected_ascent, simplex_grid
from qifkit.verify import verify_maximal_equals_capacity
from qifkit.vulnerability import (
    gen_posterior_vulnerability_avg,
    gen_prior_vulnerability,
    leakage,
    posterior_vulnerability_avg,
    posterior_vulnerability_max,
    prior_vulnerability,
)

from conftest import bsc, random_channel, random_prior, rungs_past_rise, sequential_ascent

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


def test_optimizer_config_rejects_a_scalar_vertex_sequence():
    # a scalar used to raise a bare TypeError ("'int' object is not iterable")
    with pytest.raises(ParameterError, match="^vertex_epsilon_sequence must be a sequence"):
        SimplexOptimizerConfig(vertex_epsilon_sequence=10)
    assert SimplexOptimizerConfig(vertex_epsilon_sequence=[10]).vertex_epsilon_sequence == (10,)


def test_optimizer_configs_hash_and_key_read_only_search_tables():
    # a list vertex sequence is kept as a tuple, so every config hashes and can key the tables
    listed = SimplexOptimizerConfig(restarts=2, grid_resolution=7, vertex_epsilon_sequence=[10, 100])
    tupled = SimplexOptimizerConfig(restarts=2, grid_resolution=7, vertex_epsilon_sequence=(10, 100))
    assert listed == tupled and hash(listed) == hash(tupled)
    channel = Channel([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
    results = []
    for config in (listed, tupled):
        capacity._search_tables.cache_clear()
        value, prior, diagnostics = maximal_alpha_leakage(channel, 2.0, config)
        results.append((value.hex(), prior.probs.tobytes(), diagnostics))
    assert results[0] == results[1]
    points, levels, restarts = tables = capacity._search_tables(3, listed)
    assert capacity._search_tables(3, tupled) is tables and levels == (10, 100)
    for table, fresh in zip((points, restarts), capacity._search_tables.__wrapped__(3, tupled)[::2]):
        assert not table.flags.writeable and table.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
    reseeded = capacity._search_tables(3, dataclasses.replace(tupled, seed=1))
    assert reseeded[0] is not points and np.array_equal(reseeded[0], points)
    assert not np.array_equal(reseeded[2], restarts)


def test_optimizer_config_rejects_a_non_numeric_tolerance():
    # a string used to raise a bare TypeError from the "<= 0" comparison
    with pytest.raises(ParameterError, match="^ascent_tolerance must be a real number"):
        SimplexOptimizerConfig(ascent_tolerance="1e-3")
    # a NaN tolerance used to pass and make the ascent reject every step
    with pytest.raises(ParameterError, match="tolerance positive"):
        SimplexOptimizerConfig(ascent_tolerance=math.nan)
    SimplexOptimizerConfig(ascent_tolerance=np.float32(1e-6))
    SimplexOptimizerConfig(ascent_tolerance=1)


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


def test_sup_over_prior_sees_the_points_of_each_start_ascending_alone(monkeypatch):
    def search():
        seen = []

        def objective(p):
            seen.append(tuple(p))
            return math.nan if p[0] > 0.85 else -float(((p - [0.1, 0.6, 0.3]) ** 2).sum())

        value, witness, diagnostics = sup_over_prior(objective, 3, FAST)
        return value, witness, diagnostics, seen

    lockstep = search()
    rungs = []
    monkeypatch.setattr(capacity, "projected_ascent",
                        functools.partial(sequential_ascent, rungs=rungs))
    alone = search()
    assert lockstep[:2] == alone[:2]
    assert ({k: v for k, v in lockstep[2].items() if k != "evaluations"}
            == {k: v for k, v in alone[2].items() if k != "evaluations"})
    assert lockstep[2]["nan_evaluations"] > 0
    assert [d["evaluations"] for d in (lockstep[2], alone[2])] == [len(lockstep[3]), len(alone[3])]
    # every point seen alone is seen; each extra one is a step past the first rise in its block
    extra = Counter(lockstep[3])
    extra.subtract(alone[3])
    assert lockstep[3] != alone[3] and min(extra.values()) >= 0
    assert extra.total() == sum(map(rungs_past_rise, rungs)) > 0


def test_a_line_search_costs_at_most_four_calls(rng):
    # a ladder with no rise costs one call per block of steps, not one per step
    calls = []

    def first(P):
        calls.append(len(P))
        return P[:, 0]

    start = project_to_simplex(np.full(3, 1.0 / 3))
    value, point = projected_ascent(first, start, tolerance=10.0)
    assert calls == [1, 6, 1, 3, 12, 24]
    assert value == point[0] and np.array_equal(point, start)
    # on a channel, every iteration is one stencil call, then the blocks in order up to the
    # first that rises: at most 1 + 4 calls, and all four on the last, which ends the ascent
    C, a = random_channel(rng, 3, 3).matrix, AlphaOrder.of(2.0)
    calls.clear()

    def sibson(P):
        calls.append(len(P))
        return _sibson(P, C, a)

    projected_ascent(sibson, np.array([0.6, 0.3, 0.1]))
    stencils = [i for i, n in enumerate(calls) if n == 6] + [len(calls)]
    assert calls[0] == 1 and stencils[0] == 1 and len(stencils) > 3
    for at, end in zip(stencils, stencils[1:]):
        assert calls[at + 1:end] == [1, 3, 12, 24][:end - at - 1]
    assert calls[-4:] == [1, 3, 12, 24]
    # evaluations counts the rows the objective received, stacked or one prior at a time
    rows, seen = [], []

    def stacked(P):
        rows.append(len(P))
        return _sibson(P, C, a)

    def one(p):
        seen.append(p)
        return float(_sibson(p[None], C, a)[0])

    stack_evaluations = capacity._stack_search(stacked, 3, FAST)[2]["evaluations"]
    scalar_evaluations = sup_over_prior(one, 3, FAST)[2]["evaluations"]
    assert stack_evaluations == sum(rows) == scalar_evaluations == len(seen)


# the parent of the lockstep ascent on channels from default_rng(25): value,
# witness, evaluations and vertex trend (orders 10, 100, 1000, 10000), in hex
DEFAULT_SEARCHES = [
    (3, 0.5, "0x1.1c0e885dcff7ep-2", ["0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-1"],
     4187, ["0x1.1e77c04070087p-4", "0x1.e4b5e0ce3fd63p-8", "0x1.85b39510681d7p-11",
            "0x1.37ea19f0076b4p-14"]),
    (3, 2.0, "0x1.06e424c4e6172p-1", ["0x1.e3163d65abd85p-2", "0x0.0p+0", "0x1.0e74e14d2a13dp-1"],
     3374, ["0x1.062fb2928ae73p-2", "0x1.03a3597d5b12cp-4", "0x1.fd699c8e9587cp-7",
            "0x1.f7e1896df2a08p-9"]),
    (3, math.inf, "0x1.38f8f854563cfp-1", ["0x1.5555555555555p-2"] * 3,
     1995, ["0x1.38f8f854563cfp-1"] * 4),
    (4, 5.0, "0x1.13350c79e00f9p-1",
     ["0x0.0p+0", "0x1.1e8d93aafe28ap-3", "0x1.474944bf7e7e7p-2", "0x1.14b7f8b58136ap-1"],
     2505, ["0x1.af1b3a2e34173p-2", "0x1.13bcb5b3a4f24p-2", "0x1.3f18bcc77df6ep-3",
            "0x1.5a22f92c576eap-4"]),
]


def _pinned_channels():
    rng = np.random.default_rng(25)
    return {n: Channel(rng.dirichlet(np.ones(n), size=n)) for n in (3, 4)}


def test_default_searches_keep_their_bits():
    channels = _pinned_channels()
    for n, alpha, value, witness, evaluations, trend in DEFAULT_SEARCHES:
        got, prior, diagnostics = maximal_alpha_leakage(channels[n], alpha)
        assert got.hex() == value and [x.hex() for x in prior.probs] == witness
        assert (diagnostics["evaluations"], diagnostics["nan_evaluations"]) == (evaluations, 0)
        assert [diagnostics["vertex_trend"][k].hex() for k in (10, 100, 1000, 10000)] == trend
    for (alpha, beta), value, witness, evaluations in (
            ((2.0, 1.5), "0x1.66da9a967a9edp+1", ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
             4261),
            ((math.inf, 2.0), "0x1.41e5be09dd967p+1", ["0x1.5555555555555p-2"] * 3, 1995)):
        got, prior, diagnostics = maximal_alpha_beta_leakage(channels[3], alpha, beta)
        assert got.hex() == value and [x.hex() for x in prior.probs] == witness
        assert diagnostics["evaluations"] == evaluations
    result = verify_maximal_equals_capacity(channels[3], SimplexGain(), f_alpha(2.0), f_alpha(2.0),
                                            (3, 4))
    worst = result.worst_instance
    assert result.passed and result.instances_checked == 329768
    assert (worst["lhs"].hex(), worst["rhs"].hex()) == ("0x1.06e014c122c46p-1",
                                                         "0x1.06e424c4e6172p-1")


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


def test_maximal_leakages_return_their_witness_score_bit_for_bit():
    rng = np.random.default_rng(32)
    for n in range(2, 7):
        for _ in range(4):
            channel = random_channel(rng, n, int(rng.integers(2, 6)))
            for a in (0.5, 2.0, 5.0):
                value, witness, _ = maximal_alpha_leakage(channel, a)
                assert value.hex() == sibson_mi(witness, channel, a).hex()
            for a, b in ((2.0, 1.5), (2.0, 2.0), (3.0, 2.0)):
                value, witness, _ = maximal_alpha_beta_leakage(channel, a, b)
                score = alpha_beta_capacity_objective(channel, a, b)(witness.probs)
                assert value.hex() == score.hex()
            objective = alpha_beta_capacity_objective(channel, 2.0, 1.5)
            value, witness, _ = sup_over_prior(objective, n)
            assert value.hex() == objective(witness.probs).hex()


def test_sup_over_prior_scores_stacks_like_single_priors(rng):
    for channel in (random_channel(rng, 3, 3), random_channel(rng, 4, 3)):
        C = channel.matrix
        for a in (0.5, 2.0):
            order = AlphaOrder.of(a)

            def scalar(p):
                return math.nan if p[0] > 0.9 else sibson_mi(Prior(p), channel, a)

            def stacked(P):  # sup_over_prior hands scalar cleaned rows, which Prior cleans again
                P = _clean_rows(P, "prior", rows=True)
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


def test_multiplicative_f_capacity_refuses_decreasing_inverses():
    # t^-1 (f_alpha(0.5), the CLI's power:-1) and t^-3 (f_alpha(0.25)): log f^-1(sum_y max_x C)
    # is negative on BSC(0.1), -0.588 and -0.196, yet an f = h leakage under one finite gain
    # passes 1.5 and 0.5, so that number is no capacity
    channel, prior = bsc(0.1), Prior([0.5, 0.5])
    gain, hyper = FiniteMatrixGain([[1.0, 0.01], [0.01, 1.0]]), push(prior, channel)
    for f, reached in ((f_alpha(0.5), 1.5), (f_alpha(0.25), 0.5)):
        value = leakage(gen_prior_vulnerability(prior, gain, f),
                        gen_posterior_vulnerability_avg(hyper, gain, f, f))
        assert value > reached > 0.0 > math.log(f.inverse(channel.matrix.max(axis=0).sum()))
        with pytest.raises(ParameterError, match="decreasing inverse"):
            multiplicative_f_capacity(channel, f)


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
    with pytest.raises(ParameterError, match="multiplicative inverse"):
        max_case_capacity_bound(channel, ell_alpha(0.5))


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
