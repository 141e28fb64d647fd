import importlib
import json
import math
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qifkit import verify
from qifkit.alpha import AlphaOrder, arimoto_mi, min_expected_alpha_loss
from qifkit.capacity import SimplexOptimizerConfig
from qifkit.core import Channel, Prior, compose, ni_channel, push
from qifkit.errors import ParameterError
from qifkit.fmeans import (
    FMeanSpec,
    FMeanValidityWarning,
    custom_fmean,
    ell_alpha,
    f_alpha,
    h_alpha_beta,
    identity_fmean,
)
from qifkit.gains import FiniteMatrixGain, IdentityGain, SimplexGain
from qifkit.simplex import simplex_grid
from qifkit.verify import (
    AXIOMS,
    MeasureFamily,
    VerificationResult,
    alpha_family,
    classical_family,
    run_axiom_suite,
    verify_dual_formulas,
    verify_maximal_equals_capacity,
)
from qifkit.vulnerability import (
    gen_posterior_vulnerability_avg,
    gen_posterior_vulnerability_max,
    gen_prior_vulnerability,
    leakage,
)

from conftest import bsc, joint_arimoto, random_channel

CFG = SimplexOptimizerConfig(restarts=6, grid_resolution=50, seed=11)


def test_verification_result_passed_derived():
    ok = VerificationResult("t", 10, 1e-12, 1e-9)
    assert ok.passed
    bad = VerificationResult("t", 10, 1e-3, 1e-9)
    assert not bad.passed


def test_axiom_suites_pass_for_catalog_families():
    for family in (classical_family(), alpha_family(0.5), alpha_family(2.0)):
        results = run_axiom_suite(family, n_instances=150, seed=5)
        assert len(results) == len(AXIOMS)
        assert all(r.passed for r in results)
        assert max(r.max_violation for r in results) <= 1e-9


def test_axiom_suite_reproducible():
    family = alpha_family(2.0)
    first = run_axiom_suite(family, n_instances=60, seed=9)
    second = run_axiom_suite(family, n_instances=60, seed=9)
    assert [r.max_violation for r in first] == [r.max_violation for r in second]
    assert [r.worst_instance for r in first] == [r.worst_instance for r in second]


def test_negative_control_detects_dpi_violation():
    bad_h = custom_fmean(
        lambda t: 1.0 / np.asarray(t, dtype=float),
        lambda s: 1.0 / np.asarray(s, dtype=float),
        "decreasing",
        "convex",
        domain=(1e-9, math.inf),
        name="reciprocal",
    )
    family = MeasureFamily(
        "corrupted-h", identity_fmean(), bad_h, "identity", enforce_h_class=False
    )
    results = run_axiom_suite(family, n_instances=150, seed=5, axioms=("DPI_AVG",))
    assert not results[0].passed
    assert results[0].max_violation > 1e-3


def test_dual_formula_checks_pass():
    results = verify_dual_formulas(n_instances=60, seed=2)
    assert {r.theorem_id for r in results} == {
        "dual:alpha-leakage-equals-arimoto",
        "dual:sibson-via-pointwise",
        "dual:alpha-beta-dual-route",
        "dual:min-alpha-loss-grid-oracle",
    }
    assert all(r.passed for r in results)


def test_equivalence_check_classical_and_alpha(rng):
    channel = bsc(0.1)
    ident = identity_fmean()
    result = verify_maximal_equals_capacity(
        channel, IdentityGain(), ident, ident, (2, 4), CFG
    )
    assert result.passed
    # both sides collapse to the Bayes capacity
    assert result.worst_instance["rhs"] == pytest.approx(math.log(1.8))
    assert result.worst_instance["lhs"] == pytest.approx(math.log(1.8), abs=1e-9)

    f2 = f_alpha(2.0)
    result = verify_maximal_equals_capacity(channel, SimplexGain(), f2, f2, (2, 4), CFG)
    assert result.passed
    assert result.worst_instance["structural_excess"] <= 1e-9


def test_equivalence_check_random_3x3(rng):
    channel = random_channel(rng, 3, 3)
    f2 = f_alpha(2.0)
    result = verify_maximal_equals_capacity(channel, SimplexGain(), f2, f2, (3, 4), CFG)
    assert result.passed


def test_equivalence_check_one_map_per_partition_reaches_the_all_maps_maximum(monkeypatch):
    # relabeling U leaves a map's leakage unchanged, so the check scores one
    # map per set partition of X; the maximum over every map, scored one at
    # a time here, must be the same (with no stochastic draws, the maps alone)
    monkeypatch.setattr(verify, "_STOCHASTIC_DRAWS", 0)
    config = SimplexOptimizerConfig(restarts=1, grid_resolution=4, seed=3)
    rng = np.random.default_rng(23)
    for n_x in (2, 3):
        channel = random_channel(rng, n_x, n_x)
        # the grid's vertices and edges give priors with zero entries
        priors = np.vstack([simplex_grid(n_x, 4), np.full((1, n_x), 1.0 / n_x)])
        for u_max, (gain, f) in product(
            (2, 3, 4), ((IdentityGain(), identity_fmean()), (SimplexGain(), f_alpha(2.0)))
        ):
            order = AlphaOrder.of(math.inf if isinstance(gain, IdentityGain) else 2.0)
            every_map = -math.inf
            for m in product(range(u_max), repeat=n_x):
                joints = np.einsum("nx,xu,xy->nuy", priors, np.eye(u_max)[list(m)], channel.matrix)
                h_u, h_cond = joint_arimoto(joints, order)
                every_map = max(every_map, float(np.max(h_u - h_cond)))
            result = verify_maximal_equals_capacity(channel, gain, f, f, (n_x, u_max), config)
            info = result.worst_instance
            assert info["lhs"] == pytest.approx(every_map, abs=1e-14)
            witness = info["lhs_witness"]["map"]
            assert all(witness[i] <= 1 + max(witness[:i], default=-1) for i in range(n_x))
            prior = np.array(info["lhs_witness"]["prior"])
            joint = np.einsum("x,xu,xy->uy", prior, np.eye(u_max)[witness], channel.matrix)
            h_u, h_cond = joint_arimoto(joint[None], order)
            assert h_u[0] - h_cond[0] == pytest.approx(info["lhs"], abs=1e-14)
            partitions = {2: 2, 3: 4 if u_max == 2 else 5}[n_x]
            assert info["systems_scored"] == len(priors) * partitions
            assert result.instances_checked == len(priors) * u_max**n_x


# (|X|, pair, u_max) -> lhs, rhs (float.hex), lhs witness, systems scored, instances checked;
# seeded 2x2 and 3x3 channels under the benchmark's capacity config, and the Z-channel of
# test_equivalence_check_scores_the_stochastic_draws, where a stochastic draw is the witness
EQUIVALENCE_PINS = [
    (2, "identity", 2, "0x1.fee535a50fad4p-3", "0x1.fee535a50fad4p-3",
     {"map": [0, 1], "prior": [0.5, 0.5]}, 84, 128),
    (2, "identity", 4, "0x1.fee535a50fad4p-3", "0x1.fee535a50fad4p-3",
     {"map": [0, 1], "prior": [0.5, 0.5]}, 84, 392),
    (2, "simplex,f2", 2, "0x1.5ccceb8c3fd68p-4", "0x1.5fafeb9ed8a75p-4",
     {"map": [0, 1], "prior": [0.55, 0.44999999999999996]}, 84, 128),
    (2, "simplex,f2", 4, "0x1.5ccceb8c3fd68p-4", "0x1.5fafeb9ed8a75p-4",
     {"map": [0, 1], "prior": [0.55, 0.44999999999999996]}, 84, 392),
    (3, "identity", 2, "0x1.8dbe7d7026685p-2", "0x1.8dbe7d7026685p-2",
     {"map": [0, 0, 1], "prior": [0.5, 0.0, 0.5]}, 968, 1896),
    (3, "identity", 4, "0x1.8dbe7d7026686p-2", "0x1.8dbe7d7026685p-2",
     {"map": [0, 1, 2], "prior": [0.35, 0.30000000000000004, 0.35]}, 1200, 14888),
    (3, "simplex,f2", 2, "0x1.1989e1029c2f0p-2", "0x1.19c6bad6f0ba1p-2",
     {"map": [0, 0, 1], "prior": [0.55, 0.0, 0.45]}, 968, 1896),
    (3, "simplex,f2", 4, "0x1.1989e1029c2f0p-2", "0x1.19c6bad6f0ba1p-2",
     {"map": [0, 0, 1], "prior": [0.55, 0.0, 0.45]}, 1200, 14888),
    ("z", "simplex,f5", 4, "0x1.9b139426bbe00p-6", "0x1.1423ee05d277ap-5",
     {"stochastic_prior": [0.7554779942375363, 0.24452200576246363],
      "conditional": [[0.1560928308758419, 0.022197676806847134, 0.3446888298105378,
                       0.4770206625067733],
                      [0.13459089764098803, 0.7710068647645865, 0.026255621942495116,
                       0.06814661565193039]]}, 46, 88),
]


def test_equivalence_check_keeps_its_bits():
    # exact float equality: each witness float above is its shortest round-trip repr
    rng = np.random.default_rng(30)
    channels = {n: Channel(rng.dirichlet(np.ones(n), size=n)) for n in (2, 3)}
    channels["z"] = Channel([[1.0, 0.0], [0.95, 0.05]])
    pairs = {"identity": (IdentityGain(), identity_fmean()),
             "simplex,f2": (SimplexGain(), f_alpha(2.0)), "simplex,f5": (SimplexGain(), f_alpha(5.0))}
    bench = SimplexOptimizerConfig(restarts=1, grid_resolution=20, max_iterations=3)
    for n, pair, u_max, lhs, rhs, witness, scored, checked in EQUIVALENCE_PINS:
        gain, f = pairs[pair]
        config = SimplexOptimizerConfig(grid_resolution=1, restarts=2) if n == "z" else bench
        channel = channels[n]
        result = verify_maximal_equals_capacity(channel, gain, f, f, (channel.n_inputs, u_max),
                                                config)
        info = result.worst_instance
        assert (info["lhs"].hex(), info["rhs"].hex()) == (lhs, rhs), (n, pair, u_max)
        assert info["lhs_witness"] == witness, (n, pair, u_max)
        assert (info["systems_scored"], result.instances_checked) == (scored, checked)
        assert result.passed


def test_equivalence_tables_are_read_only_and_keyed_on_the_draw_count(monkeypatch):
    channel = random_channel(np.random.default_rng(4), 3, 3)
    ident = identity_fmean()
    config = SimplexOptimizerConfig(restarts=1, grid_resolution=6, seed=5)
    tables = verify._equivalence_tables(3, 4, 6, 5, 40)
    assert verify._equivalence_tables(3, 4, 6, 5, 40) is tables
    for table in tables:
        if isinstance(table, np.ndarray):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0.5
        else:
            assert isinstance(table, tuple)
    scored, priors = {}, len(simplex_grid(3, 6)) + 1
    for draws in (40, 0, 40, 7):
        monkeypatch.setattr(verify, "_STOCHASTIC_DRAWS", draws)
        result = verify_maximal_equals_capacity(channel, IdentityGain(), ident, ident, (3, 4), config)
        scored[draws] = result.worst_instance["systems_scored"]
        assert result.instances_checked == priors * 4**3 + draws
    assert scored == {40: priors * 5 + 40, 0: priors * 5, 7: priors * 5 + 7}  # five partitions


def test_equivalence_check_preconditions():
    channel = bsc(0.1)
    ident = identity_fmean()
    with pytest.raises(ParameterError):
        verify_maximal_equals_capacity(channel, IdentityGain(), ident, ident, (3, 4), CFG)
    with pytest.raises(ParameterError):
        verify_maximal_equals_capacity(
            channel, FiniteMatrixGain([[1.0, 0.0]]), ident, ident, (2, 4), CFG
        )
    with pytest.raises(ParameterError):
        verify_maximal_equals_capacity(
            channel, SimplexGain(), f_alpha(2.0), f_alpha(3.0), (2, 4), CFG
        )
    with pytest.raises(ParameterError):
        verify_maximal_equals_capacity(
            channel, SimplexGain(), f_alpha(2.0), ell_alpha(2.0), (2, 4), CFG
        )


@pytest.mark.parametrize("alpha, beta", [(4.0, 1.5), (2.0, 1.5)])
def test_equivalence_check_rejects_a_two_parameter_mean(alpha, beta):
    # h_alpha_beta(4, 1.5) = t^1.125 has a concave inverse, and h_alpha_beta(2, 1.5) = t^0.75
    # is the mean of order 4, not 2: neither may be checked at the alpha it was built from
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FMeanValidityWarning)  # exponent 0.75 < 1
        h = h_alpha_beta(alpha, beta)
    config = SimplexOptimizerConfig(restarts=1, grid_resolution=20)
    with pytest.raises(ParameterError, match="order-alpha family"):
        verify_maximal_equals_capacity(
            Channel([[0.7, 0.3], [0.2, 0.8]]), SimplexGain(), h, h, (2, 2), config
        )


def _api_leakage(joint, gain, f):
    """Generalized multiplicative leakage of the system with joint (|U|, |Y|),
    through the public vulnerability API; never-occurring symbols of U drop."""
    p_u = joint.sum(axis=1)
    keep = p_u > 0.0
    prior = Prior(p_u[keep])
    hyper = push(prior, Channel(joint[keep] / p_u[keep, None]))
    return leakage(
        gen_prior_vulnerability(prior, gain, f),
        gen_posterior_vulnerability_avg(hyper, gain, f, f),
    )


def test_batch_leakage_matches_api(rng):
    # the enumeration's stacked kernel must agree with the public API, also
    # on joints with an all-zero row (a symbol of U that is never guessed)
    joints = []
    for _ in range(20):
        n_u, n_y = (int(v) for v in rng.integers(2, 5, size=2))
        joint = rng.dirichlet(np.ones(n_u * n_y)).reshape(n_u, n_y)
        joints.append(np.vstack([joint, np.zeros((1, n_y))]))
    for alpha in (0.5, 1.0, 2.0, 1e4, math.inf):
        if math.isinf(alpha):
            gain, f = IdentityGain(), identity_fmean()
        else:
            gain, f = SimplexGain(), f_alpha(alpha)
        for joint in joints:
            h_u, h_cond = joint_arimoto(joint[None], AlphaOrder.of(alpha))
            api = _api_leakage(joint, gain, f)
            assert h_u[0] - h_cond[0] == pytest.approx(api, abs=1e-10)


def test_equivalence_check_scores_the_stochastic_draws():
    # on this Z-channel a stochastic side channel beats every deterministic
    # map over the one-step grid, so dropping the draws changes the witness
    channel = Channel([[1.0, 0.0], [0.95, 0.05]])
    f = f_alpha(5.0)
    config = SimplexOptimizerConfig(grid_resolution=1, restarts=2, seed=0)
    result = verify_maximal_equals_capacity(channel, SimplexGain(), f, f, (2, 4), config)
    assert result.passed
    witness = result.worst_instance["lhs_witness"]
    assert set(witness) == {"stochastic_prior", "conditional"}
    pi, conditional = np.array(witness["stochastic_prior"]), np.array(witness["conditional"])
    joint = np.einsum("x,xu,xy->uy", pi, conditional, channel.matrix)
    api = _api_leakage(joint, SimplexGain(), f)
    assert result.worst_instance["lhs"] == pytest.approx(api, abs=1e-12)


def test_dirichlet_rows_follow_numpy_gamma_path():
    # every suite draw rests on this: numpy's Dirichlet(1, ..., 1) draws k unit
    # exponentials per row and scales the row by 1 / (its left-to-right sum)
    for seed, k, r in product(range(200), (2, 3, 4), range(1, 5)):
        want = np.random.default_rng(seed).dirichlet(np.ones(k), size=r)
        exponentials = np.random.default_rng(seed).standard_exponential(r * k).reshape(r, k)
        padded = np.zeros((r, 4))
        padded[:, :k] = exponentials
        for got in (verify._dirichlet_rows(exponentials), verify._dirichlet_rows(padded)[:, :k]):
            assert got.tobytes() == want.tobytes(), (
                f"numpy's Dirichlet gamma-path contract no longer holds (seed {seed}, k {k}, "
                f"r {r}): dirichlet(np.ones(k), size=r) differs from standard_exponential(r * k) "
                "rows each times the reciprocal of its left-to-right sum")


def test_equivalence_check_draws_match_a_dirichlet_loop(monkeypatch):
    normalized, inner = [], verify._dirichlet_rows
    monkeypatch.setattr(verify, "_dirichlet_rows",
                        lambda rows: normalized.append(inner(rows)) or normalized[-1])
    ident = identity_fmean()
    for n_x, u_max in ((2, 2), (3, 4)):
        channel = random_channel(np.random.default_rng(n_x), n_x, 3)
        for seed in range(50):
            normalized.clear()
            verify._equivalence_tables.cache_clear()  # so that the draws are made, and recorded
            config = SimplexOptimizerConfig(restarts=1, grid_resolution=1, seed=seed)
            verify_maximal_equals_capacity(channel, IdentityGain(), ident, ident, (n_x, u_max),
                                           config)
            pis, conditionals = normalized
            assert pis.shape == (40, n_x) and conditionals.shape == (40, n_x, u_max)
            rng = np.random.default_rng(seed)
            for pi, conditional in zip(pis, conditionals):
                n_u = int(rng.integers(2, u_max + 1))
                assert pi.tobytes() == rng.dirichlet(np.ones(n_x)).tobytes()
                drawn = rng.dirichlet(np.ones(n_u), size=n_x)
                assert conditional[:, :n_u].tobytes() == drawn.tobytes()
                assert not conditional[:, n_u:].any()


def test_batch_kernel_matches_scalar_api(rng):
    priors = rng.dirichlet(np.ones(3), size=8)
    channel = random_channel(rng, 3, 4)
    joints = priors[:, :, None] * channel.matrix[None]
    for alpha in (0.0, 0.5, 1.0, 2.0, 1e4, math.inf):
        h_u, h_cond = joint_arimoto(joints, AlphaOrder.of(alpha))
        for p, value in zip(priors, h_u - h_cond):
            scalar = arimoto_mi(push(Prior(p), channel), alpha)
            assert value == pytest.approx(scalar, abs=1e-10)


def test_equivalence_check_high_order_regression():
    # raw powers of the joint underflow to 0/0 at this order, so the
    # enumeration must stay in the log domain
    channel = Channel([[0.9, 0.1], [0.2, 0.8]])
    f = f_alpha(1e4)
    result = verify_maximal_equals_capacity(channel, SimplexGain(), f, f, (2, 4), CFG)
    assert result.passed
    assert result.worst_instance["non_finite_values"] == 0
    assert result.worst_instance["lhs"] == pytest.approx(result.worst_instance["rhs"], abs=1e-6)


def reference_axiom_suite(family, n_instances, seed, tolerance=1e-9, axioms=AXIOMS):
    """The suite one instance at a time: a Prior, Channels and three pushed
    Hypers per draw, each scored by the public vulnerability functions."""
    rng = np.random.default_rng(seed)
    worst = {ax: (0.0, {}) for ax in axioms}
    for idx in range(n_instances):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        nz = int(rng.integers(2, 5))
        prior = Prior(rng.dirichlet(np.ones(nx)))
        channel = Channel(rng.dirichlet(np.ones(ny), size=nx))
        post_channel = Channel(rng.dirichlet(np.ones(nz), size=ny))
        if family.gain == "finite_random":
            n_actions = int(rng.integers(2, 5))
            gain = FiniteMatrixGain(rng.uniform(0.0, 2.0, size=(n_actions, nx)))
        else:
            gain = {"identity": IdentityGain(), "simplex": SimplexGain()}[family.gain]
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


def _reciprocal_h():
    return custom_fmean(
        lambda t: 1.0 / np.asarray(t, dtype=float),
        lambda s: 1.0 / np.asarray(s, dtype=float),
        "decreasing",
        "convex",
        domain=(1e-9, math.inf),
        name="reciprocal",
    )


def _finite_random_families():
    means = [("classical", identity_fmean())] + [
        (f"alpha[{a:g}]", f_alpha(a)) for a in (0.5, 2.0, math.inf)
    ]
    return [MeasureFamily(f"{name}-finite_random", f, f, "finite_random") for name, f in means]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_axiom_suite_matches_the_per_instance_reference(seed):
    # the stacked suite against the same draws scored one instance at a time;
    # below 1e-12 rounding may pick a different witness
    control = MeasureFamily(
        "corrupted-h", identity_fmean(), _reciprocal_h(), "identity", enforce_h_class=False
    )
    families = [classical_family()] + [alpha_family(a) for a in (0.5, 2.0, math.inf)]
    for family in families + [control] + _finite_random_families():
        expected = reference_axiom_suite(family, 1000, seed)
        for got, want in zip(run_axiom_suite(family, 1000, seed), expected, strict=True):
            assert got.theorem_id == want.theorem_id
            assert got.passed == want.passed, got.theorem_id
            assert got.instances_checked == want.instances_checked
            assert abs(got.max_violation - want.max_violation) <= 1e-12, got.theorem_id
            if want.max_violation > 1e-12:
                assert got.worst_instance == want.worst_instance, got.theorem_id


def _suite_families():
    control = MeasureFamily(
        "corrupted-h", identity_fmean(), _reciprocal_h(), "identity", enforce_h_class=False
    )
    # at order 600, alpha * log|X| < 700 holds for 2 and 3 secrets, so the
    # reference scores those rows of the simplex closed form unshifted, while
    # the suite pads them to 4 secrets and takes the max-shifted branch
    return ([classical_family()] + [alpha_family(a) for a in (0.5, 2.0, 600.0, math.inf)]
            + [control] + _finite_random_families())


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _inner=getattr(verify, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    return calls


def test_axiom_suite_matches_the_reference_across_secret_widths(monkeypatch):
    # seed 14's five instances have 2, 4, 2, 3 and 4 secrets, so one padded
    # stack holds every width the suite draws
    pushed = []
    inner = verify._push_columns
    monkeypatch.setattr(verify, "_push_columns",
                        lambda priors, *rest: pushed.append(priors) or inner(priors, *rest))
    for family in _suite_families():
        expected = reference_axiom_suite(family, 5, 14)
        for got, want in zip(run_axiom_suite(family, 5, 14), expected, strict=True):
            assert got.theorem_id == want.theorem_id
            assert got.passed == want.passed, got.theorem_id
            assert got.instances_checked == want.instances_checked == 5
            assert abs(got.max_violation - want.max_violation) <= 1e-12, got.theorem_id
            if want.max_violation > 1e-12:
                assert got.worst_instance == want.worst_instance, got.theorem_id
    assert np.count_nonzero(pushed[0][::3], axis=1).tolist() == [2, 4, 2, 3, 4]
    assert len(pushed) == len(_suite_families())


@pytest.mark.parametrize("n_instances", [1, 5, 200])
def test_axiom_suite_scores_one_stack(n_instances, monkeypatch):
    # whatever secret widths and gains are drawn: one push, one prior and
    # one posterior scoring call, and at most two cleaning calls per suite
    names = ("_clean_rows", "_gen_values", "_push_columns", "_posterior_values")
    calls = _count_calls(monkeypatch, names)
    families = [classical_family(), alpha_family(2.0)] + _finite_random_families()
    for family in families:
        run_axiom_suite(family, n_instances, seed=21)
        assert calls.pop("_clean_rows") <= 2, family.name
        assert calls == dict.fromkeys(names[1:], 1), family.name
        calls.update(dict.fromkeys(names, 0))


def test_axiom_suite_rejects_bad_axioms_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew instances")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for axioms in ((), ("NI", "MONOTONICITY")):
        with pytest.raises(ParameterError, match="AXIOMS"):
            run_axiom_suite(classical_family(), 10, seed=0, axioms=axioms)
    ident = identity_fmean()
    with pytest.raises(ParameterError, match="unknown gain kind"):
        run_axiom_suite(MeasureFamily("x", ident, ident, "bogus"), 5, 0)


def test_axiom_suites_pass_with_finite_random_gains():
    for family in _finite_random_families():
        results = run_axiom_suite(family, n_instances=300, seed=3)
        assert all(r.passed for r in results), family.name
        assert max(r.max_violation for r in results) <= 1e-12


def test_axiom_suite_fails_a_nan_violation():
    # every posterior average is NaN; NaN used to lose every comparison and
    # pass as a violation of 0
    nan_h = FMeanSpec(
        "nan-inverse",
        lambda t: np.asarray(t, dtype=float),
        lambda s: np.full(np.shape(s), math.nan),
        "increasing",
        "convex",
    )
    family = MeasureFamily("nan-h", identity_fmean(), nan_h, "identity", enforce_h_class=False)
    results = {r.theorem_id.split(":")[1]: r for r in run_axiom_suite(family, 20, seed=4)}
    for ax in ("NI", "MONO", "DPI_AVG", "AVG_LE_MAX"):
        assert not results[ax].passed
        assert results[ax].max_violation == math.inf
        assert results[ax].worst_instance["instance"] == 0
    for ax in ("DPI_MAX", "CVX", "QCVX"):
        assert results[ax].passed


def test_dual_formula_check_fails_a_nan_route(monkeypatch):
    monkeypatch.setattr(verify, "sibson_mi", lambda *args: math.nan)
    results = {r.theorem_id: r for r in verify_dual_formulas(n_instances=3, seed=1)}
    nan_route = results["dual:sibson-via-pointwise"]
    assert not nan_route.passed
    assert nan_route.max_violation == math.inf
    assert nan_route.worst_instance["instance"] == 0 and nan_route.worst_instance["alpha"] == 0.5
    assert all(r.passed for r in results.values() if r is not nan_route)


def test_dual_grid_oracle_reports_the_instances_it_compared(monkeypatch):
    oracle_priors = []

    def oracle(prior, alpha):  # the closed form itself, so each route passes
        oracle_priors.append(prior)
        return min_expected_alpha_loss(prior, alpha)[0]

    monkeypatch.setattr(verify, "_grid_min_expected_loss", oracle)
    for n_instances, compared in ((5, 5), (20, 10), (200, 10), (400, 20)):
        oracle_priors.clear()
        results = {r.theorem_id: r for r in verify_dual_formulas(n_instances, seed=0)}
        assert len(oracle_priors) == 3 * compared  # three orders per instance
        assert results.pop("dual:min-alpha-loss-grid-oracle").instances_checked == compared
        assert [r.instances_checked for r in results.values()] == [n_instances] * 3


def _drawn_gains(n_instances, seed):
    """The gain matrix each finite_random suite instance draws, in the
    suite's draw order."""
    rng, gains = np.random.default_rng(seed), []
    for _ in range(n_instances):
        nx, ny, nz = (int(rng.integers(2, 5)) for _ in range(3))
        rng.dirichlet(np.ones(nx))
        rng.dirichlet(np.ones(ny), size=nx)
        rng.dirichlet(np.ones(nz), size=ny)
        gains.append(rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 5)), nx)))
        k = int(rng.integers(2, 4))
        [rng.dirichlet(np.ones(nx)) for _ in range(k)]
        rng.dirichlet(np.ones(k))
    return gains


def test_axiom_witnesses_replay_their_convexity_violation():
    replayed = 0
    for family in [classical_family()] + _finite_random_families():
        gains = _drawn_gains(100, 1)
        for result in run_axiom_suite(family, 100, seed=1, axioms=("CVX", "QCVX")):
            witness = result.worst_instance
            if result.max_violation == 0.0:
                assert witness == {}
                continue
            gain = SimplexGain() if family.gain == "simplex" else IdentityGain()
            if family.gain == "finite_random":
                assert witness["gain"] == gains[witness["instance"]].tolist()
                gain = FiniteMatrixGain(witness["gain"])
            v_parts = [gen_prior_vulnerability(Prior(p), gain, family.f) for p in witness["parts"]]
            mixed = Prior(np.dot(witness["weights"], witness["parts"]))
            cvx = result.theorem_id.startswith("axiom:CVX:")
            bound = np.dot(witness["weights"], v_parts) if cvx else max(v_parts)
            gap = gen_prior_vulnerability(mixed, gain, family.f) - bound
            assert abs(gap - result.max_violation) <= 1e-12, result.theorem_id
            replayed += 1
    assert replayed >= 3


def test_finite_random_witnesses_hold_the_drawn_gain():
    for family in _finite_random_families():
        gains = _drawn_gains(300, 3)
        for result in run_axiom_suite(family, 300, seed=3):
            if result.worst_instance:
                drawn = gains[result.worst_instance["instance"]]
                assert np.shape(result.worst_instance["gain"]) == drawn.shape
                assert result.worst_instance["gain"] == drawn.tolist()
                assert drawn.shape[1] == len(result.worst_instance["prior"])


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_round(workload, seed, tmp_path, monkeypatch):
    """One round of a benchmark workload's ops, built from its seeded inputs
    in ``tmp_path`` as the benchmark builds it; reads ``perfbench/`` only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spec = json.loads((PERFBENCH / "spec.json").read_text())
    workloads.make_inputs(workload, seed, tmp_path)
    return workloads.build_round(workload, workloads.load_inputs(tmp_path), spec, tmp_path,
                                 PERFBENCH.parent)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_verify_ops_pass_their_own_checks(seed, tmp_path, monkeypatch):
    # the benchmark checks its axiom and negative-control ops only after the
    # timed phase; run each once here (the dual op is covered above)
    ops = _benchmark_round("verify", seed, tmp_path, monkeypatch)
    checked = [op for op in ops if op.label != "dual formulas"]
    assert len(checked) == len(ops) - 1 == 50
    for op in checked:
        assert op.check(op.call()) is None, op.label


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_capacity_ops_pass_their_own_checks(seed, tmp_path, monkeypatch):
    # searches against the independent Renyi-radius bound, the (2, 2)
    # capacity against Renyi LDP and the maximal-leakage = capacity checks
    ops = _benchmark_round("capacity", seed, tmp_path, monkeypatch)
    assert len(ops) == 39
    for op in ops:
        assert op.check(op.call()) is None, op.label


def test_benchmark_measures_ops_pass_their_own_checks(tmp_path, monkeypatch):
    # every closed form at |X| = 4..256 against perfbench/reference.py; one
    # seed, since the round's renyi_ldp pair loop takes about 2 s
    ops = _benchmark_round("measures", 1, tmp_path, monkeypatch)
    assert len(ops) == 64
    for op in ops:
        assert op.check(op.call()) is None, op.label
