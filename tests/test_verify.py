import math
from itertools import product

import numpy as np
import pytest

from qifkit.alpha import AlphaOrder, _arimoto, arimoto_mi
from qifkit.capacity import SimplexOptimizerConfig
from qifkit.core import Channel, Prior, push
from qifkit.errors import ParameterError
from qifkit.fmeans import custom_fmean, ell_alpha, f_alpha, identity_fmean
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
from qifkit.vulnerability import gen_posterior_vulnerability_avg, gen_prior_vulnerability, leakage

from conftest import bsc, random_channel

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


def test_equivalence_check_one_map_per_partition_reaches_the_all_maps_maximum():
    # relabeling U leaves a map's leakage unchanged, so the check scores one
    # map per set partition of X; the maximum over every map, scored one at
    # a time here, must be the same
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
                h_u, h_cond = _arimoto(joints, order)
                every_map = max(every_map, float(np.max(h_u - h_cond)))
            result = verify_maximal_equals_capacity(
                channel, gain, f, f, (n_x, u_max), config, n_stochastic=0
            )
            info = result.worst_instance
            assert info["lhs"] == pytest.approx(every_map, abs=1e-14)
            witness = info["lhs_witness"]["map"]
            assert all(witness[i] <= 1 + max(witness[:i], default=-1) for i in range(n_x))
            prior = np.array(info["lhs_witness"]["prior"])
            joint = np.einsum("x,xu,xy->uy", prior, np.eye(u_max)[witness], channel.matrix)
            h_u, h_cond = _arimoto(joint[None], order)
            assert h_u[0] - h_cond[0] == pytest.approx(info["lhs"], abs=1e-14)
            partitions = {2: 2, 3: 4 if u_max == 2 else 5}[n_x]
            assert info["systems_scored"] == len(priors) * partitions
            assert result.instances_checked == len(priors) * u_max**n_x


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
    with pytest.raises(ParameterError):
        # a negative draw count used to shrink instances_checked instead
        verify_maximal_equals_capacity(
            channel, SimplexGain(), f_alpha(2.0), f_alpha(2.0), (2, 4), CFG, n_stochastic=-5
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
            h_u, h_cond = _arimoto(joint[None], AlphaOrder.of(alpha))
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


def test_batch_kernel_matches_scalar_api(rng):
    priors = rng.dirichlet(np.ones(3), size=8)
    channel = random_channel(rng, 3, 4)
    joints = priors[:, :, None] * channel.matrix[None]
    for alpha in (0.0, 0.5, 1.0, 2.0, 1e4, math.inf):
        h_u, h_cond = _arimoto(joints, AlphaOrder.of(alpha))
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
