"""Property-based checks; skipped when hypothesis is not installed."""

import math

import numpy as np
import pytest

from qifkit.alpha import AlphaOrder, arimoto_mi, sibson_mi
from qifkit.core import Channel, Prior, push

from conftest import joint_arimoto

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# zero or at least 1e-3, so that even the order-50 tilt of a prior entry
# (at least (1e-3 / 6)^50) stays a normal float
_entries = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def _prior_and_channel(draw, max_x=6):
    n_x = draw(st.integers(2, max_x))
    n_y = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(_entries, min_size=n_x, max_size=n_x)))
    rows = np.array(
        draw(st.lists(st.lists(_entries, min_size=n_y, max_size=n_y), min_size=n_x, max_size=n_x))
    )
    hypothesis.assume(weights.sum() > 0.0 and (rows.sum(axis=1) > 0.0).all())
    return Prior(weights / weights.sum()), Channel(rows / rows.sum(axis=1, keepdims=True))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(_prior_and_channel(), st.sampled_from([0.3, 0.5, 2.0, 5.0, 50.0]))
def test_tilt_identity_holds_for_drawn_priors_and_channels(pair, alpha):
    prior, channel = pair
    sup = prior.support
    log_w = np.full(prior.dim, -np.inf)
    log_w[sup] = alpha * np.log(prior.probs[sup])
    tilted = Prior(np.exp(log_w - np.logaddexp.reduce(log_w[sup])))
    assert arimoto_mi(push(prior, channel), alpha) == pytest.approx(
        sibson_mi(tilted, channel, alpha), rel=1e-12, abs=1e-12
    )


@st.composite
def _map_and_relabeling(draw):
    prior, channel = draw(_prior_and_channel(max_x=3))
    labels = draw(st.lists(st.integers(0, 3), min_size=prior.dim, max_size=prior.dim))
    return prior, channel, np.array(labels), np.array(draw(st.permutations(range(4))))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(_map_and_relabeling())
def test_relabeling_a_map_leaves_its_leakage_unchanged(case):
    # the maximal-leakage = capacity check scores one map per partition of X
    prior, channel, labels, permutation = case
    joints = np.stack([
        np.einsum("x,xu,xy->uy", prior.probs, np.eye(4)[m], channel.matrix)
        for m in (labels, permutation[labels])
    ])
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0, math.inf):
        h_u, h_cond = joint_arimoto(joints, AlphaOrder.of(alpha))
        leak = h_u - h_cond
        assert leak[1] == pytest.approx(leak[0], abs=1e-12)
