import math
import re
import warnings

import numpy as np
import pytest

from qifkit.core import Prior
from qifkit.errors import ParameterError, ValidationError
from qifkit.fmeans import (
    FMeanValidityWarning,
    custom_fmean,
    ell_alpha,
    f_alpha,
    fmeans_equal,
    h_alpha_beta,
    has_multiplicative_inverse,
    identity_fmean,
)
from qifkit.gains import FiniteMatrixGain, PointwiseInfoGain, SimplexGain, gain_matrix_for

CATALOG_ALPHAS = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 50.0, math.inf)


def test_f_alpha_exponents():
    assert f_alpha(2.0).forward(4.0) == pytest.approx(2.0)  # t^(1/2)
    assert f_alpha(math.inf).power == 1.0
    # alpha = 1/2 gives exponent (a-1)/a = -1
    spec = f_alpha(0.5)
    assert spec.forward(4.0) == pytest.approx(0.25)
    assert spec.direction == "decreasing"


def test_f_alpha_rejects_bad_order():
    with pytest.raises(ParameterError):
        f_alpha(-0.5)


def test_f_alpha_zero_is_tagged_limit():
    spec = f_alpha(0.0)
    assert spec.kind == "limit"
    with pytest.raises(ParameterError):
        spec.forward(1.0)


def test_limit_specs_refuse_evaluation_by_their_own_name():
    specs = {"f_alpha[0]": f_alpha(0.0), "ell[0]": ell_alpha(0.0),
             "h_ab[2,inf]": h_alpha_beta(2.0, math.inf)}
    for name, spec in specs.items():
        assert spec.kind == "limit" and spec.name == name
        for fn in (spec.forward, spec.inverse):
            with pytest.raises(ParameterError, match=re.escape(name)):
                fn(1.0)


def test_roundtrip_on_sampled_domain(rng):
    ts = np.concatenate([rng.uniform(1e-6, 1.0, 500), rng.uniform(1.0, 50.0, 500)])
    for a in CATALOG_ALPHAS:
        spec = f_alpha(a)
        back = np.asarray(spec.inverse(spec.forward(ts)), dtype=float)
        assert np.all(np.abs(back - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts)))
    ts = rng.uniform(-5.0, 5.0, 1000)
    for a in (0.5, 1.0, 2.0, 10.0, math.inf):
        spec = ell_alpha(a)
        back = np.asarray(spec.inverse(spec.forward(ts)), dtype=float)
        assert np.all(np.abs(back - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts)))


def test_f_alpha_inverse_convex_midpoint(rng):
    for a in CATALOG_ALPHAS:
        spec = f_alpha(a)
        xs = rng.uniform(0.05, 3.0, 200)
        ys = rng.uniform(0.05, 3.0, 200)
        mid = np.asarray(spec.inverse((xs + ys) / 2.0), dtype=float)
        avg = (
            np.asarray(spec.inverse(xs), dtype=float)
            + np.asarray(spec.inverse(ys), dtype=float)
        ) / 2.0
        assert np.all(mid <= avg + 1e-9)


def test_direction_metadata_matches_slope(rng):
    ts = np.sort(rng.uniform(0.01, 5.0, 100))
    for a in CATALOG_ALPHAS:
        spec = f_alpha(a)
        diffs = np.diff(np.asarray(spec.forward(ts), dtype=float))
        if spec.direction == "increasing":
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)


def test_f_alpha_inverse_is_multiplicative(rng):
    for a in (0.5, 2.0, 5.0, math.inf):
        spec = f_alpha(a)
        assert has_multiplicative_inverse(spec)
        xs = rng.uniform(0.1, 3.0, 100)
        ys = rng.uniform(0.1, 3.0, 100)
        lhs = np.asarray(spec.inverse(xs * ys), dtype=float)
        rhs = np.asarray(spec.inverse(xs), dtype=float) * np.asarray(
            spec.inverse(ys), dtype=float
        )
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))) < 1e-9


def test_log_mean_inverse_not_multiplicative():
    assert not has_multiplicative_inverse(f_alpha(1.0))


def test_h_alpha_beta_exponents_and_warning():
    assert h_alpha_beta(2.0, 2.0).power == 1.0  # affine-equivalent power
    spec = h_alpha_beta(2.0, 4.0)
    assert spec.power == 2.0
    assert spec.inverse_convexity == "concave"
    with pytest.warns(FMeanValidityWarning):
        h_alpha_beta(1.5, 2.0)  # beta < alpha/(alpha-1) = 3
    assert h_alpha_beta(3.0, math.inf).kind == "limit"
    with pytest.raises(ParameterError):
        h_alpha_beta(1.0, 2.0)
    with pytest.raises(ParameterError):
        h_alpha_beta(2.0, 0.5)


def test_ell_alpha_branches():
    assert ell_alpha(2.0).forward(0.0) == pytest.approx(1.0)
    assert ell_alpha(2.0).inverse(ell_alpha(2.0).forward(3.0)) == pytest.approx(3.0)
    spec = ell_alpha(0.5)  # rate (a-1)/a = -1
    assert spec.forward(1.0) == pytest.approx(math.exp(-1.0))
    assert spec.direction == "decreasing"
    assert ell_alpha(1.0).is_affine
    assert ell_alpha(0.0).kind == "limit"
    with pytest.raises(ParameterError):
        ell_alpha(-1.0)


def test_fmeans_equal():
    assert fmeans_equal(f_alpha(2.0), f_alpha(2.0))
    with pytest.warns(FMeanValidityWarning):
        collapsed = h_alpha_beta(2.0, 1.0)  # beta below alpha/(alpha-1)
    assert fmeans_equal(f_alpha(2.0), collapsed)  # same power
    assert not fmeans_equal(f_alpha(2.0), f_alpha(3.0))
    assert fmeans_equal(f_alpha(1.0), f_alpha(1.0))


def test_fmeans_equal_reads_the_exponent_or_rate_of_every_catalog_kind():
    assert fmeans_equal(f_alpha(0.0), f_alpha(0.0))
    assert fmeans_equal(ell_alpha(0.0), ell_alpha(0.0))
    assert fmeans_equal(h_alpha_beta(2.0, math.inf), h_alpha_beta(3.0, math.inf))  # both the max
    assert not fmeans_equal(f_alpha(0.0), ell_alpha(0.0))  # the same infinity, another kind
    assert not fmeans_equal(f_alpha(0.0), h_alpha_beta(2.0, math.inf))  # min vs max
    assert fmeans_equal(ell_alpha(2.0), ell_alpha(2.0))
    assert not fmeans_equal(ell_alpha(2.0), ell_alpha(3.0))

    def neglog():
        return custom_fmean(lambda t: -np.log(np.asarray(t, float)),
                            lambda s: np.exp(-np.asarray(s, float)), "decreasing", "convex")

    mean = neglog()
    assert fmeans_equal(mean, mean)
    assert not fmeans_equal(mean, neglog())  # custom means are equal only to themselves


ORDERS = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 1e6, math.inf)
AB_ALPHAS = (1.1, 1.5, 2.0, 3.0, 4.0, 10.0, math.inf)
AB_BETAS = (1.0, 1.5, 2.0, 3.0, 4.0, 10.0, math.inf)


def _catalog() -> list:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FMeanValidityWarning)
        return [identity_fmean(), *(spec(a) for a in ORDERS for spec in (f_alpha, ell_alpha)),
                *(h_alpha_beta(a, b) for a in AB_ALPHAS for b in AB_BETAS)]


def test_catalog_metadata_holds_on_sampled_points(rng):
    limits = 0
    for spec in _catalog():
        if spec.kind == "limit":
            limits += 1
            assert math.isinf(spec.power if spec.exp_rate is None else spec.exp_rate)
            for fn in (spec.forward, spec.inverse):
                with pytest.raises(ParameterError, match=re.escape(spec.name)):
                    fn(1.0)
            continue
        lo, hi = (-5.0, 5.0) if spec.domain[0] == -math.inf else (0.05, 3.0)
        ts = np.sort(rng.uniform(lo, hi, 200))
        values = np.asarray(spec.forward(ts), dtype=float)
        slopes = np.diff(values)
        assert np.all(slopes > 0.0 if spec.increasing else slopes < 0.0), spec.name
        # midpoint test of the inverse on pairs of points of its domain, the range of forward
        xs, ys = values, rng.permutation(values)
        mid = np.asarray(spec.inverse((xs + ys) / 2.0), dtype=float)
        avg = (np.asarray(spec.inverse(xs), dtype=float)
               + np.asarray(spec.inverse(ys), dtype=float)) / 2.0
        slack = 1e-12 * np.maximum(np.abs(mid), np.abs(avg))
        if spec.inverse_convexity == "affine":
            assert np.all(np.abs(mid - avg) <= slack), spec.name
        elif spec.inverse_convexity == "convex":
            assert np.all(mid <= avg + slack), spec.name
        else:
            assert spec.inverse_convexity == "concave"
            assert np.all(mid >= avg - slack), spec.name
    assert limits == 2 + len(AB_ALPHAS)  # f_alpha(0), ell_alpha(0) and every beta = inf


def test_custom_fmean_validation():
    good = custom_fmean(
        lambda t: -np.log(np.asarray(t, float)),
        lambda s: np.exp(-np.asarray(s, float)),
        "decreasing",
        "convex",
        name="neglog",
    )
    assert good.direction == "decreasing"
    with pytest.raises(ParameterError):
        custom_fmean(np.log, np.exp, "decreasing", "convex")  # wrong direction
    with pytest.raises(ParameterError):
        custom_fmean(np.log, lambda s: np.exp(2 * np.asarray(s, float)), "increasing", "convex")
    with pytest.raises(ParameterError, match="unknown direction"):
        custom_fmean(np.log, np.exp, "sideways", "affine")
    with pytest.raises(ParameterError, match="unknown convexity"):
        custom_fmean(np.log, np.exp, "increasing", "wobbly")
    with pytest.raises(ParameterError, match="not increasing"):
        custom_fmean(lambda t: -t, lambda s: -s, "increasing", "affine")


def test_finite_matrix_gain_validation():
    with pytest.raises(ValidationError):
        FiniteMatrixGain([[0.0, 0.0], [-1.0, 0.0]])  # no positive entry
    gain = FiniteMatrixGain([[2.0, 0.0], [0.0, 1.0]])
    assert gain.n_actions == 2
    assert gain_matrix_for(gain, 2).shape == (2, 2)
    with pytest.raises(ValidationError):
        gain_matrix_for(gain, 3)
    with pytest.raises(ValidationError):
        gain_matrix_for(SimplexGain(), 2)
    for shapeless in ([[]], [1.0, 2.0]):
        with pytest.raises(ValidationError, match="non-empty and 2-D"):
            FiniteMatrixGain(shapeless)
    with pytest.raises(ValidationError, match="non-finite"):
        FiniteMatrixGain([[1.0, math.nan]])


def test_pointwise_gain_holds_reference():
    gain = PointwiseInfoGain(Prior([0.5, 0.5]))
    assert gain.reference.dim == 2
