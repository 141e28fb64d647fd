"""Numerical contracts of the stacked kernels.

Every private kernel that scores a stack of rows (priors, distributions or
hypers) gives each row the bits of its one-row call, whatever the height of
the stack; the public scalar functions are those one-row calls.  The
order-alpha measures, the simplex-gain vulnerabilities under ell_alpha and
the power-mean vulnerabilities under identity and finite gains sit within a
measured number of ulps of a 50-digit oracle written with the standard
library's decimal.
"""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from qifkit import capacity
from qifkit.alpha import (
    AlphaOrder,
    _arimoto,
    _renyi_divergences,
    _renyi_entropies,
    _sibson,
    arimoto_mi,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
)
from qifkit.core import Channel, Prior, _push_columns, push
from qifkit.fmeans import custom_fmean, ell_alpha, f_alpha, h_alpha_beta, identity_fmean
from qifkit.gains import FiniteMatrixGain, IdentityGain, SimplexGain
from qifkit.vulnerability import _gen_values, _posterior_values

ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 1e3, math.inf)
BETAS = (1.0, 1.5, 2.0, math.inf)
SIZES = (3, 8, 16, 64)
HEIGHT = 6  # stacks of the first 1, 2, ..., HEIGHT rows
# the simplex gain under a custom mean runs the KKT solver, some 3 000-6 000
# golden-section steps a call whatever the stack: its stacks stop at 2 rows,
# which the solver's old shared stopping already failed (power, log and
# exponential means have closed forms and run at full height)
KKT_HEIGHT = 2
ACTIONS = 4
KERNELS = ("_renyi_entropies", "_renyi_divergences", "_sibson", "_arimoto",
           "_ab_capacity_scores", "_gen_values", "_posterior_values", "_push_columns")


def _means():
    log1p = custom_fmean(np.log1p, np.expm1, "increasing", "convex", name="log1p")
    return (identity_fmean(), f_alpha(2.0), f_alpha(0.5), ell_alpha(0.5), log1p)


def _rows(rng, n, size, sparse):
    """n distributions over size outcomes; a sparse row loses about 30% of
    its entries, never its largest."""
    raw = rng.dirichlet(np.ones(size), size=n)
    if sparse:
        cut = rng.random(raw.shape) < 0.3
        cut[np.arange(n), raw.argmax(axis=1)] = False
        raw[cut] = 0.0
    return raw / raw.sum(axis=1, keepdims=True)


def _inputs(size, sparse):
    rng = np.random.default_rng([size, sparse])
    P, C = _rows(rng, HEIGHT, size, sparse), _rows(rng, size, size, sparse)
    joint = P[:, :, None] * C  # hyper i of the Arimoto stack pushes P[i] through C
    outer = joint.sum(axis=1)
    inners = np.divide(joint.transpose(0, 2, 1), outer[:, :, None],
                       out=np.zeros((HEIGHT, size, size)), where=outer[:, :, None] > 0.0)
    # hyper i of the push and posterior stacks pushes P[i] through channels[i]
    channels = [_rows(rng, size, int(rng.integers(2, 6)), sparse) for _ in range(HEIGHT)]
    hypers = [push(Prior(p), Channel(m)) for p, m in zip(P, channels)]
    return SimpleNamespace(
        P=P, C=C, q=_rows(rng, 1, size, sparse)[0], outer=outer, inners=inners,
        channels=channels, hypers=hypers,
        gain=rng.uniform(0.1, 3.0, size=(ACTIONS, size)),
        gains=rng.uniform(0.1, 3.0, size=(HEIGHT, ACTIONS, size)),  # one matrix per row
        post_gains=[rng.uniform(0.1, 3.0, size=(h.n_outputs, ACTIONS, size)) for h in hypers])


def _per_row(*arrays) -> list:
    """The bytes of each row (leading index) of the arrays, side by side."""
    return [b"".join(np.ascontiguousarray(part).tobytes() for part in parts)
            for parts in zip(*arrays)]


def _cases(kernel, x):
    """(label, rows, height) triples: rows(idx) scores the rows idx of x as
    one stack and returns one bytes string per row, for stacks of up to
    height rows."""
    if kernel == "_ab_capacity_scores":
        channel = Channel(x.C)
        for alpha in (a for a in ORDERS if a > 1.0):
            for beta in BETAS:
                scores = capacity._ab_capacity_scores(channel, alpha, beta)
                yield (f"alpha={alpha:g} beta={beta:g}",
                       lambda idx, s=scores: _per_row(s(x.P[idx])), HEIGHT)
        return
    if kernel == "_push_columns":
        def pushed(idx):
            widths = [x.channels[i].shape[1] for i in idx]
            outer, joint, owner, keep = _push_columns(
                x.P[idx], np.hstack([x.channels[i] for i in idx]), widths)
            kept = np.split(keep, np.cumsum(widths)[:-1])
            return [outer[owner == j].tobytes() + joint[owner == j].tobytes() + kept[j].tobytes()
                    for j in range(len(idx))]
        yield "push", pushed, HEIGHT
        return
    if kernel in ("_gen_values", "_posterior_values"):
        if kernel == "_gen_values":
            pairs = [(f, None) for f in _means()]
        else:  # h = f, and a distinct power and exponential h; ell_alpha(0.5), exp(-t), is
            # convex decreasing, outside a distinct h's class, so that check is off
            pairs = [(f, f) for f in _means()] + [(f_alpha(2.0), h_alpha_beta(2.0, 3.0)),
                                                  (identity_fmean(), ell_alpha(0.5))]
        for gain_name in ("identity", "simplex", "shared finite", "stacked finite"):
            shared = {"identity": IdentityGain(), "simplex": SimplexGain(),
                      "shared finite": FiniteMatrixGain(x.gain)}.get(gain_name)
            for f, h in pairs:
                label = f"{gain_name} gain, f = {f.name}" + ("" if h is None else f", h = {h.name}")
                height = KKT_HEIGHT if gain_name == "simplex" and f.kind == "custom" else HEIGHT
                if h is None:
                    def gen(idx, g=shared, f=f):
                        return _per_row(_gen_values(x.P[idx], x.gains[idx] if g is None else g, f))
                    yield label, gen, height
                else:
                    def posterior(idx, g=shared, f=f, h=h):
                        hypers = [x.hypers[i] for i in idx]
                        owner = np.repeat(np.arange(len(idx)), [y.n_outputs for y in hypers])
                        gains = np.concatenate([x.post_gains[i] for i in idx]) if g is None else g
                        avg, worst = _posterior_values(
                            np.concatenate([y.outer for y in hypers]),
                            np.vstack([y.inners for y in hypers]), owner, gains, f, h,
                            enforce_h_class=False)
                        return _per_row(avg, worst)
                    yield label, posterior, height
        return
    for alpha in ORDERS:
        a = AlphaOrder.of(alpha)
        rows = {
            "_renyi_entropies": lambda idx, a=a: _per_row(_renyi_entropies(x.P[idx], a)),
            "_renyi_divergences": lambda idx, a=a: _per_row(_renyi_divergences(x.P[idx], x.q, a)),
            "_sibson": lambda idx, a=a: _per_row(_sibson(x.P[idx], x.C, a)),
            "_arimoto": lambda idx, a=a: _per_row(*_arimoto(x.outer[idx], x.inners[idx], a)),
        }[kernel]
        yield f"alpha={alpha:g}", rows, HEIGHT


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_a_row_of_a_stack_is_its_one_row_call(kernel, size):
    differ = []
    for sparse in (False, True):
        x = _inputs(size, sparse)
        for label, rows, top in _cases(kernel, x):
            alone = [rows(np.array([i]))[0] for i in range(top)]
            for height in range(2, top + 1):  # height 1 is the first one-row call
                stacked = rows(np.arange(height))
                assert len(stacked) == height
                differ += [(label, "30% zeros" if sparse else "dense", height, i)
                           for i in range(height) if stacked[i] != alone[i]]
    assert not differ, f"{len(differ)} rows differ from their one-row calls, first {differ[:5]}"


# ---------------------------------------------------------------- 50-digit oracle
#
# Each measure recomputed in the standard library's decimal at 50 digits from
# the exact float inputs the kernel sees, and the kernel's distance to it
# counted in ulps of the oracle value.

def _dec(x):
    return x if isinstance(x, Decimal) else Decimal(float(x))  # a float converts exactly


def _oracle_entropy(p, a):
    p = [_dec(v) for v in p if v > 0]
    if a == 0.0:
        return Decimal(len(p)).ln()
    if a == 1.0:
        return -sum(v * v.ln() for v in p)
    if a == math.inf:
        return -max(p).ln()
    return sum(v ** _dec(a) for v in p).ln() / (1 - _dec(a))


def _oracle_divergence(mu, pi, a):
    pairs = [(_dec(m), _dec(q)) for m, q in zip(mu, pi) if m > 0.0]
    if a == 0.0:
        return -sum(q for _, q in pairs).ln()
    if any(q == 0 for _, q in pairs):
        return Decimal("Infinity")
    if a == 1.0:
        return sum(m * (m / q).ln() for m, q in pairs)
    if a == math.inf:
        return max(m / q for m, q in pairs).ln()
    a = _dec(a)
    return sum(m ** a * q ** (1 - a) for m, q in pairs).ln() / (a - 1)


def _oracle_sibson(p, C, a):
    support = [(_dec(px), [_dec(c) for c in row]) for px, row in zip(p, C) if px > 0.0]
    columns = range(len(C[0]))
    if a == 0.0:
        if any(all(row[y] > 0 for _, row in support) for y in columns):
            return Decimal(0)
        return -min(max(sum(px for px, row in support if row[y] > 0) for y in columns),
                    Decimal(1)).ln()
    if a == math.inf:
        return sum(max(row[y] for _, row in support) for y in columns).ln()
    if a == 1.0:
        q = [sum(px * row[y] for px, row in support) for y in columns]
        return sum(px * row[y] * (row[y] / q[y]).ln()
                   for px, row in support for y in columns if row[y] > 0)
    a = _dec(a)
    inner = [sum(px * row[y] ** a for px, row in support) for y in columns]
    return a / (a - 1) * sum(s ** (1 / a) for s in inner if s > 0).ln()


def _oracle_arimoto(outer, inners, a):
    """From the hyper the kernel sees: a posterior entry p_x C_xy / p(y) below
    the float range is already 0 there, as no float64 hyper can hold it."""
    joint = [[_dec(w) * _dec(v) for v in row] for w, row in zip(outer, inners)]
    h_x = _oracle_entropy([sum(column) for column in zip(*joint)], a)
    if a == 0.0:
        return h_x - Decimal(max(sum(1 for v in row if v > 0) for row in joint)).ln()
    if a == 1.0:
        return h_x - sum(-v * (v / sum(row)).ln() for row in joint for v in row if v > 0)
    if a == math.inf:
        return h_x + sum(max(row) for row in joint).ln()
    r = _dec(a)
    norms = sum(sum(v ** r for v in row if v > 0) ** (1 / r) for row in joint)
    return h_x - r / (1 - r) * norms.ln()


def _ulps(got, exact, floor=1.0):
    """|got - exact| in ulps of max(|exact|, floor), by default 1 nat: relative
    above one nat, absolute (in units of 2^-52) below, where a difference of
    entropies cancels.  An infinite oracle value must be met exactly."""
    if exact.is_infinite():
        return 0.0 if got == float(exact) else math.inf
    return float(abs(_dec(got) - exact) / _dec(math.ulp(max(abs(float(exact)), floor))))


ORACLE_ORDERS = {"0": (0.0,), "(0, 1/2]": (0.3, 0.5), "(1/2, 1)": (0.9,), "1": (1.0,),
                 "(1, 10]": (1.5, 2.0, 5.0), "(10, inf)": (50.0, 1e3), "inf": (math.inf,)}
# ulps of max(|value|, 1 nat), measured first: about 1.5 times the largest
# error over 30 seeds of _oracle_inputs (seed 11, the one tested, included);
# the error grows as 1/|1 - alpha| near order 1, which each formula divides by
ULP_CEILINGS = {
    "sibson_mi": {"0": 1, "(0, 1/2]": 3, "(1/2, 1)": 22, "1": 5, "(1, 10]": 6,
                  "(10, inf)": 3, "inf": 2},
    "arimoto_mi": {"0": 1, "(0, 1/2]": 5, "(1/2, 1)": 25, "1": 4, "(1, 10]": 10,
                   "(10, inf)": 4, "inf": 2},
    "renyi_entropy": {"0": 1, "(0, 1/2]": 4, "(1/2, 1)": 15, "1": 2, "(1, 10]": 5,
                      "(10, inf)": 3, "inf": 1},
    "renyi_divergence": {"0": 2, "(0, 1/2]": 4, "(1/2, 1)": 23, "1": 3, "(1, 10]": 6,
                         "(10, inf)": 8, "inf": 2},
}


def _oracle_inputs(seed=11, sizes=(2, 4, 8)):
    """(prior, channel, references) of each size x size: dense, with exact
    zeros, and with 1e-200 entries in place of those zeros."""
    rng = np.random.default_rng(seed)
    for size in sizes:
        for kind in ("dense", "zeros", "tiny"):
            rows = _rows(rng, size + 3, size, kind != "dense")
            if kind == "tiny":
                rows = np.where(rows == 0.0, 1e-200, rows)
                rows /= rows.sum(axis=1, keepdims=True)
            dense = _rows(rng, 1, size, False)[0]
            yield Prior(rows[0]), Channel(rows[1:-2]), (Prior(rows[-1]), Prior(dense))


@pytest.mark.parametrize("measure", ULP_CEILINGS)
def test_measures_sit_within_their_ulp_ceilings_of_a_50_digit_oracle(measure):
    worst = _oracle_errors(measure, _oracle_inputs())
    over = {label: (round(worst[label], 2), ceiling)
            for label, ceiling in ULP_CEILINGS[measure].items() if worst[label] > ceiling}
    assert not over, f"{measure}: (ulps, ceiling) by order range {over}"


def _oracle_errors(measure, inputs):
    """The largest error in ulps of each order range over the inputs."""
    worst = {}
    for prior, channel, references in inputs:
        hyper = push(prior, channel)
        p, C = prior.probs.tolist(), channel.matrix.tolist()
        for label, orders in ORACLE_ORDERS.items():
            for a in orders:
                with localcontext(prec=50):
                    if measure == "sibson_mi":
                        pairs = [(sibson_mi(prior, channel, a), _oracle_sibson(p, C, a))]
                    elif measure == "arimoto_mi":
                        pairs = [(arimoto_mi(hyper, a), _oracle_arimoto(
                            hyper.outer.tolist(), hyper.inners.tolist(), a))]
                    elif measure == "renyi_entropy":
                        pairs = [(renyi_entropy(prior, a), _oracle_entropy(p, a))]
                    else:
                        pairs = [(renyi_divergence(prior, q, a),
                                  _oracle_divergence(p, q.probs.tolist(), a)) for q in references]
                    for got, exact in pairs:
                        worst[label] = max(worst.get(label, 0.0), _ulps(got, exact))
    return worst


def _oracle_alpha_beta(p, C, a, b):
    """alpha_beta_leakage from its definition: factor/b log sum_y p_y^(1-b)
    M_y^b over the reached outputs (factor log max_y M_y / p_y at b = inf),
    M_y = ||(pi_x C_xy)_x||_a / ||pi||_a (max_x pi_x C_xy / max_x pi_x at
    a = inf), factor = a/(a-1) (1 at a = inf)."""
    support = [(_dec(px), [_dec(c) for c in row]) for px, row in zip(p, C) if px > 0.0]
    columns = range(len(C[0]))
    if a == math.inf:
        norm, factor = max(px for px, _ in support), Decimal(1)
        M = [max(px * row[y] for px, row in support) / norm for y in columns]
    else:
        r = _dec(a)
        norm, factor = sum(px ** r for px, _ in support) ** (1 / r), r / (r - 1)
        M = [sum((px * row[y]) ** r for px, row in support) ** (1 / r) / norm for y in columns]
    reached = [(sum(px * row[y] for px, row in support), m) for y, m in zip(columns, M)]
    reached = [(q, m) for q, m in reached if q > 0]
    if b == math.inf:
        return factor * max(m / q for q, m in reached).ln()
    b = _dec(b)
    return factor / b * sum(q ** (1 - b) * m ** b for q, m in reached).ln()


AB_ALPHAS = {"(1, 10]": (1.5, 2.0, 5.0), "(10, inf)": (50.0,), "inf": (math.inf,)}
AB_BETAS = {"1": (1.0,), "(1, 10]": (1.5, 2.0, 5.0), "inf": (math.inf,)}
# (alpha range, beta range): ulps of max(|value|, 1 nat), measured as above.
# At beta = inf the error grows with |log p(y)| of the output that attains
# the max, as log M_y - log p_y cancels: 769 ulps (1.7e-13 nats) where that
# output's mass is 1e-200, against at most 18 on inputs without 1e-200 entries
AB_ULP_CEILINGS = {("(1, 10]", "1"): 9, ("(1, 10]", "(1, 10]"): 9, ("(1, 10]", "inf"): 1154,
                   ("(10, inf)", "1"): 3, ("(10, inf)", "(1, 10]"): 4, ("(10, inf)", "inf"): 16,
                   ("inf", "1"): 2, ("inf", "(1, 10]"): 3, ("inf", "inf"): 16}


def test_alpha_beta_leakage_sits_within_its_ulp_ceilings_of_a_50_digit_oracle():
    worst = dict.fromkeys(AB_ULP_CEILINGS, 0.0)
    for prior, channel, _ in _oracle_inputs():
        p, C = prior.probs.tolist(), channel.matrix.tolist()
        for a_label, b_label in AB_ULP_CEILINGS:
            for a in AB_ALPHAS[a_label]:
                for b in AB_BETAS[b_label]:
                    with localcontext(prec=50):
                        error = _ulps(capacity.alpha_beta_leakage(prior, channel, a, b),
                                      _oracle_alpha_beta(p, C, a, b))
                    worst[a_label, b_label] = max(worst[a_label, b_label], error)
    over = {labels: (round(worst[labels], 2), ceiling)
            for labels, ceiling in AB_ULP_CEILINGS.items() if worst[labels] > ceiling}
    assert not over, f"alpha_beta_leakage: (ulps, ceiling) by order ranges {over}"


def _oracle_ell_log_mean(p, r):
    """log min_w sum_x p_x exp(r w_x) over distributions w, r < 0, by
    water-filling: the k largest log p_x are active, where each p_x exp(r w_x)
    is exp(c), c = (the sum of their logs + r) / k, and k is the largest count
    whose smallest active log stays above c; the rest keep w_x = 0."""
    logs = sorted((_dec(v).ln() for v in p if v > 0.0), reverse=True)
    k, c = max((k, c) for k in range(1, len(logs) + 1)
               if logs[k - 1] > (c := (sum(logs[:k]) + _dec(r)) / k))
    return (k * c.exp() + sum(v.exp() for v in logs[k:])).ln()


ELL_ORDERS = {"(0, 1e-3]": (1e-6, 1e-3), "(1e-3, 1/2]": (0.1, 0.5), "(1/2, 1)": (0.9,)}
# relative ulps of the vulnerability, measured first: about 1.5 times the
# largest error over 30 seeds of _oracle_inputs up to 16 x 16 (seed 11, the
# one tested, included); the projection's sums lose digits as log p / |r|
# grows near order 1
ELL_ULP_CEILINGS = {
    "prior": {"(0, 1e-3]": 3, "(1e-3, 1/2]": 34, "(1/2, 1)": 151},
    "average, h = f": {"(0, 1e-3]": 4, "(1e-3, 1/2]": 9, "(1/2, 1)": 70},
    "average, h = identity": {"(0, 1e-3]": 3, "(1e-3, 1/2]": 4, "(1/2, 1)": 29},
    "max": {"(0, 1e-3]": 3, "(1e-3, 1/2]": 7, "(1/2, 1)": 83},
}


def _ell_simplex_errors(inputs):
    """The largest error in relative ulps of each vulnerability and order
    range under the simplex gain and ell_alpha over the inputs."""
    worst = {measure: dict.fromkeys(ELL_ORDERS, 0.0) for measure in ELL_ULP_CEILINGS}
    gain = SimplexGain()
    for prior, channel, _ in inputs:
        hyper = push(prior, channel)
        owner = np.zeros(hyper.n_outputs, dtype=int)
        for label, orders in ELL_ORDERS.items():
            for a in orders:
                f = ell_alpha(a)
                got = {"prior": _gen_values(prior.probs[None], gain, f)[0]}
                got["average, h = f"], got["max"] = (
                    v[0] for v in _posterior_values(hyper.outer, hyper.inners, owner, gain, f, f))
                got["average, h = identity"] = _posterior_values(
                    hyper.outer, hyper.inners, owner, gain, f, identity_fmean())[0][0]
                with localcontext(prec=50):
                    r = _dec(f.exp_rate)
                    logs = [_oracle_ell_log_mean(q, f.exp_rate) for q in hyper.inners.tolist()]
                    outer = [_dec(w) for w in hyper.outer]
                    exact = {
                        "prior": _oracle_ell_log_mean(prior.probs.tolist(), f.exp_rate) / r,
                        "average, h = f": sum(w * v.exp() for w, v in zip(outer, logs)).ln() / r,
                        "average, h = identity": sum(w * v for w, v in zip(outer, logs)) / r,
                        "max": min(logs) / r,
                    }
                    for measure, value in exact.items():
                        error = _ulps(got[measure], value, floor=0.0)
                        worst[measure][label] = max(worst[measure][label], error)
    return worst


def test_ell_simplex_vulnerabilities_sit_within_their_ulp_ceilings_of_a_50_digit_oracle():
    worst = _ell_simplex_errors(_oracle_inputs(sizes=(2, 4, 8, 16)))
    over = {(measure, label): (round(worst[measure][label], 2), ceiling)
            for measure, ceilings in ELL_ULP_CEILINGS.items()
            for label, ceiling in ceilings.items() if worst[measure][label] > ceiling}
    assert not over, f"(ulps, ceiling) by vulnerability and order range {over}"


def _dec_pow(x, e):
    """x ** e for a float exponent e in decimal: exact integer and half-integer
    powers (the first through a correctly rounded square root), exp(e ln x)
    otherwise; 0 ** e is 0 for e > 0 and infinite for e < 0."""
    if x == 0:
        return Decimal(0) if e > 0 else Decimal("Infinity")
    if e.is_integer():
        return x ** int(e)
    if (2 * e).is_integer():
        return x.sqrt() ** int(2 * e)
    return (_dec(e) * x.ln()).exp()


def _oracle_power_mean(weights, values, e):
    """(sum_i w_i v_i^e)^(1/e) over the w_i > 0: a zero v_i makes it 0 for e < 0."""
    terms = [_dec(w) * _dec_pow(_dec(v), e) for w, v in zip(weights, values) if w > 0.0]
    total = sum(terms)
    return Decimal(0) if total == 0 or total.is_infinite() else _dec_pow(total, 1.0 / e)


def _oracle_power_v(p, G, e):
    """max_w (sum_x p_x g(w, x)^e)^(1/e) for the power mean t^e."""
    return max(_oracle_power_mean(p, row, e) for row in G)


POWER_ORDERS = (0.5, 2.0, 0.01)  # f_alpha exponents -1, 1/2 and -99
POWER_HS = {"average, h = ab(2, 3)": (2.0, 3.0), "average, h = ab(2, 10)": (2.0, 10.0)}
# relative ulps of the vulnerability, measured first: about 1.5 times the
# largest error over 30 seeds of _oracle_inputs (seed 11, the one tested,
# included), each scored under the identity gain and under one drawn gain with
# zeros, scaled by 1e-8 and by 1e70.  V is exp(log V), so its error grows with
# |log V|: at most 6 ulps under the identity gain, 70 at 1e-8 and 528 at 1e70
POWER_ULP_CEILINGS = {
    "prior": {0.5: 413, 2.0: 372, 0.01: 553},
    "max": {0.5: 318, 2.0: 384, 0.01: 560},
    "average, h = f": {0.5: 357, 2.0: 330, 0.01: 793},
    "average, h = ab(2, 3)": {0.5: 533, 2.0: 504, 0.01: 398},
    "average, h = ab(2, 10)": {0.5: 436, 2.0: 485, 0.01: 687},
}


def _power_errors(seed=11):
    """The largest error in relative ulps of each vulnerability and f_alpha
    order under the identity gain and finite gains over _oracle_inputs(seed)."""
    worst = {measure: dict.fromkeys(POWER_ORDERS, 0.0) for measure in POWER_ULP_CEILINGS}
    rng = np.random.default_rng([seed, 1])  # the gains
    for prior, channel, _ in _oracle_inputs(seed):
        hyper = push(prior, channel)
        owner = np.zeros(hyper.n_outputs, dtype=int)
        drawn = np.where(rng.random((ACTIONS, prior.dim)) < 0.2, 0.0,
                         rng.uniform(0.1, 3.0, (ACTIONS, prior.dim)))
        for gain, matrix in [(IdentityGain(), np.eye(prior.dim))] + [
                (FiniteMatrixGain(scale * drawn), scale * drawn) for scale in (1e-8, 1e70)]:
            G = matrix.tolist()
            for a in POWER_ORDERS:
                f = f_alpha(a)
                got = {"prior": _gen_values(prior.probs[None], gain, f)[0]}
                got["average, h = f"], got["max"] = (
                    v[0] for v in _posterior_values(hyper.outer, hyper.inners, owner, gain, f, f))
                for measure, (ha, hb) in POWER_HS.items():
                    got[measure] = _posterior_values(hyper.outer, hyper.inners, owner, gain, f,
                                                     h_alpha_beta(ha, hb))[0][0]
                with localcontext(prec=50):
                    values = [_oracle_power_v(q, G, f.power) for q in hyper.inners.tolist()]
                    exact = {"prior": _oracle_power_v(prior.probs.tolist(), G, f.power),
                             "max": max(values),
                             "average, h = f": _oracle_power_mean(hyper.outer, values, f.power)}
                    for measure, (ha, hb) in POWER_HS.items():
                        exact[measure] = _oracle_power_mean(
                            hyper.outer, values, h_alpha_beta(ha, hb).power)
                    for measure, value in exact.items():
                        error = _ulps(got[measure], value, floor=0.0)
                        worst[measure][a] = max(worst[measure][a], error)
    return worst


def test_power_mean_vulnerabilities_sit_within_their_ulp_ceilings_of_a_50_digit_oracle():
    worst = _power_errors()
    over = {(measure, a): (round(worst[measure][a], 2), ceiling)
            for measure, ceilings in POWER_ULP_CEILINGS.items()
            for a, ceiling in ceilings.items() if worst[measure][a] > ceiling}
    assert not over, f"(ulps, ceiling) by vulnerability and order {over}"
