import numpy as np
import pytest

from qifkit.core import INPUT_TOL, Channel, Hyper, Prior, _clean_rows, compose, ni_channel, push
from qifkit.errors import DimensionMismatch, ValidationError

from conftest import bsc, random_channel, random_prior


def test_prior_validation():
    p = Prior([0.25, 0.75])
    assert p.dim == 2
    assert p.probs.sum() == 1.0
    with pytest.raises(ValidationError):
        Prior([0.5, 0.6])
    with pytest.raises(ValidationError):
        Prior([-0.1, 1.1])
    with pytest.raises(ValidationError):
        Prior([])


def test_prior_renormalizes_within_tolerance():
    p = Prior([0.5, 0.5 + 5e-10])
    assert p.probs.sum() == 1.0


def test_prior_support():
    assert Prior([0.5, 0.0, 0.5]).support.tolist() == [0, 2]


def test_channel_validation():
    with pytest.raises(ValidationError):
        Channel([[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        Channel([[1.2, -0.2], [0.5, 0.5]])
    ch = Channel([[0.9, 0.1], [0.1, 0.9]])
    assert ch.n_inputs == ch.n_outputs == 2


def test_push_identity_channel_gives_point_inners():
    hyper = push(Prior.uniform(2), Channel.identity(2))
    assert np.allclose(hyper.outer, [0.5, 0.5])
    assert np.allclose(hyper.inners, np.eye(2))


def test_push_degenerate_prior_drops_unreached_outputs():
    hyper = push(Prior([1.0, 0.0]), Channel([[1.0, 0.0], [0.0, 1.0]]))
    assert hyper.retained_outputs == (0,)
    assert np.allclose(hyper.inners, [[1.0, 0.0]])


def test_push_bsc_hand_bayes():
    # joint rows 0.45/0.05; p(y) = 0.5 each; posteriors (0.9, 0.1), (0.1, 0.9)
    hyper = push(Prior.uniform(2), bsc(0.1))
    assert np.allclose(hyper.outer, [0.5, 0.5])
    assert np.allclose(hyper.inners, [[0.9, 0.1], [0.1, 0.9]])


def test_push_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        push(Prior.uniform(3), bsc(0.1))


def test_push_preserves_mass(rng):
    for _ in range(50):
        nx, ny = rng.integers(2, 6, size=2)
        prior = random_prior(rng, nx)
        hyper = push(prior, random_channel(rng, nx, ny))
        assert abs(hyper.outer.sum() - 1.0) < 1e-12
        recon = hyper.outer @ hyper.inners
        assert np.max(np.abs(recon - prior.probs)) < 1e-10


def test_compose_with_identity_and_ni():
    ch = bsc(0.1)
    assert np.allclose(compose(ch, Channel.identity(2)).matrix, ch.matrix)
    out = compose(ch, ni_channel(2))
    assert out.matrix.shape == (2, 1)
    assert np.allclose(out.matrix, 1.0)


def test_compose_hand_product():
    out = compose(bsc(0.1), bsc(0.1))
    assert np.allclose(out.matrix, [[0.82, 0.18], [0.18, 0.82]])


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(bsc(0.1), ni_channel(3))


def test_compose_associative(rng):
    for _ in range(30):
        a = random_channel(rng, 3, 4)
        b = random_channel(rng, 4, 2)
        c = random_channel(rng, 2, 3)
        lhs = compose(compose(a, b), c).matrix
        rhs = compose(a, compose(b, c)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_push_through_cascade_matches_marginalized_chain(rng):
    # p(x|z) = sum_y p(x|y) p(y|z) when the joint factors as a Markov chain
    for _ in range(30):
        nx, ny, nz = rng.integers(2, 5, size=3)
        prior = random_prior(rng, nx)
        first = random_channel(rng, nx, ny)
        second = random_channel(rng, ny, nz)
        direct = push(prior, compose(first, second))

        p_y = prior.probs @ first.matrix
        joint_yz = p_y[:, None] * second.matrix  # y, z
        p_z = joint_yz.sum(axis=0)
        hyper_y = push(prior, first)
        for i, z in enumerate(direct.retained_outputs):
            p_y_given_z = np.zeros(len(hyper_y.retained_outputs))
            for j, y in enumerate(hyper_y.retained_outputs):
                p_y_given_z[j] = joint_yz[y, z] / p_z[z]
            chained = p_y_given_z @ hyper_y.inners
            assert np.max(np.abs(chained - direct.inners[i])) < 1e-10


def test_ni_channel_point_hyper():
    prior = Prior([0.2, 0.5, 0.3])
    hyper = push(prior, ni_channel(3))
    assert hyper.n_outputs == 1
    assert np.allclose(hyper.inners[0], prior.probs)
    with pytest.raises(ValidationError):
        ni_channel(0)


def test_hyper_validates_inners():
    with pytest.raises(ValidationError):
        Hyper([0.5, 0.5], [[0.9, 0.2], [0.1, 0.9]])
    with pytest.raises(ValidationError, match="one row per retained output"):
        Hyper([0.5, 0.5], [[1.0, 0.0]])


def test_hyper_needs_one_retained_output_per_outer_weight():
    for retained in ((0,), (0, 1, 2), ()):
        with pytest.raises(ValidationError, match="retained_outputs"):
            Hyper([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], retained_outputs=retained)
    hyper = Hyper([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], retained_outputs=[0, 2])
    assert hyper.retained_outputs == (0, 2)


def test_hyper_retained_outputs_are_strictly_increasing_indices():
    for retained in ((1, 1), (-3, "a"), (2, 0), (0, 1.0), (-1, 0)):
        with pytest.raises(ValidationError, match="strictly increasing"):
            Hyper([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], retained_outputs=retained)
    hyper = push(Prior([0.5, 0.5]), Channel([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]))
    assert Hyper(hyper.outer, hyper.inners, hyper.retained_outputs).retained_outputs == (0, 2)
    assert Hyper([1.0], [[1.0]], retained_outputs=np.array([4])).retained_outputs == (4,)



GOOD = [0.5, 0.5]
BAD_ROWS = {
    "nan": [0.5, np.nan],
    "inf": [np.inf, 0.0],
    "negative": [1.0 + 2e-9, -2e-9],
    "sum_off": [0.5, 0.5 + 1e-6],
}
TARGETS = ["prior", "channel", "outer", "inners"]
VECTOR_TARGETS = ("prior", "outer")


def _build(target, table):
    if target == "prior":
        return Prior(table)
    if target == "channel":
        return Channel(table)
    if target == "outer":
        return Hyper(table, [GOOD, GOOD])
    return Hyper(GOOD, table)


def _table(target, row):
    """A table for ``target`` whose (last) distribution is ``row``."""
    return row if target in VECTOR_TARGETS else [GOOD, row]


def _malformed(target, kind):
    if kind == "empty":
        return [] if target in VECTOR_TARGETS else np.zeros((2, 0))
    if kind == "ndim":
        return [GOOD] if target in VECTOR_TARGETS else GOOD
    return _table(target, BAD_ROWS[kind])


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("kind", [*BAD_ROWS, "empty", "ndim"])
def test_one_validator_for_every_table(target, kind):
    with pytest.raises(ValidationError):
        _build(target, _malformed(target, kind))


def _stored(built):
    """The validated arrays a constructed table keeps."""
    if isinstance(built, Prior):
        return [built.probs]
    if isinstance(built, Channel):
        return [built.matrix]
    return [built.outer, built.inners]


@pytest.mark.parametrize("target", TARGETS)
def test_validator_renormalizes_drift_and_freezes(target):
    for row in ([0.25 - 4e-10, 0.75 + 7e-10], [1.0 + 5e-10, -5e-10]):
        for arr in _stored(_build(target, _table(target, row))):
            assert arr.min() >= 0.0
            assert np.max(np.abs(arr.sum(axis=-1) - 1.0)) <= 1e-15
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


def test_bad_inner_row_is_named():
    with pytest.raises(ValidationError, match="row 1 sums to"):
        Hyper(GOOD, [[0.9, 0.1], [0.2, 0.9]])


def test_prior_and_channel_messages():
    with pytest.raises(ValidationError, match="^prior sums to 1.1, not 1$"):
        Prior([0.5, 0.6])
    with pytest.raises(ValidationError, match="^channel row 1 sums to 0.75, not 1$"):
        Channel([GOOD, [0.5, 0.25]])
    with pytest.raises(ValidationError, match="^channel has negative entries$"):
        Channel([GOOD, [1.1, -0.1]])


def checked_rows(values, what, rows=False):
    """The validator with every check run in turn, as it was before valid
    input took a shortcut."""
    arr = np.asarray(values, dtype=float, order="C")
    if arr.ndim != (2 if rows else 1) or arr.size < 1:
        shape = "2-D matrix" if rows else "1-D vector"
        raise ValidationError(f"{what} must be a non-empty {shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if arr.min() < -INPUT_TOL:
        raise ValidationError(f"{what} has negative entries")
    arr = np.maximum(arr, 0.0)
    sums = arr.sum(axis=-1, keepdims=True)
    off = np.abs(sums - 1.0)
    bad = int(off.argmax())
    if off.flat[bad] > INPUT_TOL:
        where = f"{what} row {bad}" if rows else what
        raise ValidationError(f"{where} sums to {sums.flat[bad]}, not 1")
    return arr / sums


def _outcome(check, values, rows):
    try:
        out = check(values, "table", rows=rows)
    except ValidationError as err:
        return str(err)
    return out.shape, out.tobytes()  # bytes: signed zeros count


def test_validator_shortcut_keeps_every_bit_and_message():
    rng = np.random.default_rng(11)
    cases = [([], False), ([[]], True), ([0.5, 0.5], True), ([[1e300, 0.0]], True)]
    for n in (1, 2, 3, 5, 16, 256):
        for rows in (False, True):
            base = rng.dirichlet(np.ones(n), size=(4,) if rows else None)
            edits = [lambda t: t, lambda t: t * (1.0 + 5e-10), lambda t: t * 0.5, lambda t: 0.0 * t,
                     lambda t: -0.0 * t]
            for k, entry in ((0, -0.0), (0, -1e-12), (-1, np.nan), (0, np.inf), (0, -np.inf),
                             (-1, -1e-3), (0, 2.0)):
                def edit(t, k=k, entry=entry):
                    t = t.copy()
                    t[..., k] = entry
                    return t
                edits.append(edit)
            cases += [(edit(base), rows) for edit in edits]
    for values, rows in cases:
        assert _outcome(_clean_rows, values, rows) == _outcome(checked_rows, values, rows)
    got = _clean_rows([-0.0, 1.0], "prior")
    assert not np.signbit(got).any() and not got.flags.writeable
