"""Finite probability primitives: priors, channels and hyper-distributions.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.  Logarithms
throughout the package are natural; unit conversion happens only at the
reporting layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Inputs whose mass is off by no more than this are renormalized; anything
# further off is rejected.
INPUT_TOL = 1e-9
# Tolerance for identities the library itself guarantees (e.g. hyper
# reconstruction).
INTERNAL_TOL = 1e-10


def _clean_rows(values, what: str, rows: bool = False) -> np.ndarray:
    """Check a distribution, or with ``rows`` a matrix whose rows are
    distributions; clip, renormalize each row and return it read-only."""
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
    arr = arr / sums
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Prior:
    """Probability distribution over a finite secret alphabet."""

    probs: np.ndarray

    def __init__(self, probs) -> None:
        object.__setattr__(self, "probs", _clean_rows(probs, "prior"))

    @property
    def dim(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        """Indices x with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)

    @staticmethod
    def uniform(n: int) -> "Prior":
        return Prior(np.full(n, 1.0 / n))

    @staticmethod
    def point_mass(index: int, n: int) -> "Prior":
        p = np.zeros(n)
        p[index] = 1.0
        return Prior(p)

    def __eq__(self, other) -> bool:
        return isinstance(other, Prior) and np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix C with C[x, y] = P(Y=y | X=x)."""

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        object.__setattr__(self, "matrix", _clean_rows(matrix, "channel", rows=True))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def identity(n: int) -> "Channel":
        return Channel(np.eye(n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Channel) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.matrix.shape, self.matrix.tobytes()))


@dataclass(frozen=True)
class Hyper:
    """Hyper-distribution: outer weights p(y) over retained outputs plus one
    inner posterior per retained output.

    Outputs with zero outer probability are dropped at construction;
    ``retained_outputs`` records the surviving original column indices.
    ``inners`` is a matrix whose row i is the posterior over X given the
    i-th retained output.
    """

    outer: np.ndarray
    inners: np.ndarray
    retained_outputs: tuple = field(default=())

    def __init__(self, outer, inners, retained_outputs=None) -> None:
        out = _clean_rows(outer, "outer distribution")
        inn = _clean_rows(inners, "inner matrix", rows=True)
        if inn.shape[0] != out.size:
            raise ValidationError("inners must have one row per retained output")
        if retained_outputs is None:
            retained_outputs = tuple(range(out.size))
        object.__setattr__(self, "outer", out)
        object.__setattr__(self, "inners", inn)
        object.__setattr__(self, "retained_outputs", tuple(retained_outputs))

    @property
    def n_outputs(self) -> int:
        return self.outer.size


def push(prior: Prior, channel: Channel) -> Hyper:
    """Push a prior through a channel, producing the hyper [prior, channel].

    Outer weights are p(y) = sum_x pi_x C[x, y]; each inner is the Bayes
    posterior over X given y.  Outputs with p(y) = 0 are removed.
    """
    if prior.dim != channel.n_inputs:
        raise DimensionMismatch(
            f"prior has {prior.dim} symbols but channel has {channel.n_inputs} rows"
        )
    joint = prior.probs[:, None] * channel.matrix
    p_y = joint.sum(axis=0)
    keep = np.flatnonzero(p_y > 0.0)
    outer = p_y[keep]
    inners = (joint[:, keep] / outer).T
    hyper = Hyper(outer, inners, retained_outputs=tuple(int(k) for k in keep))
    recon = hyper.outer @ hyper.inners
    if np.max(np.abs(recon - prior.probs)) > INTERNAL_TOL:
        raise ValidationError("hyper reconstruction drifted beyond tolerance")
    return hyper


def compose(first: Channel, second: Channel) -> Channel:
    """Sequential (cascade) composition: the channel X -> Z through Y."""
    if first.n_outputs != second.n_inputs:
        raise DimensionMismatch(
            f"cannot compose {first.n_outputs}-output channel with "
            f"{second.n_inputs}-input channel"
        )
    return Channel(first.matrix @ second.matrix)


def ni_channel(n_rows: int) -> Channel:
    """Non-interfering channel: a single output reached with probability 1."""
    if n_rows < 1:
        raise ValidationError("ni_channel needs at least one row")
    return Channel(np.ones((n_rows, 1)))
