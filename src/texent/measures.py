"""Entropy measures for finite distributions, built on a Gaussian information gain.

The gain assigned to an event of probability p is exp(-p**2): it is 1 for an
impossible event and falls monotonically to exp(-1) for a certain one.  The
resulting entropy

    H(P) = sum(p_i * exp(-p_i**2))

is bounded between exp(-1) (a single certain outcome) and exp(-1/n**2)
(uniform over n outcomes), and is non-additive: H(X) + H(Y) strictly exceeds
the joint entropy H(X, Y) even when X and Y are independent, which makes the
measure a sensitive summary of correlated sources.  Conditional, joint and
relative variants follow the same gain.  Shannon, Renyi, Tsallis and
exponential-gain (Pal-Pal) entropies are provided for comparison; logarithmic
measures use natural logarithms so all five live on an e-based scale.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateNormalizationError, DomainError

__all__ = [
    "H_MIN",
    "PROB_SUM_TOL",
    "ProbDist",
    "JointDist",
    "EntropyMeasure",
    "MEASURE_KINDS",
    "info_gain",
    "entropy",
    "entropy_bounds",
    "normalized_entropy",
    "shannon",
    "renyi",
    "tsallis",
    "pal_pal",
    "conditional_entropy_x_given_y",
    "conditional_entropy_y_given_x",
    "joint_entropy",
    "relative_entropy",
    "apply_measure",
]

#: Entropy of a one-outcome (certain) distribution; the global minimum.
H_MIN = math.exp(-1)

#: Tolerance on the total probability mass accepted at construction.
PROB_SUM_TOL = 1e-9

# Slack on the per-element upper bound so that marginals of a joint whose
# total drifted within PROB_SUM_TOL of 1 still construct.
_ELEM_TOL = 1e-12


def _checked(values: Iterable[float], ndim: int, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"{what} must be a non-empty {ndim}-D array of reals")
    if np.any(arr < 0.0) or np.any(arr > 1.0 + _ELEM_TOL):
        raise DomainError(f"{what} entries must lie in [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(
            f"{what} sums to {total!r}; expected 1 within {PROB_SUM_TOL}"
        )
    arr.setflags(write=False)
    return arr


def _rescaled(weights, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(weights, dtype=np.float64)
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"weights must be a non-empty {ndim}-D array of reals")
    if np.any(arr < 0.0):
        raise DomainError("weights must be non-negative")
    total = float(arr.sum())
    if total <= 0.0:
        raise DomainError("weights must have a positive total")
    return arr / total


class ProbDist:
    """A complete finite probability distribution (p_1, ..., p_n).

    Construction requires every element in [0, 1] and a total of 1 within
    ``PROB_SUM_TOL``; nothing is rescaled silently.  Use :meth:`normalize`
    to build a distribution from unnormalized non-negative weights.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Iterable[float]):
        self._probs = _checked(probs, 1, "probability vector")

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "ProbDist":
        # For probabilities valid by construction: skips every check.
        dist = cls.__new__(cls)
        probs.setflags(write=False)
        dist._probs = probs
        return dist

    @classmethod
    def normalize(cls, weights: Iterable[float]) -> "ProbDist":
        """Explicitly rescale non-negative weights to a unit-sum distribution."""
        return cls(_rescaled(weights, 1))

    @property
    def probs(self) -> np.ndarray:
        """Read-only float64 view of the probabilities."""
        return self._probs

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return self._probs.size

    def __len__(self) -> int:
        return self._probs.size

    def __repr__(self) -> str:
        return f"ProbDist({np.array2string(self._probs, threshold=8)})"


class JointDist:
    """Joint distribution of two finite variables; cells[i, j] = p(x_i, y_j)."""

    __slots__ = ("_cells",)

    def __init__(self, cells):
        self._cells = _checked(cells, 2, "joint matrix")

    @classmethod
    def normalize(cls, weights) -> "JointDist":
        """Explicitly rescale a non-negative matrix to total mass 1."""
        return cls(_rescaled(weights, 2))

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def n(self) -> int:
        """Number of x outcomes (rows)."""
        return self._cells.shape[0]

    @property
    def m(self) -> int:
        """Number of y outcomes (columns)."""
        return self._cells.shape[1]

    @property
    def marginal_x(self) -> ProbDist:
        """p(x_i): row sums."""
        return ProbDist(self._cells.sum(axis=1))

    @property
    def marginal_y(self) -> ProbDist:
        """p(y_j): column sums."""
        return ProbDist(self._cells.sum(axis=0))

    def __repr__(self) -> str:
        return f"JointDist(n={self.n}, m={self.m})"


PROPOSED = "proposed"
PROPOSED_NORMALIZED = "proposed-normalized"
SHANNON = "shannon"
RENYI = "renyi"
TSALLIS = "tsallis"
PAL_PAL = "palpal"


#: The measure kind that takes each order parameter.
_ORDER_KIND = {"alpha": RENYI, "q": TSALLIS}


def _check_order(value: float, name: str) -> None:
    if not 0.0 < value < math.inf or value == 1.0:
        raise DomainError(f"{name} must be finite, > 0 and != 1, got {value!r}")


@dataclass(frozen=True)
class EntropyMeasure:
    """Selector for one entropy measure plus its parameter, if any.

    ``alpha`` is the Renyi order and ``q`` the Tsallis exponent; each is
    required by its measure and rejected by every other.
    """

    kind: str
    alpha: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise DomainError(
                f"unknown measure {self.kind!r}; expected one of {MEASURE_KINDS}"
            )
        for name, owner in _ORDER_KIND.items():
            value = getattr(self, name)
            if self.kind == owner:
                if value is None:
                    raise DomainError(f"{owner} requires {name}")
                _check_order(value, name)
            elif value is not None:
                raise DomainError(f"{name} is only valid for {owner}, not {self.kind}")

    @classmethod
    def select(cls, kind: str, alpha: float, q: float) -> "EntropyMeasure":
        """The measure ``kind``, given whichever of ``alpha`` and ``q`` it takes."""
        given = {"alpha": alpha, "q": q}
        return cls(kind, **{n: given[n] for n, owner in _ORDER_KIND.items() if owner == kind})


def info_gain(p: float) -> float:
    """Gaussian information gain exp(-p**2) of an event with probability p.

    Monotonically non-increasing in p, ranging from 1 at p = 0 down to
    exp(-1) at p = 1.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p!r} outside [0, 1]")
    return math.exp(-(p * p))


def _gauss_sum(p: np.ndarray) -> float:
    return float(np.sum(p * np.exp(-(p * p))))


def entropy(dist: ProbDist) -> float:
    """Gaussian-gain entropy sum(p_i * exp(-p_i**2)).

    Zero-probability outcomes contribute exactly 0.  The value lies in
    [exp(-1), exp(-1/n**2)].
    """
    return _gauss_sum(dist.probs)


def entropy_bounds(n: int) -> tuple[float, float]:
    """Analytic (minimum, maximum) of the Gaussian-gain entropy over n outcomes.

    The minimum exp(-1) is attained by a one-hot distribution, the maximum
    exp(-1/n**2) by the uniform one.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return H_MIN, math.exp(-1.0 / (n * n))


def normalized_entropy(dist: ProbDist) -> float:
    """Gaussian-gain entropy rescaled to [0, 1] by its analytic bounds.

    0 marks a one-hot distribution and 1 the uniform one.  Undefined for a
    single outcome, where the bounds coincide.
    """
    if dist.n < 2:
        raise DegenerateNormalizationError(
            "normalized entropy is undefined for a single outcome"
        )
    h_min, h_max = entropy_bounds(dist.n)
    return (entropy(dist) - h_min) / (h_max - h_min)


def shannon(dist: ProbDist) -> float:
    """Shannon entropy -sum(p_i * ln p_i) in nats, with 0 ln 0 taken as 0."""
    p = dist.probs
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def renyi(dist: ProbDist, alpha: float) -> float:
    """Renyi entropy ln(sum(p_i**alpha)) / (1 - alpha) in nats; alpha > 0, != 1.

    Evaluated as ln(p_max * sum((p_i/p_max)**alpha)) / (1 - alpha) - ln p_max:
    the log's argument lies in [p_max, n * p_max], so the value is finite for
    every accepted order and tends to the min-entropy -ln p_max as alpha grows.
    """
    _check_order(alpha, "alpha")
    p_max = dist.probs.max()
    ratio = dist.probs / p_max
    ratio **= alpha  # in place: at alpha = 2 a second temporary costs more than the power
    return float(np.log(p_max * np.sum(ratio)) / (1.0 - alpha) - np.log(p_max))


def tsallis(dist: ProbDist, q: float) -> float:
    """Tsallis entropy (1 - sum(p_i**q)) / (q - 1).  Requires q > 0, q != 1."""
    _check_order(q, "q")
    p = dist.probs
    return float((1.0 - np.sum(p**q)) / (q - 1.0))


def pal_pal(dist: ProbDist) -> float:
    """Exponential-gain entropy sum(p_i * exp(1 - p_i))."""
    p = dist.probs
    return float(np.sum(p * np.exp(1.0 - p)))


def _gain_sum(p: np.ndarray, q: np.ndarray) -> float:
    # sum(p * exp(-(p/q)**2)) where p > 0, so p = 0 cells give 0 even if q = 0.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = p / q
        return float(np.where(p > 0.0, p * np.exp(-ratio * ratio), 0.0).sum())


def _conditional(joint: JointDist, axis: int) -> float:
    # Not the other form on transposed cells, which can differ in the last ulp.
    cells = joint.cells
    return _gain_sum(cells, cells.sum(axis=axis, keepdims=True))


def conditional_entropy_x_given_y(joint: JointDist) -> float:
    """sum over cells of p(x, y) * exp(-p(x|y)**2).

    p(x|y) is the cell divided by its column marginal; cells of zero mass
    contribute exactly 0, including whole columns of zero marginal.
    """
    return _conditional(joint, 0)


def conditional_entropy_y_given_x(joint: JointDist) -> float:
    """sum over cells of p(x, y) * exp(-p(y|x)**2), mirroring the X|Y form."""
    return _conditional(joint, 1)


def joint_entropy(joint: JointDist) -> float:
    """Gaussian-gain entropy of the joint: sum(p(x, y) * exp(-p(x, y)**2))."""
    return _gauss_sum(joint.cells)


def relative_entropy(p_dist: ProbDist, q_dist: ProbDist) -> float:
    """exp(-1) minus sum(p_i * exp(-(p_i/q_i)**2)).

    Zero when the two distributions coincide and exp(-1) at the fully
    divergent extreme (all of P's mass where Q has none).  Terms with
    p_i = 0 contribute 0; terms with q_i = 0 and p_i > 0 also contribute 0
    since the gain vanishes as the ratio diverges.  Not symmetric in its
    arguments, and not a true divergence: some pairs yield small negative
    values, identical inputs being a stationary point rather than a global
    minimum.  The exact range is [exp(-1) - exp(-1/2)/sqrt(2), exp(-1)],
    about [-0.0610025, 0.3678794]; the minimum is attained at
    P = (1/sqrt(2), 1 - 1/sqrt(2)), Q = (1, 0).
    """
    if p_dist.n != q_dist.n:
        raise DomainError(
            f"distributions must share one length, got {p_dist.n} and {q_dist.n}"
        )
    return H_MIN - _gain_sum(p_dist.probs, q_dist.probs)


_EVALUATORS = {
    PROPOSED: entropy,
    PROPOSED_NORMALIZED: normalized_entropy,
    SHANNON: shannon,
    RENYI: renyi,
    TSALLIS: tsallis,
    PAL_PAL: pal_pal,
}
MEASURE_KINDS = tuple(_EVALUATORS)


def apply_measure(measure: EntropyMeasure, dist: ProbDist) -> float:
    """Evaluate the selected measure on a distribution, passing its order if any."""
    order = measure.alpha if measure.alpha is not None else measure.q
    evaluate = _EVALUATORS[measure.kind]
    return evaluate(dist) if order is None else evaluate(dist, order)
