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
from several threads at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateNormalizationError, DomainError, _integer

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
    arr = np.array(values, dtype=np.float64, order="C")  # a copy: the caller's stays writable
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"{what} must be a non-empty {ndim}-D array of reals")
    if not np.all((arr >= 0.0) & (arr <= 1.0 + _ELEM_TOL)):  # NaN fails both
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
    if not np.all((arr >= 0.0) & (arr < math.inf)):  # NaN fails both
        raise DomainError("weights must be non-negative and finite")
    with np.errstate(over="ignore"):  # a total past the float range is rejected below
        total = float(arr.sum())
    if not 0.0 < total < math.inf:
        raise DomainError("weights must have a positive, finite total")
    return arr / total


class ProbDist:
    """A complete finite probability distribution (p_1, ..., p_n).

    Construction requires every element in [0, 1] and a total of 1 within
    ``PROB_SUM_TOL``; nothing is rescaled silently.  Use :meth:`normalize`
    to build a distribution from unnormalized non-negative weights.

    A distribution made from integer counts (as :func:`texent.glcp` makes
    one) holds each distinct nonzero probability and how many outcomes share
    it, and builds :attr:`probs` only when asked for it.
    """

    __slots__ = ("_probs", "_n", "_dense_probs", "_hist")

    def __init__(self, probs: Iterable[float]):
        self._probs = _checked(probs, 1, "probability vector")
        self._n = self._probs.size
        self._hist = None

    @classmethod
    def _of_histogram(cls, p: np.ndarray, multiplicity: np.ndarray, n: int,
                      dense_probs) -> "ProbDist":
        # multiplicity[k] of the n outcomes have probability p[k] > 0, and
        # dense_probs() returns all n probabilities, zeros included.
        dist = cls.__new__(cls)
        dist._probs = None
        dist._n, dist._dense_probs, dist._hist = n, dense_probs, (p, multiplicity)
        return dist

    @classmethod
    def normalize(cls, weights: Iterable[float]) -> "ProbDist":
        """Explicitly rescale finite non-negative weights to a unit-sum distribution."""
        return cls(_rescaled(weights, 1))

    @property
    def probs(self) -> np.ndarray:
        """Read-only float64 view of the probabilities."""
        if self._probs is None:
            probs = self._dense_probs()
            probs.setflags(write=False)
            self._probs = probs
        return self._probs

    def _outcomes(self) -> tuple[np.ndarray, "np.ndarray | None"]:
        # The nonzero probabilities, each once with its multiplicity when the
        # distribution was made from counts, else every one (multiplicity None).
        if self._hist is not None:
            return self._hist
        return self._probs[self._probs > 0.0], None

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return self._n

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"ProbDist({np.array2string(self.probs, threshold=8)})"


class JointDist:
    """Joint distribution of two finite variables; cells[i, j] = p(x_i, y_j)."""

    __slots__ = ("_cells",)

    def __init__(self, cells):
        self._cells = _checked(cells, 2, "joint matrix")

    @classmethod
    def normalize(cls, weights) -> "JointDist":
        """Explicitly rescale a finite non-negative matrix to total mass 1."""
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
    if not isinstance(value, numbers.Real) or not 0.0 < value < math.inf or value == 1.0:
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


def _gauss(p: np.ndarray, order=None, p_max=None) -> np.ndarray:
    return p * np.exp(-(p * p))


def _power_excess(p: np.ndarray, order: float, p_max=None) -> np.ndarray:
    return p * np.expm1((order - 1.0) * np.log(p))  # p**order - p


def _values(kind: str, order: "float | None", p: np.ndarray, multiplicity, ends: list[int],
            n: int) -> list[float]:
    # The measure on each of several distributions over n outcomes, the r-th
    # the nonzero p[ends[r - 1]:ends[r]], each shared by multiplicity[i] outcomes
    # (by one if None).  Each S = sum(phi(p_i)), as sum_k h_k * phi(k/N) when
    # h_k cells hold count k of N, is one exactly rounded fsum of its own terms.
    phi, value = _PHI[kind]
    if order is not None and abs(order - 1.0) <= _NEAR_ONE:
        phi, value = _power_excess, _VALUE_NEAR_ONE[kind]
    starts = [0, *ends[:-1]]
    p_max, each = [None] * len(ends), None  # only Renyi reads each distribution's largest p
    if kind == RENYI:
        p_max = np.maximum.reduceat(p, starts)
        each = np.repeat(p_max, np.subtract(ends, starts))
    terms = phi(p, order, each)
    terms = (terms if multiplicity is None else multiplicity * terms).tolist()
    return [value(math.fsum(terms[a:b]), order, top, n)
            for a, b, top in zip(starts, ends, p_max)]


def _evaluate(kind: str, dist: ProbDist, order: "float | None" = None) -> float:
    p, multiplicity = dist._outcomes()
    return _values(kind, order, p, multiplicity, [p.size], dist.n)[0]


def entropy(dist: ProbDist) -> float:
    """Gaussian-gain entropy sum(p_i * exp(-p_i**2)).

    Zero-probability outcomes contribute exactly 0.  The value lies in
    [exp(-1), exp(-1/n**2)].
    """
    return _evaluate(PROPOSED, dist)


def entropy_bounds(n: int) -> tuple[float, float]:
    """Analytic (minimum, maximum) of the Gaussian-gain entropy over n outcomes.

    The minimum exp(-1) is attained by a one-hot distribution, the maximum
    exp(-1/n**2) by the uniform one.
    """
    n = _integer(n, "n", 1)
    return H_MIN, math.exp(-1 / (n * n))  # int division, rounded once: n * n may pass any float


def normalized_entropy(dist: ProbDist) -> float:
    """Gaussian-gain entropy rescaled to [0, 1] by its analytic bounds.

    0 marks a one-hot distribution and 1 the uniform one.  Undefined for a
    single outcome, where the bounds coincide.
    """
    return _evaluate(PROPOSED_NORMALIZED, dist)


def _normalized(s: float, order, p_max, n: int) -> float:
    if n < 2:
        raise DegenerateNormalizationError(
            "normalized entropy is undefined for a single outcome"
        )
    h_min, h_max = entropy_bounds(n)
    return (s - h_min) / (h_max - h_min)


def shannon(dist: ProbDist) -> float:
    """Shannon entropy -sum(p_i * ln p_i) in nats, with 0 ln 0 taken as 0."""
    return _evaluate(SHANNON, dist)


def renyi(dist: ProbDist, alpha: float) -> float:
    """Renyi entropy ln(sum(p_i**alpha)) / (1 - alpha) in nats; alpha > 0, != 1.

    Evaluated as ln(p_max * sum((p_i/p_max)**alpha)) / (1 - alpha) - ln p_max:
    the log's argument lies in [p_max, n * p_max], so the value is finite for
    every accepted order and tends to the min-entropy -ln p_max as alpha grows.
    Within 2**-4 of alpha = 1 it is log1p(S) / (1 - alpha) with
    S = sum(p_i * expm1((alpha - 1) * ln p_i)), accurate as alpha nears 1.
    S measures sum(p_i**alpha) against sum(p_i), which for a distribution
    given as probabilities may differ from 1 by up to ``PROB_SUM_TOL``.
    """
    _check_order(alpha, "alpha")
    return _evaluate(RENYI, dist, alpha)


def _renyi(s: float, alpha: float, p_max: np.float64, n) -> float:
    return float(np.log(p_max * s) / (1.0 - alpha) - np.log(p_max))


def tsallis(dist: ProbDist, q: float) -> float:
    """Tsallis entropy (1 - sum(p_i**q)) / (q - 1).  Requires q > 0, q != 1.

    Within 2**-4 of q = 1 it is -S / (q - 1) with
    S = sum(p_i * expm1((q - 1) * ln p_i)), accurate as q nears 1.  S
    measures sum(p_i**q) against sum(p_i), which for a distribution given as
    probabilities may differ from 1 by up to ``PROB_SUM_TOL``.
    """
    _check_order(q, "q")
    return _evaluate(TSALLIS, dist, q)


def pal_pal(dist: ProbDist) -> float:
    """Exponential-gain entropy sum(p_i * exp(1 - p_i))."""
    return _evaluate(PAL_PAL, dist)


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
    return float(np.sum(_gauss(joint.cells)))


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


def _sum(s: float, order, p_max, n) -> float:
    return s


#: Each measure kind's phi, applied to the nonzero probabilities with the
#: measure's order and, for each, the largest probability of its distribution;
#: and its value made from S = sum(phi(p_i)), the order, that largest
#: probability and the outcome count n.  Every measure is trace-form.
_PHI = {
    PROPOSED: (_gauss, _sum),
    PROPOSED_NORMALIZED: (_gauss, _normalized),
    SHANNON: (lambda p, _, __: -p * np.log(p), _sum),
    RENYI: (lambda p, alpha, p_max: (p / p_max) ** alpha, _renyi),
    TSALLIS: (lambda p, q, _: p**q, lambda s, q, p_max, n: (1.0 - s) / (q - 1.0)),
    PAL_PAL: (lambda p, _, __: p * np.exp(1.0 - p), _sum),
}
MEASURE_KINDS = tuple(_PHI)

#: Within this distance of order 1, Renyi and Tsallis are made instead from
#: S = sum(p_i * expm1((order - 1) * ln p_i)) = sum(p_i**order) - sum(p_i),
#: whose terms share one sign, rather than from a cancelled 1 - sum(p_i**order)
#: divided by the order's small distance from 1.
_NEAR_ONE = 2.0**-4
_VALUE_NEAR_ONE = {
    RENYI: lambda s, alpha, p_max, n: math.log1p(s) / (1.0 - alpha),
    TSALLIS: lambda s, q, p_max, n: -s / (q - 1.0),
}


def _spec(measure: EntropyMeasure) -> tuple[str, "float | None"]:
    if not isinstance(measure, EntropyMeasure):
        raise DomainError(f"measure must be an EntropyMeasure, got {measure!r}")
    return measure.kind, measure.alpha if measure.alpha is not None else measure.q


def apply_measure(measure: EntropyMeasure, dist: ProbDist) -> float:
    """Evaluate the selected measure on a distribution, passing its order if any."""
    kind, order = _spec(measure)
    return _evaluate(kind, dist, order)
