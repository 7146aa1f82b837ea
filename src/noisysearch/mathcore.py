"""Closed-form quantities used throughout the search strategies.

Everything here is a pure function of scalars or of a probability vector:
entropies, the per-query information rate of a binary symmetric noise
channel, the fixed query budgets of the worst-case strategies, the epoch
length schedule of the comparison search, and the scalar threshold solver
used to warm-start the budget scans.

Conventions
-----------
p          per-answer error rate, 0 < p < 1/2
epsilon    1/2 - p
gamma      (1-p)/p, the likelihood ratio of a correct vs. incorrect answer
info_rate  1 - H(p), expected bits learned per answer
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "NoiseParams",
    "Distribution",
    "BudgetResult",
    "CAP_MULTIPLIER",
    "check_delta",
    "binary_entropy",
    "info_rate",
    "dist_entropy",
    "solve_quadratic_threshold",
    "worst_case_budget_graph",
    "worst_case_budget_linear",
    "epoch_length",
]

LOG2 = math.log(2.0)
# A stopping search, and a verification, is capped at this many times its
# expected length for the least likely target, so a pathological tail ends
# as a flagged failure instead of a hang.
CAP_MULTIPLIER = 50.0


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


def check_delta(delta: float) -> None:
    """Refuse a confidence outside 0 < delta < 1/2."""
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must satisfy 0 < delta < 1/2, got {delta}")


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable, with 0*log2(0) = 0.

    Raises DomainError for p outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires 0 <= p <= 1, got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def info_rate(p: float) -> float:
    """Bits of information a single noisy answer carries: 1 - H(p).

    Only defined for 0 < p < 1/2; at p = 1/2 an answer carries nothing
    and the searches below would never converge.
    """
    if not 0.0 < p < 0.5:
        raise DomainError(f"info_rate requires 0 < p < 1/2, got {p}")
    return 1.0 - binary_entropy(p)


@dataclass(frozen=True)
class NoiseParams:
    """Noise channel constants bundled so every formula pulls from one place.

    Built from p alone, 0 < p < 1/2; the rest is derived from it:
    epsilon = 1/2 - p, gamma = (1-p)/p and info_rate = 1 - H(p). A p whose
    constants float64 cannot hold (a ratio that overflows, or a rate that
    rounds to 1 near 0 or to 0 near 1/2) is refused with p named.
    """

    p: float
    epsilon: float = field(init=False)
    gamma: float = field(init=False)
    info_rate: float = field(init=False)

    @classmethod
    def from_p(cls, p: float) -> "NoiseParams":
        """The constants of p, as NoiseParams(p)."""
        return cls(p)

    def __post_init__(self) -> None:
        p = self.p
        if not 0.0 < p < 0.5:
            raise DomainError(f"noise parameter must satisfy 0 < p < 1/2, got {p}")
        gamma = (1.0 - p) / p
        if math.isinf(gamma):
            raise DomainError(
                f"p = {p} is too close to 0: the likelihood ratio (1-p)/p overflows float64"
            )
        rate = info_rate(p)
        if not 0.0 < rate < 1.0:
            edge = "0" if p < 0.25 else "1/2"
            raise DomainError(
                f"p = {p} is too close to {edge}: float64 rounds the information rate "
                f"1 - H(p) to {rate}, outside (0, 1)"
            )
        object.__setattr__(self, "epsilon", 0.5 - p)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "info_rate", rate)


@dataclass(frozen=True)
class Distribution:
    """A probability vector over element ids 0..n-1.

    masses must be finite, nonnegative and sum to 1 within 1e-9.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.masses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("distribution must be a nonempty 1-D vector")
        if not np.isfinite(arr).all():
            raise DomainError("distribution masses must be finite")
        if np.any(arr < 0.0):
            raise DomainError("distribution masses must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"distribution masses must sum to 1, got {total}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)

    @property
    def n(self) -> int:
        return int(self.masses.size)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise DomainError("uniform distribution needs n >= 1")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_weights(cls, weights) -> "Distribution":
        """Normalize an arbitrary nonnegative vector into a Distribution."""
        arr = np.asarray(weights, dtype=np.float64)
        total = float(arr.sum())
        if total <= 0.0:
            raise DomainError("cannot normalize an all-zero weight vector")
        return cls(arr / total)


def dist_entropy(mu: Distribution) -> float:
    """Shannon entropy of mu in bits; zero-mass elements contribute 0."""
    m = mu.masses
    pos = m[m > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def solve_quadratic_threshold(a: float, b: float, c: float) -> float:
    """Exact positive root of a*x = b + c*sqrt(x) for a > 0, b >= 0, c >= 0.

    Substituting t = sqrt(x) gives a quadratic in t; the admissible root is

        x = (2ab + c^2 + sqrt(c^4 + 4abc^2)) / (2 a^2).
    """
    if a <= 0.0:
        raise DomainError(f"coefficient a must be positive, got {a}")
    if b < 0.0 or c < 0.0:
        raise DomainError("coefficients b and c must be nonnegative")
    disc = c * c * (c * c + 4.0 * a * b)
    return (2.0 * a * b + c * c + math.sqrt(disc)) / (2.0 * a * a)


@dataclass(frozen=True)
class BudgetResult:
    """A minimal strategy length plus the inequality slack at that length.

    q is the smallest positive integer satisfying the defining inequality;
    slack is LHS - RHS evaluated at q (nonnegative by construction).
    """

    q: int
    slack: float


def _minimal_budget(a: float, b: float, c: float, strict: bool) -> BudgetResult:
    """Smallest integer Q >= 1 with a*Q - c*sqrt(Q) - b >= 0 (or > 0).

    Wherever the left side is nonnegative it is increasing in Q, so the
    satisfied set is an integer ray and the minimum is well defined. The
    closed form solver gives a warm start; the scan establishes exact
    minimality.
    """

    def lhs(q: int) -> float:
        return a * q - c * math.sqrt(q) - b

    def ok(q: int) -> bool:
        v = lhs(q)
        return v > 0.0 if strict else v >= 0.0

    guess = solve_quadratic_threshold(a, b, c)
    q = max(1, int(guess) - 2)
    while not ok(q):
        q += 1
    while q > 1 and ok(q - 1):
        q -= 1
    return BudgetResult(q=q, slack=lhs(q))


def worst_case_budget_graph(n: int, noise: NoiseParams, delta: float) -> BudgetResult:
    """Fixed query budget for the worst-case graph strategy.

    Smallest positive integer Q with

        info_rate * Q >= log2(n) + sqrt(Q/2 * ln(1/delta)) * log2(gamma).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    check_delta(delta)
    b = math.log2(n)
    c = math.log2(noise.gamma) * math.sqrt(math.log(1.0 / delta) / 2.0)
    return _minimal_budget(noise.info_rate, b, c, strict=False)


def worst_case_budget_linear(
    n: int, noise: NoiseParams, delta: float, c_const: float = 4.0
) -> BudgetResult:
    """Fixed query budget for the worst-case comparison strategy.

    Smallest positive integer Q with

        info_rate * Q > sqrt(Q/2 * ln(3/delta)) * log2(gamma)
                        + log2(n) + log2(3 * c_const / delta).

    c_const is the constant bounding the expected drop of the coupled
    process over the whole epoch schedule; see linear_search.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    check_delta(delta)
    if not 1.0 <= c_const < math.inf:
        raise DomainError(f"c_const must be >= 1 and finite, got {c_const}")
    b = math.log2(n) + math.log2(3.0 * c_const / delta)
    c = math.log2(noise.gamma) * math.sqrt(math.log(3.0 / delta) / 2.0)
    return _minimal_budget(noise.info_rate, b, c, strict=True)


def epoch_length(i: int, noise: NoiseParams) -> int:
    """Length of the i-th epoch of the comparison search (1-based).

    The schedule is max(epsilon^-2 * i^(-2/3) / 16, 1), rounded up to an
    integer so an epoch is a whole number of queries. Rounding up only
    lengthens epochs, which strengthens the per-epoch weight drop while
    preserving the growth order of the partial sums.
    """
    if i < 1:
        raise DomainError(f"epoch index must be >= 1, got {i}")
    raw = noise.epsilon**-2 * float(i) ** (-2.0 / 3.0) / 16.0
    # nudge below the ceiling so float noise in epsilon cannot push an
    # exactly-integral schedule value up a whole query
    return int(math.ceil(max(raw, 1.0) - 1e-9))
