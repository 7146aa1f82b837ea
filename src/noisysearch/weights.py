"""Multiplicative weight state shared by every search strategy.

Weights are kept normalized (they sum to 1) together with a log2 tally of
the true unnormalized total mass. Raw products of p / (1-p) factors
underflow double precision after roughly a thousand answers; the split
representation keeps relative comparisons exact while the absolute mass of
any subset stays recoverable as log2 of its relative sum plus log2_total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import Distribution, DomainError, NoiseParams

__all__ = [
    "WeightState",
    "CompatibleSet",
    "init_uniform",
    "init_from_distribution",
    "bayesian_update",
    "heaviest",
    "is_heavy",
    "log2_rest",
    "apply_multipliers",
]

ZERO_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class WeightState:
    """Normalized per-element weights plus log2 of the absolute total mass.

    relative    float64 vector summing to 1, all entries strictly positive
    log2_total  log2 of the unnormalized total, so the absolute weight of
                element v is relative[v] * 2**log2_total
    step        number of answers folded in so far
    """

    relative: np.ndarray
    log2_total: float
    step: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.relative, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "relative", arr)

    @property
    def n(self) -> int:
        return int(self.relative.size)


@dataclass(frozen=True)
class CompatibleSet:
    """The elements for which the received answer could have been truthful.

    Stored as a boolean mask over element ids; may be empty or the full
    ground set (both degenerate cases scale all weights uniformly).
    """

    mask: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.mask, dtype=bool)
        arr.flags.writeable = False
        object.__setattr__(self, "mask", arr)

    @classmethod
    def singleton(cls, n: int, v: int) -> "CompatibleSet":
        mask = np.zeros(n, dtype=bool)
        mask[v] = True
        return cls(mask)

    @classmethod
    def complement_of(cls, n: int, v: int) -> "CompatibleSet":
        mask = np.ones(n, dtype=bool)
        mask[v] = False
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> "CompatibleSet":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def empty(cls, n: int) -> "CompatibleSet":
        return cls(np.zeros(n, dtype=bool))

    @property
    def members(self) -> frozenset:
        return frozenset(int(v) for v in np.flatnonzero(self.mask))

    @property
    def size(self) -> int:
        return int(self.mask.sum())


def init_uniform(n: int) -> WeightState:
    """Uniform weights 1/n with total absolute mass 1."""
    if n < 1:
        raise DomainError(f"weight state needs n >= 1, got {n}")
    return WeightState(relative=np.full(n, 1.0 / n), log2_total=0.0, step=0)


def init_from_distribution(mu: Distribution) -> WeightState:
    """Weights initialized to a prior distribution, total absolute mass 1.

    Zero masses are floored at 1e-12 and the vector renormalized: the
    update rule multiplies and can never resurrect an exactly-zero weight,
    while the floor keeps every element recoverable and perturbs the prior
    negligibly at the scales this library targets.
    """
    masses = np.asarray(mu.masses, dtype=np.float64)
    if masses.sum() <= 0.0:
        raise DomainError("distribution has no mass")
    floored = np.maximum(masses, ZERO_MASS_FLOOR)
    floored = floored / floored.sum()
    return WeightState(relative=floored, log2_total=0.0, step=0)


def apply_multipliers(state: WeightState, multipliers: np.ndarray) -> WeightState:
    """Scale each weight, renormalize, and fold the lost mass into log2_total.

    Shared kernel for the two-way compatible/incompatible update and the
    three-way comparison update of the linear search.
    """
    scaled = state.relative * multipliers
    total = float(scaled.sum())
    if total <= 0.0:
        raise DomainError("update annihilated all weight mass")
    return WeightState(
        relative=scaled / total,
        log2_total=state.log2_total + math.log2(total),
        step=state.step + 1,
    )


def bayesian_update(
    state: WeightState, compatible: CompatibleSet, noise: NoiseParams
) -> WeightState:
    """One answer folded in: compatible elements scale by (1-p), others by p."""
    mult = np.where(compatible.mask, 1.0 - noise.p, noise.p)
    return apply_multipliers(state, mult)


def heaviest(state: WeightState) -> int:
    """Element of maximum weight; float-equal weights go to the smallest
    id. Weights equal in exact arithmetic but reached through different
    products need not be float-equal, so on such ties rounding decides."""
    return int(np.argmax(state.relative))


def is_heavy(state: WeightState, v: int, c: float = 0.5) -> bool:
    """Whether element v holds at least a c fraction of the total weight."""
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"heaviness threshold must be in [0, 1], got {c}")
    return bool(state.relative[v] >= c)


def log2_rest(relative: np.ndarray, log2_total: float) -> float:
    """log2 of the absolute mass outside the heaviest element, from one
    normalized weight vector and its log2 total; -inf when that mass is 0.
    The other entries are summed themselves: the total less the top would
    lose a small rest to the top's rounding."""
    top = int(np.argmax(relative))
    rest = float(relative[:top].sum() + relative[top + 1 :].sum())
    if rest <= 0.0:
        return float("-inf")
    return math.log2(rest) + float(log2_total)
