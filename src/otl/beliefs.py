"""Subjective probability over the next price move, with per-move updating.

Three belief kinds are shipped:

* ``Static`` -- a fixed up-probability that never learns.
* ``Mirror`` -- keeps a confidence level but snaps its favored direction to
  the most recently observed move.
* ``BetaBernoulli`` -- standard conjugate counting prior; predictive is the
  posterior mean.

Beliefs are immutable values; ``update`` returns a new belief.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .actions import Action, Move, check_ticks
from .errors import ValidationError


@dataclass(frozen=True)
class Belief:
    """Base class; use one of the concrete kinds below."""

    def predictive(self) -> float:
        """Probability that the next move is Up."""
        raise NotImplementedError

    def update(self, observed: Move) -> "Belief":
        """Condition on one observed move; returns a new belief."""
        raise NotImplementedError


@dataclass(frozen=True)
class Static(Belief):
    """Fixed up-probability in the open interval (0, 1)."""

    q_up: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q_up < 1.0:
            raise ValidationError(f"Static q_up must be in (0,1), got {self.q_up}")

    def predictive(self) -> float:
        return self.q_up

    def update(self, observed: Move) -> "Static":
        return self


@dataclass(frozen=True)
class Mirror(Belief):
    """Confidence in [0.5, 1) placed on the favored direction.

    Updating snaps the favored direction to the observed move and keeps the
    confidence, so a single adverse move flips the sign of every directional
    expectation.
    """

    confidence: float
    favored: Move = Move.UP

    def __post_init__(self) -> None:
        if not 0.5 <= self.confidence < 1.0:
            raise ValidationError(
                f"Mirror confidence must be in [0.5,1), got {self.confidence}"
            )

    def predictive(self) -> float:
        if self.favored is Move.UP:
            return self.confidence
        return 1.0 - self.confidence

    def update(self, observed: Move) -> "Mirror":
        if observed is self.favored:
            return self
        return Mirror(self.confidence, observed)


@dataclass(frozen=True)
class BetaBernoulli(Belief):
    """Beta(alpha, beta) counting prior over the up-probability."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            name = "beta" if 0 < self.alpha < math.inf else "alpha"
            raise ValidationError(
                f"BetaBernoulli {name} must be finite and > 0,"
                f" got ({self.alpha}, {self.beta})"
            )

    def predictive(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def update(self, observed: Move) -> "BetaBernoulli":
        if observed is Move.UP:
            return BetaBernoulli(self.alpha + 1, self.beta)
        return BetaBernoulli(self.alpha, self.beta + 1)


def expected_step_reward(belief: Belief, action: Action, ticks: tuple[float, float]) -> float:
    """One-step expected profit of holding `action` under `belief`.

    `ticks` is (u, d), finite with u > 0 > d; the action earns
    stake * (q*u + (1-q)*d), so Neutral earns zero.
    """
    u, d = ticks
    check_ticks(u, d, "expected_step_reward ticks")
    if action.stake == 0:
        return 0.0
    q = belief.predictive()
    return action.stake * (q * u + (1.0 - q) * d)


def belief_id(belief: Belief) -> str:
    """Short stable identifier used in Q-table exports."""
    if isinstance(belief, Static):
        return f"static({belief.q_up!r})"
    if isinstance(belief, Mirror):
        return f"mirror({belief.confidence!r},{belief.favored.value})"
    if isinstance(belief, BetaBernoulli):
        return f"beta({belief.alpha!r},{belief.beta!r})"
    raise ValidationError(f"unknown belief kind: {belief!r}")
