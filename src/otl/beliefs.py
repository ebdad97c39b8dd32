"""Subjective probability over the next price move, with per-move updating.

Three belief kinds are shipped:

* ``Static`` -- a fixed up-probability that never learns.
* ``Mirror`` -- keeps a confidence level but snaps its favored direction to
  the most recently observed move.
* ``BetaBernoulli`` -- standard conjugate counting prior; predictive is the
  posterior mean.

Beliefs are immutable values; ``update`` returns a new belief.

``Belief.lattice`` gives the beliefs reachable at each t of a horizon, as
the solver and the Q-table export read them: ``BetaBernoulli`` with float
counts builds it in closed form, every other belief by the forward closure
over ``update``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .actions import Move, check_finite, shown
from .errors import ResourceLimitError, ValidationError


@dataclass(frozen=True)
class Belief:
    """Base class; use one of the concrete kinds below."""

    def predictive(self) -> float:
        """Probability that the next move is Up."""
        raise NotImplementedError

    def update(self, observed: Move) -> "Belief":
        """Condition on one observed move; returns a new belief."""
        raise NotImplementedError

    def lattice(self, T: int, max_states: int) -> "Lattice":
        """The beliefs reachable from this one at t = 0..T. This is the
        generic forward closure over `update`; `BetaBernoulli` overrides it
        with a closed form that builds the same lattice."""
        return _closure(self, T, max_states)


@dataclass(frozen=True)
class Static(Belief):
    """Fixed up-probability in the open interval (0, 1)."""

    q_up: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q_up < 1.0:
            raise ValidationError(f"Static q_up must be in (0,1), got {shown(self.q_up)}")

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
                f"Mirror confidence must be in [0.5,1), got {shown(self.confidence)}"
            )
        if not isinstance(self.favored, Move):
            raise ValidationError(f"Mirror favored must be a Move, got {self.favored!r}")

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
        # every update() pays this one test; predictive() divides by the sum
        try:
            if self.alpha > 0 and self.beta > 0 and math.isfinite(self.alpha + self.beta):
                return
        except OverflowError:  # an int sum beyond float64
            pass
        for name, count in (("alpha", self.alpha), ("beta", self.beta)):
            check_finite(count, f"BetaBernoulli {name}")
            if not count > 0:
                raise ValidationError(f"BetaBernoulli {name} must be > 0, got {count}")
        raise ValidationError(
            f"BetaBernoulli counts must have a finite sum, got ({self.alpha}, {self.beta})"
        )

    def predictive(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def update(self, observed: Move) -> "BetaBernoulli":
        if observed is Move.UP:
            return BetaBernoulli(self.alpha + 1, self.beta)
        return BetaBernoulli(self.alpha, self.beta + 1)

    def lattice(self, T: int, max_states: int) -> "Lattice":
        """Closed form: row k of layer t is Beta(alpha_(t-k), beta_k), where
        alpha_j and beta_k are the prior counts plus 1 added j and k times
        in turn, as `update` adds it. The generic closure is used instead
        when a count is not a float, or when one stops growing (at 2**53,
        `a + 1 == a`) and the closure would merge rows."""
        priors = (self.alpha, self.beta)
        if not all(type(c) is float for c in priors):
            return super().lattice(T, max_states)
        _check_states(T + 1, T, max_states)  # every layer has at least one row
        counts = [np.add.accumulate(np.concatenate(([c], np.ones(T)))) for c in priors]
        if not all((seq[1:] > seq[:-1]).all() for seq in counts):
            return super().lattice(T, max_states)
        return _BetaCounts(counts, T, max_states)


def _beta_id(alpha: float, beta: float) -> str:
    return f"beta({alpha!r},{beta!r})"


def belief_id(belief: Belief) -> str:
    """Short stable identifier used in Q-table exports."""
    if isinstance(belief, Static):
        return f"static({belief.q_up!r})"
    if isinstance(belief, Mirror):
        return f"mirror({belief.confidence!r},{belief.favored.value})"
    if isinstance(belief, BetaBernoulli):
        return _beta_id(belief.alpha, belief.beta)
    raise ValidationError(f"unknown belief kind: {belief!r}")


def _check_states(n: int, T: int, max_states: int) -> None:
    if n > max_states:
        raise ResourceLimitError(
            f"belief lattice exceeds {max_states} stage states at horizon {shown(T)}"
        )


class Lattice:
    """The beliefs reachable at t = 0..T from one initial belief, one layer
    per t, and the one numbering of their stage states: row r of layer t is
    state ``start[t] + r``, and there are ``start[T + 1]`` states in all. A
    layer lists its beliefs in forward-closure order: from each row in turn,
    its up child and then its down child take the next free row of layer
    t + 1 the first time they are reached. Subclasses give:

    * ``predictive(t)``: float64, each row's up-probability;
    * ``up(t)``, ``down(t)``: intp, the state of each row's up and down child (t < T);
    * ``state(t, belief)``: the belief's state, or None if it is not in
      layer t (another kind, counts never reached, or t outside 0..T);
    * ``beliefs(t)``, ``ids(t)``: the beliefs in row order and their
      `belief_id`s, [] for t outside 0..T.

    A lattice of more than `max_states` states raises `ResourceLimitError` before it is built.
    """

    def __init__(self, T: int, start: Sequence[int]):
        self.T = T
        self.start = start

    def ids(self, t: int) -> list[str]:
        return list(map(belief_id, self.beliefs(t)))


class _Layers(Lattice):
    """One `{belief: state}` dict per layer, and the up and down child
    states of every state of a layer t < T in two flat arrays."""

    def __init__(self, states: list[dict], up: np.ndarray, down: np.ndarray):
        self._states, self._up, self._down = states, up, down
        super().__init__(len(states) - 1, [*itertools.accumulate(map(len, states), initial=0)])

    def predictive(self, t: int) -> np.ndarray:
        return np.array([b.predictive() for b in self._states[t]])

    def up(self, t: int) -> np.ndarray:
        return self._up[self.start[t] : self.start[t + 1]]

    def down(self, t: int) -> np.ndarray:
        return self._down[self.start[t] : self.start[t + 1]]

    def state(self, t: int, belief: Belief) -> int | None:
        return self._states[t].get(belief) if 0 <= t <= self.T else None

    def beliefs(self, t: int) -> list[Belief]:
        return list(self._states[t]) if 0 <= t <= self.T else []


def _closure(b0: Belief, T: int, max_states: int) -> Lattice:
    """The forward closure of b0 over `Belief.update`."""
    _check_states(T + 1, T, max_states)  # every layer has at least one row
    states: list[dict[Belief, int]] = [{b0: 0}]
    ups: list[int] = []
    dns: list[int] = []
    n_states = 1
    for _ in range(T):
        nxt: dict[Belief, int] = {}
        for b in states[-1]:
            ups.append(nxt.setdefault(b.update(Move.UP), n_states + len(nxt)))
            dns.append(nxt.setdefault(b.update(Move.DOWN), n_states + len(nxt)))
        states.append(nxt)
        n_states += len(nxt)
        _check_states(n_states, T, max_states)
    return _Layers(states, np.array(ups, dtype=np.intp), np.array(dns, dtype=np.intp))


class _BetaCounts(Lattice):
    """Row k of layer t is Beta(alphas[t - k], betas[k]); its up child is
    row k and its down child row k + 1 of layer t + 1. `counts` are the
    float64 alpha and beta sequences, strictly increasing."""

    def __init__(self, counts: list[np.ndarray], T: int, max_states: int):
        _check_states((T + 1) * (T + 2) // 2, T, max_states)
        self._alphas, self._betas = counts
        self._alpha_at = {a: j for j, a in enumerate(self._alphas.tolist())}
        self._beta_at = {b: k for k, b in enumerate(self._betas.tolist())}
        super().__init__(T, [t * (t + 1) // 2 for t in range(T + 2)])

    def predictive(self, t: int) -> np.ndarray:
        a = self._alphas[t::-1]
        b = self._betas[: t + 1]
        return a / (a + b)

    def up(self, t: int) -> np.ndarray:
        return np.arange(self.start[t + 1], self.start[t + 2] - 1, dtype=np.intp)

    def down(self, t: int) -> np.ndarray:
        return np.arange(self.start[t + 1] + 1, self.start[t + 2], dtype=np.intp)

    def state(self, t: int, belief: Belief) -> int | None:
        if type(belief) is not BetaBernoulli or not 0 <= t <= self.T:
            return None
        j = self._alpha_at.get(belief.alpha)
        k = self._beta_at.get(belief.beta)
        return self.start[t] + k if j is not None and k is not None and j + k == t else None

    def _counts(self, t: int) -> tuple[list[float], list[float]]:
        """The alpha and beta counts of layer t's rows (none outside 0..T)."""
        if not 0 <= t <= self.T:
            return [], []
        return self._alphas[t::-1].tolist(), self._betas[: t + 1].tolist()

    def beliefs(self, t: int) -> list[Belief]:
        return list(map(BetaBernoulli, *self._counts(t)))

    def ids(self, t: int) -> list[str]:
        return list(map(_beta_id, *self._counts(t)))
