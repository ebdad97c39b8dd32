"""Subjective probability over the next price move, with per-move updating.

Three belief kinds are shipped:

* ``Static`` -- a fixed up-probability that never learns.
* ``Mirror`` -- keeps a confidence level but snaps its favored direction to
  the most recently observed move.
* ``BetaBernoulli`` -- standard conjugate counting prior; predictive is the
  posterior mean.

Beliefs are immutable values; ``update`` returns a new belief.

``lattice_of`` gives the beliefs reachable at each t of a horizon, of at
most ``MAX_STAGE_STATES`` states: an exact ``Static``, ``Mirror`` or
``BetaBernoulli`` with float counts builds it in closed form, every other
belief (a subclass too) by the forward closure over its own ``update``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .actions import Move, check_finite, shown
from .errors import ResourceLimitError, ValidationError

# Upper bound on the stage states of a belief lattice (`lattice_of`), over all its layers
MAX_STAGE_STATES = 1_000_000


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
        try:
            if 0.0 < self.q_up < 1.0:
                return
        except TypeError:  # not a number
            pass
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
        try:
            valid = 0.5 <= self.confidence < 1.0
        except TypeError:  # not a number
            valid = False
        if not valid:
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
        except (OverflowError, TypeError):  # an int sum beyond float64, or not a number
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


def _check_states(n: int, T: int) -> None:
    if n > MAX_STAGE_STATES:
        raise ResourceLimitError(
            f"belief lattice exceeds {MAX_STAGE_STATES} stage states at horizon {shown(T)}"
        )


class Lattice:
    """The beliefs reachable at t = 0..T from one initial belief, one layer
    per t, and the one numbering of their stage states: row r of layer t is
    state ``start[t] + r``, and there are ``start[T + 1]`` states in all. A
    layer lists its beliefs in forward-closure order: from each row in turn,
    its up child and then its down child take the next free row of layer
    t + 1 the first time they are reached. Each kind gives ``layer(t)``
    (t < T): float64 ``q_up``, each row's up-probability, and intp ``up``,
    ``down``, the state of each row's up and down child; ``children(t)`` is
    the same as Python lists, for the solver's pass in Python floats.

    ``state(t, belief)`` is the belief's state, or None if it is not in
    layer t (another kind, counts never reached, or t outside 0..T);
    ``beliefs(t)`` and ``ids(t)`` are the beliefs in row order and their
    `belief_id`s, [] for t outside 0..T. A kind answers them for t in 0..T
    in ``_state``, ``_beliefs`` and, if faster than `belief_id`, ``_ids``.
    `lattice_of` builds one, of at most MAX_STAGE_STATES states: the closed
    forms `_LastMove` (Static, Mirror; one or two rows per layer) and
    `_BetaCounts` (t + 1 rows), or the closure `_Layers`.
    """

    def __init__(self, T: int, start: Sequence[int]):
        self.T = T
        self.start = start

    def state(self, t: int, belief: Belief) -> int | None:
        return self._state(t, belief) if self._has(t) else None

    def beliefs(self, t: int) -> list[Belief]:
        return self._beliefs(t) if self._has(t) else []

    def ids(self, t: int) -> list[str]:
        return self._ids(t) if self._has(t) else []

    def _has(self, t: int) -> bool:
        return 0 <= t <= self.T

    def _ids(self, t: int) -> list[str]:
        return list(map(belief_id, self._beliefs(t)))

    def children(self, t: int) -> tuple[list[float], list[int], list[int]]:
        q_up, up, down = self.layer(t)
        return q_up.tolist(), up.tolist(), down.tolist()


class _Layers(Lattice):
    """One `{belief: state}` dict per layer, and the up and down child
    states of every state of a layer t < T in two flat arrays."""

    def __init__(self, states: list[dict], up: np.ndarray, down: np.ndarray):
        self._states, self._up, self._down = states, up, down
        super().__init__(len(states) - 1, [*itertools.accumulate(map(len, states), initial=0)])

    def layer(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = slice(self.start[t], self.start[t + 1])
        return np.array([b.predictive() for b in self._states[t]]), self._up[rows], self._down[rows]

    def _state(self, t: int, belief: Belief) -> int | None:
        return self._states[t].get(belief)

    def _beliefs(self, t: int) -> list[Belief]:
        return list(self._states[t])


def lattice_of(b0: Belief, T: int) -> Lattice:
    """The beliefs reachable from b0 at t = 0..T, of at most MAX_STAGE_STATES
    states: a closed form for an exact `Static` or `Mirror` (one or two rows
    per layer) and for an exact `BetaBernoulli` whose float counts keep
    growing by 1, else the forward closure over b0's own `update`; a
    subclass may update otherwise, so it always gets the closure."""
    _check_states(T + 1, T)  # every layer has at least one row
    if type(b0) is Static or type(b0) is Mirror:
        return _LastMove(b0, T)
    priors = (b0.alpha, b0.beta) if type(b0) is BetaBernoulli else ()
    if priors and all(type(c) is float for c in priors):
        # the counts after 0..T updates, adding 1 in turn as `update` does
        counts = [np.add.accumulate(np.concatenate(([c], np.ones(T)))) for c in priors]
        if all((seq[1:] > seq[:-1]).all() for seq in counts):
            return _BetaCounts(counts, T)
    return _closure(b0, T)


def _closure(b0: Belief, T: int) -> Lattice:
    """The forward closure of b0 over `Belief.update`."""
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
        _check_states(n_states, T)
    return _Layers(states, np.array(ups, dtype=np.intp), np.array(dns, dtype=np.intp))


class _LastMove(Lattice):
    """A belief whose update depends only on the observed move (`Static`,
    `Mirror`): layer 0 is b0 and every later layer the same rows, the
    beliefs after an Up and after a Down ([b0] for Static, [favoring up,
    favoring down] for Mirror), so each row's up child is row 0 and its down
    child the last row of the next layer."""

    def __init__(self, b0: Belief, T: int):
        rows = dict.fromkeys((b0.update(Move.UP), b0.update(Move.DOWN)))
        k = len(rows)
        _check_states(1 + T * k, T)
        self._rows = ({b0: 0}, {b: r for r, b in enumerate(rows)})
        self._predictive = [b0.predictive()], [b.predictive() for b in rows]
        super().__init__(T, [0, *range(1, T * k + 2, k)])

    def children(self, t: int) -> tuple[list[float], list[int], list[int]]:
        n = len(self._rows[t > 0])
        return list(self._predictive[t > 0]), [self.start[t + 1]] * n, [self.start[t + 2] - 1] * n

    def layer(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q_up, up, down = self.children(t)
        return np.array(q_up), np.array(up, dtype=np.intp), np.array(down, dtype=np.intp)

    def _state(self, t: int, belief: Belief) -> int | None:
        r = self._rows[t > 0].get(belief)
        return None if r is None else self.start[t] + r

    def _beliefs(self, t: int) -> list[Belief]:
        return list(self._rows[t > 0])


class _BetaCounts(Lattice):
    """Row k of layer t is Beta(alphas[t - k], betas[k]); its up child is
    row k and its down child row k + 1 of layer t + 1. `counts` are the
    float64 alpha and beta sequences, strictly increasing."""

    def __init__(self, counts: list[np.ndarray], T: int):
        _check_states((T + 1) * (T + 2) // 2, T)
        self._alphas, self._betas = counts
        self._beta_at = {b: k for k, b in enumerate(self._betas.tolist())}
        super().__init__(T, [t * (t + 1) // 2 for t in range(T + 2)])

    def layer(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = self._alphas[t::-1], self._betas[: t + 1]
        nxt = np.arange(self.start[t + 1], self.start[t + 2], dtype=np.intp)
        return a / (a + b), nxt[:-1], nxt[1:]

    def _state(self, t: int, belief: Belief) -> int | None:
        if type(belief) is not BetaBernoulli:
            return None
        k = self._beta_at.get(belief.beta, t + 1)  # row k holds alphas[t - k]; float(): exact ==
        return None if k > t or float(self._alphas[t - k]) != belief.alpha else self.start[t] + k

    def _counts(self, t: int) -> tuple[list[float], list[float]]:
        """The alpha and beta counts of layer t's rows."""
        return self._alphas[t::-1].tolist(), self._betas[: t + 1].tolist()

    def _beliefs(self, t: int) -> list[Belief]:
        return list(map(BetaBernoulli, *self._counts(t)))

    def _ids(self, t: int) -> list[str]:
        return list(map(_beta_id, *self._counts(t)))
