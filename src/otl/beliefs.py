"""Subjective probability over the next price move, with per-move updating.

Three belief kinds are shipped:

* ``Static`` -- a fixed up-probability that never learns.
* ``Mirror`` -- keeps a confidence level but snaps its favored direction to
  the most recently observed move.
* ``BetaBernoulli`` -- standard conjugate counting prior, its counts kept
  as floats; predictive is the posterior mean.

Beliefs are immutable values; ``update`` returns a new belief.

``lattice_of`` gives the beliefs reachable at each t of a horizon, of at
most ``MAX_STAGE_STATES`` states, in closed form. It takes only these three
kinds, exact: a subclass, another ``Belief`` kind or beta counts that reach
2**53 within the horizon raise ``ValidationError``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .actions import Move, check_finite, check_in, shown
from .errors import ResourceLimitError, ValidationError

# Upper bound on the stage states of a belief lattice (`lattice_of`), over all its layers
MAX_STAGE_STATES = 1_000_000


@dataclass(frozen=True)
class Belief:
    """Base class of the three kinds below; not an extension point, as
    `lattice_of` (so the solver) rejects a subclass or any other kind."""

    def predictive(self) -> float:
        """Probability that the next move is Up."""
        raise NotImplementedError

    def update(self, observed: Move) -> "Belief":
        """Condition on one observed move; returns a new belief."""
        raise NotImplementedError


@dataclass(frozen=True)
class Static(Belief):
    """Fixed up-probability in the open interval (0, 1), kept as a float."""

    q_up: float

    def __post_init__(self) -> None:
        check_in(self.q_up, lambda q: 0.0 < q < 1.0, "Static q_up must be in (0,1)")
        object.__setattr__(self, "q_up", float(self.q_up))

    def predictive(self) -> float:
        return self.q_up

    def update(self, observed: Move) -> "Static":
        return self


@dataclass(frozen=True)
class Mirror(Belief):
    """Confidence in [0.5, 1) placed on the favored direction, kept as a float.

    Updating snaps the favored direction to the observed move and keeps the
    confidence, so a single adverse move flips the sign of every directional
    expectation.
    """

    confidence: float
    favored: Move = Move.UP

    def __post_init__(self) -> None:
        check_in(self.confidence, lambda c: 0.5 <= c < 1.0, "Mirror confidence must be in [0.5,1)")
        object.__setattr__(self, "confidence", float(self.confidence))
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
    """Beta(alpha, beta) counting prior over the up-probability, each count
    kept as a Python float (an int count too: its id reads beta(3.0,2.0))."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # every update() pays this one test; predictive() divides by the sum
        a, b = self.alpha, self.beta
        if type(a) is float and type(b) is float and a > 0 and b > 0 and math.isfinite(a + b):
            return
        # a count of another type (int, bool, float32, Fraction, Decimal) is kept as a float
        for name, count in (("alpha", a), ("beta", b)):
            check_finite(count, f"BetaBernoulli {name}")
            check_in(count, lambda c: c > 0, f"BetaBernoulli {name} must be > 0")
            object.__setattr__(self, name, float(count))
        if not math.isfinite(self.alpha + self.beta):
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
    in ``_state`` and ``_beliefs``; ``_ids`` maps `belief_id` over them unless
    the kind builds ids faster (`_BetaCounts` formats each count once).
    `lattice_of` builds one of the two kinds, of at most MAX_STAGE_STATES
    states: `_LastMove` (Static, Mirror; one or two rows per layer) or
    `_BetaCounts` (BetaBernoulli; t + 1 rows).
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


def lattice_of(b0: Belief, T: int) -> Lattice:
    """The beliefs reachable from b0 at t = 0..T in closed form, of at most
    MAX_STAGE_STATES states: `_LastMove` for an exact `Static` or `Mirror`,
    `_BetaCounts` for an exact `BetaBernoulli`. Any other type, a subclass
    too, and beta counts that stop growing by 1 within the horizon (at
    2**53) raise ValidationError before any `update` is called."""
    _check_states(T + 1, T)  # every layer has at least one row
    kind = type(b0)
    if kind is Static or kind is Mirror:
        return _LastMove(b0, T)
    if kind is not BetaBernoulli:
        raise ValidationError(
            "belief must be an exact Static, Mirror or BetaBernoulli,"
            f" got {kind.__module__}.{kind.__qualname__}"
        )
    # the counts after 0..T updates, adding 1 in turn as `update` does
    counts = [np.add.accumulate(np.concatenate(([c], np.ones(T)))) for c in (b0.alpha, b0.beta)]
    if not all((seq[1:] > seq[:-1]).all() for seq in counts):
        raise ValidationError(
            f"BetaBernoulli counts must stay below 2**53 over horizon {shown(T)},"
            f" got ({b0.alpha!r}, {b0.beta!r})"
        )
    return _BetaCounts(counts, T)


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
        self._reprs: list[list[str]] | None = None  # the counts' reprs, made by the first _ids
        super().__init__(T, [t * (t + 1) // 2 for t in range(T + 2)])

    def layer(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = self._alphas[t::-1], self._betas[: t + 1]
        nxt = np.arange(self.start[t + 1], self.start[t + 2], dtype=np.intp)
        return a / (a + b), nxt[:-1], nxt[1:]

    def _state(self, t: int, belief: Belief) -> int | None:
        if type(belief) is not BetaBernoulli:
            return None
        k = self._beta_at.get(belief.beta, t + 1)  # row k holds alphas[t - k]
        return None if k > t or self._alphas[t - k] != belief.alpha else self.start[t] + k

    def _beliefs(self, t: int) -> list[Belief]:
        return list(map(BetaBernoulli, self._alphas[t::-1].tolist(), self._betas[: t + 1].tolist()))

    def _ids(self, t: int) -> list[str]:
        if self._reprs is None:
            self._reprs = [list(map(repr, c.tolist())) for c in (self._alphas, self._betas)]
        alphas, betas = self._reprs
        return [f"beta({a},{b})" for a, b in zip(alphas[t::-1], betas[: t + 1])]
