"""Finite-horizon backward-induction solver over an augmented (time, belief) state.

Wealth is deliberately absent from the stage state: the in-or-out decision is
assumed independent of the current wealth level, so the only state that
matters at decision time t is the trader's belief about the next move.
Wealth is tracked by the simulator purely for reporting.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .actions import LONG, NEUTRAL, SHORT, Action, check_int, check_ticks, shown
from .beliefs import Belief, Lattice
from .errors import UnreachableStateError, ValidationError

DEFAULT_ACTIONS: tuple[Action, ...] = (NEUTRAL, LONG, SHORT)

# Upper bound on distinct (t, belief) stage states solve_q will enumerate.
MAX_STAGE_STATES = 1_000_000


@dataclass(frozen=True)
class DecisionProblem:
    """Everything needed to solve for a Q-table.

    ticks are absolute money amounts per step, (u, d), finite with u > 0 > d;
    any such pair is kept as a tuple, so the problem stays hashable.
    action_set order is the argmax tie-break order; the shipped default
    (neutral, long, short) stays out when indifferent.
    """

    horizon: int
    ticks: tuple[float, float]
    initial_belief: Belief
    action_set: tuple[Action, ...] = DEFAULT_ACTIONS

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", check_int(self.horizon, "horizon"))
        if self.horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {shown(self.horizon)}")
        try:
            u, d = self.ticks
        except (TypeError, ValueError):
            raise ValidationError(
                f"DecisionProblem ticks must be a (u, d) pair, got {self.ticks!r}"
            ) from None
        check_ticks(u, d, "DecisionProblem ticks")
        object.__setattr__(self, "ticks", (u, d))
        actions = tuple(self.action_set)
        if not actions:
            raise ValidationError("action_set must be non-empty")
        if len(set(actions)) != len(actions):
            raise ValidationError("action_set contains duplicates")
        object.__setattr__(self, "action_set", actions)


class _TableView(Mapping):
    """A read-only mapping over a QTable: `get(*key)` looks a key up, and
    `keys()` iterates the keys."""

    def __init__(self, get: Callable[..., float], keys: Callable[[], Iterator], size: int):
        self._get, self._keys, self._size = get, keys, size

    def __getitem__(self, key: tuple) -> float:
        try:
            return self._get(*key)
        except UnreachableStateError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator:
        return self._keys()

    def __len__(self) -> int:
        return self._size


@dataclass(eq=False)
class QTable:
    """Solved subjective Q-values over every reachable stage state, stored
    per decision time t (one lattice layer per t, T = problem.horizon):

    * ``lattice``: the reachable beliefs (`beliefs.Lattice`); row i of
      layer t is the i-th of ``lattice.beliefs(t)``;
    * ``qs[t]``: float64 ``(n_t, |A|)`` Q-values, columns in action_set
      order (t < T);
    * ``vs[t]``: float64 ``(n_t,)`` values, all zero at t = T;
    * ``best[t]``: the argmax column of each row, the first maximum (t < T).

    Immutable once built (the arrays are read-only); safe to query
    concurrently.
    """

    problem: DecisionProblem
    lattice: Lattice = field(repr=False)
    qs: list[np.ndarray] = field(repr=False)
    vs: list[np.ndarray] = field(repr=False)
    best: list[np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        self._columns = {a: j for j, a in enumerate(self.problem.action_set)}
        for arr in (*self.qs, *self.vs, *self.best):
            arr.flags.writeable = False

    @property
    def values(self) -> Mapping[tuple[int, Belief], float]:
        """``{(t, belief): value}``, latest t first."""
        lattice = self.lattice
        return _TableView(
            self.value,
            lambda: ((t, b) for t in range(lattice.T, -1, -1) for b in lattice.beliefs(t)),
            sum(lattice.sizes),
        )

    @property
    def entries(self) -> Mapping[tuple[int, Belief, Action], float]:
        """``{(t, belief, action): Q}`` for t < horizon, latest t first."""
        lattice, actions = self.lattice, self.problem.action_set
        T = lattice.T
        return _TableView(
            self.q,
            lambda: (
                (t, b, a) for t in range(T - 1, -1, -1) for b in lattice.beliefs(t) for a in actions
            ),
            sum(lattice.sizes[:T]) * len(actions),
        )

    def _row(self, t: int, belief: Belief, key: str = "") -> int:
        """The belief's row in layer t; `key` extends the unreachable-state message."""
        row = self.lattice.row(t, belief)
        if row is None:
            raise UnreachableStateError(
                f"stage state (t={shown(t)}, belief={belief}{key}) not reached"
            )
        return row

    def q(self, t: int, belief: Belief, action: Action) -> float:
        col = self._columns.get(action)
        if col is None or t >= len(self.qs):
            raise UnreachableStateError(
                f"no Q entry for t={shown(t)}, belief={belief}, action={action}"
            )
        row = self._row(t, belief, f", action={action}")
        return float(self.qs[t][row, col])

    def value(self, t: int, belief: Belief) -> float:
        row = self._row(t, belief)
        return float(self.vs[t][row])

    def optimal_action(self, t: int, belief: Belief) -> Action:
        """Argmax of Q at the stage state; ties go to the earliest action
        in the problem's action_set order."""
        if t >= self.problem.horizon:
            raise UnreachableStateError(f"t={shown(t)} is at or past the horizon")
        row = self._row(t, belief)
        return self.problem.action_set[self.best[t][row]]


def solve_q(problem: DecisionProblem, max_states: int = MAX_STAGE_STATES) -> QTable:
    """Solve the subjective Bellman recursion by backward induction.

    Reachable beliefs at each t form the lattice of the initial belief
    (`Belief.lattice`); the belief transition is independent of the action
    (the market is exogenous), so the continuation value after a move is
    shared by every action. The lattice gives each state's up and down
    child rows, and the backward pass is then one broadcast over
    (states x actions) per layer, in the float expression order of the
    scalar recursion, so every Q-value is bit-identical to it.
    """
    T = problem.horizon
    lattice = problem.initial_belief.lattice(T, max_states)
    u, d = problem.ticks
    actions = problem.action_set
    r_up = np.array([a.stake * u for a in actions])
    r_dn = np.array([a.stake * d for a in actions])
    v = np.zeros(lattice.sizes[T])
    qs: list[np.ndarray] = []
    best: list[np.ndarray] = []
    vs = [v]
    # overflow is caught below, as a non-finite Q, and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1, -1, -1):
            q_up = lattice.predictive(t)[:, None]
            v_up = v[lattice.up(t)][:, None]
            v_dn = v[lattice.down(t)][:, None]
            q = q_up * (r_up + v_up) + (1.0 - q_up) * (r_dn + v_dn)
            if not np.isfinite(q).all():
                raise ValidationError(
                    f"Q-values overflow at t={t}: ticks {problem.ticks} are too large"
                    f" for horizon {T}"
                )
            arg = q.argmax(axis=1)
            # Q at the first maximum, not q.max(): the same tie-break as a
            # strict `>` scan, and it keeps the sign of a zero exactly
            v = q[np.arange(len(arg)), arg]
            qs.append(q)
            best.append(arg)
            vs.append(v)
    qs.reverse()
    best.reverse()
    vs.reverse()
    return QTable(problem=problem, lattice=lattice, qs=qs, vs=vs, best=best)
