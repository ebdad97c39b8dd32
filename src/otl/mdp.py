"""Finite-horizon backward-induction solver over an augmented (time, belief) state.

Wealth is deliberately absent from the stage state: the in-or-out decision is
assumed independent of the current wealth level, so the only state that
matters at decision time t is the trader's belief about the next move.
Wealth is tracked by the simulator purely for reporting.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .actions import LONG, NEUTRAL, SHORT, Action, check_int, check_ticks, shown
from .beliefs import Belief, Lattice, lattice_of
from .errors import UnreachableStateError, ValidationError

DEFAULT_ACTIONS: tuple[Action, ...] = (NEUTRAL, LONG, SHORT)

# solve_q runs its backward pass in Python floats when no lattice layer has
# more rows than this, the measured crossover with the numpy broadcast
SCALAR_MAX_ROWS = 16


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
    """Solved subjective Q-values over every reachable stage state, row s
    holding the lattice's state s (`beliefs.Lattice`), T = problem.horizon:

    * ``qs``: float64 ``(start[T], |A|)``, the Q-values of each state of a
      layer t < T, columns in action_set order;
    * ``best``: intp ``(start[T],)``, each such state's argmax column, the
      first maximum.

    A state's value is Q at its argmax, V(s_t) = Q_{t+1}(s_t, a*(s_t)), and 0
    at t = T. Immutable once built (the arrays are read-only); safe to query
    concurrently.
    """

    problem: DecisionProblem
    lattice: Lattice = field(repr=False)
    qs: np.ndarray = field(repr=False)
    best: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._columns = {a: j for j, a in enumerate(self.problem.action_set)}
        self.qs.flags.writeable = self.best.flags.writeable = False

    @property
    def values(self) -> Mapping[tuple[int, Belief], float]:
        """``{(t, belief): value}``, latest t first."""
        lattice = self.lattice
        return _TableView(
            self.value,
            lambda: ((t, b) for t in range(lattice.T, -1, -1) for b in lattice.beliefs(t)),
            lattice.start[-1],
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
            self.qs.size,
        )

    def _state(self, t: int, belief: Belief, key: str = "") -> int:
        """The stage state of belief at t; `key` extends the unreachable-state message."""
        state = self.lattice.state(t, belief)
        if state is None:
            raise UnreachableStateError(
                f"stage state (t={shown(t)}, belief={belief}{key}) not reached"
            )
        return state

    def q(self, t: int, belief: Belief, action: Action) -> float:
        col = self._columns.get(action)
        if col is None or t >= self.problem.horizon:
            raise UnreachableStateError(
                f"no Q entry for t={shown(t)}, belief={belief}, action={action}"
            )
        return float(self.qs[self._state(t, belief, f", action={action}"), col])

    def value(self, t: int, belief: Belief) -> float:
        state = self._state(t, belief)
        return float(self.qs[state, self.best[state]]) if t < self.problem.horizon else 0.0

    def optimal_action(self, t: int, belief: Belief) -> Action:
        """Argmax of Q at the stage state; ties go to the earliest action
        in the problem's action_set order."""
        if t >= self.problem.horizon:
            raise UnreachableStateError(f"t={shown(t)} is at or past the horizon")
        return self.problem.action_set[self.best[self._state(t, belief)]]


def solve_q(problem: DecisionProblem) -> QTable:
    """Solve the subjective Bellman recursion by backward induction.

    Reachable beliefs at each t, as the initial belief's own `update`
    reaches them, form its lattice (`beliefs.lattice_of`), of at most
    `beliefs.MAX_STAGE_STATES` states; the belief transition is independent
    of the action (the market is exogenous), so the continuation value
    after a move is shared by every action. The lattice gives each state's
    up and down child states. The backward pass runs in Python floats, row
    by row, when no layer has more than SCALAR_MAX_ROWS rows, and otherwise
    as one numpy broadcast over (states x actions) per layer; both keep the
    float expression order of the scalar recursion and the first maximum,
    so every Q-value and argmax is bit-identical to it.
    """
    T = problem.horizon
    lattice = lattice_of(problem.initial_belief, T)
    start = lattice.start
    u, d = problem.ticks
    r_up = [a.stake * u for a in problem.action_set]
    r_dn = [a.stake * d for a in problem.action_set]
    widest = max(map(operator.sub, start[1:], start))
    backward = _scalar_pass if widest <= SCALAR_MAX_ROWS else _numpy_pass
    qs, best = backward(lattice, r_up, r_dn)
    # an overflow is caught here, as a non-finite Q, and reported as an
    # error at the latest t that has one, where the recursion first met it
    if not np.isfinite(qs).all():
        s = np.flatnonzero(~np.isfinite(qs).all(axis=1))[-1]
        t = bisect.bisect_right(start, s) - 1
        raise ValidationError(
            f"Q-values overflow at t={t}: ticks {problem.ticks} are too large for horizon {T}"
        )
    return QTable(problem=problem, lattice=lattice, qs=qs, best=best)


def _scalar_pass(lattice: Lattice, r_up: list, r_dn: list) -> tuple[np.ndarray, np.ndarray]:
    """The backward pass in Python floats, one state at a time: on layers of
    a few rows it costs less than numpy's fixed cost per broadcast.
    `max(row)` keeps the first maximum, as a strict `>` scan does."""
    T, start = lattice.T, lattice.start
    n = len(r_up)
    rewards = list(zip(r_up, r_dn))
    v = [0.0] * start[T + 1]  # V of every state; the layer at T stays 0
    flat = [0.0] * (start[T] * n)
    best = [0] * start[T]
    for t in range(T - 1, -1, -1):
        s = start[t]
        for q_up, up, dn in zip(*lattice.children(t)):
            v_up, v_dn, q_dn = v[up], v[dn], 1.0 - q_up
            row = [q_up * (ru + v_up) + q_dn * (rd + v_dn) for ru, rd in rewards]
            v[s] = top = max(row)
            best[s] = row.index(top)
            flat[s * n : s * n + n] = row
            s += 1
    return np.array(flat).reshape(-1, n), np.array(best, dtype=np.intp)


def _numpy_pass(lattice: Lattice, r_up: list, r_dn: list) -> tuple[np.ndarray, np.ndarray]:
    """The backward pass as one broadcast over (states x actions) per layer."""
    T, start = lattice.T, lattice.start
    r_up, r_dn = np.array(r_up), np.array(r_dn)
    qs = np.empty((start[T], len(r_up)))
    best = np.empty(start[T], dtype=np.intp)
    v = np.zeros(start[T + 1])  # V of every state; the layer at T stays 0
    with np.errstate(over="ignore", invalid="ignore"):  # solve_q checks qs
        for t in range(T - 1, -1, -1):
            layer = slice(start[t], start[t + 1])
            q_up, up, down = lattice.layer(t)
            q_up, v_up, v_dn = q_up[:, None], v[up][:, None], v[down][:, None]
            qs[layer] = q = q_up * (r_up + v_up) + (1.0 - q_up) * (r_dn + v_dn)
            best[layer] = arg = q.argmax(axis=1)
            # Q at the first maximum, not q.max(): the same tie-break as a
            # strict `>` scan, and it keeps the sign of a zero exactly
            v[layer] = q[np.arange(len(arg)), arg]
    return qs, best
