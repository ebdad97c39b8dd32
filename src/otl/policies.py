"""Concrete trading rules: the backward-induction optimum plus the classic
behaviors it is compared against (cut losses, average down, buy and hold).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import LONG, NEUTRAL, Action
from .errors import ConfigurationError
from .mdp import DecisionProblem, QTable, solve_q


@dataclass(frozen=True, eq=False)
class Policy:
    """A deterministic automaton over the move tape. It starts in state 0 at
    t = 0, plays `act[state]`, and after each move goes to `up[state]` or
    `down[state]`. It sees every move, even while flat.

    A policy that reads the belief sets `problem`: its states are that
    problem's stage states and mean nothing in another problem. A policy
    that reads no belief leaves it None.
    """

    name: str
    up: Sequence[int]
    down: Sequence[int]
    act: Sequence[Action]
    problem: Optional[DecisionProblem] = None

    def decide(self, state: int) -> Action:
        return self.act[state]


def bellman(table: QTable) -> Policy:
    """The policy that plays the argmax of the solved Q-table at (t, belief).
    Its states are the lattice's stage states: state s plays `table.best[s]`
    and moves to `up[s]` or `down[s]`, int64 arrays of its belief's child states."""
    lattice, actions = table.lattice, table.problem.action_set
    up, down = array("q"), array("q")
    for _, ups, downs in map(lattice.layer, range(lattice.T)):
        up.frombytes(ups.astype("q").tobytes())
        down.frombytes(downs.astype("q").tobytes())
    act = list(map(actions.__getitem__, table.best.tolist()))
    return Policy("bellman", up, down, act, table.problem)


_HEURISTICS = {
    pol.name: pol
    for pol in (
        # Long one unit at the start or after an up move; flat after a down
        # move, re-entering on the next up. State 1 follows a down move.
        Policy("cutloss", up=(0, 0), down=(1, 1), act=(LONG, NEUTRAL)),
        # Doubles the stake on every losing step, never exits on losses, and
        # resets to one unit after a winning step. The stake is capped at 64.
        # State k is the losing streak, capped at 6, and plays long 2**k. It is
        # always long and ticks have u > 0 > d, so a losing step is a down move.
        Policy(
            "avgdown",
            up=(0,) * 7,
            down=(1, 2, 3, 4, 5, 6, 6),
            act=tuple(Action(2**k) for k in range(7)),
        ),
        # Long one unit, always.
        Policy("buyhold", up=(0,), down=(0,), act=(LONG,)),
    )
}
POLICY_KINDS = ("bellman", *_HEURISTICS)


def make_policy(kind: str, problem: DecisionProblem) -> Policy:
    """Bind the policy `kind` (one of POLICY_KINDS) to a problem; a heuristic
    needs each unit action it plays in the action set. Bellman solves the
    problem's Q-table. A heuristic is a shared frozen value."""
    if kind == "bellman":
        return bellman(solve_q(problem))
    if kind not in _HEURISTICS:
        raise ConfigurationError(f"unknown policy kind: {kind!r}")
    policy = _HEURISTICS[kind]
    for action in policy.act:
        if action.size == 1 and action not in problem.action_set:
            raise ConfigurationError(
                f"policy requires a unit {action} action, absent from the action set"
            )
    return policy
