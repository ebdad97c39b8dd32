"""Concrete trading rules: the backward-induction optimum plus the classic
behaviors it is compared against (cut losses, average down, buy and hold).
"""

from __future__ import annotations

from typing import Optional

from .actions import LONG, NEUTRAL, Action, Direction, Move
from .errors import ConfigurationError
from .mdp import DecisionProblem, QTable, solve_q


class Policy:
    """A pure decision rule over what the trader has seen at time t: the
    row of its belief in layer t of `problem`'s belief lattice, the last
    move (None at t = 0) and the number of consecutive losing steps up to
    now (0 after any flat or winning step).

    A policy that reads the belief sets `problem` and `children`:
    ``children[t]`` is the pair (up child rows, down child rows) of lattice
    layer t < horizon, as lists, so ``children[t][move is Move.DOWN][row]``
    is the belief's row after `move`. A policy that reads no belief leaves
    both None and is always shown row 0.
    """

    name: str = "policy"
    problem: Optional[DecisionProblem] = None
    children: Optional[list[tuple[list[int], list[int]]]] = None

    def decide(
        self, t: int, row: int, last_move: Optional[Move], losing_streak: int
    ) -> Action:
        raise NotImplementedError


class BellmanOptimal(Policy):
    """Plays the argmax of the solved Q-table at (t, belief): the action
    `table.best[t]` names for the belief's row, looked up in lists built
    once from the table."""

    name = "bellman"

    def __init__(self, table: QTable):
        self.table = table
        self.problem = table.problem
        lattice, actions = table.lattice, table.problem.action_set
        self.children = [
            (lattice.up(t).tolist(), lattice.down(t).tolist()) for t in range(len(table.best))
        ]
        self._plays = [[actions[j] for j in best.tolist()] for best in table.best]

    def decide(self, t, row, last_move, losing_streak) -> Action:
        return self._plays[t][row]


class CutLoss(Policy):
    """Long one unit at the start or after an up move; flat after a down
    move, re-entering on the next up."""

    name = "cutloss"

    def decide(self, t, row, last_move, losing_streak) -> Action:
        return NEUTRAL if last_move is Move.DOWN else LONG


# the average-down stake ladder: long 1, 2, 4, ..., 64
_LADDER = tuple(Action(Direction.LONG, 2**r) for r in range(7))
_TOP_RUNG = len(_LADDER) - 1


class AverageDown(Policy):
    """Doubles the stake on every losing step, never exits on losses, and
    resets to one unit after a winning step. The stake is capped at 64."""

    name = "avgdown"

    def decide(self, t, row, last_move, losing_streak) -> Action:
        return _LADDER[min(losing_streak, _TOP_RUNG)]


class BuyHold(Policy):
    """Long one unit, always."""

    name = "buyhold"

    def decide(self, t, row, last_move, losing_streak) -> Action:
        return LONG


# heuristic kind -> (policy class, the unit actions it plays)
_HEURISTICS = {
    "cutloss": (CutLoss, (LONG, NEUTRAL)),
    "avgdown": (AverageDown, (LONG,)),
    "buyhold": (BuyHold, (LONG,)),
}
POLICY_KINDS = ("bellman", *_HEURISTICS)


def make_policy(kind: str, problem: DecisionProblem) -> Policy:
    """Bind the policy `kind` (one of POLICY_KINDS) to a problem, validating
    the actions it needs; bellman solves the problem's Q-table."""
    if kind == "bellman":
        return BellmanOptimal(solve_q(problem))
    if kind not in _HEURISTICS:
        raise ConfigurationError(f"unknown policy kind: {kind!r}")
    cls, needs = _HEURISTICS[kind]
    for action in needs:
        if action not in problem.action_set:
            raise ConfigurationError(
                f"policy requires a unit {action} action, absent from the action set"
            )
    return cls()
