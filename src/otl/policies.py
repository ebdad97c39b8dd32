"""Concrete trading rules: the backward-induction optimum plus the classic
behaviors it is compared against (cut losses, average down, buy and hold).
"""

from __future__ import annotations

from typing import Optional

from .actions import LONG, Action, Direction, Move
from .beliefs import Belief
from .errors import ConfigurationError
from .mdp import DecisionProblem, QTable, solve_q


class Policy:
    """A pure decision rule over what the trader has seen at time t: the
    belief, the last move (None at t = 0) and the number of consecutive
    losing steps up to now (0 after any flat or winning step)."""

    name: str = "policy"

    def decide(
        self, t: int, belief: Belief, last_move: Optional[Move], losing_streak: int
    ) -> Action:
        raise NotImplementedError


class BellmanOptimal(Policy):
    """Plays the argmax of the solved Q-table at (t, belief)."""

    name = "bellman"

    def __init__(self, table: QTable):
        self.table = table

    def decide(self, t, belief, last_move, losing_streak) -> Action:
        return self.table.optimal_action(t, belief)


class CutLoss(Policy):
    """Long one unit at the start or after an up move; flat after a down
    move, re-entering on the next up."""

    name = "cutloss"

    def __init__(self, long: Action, neutral: Action):
        self._long = long
        self._neutral = neutral

    def decide(self, t, belief, last_move, losing_streak) -> Action:
        if last_move is Move.DOWN:
            return self._neutral
        return self._long


# the average-down stake ladder: long 1, 2, 4, ..., 64
_LADDER = tuple(Action(Direction.LONG, 2**r) for r in range(7))
_TOP_RUNG = len(_LADDER) - 1


class AverageDown(Policy):
    """Doubles the stake on every losing step, never exits on losses, and
    resets to one unit after a winning step. The stake is capped at 64."""

    name = "avgdown"

    def decide(self, t, belief, last_move, losing_streak) -> Action:
        return _LADDER[min(losing_streak, _TOP_RUNG)]


class BuyHold(Policy):
    """Long one unit, always."""

    name = "buyhold"

    def decide(self, t, belief, last_move, losing_streak) -> Action:
        return LONG


POLICY_KINDS = ("bellman", "cutloss", "avgdown", "buyhold")


def _find_action(problem: DecisionProblem, direction: Direction) -> Action:
    for a in problem.action_set:
        if a.direction is direction and a.size == 1:
            return a
    raise ConfigurationError(
        f"policy requires a unit {direction.value} action, absent from the action set"
    )


def make_policy(kind: str, problem: DecisionProblem) -> Policy:
    """Bind the policy `kind` (one of POLICY_KINDS) to a problem, validating
    the actions it needs; bellman solves the problem's Q-table."""
    if kind == "bellman":
        return BellmanOptimal(solve_q(problem))
    if kind == "cutloss":
        return CutLoss(
            long=_find_action(problem, Direction.LONG),
            neutral=_find_action(problem, Direction.NEUTRAL),
        )
    if kind == "avgdown":
        _find_action(problem, Direction.LONG)
        return AverageDown()
    if kind == "buyhold":
        _find_action(problem, Direction.LONG)
        return BuyHold()
    raise ConfigurationError(f"unknown policy kind: {kind!r}")
