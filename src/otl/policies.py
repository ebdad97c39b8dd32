"""Concrete trading rules: the backward-induction optimum plus the classic
behaviors it is compared against (cut losses, average down, buy and hold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .actions import LONG, Action, Direction, Move
from .beliefs import Belief
from .errors import ConfigurationError, ValidationError
from .mdp import DecisionProblem, QTable, solve_q


@dataclass(slots=True)
class DecisionContext:
    """Everything a policy may condition on at one decision time.

    Not frozen: the simulator builds one of these per step on a hot path.
    Policies must treat it as read-only.
    """

    t: int
    belief: Belief
    last_move: Optional[Move]
    losing_streak: int
    current_position: Action

    def __post_init__(self) -> None:
        if self.losing_streak < 0:
            raise ValidationError("losing_streak must be >= 0")
        if self.current_position.direction is Direction.NEUTRAL and self.losing_streak:
            raise ValidationError("losing_streak must be 0 while flat")


class Policy:
    """A pure decision rule; state lives entirely in the DecisionContext."""

    name: str = "policy"

    def decide(self, ctx: DecisionContext) -> Action:
        raise NotImplementedError


class BellmanOptimal(Policy):
    """Plays the argmax of the solved Q-table at (t, belief)."""

    name = "bellman"

    def __init__(self, table: QTable):
        self.table = table

    def decide(self, ctx: DecisionContext) -> Action:
        return self.table.optimal_action(ctx.t, ctx.belief)


class CutLoss(Policy):
    """Long one unit at the start or after an up move; flat after a down
    move, re-entering on the next up."""

    name = "cutloss"

    def __init__(self, long: Action, neutral: Action):
        self._long = long
        self._neutral = neutral

    def decide(self, ctx: DecisionContext) -> Action:
        if ctx.last_move is Move.DOWN:
            return self._neutral
        return self._long


# the average-down stake ladder: long 1, 2, 4, ..., 64
_LADDER = tuple(Action(Direction.LONG, 2**r) for r in range(7))
_TOP_RUNG = len(_LADDER) - 1


class AverageDown(Policy):
    """Doubles the stake on every losing step, never exits on losses, and
    resets to one unit after a winning step. The stake is capped at 64."""

    name = "avgdown"

    def decide(self, ctx: DecisionContext) -> Action:
        return _LADDER[min(ctx.losing_streak, _TOP_RUNG)]


class BuyHold(Policy):
    """Long one unit, always."""

    name = "buyhold"

    def decide(self, ctx: DecisionContext) -> Action:
        return LONG


@dataclass(frozen=True)
class PolicySpec:
    """Named policy configuration; `kind` is one of POLICY_KINDS."""

    kind: str
    table: Optional[QTable] = None


POLICY_KINDS = ("bellman", "cutloss", "avgdown", "buyhold")


def _find_action(problem: DecisionProblem, direction: Direction) -> Action:
    for a in problem.action_set:
        if a.direction is direction and a.size == 1:
            return a
    raise ConfigurationError(
        f"policy requires a unit {direction.value} action, absent from the action set"
    )


def make_policy(spec: PolicySpec, problem: DecisionProblem) -> Policy:
    """Bind a policy spec to a problem, validating the required actions."""
    kind = spec.kind
    if kind == "bellman":
        table = spec.table
        if table is None:
            table = solve_q(problem)
        elif table.problem != problem:
            raise ConfigurationError("supplied Q-table was solved for a different problem")
        return BellmanOptimal(table)
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
