"""Planted bugs: each mutant below is applied with monkeypatch, and the
check named for it must pass on the code as it is and fail on the mutant.
A mutant that a check stops catching is a check that has gone blind."""

import numpy as np
import pytest

from otl import BetaBernoulli, Mirror, Move, Static
from otl.beliefs import _BetaCounts, _LastMove
from otl.mdp import QTable

from test_beliefs import assert_same_lattice
from test_mdp import assert_bit_identical, assert_occupancy_identity, problem


def down_child_is_up_child(mp):
    children = _LastMove.children

    def mutant(self, t):
        q_up, up, _ = children(self, t)
        return q_up, up, list(up)

    mp.setattr(_LastMove, "children", mutant)


def down_children_shifted(mp):
    layer = _BetaCounts.layer

    def mutant(self, t):
        q_up, up, down = layer(self, t)
        return q_up, up, np.roll(down, 1)

    mp.setattr(_BetaCounts, "layer", mutant)


def predictive_through_float32(mp):
    layer = _BetaCounts.layer

    def mutant(self, t):
        q_up, up, down = layer(self, t)
        return q_up.astype(np.float32).astype(np.float64), up, down

    mp.setattr(_BetaCounts, "layer", mutant)


def value_reads_column_0(mp):
    def mutant(self, t, belief):
        state = self._state(t, belief)
        return float(self.qs[state, 0]) if t < self.problem.horizon else 0.0

    mp.setattr(QTable, "value", mutant)


# mutant -> the check that catches it
PLANTED = {
    "lastmove-down-child-is-up-child": (
        down_child_is_up_child,
        lambda: assert_same_lattice(Mirror(0.7, Move.UP), 5),
    ),
    "betacounts-down-children-shifted": (
        down_children_shifted,
        lambda: assert_same_lattice(BetaBernoulli(1.0, 1.0), 5),
    ),
    "betacounts-predictive-through-float32": (
        predictive_through_float32,
        lambda: assert_bit_identical(problem(6, BetaBernoulli(1.0, 1.0))),
    ),
    "value-reads-column-0": (
        value_reads_column_0,
        lambda: assert_occupancy_identity(Static(0.6), 50),
    ),
}


@pytest.mark.parametrize("name", PLANTED)
def test_planted_bug_is_caught(name, monkeypatch):
    plant, check = PLANTED[name]
    check()
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check()
