"""Planted bugs: each mutant below is applied with monkeypatch, and the
check named for it must pass on the code as it is and fail on the mutant.
A mutant that a check stops catching is a check that has gone blind."""

import numpy as np
import pytest

from otl import Action, BetaBernoulli, Mirror, Move, Policy, Static, solve_q
from otl import mdp, policies
from otl.beliefs import _BetaCounts, _LastMove
from otl.mdp import QTable

from test_beliefs import assert_same_lattice
from test_exact_bellman import assert_within_bound
from test_mdp import assert_bit_identical, assert_occupancy_identity, problem
from test_policy_law import assert_exact


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


def avgdown_streak_never_resets(mp):
    # an up move keeps the losing streak, and its stake, where it was
    avgdown = policies._HEURISTICS["avgdown"]
    policy = Policy("avgdown", range(7), avgdown.down, avgdown.act)
    mp.setitem(policies._HEURISTICS, "avgdown", policy)


def avgdown_ladder_capped_at_32(mp):
    # the stake stops doubling at 32, one rung short of 64
    policy = Policy(
        "avgdown", (0,) * 6, (1, 2, 3, 4, 5, 5), tuple(Action(2**k) for k in range(6))
    )
    mp.setitem(policies._HEURISTICS, "avgdown", policy)


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
    "avgdown-streak-never-resets": (
        avgdown_streak_never_resets,
        lambda: assert_exact("criterion-6", "avgdown"),
    ),
    "avgdown-ladder-capped-at-32": (
        avgdown_ladder_capped_at_32,
        lambda: assert_exact("criterion-6", "avgdown"),
    ),
    "betacounts-predictive-through-float32-exact": (
        predictive_through_float32,
        lambda: assert_within_bound(problem(16, BetaBernoulli(3.0, 2.0))),
    ),
}


@pytest.mark.parametrize("name", PLANTED)
def test_planted_bug_is_caught(name, monkeypatch):
    plant, check = PLANTED[name]
    check()
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check()


def reassociated_pass(lattice, r_up, r_dn):
    """The backward pass with each Q reassociated, the rewards summed apart
    from the continuation values: a rounding change, not a bug."""
    T, start = lattice.T, lattice.start
    r_up, r_dn = np.array(r_up), np.array(r_dn)
    qs = np.empty((start[T], len(r_up)))
    v = np.zeros(start[T + 1])
    for t in range(T - 1, -1, -1):
        layer = slice(start[t], start[t + 1])
        q_up, up, down = lattice.layer(t)
        q_up, q_dn = q_up[:, None], 1.0 - q_up[:, None]
        v_up, v_dn = v[up][:, None], v[down][:, None]
        qs[layer] = q = (q_up * r_up + q_dn * r_dn) + (q_up * v_up + q_dn * v_dn)
        v[layer] = q.max(axis=1)
    return qs, qs.argmax(axis=1)


@pytest.mark.parametrize("T", [6, 16])
def test_reassociated_q_stays_within_the_exact_bound(T, monkeypatch):
    prob = problem(T, BetaBernoulli(3.0, 2.0), ticks=(0.1, -0.3))
    before = solve_q(prob).qs
    monkeypatch.setattr(mdp, "_scalar_pass", reassociated_pass)
    monkeypatch.setattr(mdp, "_numpy_pass", reassociated_pass)
    assert not np.array_equal(solve_q(prob).qs, before)  # the plant changes Q
    assert_within_bound(prob)
