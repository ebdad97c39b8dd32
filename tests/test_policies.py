from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    ConfigurationError,
    DecisionProblem,
    MarketModel,
    Mirror,
    Move,
    Static,
    enumerate_paths,
    make_policy,
)
from otl.policies import POLICY_KINDS
from otl.sim import replay

TICKS = (10.0, -10.0)


def after(pol, *moves):
    """The state `pol` reaches from state 0 through `moves`."""
    state = 0
    for move in moves:
        state = (pol.up if move is Move.UP else pol.down)[state]
    return state


def problem(horizon=3, belief=Static(0.6), actions=(NEUTRAL, LONG, SHORT)):
    return DecisionProblem(horizon=horizon, ticks=TICKS, initial_belief=belief, action_set=actions)


class TestCutLoss:
    def test_enters_long_at_start(self):
        pol = make_policy("cutloss", problem())
        assert pol.decide(0) == LONG

    def test_exits_after_down_move(self):
        pol = make_policy("cutloss", problem())
        assert pol.decide(after(pol, Move.DOWN)) == NEUTRAL
        assert pol.decide(after(pol, Move.UP, Move.DOWN)) == NEUTRAL

    def test_reenters_after_up_move(self):
        pol = make_policy("cutloss", problem())
        assert pol.decide(after(pol, Move.UP)) == LONG
        assert pol.decide(after(pol, Move.DOWN, Move.UP)) == LONG

    def test_requires_neutral_action(self):
        with pytest.raises(ConfigurationError):
            make_policy("cutloss", problem(actions=(LONG, SHORT)))


class TestAverageDown:
    def test_doubles_with_the_losing_streak(self):
        pol = make_policy("avgdown", problem())
        assert pol.decide(after(pol, Move.DOWN, Move.DOWN)) == Action(4)

    def test_fresh_position_is_one_unit(self):
        pol = make_policy("avgdown", problem())
        assert pol.decide(0) == LONG
        assert pol.decide(after(pol, Move.DOWN, Move.DOWN, Move.UP)) == LONG

    def test_ladder_sequence(self):
        pol = make_policy("avgdown", problem())
        sizes = [pol.decide(after(pol, *[Move.DOWN] * k)).size for k in range(10)]
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 64, 64]

    def test_never_exits_on_losses(self):
        pol = make_policy("avgdown", problem())
        for k in range(8):
            assert pol.decide(after(pol, *[Move.DOWN] * k)).direction == "long"

    def test_requires_long_action(self):
        with pytest.raises(ConfigurationError):
            make_policy("avgdown", problem(actions=(NEUTRAL, SHORT)))


class TestBuyHold:
    def test_always_long_one_unit(self):
        pol = make_policy("buyhold", problem())
        for moves in [(), (Move.DOWN,), (Move.DOWN,) * 3 + (Move.UP,)]:
            assert pol.decide(after(pol, *moves)) == LONG


class TestBellmanOptimal:
    def test_first_decision_of_a_bull(self):
        pol = make_policy("bellman", problem(horizon=1))
        assert pol.decide(0) == LONG

    def test_solves_table_when_not_supplied(self):
        prob = problem(horizon=2, belief=Mirror(0.6, Move.UP))
        pol = make_policy("bellman", prob)
        assert pol.problem == prob

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("martingale", problem())


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_is_frozen(kind):
    # make_policy hands every caller the same heuristic value, so none may change it
    pol = make_policy(kind, problem())
    with pytest.raises(FrozenInstanceError):
        pol.act = (SHORT,)


@pytest.mark.parametrize(
    "kind, actions, missing",
    [
        ("cutloss", (NEUTRAL, SHORT), "long"),
        ("cutloss", (LONG, SHORT), "neutral"),
        ("avgdown", (NEUTRAL, SHORT, Action(2)), "long"),
        ("buyhold", (NEUTRAL, SHORT), "long"),
    ],
    ids=["cutloss-long", "cutloss-neutral", "avgdown-long", "buyhold-long"],
)
def test_heuristic_needs_each_unit_action_it_plays(kind, actions, missing):
    with pytest.raises(ConfigurationError) as err:
        make_policy(kind, problem(actions=actions))
    assert str(err.value) == (
        f"policy requires a unit {missing} action, absent from the action set"
    )


class TestPolicyEquivalence:
    """With a snap-to-the-tape belief and only Long/Neutral available, the
    solved-table policy and cut-loss are the same rule."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.55, 0.95), st.integers(1, 6))
    def test_identical_on_every_path(self, confidence, T):
        prob = problem(horizon=T, belief=Mirror(confidence, Move.UP), actions=(LONG, NEUTRAL))
        bellman = make_policy("bellman", prob)
        cutloss = make_policy("cutloss", prob)
        m = MarketModel(u=10.0, d=-10.0, p_up=0.5)
        for moves, _ in enumerate_paths(m, T):
            assert replay(bellman, m, moves) == replay(cutloss, m, moves)


class TestProductMachine:
    """Bellman and cut-loss as one product automaton: from (0, 0), every
    reachable pair of their states, T layers deep, plays the same action."""

    def test_every_reachable_pair_agrees(self):
        T = 2000
        prob = problem(horizon=T, belief=Mirror(0.6, Move.UP), actions=(LONG, NEUTRAL))
        bellman = make_policy("bellman", prob)
        cutloss = make_policy("cutloss", prob)
        layer, pairs = {(0, 0)}, 0
        for _ in range(T):
            for b, c in layer:
                assert bellman.decide(b) == cutloss.decide(c), (b, c)
            pairs += len(layer)
            layer = {
                pair
                for b, c in layer
                for pair in ((bellman.up[b], cutloss.up[c]), (bellman.down[b], cutloss.down[c]))
            }
        assert pairs == 2 * T - 1
