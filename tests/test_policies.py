import pytest
from hypothesis import given, settings, strategies as st

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    ConfigurationError,
    DecisionProblem,
    Direction,
    MarketModel,
    Mirror,
    Move,
    Static,
    enumerate_paths,
    make_policy,
)
from otl.sim import replay

TICKS = (10.0, -10.0)


def ctx(t=0, row=0, last_move=None, losing_streak=0):
    """The arguments of Policy.decide, in order."""
    return t, row, last_move, losing_streak


def problem(horizon=3, belief=Static(0.6), actions=(NEUTRAL, LONG, SHORT)):
    return DecisionProblem(horizon=horizon, ticks=TICKS, initial_belief=belief, action_set=actions)


class TestCutLoss:
    def test_enters_long_at_start(self):
        pol = make_policy("cutloss", problem())
        assert pol.decide(*ctx(last_move=None)) == LONG

    def test_exits_after_down_move(self):
        pol = make_policy("cutloss", problem())
        assert pol.decide(*ctx(last_move=Move.DOWN)) == NEUTRAL

    def test_reenters_after_up_move(self):
        pol = make_policy("cutloss", problem())
        assert pol.decide(*ctx(last_move=Move.UP)) == LONG

    def test_requires_neutral_action(self):
        with pytest.raises(ConfigurationError):
            make_policy("cutloss", problem(actions=(LONG, SHORT)))


class TestAverageDown:
    def test_doubles_with_the_losing_streak(self):
        pol = make_policy("avgdown", problem())
        assert pol.decide(*ctx(losing_streak=2)) == Action(Direction.LONG, 4)

    def test_fresh_position_is_one_unit(self):
        pol = make_policy("avgdown", problem())
        assert pol.decide(*ctx()) == LONG

    def test_ladder_sequence(self):
        pol = make_policy("avgdown", problem())
        sizes = [pol.decide(*ctx(losing_streak=k)).size for k in range(10)]
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 64, 64]

    def test_never_exits_on_losses(self):
        pol = make_policy("avgdown", problem())
        for k in range(8):
            assert pol.decide(*ctx(losing_streak=k)).direction is Direction.LONG

    def test_requires_long_action(self):
        with pytest.raises(ConfigurationError):
            make_policy("avgdown", problem(actions=(NEUTRAL, SHORT)))


class TestBuyHold:
    def test_always_long_one_unit(self):
        pol = make_policy("buyhold", problem())
        for streak, move in [(0, None), (0, Move.DOWN), (3, Move.UP)]:
            assert pol.decide(*ctx(losing_streak=streak, last_move=move)) == LONG


class TestBellmanOptimal:
    def test_first_decision_of_a_bull(self):
        pol = make_policy("bellman", problem(horizon=1))
        assert pol.decide(*ctx()) == LONG

    def test_solves_table_when_not_supplied(self):
        prob = problem(horizon=2, belief=Mirror(0.6, Move.UP))
        pol = make_policy("bellman", prob)
        assert pol.table.problem == prob

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("martingale", problem())


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
            assert replay(bellman, m, moves).steps == replay(cutloss, m, moves).steps
