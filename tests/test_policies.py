import itertools

import pytest
from hypothesis import given, settings, strategies as st

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    ConfigurationError,
    DecisionContext,
    DecisionProblem,
    Direction,
    Mirror,
    Move,
    PolicySpec,
    Static,
    ValidationError,
    make_policy,
    solve_q,
)

TICKS = (10.0, -10.0)


def ctx(t=0, belief=Static(0.6), last_move=None, losing_streak=0, position=NEUTRAL):
    return DecisionContext(
        t=t,
        belief=belief,
        last_move=last_move,
        losing_streak=losing_streak,
        current_position=position,
    )


def problem(horizon=3, belief=Static(0.6), actions=(NEUTRAL, LONG, SHORT)):
    return DecisionProblem(horizon=horizon, ticks=TICKS, initial_belief=belief, action_set=actions)


class TestCutLoss:
    def test_enters_long_at_start(self):
        pol = make_policy(PolicySpec("cutloss"), problem())
        assert pol.decide(ctx(last_move=None)) == LONG

    def test_exits_after_down_move(self):
        pol = make_policy(PolicySpec("cutloss"), problem())
        assert pol.decide(ctx(last_move=Move.DOWN, position=LONG)) == NEUTRAL

    def test_reenters_after_up_move(self):
        pol = make_policy(PolicySpec("cutloss"), problem())
        assert pol.decide(ctx(last_move=Move.UP)) == LONG

    def test_requires_neutral_action(self):
        with pytest.raises(ConfigurationError):
            make_policy(PolicySpec("cutloss"), problem(actions=(LONG, SHORT)))


class TestAverageDown:
    def test_doubles_with_the_losing_streak(self):
        pol = make_policy(PolicySpec("avgdown"), problem())
        assert pol.decide(ctx(losing_streak=2, position=LONG)) == Action(Direction.LONG, 4)

    def test_fresh_position_is_one_unit(self):
        pol = make_policy(PolicySpec("avgdown"), problem())
        assert pol.decide(ctx()) == LONG

    def test_ladder_sequence(self):
        pol = make_policy(PolicySpec("avgdown"), problem())
        sizes = [pol.decide(ctx(losing_streak=k, position=LONG)).size for k in range(10)]
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 64, 64]

    def test_never_exits_on_losses(self):
        pol = make_policy(PolicySpec("avgdown"), problem())
        for k in range(8):
            assert pol.decide(ctx(losing_streak=k, position=LONG)).direction is Direction.LONG

    def test_requires_long_action(self):
        with pytest.raises(ConfigurationError):
            make_policy(PolicySpec("avgdown"), problem(actions=(NEUTRAL, SHORT)))


class TestBuyHold:
    def test_always_long_one_unit(self):
        pol = make_policy(PolicySpec("buyhold"), problem())
        for streak, move in [(0, None), (0, Move.DOWN), (3, Move.UP)]:
            assert pol.decide(ctx(losing_streak=streak, last_move=move, position=LONG)) == LONG


class TestBellmanOptimal:
    def test_first_decision_of_a_bull(self):
        pol = make_policy(PolicySpec("bellman"), problem(horizon=1))
        assert pol.decide(ctx()) == LONG

    def test_solves_table_when_not_supplied(self):
        prob = problem(horizon=2, belief=Mirror(0.6, Move.UP))
        pol = make_policy(PolicySpec("bellman"), prob)
        assert pol.table.problem == prob

    def test_rejects_mismatched_table(self):
        table = solve_q(problem(horizon=2))
        with pytest.raises(ConfigurationError):
            make_policy(PolicySpec("bellman", table=table), problem(horizon=3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy(PolicySpec("martingale"), problem())


class TestContextInvariants:
    def test_losing_streak_zero_while_flat(self):
        with pytest.raises(ValidationError):
            ctx(losing_streak=1, position=NEUTRAL)

    def test_losing_streak_non_negative(self):
        with pytest.raises(ValidationError):
            ctx(losing_streak=-1, position=LONG)


class TestPolicyEquivalence:
    """With a snap-to-the-tape belief and only Long/Neutral available, the
    solved-table policy and cut-loss are the same rule."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.55, 0.95), st.integers(1, 6))
    def test_identical_on_every_path(self, confidence, T):
        belief0 = Mirror(confidence, Move.UP)
        prob = problem(horizon=T, belief=belief0, actions=(LONG, NEUTRAL))
        bellman = make_policy(PolicySpec("bellman"), prob)
        cutloss = make_policy(PolicySpec("cutloss"), prob)
        for moves in itertools.product(list(Move), repeat=T):
            belief = belief0
            last = None
            for t in range(T):
                c1 = ctx(t=t, belief=belief, last_move=last)
                assert bellman.decide(c1) == cutloss.decide(c1)
                belief = belief.update(moves[t])
                last = moves[t]
