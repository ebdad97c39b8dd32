import math

import pytest
from hypothesis import given, strategies as st

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    BetaBernoulli,
    Direction,
    Mirror,
    Move,
    Static,
    ValidationError,
    expected_step_reward,
)

TICKS = (10.0, -10.0)


class TestPredictive:
    def test_static_identity(self):
        assert Static(0.6).predictive() == 0.6

    def test_beta_posterior_mean(self):
        assert BetaBernoulli(3, 2).predictive() == pytest.approx(0.6)

    def test_mirror_favoring_down(self):
        assert Mirror(0.7, Move.DOWN).predictive() == pytest.approx(0.3)

    def test_mirror_favoring_up(self):
        assert Mirror(0.7, Move.UP).predictive() == pytest.approx(0.7)


class TestUpdate:
    def test_static_never_learns(self):
        b = Static(0.6)
        assert b.update(Move.DOWN) == b
        assert b.update(Move.UP) == b

    def test_beta_counts_the_down_move(self):
        b = BetaBernoulli(6, 4).update(Move.DOWN)
        assert b == BetaBernoulli(6, 5)
        assert b.predictive() == pytest.approx(6 / 11)

    def test_beta_counts_the_up_move(self):
        assert BetaBernoulli(6, 4).update(Move.UP) == BetaBernoulli(7, 4)

    def test_updates_keep_the_kind_and_validate(self):
        assert type(BetaBernoulli(1, 1).update(Move.UP)) is BetaBernoulli
        assert type(Mirror(0.6, Move.UP).update(Move.DOWN)) is Mirror
        with pytest.raises(ValidationError):
            BetaBernoulli(math.inf, 1).update(Move.UP)

    def test_mirror_snaps_to_observed(self):
        assert Mirror(0.6, Move.UP).update(Move.DOWN) == Mirror(0.6, Move.DOWN)
        assert Mirror(0.6, Move.DOWN).update(Move.DOWN) == Mirror(0.6, Move.DOWN)


class TestExpectedStepReward:
    def test_long_one_unit(self):
        assert expected_step_reward(Static(0.6), LONG, TICKS) == pytest.approx(2.0)

    def test_neutral_is_flat(self):
        for b in (Static(0.6), Mirror(0.9, Move.DOWN), BetaBernoulli(1, 7)):
            assert expected_step_reward(b, NEUTRAL, TICKS) == 0.0

    def test_short_size_two(self):
        a = Action(Direction.SHORT, 2)
        assert expected_step_reward(Static(0.6), a, TICKS) == pytest.approx(-4.0)

    def test_rejects_bad_ticks(self):
        with pytest.raises(ValidationError):
            expected_step_reward(Static(0.6), LONG, (-1.0, 1.0))


class TestInvariants:
    def test_static_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                Static(bad)

    def test_mirror_range(self):
        with pytest.raises(ValidationError):
            Mirror(0.4)
        with pytest.raises(ValidationError):
            Mirror(1.0)
        Mirror(0.5)  # boundary allowed

    def test_beta_positivity(self):
        with pytest.raises(ValidationError):
            BetaBernoulli(0, 1)
        with pytest.raises(ValidationError):
            BetaBernoulli(1, -2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_beta_rejects_non_finite_counts(self, bad):
        with pytest.raises(ValidationError, match="alpha"):
            BetaBernoulli(bad, 1)
        with pytest.raises(ValidationError, match="beta"):
            BetaBernoulli(1, bad)

    def test_beta_rejects_counts_whose_sum_overflows(self):
        # alpha / (alpha + beta) would read 0.0 where it is 0.5
        with pytest.raises(ValidationError, match=r"finite sum, got \(1e\+308, 1e\+308\)"):
            BetaBernoulli(1e308, 1e308)
        assert BetaBernoulli(8e307, 8e307).predictive() == 0.5

    @given(st.floats(0.001, 0.999))
    def test_static_predictive_in_open_interval(self, q):
        assert 0.0 < Static(q).predictive() < 1.0

    @given(st.floats(0.5, 0.999), st.sampled_from(list(Move)))
    def test_mirror_predictive_in_open_interval(self, c, favored):
        assert 0.0 < Mirror(c, favored).predictive() < 1.0

    @given(st.floats(0.01, 50), st.floats(0.01, 50))
    def test_beta_predictive_in_open_interval(self, a, b):
        assert 0.0 < BetaBernoulli(a, b).predictive() < 1.0

    @given(st.lists(st.sampled_from(list(Move)), max_size=30))
    def test_beta_updates_are_exchangeable(self, moves):
        forward = BetaBernoulli(2, 3)
        backward = BetaBernoulli(2, 3)
        for m in moves:
            forward = forward.update(m)
        for m in reversed(moves):
            backward = backward.update(m)
        assert forward == backward
        ups = sum(m is Move.UP for m in moves)
        assert forward == BetaBernoulli(2 + ups, 3 + len(moves) - ups)

    @given(st.floats(0.01, 0.99), st.lists(st.sampled_from(list(Move)), max_size=10))
    def test_static_is_update_fixed_point(self, q, moves):
        b = Static(q)
        for m in moves:
            b = b.update(m)
        assert b == Static(q)

    @given(st.floats(0.501, 0.999))
    def test_mirror_flip_reverses_the_ordering(self, c):
        flipped = Mirror(c, Move.UP).update(Move.DOWN)
        long_ev = expected_step_reward(flipped, LONG, TICKS)
        short_ev = expected_step_reward(flipped, SHORT, TICKS)
        assert long_ev < 0 < short_ev
