import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otl import (
    BetaBernoulli,
    Mirror,
    Move,
    ResourceLimitError,
    Static,
    ValidationError,
    belief_id,
)
from otl import beliefs
from otl.beliefs import _closure, lattice_of


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

    def test_mirror_favored_must_be_a_move(self):
        # "up" is not Move.UP: predictive() would read it as down
        with pytest.raises(ValidationError, match="Mirror favored must be a Move, got 'up'"):
            Mirror(0.6, "up")

    def test_beta_positivity(self):
        with pytest.raises(ValidationError):
            BetaBernoulli(0, 1)
        with pytest.raises(ValidationError):
            BetaBernoulli(1, -2)

    # math.isfinite raises OverflowError on an int beyond float64
    @pytest.mark.parametrize(
        "bad", [math.inf, math.nan, pytest.param(10**400, id="int-beyond-float64")]
    )
    def test_beta_rejects_non_finite_counts(self, bad):
        with pytest.raises(ValidationError, match="BetaBernoulli alpha must be finite"):
            BetaBernoulli(bad, 1)
        with pytest.raises(ValidationError, match="BetaBernoulli beta must be finite"):
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
        # one adverse move makes Down the likelier move
        assert flipped.predictive() < 0.5


def assert_same_lattice(b0, T):
    """b0's lattice (`lattice_of`) equals the generic forward closure, row
    for row and bit for bit. An exact Static or Mirror and float beta counts
    that keep growing have a closed form; for every other belief both are
    the closure, and this checks its ids and rows."""
    closed = lattice_of(b0, T)
    oracle = _closure(b0, T)
    assert list(closed.start) == list(oracle.start)
    assert closed.start[0] == 0
    for t in range(T + 1):
        layer = oracle.beliefs(t)
        assert closed.beliefs(t) == layer
        # ids tell an int count from a float one, and repr is exact
        assert closed.ids(t) == oracle.ids(t) == [belief_id(b) for b in layer]
        states = list(range(closed.start[t], closed.start[t + 1]))
        assert [closed.state(t, b) for b in layer] == [oracle.state(t, b) for b in layer] == states
        if t < T:
            # the arrays and the lists, row for row and bit for bit
            for built in (closed, oracle):
                arrays = built.layer(t)
                assert [a.dtype for a in arrays] == [np.float64, np.intp, np.intp]
                assert [a.tolist() for a in arrays] == list(built.children(t))
            q_closed, *kids_closed = closed.children(t)
            q_oracle, *kids_oracle = oracle.children(t)
            assert list(map(float.hex, q_closed)) == list(map(float.hex, q_oracle))
            assert kids_closed == kids_oracle


SHIPPED = [
    Static(0.6),
    Static(0.35),
    Mirror(0.7, Move.UP),
    Mirror(0.7, Move.DOWN),
    Mirror(0.5, Move.UP),
    Mirror(0.5, Move.DOWN),
    BetaBernoulli(1.0, 1.0),
    BetaBernoulli(1 / 3, 1 / 3),
    BetaBernoulli(1e-3, 1e-3),
    BetaBernoulli(0.1, 2.7),
    BetaBernoulli(2.7, 0.1),
    BetaBernoulli(3, 2),  # int counts: the closure, ints kept in ids
    BetaBernoulli(1, 2.5),
    BetaBernoulli(2.0**53 - 2, 1.0),  # alpha saturates within the horizon
    BetaBernoulli(2.0**53, 2.0**53),  # both counts saturated from the start
    BetaBernoulli(2**53, 1),
]

# beta counts the closed form does not take
FALLBACK = [
    BetaBernoulli(2.0**53 - 2, 1.0),
    BetaBernoulli(2.0**53, 2.0**53),
    BetaBernoulli(2**53, 1),
    BetaBernoulli(3, 2),
    BetaBernoulli(1, 2.5),
]


class TestLattice:
    @pytest.mark.parametrize("b0", SHIPPED, ids=repr)
    def test_closed_form_matches_closure(self, b0):
        for T in range(41):
            assert_same_lattice(b0, T)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_beta_sweep(self, alpha, beta, T):
        assert_same_lattice(BetaBernoulli(alpha, beta), T)

    @pytest.mark.parametrize("b0", FALLBACK, ids=repr)
    def test_saturated_or_non_float_counts_use_the_closure(self, b0):
        closure = type(_closure(b0, 10))
        assert type(lattice_of(b0, 10)) is closure
        for closed in (BetaBernoulli(1.0, 1.0), Static(0.6), Mirror(0.6, Move.DOWN)):
            assert type(lattice_of(closed, 10)) is not closure

    @pytest.mark.parametrize("b0", SHIPPED, ids=repr)
    def test_rows_of_absent_beliefs_are_none(self, b0):
        T = 6
        lattice = lattice_of(b0, T)
        assert lattice.state(-1, b0) is None
        assert lattice.state(T + 1, b0) is None
        for other in (Static(0.45), Mirror(0.55, Move.UP), BetaBernoulli(0.7, 0.9)):
            for t in range(T + 1):
                assert lattice.state(t, other) is None
        # layers outside 0..T are empty, in the closed form and the closure
        for built in (lattice, _closure(b0, T)):
            for t in (-T - 2, -1, T + 1, T + 2):
                assert built.beliefs(t) == [] and built.ids(t) == []
                assert built.state(t, b0) is None

    @pytest.mark.parametrize("b0", [BetaBernoulli(1 / 3, 1.0), BetaBernoulli(3, 2)], ids=repr)
    def test_beta_rows_reached_at_another_t_are_none(self, b0):
        T = 6
        lattice = lattice_of(b0, T)
        for t in range(T + 1):
            for s in range(T + 1):
                for b in lattice.beliefs(s):
                    assert (lattice.state(t, b) is None) == (s != t)

    def test_beta_rows_compare_counts_exactly(self):
        lattice = lattice_of(BetaBernoulli(2.0**53 - 2, 1.0), 2)  # alpha reaches 2**53 at t=2
        assert type(lattice) is not type(_closure(BetaBernoulli(1.0, 1.0), 2))
        # an int count names the row of the float it equals, and only that
        assert lattice.state(2, BetaBernoulli(2**53, 1.0)) == 3
        assert lattice.state(2, BetaBernoulli(2**53 + 1, 1.0)) is None
        assert lattice.state(1, BetaBernoulli(2**53 - 1, 1)) == 1
        assert lattice.state(2, BetaBernoulli(2**53 - 2, 3)) == 5

    @pytest.mark.parametrize(
        "b0,T,max_states",
        [
            (BetaBernoulli(1.0, 1.0), 1412, 10**6),
            (BetaBernoulli(3, 2), 12, 100),
            (Static(0.6), 99, 100),
            (Mirror(0.6), 50, 101),
        ],
        ids=repr,
    )
    def test_size_bound(self, b0, T, max_states, monkeypatch):
        # T is the longest horizon whose lattice fits in max_states
        monkeypatch.setattr(beliefs, "MAX_STAGE_STATES", max_states)
        assert lattice_of(b0, T).start[-1] <= max_states
        with pytest.raises(ResourceLimitError, match=f"exceeds {max_states} stage states"):
            lattice_of(b0, T + 1)
