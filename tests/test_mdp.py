import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    BetaBernoulli,
    DecisionProblem,
    Mirror,
    Move,
    ResourceLimitError,
    Static,
    UnreachableStateError,
    ValidationError,
    solve_q,
)
from otl import beliefs, mdp
from otl.beliefs import _Layers
from otl.mdp import DEFAULT_ACTIONS
from otl.verify import BELIEF_GRID, ORACLE_TOL, enumeration_q

TICKS = (10.0, -10.0)


def problem(horizon, belief, ticks=TICKS, **kw):
    return DecisionProblem(horizon=horizon, ticks=ticks, initial_belief=belief, **kw)


class TestSolveExamples:
    def test_one_step_static(self):
        # hand oracle: one-step expectation 10 * (2q - 1)
        b = Static(0.6)
        t = solve_q(problem(1, b))
        assert t.q(0, b, LONG) == pytest.approx(2.0, abs=1e-12)
        assert t.q(0, b, NEUTRAL) == pytest.approx(0.0, abs=1e-12)
        assert t.q(0, b, SHORT) == pytest.approx(-2.0, abs=1e-12)

    def test_three_step_static(self):
        # frozen from the 8-path enumeration oracle
        b = Static(0.6)
        t = solve_q(problem(3, b))
        assert t.q(0, b, LONG) == pytest.approx(6.0)
        assert t.q(0, b, NEUTRAL) == pytest.approx(4.0)
        assert t.q(0, b, SHORT) == pytest.approx(2.0)

    def test_two_step_mirror(self):
        # frozen from the 4-path enumeration oracle with belief tracking
        b = Mirror(0.6, Move.UP)
        t = solve_q(problem(2, b))
        assert t.q(0, b, LONG) == pytest.approx(4.0)
        assert t.q(0, b, NEUTRAL) == pytest.approx(2.0)
        assert t.q(0, b, SHORT) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("T", [1, 2, 4, 7])
    def test_fair_static_long_short_symmetry(self, T):
        b = Static(0.5)
        t = solve_q(problem(T, b))
        assert t.q(0, b, LONG) == pytest.approx(t.q(0, b, SHORT), abs=1e-12)


class TestOptimalActionAndValue:
    def test_bull_goes_long(self):
        b = Static(0.6)
        t = solve_q(problem(1, b))
        assert t.optimal_action(0, b) == LONG
        assert t.value(0, b) == pytest.approx(2.0)

    def test_tie_breaks_to_first_listed_action(self):
        b = Static(0.5)
        t = solve_q(problem(1, b, action_set=(NEUTRAL, LONG, SHORT)))
        assert t.optimal_action(0, b) == NEUTRAL

    def test_bear_goes_short(self):
        b = Static(0.3)
        t = solve_q(problem(1, b))
        assert t.optimal_action(0, b) == SHORT

    def test_terminal_value_is_zero(self):
        b = BetaBernoulli(3, 2)
        t = solve_q(problem(4, b))
        for term in t.lattice.beliefs(4):
            assert t.value(4, term) == 0.0

    def test_fair_static_value_stays_zero(self):
        b = Static(0.5)
        t = solve_q(problem(5, b))
        assert t.value(0, b) == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_state_raises(self):
        b = Static(0.6)
        t = solve_q(problem(2, b))
        with pytest.raises(UnreachableStateError):
            t.value(1, Static(0.7))
        with pytest.raises(UnreachableStateError):
            t.q(5, b, LONG)
        with pytest.raises(UnreachableStateError):
            t.optimal_action(2, b)  # t == horizon


class TestValidation:
    def test_bad_ticks(self):
        with pytest.raises(ValidationError):
            problem(1, Static(0.6), ticks=(10.0, 5.0))

    def test_negative_horizon(self):
        with pytest.raises(ValidationError):
            problem(-1, Static(0.6))

    def test_empty_action_set(self):
        with pytest.raises(ValidationError):
            problem(1, Static(0.6), action_set=())

    def test_duplicate_actions(self):
        with pytest.raises(ValidationError):
            problem(1, Static(0.6), action_set=(LONG, LONG))

    # math.isfinite raises OverflowError on an int beyond float64
    @pytest.mark.parametrize(
        "ticks",
        [
            (math.inf, -10.0),
            (10.0, -math.inf),
            (math.nan, -10.0),
            pytest.param((10**400, -1.0), id="int-beyond-float64"),
        ],
    )
    def test_non_finite_ticks(self, ticks):
        with pytest.raises(ValidationError, match="DecisionProblem ticks [ud] must be finite"):
            problem(1, Static(0.6), ticks=ticks)

    def test_overflowing_q_values_rejected(self):
        with pytest.raises(ValidationError, match="overflow"):
            solve_q(problem(3, Static(0.6), ticks=(1.7e308, -1.7e308)))

    def test_state_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(beliefs, "MAX_STAGE_STATES", 50)
        with pytest.raises(ResourceLimitError, match="exceeds 50 stage states"):
            solve_q(problem(100, BetaBernoulli(1, 1)))

    @pytest.mark.parametrize(
        "belief,T",
        [(BetaBernoulli(1.0, 1.0), 1414), (Mirror(0.6), 1_000_000), (Static(0.6), 1_000_000)],
    )
    def test_oversized_lattice_rejected_before_it_is_built(self, belief, T):
        # beta: 1,001,820 states, known from the closed form; the closure
        # knows only that each of the T + 1 layers holds a belief
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="exceeds 1000000 stage states"):
                solve_q(problem(T, belief))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


BELIEFS = [Static(0.6), Static(0.35), Mirror(0.7, Move.UP), BetaBernoulli(3, 2)]


class _Heavy(BetaBernoulli):
    """A beta belief whose `update` counts each move twice."""

    def update(self, observed):
        if observed is Move.UP:
            return _Heavy(self.alpha + 2, self.beta)
        return _Heavy(self.alpha, self.beta + 2)


class _Drifting(Static):
    """A static belief whose `update` moves q_up a step toward the move."""

    def update(self, observed):
        return _Drifting(self.q_up + (0.05 if observed is Move.UP else -0.05))


class _Stubborn(Mirror):
    """A mirror belief whose `update` never changes its favored direction."""

    def update(self, observed):
        return self


class TestInvariants:
    @pytest.mark.parametrize("belief", BELIEFS, ids=str)
    @pytest.mark.parametrize("T", range(7))
    def test_oracle_equivalence(self, belief, T):
        prob = problem(T, belief)
        table = solve_q(prob)
        for a in prob.action_set:
            if T == 0:
                continue
            oracle = enumeration_q(belief, a, T, TICKS, prob.action_set)
            assert table.q(0, belief, a) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("T", range(1, 7))
    def test_beta_subclass_solves_over_its_own_update(self, T):
        # float counts, yet the +1 closed form is not this belief's lattice
        b0 = _Heavy(3.0, 2.0)
        prob = problem(T, b0)
        table = solve_q(prob)
        assert type(table.lattice) is _Layers
        for a in prob.action_set:
            oracle = enumeration_q(b0, a, T, TICKS, prob.action_set)
            assert table.q(0, b0, a) == pytest.approx(oracle, abs=ORACLE_TOL)

    @pytest.mark.parametrize("b0", [_Drifting(0.6), _Stubborn(0.7, Move.UP)], ids=repr)
    @pytest.mark.parametrize("T", range(1, 7))
    def test_static_or_mirror_subclass_solves_over_its_own_update(self, b0, T):
        # the closed form of Static or Mirror is not this belief's lattice
        prob = problem(T, b0)
        table = solve_q(prob)
        assert type(table.lattice) is _Layers
        for a in prob.action_set:
            oracle = enumeration_q(b0, a, T, TICKS, prob.action_set)
            assert table.q(0, b0, a) == pytest.approx(oracle, abs=ORACLE_TOL)

    @pytest.mark.parametrize("belief", BELIEFS, ids=str)
    def test_bellman_consistency(self, belief):
        table = solve_q(problem(5, belief))
        prob = table.problem
        for (t, b), v in table.values.items():
            if t == prob.horizon:
                assert v == 0.0
            else:
                assert v == max(table.q(t, b, a) for a in prob.action_set)

    @given(st.floats(0.05, 0.95), st.integers(1, 5), st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_tick_scaling_scales_q_and_fixes_argmax(self, q, T, lam):
        base = solve_q(problem(T, Static(q)))
        scaled = solve_q(problem(T, Static(q), ticks=(10.0 * lam, -10.0 * lam)))
        for (t, b, a), val in base.entries.items():
            assert scaled.q(t, b, a) == pytest.approx(lam * val, rel=1e-9, abs=1e-9)
        for (t, b) in base.values:
            if t < T:
                assert scaled.optimal_action(t, b) == base.optimal_action(t, b)

    @given(st.floats(0.05, 0.95), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_static_belief_mirror_symmetry(self, q, T):
        b, bm = Static(q), Static(1.0 - q)
        t1 = solve_q(problem(T, b))
        t2 = solve_q(problem(T, bm))
        for t in range(T):
            assert t1.q(t, b, LONG) == pytest.approx(t2.q(t, bm, SHORT), abs=1e-12)
            assert t1.q(t, b, SHORT) == pytest.approx(t2.q(t, bm, LONG), abs=1e-12)
            assert t1.q(t, b, NEUTRAL) == pytest.approx(t2.q(t, bm, NEUTRAL), abs=1e-12)

    def test_one_step_long_value_increases_in_q(self):
        qs = [0.05 * k for k in range(1, 20)]
        values = [solve_q(problem(1, Static(q))).q(0, Static(q), LONG) for q in qs]
        assert all(b > a for a, b in zip(values, values[1:]))


def scalar_solve_q(problem):
    """The scalar dict-loop form of the recursion, the oracle of the array
    solver: returns ({(t, b, a): Q}, {(t, b): value})."""
    T = problem.horizon
    layers = [[problem.initial_belief]]
    for _ in range(T):
        nxt = {}
        for b in layers[-1]:
            for m in Move:
                nxt.setdefault(b.update(m))
        layers.append(list(nxt))

    u, d = problem.ticks
    entries = {}
    values = {(T, b): 0.0 for b in layers[T]}
    for t in range(T - 1, -1, -1):
        for b in layers[t]:
            q_up = b.predictive()
            v_up = values[(t + 1, b.update(Move.UP))]
            v_dn = values[(t + 1, b.update(Move.DOWN))]
            best = None
            for a in problem.action_set:
                r_up = a.stake * u
                r_dn = a.stake * d
                q = q_up * (r_up + v_up) + (1.0 - q_up) * (r_dn + v_dn)
                entries[(t, b, a)] = q
                if best is None or q > best:
                    best = q
            values[(t, b)] = best
    return entries, values


def scalar_optimal_action(problem, entries, t, b):
    best = best_q = None
    for a in problem.action_set:
        q = entries[(t, b, a)]
        if best_q is None or q > best_q:
            best, best_q = a, q
    return best


# SCALAR_MAX_ROWS values that force solve_q's numpy pass (every layer has
# a row) and its scalar pass (no layer has more rows than the lattice bound)
PASSES = {"numpy": 0, "scalar": beliefs.MAX_STAGE_STATES}


def solve_with(prob, max_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "SCALAR_MAX_ROWS", max_rows)
        return solve_q(prob)


def assert_bit_identical(prob, passes=PASSES.values()):
    """solve_q matches the scalar oracle bit for bit, run with each
    SCALAR_MAX_ROWS in `passes`: by default once per backward pass."""
    entries, values = scalar_solve_q(prob)
    for max_rows in passes:
        table = solve_with(prob, max_rows)
        assert list(table.values) == list(values)
        assert list(table.entries) == list(entries)
        for (t, b), v in values.items():
            assert repr(table.value(t, b)) == repr(v)
            assert repr(table.values[(t, b)]) == repr(v)
        for (t, b, a), q in entries.items():
            assert repr(table.q(t, b, a)) == repr(q)
            assert repr(table.entries[(t, b, a)]) == repr(q)
        for t in range(prob.horizon):
            for b in table.lattice.beliefs(t):
                assert table.optimal_action(t, b) == scalar_optimal_action(prob, entries, t, b)


ACTION_POOL = [
    NEUTRAL,
    LONG,
    SHORT,
    Action(2),
    Action(-3),
    Action(4),
]

any_belief = st.one_of(
    st.builds(Static, st.floats(0.01, 0.99)),
    st.builds(Mirror, st.floats(0.5, 0.99), st.sampled_from(list(Move))),
    st.builds(BetaBernoulli, st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
    st.builds(BetaBernoulli, st.integers(1, 20), st.integers(1, 20)),
)


class TestBitIdentityWithScalarSolver:
    @pytest.mark.parametrize("name,belief", BELIEF_GRID, ids=lambda x: str(x))
    @pytest.mark.parametrize("T", range(9))
    def test_check_bellman_grid(self, name, belief, T):
        assert_bit_identical(problem(T, belief))

    @given(
        belief=any_belief,
        T=st.integers(0, 12),
        actions=st.lists(st.sampled_from(ACTION_POOL), min_size=1, unique=True),
        ticks=st.tuples(st.floats(0.1, 100.0), st.floats(-100.0, -0.1)),
    )
    @example(Static(0.5), 3, [SHORT, NEUTRAL, LONG], TICKS)  # ties, signed zeros
    @example(Static(0.5), 3, [LONG, SHORT], TICKS)
    @example(Mirror(0.5, Move.DOWN), 4, [NEUTRAL, SHORT, LONG], TICKS)
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_sweep(self, belief, T, actions, ticks):
        assert_bit_identical(problem(T, belief, ticks=ticks, action_set=tuple(actions)))

    @pytest.mark.parametrize("extra,backward", [(0, "_scalar_pass"), (1, "_numpy_pass")])
    def test_widest_layer_picks_the_pass(self, extra, backward, monkeypatch):
        # Beta(1.0, 1.0) at horizon T has T + 1 rows in its widest layer
        T = mdp.SCALAR_MAX_ROWS - 1 + extra
        ran = []
        real = getattr(mdp, backward)
        monkeypatch.setattr(mdp, backward, lambda *args: ran.append(backward) or real(*args))
        assert_bit_identical(problem(T, BetaBernoulli(1.0, 1.0)), [mdp.SCALAR_MAX_ROWS])
        assert ran == [backward]

    @pytest.mark.parametrize("max_rows", list(PASSES.values()), ids=list(PASSES))
    def test_all_ties_go_to_neutral(self, max_rows):
        # Static(0.5) at ticks +-10: every action's Q is 0.0 at every state
        prob = problem(6, Static(0.5))
        assert_bit_identical(prob, [max_rows])
        table = solve_with(prob, max_rows)
        assert table.best.tolist() == [0] * 6
        assert [x.hex() for x in table.qs.ravel().tolist()] == [(0.0).hex()] * 18
        assert table.optimal_action(0, Static(0.5)) == NEUTRAL

    @pytest.mark.parametrize(
        "belief,t", [(Static(0.9), 7), (Mirror(0.9), 7), (BetaBernoulli(9.0, 1.0), 10)], ids=str
    )
    def test_overflow_message_is_the_same_in_both_passes(self, belief, t):
        # V grows by up to 0.8e307 a step and first overflows at t, far
        # below the horizon, where the recursion meets it
        prob = problem(30, belief, ticks=(1e307, -1e307))
        for max_rows in PASSES.values():
            with pytest.raises(ValidationError) as err:
                solve_with(prob, max_rows)
            assert str(err.value) == (
                f"Q-values overflow at t={t}: ticks (1e+307, -1e+307) are too large for horizon 30"
            )


class TestTableLayout:
    def test_layers_rows_and_arrays(self):
        b = BetaBernoulli(3, 2)
        table = solve_q(problem(4, b))
        start = table.lattice.start
        assert list(start) == [0, 1, 3, 6, 10, 15]
        for t in range(5):
            # closure order: from each belief, its up child before its down child
            layer = [BetaBernoulli(3 + t - k, 2 + k) for k in range(t + 1)]
            assert table.lattice.beliefs(t) == layer
            states = [table.lattice.state(t, belief) for belief in layer]
            assert states == list(range(start[t], start[t + 1]))
            for s, belief in zip(states, layer):
                # V is Q at the argmax, and 0 at the horizon
                v = table.qs[s, table.best[s]] if t < 4 else 0.0
                assert table.value(t, belief) == v
        assert [f.name for f in fields(table)] == ["problem", "lattice", "qs", "best"]
        assert table.qs.shape == (10, 3)
        assert table.best.shape == (10,)
        with pytest.raises(ValueError):
            table.qs[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.best[0] = 1

    def test_queries_return_python_floats(self):
        b = BetaBernoulli(3, 2)
        table = solve_q(problem(3, b))
        assert type(table.q(0, b, LONG)) is float
        assert type(table.value(0, b)) is float
        assert type(table.values[(0, b)]) is float
        assert type(table.entries[(0, b, LONG)]) is float

    def test_views_are_read_only_mappings(self):
        b = Static(0.6)
        table = solve_q(problem(2, b))
        assert len(table.values) == 3
        assert len(table.entries) == 6
        assert (0, b) in table.values
        assert (2, b, LONG) not in table.entries
        assert table.values.get((0, Static(0.7))) is None
        assert table.entries.get((0, b, Action(2))) is None
        assert table.values.get((-1, b)) is None
        with pytest.raises(TypeError):
            table.values[(0, b)] = 1.0

    def test_negative_t_is_unreachable(self):
        b = Static(0.6)
        table = solve_q(problem(2, b))
        with pytest.raises(UnreachableStateError):
            table.value(-1, b)
        with pytest.raises(UnreachableStateError):
            table.q(-1, b, LONG)
        with pytest.raises(UnreachableStateError):
            table.optimal_action(-1, b)
        with pytest.raises(UnreachableStateError):
            table.q(0, b, Action(-2))
        assert table.lattice.beliefs(-1) == []
        assert table.lattice.beliefs(3) == []


def occupancy_value(table):
    """V(s_0) by policy evaluation with occupancy measures, an oracle that
    shares the lattice and `best` with the solver but none of its backward
    arithmetic: walk a* forward from s_0 under the belief's own predictive,
    mu_t(s) the probability of state s at t, and sum mu_t(s) * E_q[r(s, a*(s))]
    over every t < T and s."""
    lattice, (u, d) = table.lattice, table.problem.ticks
    stakes = np.array([a.stake for a in table.problem.action_set])
    start = lattice.start
    mu, terms = np.ones(1), []
    for t in range(lattice.T):
        q_up, up, down = lattice.layer(t)
        stake = stakes[table.best[start[t] : start[t + 1]]]
        terms += (mu * (q_up * stake * u + (1.0 - q_up) * stake * d)).tolist()
        nxt = np.zeros(start[t + 2] - start[t + 1])
        np.add.at(nxt, up - start[t + 1], mu * q_up)
        np.add.at(nxt, down - start[t + 1], mu * (1.0 - q_up))
        mu = nxt
    return math.fsum(terms)


# the relative gap allowed between V(s_0) and its occupancy sum: the two
# sums round differently, by at most 3.7e-16 on the grid below
OCCUPANCY_RTOL = 1e-12


def assert_occupancy_identity(b0, T, **kw):
    """b0's V(s_0), solved, is its occupancy sum; both are positive here,
    so the relative tolerance means something."""
    table = solve_q(problem(T, b0, **kw))
    v0 = table.value(0, b0)
    assert v0 > 0
    assert math.isclose(occupancy_value(table), v0, rel_tol=OCCUPANCY_RTOL)


class TestOccupancyIdentity:
    @pytest.mark.parametrize(
        "actions", [DEFAULT_ACTIONS, (NEUTRAL, LONG, Action(2), SHORT)], ids=["default", "sized"]
    )
    @pytest.mark.parametrize(
        "b0,T",
        [
            (Static(0.6), 2000),
            (Mirror(0.6), 2000),
            (BetaBernoulli(1.0, 1.0), 1000),
            (BetaBernoulli(0.5, 0.5), 300),
            (BetaBernoulli(3, 2), 40),  # int counts: the closure
        ],
        ids=repr,
    )
    def test_value_is_the_occupancy_sum(self, b0, T, actions):
        assert_occupancy_identity(b0, T, action_set=actions)
