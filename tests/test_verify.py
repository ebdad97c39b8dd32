import itertools

import pytest

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    BetaBernoulli,
    DividendSpec,
    MarketModel,
    Mirror,
    Move,
    ResourceLimitError,
    Static,
    ValidationError,
    enumerate_paths,
)
from otl.market import MAX_ENUM_HORIZON, expected_dividend_by_enumeration
from otl.mdp import DEFAULT_ACTIONS
from otl.verify import (
    TICKS,
    Report,
    check_bellman,
    check_example21,
    check_no_averaging,
    check_price,
    enumeration_q,
    run_all,
)

def reference_enumeration_q(belief, action, horizon, ticks, action_set=DEFAULT_ACTIONS):
    """enumeration_q as a per-path replay: each of the 2^T paths steps its
    own belief, probability and payoff from t = 0, in T * 2^T steps."""
    u, d = ticks
    total = 0.0
    for path in itertools.product((Move.UP, Move.DOWN), repeat=horizon):
        b = belief
        prob = 1.0
        payoff = 0.0
        for t, move in enumerate(path):
            q_up = b.predictive()
            a = action
            if t:
                unit = q_up * u + (1.0 - q_up) * d
                a = max(action_set, key=lambda a: a.stake * unit)
            prob *= q_up if move is Move.UP else (1.0 - q_up)
            tick = u if move is Move.UP else d
            payoff += a.stake * tick
            b = b.update(move)
        total += prob * payoff
    return total


def reference_dividend(model, div, horizon):
    """expected_dividend_by_enumeration as a per-path replay of every
    enumerated path's levels and dividends."""
    total = 0.0
    for moves, probability in enumerate_paths(model, horizon):
        level = div.initial_level
        acc = 0.0
        for t, m in enumerate(moves, start=1):
            level += model.u if m is Move.UP else model.d
            acc += div.per_step_dividend(t, level)
        acc += div.terminal_payoff(level)
        total += probability * acc
    return total


def same_float(got, want):
    # repr also tells -0.0 from 0.0
    return got == want and repr(got) == repr(want)


class TestReport:
    def test_overall_is_conjunction(self):
        rep = Report(suite="demo")
        rep.add("a", True)
        rep.add("b", True)
        assert rep.overall
        rep.add("c", False)
        assert not rep.overall

    def test_informational_cases_do_not_count(self):
        rep = Report(suite="demo")
        rep.add("a", True)
        rep.add("note", False, informational=True)
        assert rep.overall

    def test_dict_schema(self):
        rep = check_price()
        doc = rep.to_dict()
        assert set(doc) == {"suite", "cases", "overall"}
        assert all({"description", "passed", "informational", "measured"} <= set(c) for c in doc["cases"])

    def test_render_mentions_outcome(self):
        text = check_price().render()
        assert "overall: PASS" in text


class TestCheckers:
    def test_bellman_suite_passes(self):
        rep = check_bellman()
        assert rep.overall
        # T = 0 rows are the trivial terminal condition
        assert any("T=0" in c.description for c in rep.cases)

    def test_example21_suite_passes(self):
        assert check_example21().overall

    def test_averaging_suite_passes(self):
        rep = check_no_averaging()
        assert rep.overall

    def test_averaging_reports_bayes_contrast(self):
        rep = check_no_averaging()
        info = [c for c in rep.cases if c.informational]
        assert len(info) == 1
        assert info[0].measured["posterior_predictive"] == pytest.approx(6 / 11)

    def test_averaging_gap_formula(self):
        cases = check_no_averaging().cases
        # the grid's first cases: q=0.55 and T=1 at tick scales 1 and 10
        assert cases[0].description.startswith("q=0.55 scale=1.0 T=1:")
        assert cases[0].measured["gap"] == pytest.approx(20 * (0.55 - 0.5))
        assert cases[5].description.startswith("q=0.55 scale=10.0 T=1:")
        assert cases[5].measured["gap"] == pytest.approx(200 * (0.55 - 0.5))

    def test_price_suite_passes(self):
        assert check_price().overall

    def test_run_all_covers_every_suite(self):
        reports = run_all()
        assert {r.suite for r in reports} == {"bellman", "example21", "averaging", "price"}
        assert all(r.overall for r in reports)

    def test_oracle_rejects_bad_ticks(self):
        # checked on entry, so also at T = 1, where no myopic step runs
        with pytest.raises(ValidationError, match="enumeration_q ticks"):
            enumeration_q(Static(0.6), 1, (-1.0, 1.0))

    @pytest.mark.parametrize("ticks", [10.0, (10.0,), (10.0, -10.0, 1.0), None])
    def test_oracle_rejects_ticks_that_are_not_a_pair(self, ticks):
        with pytest.raises(ValidationError, match=r"enumeration_q ticks must be a \(u, d\) pair"):
            enumeration_q(Static(0.6), 1, ticks)

    @pytest.mark.parametrize("horizon", [0, 1, 2])
    def test_oracle_rejects_an_empty_action_set(self, horizon):
        # as DecisionProblem does: at horizon 2 max() raised a bare
        # ValueError, and at horizon <= 1 the rows came back empty
        with pytest.raises(ValidationError, match="^action_set must be non-empty$"):
            enumeration_q(Static(0.6), horizon, TICKS, ())

    def test_checkers_are_deterministic(self):
        a = check_bellman().to_dict()
        b = check_bellman().to_dict()
        assert a == b


SIZED_ACTIONS = (NEUTRAL, LONG, SHORT, *(Action(k) for k in (2, 4, 8)))
COUPON = DividendSpec(
    per_step_dividend=lambda t, level: 0.02 * level + 0.1 * t,
    terminal_payoff=lambda level: max(level - 100.0, 0.0) ** 2,
)


BELIEFS = [Static(0.6), Mirror(0.7, Move.UP), Mirror(0.65, Move.DOWN), BetaBernoulli(2.5, 1.25)]
MODELS = [MarketModel(u=2.0, d=-1.0, p_up=0.55), MarketModel(u=1.5, d=-0.5, p_up=0.3)]


def reference_row(belief, horizon, ticks, action_set):
    return [reference_enumeration_q(belief, a, horizon, ticks, action_set) for a in action_set]


def same_floats(got, want):
    return len(got) == len(want) and all(map(same_float, got, want))


class TestOracleWalks:
    """The depth-first walks against per-path replays of each horizon and
    first action: the same operands in the same order, so bit-identical
    results at every horizon along the one walk."""

    @pytest.mark.parametrize("belief", BELIEFS, ids=repr)
    @pytest.mark.parametrize("ticks", [TICKS, (1.5, -0.5)])
    def test_q_walk_matches_per_path_replay(self, belief, ticks):
        for T in range(9):
            for action_set in (DEFAULT_ACTIONS, SIZED_ACTIONS):
                got = enumeration_q(belief, T, ticks, action_set)[T]
                want = reference_row(belief, T, ticks, action_set)
                assert same_floats(got, want), (T, action_set, got, want)

    @pytest.mark.parametrize("belief", BELIEFS, ids=repr)
    @pytest.mark.parametrize("ticks", [TICKS, (1.5, -0.5)])
    def test_one_q_walk_matches_every_horizon_and_first_action(self, belief, ticks):
        for action_set in (DEFAULT_ACTIONS, SIZED_ACTIONS):
            qs = enumeration_q(belief, 8, ticks, action_set)
            assert len(qs) == 9
            for T, got in enumerate(qs):
                want = reference_row(belief, T, ticks, action_set)
                assert same_floats(got, want), (T, action_set, got, want)

    @pytest.mark.parametrize("belief", BELIEFS, ids=repr)
    def test_q_walk_prefixes_are_the_shorter_walks(self, belief):
        for action_set in (DEFAULT_ACTIONS, SIZED_ACTIONS):
            walks = [enumeration_q(belief, h, (1.5, -0.5), action_set) for h in range(9)]
            for h, walk in enumerate(walks):
                for T in range(h + 1):
                    assert repr(walk[: T + 1]) == repr(walks[T]), (h, T, action_set)

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_dividend_walk_matches_per_path_replay(self, model):
        for T in range(13):
            got = expected_dividend_by_enumeration(model, COUPON, T)[T]
            want = reference_dividend(model, COUPON, T)
            assert same_float(got, want), (T, got, want)

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_one_dividend_walk_matches_every_horizon(self, model):
        got = expected_dividend_by_enumeration(model, COUPON, 12)
        want = [reference_dividend(model, COUPON, T) for T in range(13)]
        assert same_floats(got, want), (got, want)

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_dividend_walk_prefixes_are_the_shorter_walks(self, model):
        walks = [expected_dividend_by_enumeration(model, COUPON, h) for h in range(13)]
        for h, walk in enumerate(walks):
            for T in range(h + 1):
                assert repr(walk[: T + 1]) == repr(walks[T]), (h, T)

    @pytest.mark.parametrize("T", range(1, 9))
    def test_q_walk_steps_each_prefix_once(self, T):
        updates = []

        class CountingStatic(Static):
            def update(self, observed):
                updates.append(observed)
                return self

        enumeration_q(CountingStatic(0.6), T, TICKS)
        assert len(updates) == 2 ** (T + 1) - 2

    @pytest.mark.parametrize("T", range(1, 13))
    def test_dividend_walk_steps_each_prefix_once(self, T):
        calls = []
        div = DividendSpec(
            per_step_dividend=lambda t, level: calls.append(t) or 0.0,
            terminal_payoff=lambda level: level,
        )
        expected_dividend_by_enumeration(MarketModel(u=1.0, d=-1.0, p_up=0.5), div, T)
        assert len(calls) == 2 ** (T + 1) - 2

    @pytest.mark.parametrize(
        "horizon, error",
        [(-1, ValidationError), (2.5, ValidationError), (MAX_ENUM_HORIZON + 1, ResourceLimitError)],
    )
    def test_q_oracle_bounds_its_horizon(self, horizon, error):
        with pytest.raises(error, match="horizon") as info:
            enumeration_q(Static(0.6), horizon, TICKS)
        assert type(info.value) is error
