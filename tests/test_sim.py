import math

import pytest

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    DecisionProblem,
    MarketModel,
    Mirror,
    Move,
    Policy,
    Static,
    ValidationError,
    compare,
    enumerate_paths,
    make_policy,
    run,
    summarize,
)
from otl.errors import ResourceLimitError
from otl.sim import MAX_PATH_STEPS, SimConfig, StepRecord, WealthPath, replay

TICKS = (10.0, -10.0)


def problem(horizon, belief=Static(0.6), actions=(NEUTRAL, LONG, SHORT)):
    return DecisionProblem(horizon=horizon, ticks=TICKS, initial_belief=belief, action_set=actions)


def market(p, wealth=1000.0):
    return MarketModel(u=10.0, d=-10.0, p_up=p, initial_wealth=wealth)


def cfg(n_paths, horizon, seed=101, belief=Static(0.6)):
    return SimConfig(problem(horizon, belief), n_paths=n_paths, master_seed=seed)


class TestSummarize:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            summarize([])

    def _path(self, wealths, initial=1000.0):
        steps = [
            StepRecord(t=t, move=Move.UP, action=LONG, reward=0.0, wealth_after=w)
            for t, w in enumerate(wealths)
        ]
        return WealthPath(path_id=0, initial_wealth=initial, steps=steps)

    def test_constant_path(self):
        stats = summarize([self._path([1000.0, 1000.0])])
        assert stats.std_terminal == 0.0
        assert stats.mean_max_drawdown == 0.0

    def test_drawdown_peak_to_trough(self):
        stats = summarize([self._path([1000.0, 990.0, 1010.0])])
        assert stats.mean_max_drawdown == 10.0

    def test_two_terminals(self):
        stats = summarize([self._path([980.0]), self._path([1020.0])])
        assert stats.mean_terminal == 1000.0
        assert stats.q50 == 1000.0

    def test_quantiles_nondecreasing_and_ruin(self):
        stats = summarize([self._path([w]) for w in (-5.0, 10.0, 30.0, 500.0, 900.0)])
        q = stats.quantiles()
        assert list(q) == sorted(q)
        assert stats.ruin_fraction == pytest.approx(0.2)


class TestRun:
    def test_determinism(self):
        pol = make_policy("cutloss", problem(8))
        a = run(pol, market(0.45), cfg(300, 8))
        b = run(pol, market(0.45), cfg(300, 8))
        assert a.stats == b.stats
        assert [p.steps for p in a.paths] == [p.steps for p in b.paths]

    def test_accounting_identity(self):
        pol = make_policy("avgdown", problem(12))
        res = run(pol, market(0.48), cfg(200, 12))
        for path in res.paths:
            total = sum(s.reward for s in path.steps)
            assert path.terminal_wealth == path.initial_wealth + total

    def test_fair_coin_fixed_size_mean(self):
        pol = make_policy("buyhold", problem(10))
        n = 20_000
        res = run(pol, market(0.5), cfg(n, 10, seed=7))
        se = 10.0 * math.sqrt(10) / math.sqrt(n)
        assert abs(res.stats.mean_terminal - 1000.0) < 3 * se

    def test_beliefs_update_while_flat(self):
        # a mirror trader who exits after a loss must re-enter on the next up
        pol = make_policy("bellman", problem(3, belief=Mirror(0.6, Move.UP), actions=(LONG, NEUTRAL)))
        path = replay(pol, market(0.5), Mirror(0.6, Move.UP), [Move.DOWN, Move.UP, Move.UP])
        assert [s.action for s in path.steps] == [LONG, NEUTRAL, LONG]

    def test_zero_paths_rejected(self):
        with pytest.raises(ValidationError):
            cfg(0, 5)

    @pytest.mark.parametrize("horizon", [1, 7, 20])
    def test_path_steps_bounded(self, horizon):
        at_bound = MAX_PATH_STEPS // horizon
        assert cfg(at_bound, horizon).n_paths == at_bound
        with pytest.raises(ResourceLimitError, match=f"exceeds bound {MAX_PATH_STEPS}"):
            cfg(at_bound + 1, horizon)

    def test_mc_matches_exact_enumeration(self):
        # oracle: replay the policy over every enumerated path, weight by its
        # true probability
        T, p = 6, 0.45
        prob = problem(T, belief=Mirror(0.6, Move.UP))
        pol = make_policy("cutloss", prob)
        m = market(p)
        exact = sum(
            probability * replay(pol, m, Mirror(0.6, Move.UP), moves).terminal_wealth
            for moves, probability in enumerate_paths(m, T)
        )
        n = 40_000
        res = run(pol, m, cfg(n, T, seed=11, belief=Mirror(0.6, Move.UP)))
        se = res.terminals.std(ddof=1) / math.sqrt(n)
        assert abs(res.stats.mean_terminal - exact) < 3 * se


class _StreakRecorder(Policy):
    """Records the losing streak it is shown; flat at t = 0, 3, 6, ... and
    long one unit otherwise, so that streaks both grow and meet flat steps."""

    name = "recorder"

    def __init__(self):
        self.streaks = []

    def decide(self, t, belief, last_move, losing_streak):
        self.streaks.append(losing_streak)
        return NEUTRAL if t % 3 == 0 else LONG


class TestLosingStreak:
    def test_streak_bookkeeping_on_every_path(self):
        T, m = 8, market(0.5)
        for moves, _ in enumerate_paths(m, T):
            pol = _StreakRecorder()
            steps = replay(pol, m, Static(0.6), moves).steps
            seen = pol.streaks
            assert seen[0] == 0
            for t in range(T - 1):
                before, after = seen[t], seen[t + 1]
                if steps[t].action is NEUTRAL:
                    assert after == 0
                elif steps[t].move is Move.DOWN:
                    assert after == before + 1
                else:
                    assert after == 0


class TestCompare:
    def test_same_policy_twice_identical_rows(self):
        prob = problem(6)
        pols = [make_policy("cutloss", prob) for _ in range(2)]
        table = compare(pols, market(0.45), cfg(500, 6))
        assert table.results[0].stats == table.results[1].stats
        assert table.pairwise[0].mean_diff == 0.0

    def test_common_random_numbers_share_moves(self):
        prob = problem(5)
        table = compare(
            [make_policy("cutloss", prob), make_policy("buyhold", prob)],
            market(0.5),
            cfg(50, 5),
        )
        a, b = table.results
        for pa, pb in zip(a.paths, b.paths):
            assert [s.move for s in pa.steps] == [s.move for s in pb.steps]

    def test_cutloss_beats_avgdown_in_a_down_market(self):
        prob = problem(15)
        table = compare(
            [make_policy("cutloss", prob), make_policy("avgdown", prob)],
            market(0.45),
            cfg(20_000, 15, seed=3),
        )
        diff = table.pairwise[0]
        assert diff.policy_a == "cutloss" and diff.policy_b == "avgdown"
        assert diff.mean_diff > 0
        assert diff.ci_low > 0

    def test_empty_policy_list_rejected(self):
        with pytest.raises(ValidationError):
            compare([], market(0.5), cfg(10, 5))
