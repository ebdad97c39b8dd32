import gc
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    Action,
    BetaBernoulli,
    DecisionProblem,
    MarketModel,
    Mirror,
    Move,
    Policy,
    Static,
    ValidationError,
    bellman,
    compare,
    enumerate_paths,
    make_policy,
    run,
    solve_q,
    summarize,
)
from otl import sim
from otl.beliefs import _BetaCounts, _LastMove, _Layers
from otl.errors import ResourceLimitError
from otl.policies import POLICY_KINDS
from otl.sim import MAX_PATH_STEPS, SimConfig, WealthPath, replay

TICKS = (10.0, -10.0)


def problem(horizon, belief=Static(0.6), actions=(NEUTRAL, LONG, SHORT)):
    return DecisionProblem(horizon=horizon, ticks=TICKS, initial_belief=belief, action_set=actions)


def market(p, wealth=1000.0):
    return MarketModel(u=10.0, d=-10.0, p_up=p, initial_wealth=wealth)


def cfg(n_paths, horizon, seed=101, belief=Static(0.6)):
    return SimConfig(problem(horizon, belief), n_paths=n_paths, master_seed=seed)


def walk(initial, wealths):
    """Oracle for a path's max drawdown and ruin, from its wealth list alone:
    the largest fall from the running peak (which starts at the initial
    wealth), and whether any wealth is at or below 0."""
    peaks = np.maximum.accumulate([initial, *wealths])[1:]
    drawdown = max([0.0, *(peak - w for peak, w in zip(peaks, wealths))])
    return drawdown, any(w <= 0 for w in wealths)


def scripted(wealths, initial=1000.0):
    """Replay a path whose wealth after each step is `wealths`: ticks of
    +-1 and a policy whose state is t, playing a stake of the step's gain."""
    moves, acts, before = [], [], initial
    for w in wealths:
        gain = w - before
        moves.append(Move.UP if gain >= 0 else Move.DOWN)
        acts.append(Action(int(abs(gain))) if gain else NEUTRAL)
        before = w

    states = tuple(range(1, len(wealths) + 1))
    script = Policy("script", up=states, down=states, act=tuple(acts))
    model = MarketModel(u=1.0, d=-1.0, p_up=0.5, initial_wealth=initial)
    path = replay(script, model, moves)
    assert path.wealths == wealths
    return path


class TestSummarize:
    """summarize takes each path's terminal wealth, max drawdown and ruined
    flag, as `replay` takes them inline and `run` stores them."""

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            summarize(np.empty(0), np.empty(0), np.empty(0, dtype=bool))

    def _summarize(self, paths):
        for path in paths:
            assert (path.max_drawdown, path.ruined) == walk(1000.0, path.wealths)
        return summarize(
            np.array([p.terminal_wealth for p in paths]),
            np.array([p.max_drawdown for p in paths]),
            np.array([p.ruined for p in paths]),
        )

    def test_constant_path(self):
        path = scripted([1000.0, 1000.0])
        assert path.max_drawdown == 0.0
        stats = self._summarize([path])
        assert stats.std_terminal == 0.0
        assert stats.mean_max_drawdown == 0.0

    def test_drawdown_peak_to_trough(self):
        path = scripted([1000.0, 990.0, 1010.0])
        assert path.max_drawdown == 10.0
        stats = self._summarize([path])
        assert stats.mean_max_drawdown == 10.0

    def test_two_terminals(self):
        stats = self._summarize([scripted([980.0]), scripted([1020.0])])
        assert stats.mean_terminal == 1000.0
        assert stats.q50 == 1000.0

    def test_quantiles_nondecreasing_and_ruin(self):
        paths = [scripted([w]) for w in (-5.0, 10.0, 30.0, 500.0, 900.0)]
        assert [p.ruined for p in paths] == [True, False, False, False, False]
        stats = self._summarize(paths)
        q = stats.quantiles()
        assert list(q) == sorted(q)
        assert stats.ruin_fraction == pytest.approx(0.2)

    def test_ruin_at_zero_wealth(self):
        path = scripted([10.0, 0.0, 20.0])
        assert (path.max_drawdown, path.ruined) == (1000.0, True)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_inline_statistics_match_a_walk_on_every_path(self, kind):
        # a small initial wealth, so that some paths are ruined, some at exactly 0
        T, m = 8, market(0.5, wealth=20.0)
        pol = make_policy(kind, problem(T))
        ruined = 0
        for moves, _ in enumerate_paths(m, T):
            path = replay(pol, m, moves)
            assert path.moves == moves and len(path.actions) == len(path.wealths) == T
            assert path.terminal_wealth == path.wealths[-1]
            assert (path.max_drawdown, path.ruined) == walk(20.0, path.wealths)
            ruined += path.ruined
        assert ruined > 0 or kind == "bellman"

    def test_empty_path(self):
        path = replay(make_policy("cutloss", problem(3)), market(0.5), [])
        assert path == WealthPath([], [], [], 1000.0, 0.0, False)


class TestRun:
    def test_determinism(self):
        pol = make_policy("cutloss", problem(8))
        a_paths, b_paths = [], []
        a = run(pol, market(0.45), cfg(300, 8), lambda i, p: a_paths.append((i, p)))
        b = run(pol, market(0.45), cfg(300, 8), lambda i, p: b_paths.append((i, p)))
        assert a.stats == b.stats
        assert [i for i, _ in a_paths] == list(range(300))
        assert a_paths == b_paths

    def test_accounting_identity(self):
        pol = make_policy("avgdown", problem(12))
        m, paths = market(0.48), []
        res = run(pol, m, cfg(200, 12), lambda i, p: paths.append(p))
        assert len(paths) == 200
        for path, terminal in zip(paths, res.terminals):
            rewards = [
                a.stake * (m.u if move is Move.UP else m.d)
                for move, a in zip(path.moves, path.actions)
            ]
            assert path.terminal_wealth == terminal == m.initial_wealth + sum(rewards)

    def test_fair_coin_fixed_size_mean(self):
        pol = make_policy("buyhold", problem(10))
        n = 20_000
        res = run(pol, market(0.5), cfg(n, 10, seed=7))
        se = 10.0 * math.sqrt(10) / math.sqrt(n)
        assert abs(res.stats.mean_terminal - 1000.0) < 3 * se

    def test_beliefs_update_while_flat(self):
        # a mirror trader who exits after a loss must re-enter on the next up
        pol = make_policy("bellman", problem(3, belief=Mirror(0.6, Move.UP), actions=(LONG, NEUTRAL)))
        path = replay(pol, market(0.5), [Move.DOWN, Move.UP, Move.UP])
        assert path.actions == [LONG, NEUTRAL, LONG]

    @pytest.mark.parametrize("kind", ["bellman", "cutloss"])
    def test_market_ticks_must_be_the_problems(self, kind):
        # a policy solved for +-10 must not be scored on ticks of +1/-30
        pol = make_policy(kind, problem(5))
        odd = MarketModel(u=1.0, d=-30.0, p_up=0.5)
        msg = re.escape("market ticks (1.0, -30.0) != problem ticks (10.0, -10.0)")
        with pytest.raises(ValidationError, match=msg):
            run(pol, odd, cfg(100, 5))
        with pytest.raises(ValidationError, match="!= problem ticks"):
            compare([pol], odd, cfg(100, 5))

    @pytest.mark.parametrize(
        "solved, differ",
        [
            (problem(5), "horizon 5 != 3"),  # once played a 3-step run silently
            (problem(2), "horizon 2 != 3"),
            (problem(3, belief=Static(0.7)), "initial_belief Static(q_up=0.7) != Static(q_up=0.6)"),
        ],
        ids=["longer-table", "shorter-table", "other-prior"],
    )
    def test_bellman_table_must_be_the_problems(self, solved, differ, monkeypatch):
        # lattice rows of another problem's table are rows of another lattice
        sampled = []
        monkeypatch.setattr(sim, "sample_moves", lambda *args: sampled.append(args))
        pol = make_policy("bellman", solved)
        with pytest.raises(ValidationError, match=re.escape(f"built for another problem: {differ}")):
            run(pol, market(0.5), cfg(100, 3, seed=1))
        assert sampled == []

    def test_replay_rejects_moves_past_the_table(self):
        pol = make_policy("bellman", problem(2))
        with pytest.raises(ValidationError, match="solved for horizon 2, got 3 moves"):
            replay(pol, market(0.5), [Move.UP] * 3)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_alone(self, enabled):
        seen = []

        class Watched:
            """Plays LONG in its one state, noting at each decision whether the
            collector is on; the fifth decision stops the run."""

            def __getitem__(self, state):
                seen.append(gc.isenabled())
                if len(seen) == 5:
                    raise RuntimeError("stop")
                return LONG

        watcher = Policy("watcher", up=(0,), down=(0,), act=Watched())

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="stop"):
                run(watcher, market(0.5), cfg(10, 2))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [enabled] * 5

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
            probability * replay(pol, m, moves).terminal_wealth
            for moves, probability in enumerate_paths(m, T)
        )
        n = 40_000
        res = run(pol, m, cfg(n, T, seed=11, belief=Mirror(0.6, Move.UP)))
        se = res.terminals.std(ddof=1) / math.sqrt(n)
        assert abs(res.stats.mean_terminal - exact) < 3 * se

    @pytest.mark.parametrize("q", [0.55, 0.4])
    def test_bellman_mean_pnl_is_the_solved_value(self, q):
        # a Static(q) trader in a market whose p_up is q: the subjective
        # value V(s_0) is the true expected P&L, and the Monte Carlo mean
        # lies within 4 standard errors of it
        T, n = 20, 10_000
        prob = problem(T, belief=Static(q), actions=(NEUTRAL, LONG, Action(2), SHORT))
        v0 = solve_q(prob).value(0, Static(q))
        res = run(make_policy("bellman", prob), market(q), SimConfig(prob, n, master_seed=5))
        se = res.terminals.std(ddof=1) / math.sqrt(n)
        assert se > 0
        assert abs(res.stats.mean_terminal - 1000.0 - v0) < 4 * se


class TestHeuristicRules:
    """Oracle for the heuristics' automata: their stakes on every path,
    worked out from the move tape by the rules as written."""

    def test_avgdown_doubles_after_down_resets_after_up(self):
        T, m = 8, market(0.5)
        pol = make_policy("avgdown", problem(T))
        for moves, _ in enumerate_paths(m, T):
            stake, stakes = 1, []
            for move in moves:
                stakes.append(stake)
                stake = min(2 * stake, 64) if move is Move.DOWN else 1
            actions = replay(pol, m, moves).actions
            assert actions == [Action(k) for k in stakes]

    def test_cutloss_flat_exactly_after_a_down_move(self):
        T, m = 8, market(0.5)
        pol = make_policy("cutloss", problem(T))
        for moves, _ in enumerate_paths(m, T):
            actions = replay(pol, m, moves).actions
            after_down = [False] + [move is Move.DOWN for move in moves[:-1]]
            assert actions == [NEUTRAL if flat else LONG for flat in after_down]


class _StateRecorder:
    """An `act` list that plays bellman's and records the state read at each t."""

    def __init__(self, act):
        self.act, self.states = act, []

    def __getitem__(self, state):
        self.states.append(state)
        return self.act[state]


class TestRowWalk:
    """Oracle for bellman's states: at each t its state is the lattice's
    state of the belief `Belief.update` reaches, and bellman plays
    `optimal_action` at that belief, on every path."""

    @pytest.mark.parametrize(
        "belief0, lattice_kind",
        [
            (Static(0.6), _LastMove),  # closed forms: one row per layer,
            (Mirror(0.6, Move.UP), _LastMove),  # and two after t = 0
            (BetaBernoulli(3, 2), _Layers),  # int counts: the closure
            (BetaBernoulli(3.0, 2.0), _BetaCounts),  # float counts: the closed form
        ],
        ids=["static", "mirror", "beta-int", "beta-float"],
    )
    @pytest.mark.parametrize("T", range(9))
    def test_rows_follow_update_on_every_path(self, belief0, lattice_kind, T):
        m = market(0.5)
        table = solve_q(problem(T, belief0))
        assert type(table.lattice) is lattice_kind
        pol = bellman(table)
        for moves, _ in enumerate_paths(m, T):
            recorder = _StateRecorder(pol.act)
            actions = replay(replace(pol, act=recorder), m, moves).actions
            belief = belief0
            for t, move in enumerate(moves):
                assert recorder.states[t] == table.lattice.state(t, belief)
                assert actions[t] == table.optimal_action(t, belief)
                belief = belief.update(move)


class TestCompare:
    def test_same_policy_twice_identical_rows(self):
        prob = problem(6)
        pols = [make_policy("cutloss", prob) for _ in range(2)]
        table = compare(pols, market(0.45), cfg(500, 6))
        assert table.results[0].stats == table.results[1].stats
        assert table.pairwise[0].mean_diff == 0.0

    def test_common_random_numbers_share_moves(self):
        prob = problem(5)
        seen = []
        compare(
            [make_policy("cutloss", prob), make_policy("buyhold", prob)],
            market(0.5),
            cfg(50, 5),
            lambda i, path: seen.append((i, path.moves)),
        )
        # each policy's paths in turn, each path i with the same moves
        assert len(seen) == 100
        assert seen[:50] == seen[50:]
        assert [i for i, _ in seen[:50]] == list(range(50))

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

    def test_kept_paths_change_no_result(self):
        prob = problem(9)
        policies = [make_policy(kind, prob) for kind in POLICY_KINDS]
        seen = []
        kept = compare(policies, market(0.45), cfg(400, 9), lambda i, p: seen.append(p))
        table = compare(policies, market(0.45), cfg(400, 9))
        assert table.pairwise == kept.pairwise
        for k, (res, ref) in enumerate(zip(table.results, kept.results)):
            assert res.stats == ref.stats
            assert res.terminals.tolist() == ref.terminals.tolist()
            passed = seen[400 * k : 400 * (k + 1)]
            assert [p.terminal_wealth for p in passed] == ref.terminals.tolist()
            assert res.paths == [] and ref.paths == []

    def test_unkept_paths_hold_no_step_records(self):
        # each policy's 40,000 steps held as records took ~5 MB (~133 B each)
        prob = problem(20)
        policies = [make_policy("cutloss", prob), make_policy("avgdown", prob)]
        compare(policies, market(0.45), cfg(3, 20))  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            compare(policies, market(0.45), cfg(2_000, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_empty_policy_list_rejected(self):
        with pytest.raises(ValidationError):
            compare([], market(0.5), cfg(10, 5))
