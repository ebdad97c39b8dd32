"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The mechanical verify suites must pass before anything else
is evaluated.
"""

import math
import random
import time

import pytest

from otl import (
    LONG,
    NEUTRAL,
    SHORT,
    BetaBernoulli,
    DecisionProblem,
    DividendSpec,
    MarketModel,
    Mirror,
    Move,
    Static,
    compare,
    make_policy,
    price_process,
    run,
    solve_q,
)
from otl.cli import main
from otl.market import expected_dividend_by_enumeration
from otl.sim import SimConfig
from otl.verify import enumeration_q, run_all

TICKS = (10.0, -10.0)
Q_GRID = [0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]


def report(criterion: str, passed: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


@pytest.fixture(scope="module", autouse=True)
def verify_gate():
    # the full checker run must pass before any criterion is evaluated
    reports = run_all()
    failed = [r.suite for r in reports if not r.overall]
    assert not failed, f"verify suites failed: {failed}"


def test_criterion_1_bellman_oracle_equivalence():
    start = time.perf_counter()
    beliefs = [Static(0.6), Mirror(0.6, Move.UP), BetaBernoulli(3, 2)]
    max_dev = 0.0
    for belief in beliefs:
        oracle = enumeration_q(belief, 8, TICKS)
        for T in range(9):
            prob = DecisionProblem(horizon=T, ticks=TICKS, initial_belief=belief)
            table = solve_q(prob)
            for a, q in zip(prob.action_set, oracle[T], strict=True):
                if T == 0:
                    continue
                max_dev = max(max_dev, abs(table.q(0, belief, a) - q))
    elapsed = time.perf_counter() - start
    report(
        f"1 (solver vs 2^T enumeration, max|dev|={max_dev:.2e}, {elapsed:.2f}s)",
        max_dev <= 1e-9 and elapsed < 10.0,
    )


def test_criterion_2_long_neutral_short_chain():
    ok = True
    for q in Q_GRID:
        for T in range(1, 6):
            b = Static(q)
            table = solve_q(DecisionProblem(horizon=T, ticks=TICKS, initial_belief=b))
            qL, qN, qS = (table.q(0, b, a) for a in (LONG, NEUTRAL, SHORT))
            ok = ok and qL > qN > qS
    b = Static(0.6)
    table = solve_q(DecisionProblem(horizon=1, ticks=TICKS, initial_belief=b))
    exact = (
        abs(table.q(0, b, LONG) - 2.0) <= 1e-12
        and abs(table.q(0, b, NEUTRAL)) <= 1e-12
        and abs(table.q(0, b, SHORT) + 2.0) <= 1e-12
    )
    report("2 (strict Q(long) > Q(neutral) > Q(short); T=1 q=0.6 exact)", ok and exact)


def test_criterion_3_post_loss_flip():
    # oracle: with the flipped belief the continuation cancels, leaving
    # Q(neutral) - Q(long) = (u - d) * (q - 1/2) = 2 * scale * 10 * (q - 1/2)
    ok = True
    for q in Q_GRID:
        for scale in (1.0, 10.0, 100.0):
            ticks = (10.0 * scale, -10.0 * scale)
            for T in range(1, 6):
                b0 = Mirror(q, Move.UP)
                table = solve_q(DecisionProblem(horizon=T + 1, ticks=ticks, initial_belief=b0))
                ok = ok and table.optimal_action(0, b0) == LONG
                flipped = b0.update(Move.DOWN)
                gap = table.q(1, flipped, NEUTRAL) - table.q(1, flipped, LONG)
                expected = 2.0 * scale * 10.0 * (q - 0.5)
                ok = ok and gap > 0 and abs(gap - expected) <= 1e-9 * max(1.0, scale)
    report("3 (post-loss Q(neutral) - Q(long) = 2*scale*10*(q - 1/2) > 0)", ok)


def test_criterion_4_long_short_symmetry():
    rng = random.Random(20240817)
    ok = True
    for _ in range(20):
        q = rng.uniform(0.05, 0.95)
        T = rng.randint(1, 6)
        b, bm = Static(q), Static(1.0 - q)
        t1 = solve_q(DecisionProblem(horizon=T, ticks=TICKS, initial_belief=b))
        t2 = solve_q(DecisionProblem(horizon=T, ticks=TICKS, initial_belief=bm))
        for t in range(T):
            ok = ok and abs(t1.q(t, b, LONG) - t2.q(t, bm, SHORT)) <= 1e-12
            ok = ok and abs(t1.q(t, b, SHORT) - t2.q(t, bm, LONG)) <= 1e-12
            ok = ok and abs(t1.q(t, b, NEUTRAL) - t2.q(t, bm, NEUTRAL)) <= 1e-12
    report("4 (q -> 1-q swaps long/short within 1e-12, 20 random cases)", ok)


def test_criterion_5_mc_consistency():
    start = time.perf_counter()
    prob = DecisionProblem(horizon=10, ticks=TICKS, initial_belief=Static(0.6))
    policy = make_policy("buyhold", prob)
    model = MarketModel(u=10.0, d=-10.0, p_up=0.4, initial_wealth=1000.0)
    cfg = SimConfig(prob, n_paths=200_000, master_seed=42)
    result = run(policy, model, cfg)
    elapsed = time.perf_counter() - start
    # population mean 980, 3 standard errors = 3 * 9.8 * sqrt(10) / sqrt(N)
    half_width = 3 * 9.8 * math.sqrt(10) / math.sqrt(200_000)
    dev = abs(result.stats.mean_terminal - 980.0)
    report(
        f"5 (always-long mean terminal {result.stats.mean_terminal:.3f} in 980 +- {half_width:.2f}, {elapsed:.1f}s)",
        dev <= half_width and elapsed < 30.0,
    )


def test_criterion_6_cutloss_beats_avgdown():
    prob = DecisionProblem(horizon=20, ticks=TICKS, initial_belief=Static(0.6))
    model = MarketModel(u=10.0, d=-10.0, p_up=0.45, initial_wealth=1000.0)
    cfg = SimConfig(prob, n_paths=100_000, master_seed=99)
    table = compare(
        [make_policy("cutloss", prob), make_policy("avgdown", prob)],
        model,
        cfg,
    )
    diff = table.pairwise[0]
    report(
        f"6 (cutloss - avgdown mean diff {diff.mean_diff:.2f}, 99% CI [{diff.ci_low:.2f}, {diff.ci_high:.2f}])",
        diff.mean_diff > 0 and diff.ci_low > 0,
    )


def test_criterion_7_policy_equivalence_on_sampled_paths():
    belief0 = Mirror(0.6, Move.UP)
    prob = DecisionProblem(horizon=12, ticks=TICKS, initial_belief=belief0, action_set=(LONG, NEUTRAL))
    model = MarketModel(u=10.0, d=-10.0, p_up=0.5, initial_wealth=1000.0)
    cfg = SimConfig(prob, n_paths=1000, master_seed=7)
    played = []  # each path's actions, bellman's 1000 paths and then cutloss's
    compare(
        [make_policy("bellman", prob), make_policy("cutloss", prob)],
        model,
        cfg,
        lambda i, path: played.append(path.actions),
    )
    identical = len(played) == 2000 and played[:1000] == played[1000:]
    report("7 (solved-table policy equals cut-loss on 1000 sampled paths)", identical)


def test_criterion_8_price_process():
    identity = DividendSpec(
        per_step_dividend=lambda t, level: 0.0,
        terminal_payoff=lambda level: level,
        initial_level=100.0,
    )
    ok = all(
        price_process(MarketModel(u=1.0, d=-1.0, p_up=0.5), identity, T) == 100.0
        for T in range(13)
    )
    biased = price_process(MarketModel(u=1.0, d=-1.0, p_up=0.6), identity, 1)
    ok = ok and abs(biased - 100.2) <= 1e-12
    coupon = DividendSpec(
        per_step_dividend=lambda t, level: 0.01 * level,
        terminal_payoff=lambda level: level,
        initial_level=100.0,
    )
    m = MarketModel(u=2.0, d=-1.0, p_up=0.55)
    for T, enumerated in enumerate(expected_dividend_by_enumeration(m, coupon, 12)):
        induced = price_process(m, coupon, T)
        ok = ok and abs(induced - enumerated) <= 1e-9
    report("8 (valuation: martingale exact, biased 100.2, induction = enumeration T <= 12)", ok)


def test_criterion_9_byte_identical_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "market.p = 0.45\nproblem.horizon = 10\nbelief.q0 = 0.6\nsim.paths = 500\nsim.seed = 31337\n"
    )
    files = {}
    for tag in ("a", "b"):
        sim_out = tmp_path / f"sim_{tag}.csv"
        cmp_out = tmp_path / f"cmp_{tag}.csv"
        assert main(["simulate", "--config", str(cfg_path), "--policy", "cutloss", "--out", str(sim_out)]) == 0
        assert (
            main(
                [
                    "compare",
                    "--config",
                    str(cfg_path),
                    "--policies",
                    "cutloss,avgdown,buyhold",
                    "--out",
                    str(cmp_out),
                ]
            )
            == 0
        )
        files[tag] = (sim_out.read_bytes(), cmp_out.read_bytes())
    capsys.readouterr()
    report("9 (simulate and compare outputs byte-identical across invocations)", files["a"] == files["b"])
