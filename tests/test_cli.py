import contextlib
import csv
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from otl import cli, verify as verify_mod
from otl.actions import Action, Move
from otl.beliefs import BetaBernoulli, Mirror, Static, belief_id
from otl.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY_FAIL, build_parser, main
from otl.config import RunConfig, dump_config, load_config, parse_config
from otl.errors import ConfigurationError
from otl.market import derive_path_seed, sample_moves
from otl.mdp import DecisionProblem, solve_q
from otl.policies import POLICY_KINDS, make_policy
from otl.sim import replay
from closure import solve_over_closure
from test_beliefs import BetaSubclass

BASE_CONFIG = """\
# desk defaults
market.u = 10
market.d = -10
market.p = 0.45
market.initial_wealth = 1000
problem.horizon = 6
problem.actions = neutral,long,short
belief.kind = static
belief.q0 = 0.6
sim.paths = 200
sim.seed = 12345
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


@pytest.fixture
def one_step_config(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("problem.horizon = 1\nbelief.q0 = 0.6\n")
    return str(path)


class TestConfigParsing:
    def test_defaults_applied(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# only a comment\n\nmarket.p = 0.3  # inline\n")
        assert cfg.market_p == 0.3

    # Q is undiscounted, so problem.discount is no key
    @pytest.mark.parametrize("line", ["market.volatility = 3", "problem.discount = 0.9"])
    def test_unknown_key_carries_line_number(self, line):
        key = line.partition(" = ")[0]
        with pytest.raises(ConfigurationError, match=f"^line 2: unknown key '{key}'$"):
            parse_config(f"market.u = 10\n{line}\n")

    def test_bad_value_carries_line_number(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("sim.paths = many\n")

    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_sim_paths_below_one_carries_line_number(self, paths, tmp_path, capsys):
        text = f"market.u = 10\nsim.paths = {paths}\n"
        message = f"line 2: sim.paths must be >= 1, got {paths}"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            parse_config(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--config", str(path), "--policy", "cutloss", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "market.d = 5\n",
                "line 1: market.d: MarketModel must satisfy u > 0 > d, got (10.0, 5.0)",
            ),
            (
                "market.u = 10\nmarket.d = 5\n",
                "line 2: market.d: MarketModel must satisfy u > 0 > d, got (10.0, 5.0)",
            ),
            (
                "belief.kind = beta\nbelief.alpha = -1\n",
                "line 2: belief.alpha: BetaBernoulli alpha must be > 0, got -1.0",
            ),
            (
                "belief.kind = gaussian\n",
                "line 1: belief.kind: belief.kind must be one of ('static', 'mirror', 'beta'),"
                " got 'gaussian'",
            ),
            # no single key at its default clears the error: no key or line is named
            ("market.u = -1\nmarket.d = 5\n", "MarketModel must satisfy u > 0 > d, got (-1.0, 5.0)"),
        ],
    )
    def test_rejected_value_names_its_key_and_line(self, text, message, tmp_path, capsys):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_simulation_settings_name_their_key_and_line(self, tmp_path, capsys):
        # solve reads no simulation setting, so a zero horizon is accepted there
        text = "market.u = 10\nproblem.horizon = 0\n"
        message = "line 2: problem.horizon: horizon must be >= 1, got 0"
        assert parse_config(text).problem_horizon == 0
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(text, simulate=True)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out.csv"
        for argv in (
            ["simulate", "--config", str(path), "--policy", "cutloss", "--out", str(out)],
            ["compare", "--config", str(path), "--policies", "cutloss", "--out", str(out)],
        ):
            capsys.readouterr()
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_path_step_bound_is_blamed_on_no_key(self):
        # the horizon at its default would trip the path-step bound; that is
        # no fix, so no key is named, and the bound's error stays in the loop
        text = "problem.horizon = 0\nsim.paths = 1000001\n"
        with pytest.raises(ConfigurationError, match="^horizon must be >= 1, got 0$"):
            parse_config(text, simulate=True)

    def test_unused_value_is_not_checked(self):
        # the static belief reads q0, the beta belief set after it does not
        cfg = parse_config("belief.q0 = 5\nbelief.kind = beta\n")
        assert (cfg.belief_q0, cfg.belief_kind) == (5.0, "beta")

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("market.u 10\n")

    def test_round_trip(self):
        cfg = parse_config(BASE_CONFIG)
        assert parse_config(dump_config(cfg)) == cfg

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_action_list_parsed(self):
        cfg = parse_config("problem.actions = long,neutral\n")
        assert [a.direction for a in cfg.actions()] == ["long", "neutral"]

    def test_repeated_key_carries_both_line_numbers(self):
        text = "problem.horizon = 3\nmarket.u = 10\nproblem.horizon = 4\n"
        message = "line 3: key 'problem.horizon' already set on line 1"
        with pytest.raises(ConfigurationError, match=message):
            parse_config(text)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["verify", "--suite", "example21"])
        assert args.command == "verify"
        assert args.suite == "example21"
        args = parser.parse_args(["simulate", "--config", "c", "--policy", "cutloss", "--out", "o"])
        assert args.command == "simulate"


class TestSolveCommand:
    def test_prints_table_and_policy(self, one_step_config, capsys):
        assert main(["solve", "--config", one_step_config]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=0, belief=static(0.6), long, 2.0" in out
        assert "t=0, belief=static(0.6) -> long" in out

    def test_qtable_csv_schema(self, one_step_config, tmp_path, capsys):
        out_csv = str(tmp_path / "q.csv")
        assert main(["solve", "--config", one_step_config, "--out", out_csv]) == EXIT_OK
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"t", "belief_id", "action", "q_value", "is_optimal"}
        long_row = next(r for r in rows if r["t"] == "0" and r["action"] == "long")
        assert float(long_row["q_value"]) == 2.0
        assert long_row["is_optimal"] == "1"

    def test_dump_config_round_trips(self, config_file, tmp_path, capsys):
        assert main(["solve", "--config", config_file, "--dump-config"]) == EXIT_OK
        dumped = capsys.readouterr().out
        assert parse_config(dumped) == load_config(config_file)

    def test_dump_config_pins_the_keys(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert main(["solve", "--config", str(path), "--dump-config"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "market.u = 10.0",
            "market.d = -10.0",
            "market.p = 0.5",
            "market.initial_wealth = 1000.0",
            "problem.horizon = 5",
            "problem.actions = neutral,long,short",
            "belief.kind = static",
            "belief.q0 = 0.6",
            "belief.confidence = 0.6",
            "belief.alpha = 1.0",
            "belief.beta = 1.0",
            "sim.paths = 1000",
            "sim.seed = 0",
        ]
        # the fuzz below draws every key
        keys = {line.partition(" = ")[0] for line in lines}
        assert {*_VALID, "problem.horizon", "sim.paths"} == keys

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense.key = 1\n")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize(
        "data,line,byte",
        [
            (b"market.u = 12\n# caf\xe9\n", 2, "0xe9"),  # Latin-1, even in a comment
            (b"\xef\xbb\xbfproblem.horizon = 3\r\n\r\nbelief.q0 = 0.\xff\n", 3, "0xff"),
            (b"\xe9", 1, "0xe9"),
        ],
    )
    def test_config_not_utf8_exits_2(self, tmp_path, capsys, command, data, line, byte):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(data)
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "simulate":
            argv += ["--policy", "cutloss"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: cannot read config {path}: line {line}: byte {byte} is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("horizon, code", [(2, EXIT_OK), (3, EXIT_CONFIG), (None, EXIT_CONFIG)])
    def test_beta_counts_that_reach_2_53_exit_2(self, tmp_path, capsys, horizon, code):
        # alpha reaches 2**53 at t=2, so a third +1 is lost; None keeps the
        # default horizon, 5
        text = "belief.kind = beta\nbelief.alpha = 9007199254740990\n"
        path = tmp_path / "beta.cfg"
        path.write_text(text if horizon is None else text + f"problem.horizon = {horizon}\n")
        assert main(["solve", "--config", str(path)]) == code
        if code == EXIT_CONFIG:
            assert capsys.readouterr().err == (
                "error: BetaBernoulli counts must stay below 2**53 over horizon"
                f" {horizon or 5}, got (9007199254740990.0, 1.0)\n"
            )

    def test_config_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfmarket.u = 12\nproblem.horizon = 2\n")
        assert load_config(str(path)) == RunConfig(market_u=12.0, problem_horizon=2)
        assert main(["solve", "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "text,message",
        [
            ("market.u = inf\n", "MarketModel u must be finite"),
            ("belief.kind = beta\nbelief.alpha = inf\n", "BetaBernoulli alpha must be finite"),
            (
                "belief.kind = beta\nbelief.alpha = 1e308\nbelief.beta = 1e308\nproblem.horizon = 1\n",
                "BetaBernoulli counts must have a finite sum",
            ),
        ],
    )
    def test_non_finite_config_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "inf.cfg"
        path.write_text(text)
        out_csv = tmp_path / "q.csv"
        code = main(["solve", "--config", str(path), "--out", str(out_csv)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "problem",
        [
            # 300 one-row layers: blocks of 128, 128 and 44 states
            DecisionProblem(300, (10.0, -10.0), Static(0.6)),
            # two-row layers; each id holds a comma, so its CSV cell is quoted
            DecisionProblem(70, (10.0, -10.0), Mirror(0.6)),
            # 210 states, a block of 136 and one of 74
            DecisionProblem(20, (10.0, -10.0), BetaBernoulli(1.0, 1.0)),
            # layers narrower and wider than a block
            DecisionProblem(200, (10.0, -10.0), BetaBernoulli(1.0, 1.0)),
            # int counts: stored as floats, the closed form
            DecisionProblem(30, (10.0, -10.0), BetaBernoulli(3, 2)),
            # a subclass, solved over the tests' forward closure
            DecisionProblem(30, (10.0, -10.0), BetaSubclass(3, 2)),
            # sized actions on uneven ticks: the argmax is not always column 0
            DecisionProblem(
                40, (1.5, -0.5), BetaBernoulli(1.0, 1.0), tuple(map(Action, (0, 1, -1, 2, -3)))
            ),
        ],
        ids=lambda p: f"{p.initial_belief}-T{p.horizon}-{len(p.action_set)}actions",
    )
    def test_export_matches_table_queries(self, tmp_path, capsys, monkeypatch, problem):
        # every stdout line and the whole CSV, built from the table's queries by
        # f-strings and csv.writer: per t, beliefs in belief_id order
        solve_over_closure(monkeypatch, problem.initial_belief)
        table = solve_q(problem)
        monkeypatch.setattr(cli, "solve_q", lambda _: table)
        path = tmp_path / "any.cfg"
        path.write_text("problem.horizon = 1\n")
        out_csv = tmp_path / "q.csv"
        assert main(["solve", "--config", str(path), "--out", str(out_csv)]) == EXIT_OK
        lines = []
        rows = io.StringIO(newline="")
        writer = csv.writer(rows)
        writer.writerow(["t", "belief_id", "action", "q_value", "is_optimal"])
        for t in range(problem.horizon):
            for b in sorted(table.lattice.beliefs(t), key=belief_id):
                best = table.optimal_action(t, b)
                for a in problem.action_set:
                    q = repr(table.q(t, b, a))
                    lines.append(f"t={t}, belief={belief_id(b)}, {a}, {q}\n")
                    writer.writerow([t, belief_id(b), a, q, int(a == best)])
                lines.append(f"t={t}, belief={belief_id(b)} -> {best}\n")
        assert capsys.readouterr().out == "".join(lines)
        assert out_csv.read_bytes() == rows.getvalue().encode()
        n_states = table.lattice.start[problem.horizon]
        assert len(lines) == n_states * (len(problem.action_set) + 1)
        if len(problem.action_set) == 5:
            assert len(set(table.best.tolist())) > 1


# ticks of either sign's size, whole and fractional
_TICKS = st.one_of(st.integers(1, 20).map(float), st.floats(0.01, 20.0))


def _check_path_csv(tmp, u, d, wealth, p, q0, horizon, paths, seed):
    """Run `otl simulate` for each policy and compare its path CSV with csv.writer rows
    built from replaying each sampled path."""
    text = (
        f"market.u = {u!r}\nmarket.d = {d!r}\nmarket.p = {p!r}\n"
        f"market.initial_wealth = {wealth!r}\nproblem.horizon = {horizon}\n"
        f"belief.q0 = {q0!r}\nsim.paths = {paths}\nsim.seed = {seed}\n"
    )
    config = os.path.join(tmp, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    cfg = parse_config(text)
    model, problem = cfg.market(), cfg.problem()
    for kind in POLICY_KINDS:
        out = os.path.join(tmp, f"{kind}.csv")
        argv = ["simulate", "--config", config, "--policy", kind, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(cli.PATH_CSV_COLUMNS)
        policy = make_policy(kind, problem)
        for i in range(paths):
            moves = sample_moves(p, horizon, derive_path_seed(seed, i))
            path = replay(policy, model, moves)
            for t, (move, action, wealth_t) in enumerate(zip(moves, path.actions, path.wealths)):
                tick = u if move is Move.UP else d
                writer.writerow(
                    (i, t, move.value, action.direction, action.size,
                     repr(action.stake * tick), repr(wealth_t))
                )
        with open(out, newline="", encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue(), kind


class TestSimulateCommand:
    def test_writes_path_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        stats = tmp_path / "stats.csv"
        code = main(
            [
                "simulate",
                "--config",
                config_file,
                "--policy",
                "cutloss",
                "--out",
                str(out),
                "--stats-out",
                str(stats),
            ]
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"path_id", "t", "move", "action", "size", "reward", "wealth"}
        assert len(rows) == 200 * 6
        with open(stats) as fh:
            srows = list(csv.DictReader(fh))
        assert srows[0]["policy"] == "cutloss"
        assert "mean_terminal" in srows[0]

    def test_numeric_fields_round_trip(self, config_file, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        main(["simulate", "--config", config_file, "--policy", "avgdown", "--out", str(out)])
        with open(out) as fh:
            for row in csv.DictReader(fh):
                assert repr(float(row["wealth"])) == row["wealth"]
                assert repr(float(row["reward"])) == row["reward"]

    def test_byte_identical_across_runs(self, config_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", config_file, "--policy", "bellman", "--out", str(a)])
        main(["simulate", "--config", config_file, "--policy", "bellman", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_policy_exits_2(self, config_file, tmp_path, capsys):
        code = main(
            ["simulate", "--config", config_file, "--policy", "yolo", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_CONFIG

    def test_hand_worked_path_csv(self, tmp_path, capsys):
        # seed 1 draws down, down, up for path 0 and up, up, down for path 1;
        # cutloss is flat after a down move, and a flat step earns 0 * tick:
        # -0.0 on a down move, 0.0 on an up move
        path = tmp_path / "run.cfg"
        path.write_text(
            "market.u = 10\nmarket.d = -10\nmarket.p = 0.5\nmarket.initial_wealth = 1000\n"
            "problem.horizon = 3\nsim.paths = 2\nsim.seed = 1\n"
        )
        down, up = Move.DOWN, Move.UP
        assert sample_moves(0.5, 3, derive_path_seed(1, 0)) == [down, down, up]
        assert sample_moves(0.5, 3, derive_path_seed(1, 1)) == [up, up, down]
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--config", str(path), "--policy", "cutloss", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (
            b"path_id,t,move,action,size,reward,wealth\r\n"
            b"0,0,down,long,1,-10.0,990.0\r\n"
            b"0,1,down,neutral,1,-0.0,990.0\r\n"
            b"0,2,up,neutral,1,0.0,990.0\r\n"
            b"1,0,up,long,1,10.0,1010.0\r\n"
            b"1,1,up,long,1,10.0,1020.0\r\n"
            b"1,2,down,long,1,-10.0,1010.0\r\n"
        )

    def test_hand_worked_negative_zero_wealth(self, tmp_path, capsys):
        # 0.0 == -0.0, so a cache keyed by wealth must not hold either: from -0.0 a
        # flat down step stays at -0.0 (-0.0 + -0.0) and a flat up step goes to 0.0
        path = tmp_path / "run.cfg"
        path.write_text(
            "market.u = 10\nmarket.d = -10\nmarket.p = 0.5\nmarket.initial_wealth = -0.0\n"
            "problem.horizon = 3\nbelief.kind = static\nbelief.q0 = 0.5\n"
            "sim.paths = 2\nsim.seed = 1\n"
        )
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--config", str(path), "--policy", "bellman", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (
            b"path_id,t,move,action,size,reward,wealth\r\n"
            b"0,0,down,neutral,1,-0.0,-0.0\r\n"
            b"0,1,down,neutral,1,-0.0,-0.0\r\n"
            b"0,2,up,neutral,1,0.0,0.0\r\n"
            b"1,0,up,neutral,1,0.0,0.0\r\n"
            b"1,1,up,neutral,1,0.0,0.0\r\n"
            b"1,2,down,neutral,1,-0.0,0.0\r\n"
        )

    @settings(max_examples=50, deadline=None)
    @example(u=10.0, d=None, wealth=-0.0, p=0.5, q0=0.5, horizon=3, paths=2, seed=1)
    @given(
        u=_TICKS,
        d=st.one_of(st.none(), _TICKS.map(float.__neg__)),
        wealth=st.one_of(st.sampled_from([0.0, -0.0, 1000.0]), st.floats(-50.0, 50.0)),
        p=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        q0=st.sampled_from([0.3, 0.5, 0.6]),
        horizon=st.integers(1, 8),
        paths=st.integers(1, 6),
        seed=st.integers(0, 2**32),
    )
    def test_path_csv_matches_an_independent_formatter(
        self, u, d, wealth, p, q0, horizon, paths, seed
    ):
        # d None is -u: at q0 = 0.5 bellman's every action earns 0 in expectation and it
        # stays flat, so a zero wealth repeats
        with tempfile.TemporaryDirectory() as tmp:
            _check_path_csv(tmp, u, -u if d is None else d, wealth, p, q0, horizon, paths, seed)

    def test_action_cells_are_its_printed_form(self):
        # the path CSV's action and size cells, and str(action): the side, then xK for a
        # size K > 1; neutral has size 1
        expected = {0: ("neutral", "neutral", 1)}
        for k in range(1, 65):
            suffix = f"x{k}" if k > 1 else ""
            expected[k] = (f"long{suffix}", "long", k)
            expected[-k] = (f"short{suffix}", "short", k)
        assert sorted(expected) == list(range(-64, 65))
        for stake, cells in expected.items():
            action = Action(stake)
            assert (str(action), action.direction, action.size) == cells, stake
        assert str(Action(-3)) == "shortx3"

    def test_path_csv_past_the_wealth_cache_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "WEALTH_CELLS_CAP", 2)
        _check_path_csv(str(tmp_path), 1.1, -0.7, 1000.3, 0.5, 0.6, 8, 20, 3)

    def test_wealth_cache_stops_at_its_cap(self, tmp_path, monkeypatch, capsys):
        # 2,000 avgdown paths at fractional ticks reach ~2,000 distinct wealths, ~0.24 MiB
        # of cached cells; past a cap of 2 the writer caches no more, and writes the same
        path = tmp_path / "run.cfg"
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--config", str(path), "--policy", "avgdown", "--out", str(out)]
        text = "market.u = 1.1\nmarket.d = -0.7\nmarket.initial_wealth = 1000.3\n"
        text += "problem.horizon = 20\n"
        path.write_text(text + "sim.paths = 3\n")
        assert main(argv) == EXIT_OK  # warm up lazy imports and caches
        path.write_text(text + "sim.paths = 2000\n")
        peaks, outputs = [], []
        for cap in [cli.WEALTH_CELLS_CAP, 2]:
            monkeypatch.setattr(cli, "WEALTH_CELLS_CAP", cap)
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert peaks[1] < peaks[0] - (100 << 10)

    @pytest.mark.parametrize("policy", POLICY_KINDS)
    def test_path_csv_streams_in_bounded_memory(self, policy, tmp_path, capsys):
        # 40,000 steps held as records took ~5 MiB (~133 B each); streamed,
        # the run holds one path's steps and 17 B per path
        path = tmp_path / "run.cfg"
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--config", str(path), "--policy", policy, "--out", str(out)]
        path.write_text("problem.horizon = 20\nsim.paths = 3\n")
        assert main(argv) == EXIT_OK  # warm up lazy imports and caches
        path.write_text("problem.horizon = 20\nsim.paths = 2000\n")
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_bytes().splitlines()) == 1 + 2000 * 20
        assert peak < 1 << 20


class TestCompareCommand:
    def test_stats_csv_one_row_per_policy(self, config_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--config",
                config_file,
                "--policies",
                "cutloss,avgdown,buyhold",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["policy"] for r in rows] == ["cutloss", "avgdown", "buyhold"]
        printed = capsys.readouterr().out
        assert "99% CI" in printed

    def test_empty_policy_list_exits_2(self, config_file, tmp_path, capsys):
        code = main(["compare", "--config", config_file, "--policies", ",", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("names", ["cutloss,cutloss,Cutloss", "bellman,cutloss, BELLMAN"])
    def test_repeated_policy_exits_2(self, names, config_file, tmp_path, capsys):
        # each repeat would keep another full set of step records
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", config_file, "--policies", names, "--out", str(out)])
        assert code == EXIT_CONFIG
        repeated = names.split(",")[0]
        assert f"--policies names {repeated} more than once" in capsys.readouterr().err
        assert not out.exists()


class TestOneSimulationPath:
    """`simulate` is a one-policy `compare` that also writes the path CSV."""

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_simulate_is_a_one_policy_compare(self, kind, config_file, tmp_path, capsys):
        sim_stats, cmp_stats = tmp_path / "sim.csv", tmp_path / "cmp.csv"
        argv = ["simulate", "--config", config_file, "--policy", kind,
                "--out", str(tmp_path / "paths.csv"), "--stats-out", str(sim_stats)]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        argv = ["compare", "--config", config_file, "--policies", kind, "--out", str(cmp_stats)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == printed
        assert cmp_stats.read_bytes() == sim_stats.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["simulate", "--policy", "yolo"], ["compare", "--policies", "cutloss,yolo"]]
    )
    def test_unknown_kind_leaves_existing_output_untouched(
        self, argv, config_file, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept,as\r\nit,was\r\n")
        assert main([*argv, "--config", config_file, "--out", str(out)]) == EXIT_CONFIG
        assert "unknown policy name: 'yolo'" in capsys.readouterr().err
        assert out.read_bytes() == b"kept,as\r\nit,was\r\n"

    def test_empty_policy_name_is_an_unknown_name(self, config_file, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--config", config_file, "--policy", "", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown policy name: ''" in err
        assert "--policies" not in err
        assert not out.exists()


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "example21"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suite: example21" in out
        assert "verify: PASS" in out

    def test_all_suites_with_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["verify", "--json", str(report_path)]) == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["overall"] is True
        assert {r["suite"] for r in doc["reports"]} == {"bellman", "example21", "averaging", "price"}
        for rep in doc["reports"]:
            assert set(rep) == {"suite", "cases", "overall"}

    def test_failed_check_exits_1_and_keeps_the_report(self, tmp_path, capsys, monkeypatch):
        def failing():
            report = verify_mod.Report(suite="price")
            report.add("a case that does not hold", False)
            return report

        monkeypatch.setitem(verify_mod.SUITES, "price", failing)
        report_path = tmp_path / "report.json"
        argv = ["verify", "--suite", "price", "--json", str(report_path)]
        assert main(argv) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().out.endswith("verify: FAIL\n")
        # a failed check is a result, not an error: the report stays
        assert json.loads(report_path.read_text())["overall"] is False


def _expand(argv, config_file, tmp_path):
    """argv with {config} the config file and each other {name} a path under
    tmp_path, and the names of those outputs."""
    outputs = [a[1:-1] for a in argv if a.startswith("{") and a != "{config}"]
    argv = [a.replace("{config}", config_file) for a in argv]
    return [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv], outputs


class TestUnwritableOutputs:
    """An output that cannot be written is a configuration error (exit 2),
    found before any work is done, and a failed run leaves no output file."""

    def _fails_before_work(self, argv, capsys, *absent):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert "nodir" in captured.err
        assert captured.out == ""
        for path in absent:
            assert not path.exists()

    def test_solve(self, config_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "q.csv"
        self._fails_before_work(["solve", "--config", config_file, "--out", str(out)], capsys)

    def test_simulate(self, config_file, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        stats = tmp_path / "nodir" / "stats.csv"
        argv = ["simulate", "--config", config_file, "--policy", "cutloss",
                "--out", str(out), "--stats-out", str(stats)]
        self._fails_before_work(argv, capsys, out)

    def test_compare(self, config_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "cmp.csv"
        argv = ["compare", "--config", config_file, "--policies", "cutloss", "--out", str(out)]
        self._fails_before_work(argv, capsys)

    def test_verify(self, tmp_path, capsys):
        report = tmp_path / "nodir" / "report.json"
        self._fails_before_work(["verify", "--suite", "price", "--json", str(report)], capsys)

    def test_failure_after_opening_removes_outputs(self, tmp_path, capsys):
        path = tmp_path / "long_only.cfg"
        path.write_text("problem.actions = long,short\n")
        out, stats = tmp_path / "paths.csv", tmp_path / "stats.csv"
        argv = ["simulate", "--config", str(path), "--policy", "cutloss",
                "--out", str(out), "--stats-out", str(stats)]
        assert main(argv) == EXIT_CONFIG
        assert "unit neutral action" in capsys.readouterr().err
        assert not out.exists() and not stats.exists()

    @pytest.mark.parametrize("fails_in", ["write", "close"])
    @pytest.mark.parametrize(
        "argv, target, n_paths",
        [
            (["simulate", "--config", "{config}", "--policy", "cutloss",
              "--out", "{paths.csv}", "--stats-out", "{stats.csv}"], "paths.csv", None),
            (["simulate", "--config", "{config}", "--policy", "cutloss",
              "--out", "{paths.csv}", "--stats-out", "{stats.csv}"], "stats.csv", None),
            (["compare", "--config", "{config}", "--policies", "cutloss,buyhold",
              "--out", "{stats.csv}"], "stats.csv", None),
            (["solve", "--config", "{config}", "--out", "{q.csv}"], "q.csv", None),
            (["verify", "--suite", "price", "--json", "{report.json}"], "report.json", None),
            # 1,000 paths of 6 steps, a path CSV of ~0.2 MB: several chunks of
            # cli.OUTPUT_CHUNK characters, of which the second fails to write
            (["simulate", "--config", "{config}", "--policy", "cutloss",
              "--out", "{paths.csv}", "--stats-out", "{stats.csv}"], "paths.csv", 1000),
        ],
        ids=["simulate-paths", "simulate-stats", "compare", "solve", "verify",
             "simulate-paths-chunks"],
    )
    def test_failed_write_or_close_exits_2(
        self, config_file, tmp_path, capsys, monkeypatch, argv, target, n_paths, fails_in
    ):
        # a full disk (/dev/full) fails a write, or the flush in close
        writes = []  # the length of each text written to the target
        fails_at = 1 if n_paths is None else 2  # and every write from then on fails

        class FullDisk:
            def __init__(self, fh):
                self._fh = fh

            def write(self, text):
                writes.append(len(text))
                if fails_in == "write" and len(writes) >= fails_at:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self._fh.write(text)

            def close(self):
                self._fh.close()
                if fails_in == "close":
                    raise OSError(errno.ENOSPC, "No space left on device")

        def opener(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return FullDisk(fh) if os.path.basename(path) == target else fh

        if n_paths is not None:
            with open(config_file, "w") as fh:
                fh.write(BASE_CONFIG.replace("sim.paths = 200", f"sim.paths = {n_paths}"))
        monkeypatch.setattr(cli, "open", opener, raising=False)
        argv, outputs = _expand(argv, config_file, tmp_path)
        # every file is closed, the one that failed too: none is left to the collector
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(argv) == EXIT_CONFIG
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        err = capsys.readouterr().err
        assert f"error: cannot write {tmp_path / target}: " in err
        assert "No space left on device" in err
        for name in outputs:
            assert not (tmp_path / name).exists()
        if n_paths is not None:
            if fails_in == "write":
                assert len(writes) == 2  # the failed write is the last one tried
            else:
                assert len(writes) >= 3  # every chunk is written, then the close fails
            assert writes[0] >= cli.OUTPUT_CHUNK

    def test_close_closes_the_file_when_the_last_write_fails(self, tmp_path, monkeypatch):
        calls = []

        class FullDisk:
            def write(self, text):
                calls.append("write")
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                calls.append("close")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        out = cli._Output(str(tmp_path / "paths.csv"))
        out.write("path_id\r\n")  # held until close, under one chunk
        assert calls == []
        with pytest.raises(ConfigurationError, match="No space left on device"):
            out.close()
        assert calls == ["write", "close"]
        out.close()  # a second close, as a failed run makes, tries no write again
        assert calls == ["write", "close", "close"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--config", "{config}", "--out", "{q.csv}"],
            ["solve", "--config", "{config}", "--dump-config"],
            ["simulate", "--config", "{config}", "--policy", "cutloss",
             "--out", "{paths.csv}", "--stats-out", "{stats.csv}"],
            ["compare", "--config", "{config}", "--policies", "cutloss,buyhold",
             "--out", "{stats.csv}"],
            ["verify", "--suite", "price", "--json", "{report.json}"],
            ["--help"],
            ["simulate", "--help"],
        ],
        ids=["solve", "dump-config", "simulate", "compare", "verify", "help", "simulate-help"],
    )
    def test_full_standard_output_exits_2(self, config_file, tmp_path, argv):
        # a process of its own, so the interpreter's flush of stdout at exit runs
        # too, with stdout buffered: unbuffered, a failed write keeps nothing to flush
        argv, outputs = _expand(argv, config_file, tmp_path)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "otl.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == EXIT_CONFIG
        no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert proc.stderr == f"error: cannot write standard output: {no_space}\n"
        for name in outputs:
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "price", "--json", "{report.json}"], ["--help"]],
        ids=["verify", "help"],
    )
    def test_closed_standard_output_exits_2(self, config_file, tmp_path, argv):
        # with file descriptor 1 closed, Python starts with sys.stdout None
        argv, outputs = _expand(argv, config_file, tmp_path)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "otl.cli", *argv],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == "error: cannot write standard output: it is closed\n"
        for name in outputs:
            assert not (tmp_path / name).exists()

    def test_same_path_twice_rejected(self, config_file, tmp_path, capsys):
        out = tmp_path / "both.csv"
        argv = ["simulate", "--config", config_file, "--policy", "cutloss",
                "--out", str(out), "--stats-out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "output paths must differ" in capsys.readouterr().err
        assert not out.exists()


class TestConfigIsNoOutput:
    """An output path naming the config file read is a configuration error
    (exit 2), found before any output is opened: the config is left as it was."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--config", "{config}", "--out", "{same}"],
            ["simulate", "--config", "{config}", "--policy", "cutloss", "--out", "{same}"],
            ["simulate", "--config", "{config}", "--policy", "cutloss",
             "--out", "{out}", "--stats-out", "{same}"],
            ["compare", "--config", "{config}", "--policies", "cutloss", "--out", "{same}"],
        ],
        ids=["solve", "simulate-out", "simulate-stats-out", "compare"],
    )
    def test_config_left_unchanged(self, config_file, tmp_path, capsys, argv):
        # the same file under another spelling of its path
        same = os.path.join(str(tmp_path), ".", os.path.basename(config_file))
        out = tmp_path / "out.csv"
        argv = [a.format(config=config_file, same=same, out=out) for a in argv]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        named = [a for a in argv if a in (str(out), same)]
        message = f"output paths must differ from the config {config_file}, got {named}"
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        with open(config_file, encoding="utf-8") as fh:
            assert fh.read() == BASE_CONFIG
        assert not out.exists()

    def test_hard_link_of_config_rejected(self, config_file, tmp_path, capsys):
        link = tmp_path / "link.cfg"
        os.link(config_file, link)
        argv = ["compare", "--config", config_file, "--policies", "cutloss", "--out", str(link)]
        assert main(argv) == EXIT_CONFIG
        message = f"output paths must differ from the config {config_file}, got {[str(link)]}"
        assert capsys.readouterr().err == f"error: {message}\n"
        with open(config_file, encoding="utf-8") as fh:
            assert fh.read() == BASE_CONFIG

    def test_hard_linked_outputs_rejected(self, config_file, tmp_path, capsys):
        out, link = tmp_path / "out.csv", tmp_path / "link.csv"
        out.write_text("kept\n")
        os.link(out, link)
        argv = ["simulate", "--config", config_file, "--policy", "cutloss",
                "--out", str(out), "--stats-out", str(link)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: output paths must differ, got {[str(out), str(link)]}\n"
        )
        assert out.read_text() == "kept\n"


class TestPathStepBound:
    """sim.paths x horizon past MAX_PATH_STEPS is a resource limit (exit 3),
    found before any output is opened, so no file is left."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{config}", "--policy", "cutloss",
             "--out", "{out}", "--stats-out", "{stats}"],
            ["compare", "--config", "{config}", "--policies", "cutloss,buyhold", "--out", "{out}"],
        ],
    )
    def test_exits_3_before_opening_outputs(self, tmp_path, capsys, argv):
        path = tmp_path / "big.cfg"
        path.write_text("problem.horizon = 20\nsim.paths = 250001\n")
        out, stats = tmp_path / "out.csv", tmp_path / "stats.csv"
        argv = [a.format(config=path, out=out, stats=stats) for a in argv]
        assert main(argv) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert "250001 x 20 exceeds bound 5000000" in captured.err
        assert captured.out == ""
        assert not out.exists() and not stats.exists()


class TestStageStateBound:
    def test_oversized_lattice_exits_3(self, tmp_path, capsys):
        # Beta(1,1) at T=1414 has 1,001,820 stage states, past MAX_STAGE_STATES
        path = tmp_path / "big.cfg"
        path.write_text("problem.horizon = 1414\nbelief.kind = beta\n")
        out = tmp_path / "q.csv"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert "belief lattice exceeds 1000000 stage states at horizon 1414" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestNonFiniteStatistics:
    """Ticks so large that wealth, its spread or a paired difference
    overflows float64 are a configuration error (exit 2) naming the policy,
    and no output file is left behind."""

    OVERFLOW = "market.u = 1e307\nmarket.d = -1e307\nproblem.horizon = 8\nsim.paths = 5\n"

    def _rejected(self, tmp_path, capsys, text, argv, message):
        path = tmp_path / "big.cfg"
        path.write_text(text)
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        argv = [a.format(config=path, a=outs[0], b=outs[1]) for a in argv]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert "ticks (" in captured.err
        assert captured.out == ""
        assert not any(out.exists() for out in outs)

    def test_simulate(self, tmp_path, capsys):
        argv = ["simulate", "--config", "{config}", "--policy", "avgdown",
                "--out", "{a}", "--stats-out", "{b}"]
        self._rejected(tmp_path, capsys, self.OVERFLOW, argv, "policy avgdown: ")

    def test_compare(self, tmp_path, capsys):
        argv = ["compare", "--config", "{config}", "--policies", "cutloss,avgdown", "--out", "{a}"]
        self._rejected(tmp_path, capsys, self.OVERFLOW, argv, "policy cutloss: ")

    def test_compare_paired_difference(self, tmp_path, capsys):
        # each policy's own statistics are finite; only their difference is not
        text = ("market.u = 1e308\nmarket.d = -1e308\nmarket.p = 1\nbelief.q0 = 0.4\n"
                "problem.horizon = 1\nsim.paths = 1\n")
        argv = ["compare", "--config", "{config}", "--policies", "bellman,buyhold", "--out", "{a}"]
        self._rejected(tmp_path, capsys, text, argv, "policies bellman - buyhold: mean_diff")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(repr)


# a value for each key from its valid range, extremes included...
_VALID = {
    "market.u": _floats(0.0, 1.7e308, exclude_min=True),
    "market.d": _floats(-1.7e308, 0.0, exclude_max=True),
    "market.p": _floats(0.0, 1.0),
    "market.initial_wealth": _floats(-1.7e308, 1.7e308),
    "problem.actions": st.lists(
        st.sampled_from(["long", "neutral", "short"]), min_size=1, max_size=3, unique=True
    ).map(",".join),
    "belief.kind": st.sampled_from(["static", "mirror", "beta"]),
    "belief.q0": _floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "belief.confidence": _floats(0.5, 1.0, exclude_max=True),
    "belief.alpha": _floats(0.0, 1.7e308, exclude_min=True),
    "belief.beta": _floats(0.0, 1.7e308, exclude_min=True),
    "sim.seed": st.integers(-(2**80), 2**80).map(str),
}
# ...and, for a few keys, a value that is non-finite, on a boundary, huge,
# negative or not a number at all
_ODD = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "-0.0", "0", "1e307", "-1e307", "1.7e308",
                     "5e-324", str(2**70), str(-(2**70))]),
    st.floats().map(repr),
    st.integers(-(2**80), 2**80).map(str),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=6),
)
_NON_FINITE = re.compile(r"(?i)\b(?:inf|infinity|nan)\b")


class TestFuzz:
    """Random configs through `otl solve`, `simulate` and `compare`: the
    exit code is always a documented one, a successful run writes and prints
    only finite numbers, and a failed run leaves no output file.

    problem.horizon is drawn from 0-8 and sim.paths from 1-20 so that the
    fuzz runs in seconds; the bound on sim.paths x horizon, which these
    ranges do not reach, is tested by TestPathStepBound."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.fixed_dictionaries({}, optional=_VALID),
        odd=st.dictionaries(st.sampled_from(sorted(_VALID)), _ODD, max_size=2),
        horizon=st.integers(0, 8),
        paths=st.integers(1, 20),
        policy=st.sampled_from(["bellman", "cutloss", "avgdown", "buyhold"]),
    )
    def test_exit_codes_and_finite_outputs(self, values, odd, horizon, paths, policy):
        lines = [f"{key} = {value}" for key, value in {**values, **odd}.items()]
        lines += [f"problem.horizon = {horizon}", f"sim.paths = {paths}"]
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "fuzz.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            a, b = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            for argv, outs in [
                (["solve", "--config", config, "--out", a], [a]),
                (["simulate", "--config", config, "--policy", policy,
                  "--out", a, "--stats-out", b], [a, b]),
                (["compare", "--config", config, "--policies", f"cutloss,{policy}",
                  "--out", a], [a]),
            ]:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2, 3), argv
                if code == EXIT_OK:
                    assert not _NON_FINITE.search(stdout.getvalue()), argv
                    for out in outs:
                        with open(out, encoding="utf-8") as fh:
                            assert not _NON_FINITE.search(fh.read()), argv
                else:
                    assert not any(os.path.exists(out) for out in outs), argv
                for out in outs:
                    if os.path.exists(out):
                        os.remove(out)
