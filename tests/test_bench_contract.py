"""The benchmark's traced run wraps otl functions by name (perfbench/child.py)
and takes its counts from their results. Run it on tiny configs, so that a
renamed or removed symbol, or a layer no longer called, fails here rather
than silently breaking the traced benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
MARKET = "market.u = 10\nmarket.d = -10\nmarket.p = 0.45\n"
PATHS, T = 40, 6


def _trace(tmp_path, config, argv):
    """Run one traced invocation; return its counts and the number of calls
    made to each wrapped function."""
    args = []
    for arg in argv:
        if arg == "{config}":
            path = tmp_path / "run.cfg"
            path.write_text(config)
            arg = str(path)
        elif arg.startswith("{out:"):
            arg = str(tmp_path / arg[5:-1])
        args.append(arg)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), "trace", str(result), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["rc"] == 0
    with open(str(result) + ".spans", "rb") as fh:
        header = json.loads(fh.readline())
        ids = np.fromfile(fh, dtype=np.int32, count=header["n"])
    names = header["names"]
    calls = dict(zip(names, np.bincount(ids, minlength=len(names)).tolist()))
    return doc["counts"], calls


def _decisions(counts):
    return sum(n for key, n in counts.items() if key.startswith("policies.decisions."))


def test_solve(tmp_path):
    config = MARKET + f"problem.horizon = {T}\nbelief.kind = beta\n"
    counts, calls = _trace(tmp_path, config, ["solve", "--config", "{config}", "--out", "{out:q}"])
    assert counts["mdp.stage_states"] == (T + 1) * (T + 2) // 2
    assert counts["mdp.q_entries"] == 3 * T * (T + 1) // 2
    assert calls["mdp.solve_q"] == 1
    assert calls["config.load_config"] == 1
    # the beta lattice is built in closed form, with no Belief per state
    assert calls["beliefs.BetaBernoulli.update"] == 0
    assert calls["beliefs.BetaBernoulli.predictive"] == 0


@pytest.mark.parametrize("policy", ["cutloss", "avgdown"])
def test_simulate(tmp_path, policy):
    config = MARKET + f"problem.horizon = {T}\nbelief.kind = mirror\nsim.paths = {PATHS}\n"
    argv = ["simulate", "--config", "{config}", "--policy", policy,
            "--out", "{out:paths}", "--stats-out", "{out:stats}"]
    counts, calls = _trace(tmp_path, config, argv)
    assert _decisions(counts) == PATHS * T
    # the path CSV is written as each path is replayed, so no step is kept
    assert counts["sim.retained_records"] == 0
    # every policy plays its automaton through the one Policy.decide
    assert calls["policies.Policy.decide"] == PATHS * T
    # a policy that reads no belief has no belief updated for it
    assert calls["beliefs.Mirror.update"] == 0
    for name in ("market.sample_moves", "market.derive_path_seed", "sim.replay"):
        assert calls[name] == PATHS
    assert calls["sim.run"] == calls["sim.summarize"] == calls["policies.make_policy"] == 1


def test_compare(tmp_path):
    config = MARKET + f"problem.horizon = {T}\nbelief.kind = beta\nsim.paths = {PATHS}\n"
    argv = ["compare", "--config", "{config}",
            "--policies", "bellman,cutloss,avgdown", "--out", "{out:stats}"]
    counts, calls = _trace(tmp_path, config, argv)
    assert _decisions(counts) == 3 * PATHS * T
    assert calls["market.sample_moves"] == 3 * PATHS
    # sim.replay carries the belief as a lattice row: bellman looks its
    # action up by row, and no policy has a Belief updated or looked up
    assert calls["mdp.QTable.optimal_action"] == 0
    assert calls["beliefs.BetaBernoulli.update"] == 0
    assert calls["sim.compare"] == calls["mdp.solve_q"] == 1
    assert calls["sim.run"] == 3


def test_verify_price(tmp_path):
    counts, calls = _trace(tmp_path, None, ["verify", "--suite", "price", "--json", "{out:report}"])
    assert counts["verify.cases"] == 20
    assert counts["verify.cases_failed"] == 0
    assert calls["verify.suite.price"] == 1
    assert calls["market.expected_dividend_by_enumeration"] == 13
    assert calls["market.enumerate_paths"] == 13
    assert calls["market.price_process"] == 20
