"""Tests of the benchmark harness: span arithmetic, the digest gate and the
agreement of BENCHMARK.json with the metrics the harness prints.

usage: python3 -m pytest perfbench/tests -q
"""

import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import child
import layers
import spantrace
from gate import check_output
from workloads import WORKLOADS, Output

ROOT = Path(__file__).resolve().parents[2]


def _spans(rows):
    """Spans from (name, start, end, parent) rows, parents listed first."""
    names = sorted({r[0] for r in rows})
    return spantrace.Spans(
        names=names,
        ids=np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        parents=np.array([r[3] for r in rows], dtype=np.int32),
        starts=np.array([r[1] for r in rows], dtype=float),
        ends=np.array([r[2] for r in rows], dtype=float),
    )


# cli.main -> decide -> optimal_action -> q, q; then a belief update that
# itself calls back into mdp (mdp -> beliefs -> mdp nesting).
TREE = [
    ("cli.main", 0.0, 10.0, -1),  # 0
    ("policies.CutLoss.decide", 1.0, 5.0, 0),  # 1
    ("mdp.QTable.optimal_action", 2.0, 4.0, 1),  # 2
    ("mdp.QTable.q", 2.5, 3.0, 2),  # 3
    ("mdp.QTable.q", 3.0, 3.75, 2),  # 4
    ("mdp.solve_q", 6.0, 9.0, 0),  # 5
    ("beliefs.Mirror.update", 6.5, 8.0, 5),  # 6
    ("mdp.QTable.q", 7.0, 7.5, 6),  # 7
]


def test_self_time_subtracts_direct_children_only():
    s = _spans(TREE)
    selfs = spantrace.self_times(s.parents, s.durations)
    assert selfs.tolist() == pytest.approx([3.0, 2.0, 0.75, 0.5, 0.75, 1.5, 1.0, 0.5])
    assert s.self_time(lambda n: n == "mdp.QTable.optimal_action") == pytest.approx(0.75)
    assert s.self_time(lambda n: n == "cli.main") == pytest.approx(3.0)


def test_busy_time_counts_nested_spans_of_a_group_once():
    s = _spans(TREE)
    mdp = lambda n: n.startswith("mdp.")  # noqa: E731
    # optimal_action covers its q calls; solve_q covers the q under update
    assert s.busy(mdp) == pytest.approx(2.0 + 3.0)
    assert s.busy(lambda n: n == "mdp.QTable.q") == pytest.approx(0.5 + 0.75 + 0.5)
    assert s.count(lambda n: n.endswith(".q")) == 3
    assert s.busy(lambda n: n == "no.such.span") == 0.0


def test_recorder_round_trip_keeps_nesting(tmp_path):
    rec = spantrace.SpanRecorder()
    seen = []

    def q(x):
        return x * 2

    q = rec.wrap("mdp.QTable.q", q)

    def optimal_action(x):
        return max(q(x), q(x + 1))

    optimal_action = rec.wrap("mdp.QTable.optimal_action", optimal_action, after=seen.append)
    assert optimal_action(1) == 4
    assert seen == [4]
    rec.save(str(tmp_path / "spans"))
    s = spantrace.load(str(tmp_path / "spans"))
    assert [s.names[i] for i in s.ids] == ["mdp.QTable.optimal_action", "mdp.QTable.q", "mdp.QTable.q"]
    assert s.parents.tolist() == [-1, 0, 0]
    outer = s.durations[0]
    assert s.self_time(lambda n: n.endswith("optimal_action")) == pytest.approx(
        outer - s.durations[1] - s.durations[2]
    )
    assert s.busy(lambda n: n.startswith("mdp.")) == pytest.approx(outer)


def test_recorder_closes_a_span_when_the_call_raises(tmp_path):
    rec = spantrace.SpanRecorder()

    def fails():
        raise KeyError("unreachable")

    fails = rec.wrap("mdp.QTable.q", fails)
    with pytest.raises(KeyError):
        fails()
    ok = rec.wrap("mdp.solve_q", lambda: None)
    ok()
    assert list(rec.parents) == [-1, -1]
    assert rec.ends[0] >= rec.starts[0]


CSV = Output("csv", 2, "a,b")


def _write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


def test_gate_flags_a_one_byte_change(tmp_path):
    good = b"a,b\r\n1,2.5\r\n3,4.0\r\n"
    ref = check_output("out", CSV, _write(tmp_path / "f", good), None)
    assert ref.problems == []
    reference = {"sha256": ref.sha256, "rows": ref.rows}
    assert check_output("out", CSV, _write(tmp_path / "f", good), reference).problems == []
    changed = good.replace(b"2.5", b"2.6")
    assert len(changed) == len(good)
    problems = check_output("out", CSV, _write(tmp_path / "f", changed), reference).problems
    assert len(problems) == 1 and "sha256" in problems[0]


def test_gate_checks_rows_header_and_finiteness_without_a_reference(tmp_path):
    assert check_output("out", CSV, str(tmp_path / "missing"), None).problems
    short = check_output("out", CSV, _write(tmp_path / "f", b"a,b\r\n1,2\r\n"), None)
    assert short.problems == ["1 rows, expected 2"]
    header = check_output("out", CSV, _write(tmp_path / "f", b"a,c\r\n1,2\r\n3,4\r\n"), None)
    assert len(header.problems) == 1 and "header" in header.problems[0]
    for bad in (b"nan", b"-inf", b"inf", b"NaN", b"Infinity"):
        data = b"a,b\r\n1,2\r\n3," + bad + b"\r\n"
        assert check_output("out", CSV, _write(tmp_path / "f", data), None).problems


def test_gate_reads_verify_reports(tmp_path):
    spec = Output("verify-json", 2)
    report = {
        "reports": [{"cases": [{"passed": True}, {"passed": True}]}],
        "overall": True,
    }
    path = _write(tmp_path / "r", json.dumps(report).encode())
    assert check_output("report", spec, path, None).problems == []
    report["overall"] = False
    path = _write(tmp_path / "r", json.dumps(report).encode())
    assert check_output("report", spec, path, None).problems == ["verify report says FAIL"]


def test_benchmark_json_lists_what_the_harness_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        m: layers.unit(m) for m in layers.METRICS
    }
    assert {m["name"] for m in doc["end_to_end"]} == {"work_per_s", "setup_s", "peak_rss_mb"}


def test_workload_configs_take_the_seed():
    for wl in WORKLOADS.values():
        text = wl.config_text(7)
        if wl.seeded:
            assert text.endswith("sim.seed = 7\n")
            assert text != wl.config_text(8)
        assert set(wl.outputs) >= {"stdout"}
        assert "{config}" in wl.argv or wl.config is None


def test_speed_probe_samples_during_the_command_and_then_stops():
    with child.SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    probing_s, mean = probe.report()
    assert len(probe.times) >= 3
    assert mean == pytest.approx(probing_s / len(probe.times))
    assert 0 < probing_s < 0.2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert child.SpeedProbe().report() == (0, None)
