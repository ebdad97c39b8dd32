"""Hand mutants of inline code, each run on a patched copy of the project.

A bug in the middle of a function cannot be planted with monkeypatch (see
test_planted_bugs.py for those that can). For each mutant in MUTANTS this
copies src/, tests/ and pyproject.toml to a temporary directory, replaces
the one occurrence of the old text in the named file with the new text, and
runs pytest on the named test files with PYTHONPATH at the copy's src/.
Those tests must fail (pytest exit status 1: a test failed, not a collection
error). They must also pass once on an unpatched copy.

Run from anywhere, outside the tier-1 suite (pytest does not collect it):

    python tests/mutants.py

It exits 1 and names each mutant that was not caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the path-CSV writer's cache of row heads, keyed by stake
HEADS = """\
            head = heads.get(action.stake)
            if head is None:
                cells = f"{action.direction},{action.size}"
                up_head = f"{UP.value},{cells},{_num(action.stake * model.u)},"
                down_head = f"{DOWN.value},{cells},{_num(action.stake * model.d)},"
                head = heads[action.stake] = (up_head, down_head)
"""

# (name, file, old text, new text, test files)
MUTANTS = [
    (
        "scalar pass takes the last maximum",
        "src/otl/mdp.py",
        "best[s] = row.index(top)",
        "best[s] = n - 1 - row[::-1].index(top)",
        ["tests/test_mdp.py"],
    ),
    (
        "numpy pass takes the last maximum",
        "src/otl/mdp.py",
        "best[layer] = arg = q.argmax(axis=1)",
        "best[layer] = arg = q.shape[1] - 1 - q[:, ::-1].argmax(axis=1)",
        ["tests/test_mdp.py"],
    ),
    (
        "enumeration pushes Up before Down",
        "src/otl/verify.py",
        """\
        stack.append((b.update(DOWN), t + 1, prob * (1.0 - q_up), down))
        stack.append((b.update(UP), t + 1, prob * q_up, up))
""",
        """\
        stack.append((b.update(UP), t + 1, prob * q_up, up))
        stack.append((b.update(DOWN), t + 1, prob * (1.0 - q_up), down))
""",
        ["tests/test_verify.py"],
    ),
    (
        "enumeration weighs Down by q_up",
        "src/otl/verify.py",
        "t + 1, prob * (1.0 - q_up), down",
        "t + 1, prob * q_up, down",
        ["tests/test_verify.py"],
    ),
    (
        "enumeration takes the argmax at t = 0",
        "src/otl/verify.py",
        "        if t:\n",
        "        if True:\n",
        ["tests/test_verify.py"],
    ),
    (
        "enumeration plays the first action first in every column",
        "src/otl/verify.py",
        "first = [a.stake for a in action_set]",
        "first = [action_set[0].stake] * n",
        ["tests/test_verify.py"],
    ),
    (
        "dividend walk pays the terminal payoff only at the horizon",
        "src/otl/market.py",
        "totals[t] += prob * (acc + div.terminal_payoff(level))",
        "totals[t] += prob * (acc + (div.terminal_payoff(level) if t == horizon else 0.0))",
        ["tests/test_verify.py"],
    ),
    (
        "path CSV caches the wealth cell of zero",
        "src/otl/cli.py",
        "if wealth and len(wcells) < WEALTH_CELLS_CAP:",
        "if len(wcells) < WEALTH_CELLS_CAP:",
        ["tests/test_cli.py", "tests/test_golden.py"],
    ),
    (
        "Q-table export in row order",
        "src/otl/cli.py",
        "order = sorted(range(len(layer)), key=layer.__getitem__)",
        "order = list(range(len(layer)))",
        ["tests/test_cli.py", "tests/test_golden.py"],
    ),
    (
        "Q-table export drops the last partial block",
        "src/otl/cli.py",
        "if len(rows) < EXPORT_BLOCK_ROWS and t < T - 1:",
        "if len(rows) < EXPORT_BLOCK_ROWS:",
        ["tests/test_cli.py", "tests/test_golden.py"],
    ),
    (
        "path CSV row heads keyed by action.size",
        "src/otl/cli.py",
        HEADS,
        HEADS.replace("heads.get(action.stake)", "heads.get(action.size)").replace(
            "heads[action.stake]", "heads[action.size]"
        ),
        ["tests/test_cli.py", "tests/test_golden.py"],
    ),
    (
        "draw seeded by the low 32 bits of the path seed",
        "src/otl/market.py",
        "draw = _random.Random(path_seed).random",
        "draw = _random.Random(path_seed & 0xFFFFFFFF).random",
        ["tests/test_market.py"],
    ),
    (
        "master mix cached without its key",
        "src/otl/market.py",
        "_mix_master = functools.lru_cache(maxsize=1)(_splitmix64)",
        "_mix_master = lambda master, first={}: first.setdefault(0, _splitmix64(master))",
        ["tests/test_market.py"],
    ),
    (
        "beta fast path keeps int counts as ints",
        "src/otl/beliefs.py",
        "if type(a) is float and type(b) is float and a > 0",
        "if type(a) in (int, float) and type(b) in (int, float) and a > 0",
        ["tests/test_beliefs.py", "tests/test_mdp.py", "tests/test_cli.py"],
    ),
    (
        "beta closed form for a subclass too",
        "src/otl/beliefs.py",
        "if kind is not BetaBernoulli:",
        "if not issubclass(kind, BetaBernoulli):",
        ["tests/test_beliefs.py", "tests/test_mdp.py", "tests/test_cli.py"],
    ),
    (
        "saturated beta counts take the closed form",
        "src/otl/beliefs.py",
        "if not all((seq[1:] > seq[:-1]).all() for seq in counts):",
        "if False:",
        ["tests/test_beliefs.py", "tests/test_mdp.py", "tests/test_cli.py"],
    ),
    (
        "drawdown peak starts at -inf",
        "src/otl/sim.py",
        "wealth = peak = model.initial_wealth",
        "wealth, peak = model.initial_wealth, -math.inf",
        ["tests/test_sim.py"],
    ),
]


def copy_project(dest: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest


def pytest_status(copy: Path, test_files: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_files]
    quiet = subprocess.DEVNULL
    return subprocess.run(cmd, cwd=copy, env=env, stdout=quiet, stderr=quiet).returncode


def patch(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{file}: the old text occurs {count} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="otl-mutants-") as tmp:
        every_file = sorted({f for *_, files in MUTANTS for f in files})
        status = pytest_status(copy_project(Path(tmp, "unpatched")), every_file)
        if status != 0:
            print(f"the unpatched tests fail (pytest exit {status}): {' '.join(every_file)}")
            return 1
        missed = []
        for i, (name, file, old, new, files) in enumerate(MUTANTS):
            copy = copy_project(Path(tmp, f"mutant{i}"))
            patch(copy, file, old, new)
            began = time.perf_counter()
            status = pytest_status(copy, files)
            took = time.perf_counter() - began
            if status != 1:
                missed.append(name)
            print(f"{'MISSED' if status != 1 else 'caught'} ({took:.1f} s, exit {status}): {name}")
            shutil.rmtree(copy)
    if missed:
        print(f"{len(missed)} of {len(MUTANTS)} mutants not caught: {', '.join(missed)}")
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
