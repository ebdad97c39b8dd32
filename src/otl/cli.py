"""Command-line entry point.

Exit codes: 0 success / verification pass, 1 verification failure,
2 configuration error or unwritable output, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import astuple, fields
from itertools import chain, repeat
from typing import Iterator, Optional, Sequence

from . import verify as verify_mod
from .actions import DOWN, UP
from .config import dump_config, load_config
from .errors import ConfigurationError, ResourceLimitError, ValidationError
from .market import MarketModel
from .mdp import solve_q
from .policies import POLICY_KINDS, make_policy
from .sim import OnPath, SimResult, Stats, WealthPath, compare

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

PATH_CSV_COLUMNS = ["path_id", "t", "move", "action", "size", "reward", "wealth"]
STATS_CSV_COLUMNS = ["policy", *(f.name for f in fields(Stats))]
QTABLE_CSV_COLUMNS = ["t", "belief_id", "action", "q_value", "is_optimal"]
# the path-CSV writer caches a cell per distinct wealth, up to this many (~2 MiB)
WEALTH_CELLS_CAP = 1 << 14
# the Q-table export writes whole lattice layers in blocks of at least this many states
EXPORT_BLOCK_ROWS = 128
# an output file is written in chunks of at least this many characters (_Output)
OUTPUT_CHUNK = 1 << 16
# Every CSV is what csv.writer writes (QUOTE_MINIMAL, \r\n line ends): cells
# joined by commas, numbers through _num, a cell quoted only when it holds a
# comma (only belief ids do), and no cell holds a quote or a line break.


def _num(x: float) -> str:
    # repr of a float is the shortest string that parses back exactly
    return repr(float(x))


class _Parser(argparse.ArgumentParser):
    """Prints help through _echo, so a failed write exits 2; subparsers share the class."""

    def print_help(self, file=None) -> None:
        if file is None:
            _echo(self.format_help())
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="otl")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the Q-table for a config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="write the Q-table as CSV")
    p_solve.add_argument(
        "--dump-config", action="store_true", help="print the effective config and exit"
    )
    p_solve.set_defaults(run=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run one policy over seeded paths")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--policy", required=True, help=",".join(POLICY_KINDS))
    p_sim.add_argument("--out", required=True, help="per-path CSV output")
    p_sim.add_argument("--stats-out", help="summary statistics CSV output")
    p_sim.set_defaults(run=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="common-random-numbers policy comparison")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--policies", required=True, help="comma-separated policy names")
    p_cmp.add_argument("--out", required=True, help="per-policy statistics CSV")
    p_cmp.set_defaults(run=_cmd_compare)

    p_ver = sub.add_parser("verify", help="run the mechanical checkers")
    p_ver.add_argument("--suite", default="all", choices=["all", *sorted(verify_mod.SUITES)])
    p_ver.add_argument("--json", dest="json_out", help="write the report as JSON")
    p_ver.set_defaults(run=_cmd_verify)
    return parser


class _Output:
    """An output file; a failed open, write or close is a ConfigurationError naming it.
    Writes are joined into chunks of at least OUTPUT_CHUNK characters, so a file
    written piece by piece (the path CSV, one write per path) costs one file write
    per chunk; close() writes the rest."""

    def __init__(self, path: str):
        self.path = path
        self._fh = self._call(open, path, "w", newline="")
        self._parts: list[str] = []
        self._size = 0

    def _call(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {self.path}: {exc}") from exc

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= OUTPUT_CHUNK:
            self._flush()

    def _flush(self) -> None:
        if self._parts:
            text = "".join(self._parts)
            self._parts, self._size = [], 0  # emptied first: a failed write is not retried
            self._call(self._fh.write, text)

    def close(self) -> None:
        """Write the rest, then close the file, even if that write failed."""
        try:
            self._flush()
        finally:
            self._call(self._fh.close)


def _file_key(path: str) -> object:
    """What names one file: (st_dev, st_ino) if path exists, so a hard or
    symbolic link matches its target, else the real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


@contextlib.contextmanager
def _outputs(config: Optional[str], *paths: Optional[str]) -> Iterator[list[Optional[_Output]]]:
    """Open each output path (None: no output) before any work, so an unwritable one
    fails at once, and yield their handles; if the command or an output then fails,
    remove the regular files among them, so a failed run leaves no output file. No
    output may be another output or the config file read (None: none)."""
    named = [p for p in paths if p is not None]
    keys = list(map(_file_key, named))
    if len(set(keys)) < len(named):
        raise ConfigurationError(f"output paths must differ, got {named}")
    if config is not None and _file_key(config) in keys:
        raise ConfigurationError(f"output paths must differ from the config {config}, got {named}")
    handles: list[Optional[_Output]] = []
    try:
        for path in paths:
            handles.append(None if path is None else _Output(path))
        yield handles
        for fh in filter(None, handles):
            fh.close()
    except BaseException:
        for fh in filter(None, handles):
            with contextlib.suppress(ConfigurationError):
                fh.close()
            if os.path.isfile(fh.path):
                os.remove(fh.path)
        raise


def _csv_line(cells: Sequence[str]) -> str:
    return ",".join(cells) + "\r\n"


def _path_writer(fh: _Output, model: MarketModel) -> OnPath:
    """A `sim.run` path consumer writing each path's rows of the path CSV. A row after its
    path_id is a `t,` cell built once per t, a head (move,action,size,reward) built once
    per stake and move, and a `wealth\\r\\n` cell cached per wealth."""
    fh.write(_csv_line(PATH_CSV_COLUMNS))
    heads: dict[int, tuple[str, str]] = {}  # action.stake -> (up head, down head)
    tcells: list[str] = []
    wcells: dict[float, str] = {}

    def write(path_id: int, path: WealthPath) -> None:
        if len(path.wealths) > len(tcells):
            tcells.extend(f"{t}," for t in range(len(tcells), len(path.wealths)))
        rows, down = [], DOWN
        for tcell, move, action, wealth in zip(tcells, path.moves, path.actions, path.wealths):
            head = heads.get(action.stake)
            if head is None:
                cells = f"{action.direction},{action.size}"
                up_head = f"{UP.value},{cells},{_num(action.stake * model.u)},"
                down_head = f"{DOWN.value},{cells},{_num(action.stake * model.d)},"
                head = heads[action.stake] = (up_head, down_head)
            wcell = wcells.get(wealth)
            if wcell is None:
                wcell = f"{_num(wealth)}\r\n"
                # -0.0 == 0.0 would share a key, so zero is never cached
                if wealth and len(wcells) < WEALTH_CELLS_CAP:
                    wcells[wealth] = wcell
            rows.append(tcell + head[move is down] + wcell)
        prefix = f"{path_id},"
        fh.write(prefix + prefix.join(rows))

    return write


def _write_stats_csv(results: list[SimResult], fh: _Output) -> None:
    fh.write(_csv_line(STATS_CSV_COLUMNS))
    for result in results:
        fh.write(_csv_line([result.policy_name, *map(_num, astuple(result.stats))]))


def _echo(text: str) -> None:
    """Write and flush text to standard output. A failed write is a ConfigurationError,
    and stdout then goes to os.devnull, so Python's own flush at exit cannot fail too."""
    if sys.stdout is None:  # as Python sets it when started with file descriptor 1 closed
        raise ConfigurationError("cannot write standard output: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ConfigurationError(f"cannot write standard output: {exc}") from exc


def _stats_text(name: str, stats: Stats) -> str:
    return (
        f"policy {name}:\n"
        f"  mean terminal   {stats.mean_terminal:.6f}\n"
        f"  std terminal    {stats.std_terminal:.6f}\n"
        f"  quantiles 5/25/50/75/95  {' '.join(f'{q:.4f}' for q in stats.quantiles())}\n"
        f"  mean max drawdown  {stats.mean_max_drawdown:.6f}\n"
        f"  ruin fraction      {stats.ruin_fraction:.6f}\n"
    )


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.dump_config:
        _echo(dump_config(cfg))
        return EXIT_OK
    with _outputs(args.config, args.out) as (out,):
        _export_qtable(solve_q(cfg.problem()), out)
    return EXIT_OK


def _export_qtable(table, out: Optional[_Output]) -> None:
    """Print the Q-table and, given a file, write it as CSV too: per t, beliefs
    in belief_id order, one line per action, then the stage's argmax line. Whole
    layers go out in blocks of at least EXPORT_BLOCK_ROWS states, each text one
    join over columns of cells, so each Q-value is formatted once, by repr."""
    names = [str(a) for a in table.problem.action_set]
    arrows = [f" -> {name}\n" for name in names]
    flags = [[f",{int(i == j)}\r\n" for i in range(len(names))] for j in range(len(names))]
    if out is not None:
        out.write(_csv_line(QTABLE_CSV_COLUMNS))
    start, T = table.lattice.start, table.problem.horizon
    heads, tcells, ids, rows = [], [], [], []
    for t in range(T):
        layer = table.lattice.ids(t)
        order = sorted(range(len(layer)), key=layer.__getitem__)
        heads += [f"t={t}, belief="] * len(layer)
        tcells += [f"{t},"] * len(layer)
        ids += map(layer.__getitem__, order)
        rows += map(start[t].__add__, order)
        if len(rows) < EXPORT_BLOCK_ROWS and t < T - 1:
            continue
        qs = [list(map(repr, col)) for col in table.qs[rows].T.tolist()]
        best = table.best[rows].tolist()
        columns = []
        for name, q in zip(names, qs):
            columns += heads, ids, repeat(f", {name}, "), q, repeat("\n")
        columns += heads, ids, map(arrows.__getitem__, best)
        _echo("".join(chain.from_iterable(zip(*columns))))
        if out is not None:
            cells, columns = [f'"{i}"' if "," in i else i for i in ids], []
            for name, q, flag in zip(names, qs, flags):
                columns += tcells, cells, repeat(f",{name},"), q, map(flag.__getitem__, best)
            out.write("".join(chain.from_iterable(zip(*columns))))
        heads, tcells, ids, rows = [], [], [], []


def _parse_policy_name(name: str) -> str:
    name = name.strip().lower()
    if name not in POLICY_KINDS:
        raise ConfigurationError(f"unknown policy name: {name!r}")
    return name


def _cmd_simulate(args) -> int:
    return _simulate(args.config, [args.policy], args.out, args.stats_out)


def _cmd_compare(args) -> int:
    return _simulate(args.config, list(filter(str.strip, args.policies.split(","))), None, args.out)


def _simulate(config: str, names: list[str], paths: Optional[str], stats: Optional[str]) -> int:
    """Run the named policies on common random numbers (`sim.compare`), write the paths CSV
    (simulate's one policy) as it runs and the stats CSV, and print the stats and pairwise CIs."""
    cfg = load_config(config, simulate=True)
    if not names:
        raise ConfigurationError("--policies must name at least one policy")
    kinds = [_parse_policy_name(n) for n in names]
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ConfigurationError(f"--policies names {kind} more than once")
    sim_cfg = cfg.sim_config()
    with _outputs(config, paths, stats) as (paths_out, stats_out):
        policies = [make_policy(kind, sim_cfg.problem) for kind in kinds]
        model = cfg.market()
        on_path = None if paths_out is None else _path_writer(paths_out, model)
        table = compare(policies, model, sim_cfg, on_path)
        if stats_out:
            _write_stats_csv(table.results, stats_out)
        # printed before the outputs close, so a failed print removes them
        _echo(
            "".join(_stats_text(r.policy_name, r.stats) for r in table.results)
            + "".join(
                f"mean diff {pw.policy_a} - {pw.policy_b}: {pw.mean_diff:.6f}"
                f"  99% CI [{pw.ci_low:.6f}, {pw.ci_high:.6f}]\n"
                for pw in table.pairwise
            )
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _outputs(None, args.json_out) as (json_out,):
        reports = verify_mod.run_all() if args.suite == "all" else [verify_mod.SUITES[args.suite]()]
        overall = all(rep.overall for rep in reports)
        if json_out:
            doc = {"reports": [rep.to_dict() for rep in reports], "overall": overall}
            json_out.write(json.dumps(doc, indent=2) + "\n")
        verdict = "PASS" if overall else "FAIL"
        _echo("".join(f"{rep.render()}\n" for rep in reports) + f"verify: {verdict}\n")
    return EXIT_OK if overall else EXIT_VERIFY_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ConfigurationError, ValidationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
