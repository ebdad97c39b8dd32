"""Command-line entry point.

Exit codes: 0 success / verification pass, 1 verification failure,
2 configuration error or unwritable output, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import astuple, fields
from typing import IO, Iterator, Optional, Sequence

from . import verify as verify_mod
from .beliefs import belief_id
from .config import dump_config, load_config
from .errors import ConfigurationError, ResourceLimitError, ValidationError
from .mdp import solve_q
from .policies import POLICY_KINDS, make_policy
from .sim import SimResult, Stats, compare, run

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

PATH_CSV_COLUMNS = ["path_id", "t", "move", "action", "size", "reward", "wealth"]
STATS_CSV_COLUMNS = ["policy", *(f.name for f in fields(Stats))]
QTABLE_CSV_COLUMNS = ["t", "belief_id", "action", "q_value", "is_optimal"]


def _num(x: float) -> str:
    # repr of a float is the shortest string that parses back exactly
    return repr(float(x))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otl")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the Q-table for a config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="write the Q-table as CSV")
    p_solve.add_argument(
        "--dump-config", action="store_true", help="print the effective config and exit"
    )

    p_sim = sub.add_parser("simulate", help="run one policy over seeded paths")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--policy", required=True, help=",".join(POLICY_KINDS))
    p_sim.add_argument("--out", required=True, help="per-path CSV output")
    p_sim.add_argument("--stats-out", help="summary statistics CSV output")

    p_cmp = sub.add_parser("compare", help="common-random-numbers policy comparison")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--policies", required=True, help="comma-separated policy names")
    p_cmp.add_argument("--out", required=True, help="per-policy statistics CSV")

    p_ver = sub.add_parser("verify", help="run the mechanical checkers")
    p_ver.add_argument(
        "--suite",
        default="all",
        choices=["all"] + sorted(verify_mod.SUITES),
    )
    p_ver.add_argument("--json", dest="json_out", help="write the report as JSON")
    return parser


@contextlib.contextmanager
def _outputs(*paths: Optional[str]) -> Iterator[list[Optional[IO[str]]]]:
    """Open every given output path for writing, before any work is done,
    so an unwritable one fails at once; yields one handle per path (None
    for None). If the command then fails, the regular files among them are
    removed, so a failed run leaves no output file."""
    named = [p for p in paths if p is not None]
    if len(set(map(os.path.realpath, named))) < len(named):
        raise ConfigurationError(f"output paths must differ, got {named}")
    handles: list[Optional[IO[str]]] = []
    done = False
    try:
        for path in paths:
            try:
                handles.append(None if path is None else open(path, "w", newline=""))
            except OSError as exc:
                raise ConfigurationError(f"cannot write {path}: {exc}") from exc
        yield handles
        done = True
    finally:
        for path, fh in zip(paths, handles):
            if fh is not None:
                fh.close()
                if not done and os.path.isfile(path):
                    os.remove(path)


def _write_paths_csv(result: SimResult, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(PATH_CSV_COLUMNS)
    for wp in result.paths:
        for rec in wp.steps:
            writer.writerow(
                [
                    wp.path_id,
                    rec.t,
                    rec.move.value,
                    rec.action.direction.value,
                    rec.action.size,
                    _num(rec.reward),
                    _num(rec.wealth_after),
                ]
            )


def _write_stats_csv(results: list[SimResult], fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(STATS_CSV_COLUMNS)
    for result in results:
        writer.writerow([result.policy_name, *map(_num, astuple(result.stats))])


def _print_stats(name: str, stats) -> None:
    print(f"policy {name}:")
    print(f"  mean terminal   {stats.mean_terminal:.6f}")
    print(f"  std terminal    {stats.std_terminal:.6f}")
    print(
        "  quantiles 5/25/50/75/95  "
        + " ".join(f"{q:.4f}" for q in stats.quantiles())
    )
    print(f"  mean max drawdown  {stats.mean_max_drawdown:.6f}")
    print(f"  ruin fraction      {stats.ruin_fraction:.6f}")


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return EXIT_OK
    with _outputs(args.out) as (out,):
        _export_qtable(solve_q(cfg.problem()), csv.writer(out) if out else None)
    return EXIT_OK


def _export_qtable(table, writer) -> None:
    """Print the Q-table and, given a csv writer, write it as CSV too, in
    one pass over the lattice layers: per t, beliefs in belief_id order,
    one line per action, then the stage's argmax line."""
    names = [str(a) for a in table.problem.action_set]
    if writer is not None:
        writer.writerow(QTABLE_CSV_COLUMNS)
    for t in range(table.problem.horizon):
        ids = [belief_id(b) for b in table.rows[t]]
        qs = table.qs[t].tolist()
        best = table.best[t].tolist()
        lines = []
        csv_rows = []
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            prefix = f"t={t}, belief={ids[i]}"
            for j, (name, q) in enumerate(zip(names, map(_num, qs[i]))):
                lines.append(f"{prefix}, {name}, {q}\n")
                csv_rows.append([t, ids[i], name, q, int(j == best[i])])
            lines.append(f"{prefix} -> {names[best[i]]}\n")
        sys.stdout.write("".join(lines))
        if writer is not None:
            writer.writerows(csv_rows)


def _parse_policy_name(name: str) -> str:
    name = name.strip().lower()
    if name not in POLICY_KINDS:
        raise ConfigurationError(f"unknown policy name: {name!r}")
    return name


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    kind = _parse_policy_name(args.policy)
    sim_cfg = cfg.sim_config()
    with _outputs(args.out, args.stats_out) as (out, stats_out):
        result = run(make_policy(kind, sim_cfg.problem), cfg.market(), sim_cfg)
        _write_paths_csv(result, out)
        if stats_out:
            _write_stats_csv([result], stats_out)
    _print_stats(result.policy_name, result.stats)
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    names = [n for n in args.policies.split(",") if n.strip()]
    if not names:
        raise ConfigurationError("--policies must name at least one policy")
    kinds = [_parse_policy_name(n) for n in names]
    sim_cfg = cfg.sim_config()
    with _outputs(args.out) as (out,):
        policies = [make_policy(kind, sim_cfg.problem) for kind in kinds]
        table = compare(policies, cfg.market(), sim_cfg)
        _write_stats_csv(table.results, out)
    for result in table.results:
        _print_stats(result.policy_name, result.stats)
    for pw in table.pairwise:
        print(
            f"mean diff {pw.policy_a} - {pw.policy_b}: {pw.mean_diff:.6f}"
            f"  99% CI [{pw.ci_low:.6f}, {pw.ci_high:.6f}]"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _outputs(args.json_out) as (json_out,):
        if args.suite == "all":
            reports = verify_mod.run_all()
        else:
            reports = [verify_mod.SUITES[args.suite]()]
        for rep in reports:
            print(rep.render())
        overall = all(rep.overall for rep in reports)
        if json_out:
            doc = {"reports": [rep.to_dict() for rep in reports], "overall": overall}
            json.dump(doc, json_out, indent=2)
            json_out.write("\n")
    print(f"verify: {'PASS' if overall else 'FAIL'}")
    return EXIT_OK if overall else EXIT_VERIFY_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
