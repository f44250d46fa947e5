"""Command line harness: gen, run, sweep and verify.

``run`` executes one schedule, from a file or generated from flags, and
writes its trace, round metrics and diagnostics; ``verify`` runs a schedule
file and reports primary uniformity, the same verdict rendered per process
and per knot.

Sweeps reproduce the experiment grid (cycle size x edges per round x seed)
and emit a single CSV with one row per cell plus one mean row per
(cycle_size, edges_per_round) group. Every CSV embeds the canonical config
in a comment header so rerunning the same command reproduces the same bytes.

Exit codes: 0 when the requested properties hold, 1 on a property violation,
2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from random import Random
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from .adversary import (
    INT,
    MAX_HORIZON,
    MAX_PROCESSES,
    SPACE,
    Schedule,
    bounded,
    computation_rounds,
    gen_backbone,
    gen_computation,
    integer,
    load_schedule,
    numbered_lines,
    save_schedule,
    worst_case_schedule,
    write_lines,
)
from .engine import (
    csv_lines,
    fmt_knot,
    longest_output_time,
    run,
    verify,
    write_diagnostics_jsonl,
    write_round_metrics_csv,
    write_trace_csv,
)

WORKERS_ENV = "KNOTID_WORKERS"
# Sweep cells held at once: about 0.3 KiB each, 0.4 KiB with --workers > 1.
MAX_SWEEP_CELLS = 100_000
# Worker processes. Under the fork start method the pool starts all of them
# at its first task, so a mistyped count would ask the OS for that many
# processes at once; 256 is far above the cores a sweep can use.
MAX_WORKERS = 256

_RANGE = re.compile(rf"({INT}):({INT})(?::({INT}))?")


def parse_int_list(text: str, name: str = "value") -> Tuple[int, ...]:
    """Comma-separated ints where each item may be a start:stop[:step]
    range, stop inclusive, and each number must match ``INT`` whole (no
    spaces). Example: "2,4:10:2" -> (2, 4, 6, 8, 10). Errors name ``name``."""
    values: List[int] = []
    for item in text.split(","):
        if ":" not in item:
            values.append(integer(item, name))
            continue
        match = _RANGE.fullmatch(item)
        if match is None:
            raise ValueError(f"bad range for {name}: {item!r}, want "
                             "start:stop[:step]")
        start, stop, step = map(int, match.groups("1"))  # step 1 if absent
        if step <= 0 or not 0 <= start <= stop <= MAX_PROCESSES:
            raise ValueError(f"bad range for {name}: {item!r}, want step >= 1 "
                             f"and 0 <= start <= stop <= {MAX_PROCESSES}")
        values.extend(range(start, stop + 1, step))
    return tuple(values)


@dataclass
class ExperimentConfig:
    """One sweep definition. Each field is a ``sweep`` flag and a config
    file key of the same name; a ``help`` in its metadata is the flag's."""

    n: int = 100
    cycle_sizes: Tuple[int, ...] = field(default=(10,), metadata={
        "help": "comma list and/or start:stop[:step] ranges"})
    edges_per_round: Tuple[int, ...] = field(default=(5,), metadata={
        "help": "comma list of edges appearing per round"})
    horizon: int = 6000
    num_seeds: int = 10
    base_seed: int = 0
    min_knot_size: int = 2
    workers: int = field(default=1, metadata={
        "help": f"parallel cells (default ${WORKERS_ENV} or 1)"})
    out: str = field(default="sweep.csv", metadata={"help": "CSV path"})

    # Left out of the canonical string: they change wall time and where the
    # CSV goes, never its rows.
    RUN_ONLY = ("workers", "out")

    def validate(self, lines: Optional[dict] = None) -> None:
        """Check every bound. ``lines`` maps a key set by a config line to
        that line's ``path:line: ``, which then starts the key's message."""
        at = {f.name: (lines or {}).get(f.name, "") + f.name
              for f in fields(self)}
        bounded(at["n"], self.n, 2, MAX_PROCESSES)
        bounded(at["horizon"], self.horizon, 1, MAX_HORIZON)
        bounded(at["num_seeds"], self.num_seeds, 1)
        bounded(at["base_seed"], self.base_seed, 0)  # Random(-s) replays s
        cells = len(self.cycle_sizes) * len(self.edges_per_round) * self.num_seeds
        if cells > MAX_SWEEP_CELLS:
            raise ValueError(f"sweep grid of {cells} cells exceeds the cap "
                             f"of {MAX_SWEEP_CELLS}")
        bounded(at["min_knot_size"], self.min_knot_size, 2)
        bounded(at["workers"], self.workers, 1, MAX_WORKERS)
        for k in self.cycle_sizes:
            bounded(at["cycle_sizes"], k, 2, self.n)
        for m in self.edges_per_round:
            bounded(at["edges_per_round"], m, 1, self.n)

    def canonical(self) -> str:
        """``key=value`` for every field but the run-only ones, keys sorted
        and lists comma-joined."""
        items = []
        for name in sorted(f.name for f in fields(self)
                           if f.name not in self.RUN_ONLY):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            items.append(f"{name}={value}")
        return " ".join(items)


def read_config_file(path: str) -> Tuple[dict, dict]:
    """key=value lines, '#' starts a comment; a key may appear once. Returns
    the values by key and each key's ``path:line: ``."""
    raw: dict = {}
    lines: dict = {}
    try:
        for lineno, line in numbered_lines(path):
            line = line.split("#", 1)[0].strip(SPACE)
            if not line:
                continue
            key, sep, value = (part.strip(SPACE)
                               for part in line.partition("="))
            where = f"{path}:{lineno}: "
            try:
                if not sep:
                    raise ValueError("expected key=value")
                value = _config_value(key, value)
                if key in raw:
                    raise ValueError(f"repeated key {key!r}")
            except ValueError as exc:
                raise ValueError(where + str(exc)) from exc
            raw[key] = value
            lines[key] = where
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return raw, lines


def _config_value(key: str, value):
    """Check a config key; convert a text value by its field's default type.
    Flags, config lines and ``$KNOTID_WORKERS`` all arrive as text."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    if key not in defaults:
        raise ValueError(f"unknown config key {key!r}")
    if isinstance(value, str) and isinstance(defaults[key], tuple):
        return parse_int_list(value, key)
    if isinstance(value, str) and isinstance(defaults[key], int):
        return integer(value, key)
    return value


def config_from_sources(file_values: dict, flag_values: dict,
                        file_lines: Optional[dict] = None) -> ExperimentConfig:
    """Build a config from a file, then let explicit flags override it.
    ``file_lines`` maps a file key to its ``path:line: ``, so a bound broken
    by a value the file set names that line."""
    flags = {k: v for k, v in flag_values.items() if v is not None}
    merged = {**file_values, **flags}
    cfg = ExperimentConfig(**{key: _config_value(key, value)
                              for key, value in merged.items()})
    cfg.validate({key: where for key, where in (file_lines or {}).items()
                  if key not in flags})
    return cfg


@dataclass
class CellResult:
    cycle_size: int
    edges_per_round: int
    seed: int
    longest: Optional[int]
    agreement: bool
    termination: bool
    knot_size: Optional[int]


@dataclass
class MeanRow:
    cycle_size: int
    edges_per_round: int
    mean: Optional[float]
    excluded: int


def _seeded_backbone(n: int, cycle_size: int, seed: int) -> tuple:
    """One seed's backbone and computation seed: ``Random(seed)`` draws the
    backbone's seed, then the computation's."""
    rng = Random(seed)
    backbone = gen_backbone(n, cycle_size, rng.getrandbits(64))
    return backbone, rng.getrandbits(64)


def _run_cell(task: tuple) -> CellResult:
    """One cell, stopped at its last decision: the row reads only outputs."""
    n, cycle_size, edges, horizon, min_knot_size, cell_seed = task
    backbone, computation_seed = _seeded_backbone(n, cycle_size, cell_seed)
    rounds = computation_rounds(backbone, edges, computation_seed)
    trace = run(SimpleNamespace(n=n, states=islice(rounds, horizon)),
                min_knot_size=min_knot_size, stop_when_decided=True)
    verdict = verify(trace)
    return CellResult(
        cycle_size=cycle_size,
        edges_per_round=edges,
        seed=cell_seed,
        longest=longest_output_time(trace),
        agreement=verdict.agreement,
        termination=verdict.termination,
        knot_size=len(verdict.knot) if verdict.knot is not None else None,
    )


def run_sweep(cfg: ExperimentConfig) -> Tuple[List[CellResult], List[MeanRow]]:
    """Execute every (cycle_size, edges_per_round, seed) cell.

    Cell seeds are base_seed + cell index, counted in CSV row order, so any
    cell can be reproduced in isolation. Workers only change wall time, never
    results or row order.
    """
    groups = [(k, m) for k in cfg.cycle_sizes for m in cfg.edges_per_round]
    size = cfg.num_seeds
    tasks = [(cfg.n, k, m, cfg.horizon, cfg.min_knot_size,
              cfg.base_seed + g * size + s)
             for g, (k, m) in enumerate(groups) for s in range(size)]
    if cfg.workers > 1:
        # Imported here: the pool's modules are a large share of this
        # module's cold import, and a serial sweep never needs them.
        from concurrent.futures import ProcessPoolExecutor
        chunk = 1 + len(tasks) // (64 * cfg.workers)  # 64 chunks a worker
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            cells = list(pool.map(_run_cell, tasks, chunksize=chunk))
    else:
        cells = [_run_cell(task) for task in tasks]

    means: List[MeanRow] = []
    for g, (k, m) in enumerate(groups):
        group = cells[g * size:(g + 1) * size]
        included = [c.longest for c in group if c.longest is not None]
        means.append(MeanRow(
            cycle_size=k,
            edges_per_round=m,
            mean=sum(included) / len(included) if included else None,
            excluded=len(group) - len(included),
        ))
    return cells, means


SWEEP_COLUMNS = ("cycle_size", "edges_per_round", "seed",
                 "longest_output_round", "mean_output_round", "agreement",
                 "termination", "knot_size", "excluded")


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _sweep_rows(cfg: ExperimentConfig, cells: Sequence[CellResult],
                means: Sequence[MeanRow]):
    size = cfg.num_seeds  # cells come in row order, one group per mean
    for index, mean_row in enumerate(means):
        for cell in cells[index * size:(index + 1) * size]:
            yield (cell.cycle_size, cell.edges_per_round, cell.seed,
                   cell.longest, None, _bool_str(cell.agreement),
                   _bool_str(cell.termination), cell.knot_size,
                   int(cell.longest is None))
        yield (mean_row.cycle_size, mean_row.edges_per_round, None, None,
               None if mean_row.mean is None else f"{mean_row.mean:.3f}",
               None, None, None, mean_row.excluded)


def write_sweep_csv(cfg: ExperimentConfig, cells: Sequence[CellResult],
                    means: Sequence[MeanRow], path: str) -> None:
    write_lines(path, chain((f"# config: {cfg.canonical()}",), csv_lines(
        SWEEP_COLUMNS, _sweep_rows(cfg, cells, means))))


# Generator flag -> its default, applied only when a schedule is generated.
_GENERATOR_DEFAULTS = {"n": 100, "cycle_size": 10, "edges_per_round": 5,
                       "horizon": 6000, "seed": 0}


def _reject_given(args: argparse.Namespace, keys, source: str) -> None:
    """Usage error naming every flag among ``keys`` given with ``source``."""
    given = ["--" + key.replace("_", "-") for key in keys
             if getattr(args, key) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: generator flags cannot "
                         f"be combined with {source}")


def _schedule_from_args(args: argparse.Namespace) -> Schedule:
    if getattr(args, "schedule", None):
        _reject_given(args, (*_GENERATOR_DEFAULTS, "worst_case"),
                      "a schedule file")
        return load_schedule(args.schedule)
    if args.worst_case is not None:
        _reject_given(args, _GENERATOR_DEFAULTS, "--worst-case")
        return worst_case_schedule(args.worst_case)
    n, cycle_size, edges_per_round, horizon, seed = (
        default if getattr(args, key) is None else getattr(args, key)
        for key, default in _GENERATOR_DEFAULTS.items())
    bounded("seed", seed, 0)  # Random(-s) would replay the rounds of s
    bounded("horizon", horizon, 1, MAX_HORIZON)
    backbone, computation_seed = _seeded_backbone(n, cycle_size, seed)
    return gen_computation(backbone, edges_per_round, horizon,
                           computation_seed)


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    for key, text in (("n", "process count"),
                      ("cycle_size", "backbone cycle size"),
                      ("edges_per_round", "backbone edges appearing per round"),
                      ("horizon", "number of rounds to generate"),
                      ("seed", "generator seed")):
        parser.add_argument("--" + key.replace("_", "-"), type=integer,
                            help=f"{text} (default {_GENERATOR_DEFAULTS[key]})")
    parser.add_argument("--worst-case", type=integer, metavar="N", default=None,
                        help="emit the deterministic 2N-1 round worst case "
                             "instead of a backbone computation")


def cmd_gen(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    save_schedule(schedule, args.out)
    print(f"wrote {args.out}: n={schedule.n} horizon={schedule.horizon}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    trace = run(schedule, min_knot_size=args.min_knot_size)
    verdict = verify(trace)
    write_trace_csv(trace, f"{args.out}_trace.csv")
    write_round_metrics_csv(trace, f"{args.out}_rounds.csv")
    write_diagnostics_jsonl(verdict, f"{args.out}_diagnostics.jsonl")
    longest = longest_output_time(trace)
    print(f"processes: {schedule.n}  rounds: {schedule.horizon}")
    print("longest output round: "
          + (str(longest) if longest is not None else "absent"))
    print(f"agreement: {_bool_str(verdict.agreement)}")
    print(f"termination: {_bool_str(verdict.termination)}")
    if verdict.knot is not None:
        print(f"knot: {fmt_knot(verdict.knot)}")
    print(f"diagnostics: {len(verdict.diagnostics)}")
    return 0 if verdict.uniform else 1


def cmd_verify(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.schedule)
    verdict = verify(run(schedule, min_knot_size=args.min_knot_size))
    print(f"uniform: {_bool_str(verdict.uniform)}")
    for pid in sorted(verdict.per_process):
        entry = verdict.per_process[pid]
        if entry is None:
            print(f"process {pid}: no primary knot within horizon")
        else:
            print(f"process {pid}: primary {fmt_knot(entry[0])} "
                  f"at round {entry[1]}")
    for knot in sorted(verdict.globally_observable):
        flag = _bool_str(verdict.globally_observable[knot])
        print(f"knot {fmt_knot(knot)}: globally observable {flag}")
    if args.json:
        write_lines(args.json, [json.dumps(verdict.to_jsonable(), indent=2,
                                           sort_keys=True)])
    return 0 if verdict.uniform else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    file_values, file_lines = (read_config_file(args.config) if args.config
                               else ({}, {}))
    flag_values = {f.name: getattr(args, f.name)
                   for f in fields(ExperimentConfig)}
    if flag_values["workers"] is None:
        flag_values["workers"] = os.environ.get(WORKERS_ENV)
    cfg = config_from_sources(file_values, flag_values, file_lines)
    open(cfg.out, "ab").close()  # fails before any cell
    cells, means = run_sweep(cfg)
    write_sweep_csv(cfg, cells, means, cfg.out)
    violations = sum(1 for c in cells if not (c.agreement and c.termination))
    print(f"wrote {cfg.out}: {len(cells)} cells, {len(means)} mean rows, "
          f"{violations} property violations")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotid",
        description="Simulate knot identification over dynamic-network schedules.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a schedule file")
    _add_generator_flags(gen)
    gen.add_argument("--out", default="schedule.txt", help="output path")
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="run one schedule end to end")
    runp.add_argument("schedule", nargs="?", default=None,
                      help="schedule file (otherwise generate from flags)")
    _add_generator_flags(runp)
    runp.add_argument("--min-knot-size", type=integer, default=2)
    runp.add_argument("--out", default="run",
                      help="output prefix for trace files (default 'run')")
    runp.set_defaults(func=cmd_run)

    verifyp = sub.add_parser(
        "verify", help="report primary uniformity of a schedule file")
    verifyp.add_argument("schedule")
    verifyp.add_argument("--min-knot-size", type=integer, default=2)
    verifyp.add_argument("--json", default=None,
                         help="also write a JSON report to this path")
    verifyp.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("--config", default=None,
                       help="key=value config file; flags override it")
    for setting in fields(ExperimentConfig):  # text, for _config_value
        sweep.add_argument("--" + setting.name.replace("_", "-"),
                           help=setting.metadata.get("help"))
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
