"""The three benchmark workloads: inputs from a seed, one op, and a check.

Each workload calls knotid only through the names bound in ``knotid.cli``,
looked up at call time, so the tracer can wrap them from outside. The
checks read public outputs (``Trace.outputs``, ``CellResult``, file bytes)
and compare them with answers known by construction; they call no engine,
graph or protocol code.

This module imports no knotid code itself: ``setup_probe.py`` times the
import of the package as part of set-up.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import replace
from random import Random

# Base seeds of different benchmark seeds are this far apart, so no two
# benchmark seeds share a sweep cell.
SEED_STRIDE = 1_000_000

SIZES = {
    "full": {
        "sweep-c5": {"n": 50, "cycle_sizes": (4, 12, 24, 48), "m": 5,
                     "horizon": 6000},
        "run-n100": {"n": 100, "k": 10, "m": 5, "horizon": 6000},
        "worst-case": {"n": 256},
    },
    # Used by selfcheck.py only: every path runs, in well under a second.
    "tiny": {
        "sweep-c5": {"n": 12, "cycle_sizes": (2, 3, 4, 6), "m": 2,
                     "horizon": 200},
        "run-n100": {"n": 12, "k": 3, "m": 2, "horizon": 200},
        "worst-case": {"n": 8},
    },
}


def load_cli(root: str):
    """Import ``knotid.cli`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "knotid", "cli.py")):
        raise ImportError(f"no knotid sources under {src}")
    sys.path.insert(0, src)
    cli = importlib.import_module("knotid.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise ImportError(f"knotid was imported from {cli.__file__}, not {src}")
    return cli


def make(name: str, cli, seed: int, size: str, expect_wrong: bool):
    """Build workload ``name``. ``expect_wrong`` makes every expected answer
    wrong on purpose, so the self-check can see failures being counted."""
    cls = {"sweep-c5": SweepC5, "run-n100": RunN100,
           "worst-case": WorstCase}[name]
    return cls(cli, seed, SIZES[size][name], expect_wrong)


def _knot_errors(trace, expected_members: tuple, horizon: int) -> list:
    """Every process decided within the horizon, on ``expected_members``."""
    errors = []
    for pid in range(trace.n):
        entry = trace.outputs.get(pid)
        if entry is None:
            errors.append(f"process {pid} never decided")
            continue
        knot, round_index = entry
        if tuple(knot.members) != expected_members:
            errors.append(f"process {pid} decided {knot.members}, "
                          f"expected {expected_members}")
        if not 1 <= round_index <= horizon:
            errors.append(f"process {pid} decided at round {round_index}")
    return errors


def _decision_rounds(trace) -> list:
    return [entry[1] for entry in trace.outputs.values() if entry is not None]


def _trace_counts(trace) -> dict:
    """Engine and detection work read from one run's public outputs."""
    rounds = _decision_rounds(trace)
    return {
        "engine.rounds": len(trace.round_metrics),
        "engine.messages": sum(m.messages for m in trace.round_metrics),
        "engine.payload_edges": sum(m.payload_edges
                                    for m in trace.round_metrics),
        "engine.last_decision_round": max(rounds) if rounds else 0,
        "graph.detect.log_entries": sum(len(log) for log in
                                        trace.observation_logs.values()),
    }


class SweepC5:
    """``run_sweep`` over the criterion-5 grid with one seed per cycle size.

    Op ``j`` sweeps cycle sizes 4, 12, 24 and 48 with base seed
    ``seed * SEED_STRIDE + 4 * j``, so no cell repeats. An op is a whole
    grid, not one cell, because cell times differ by a factor of five across
    cycle sizes; medians over single cells would jump between sizes.
    """

    def __init__(self, cli, seed: int, size: dict, expect_wrong: bool):
        self.cli = cli
        self.size = size
        self.base_seed = seed * SEED_STRIDE
        self.expect_wrong = expect_wrong
        self.config = None
        self.captured: list = []

    def prepare(self, work_dir: str) -> dict:
        """Build the config the way ``knotid sweep`` builds it from flags."""
        self.config = self.cli.config_from_sources({}, {
            "n": self.size["n"], "cycle_sizes": self.size["cycle_sizes"],
            "edges_per_round": (self.size["m"],),
            "horizon": self.size["horizon"], "num_seeds": 1, "workers": 1,
        })
        return {}

    def _first_seed(self, j: int) -> int:
        return self.base_seed + len(self.size["cycle_sizes"]) * j

    def op(self, j: int):
        """One sweep. Each cell's trace is kept for the check by a shim on
        ``cli.run`` that only stores the result and reads no clock."""
        cli = self.cli
        cfg = replace(self.config, base_seed=self._first_seed(j))
        original = cli.run
        captured = self.captured = []

        def capture(*args, **kwargs):
            trace = original(*args, **kwargs)
            captured.append(trace)
            return trace

        cli.run = capture
        try:
            return cli.run_sweep(cfg)
        finally:
            cli.run = original

    def check(self, j: int, result) -> list:
        cells, means = result
        sizes = self.size["cycle_sizes"]
        if not len(cells) == len(means) == len(self.captured) == len(sizes):
            return [f"expected {len(sizes)} cells, mean rows and runs, got "
                    f"{len(cells)}, {len(means)} and {len(self.captured)}"]
        errors = []
        for index, (k, cell, mean, trace) in enumerate(
                zip(sizes, cells, means, self.captured)):
            expected = tuple(range(k))  # gen_backbone's cycle by construction
            if self.expect_wrong:
                expected = expected[1:]
            errors += _knot_errors(trace, expected, self.size["horizon"])
            if not (cell.agreement and cell.termination):
                errors.append(f"cell {index}: agreement={cell.agreement} "
                              f"termination={cell.termination}")
            if cell.knot_size != len(expected):
                errors.append(f"cell {index}: knot size {cell.knot_size}")
            rounds = _decision_rounds(trace)
            if rounds and cell.longest != max(rounds):
                errors.append(f"cell {index}: longest {cell.longest} != "
                              f"{max(rounds)}")
            if cell.seed != self._first_seed(j) + index:
                errors.append(f"cell {index}: seed {cell.seed}")
            if mean.excluded or mean.mean != cell.longest:
                errors.append(f"cell {index}: mean row {mean}")
        return errors

    def counts(self, result) -> dict:
        counts: dict = {"cli.cells": len(result[0]),
                        "adversary.rounds_generated": 0}
        for trace in self.captured:
            for name, value in _trace_counts(trace).items():
                counts[name] = counts.get(name, 0) + value
            counts["adversary.rounds_generated"] += trace.horizon
        return counts


class RunN100:
    """One ``knotid run FILE``: load, run, verify and the three writers.

    Set-up generates and saves one schedule from the seed, the way ``knotid
    gen --seed`` does. Every op must write the same trace and rounds bytes.
    """

    def __init__(self, cli, seed: int, size: dict, expect_wrong: bool):
        self.cli = cli
        self.seed = seed
        self.size = size
        self.expect_wrong = expect_wrong
        self.path = ""
        self.prefix = ""
        self.first_bytes = None

    def prepare(self, work_dir: str) -> dict:
        size = self.size
        rng = Random(self.seed)
        backbone = self.cli.gen_backbone(size["n"], size["k"],
                                         rng.getrandbits(64))
        schedule = self.cli.gen_computation(backbone, size["m"],
                                            size["horizon"],
                                            rng.getrandbits(64))
        self.path = os.path.join(work_dir, "schedule.txt")
        self.prefix = os.path.join(work_dir, "out")
        self.cli.save_schedule(schedule, self.path)
        return {"adversary.rounds_generated": schedule.horizon}

    def op(self, j: int):
        cli = self.cli
        schedule = cli.load_schedule(self.path)
        trace = cli.run(schedule)
        verdict = cli.verify(trace)
        cli.write_trace_csv(trace, self.prefix + "_trace.csv")
        cli.write_round_metrics_csv(trace, self.prefix + "_rounds.csv")
        cli.write_diagnostics_jsonl(verdict, self.prefix + "_diagnostics.jsonl")
        return schedule, trace, verdict

    def _read(self, suffix: str) -> bytes:
        with open(self.prefix + suffix, "rb") as fh:
            return fh.read()

    def check(self, j: int, result) -> list:
        schedule, trace, verdict = result
        size = self.size
        expected = tuple(range(size["k"]))
        if self.expect_wrong:
            expected = expected[1:]
        errors = _knot_errors(trace, expected, size["horizon"])
        if not (verdict.agreement and verdict.termination):
            errors.append(f"verdict agreement={verdict.agreement} "
                          f"termination={verdict.termination}")
        if verdict.knot is None or tuple(verdict.knot.members) != expected:
            errors.append(f"verdict knot {verdict.knot}")
        written = (self._read("_trace.csv"), self._read("_rounds.csv"))
        if self.first_bytes is None:
            errors += self._file_errors(trace, expected, *written)
            self.first_bytes = written
        elif written != self.first_bytes:
            errors.append("trace or rounds CSV bytes differ from the first op")
        return errors

    def _file_errors(self, trace, expected: tuple, trace_csv: bytes,
                     rounds_csv: bytes) -> list:
        """The first op's files, checked line by line against the trace and
        the generator parameters."""
        errors = []
        members = "|".join(str(m) for m in expected)
        lines = trace_csv.decode().splitlines()
        want = ["process,output_round,knot_members"] + [
            f"{pid},{trace.outputs[pid][1]},{members}"
            for pid in range(self.size["n"]) if trace.outputs.get(pid)]
        if lines != want:
            errors.append("trace CSV does not list every decision")
        rows = rounds_csv.decode().splitlines()
        if (len(rows) != self.size["horizon"] + 1
                or any(not row.startswith(f"{i},{self.size['m']},")
                       for i, row in enumerate(rows[1:], start=1))):
            errors.append("rounds CSV is not one row per round with "
                          f"{self.size['m']} messages")
        return errors

    def counts(self, result) -> dict:
        schedule, trace, _ = result
        counts = _trace_counts(trace)
        counts["adversary.edges_loaded"] = sum(len(s) for s in schedule.states)
        counts["engine.writers.bytes"] = sum(
            os.path.getsize(self.prefix + suffix) for suffix in
            ("_trace.csv", "_rounds.csv", "_diagnostics.jsonl"))
        return counts


class WorstCase:
    """``run(worst_case_schedule(N))``: the 2N-1 round bound.

    The schedule is unique for N, so the seed changes nothing here. By
    construction process p decides at round N + p, on the knot of all N
    processes.
    """

    def __init__(self, cli, seed: int, size: dict, expect_wrong: bool):
        self.cli = cli
        self.n = size["n"]
        self.expect_wrong = expect_wrong

    def prepare(self, work_dir: str) -> dict:
        return {}

    def op(self, j: int):
        return self.cli.run(self.cli.worst_case_schedule(self.n))

    def check(self, j: int, trace) -> list:
        n = self.n
        bound = 2 * n - 1 + (1 if self.expect_wrong else 0)
        errors = _knot_errors(trace, tuple(range(n)), bound)
        rounds = _decision_rounds(trace)
        if max(rounds, default=0) != bound:
            errors.append(f"longest output {max(rounds, default=0)}, "
                          f"expected {bound}")
        for pid in range(n):
            entry = trace.outputs.get(pid)
            if entry is not None and entry[1] != n + pid:
                errors.append(f"process {pid} decided at {entry[1]}, "
                              f"expected {n + pid}")
        return errors

    def counts(self, trace) -> dict:
        counts = _trace_counts(trace)
        counts["adversary.rounds_generated"] = trace.horizon
        return counts
