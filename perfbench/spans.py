"""In-memory spans around the public functions each knotid layer calls.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``uninstall``; nothing under ``src/`` changes. A span is
``(phase, name, start, end, parent, size)``: ``parent`` is the index of the
enclosing span or -1, and ``size`` is the node count handed to knot
detection (0 elsewhere).
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def layer_targets(cli) -> list:
    """(module, attribute, span name) for every wrapped call. Names bound in
    ``knotid.cli`` are what the CLI and the workloads call; knot detection
    is wrapped where the engine looks it up."""
    engine = importlib.import_module(cli.__package__ + ".engine")
    return [
        (cli, "run_sweep", "cli.run_sweep"),
        (cli, "gen_backbone", "adversary.gen_backbone"),
        (cli, "gen_computation", "adversary.gen_computation"),
        (cli, "save_schedule", "adversary.save_schedule"),
        (cli, "load_schedule", "adversary.load_schedule"),
        (cli, "run", "engine.run"),
        (cli, "verify", "engine.verify"),
        (cli, "write_trace_csv", "engine.writers"),
        (cli, "write_round_metrics_csv", "engine.writers"),
        (cli, "write_diagnostics_jsonl", "engine.writers"),
        (engine, "knots_from_adjacency", "graph.knots_from_adjacency"),
    ]


class Tracer:
    def __init__(self, targets: list) -> None:
        self.targets = targets
        self.spans: list = []
        self.phase = "setup"
        self._stack: list = []
        self._saved: list = []

    def _open(self, name: str, size: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.phase, name, perf_counter(), 0.0, parent, size])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name, 0)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        sized = name == "graph.knots_from_adjacency"

        def traced(*args, **kwargs):
            index = self._open(name, len(args[0]) if sized else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self) -> None:
        for module, attr, name in self.targets:
            original = getattr(module, attr, None)
            if original is None:  # a layer this version no longer has
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> dict:
        """(phase, name) -> {"calls", "s", "self_s", "max_size"}. Self time
        is a span's duration minus that of its direct children; spans of one
        thread nest, so children never overlap."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = {}
        for index, (phase, name, start, end, _, size) in enumerate(self.spans):
            entry = totals.setdefault((phase, name), {
                "calls": 0, "s": 0.0, "self_s": 0.0, "max_size": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["max_size"] = max(entry["max_size"], size)
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for phase, name, start, end, parent, size in self.spans:
                fh.write(json.dumps({"phase": phase, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")
