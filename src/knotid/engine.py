"""Round-driven scheduler, trace collection, and the property verifier.

One round executes one state graph: every process with outgoing links sends
its pre-round observation-graph snapshot down each of them, every process
with incoming links merges what arrived (payloads plus the links
themselves), then checks its graph for knots. All sends of a round are
derived from end-of-previous-round state, so receive order within a round
cannot matter and the whole run is deterministic.

The hot loop keeps what each process knows as one bit mask in a Python int.
Knot detection ignores stamps, and projecting a union of temporal edges onto
static arcs gives the union of their projections, so all detection needs is
``known_arcs[p]``, a mask over dense arc ids. Ids go to ``(src, dst)`` pairs
in first-seen order, so the mask is as wide as the schedule's distinct arcs,
not n². A receipt is ``known_arcs[dst] |= pre[src] | bit(link)``, where
``pre`` maps each of the round's receivers to its mask before the round,
kept at its first link. Only receivers' masks change during a round, so a
sender absent from ``pre`` still holds its pre-round mask, and since ints
are immutable, ``pre`` is the whole snapshot: a round costs O(links), not
O(n).

Knot detection runs only when a receiver's arc mask grew, and searches
its whole graph: every node of a process's graph reaches it, so one
backward Tarjan pass from the receiver alone visits them all, reading
predecessors from ``in_arcs``, a run-wide index of each node's in-arcs
filtered by the receiver's mask. A per-run memo maps an arc mask to the
knots of that arc set: knots ignore stamps, ``min_knot_size`` is fixed,
arc ids are only appended and masks only grow, so a mask names one arc set
all run long. Since every node reaches the receiver, the receiver is the
only node that can lack an out-arc; when it does (``out_of``), it is a
one-node SCC and its in-arcs (``into``) enter no knot, so the knots are
those of its core, the mask without them. Each search is stored under the
mask and the core: a sink that hears one sender knowing the rest of its
graph finds its core stored as that sender's mask.

The loop makes one pass over ``schedule.states``, so any iterable of rounds
will do, and ``Trace.rounds`` keeps each round it executed as a tuple of
links. ``stop_when_decided=True`` ends it after the round in which the last
process decides: outputs are final, so it skips only the later rounds'
metrics and log entries, and ``Trace.horizon`` counts the rounds executed.

Round metrics come from a separate pass, ``round_metrics``, over those
rounds, run only when ``Trace.round_metrics`` is first read, so a sweep,
which reads only outputs, never pays for it. A message's payload is the
number of temporal edges its sender knew before the round. An edge
``(u, v, t)`` first reaches v itself, in round t, with every other edge
into v stamped up to t, and reaches anyone else only through a snapshot of
v, so what a process knows of v's in-edges is a stamp prefix, and one count
per node says it exactly, as a vector clock does. ``known[p]`` packs p's n
counts into one int of n fields of ``w + 1`` bits, where ``2**w`` exceeds
the schedule's link total and so every count. A receipt is a fieldwise max,
done with the fields' top (guard) bits, then one more in-edge at the
receiver; a payload is the sum of the sender's fields, which is the int
modulo ``2**(w + 1) - 1`` because that sum stays below ``2**w``. A receipt
costs n(w + 1) bits of arithmetic, whatever the round: less than a mask
over the temporal edges so far once a run has passed about n(w + 1) links,
and more in a sparse run such as the 2n-1 round worst case.

``reference_run`` is the same run by the plain per-process state machine:
each round it hands every receiver its ``(pre-round lg, TemporalEdge)``
receipts through ``protocol.on_state``, whose knots come from
``reachability_knots``, not the loop's Tarjan. Its ``Trace`` carries its
own counts from those graphs, so ``run(s) == reference_run(s)`` checks
outputs, logs and the packed pass at once. It keeps a frozenset of temporal
edges per process and a reachability search per receipt; use it to test.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from .adversary import bounded, write_lines
from .graph import Knot, TemporalEdge, knots_from_adjacency
from .protocol import ProcessState, on_state, primary_tie_break


class RoundMetric(NamedTuple):
    round: int
    messages: int
    payload_edges: int


def round_metrics(n: int, rounds: Sequence) -> List[RoundMetric]:
    """One ``RoundMetric`` per round of ``(src, dst)`` links: its message
    count, and the temporal edges its senders knew before it."""
    w = sum(map(len, rounds)).bit_length()  # every count is below 2**w
    f = w + 1                               # field width, with a guard bit
    guards = ((1 << n * f) - 1) // ((1 << f) - 1) << w
    fold = (1 << f) - 1  # x % fold sums the fields of x
    known = [0] * n      # process -> field v counts v's known in-edges
    metrics: List[RoundMetric] = []
    for round_index, state in enumerate(rounds, start=1):
        pre = known[:]
        payload_edges = 0
        for src, dst in state:
            a, b = known[dst], pre[src]
            g = ((a | guards) - b) & guards  # guard bit set where a >= b
            keep = g - (g >> w)
            known[dst] = (b ^ ((a ^ b) & keep)) + (1 << dst * f)
            payload_edges += b % fold
        metrics.append(RoundMetric(round_index, len(state), payload_edges))
    return metrics


@dataclass(eq=False)
class Trace:
    """Everything observable about one run.

    Outputs and observation logs are keyed by process id; ``outputs[p]`` is
    (knot, round) or None when p never decided. ``rounds`` holds the links
    of each round executed; ``horizon`` counts them and ``round_metrics``,
    computed on first read, gives their metrics. Traces compare by n,
    outputs, logs and round metrics.
    """

    n: int
    outputs: dict
    observation_logs: dict
    rounds: List[tuple] = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.rounds)

    @cached_property
    def round_metrics(self) -> List[RoundMetric]:
        return round_metrics(self.n, self.rounds)

    def __eq__(self, other) -> bool:
        return isinstance(other, Trace) and all(
            getattr(self, name) == getattr(other, name) for name in
            ("n", "outputs", "observation_logs", "round_metrics"))


@dataclass
class Verdict:
    """Did a trace satisfy agreement and termination, and if not, why not.

    ``per_process`` is the trace's outputs, ``globally_observable`` maps every
    logged knot to whether every process logged it, and each diagnostic is a
    ``{"kind", "process", "round", "knot"}`` record with ``None`` where its
    kind has no such field.
    """

    agreement: bool
    termination: bool
    knot: Optional[Knot]
    per_process: dict = field(default_factory=dict)
    globally_observable: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    @property
    def uniform(self) -> bool:
        """Every process decided, and all on the same primary knot."""
        return self.agreement and self.termination

    def to_jsonable(self) -> dict:
        per_process = {
            str(pid): (None if entry is None
                       else {"knot": list(entry[0].members), "round": entry[1]})
            for pid, entry in sorted(self.per_process.items())}
        observability = [
            {"knot": list(k.members), "globally_observable": flag}
            for k, flag in sorted(self.globally_observable.items())]
        return {"uniform": self.uniform, "per_process": per_process,
                "globally_observable": observability,
                "diagnostics": self.diagnostics}


def run(schedule, min_knot_size: int = 2,
        stop_when_decided: bool = False) -> Trace:
    """Execute a schedule against one process state machine per process.

    ``schedule`` needs only ``n`` and ``states``, an iterable of rounds read
    once and kept in ``Trace.rounds``. ``stop_when_decided`` ends the run
    after the round in which every process has decided, skipping the later
    rounds' metrics and log entries; a run in which some process never
    decides runs every round. The knot memo holds each searched arc set
    under its mask and its core.
    """
    bounded("min_knot_size", min_knot_size, 2)
    n = schedule.n
    arc_bits: Dict[tuple, int] = {}  # (src, dst) -> 1 << dense arc id
    in_arcs: Dict[int, list] = {}    # node -> [(1 << arc id, src)] into it
    into = [0] * n                   # node -> mask of the arcs into it
    out_of = [0] * n                 # node -> mask of the arcs out of it
    known_arcs = [0] * n
    knots_of: Dict[int, list] = {}   # arc mask -> knots of that arc set
    logs: List[dict] = [{} for _ in range(n)]  # knot -> first round, in order
    outputs: list = [None] * n
    rounds: List[tuple] = []         # the links of each round executed
    undecided = n

    for round_index, state in enumerate(schedule.states, start=1):
        state = tuple(state)
        rounds.append(state)
        pre: Dict[int, int] = {}  # receiver -> its mask before the round
        for link in state:
            src, dst = link
            bit = arc_bits.get(link)
            if bit is None:
                bit = arc_bits[link] = 1 << len(arc_bits)
                in_arcs.setdefault(dst, []).append((bit, src))
                into[dst] |= bit
                out_of[src] |= bit
            if dst not in pre:
                pre[dst] = known_arcs[dst]
            known_arcs[dst] |= pre.get(src, known_arcs[src]) | bit

        for dst, before in pre.items():
            arcs = known_arcs[dst]
            if arcs == before:
                continue
            knots = knots_of.get(arcs)
            if knots is None:
                # a receiver with no out-arc is a one-node SCC, and the
                # arcs into it enter no knot
                core = arcs if arcs & out_of[dst] else arcs & ~into[dst]
                knots = knots_of.get(core)
                if knots is None:
                    knots = knots_from_adjacency(
                        (dst,), lambda v: [src for bit, src
                                           in in_arcs.get(v, ())
                                           if arcs & bit], min_knot_size)
                knots_of[arcs] = knots_of[core] = knots
            log = logs[dst]
            fresh = [k for k in knots if k not in log]
            if fresh:
                for k in fresh:
                    log[k] = round_index
                if outputs[dst] is None:
                    outputs[dst] = (primary_tie_break(fresh), round_index)
                    undecided -= 1

        if stop_when_decided and n and not undecided:
            break

    return Trace(
        n=n,
        outputs=dict(enumerate(outputs)),
        observation_logs={pid: tuple(log.items())
                          for pid, log in enumerate(logs)},
        rounds=rounds,
    )


def reference_run(schedule, min_knot_size: int = 2) -> Trace:
    """``run`` by ``protocol.on_state``, one ``ProcessState`` per process.

    Same contract as ``run`` without early stopping: it reads ``n`` and
    passes once over ``states``. Each round's receipts carry the senders'
    pre-round graphs, and a payload counts its sender's known edges.
    """
    bounded("min_knot_size", min_knot_size, 2)
    procs = [ProcessState(pid) for pid in range(schedule.n)]
    rounds = [tuple(state) for state in schedule.states]
    metrics: List[RoundMetric] = []
    for round_index, state in enumerate(rounds, start=1):
        pre = [p.lg for p in procs]
        incoming: Dict[int, list] = {}
        for src, dst in state:
            incoming.setdefault(dst, []).append(
                (pre[src], TemporalEdge(src, dst, round_index)))
        for dst, receipts in incoming.items():
            procs[dst] = on_state(procs[dst], receipts, round_index,
                                  min_knot_size)
        metrics.append(RoundMetric(round_index, len(state),
                                   sum(len(pre[src]) for src, _ in state)))
    trace = Trace(n=schedule.n, outputs={p.self_id: p.output for p in procs},
                  observation_logs={p.self_id: p.observation_log
                                    for p in procs}, rounds=rounds)
    trace.round_metrics = metrics  # never the packed pass it checks
    return trace


def longest_output_time(t: Trace) -> Optional[int]:
    """Largest output round across processes, None while anyone is missing."""
    rounds = []
    for pid in range(t.n):
        entry = t.outputs.get(pid)
        if entry is None:
            return None
        rounds.append(entry[1])
    return max(rounds) if rounds else None


def fmt_knot(k: Knot) -> str:
    """Members joined by ``|``, as in the trace CSV."""
    return "|".join(str(m) for m in k.members)


def _record(kind: str, process: Optional[int] = None,
            round_index: Optional[int] = None,
            knot: Optional[Knot] = None) -> dict:
    return {"kind": kind, "process": process, "round": round_index,
            "knot": None if knot is None else list(knot.members)}


def verify(t: Trace) -> Verdict:
    """Check agreement (all outputs are the same set) and termination
    (everyone produced an output), and whether every logged knot reached
    every process. Diagnostics name primary ties, output knots some process
    never logged, and processes that never decided."""
    present = [(pid, entry) for pid, entry in sorted(t.outputs.items())
               if entry is not None]
    distinct = {knot for _, (knot, _) in present}
    agreement = len(distinct) <= 1
    termination = len(present) == t.n
    knot = next(iter(distinct)) if agreement and distinct else None
    seen = {pid: {k for k, _ in t.observation_logs[pid]} for pid in range(t.n)}
    globally_observable = {k: all(k in log for log in seen.values())
                           for k in set().union(*seen.values())}

    diagnostics: List[dict] = []
    for pid, (out_knot, out_round) in present:
        first_observed = sum(1 for _, r in t.observation_logs[pid]
                             if r == out_round)
        if first_observed > 1:
            diagnostics.append(_record("primary_tie", pid, out_round, out_knot))
    for out_knot in sorted(distinct):
        diagnostics.extend(_record("unobserved_knot", pid, knot=out_knot)
                           for pid in range(t.n) if out_knot not in seen[pid])
    diagnostics.extend(_record("undecided", pid) for pid in range(t.n)
                       if t.outputs.get(pid) is None)
    return Verdict(agreement=agreement, termination=termination, knot=knot,
                   per_process=dict(t.outputs),
                   globally_observable=globally_observable,
                   diagnostics=diagnostics)


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The header, then each row, as CSV lines. Each field is written as
    ``str(field)``, a ``None`` field empty, and nothing is quoted, so no
    field may hold a comma, a quote or a line break: every field knotid
    writes is a number, empty, ``true``/``false`` or ``|``-joined ids."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(["" if f is None else str(f) for f in row])


def write_trace_csv(t: Trace, path: str) -> None:
    """Per-process outputs: ``process,output_round,knot_members``. Each
    distinct knot is formatted once, however many processes output it."""
    entries = [(pid, t.outputs.get(pid)) for pid in range(t.n)]
    members = {knot: fmt_knot(knot) for knot in
               {entry[0] for _, entry in entries if entry is not None}}
    write_lines(path, csv_lines(("process", "output_round", "knot_members"),
                                ((pid, None, None) if entry is None
                                 else (pid, entry[1], members[entry[0]])
                                 for pid, entry in entries)))


def write_round_metrics_csv(t: Trace, path: str) -> None:
    """Per-round traffic: ``round,messages,payload_edges``."""
    write_lines(path, csv_lines(RoundMetric._fields, t.round_metrics))


def write_diagnostics_jsonl(verdict: Verdict, path: str) -> None:
    """One JSON line per diagnostic record."""
    write_lines(path, map(json.dumps, verdict.diagnostics))
