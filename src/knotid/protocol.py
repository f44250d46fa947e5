"""Per-process knot identification state machine.

Each process floods its entire local observation graph over every outgoing
link, merges whatever arrives (payloads plus the incoming links themselves),
and outputs the first knot it completes. Output is write-once; the process
keeps relaying forever afterwards so information still spreads to others.

Receipts are ``(payload, in_edge)`` pairs with snapshot semantics: a
message sent in round i carries the sender's observation graph as of the
end of round i-1, so information never hops across two links of the same
round. The in_edge is the link it arrived on, stamped with the current
round; senders learn nothing, not even the receiver's identity. A graph is
a frozenset of temporal edges, merged by set union (a lone node is no knot).
``reachability_knots`` finds knots, sharing no code with the engine's detector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from .adversary import bounded
from .graph import Knot, ProcessId, reachability_knots


@dataclass(frozen=True)
class ProcessState:
    """One process's view: observation graph, write-once output, knot log.

    ``observation_log`` records every first-time knot observation as
    (knot, round); ``output`` is the primary knot plus the round it was
    decided in, never rewritten once set.
    """

    self_id: ProcessId
    lg: frozenset = frozenset()
    output: Optional[tuple] = None
    observation_log: tuple = ()


def primary_tie_break(knots: Iterable[Knot]) -> Knot:
    """Pick one knot from several observed in the same round: smallest by
    (size, member list). Any fixed rule would do; this one is total and
    order-independent."""
    return min(knots, key=lambda k: (len(k.members), k.members))


def on_state(p: ProcessState, incoming: Sequence, round_index: int,
             min_knot_size: int = 2) -> ProcessState:
    """Apply one round's receipts: merge, detect knots, maybe decide.

    ``incoming`` holds (payload, in_edge) pairs: in_edge is the link the
    message arrived on, stamped with ``round_index``; payload is the
    sender's ``lg`` before any of this round's receipts is applied, the same
    on each of its links. With no receipts the state is returned unchanged
    (the graph only grows on receipt, so there is nothing new to detect).
    """
    bounded("min_knot_size", min_knot_size, 2)
    if not incoming:
        return p
    for payload, in_edge in incoming:
        if in_edge.dst != p.self_id:
            raise ValueError(
                f"engine bug: in-edge {in_edge} delivered to process {p.self_id}")
        if in_edge.state != round_index:
            raise ValueError(
                f"engine bug: in-edge {in_edge} applied in round {round_index}")
        for e in payload:
            if e.state >= round_index:
                raise ValueError(
                    f"engine bug: payload edge {e} is not a pre-round snapshot")

    lg = p.lg.union(*(payload | {edge} for payload, edge in incoming))

    known = {k for k, _ in p.observation_log}
    fresh = [k for k in reachability_knots(lg, min_knot_size) if k not in known]
    log = p.observation_log + tuple((k, round_index) for k in fresh)

    output = p.output
    if output is None and log:
        first_round = min(r for _, r in log)
        output = (primary_tie_break(k for k, r in log if r == first_round),
                  first_round)
    return replace(p, lg=lg, observation_log=log, output=output)


def decide_consensus(k: Knot, inputs: Mapping) -> int:
    """Reduce an agreed knot to a consensus value.

    Returns the input of the knot member with the highest identifier, so
    equal knots and equal inputs always yield equal decisions, and a
    unanimous input value is always the decision.
    """
    missing = [pid for pid in k.members if pid not in inputs]
    if missing:
        raise ValueError(f"no input value for knot members {missing}")
    return inputs[max(k.members)]
