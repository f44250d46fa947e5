"""Simulator and protocol library for knot identification in dynamic networks.

Processes connected by round-varying directed links flood everything they
have observed; the first knot (a strongly connected component with no
incoming arcs, at least two members) that completes inside a process's local
observation graph becomes its output, and an agreed knot reduces to a
consensus value. This package provides the graph analytics, the per-process
protocol, adversarial schedule generators, a deterministic round engine with
trace verification, and a CLI for experiment sweeps.
"""

from .adversary import (
    Backbone,
    Schedule,
    computation_rounds,
    gen_backbone,
    gen_computation,
    insert_noncomm_states,
    load_schedule,
    save_schedule,
    worst_case_schedule,
)
from .engine import (
    RoundMetric,
    Trace,
    Verdict,
    longest_output_time,
    reference_run,
    run,
    verify,
    write_diagnostics_jsonl,
    write_round_metrics_csv,
    write_trace_csv,
)
from .graph import (
    Knot,
    ProcessId,
    TemporalEdge,
    computation_graph,
    find_knots,
    reachability_knots,
)
from .protocol import (
    ProcessState,
    decide_consensus,
    on_state,
)

__version__ = "0.1.0"
