"""knotid benchmark: one workload, one seed, timed end to end or per layer.

    python3 perfbench/run.py --workload sweep-c5 --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports knotid from ``./src``. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it repeat each metric with its unit, plus the failed share, the tail
percentile and its sample count, and the run's stamps. The same report, and
in traced runs every span, is written under ``.perfbench_out/``.

Every op runs in this one process, with no worker pool. The exit code is 0
when every op passed its check, 1 when one failed, 2 on a usage error or
when ``./src`` holds no knotid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"

# Cold set-ups timed per run; their median is setup_s.
SETUP_PROBES = 7

# Work counted from public outputs, reported per op.
COUNTS = (
    "adversary.rounds_generated", "adversary.edges_loaded", "engine.rounds",
    "engine.messages", "engine.payload_edges", "engine.last_decision_round",
    "graph.detect.log_entries", "engine.writers.bytes", "cli.cells",
)


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full", help="input sizes (tiny: self-check)")
    parser.add_argument("--expect-wrong", action="store_true",
                        help="check against wrong answers (self-check)")
    return parser.parse_args(argv)


def git_revision(root: str) -> str:
    """HEAD of ``root``'s git directory, or "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples above it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure_setup(args: argparse.Namespace, work_dir: str) -> list:
    """Seconds of each cold set-up: a fresh interpreter imports knotid and
    prepares the inputs. One untimed probe first writes bytecode caches."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               args.workload, str(args.seed), args.size, work_dir]
    times = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        if probe:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_op(workload, j: int, tracer) -> tuple:
    """(seconds, result or None, errors). An op that raises or fails its
    check is a failed op and keeps its time."""
    started = perf_counter()
    try:
        if tracer is None:
            result = workload.op(j)
        else:
            with tracer.span("op"):
                result = workload.op(j)
    except Exception:
        elapsed = perf_counter() - started
        return elapsed, None, ["op raised:\n" + traceback.format_exc()]
    elapsed = perf_counter() - started
    try:
        errors = workload.check(j, result)
    except Exception:
        errors = ["check raised:\n" + traceback.format_exc()]
    return elapsed, result, errors


def measure(workload, seconds: float, tracer) -> dict:
    """Run ops until ``seconds`` have gone by. With a tracer, odd ops are
    traced and even ones are not, which gives the tracing overhead."""
    times = {False: [], True: []}
    failed = 0
    counts: Counter = Counter()
    deadline = perf_counter() + seconds
    j = 0
    while j < (2 if tracer else 1) or perf_counter() < deadline:
        traced = tracer is not None and j % 2 == 1
        if traced:
            tracer.install()
        try:
            elapsed, result, errors = run_op(workload, j,
                                             tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed)
        if errors:
            failed += 1
            print(f"op {j} failed: " + "; ".join(errors[:3]), file=sys.stderr)
        if traced and result is not None:
            counts.update(workload.counts(result))
        j += 1
    return {"times": times, "failed": failed, "counts": counts}


def end_to_end(measured: dict, setup_times: list) -> dict:
    times = measured["times"][False]
    tail_s, _ = tail(times)
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(times) * 1000.0, "ms"),
        "op_ms.tail": (tail_s * 1000.0, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(measured: dict, tracer, setup_counts: dict) -> dict:
    """Busy time and work per traced op. A layer that runs during set-up
    adds its set-up figure, since set-up happens once per run."""
    traced_ops = len(measured["times"][True])
    totals = tracer.totals()

    def per_op(name: str, key: str) -> float:
        setup = totals.get(("setup", name), {}).get(key, 0)
        ops = totals.get(("op", name), {}).get(key, 0)
        return setup + ops / traced_ops

    layers = dict.fromkeys(name for _, _, name in tracer.targets)
    metrics = {f"{name}.s": (per_op(name, "s"), "s/op") for name in layers}
    metrics["engine.run.self_s"] = (per_op("engine.run", "self_s"), "s/op")
    metrics["graph.knots_from_adjacency.calls"] = (
        per_op("graph.knots_from_adjacency", "calls"), "count/op")
    metrics["graph.knots_from_adjacency.max_nodes"] = (max(
        [entry["max_size"] for (_, name), entry in totals.items()
         if name == "graph.knots_from_adjacency"], default=0), "count")
    for name in COUNTS:
        metrics[name] = (setup_counts.get(name, 0)
                         + measured["counts"][name] / traced_ops, "count/op")
    metrics["engine.useful_round_ratio"] = (_ratio(
        metrics["engine.last_decision_round"][0],
        metrics["engine.rounds"][0]), "ratio")
    metrics["graph.detect.useful_ratio"] = (_ratio(
        metrics["graph.detect.log_entries"][0],
        metrics["graph.knots_from_adjacency.calls"][0]), "ratio")
    untraced = measured["times"][False]
    traced = measured["times"][True]
    metrics["trace.overhead_ratio"] = (_ratio(
        sum(traced) / len(traced), sum(untraced) / len(untraced)), "ratio")
    metrics["trace.ops"] = (len(traced), "count")
    metrics["trace.untraced_ops"] = (len(untraced), "count")
    return metrics


def main(argv: list) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        cli = workloads.load_cli(root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, cli, args.seed, args.size,
                              args.expect_wrong)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = spans.Tracer(spans.layer_targets(cli)) if args.trace else None
    try:
        setup_times = [] if tracer else measure_setup(args, work_dir)
        if tracer:
            tracer.install()
        try:
            setup_counts = workload.prepare(work_dir)
        finally:
            if tracer:
                tracer.uninstall()
                tracer.phase = "op"
        measured = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracer:
        metrics = per_layer(measured, tracer, setup_counts)
    else:
        metrics = end_to_end(measured, setup_times)
    all_times = measured["times"][False] + measured["times"][True]
    attempted, failed = len(all_times), measured["failed"]
    _, tail_percentile = tail(measured["times"][False])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "size": args.size, "inputs": workloads.SIZES[args.size][args.workload],
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_revision": git_revision(root), "attempted": attempted,
        "failed": failed, "failed_share": failed / attempted,
        "tail_percentile": tail_percentile,
        "tail_samples": len(measured["times"][False]),
        "setup_probes_s": setup_times,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tracer:
        tracer.write(os.path.join(out_dir, stem + ".spans.jsonl"))

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted!r}")
    if not tracer:
        print(f"op_ms.tail is p{tail_percentile:.1f} of "
              f"{report['tail_samples']} ops")
    print("stamp: " + json.dumps({key: report[key] for key in (
        "workload", "seed", "traced", "python", "cpu_count",
        "git_revision")}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
