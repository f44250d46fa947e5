"""Self-check of the benchmark at tiny sizes, about ten seconds in all.

    python3 perfbench/selfcheck.py

Run it from the repository root. For every workload it runs ``run.py``
untraced and traced and confirms that the last line names every metric of
BENCHMARK.json with its unit and that every op passed. It then runs each
workload against a deliberately wrong expected answer and confirms that
every op is counted as failed, and finally confirms that a directory with
only the benchmark files and no knotid is refused without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def bench(spec: dict, *flags: str, cwd: str = ROOT) -> tuple:
    """Run the benchmark's command at tiny sizes."""
    done = subprocess.run(
        spec["command"] + ["--seconds", "0.3", "--size", "tiny", "--seed", "5",
                           *flags],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, stderr = bench(spec, "--workload", workload,
                                        "--trace", trace)
            result = json.loads(lines[-1])
            label = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, {result['failed']} "
                                f"failed\n{stderr}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or "
                                    f"not in {metric['unit']}: {got}")
                elif f"{metric['name']} = " not in "\n".join(lines[:-1]):
                    problems.append(f"{label}: {metric['name']} not printed")
        code, lines, _ = bench(spec, "--workload", workload, "--trace", "0",
                               "--expect-wrong")
        result = json.loads(lines[-1])
        share = [line for line in lines if line.startswith("failed_share = ")]
        if (code != 1 or result["correct"]
                or result["failed"] != result["attempted"]
                or not share or not share[0].endswith(" = 1.0")):
            problems.append(f"{workload}: a wrong expected answer was not "
                            f"counted in failed_share: exit {code}, {share}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench(spec, "--workload", spec["workloads"][0]["name"],
                               "--trace", "0", cwd=bare)
        if code == 0 or lines:
            problems.append(f"without knotid: exit {code}, printed {lines}")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
