"""Byte identity of the CLI's output files against checked-in references.

Each file under ``tests/golden/`` was written by the command listed for it
below, run as ``knotid <args>`` with ``{out}`` replaced by an output
directory. Regenerate a file only when its format changes on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from knotid import save_schedule
from knotid.cli import main
from util import disjoint_two_cycles_schedule

GOLDEN = Path(__file__).parent / "golden"

SWEEP = ["sweep", "--n", "12", "--cycle-sizes", "3,6",
         "--edges-per-round", "1,3", "--horizon", "300", "--num-seeds", "2",
         "--out", "{out}/sweep.csv"]
# Six cells never decide, and cell k=6, m=3, seed 9 decides at round 40, the
# horizon: the edges of a sweep's stop at the last decision.
SWEEP_H40 = ["sweep", "--n", "12", "--cycle-sizes", "3,6",
             "--edges-per-round", "1,3", "--horizon", "40", "--num-seeds", "3",
             "--out", "{out}/sweep_h40.csv"]
# One backbone arc a round at n=100, the full-horizon regime: the cells
# with k >= 55 never decide, so they run all 6000 rounds, and the 14 cells
# make only 24 knot searches.
SWEEP_M1 = ["sweep", "--n", "100", "--cycle-sizes", "10:100:15",
            "--edges-per-round", "1", "--horizon", "6000", "--num-seeds", "2",
            "--base-seed", "42", "--out", "{out}/sweep_m1.csv"]
# Knots of at least three members: the k=2 cells never decide.
SWEEP_MK3 = ["sweep", "--n", "30", "--cycle-sizes", "2:30:4",
             "--edges-per-round", "1,3", "--horizon", "2000", "--num-seeds",
             "2", "--min-knot-size", "3", "--out", "{out}/sweep_mk3.csv"]
WORST_CASE = ["run", "--worst-case", "8", "--out", "{out}/worst_case_8"]
GENERATED = ["run", "--n", "20", "--cycle-size", "4", "--horizon", "300",
             "--seed", "3", "--out", "{out}/n20_k4_seed3"]
# {out}/disjoint.txt holds tests/util.py's disjoint_two_cycles_schedule().
VERIFY = ["verify", "{out}/disjoint.txt", "--json",
          "{out}/disjoint_verify.json"]

# golden file -> (command that writes it, its exit code)
CASES = {
    "sweep.csv": (SWEEP, 0),
    "sweep_h40.csv": (SWEEP_H40, 1),
    "sweep_m1.csv": (SWEEP_M1, 1),
    "sweep_mk3.csv": (SWEEP_MK3, 1),
    "worst_case_8_trace.csv": (WORST_CASE, 0),
    "worst_case_8_rounds.csv": (WORST_CASE, 0),
    "worst_case_8_diagnostics.jsonl": (WORST_CASE, 0),
    "n20_k4_seed3_trace.csv": (GENERATED, 0),
    "n20_k4_seed3_rounds.csv": (GENERATED, 0),
    "n20_k4_seed3_diagnostics.jsonl": (GENERATED, 0),
    "disjoint_verify.json": (VERIFY, 1),
}


# sha256 of the default ``knotid run`` files (n=100, cycle size 10, 5 edges
# per round, 6000 rounds, seed 0): the round metrics at the experiments'
# size, too large to check in.
DEFAULT_RUN = {
    "run_rounds.csv":
        "acdd51fa94c410bbc9f754f2b1108d78a8be79099f2bc7af1e6a1df296d589f8",
    "run_trace.csv":
        "eb9247265bd9aa4997052bf7c3ffcd8729de3b5efc4cda52c197ded1299f4529",
}


def _assert_golden(tmp_path, name, argv, code):
    save_schedule(disjoint_two_cycles_schedule(), str(tmp_path / "disjoint.txt"))
    assert main([arg.format(out=tmp_path) for arg in argv]) == code
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(tmp_path, name):
    _assert_golden(tmp_path, name, *CASES[name])


def test_config_file_sweep_matches_golden_bytes(tmp_path):
    """``SWEEP``'s settings read from a config file write the same bytes."""
    config = tmp_path / "exp.cfg"
    config.write_text("n = 12\ncycle_sizes = 3,6\nedges_per_round = 1,3\n"
                      "horizon = 300\nnum_seeds = 2\n", encoding="utf-8")
    _assert_golden(tmp_path, "sweep.csv",
                   ["sweep", "--config", str(config),
                    "--out", "{out}/sweep.csv"], 0)


def test_worker_pool_sweep_matches_golden_bytes(tmp_path):
    """Cells run in worker processes draw the same rounds."""
    _assert_golden(tmp_path, "sweep_h40.csv", SWEEP_H40 + ["--workers", "2"], 1)


def test_default_run_matches_pinned_hashes(tmp_path):
    assert main(["run", "--out", str(tmp_path / "run")]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DEFAULT_RUN} == DEFAULT_RUN


def test_default_run_of_a_saved_schedule_matches_pinned_hashes(tmp_path):
    """``knotid gen`` then ``knotid run FILE``: the default schedule read
    back from its file gives the same bytes as the default run."""
    schedule = str(tmp_path / "schedule.txt")
    assert main(["gen", "--out", schedule]) == 0
    assert main(["run", schedule, "--out", str(tmp_path / "run")]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DEFAULT_RUN} == DEFAULT_RUN
