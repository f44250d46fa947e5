import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from random import Random

import pytest

import knotid
from knotid import engine
from knotid import Schedule, load_schedule, save_schedule, worst_case_schedule
from knotid.cli import (
    ExperimentConfig,
    build_parser,
    config_from_sources,
    main,
    parse_int_list,
    run_sweep,
)
from util import disjoint_two_cycles_schedule

# The tails of the schedule loader's header and edge-line messages.
HEADER_FORM = "is not 'n=<int> horizon=<int> seed=<int> params=<text>'"
EDGE_FORM = "want three ASCII decimal fields"


class TestParsing:
    def test_comma_list(self):
        assert parse_int_list("4,12,24") == (4, 12, 24)

    def test_ranges(self):
        assert parse_int_list("2:6") == (2, 3, 4, 5, 6)
        assert parse_int_list("2:10:4") == (2, 6, 10)
        assert parse_int_list("1,4:6") == (1, 4, 5, 6)

    def test_bad_values(self):
        for text, message in [
                ("abc", "bad integer for cycle_sizes: 'abc'"),
                ("5:2", "bad range for cycle_sizes: '5:2', want step >= 1 "
                        "and 0 <= start <= stop <= 10000"),
                ("-1:3", "bad range for cycle_sizes: '-1:3', want step >= 1 "
                         "and 0 <= start <= stop <= 10000"),
                ("", "bad integer for cycle_sizes: ''")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_int_list(text, "cycle_sizes")

    @pytest.mark.parametrize("text", [
        "3, 4", "3,,4", "3,", " 3", "+3", "3:+4", "1_0:12", "3:4:\u0661"])
    def test_every_item_takes_the_number_grammar(self, text):
        bad = [item for item in text.split(",") if not item.isdigit()][0]
        message = (f"bad range for value: {bad!r}, want start:stop[:step]"
                   if ":" in bad else f"bad integer for value: {bad!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_int_list(text)

    def test_flags_override_file(self):
        cfg = config_from_sources(
            {"n": "30", "cycle_sizes": "5", "horizon": "100"},
            {"cycle_sizes": "6,7", "num_seeds": 3})
        assert cfg.n == 30
        assert cfg.cycle_sizes == (6, 7)
        assert cfg.num_seeds == 3
        assert cfg.horizon == 100

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="^unknown config key 'bogus'$"):
            config_from_sources({"bogus": "1"}, {})

    def test_validation(self):
        with pytest.raises(ValueError, match="^cycle_sizes must be in "
                                             "2..100, got 200$"):
            config_from_sources({}, {"cycle_sizes": "200"})  # exceeds n


class TestGenRun:
    def test_gen_writes_loadable_schedule(self, tmp_path):
        out = tmp_path / "sched.txt"
        assert main(["gen", "--n", "12", "--cycle-size", "4",
                     "--edges-per-round", "2", "--horizon", "50",
                     "--seed", "3", "--out", str(out)]) == 0
        s = load_schedule(str(out))
        assert s.n == 12 and s.horizon == 50

    def test_gen_header_is_reproducible(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["gen", "--n", "10", "--cycle-size", "3", "--edges-per-round",
                "2", "--horizon", "30", "--seed", "5"]
        main(argv + ["--out", str(first)])
        main(argv + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_run_worst_case_prints_bound(self, tmp_path, capsys):
        code = main(["run", "--worst-case", "10",
                     "--out", str(tmp_path / "wc")])
        out = capsys.readouterr().out
        assert code == 0
        assert "longest output round: 19" in out
        assert "agreement: true" in out

    def test_run_empty_schedule_fails_termination(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_schedule(Schedule(3, [[], [], []]), str(path))
        code = main(["run", str(path), "--out", str(tmp_path / "e")])
        assert code == 1

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_min_knot_size_below_two_is_usage_error(
            self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # where run writes its default files
        save_schedule(Schedule(3, [[]]), "empty.txt")
        assert main([command, "empty.txt", "--min-knot-size", "1"]) == 2
        assert capsys.readouterr().err \
            == "error: min_knot_size must be at least 2, got 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.txt"]

    def test_run_writes_all_three_files(self, tmp_path):
        main(["run", "--worst-case", "4", "--out", str(tmp_path / "t")])
        assert (tmp_path / "t_trace.csv").exists()
        assert (tmp_path / "t_rounds.csv").exists()
        assert (tmp_path / "t_diagnostics.jsonl").exists()

    def test_missing_schedule_file_is_usage_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_schedule_file_with_worst_case_is_usage_error(self, tmp_path,
                                                          capsys):
        path = tmp_path / "wc.txt"
        save_schedule(worst_case_schedule(4), str(path))
        code = main(["run", str(path), "--worst-case", "6",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--worst-case" in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists()

    @pytest.mark.parametrize("flag", [
        "--n", "--cycle-size", "--edges-per-round", "--horizon", "--seed"])
    def test_schedule_file_with_generator_flag_is_usage_error(
            self, tmp_path, capsys, flag):
        path = tmp_path / "wc.txt"
        save_schedule(worst_case_schedule(4), str(path))
        code = main(["run", str(path), flag, "6",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists()

    @pytest.mark.parametrize("flag", [
        "--n", "--cycle-size", "--edges-per-round", "--horizon", "--seed"])
    def test_worst_case_with_generator_flag_is_usage_error(
            self, tmp_path, capsys, flag):
        code = main(["run", "--worst-case", "8", flag, "5",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists()

    def test_unset_generator_flags_take_their_defaults(self, tmp_path):
        out = tmp_path / "sched.txt"
        assert main(["gen", "--n", "12", "--cycle-size", "4",
                     "--horizon", "50", "--out", str(out)]) == 0
        s = load_schedule(str(out))
        assert s.params.startswith("backbone:k=4,m=5,")
        rng = Random(0)  # seed 0: backbone seed first, computation seed second
        rng.getrandbits(64)
        assert s.seed == rng.getrandbits(64)

    @pytest.mark.parametrize("text, line, problem", [
        ("n=3 horizon=two seed=0 params=x\n", 1,
         f"header 'n=3 horizon=two seed=0 params=x' {HEADER_FORM}"),
        ("n=3 horizon=1 seed=0 params=x colour=red\n", 1,
         f"header 'n=3 horizon=1 seed=0 params=x colour=red' {HEADER_FORM}"),
        ("n=3 horizon=-1 seed=0 params=x\n", 1,
         f"header 'n=3 horizon=-1 seed=0 params=x' {HEADER_FORM}"),
        ("n=0 horizon=0 seed=0 params=x\n", 1, "n must be in 2..10000, got 0"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n0 x 2\n", 3,
         f"malformed edge line '0 x 2': {EDGE_FORM}"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n\n2 2 2\n", 4,
         "edge 2 2 2 is a self-loop"),
        ("n=3 horizon=2 seed=0 params=x\n0 3 1\n", 2,
         "edge 0 3 1 names a process outside 0..2"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 3\n", 2,
         "edge 0 1 3 stamped outside 1..2"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n1 2 2\n0 1 1\n", 4,
         "edge 0 1 1 repeats an earlier line"),
        ("n=11 horizon=1 seed=0 params=x\n0 1_0 1\n", 2,
         f"malformed edge line '0 1_0 1': {EDGE_FORM}"),
        ("n=3 horizon=1 seed=0 params=x\n+1 2 1\n", 2,
         f"malformed edge line '+1 2 1': {EDGE_FORM}"),
        ("n=3 horizon=1 seed=0 params=x\n\u0660 1 1\n", 2,
         f"malformed edge line '\u0660 1 1': {EDGE_FORM}"),
        ("n=3 horizon=1 seed=0 params=x\n0\u20031 1\n", 2,
         f"malformed edge line '0\\u20031 1': {EDGE_FORM}"),
        ("n=3 horizon=1 seed=0 params=x\u2003\n0 1 1\n", 1,
         f"header 'n=3 horizon=1 seed=0 params=x\\u2003' {HEADER_FORM}"),
        ("\u2003n=3 horizon=1 seed=0 params=x\n0 1 1\n", 1,
         f"header '\\u2003n=3 horizon=1 seed=0 params=x' {HEADER_FORM}"),
        ("n=1000000000000 horizon=1 seed=0 params=x\n", 1,
         "n must be in 2..10000, got 1000000000000"),
        ("n=3 horizon=1000000000000 seed=0 params=x\n", 1,
         "horizon must be in 0..100000, got 1000000000000"),
        # the same link text seen again, or the same link spaced otherwise
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n0  1 1\n", 3,
         "edge 0 1 1 repeats an earlier line"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n0\t1 1\n", 3,
         "edge 0 1 1 repeats an earlier line"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n0 1 0\n", 3,
         "edge 0 1 0 stamped outside 1..2"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n0 1 3\n", 3,
         "edge 0 1 3 stamped outside 1..2"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n0 3 2\n0 3 2\n", 3,
         "edge 0 3 2 names a process outside 0..2"),
        # a self-loop is named before its stamp, and its stamp before the
        # processes it names
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n2 2 9\n", 3,
         "edge 2 2 9 is a self-loop"),
        ("n=3 horizon=2 seed=0 params=x\n0 1 1\n5 1 9\n", 3,
         "edge 5 1 9 stamped outside 1..2"),
    ], ids=["non-integer-horizon", "unknown-key", "negative-horizon",
            "too-few-processes", "non-integer-field", "self-loop",
            "foreign-process", "stamp-past-horizon", "duplicate-edge",
            "underscore-field", "signed-field", "arabic-indic-digit",
            "em-space-separator", "em-space-header-end",
            "em-space-header-start", "process-cap", "horizon-cap",
            "double-space-repeat", "tab-repeat", "seen-link-stamp-0",
            "seen-link-stamp-past-horizon", "repeated-foreign-link",
            "self-loop-before-stamp", "stamp-before-foreign-process"])
    def test_bad_schedule_file_is_usage_error(self, tmp_path, capsys,
                                              text, line, problem):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {problem}\n"

    @pytest.mark.parametrize("header", [
        "n=3 horizon=1 seed=0 params=x \t\n",
        "n=3 horizon=1 seed=0 params=x\r\n",
        " n=3 horizon=1 seed=0 params=x\n",
    ], ids=["trailing", "crlf", "leading"])
    def test_header_ascii_whitespace_loads(self, tmp_path, header):
        path = tmp_path / "ok.txt"
        path.write_bytes((header + "0 1 1\n").encode("ascii"))
        assert load_schedule(str(path)) == Schedule(3, [[(0, 1)]], "x")

    @pytest.mark.parametrize("flags, message", [
        (["--horizon", str(10**12)],
         f"horizon must be in 1..100000, got {10**12}\n"),
        (["--worst-case", str(10**12)],
         f"n must be in 2..10000, got {10**12}\n"),
        (["--n", str(10**12)], f"n must be in 2..10000, got {10**12}\n")],
        ids=["horizon", "worst-case", "n"])
    def test_size_above_cap_is_usage_error(self, tmp_path, capsys, flags,
                                           message):
        assert main(["run", *flags, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}"

    def test_bad_generator_flags_are_usage_error(self, tmp_path):
        code = main(["run", "--n", "5", "--cycle-size", "9",
                     "--out", str(tmp_path / "x")])
        assert code == 2


class TestVerifyCmd:
    def test_uniform_schedule(self, tmp_path, capsys):
        path = tmp_path / "wc.txt"
        save_schedule(worst_case_schedule(4), str(path))
        report_path = tmp_path / "report.json"
        code = main(["verify", str(path), "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform: true" in out
        blob = json.loads(report_path.read_text())
        assert blob["uniform"] is True
        assert blob["per_process"]["0"]["knot"] == [0, 1, 2, 3]

    def test_disjoint_cycles_not_uniform(self, tmp_path):
        path = tmp_path / "pair.txt"
        save_schedule(disjoint_two_cycles_schedule(), str(path))
        assert main(["verify", str(path)]) == 1

    def test_diagnostics_match_run(self, tmp_path):
        path = tmp_path / "pair.txt"
        save_schedule(disjoint_two_cycles_schedule(), str(path))
        report = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 1
        assert main(["verify", str(path), "--json", str(report)]) == 1
        lines = (tmp_path / "r_diagnostics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records
        assert records == json.loads(report.read_text())["diagnostics"]

    def test_trailing_padding_keeps_the_report(self, tmp_path):
        from knotid import insert_noncomm_states
        s = worst_case_schedule(5)
        plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
        save_schedule(s, str(plain))
        save_schedule(insert_noncomm_states(s, [s.horizon + 1] * 3),
                      str(padded))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", str(plain), "--json", str(out_a)])
        main(["verify", str(padded), "--json", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestPayloadPass:
    """Only ``knotid run``'s rounds CSV reads a trace's round metrics, so
    sweeps and ``verify`` never run the payload pass."""

    @pytest.fixture
    def no_pass(self, monkeypatch):
        def refuse(n, rounds):
            raise AssertionError("the payload pass ran")
        monkeypatch.setattr(engine, "round_metrics", refuse)

    def test_a_sweep_never_runs_it(self, no_pass):
        cells, means = run_sweep(ExperimentConfig(
            n=10, cycle_sizes=(3, 4), edges_per_round=(1, 2), horizon=150,
            num_seeds=2, base_seed=12))
        assert len(cells) == 8 and len(means) == 4

    def test_verify_never_runs_it(self, no_pass, tmp_path):
        path = tmp_path / "wc.txt"
        save_schedule(worst_case_schedule(4), str(path))
        assert main(["verify", str(path), "--json",
                     str(tmp_path / "report.json")]) == 0

    def test_run_runs_it_once(self, tmp_path, monkeypatch):
        calls = []
        count = engine.round_metrics

        def counted(n, rounds):
            calls.append(len(rounds))
            return count(n, rounds)
        monkeypatch.setattr(engine, "round_metrics", counted)
        path = tmp_path / "wc.txt"
        save_schedule(worst_case_schedule(4), str(path))
        assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 0
        assert calls == [7]


class TestSweepCmd:
    def test_sweep_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--n", "12", "--cycle-sizes", "3,4",
                     "--edges-per-round", "2", "--num-seeds", "2",
                     "--horizon", "300", "--base-seed", "9",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: base_seed=9 cycle_sizes=3,4 ")
        assert lines[1] == ("cycle_size,edges_per_round,seed,"
                            "longest_output_round,mean_output_round,"
                            "agreement,termination,knot_size,excluded")
        # 2 groups x (2 data rows + 1 mean row)
        assert len(lines) == 2 + 2 * 3
        data = [line.split(",") for line in lines[2:]]
        mean_rows = [row for row in data if row[2] == ""]
        assert len(mean_rows) == 2
        assert all(row[4] for row in mean_rows)

    def test_sweep_reruns_byte_identical(self, tmp_path):
        argv = ["sweep", "--n", "10", "--cycle-sizes", "3",
                "--edges-per-round", "2", "--num-seeds", "2",
                "--horizon", "200", "--base-seed", "4"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(argv + ["--out", str(first)])
        main(argv + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_parallel_matches_serial(self, tmp_path):
        base = ["sweep", "--n", "10", "--cycle-sizes", "3,4",
                "--edges-per-round", "1,2", "--num-seeds", "2",
                "--horizon", "150", "--base-seed", "12"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        main(base + ["--workers", "1", "--out", str(serial)])
        main(base + ["--workers", "3", "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_chunked_parallel_sweep_matches_serial(self, tmp_path):
        # 256 one-round cells reach two workers in chunks of 1 + 256 // 128
        base = ["sweep", "--n", "3", "--cycle-sizes", "2,3",
                "--edges-per-round", "1,2", "--num-seeds", "64",
                "--horizon", "1", "--base-seed", "5"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        main(base + ["--workers", "1", "--out", str(serial)])
        main(base + ["--workers", "2", "--out", str(parallel)])
        assert len(serial.read_text().splitlines()) == 2 + 256 + 4
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# tiny experiment\n"
            "n = 10\n"
            "cycle_sizes = 3\n"
            "edges_per_round = 2\n"
            "num_seeds = 2\n"
            "horizon = 200\n"
            "base_seed = 4\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert "n=10" in header and "base_seed=4" in header

    def test_sweep_bad_config_is_usage_error(self, tmp_path):
        code = main(["sweep", "--n", "5", "--cycle-sizes", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sweep_range_is_bounded_before_it_is_expanded(
            self, tmp_path, capsys, source):
        huge = f"2:{2 ** 62}"  # a list this long cannot be allocated
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n = 12\ncycle_sizes = {huge}\n")
        given = (["--n", "12", "--cycle-sizes", huge] if source == "flag"
                 else ["--config", str(cfg)])
        code = main(["sweep", *given, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "bad range" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_horizon_above_cap_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--n", "12", "--cycle-sizes", "3",
                     "--num-seeds", "1", "--horizon", str(10**12),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "horizon must be in 1.." in capsys.readouterr().err

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KNOTID_WORKERS", "2")
        out = tmp_path / "env.csv"
        code = main(["sweep", "--n", "10", "--cycle-sizes", "3",
                     "--edges-per-round", "2", "--num-seeds", "2",
                     "--horizon", "100", "--base-seed", "1",
                     "--out", str(out)])
        assert code == 0 and out.exists()

    def test_every_setting_is_a_flag_and_each_data_setting_a_header_key(
            self):
        names = [f.name for f in fields(ExperimentConfig)]
        for name in names:
            args = build_parser().parse_args(
                ["sweep", "--" + name.replace("_", "-"), "7"])
            assert getattr(args, name) == "7"
        keys = [item.split("=")[0]
                for item in ExperimentConfig().canonical().split()]
        assert keys == sorted(set(names) - {"workers", "out"})

    def test_cell_seeds_are_base_plus_index(self):
        cfg = ExperimentConfig(n=10, cycle_sizes=(3, 4), edges_per_round=(2,),
                               horizon=120, num_seeds=2, base_seed=100)
        cells, _ = run_sweep(cfg)
        assert [c.seed for c in cells] == [100, 101, 102, 103]


SWEEP = ["sweep", "--n", "12", "--cycle-sizes", "3", "--edges-per-round", "1",
         "--horizon", "10", "--num-seeds", "1", "--out", "x.csv"]
CONFIG = ["sweep", "--config", "exp.cfg", "--out", "x.csv"]
# The same file read as a schedule, for rows that test a header.
HEADER = ["run", "exp.cfg", "--out", "x"]
WORKERS_100000 = "workers must be in 1..256, got 100000"


class TestUsageErrors:
    """Bad flags, config files, ``$KNOTID_WORKERS`` values and schedule
    headers exit 2 before any cell runs or any file is written; file errors
    name the file and line. Each bound gives one message on every path
    (``adversary.bounded``): a flag, a config line, the variable and a
    header differ only in the ``path:line: `` prefix. A value from a config
    line names that line, also where a flag sets the bound it breaks, and a
    flag that overrides the line does not. ``config`` is the text
    of ``exp.cfg``, or a dict of environment variables."""

    @pytest.mark.parametrize("argv, config, message", [
        ([*SWEEP, "--n", "1"], None, "n must be in 2..10000, got 1\n"),
        ([*SWEEP, "--n", "20000"], None, "n must be in 2..10000, got 20000"),
        ([*SWEEP, "--num-seeds", "0"], None,
         "num_seeds must be at least 1, got 0\n"),
        ([*SWEEP, "--base-seed", "-1"], None,
         "base_seed must be at least 0, got -1\n"),
        ([*SWEEP, "--min-knot-size", "1"], None,
         "min_knot_size must be at least 2, got 1\n"),
        ([*SWEEP, "--workers", "0"], None, "workers must be in 1..256, got 0"),
        ([*SWEEP, "--edges-per-round", "13"], None,
         "edges_per_round must be in 1..12, got 13\n"),
        ([*SWEEP, "--cycle-sizes", "2:4:1:1"], None,
         "bad range for cycle_sizes: '2:4:1:1', want start:stop[:step]\n"),
        ([*SWEEP, "--cycle-sizes", "2:x"], None,
         "bad range for cycle_sizes: '2:x', want start:stop[:step]\n"),
        ([*SWEEP, "--num-seeds", "1000000000"], None,
         "sweep grid of 1000000000 cells exceeds the cap of 100000"),
        ([*SWEEP, "--n", "10000", "--cycle-sizes", "2:10000",
          "--edges-per-round", "1:10000"], None,
         "sweep grid of 99990000 cells exceeds the cap of 100000"),
        (["sweep", "--config", ".", "--out", "x.csv"], None,
         "cannot read config file ."),
        (CONFIG, "n = 12\nhorizon 10\n", "exp.cfg:2: expected key=value"),
        (CONFIG, "n = 12\n\nn = abc\n", "exp.cfg:3: bad integer for n: 'abc'"),
        ([*SWEEP, "--n", "x"], None, "bad integer for n: 'x'\n"),
        (CONFIG, "n = x\n", "exp.cfg:1: bad integer for n: 'x'\n"),
        (CONFIG, "n = 12\nn = 14\n", "exp.cfg:2: repeated key 'n'"),
        ([*SWEEP, "--out", "nodir/x.csv"], None,
         "[Errno 2] No such file or directory: 'nodir/x.csv'"),
        (CONFIG, "# grid\nbogus = 1\n", "exp.cfg:2: unknown config key 'bogus'"),
        (CONFIG, "n = 12\ncycle_sizes = 1:\n", "exp.cfg:2: bad range for "
         "cycle_sizes: '1:', want start:stop[:step]\n"),
        (["run", "--worst-case", "1", "--out", "x"], None,
         "n must be in 2..10000, got 1\n"),
        (CONFIG, "n = 12\nbase_seed = -1\n",
         "exp.cfg:2: base_seed must be at least 0, got -1\n"),
        (["gen", "--seed", "-3", "--out", "x.txt"], None,
         "seed must be at least 0, got -3\n"),
        (["gen", "--horizon", "0", "--out", "x.txt"], None,
         "horizon must be in 1..100000, got 0\n"),
        (["run", "--horizon", "0", "--out", "x"], None,
         "horizon must be in 1..100000, got 0\n"),
        # Process count.
        (["gen", "--n", "1", "--out", "x.txt"], None,
         "n must be in 2..10000, got 1\n"),
        (["run", "--n", "1", "--out", "x"], None,
         "n must be in 2..10000, got 1\n"),
        (["gen", "--worst-case", "10001", "--out", "x.txt"], None,
         "n must be in 2..10000, got 10001\n"),
        (CONFIG, "n = 1\n", "exp.cfg:1: n must be in 2..10000, got 1\n"),
        ([*CONFIG, "--n", "1"], "n = 12\n", "n must be in 2..10000, got 1\n"),
        (HEADER, "n=1 horizon=0 seed=0 params=x\n",
         "exp.cfg:1: n must be in 2..10000, got 1\n"),
        (HEADER, "n=10001 horizon=0 seed=0 params=x\n",
         "exp.cfg:1: n must be in 2..10000, got 10001\n"),
        # Horizon: flags and sweeps need a round, a file may hold none.
        (["gen", "--horizon", "100001", "--out", "x.txt"], None,
         "horizon must be in 1..100000, got 100001\n"),
        ([*SWEEP, "--horizon", "0"], None,
         "horizon must be in 1..100000, got 0\n"),
        (CONFIG, "horizon = 100001\n",
         "exp.cfg:1: horizon must be in 1..100000, got 100001\n"),
        (HEADER, "n=3 horizon=100001 seed=0 params=x\n",
         "exp.cfg:1: horizon must be in 0..100000, got 100001\n"),
        # Seed.
        (["run", "--seed", "-1", "--out", "x"], None,
         "seed must be at least 0, got -1\n"),
        # Cycle size.
        (["gen", "--cycle-size", "1", "--out", "x.txt"], None,
         "cycle_size must be in 2..100, got 1\n"),
        (["run", "--n", "12", "--cycle-size", "13", "--out", "x"], None,
         "cycle_size must be in 2..12, got 13\n"),
        ([*SWEEP, "--cycle-sizes", "3,13"], None,
         "cycle_sizes must be in 2..12, got 13\n"),
        (CONFIG, "n = 12\ncycle_sizes = 3,1\n",
         "exp.cfg:2: cycle_sizes must be in 2..12, got 1\n"),
        ([*CONFIG, "--n", "12"], "cycle_sizes = 13\n",
         "exp.cfg:1: cycle_sizes must be in 2..12, got 13\n"),
        # Edges per round.
        (["gen", "--edges-per-round", "0", "--out", "x.txt"], None,
         "edges_per_round must be in 1..100, got 0\n"),
        (["run", "--n", "12", "--edges-per-round", "13", "--out", "x"], None,
         "edges_per_round must be in 1..12, got 13\n"),
        (CONFIG, "n = 12\nedges_per_round = 0\n",
         "exp.cfg:2: edges_per_round must be in 1..12, got 0\n"),
        # Min knot size.
        (["run", "--worst-case", "4", "--min-knot-size", "1", "--out", "x"],
         None, "min_knot_size must be at least 2, got 1\n"),
        (["verify", "exp.cfg", "--min-knot-size", "1"],
         "n=3 horizon=0 seed=0 params=x\n",
         "min_knot_size must be at least 2, got 1\n"),
        (CONFIG, "min_knot_size = 1\n",
         "exp.cfg:1: min_knot_size must be at least 2, got 1\n"),
        # Seeds per cell group.
        (CONFIG, "num_seeds = 0\n",
         "exp.cfg:1: num_seeds must be at least 1, got 0\n"),
        # Workers: a count above the cap never reaches the pool.
        ([*SWEEP, "--workers", "100000"], None, WORKERS_100000 + "\n"),
        (CONFIG, "workers = 100000\n", f"exp.cfg:1: {WORKERS_100000}\n"),
        (SWEEP, {"KNOTID_WORKERS": "100000"}, WORKERS_100000 + "\n"),
        (SWEEP, {"KNOTID_WORKERS": "0"}, "workers must be in 1..256, got 0\n"),
    ], ids=["n", "n-cap", "num-seeds", "base-seed", "min-knot-size", "workers",
            "edges-per-round", "range-parts", "range-int", "cells-seeds",
            "cells-ranges",
            "config-unreadable", "config-no-equals", "config-int",
            "flag-int-x", "config-int-x", "config-repeated-key",
            "out-unwritable", "config-key", "config-range", "worst-case-1",
            "config-base-seed", "gen-seed", "gen-horizon", "run-horizon",
            "gen-n", "run-n", "worst-case-cap", "config-n",
            "flag-over-config-n", "header-n",
            "header-n-cap", "gen-horizon-cap", "sweep-horizon",
            "config-horizon", "header-horizon", "run-seed", "gen-cycle-size",
            "run-cycle-size", "cycle-sizes", "config-cycle-sizes",
            "config-cycle-sizes-flag-n",
            "gen-edges-per-round", "run-edges-per-round",
            "config-edges-per-round", "run-min-knot-size",
            "verify-min-knot-size", "config-min-knot-size",
            "config-num-seeds", "workers-cap", "config-workers-cap",
            "env-workers-cap", "env-workers-0"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                        argv, config, message):
        monkeypatch.chdir(tmp_path)

        def no_sweep(cfg):
            raise AssertionError("a rejected sweep reached its cells")

        monkeypatch.setattr("knotid.cli.run_sweep", no_sweep)
        if isinstance(config, dict):
            for name, value in config.items():
                monkeypatch.setenv(name, value)
        elif config is not None:
            (tmp_path / "exp.cfg").write_text(config)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert peak < 8 * 2**20  # the grid is refused, not built
        assert [p.name for p in tmp_path.iterdir()] \
            == (["exp.cfg"] if isinstance(config, str) else [])


ONE_BACKBONE = (12, 3, 0)  # n, cycle size, seed: a backbone of 12 links


class TestBounds:
    """A library call states each bound in the words a flag gets."""

    @pytest.mark.parametrize("call, message", [
        (lambda: knotid.gen_backbone(1, 2, 0), "n must be in 2..10000, got 1"),
        (lambda: knotid.gen_backbone(12, 13, 0),
         "cycle_size must be in 2..12, got 13"),
        (lambda: knotid.worst_case_schedule(1),
         "n must be in 2..10000, got 1"),
        (lambda: Schedule(10001, []), "n must be in 0..10000, got 10001"),
        (lambda: knotid.computation_rounds(
            knotid.gen_backbone(*ONE_BACKBONE), 0, 0),
         "edges_per_round must be in 1..12, got 0"),
        (lambda: knotid.gen_computation(
            knotid.gen_backbone(*ONE_BACKBONE), 2, -1, 0),
         "horizon must be in 0..100000, got -1"),
        (lambda: knotid.run(Schedule(3, []), min_knot_size=1),
         "min_knot_size must be at least 2, got 1"),
        (lambda: knotid.reference_run(Schedule(3, []), min_knot_size=1),
         "min_knot_size must be at least 2, got 1"),
        (lambda: knotid.on_state(knotid.ProcessState(0), [], 1,
                                 min_knot_size=1),
         "min_knot_size must be at least 2, got 1"),
        (lambda: knotid.find_knots(frozenset(), min_size=1),
         "min_knot_size must be at least 2, got 1"),
        (lambda: knotid.reachability_knots(frozenset(), min_size=0),
         "min_knot_size must be at least 2, got 0"),
        (lambda: ExperimentConfig(base_seed=-1).validate(),
         "base_seed must be at least 0, got -1"),
        (lambda: ExperimentConfig(workers=257).validate(),
         "workers must be in 1..256, got 257"),
        # a count is an int, whichever call takes it
        (lambda: knotid.computation_rounds(
            knotid.gen_backbone(*ONE_BACKBONE), 2.5, 0),
         "edges_per_round must be an int, got 2.5"),
        (lambda: knotid.run(Schedule(3, []), min_knot_size=2.5),
         "min_knot_size must be an int, got 2.5"),
        (lambda: ExperimentConfig(num_seeds=2.5).validate(),
         "num_seeds must be an int, got 2.5"),
        (lambda: knotid.gen_computation(
            knotid.gen_backbone(*ONE_BACKBONE), 2, 2.5, 0),
         "horizon must be an int, got 2.5"),
        (lambda: knotid.gen_backbone(10, 3.0, 0),
         "cycle_size must be an int, got 3.0"),
        (lambda: knotid.insert_noncomm_states(worst_case_schedule(3), [True]),
         "insert position must be an int, got True"),
        (lambda: knotid.TemporalEdge(0.5, 1, 2),
         "src must be an int, got 0.5"),
        (lambda: knotid.TemporalEdge(True, 1, 0),
         "src must be an int, got True"),
        (lambda: knotid.insert_noncomm_states(worst_case_schedule(3),
                                              [1, None]),
         "insert position must be an int, got None"),
        (lambda: knotid.insert_noncomm_states(worst_case_schedule(3),
                                              [1, "a"]),
         "insert position must be an int, got 'a'"),
    ], ids=["gen-backbone-n", "gen-backbone-cycle-size", "worst-case-n",
            "schedule-n-cap", "computation-rounds-edges",
            "gen-computation-horizon", "run-min-knot-size",
            "reference-run-min-knot-size", "on-state-min-knot-size",
            "find-knots-min-size",
            "reachability-knots-min-size", "config-base-seed",
            "config-workers", "computation-rounds-float-edges",
            "run-float-min-knot-size", "config-float-num-seeds",
            "gen-computation-float-horizon", "gen-backbone-float-cycle-size",
            "insert-bool-position", "temporal-edge-float-src",
            "temporal-edge-bool-self-loop", "insert-none-position",
            "insert-str-position"])
    def test_library_call_gives_the_one_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


# Forms Python's ``int`` takes that the one number grammar refuses: a plus
# sign, an underscore, a leading space and Arabic-Indic digits.
NOT_INTEGERS = ["+3", "1_2", " 12", "\u0661\u0662"]
INT_FLAGS = [("gen", flag) for flag in (
    "--n", "--cycle-size", "--edges-per-round", "--horizon", "--seed",
    "--worst-case")] + [("run", flag) for flag in (
        "--n", "--cycle-size", "--edges-per-round", "--horizon", "--seed",
        "--worst-case", "--min-knot-size")] + [("verify", "--min-knot-size")]


class TestInputRules:
    """Every integer a user types takes one grammar, ASCII digits with an
    optional leading minus, and a file that is not UTF-8 names the line."""

    @pytest.fixture
    def refuse_cells(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def no_sweep(cfg):
            raise AssertionError("a rejected sweep reached its cells")

        monkeypatch.setattr("knotid.cli.run_sweep", no_sweep)

    @pytest.mark.parametrize("form", NOT_INTEGERS)
    @pytest.mark.parametrize("command, flag", INT_FLAGS)
    def test_int_flags_refuse_other_forms(self, tmp_path, capsys,
                                          monkeypatch, command, flag, form):
        monkeypatch.chdir(tmp_path)
        argv = [command, flag, form]
        if command == "verify":
            argv.append("missing.txt")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert (f"argument {flag}: invalid integer value: {form!r}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form", NOT_INTEGERS)
    @pytest.mark.parametrize("flag", [
        "--n", "--horizon", "--num-seeds", "--base-seed", "--min-knot-size",
        "--workers", "--cycle-sizes", "--edges-per-round"])
    def test_sweep_flags_refuse_other_forms(self, tmp_path, capsys,
                                            refuse_cells, flag, form):
        assert main([*SWEEP, flag, form]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err \
            == f"error: bad integer for {key}: {form!r}\n"
        assert list(tmp_path.iterdir()) == []

    # Spaces around '=' belong to the line, not the value, so the leading
    # space is tried where it is part of a value: inside a list.
    @pytest.mark.parametrize("line", [
        *(f"num_seeds = {form}" for form in NOT_INTEGERS if form[0] != " "),
        *(f"cycle_sizes = 3,{form}" for form in NOT_INTEGERS)])
    def test_config_lines_refuse_other_forms(self, tmp_path, capsys,
                                             refuse_cells, line):
        (tmp_path / "exp.cfg").write_text(f"n = 12\n{line}\n",
                                          encoding="utf-8")
        assert main(CONFIG) == 2
        key, value = line.split(" = ")
        form = value.split(",")[-1]
        assert capsys.readouterr().err \
            == f"error: exp.cfg:2: bad integer for {key}: {form!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_config_strips_only_ascii_whitespace(self, tmp_path, capsys,
                                                 refuse_cells):
        value = "12\u2003"  # an em space, as a schedule header refuses it
        (tmp_path / "exp.cfg").write_text(f"n = {value}\n", encoding="utf-8")
        assert main(CONFIG) == 2
        assert capsys.readouterr().err \
            == f"error: exp.cfg:1: bad integer for n: {value!r}\n"

    @pytest.mark.parametrize("form", NOT_INTEGERS)
    def test_workers_env_refuses_other_forms(self, tmp_path, capsys,
                                             monkeypatch, refuse_cells, form):
        monkeypatch.setenv("KNOTID_WORKERS", form)
        assert main(SWEEP) == 2
        assert capsys.readouterr().err == (
            f"error: bad integer for workers: {form!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_config_byte_not_utf8_names_its_line(self, tmp_path, capsys,
                                                 refuse_cells):
        (tmp_path / "exp.cfg").write_bytes(b"n = \xff12\n")
        assert main(CONFIG) == 2
        assert capsys.readouterr().err.startswith("error: exp.cfg:1: ")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_schedule_byte_not_utf8_names_its_line(self, tmp_path, capsys):
        lines = [b"n=3 horizon=3000 seed=0 params=x\n"]
        lines += [b"0 1 %d\n" % r for r in range(1, 3001)]
        lines[2500] = b"0 1 \xff\n"
        assert len(b"".join(lines[:2500])) > 8192  # past the first chunk
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(lines))
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2501: ")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.txt"]

    def test_crlf_config_reads_as_lf(self, tmp_path):
        text = ("# grid\nn = 12\ncycle_sizes = 3,6\nedges_per_round = 1:3\n"
                "horizon = 300\nnum_seeds = 2\n")
        for name, line_end in (("lf", "\n"), ("crlf", "\r\n")):
            (tmp_path / f"{name}.cfg").write_bytes(
                text.replace("\n", line_end).encode("ascii"))
            assert main(["sweep", "--config", str(tmp_path / f"{name}.cfg"),
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert ((tmp_path / "crlf.csv").read_bytes()
                == (tmp_path / "lf.csv").read_bytes())

    def test_lone_cr_is_not_a_line_end(self, tmp_path, capsys, refuse_cells):
        (tmp_path / "exp.cfg").write_bytes(b"n = 12\rhorizon = 10\r")
        assert main(CONFIG) == 2
        assert capsys.readouterr().err == (
            "error: exp.cfg:1: bad integer for n: '12\\rhorizon = 10'\n")
        (tmp_path / "s.txt").write_bytes(
            b"n=3 horizon=1 seed=0 params=x\r0 1 1\r")
        assert main(["run", "s.txt", "--out", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: s.txt:1: header ")


# ``python -m`` puts its working directory first on sys.path, so running it
# here starts the same knotid sources the tests imported, with no PYTHONPATH.
PACKAGE_ROOT = Path(knotid.__file__).resolve().parents[1]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        for n in (5, 4):
            result = subprocess.run(
                [sys.executable, "-m", "knotid", "run", "--worst-case", str(n),
                 "--out", str(tmp_path / f"m{n}")],
                capture_output=True, text=True, cwd=PACKAGE_ROOT)
            assert result.returncode == 0
            assert f"longest output round: {2 * n - 1}" in result.stdout
            assert (tmp_path / f"m{n}_trace.csv").exists()

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "knotid", "frobnicate"],
            capture_output=True, text=True, cwd=PACKAGE_ROOT)
        assert result.returncode == 2
