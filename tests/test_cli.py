"""File formats and end-to-end command-line flows."""

import contextlib
import hashlib
import io
import json
import shutil
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from graphqcka import graphstate, networks, routing
from graphqcka.cli import (EXIT_CAP, EXIT_MISSING_SETTING, EXIT_NO_PLAN,
                           EXIT_PARSE, main)
from graphqcka.io import (ParseError, RunConfig, parse_counts, parse_graph,
                          serialize_graph, write_counts)
from graphqcka.keyrates import RoundBatch
from graphqcka.routing import compile_round_settings

from conftest import write_readme_run

SIX_VERTEX_TEXT = "6\n1 2\n2 4\n3 4\n4 6\n5 6\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(SIX_VERTEX_TEXT)
    return path


class TestGraphFormat:
    def test_six_vertex_round_trip(self, graph_file):
        g = parse_graph(graph_file)
        assert g == networks.six_vertex_graph()
        assert serialize_graph(g) == SIX_VERTEX_TEXT

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a network\n2\n\n1 2  # the only edge\n")
        assert parse_graph(path).edges() == ((0, 1),)

    def test_single_vertex(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1\n")
        assert parse_graph(path).n == 1

    def test_errors_carry_line_numbers(self, tmp_path):
        cases = [("x\n", ":1:"), ("2\n1 2 3\n", ":2:"), ("2\n1 9\n", ":2:"),
                 ("2\n1 1\n", ":2:"), ("2\n1 2\n2 1\n", ":3:"), ("", "empty"),
                 # whole messages of the edge checks, the first failing check winning
                 ("3\n1 2\n2 3\n1 2\n", ":4: duplicate edge 1 2$"),
                 ("3\n1 2\n2 3\n3 2\n", ":4: duplicate edge 3 2$"),
                 ("3\n2 3\n\n# comment\n3 3\n", ":5: self-loop 3$"),
                 ("3\n1 2\n0 1\n", r":3: label out of range 1\.\.3$"),
                 ("3\n1 4\n1 4\n", r":2: label out of range 1\.\.3$"),
                 ("3\n2 2\n2 2\n", ":2: self-loop 2$")]
        for text, marker in cases:
            path = tmp_path / "bad.txt"
            path.write_text(text)
            with pytest.raises(ParseError, match=marker):
                parse_graph(path)


class TestCountsFormat:
    def test_round_trip(self, tmp_path):
        plan = networks.ghz_plan()
        setting = compile_round_settings(plan, "type-1")
        batch = RoundBatch(setting, plan.targets, {"0000": 7, "1111": 3})
        path = tmp_path / "c.counts"
        write_counts(path, batch, 6, seed=42, rounds=10)
        back = parse_counts(path)
        assert back.counts == batch.counts
        assert back.participants == batch.participants
        assert back.setting.round_type == "type-1"
        assert back.setting.basis_string(range(6)) == "ZZXXZZ"

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "c.counts"
        for text in ("0000 5\n",                       # counts before headers
                     "setting type-9 ZZ\n",            # bad round type
                     "setting type-1 ZZ\nparticipants 1 2\n000 5\n",  # length
                     "setting type-1 ZZ\nparticipants 1 2\n00 5\n00 6\n",
                     "setting type-1 ZZ\nparticipants 1 2\n00 -1\n"):
            path.write_text(text)
            with pytest.raises(ParseError):
                parse_counts(path)


    def test_repeated_headers_and_undecodable_bytes(self, tmp_path):
        path = tmp_path / "c.counts"
        head = "setting type-1 ZZ\nparticipants 1 2\n"
        for blob, message in (
                ((head + "00 5\nparticipants 1\n").encode(), ":4: duplicate participants header$"),
                ((head + "setting type-2 XX\n").encode(), ":3: duplicate setting header$"),
                (head.encode() + b"00 5\xff\n", ": not UTF-8 text at byte offset 39$")):
            path.write_bytes(blob)
            with pytest.raises(ParseError, match=message):
                parse_counts(path)

class TestRunConfig:
    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "graph": "g.txt", "alice": 1, "bobs": [2, 5, 6], "seed": 3,
            "noise": {"white_noise": 0.05, "depolarizing": {"2": 0.1}}}))
        cfg = RunConfig.from_json(path)
        assert cfg.participants() == (0, 1, 4, 5)
        model = cfg.noise_model()
        assert model.white_noise == 0.05
        assert model.depolarizing == {1: 0.1}

    def test_invalid_protocol(self):
        with pytest.raises(ValueError):
            RunConfig(graph="g", protocol="teleport")

    def test_roles_must_be_disjoint(self):
        for alice, bobs in ((1, (1, 2)), (1, (2, 2)), (1, ()), (None, (2,))):
            with pytest.raises(ParseError):
                RunConfig(graph="g", alice=alice, bobs=bobs).participants()
        with pytest.raises(ParseError, match="^invalid roles: roles must be disjoint$"):
            RunConfig(graph="g", alice=3, bobs=(1, 3)).participants()
        assert RunConfig(graph="g", alice=3, bobs=(6, 1)).participants() == (0, 2, 5)


ROLES = ["--alice", "1", "--bobs", "2,5,6"]

# (argv, documented exit code); {name} stands for a file of cli_inputs
EXIT_CODE_TABLE = [
    (["extract", "--graph", "{graph}", *ROLES], 0),
    (["orbit", "--graph", "{bad_graph}"], EXIT_PARSE),
    (["orbit", "--graph", "{missing}"], EXIT_PARSE),
    (["extract", "--graph", "{zero_graph}", *ROLES], EXIT_PARSE),
    (["extract", "--graph", "{graph}", "--alice", "1", "--bobs", "2,x"], EXIT_PARSE),
    (["extract", "--graph", "{graph}", "--alice", "1", "--bobs", "1,2"], EXIT_PARSE),
    (["extract", "--graph", "{graph}", "--alice", "9", "--bobs", "2,5,6"], EXIT_PARSE),
    (["extract", "--graph", "{graph}"], EXIT_PARSE),
    (["extract", *ROLES], EXIT_PARSE),
    (["extract", "--config", "{unknown_key_config}"], EXIT_PARSE),
    (["extract", "--config", "{bad_json_config}"], EXIT_PARSE),
    (["simulate", "--graph", "{graph}", *ROLES, "--seed", "1", "--rounds", "0"],
     EXIT_PARSE),
    (["simulate", "--graph", "{graph}", *ROLES], EXIT_PARSE),
    (["simulate", "--config", "{bad_noise_config}"], EXIT_PARSE),
    (["simulate", "--config", "{stray_noise_config}"], EXIT_PARSE),
    (["sweep", "--config", "{negative_sweep_config}"], EXIT_PARSE),
    (["sweep", "--config", "{fractional_sweep_config}"], EXIT_PARSE),
    (["sweep", "--config", "{negative_pump_config}"], EXIT_PARSE),
    (["simulate", "--config", "{graph_number_config}"], EXIT_PARSE),
    (["simulate", "--config", "{out_number_config}"], EXIT_PARSE),
    (["simulate", "--config", "{huge_rounds_config}"], EXIT_PARSE),
    (["analyze", "--config", "{huge_mc_samples_config}"], EXIT_PARSE),
    (["sweep", "--config", "{huge_sweep_config}"], EXIT_PARSE),
    (["extract", "--graph", "{disconnected}", "--alice", "1", "--bobs", "3"],
     EXIT_NO_PLAN),
    (["analyze", "--graph", "{graph}", *ROLES], EXIT_MISSING_SETTING),
    (["extract", "--graph", "{graph30}", *ROLES], EXIT_CAP),
    # 7 nonparticipants: all 3^7 bases are tried, and no GHZ plan exists
    (["extract", "--graph", "{path13}", "--protocol", "nqkd", "--alice", "1",
      "--bobs", "2,3,4,5,6"], EXIT_NO_PLAN),
    # a Bell pair across the path needs all 14 inner nodes off Z: the
    # search stops at its budget (ERROR_LINES)
    (["extract", "--graph", "{path16}", "--protocol", "nqkd", "--alice", "1",
      "--bobs", "16"], EXIT_CAP),
    # the 2QKD cover on a dense graph stops at its budget (ERROR_LINES)
    (["extract", "--graph", "{g13}", "--protocol", "2qkd", "--alice", "1",
      "--bobs", ",".join(str(v) for v in range(2, 13))], EXIT_CAP),
    # 18 isolated nodes more: the README plans at 20 nonparticipants
    (["extract", "--graph", "{graph24}", "--protocol", "both", *ROLES], 0),
    (["orbit", "--graph", "{path13}"], EXIT_CAP),
    # more than cli.USER_CAP (12) users: simulate's outcome tables are exponential
    (["extract", "--graph", "{star24}", "--alice", "1",
      "--bobs", ",".join(str(v) for v in range(2, 25))], EXIT_CAP),
    (["simulate", "--graph", "{star13}", "--protocol", "nqkd", "--alice", "1",
      "--bobs", ",".join(str(v) for v in range(2, 14)), "--seed", "1"], EXIT_CAP),
    (["extract", "--graph", "{star13}", "--protocol", "nqkd", "--alice", "1",
      "--bobs", ",".join(str(v) for v in range(2, 13))], 0),
    (["sweep", "--config", "{infinite_sweep_config}"], EXIT_PARSE),
    (["sweep", "--config", "{infinite_pump_config}"], EXIT_PARSE),
    # the raw rate p**3 overflows float64
    (["sweep", "--config", "{overflow_sweep_config}"], EXIT_PARSE),
    # under "both" the sweep searches the GHZ plan alone
    (["sweep", "--graph", "{star13}", "--alice", "1",
      "--bobs", ",".join(str(v) for v in range(2, 13))], 0),
    # 12 users on a star: every set of two or more links has cut-rank 1, and
    # each single link is cast with its 11 nonparticipants measured in Z
    (["extract", "--graph", "{star13}", "--protocol", "both", "--alice", "1",
      "--bobs", ",".join(str(v) for v in range(2, 13))], 0),
    # the sweep has no AKR_2 form for the pairwise protocol
    (["sweep", "--graph", "{graph}", "--protocol", "2qkd", *ROLES], EXIT_PARSE),
    # input files that are not UTF-8 text
    (["extract", "--graph", "{latin1_graph}", *ROLES], EXIT_PARSE),
    (["extract", "--config", "{latin1_config}"], EXIT_PARSE),
    (["analyze", "--graph", "{graph}", *ROLES, "--counts", "{latin1_counts}"], EXIT_PARSE),
    # a second participants header after the rows, one user short
    (["analyze", "--graph", "{graph}", *ROLES, "--counts", "{repeated_header_counts}"],
     EXIT_PARSE),
]
# the exact error line of some rows, by the row's test id
ERROR_LINES = {
    "extract --graph {path16} --protocol nqkd --alice 1 --bobs 16":
        "error: GHZ plan search stopped at the search budget of 6561 candidates\n",
    "extract --graph {g13} --protocol 2qkd --alice 1 --bobs 2,3,4,5,6,7,8,9,10,11,12":
        "error: pairwise cover search stopped at the search budget of 6561 candidates\n",
}
# G(13, 1/2) drawn with random.Random(3), each pair an edge with probability 1/2
G13_EDGES = ("1-2 1-4 1-7 1-8 1-10 1-11 1-13 2-4 2-6 2-12 3-5 3-6 3-8 3-13 4-6 4-9 "
             "4-10 4-11 4-13 5-7 5-9 5-10 6-12 7-12 8-10 8-11 9-10 9-12 9-13 10-11 "
             "11-12 12-13")


@pytest.fixture
def cli_inputs(tmp_path, graph_file):
    texts = {
        "bad_graph": "x\n",
        "zero_graph": "0\n",
        "disconnected": "4\n1 2\n3 4\n",
        "graph30": "30\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 30)),
        "path13": "13\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 13)),
        "path16": "16\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 16)),
        "g13": "13\n" + "".join(edge.replace("-", " ") + "\n" for edge in G13_EDGES.split()),
        "graph24": "24\n" + SIX_VERTEX_TEXT.split("\n", 1)[1],
        "star13": "13\n" + "".join(f"1 {v}\n" for v in range(2, 14)),
        "star24": "24\n" + "".join(f"1 {v}\n" for v in range(2, 25)),
        "unknown_key_config": json.dumps({"graph": str(graph_file), "alice": 1,
                                          "bobs": [2, 5, 6], "bogus": 1}),
        "bad_json_config": "{\"graph\": ",
        "bad_noise_config": json.dumps({"graph": str(graph_file), "alice": 1,
                                        "bobs": [2, 5, 6], "seed": 1,
                                        "out": str(tmp_path / "out"),
                                        "noise": {"white_noise": 2.0}}),
        "stray_noise_config": json.dumps({"graph": str(graph_file), "alice": 1,
                                          "bobs": [2, 5, 6], "seed": 1,
                                          "out": str(tmp_path / "out"),
                                          "noise": {"depolarizing": {"9": 0.5}}}),
    }
    for name, extra in (("negative_sweep_config", {"sweep_powers": [-5, 200, 10]}),
                        ("fractional_sweep_config", {"sweep_powers": [5, 200, 3.5]}),
                        ("negative_pump_config",
                         {"noise": {"pump_contamination_coefficient": -1}}),
                        ("graph_number_config", {"graph": 3, "seed": 1}),
                        ("out_number_config", {"out": 3, "seed": 1}),
                        ("huge_rounds_config", {"rounds": 10**30, "seed": 1}),
                        ("huge_mc_samples_config", {"mc_samples": 10**12, "seed": 1}),
                        ("huge_sweep_config", {"sweep_powers": [5, 200, 10**12]}),
                        ("infinite_sweep_config", {"sweep_powers": [5, float("inf"), 3]}),
                        ("overflow_sweep_config", {"sweep_powers": [0, 1e308, 3]}),
                        ("infinite_pump_config",
                         {"noise": {"pump_contamination_coefficient": float("inf")}})):
        texts[name] = json.dumps({"graph": str(graph_file), "alice": 1,
                                  "bobs": [2, 5, 6], "out": str(tmp_path / "out"),
                                  **extra})
    paths = {"graph": str(graph_file), "missing": str(tmp_path / "absent.txt")}
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    config = {"graph": str(graph_file), "alice": 1, "bobs": [2, 5, 6]}
    for name, blob in (("latin1_graph", b"\xff\xfe6\n1 2\n"),
                       ("latin1_config", json.dumps(config).encode() + b"\xff")):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(blob)
        paths[name] = str(path)
    # counts directories, each holding the first file analyze reads
    header = "setting type-1 ZZXXZZ\nparticipants 1 2 5 6\n0000 5\n"
    for name, blob in (("latin1_counts", header.encode() + b"\xff"),
                       ("repeated_header_counts", (header + "participants 1 2 5\n").encode())):
        (tmp_path / name).mkdir()
        (tmp_path / name / "nqkd_type1.counts").write_bytes(blob)
        paths[name] = str(tmp_path / name)
    return paths


def run_pipeline(tmp_path, graph_file, seed=42, rounds=4000):
    out = tmp_path / "out"
    base = ["--graph", str(graph_file), "--alice", "1", "--bobs", "2,5,6",
            "--out", str(out)]
    assert main(["simulate", *base, "--seed", str(seed),
                 "--rounds", str(rounds)]) == 0
    assert main(["analyze", *base, "--seed", str(seed)]) == 0
    return json.loads((out / "report.json").read_text())


class TestCommands:
    def test_orbit(self, graph_file, capsys):
        assert main(["orbit", "--graph", str(graph_file)]) == 0
        head, *members = capsys.readouterr().out.splitlines()
        assert "39 members" in head and len(members) == 39
        edges = [[tuple(map(int, e.split("-"))) for e in line.split("; ")]
                 for line in members]
        assert edges == sorted(edges)

    def test_extract_writes_plans(self, tmp_path, graph_file):
        out = tmp_path / "plans"
        assert main(["extract", "--graph", str(graph_file), "--alice", "1",
                     "--bobs", "2,5,6", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("plan_*.json"))
        assert "plan_nqkd_0.json" in names
        assert any(n.startswith("plan_2qkd_") for n in names)

    def test_ideal_pipeline_reproduces_advantage(self, tmp_path, graph_file):
        report = run_pipeline(tmp_path, graph_file)
        assert report["akr_n"] == pytest.approx(1.0)
        assert report["akr_2"] == pytest.approx(0.5)
        assert report["ratio"] == pytest.approx(2.0)
        assert report["qber"] == 0.0 and report["qx"] == 0.0

    def test_noisy_pipeline_with_undefined_ratio(self, tmp_path, graph_file):
        # white noise 0.25 drives every pairwise rate, and so akr_2, to 0
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": str(graph_file), "alice": 1, "bobs": [2, 5, 6],
            "out": str(out), "seed": 42, "rounds": 4000,
            "noise": {"white_noise": 0.25}}))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["analyze", "--config", str(cfg)]) == 0
        text = (out / "report.json").read_text()
        assert '"ratio": null' in text
        report = json.loads(text)
        assert report["akr_2"] == 0.0

    def test_pipeline_deterministic(self, tmp_path, graph_file):
        a = run_pipeline(tmp_path / "a", graph_file)
        b = run_pipeline(tmp_path / "b", graph_file)
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b

    def test_report_floats_are_12_digit(self, tmp_path, graph_file):
        report = run_pipeline(tmp_path, graph_file, seed=7)
        for key in ("akr_n", "akr_2", "qber", "qx"):
            v = report[key]
            assert v == float(f"{v:.12g}")

    def test_exit_codes(self, tmp_path, graph_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x\n")
        assert main(["orbit", "--graph", str(bad)]) == EXIT_PARSE
        # no GHZ plan across disconnected users
        disc = tmp_path / "disc.txt"
        disc.write_text("4\n1 2\n3 4\n")
        assert main(["extract", "--graph", str(disc), "--alice", "1",
                     "--bobs", "3", "--out", str(tmp_path / "o")]) == EXIT_NO_PLAN
        # analyze with no counts present
        assert main(["analyze", "--graph", str(graph_file), "--alice", "1",
                     "--bobs", "2,5,6", "--out",
                     str(tmp_path / "empty")]) == EXIT_MISSING_SETTING
        # counts whose basis contradicts the compiled setting
        out = tmp_path / "mismatch"
        base = ["--graph", str(graph_file), "--alice", "1", "--bobs", "2,5,6",
                "--out", str(out)]
        assert main(["simulate", *base, "--seed", "1", "--rounds", "200"]) == 0
        victim = out / "nqkd_type1.counts"
        victim.write_text(victim.read_text().replace("ZZXXZZ", "XXXXXX"))
        assert main(["analyze", *base]) == EXIT_MISSING_SETTING

    @pytest.mark.parametrize("name, header, edit", [
        ("nqkd_type1.counts", "setting", lambda line: "setting type-1 ZZZ"),
        ("bell0_type1.counts", "participants", lambda line: "participants 1 2 3 4"),
        ("nqkd_type1.counts", "participants", lambda line: "participants 1 2 3 4"),
        # one letter more than the graph has, the first six as planned
        ("bell1_type2.counts", "setting", lambda line: line + "Z"),
    ], ids=["short-basis", "bell-participants", "ghz-participants", "long-basis"])
    def test_analyze_rejects_mismatched_counts(self, name, header, edit, tmp_path,
                                               graph_file, capsys):
        """A counts file whose full basis string or participant list is not
        the plan's exits 4 with one error line, before any report."""
        out = tmp_path / "out"
        base = ["--graph", str(graph_file), "--alice", "1", "--bobs", "2,5,6",
                "--out", str(out)]
        assert main(["simulate", *base, "--seed", "1", "--rounds", "200"]) == 0
        victim = out / name
        victim.write_text("".join(edit(line) + "\n" if line.startswith(header + " ")
                                  else line + "\n"
                                  for line in victim.read_text().splitlines()))
        capsys.readouterr()
        assert main(["analyze", *base]) == EXIT_MISSING_SETTING
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: ") and err.count("\n") == 1, err
        assert not (out / "report.json").exists()

    def test_analyze_rejects_counts_without_rows(self, tmp_path, graph_file, capsys):
        """A counts file with its headers but no outcome rows exits 4 with one
        error line, not an empty-batch traceback."""
        out = tmp_path / "out"
        base = ["--graph", str(graph_file), *ROLES, "--out", str(out)]
        assert main(["simulate", *base, "--seed", "1", "--rounds", "200"]) == 0
        victim = out / "bell1_type2.counts"
        victim.write_text("".join(line + "\n" for line in victim.read_text().splitlines()
                                  if not line[:1].isdigit()))
        capsys.readouterr()
        assert main(["analyze", *base]) == EXIT_MISSING_SETTING
        assert capsys.readouterr().err == f"error: {victim}: no outcome rows\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("count, code", [
        (9223372036854775807, EXIT_PARSE), (99999999999999999999, EXIT_PARSE),
        (2**62, EXIT_PARSE), (10**16, 0)])
    def test_analyze_bounds_counts(self, count, code, tmp_path, graph_file, capsys):
        """A counts file whose counts sum to 2**62 or more exits 2 naming the
        line that reaches it; a count of 10**16 is analyzed."""
        out = tmp_path / "out"
        base = ["--graph", str(graph_file), *ROLES, "--out", str(out)]
        assert main(["simulate", *base, "--seed", "1", "--rounds", "200"]) == 0
        victim = out / "nqkd_type1.counts"
        lines = victim.read_text().splitlines()
        lineno = next(k for k, line in enumerate(lines, start=1) if line[:1].isdigit())
        lines[lineno - 1] = f"{lines[lineno - 1].split()[0]} {count}"
        victim.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", *base]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith(f"error: {victim}:{lineno}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv, code", EXIT_CODE_TABLE,
                             ids=[" ".join(argv) for argv, _ in EXIT_CODE_TABLE])
    def test_exit_code_table(self, argv, code, cli_inputs, tmp_path, capsys):
        error_line = ERROR_LINES.get(" ".join(argv))
        argv = [a.format(**cli_inputs) for a in argv]
        if argv[0] != "orbit" and "--config" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            # one line, no traceback, and no sweep written
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not (tmp_path / "out" / "sweep.csv").exists()
        assert error_line in (None, err)

    def test_sweep_outputs(self, tmp_path, graph_file):
        out = tmp_path / "sweep"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": str(graph_file), "alice": 1, "bobs": [2, 5, 6],
            "out": str(out), "sweep_powers": [5.0, 200.0, 12]}))
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "p_mW,akr,rate_hz,keyrate_hz"
        assert len(rows) == 13
        assert all(len(r.split(",")) == 4 for r in rows[1:])
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert 5.0 < summary["optimum_power_mw"] < 200.0

    def test_config_flags_override(self, tmp_path, graph_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": str(graph_file), "alice": 1,
                                   "bobs": [2, 5, 6], "seed": 9,
                                   "out": str(tmp_path / "c1")}))
        assert main(["simulate", "--config", str(cfg), "--rounds", "100"]) == 0
        assert (tmp_path / "c1" / "nqkd_type1.counts").exists()


class TestReadmeRun:
    def test_outputs_are_pinned(self, tmp_path, monkeypatch):
        """The README run (extract, simulate, analyze, sweep from its run.json,
        relative paths, in a fresh directory) writes report.json and sweep.csv
        with these exact bytes.  A change that moves a reported digit fails
        here; one meant to do so updates the digests and says why."""
        monkeypatch.chdir(tmp_path)
        write_readme_run(tmp_path)
        for stage in ("extract", "simulate", "analyze", "sweep"):
            assert main([stage, "--config", "run.json"]) == 0
        digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                   for name in ("report.json", "sweep.csv")}
        assert digests == {
            "report.json": "1fc6e56255d316aa171520c8ff63f36d0f2080c143ddda7b2baf0f5e8ae0b287",
            "sweep.csv": "84006dcc9222dd73f8091086456562fceabe6101f743620833e06761e9f23763"}

    def test_report_draws_one_count_per_pooled_class(self, readme_artifacts, poisson_cells,
                                                      tmp_path, monkeypatch):
        """analyze on the README run draws 22 Poisson counts per resample, one
        per class of outcomes that agree on every parity the report reads:
        8 + 2 for the GHZ batches, 4 + 4 and 2 + 2 for the two Bell plans',
        where one per observed outcome would be 72."""
        shutil.copytree(readme_artifacts, tmp_path, dirs_exist_ok=True)
        monkeypatch.chdir(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", "--config", "run.json"]) == 0
        assert poisson_cells == [22]

    def test_extract_builds_no_dense_state(self, tmp_path, monkeypatch):
        """extract on the README config checks every plan in GF(2): with the
        dense oracles made to raise it writes the same plan files."""
        def dense(*args, **kwargs):
            raise AssertionError("dense oracle called")

        monkeypatch.setattr(graphstate, "to_dense", dense)
        monkeypatch.setattr(routing, "to_dense", dense)
        monkeypatch.setattr(routing, "verify_plan_dense", dense)
        monkeypatch.chdir(tmp_path)
        write_readme_run(tmp_path)
        assert main(["extract", "--config", "run.json"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (tmp_path / "run").glob("plan_*.json")}
        assert digests == {
            "plan_nqkd_0.json": "7db84aa828610c7a97a5bc62b6a096304f97a28b3cd090d232ef09c314d84b60",
            "plan_2qkd_0.json": "b3657d850ccfeceee2417015cbdbffae8d95c4614a8eec9a5d6506e9d89de578",
            "plan_2qkd_1.json": "c8539e74242022769180febe8b9b258c56a1f5ec3568afe4a4857ef6d35a9b59"}


@pytest.fixture(scope="module")
def readme_artifacts(tmp_path_factory):
    """The README run's graph, config, plans and counts files, made once."""
    base = tmp_path_factory.mktemp("readme")
    write_readme_run(base)
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(base)
        for stage in ("extract", "simulate"):
            assert main([stage, "--config", "run.json"]) == 0
    return base


# values that a fuzzed config key takes, well-formed ones among them
FUZZ_VALUES = (None, True, -1, 0, 1, 3, 1.5, 10**5 + 1, 2**62, 10**12, 10**30,
               float("inf"), "", "x", "nqkd", "2qkd", [], [1, 2], [5, 200, 3],
               [5, float("inf"), 3], {}, {"3": 0.5}, {"white_noise": 2})
FUZZ_LINES = ("", "x", "0", "1", "7", "24", "25", "1 1", "1 2", "1 7", "2 5",
              "1 2 3", "-1 2", "99999999999999999999", "# comment",
              "0000 -1", "0000 9223372036854775807", "0000 10000000000000000",
              "0000 5 5", "00 5", "1111 5", "setting type-1 ZZZ",
              "setting type-3 ZZXXZZ", "participants 1 2", "participants x")
COUNTS_FILES = tuple(f"{tag}_{suffix}.counts" for tag in ("nqkd", "bell0", "bell1")
                     for suffix in ("type1", "type2"))
STAGES = ("extract", "simulate", "analyze", "sweep")
CONFIG_KEYS = ("graph", "alice", "bobs", "protocol", "rounds", "type2_fraction", "seed",
               "out", "mc_samples", "noise", "sweep_powers", "bogus")
MUTATIONS = st.one_of(
    st.tuples(st.just("config"), st.sampled_from(STAGES), st.sampled_from(CONFIG_KEYS),
              st.sampled_from(FUZZ_VALUES)),
    st.tuples(st.just("graph.txt"), st.just("extract"), st.integers(0, 6),
              st.sampled_from(FUZZ_LINES)),
    st.tuples(st.sampled_from(COUNTS_FILES).map("run/".__add__), st.just("analyze"),
              st.integers(0, 8), st.sampled_from(FUZZ_LINES)))


class TestMalformedInput:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=MUTATIONS)
    @example(mutation=("run/nqkd_type1.counts", "analyze", 3, "0000 9223372036854775807"))
    @example(mutation=("config", "simulate", "graph", 3))
    @example(mutation=("config", "simulate", "rounds", 10**30))
    @example(mutation=("config", "analyze", "mc_samples", 10**12))
    @example(mutation=("config", "sweep", "sweep_powers", [5, 200, 10**12]))
    @example(mutation=("config", "sweep", "sweep_powers", [5, float("inf"), 3]))
    @example(mutation=("config", "sweep", "sweep_powers", [0, 1e308, 3]))
    @example(mutation=("config", "sweep", "noise",
                       {"pump_contamination_coefficient": float("inf")}))
    def test_exits_with_a_documented_code_and_one_line(self, mutation, readme_artifacts,
                                                       tmp_path_factory, monkeypatch):
        """One change to the README run's config, graph or a counts file: the
        stage exits with a documented code and, unless it succeeds, prints one
        error line and no traceback.  No stage may warn: pytest captures
        warnings before they reach stderr, so they are recorded here, and a
        numpy RuntimeWarning marks NaN or inf in what a stage wrote."""
        target, stage, where, value = mutation
        work = tmp_path_factory.mktemp("fuzz")
        shutil.copytree(readme_artifacts, work, dirs_exist_ok=True)
        monkeypatch.chdir(work)
        if target == "config":
            config = json.loads((work / "run.json").read_text())
            config[where] = value
            (work / "run.json").write_text(json.dumps(config))
        else:
            lines = (work / target).read_text().splitlines()
            lines[where:where + 1] = [value]
            (work / target).write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([stage, "--config", "run.json"])
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, EXIT_PARSE, EXIT_NO_PLAN, EXIT_MISSING_SETTING, EXIT_CAP)
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
