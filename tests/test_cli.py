"""File formats and end-to-end command-line flows."""

import hashlib
import json

import pytest

from graphqcka import networks
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
                 ("2\n1 1\n", ":2:"), ("2\n1 2\n2 1\n", ":3:"), ("", "empty")]
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
    (["extract", "--graph", "{disconnected}", "--alice", "1", "--bobs", "3"],
     EXIT_NO_PLAN),
    (["analyze", "--graph", "{graph}", *ROLES], EXIT_MISSING_SETTING),
    (["extract", "--graph", "{graph30}", *ROLES], EXIT_CAP),
    # 13 vertices, 6 nonparticipants: over the search's vertex cap only
    (["extract", "--graph", "{path13}", "--protocol", "nqkd", "--alice", "1",
      "--bobs", "2,3,4,5,6,7"], EXIT_CAP),
    (["orbit", "--graph", "{path13}"], EXIT_CAP),
]


@pytest.fixture
def cli_inputs(tmp_path, graph_file):
    texts = {
        "bad_graph": "x\n",
        "zero_graph": "0\n",
        "disconnected": "4\n1 2\n3 4\n",
        "graph30": "30\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 30)),
        "path13": "13\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 13)),
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
                         {"noise": {"pump_contamination_coefficient": -1}})):
        texts[name] = json.dumps({"graph": str(graph_file), "alice": 1,
                                  "bobs": [2, 5, 6], "out": str(tmp_path / "out"),
                                  **extra})
    paths = {"graph": str(graph_file), "missing": str(tmp_path / "absent.txt")}
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
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

    @pytest.mark.parametrize("argv, code", EXIT_CODE_TABLE,
                             ids=[" ".join(argv) for argv, _ in EXIT_CODE_TABLE])
    def test_exit_code_table(self, argv, code, cli_inputs, tmp_path, capsys):
        argv = [a.format(**cli_inputs) for a in argv]
        if argv[0] != "orbit" and "--config" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            # one line, no traceback
            assert err.startswith("error: ") and err.count("\n") == 1, err

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
            "report.json": "a7cc8662d5564dfa4866c6c0699221172abd97bd6b0f3654be0bc110eb709b42",
            "sweep.csv": "84006dcc9222dd73f8091086456562fceabe6101f743620833e06761e9f23763"}
