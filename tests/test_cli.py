"""CLI: configs, exit codes, determinism, exports, report tables."""

import hashlib
import json
import os

import pytest

from flipwalk.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    main,
    parse_config,
    report_table,
)
from flipwalk.errors import InvalidParameterError, SchemaMismatchError


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _summary(out_dir, command):
    with open(os.path.join(out_dir, f"{command}_summary.json")) as fh:
        return json.load(fh)


def test_config_validation():
    cfg = ExperimentConfig(command="analyze", ns=[2])
    cfg.validate()
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(command="bogus").validate()
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(command="analyze", ns=[]).validate()
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(command="sample", ns=[3]).validate()


@pytest.mark.parametrize("flag, value", [("--thin", "0"), ("--steps", "-5")])
def test_sample_rejects_bad_thin_and_steps(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    rc = main(["--command", "sample", "--n", "3", "--seed", "1", flag, value,
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "1", "2"])
def test_epsilon_must_be_finite_and_positive(tmp_path, capsys, value):
    out = tmp_path / "out"
    rc = main(["--command", "analyze", "--n", "4", "--epsilon", value, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "sample", "--n", "4", "--seed", "-1", "--out", "{out}"],
        ["--config", "{file}"],
        ["--command", "enumerate", "--n", "3", "--out", "{file}"],
    ],
    ids=["negative-seed", "non-utf8-config", "out-is-file"],
)
def test_bad_input_exits_usage_without_traceback(tmp_path, capsys, argv):
    afile = tmp_path / "afile"
    afile.write_bytes(b"\xff\xfe{")  # exists, and is not UTF-8
    rc = main([a.format(file=afile, out=tmp_path / "out") for a in argv])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_sample_on_edgeless_graph_exits_usage(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["--command", "sample", "--n", "1", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


def test_parse_n_range():
    cfg = parse_config(["--command", "analyze", "--n-range", "2..4"])
    assert cfg.ns == [2, 3, 4]
    with pytest.raises(InvalidParameterError):
        parse_config(["--command", "analyze", "--n-range", "2-4"])


def test_analyze_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["--command", "analyze", "--n-range", "2..4", "--out", str(d1)]) == EXIT_OK
    assert main(["--command", "analyze", "--n-range", "2..4", "--out", str(d2)]) == EXIT_OK
    b1 = (d1 / "analyze_summary.json").read_bytes()
    b2 = (d2 / "analyze_summary.json").read_bytes()
    assert b1 == b2


def test_sample_deterministic_and_requires_seed(tmp_path):
    out = str(tmp_path)
    assert main(["--command", "sample", "--n", "3", "--out", out]) == EXIT_USAGE
    args = ["--command", "sample", "--n", "3", "--seed", "5",
            "--steps", "2000", "--out", out]
    assert main(args) == EXIT_OK
    first = (tmp_path / "sample_summary.json").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "sample_summary.json").read_bytes() == first


@pytest.mark.parametrize(
    "flags, recorded, reliable",
    [
        # the graph-walk bench call: 201 samples over 16,796 states
        (["--k", "3", "--n", "10", "--seed", "1", "--thin", "50"], 201, False),
        (["--n", "4", "--seed", "1", "--steps", "100000", "--thin", "50"], 2001, True),
    ],
)
def test_sample_says_whether_chi_square_is_reliable(tmp_path, flags, recorded, reliable):
    assert main(["--command", "sample", *flags, "--out", str(tmp_path)]) == EXIT_OK
    (doc,) = json.loads((tmp_path / "sample_summary.json").read_text())
    assert doc["recorded"] == recorded
    assert doc["expected_per_state"] == recorded / (doc["dof"] + 1)
    assert doc["chi_square_reliable"] is reliable
    assert 0.0 <= doc["p_value"] <= 1.0


def test_flow_summary_certifies(tmp_path):
    assert main(["--command", "flow", "--n", "3", "--out", str(tmp_path)]) == EXIT_OK
    doc = _summary(tmp_path, "flow")
    assert doc[0]["conservation_certified"] is True
    assert doc[0]["congestion"]["normalization"] == "uniform"


def test_flow_summary_matches_golden(tmp_path):
    """rho, argmax_arc, the matching bounds and the pairing totals for
    n = 2..7, byte for byte."""
    assert main(["--command", "flow", "--n-range", "2..7", "--out", str(tmp_path)]) == EXIT_OK
    with open(os.path.join(GOLDEN, "flow_summary_n2-7.json"), "rb") as fh:
        assert (tmp_path / "flow_summary.json").read_bytes() == fh.read()


with open(os.path.join(GOLDEN, "cli_summaries.json")) as fh:
    CLI_RUNS = json.load(fh)["runs"]


@pytest.mark.parametrize("run", CLI_RUNS, ids=[" ".join(r["argv"][1:]) for r in CLI_RUNS])
def test_cli_outputs_match_golden(tmp_path, run):
    """Every summary and export the run writes, by sha256."""
    assert main([*run["argv"], "--out", str(tmp_path)]) == EXIT_OK
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == run["sha256"]


def test_cut_and_lattice_commands(tmp_path):
    out = str(tmp_path)
    assert main(["--command", "cut", "--n", "8", "--out", out]) == EXIT_OK
    assert _summary(tmp_path, "cut")[0]["degenerate"] is False
    assert main(["--command", "lattice", "--n", "3", "--out", out]) == EXIT_OK
    assert _summary(tmp_path, "lattice")[0]["oracles_agree"] is True
    assert main(
        ["--command", "lattice", "--n", "4", "--block", "2", "--out", out]
    ) == EXIT_OK
    assert _summary(tmp_path, "lattice")[0]["vertices"] == 16


def test_enumerate_cap_exit_code(tmp_path):
    rc = main(["--command", "enumerate", "--n", "14", "--cap", "1000",
               "--out", str(tmp_path)])
    assert rc == EXIT_CAP


def test_analyze_cap_exit_code(tmp_path):
    """The cap holds on the flip-graph build path: K_5 has 42 states."""
    assert main(["--command", "analyze", "--n", "5", "--cap", "3",
                 "--out", str(tmp_path)]) == EXIT_CAP


def test_malformed_config_exits_usage_without_artifacts(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("command == oops\n")
    out = tmp_path / "out"
    rc = main(["--config", str(bad), "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = analyze\nk = 3\nn = 4\n# comment\n")
    out = str(tmp_path / "out")
    assert main(["--config", str(cfg), "--n", "2", "--out", out]) == EXIT_OK
    doc = _summary(tmp_path / "out", "analyze")
    assert [d["n"] for d in doc] == [2]


def test_json_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "cut", "n_range": "8..9"}))
    out = str(tmp_path / "out")
    assert main(["--config", str(cfg), "--out", out]) == EXIT_OK
    assert [d["n"] for d in _summary(tmp_path / "out", "cut")] == [8, 9]


@pytest.mark.parametrize("line", ["n_range = 5-7", "n = five", "n_range = 2..x"])
def test_config_file_bad_n_exits_usage(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = cut\n{line}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text, key",
    [("run.cfg", "command = analyze\nnrange = 2..3\n", "nrange"),
     ("run.json", json.dumps({"command": "cut", "n": 8, "foo": 1}), "foo")],
    ids=["key-value", "json"],
)
def test_config_file_unknown_key_exits_usage(tmp_path, capsys, name, text, key):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, code",
    [(["--n", "5"], EXIT_CAP), (["--n", "4", "--block", "0"], EXIT_USAGE),
     (["--n", "4", "--block", "-1"], EXIT_USAGE)],
)
def test_lattice_cap_and_block_exit_codes(tmp_path, flags, code):
    assert main(["--command", "lattice", *flags, "--out", str(tmp_path)]) == code


def test_dot_export(tmp_path):
    out = str(tmp_path)
    assert main(["--command", "enumerate", "--n", "3", "--format", "dot",
                 "--out", out]) == EXIT_OK
    assert (tmp_path / "flipgraph_k3_n3.dot").exists()


def test_tvd_csv_export(tmp_path):
    out = str(tmp_path)
    assert main(["--command", "analyze", "--n", "3", "--format", "csv",
                 "--out", out]) == EXIT_OK
    lines = (tmp_path / "tvd_k3_n3.csv").read_text().splitlines()
    assert lines[0] == "step,tvd"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_report_table():
    summaries = [
        {"command": "analyze", "k": 3, "n": 2, "vertices": 2, "degree": 1,
         "gap": 1.0, "mixing_time": 1, "cheeger": [0.5, 1.41]},
        {"command": "cut", "k": 3, "n": 2, "ratio_num": 1, "ratio_den": 2},
    ]
    table = report_table(summaries)
    lines = table.splitlines()
    assert lines[0].startswith("n,vertices,degree,gap,mixing_time")
    assert len(lines) == 2
    assert lines[1].endswith("0.5")
    md = report_table(summaries, fmt="markdown")
    assert md.startswith("| n |")


def test_report_table_empty_and_mixed():
    assert report_table([]).count("\n") == 1
    with pytest.raises(SchemaMismatchError):
        report_table([{"k": 3, "n": 2}, {"k": 4, "n": 2}])


def test_flow_command_trivial_n1(tmp_path):
    assert main(["--command", "flow", "--n", "1", "--out", str(tmp_path)]) == EXIT_OK
    doc = _summary(tmp_path, "flow")
    assert doc[0]["vertices"] == 1 and doc[0]["conservation_certified"]
