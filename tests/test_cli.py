"""CLI: configs, exit codes, determinism, exports."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwalk import cli, combinatorics, kangulation, lattice, spectral
from flipwalk.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ExperimentConfig,
    main,
    parse_config,
)
from flipwalk.errors import InvalidParameterError


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


@pytest.mark.parametrize("flag, value", [
    ("--thin", "0"), ("--steps", "-5"), ("--steps", "10000000000")])
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
    assert list(cfg.ns) == [2, 3, 4]
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


def test_analyze_rejects_a_gap_above_the_cut_bound(tmp_path, capsys, monkeypatch):
    """At k = 3 the float gap is checked, before any mixing step, against
    the exact quotient |dS| N / (2 Delta |S| |S^c|) of the central cut,
    3/8 at n = 5."""
    monkeypatch.setattr(spectral.ChainAnalysis, "spectral_gap", lambda self: 0.5)
    out = tmp_path / "out"
    assert main(["--command", "analyze", "--n", "5", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "n = 5: gap 0.5 is above the central cut's bound 3/8" in err
    assert not out.exists()


# every (k, n) with at most 10,000 states, k = 3..6
FUZZ_SIZES = [(k, n) for k in range(3, 7) for n in range(1, 12)
              if combinatorics.fuss_catalan(k, n) <= 10_000]
FUZZ_EPSILONS = ["5e-324", "1e-300", "0.5", repr(math.nextafter(1.0, 0.0)),
                 "nan", "inf", "-inf", "1e999"]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(size=st.sampled_from(FUZZ_SIZES), eps=st.sampled_from(FUZZ_EPSILONS),
       cap=st.sampled_from([None, "1", "100"]))
def test_analyze_flags_fuzz(size, eps, cap):
    """Every run exits 0, 2, 3 or 4, and none ends in a traceback: an eps
    below the float64 TVD rounding (the two tiny ones) exits 2 before any
    mixing step, non-finite text and 1 - 2^-53 are caught by validation or
    mix at step 0, and a cap below the size exits 4."""
    k, n = size
    argv = ["--command", "analyze", "--k", str(k), "--n", str(n), "--epsilon", eps]
    if cap:
        argv += ["--cap", cap]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", out])
    assert rc in (EXIT_OK, EXIT_USAGE, 3, EXIT_CAP), (argv, rc)
    assert "Traceback" not in err.getvalue()


# the (k, n) of each command's runs, each building at most about 10,000 states
FUZZ_RUNS = {
    "enumerate": FUZZ_SIZES,
    "sample": FUZZ_SIZES,
    "flow": [(3, n) for n in range(1, 7)],
    "cut": [(3, n) for n in (1, 2, 7, 30)],
    "lattice": [(3, n) for n in (1, 2, 3)],
}
INTEGER_FIELDS = ("k", "n", "seed", "steps", "cap", "thin", "block")
# other spellings of an integer field: a float, a bool and 1e3, which are
# refused, and the integer as a string, which is read
ODD_INTEGERS = (lambda v: v + 0.7, lambda v: True, lambda v: "1e3", lambda v: 1e3, str)
FLAG_NAMES = {"fmt": "--format", "full_edge_lists": "--full-edge-lists"}


def _fuzz_fields(data) -> dict:
    """The config fields of one run; None leaves a field out."""
    command = data.draw(st.sampled_from(sorted(FUZZ_RUNS)))
    k, n = data.draw(st.sampled_from(FUZZ_RUNS[command]))
    fields = {"command": command, "k": k, "n": n,
              "cap": data.draw(st.sampled_from([None, None, 1, 100]))}
    if command == "enumerate":
        fields["fmt"] = data.draw(st.sampled_from(["json", "dot", "csv"]))
    elif command == "flow":
        fields["k"] = data.draw(st.sampled_from([3, 4]))
    elif command == "lattice":
        fields["block"] = data.draw(st.sampled_from([None, -1, 0, 1, 2, 3]))
        if fields["block"] is not None:  # a product of blocks up to 3 x 3 points
            fields["n"] = data.draw(st.integers(1, 6))
        fields["fmt"] = data.draw(st.sampled_from(["json", "dot"]))
    elif command == "sample":
        fields.update(
            seed=data.draw(st.sampled_from([None, -1, 0, 7])),
            steps=data.draw(st.sampled_from([0, 1, 500, -1])),
            thin=data.draw(st.sampled_from([1, 3, 0])),
            full_edge_lists=data.draw(st.sampled_from([None, True])),
        )
    fields = {key: v for key, v in fields.items() if v is not None}
    if data.draw(st.booleans()):
        odd = data.draw(st.sampled_from([f for f in INTEGER_FIELDS if f in fields]))
        fields[odd] = data.draw(st.sampled_from(ODD_INTEGERS))(fields[odd])
    return fields


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_commands_and_configs_fuzz(data):
    """enumerate, flow, cut, lattice (with and without --block) and sample,
    their fields given as flags, as a JSON config or as key = value lines,
    one integer field perhaps spelled as a float, a bool, 1e3 or a string:
    every run exits 0, 2, 3 or 4, and none ends in a traceback."""
    fields = _fuzz_fields(data)
    form = data.draw(st.sampled_from(["flags", "json", "key-value"]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if form == "flags":
            argv = []
            for key, v in fields.items():
                flag = FLAG_NAMES.get(key, f"--{key}")
                argv += [flag] if key == "full_edge_lists" else [flag, str(v)]
        else:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                if form == "json":
                    json.dump(fields, fh)
                else:
                    fh.writelines(f"{key} = {v}\n" for key, v in fields.items())
            argv = ["--config", path]
        rc = main([*argv, "--out", os.path.join(tmp, "out")])
    assert rc in (EXIT_OK, EXIT_USAGE, 3, EXIT_CAP), (form, fields, rc)
    assert "Traceback" not in err.getvalue()


def test_flow_summary_certifies(tmp_path):
    assert main(["--command", "flow", "--n", "3", "--out", str(tmp_path)]) == EXIT_OK
    doc = _summary(tmp_path, "flow")
    assert doc[0]["conservation_certified"] is True
    assert doc[0]["congestion"]["normalization"] == "uniform"


def arc_above_catalan(n: int) -> list:
    """A stand-in for `matching_arc_values` whose one arc carries C_n + 1,
    past the bound the flow lemma proves."""
    return [combinatorics.catalan(n) + 1]


def test_lemma_violation_exits_3_with_its_witness(tmp_path, monkeypatch, capsys):
    """A matching arc above C_n ends `flow` with exit 3 and its witness on
    stderr, and no summary is written."""
    monkeypatch.setattr(cli, "matching_arc_values", arc_above_catalan)
    assert main(["--command", "flow", "--n", "4", "--out", str(tmp_path)]) == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "lemma violation: matching arc carries 15 > C_n = 14 (witness: {'n': 4, 'flow': '15'})\n")
    assert not (tmp_path / "flow_summary.json").exists()


def test_flow_summary_matches_golden(tmp_path):
    """rho, argmax_arc, the matching bounds and the pairing totals for
    n = 2..7, byte for byte."""
    assert main(["--command", "flow", "--n-range", "2..7", "--out", str(tmp_path)]) == EXIT_OK
    with open(os.path.join(GOLDEN, "flow_summary_n2-7.json"), "rb") as fh:
        assert (tmp_path / "flow_summary.json").read_bytes() == fh.read()


@pytest.mark.parametrize("n", [9, pytest.param(10, marks=pytest.mark.slow)])
def test_flow_summary_at_size_matches_golden(tmp_path, n):
    """The largest certified sizes, byte for byte: rho = 36.60 at n = 9 and
    54.02 at n = 10."""
    assert main(["--command", "flow", "--n", str(n), "--out", str(tmp_path)]) == EXIT_OK
    with open(os.path.join(GOLDEN, f"flow_summary_n{n}.json"), "rb") as fh:
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


def test_enumerate_counts_rows_without_views(tmp_path, monkeypatch):
    """Past n = 9 the count comes from the enumeration's rows; no flip
    graph is built."""
    def no_graph(*args, **kwargs):
        raise AssertionError("a flip graph was built")

    monkeypatch.setattr(cli, "build_flip_graph", no_graph)
    assert main(["--command", "enumerate", "--n-range", "10..11", "--out", str(tmp_path)]) == EXIT_OK
    assert _summary(tmp_path, "enumerate") == [
        {"command": "enumerate", "k": 3, "n": n, "vertices": c, "expected": c, "count_matches": True}
        for n, c in [(10, 16796), (11, 58786)]
    ]


@pytest.mark.parametrize("flags, n", [(["--n", "12"], 12), (["--n-range", "2..11"], 11)])
def test_flow_cap_exit_code(tmp_path, monkeypatch, capsys, flags, n):
    """C_12 = 208,012 states pass the enumeration cap, but n past the
    largest certified flow size is refused before any size is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("a flip graph was built")

    monkeypatch.setattr(cli, "build_flip_graph", no_build)
    assert main(["--command", "flow", *flags, "--out", str(tmp_path)]) == EXIT_CAP
    assert f"resource cap: flow n {n} exceeds cap 10" in capsys.readouterr().err
    assert not (tmp_path / "flow_summary.json").exists()


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


@pytest.mark.parametrize(
    "doc, message",
    [({"command": "analyze", "n": 4, "k": 3.7}, "config field 'k': expected an integer, got 3.7"),
     ({"command": "analyze", "n": 4.9}, "got n = 4.9"),
     ({"command": "sample", "n": 4, "seed": 1, "steps": True},
      "config field 'steps': expected an integer, got True")],
    ids=["float-k", "float-n", "bool-steps"],
)
def test_json_config_refuses_non_integer_fields(tmp_path, capsys, doc, message):
    """int() would run k = 3, n = 4 and one step: a JSON float or bool in
    an integer field exits 2, naming the field."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_json_config_reads_integer_strings(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "sample", "k": "3", "n": "4", "seed": "1",
                               "steps": "10"}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    (doc,) = _summary(out, "sample")
    assert (doc["k"], doc["n"], doc["seed"], doc["steps"]) == (3, 4, 1, 10)


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


LATTICE_CAP_CASES = [
    (["--n", "5"], EXIT_CAP, "grid side 5 exceeds cap 4"),
    (["--n", "4", "--block", "0"], EXIT_USAGE, None),
    (["--n", "4", "--block", "-1"], EXIT_USAGE, None),
    # 46456^4 block-product states; 2^4 = 16 states over --cap 15
    (["--n", "8", "--block", "4"], EXIT_CAP, f"enumeration size {46456 ** 4} exceeds cap"),
    (["--n", "4", "--block", "2", "--cap", "15"], EXIT_CAP, "enumeration size 16 exceeds cap 15"),
    # one state, but a grid side over LATTICE_GRID_CAP
    (["--n", "9", "--block", "1"], EXIT_CAP, "grid side 9 exceeds cap 8"),
    (["--n", "1000000", "--block", "1"], EXIT_CAP, "grid side 1000000 exceeds cap 8"),
    # 46456 states over --cap 1000, with no block
    (["--n", "4", "--cap", "1000"], EXIT_CAP, "enumeration size 46456 exceeds cap 1000"),
    (["--n", "5", "--block", "5"], EXIT_CAP, "block side 5 exceeds cap 4"),
]


@pytest.mark.parametrize(
    "flags, code, message", LATTICE_CAP_CASES,
    ids=[f"flags{i}-{code}" for i, (_, code, _) in enumerate(LATTICE_CAP_CASES)],
)
def test_lattice_cap_and_block_exit_codes(tmp_path, monkeypatch, capsys, flags, code, message):
    """Each case exits before any grid's segment table is built, and a cap
    names the capped quantity."""
    def no_grid(n):
        raise AssertionError(f"the n = {n} grid was built")

    monkeypatch.setattr(lattice, "_grid", no_grid)
    assert main(["--command", "lattice", *flags, "--out", str(tmp_path)]) == code
    if message:
        assert f"resource cap: {message}" in capsys.readouterr().err


def _python(script: str, **env) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter on this checkout's package,
    with the environment variables given in env set (None: unset)."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)


# the flipwalk modules a command loads beyond those of `import flipwalk.cli`
COMMAND_LAYERS = [
    (["sample", "--n", "6", "--seed", "1"], ["spectral"]),
    (["lattice", "--n", "3"], ["lattice"]),
    (["flow", "--n", "5"], ["decomposition", "flownet", "flows"]),
    (["cut", "--n", "8"], ["decomposition", "spectral"]),
    (["analyze", "--k", "3", "--n", "5"], ["decomposition", "spectral"]),
    (["analyze", "--k", "4", "--n", "4"], ["spectral"]),
    (["enumerate", "--n", "5"], []),
]


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS)
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    """`import flipwalk.cli` loads the CLI, errors, combinatorics,
    kangulation and graph, and each command adds only the layers it runs:
    without bytecode on disk every module a process imports is compiled,
    so a layer the command never calls costs its start-up."""
    script = (
        "import contextlib, io, sys\n"
        "import flipwalk.cli\n"
        "loaded = lambda: {m.split('.', 1)[1] for m in sys.modules if m.startswith('flipwalk.')}\n"
        "base = loaded()\n"
        "print(sorted(base))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert flipwalk.cli.main({['--command', *argv, '--out', str(tmp_path)]!r}) == 0\n"
        "print(sorted(loaded() - base))\n"
    )
    base = ["cli", "combinatorics", "errors", "graph", "kangulation"]
    assert _python(script).stdout == f"{base}\n{layers}\n"


def test_lattice_and_flow_import_no_scipy(tmp_path):
    """`lattice` (with and without a `--block` product), `flow` and the
    diameter (`tests/reference_graph.py`, on the package's `sweep` and
    orbit representatives) never load scipy: `import scipy.sparse` alone
    costs about 0.23 s, more than `lattice --n 3` itself.  Nor do they load
    numpy.random, which raises a `lattice --n 4` call's peak RSS by about
    6 MB (the lattice keys come from `graph.splitmix64`, a fixed table also
    behind the Lanczos start vector), nor numpy.ma, which a bare
    `np.unique` call imports and which raised flow's peak RSS by 1.1 MB."""
    script = (
        "import contextlib, io, sys\n"
        "from flipwalk.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['--command', 'lattice', '--n', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        f"    assert main(['--command', 'lattice', '--n', '4', '--block', '2',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        f"    assert main(['--command', 'flow', '--n', '5', '--out', {str(tmp_path)!r}]) == 0\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from reference_graph import diameter\n"
        "from flipwalk.kangulation import build_flip_graph\n"
        "assert diameter(build_flip_graph(3, 6)) == 7\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    assert _python(script).stdout == "[]\n[]\n[]\n"


def test_analyze_loads_no_scipy_linalg_and_sample_no_scipy(tmp_path):
    """Neither `sample` nor `analyze` loads a scipy module.  `analyze` steps
    P with scipy's compiled CSR kernels, loaded from their extension file
    alone (`import scipy.sparse` costs about 0.23 s), and its gap is a
    deflated Lanczos that calls no BLAS routine, so the only OpenBLAS it
    maps is numpy's, which `flipwalk.cli` loads with one thread
    (`test_cli_runs_on_one_thread`): scipy.linalg would bring in a second
    one, with its own threads.  Nor does `analyze` load numpy.random
    (5.3 MB of resident memory): the Lanczos start vector is made of fixed
    splitmix64 words.  `sample` runs after it
    and does load numpy.random, to replay `default_rng(seed)`."""
    script = (
        "import contextlib, io, os, sys\n"
        "from flipwalk.cli import main\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "rng = lambda: sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['--command', 'analyze', '--k', '3', '--n', '6',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "    print(scipy(), rng(), file=sys.stderr)\n"
        f"    assert main(['--command', 'sample', '--n', '6', '--seed', '1',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "print(scipy(), 'numpy.random' in rng())\n"
        "maps = open('/proc/self/maps').read().splitlines() if os.path.exists('/proc/self/maps') else []\n"
        "blas = {line.split()[-1] for line in maps if 'openblas' in line.lower()}\n"
        "print(sorted(os.path.basename(os.path.dirname(p)) for p in blas if 'numpy' not in p))\n"
    )
    out = _python(script)
    assert out.stderr == "[] []\n"
    assert out.stdout == "[] True\n[]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.parametrize("threads", ["2", None])
def test_cli_runs_on_one_thread(tmp_path, threads):
    """No command calls a BLAS routine, so `import flipwalk.cli` loads
    numpy's OpenBLAS with one thread: the process runs on one thread after
    the import and after every command, whether OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS ask for two threads or are unset (OpenBLAS then starts
    one worker per CPU), and both variables still read as they were."""
    script = (
        "import contextlib, io, os\n"
        "threads = lambda: len(os.listdir('/proc/self/task'))\n"
        "from flipwalk.cli import main\n"
        "counts = [threads()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {[argv for argv, _ in COMMAND_LAYERS]!r}:\n"
        f"        assert main(['--command', *argv, '--out', {str(tmp_path)!r}]) == 0\n"
        "        counts.append(threads())\n"
        "print(counts)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))\n"
    )
    out = _python(script, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    assert out.stdout == f"{[1] * (len(COMMAND_LAYERS) + 1)}\n{threads} {threads}\n"


@pytest.mark.parametrize("threads", ["3", None])
def test_thread_pin_leaves_the_environment_as_it_was(threads):
    """The pin runs only when `import flipwalk.cli` is what loads numpy: it
    writes OPENBLAS_NUM_THREADS twice, setting it and giving it back, and
    os.environ then equals what it was.  A process that imported numpy
    first, and the library path (`import flipwalk` and a lazy name, which
    loads numpy through kangulation), never write the environment."""
    spy = (
        "import os\n"
        "writes = []\n"
        "for name in ('__setitem__', '__delitem__'):\n"
        "    def spy(self, key, *value, _write=getattr(os._Environ, name)):\n"
        "        writes.append(key)\n"
        "        return _write(self, key, *value)\n"
        "    setattr(os._Environ, name, spy)\n"
        "before = dict(os.environ)\n"
    )
    report = "import sys\nprint(writes, dict(os.environ) == before, 'numpy' in sys.modules)\n"
    cases = {
        "import flipwalk.cli\n": "['OPENBLAS_NUM_THREADS', 'OPENBLAS_NUM_THREADS'] True True\n",
        "import numpy\nimport flipwalk.cli\n": "[] True True\n",
        "import flipwalk\nassert flipwalk.build_flip_graph(3, 3).num_vertices == 5\n":
            "[] True True\n",
    }
    for body, expected in cases.items():
        assert _python(spy + body + report, OPENBLAS_NUM_THREADS=threads).stdout == expected


def test_dot_export(tmp_path):
    out = str(tmp_path)
    assert main(["--command", "enumerate", "--n", "3", "--format", "dot",
                 "--out", out]) == EXIT_OK
    assert (tmp_path / "flipgraph_k3_n3.dot").exists()


@pytest.mark.parametrize("command", ["enumerate", "flow", "cut", "lattice", "sample"])
def test_csv_format_is_analyze_only(tmp_path, capsys, command):
    """Only analyze writes a CSV (its TVD curves); any other command refuses
    --format csv with exit 2, names the field, and writes nothing."""
    out = tmp_path / "out"
    rc = main(["--command", command, "--n", "3", "--seed", "1", "--format", "csv",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "field 'fmt'" in capsys.readouterr().err
    assert not out.exists()


def test_tvd_csv_export(tmp_path):
    out = str(tmp_path)
    assert main(["--command", "analyze", "--n", "3", "--format", "csv",
                 "--out", out]) == EXIT_OK
    lines = (tmp_path / "tvd_k3_n3.csv").read_text().splitlines()
    assert lines[0] == "step,tvd"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_flow_command_trivial_n1(tmp_path):
    assert main(["--command", "flow", "--n", "1", "--out", str(tmp_path)]) == EXIT_OK
    doc = _summary(tmp_path, "flow")
    assert doc[0]["vertices"] == 1 and doc[0]["conservation_certified"]


@pytest.mark.parametrize("flags", [["--n", "101"], ["--n-range", "2..101"]])
def test_cut_cap_exit_code(tmp_path, monkeypatch, capsys, flags):
    """n past CUT_N_CAP is refused before any size is cut."""
    def no_cut(n):
        raise AssertionError(f"the n = {n} cut was computed")

    monkeypatch.setattr(cli, "shortest_side_cut", no_cut)
    assert main(["--command", "cut", *flags, "--out", str(tmp_path)]) == EXIT_CAP
    assert "resource cap: cut n 101 exceeds cap 100" in capsys.readouterr().err
    assert not (tmp_path / "cut_summary.json").exists()


@pytest.mark.parametrize("command", ["enumerate", "analyze", "sample"])
def test_huge_n_exits_cap_without_the_count(tmp_path, monkeypatch, capsys, command):
    """C_n >= 2^(n-1), so n = 10000 (a count of about 6,000 digits) and
    n = 10^6 are refused before their Fuss-Catalan count is computed."""
    real = combinatorics.fuss_catalan

    def small_only(k, n):
        assert n <= 100, f"the count at n = {n} was computed"
        return real(k, n)

    for module in (cli, kangulation):
        monkeypatch.setattr(module, "fuss_catalan", small_only)
    for n in (10000, 10**6):
        rc = main(["--command", command, "--n", str(n), "--seed", "1", "--out", str(tmp_path)])
        assert rc == EXIT_CAP
        err = capsys.readouterr().err
        assert f"resource cap: enumeration size >= 2^{n - 1} exceeds cap 5000000" in err
        assert "Traceback" not in err


def test_polygon_past_two_byte_ids_exits_cap(tmp_path, capsys):
    assert main(["--command", "enumerate", "--k", "400", "--n", "3", "--out", str(tmp_path)]) == EXIT_CAP
    assert "resource cap: polygon size 1196 exceeds cap 363" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n", "k"])
def test_json_config_infinite_number_exits_usage(tmp_path, capsys, key):
    """JSON reads 1e999 as float infinity, which int() cannot convert."""
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"command": "enumerate", "{key}": 1e999}}')
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_huge_n_range_stays_lazy(tmp_path, capsys):
    """A range of 10^12 values is never listed: the run stops at the first
    n over a cap."""
    wide = "1..1000000000000"
    cfg = parse_config(["--command", "enumerate", "--n-range", wide])
    assert cfg.ns == range(1, 10**12 + 1)
    assert main(["--command", "enumerate", "--n-range", wide, "--cap", "100",
                 "--out", str(tmp_path)]) == EXIT_CAP
    assert "resource cap: enumeration size 132 exceeds cap 100" in capsys.readouterr().err
    for command, cap in (("flow", 10), ("cut", 100)):
        assert main(["--command", command, "--n-range", wide, "--out", str(tmp_path)]) == EXIT_CAP
        assert f"resource cap: {command} n {10**12} exceeds cap {cap}" in capsys.readouterr().err
