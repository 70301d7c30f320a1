"""Tests of the benchmark itself: output checks, spans, and BENCHMARK.json.

Run with: python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import compare, replay_walk  # noqa: E402
from trace_cli import Tracer  # noqa: E402


def golden(name):
    with open(BENCH / "golden" / f"{name}.json") as fh:
        return json.load(fh)


def first_call(name):
    return copy.deepcopy(golden(name)["calls"][0])


@pytest.mark.parametrize("name", ["analyze-sweep", "flow-certify", "lattice-enum"])
def test_golden_matches_itself(name):
    summary = first_call(name)
    assert compare(summary, copy.deepcopy(summary)) == []


def test_wrong_vertices_fails():
    want = first_call("analyze-sweep")
    got = copy.deepcopy(want)
    got[3]["vertices"] += 1
    assert compare(want, got)


@pytest.mark.parametrize("path", [
    ("congestion", "rho_num"),
    ("matching_inequality", "min_slack_ratio"),
])
def test_changed_fraction_fails(path):
    want = first_call("flow-certify")
    got = copy.deepcopy(want)
    node = got[-1]
    for key in path[:-1]:
        node = node[key]
    leaf = node[path[-1]]
    node[path[-1]] = [leaf[0] + 1, leaf[1]] if isinstance(leaf, list) else leaf + 1
    assert compare(want, got)


def test_changed_cut_ratio_and_boolean_fail():
    want = first_call("analyze-sweep")
    got = copy.deepcopy(want)
    got[-1]["cut"]["ratio"] = [10, 7]
    assert compare(want, got)
    lattice = first_call("lattice-enum")
    tampered = copy.deepcopy(lattice)
    tampered[0]["oracles_agree"] = 1  # equal to True, but not a boolean
    assert compare(lattice, tampered)


def test_floats_within_tolerance_pass_and_beyond_fail():
    want = first_call("analyze-sweep")
    got = copy.deepcopy(want)
    got[-1]["gap"] *= 1 + 1e-9
    assert compare(want, got) == []
    got[-1]["gap"] *= 1 + 1e-4
    assert compare(want, got)


def test_missing_field_fails_and_extra_field_is_ignored():
    want = first_call("lattice-enum")
    got = copy.deepcopy(want)
    got[0]["provenance"] = {"numpy": "2.4.6"}
    assert compare(want, got) == []
    del got[0]["edges"]
    assert compare(want, got)


def _heuristic_entry(summary):
    (entry,) = [e for e in summary if e["mixing_mode"] == "heuristic-start"]
    return entry


def test_heuristic_mixing_may_rise_but_not_fall():
    want = first_call("analyze-sweep")
    tau = _heuristic_entry(want)["mixing_time"]
    risen = copy.deepcopy(want)
    _heuristic_entry(risen)["mixing_time"] = tau + 3
    assert compare(want, risen) == []
    exact = copy.deepcopy(want)
    entry = _heuristic_entry(exact)
    entry["mixing_time"], entry["mixing_mode"] = tau + 1, "exact-orbit-starts"
    assert compare(want, exact) == []
    fallen = copy.deepcopy(want)
    _heuristic_entry(fallen)["mixing_time"] = tau - 1
    assert compare(want, fallen)


def test_exact_mixing_must_stay_equal_and_exact():
    want = first_call("analyze-sweep")
    changed = copy.deepcopy(want)
    changed[-2]["mixing_time"] += 1
    assert compare(want, changed)
    relabelled = copy.deepcopy(want)
    relabelled[-2]["mixing_mode"] = "heuristic-start"
    assert compare(want, relabelled)


def test_walk_replay_reproduces_the_cli_at_golden_seeds():
    doc = golden("graph-walk")
    with np.load(BENCH / "golden" / doc["replay_adjacency"]) as npz:
        adj = npz["adj"]
    template = doc["calls"][0][0]
    for seed, summary in doc["examples"].items():
        replayed = [{**template, **replay_walk(adj, template["steps"], int(seed),
                                               template["thin"])}]
        assert compare(summary, replayed) == []
        tampered = copy.deepcopy(summary)
        tampered[0]["final_state"] += 1
        assert compare(replayed, tampered)


def test_span_wrapper_returns_what_the_function_returns():
    tracer = Tracer()
    marker = object()

    def inner(x, *, y):
        return marker if x == y else None

    def outer():
        return traced_inner(1, y=1)

    traced_inner = tracer.wrap(inner, "inner")
    assert tracer.wrap(outer, "outer")() is marker
    outer_span, inner_span = tracer.spans
    assert inner_span["parent"] == outer_span["id"]
    assert outer_span["start"] <= inner_span["start"] <= inner_span["end"] <= outer_span["end"]
    selfs = run.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(outer_span["end"] - outer_span["start"])


def test_span_wrapper_closes_the_span_on_error():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert "end" in tracer.spans[0]
    assert tracer.wrap(len, "len")([1, 2]) == 2
    assert tracer.spans[1]["parent"] is None


def test_self_times_reject_overlapping_children():
    spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "b", "parent": 0, "start": 4.0, "end": 6.0},
    ]
    with pytest.raises(ValueError):
        run.self_times(spans)


def test_traced_call_matches_untraced_and_accounts_for_its_time(tmp_path):
    flags = ["--command", "analyze", "--k", "3", "--n-range", "2..5"]
    env = run.child_env()
    untraced, traced = tmp_path / "plain", tmp_path / "traced"
    subprocess.run([sys.executable, "-c", run.CLI_MAIN, *flags, "--out", str(untraced)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    spans_file = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(run.TRACE_CLI), str(spans_file), *flags,
                    "--out", str(traced)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    name = "analyze_summary.json"
    assert (traced / name).read_bytes() == (untraced / name).read_bytes()
    spans = json.loads(spans_file.read_text())["spans"]
    names = {s["name"] for s in spans}
    assert {"cli.main", "kangulation.build", "spectral.gap", "spectral.mixing",
            "spectral.cheeger", "spectral.cut"} <= names
    call = run.Call(1.0, 1.0, 1.0, 0)
    metrics = run.layer_metrics([spans], [call], [call])
    assert metrics["spectral.exact_mixing_share"] == 1.0
    assert metrics["kangulation.states"] == 2 + 5 + 14 + 42
    timed = [m for m, unit, _ in run.PER_LAYER if unit == "s" and m != "trace.overhead_s"]
    assert sum(metrics[m] for m in timed) == pytest.approx(metrics["in_process_s"])


def test_benchmark_json_matches_the_runner():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flow-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
