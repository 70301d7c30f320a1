"""flipwalk benchmark: user-facing CLI commands, each in a fresh process.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Every CLI call is a new interpreter, because the package's
``lru_cache``s and flow caches start cold in each real CLI call.  One
iteration runs a workload's calls one after another (closed loop, one
client); another iteration starts only if it should end within
``--seconds`` (the first always runs).  Every summary is checked against its golden copy (see check.py);
a call that exits non-zero or misses counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` each iteration is an untraced pass followed by a traced pass
(bench/trace_cli.py), the traced summaries must be byte-identical to the
untraced ones, and the run reports per-layer self times and counts plus the
tracing overhead.  Each run writes bench/results/BENCH_<workload>[.trace].json
and prints one metric per line, then a JSON result as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"
TRACE_CLI = BENCH_DIR / "trace_cli.py"

sys.path.insert(0, str(BENCH_DIR))
from check import compare, replay_walk  # noqa: E402

SETUP_STARTS = 7  # interpreter starts timed per run; setup_s takes their median
RUN_BUDGET_S = 165.0  # a run starts no iteration that could end past this
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = {var: str(NPROC) for var in THREAD_VARS}
SEED = "{seed}"  # placeholder in a workload's flags for the workload seed
CLI_MAIN = "import sys; from flipwalk.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    calls: int = 1  # CLI calls per iteration, one after another
    cache: bool = False  # the calls share a fresh, empty FLIPWALK_CACHE_DIR

    def argv(self, seed: int) -> list:
        return [str(seed) if f == SEED else f for f in self.flags]

    @property
    def summary_name(self) -> str:
        return f"{self.flags[self.flags.index('--command') + 1]}_summary.json"


# Why each workload exists, and which layers it loads: bench/NOTES.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("analyze-sweep", ("--command", "analyze", "--k", "3", "--n-range", "2..9")),
        Workload("flow-certify", ("--command", "flow", "--n-range", "2..8")),
        Workload("lattice-enum", ("--command", "lattice", "--n", "4")),
        # Cold build that writes the cache, then a call that reads it.
        Workload("graph-walk", ("--command", "sample", "--k", "3", "--n", "10",
                                "--seed", SEED, "--thin", "50"), calls=2, cache=True),
    )
}

# (name, unit, better); the order is the print order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("success_rate", "ratio", "higher"),
)
PER_LAYER = (
    ("kangulation.build_s", "s", "lower"),
    ("kangulation.load_s", "s", "lower"),
    ("kangulation.states", "count", "lower"),
    ("kangulation.arcs", "count", "lower"),
    ("kangulation.build_peak_rss_mb", "MB", "lower"),
    ("decomposition.oriented_partition_s", "s", "lower"),
    ("decomposition.matching_inequality_s", "s", "lower"),
    ("flownet.uniform_flow_s", "s", "lower"),
    ("flownet.aggregate_flow_s", "s", "lower"),
    ("flownet.verify_unit_demands_s", "s", "lower"),
    ("flownet.matching_arc_values_s", "s", "lower"),
    ("flownet.pairing_s", "s", "lower"),
    ("flownet.sources_certified", "count", "higher"),
    ("flows.congestion_report_s", "s", "lower"),
    ("flows.support_arcs", "count", "lower"),
    ("flows.den_bits", "bits", "lower"),
    ("spectral.gap_s", "s", "lower"),
    ("spectral.mixing_s", "s", "lower"),
    ("spectral.second_eigenvector_s", "s", "lower"),
    ("spectral.cheeger_s", "s", "lower"),
    ("spectral.cut_s", "s", "lower"),
    ("spectral.peak_rss_mb", "MB", "lower"),
    ("spectral.exact_mixing_share", "ratio", "higher"),
    ("spectral.sample_s", "s", "lower"),
    ("spectral.walk_steps_per_s", "1/s", "higher"),
    ("lattice.enumerate_s", "s", "lower"),
    ("lattice.oracle_s", "s", "lower"),
    ("lattice.states", "count", "higher"),
    ("lattice.edges", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    summary: str | None = None  # the summary file's text
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.summary is not None and not self.problems


def child_env(cache_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop("FLIPWALK_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(BLAS_THREADS)
    if cache_dir is not None:
        env["FLIPWALK_CACHE_DIR"] = str(cache_dir)
    return env


def timed_process(argv: list, env: dict, log: Path, timeout: float) -> Call:
    """Run argv to completion; wall time plus the child's own rusage."""
    began = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


# ---------------------------------------------------------------------------
# one run


def load_golden(wl: Workload, seed: int) -> list:
    """The expected summary of each call of one iteration."""
    with open(GOLDEN_DIR / f"{wl.name}.json") as fh:
        doc = json.load(fh)
    calls = doc["calls"]
    if "replay_adjacency" in doc:  # seed-dependent fields are recomputed per seed
        with np.load(GOLDEN_DIR / doc["replay_adjacency"]) as npz:
            adj = npz["adj"]
        calls = [
            [{**entry, **replay_walk(adj, entry["steps"], seed, entry["thin"])}
             for entry in call]
            for call in calls
        ]
    if len(calls) != wl.calls:
        raise ValueError(f"golden for {wl.name} has {len(calls)} calls, expected {wl.calls}")
    return calls


def run_iteration(wl: Workload, seed: int, golden: list, it_dir: Path,
                  traced: bool, deadline: float) -> tuple:
    """One pass over the workload's calls; returns (calls, spans per call)."""
    it_dir.mkdir()
    cache = it_dir / "cache" if wl.cache else None
    if cache is not None:
        cache.mkdir()
    env = child_env(cache)
    calls, spans = [], []
    for i in range(wl.calls):
        out = it_dir / f"call{i}"
        spans_file = it_dir / f"call{i}.spans.json"
        prefix = [str(TRACE_CLI), str(spans_file)] if traced else ["-c", CLI_MAIN]
        argv = [sys.executable, *prefix, *wl.argv(seed), "--out", str(out)]
        call = timed_process(argv, env, it_dir / f"call{i}.stderr",
                             deadline - time.perf_counter())
        summary = out / wl.summary_name
        if call.returncode != 0 or not summary.exists():
            call.problems = (f"exit code {call.returncode}: "
                             + (it_dir / f"call{i}.stderr").read_text()[-400:],)
        else:
            call.summary = summary.read_text()
            try:
                call.problems = tuple(compare(golden[i], json.loads(call.summary)))
            except json.JSONDecodeError as exc:
                call.problems = (f"summary is not JSON: {exc}",)
        if traced:
            spans.append(json.loads(spans_file.read_text())["spans"]
                         if spans_file.exists() else [])
        calls.append(call)
    return calls, spans


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    run_began = time.perf_counter()
    deadline = run_began + RUN_BUDGET_S
    golden = load_golden(wl, seed)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR))
    try:
        # The first start may compile bytecode; it is not timed.
        log = run_dir / "setup.stderr"
        starts = [timed_process([sys.executable, "-c", "import flipwalk.cli"], child_env(),
                                log, deadline - time.perf_counter())
                  for _ in range(SETUP_STARTS + 1)]
        if any(s.returncode != 0 for s in starts):
            raise RuntimeError(f"cannot import flipwalk.cli: {log.read_text()[-400:]}")
        setup_s = statistics.median(s.wall_s for s in starts[1:])

        iterations = []  # (untraced calls, traced calls or None, spans)
        measured_began = time.perf_counter()
        while True:
            began = time.perf_counter()
            base = f"it{len(iterations)}"
            plain, _ = run_iteration(wl, seed, golden, run_dir / base, False, deadline)
            traced, spans = (None, None)
            if trace:
                traced, spans = run_iteration(wl, seed, golden, run_dir / f"{base}.traced",
                                              True, deadline)
                for p, t in zip(plain, traced):
                    if t.summary is not None and t.summary != p.summary:
                        t.problems += ("traced summary differs from the untraced one",)
            iterations.append((plain, traced, spans))
            # Start another iteration only if one as long as this one still ends
            # within --seconds (and well inside the run's budget).
            now = time.perf_counter()
            took = now - began
            if now - measured_began + took > seconds or now + 1.5 * took > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_calls = [c for plain, traced, _ in iterations for c in plain + (traced or [])]
    failed = sum(not c.ok for c in all_calls)
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "correct": failed == 0,
        "attempted": len(all_calls),
        "failed": failed,
        "error_rate": failed / len(all_calls),
        "iterations": len(iterations),
        "setup_starts_s": [s.wall_s for s in starts[1:]],
        "calls": [[call_record(c) for c in plain + (traced or [])]
                  for plain, traced, _ in iterations],
        "run_s": time.perf_counter() - run_began,
    }
    if trace:
        per_iteration = [layer_metrics(spans, plain, traced)
                         for plain, traced, spans in iterations]
        result["metrics"] = {name: median([m[name] for m in per_iteration])
                             for name, _, _ in PER_LAYER}
        result["layer_self_s"] = per_iteration[-1]["layer_self_s"]
        result["traced_in_process_s"] = per_iteration[-1]["in_process_s"]
        result["spans"] = iterations[-1][2]
    else:
        walls = [sum(c.wall_s for c in plain) for plain, _, _ in iterations]
        cpus = [sum(c.cpu_s for c in plain) for plain, _, _ in iterations]
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(c.peak_rss_mb for c in all_calls),
            "setup_s": setup_s,
            "success_rate": 1.0 - result["error_rate"],
        }
    return result


def median(values: list):
    """Median; for counts, a value that was measured rather than a mean of two."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def call_record(call: Call) -> dict:
    return {"wall_s": call.wall_s, "cpu_s": call.cpu_s, "peak_rss_mb": call.peak_rss_mb,
            "returncode": call.returncode, "ok": call.ok, "problems": list(call.problems)}


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def self_times(spans: list) -> dict:
    """Self time of every span: its duration minus its direct children's.

    Checks that each child lies inside its parent and that siblings do not
    overlap, so the self times of one process sum to its root span.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = sorted(children[s["id"]], key=lambda c: c["start"])
        prev_end = s["start"]
        for c in kids:
            if c["start"] < prev_end or c["end"] > s["end"]:
                raise ValueError(f"span {c['name']} is not nested in {s['name']}")
            prev_end = c["end"]
        out[s["id"]] = (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in kids)
    return out


def layer_metrics(spans_per_call: list, plain: list, traced: list) -> dict:
    """Per-layer metrics of one traced iteration (all of its processes)."""
    self_s = defaultdict(float)
    counts = defaultdict(int)
    build_peak = (-1, 0.0)  # (states, peak RSS) of the largest build
    spectral_peak = 0.0
    in_process = 0.0
    for spans in spans_per_call:
        selfs = self_times(spans)
        for s in spans:
            name, c = s["name"], s.get("counts", {})
            self_s[name] += selfs[s["id"]]
            if s["parent"] is None:
                in_process += s["end"] - s["start"]
            for key, value in c.items():
                counts[f"{name}.{key}"] += value
            if name == "kangulation.build" and c.get("states", -1) > build_peak[0]:
                build_peak = (c["states"], s["peak_rss_mb"])
            if name.startswith("spectral."):
                spectral_peak = max(spectral_peak, s["peak_rss_mb"])
            if name == "flownet.uniform_flow":
                counts["flows.support_arcs"] = max(counts["flows.support_arcs"], c["support_arcs"])
                counts["flows.den_bits"] = max(counts["flows.den_bits"], c["den_bits"])
    metrics = {f"{name}_s": t for name, t in self_s.items()}
    metrics["cli.self_s"] = self_s["cli.main"]
    metrics.pop("cli.main_s", None)
    sample_s = self_s["spectral.sample"]
    metrics.update({
        "kangulation.states": counts["kangulation.build.states"] + counts["kangulation.load.states"],
        "kangulation.arcs": counts["kangulation.build.arcs"] + counts["kangulation.load.arcs"],
        "kangulation.build_peak_rss_mb": build_peak[1],
        "flownet.sources_certified": counts["flownet.verify_unit_demands.sources"],
        "flows.support_arcs": counts["flows.support_arcs"],
        "flows.den_bits": counts["flows.den_bits"],
        "spectral.peak_rss_mb": spectral_peak,
        "spectral.exact_mixing_share": (counts["spectral.mixing.exact"]
                                        / counts["spectral.mixing.results"]
                                        if counts["spectral.mixing.results"] else 0.0),
        "spectral.walk_steps_per_s": (counts["spectral.sample.steps"] / sample_s
                                      if sample_s > 0 else 0.0),
        "lattice.states": counts["lattice.enumerate.states"],
        "lattice.edges": counts["lattice.enumerate.edges"],
        "trace.overhead_s": sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain),
    })
    out = {name: metrics.get(name, 0.0) for name, _, _ in PER_LAYER}
    layers = defaultdict(float)
    for name, t in self_s.items():
        layers[name.split(".")[0]] += t
    out["layer_self_s"] = dict(sorted(layers.items()))
    out["in_process_s"] = in_process
    return out


# ---------------------------------------------------------------------------
# reporting


def provenance() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "flipwalk").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": NPROC,
        "thread_settings": dict(BLAS_THREADS),
        "platform": platform.platform(),
    }


def write_result(result: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = ".trace" if result["trace"] else ""
    path = RESULTS_DIR / f"BENCH_{result['workload']}{suffix}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name.rsplit("/", 1)[-1]]}
                    for name, value in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "flipwalk" / "cli.py").is_file():
        print(f"flipwalk sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        path = write_result(result)
        results.append(result)
        print(f"# {name}: {result['attempted']} calls, {result['failed']} failed, "
              f"{result['iterations']} iterations, result in {path.relative_to(ROOT)}")
        for call in (c for it in result["calls"] for c in it if not c["ok"]):
            print(f"#   failed call: {'; '.join(call['problems'])[:600]}")
        for metric, value in result["metrics"].items():
            print(f"{name}/{metric} {value} {UNITS[metric]}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(result_line(all(r["correct"] for r in results),
                      sum(r["attempted"] for r in results),
                      sum(r["failed"] for r in results), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
