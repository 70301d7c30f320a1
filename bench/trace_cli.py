"""Run one flipwalk CLI call with a span around every call into a layer.

Usage: python3 bench/trace_cli.py SPANS_JSON CLI_ARG...

Meant to run in a fresh process, so that the package's caches start cold as
in a real CLI call.  The package itself is not changed: the public entry
points are wrapped under the names the CLI (and the flow layer) look them up
by, then ``flipwalk.cli.main`` runs under a root span.  Spans stay in memory
and are written to SPANS_JSON when the call ends; the process exits with the
CLI's own exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Nested spans kept in memory: id, name, parent id, start, end."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, count=None):
        """Return fn wrapped in a span called name.

        count(result, *args, **kwargs), if given, returns a dict of sizes
        stored on the span; it runs inside the span, so its (small) cost is
        charged to the layer it describes rather than to the caller.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span["counts"] = count(result, *args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                span["peak_rss_mb"] = peak_rss_mb()
                self._stack.pop()

        return traced


def _graph_counts(graph, *args, **kwargs):
    return {"states": graph.num_vertices, "arcs": 2 * graph.num_edges()}


def _lattice_counts(graph, *args, **kwargs):
    return {"states": graph.num_vertices, "edges": graph.num_edges()}


def _flow_counts(result, *args, **kwargs):
    flow = result[0]
    return {"support_arcs": flow.support_size(), "den_bits": flow.den.bit_length()}


def _sources_counts(result, *args, **kwargs):
    return {"sources": result["sources"]}


def _mixing_counts(result, *args, **kwargs):
    _, mode = result
    return {"exact": int(mode.startswith("exact")), "results": 1}


def _sample_counts(result, graph, steps, *args, **kwargs):
    return {"steps": steps}


# (module, attribute, span name, counter).  A dotted attribute patches a
# method on a class.  Each span name is "<layer module>.<function>".
TARGETS = (
    ("flipwalk.cli", "build_flip_graph", "kangulation.build", _graph_counts),
    ("flipwalk.flownet", "build_flip_graph", "kangulation.build", _graph_counts),
    ("flipwalk.cli", "flip_graph_from_json_dict", "kangulation.load", _graph_counts),
    ("flipwalk.cli", "oriented_partition", "decomposition.oriented_partition", None),
    ("flipwalk.flownet", "oriented_partition", "decomposition.oriented_partition", None),
    ("flipwalk.cli", "verify_matching_inequality", "decomposition.matching_inequality", None),
    ("flipwalk.cli", "uniform_flow_recursive", "flownet.uniform_flow", _flow_counts),
    ("flipwalk.flownet", "aggregate_flow", "flownet.aggregate_flow", None),
    ("flipwalk.flownet", "congestion_report", "flows.congestion_report", None),
    ("flipwalk.cli", "verify_unit_demands", "flownet.verify_unit_demands", _sources_counts),
    ("flipwalk.cli", "matching_arc_values", "flownet.matching_arc_values", None),
    ("flipwalk.cli", "hierarchical_pairing_flow", "flownet.pairing", None),
    ("flipwalk.spectral", "ChainAnalysis.spectral_gap", "spectral.gap", None),
    ("flipwalk.spectral", "ChainAnalysis.second_eigenvector", "spectral.second_eigenvector", None),
    ("flipwalk.cli", "mixing_time", "spectral.mixing", _mixing_counts),
    ("flipwalk.cli", "cheeger_bounds", "spectral.cheeger", None),
    ("flipwalk.cli", "shortest_side_cut", "spectral.cut", None),
    ("flipwalk.cli", "sample_walk", "spectral.sample", _sample_counts),
    ("flipwalk.cli", "enumerate_lattice", "lattice.enumerate", _lattice_counts),
    ("flipwalk.cli", "count_triangulations_recursive", "lattice.oracle", None),
)
ROOT_SPAN = "cli.main"


def install(tracer: Tracer) -> None:
    """Replace every entry point in TARGETS by its traced wrapper."""
    for module_name, attr, name, count in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(getattr(owner, leaf), name, count))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: trace_cli.py SPANS_JSON CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    cli = importlib.import_module("flipwalk.cli")
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(cli.main, ROOT_SPAN)(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"returncode": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
