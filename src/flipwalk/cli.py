"""Command-line surface: experiment configs, reproducible runs, exports.

Every command builds the flip graphs it needs in memory.  Exit codes: 0
success, 2 usage/config error (or an unusable --out directory), 3
lemma-check violation (with witness), 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import _lazy_names
from .combinatorics import catalan, fuss_catalan
from .errors import (
    EnumerationTooLargeError,
    FlipwalkError,
    InvalidParameterError,
    LemmaViolationError,
    NumericFailureError,
)

# No command calls BLAS, yet numpy's OpenBLAS starts an idle worker thread per
# CPU when it loads (about 0.13 s of CPU per call on 2 vCPUs), and reads its
# thread count only then: load numpy here, where it first loads, with one
# thread, and give the environment back.  A process that loaded numpy first
# keeps its threads.
if "numpy" not in sys.modules:
    _blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if _blas_threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _blas_threads
        del _blas_threads

from .kangulation import (
    DEFAULT_ENUMERATION_CAP,
    _check_size,
    build_flip_graph,
    count_kangulations,
    flip_graph_from_json_dict,  # noqa: F401 (bench/trace_cli.py wraps it under this name)
)

# The layers past the flip-graph build, imported on first use so that a call
# loads only the layers its command runs (`sample` needs spectral alone, and
# `lattice` lattice alone): name -> module.  The runners look these names up
# as attributes of this module (`_cli.name`), so rebinding one here, as the
# tests and the bench tracer do, takes effect.
_LAZY = {
    "oriented_partition": "decomposition",  # no runner calls it; bench/trace_cli.py wraps it
    "verify_matching_inequality": "decomposition",
    "FLOW_N_CAP": "flownet",
    "hierarchical_pairing_flow": "flownet",
    "matching_arc_values": "flownet",
    "oriented_structure": "flownet",
    "uniform_flow_recursive": "flownet",
    "verify_unit_demands": "flownet",
    "count_triangulations_recursive": "lattice",
    "enumerate_lattice": "lattice",
    "product_subgraph": "lattice",
    "CUT_N_CAP": "spectral",
    "build_chain": "spectral",
    "cheeger_bounds": "spectral",
    "cut_gap_bound": "spectral",
    "mixing_time": "spectral",
    "sample_walk": "spectral",
    "shortest_side_cut": "spectral",
    "tvd_curve": "spectral",
}
__getattr__ = _lazy_names(__name__, _LAZY)
_cli = sys.modules[__name__]

COMMANDS = ("enumerate", "analyze", "flow", "cut", "lattice", "sample")
# sample walk steps; about 2.5 to 5 minutes at 0.15 to 0.3 us per step (10^7
# steps of `sample` at k = 3 took 1.5-2.1 s at n = 4 and 2.5-3.0 s at n = 10,
# on a 2-vCPU host)
MAX_STEPS = 10**9
EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, EXIT_CAP = 0, 2, 3, 4
# relative slack of the gap's check against the exact cut bound, far above
# the float gap's rounding (3e-14 relative at k = 3 n <= 9)
GAP_RTOL = Fraction(1, 2**32)


def _flag(val) -> bool:
    return val if isinstance(val, bool) else str(val).lower() in ("1", "true", "yes")


def _integer(val) -> int:
    """A JSON int (not a bool) or an integer string; int() alone would
    truncate 3.7 and read true as 1."""
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        raise ValueError(f"expected an integer, got {val!r}")
    return int(val)


# config-file keys and flags that set one ExperimentConfig field each; the
# file's other keys are n and n_range (see _parse_ns)
_CONFIG_FIELDS = {
    "command": str,
    "k": _integer,
    "seed": _integer,
    "steps": _integer,
    "epsilon": float,
    "cap": _integer,
    "thin": _integer,
    "block": _integer,
    "out_dir": str,
    "fmt": str,
    "full_edge_lists": _flag,
}


@dataclass
class ExperimentConfig:
    command: str
    k: int = 3
    ns: Sequence = field(default_factory=lambda: [4])  # ascending
    seed: int | None = None
    steps: int = 10000
    epsilon: float = 0.25
    cap: int = DEFAULT_ENUMERATION_CAP
    full_edge_lists: bool = False
    out_dir: str = "."
    fmt: str = "json"
    block: int | None = None
    thin: int = 1

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise InvalidParameterError(
                f"command must be one of {COMMANDS}, got {self.command!r}"
            )
        if self.k < 3:
            raise InvalidParameterError(f"k must be >= 3 (field 'k' = {self.k})")
        if not self.ns or self.ns[0] < 1:
            raise InvalidParameterError(f"n range must be nonempty positive: {self.ns}")
        if self.cap <= 0:
            raise InvalidParameterError(f"cap must be positive (field 'cap' = {self.cap})")
        if self.command == "sample" and self.seed is None:
            raise InvalidParameterError("sampling requires a seed (field 'seed')")
        if self.seed is not None and self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0 (field 'seed' = {self.seed})")
        if self.fmt not in ("json", "csv", "dot"):
            raise InvalidParameterError(f"format must be json|csv|dot, got {self.fmt!r}")
        if self.fmt == "csv" and self.command != "analyze":
            raise InvalidParameterError(
                f"only analyze writes csv (field 'fmt' = 'csv', command {self.command!r})"
            )
        if not 0 < self.epsilon < 1:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1) (field 'epsilon' = {self.epsilon})"
            )
        if not 0 <= self.steps <= MAX_STEPS:
            raise InvalidParameterError(
                f"steps must be in [0, {MAX_STEPS}] (field 'steps' = {self.steps})"
            )
        if self.thin < 1:
            raise InvalidParameterError(f"thin must be >= 1 (field 'thin' = {self.thin})")
        if self.block is not None and self.block < 1:
            raise InvalidParameterError(f"block must be >= 1 (field 'block' = {self.block})")


def load_config_file(path: str) -> dict:
    """Config as JSON or as key = value lines."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _parse_ns(n, n_range) -> Sequence | None:
    """The n values of a config, ascending: the inclusive range A..B if
    given (a lazy range), else [n]."""
    try:
        if n_range is not None:
            lo, hi = str(n_range).split("..")
            return range(int(lo), int(hi) + 1)
        if n is not None:
            return [_integer(n)]
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"n must be an integer and n range must look like A..B, "
            f"got n = {n!r}, n range = {n_range!r}"
        ) from exc
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipwalk",
        description="Flip-graph enumeration, flow congestion, and mixing analysis",
    )
    parser.add_argument("--config", help="config file (JSON or key = value)")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--k", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--n-range", help="inclusive range A..B")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--cap", type=int)
    parser.add_argument("--thin", type=int)
    parser.add_argument("--block", type=int)
    parser.add_argument("--full-edge-lists", action="store_true", default=None)
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv", "dot"))
    return parser


def parse_config(argv) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    raw: dict = {}
    if args.config:
        raw.update(load_config_file(args.config))
    cfg = ExperimentConfig(command=str(raw.get("command", "")))
    for key, val in raw.items():
        if key in ("n", "n_range"):
            continue
        if key not in _CONFIG_FIELDS:
            raise InvalidParameterError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _CONFIG_FIELDS[key](val))
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"config field {key!r}: {exc}") from exc
    # flag overrides win over the file
    for ns in (_parse_ns(raw.get("n"), raw.get("n_range")), _parse_ns(args.n, args.n_range)):
        if ns is not None:
            cfg.ns = ns
    for key in _CONFIG_FIELDS:
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _write(cfg: ExperimentConfig, name: str, text: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _frac(x) -> list:
    return [x.numerator, x.denominator]


def _run_enumerate(cfg: ExperimentConfig) -> list:
    summaries = []
    for n in cfg.ns:
        if cfg.fmt in ("dot",) or n <= 9:
            graph = build_flip_graph(cfg.k, n, cap=cfg.cap)
            count = graph.num_vertices
            if cfg.fmt == "dot":
                _write(cfg, f"flipgraph_k{cfg.k}_n{n}.dot", graph.to_dot())
            else:
                _write(cfg, f"flipgraph_k{cfg.k}_n{n}.json", graph.to_json() + "\n")
        else:
            count = count_kangulations(cfg.k, n, cap=cfg.cap)
        expected = fuss_catalan(cfg.k, n)  # after the cap check, which bounds n
        summaries.append(
            {"command": "enumerate", "k": cfg.k, "n": n, "vertices": count,
             "expected": expected, "count_matches": count == expected}
        )
    return summaries


def _run_analyze(cfg: ExperimentConfig) -> list:
    summaries = []
    for n in cfg.ns:
        graph = build_flip_graph(cfg.k, n, cap=cfg.cap)
        chain = _cli.build_chain(graph)
        gap = chain.spectral_gap()
        cut = _cli.shortest_side_cut(n) if cfg.k == 3 and n >= 2 else None
        if cut is not None and cut.side_size and cut.other_size:
            bound = _cli.cut_gap_bound(cut, chain.delta)
            if Fraction(gap) > bound * (1 + GAP_RTOL):
                raise NumericFailureError(
                    f"n = {n}: gap {gap!r} is above the central cut's bound "
                    f"{bound} = {float(bound)!r}"
                )
        tau, mode = _cli.mixing_time(chain, cfg.epsilon)
        lo, hi = _cli.cheeger_bounds(chain)
        doc = {
            "command": "analyze", "k": cfg.k, "n": n,
            "vertices": graph.num_vertices, "degree": graph.degree,
            "gap": gap, "mixing_time": tau, "mixing_mode": mode,
            "epsilon": cfg.epsilon, "cheeger": [lo, hi],
        }
        if cut is not None:
            doc["cut"] = {
                "ratio": _frac(cut.ratio),
                "sizes": [cut.side_size, cut.other_size],
                "degenerate": cut.degenerate,
            }
        if cfg.fmt == "csv":
            curve = _cli.tvd_curve(chain, 0, tau + 10)
            lines = ["step,tvd"] + [f"{t},{v!r}" for t, v in enumerate(curve)]
            _write(cfg, f"tvd_k{cfg.k}_n{n}.csv", "\n".join(lines) + "\n")
        summaries.append(doc)
    return summaries


def _run_flow(cfg: ExperimentConfig) -> list:
    if cfg.k != 3:
        raise InvalidParameterError("flow command requires k = 3")
    if cfg.ns[-1] > _cli.FLOW_N_CAP:  # before any size is built
        raise EnumerationTooLargeError(cfg.ns[-1], _cli.FLOW_N_CAP, "flow n")
    summaries = []
    for n in cfg.ns:
        _check_size(3, n, cfg.cap)  # the check that build_flip_graph runs first
        partition = _cli.oriented_structure(n).partition
        _, report = _cli.uniform_flow_recursive(partition.graph)
        _cli.verify_unit_demands(n)
        worst = max(_cli.matching_arc_values(n), default=0)
        if worst > catalan(n):
            raise LemmaViolationError(
                f"matching arc carries {worst} > C_n = {catalan(n)}",
                witness={"n": n, "flow": str(worst)},
            )
        doc = {
            "command": "flow", "k": 3, "n": n,
            "vertices": partition.graph.num_vertices,
            "congestion": report.to_json_dict(),
            "conservation_certified": True,
        }
        if n >= 2:
            ineq = _cli.verify_matching_inequality(partition)
            pairing = _cli.hierarchical_pairing_flow(n)
            doc["matching_arc_max"] = _frac(worst)
            doc["matching_inequality"] = {
                "pairs": ineq["pairs_checked"],
                "min_slack_pair": list(ineq["min_slack_pair"]),
                "min_slack_ratio": _frac(ineq["min_slack_ratio"]),
            }
            doc["pairing_total_congestion"] = _frac(
                pairing["total_matching_congestion"]
            )
        summaries.append(doc)
    return summaries


def _run_cut(cfg: ExperimentConfig) -> list:
    if cfg.k != 3:
        raise InvalidParameterError("cut command requires k = 3")
    if cfg.ns[-1] > _cli.CUT_N_CAP:  # before any size is cut
        raise EnumerationTooLargeError(cfg.ns[-1], _cli.CUT_N_CAP, "cut n")
    summaries = []
    for n in cfg.ns:
        rep = _cli.shortest_side_cut(n)
        doc = {"command": "cut", "k": 3, "n": n, **rep.to_json_dict()}
        summaries.append(doc)
    return summaries


def _run_lattice(cfg: ExperimentConfig) -> list:
    summaries = []
    for n in cfg.ns:
        if cfg.block:
            graph = _cli.product_subgraph(n, cfg.block, cap=cfg.cap)
            doc = {
                "command": "lattice", "n": n, "block": cfg.block,
                "vertices": graph.num_vertices, "edges": graph.num_edges(),
                "connected": graph.is_connected(),
            }
        else:
            graph = _cli.enumerate_lattice(n, cap=cfg.cap)
            doc = {
                "command": "lattice", "n": n,
                "vertices": graph.num_vertices, "edges": graph.num_edges(),
                "recursive_count": _cli.count_triangulations_recursive(n),
                "connected": graph.is_connected(),
            }
            doc["oracles_agree"] = doc["vertices"] == doc["recursive_count"]
        if cfg.fmt == "dot":
            _write(cfg, f"lattice_n{n}.dot", graph.to_dot())
        summaries.append(doc)
    return summaries


def _run_sample(cfg: ExperimentConfig) -> list:
    summaries = []
    for n in cfg.ns:
        graph = build_flip_graph(cfg.k, n, cap=cfg.cap)
        res = _cli.sample_walk(graph, cfg.steps, seed=cfg.seed, start=0, thin=cfg.thin)
        doc = {
            "command": "sample", "k": cfg.k, "n": n, "seed": cfg.seed,
            "steps": cfg.steps, "thin": cfg.thin,
            "recorded": res["recorded"], "chi_square": res["chi_square"],
            "dof": res["dof"], "p_value": res["p_value"],
            "expected_per_state": res["expected_per_state"],
            "chi_square_reliable": res["chi_square_reliable"],
            "final_state": res["final_state"],
        }
        if cfg.full_edge_lists:
            doc["histogram"] = res["histogram"]
        summaries.append(doc)
    return summaries


_RUNNERS = {
    "enumerate": _run_enumerate,
    "analyze": _run_analyze,
    "flow": _run_flow,
    "cut": _run_cut,
    "lattice": _run_lattice,
    "sample": _run_sample,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one config; writes the JSON summary and returns the exit code."""
    try:
        cfg.validate()
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        summaries = _RUNNERS[cfg.command](cfg)
        _write(cfg, f"{cfg.command}_summary.json", _dump(summaries))
    except LemmaViolationError as exc:
        print(f"lemma violation: {exc} (witness: {exc.witness})", file=sys.stderr)
        return EXIT_VIOLATION
    except EnumerationTooLargeError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FlipwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # --out is unusable
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(_dump(summaries), end="")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except (InvalidParameterError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            return EXIT_USAGE if exc.code not in (0, None) else 0
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # unreadable, undecodable or bad JSON
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
