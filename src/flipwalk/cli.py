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
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import catalan, fuss_catalan
from .decomposition import oriented_partition, verify_matching_inequality
from .errors import (
    EnumerationTooLargeError,
    FlipwalkError,
    InvalidParameterError,
    LemmaViolationError,
    SchemaMismatchError,
)
from .flownet import (
    hierarchical_pairing_flow,
    matching_arc_values,
    uniform_flow_recursive,
    verify_unit_demands,
)
from .kangulation import (
    DEFAULT_ENUMERATION_CAP,
    build_flip_graph,
    enumerate_kangulations,
    flip_graph_from_json_dict,  # noqa: F401 (bench/trace_cli.py wraps it under this name)
)
from .lattice import count_triangulations_recursive, enumerate_lattice, product_subgraph
from .spectral import (
    build_chain,
    cheeger_bounds,
    mixing_time,
    sample_walk,
    shortest_side_cut,
    tvd_curve,
)

COMMANDS = ("enumerate", "analyze", "flow", "cut", "lattice", "sample")
EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, EXIT_CAP = 0, 2, 3, 4


def _flag(val) -> bool:
    return val if isinstance(val, bool) else str(val).lower() in ("1", "true", "yes")


# config-file keys and flags that set one ExperimentConfig field each; the
# file's other keys are n and n_range (see _parse_ns)
_CONFIG_FIELDS = {
    "command": str,
    "k": int,
    "seed": int,
    "steps": int,
    "epsilon": float,
    "cap": int,
    "thin": int,
    "block": int,
    "out_dir": str,
    "fmt": str,
    "full_edge_lists": _flag,
}


@dataclass
class ExperimentConfig:
    command: str
    k: int = 3
    ns: list = field(default_factory=lambda: [4])
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
        if not self.ns or any(n < 1 for n in self.ns):
            raise InvalidParameterError(f"n range must be nonempty positive: {self.ns}")
        if self.cap <= 0:
            raise InvalidParameterError(f"cap must be positive (field 'cap' = {self.cap})")
        if self.command == "sample" and self.seed is None:
            raise InvalidParameterError("sampling requires a seed (field 'seed')")
        if self.seed is not None and self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0 (field 'seed' = {self.seed})")
        if self.fmt not in ("json", "csv", "dot"):
            raise InvalidParameterError(f"format must be json|csv|dot, got {self.fmt!r}")
        if not 0 < self.epsilon < 1:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1) (field 'epsilon' = {self.epsilon})"
            )
        if self.steps < 0:
            raise InvalidParameterError(f"steps must be >= 0 (field 'steps' = {self.steps})")
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


def _parse_ns(n, n_range) -> list | None:
    """The n values of a config: the inclusive range A..B if given, else [n]."""
    try:
        if n_range is not None:
            lo, hi = str(n_range).split("..")
            return list(range(int(lo), int(hi) + 1))
        if n is not None:
            return [int(n)]
    except (TypeError, ValueError) as exc:
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
        except (TypeError, ValueError) as exc:
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
        expected = fuss_catalan(cfg.k, n)
        if cfg.fmt in ("dot",) or n <= 9:
            graph = build_flip_graph(cfg.k, n, cap=cfg.cap)
            count = graph.num_vertices
            if cfg.fmt == "dot":
                _write(cfg, f"flipgraph_k{cfg.k}_n{n}.dot", graph.to_dot())
            else:
                _write(cfg, f"flipgraph_k{cfg.k}_n{n}.json", graph.to_json() + "\n")
        else:
            count = len(enumerate_kangulations(cfg.k, n, cap=cfg.cap))
        summaries.append(
            {"command": "enumerate", "k": cfg.k, "n": n, "vertices": count,
             "expected": expected, "count_matches": count == expected}
        )
    return summaries


def _run_analyze(cfg: ExperimentConfig) -> list:
    summaries = []
    for n in cfg.ns:
        graph = build_flip_graph(cfg.k, n, cap=cfg.cap)
        chain = build_chain(graph)
        gap = chain.spectral_gap()
        tau, mode = mixing_time(chain, cfg.epsilon, return_mode=True)
        lo, hi = cheeger_bounds(chain)
        doc = {
            "command": "analyze", "k": cfg.k, "n": n,
            "vertices": graph.num_vertices, "degree": graph.degree,
            "gap": gap, "mixing_time": tau, "mixing_mode": mode,
            "epsilon": cfg.epsilon, "cheeger": [lo, hi],
        }
        if cfg.k == 3 and n >= 2:
            cut = shortest_side_cut(n)
            doc["cut"] = {
                "ratio": _frac(cut.ratio),
                "sizes": [cut.side_size, cut.other_size],
                "degenerate": cut.degenerate,
            }
        if cfg.fmt == "csv":
            curve = tvd_curve(chain, 0, tau + 10)
            lines = ["step,tvd"] + [f"{t},{v!r}" for t, v in enumerate(curve)]
            _write(cfg, f"tvd_k{cfg.k}_n{n}.csv", "\n".join(lines) + "\n")
        summaries.append(doc)
    return summaries


def _run_flow(cfg: ExperimentConfig) -> list:
    if cfg.k != 3:
        raise InvalidParameterError("flow command requires k = 3")
    summaries = []
    for n in cfg.ns:
        graph = build_flip_graph(3, n, cap=cfg.cap)
        _, report = uniform_flow_recursive(graph)
        verify_unit_demands(n)
        worst = max((v for _, _, v in matching_arc_values(n)), default=0) if n >= 2 else 0
        if worst > catalan(n):
            raise LemmaViolationError(
                f"matching arc carries {worst} > C_n = {catalan(n)}",
                witness={"n": n, "flow": str(worst)},
            )
        doc = {
            "command": "flow", "k": 3, "n": n,
            "vertices": graph.num_vertices,
            "congestion": report.to_json_dict(),
            "conservation_certified": True,
        }
        if n >= 2:
            worst_f = Fraction(worst)
            ineq = verify_matching_inequality(oriented_partition(graph))
            pairing = hierarchical_pairing_flow(n)[2]
            doc["matching_arc_max"] = _frac(worst_f)
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
    summaries = []
    for n in cfg.ns:
        rep = shortest_side_cut(n)
        doc = {"command": "cut", "k": 3, "n": n, **rep.to_json_dict()}
        summaries.append(doc)
    return summaries


def _run_lattice(cfg: ExperimentConfig) -> list:
    summaries = []
    for n in cfg.ns:
        if cfg.block:
            graph = product_subgraph(n, cfg.block)
            doc = {
                "command": "lattice", "n": n, "block": cfg.block,
                "vertices": graph.num_vertices, "edges": graph.num_edges(),
                "connected": graph.is_connected(),
            }
        else:
            graph = enumerate_lattice(n)
            doc = {
                "command": "lattice", "n": n,
                "vertices": graph.num_vertices, "edges": graph.num_edges(),
                "recursive_count": count_triangulations_recursive(n),
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
        res = sample_walk(graph, cfg.steps, seed=cfg.seed, start=0, thin=cfg.thin)
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


TABLE_COLUMNS = (
    "n", "vertices", "degree", "gap", "mixing_time",
    "cheeger_lo", "cheeger_hi", "flow_rho", "cut_ratio",
)


def report_table(summaries: list, fmt: str = "csv") -> str:
    """Tabulate analyze/flow/cut summaries with a stable column order."""
    ks = {doc.get("k") for doc in summaries}
    if len(ks) > 1:
        raise SchemaMismatchError(f"summaries mix k values: {sorted(ks)}")
    rows = {}
    for doc in summaries:
        row = rows.setdefault(doc["n"], {"n": doc["n"]})
        if "vertices" in doc:
            row["vertices"] = doc["vertices"]
        if "degree" in doc:
            row["degree"] = doc["degree"]
        if "gap" in doc:
            row["gap"] = doc["gap"]
            row["mixing_time"] = doc["mixing_time"]
            row["cheeger_lo"], row["cheeger_hi"] = doc["cheeger"]
        if "congestion" in doc:
            c = doc["congestion"]
            row["flow_rho"] = c["rho_num"] / c["rho_den"]
        if "ratio_num" in doc:
            row["cut_ratio"] = doc["ratio_num"] / doc["ratio_den"]
        elif "cut" in doc:
            num, den = doc["cut"]["ratio"]
            row["cut_ratio"] = num / den
    lines = []
    if fmt == "markdown":
        lines.append("| " + " | ".join(TABLE_COLUMNS) + " |")
        lines.append("|" + "|".join("---" for _ in TABLE_COLUMNS) + "|")
        for n in sorted(rows):
            row = rows[n]
            lines.append(
                "| " + " | ".join(str(row.get(c, "")) for c in TABLE_COLUMNS) + " |"
            )
    else:
        lines.append(",".join(TABLE_COLUMNS))
        for n in sorted(rows):
            row = rows[n]
            lines.append(",".join(str(row.get(c, "")) for c in TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


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
