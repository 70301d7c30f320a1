"""Output checks for the benchmark: golden summaries and the walk replay.

A CLI call passes when every field of its golden summary is present in the
call's summary and agrees with it:

- floats agree within REL_TOL (relative; ABS_TOL near zero), because BLAS
  thread counts and solver changes move the last digits;
- ``mixing_time`` is equal when the golden mode is exact; when the golden
  mode is ``heuristic-start`` the golden value is a lower bound, so the new
  value may rise or stay but not fall;
- everything else (ints, fractions as [num, den], booleans, strings) is
  equal, type included.

Fields a summary has and its golden lacks are ignored, so new provenance
fields do not fail the check.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-12
HEURISTIC_MODE = "heuristic-start"


def compare(golden, actual, path: str = "$") -> list:
    """Every way actual misses golden, as a list of messages (empty: pass)."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        problems = []
        for key, want in golden.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            elif key == "mixing_time":
                problems += _compare_mixing(golden, actual, f"{path}.{key}")
            elif key == "mixing_mode":
                if golden[key] != HEURISTIC_MODE and not str(actual[key]).startswith("exact"):
                    problems.append(f"{path}.{key}: exact mode became {actual[key]!r}")
            else:
                problems += compare(want, actual[key], f"{path}.{key}")
        return problems
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return [f"{path}: expected a list of {len(golden)}, got {actual!r}"]
        problems = []
        for i, (want, got) in enumerate(zip(golden, actual)):
            problems += compare(want, got, f"{path}[{i}]")
        return problems
    if isinstance(golden, float):
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool)
              and math.isclose(actual, golden, rel_tol=REL_TOL, abs_tol=ABS_TOL))
        return [] if ok else [f"{path}: {actual!r} differs from {golden!r}"]
    if type(actual) is not type(golden) or actual != golden:
        return [f"{path}: {actual!r} != {golden!r}"]
    return []


def _compare_mixing(golden: dict, actual: dict, path: str) -> list:
    want, got = golden["mixing_time"], actual["mixing_time"]
    if type(got) is not int:
        return [f"{path}: {got!r} is not an integer"]
    if golden.get("mixing_mode") == HEURISTIC_MODE:
        if got < want:
            return [f"{path}: {got} fell below the heuristic lower bound {want}"]
        return []
    if got != want:
        return [f"{path}: {got} != exact {want}"]
    return []


def replay_walk(adj: np.ndarray, steps: int, seed: int, thin: int) -> dict:
    """The seed-dependent fields of ``sample`` on a regular graph, recomputed
    from a stored adjacency (row i: the sorted neighbours of vertex i).

    The lazy walk starts at vertex 0 and draws one coin in [0, 2*degree)
    per step from ``numpy.random.default_rng(seed)``; a coin below the
    degree moves to that neighbour, any other holds.  The p-value comes from
    scipy, not from the package's own incomplete-gamma code.
    """
    from scipy.stats import chi2

    num_states, degree = adj.shape
    coins = np.random.default_rng(seed).integers(0, 2 * degree, size=steps)
    counts = np.zeros(num_states, dtype=np.int64)
    state = 0
    counts[state] += 1
    for i, move in enumerate(coins.tolist(), 1):
        if move < degree:
            state = int(adj[state, move])
        if i % thin == 0:
            counts[state] += 1
    recorded = int(counts.sum())
    expected = recorded / num_states
    stat = float(((counts - expected) ** 2 / expected).sum())
    return {
        "seed": seed,
        "recorded": recorded,
        "final_state": state,
        "chi_square": stat,
        "dof": num_states - 1,
        "p_value": float(chi2.sf(stat, num_states - 1)),
    }
