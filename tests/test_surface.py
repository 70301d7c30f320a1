"""The package holds what its commands run.

A fresh interpreter sets `sys.setprofile` before `import flipwalk.cli`
and runs CONFIGS through `flipwalk.cli.main`: the golden configs, the flow
golden, a key = value config file, the csv export, the float64 re-step of
the mixing loop, and one config per documented exit code.  Every function in
`src/flipwalk`, methods and nested functions (comprehensions and lambdas)
included, must be entered; EXCEPTIONS names the few that no command
enters, each with its reason.  The routines that only tests run live in
`tests/reference_*.py`, and MOVED names the acceptance routines among them
with a test that runs each.  No module of the package imports a name at
top level that it never reads.

Run this file as a script (`python tests/test_surface.py OUT_DIR`) to
print the functions that CONFIGS leave unentered.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

with open(TESTS / "golden" / "cli_summaries.json") as fh:
    GOLDEN_ARGV = [run["argv"] for run in json.load(fh)["runs"]]

# key = value lines (`load_config_file`): full_edge_lists through `_flag`, and
# a thinned sample whose chi-square statistic (10.86 on 13 degrees of
# freedom) is below dof + 2, so the survival takes `_gamma_series`
CONFIG_FILE = "command = sample\nn = 4\nseed = 1\nsteps = 2000\nthin = 20\nfull_edge_lists = true\n"

# (argv, exit code), each run as main([*argv, "--out", OUT]); "{config}" is
# CONFIG_FILE's path, and the exit-3 flow runs with `matching_arc_values`
# patched to `test_cli.arc_above_catalan`
CONFIGS = [
    *((argv, 0) for argv in GOLDEN_ARGV),
    (["--command", "flow", "--n-range", "2..7"], 0),
    (["--config", "{config}"], 0),
    (["--command", "analyze", "--k", "3", "--n", "4", "--format", "csv"], 0),
    # K_2's TVD is exactly 1/2 at step 0: float32 leaves it undecided
    (["--command", "analyze", "--k", "3", "--n", "2", "--epsilon", "0.5"], 0),
    (["--command", "analyze", "--k", "2"], 2),
    (["--command", "flow", "--n", "4"], 3),
    (["--command", "enumerate", "--n", "14", "--cap", "1000"], 4),
]

# "module:qualname" -> why no command enters it; nested functions share
# their function's entry
EXCEPTIONS = {
    "__init__:__dir__": "`dir(flipwalk)` lists the lazy names; no command calls it",
    "kangulation:flip_graph_from_json_dict": (
        "bench/trace_cli.py wraps it as `flipwalk.cli.flip_graph_from_json_dict` (ROADMAP item 2)"),
    "kangulation:_rows_of": "the JSON loader's parser of states, also the per-state reference's",
    "spectral:ChainAnalysis.second_eigenvector": "bench/trace_cli.py wraps it (ROADMAP item 2)",
    "flows:ArcFlow.support_size": "bench/trace_cli.py counts a flow's support arcs with it",
    "lattice:LatticeFlipGraph.to_json_dict": (
        "the lattice graph's JSON export, pinned by tests/golden/lattice_graphs.json; "
        "no command writes it"),
}

# the paper's acceptance routines that only tests run, moved out of the
# package: name -> (the tests/ module that holds it, a test that runs it)
MOVED = {
    "brute_force_expansion": (
        "reference_spectral", "test_acceptance::test_criterion_07_expansion_bracket"),
    "cartesian_flow_combine": (
        "reference_flownet", "test_acceptance::test_criterion_05_cartesian_combiner"),
    "central_partition": (
        "reference_decomposition", "test_decomposition::test_central_partition_square_tie_break"),
    "diameter": ("reference_graph", "test_kangulation::test_diameter_bound_n11"),
    "expansion_lower_bound": (
        "reference_flownet", "test_acceptance::test_criterion_07_expansion_bracket"),
    "fuss_catalan_bounds": (
        "reference_combinatorics", "test_combinatorics::test_bounds_sandwich_exact"),
    "projection_restriction_combine": (
        "reference_flownet", "test_acceptance::test_criterion_04_combiner_bound"),
    "tvd": ("reference_spectral", "test_spectral::test_tvd_basic"),
    "verify_class_product_structure": (
        "reference_decomposition", "test_decomposition::test_class_product_structure"),
}


def _functions(path: pathlib.Path):
    """Every code object of a function that the file defines, nested ones
    included: the module's code constants, recursively."""
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield const
                todo.append(const)


def unentered(out: str) -> list:
    """Run CONFIGS in this interpreter, which must not have imported
    flipwalk yet, and return each function of src/flipwalk that none of
    them entered, as "module:qualname"."""
    files = {str(path): path for path in (SRC / "flipwalk").glob("*.py")}
    entered = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add(frame.f_code)

    os.makedirs(out, exist_ok=True)
    config = os.path.join(out, "config.txt")
    with open(config, "w") as fh:
        fh.write(CONFIG_FILE)
    sys.setprofile(record)
    try:
        from flipwalk import cli

        for argv, want in CONFIGS:
            if want == cli.EXIT_VIOLATION:
                sys.setprofile(None)  # the patch's module loads pytest and hypothesis
                from test_cli import arc_above_catalan

                cli.matching_arc_values = arc_above_catalan
                sys.setprofile(record)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([a.format(config=config) for a in argv] + ["--out", out])
            if code != want:
                raise AssertionError(f"{argv} exited {code}, not {want}")
    finally:
        sys.setprofile(None)
    return sorted(f"{path.stem}:{code.co_qualname}" for name, path in files.items()
                  for code in _functions(path) if code not in entered)


@pytest.fixture(scope="module")
def missed(tmp_path_factory) -> list:
    out = tmp_path_factory.mktemp("surface")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__, str(out)], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _excused(name: str) -> bool:
    return any(name == e or name.startswith(e + ".") for e in EXCEPTIONS)


def test_every_top_level_name_is_reached(missed):
    """Every module-level function is entered by some config."""
    stray = [name for name in missed if "." not in name.split(":")[1] and not _excused(name)]
    assert not stray, "no config enters " + ", ".join(stray)


def test_every_method_and_nested_function_is_entered(missed):
    """Every method, and every function nested in another, is entered."""
    stray = [name for name in missed if "." in name.split(":")[1] and not _excused(name)]
    assert not stray, "no config enters " + ", ".join(stray)


def test_allowlist_names_only_unreached_routines(missed):
    """Each exception is a function that no config enters: one that a
    command now runs, or that is gone, leaves the list."""
    assert sorted(EXCEPTIONS) == sorted(set(EXCEPTIONS) & set(missed))


def _names(node) -> set:
    """Every name that code under `node` uses or reads as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def _top_level(path: pathlib.Path) -> dict:
    tree = ast.parse(path.read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _unused_imports(path: pathlib.Path) -> list:
    """Each name that a top-level import of the module binds and no code in
    it reads, as "module:line name", except on lines marked `# noqa: F401`."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.stem}:{alias.lineno} {bound}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]]


def test_every_top_level_import_is_used():
    """No linter runs on the package: a module-level import that nothing in
    its module reads fails here, unless its line says `# noqa: F401`."""
    unused = [name for path in sorted((SRC / "flipwalk").glob("*.py"))
              for name in _unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


@pytest.mark.parametrize("name", sorted(MOVED))
def test_allowlisted_routines_have_a_test(name):
    """Each moved routine is defined in its tests/ module and in no module
    of src/flipwalk, and the test named for it exists and calls it."""
    home, test = MOVED[name]
    assert name in _top_level(TESTS / f"{home}.py"), (name, home)
    assert not any(name in _top_level(path) for path in (SRC / "flipwalk").glob("*.py")), name
    module, test = test.split("::")
    assert name in _names(_top_level(TESTS / f"{module}.py")[test]), (name, test)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps(unentered(sys.argv[1])))
