"""The package's surface: every top-level function and class in
`src/flipwalk` is reached from the package's own code, so names that no
command or layer uses do not pile up again.

A name counts as reached when code outside its own definition, in a module
other than `__init__.py`, names it: a call, an attribute, or an import.
Docstrings and comments do not count.  `main` is the CLI's entry point,
and ACCEPTANCE lists the routines that certify the paper's structure
lemmas in the tests alone, each with a test that runs it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "flipwalk"

ACCEPTANCE = {
    "brute_force_expansion": "test_acceptance::test_criterion_07_expansion_bracket",
    "cartesian_flow_combine": "test_acceptance::test_criterion_05_cartesian_combiner",
    "central_partition": "test_decomposition::test_central_partition_square_tie_break",
    "diameter": "test_kangulation::test_diameter_bound_n11",
    "expansion_lower_bound": "test_acceptance::test_criterion_07_expansion_bracket",
    "fuss_catalan_bounds": "test_combinatorics::test_bounds_sandwich_exact",
    "projection_restriction_combine": "test_acceptance::test_criterion_04_combiner_bound",
    "tvd": "test_spectral::test_tvd_basic",
    "verify_class_product_structure": "test_decomposition::test_class_product_structure",
}
ENTRY_POINTS = {"main"}


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _names(node) -> set:
    """Every name that code under `node` uses, imports or reads as an
    attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _unreached() -> dict:
    """Each top-level function or class that no code outside its own
    definition names, with its module."""
    modules = _modules()
    defined, used = {}, set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = module
                used |= _names(node) - {node.name}  # a recursive call reaches nothing
            else:
                used |= _names(node)
    return {name: module for name, module in defined.items() if name not in used}


def test_every_top_level_name_is_reached():
    unreached = _unreached()
    stray = sorted(f"{module}: {name}" for name, module in unreached.items()
                   if name not in ACCEPTANCE and name not in ENTRY_POINTS)
    assert not stray, "no code in src/flipwalk reaches " + ", ".join(stray)


def test_allowlist_names_only_unreached_routines():
    """An allowlisted name that the package now reaches, or that is gone,
    leaves the list."""
    unreached = _unreached()
    assert sorted(ACCEPTANCE) == sorted(set(unreached) - ENTRY_POINTS)


@pytest.mark.parametrize("name", sorted(ACCEPTANCE))
def test_allowlisted_routines_have_a_test(name):
    """The test named for each allowlisted routine exists and calls it."""
    module, test = ACCEPTANCE[name].split("::")
    tree = ast.parse((pathlib.Path(__file__).parent / f"{module}.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == test]
    assert name in _names(node), (name, test)
