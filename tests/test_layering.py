"""The package's modules form layers: each imports only modules below it."""

import ast
from pathlib import Path

import sleepq

PACKAGE = Path(sleepq.__file__).parent

# Lowest first. The package facade imports every module but the CLI, and
# the CLI reads __version__ from it.
ORDER = ("errors", "model", "chain", "reward", "potential", "sensitivity",
         "optimize", "_simkernel", "sim", "__init__", "cli")


def _package_imports(tree):
    """(line, module, at_top) for each import of a sleepq module."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "sleepq":
                continue
            path = (node.module or "").split(".")
            if node.level == 0:
                path = path[1:]
            if path and path[0]:
                targets = [path[0]]
            else:  # from . import name: a module, or a name of the facade
                targets = [alias.name if alias.name in ORDER else "__init__"
                           for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [(alias.name.split(".") + ["__init__"])[1]
                       for alias in node.names
                       if alias.name.split(".")[0] == "sleepq"]
        else:
            continue
        for target in targets:
            yield node.lineno, target, id(node) in top


def test_every_module_is_layered():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert modules == sorted(ORDER)


def test_imports_point_down_and_sit_at_module_level():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        rank = ORDER.index(path.stem)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, target, at_top in _package_imports(tree):
            where = f"{path.name}:{line} imports {target}"
            if target not in ORDER[:rank]:
                bad.append(f"{where}, which is not below {path.stem}")
            elif not at_top:
                bad.append(f"{where} inside a function")
    assert not bad, "\n".join(bad)


# The fields that enter the rates only, not validate's rules or the model's
# file format. chain forms the rates; sim keeps its own copy on purpose, so
# acceptance criterion 12 checks the analytic law against an independent one.
RATE_FIELDS = {"p1_work", "c_hold_g1", "c_hold_g2", "c_transfer", "c_loss"}
RATE_MODULES = {"model", "chain", "sim"}


def test_only_chain_and_sim_form_the_rates():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in RATE_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bad += [f"{path.name}:{node.lineno} reads .{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in RATE_FIELDS]
    assert not bad, "\n".join(bad)


# The names of enumeration, its size gate and the gate's exit code. No
# search in the package enumerates a space: tests/block.py holds the
# enumeration. Comments and docstrings count, so none speaks of them.
ENUMERATION_NAMES = ("enumerate_policies", "SPACE_SIZE_LIMIT", "allow_large",
                     "GateError", "EXIT_GATE")


def test_no_module_enumerates():
    bad = [f"{path.name}:{line} refers to {name}"
           for path in sorted(PACKAGE.glob("*.py"))
           for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                       start=1)
           for name in ENUMERATION_NAMES if name in text]
    assert not bad, "\n".join(bad)


# The value sets of the product spaces are model._level_values' ranges: a
# search compares a space name only where the space has values the ranges
# leave out (full's values above a level) or is ranked whole (threshold).
COMPARED_SPACES = {"full", "threshold"}


def test_searches_take_the_product_spaces_sets_from_level_values():
    tree = ast.parse((PACKAGE / "optimize.py").read_text(encoding="utf-8"))
    bad = [f"optimize.py:{node.lineno} compares {name.value!r}"
           for node in ast.walk(tree) if isinstance(node, ast.Compare)
           for name in ast.walk(node)
           if isinstance(name, ast.Constant) and name.value in sleepq.POLICY_SPACES
           and name.value not in COMPARED_SPACES]
    assert not bad, "\n".join(bad)


# The policy iteration and the eta of its answers have one caller: every
# search, optimize's with or without top_k and price_sweep's, is _rankings.
SEARCH_STEPS = {"_iterate", "_profit"}


def test_only_rankings_runs_the_search_steps():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.stem == "optimize":
            [entry] = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "_rankings"]
            inside = {id(node) for node in ast.walk(entry)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SEARCH_STEPS:
                    bad.append(f"{path.name}:{node.lineno} calls {name}")
    assert not bad, "\n".join(bad)
