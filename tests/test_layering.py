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


# The names of enumeration: enumerate_policies and its size gate. model
# defines them and only its own search enumerates a space; the package
# facade re-exports them.
ENUMERATION_NAMES = {"enumerate_policies", "SPACE_SIZE_LIMIT"}
ENUMERATING = {"model": ENUMERATION_NAMES, "__init__": ENUMERATION_NAMES}


def test_only_model_enumerates():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        barred = ENUMERATION_NAMES - ENUMERATING.get(path.stem, set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in barred:
                bad.append(f"{path.name}:{node.lineno} refers to {name}")
    assert not bad, "\n".join(bad)
