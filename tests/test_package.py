"""The package's public surface: every exported name resolves, once; the
import graph keeps each oracle off the code path it checks; and equilibria
are built in one place."""

import ast
from pathlib import Path

import reformlab

PACKAGE = Path(reformlab.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def test_all_names_resolve_without_duplicates():
    assert len(reformlab.__all__) == len(set(reformlab.__all__))
    missing = [name for name in reformlab.__all__ if not hasattr(reformlab, name)]
    assert missing == []


def direct_imports(module: str) -> set[str]:
    """Package modules that ``module`` names in an import statement."""
    found = set()
    for node in ast.walk(ast.parse(MODULES[module].read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                target = node.module
            elif node.module == "reformlab" or (node.module or "").startswith("reformlab."):
                target = node.module.partition(".")[2]
            else:
                continue
            found.update([target.split(".")[0]] if target else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("reformlab."))
    return found & set(MODULES)


def imports(module: str) -> set[str]:
    """Package modules that ``module`` depends on through import statements,
    directly or through other package modules."""
    seen, todo = set(), [module]
    while todo:
        for name in direct_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_import_parser_reads_the_package():
    assert direct_imports("__main__") == {"cli"}
    assert {"welfare", "verification", "montecarlo"} <= direct_imports("cli")
    assert imports("welfare") >= {"verification", "equilibrium", "model_core", "errors"}


def test_monte_carlo_imports_no_closed_form_or_deviation_oracle():
    assert imports("montecarlo").isdisjoint({"welfare", "verification"})


def test_verification_imports_no_welfare_or_monte_carlo():
    assert imports("verification").isdisjoint({"welfare", "montecarlo"})


def test_only_the_entry_points_import_the_cli():
    assert {m for m in MODULES if "cli" in direct_imports(m)} == {"__init__", "__main__"}


def equilibrium_builders() -> set[tuple[str, str]]:
    """(module, enclosing function) of every ``Equilibrium(...)`` call in the
    package; a call outside any function has the function name ``""``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Equilibrium":
                found.add((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, path in MODULES.items():
        visit(ast.parse(path.read_text()), module, "")
    return found


def test_only_solve_builds_equilibria():
    assert equilibrium_builders() == {("equilibrium", "solve")}
