"""The package's public surface: every exported name resolves, once; the
import graph keeps each oracle off the code path it checks; equilibria are
built in one place; and one reader interprets observation patterns."""

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


def sites(match) -> set[tuple[str, str]]:
    """(module, enclosing scope) of every syntax node in the package that
    ``match`` accepts; the scope is the dotted name of the enclosing classes
    and functions, ``""`` at module level."""
    found = set()

    def visit(node, module, scope):
        if match(node):
            found.add((module, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, path in MODULES.items():
        visit(ast.parse(path.read_text()), module, "")
    return found


def builds_equilibrium(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "Equilibrium"


def reads_effort_tests(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "_EFFORT_TESTS" and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Attribute) and node.attr == "_EFFORT_TESTS"


def test_only_solve_builds_equilibria():
    assert sites(builds_equilibrium) == {("equilibrium", "solve")}


def test_one_reader_interprets_patterns():
    # the eps-buffered effort tests are applied in one place, the first-match
    # reader of retention and beliefs; pattern construction only checks the op name
    assert sites(reads_effort_tests) == {("equilibrium", "ObservationPattern.__post_init__"),
                                         ("equilibrium", "Equilibrium._first_match")}


#: equilibrium's closed-form efforts and beliefs, which the deviation oracle checks
CLOSED_FORM = {"interior_effort", "raw_profile", "separation_effort",
               "transparent_pooling_family", "_opaque_success_beliefs"}


def names_used(module: str) -> set[str]:
    """Names that ``module`` imports, reads or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(MODULES[module].read_text())):
        if isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_verification_uses_no_closed_form_effort():
    # the deviation scan places its windows from the oracle's own payoff primitives
    defined = {node.name for node in ast.parse(MODULES["equilibrium"].read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert CLOSED_FORM <= defined
    assert names_used("verification").isdisjoint(CLOSED_FORM)
    assert "raw_profile" in names_used("welfare")  # the reader sees a real use


def calls(name: str):
    """A matcher of calls to the bare name ``name``."""
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def calls_numpy(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    while isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id in ("np", "numpy")


def test_one_utility_path():
    # the reform utility is evaluated by the scan and by the one cell scorer; the
    # public one-cell and break-even entry points score through that scorer only
    assert sites(calls("_reform_utility")) == {("verification", "deviation_check"),
                                               ("verification", "_cell_utilities")}
    numpy_scopes = {scope.split(".")[0] for module, scope in sites(calls_numpy)
                    if module == "verification"}
    assert numpy_scopes.isdisjoint({"expected_utility", "divinity_breakeven"})
    assert {"_cell_utilities", "deviation_check"} <= numpy_scopes  # the reader sees real uses
