"""The package's public surface: every exported name resolves, once; the
import graph keeps each oracle off the code path it checks; equilibria are
built in one place; one reader interprets observation patterns; and the
library keeps only the memos named here."""

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


def test_verification_reads_nothing_private_of_equilibrium():
    # the oracles derive what they check from public names: no private helper or table
    # of the equilibrium module (its observation-class views, say) is imported, and no
    # underscore attribute of any object is read
    tree = ast.parse(MODULES["verification"].read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module in ("equilibrium", "reformlab.equilibrium")
                for alias in node.names}
    assert {"Equilibrium", "observe"} <= imported  # the reader sees a real import
    assert {name for name in imported if name.startswith("_")} == set()
    assert {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")} == set()


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
    # the eps-buffered effort tests are applied by the first-match reader of retention
    # and beliefs, and by the piece builder, which finds where an "eq" test turns with
    # the test itself and labels each piece through that reader; pattern construction
    # only checks the op name
    assert sites(reads_effort_tests) == {("equilibrium", "ObservationPattern.__post_init__"),
                                         ("equilibrium", "Equilibrium._first_match"),
                                         ("equilibrium", "Equilibrium.retention_pieces")}


MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def names_a_memo_decorator(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in MEMO_DECORATORS
            or isinstance(node, ast.Attribute) and node.attr in MEMO_DECORATORS)


def self_attribute(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def writes_instance_state(node) -> bool:
    """``self.x[k] = ...``, ``self.x.setdefault/update/__setitem__(...)`` or
    ``object.__setattr__(...)``: a write past a frozen dataclass's fields."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return self_attribute(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr == "__setattr__":
            return isinstance(func.value, ast.Name) and func.value.id == "object"
        return func.attr in {"setdefault", "update", "__setitem__"} and self_attribute(func.value)
    return False


def test_only_the_memos_that_pay_are_kept():
    # a memo stays where its readers mostly hit it: the posteriors per (p, phi), the
    # refusal table per point, and an equilibrium's retention pieces per eps, which
    # ``__post_init__`` creates empty; a new memo comes with a case here
    assert sites(names_a_memo_decorator) == {("model_core", "_posteriors"),
                                             ("equilibrium", "gate_refusals")}
    assert sites(writes_instance_state) == {("equilibrium", "Equilibrium.__post_init__"),
                                            ("equilibrium", "Equilibrium.retention_pieces")}


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
    # the deviation oracle takes each piece's vertex from its own payoff primitives: it
    # imports, reads and calls none of these, under any alias
    defined = {node.name for node in ast.parse(MODULES["equilibrium"].read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert CLOSED_FORM <= defined
    assert names_used("verification").isdisjoint(CLOSED_FORM)
    assert "raw_profile" in names_used("welfare")  # the reader sees a real use


def test_verification_imports_no_closed_form_effort():
    # the oracle's independence at its import statements: the vertex it scores comes
    # from the payoff primitives, never from the profile builder or the interior effort
    imported = {name for node in ast.walk(ast.parse(MODULES["verification"].read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names for name in (alias.name, alias.asname)}
    assert imported.isdisjoint({"raw_profile", "interior_effort"})
    assert "posteriors" in imported  # the reader sees real imports


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


def imported_roots(module: str) -> set[str]:
    """Top-level names of the absolute imports in ``module``."""
    found = set()
    for node in ast.walk(ast.parse(MODULES[module].read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_one_utility_path():
    # the reform utility is evaluated by the deviation oracle and by the one cell
    # scorer; the public one-cell and break-even entry points score through that
    # scorer only, and the oracle scores its cells' utilities in its own calls.
    # Both score Python floats: the oracles neither import nor call numpy
    assert sites(calls("_reform_utility")) == {("verification", "deviation_check"),
                                               ("verification", "_cell_utilities")}
    assert sites(calls("_cell_utilities")) == {("verification", "expected_utility"),
                                               ("verification", "divinity_breakeven")}
    assert "numpy" not in imported_roots("verification")
    assert {"math", "bisect"} <= imported_roots("verification")  # the reader sees real imports
    numpy_modules = {module for module, _ in sites(calls_numpy)}
    assert "verification" not in numpy_modules
    assert {"model_core", "montecarlo"} <= numpy_modules  # the reader sees real uses
