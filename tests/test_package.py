"""The package's public surface: every exported name resolves, once; the
import graph keeps each oracle off the code path it checks; equilibria are
built in one place; only an equilibrium's own readers read its retention and
belief tables, and no pattern interpreter is left; one module
states the parameter format; the library keeps only the memos named here; and
each public entry point refuses malformed input with ``DomainError``."""

import ast
import math
from pathlib import Path

import pytest

import reformlab
from reformlab import (
    OPAQUE, AgentAction, DomainError, Equilibrium, Observation, Params,
    SimConfig, SweepAxis, comparative_statics, convergence_sweep, fixture_path, formula_welfare,
    interior_effort, observe, posteriors, solve, thresholds_from_lambda_hat,
)
from reformlab.equilibrium import FAILURE, REFORM, SQ_OUTCOME, STATUS_QUO, SUCCESS, raw_profile

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
    assert imports("__main__") >= {"cli", "welfare", "verification", "equilibrium",
                                    "model_core", "errors"}


def test_welfare_imports_nothing_from_verification():
    # W and Q are welfare's own walk of the four cells, not the oracles' enumeration
    assert imports("welfare") >= {"equilibrium", "model_core", "errors"}
    assert "verification" not in imports("welfare")


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


#: imports a module keeps for readers elsewhere: the package's public names, and
#: ``equilibrium.check_assumptions``, which ``perfbench/selftest.py`` reads to see the
#: tracer restore every module's copy of a wrapped function
REEXPORTS = {"__init__": set(reformlab.__all__), "equilibrium": {"check_assumptions"}}


def unread_imports(module: str) -> set[str]:
    """Names that an import statement of ``module`` binds and that ``module`` never reads."""
    tree = ast.parse(MODULES[module].read_text())
    bound = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_read():
    unread = {m: names for m in MODULES
              if (names := unread_imports(m) - REEXPORTS.get(m, set()))}
    assert unread == {}
    assert unread_imports("equilibrium") == {"check_assumptions"}  # it finds one that is there


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


def reads_a_table(node) -> bool:
    """``x.retention`` or ``x.beliefs`` read, or a name of the deleted pattern interpreter."""
    return (isinstance(node, ast.Attribute) and node.attr in ("retention", "beliefs")
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", None)) in PATTERN_NAMES)


#: the names of the pattern interpreter that per-class tables replaced
PATTERN_NAMES = {"ObservationPattern", "_first_match", "_shape", "_CLASS_VIEWS", "_EFFORT_TESTS"}


def test_only_solve_builds_equilibria():
    assert sites(builds_equilibrium) == {("equilibrium", "solve")}


def test_only_the_readers_read_the_tables():
    # an equilibrium's tables are read by its own readers, which take a table by name, and
    # by the two that state it (its constructor's check and its JSON); past them only the
    # Bayes check asks whether a belief system exists, and no module names the pattern
    # interpreter the tables replaced
    assert sites(reads_a_table) == {("equilibrium", "Equilibrium.__post_init__"),
                                    ("equilibrium", "Equilibrium.decide"),
                                    ("equilibrium", "Equilibrium.retains"),
                                    ("equilibrium", "Equilibrium.retention_pieces"),
                                    ("equilibrium", "Equilibrium.to_json"),
                                    ("verification", "bayes_consistency")}


#: each reader of an equilibrium and the positional arguments it takes: the observation,
#: or the action and the outcome; the tolerance is baked into the tables' starts
READER_ARITY = {"decide": 1, "retains": 2, "belief": 1, "retention_pieces": 0}


def reader_calls(paths) -> list[tuple[str, int, int]]:
    """(reader, positional arguments, keyword arguments) of each call, in the files
    ``paths``, of a method named in ``READER_ARITY``."""
    return [(node.func.attr, len(node.args), len(node.keywords))
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in READER_ARITY]


def test_no_reader_is_passed_a_tolerance():
    # no call in the package or in its tests passes a reader anything beyond the
    # observation or the (action, outcome); the package calls three of the readers and
    # the tests call all four, so the reader sees real calls
    package = reader_calls(MODULES.values())
    tests = reader_calls(Path(__file__).parent.glob("*.py"))
    assert [c for c in package + tests if c[1:] != (READER_ARITY[c[0]], 0)] == []
    assert {name for name, _, _ in package} == {"retains", "belief", "retention_pieces"}
    assert {name for name, _, _ in tests} == set(READER_ARITY)


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
    # a memo stays where its readers mostly hit it: the posteriors per (p, phi) and the
    # refusal table per point; an equilibrium stores nothing past its fields, its retention
    # pieces are its tables read afresh; a new memo comes with a case here
    assert sites(names_a_memo_decorator) == {("model_core", "_posteriors"),
                                             ("equilibrium", "gate_refusals")}
    assert sites(writes_instance_state) == set()


#: equilibrium's closed-form efforts and beliefs, which the deviation oracle checks
CLOSED_FORM = {"interior_effort", "raw_profile", "separation_effort",
               "transparent_pooling_family", "_opaque_success_beliefs"}


def names_used(module: str) -> set[str]:
    """Names that ``module`` imports, reads or takes as an attribute."""
    return names_in(ast.parse(MODULES[module].read_text()))


def names_in(tree: ast.AST) -> set[str]:
    """Names that ``tree`` imports, reads or takes as an attribute."""
    found = set()
    for node in ast.walk(tree):
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


def test_opaque_beliefs_read_the_built_profile():
    # the opaque beliefs take the reform efforts from the clamped profile ``solve`` built:
    # they restate no closed-form effort from the rent, the cost sensitivity or the posteriors
    [func] = [node for node in ast.parse(MODULES["equilibrium"].read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name == "_opaque_success_beliefs"]
    used = names_in(func)
    assert used.isdisjoint({"lam", "R", "posteriors", "mu_plus", "mu_minus"})
    assert {"profile", "effort"} <= used  # the reader sees real reads


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


def holds_string(text: str):
    """A matcher of the string constant ``text``."""
    return lambda node: isinstance(node, ast.Constant) and node.value == text


def test_only_model_core_states_the_parameter_format():
    # the JSON key ``lambda`` is renamed to the attribute ``lam`` in the one parameter table:
    # every other module reads the table, so no other module holds the name as a string
    assert {module for module, _ in sites(holds_string("lam"))} == {"model_core"}


def imports_numbers(node) -> bool:
    """A matcher of ``import numbers`` and ``from numbers import ...``."""
    return (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers")


def test_only_model_core_states_what_a_real_number_is():
    # one reader, ``require_real``, decides which values are real numbers in a domain: every
    # other module calls it, so no other module needs the numeric tower
    assert {module for module, _ in sites(imports_numbers)} == {"model_core"}


_SANITY = Params(p=0.99, phi=0.75, d=0.0125, lam=0.5, R=0.25, pi=0.9)
_SANITY_NT = solve(_SANITY, "nontransparent")
_SANITY_OP = solve(_SANITY, "opaque")
_BLIND = (-math.inf,)  # the one start of a class whose effort the regime does not see


def _table(regime=OPAQUE, retention=(), beliefs=()) -> Equilibrium:
    """The ``regime`` equilibrium at ``_SANITY`` with the (class, entry) pairs ``retention``
    and ``beliefs`` set in its tables, a None entry dropping its class."""
    eq = solve(_SANITY, regime)

    def edited(table, edits):
        return {key: entry for key, entry in {**table, **dict(edits)}.items() if entry is not None}
    return Equilibrium(regime, eq.profile, edited(eq.retention, retention),
                       edited(eq.beliefs, beliefs))

#: a public entry point given input it must refuse, one case per refusal
REFUSALS = {
    "fixture_path": lambda: fixture_path("bogus"),
    "sweep_axis_inf_bound": lambda: SweepAxis("R", 0.2, math.inf, 3),
    "sweep_axis_string_bound": lambda: SweepAxis("R", "0.2", 1.0, 3),
    "sweep_axis_bool_bound": lambda: SweepAxis("R", True, 2.0, 3),
    "params_unknown_keys_of_two_types": lambda: Params.from_json(
        {**_SANITY.to_json(), 1: 0.5, "x": 0.5}),
    "agent_action_policy": lambda: AgentAction("abstain"),
    "observation_policy": lambda: Observation("abstain"),
    "observation_outcome": lambda: Observation(REFORM, outcome="draw"),
    "observation_outcome_of_other_policy": lambda: Observation(STATUS_QUO, outcome=SUCCESS),
    "profile_cell": lambda: _SANITY_NT.profile.action("neutral", "g"),
    "observe_regime": lambda: observe("secret", AgentAction(REFORM, 0.5), FAILURE),
    "equilibrium_regime": lambda: Equilibrium("secret", _SANITY_NT.profile, {}, {}),
    "equilibrium_decision": lambda: _table(retention=[((REFORM, SUCCESS), (_BLIND, ("keep",)))]),
    "table_int_decision": lambda: _table(retention=[((REFORM, FAILURE), (_BLIND, (0,)))]),
    "table_classes_of_another_regime": lambda: Equilibrium(
        OPAQUE, _SANITY_OP.profile, _SANITY_NT.retention, _SANITY_OP.beliefs),
    "table_class_missing": lambda: _table(beliefs=[((STATUS_QUO, SQ_OUTCOME), None)]),
    "table_not_a_dict": lambda: Equilibrium(
        OPAQUE, _SANITY_OP.profile, tuple(_SANITY_OP.retention.items()), _SANITY_OP.beliefs),
    "table_entry_not_a_pair": lambda: _table(beliefs=[((REFORM, SUCCESS), (-math.inf, 0.5))]),
    "table_start_not_minus_inf": lambda: _table(beliefs=[((REFORM, SUCCESS), ((0.0,), (0.5,)))]),
    "table_starts_not_rising": lambda: _table("transparent_separating", retention=[
        ((REFORM, SUCCESS), ((-math.inf, 0.5, 0.5), (False, True, True)))]),
    "table_string_start": lambda: _table("transparent_separating", retention=[
        ((REFORM, SUCCESS), ((-math.inf, "0.5"), (False, True)))]),
    "table_effort_start_unseen": lambda: _table(retention=[
        ((REFORM, SUCCESS), ((-math.inf, 0.5), (False, True)))]),
    "table_lengths_mismatched": lambda: _table(beliefs=[((REFORM, SUCCESS), (_BLIND, (0.5, 0.6)))]),
    "table_nan_belief": lambda: _table(beliefs=[((REFORM, SUCCESS), (_BLIND, (math.nan,)))]),
    "table_belief_of_seven": lambda: _table(beliefs=[((REFORM, FAILURE), (_BLIND, (7,)))]),
    "table_bool_belief": lambda: _table(beliefs=[((REFORM, FAILURE), (_BLIND, (True,)))]),
    "interior_effort_mu": lambda: interior_effort(1.5, 1.0, _SANITY),
    "interior_effort_negative_weight": lambda: interior_effort(0.5, -1.0, _SANITY),
    "interior_effort_nan_weight": lambda: interior_effort(0.5, math.nan, _SANITY),
    "interior_effort_bool_mu": lambda: interior_effort(True, 1.0, _SANITY),
    "interior_effort_string_mu": lambda: interior_effort("x", 1.0, _SANITY),
    "raw_profile_pooling": lambda: raw_profile("transparent_pooling", _SANITY,
                                               posteriors(_SANITY)),
    "posteriors_signal": lambda: posteriors(_SANITY).mu("x"),
    "convergence_sweep_regime": lambda: convergence_sweep(
        SimConfig(n_draws=10, seed=0, regime=OPAQUE, params=_SANITY), _SANITY_NT, [10]),
    "sim_config_regime": lambda: SimConfig(n_draws=10, seed=0, regime="bogus", params=_SANITY),
    "formula_welfare_regime": lambda: formula_welfare(_SANITY, "benchmark"),
    "thresholds_zero_lambda_hat": lambda: thresholds_from_lambda_hat(0.0, 0.3),
    "thresholds_negative_lambda_hat": lambda: thresholds_from_lambda_hat(-1.0, 0.3),
    "thresholds_nan_lambda_hat": lambda: thresholds_from_lambda_hat(math.nan, 0.3),
    "thresholds_inf_lambda_hat": lambda: thresholds_from_lambda_hat(math.inf, 0.3),
    "thresholds_nan_d": lambda: thresholds_from_lambda_hat(0.1, math.nan),
    "thresholds_negative_d": lambda: thresholds_from_lambda_hat(0.1, -5.0),
    "thresholds_bool_lambda_hat": lambda: thresholds_from_lambda_hat(True, 0.3),
    "comparative_statics_string_delta": lambda: comparative_statics(_SANITY, "phi", "0.1"),
    "comparative_statics_bool_delta": lambda: comparative_statics(_SANITY, "phi", True),
    "comparative_statics_nan_delta": lambda: comparative_statics(_SANITY, "phi", math.nan),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_public_refusals(name):
    with pytest.raises(DomainError):
        REFUSALS[name]()
