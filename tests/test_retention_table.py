"""The per-class retention and belief tables against the pattern interpreter.

An ``Equilibrium`` states retention and beliefs as per-class effort-piece
tables, and ``retains`` and ``belief`` read them by a class-position lookup and
a ``bisect_right``. ``support`` keeps the ordered pattern lists that
``solve`` stated before the tables, rebuilt from an equilibrium's profile,
pooling effort and parameters by ``reference_rules``, and the first-match
interpreter that read them, both copied verbatim. So the properties compare
the two on every regime at grid points and within 4 ulp of every v - eps, v
and v + eps a pattern tests and of every table start: ``retains`` on each
observation class, ``belief`` on every shape an ``Observation`` can take. A
shape that lacks a coordinate the regime sees is unresolved, whatever the
interpreter made of it. Every equilibrium ``solve``
builds at the census and acceptance points, with ``eps_tol`` 0, 1e-12 and
1e-3, is read at each start and its float neighbours. The mutation tests show
that the comparison notices a table with two outcome classes swapped, in
retention and in beliefs, with its top piece's value flipped, or with each
start moved by one ulp.

``retention_pieces`` states reform retention as effort pieces, each start the
exact float where one effort test turns, and must equal the reference
derivation from the pattern list bit for bit. A lookup in the pieces must
equal ``retains`` at every start, within 4 ulp of it and at the grid points
next to it, and at the probes above; a start moved by one ulp must fail that.
"""

import dataclasses
import math
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reformlab import (
    AgentAction, AssumptionError, DomainError, Equilibrium, Observation, Params, UnderflowError,
    UnresolvedObservationError, solve, transparent_pooling_family,
)
from reformlab.equilibrium import (
    FAILURE, OBSERVATION_CLASSES, OPAQUE, REFORM, REGIMES, SEES, SQ_OUTCOME, STATUS_QUO, SUCCESS,
    observe,
)
from support import (
    DOMAINS, _interpreted_belief, _interpreted_decide, in_class_order, keyed, reference_pieces,
    reference_rules, reference_starts, sample_params,
)

NONPOOLING_REGIMES = ("benchmark", "nontransparent", "opaque", "transparent_separating")
#: ``deviation_check``'s default grid size, whose points are probed next to each tested value
GRID_SIZE = 100_001
#: every (policy, outcome) an ``Observation`` can carry
SHAPES = ((REFORM, None), (REFORM, SUCCESS), (REFORM, FAILURE), (STATUS_QUO, None),
          (STATUS_QUO, SQ_OUTCOME))


def _equilibria(params: Params, j: int) -> list:
    """Every regime at ``params``, pooling at both ends of its family and at
    grid point ``j``; ungated, so that the tests reach past the gates."""
    eqs = [solve(params, regime, check=False) for regime in NONPOOLING_REGIMES]
    pools = [*(transparent_pooling_family(params) or ()), j / (GRID_SIZE - 1)]
    eqs += [solve(params, "transparent_pooling", pooling_effort=e, check=False)
            for e in pools if 0.0 <= e <= 1.0]
    return eqs


def _near(t: float) -> set[float]:
    """``t``, the grid points next to it and every float within 4 ulp of it."""
    k = int(min(max(t, 0.0), 1.0) * (GRID_SIZE - 1))
    near = {i / (GRID_SIZE - 1) for i in range(k - 1, k + 3)} | {t}
    lo = hi = t
    for _ in range(4):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        near.update((lo, hi))
    return near


def _starts(eq) -> set[float]:
    """Every finite start of ``eq``'s two tables."""
    return {s for table in (eq.retention, eq.beliefs) for starts, _ in table for s in starts[1:]}


def _at_starts(eq) -> list[float]:
    """0, 1, and each start of ``eq``'s tables and the floats next to it, in [0, 1]."""
    return sorted({0.0, 1.0, *(x for s in _starts(eq) for x in (
        math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)) if 0.0 <= x <= 1.0)})


def _probes(eq, rules) -> list[float]:
    """Efforts in [0, 1]: a coarse grid, and :func:`_near` each tested value t in
    {v - eps, v, v + eps} of the reference patterns and each table start."""
    probes, eps = {k / 20 for k in range(21)}, rules.eps_tol
    for pattern, _ in (*rules.retention, *rules.beliefs):
        if pattern.effort_value is not None:
            v = pattern.effort_value
            probes.update(*(_near(t) for t in (v - eps, v, v + eps)))
    probes.update(*(_near(s) for s in _starts(eq)))
    return sorted(e for e in probes if 0.0 <= e <= 1.0)


def _result(read, *args):
    """A read as (type, value), or the class of the error it raised."""
    try:
        got = read(*args)
    except UnresolvedObservationError as exc:
        return type(exc)
    return type(got), got


def _complete(regime: str, obs: Observation) -> bool:
    """Whether ``obs`` carries every coordinate ``regime`` sees."""
    sees_effort, sees_outcome = SEES[regime]
    return (obs.effort is not None or not sees_effort) and (
        obs.outcome is not None or not sees_outcome)


def _mismatches(eq, rules, efforts=None) -> list:
    """Where the table's answer differs from the interpreter's on ``rules``, in value, in
    type or in raising: (class, effort) for ``retains`` on what the regime observes of each
    class, ("belief", policy, outcome, effort) for ``belief`` on every observation shape,
    at ``efforts`` (by default :func:`_probes`). A shape that lacks a
    coordinate the regime sees must be unresolved."""
    found = []
    efforts = _probes(eq, rules) if efforts is None else efforts
    for policy, outcome in OBSERVATION_CLASSES:
        for e in efforts if policy == REFORM else [0.0]:
            action = AgentAction(policy, e)
            want = _result(_interpreted_decide, rules, observe(eq.regime, action, outcome))
            if _result(eq.retains, action, outcome) != want:
                found.append(((policy, outcome), e))
    for policy, outcome in SHAPES:
        for effort in (None, *efforts) if policy == REFORM else (None, 0.0):
            obs = Observation(policy, effort, outcome)
            want = (_result(_interpreted_belief, rules, obs) if _complete(eq.regime, obs)
                    else UnresolvedObservationError)
            if _result(eq.belief, obs) != want:
                found.append(("belief", policy, outcome, effort))
    return found


def _hexed(pieces) -> tuple:
    """Retention pieces with each start written as its ``float.hex``."""
    starts, kept = pieces
    return [float(s).hex() for s in starts], kept


PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()},
    eps_tol=st.one_of(st.just(0.0), st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)),
)


def _piece_mismatches(eq, rules, pieces=None) -> list[float]:
    """Efforts in [0, 1] where a lookup in the retention pieces (``eq``'s own, or
    ``pieces``) differs from ``retains`` after success or after failure: at each
    piece start, within 4 ulp of it and at the grid points next to it, and at
    :func:`_probes`."""
    starts, kept = pieces or eq.retention_pieces()
    efforts = set(_probes(eq, rules)).union(*(_near(t) for t in starts[1:]))
    found = []
    for e in sorted(e for e in efforts if 0.0 <= e <= 1.0):
        action = AgentAction(REFORM, e)
        if kept[bisect_right(starts, e) - 1] != tuple(eq.retains(action, outcome)
                                                      for outcome in (SUCCESS, FAILURE)):
            found.append(e)
    return found


@given(params=PARAMS, j=st.integers(0, GRID_SIZE - 1))
@example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.0), j=70_000)
@example(params=Params(p=0.9, phi=0.75, d=0.05, lam=0.3, R=0.5, pi=0.9, eps_tol=0.1), j=0)
@settings(max_examples=200, deadline=None)
def test_pieces_match_retains(params, j):
    for eq in _equilibria(params, j):
        rules = reference_rules(eq, params)
        starts, _ = eq.retention_pieces()
        assert starts[0] == -math.inf and starts == sorted(set(starts)), eq.regime
        assert _hexed(eq.retention_pieces()) == _hexed(reference_pieces(rules)), eq.regime
        assert _piece_mismatches(eq, rules) == [], eq.regime


@pytest.mark.parametrize("cell", ["congruent_g", "congruent_b"])
def test_each_start_is_a_buffered_bound(sanity, cell):
    # every effort test compares with fl(v - eps) or fl(v + eps), so past -inf each start is
    # fl(v - eps) for "eq" and "ge" and the float after fl(v + eps) for "eq" and "gt"; eps one
    # ulp under v = e_H or e_L puts fl(v - eps) at one ulp of v, next to 0 and far from v.
    # Ungated, so that so wide a buffer passes the gates; the profile does not read it
    v = getattr(solve(sanity, "transparent_separating").profile, cell).effort
    for eps in (sanity.eps_tol, math.nextafter(v, 0.0)):
        params = sanity.replace(eps_tol=eps)
        eq = solve(params, "transparent_separating", check=False)
        rules = reference_rules(eq, params)
        want = {-math.inf}
        for pattern, _ in rules.retention:
            w = pattern.effort_value
            if pattern.effort_op in ("eq", "ge"):
                want.add(w - eps)
            if pattern.effort_op in ("eq", "gt"):
                want.add(math.nextafter(w + eps, math.inf))
        assert eq.retention_pieces()[0] == sorted(want), eps
        for table in (eq.retention, eq.beliefs):
            for outcome in (SUCCESS, FAILURE):
                assert list(keyed(eq.regime, table)[REFORM, outcome][0]) == sorted(want), eps
        assert _piece_mismatches(eq, rules) == [], eps


def test_pieces_of_reform_classes_that_start_apart(sanity):
    # a table whose success and failure classes start apart (``solve`` never writes one)
    # gives pieces at the union of their starts, each read in both tables
    eq = solve(sanity, "transparent_separating")
    retention = keyed(eq.regime, eq.retention)
    apart = dataclasses.replace(eq, retention=in_class_order(eq.regime, {
        **retention, (REFORM, SUCCESS): ((-math.inf, 0.25), (False, True))}))
    starts, kept = apart.retention_pieces()
    assert starts == sorted({0.25, *retention[REFORM, FAILURE][0]})
    assert kept[:2] == [(False, False), (True, False)]
    assert _piece_mismatches(apart, reference_rules(eq, sanity)) == []


def test_comparison_notices_a_moved_start(sanity, part3):
    # every start in (0, 1] where retention changes, moved by one ulp either way
    moved = 0
    for params in (sanity, part3):
        for eq in (solve(params, "transparent_separating"),
                   solve(params, "transparent_pooling", pooling_effort=0.3, check=False)):
            rules = reference_rules(eq, params)
            starts, kept = eq.retention_pieces()
            for i in range(1, len(starts)):
                if not 0.0 < starts[i] <= 1.0 or kept[i] == kept[i - 1]:
                    continue
                for direction in (-math.inf, math.inf):
                    mutant = [*starts[:i], math.nextafter(starts[i], direction), *starts[i + 1:]]
                    assert _piece_mismatches(eq, rules, (mutant, kept)), (eq.regime, i, direction)
                    moved += 1
    assert moved >= 8


@given(params=PARAMS, j=st.integers(0, GRID_SIZE - 1))
@example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.0), j=70_000)
@example(params=Params(p=0.9, phi=0.75, d=0.05, lam=0.3, R=0.5, pi=0.9, eps_tol=0.1), j=0)
@settings(max_examples=200, deadline=None)
def test_table_matches_pattern_interpreter(params, j):
    for eq in _equilibria(params, j):
        assert _mismatches(eq, reference_rules(eq, params)) == [], eq.regime


def _census_equilibria(eps_tol: float) -> list:
    """(params, equilibrium) for every equilibrium ungated ``solve`` builds, and so every one
    gated ``solve`` builds, at the census and acceptance points and the two fixtures with
    ``eps_tol``: every regime, pooling at both ends of its family where they are efforts."""
    points = (sample_params(6, 300, "base") + sample_params(6, 200, "news")
              + sample_params(5, 300, "domain") + sample_params(7, 40, "acceptance")
              + sample_params(11, 40, "acceptance"))
    out = []
    for params in (p.replace(eps_tol=eps_tol) for p in points):
        family = transparent_pooling_family(params) or ()
        calls = [(r, None) for r in NONPOOLING_REGIMES]
        calls += [("transparent_pooling", e) for e in family if 0.0 <= e <= 1.0]
        for regime, effort in calls:
            try:
                out.append((params, solve(params, regime, pooling_effort=effort, check=False)))
            except UnderflowError:  # an opaque outcome of mass 0: no equilibrium
                continue
    return out


@pytest.mark.parametrize("eps_tol", [0.0, 1e-12, 1e-3])
def test_census_tables_read_as_the_reference(eps_tol, sanity, part3):
    # at each start of each table and at its float neighbours (and at 0 and 1), every read
    # of every class and shape answers as the pattern interpreter, and the retention pieces
    # are the reference derivation's, bit for bit
    cases = _census_equilibria(eps_tol)
    cases += [(p, eq) for p in (sanity.replace(eps_tol=eps_tol), part3.replace(eps_tol=eps_tol))
              for eq in _equilibria(p, 30_000)]
    assert {eq.regime for _, eq in cases} == set(REGIMES)
    for params, eq in cases:
        rules = reference_rules(eq, params)
        assert _mismatches(eq, rules, _at_starts(eq)) == [], (params, eq.regime)
        assert _hexed(eq.retention_pieces()) == _hexed(reference_pieces(rules)), eq.regime


def _incredible(eq, pi: float) -> list:
    """(policy, outcome, effort), at :func:`_at_starts`, where ``eq``'s retention goes against
    its own belief: removed on a belief above the prior ``pi``, or retained on one below it.
    A belief at the prior binds neither way."""
    found = []
    for policy, outcome in OBSERVATION_CLASSES:
        for e in _at_starts(eq) if policy == REFORM else [0.0]:
            action = AgentAction(policy, e)
            belief = eq.belief(observe(eq.regime, action, outcome))
            if belief != pi and eq.retains(action, outcome) != (belief > pi):
                found.append((policy, outcome, e))
    return found


@pytest.mark.parametrize("eps_tol", [0.0, 1e-12, 1e-3])
def test_retention_is_credible_under_its_beliefs(eps_tol, sanity, part3):
    # the principal keeps an agent believed more likely congruent than the prior and
    # removes one believed less likely, in every regime with a retention stage, at every
    # equilibrium gated ``solve`` builds at the fixtures and the acceptance points, pooling
    # at both ends of its family. Ungated, opaque breaks this at most of the domain
    built = 0
    for params in (sanity, part3, *sample_params(59, 200, "acceptance")):
        params = params.replace(eps_tol=eps_tol)
        family = transparent_pooling_family(params) or ()
        calls = [(r, None) for r in NONPOOLING_REGIMES if r != "benchmark"]
        calls += [("transparent_pooling", e) for e in family if 0.0 <= e <= 1.0]
        for regime, effort in calls:
            try:
                eq = solve(params, regime, pooling_effort=effort)
            except (AssumptionError, DomainError):  # no equilibrium of this regime here
                continue
            assert _incredible(eq, params.pi) == [], (params, regime, effort)
            built += 1
    assert built >= 4 * 202  # the check sees real equilibria in every regime
    # and it notices retention that reads the outcomes the wrong way round
    opaque = solve(sanity.replace(eps_tol=eps_tol), "opaque")
    swapped = dataclasses.replace(opaque, retention=in_class_order(
        OPAQUE, _swap_outcomes(keyed(OPAQUE, opaque.retention))))
    assert {(policy, outcome) for policy, outcome, _ in _incredible(swapped, sanity.pi)} == {
        (REFORM, SUCCESS), (REFORM, FAILURE)}


def test_decide_reads_every_observation_shape(sanity):
    # retention is decided on (action, outcome), read as the regime observes it; a belief
    # shape that carries every coordinate the regime sees is answered, one that lacks a
    # coordinate is unresolved in every regime, and one that carries a coordinate the
    # regime does not see is read without it
    separating = solve(sanity, "transparent_separating")
    e_h = separating.profile.congruent_g.effort
    assert separating.retains(AgentAction(REFORM, e_h), FAILURE) is True
    assert separating.belief(Observation(REFORM, e_h, FAILURE)) == 1.0
    for incomplete in (Observation(REFORM, effort=e_h), Observation(REFORM, outcome=SUCCESS),
                       Observation(STATUS_QUO, outcome=SQ_OUTCOME)):
        with pytest.raises(UnresolvedObservationError):
            separating.belief(incomplete)
    opaque = solve(sanity, "opaque")
    assert opaque.retains(AgentAction(STATUS_QUO), SQ_OUTCOME) is False
    assert opaque.retains(AgentAction(REFORM, 0.5), SUCCESS) is True
    for incomplete in (Observation(REFORM), Observation(STATUS_QUO)):
        with pytest.raises(UnresolvedObservationError):
            opaque.belief(incomplete)
    nontransparent = solve(sanity, "nontransparent")
    assert nontransparent.belief(Observation(REFORM, 0.5, FAILURE)) == sanity.pi
    benchmark = solve(sanity, "benchmark")
    assert benchmark.retains(AgentAction(STATUS_QUO), SQ_OUTCOME) is True
    with pytest.raises(UnresolvedObservationError):  # no retention stage, so no beliefs
        benchmark.belief(Observation(REFORM))


def _readers(found: list) -> set[str]:
    """The readers named in :func:`_mismatches`'s list, ``retains`` for a class."""
    return {"retains" if isinstance(where[0], tuple) else where[0] for where in found}


def _swap_outcomes(table: dict) -> dict:
    """``table`` with the success and failure classes' entries swapped."""
    return {**table, (REFORM, SUCCESS): table[REFORM, FAILURE],
            (REFORM, FAILURE): table[REFORM, SUCCESS]}


def _flip_top(table: dict) -> dict:
    """``table`` with the value of each reform class's top piece flipped."""
    return {key: (starts, (*values[:-1], not values[-1])) if key[0] == REFORM else (starts, values)
            for key, (starts, values) in table.items()}


def _move_starts(table: dict) -> dict:
    """``table`` with each start past -inf moved one ulp up."""
    return {key: ((starts[0], *(math.nextafter(s, math.inf) for s in starts[1:])), values)
            for key, (starts, values) in table.items()}


def test_comparison_notices_a_mutated_table(sanity):
    opaque = solve(sanity, "opaque")
    separating = solve(sanity, "transparent_separating")
    pooling = solve(sanity, "transparent_pooling", pooling_effort=0.3, check=False)
    for eq in (opaque, separating, pooling):
        assert _mismatches(eq, reference_rules(eq, sanity)) == [], eq.regime
    # each mutant is a valid table that ``dataclasses.replace`` builds; the reference is
    # rebuilt from the profile, so no mutation reaches it
    for eq, table, edit, reader in ((opaque, "retention", _swap_outcomes, "retains"),
                                    (opaque, "beliefs", _swap_outcomes, "belief"),
                                    (separating, "retention", _flip_top, "retains"),
                                    (separating, "retention", _move_starts, "retains"),
                                    (pooling, "beliefs", _move_starts, "belief")):
        edited = edit(keyed(eq.regime, getattr(eq, table)))
        mutant = dataclasses.replace(eq, **{table: in_class_order(eq.regime, edited)})
        found = _mismatches(mutant, reference_rules(eq, sanity))
        assert reader in _readers(found), (eq.regime, edit.__name__)


class TestOwnBuffer:
    """An equilibrium reads its retention and beliefs at the ``eps_tol`` it was solved at,
    baked into its starts, with no tolerance passed; solving at another reads there."""

    def test_readers_take_the_solving_tolerance(self, sanity):
        params = sanity.replace(eps_tol=1e-3)
        eq = solve(params, "transparent_separating")
        e = eq.profile.congruent_g.effort - 5e-4  # inside e_H's buffer, outside 1e-12's
        observed = Observation(REFORM, e, FAILURE)
        starts, kept = eq.retention_pieces()
        assert eq.retains(AgentAction(REFORM, e), FAILURE) is True
        assert eq.belief(observed) == 1.0
        assert kept[bisect_right(starts, e) - 1] == (True, True)
        assert _piece_mismatches(eq, reference_rules(eq, params)) == []
        assert solve(sanity.replace(eps_tol=1e-12), "transparent_separating").retains(
            AgentAction(REFORM, e), FAILURE) is False

    @pytest.mark.parametrize("eps_tol", [0.0, 1e-12, 1e-3, 0.1])
    def test_solve_sets_the_buffer(self, sanity, part3, eps_tol):
        # each reform class of a regime that sees effort starts where the reference
        # derivation puts its list's starts at the solving buffer, bit for bit, and every
        # other class starts at -inf alone
        for params in (sanity.replace(eps_tol=eps_tol), part3.replace(eps_tol=eps_tol)):
            for eq in _equilibria(params, 30_000):
                rules = reference_rules(eq, params)
                for name in ("retention", "beliefs"):
                    for (policy, _), (starts, _) in keyed(eq.regime, getattr(eq, name)).items():
                        want = (reference_starts(getattr(rules, name), eps_tol)
                                if policy == REFORM and SEES[eq.regime][0] else [-math.inf])
                        assert [s.hex() for s in starts] == [s.hex() for s in want], eq.regime

    @pytest.mark.parametrize("eps_tol", [0.0, 1e-12, 5e-4, 1e-3, 0.1])
    def test_replace_reads_as_solving_there(self, sanity, part3, eps_tol):
        # ``Params.replace(eps_tol=x)`` and ``solve`` read every class and shape as the
        # pattern lists do at x, and state the reference pieces at x
        for params in (sanity.replace(eps_tol=eps_tol), part3.replace(eps_tol=eps_tol)):
            for eq in _equilibria(params, 30_000):
                rules = reference_rules(eq, params)
                assert _mismatches(eq, rules) == [], eq.regime
                assert _piece_mismatches(eq, rules) == [], eq.regime
                assert _hexed(eq.retention_pieces()) == _hexed(reference_pieces(rules))

    @pytest.mark.parametrize("eps_tol", [-1e-12, math.inf, math.nan])
    def test_bad_buffer_refused(self, sanity, eps_tol):
        # the buffer is a parameter and no field of an equilibrium
        with pytest.raises(DomainError, match="eps_tol"):
            solve(sanity.replace(eps_tol=eps_tol), "opaque")
        assert "eps_tol" not in {f.name for f in dataclasses.fields(Equilibrium)}


class TestClosedRange:
    """An "eq" test passes the closed float range [fl(v - eps), fl(v + eps)], so no effort
    between two that pass fails it. Where fl(v + eps) rounds above v + eps, |e - v| <= eps
    fails that one float: separating would remove a reform there, and pooling believe 0."""

    @pytest.mark.parametrize("eps_tol", [1e-9, 1e-3])
    def test_separating_keeps_the_top_of_e_h_buffer(self, sanity, eps_tol):
        params = sanity.replace(eps_tol=eps_tol)
        eq = solve(params, "transparent_separating")
        e_h = eq.profile.congruent_g.effort
        assert eq.retains(AgentAction(REFORM, e_h + eps_tol), FAILURE) is True
        starts, _ = eq.retention_pieces()
        assert [s for s, t in zip(starts, starts[1:]) if math.nextafter(s, math.inf) == t] == []
        assert _piece_mismatches(eq, reference_rules(eq, params)) == []

    @pytest.mark.parametrize("eps_tol", [1e-9, 1e-3])
    def test_pooling_believes_the_prior_at_the_top_of_the_pool(self, sanity, eps_tol):
        params = sanity.replace(eps_tol=eps_tol)
        eq = solve(params, "transparent_pooling", pooling_effort=0.3, check=False)
        assert eq.belief(Observation(REFORM, 0.3 + eps_tol, SUCCESS)) == params.pi
