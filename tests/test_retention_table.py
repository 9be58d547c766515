"""Table-driven retention and beliefs against the pattern interpreter they replaced.

An ``Equilibrium`` compiles its ordered retention and belief patterns into
one table keyed by (list, observation shape), the shape being policy,
outcome and whether effort is seen; ``decide``, ``retains`` and ``belief``
read that table. ``support`` keeps the first-match interpreter that ran
before the table, copied verbatim, so the property compares the two on
every regime at grid points and within 4 ulp of every v - eps, v and
v + eps a pattern tests: ``retains`` on each observation class, ``decide``
and ``belief`` on every shape an ``Observation`` can take. The mutation
test shows that the comparison notices a table with two rows swapped or
with one effort value moved by one ulp, in retention and in beliefs.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reformlab import (
    AgentAction, Observation, Params, UnderflowError, UnresolvedObservationError,
    solve, transparent_pooling_family,
)
from reformlab.equilibrium import (
    FAILURE, OBSERVATION_CLASSES, REFORM, SQ_OUTCOME, STATUS_QUO, SUCCESS, observe,
)
from support import DOMAINS, _interpreted_belief, _interpreted_decide, opaque_failure_mass

NONPOOLING_REGIMES = ("benchmark", "nontransparent", "opaque", "transparent_separating")
#: the deviation scan's default grid, whose points are probed next to each tested value
GRID_SIZE = 100_001
#: every (policy, outcome) an ``Observation`` can carry
SHAPES = ((REFORM, None), (REFORM, SUCCESS), (REFORM, FAILURE), (STATUS_QUO, None),
          (STATUS_QUO, SQ_OUTCOME))


def _equilibria(params: Params, j: int) -> list:
    """Every regime at ``params``, pooling at both ends of its family and at
    grid point ``j``; ungated, so that the tests reach past the gates."""
    eqs = []
    for regime in NONPOOLING_REGIMES:
        if regime == "opaque" and opaque_failure_mass(params) == 0.0:
            with pytest.raises(UnderflowError):  # no belief after a failure: refused
                solve(params, regime, check=False)
            continue
        eqs.append(solve(params, regime, check=False))
    pools = [*(transparent_pooling_family(params) or ()), j / (GRID_SIZE - 1)]
    eqs += [solve(params, "transparent_pooling", pooling_effort=e, check=False)
            for e in pools if 0.0 <= e <= 1.0]
    return eqs


def _probes(eq, eps: float) -> list[float]:
    """Efforts in [0, 1]: a coarse grid, and for each tested value t in
    {v - eps, v, v + eps} the grid points next to t and every float within
    4 ulp of t."""
    probes = {k / 20 for k in range(21)}
    for pattern, _ in (*eq.retention, *eq.beliefs):
        if pattern.effort_value is None:
            continue
        for t in (pattern.effort_value - eps, pattern.effort_value, pattern.effort_value + eps):
            k = int(min(max(t, 0.0), 1.0) * (GRID_SIZE - 1))
            probes.update(i / (GRID_SIZE - 1) for i in range(k - 1, k + 3))
            lo = hi = t
            probes.add(t)
            for _ in range(4):
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
                probes.update((lo, hi))
    return sorted(e for e in probes if 0.0 <= e <= 1.0)


def _result(read, *args):
    """A read as (type, value), or the class of the error it raised."""
    try:
        got = read(*args)
    except UnresolvedObservationError as exc:
        return type(exc)
    return type(got), got


def _mismatches(eq, eps: float) -> list:
    """Where the table's answer differs from the interpreter's, in value, in
    type or in raising: (class, effort) for ``retains`` on what the regime
    observes of each class, (reader, policy, outcome, effort) for ``decide``
    and ``belief`` on every observation shape."""
    found = []
    efforts = _probes(eq, eps)
    for policy, outcome in OBSERVATION_CLASSES:
        for e in efforts if policy == REFORM else [0.0]:
            action = AgentAction(policy, e)
            want = _result(_interpreted_decide, eq, observe(eq.regime, action, outcome), eps)
            if _result(eq.retains, action, outcome, eps) != want:
                found.append(((policy, outcome), e))
    readers = (("decide", eq.decide, _interpreted_decide),
               ("belief", eq.belief, _interpreted_belief))
    for policy, outcome in SHAPES:
        for effort in (None, *efforts) if policy == REFORM else (None, 0.0):
            obs = Observation(policy, effort, outcome)
            for name, read, reference in readers:
                if _result(read, obs, eps) != _result(reference, eq, obs, eps):
                    found.append((name, policy, outcome, effort))
    return found


PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()},
    eps_tol=st.one_of(st.just(0.0), st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)),
)


@given(params=PARAMS, j=st.integers(0, GRID_SIZE - 1))
@example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.0), j=70_000)
@example(params=Params(p=0.9, phi=0.75, d=0.05, lam=0.3, R=0.5, pi=0.9, eps_tol=0.1), j=0)
@settings(max_examples=200, deadline=None)
def test_table_matches_pattern_interpreter(params, j):
    for eq in _equilibria(params, j):
        assert _mismatches(eq, params.eps_tol) == [], eq.regime


def _with_rows(eq, edit):
    """A copy of ``eq`` whose first-match table ``edit`` changed in place."""
    rows = dict(eq._rows)
    edit(rows)
    mutant = dataclasses.replace(eq)
    object.__setattr__(mutant, "_rows", rows)
    return mutant


def test_decide_reads_every_observation_shape(sanity):
    # shapes no regime's observe produces still get the interpreter's answer
    separating = solve(sanity, "transparent_separating")
    assert separating.decide(Observation(REFORM, effort=separating.profile.congruent_g.effort))
    assert separating.decide(Observation(REFORM, outcome=SUCCESS)) is False
    opaque = solve(sanity, "opaque")
    assert opaque.decide(Observation(STATUS_QUO)) is False
    with pytest.raises(UnresolvedObservationError):
        opaque.decide(Observation(REFORM))


def test_comparison_notices_a_mutated_table(sanity):
    eps = sanity.eps_tol
    opaque = solve(sanity, "opaque")
    separating = solve(sanity, "transparent_separating")
    pooling = solve(sanity, "transparent_pooling", pooling_effort=0.3, check=False)
    for eq in (opaque, separating, pooling):
        assert _mismatches(eq, eps) == [], eq.regime
    # table keys: (list, shape); opaque sees the outcome, the transparent regimes also the effort
    success, failure = (REFORM, SUCCESS, False), (REFORM, FAILURE, False)
    seen_success = (REFORM, SUCCESS, True)

    def swap_classes(rows):
        a, b = ("retention", success), ("retention", failure)
        rows[a], rows[b] = rows[b], rows[a]

    def swap_belief_classes(rows):
        a, b = ("beliefs", success), ("beliefs", failure)
        rows[a], rows[b] = rows[b], rows[a]

    def swap_tests(rows):  # the "gt" test and the constant that follows it
        row = rows["retention", seen_success]
        rows["retention", seen_success] = (*row[:-2], row[-1], row[-2])

    def move_one_ulp(rows):  # the first test, "eq" at e_H, by one ulp up
        (op, v, keep), *rest = rows["retention", seen_success]
        rows["retention", seen_success] = ((op, math.nextafter(v, 2.0), keep), *rest)

    def move_belief_one_ulp(rows):  # the pooled "eq" belief test by one ulp up
        (op, v, belief), *rest = rows["beliefs", seen_success]
        assert op == "eq"
        rows["beliefs", seen_success] = ((op, math.nextafter(v, 2.0), belief), *rest)

    for eq, edit in ((opaque, swap_classes), (opaque, swap_belief_classes),
                     (separating, swap_tests), (separating, move_one_ulp),
                     (pooling, move_belief_one_ulp)):
        assert _mismatches(_with_rows(eq, edit), eps), edit.__name__
