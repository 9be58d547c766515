"""The first-match reader of retention and beliefs against the pattern interpreter.

An ``Equilibrium``'s ``decide``, ``retains`` and ``belief`` read its ordered
retention and belief patterns through one reader, which takes an
observation's shape (policy, outcome and whether effort is seen) and its
effort. ``support`` keeps the interpreter that ran before that reader,
copied verbatim, so the property compares the two on every regime at grid
points and within 4 ulp of every v - eps, v and v + eps a pattern tests:
``retains`` on each observation class, ``decide`` and ``belief`` on every
shape an ``Observation`` can take. The mutation test shows that the
comparison notices the reader with two outcome classes swapped, in
retention and in beliefs, with a "gt" test that stops passing above its
value, or with each "eq" value moved by one ulp.

``retention_pieces`` states reform retention as effort pieces, each start
the exact float where one effort test turns. A lookup in the pieces must
equal ``retains`` at every start, within 4 ulp of it and at the grid points
next to it, and at the probes above; a start moved by one ulp must fail that.
"""

import dataclasses
import itertools
import math
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reformlab import (
    AgentAction, DomainError, Observation, Params, UnresolvedObservationError,
    solve, transparent_pooling_family,
)
from reformlab import equilibrium
from reformlab.equilibrium import (
    FAILURE, OBSERVATION_CLASSES, OPAQUE, REFORM, SQ_OUTCOME, STATUS_QUO, SUCCESS, observe,
)
from support import DOMAINS, _interpreted_belief, _interpreted_decide

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


def _probes(eq) -> list[float]:
    """Efforts in [0, 1]: a coarse grid, and for each tested value t in
    {v - eps, v, v + eps}, eps the equilibrium's ``eps_tol``, the grid points
    next to t and every float within 4 ulp of t."""
    probes, eps = {k / 20 for k in range(21)}, eq.eps_tol
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


def _mismatches(eq) -> list:
    """Where the table's answer differs from the interpreter's, in value, in
    type or in raising: (class, effort) for ``retains`` on what the regime
    observes of each class, (reader, policy, outcome, effort) for ``decide``
    and ``belief`` on every observation shape."""
    found = []
    efforts = _probes(eq)
    for policy, outcome in OBSERVATION_CLASSES:
        for e in efforts if policy == REFORM else [0.0]:
            action = AgentAction(policy, e)
            want = _result(_interpreted_decide, eq, observe(eq.regime, action, outcome))
            if _result(eq.retains, action, outcome) != want:
                found.append(((policy, outcome), e))
    readers = (("decide", eq.decide, _interpreted_decide),
               ("belief", eq.belief, _interpreted_belief))
    for policy, outcome in SHAPES:
        for effort in (None, *efforts) if policy == REFORM else (None, 0.0):
            obs = Observation(policy, effort, outcome)
            for name, read, reference in readers:
                if _result(read, obs) != _result(reference, eq, obs):
                    found.append((name, policy, outcome, effort))
    return found


PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()},
    eps_tol=st.one_of(st.just(0.0), st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)),
)


def _ulps_and_grid(t: float) -> set[float]:
    """The floats within 4 ulp of ``t`` and the grid points next to it."""
    k = int(min(max(t, 0.0), 1.0) * (GRID_SIZE - 1))
    near = {i * (1.0 / (GRID_SIZE - 1)) for i in range(k - 1, k + 3)} | {t}
    lo = hi = t
    for _ in range(4):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        near.update((lo, hi))
    return near


def _piece_mismatches(eq, pieces=None) -> list[float]:
    """Efforts in [0, 1] where a lookup in the retention pieces (``eq``'s own, or
    ``pieces``) differs from ``retains`` after success or after failure: at each
    piece start, within 4 ulp of it and at the grid points next to it, and at
    :func:`_probes`."""
    starts, kept = pieces or eq.retention_pieces()
    efforts = set(_probes(eq)).union(*(_ulps_and_grid(t) for t in starts[1:]))
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
        starts, _ = eq.retention_pieces()
        assert starts[0] == -math.inf and starts == sorted(set(starts)), eq.regime
        assert _piece_mismatches(eq) == [], eq.regime


@pytest.mark.parametrize("cell", ["congruent_g", "congruent_b"])
def test_each_start_is_a_buffered_bound(sanity, cell):
    # every effort test compares with fl(v - eps) or fl(v + eps), so past -inf each start is
    # fl(v - eps) for "eq" and "ge" and the float after fl(v + eps) for "eq" and "gt"; eps one
    # ulp under v = e_H or e_L puts fl(v - eps) at one ulp of v, next to 0 and far from v
    eq = solve(sanity, "transparent_separating")
    v = getattr(eq.profile, cell).effort
    for eps in (eq.eps_tol, math.nextafter(v, 0.0)):
        moved = dataclasses.replace(eq, eps_tol=eps)
        want = {-math.inf}
        for pattern, _ in moved.retention:
            w = pattern.effort_value
            if pattern.effort_op in ("eq", "ge"):
                want.add(w - eps)
            if pattern.effort_op in ("eq", "gt"):
                want.add(math.nextafter(w + eps, math.inf))
        assert moved.retention_pieces()[0] == sorted(want), eps
        assert _piece_mismatches(moved) == [], eps


def test_comparison_notices_a_moved_start(sanity, part3):
    # every start in (0, 1] where retention changes, moved by one ulp either way
    moved = 0
    for params in (sanity, part3):
        for eq in (solve(params, "transparent_separating"),
                   solve(params, "transparent_pooling", pooling_effort=0.3, check=False)):
            starts, kept = eq.retention_pieces()
            for i in range(1, len(starts)):
                if not 0.0 < starts[i] <= 1.0 or kept[i] == kept[i - 1]:
                    continue
                for direction in (-math.inf, math.inf):
                    mutant = [*starts[:i], math.nextafter(starts[i], direction), *starts[i + 1:]]
                    assert _piece_mismatches(eq, (mutant, kept)), (eq.regime, i, direction)
                    moved += 1
    assert moved >= 8


@given(params=PARAMS, j=st.integers(0, GRID_SIZE - 1))
@example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.0), j=70_000)
@example(params=Params(p=0.9, phi=0.75, d=0.05, lam=0.3, R=0.5, pi=0.9, eps_tol=0.1), j=0)
@settings(max_examples=200, deadline=None)
def test_table_matches_pattern_interpreter(params, j):
    for eq in _equilibria(params, j):
        assert _mismatches(eq) == [], eq.regime


def test_decide_reads_every_observation_shape(sanity):
    # shapes no regime's observe produces still get the interpreter's answer
    separating = solve(sanity, "transparent_separating")
    assert separating.decide(Observation(REFORM, effort=separating.profile.congruent_g.effort))
    assert separating.decide(Observation(REFORM, outcome=SUCCESS)) is False
    opaque = solve(sanity, "opaque")
    assert opaque.decide(Observation(STATUS_QUO)) is False
    with pytest.raises(UnresolvedObservationError):
        opaque.decide(Observation(REFORM))


def _readers(found: list) -> set[str]:
    """The readers named in :func:`_mismatches`'s list, ``retains`` for a class."""
    return {"retains" if isinstance(where[0], tuple) else where[0] for where in found}


def test_comparison_notices_a_mutated_table(sanity):
    opaque = solve(sanity, "opaque")
    separating = solve(sanity, "transparent_separating")
    pooling = solve(sanity, "transparent_pooling", pooling_effort=0.3, check=False)
    for eq in (opaque, separating, pooling):
        assert _mismatches(eq) == [], eq.regime
    # each edit patches what the first-match reader consults; the interpreter in
    # ``support`` has its own ``_matches``, so no patch reaches the reference
    views, tests = equilibrium._CLASS_VIEWS[OPAQUE], equilibrium._EFFORT_TESTS
    shape = equilibrium._shape
    other = {SUCCESS: FAILURE, FAILURE: SUCCESS}

    def swap_classes(patch):  # opaque's retention after success read as after failure, and back
        patch.setitem(views, (REFORM, SUCCESS), views[REFORM, FAILURE])
        patch.setitem(views, (REFORM, FAILURE), views[REFORM, SUCCESS])

    def swap_belief_classes(patch):  # an observed success read as a failure, and back
        def swapped(obs):
            policy, outcome, seen = shape(obs)
            return policy, other.get(outcome, outcome), seen
        patch.setattr(equilibrium, "_shape", swapped)

    def gt_as_eq(patch):  # "gt" as "ge" passes nothing new: each "gt" follows an "eq" at its value
        patch.setitem(tests, "gt", tests["eq"])

    def move_eq_one_ulp(patch):  # each "eq" test's value by one ulp up
        eq_test = tests["eq"]
        patch.setitem(tests, "eq", lambda e, v, eps: eq_test(e, math.nextafter(v, 2.0), eps))

    for eq, edit, reader in ((opaque, swap_classes, "retains"),
                             (opaque, swap_belief_classes, "belief"),
                             (separating, gt_as_eq, "retains"),
                             (separating, move_eq_one_ulp, "retains"),
                             (pooling, move_eq_one_ulp, "belief")):
        with pytest.MonkeyPatch.context() as patch:
            edit(patch)
            found = _mismatches(eq)
        assert reader in _readers(found), (eq.regime, edit.__name__)


class TestOwnBuffer:
    """An equilibrium reads its retention and beliefs at its own ``eps_tol``, the one
    it was solved at, with no tolerance passed; ``dataclasses.replace`` reads at another."""

    def test_readers_take_the_solving_tolerance(self, sanity):
        params = sanity.replace(eps_tol=1e-3)
        eq = solve(params, "transparent_separating")
        e = eq.profile.congruent_g.effort - 5e-4  # inside e_H's buffer, outside 1e-12's
        observed = Observation(REFORM, e, FAILURE)
        starts, kept = eq.retention_pieces()
        assert eq.decide(observed) is True
        assert eq.retains(AgentAction(REFORM, e), FAILURE) is True
        assert eq.belief(observed) == 1.0
        assert kept[bisect_right(starts, e) - 1] == (True, True)
        assert _piece_mismatches(eq) == []
        assert dataclasses.replace(eq, eps_tol=1e-12).decide(observed) is False

    @pytest.mark.parametrize("eps_tol", [0.0, 1e-12, 1e-3, 0.1])
    def test_solve_sets_the_buffer(self, sanity, part3, eps_tol):
        for params in (sanity.replace(eps_tol=eps_tol), part3.replace(eps_tol=eps_tol)):
            for eq in _equilibria(params, 30_000):
                assert eq.eps_tol == params.eps_tol, eq.regime

    @pytest.mark.parametrize("eps_tol", [0.0, 1e-12, 5e-4, 1e-3, 0.1])
    def test_replace_reads_as_solving_there(self, sanity, part3, eps_tol):
        for params in (sanity, part3):
            there = _equilibria(params.replace(eps_tol=eps_tol), 30_000)
            for eq, want in zip(_equilibria(params, 30_000), there, strict=True):
                eq.retention_pieces()  # a memo built at the old buffer is not carried over
                moved = dataclasses.replace(eq, eps_tol=eps_tol)
                assert moved == want and moved.retention_pieces() == want.retention_pieces()
                assert _piece_mismatches(moved) == [], eq.regime
                starts = want.retention_pieces()[0]
                efforts = [0.0, 1.0, *(s for s in starts if 0.0 <= s <= 1.0)]
                for (policy, outcome), e in itertools.product(OBSERVATION_CLASSES, efforts):
                    action = AgentAction(policy, e if policy == REFORM else 0.0)
                    obs = observe(eq.regime, action, outcome)
                    assert moved.retains(action, outcome) == want.retains(action, outcome)
                    assert _result(moved.decide, obs) == _result(want.decide, obs)
                    if want.beliefs:
                        assert _result(moved.belief, obs) == _result(want.belief, obs)

    @pytest.mark.parametrize("eps_tol", [-1e-12, math.inf, math.nan])
    def test_bad_buffer_refused(self, sanity, eps_tol):
        with pytest.raises(DomainError, match="eps_tol"):
            dataclasses.replace(solve(sanity, "opaque"), eps_tol=eps_tol)


class TestClosedRange:
    """An "eq" test passes the closed float range [fl(v - eps), fl(v + eps)], so no effort
    between two that pass fails it. Where fl(v + eps) rounds above v + eps, |e - v| <= eps
    fails that one float: separating would remove a reform there, and pooling believe 0."""

    @pytest.mark.parametrize("eps_tol", [1e-9, 1e-3])
    def test_separating_keeps_the_top_of_e_h_buffer(self, sanity, eps_tol):
        eq = solve(sanity.replace(eps_tol=eps_tol), "transparent_separating")
        e_h = eq.profile.congruent_g.effort
        assert eq.retains(AgentAction(REFORM, e_h + eps_tol), FAILURE) is True
        starts, _ = eq.retention_pieces()
        assert [s for s, t in zip(starts, starts[1:]) if math.nextafter(s, math.inf) == t] == []
        assert _piece_mismatches(eq) == []

    @pytest.mark.parametrize("eps_tol", [1e-9, 1e-3])
    def test_pooling_believes_the_prior_at_the_top_of_the_pool(self, sanity, eps_tol):
        params = sanity.replace(eps_tol=eps_tol)
        eq = solve(params, "transparent_pooling", pooling_effort=0.3, check=False)
        assert eq.belief(Observation(REFORM, 0.3 + eps_tol, SUCCESS)) == params.pi
