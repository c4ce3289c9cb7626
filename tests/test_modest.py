import re
import warnings

import pytest

from conftest import m, submasks, unsettled_problem
from stablecontracts.ample import ag_solve, is_ample
from stablecontracts import modest
from stablecontracts.choice import Table, validate_plott
from stablecontracts.contractsets import ids_of
from stablecontracts.desirability import desirable_set
from stablecontracts.errors import InternalInconsistencyError, PreconditionError
from stablecontracts.instance import TwoAgentProblem, reduce_to_two_agents
from stablecontracts.modest import (
    ample_to_modest,
    is_modest,
    modest_from_stable,
    modest_to_ample,
    yang_solve,
    yang_step,
)
from stablecontracts.oracle import brute_force_stable, random_corpus, random_instance
from stablecontracts.stability import is_stable


class TestIsModest:
    def test_empty_always_modest(self, p1, p3):
        assert is_modest(p1, 0)
        assert is_modest(p3, 0)

    def test_worker_favourite_modest(self, p1):
        assert is_modest(p1, m(1))

    def test_firm_favourite_modest_because_stable(self, p1):
        assert is_modest(p1, m(0))


class TestYangStep:
    def test_marriage_2x2_from_empty(self, p3):
        assert yang_step(p3, 0) == m(1, 2)

    def test_two_contracts_from_empty(self, p1):
        assert yang_step(p1, 0) == m(1)

    def test_fixpoint_case(self, p3):
        assert yang_step(p3, m(1, 2)) == m(1, 2)

    def test_non_modest_input_rejected(self, p1):
        with pytest.raises(PreconditionError, match="not modest"):
            yang_step(p1, m(0, 1))


class TestYangSolve:
    def test_marriage_2x2_default(self, p3):
        result = yang_solve(p3)
        assert result.system == m(1, 2)
        assert result.trace[0] == 0

    def test_two_contracts_default(self, p1):
        assert yang_solve(p1).system == m(1)

    def test_none_start_is_the_default(self, p1, p3):
        # None means the empty set, as it means the whole ground to ag_solve
        for problem in (p1, p3):
            assert yang_solve(problem, None) == yang_solve(problem)

    def test_stable_start_is_fixpoint(self, p1):
        result = yang_solve(p1, m(0))
        assert result.system == m(0)

    def test_non_modest_start_rejected(self, p1):
        with pytest.raises(PreconditionError):
            yang_solve(p1, m(0, 1))

    def test_termination_bound_and_stability(self):
        for inst in random_corpus(60, master_seed=61, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            result = yang_solve(problem)
            assert result.steps <= problem.size + 1
            assert is_stable(problem, result.system)

    def test_ascent_that_never_settles_is_internal(self):
        with pytest.raises(InternalInconsistencyError, match=(
            "^ascending iteration did not stabilize within the ground-set bound$"
        )):
            yang_solve(unsettled_problem())

    def test_unstable_fixpoint_is_internal(self, p3, monkeypatch):
        system = yang_solve(p3).system
        monkeypatch.setattr(modest, "is_stable", lambda problem, s: False)
        with pytest.raises(InternalInconsistencyError, match=re.escape(
            f"ascent fixpoint produced an unstable system {ids_of(system)}"
        )):
            yang_solve(p3)

    def test_a_market_without_the_axioms_fails_the_closing_check(self):
        # two proper tables over e0, e1, e2 that break every axiom, found
        # by a seeded search over random 3-contract tables: entry A is
        # C(A).  {e1} is the one stable system, but the ascent stops at
        # once on the empty set: D_F(∅) = {e1, e2}, W drops both, and
        # D_F(∅) repeats.  Only the closing check sees e1 block ∅.
        firm = Table(m(0, 1, 2), dict(enumerate([0, 0, 2, 0, 4, 5, 6, 6])))
        worker = Table(m(0, 1, 2), dict(enumerate([0, 0, 2, 0, 4, 5, 0, 7])))
        problem = TwoAgentProblem(firm, worker)
        assert not validate_plott(firm).passed
        assert brute_force_stable(problem) == [m(1)]
        with pytest.raises(InternalInconsistencyError, match=(
            r"^ascent fixpoint produced an unstable system \[\]$"
        )):
            yang_solve(problem)


def _ascent_by_steps(problem, start):
    """The ascent by its definition: iterate the public ``yang_step`` until
    D_F of the iterate stops changing, as ``yang_solve`` documents."""
    trace, q = [start], start
    d = desirable_set(problem.firm, q)
    for _ in range(problem.size + 2):
        nxt = yang_step(problem, q)
        nxt_d = desirable_set(problem.firm, nxt)
        if nxt_d == d:
            if nxt != q:
                trace.append(nxt)
            return tuple(trace)
        trace.append(nxt)
        q, d = nxt, nxt_d
    raise AssertionError("the ascent did not stabilize")


def _modest_starts(problem):
    """The empty set and F(W(B)) for every ample B the descent visits."""
    return [0] + [ample_to_modest(problem, b) for b in ag_solve(problem).trace]


class TestAscentShortcut:
    """``yang_solve`` takes the next iterate and its D_F from one D_F pass;
    its trace must be the iteration of the definitional ``yang_step``."""

    def test_corpus(self):
        for inst in random_corpus(200, master_seed=83, max_contracts=12):
            problem = reduce_to_two_agents(inst)
            for start in _modest_starts(problem):
                assert yang_solve(problem, start).trace == _ascent_by_steps(problem, start)

    @pytest.mark.parametrize("seed", range(3))
    def test_sides_in_one_numpy_pass(self, seed):
        inst = random_instance(seed, 36, 36, density=0.4, families=("linear", "quota"))
        problem = reduce_to_two_agents(inst)
        assert problem.firm._passes[0] is not None
        assert problem.worker._passes[0] is not None
        for start in _modest_starts(problem):
            assert yang_solve(problem, start).trace == _ascent_by_steps(problem, start)


class TestLemma5and6:
    def test_modest_systems_self_chosen(self):
        for inst in random_corpus(30, master_seed=67, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for q in submasks(problem.ground):
                if is_modest(problem, q):
                    assert problem.firm.evaluate(q) == q
                    assert problem.worker.evaluate(q) == q

    def test_step_preserves_modesty_and_shrinks_desirability(self):
        for inst in random_corpus(30, master_seed=71, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for q in submasks(problem.ground):
                if not is_modest(problem, q):
                    continue
                nxt = yang_step(problem, q)
                assert is_modest(problem, nxt)
                d_next = desirable_set(problem.firm, nxt)
                d_cur = desirable_set(problem.firm, q)
                assert d_next & ~d_cur == 0


class TestModestFromStable:
    def test_stable_systems_returned_unchanged(self, p1, p3):
        assert modest_from_stable(p1, m(0)) == m(0)
        assert modest_from_stable(p1, m(1)) == m(1)
        assert modest_from_stable(p3, m(0, 3)) == m(0, 3)

    def test_unstable_rejected(self, p3):
        with pytest.raises(PreconditionError):
            modest_from_stable(p3, m(0, 1))

    def test_stable_system_that_is_not_modest_is_internal(self, p3, monkeypatch):
        monkeypatch.setattr(modest, "is_modest", lambda problem, s: False)
        with pytest.raises(InternalInconsistencyError, match=re.escape(
            f"stable system {ids_of(m(0, 3))} failed the modesty check"
        )):
            modest_from_stable(p3, m(0, 3))


class TestDuality:
    def test_examples(self, p1, p3):
        assert ample_to_modest(p1, p1.ground) == m(1)
        assert ample_to_modest(p1, m(0)) == m(0)
        assert ample_to_modest(p3, p3.ground) == m(1, 2)
        assert modest_to_ample(p1, 0) == m(0, 1)
        assert modest_to_ample(p1, m(1)) == m(0, 1)
        assert modest_to_ample(p3, m(1, 2)) == p3.ground

    def test_preconditions(self, p1):
        with pytest.raises(PreconditionError):
            ample_to_modest(p1, m(1))
        with pytest.raises(PreconditionError):
            modest_to_ample(p1, m(0, 1))

    def test_closures_exhaustively(self):
        for inst in random_corpus(30, master_seed=73, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for s in submasks(problem.ground):
                if is_ample(problem, s):
                    assert is_modest(problem, ample_to_modest(problem, s))
                if is_modest(problem, s):
                    assert is_ample(problem, modest_to_ample(problem, s))


def test_cross_route_agreement_is_measured():
    """Both default starts are compared; divergences are findings, not bugs.

    Neither route is required to pick the same distinguished stable system,
    so disagreements are reported as warnings while both outputs must still
    be stable.
    """
    divergences = []
    corpus = random_corpus(200, master_seed=79, max_contracts=8)
    for idx, inst in enumerate(corpus):
        problem = reduce_to_two_agents(inst)
        descending = ag_solve(problem).system
        ascending = yang_solve(problem).system
        assert is_stable(problem, descending)
        assert is_stable(problem, ascending)
        if descending != ascending:
            divergences.append((idx, descending, ascending))
    if divergences:
        warnings.warn(
            f"default ample/modest starts disagreed on {len(divergences)} of "
            f"{len(corpus)} instances: {divergences[:5]}"
        )
    assert len(corpus) == 200
