import numpy as np
import pytest

from conftest import m, submasks
from stablecontracts.classical import is_matching
from stablecontracts.errors import DomainError
from stablecontracts.fileformat import format_set
from stablecontracts.fixtures import marriage_2x2
from stablecontracts.instance import TwoAgentProblem, reduce_to_two_agents
from stablecontracts.choice import Aggregate, ChoiceFunction, LinearOrder, Quota
from stablecontracts.oracle import brute_force_stable, random_corpus
from stablecontracts.stability import (
    blocking_contracts,
    is_acceptable,
    is_stable,
    is_stable_multi,
    is_stable_prop1,
    keeps_slices,
    multi_blocking,
)


class TestAcceptable:
    def test_singleton_kept_by_both_sides(self, p1):
        assert is_acceptable(p1, m(0))
        assert is_acceptable(p1, m(1))

    def test_both_contracts_rejected_down_to_one(self, p1):
        assert not is_acceptable(p1, m(0, 1))

    def test_empty_always_acceptable(self, p1, p3):
        assert is_acceptable(p1, 0)
        assert is_acceptable(p3, 0)


class TestBlocking:
    def test_everything_blocks_the_empty_system(self, p1):
        assert blocking_contracts(p1, 0) == m(0, 1)

    def test_firm_refuses_the_alternative(self, p1):
        # at {e1} the worker would take e2 but the firm keeps e1
        assert blocking_contracts(p1, m(0)) == 0

    def test_firm_optimal_matching_unblocked(self, p3):
        assert blocking_contracts(p3, m(0, 3)) == 0


class TestStable:
    def test_two_parallel_contracts_all_subsets(self, p1):
        assert is_stable(p1, m(0))
        assert is_stable(p1, m(1))
        assert not is_stable(p1, 0)
        assert not is_stable(p1, m(0, 1))

    def test_marriage_2x2_exactly_two_stable(self, p3):
        stable = {s for s in submasks(p3.ground) if is_stable(p3, s)}
        assert stable == {m(0, 3), m(1, 2)}

    def test_empty_problem_vacuously_stable(self):
        problem = TwoAgentProblem(LinearOrder(()), LinearOrder(()))
        assert is_stable(problem, 0)

    def test_set_outside_ground(self, i1, p1):
        for check in (lambda s: is_stable(p1, s), lambda s: list(multi_blocking(i1, s))):
            with pytest.raises(DomainError, match="not a subset of the ground set"):
                check(m(5))

    def test_negative_set_rejected(self, p1):
        with pytest.raises(DomainError):
            is_stable(p1, -1)


class TestProp1:
    def test_examples(self, p1):
        assert is_stable_prop1(p1, m(1))
        assert is_stable_prop1(p1, m(0))
        assert not is_stable_prop1(p1, 0)


class TestMulti:
    def test_worker_optimal_matching(self, i3):
        assert is_stable_multi(i3, m(1, 2))

    def test_agent_holding_two_contracts_unacceptable(self, i3):
        # w1 would drop e11 while holding {e11, e21}
        assert not is_stable_multi(i3, m(0, 2))

    def test_empty_system_blocked_by_any_mutual_contract(self, i3):
        assert not is_stable_multi(i3, 0)


class TestEquivalences:
    def test_three_way_equivalence_on_corpus(self):
        for inst in random_corpus(40, master_seed=23, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for s in submasks(problem.ground):
                definitional = is_acceptable(problem, s) and not blocking_contracts(
                    problem, s
                )
                assert definitional == is_stable(problem, s)
                assert definitional == is_stable_prop1(problem, s)

    def test_multi_agent_matches_reduction(self):
        for inst in random_corpus(40, master_seed=29, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for s in submasks(inst.ground):
                assert is_stable_multi(inst, s) == is_stable(problem, s)

    def test_linear_orders_make_stable_systems_matchings(self):
        for inst in random_corpus(30, master_seed=31, max_contracts=8, families=("linear",)):
            problem = reduce_to_two_agents(inst)
            for s in submasks(inst.ground):
                if is_stable(problem, s):
                    assert is_matching(inst, s)


def test_independent_checks_never_use_desirability(monkeypatch, i3, poset):
    # the brute-force oracle and both blocking scans arbitrate between the
    # desirability-based forms, so they must not rest on desirability
    def refuse(self, state):
        raise AssertionError("desirability was used")

    for family in (ChoiceFunction, LinearOrder, Quota, Aggregate):
        monkeypatch.setattr(family, "desirable", refuse)
    quota_markets = random_corpus(5, master_seed=0, families=("quota",))
    for inst in (i3, poset, *quota_markets):
        problem = reduce_to_two_agents(inst)
        brute_force_stable(problem)
        for s in submasks(problem.ground):
            blocking_contracts(problem, s)
            list(multi_blocking(inst, s))


class TestNumpyMasks:
    """A numpy integer is read as a Python int at every entry, and each
    answer is a Python int or bool."""

    def test_two_agent_forms(self):
        problem = reduce_to_two_agents(marriage_2x2())
        for s in (np.int64(6), np.uint16(0), np.int64(9)):
            for check in (is_acceptable, is_stable, is_stable_prop1):
                assert type(check(problem, s)) is bool
                assert check(problem, s) == check(problem, int(s))
            out = blocking_contracts(problem, s)
            assert type(out) is int and out == blocking_contracts(problem, int(s))
        assert blocking_contracts(problem, np.int64(0)) == 15

    def test_multi_agent_form_and_printing(self):
        inst = marriage_2x2()
        assert is_stable_multi(inst, np.int64(6)) is True
        assert is_stable_multi(inst, np.int64(1)) is False
        assert format_set(inst, np.int64(6)) == "{e12, e21}"
        assert list(multi_blocking(inst, np.int64(1))) == list(multi_blocking(inst, 1))

    def test_keeps_slices_reads_and_checks_its_set(self):
        inst = marriage_2x2()
        for s in submasks(inst.ground):
            assert keeps_slices(inst, np.int64(s)) is keeps_slices(inst, s)
        with pytest.raises(DomainError, match="^contract set \\[9\\] is not a subset"):
            keeps_slices(inst, 1 << 9)

    @pytest.mark.parametrize("bad", [True, 6.0, "6"], ids=["bool", "float", "str"])
    def test_non_integer_systems_rejected(self, bad):
        inst = marriage_2x2()
        problem = reduce_to_two_agents(inst)
        for check in (lambda s: is_stable(problem, s),
                      lambda s: blocking_contracts(problem, s),
                      lambda s: is_stable_multi(inst, s),
                      lambda s: keeps_slices(inst, s),
                      lambda s: format_set(inst, s)):
            with pytest.raises(DomainError, match="contract sets are integer masks"):
                check(bad)
