import pytest

from conftest import m
from stablecontracts.ample import ENUMERATION_CAP, ag_solve, enumerate_stable_via_ample
from stablecontracts.choice import LinearOrder, Quota
from stablecontracts.contractsets import canonical_key
from stablecontracts.errors import CapExceededError, DomainError
from stablecontracts.instance import TwoAgentProblem, reduce_to_two_agents
from stablecontracts.modest import yang_solve
from stablecontracts.oracle import (
    BRUTE_FORCE_CAP,
    brute_force_stable,
    random_corpus,
    random_instance,
)


class TestBruteForce:
    def test_two_parallel_contracts(self, p1):
        assert brute_force_stable(p1) == [m(0), m(1)]

    def test_marriage_2x2(self, p3):
        assert brute_force_stable(p3) == [m(0, 3), m(1, 2)]

    def test_empty_ground(self):
        problem = TwoAgentProblem(LinearOrder(()), LinearOrder(()))
        assert brute_force_stable(problem) == [0]

    def test_output_canonically_ordered(self):
        for inst in random_corpus(30, master_seed=131, max_contracts=8):
            stable = brute_force_stable(reduce_to_two_agents(inst))
            keys = [canonical_key(s) for s in stable]
            assert keys == sorted(keys)

    def test_cap(self):
        order = tuple(range(21))
        with pytest.raises(CapExceededError):
            brute_force_stable(TwoAgentProblem(LinearOrder(order), LinearOrder(order)))


class TestEnumerationCap:
    """Both power-set scans at 20 contracts, the cap they share.  Seed 0
    gives each shape two stable systems, so the extremes differ."""

    @pytest.mark.parametrize("firms, workers, mix", [
        (5, 4, None),
        (4, 5, {"linear": 1.0, "quota": 1.0}),
    ])
    def test_scans_agree_and_hold_both_extremes(self, firms, workers, mix):
        problem = reduce_to_two_agents(random_instance(0, firms, workers, family_mix=mix))
        assert problem.size == ENUMERATION_CAP == BRUTE_FORCE_CAP == 20
        stable = enumerate_stable_via_ample(problem)
        assert stable == brute_force_stable(problem)
        worker_optimal = ag_solve(problem).system
        firm_optimal = ag_solve(TwoAgentProblem(problem.worker, problem.firm)).system
        assert worker_optimal != firm_optimal
        assert {worker_optimal, firm_optimal} <= set(stable)


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        a = random_instance(1, 2, 2, density=1.0)
        b = random_instance(1, 2, 2, density=1.0)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_instance(1, 3, 3) != random_instance(2, 3, 3)

    def test_full_density_has_all_pairs(self):
        inst = random_instance(1, 2, 2, density=1.0)
        assert inst.size == 4

    def test_no_firms_means_no_contracts(self):
        inst = random_instance(7, 0, 3)
        assert inst.size == 0
        assert len(inst.workers()) == 3

    def test_quota_mix_produces_valid_instances(self):
        inst = random_instance(2, 3, 3, density=1.0, family_mix={"quota": 1.0})
        assert any(isinstance(cf, Quota) for cf in inst.choices.values())
        assert brute_force_stable(reduce_to_two_agents(inst))

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            random_instance(0, -1, 2)
        with pytest.raises(DomainError):
            random_instance(0, 1, 1, density=1.5)
        with pytest.raises(DomainError):
            random_instance(0, 1, 1, family_mix={"table": 1.0})

    def test_mix_naming_no_family(self):
        with pytest.raises(DomainError, match="names no family"):
            random_instance(0, 1, 1, family_mix={})

    @pytest.mark.parametrize("mix", [
        {"linear": 0.0},
        {"linear": -1.0},
        {"linear": float("nan")},
        {"linear": float("inf")},
        {"linear": 1.0, "quota": -1.0},
        {"linear": 0.0, "quota": 0.0},
    ], ids=["zero", "negative", "nan", "inf", "one-negative", "all-zero"])
    @pytest.mark.parametrize("firms", [0, 2])
    def test_bad_weights_are_refused_before_drawing(self, mix, firms):
        # with no firms no agent draws a family, and the mix is still refused
        with pytest.raises(DomainError, match="family_mix"):
            random_instance(0, firms, 2, family_mix=mix)

    def test_a_zero_weight_beside_a_positive_one(self):
        inst = random_instance(0, 2, 2, family_mix={"linear": 0.0, "quota": 1.0})
        assert all(isinstance(cf, Quota) for cf in inst.choices.values())

    @pytest.mark.parametrize("count, max_contracts", [(1, 0), (1, -3), (-1, 8)])
    def test_corpus_bounds(self, count, max_contracts):
        with pytest.raises(DomainError):
            random_corpus(count, max_contracts=max_contracts)

    def test_corpus_edges(self):
        assert random_corpus(0, max_contracts=1) == []
        assert all(inst.size <= 1 for inst in random_corpus(5, max_contracts=1))


class TestExistence:
    def test_stable_systems_always_exist_smoke(self):
        for inst in random_corpus(100, master_seed=137, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            stable = brute_force_stable(problem)
            assert stable, f"no stable system for {inst}"
            assert ag_solve(problem).system in stable
            assert yang_solve(problem).system in stable

    def test_table_family_instance_agrees_with_routes(self, poset):
        problem = reduce_to_two_agents(poset)
        stable = brute_force_stable(problem)
        assert stable == enumerate_stable_via_ample(problem)
        assert m(0, 1) in stable  # the firm keeps both maximal contracts
        assert ag_solve(problem).system in stable
        assert yang_solve(problem).system in stable
