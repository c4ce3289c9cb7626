import random

import numpy as np
import pytest

from conftest import as_table, m, naive_dense_table, swapped
from without_axioms import sweep
from stablecontracts.ample import ag_solve, enumerate_stable_via_ample
from stablecontracts.choice import Aggregate, LinearOrder, Quota
from stablecontracts.contractsets import POWER_SET_CAP, canonical_key, canonical_sorted
from stablecontracts.errors import CapExceededError, DomainError
from stablecontracts.fixtures import marriage_2x2
from stablecontracts.instance import (
    Agent,
    Contract,
    Instance,
    Side,
    TwoAgentProblem,
    reduce_to_two_agents,
)
from stablecontracts.modest import yang_solve
from stablecontracts.oracle import (
    brute_force_stable,
    random_corpus,
    random_instance,
)
from stablecontracts.stability import is_stable_multi


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


def stable_by_definition(inst: Instance) -> list[int]:
    """Every stable system by the multi-agent definition, one mask at a
    time; it reads the agents' own choices, never ``problem.tables``."""
    return canonical_sorted(
        s for s in range(1 << inst.size) if is_stable_multi(inst, s)
    )


def latin_square_market(k: int, variant: str) -> Instance:
    """Cyclic Latin-square marriage market on k firms and k workers.

    Firm i ranks worker i + r r-th and worker j ranks firm j + r + 1 r-th
    (mod k), so each diagonal matching {(i, i + r)} is stable.  ``variant``
    "quota" gives every firm a quota of 2, and "table" turns firm 0 and
    worker 0 into tables of their linear orders.
    """
    firms = [Agent(f"f{i}", Side.FIRM) for i in range(k)]
    workers = [Agent(f"w{j}", Side.WORKER) for j in range(k)]
    contracts = [Contract(f"f{i}-w{j}", f"f{i}", f"w{j}")
                 for i in range(k) for j in range(k)]
    choices = {}
    for i in range(k):
        order = tuple(i * k + (i + r) % k for r in range(k))
        choices[f"f{i}"] = Quota(2, order) if variant == "quota" else LinearOrder(order)
    for j in range(k):
        choices[f"w{j}"] = LinearOrder(tuple((j + r + 1) % k * k + j for r in range(k)))
    if variant == "table":
        for agent in ("f0", "w0"):
            choices[agent] = as_table(choices[agent])
    return Instance(tuple(firms + workers), tuple(contracts), choices)


def disjoint_marriages(b: int) -> Instance:
    """b disjoint copies of the 2x2 marriage market, which has two stable
    systems, so the union has 2^b."""
    one = marriage_2x2()
    agents, contracts, choices = [], [], {}
    for c in range(b):
        agents += [Agent(f"{a.id}.{c}", a.side) for a in one.agents]
        contracts += [Contract(f"{x.label}.{c}", f"{x.firm}.{c}", f"{x.worker}.{c}")
                      for x in one.contracts]
        for agent_id, cf in one.choices.items():
            choices[f"{agent_id}.{c}"] = LinearOrder(tuple(4 * c + e for e in cf.order))
    return Instance(tuple(agents), tuple(contracts), choices)


def _one_contract() -> Instance:
    agents = (Agent("f", Side.FIRM), Agent("w", Side.WORKER))
    return Instance(agents, (Contract("e", "f", "w"),),
                    {"f": LinearOrder((0,)), "w": LinearOrder((0,))})


class TestAgainstTheDefinition:
    """Both power-set scans list exactly the systems that the multi-agent
    definition calls stable, checked mask by mask, and both sides' tables
    are their choices menu by menu."""

    def _agree(self, inst):
        problem = reduce_to_two_agents(inst)
        assert [t.tolist() for t in problem.tables] == [
            naive_dense_table(problem.firm), naive_dense_table(problem.worker)]
        stable = stable_by_definition(inst)
        assert brute_force_stable(problem) == stable
        assert enumerate_stable_via_ample(problem) == stable
        return stable

    def test_random_markets(self):
        # full 3x3 linear markets often have several stable systems
        corpus = random_corpus(60, master_seed=17, max_contracts=10) + [
            random_instance(seed, 3, 3, families=families)
            for seed in range(30)
            for families in (("linear",), ("linear", "quota"), ("quota",))
        ]
        several = sum(len(self._agree(inst)) > 1 for inst in corpus)
        assert several >= 5

    @pytest.mark.parametrize("variant", ["linear", "quota", "table"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_latin_squares(self, k, variant):
        stable = self._agree(latin_square_market(k, variant))
        assert len(stable) >= (1 if variant == "quota" else k)

    @pytest.mark.parametrize("b", [3, 4])
    def test_disjoint_marriages_have_two_to_the_b(self, b):
        assert len(self._agree(disjoint_marriages(b))) == 1 << b

    def test_zero_and_one_contract(self):
        assert self._agree(Instance((), (), {})) == [0]
        assert self._agree(_one_contract()) == [m(0)]


def _linear_and_quota_side(monkeypatch) -> Aggregate:
    """A 21-contract side of a linear and a quota part, whose quota part
    fails if it is ever tabulated."""
    monkeypatch.setattr(Quota, "tabulate", lambda self: 1 / 0)
    return Aggregate((LinearOrder(tuple(range(10))), Quota(2, tuple(range(10, 21)))))


def _bare_linear_pair(monkeypatch) -> LinearOrder:
    return LinearOrder(tuple(range(21)))


class TestEnumerationCap:
    """Both power-set scans at 20 contracts, the cap of the one guard they
    share: ``problem.tables`` refuses a larger ground through
    ``contractsets.check_power_set``.  Seed 0 gives each shape two stable
    systems, so the extremes differ."""

    @pytest.mark.parametrize("firms, workers, mix", [
        (5, 4, None),  # the default family list
        (4, 5, ("linear", "quota")),
    ])
    def test_scans_agree_and_hold_both_extremes(self, firms, workers, mix):
        families = {} if mix is None else {"families": mix}
        problem = reduce_to_two_agents(random_instance(0, firms, workers, **families))
        assert problem.size == POWER_SET_CAP == 20
        stable = enumerate_stable_via_ample(problem)
        assert stable == brute_force_stable(problem)
        worker_optimal = ag_solve(problem).system
        firm_optimal = ag_solve(swapped(problem)).system
        assert worker_optimal != firm_optimal
        assert {worker_optimal, firm_optimal} <= set(stable)

    @pytest.mark.parametrize("side", [_linear_and_quota_side, _bare_linear_pair],
                             ids=["aggregate", "linear-pair"])
    @pytest.mark.parametrize("scan", [enumerate_stable_via_ample, brute_force_stable])
    def test_21_contracts_refused_by_the_one_guard(self, scan, side, monkeypatch):
        cf = side(monkeypatch)
        problem = TwoAgentProblem(cf, cf)
        with pytest.raises(CapExceededError,
                           match="21 contracts.*power-set tables are capped at 20"):
            scan(problem)


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
        inst = random_instance(2, 3, 3, density=1.0, families=("quota",))
        assert any(isinstance(cf, Quota) for cf in inst.choices.values())
        assert brute_force_stable(reduce_to_two_agents(inst))

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            random_instance(0, -1, 2)
        with pytest.raises(DomainError):
            random_instance(0, 1, 1, density=1.5)
        with pytest.raises(DomainError):
            random_instance(0, 1, 1, families=("table",))

    @pytest.mark.parametrize("args, kwargs, message", [
        ((0, 2.5, 2), {}, "agent counts must be integers, got 2.5"),
        ((0, 2, "2"), {}, "agent counts must be integers, got '2'"),
        ((0, True, 2), {}, "agent counts must be integers, got True"),
        ((None, 2, 2), {}, "seed must be an integer, got None"),
        ((1.0, 2, 2), {}, "seed must be an integer, got 1.0"),
        ((0, 2, 2), {"density": True}, "density must be a real number, got True"),
        ((0, 2, 2), {"density": "1"}, "density must be a real number, got '1'"),
        ((0, 2, 2), {"density": None}, "density must be a real number, got None"),
    ])
    def test_non_integer_arguments_are_refused(self, args, kwargs, message):
        with pytest.raises(DomainError) as err:
            random_instance(*args, **kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("args, message", [
        ((2.5,), "corpus size must be an integer, got 2.5"),
        ((False,), "corpus size must be an integer, got False"),
        ((2, None), "seed must be an integer, got None"),
        ((2, 0, 8.0), "max_contracts must be an integer, got 8.0"),
        ((2, 0, True), "max_contracts must be an integer, got True"),
    ])
    def test_non_integer_corpus_arguments_are_refused(self, args, message):
        with pytest.raises(DomainError) as err:
            random_corpus(*args)
        assert str(err.value) == message

    def test_numpy_integers_are_read_as_ints(self):
        assert random_instance(np.int64(3), np.int32(2), np.uint8(3), density=np.float64(0.5)) \
            == random_instance(3, 2, 3, density=0.5)
        assert random_corpus(np.int64(4), np.int64(1), np.int16(6)) == random_corpus(4, 1, 6)

    def test_family_order_and_repeats_change_nothing(self):
        for seed in range(20):
            inst = random_instance(seed, 3, 3, families=("linear", "quota"))
            assert random_instance(seed, 3, 3, families=("quota", "linear", "quota")) == inst

    def test_a_bare_string_is_no_family_list(self):
        with pytest.raises(DomainError, match="sequence of family names, got the string 'quota'"):
            random_instance(0, 1, 1, families="quota")

    @pytest.mark.parametrize("families, message", [
        ([1, "linear"], "families must name each family by a string, got [1, 'linear']"),
        ([["linear"]], "families must name each family by a string, got [['linear']]"),
        (None, "families must be a sequence of family names, got None"),
        (3, "families must be a sequence of family names, got 3"),
    ])
    def test_a_family_list_of_other_things_is_refused(self, families, message):
        with pytest.raises(DomainError) as err:
            random_instance(0, 1, 1, families=families)
        assert str(err.value) == message

    def test_mix_naming_no_family(self):
        with pytest.raises(DomainError, match=r"must name linear, quota or both, got \[\]"):
            random_instance(0, 1, 1, families=())

    @pytest.mark.parametrize("count, max_contracts", [(1, 0), (1, -3), (-1, 8)])
    def test_corpus_bounds(self, count, max_contracts):
        with pytest.raises(DomainError):
            random_corpus(count, max_contracts=max_contracts)

    def test_corpus_shapes_are_the_listing_of_every_pair(self):
        # the old filtered m×m listing of shapes, kept as the oracle: every
        # corpus draws the same shapes in the same order
        for max_contracts in range(1, 41):
            shapes = [(f, w) for f in range(1, max_contracts + 1)
                      for w in range(1, max_contracts + 1) if f * w <= max_contracts]
            master = random.Random(max_contracts)
            expected = []
            for _ in range(4):
                f, w = master.choice(shapes)
                density = master.choice((0.5, 0.75, 1.0))
                expected.append(random_instance(master.randrange(2**32), f, w,
                                                density=density, families=("linear", "quota")))
            assert random_corpus(4, max_contracts, max_contracts) == expected

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


class TestWithoutTheAxioms:
    """The 2×2 market with one contract per pair (e0 = f1w1, e1 = f1w2,
    e2 = f2w1, e3 = f2w2), with f1 given each of the 16 choice functions
    on its two contracts and the market completed every way: 256 markets,
    built as ``TwoAgentProblem``s, which trust their sides
    (``without_axioms.sweep``).  Without path independence a stable system
    may not exist, and a route may stop on its own check; it never returns
    an unstable system.  CI runs the three-contract sweep."""

    def test_each_route_returns_a_stable_system_or_raises(self):
        assert sweep(2) == {
            "path independent": (96, 0, 0, 0),
            "consistent only": (48, 2, 2, 2),
            "substitutable only": (48, 0, 12, 4),
            "neither": (64, 10, 10, 10),
        }
