import random
import re

import pytest

from conftest import m, submasks, swapped, unsettled_descent
from stablecontracts.ample import (
    ag_solve,
    ag_step,
    ample_from_stable,
    enumerate_stable_via_ample,
    is_ample,
)
from stablecontracts import ample, choice
from stablecontracts.choice import LinearOrder, Quota
from stablecontracts.classical import gale_shapley
from stablecontracts.contractsets import ids_of
from stablecontracts.desirability import desirable_set
from stablecontracts.errors import (
    CapExceededError,
    InternalInconsistencyError,
    PreconditionError,
)
from stablecontracts.fixtures import marriage_2x2
from stablecontracts.instance import (
    Agent,
    Contract,
    Instance,
    Side,
    TwoAgentProblem,
    contracts_of,
    reduce_to_two_agents,
)
from stablecontracts.modest import yang_solve
from stablecontracts.oracle import brute_force_stable, random_corpus, random_instance
from stablecontracts.stability import is_stable, is_stable_multi


class TestIsAmple:
    def test_full_ground_always_ample(self, p1, p3):
        assert is_ample(p1, p1.ground)
        assert is_ample(p3, p3.ground)

    def test_worker_favourite_alone_not_ample(self, p1):
        # W({e2}) = {e2} but the firm also wants e1 on top of it
        assert not is_ample(p1, m(1))

    def test_firm_favourite_alone_ample(self, p1):
        assert is_ample(p1, m(0))


class TestAgStep:
    def test_marriage_2x2_fixpoint_at_once(self, p3):
        assert ag_step(p3, p3.ground) == p3.ground

    def test_two_contracts_fixpoint(self, p1):
        assert ag_step(p1, p1.ground) == p1.ground

    def test_empty_set_maps_to_itself(self, p1):
        assert ag_step(p1, 0) == 0

    def test_step_never_grows(self):
        for inst in random_corpus(20, master_seed=41, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for b in submasks(problem.ground):
                assert ag_step(problem, b) & ~b == 0

    def test_step_preserves_ampleness(self):
        for inst in random_corpus(30, master_seed=43, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for b in submasks(problem.ground):
                if is_ample(problem, b):
                    assert is_ample(problem, ag_step(problem, b))


class TestAgSolve:
    def test_marriage_2x2_from_full_ground(self, p3):
        result = ag_solve(p3)
        assert result.system == m(1, 2)
        assert result.trace == (p3.ground,)
        assert result.steps == 0

    def test_two_contracts_default(self, p1):
        assert ag_solve(p1).system == m(1)

    def test_smaller_ample_start_reaches_other_stable_system(self, p1):
        result = ag_solve(p1, m(0))
        assert result.system == m(0)

    def test_non_ample_start_rejected(self, p1):
        with pytest.raises(PreconditionError, match="not ample"):
            ag_solve(p1, m(1))

    def test_trace_descends_and_respects_bound(self):
        for inst in random_corpus(60, master_seed=47, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            result = ag_solve(problem)
            assert result.steps <= problem.size
            for earlier, later in zip(result.trace, result.trace[1:]):
                assert later & ~earlier == 0
                assert later != earlier
            assert is_stable(problem, result.system)

    def test_descent_can_strictly_shrink(self):
        # one contract the worker wants but the firm never accepts
        problem = TwoAgentProblem(
            LinearOrder((0, 1)), LinearOrder((1, 0))
        )
        result = ag_solve(problem)
        assert result.steps <= problem.size

    def test_descent_that_never_settles_is_internal(self):
        with pytest.raises(InternalInconsistencyError, match=(
            "^descending iteration did not reach a fixpoint within the "
            "ground-set bound$"
        )):
            ag_solve(unsettled_descent())

    def test_unstable_fixpoint_is_internal(self, p3, monkeypatch):
        system = ag_solve(p3).system
        assert system
        # the closing check reads D_W(S) through desirable_set: an empty
        # answer leaves S = D_F(S) ∩ D_W(S) false for a non-empty S
        real = ample.desirable_set
        monkeypatch.setattr(ample, "desirable_set",
                            lambda cf, s: 0 if cf is p3.worker else real(cf, s))
        with pytest.raises(InternalInconsistencyError, match=re.escape(
            f"descent fixpoint produced an unstable system {ids_of(system)}"
        )):
            ag_solve(p3)


class TestEnumerate:
    def test_two_parallel_contracts(self, p1):
        assert enumerate_stable_via_ample(p1) == [m(0), m(1)]

    def test_marriage_2x2(self, p3):
        assert enumerate_stable_via_ample(p3) == [m(0, 3), m(1, 2)]

    def test_empty_problem(self):
        problem = TwoAgentProblem(LinearOrder(()), LinearOrder(()))
        assert enumerate_stable_via_ample(problem) == [0]

    def test_matches_brute_force_on_corpus(self):
        for inst in random_corpus(60, master_seed=53, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            assert enumerate_stable_via_ample(problem) == brute_force_stable(problem)

    def test_cap(self):
        problem = TwoAgentProblem(
            LinearOrder(tuple(range(21))), LinearOrder(tuple(range(21)))
        )
        with pytest.raises(CapExceededError):
            enumerate_stable_via_ample(problem)


class TestAmpleFromStable:
    def test_examples(self, p1):
        assert ample_from_stable(p1, m(1)) == m(0, 1)
        assert ample_from_stable(p1, m(0)) == m(0)

    def test_round_trip_through_worker_choice(self, p3):
        b = ample_from_stable(p3, m(0, 3))
        assert is_ample(p3, b)
        assert p3.worker.evaluate(b) == m(0, 3)

    def test_unstable_input_rejected(self, p1):
        with pytest.raises(PreconditionError):
            ample_from_stable(p1, m(0, 1))

    def test_round_trip_solves_back_to_same_system(self):
        for inst in random_corpus(30, master_seed=59, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            for s in brute_force_stable(problem):
                b = ample_from_stable(problem, s)
                assert is_ample(problem, b)
                assert ag_solve(problem, b).system == s


def _multi_stable_markets():
    """Markets with two or more stable systems, with their oracle lists:
    the 2x2 marriage market plus every such market in two corpora."""
    corpus = random_corpus(1000, master_seed=0, max_contracts=8) + random_corpus(
        300, master_seed=0, max_contracts=10, families=("linear",)
    )
    out = []
    for inst in [marriage_2x2(), *corpus]:
        problem = reduce_to_two_agents(inst)
        stable = brute_force_stable(problem)
        if len(stable) >= 2:
            out.append((problem, stable))
    return out


class TestLatticeExtremes:
    """ag_solve from the ground reaches the worker-optimal stable system;
    run on the problem with the sides swapped it reaches the firm-optimal
    one.  Optimality is in Blair's order: S_F is firm-optimal when
    F(S_F ∪ S) = S_F for every stable S, and likewise for workers."""

    @pytest.fixture(scope="class")
    def markets(self):
        markets = _multi_stable_markets()
        assert len(markets) >= 10
        return markets

    def test_swapped_sides_reach_the_firm_optimal_system(self, markets):
        for problem, stable in markets:
            firm_optimal = ag_solve(swapped(problem)).system
            assert is_stable(problem, firm_optimal)
            for s in stable:
                assert problem.firm.evaluate(firm_optimal | s) == firm_optimal

    def test_default_start_reaches_the_worker_optimal_system(self, markets):
        for problem, stable in markets:
            worker_optimal = ag_solve(problem).system
            for s in stable:
                assert problem.worker.evaluate(worker_optimal | s) == worker_optimal
            assert ag_solve(swapped(problem)).system != worker_optimal

    def test_marriage_2x2_extremes(self, p3):
        assert ag_solve(swapped(p3)).system == m(0, 3)
        assert ag_solve(p3).system == m(1, 2)


def _circulant_market(seed: int, families: tuple[str, ...], size: int = 100,
                      degree: int = 6) -> Instance:
    """size firms and size workers, every agent of degree ``degree``: firm i
    contracts with worker (i + d) mod size for ``degree`` distinct offsets
    d.  Each agent draws a shuffled order and a family from ``families``,
    and a quota between 1 and its degree."""
    rng = random.Random(seed)
    agents = tuple(
        [Agent(f"f{i}", Side.FIRM) for i in range(size)]
        + [Agent(f"w{j}", Side.WORKER) for j in range(size)]
    )
    contracts = []
    for d in rng.sample(range(size), degree):
        for i in range(size):
            j = (i + d) % size
            contracts.append(Contract(f"f{i}-w{j}", f"f{i}", f"w{j}"))
    held = {a.id: [] for a in agents}
    for i, c in enumerate(contracts):
        held[c.firm].append(i)
        held[c.worker].append(i)
    choices = {}
    for agent in agents:
        order = held[agent.id]
        rng.shuffle(order)
        if rng.choice(families) == "linear":
            choices[agent.id] = LinearOrder(tuple(order))
        else:
            choices[agent.id] = Quota(rng.randint(1, degree), tuple(order))
    return Instance(agents, tuple(contracts), choices)


class TestLargeMarket:
    """600 to about 4000 contracts, far past the brute-force oracle's cap:
    the two fixed-point routes must agree, and the multi-agent definition,
    which never uses desirability, must confirm the result."""

    def test_routes_agree_and_result_is_stable(self):
        inst = _circulant_market(7, ("linear", "quota"))
        assert inst.size == 600
        assert any(isinstance(cf, Quota) for cf in inst.choices.values())
        problem = reduce_to_two_agents(inst)
        system = ag_solve(problem).system
        assert yang_solve(problem).system == system
        assert is_stable_multi(inst, system)

    def test_linear_variant_matches_gale_shapley(self):
        inst = _circulant_market(7, ("linear",))
        problem = reduce_to_two_agents(inst)
        system = ag_solve(problem).system
        assert yang_solve(problem).system == system
        assert is_stable_multi(inst, system)
        assert gale_shapley(inst) == system

    @pytest.mark.parametrize("mix", [("linear", "quota"), ("linear",)])
    def test_random_200x200_past_the_table_cap(self, mix):
        # agents of degree well above 12 build because linear and quota
        # agents are path independent by theorem, not scanned
        inst = random_instance(11, 200, 200, density=0.1, families=mix)
        assert inst.size > 3500
        assert max(contracts_of(inst, a.id).bit_count() for a in inst.agents) > 12
        problem = reduce_to_two_agents(inst)
        system = ag_solve(problem).system
        assert yang_solve(problem).system == system
        assert is_stable_multi(inst, system)
        if "quota" not in mix:
            assert gale_shapley(inst) == system


def _descent_by_steps(problem):
    """The descent as the public steps take it: the ample check, then
    ``ag_step`` until it stops, W of the fixpoint and the stability check."""
    b = problem.ground
    assert is_ample(problem, b)
    trace = [b]
    while (nxt := ag_step(problem, b)) != b:
        b = nxt
        trace.append(b)
    system = problem.worker.evaluate(b)
    assert is_stable(problem, system)
    return system, tuple(trace)


def _ascent_with_its_own_check(problem):
    """The one-pass ascent from the empty set with a modesty check that
    computes W(D_F(Q)) apart from the first step."""
    q = 0
    d = desirable_set(problem.firm, q)
    assert q & ~problem.worker.evaluate(d) == 0
    trace = [q]
    while True:
        w = problem.worker.evaluate(d)
        nxt_d = desirable_set(problem.firm, w)
        nxt = w & nxt_d
        if nxt_d == d:
            if nxt != q:
                trace.append(nxt)
            break
        trace.append(nxt)
        q, d = nxt, nxt_d
    assert is_stable(problem, nxt)
    return nxt, tuple(trace)


class TestSideEvaluations:
    """The solvers compute no side evaluation twice.  ``ag_solve`` makes
    one W pass and one D_F pass per step: it reads F(W(B)) as
    W(B) ∩ D_F(W(B)), takes its first step on the ample check's passes,
    and closes on its last step's W(B) and D_F(W(B)); ``yang_solve`` takes
    its first step on the modesty check's W(D_F(Q)).  On sides of 32 or
    more ranked agents every evaluation is one call of the one-pass
    kernel, so the two make five fewer calls than the public steps."""

    @pytest.mark.parametrize("seed", range(3))
    def test_five_fewer_than_the_public_steps(self, seed, monkeypatch):
        inst = random_instance(seed, 40, 40, density=0.25, families=("linear", "quota"))
        problem = reduce_to_two_agents(inst)
        assert problem.firm._passes[0] is not None
        assert problem.worker._passes[0] is not None
        calls = []
        kernel = choice._RankedParts.desirable
        monkeypatch.setattr(choice._RankedParts, "desirable",
                            lambda self, state: calls.append(state) or kernel(self, state))

        def counted(solve):
            calls.clear()
            out = solve(problem)
            return out, len(calls)

        (ag, ag_calls), (ag_ref, ag_ref_calls) = counted(ag_solve), counted(_descent_by_steps)
        (yang, yang_calls), (yang_ref, yang_ref_calls) = (
            counted(yang_solve), counted(_ascent_with_its_own_check))
        assert (ag.system, ag.trace) == ag_ref
        assert (yang.system, yang.trace) == yang_ref
        assert ag.steps > 0
        assert (ag_ref_calls - ag_calls, yang_ref_calls - yang_calls) == (4, 1)

    def test_per_part_sides_take_the_public_steps(self, poset):
        # below _VECTOR_PARTS every part answers with one call of its own
        # family's form: a table part here, and ranked parts in the corpus
        problem = reduce_to_two_agents(poset)
        corpus = random_corpus(60, master_seed=61, max_contracts=10)
        problems = [problem, swapped(problem), *map(reduce_to_two_agents, corpus)]
        assert any(isinstance(part, choice.Table) for part in problem.firm.parts)
        moved = 0
        for problem in problems:
            assert problem.firm._passes[0] is None
            assert problem.worker._passes[0] is None
            result = ag_solve(problem)
            assert (result.system, result.trace) == _descent_by_steps(problem)
            moved += result.steps > 0
        # a quarter of the descents take at least one step
        assert moved >= len(problems) // 4
