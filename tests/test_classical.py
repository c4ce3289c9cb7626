import itertools
import random

import pytest

from conftest import classical_corpus, m, redeclared, submasks
from stablecontracts.ample import ag_solve
from stablecontracts.classical import (
    gale_shapley,
    is_matching,
    is_quasi_stable,
    sotomayor_insert_solve,
)
from stablecontracts.choice import LinearOrder
from stablecontracts.errors import (
    DomainError,
    InternalInconsistencyError,
    PreconditionError,
)
from stablecontracts.instance import (
    Agent,
    Contract,
    Instance,
    Side,
    reduce_to_two_agents,
)
from stablecontracts.oracle import random_corpus, random_instance
from stablecontracts.stability import is_stable_multi


def _multigraph_market(seed):
    """Linear orders throughout, 0-3 parallel contracts per (firm, worker)
    pair, and at most 12 contracts."""
    rng = random.Random(seed)
    firms = [f"f{i + 1}" for i in range(rng.randint(1, 3))]
    workers = [f"w{j + 1}" for j in range(rng.randint(1, 3))]
    contracts = []
    for f, w in itertools.product(firms, workers):
        for _ in range(min(rng.randint(0, 3), 12 - len(contracts))):
            contracts.append(Contract(f"{f}-{w}-{len(contracts)}", f, w))
    agents = [Agent(f, Side.FIRM) for f in firms] + [Agent(w, Side.WORKER) for w in workers]
    choices = {}
    for agent in agents:
        order = [i for i, c in enumerate(contracts) if agent.id in (c.firm, c.worker)]
        rng.shuffle(order)
        choices[agent.id] = LinearOrder(tuple(order))
    return Instance(tuple(agents), tuple(contracts), choices)


def _empty_instance():
    agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
    return Instance(agents, (), {"f1": LinearOrder(()), "w1": LinearOrder(())})


def _one_firm_two_workers() -> Instance:
    """Firm f, contracts 0 with w1 and 1 with w2, f ranking 0 first."""
    agents = (Agent("f", Side.FIRM), Agent("w1", Side.WORKER), Agent("w2", Side.WORKER))
    contracts = (Contract("a", "f", "w1"), Contract("b", "f", "w2"))
    return Instance(agents, contracts, {"f": LinearOrder((0, 1)), "w1": LinearOrder((0,)),
                                        "w2": LinearOrder((1,))})


def _inject(inst: Instance, agent_id: str, name: str, method) -> Instance:
    """Replace one method of an agent's loaded choice function: a fault no
    agent that loads can have, which only a solver's own bound can stop."""
    cf = inst.choices[agent_id]
    object.__setattr__(cf, name, method.__get__(cf))
    return inst


class TestGaleShapley:
    def test_marriage_2x2_worker_optimal(self, i3):
        assert gale_shapley(i3) == m(1, 2)

    def test_parallel_contracts_single_proposal(self, i1):
        assert gale_shapley(i1) == m(1)

    def test_empty_market(self):
        assert gale_shapley(_empty_instance()) == 0

    def test_non_classical_family_rejected(self):
        inst = random_instance(3, 2, 2, families=("quota",))
        with pytest.raises(PreconditionError, match="linear orders"):
            gale_shapley(inst)

    def test_outputs_stable_on_corpus(self):
        for inst in classical_corpus(100, 101):
            matching = gale_shapley(inst)
            assert is_matching(inst, matching)
            assert is_stable_multi(inst, matching)

    def test_offers_that_never_settle_are_internal(self):
        # w2 offers contract 1 again after every rejection, outside its menu
        inst = _inject(_one_firm_two_workers(), "w2", "_choose", lambda self, menu: m(1))
        with pytest.raises(InternalInconsistencyError, match=(
            "^deferred acceptance did not terminate within the proposal bound$"
        )):
            gale_shapley(inst)

    def test_agrees_with_descending_route(self):
        for inst in classical_corpus(60, 107):
            problem = reduce_to_two_agents(inst)
            assert gale_shapley(inst) == ag_solve(problem).system


class TestSotomayorInsertion:
    def test_marriage_2x2_declared_order(self, i3):
        assert sotomayor_insert_solve(redeclared(i3, ("w1", "w2"))) == m(1, 2)

    def test_marriage_2x2_reversed_order(self, i3):
        matching = sotomayor_insert_solve(redeclared(i3, ("w2", "w1")))
        assert is_stable_multi(i3, matching)

    def test_single_insertion(self, i1):
        assert sotomayor_insert_solve(redeclared(i1, ("w1",))) == m(1)

    def test_empty_market(self):
        assert sotomayor_insert_solve(_empty_instance()) == 0

    def test_repair_chain_that_never_stops_is_internal(self):
        # the firm desires every contract whatever it holds, so it takes
        # each entering worker, and w1 and w2 displace each other for ever
        inst = _inject(_one_firm_two_workers(), "f", "desirable", lambda self, state: self.ground)
        with pytest.raises(InternalInconsistencyError, match=(
            "^repair chain exceeded the ground-set bound$"
        )):
            sotomayor_insert_solve(inst)

    def test_stable_for_every_order_small_markets(self):
        checked = 0
        for inst in classical_corpus(40, 109):
            workers = inst.workers()
            if len(workers) > 4:
                continue
            optimal = gale_shapley(inst)
            for order in itertools.permutations(workers):
                matching = sotomayor_insert_solve(redeclared(inst, order))
                assert is_stable_multi(inst, matching)
                assert matching == optimal
                checked += 1
        assert checked > 0

    def test_stable_for_sampled_orders_larger_markets(self):
        rng = random.Random(7)
        for inst in classical_corpus(20, 113):
            workers = list(inst.workers())
            if len(workers) <= 4:
                continue
            optimal = gale_shapley(inst)
            for _ in range(10):
                rng.shuffle(workers)
                matching = sotomayor_insert_solve(redeclared(inst, workers))
                assert is_stable_multi(inst, matching)
                assert matching == optimal

    def test_worker_optimal_for_every_order_on_multigraphs(self):
        # parallel contracts between one pair: deferred acceptance, and the
        # insertion solver in every worker order, land on the descending
        # route's worker-optimal system
        for seed in range(150):
            inst = _multigraph_market(seed)
            optimal = ag_solve(reduce_to_two_agents(inst)).system
            matchings = [gale_shapley(inst)] + [
                sotomayor_insert_solve(redeclared(inst, order))
                for order in itertools.permutations(inst.workers())
            ]
            for matching in matchings:
                assert matching == optimal
                assert is_stable_multi(inst, matching)


class TestQuasiStable:
    def test_empty_matching_quasi_stable(self, i3):
        assert is_quasi_stable(i3, 0)

    def test_stable_implies_quasi_stable(self, i3):
        assert is_quasi_stable(i3, m(1, 2))
        assert is_quasi_stable(i3, m(0, 3))

    def test_employed_blocking_worker_breaks_it(self, i3):
        # at {e11}, contract e21 blocks and its worker w1 is employed
        assert not is_quasi_stable(i3, m(0))

    def test_non_matching_rejected(self, i3):
        with pytest.raises(DomainError, match="not a matching"):
            is_quasi_stable(i3, m(0, 2))

    def test_converse_fails_witness(self, i3):
        # quasi-stability does not imply stability: the empty matching
        assert is_quasi_stable(i3, 0)
        assert not is_stable_multi(i3, 0)

    def test_quasi_stable_supersets_of_stable_on_corpus(self):
        for inst in random_corpus(20, master_seed=127, max_contracts=8, families=("linear",)):
            for s in submasks(inst.ground):
                if is_matching(inst, s) and is_stable_multi(inst, s):
                    assert is_quasi_stable(inst, s)
