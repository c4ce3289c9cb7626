import pytest

from conftest import m
from stablecontracts.choice import LinearOrder, Quota, Table, validate_plott
from stablecontracts.contractsets import submasks
from stablecontracts.errors import (
    ChoiceValidationError,
    DanglingReferenceError,
    DomainError,
    ParseError,
)
from stablecontracts.fileformat import document_from_instance, instance_from_document
from stablecontracts.instance import (
    Agent,
    Contract,
    Instance,
    Side,
    TwoAgentProblem,
    contracts_of,
    reduce_to_two_agents,
    restrict,
)
from stablecontracts.oracle import random_corpus


def _with_isolated_worker() -> Instance:
    agents = (
        Agent("f1", Side.FIRM),
        Agent("w1", Side.WORKER),
        Agent("w2", Side.WORKER),
    )
    contracts = (Contract(0, "e1", "f1", "w1"),)
    choices = {
        "f1": LinearOrder((0,)),
        "w1": LinearOrder((0,)),
        "w2": LinearOrder(()),
    }
    return Instance(agents, contracts, choices)


class TestAdjacency:
    def test_contracts_of_each_agent(self, i3):
        assert contracts_of(i3, "f1") == m(0, 1)
        assert contracts_of(i3, "w1") == m(0, 2)

    def test_same_side_adjacencies_partition_ground(self, i3):
        assert contracts_of(i3, "f1") & contracts_of(i3, "f2") == 0
        assert contracts_of(i3, "f1") | contracts_of(i3, "f2") == i3.ground

    def test_isolated_agent_has_no_contracts(self):
        inst = _with_isolated_worker()
        assert contracts_of(inst, "w2") == 0

    def test_unknown_agent(self, i3):
        with pytest.raises(DomainError, match="unknown agent"):
            contracts_of(i3, "nobody")


class TestRestrict:
    def test_examples(self, i3):
        assert restrict(m(0, 3), "f1", i3) == m(0)
        assert restrict(0, "f2", i3) == 0
        assert restrict(i3.ground, "w2", i3) == m(1, 3)

    def test_set_outside_ground(self, i3):
        with pytest.raises(DomainError):
            restrict(m(9), "f1", i3)


class TestReduce:
    def test_worked_menu(self, i3, p3):
        # firms evaluate their slices: f1 keeps e11 of {e11,e12}, f2 keeps e21
        assert p3.firm.evaluate(m(0, 1, 2)) == m(0, 2)

    def test_single_pair_reduction_matches_agents(self, i1, p1):
        for a in submasks(p1.ground):
            assert p1.firm.evaluate(a) == i1.choices["f1"].evaluate(a)
            assert p1.worker.evaluate(a) == i1.choices["w1"].evaluate(a)

    def test_empty_menu(self, p3):
        assert p3.firm.evaluate(0) == 0
        assert p3.worker.evaluate(0) == 0

    def test_reduction_is_union_of_slices(self):
        for inst in random_corpus(20, master_seed=11, max_contracts=10):
            problem = reduce_to_two_agents(inst)
            for a in submasks(inst.ground):
                expected = 0
                for f in inst.firms():
                    expected |= inst.choices[f].evaluate(a & contracts_of(inst, f))
                assert problem.firm.evaluate(a) == expected

    def test_aggregates_pass_axiom_validation(self):
        for inst in random_corpus(100, master_seed=5, max_contracts=8):
            problem = reduce_to_two_agents(inst)
            assert validate_plott(problem.firm).passed
            assert validate_plott(problem.worker).passed


class TestInstanceValidation:
    def test_choices_are_read_only(self):
        inst = _with_isolated_worker()
        with pytest.raises(TypeError):
            inst.choices["w2"] = Table(0, {0: 0})
        assert inst.choices["w2"] == LinearOrder(())
        assert inst == _with_isolated_worker()
        assert instance_from_document(document_from_instance(inst)) == inst
        assert Instance(inst.agents, inst.contracts, inst.choices) == inst

    def test_duplicate_agent(self):
        with pytest.raises(DomainError, match="duplicate agent"):
            Instance(
                (Agent("a", Side.FIRM), Agent("a", Side.WORKER)), (), {"a": LinearOrder(())}
            )

    def test_side_given_as_a_plain_string(self):
        with pytest.raises(DomainError, match="agent 'a' has no declared side"):
            Instance((Agent("a", "firm"),), (), {"a": LinearOrder(())})

    def test_contract_to_wrong_side(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        with pytest.raises(DomainError, match="not a declared worker"):
            Instance(
                agents,
                (Contract(0, "e1", "f1", "f1"),),
                {"f1": LinearOrder((0,)), "w1": LinearOrder(())},
            )

    def test_non_dense_contract_ids(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        with pytest.raises(DomainError, match="dense"):
            Instance(
                agents,
                (Contract(1, "e1", "f1", "w1"),),
                {"f1": LinearOrder((1,)), "w1": LinearOrder((1,))},
            )

    def test_choice_over_wrong_ground(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        contracts = (Contract(0, "e1", "f1", "w1"),)
        with pytest.raises(DomainError, match="declared over"):
            Instance(
                agents, contracts, {"f1": LinearOrder(()), "w1": LinearOrder((0,))}
            )

    def test_missing_choice(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        with pytest.raises(DomainError, match="no choice function"):
            Instance(agents, (), {"f1": LinearOrder(())})

    def test_non_plott_table_rejected_at_load(self):
        agents = (
            Agent("f1", Side.FIRM),
            Agent("w1", Side.WORKER),
            Agent("w2", Side.WORKER),
        )
        contracts = (
            Contract(0, "e1", "f1", "w1"),
            Contract(1, "e2", "f1", "w2"),
        )
        complements = Table(m(0, 1), {0: 0, m(0): 0, m(1): 0, m(0, 1): m(0, 1)})
        with pytest.raises(ChoiceValidationError) as err:
            Instance(
                agents,
                contracts,
                {
                    "f1": complements,
                    "w1": LinearOrder((0,)),
                    "w2": LinearOrder((1,)),
                },
            )
        assert err.value.agent_id == "f1"
        assert not err.value.report.check("substitutability").passed

    def test_uncertified_subclass_is_scanned_at_load(self):
        # a quota subclass choosing complements is no quota: it gets the
        # exhaustive scan, which rejects it
        class Complements(Quota):
            def _choose(self, menu):
                return menu if menu == self.ground else 0

        agents = (
            Agent("f1", Side.FIRM),
            Agent("w1", Side.WORKER),
            Agent("w2", Side.WORKER),
        )
        contracts = (
            Contract(0, "e1", "f1", "w1"),
            Contract(1, "e2", "f1", "w2"),
        )
        with pytest.raises(ChoiceValidationError) as err:
            Instance(
                agents,
                contracts,
                {
                    "f1": Complements(2, (0, 1)),
                    "w1": LinearOrder((0,)),
                    "w2": LinearOrder((1,)),
                },
            )
        assert err.value.agent_id == "f1"
        assert not err.value.report.check("substitutability").passed

    @pytest.mark.parametrize(
        "firm, worker, extra",
        [("ghost", "w1", None), ("f1", "f1", None), ("f1", "w1", "ghost")],
        ids=["undeclared-endpoint", "wrong-side-endpoint", "choice-for-unknown-agent"],
    )
    def test_dangling_references(self, firm, worker, extra):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        choices = {"f1": LinearOrder((0,)), "w1": LinearOrder((0,))}
        if extra is not None:
            choices[extra] = LinearOrder(())
        with pytest.raises(DanglingReferenceError) as err:
            Instance(agents, (Contract(0, "e1", firm, worker),), choices)
        assert err.value.code == "dangling-reference"

    def test_error_codes(self):
        assert DomainError("x").code == "malformed"
        assert ChoiceValidationError("x", None).code == "axiom-violation"
        assert ParseError("io", "x").code == "io"

    def test_duplicate_labels(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        contracts = (
            Contract(0, "e", "f1", "w1"),
            Contract(1, "e", "f1", "w1"),
        )
        with pytest.raises(DomainError, match="duplicate contract label"):
            Instance(
                agents,
                contracts,
                {"f1": LinearOrder((0, 1)), "w1": LinearOrder((0, 1))},
            )


class TestTwoAgentProblem:
    def test_mismatched_grounds_rejected(self):
        with pytest.raises(DomainError, match="share one ground"):
            TwoAgentProblem(LinearOrder((0,)), LinearOrder((0, 1)))

    def test_sparse_ground_rejected(self):
        with pytest.raises(DomainError, match="dense"):
            TwoAgentProblem(LinearOrder((1,)), LinearOrder((1,)))

    def test_direct_construction(self):
        problem = TwoAgentProblem(Quota(1, (0, 1)), Quota(1, (1, 0)))
        assert problem.size == 2
        assert problem.ground == m(0, 1)
