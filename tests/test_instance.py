import copy
import dataclasses
import gc
import json
import pickle
import tracemalloc

import pytest

from conftest import as_table, m, submasks
from stablecontracts import instance
from stablecontracts.choice import Aggregate, LinearOrder, Quota, Table, validate_plott
from stablecontracts.contractsets import mask_of
from stablecontracts.errors import (
    ChoiceValidationError,
    DanglingReferenceError,
    DomainError,
    ParseError,
)
from stablecontracts.fileformat import (
    document_from_instance,
    instance_from_document,
    parse_instance,
)
from stablecontracts.instance import (
    Agent,
    Contract,
    Instance,
    Side,
    TwoAgentProblem,
    contracts_of,
    reduce_to_two_agents,
)
from stablecontracts.oracle import random_corpus, random_instance


def _with_isolated_worker() -> Instance:
    agents = (
        Agent("f1", Side.FIRM),
        Agent("w1", Side.WORKER),
        Agent("w2", Side.WORKER),
    )
    contracts = (Contract("e1", "f1", "w1"),)
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

    def test_matches_the_definition(self, i1, i3, poset):
        # E(v) is the ids of the contracts that name v
        for inst in [i1, i3, poset] + random_corpus(30, master_seed=8):
            for a in inst.agents:
                named = [i for i, c in enumerate(inst.contracts) if a.id in (c.firm, c.worker)]
                assert contracts_of(inst, a.id) == m(*named)

    def test_stored_once_as_the_choice_ground(self):
        # one firm and one worker joined by 300 parallel contracts: masks
        # far past the small ints CPython shares
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        contracts = tuple(Contract(f"x{i}", "f1", "w1") for i in range(300))
        ids = tuple(range(300))
        inst = Instance(agents, contracts, {"f1": LinearOrder(ids), "w1": Quota(5, ids[::-1])})
        for a in inst.agents:
            assert contracts_of(inst, a.id) is inst.choices[a.id].ground


class TestRecords:
    """``Agent`` and ``Contract`` are slotted frozen records, and an
    instance stores each agent id once."""

    RECORDS = [
        (Agent("f1", Side.FIRM), "Agent(id='f1', side=<Side.FIRM: 'firm'>)", "id", "f2"),
        (Contract("e1", "f1", "w1"),
         "Contract(label='e1', firm='f1', worker='w1')", "label", "e2"),
    ]

    @pytest.mark.parametrize("record, text, field, other", RECORDS, ids=["agent", "contract"])
    def test_no_per_record_dict(self, record, text, field, other):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, other)

    @pytest.mark.parametrize("record, text, field, other", RECORDS, ids=["agent", "contract"])
    def test_value_semantics_are_kept(self, record, text, field, other):
        twin = type(record)(*dataclasses.astuple(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert repr(record) == text
        for back in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert back == record and type(back) is type(record)
        changed = dataclasses.replace(record, **{field: other})
        assert changed != record and getattr(changed, field) == other
        assert getattr(record, field) != other

    def test_field_names_and_order(self):
        assert [f.name for f in dataclasses.fields(Agent)] == ["id", "side"]
        assert [f.name for f in dataclasses.fields(Contract)] == ["label", "firm", "worker"]

    @staticmethod
    def _assert_ids_shared(inst):
        for c in inst.contracts:
            assert c.firm is inst.agent(c.firm).id
            assert c.worker is inst.agent(c.worker).id
        by_id = {a.id: a.id for a in inst.agents}
        assert all(key is by_id[key] for key in inst.choices)

    def test_a_decoded_document_shares_each_agent_id(self, tmp_path):
        # JSON decoding makes every string value its own object
        text = json.dumps(document_from_instance(random_instance(3, 6, 5, density=0.8)))
        self._assert_ids_shared(instance_from_document(json.loads(text)))
        path = tmp_path / "market.json"
        path.write_text(text)
        self._assert_ids_shared(parse_instance(str(path)))

    def test_a_decoded_payload_shares_each_contract_id(self):
        # ids past the small ints CPython shares: every payload holds the
        # decoder's one int object per contract id, not one more per entry
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        contracts = tuple(Contract(f"x{i}", "f1", "w1") for i in range(300))
        ids = tuple(range(300))
        doc = document_from_instance(Instance(
            agents, contracts, {"f1": LinearOrder(ids), "w1": Quota(5, ids[::-1])}))
        inst = instance_from_document(json.loads(json.dumps(doc)))
        own = {i: i for i in inst.choices["f1"].priority}
        assert all(i is own[i] for i in inst.choices["w1"].priority)

    def test_decoded_records_are_the_constructors_records(self):
        inst = instance_from_document(json.loads(json.dumps(
            document_from_instance(random_instance(4, 5, 5, density=0.8)))))
        for record in (*inst.agents, *inst.contracts):
            assert not hasattr(record, "__dict__")
            twin = type(record)(*dataclasses.astuple(record))
            assert type(record) in (Agent, Contract)
            assert twin == record and hash(twin) == hash(record)
            assert repr(twin) == repr(record)
            assert pickle.loads(pickle.dumps(record)) == record
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(record)[0].name, None)

    def test_the_build_peak_is_near_what_it_keeps(self):
        # a market of 4,973 contracts and 1,000 agents: building it keeps
        # its lookups, and E(v) is checked as lists of the contracts' own
        # ids, so the build's peak stays near what it keeps (about 2.1
        # times; 4.0 when every agent's mask was built at once)
        inst = random_instance(7, 500, 500, density=0.02)
        assert inst.size > 4000
        gc.collect()
        tracemalloc.start()
        try:
            again = Instance(inst.agents, inst.contracts, inst.choices)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == inst
        assert peak < 3 * kept


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
                (Contract("e1", "f1", "f1"),),
                {"f1": LinearOrder((0,)), "w1": LinearOrder(())},
            )

    def test_choice_over_wrong_ground(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        contracts = (Contract("e1", "f1", "w1"),)
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
            Contract("e1", "f1", "w1"),
            Contract("e2", "f1", "w2"),
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

    def test_subclass_agent_is_refused_at_load(self, monkeypatch):
        # a quota subclass choosing complements is no quota, and no
        # document can describe it: it is refused before any scan
        class Complements(Quota):
            def _choose(self, menu):
                return menu if menu == self.ground else 0

        monkeypatch.setattr(instance, "validate_plott", None)
        with pytest.raises(DomainError, match="'f1' has type Complements,") as err:
            _one_firm(Complements(2, (0, 1)))
        assert type(err.value) is DomainError
        assert err.value.agent_id == "f1"

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
            Instance(agents, (Contract("e1", firm, worker),), choices)
        assert err.value.code == "dangling-reference"

    @pytest.mark.parametrize("agents, contracts, message", [
        ((Agent(["f1"], Side.FIRM),), (), "agent id must be a non-empty string"),
        ((Agent(1, Side.FIRM),), (), "agent id must be a non-empty string, got 1"),
        ((Agent("", Side.FIRM),), (), "agent id must be a non-empty string"),
        (None, (Contract(["e1"], "f1", "w1"),), "contract label must be a non-empty"),
        (None, (Contract("", "f1", "w1"),), "contract label must be a non-empty"),
        (None, (Contract(1, "f1", "w1"),), "contract label must be a non-empty"),
        (None, (Contract("e1", ["f1"], "w1"),), "must name its firm by agent id"),
        (None, (Contract("e1", "f1", ("w1",)),), "must name its worker by agent id"),
    ], ids=["list id", "int id", "empty id", "list label", "empty label",
            "int label", "list firm", "tuple worker"])
    def test_malformed_record_fields(self, agents, contracts, message):
        agents = agents or (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        choices = {"f1": LinearOrder((0,)), "w1": LinearOrder((0,))}
        with pytest.raises(DomainError, match=message) as err:
            Instance(agents, contracts, choices)
        assert type(err.value) is DomainError

    def test_error_codes(self):
        assert DomainError("x").code == "malformed"
        assert ChoiceValidationError("x", None).code == "axiom-violation"
        assert ParseError("io", "x").code == "io"

    def test_duplicate_labels(self):
        agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
        contracts = (
            Contract("e", "f1", "w1"),
            Contract("e", "f1", "w1"),
        )
        with pytest.raises(DomainError, match="duplicate contract label"):
            Instance(
                agents,
                contracts,
                {"f1": LinearOrder((0, 1)), "w1": LinearOrder((0, 1))},
            )


class TestAdjacentIds:
    """E(v) is compared as id lists: a ranked agent's sorted priority, or a
    table's ``bits``, against its contract ids, here sparse and above 63
    and above 1000."""

    N = 1040
    RANKED_IDS = [64, 70, 1000, 1039]
    TABLE_IDS = [65, 999, 1001]

    def _market(self, ranked, table) -> Instance:
        """Firm ``r`` over RANKED_IDS, firm ``t`` over TABLE_IDS and firm
        ``a`` over every other contract; worker ``w0`` holds the even
        contracts and ``w1`` the odd ones."""
        owner = {i: "r" for i in self.RANKED_IDS} | {i: "t" for i in self.TABLE_IDS}
        contracts = tuple(
            Contract(f"e{i}", owner.get(i, "a"), f"w{i % 2}") for i in range(self.N)
        )
        rest = [i for i in range(self.N) if i not in owner]
        agents = tuple(Agent(a, Side.FIRM) for a in "art") + tuple(
            Agent(w, Side.WORKER) for w in ("w0", "w1"))
        return Instance(agents, contracts, {
            "a": Quota(3, rest[::-1]), "r": ranked, "t": table,
            "w0": LinearOrder(range(0, self.N, 2)), "w1": LinearOrder(range(1, self.N, 2)),
        })

    def _table(self, ids) -> Table:
        return as_table(Quota(2, ids))

    @pytest.mark.parametrize("ranked", [
        LinearOrder((1039, 64, 1000, 70)),
        Quota(2, (70, 1000, 64, 1039)),
    ], ids=["linear", "quota"])
    def test_a_permuted_priority_loads(self, ranked):
        table = self._table([1001, 65, 999])
        inst = self._market(ranked, table)
        assert contracts_of(inst, "r") == mask_of(self.RANKED_IDS)
        assert contracts_of(inst, "t") == mask_of(self.TABLE_IDS)
        assert instance_from_document(document_from_instance(inst)) == inst

    @staticmethod
    def _message(agent_id, declared, adjacent) -> str:
        return (f"choice function of agent {agent_id!r} is declared over "
                f"{declared} but its adjacent contracts are {adjacent}")

    FAULTS = {
        "missing": ([64, 70, 1000], [65, 1001]),
        "extra": ([64, 70, 1000, 1039, 1002], [65, 999, 1001, 1002]),
        "foreign": ([64, 70, 998, 1039], [65, 998, 1001]),
        "outside-the-market": ([64, 70, 1000, 1039, 1040], [65, 999, 1001, 1040]),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("family", ["linear", "quota", "table"])
    def test_a_wrong_ground_names_both_id_lists(self, fault, family):
        ranked_ids, table_ids = self.FAULTS[fault]
        ranked, table = LinearOrder(self.RANKED_IDS), self._table(self.TABLE_IDS)
        if family == "table":
            table, agent_id, ids, adjacent = (
                self._table(table_ids), "t", table_ids, self.TABLE_IDS)
        else:
            ranked = (LinearOrder(ranked_ids[::-1]) if family == "linear"
                      else Quota(2, ranked_ids))
            agent_id, ids, adjacent = "r", ranked_ids, self.RANKED_IDS
        with pytest.raises(DomainError) as err:
            self._market(ranked, table)
        assert type(err.value) is DomainError
        assert str(err.value) == self._message(agent_id, sorted(ids), adjacent)
        assert err.value.agent_id == agent_id

    @pytest.mark.parametrize("make, message", [
        (lambda: LinearOrder((64, 1000, 64)), "linear order repeats a contract id"),
        (lambda: Quota(2, (1039, 70, 1039)), "quota priority repeats a contract id"),
    ], ids=["linear", "quota"])
    def test_a_repeated_id_fails_first_in_the_constructor(self, make, message):
        with pytest.raises(DomainError, match=message):
            make()
        # in a document the repeat is named before any E(v) check
        doc = document_from_instance(
            self._market(LinearOrder(self.RANKED_IDS), self._table(self.TABLE_IDS)))
        payload = [f"e{i}" for i in (64, 1000, 64)]
        doc["choices"]["r"] = (
            {"family": "linear", "payload": payload} if "linear" in message
            else {"family": "quota", "payload": {"q": 2, "priority": payload}})
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert str(err.value) == f"agent 'r': {message}"

    def test_a_decoded_wrong_ground_keeps_the_message(self):
        doc = document_from_instance(
            self._market(LinearOrder(self.RANKED_IDS), self._table(self.TABLE_IDS)))
        doc["choices"]["r"]["payload"] = ["e1039", "e64", "e70", "e998"]
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "malformed"
        assert str(err.value) == self._message("r", [64, 70, 998, 1039], self.RANKED_IDS)
        assert err.value.__cause__.agent_id == "r"


def _one_firm(firm, w1=LinearOrder((0,))) -> Instance:
    """Firm f1 choosing by ``firm`` over e1 (with w1) and e2 (with w2)."""
    agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER), Agent("w2", Side.WORKER))
    contracts = (Contract("e1", "f1", "w1"), Contract("e2", "f1", "w2"))
    return Instance(agents, contracts, {"f1": firm, "w1": w1, "w2": LinearOrder((1,))})


# the first of e1, e2 in each menu, as a table
_FIRST = {0: 0, m(0): m(0), m(1): m(1), m(0, 1): m(0)}


class _LastOfItsOrder(LinearOrder):
    """The last contract of its order in the menu: path independent, since
    it is the reversed order, but its inherited ``desirable`` is the
    order's own."""

    def _choose(self, menu):
        return next((1 << e for e in reversed(self.order) if menu >> e & 1), 0)


class TestAgentFamilies:
    """An agent is exactly a linear order, a quota or a table: the ranked
    two load without a scan, a table is scanned, any other type is
    refused."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        calls = []
        original = instance.validate_plott

        def counting(cf):
            calls.append(cf)
            return original(cf)

        monkeypatch.setattr(instance, "validate_plott", counting)
        return calls

    def test_ranked_agents_load_without_a_scan(self, scanned):
        _one_firm(LinearOrder((1, 0)))
        _one_firm(Quota(1, (0, 1)), w1=Quota(2, (0,)))
        random_corpus(20, master_seed=3, max_contracts=8, families=("linear", "quota"))
        assert scanned == []

    def test_each_table_agent_is_scanned_once(self, scanned):
        firm, worker = Table(m(0, 1), _FIRST), Table(m(0), {0: 0, m(0): m(0)})
        _one_firm(firm, w1=worker)
        assert [id(cf) for cf in scanned] == [id(firm), id(worker)]

    @pytest.mark.parametrize("cf", [
        type("MyLinearOrder", (LinearOrder,), {})((0, 1)),
        type("MyQuota", (Quota,), {})(1, (0, 1)),
        type("MyTable", (Table,), {})(m(0, 1), _FIRST),
        Aggregate((LinearOrder((0,)), LinearOrder((1,)))),
        # refused for its type before its ground, here {e1}, is read
        type("MyLinearOrder", (LinearOrder,), {})((0,)),
        # not choice functions at all: they have no ground to read
        None,
        object(),
        "x",
        3,
    ], ids=["linear", "quota", "table", "aggregate", "wrong-ground", "none", "object",
            "str", "int"])
    def test_any_other_type_is_refused(self, scanned, cf):
        # the first five choose as a linear order does, and are still refused
        with pytest.raises(DomainError) as err:
            _one_firm(cf)
        assert type(err.value) is DomainError
        assert err.value.agent_id == "f1"
        assert str(err.value) == (
            f"choice function of agent 'f1' has type {type(cf).__name__}, "
            f"not LinearOrder, Quota or Table"
        )
        assert scanned == []

    def test_path_independent_subclass_is_refused(self):
        # it passes the scan, but D({e1}) = {e1} by its inherited form
        # while the definition gives {e1, e2}, as C({e1, e2}) = {e2}: a
        # solver would stop on the contradiction, and a document would
        # write it as the order that chooses e1
        last = _LastOfItsOrder((0, 1))
        assert validate_plott(last).passed
        assert last.evaluate(m(0, 1)) == m(1) and last.desirable(m(0)) == m(0)
        with pytest.raises(DomainError, match="'f1' has type _LastOfItsOrder,") as err:
            _one_firm(last)
        assert err.value.agent_id == "f1"


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
