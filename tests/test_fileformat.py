import contextlib
import copy
import gc
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bad_table_documents, m
from stablecontracts import cli
from stablecontracts.choice import Aggregate, LinearOrder
from stablecontracts.errors import DomainError, ParseError
from stablecontracts.fileformat import (
    document_from_instance,
    format_set,
    instance_from_document,
    load_components,
    parse_instance,
    parse_set,
)
from stablecontracts.instance import Agent, Contract, Instance, Side
from stablecontracts.oracle import random_corpus


def _write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _fault(agents=(("f", "firm"), ("w", "worker")), contracts=(("e", "f", "w"),), **choices):
    """A one-contract market document with linear agents; a ``choices``
    entry overrides an agent's payload, and None leaves its choice out."""
    choices = {"f": ["e"], "w": ["e"], **choices}
    return {
        "agents": [{"id": a, "side": side} for a, side in agents],
        "contracts": [{"id": e, "firm": f, "worker": w} for e, f, w in contracts],
        "choices": {
            a: {"family": "linear", "payload": payload}
            for a, payload in choices.items()
            if payload is not None
        },
    }


# one fault each, with the code it is reported under
STRUCTURAL_FAULTS = {
    "duplicate-agent-same-side": (
        _fault(agents=(("f", "firm"), ("f", "firm"), ("w", "worker"))), "malformed"
    ),
    "duplicate-agent-other-side": (
        _fault(agents=(("f", "firm"), ("w", "worker"), ("f", "worker"))), "malformed"
    ),
    "duplicate-contract": (
        _fault(contracts=(("e", "f", "w"), ("e", "f", "w"))), "malformed"
    ),
    "undeclared-firm": (_fault(contracts=(("e", "ghost", "w"),)), "dangling-reference"),
    "undeclared-worker": (_fault(contracts=(("e", "f", "ghost"),)), "dangling-reference"),
    "wrong-side-endpoint": (_fault(contracts=(("e", "w", "w"),)), "dangling-reference"),
    "choice-for-unknown-agent": (_fault(ghost=[]), "dangling-reference"),
    "one-missing-choice": (_fault(w=None), "malformed"),
    "two-missing-choices": (
        _fault(agents=(("f", "firm"), ("w", "worker"), ("v", "worker")), w=None),
        "malformed",
    ),
    "missing-plus-extra": (_fault(w=None, ghost=[]), "dangling-reference"),
    "ground-mismatch": (_fault(f=[]), "malformed"),
}
# faults in the contract labels, which only documents carry (Instance takes
# dense ids); a label must be a non-empty string
LABEL_FAULTS = {
    "unknown-payload-label": (_fault(f=["e", "ghost"]), "dangling-reference"),
    **{
        f"contract-id-{name}": (_fault(contracts=((label, "f", "w"),)), "malformed")
        for name, label in (("null", None), ("number", 7), ("empty", ""), ("list", ["e"]))
    },
    **{
        f"payload-entry-{name}": (_fault(f=[label]), "malformed")
        for name, label in (("null", None), ("number", 7))
    },
}
STRUCTURAL_FAULTS.update(LABEL_FAULTS)


def _components(doc):
    """Instance pieces built straight from a document, without the parser;
    a payload label names the first contract carrying it."""
    contracts = tuple(Contract(c["id"], c["firm"], c["worker"]) for c in doc["contracts"])
    ids = {}
    for i, c in enumerate(contracts):
        ids.setdefault(c.label, i)
    choices = {
        a: LinearOrder(tuple(ids[label] for label in raw["payload"]))
        for a, raw in doc["choices"].items()
    }
    agents = tuple(Agent(a["id"], Side(a["side"])) for a in doc["agents"])
    return agents, contracts, choices


@st.composite
def table_document(draw):
    """A market whose firm ``f`` chooses by a table: the top ``q`` of each
    menu's acceptable contracts by a priority, a Plott rule, over 0 to 6
    contracts.  The rows come in any order, and a filler firm's contracts
    are declared first or interleaved, so table ids may pass 63."""
    k = draw(st.integers(min_value=0, max_value=6))
    filler = draw(st.sampled_from((0, 3, 70)))
    labels = [f"x{j}" for j in range(k)]
    priority = draw(st.permutations(labels))
    acceptable = set(draw(st.lists(st.sampled_from(labels), unique=True))) if k else set()
    q = draw(st.integers(min_value=1, max_value=max(k, 1)))
    rows = []
    for mask in range(1 << k):
        menu = [x for j, x in enumerate(labels) if mask >> j & 1]
        wanted = [x for x in priority if x in menu and x in acceptable]
        rows.append({"menu": draw(st.permutations(menu)), "choice": wanted[:q]})
    rows = draw(st.permutations(rows))
    table = [(x, "f", f"w{j}") for j, x in enumerate(labels)]
    pad = [(f"y{j}", "g", f"v{j}") for j in range(filler)]
    contracts = pad + table if draw(st.booleans()) else draw(st.permutations(pad + table))
    workers = {w: [x] for x, _, w in contracts}
    return {
        "agents": [{"id": "f", "side": "firm"}, {"id": "g", "side": "firm"}]
        + [{"id": w, "side": "worker"} for w in workers],
        "contracts": [{"id": x, "firm": a, "worker": w} for x, a, w in contracts],
        "choices": {
            "f": {"family": "table", "payload": rows},
            "g": {"family": "linear", "payload": [x for x, _, _ in pad]},
            **{w: {"family": "linear", "payload": xs} for w, xs in workers.items()},
        },
    }


def _declared(doc):
    position = {c["id"]: i for i, c in enumerate(doc["contracts"])}
    return position.__getitem__


class TestRoundTrip:
    """Every family round-trips: linear and quota agents in the fixture and
    corpus documents, table agents in the poset fixture and the table
    documents."""

    def test_fixture_documents(self, i1, i3, poset):
        for inst in (i1, i3, poset):
            doc = document_from_instance(inst)
            assert instance_from_document(doc) == inst

    def test_corpus_documents(self):
        for inst in random_corpus(25, master_seed=139, max_contracts=8):
            doc = document_from_instance(inst)
            again = instance_from_document(doc)
            assert again == inst
            assert document_from_instance(again) == doc

    @settings(max_examples=100, deadline=None)
    @given(table_document())
    def test_table_documents_round_trip(self, doc):
        inst = instance_from_document(doc)
        again = document_from_instance(inst)
        reparsed = instance_from_document(again)
        assert reparsed == inst
        assert json.dumps(document_from_instance(reparsed)) == json.dumps(again)
        # the serialized rows are the document's rows in canonical order
        rows = again["choices"]["f"]["payload"]
        assert sorted(map(json.dumps, rows)) == sorted(
            json.dumps({"menu": sorted(r["menu"], key=_declared(doc)), "choice":
                        sorted(r["choice"], key=_declared(doc))})
            for r in doc["choices"]["f"]["payload"]
        )

    def test_aggregate_agent_has_no_document_form(self):
        # so no instance holds one: every instance that loads has a form
        agents = (Agent("f", Side.FIRM), Agent("w", Side.WORKER))
        with pytest.raises(DomainError, match="'f' has type Aggregate,") as err:
            Instance(agents, (Contract("e", "f", "w"),), {
                "f": Aggregate((LinearOrder((0,)),)), "w": LinearOrder((0,)),
            })
        assert err.value.agent_id == "f"

    def test_parse_from_file(self, tmp_path, i3):
        path = _write(tmp_path, document_from_instance(i3))
        inst = parse_instance(path)
        assert len(inst.agents) == 4
        assert inst.size == 4


class TestParseErrors:
    def test_missing_file(self):
        with pytest.raises(ParseError) as err:
            parse_instance("/nonexistent/instance.json")
        assert err.value.code == "io"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{}", b"[" * 200000):
            path.write_bytes(content)
            with pytest.raises(ParseError) as err:
                parse_instance(str(path))
            assert err.value.code == "malformed"

    def test_missing_section(self):
        with pytest.raises(ParseError) as err:
            instance_from_document({"agents": [], "contracts": []})
        assert err.value.code == "malformed"

    def test_bad_side(self):
        doc = {
            "agents": [{"id": "a", "side": "manager"}],
            "contracts": [],
            "choices": {"a": {"family": "linear", "payload": []}},
        }
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "malformed"

    def test_unknown_family(self):
        doc = {
            "agents": [{"id": "f", "side": "firm"}],
            "contracts": [],
            "choices": {"f": {"family": "aggregate", "payload": []}},
        }
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "unknown-family"

    def test_contract_naming_undeclared_agent(self):
        cases = [
            ("f", "ghost", "dangling-reference"),
            (["f"], "w", "malformed"),
            ("f", 7, "malformed"),
        ]
        docs = [
            (_fault(contracts=(("e", firm, worker),), w=[]), code)
            for firm, worker, code in cases
        ]
        for doc, code in docs + list(STRUCTURAL_FAULTS.values()):
            with pytest.raises(ParseError) as err:
                instance_from_document(doc)
            assert err.value.code == code

    @pytest.mark.parametrize("name", sorted(STRUCTURAL_FAULTS))
    def test_structural_fault_exits_1_from_the_cli(self, capsys, tmp_path, name):
        doc, code = STRUCTURAL_FAULTS[name]
        path = _write(tmp_path, doc)
        for command in ("solve", "validate"):
            assert cli.main([command, path]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error [{code}]: ")

    @pytest.mark.parametrize("name", sorted(set(STRUCTURAL_FAULTS) - set(LABEL_FAULTS)))
    def test_structural_fault_is_a_domain_error_of_instance(self, name):
        with pytest.raises(DomainError):
            Instance(*_components(STRUCTURAL_FAULTS[name][0]))

    def test_payload_naming_unknown_contract(self):
        doc = {
            "agents": [{"id": "f", "side": "firm"}, {"id": "w", "side": "worker"}],
            "contracts": [{"id": "e", "firm": "f", "worker": "w"}],
            "choices": {
                "f": {"family": "linear", "payload": ["e", "ghost"]},
                "w": {"family": "linear", "payload": ["e"]},
            },
        }
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "dangling-reference"

    @pytest.mark.parametrize("family", ["linear", "quota", "table"])
    @pytest.mark.parametrize("labels, code, text", [
        ([7], "malformed", "agent 'f': contract id 7 is not a string"),
        ([["e"]], "malformed", "agent 'f': contract id ['e'] is not a string"),
        (["ghost"], "dangling-reference", "agent 'f' references unknown contract 'ghost'"),
        (["e", None], "malformed", "agent 'f': contract id None is not a string"),
        (["e", "ghost", 7], "dangling-reference",
         "agent 'f' references unknown contract 'ghost'"),
    ], ids=["number", "unhashable", "unknown", "after-a-good-one", "first-of-two"])
    def test_payload_label_faults_name_the_first_bad_entry(self, family, labels, code, text):
        payload = {"linear": labels, "quota": {"q": 1, "priority": labels},
                   "table": [{"menu": labels, "choice": []}]}[family]
        doc = _fault(f=[])
        doc["choices"]["f"] = {"family": family, "payload": payload}
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert (err.value.code, str(err.value)) == (code, text)

    def test_partial_table(self):
        doc = {
            "agents": [{"id": "f", "side": "firm"}, {"id": "w", "side": "worker"}],
            "contracts": [{"id": "e", "firm": "f", "worker": "w"}],
            "choices": {
                "f": {"family": "table", "payload": [{"menu": ["e"], "choice": ["e"]}]},
                "w": {"family": "linear", "payload": ["e"]},
            },
        }
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "malformed"

    def test_quota_payload_shape(self):
        # the parser's own check and message, before Quota's
        for q in ("one", True, 1.5):
            doc = {
                "agents": [{"id": "f", "side": "firm"}, {"id": "w", "side": "worker"}],
                "contracts": [{"id": "e", "firm": "f", "worker": "w"}],
                "choices": {
                    "f": {"family": "quota", "payload": {"q": q, "priority": ["e"]}},
                    "w": {"family": "linear", "payload": ["e"]},
                },
            }
            with pytest.raises(ParseError, match="quota 'q' must be an integer$") as err:
                instance_from_document(doc)
            assert err.value.code == "malformed"

    @pytest.mark.parametrize("key", ["menu", "choice"])
    def test_table_row_repeating_a_contract_is_malformed(self, capsys, tmp_path, key):
        # a linear or quota payload with a repeat is malformed too
        row = {"menu": ["e"], "choice": ["e"], key: ["e", "e"]}
        doc = _fault(f=None)
        doc["choices"]["f"] = {
            "family": "table", "payload": [{"menu": [], "choice": []}, row],
        }
        assert cli.main(["validate", _write(tmp_path, doc)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error [malformed]: agent 'f': table row {key} repeats a contract id\n"

    @pytest.mark.parametrize("name", ["consistency", "substitutability", "both"])
    def test_axiom_violations_reported_with_code(self, name):
        doc = bad_table_documents()[name]
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "axiom-violation"


# one file each: a valid market, then each way a document fails to load
# while the collector is paused (reading, decoding, parsing) and after it
# resumes (an axiom violation), with the code it is reported under
LOADS = {
    "valid": (_fault(), None),
    "io": (None, "io"),
    "non-utf8": (b"\xff\xfe{}", "malformed"),
    "invalid-json": (b"{not json", "malformed"),
    "too-deep": (b"[" * 200000, "malformed"),
    "missing-section": ({"agents": [], "contracts": []}, "malformed"),
    "axiom-violation": (bad_table_documents()["consistency"], "axiom-violation"),
}


def _load_file(tmp_path, name):
    content, code = LOADS[name]
    path = tmp_path / "load.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    return str(path), code


def _containers(node):
    """The lists and dicts of a decoded JSON tree, the root included."""
    if isinstance(node, dict):
        return 1 + sum(map(_containers, node.values()))
    if isinstance(node, list):
        return 1 + sum(map(_containers, node))
    return 0


def _wide_table_document(k):
    """A firm choosing by a table over ``k`` parallel contracts with one
    worker (it keeps every menu): 2^k rows of three containers each."""
    labels = [f"e{j}" for j in range(k)]
    rows = []
    for mask in range(1 << k):
        menu = [x for j, x in enumerate(labels) if mask >> j & 1]
        rows.append({"menu": menu, "choice": menu})
    return {
        "agents": [{"id": "f", "side": "firm"}, {"id": "w", "side": "worker"}],
        "contracts": [{"id": x, "firm": "f", "worker": "w"} for x in labels],
        "choices": {
            "f": {"family": "table", "payload": rows},
            "w": {"family": "linear", "payload": labels},
        },
    }


class TestCollectorPause:
    """Decoding pauses the cyclic garbage collector and leaves it as it was."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("name", LOADS)
    def test_parse_instance_restores_the_collector(self, tmp_path, collector, name):
        path, code = _load_file(tmp_path, name)
        if code is None:
            assert parse_instance(path).size == 1
        else:
            with pytest.raises(ParseError) as err:
                parse_instance(path)
            assert err.value.code == code
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("name", LOADS)
    def test_validate_restores_the_collector(self, capsys, tmp_path, collector, name):
        path, code = _load_file(tmp_path, name)
        assert cli.main(["validate", path]) == (0 if code is None else 1)
        out, err = capsys.readouterr()
        if code is None:
            assert out.splitlines()[-1] == "valid"
        else:
            assert err.startswith(f"error [{code}]: ")
        assert gc.isenabled() is collector

    def test_decoding_starts_no_collection(self, tmp_path):
        path = _write(tmp_path, _wide_table_document(10))
        assert _containers(json.loads(Path(path).read_text())) > 2000
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            agents, contracts, choices = load_components(path)
        finally:
            gc.callbacks.remove(hook)
            (gc.enable if was else gc.disable)()
        assert starts == []
        assert len(contracts) == 10 and sorted(choices) == ["f", "w"]


class TestSetText:
    def test_format_canonical(self, i3):
        assert format_set(i3, m(1, 2)) == "{e12, e21}"
        assert format_set(i3, 0) == "{}"

    @pytest.mark.parametrize("mask, match", [
        (1 << 10, "not a subset of the ground set"),
        (-1, "non-negative"),
    ], ids=["outside-the-ground", "negative"])
    def test_format_refuses_a_set_outside_the_ground(self, i3, mask, match):
        with pytest.raises(DomainError, match=match):
            format_set(i3, mask)

    def test_parse_round_trip(self, i3):
        assert parse_set(i3, ["e11", "e22"]) == m(0, 3)
        assert parse_set(i3, []) == 0

    @pytest.mark.parametrize("labels, match", [
        (["e99"], r"^unknown contract label 'e99'$"),
        ([["e11"]], r"^unknown contract label \['e11'\]$"),
        (5, r"^contract labels must be iterable, got 5$"),
    ], ids=["unknown", "unhashable", "not-iterable"])
    def test_unknown_label(self, i3, labels, match):
        with pytest.raises(DomainError, match=match):
            parse_set(i3, labels)


PARSE_CODES = {"io", "malformed", "unknown-family", "dangling-reference", "axiom-violation"}

# the fixture documents (the golden copies of i1, i3 and poset, and the bad
# tables) and the two golden ``generate`` documents
FUZZ_SEEDS = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).parent / "golden").glob("*.json"))
] + list(bad_table_documents().values())

# values of the wrong type or out of range, put in place of any entry; a
# lone surrogate is written as its escape
JUNK = [None, True, -1, 0, 2**70, 1.5, "", "ghost", "\ud800", [], {}, [None],
        {"id": None}]
JUNK_STRINGS = [x for x in JUNK if isinstance(x, str)]


def _paths(node, prefix=()):
    """Every (container path, key) of a JSON tree, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _strings(key)
            yield from _strings(value)


def _relabel(node, old, new):
    """Every string ``old`` of a JSON tree, keys included, becomes ``new``."""
    items = list(node.items()) if isinstance(node, dict) else list(enumerate(node))
    for key, value in items:
        if isinstance(value, (dict, list)):
            _relabel(value, old, new)
        elif value == old:
            node[key] = new
        if key == old and isinstance(node, dict):
            node[new] = node.pop(key)


def _mutate(doc, data):
    """One to three mutations: drop or retype an entry, duplicate an entry,
    rename a reference or a key, replace a string everywhere by a junk
    string, or swap an agent's side."""
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            return
        head, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in head:
            parent = parent[step]
        names = st.sampled_from(sorted(set(_strings(doc)) | {"ghost"}))
        op = data.draw(st.sampled_from(
            ["drop", "retype", "duplicate", "rename", "relabel", "swap"]))
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "duplicate":
            parent[data.draw(names)] = copy.deepcopy(parent[key])
        elif op == "rename" and isinstance(parent, dict) and data.draw(st.booleans()):
            parent[data.draw(names)] = parent.pop(key)
        elif op == "rename":
            parent[key] = data.draw(names)
        elif op == "relabel":
            _relabel(doc, data.draw(names), data.draw(st.sampled_from(JUNK_STRINGS)))
        elif parent[key] in ("firm", "worker"):
            parent[key] = "worker" if parent[key] == "firm" else "firm"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_SEEDS), st.data())
def test_mutated_documents_load_or_fail_with_a_code(tmp_path_factory, seed, data):
    doc = copy.deepcopy(seed)
    _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    try:
        parse_instance(str(path))
        code = None
    except ParseError as exc:
        assert exc.code in PARSE_CODES
        code = exc.code
    for command in ("validate", "solve"):
        # a report is encoded as a real UTF-8 stdout encodes it, so an
        # encoding fault escapes cli.main and fails the test
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([command, str(path)])
        lines = err.getvalue().splitlines()
        assert status in (0, 1, 2, 3)
        if status == 1:
            assert len(lines) == 1 and lines[0].startswith(("error [", "error:"))
        if code is not None:
            assert status == 1 and lines[0].startswith(f"error [{code}]: ")
        elif command == "validate":
            assert (status, lines) == (0, [])
