import json

import pytest

from conftest import m
from stablecontracts.errors import ParseError
from stablecontracts.fileformat import (
    document_from_instance,
    format_set,
    instance_from_document,
    parse_instance,
    parse_set,
)
from stablecontracts.fixtures import bad_table_documents
from stablecontracts.oracle import random_corpus


def _write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRoundTrip:
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
        for firm, worker, code in cases:
            doc = {
                "agents": [{"id": "f", "side": "firm"}, {"id": "w", "side": "worker"}],
                "contracts": [{"id": "e", "firm": firm, "worker": worker}],
                "choices": {
                    "f": {"family": "linear", "payload": ["e"]},
                    "w": {"family": "linear", "payload": []},
                },
            }
            with pytest.raises(ParseError) as err:
                instance_from_document(doc)
            assert err.value.code == code

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
        for q in ("one", True):
            doc = {
                "agents": [{"id": "f", "side": "firm"}, {"id": "w", "side": "worker"}],
                "contracts": [{"id": "e", "firm": "f", "worker": "w"}],
                "choices": {
                    "f": {"family": "quota", "payload": {"q": q, "priority": ["e"]}},
                    "w": {"family": "linear", "payload": ["e"]},
                },
            }
            with pytest.raises(ParseError) as err:
                instance_from_document(doc)
            assert err.value.code == "malformed"

    @pytest.mark.parametrize("name", ["consistency", "substitutability", "both"])
    def test_axiom_violations_reported_with_code(self, name):
        doc = bad_table_documents()[name]
        with pytest.raises(ParseError) as err:
            instance_from_document(doc)
        assert err.value.code == "axiom-violation"


class TestSetText:
    def test_format_canonical(self, i3):
        assert format_set(i3, m(1, 2)) == "{e12, e21}"
        assert format_set(i3, 0) == "{}"

    def test_parse_round_trip(self, i3):
        assert parse_set(i3, ["e11", "e22"]) == m(0, 3)
        assert parse_set(i3, []) == 0

    def test_unknown_label(self, i3):
        with pytest.raises(Exception, match="unknown contract label"):
            parse_set(i3, ["e99"])
