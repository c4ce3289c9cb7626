"""Instance documents: a single JSON object describing a market.

Schema::

    {
      "agents":    [{"id": "f1", "side": "firm"}, ...],
      "contracts": [{"id": "e11", "firm": "f1", "worker": "w1"}, ...],
      "choices": {
        "f1": {"family": "linear", "payload": ["e11", "e12"]},
        "w1": {"family": "quota",  "payload": {"q": 1, "priority": ["e11"]}},
        "a":  {"family": "table",  "payload": [{"menu": [...], "choice": [...]}, ...]}
      }
    }

Contract ids in the file are arbitrary unique non-empty strings; internally
a contract is its position in declaration order, so parse → serialize →
parse is an exact round trip.  Linear payloads list contracts best-first,
quota priorities likewise, and table payloads must cover every subset of
the agent's contracts.

This module only decodes: JSON shapes and types, family payloads, and
contract labels resolved to dense ids.  The market's structural rules and
the axioms are checked by Instance.  Failures raise ParseError with a
distinct code (io, malformed, unknown-family, dangling-reference,
axiom-violation).  A document file is refused as malformed when its text
holds an integer past Python's int-string limit or a string with a lone
surrogate (``load_document``).

A well-formed agent, contract or linear/quota choice is decoded in one
pass (``parse_components``), and the ``Agent`` and ``Contract`` records
are filled column by column (``_records``).  A record that pass refuses
is read again by the full checks of its kind, which name its first fault,
so every fault is reported as a field-by-field reading reports it.

A table payload is decoded in bulk into ``Table``'s array (see
``_parse_table``).  Its faults are reported as a label-by-label reading
reports them: row faults in document order, then the first menu, in
ascending mask order, that is missing or chooses outside itself.

A document file is decoded with the cyclic garbage collector paused
(``load_components``, which ``parse_instance`` and the CLI's ``validate``
read through): reading, ``json.loads`` and ``parse_components``.  A table
agent alone lists 2^k menus, so one document can hold thousands of lists
and dicts; decoded with the collector running, the still-live document is
promoted into the older generations, and later allocations then pay for
full-heap collections.  The pause is safe: decoded JSON holds no reference
cycles, so no garbage waits for it.  The document is released before the
collector's previous state is restored, and that state is restored after a
failure too: the collector is re-enabled only if it was enabled.  The pause
is process-wide: a collection another thread would start waits until the
decode ends.  ``instance_from_document`` is not paused, since its caller
owns the document.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import itertools
import json
from typing import Any

from .choice import OUTSIDE, ChoiceFunction, LinearOrder, Quota, Table
from .contractsets import Mask, canonical_order, check_subset, ids_of, mask_of
from .errors import DomainError, ParseError
from .instance import Agent, Contract, Instance, Side

_KNOWN_FAMILIES = ("linear", "quota", "table")


def parse_instance(path: str) -> Instance:
    """Load and fully validate an instance document from a file."""
    return build_instance(*load_components(path))


def load_components(
    path: str,
) -> tuple[list[Agent], list[Contract], dict[str, ChoiceFunction]]:
    """Read, decode and parse a document file into ``parse_components``'
    pieces with the cyclic garbage collector paused; the decoded document
    is released before the collector's previous state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_components(load_document(path))
    finally:
        if enabled:
            gc.enable()


def load_document(path: str) -> Any:
    """Read and decode a JSON document; failures raise ParseError coded
    ``io`` (unreadable file) or ``malformed`` (not UTF-8 JSON, an integer
    past Python's int-string limit, or a string holding a lone surrogate,
    which no report could print as UTF-8).  The text is strict UTF-8, so
    a lone surrogate can only come from a ``\\u`` escape: the decoded
    document is checked only when the text holds a backslash (a search for
    one character runs about 100 times faster than one for ``\\u``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("io", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError("malformed", f"{path} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past the int-string limit
        raise ParseError("malformed", f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed", f"{path} nests too deeply to decode") from exc
    if "\\" in text:
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(
                "malformed", f"{path} holds a lone surrogate escape, which is not Unicode text"
            ) from exc
    return doc


def instance_from_document(doc: Any) -> Instance:
    """Build a validated Instance from a parsed document.  Only
    ``load_document`` refuses strings holding a lone surrogate: such a
    document built by the caller loads, and a report naming one of its
    strings cannot be encoded as UTF-8."""
    return build_instance(*parse_components(doc))


def build_instance(
    agents: list[Agent], contracts: list[Contract], choices: dict[str, ChoiceFunction]
) -> Instance:
    """Build a validated Instance from ``parse_components``' pieces; each
    structural or axiom fault it rejects raises ParseError under the code
    its DomainError carries."""
    try:
        return Instance(tuple(agents), tuple(contracts), choices)
    except DomainError as exc:
        raise ParseError(exc.code, str(exc)) from exc


def parse_components(
    doc: Any,
) -> tuple[list[Agent], list[Contract], dict[str, ChoiceFunction]]:
    """Decode a document into the pieces an Instance is built from.

    Decoding only, with labels resolved to dense ids (an unknown label is a
    ``dangling-reference``): duplicate ids, endpoint sides and which agents
    have choice functions are left to Instance, as are the axioms.

    A well-formed agent, contract or linear/quota choice is read in one
    pass: the agent and contract passes are inline here, the choice pass
    opens ``_read_choice``.  Any other record is read by the record's full
    checks (``_read_agent``, ``_read_contract``, the rest of
    ``_read_choice``), which name its first fault or, for a record only
    the fast pass refuses, read it.
    """
    if not isinstance(doc, dict):
        raise ParseError("malformed", "document root must be an object")
    for key in ("agents", "contracts", "choices"):
        if key not in doc:
            raise ParseError("malformed", f"document lacks the {key!r} section")

    # each agent id as its declaration's string, which every contract and
    # choice naming the agent then shares
    own_id: dict[str, str] = {}
    if not isinstance(doc["agents"], list):
        raise ParseError("malformed", "'agents' must be a list")
    agent_ids, sides = [], []
    for raw in doc["agents"]:
        try:
            agent_id, side = raw["id"], _SIDES[raw["side"]]
        except (KeyError, TypeError):
            agent_id = None
        if type(raw) is not dict or type(agent_id) is not str or not agent_id:
            agent_id, side = _read_agent(raw)
        agent_ids.append(own_id.setdefault(agent_id, agent_id))
        sides.append(side)
    agents = _records(Agent, agent_ids, sides)

    if not isinstance(doc["contracts"], list):
        raise ParseError("malformed", "'contracts' must be a list")
    labels, firms, workers = [], [], []
    for raw in doc["contracts"]:
        try:
            label, firm, worker = raw["id"], own_id[raw["firm"]], own_id[raw["worker"]]
        except (KeyError, TypeError):
            label = None
        if type(raw) is not dict or type(label) is not str or not label:
            label, firm, worker = _read_contract(raw, own_id)
        labels.append(label)
        firms.append(firm)
        workers.append(worker)
    contracts = _records(Contract, labels, firms, workers)
    # one int object per contract id, which every payload then shares
    index_by_label = dict(zip(labels, range(len(labels))))

    if not isinstance(doc["choices"], dict):
        raise ParseError("malformed", "'choices' must be an object keyed by agent id")
    choices = {
        own_id.get(agent_id, agent_id): _read_choice(agent_id, raw, index_by_label)
        for agent_id, raw in doc["choices"].items()
    }
    return agents, contracts, choices


# the two sides by their document names
_SIDES = {side.value: side for side in Side}


def _records(cls, *columns) -> list:
    """``[cls(*values) for values in zip(*columns)]`` for the frozen
    slotted record ``cls``, made in C-level passes: the records are
    allocated, then each field's column is stored into its slots through
    the field's member descriptor, where the generated ``__init__`` calls
    ``object.__setattr__`` once per field of every record."""
    records = list(map(object.__new__, itertools.repeat(cls, len(columns[0]))))
    for f, column in zip(dataclasses.fields(cls), columns, strict=True):
        collections.deque(map(getattr(cls, f.name).__set__, records, column), maxlen=0)
    return records


def _read_agent(raw: Any) -> tuple[str, Side]:
    if not isinstance(raw, dict) or "id" not in raw or "side" not in raw:
        raise ParseError("malformed", f"bad agent entry: {raw!r}")
    agent_id = raw["id"]
    if not isinstance(agent_id, str) or not agent_id:
        raise ParseError("malformed", f"agent id must be a non-empty string: {raw!r}")
    try:
        side = Side(raw["side"])
    except ValueError:
        raise ParseError(
            "malformed",
            f"agent {agent_id!r} has side {raw['side']!r}, expected 'firm' or 'worker'",
        ) from None
    return agent_id, side


def _read_contract(raw: Any, own_id: dict[str, str]) -> tuple[str, str, str]:
    if not isinstance(raw, dict) or not {"id", "firm", "worker"} <= set(raw):
        raise ParseError("malformed", f"bad contract entry: {raw!r}")
    label = raw["id"]
    if not isinstance(label, str) or not label:
        raise ParseError("malformed", f"contract id must be a non-empty string: {raw!r}")
    firm, worker = raw["firm"], raw["worker"]
    if not isinstance(firm, str) or not isinstance(worker, str):
        raise ParseError(
            "malformed",
            f"contract {label!r} must name its firm and worker by agent id",
        )
    return label, own_id.get(firm, firm), own_id.get(worker, worker)


def _malformed(agent_id: str, fault: str) -> ParseError:
    return ParseError("malformed", f"agent {agent_id!r}: {fault}")


def _resolve_labels(
    agent_id: str, labels: Any, index_by_label: dict[str, int]
) -> list[int]:
    if not isinstance(labels, list):
        raise _malformed(agent_id, "expected a list of contract ids")
    try:
        return [index_by_label[label] for label in labels]
    except (KeyError, TypeError):
        # a lookup failed: name the first bad entry
        for label in labels:
            if not isinstance(label, str):
                raise _malformed(agent_id, f"contract id {label!r} is not a string")
            if label not in index_by_label:
                raise ParseError(
                    "dangling-reference",
                    f"agent {agent_id!r} references unknown contract {label!r}",
                )
        raise


def _read_choice(
    agent_id: str, raw: Any, index_by_label: dict[str, int]
) -> ChoiceFunction:
    """Decode a choice record.  A well-formed linear or quota record is
    read in one pass; any other record is read by the full checks, which
    name its first fault or, for a table or a record only the fast pass
    refuses, read it."""
    # the ids go through a list so that each tuple is made at its size: a
    # tuple built from an iterator starts at a guessed size and is resized,
    # which fills the interpreter's free list of every other size
    resolve = index_by_label.__getitem__
    try:
        if type(raw) is dict:
            family, payload = raw["family"], raw["payload"]
            if family == "linear" and type(payload) is list:
                return LinearOrder(tuple(list(map(resolve, payload))))
            if family == "quota" and type(payload) is dict:
                q, priority = payload["q"], payload["priority"]
                if type(q) is int and type(priority) is list:
                    return Quota(q, tuple(list(map(resolve, priority))))
    except (KeyError, TypeError):
        pass
    except DomainError as exc:
        raise ParseError(exc.code, f"agent {agent_id!r}: {exc}") from exc
    if not isinstance(raw, dict) or "family" not in raw or "payload" not in raw:
        raise ParseError(
            "malformed",
            f"choice of agent {agent_id!r} must be an object with family and payload",
        )
    family = raw["family"]
    payload = raw["payload"]
    if family not in _KNOWN_FAMILIES:
        raise ParseError(
            "unknown-family",
            f"agent {agent_id!r} uses unknown choice family {family!r}",
        )
    try:
        if family == "linear":
            return LinearOrder(tuple(_resolve_labels(agent_id, payload, index_by_label)))
        if family == "quota":
            if not isinstance(payload, dict) or "q" not in payload or "priority" not in payload:
                raise _malformed(agent_id, "quota payload needs 'q' and 'priority'")
            q = payload["q"]
            if not isinstance(q, int) or isinstance(q, bool):
                raise _malformed(agent_id, "quota 'q' must be an integer")
            return Quota(q, tuple(_resolve_labels(agent_id, payload["priority"], index_by_label)))
        return _parse_table(agent_id, payload, index_by_label)
    except ParseError:
        raise
    except DomainError as exc:
        raise ParseError(exc.code, f"agent {agent_id!r}: {exc}") from exc


def _parse_table(agent_id: str, payload: Any, index_by_label: dict[str, int]) -> Table:
    """Decode a table payload in bulk: each row's menu and choice become
    local masks by one ``sum(map(...))`` each, over bits numbered as the
    contracts first appear in a menu.  A row the fast path cannot read is
    re-read label by label, which names its first fault or numbers the
    menu's new contracts; ``Table.from_rows`` checks the table itself."""
    if not isinstance(payload, list):
        raise _malformed(agent_id, "table payload must be a list")
    bit: dict[str, int] = {}
    rows: dict[Mask, Mask] = {}
    for row in payload:
        try:
            menu, choice = row["menu"], row["choice"]
            m = sum(map(bit.__getitem__, menu))
            c = sum(map(bit.__getitem__, choice))
            fast = type(menu) is list is type(choice) and (
                m.bit_count() == len(menu) and c.bit_count() == len(choice)
            )
        except (KeyError, TypeError):
            fast = False
        if not fast:
            if not isinstance(row, dict) or "menu" not in row or "choice" not in row:
                raise _malformed(agent_id, "table rows need 'menu' and 'choice'")
            for key in ("menu", "choice"):
                ids = _resolve_labels(agent_id, row[key], index_by_label)
                if len(set(ids)) != len(ids):
                    raise _malformed(agent_id, f"table row {key} repeats a contract id")
            menu, choice = row["menu"], row["choice"]
            for label in menu:
                bit.setdefault(label, 1 << len(bit))
            m = sum(map(bit.__getitem__, menu))
            # a contract no menu has named yet is outside this row's menu
            c = sum(map(bit.__getitem__, choice)) if bit.keys() >= set(choice) else OUTSIDE
        if m in rows:
            raise _malformed(agent_id, "duplicate table row for one menu")
        rows[m] = c
    return Table.from_rows([index_by_label[x] for x in bit], list(rows), list(rows.values()))


def document_from_instance(inst: Instance) -> dict:
    """Serialize an instance back to its document form (exact round trip),
    which every instance has: each agent is of a document family."""
    labels = [c.label for c in inst.contracts]

    def name(ids: list[int]) -> list[str]:
        return [labels[i] for i in ids]

    choices: dict[str, Any] = {}
    for agent in inst.agents:
        cf = inst.choices[agent.id]
        if type(cf) is LinearOrder:
            choices[agent.id] = {"family": "linear", "payload": name(list(cf.order))}
        elif type(cf) is Quota:
            choices[agent.id] = {
                "family": "quota",
                "payload": {"q": cf.quota, "priority": name(list(cf.priority))},
            }
        else:
            local = [labels[i] for i in cf.bits]
            choices[agent.id] = {"family": "table", "payload": [
                {"menu": [local[i] for i in ids_of(int(a))],
                 "choice": [local[i] for i in ids_of(int(cf.table[a]))]}
                for a in canonical_order(len(cf.bits))
            ]}
    return {
        "agents": [{"id": a.id, "side": a.side.value} for a in inst.agents],
        "contracts": [
            {"id": c.label, "firm": c.firm, "worker": c.worker} for c in inst.contracts
        ],
        "choices": choices,
    }


def format_set(inst: Instance, mask: Mask) -> str:
    """Canonical printing: members by dense id, wrapped in braces."""
    contracts = inst.contracts
    ids = ids_of(check_subset(mask, inst.ground))
    return "{" + ", ".join([contracts[i].label for i in ids]) + "}"


def parse_set(inst: Instance, labels: list[str]) -> Mask:
    """Contract labels to a mask; an unknown label, a bare string or labels
    that are not iterable are a domain error."""
    if isinstance(labels, str):
        raise DomainError(f"contract labels must be a collection, got the string {labels!r}")
    try:
        return mask_of(map(inst.contract_id, labels))
    except TypeError:  # not iterable: every label's lookup is a DomainError
        raise DomainError(f"contract labels must be iterable, got {labels!r}") from None
