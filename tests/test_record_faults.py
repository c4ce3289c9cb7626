"""Replay of seeded single-field faults in three golden documents.

``tests/golden/record_faults.json`` lists cases drawn from
``gen-linear.json``, ``gen-quota.json`` and ``poset.json``.  Each case
names its base document, a JSON path (object keys and list indices) and
one edit there: ``replace`` the value, ``delete`` it, or ``rename`` an
object key in place.  The faults reach agents, contracts, ``choices`` keys
and linear, quota and table payloads: a wrong type, a missing key, an
empty string, an unknown label, a wrong side, a duplicate id or label, a
payload id listed twice or left out, and an entry that is not an object.
A few edits leave the document valid.  Each case keeps the exit code,
stdout and stderr of ``validate`` on the edited document, so every
``ParseError`` code and message, and the first fault named, stay as they
were when the file was written.  After a change to a message on purpose,
rewrite the file with

    PYTHONPATH=src python tests/test_record_faults.py

and review the diff.

The same cases, and every rename of one contract label or agent id onto
another throughout a base document, also check that the decoder's and
``Instance``'s one-pass record reads agree with their full checks: each
document is built once as decoded and once with every dict, list and str
an instance of a trivial subclass, which every one-pass read refuses, so
that every record goes through the full checks.  Both builds must give
the same records and choices, or the same ``ParseError``.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import functools
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from stablecontracts import cli, fileformat, instance
from stablecontracts.errors import ParseError
from stablecontracts.fileformat import instance_from_document

GOLDEN = Path(__file__).parent / "golden"
CASES_FILE = GOLDEN / "record_faults.json"
BASES = ("gen-linear.json", "gen-quota.json", "poset.json")
SEED = 28

# values that are not what a record field holds
WRONG_TYPES = (7, None, True, ["x"])


def _base(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def apply(doc, path: list, op: str, value=None):
    """``doc`` with one edit at ``path``: ``replace`` the value there,
    ``delete`` it, or ``rename`` the object key there to ``value``,
    keeping its place."""
    doc = copy.deepcopy(doc)
    *outer, last = path
    parent = doc
    for key in outer:
        parent = parent[key]
    if op == "replace":
        parent[last] = value
    elif op == "delete":
        del parent[last]
    elif op == "rename":
        items = [(value if k == last else k, v) for k, v in parent.items()]
        parent.clear()
        parent.update(items)
    else:
        raise ValueError(op)
    return doc


def _replace(out: list, path: list, *values) -> None:
    out.extend((path, "replace", v) for v in values)


def _edits(doc: dict, rng: random.Random) -> list[tuple[list, str, object]]:
    """The edits of one base document, as (path, op, value)."""
    out = []
    replace = functools.partial(_replace, out)

    agents, contracts, choices = doc["agents"], doc["contracts"], doc["choices"]
    ids = [a["id"] for a in agents]
    labels = [c["id"] for c in contracts]

    # the sections themselves
    for key in ("agents", "contracts", "choices"):
        out.append(([key], "delete", None))
        replace([key], 7, {} if key != "choices" else [])

    # agent entries
    for i in rng.sample(range(len(agents)), 1):
        replace(["agents", i], 7, "f1", None, [ids[i], agents[i]["side"]], {})
        out.append((["agents", i, "id"], "delete", None))
        out.append((["agents", i, "side"], "delete", None))
        replace(["agents", i, "id"], *WRONG_TYPES, "", "zz",
                ids[rng.randrange(len(ids))] if len(ids) > 1 else "zz")
        other = "worker" if agents[i]["side"] == "firm" else "firm"
        replace(["agents", i, "side"], *WRONG_TYPES, "", "firms", "FIRM", other)
    i, j = rng.sample(range(len(agents)), 2)
    replace(["agents", i, "id"], ids[j])

    # contract entries
    for i in rng.sample(range(len(contracts)), 1):
        c = contracts[i]
        replace(["contracts", i], 7, c["id"], None, [c["id"], c["firm"], c["worker"]], {})
        for key in ("id", "firm", "worker"):
            out.append((["contracts", i, key], "delete", None))
        replace(["contracts", i, "id"], *WRONG_TYPES, "",
                labels[rng.randrange(len(labels))])
        replace(["contracts", i, "firm"], 7, None, ["f1"], "", "zz", c["worker"])
        replace(["contracts", i, "worker"], 7, None, "", "zz", c["firm"])
    if len(labels) > 1:
        i, j = rng.sample(range(len(contracts)), 2)
        replace(["contracts", i, "id"], labels[j])
        # a contract moved to another agent changes two E(v)
        replace(["contracts", i, "firm"], contracts[j]["firm"])
        replace(["contracts", i, "worker"], contracts[j]["worker"])

    # choices keys and entries
    # one agent of each family the document uses
    for family in sorted({c["family"] for c in choices.values()}):
        key = rng.choice([k for k in choices if choices[k]["family"] == family])
        out.append((["choices", key], "delete", None))
        out.append((["choices", key], "rename", "zz"))
        out.append((["choices", key], "rename", ""))
        replace(["choices", key], 7, [], {"family": "linear"}, {"payload": []})
        replace(["choices", key, "family"], 7, "", "poset")
        out.append((["choices", key, "payload"], "delete", None))
        for other in ("linear", "quota", "table"):
            if other != family:
                replace(["choices", key, "family"], other)
        _payload_edits(out, ["choices", key, "payload"], choices[key], labels, rng)
    return out


def _label_list_edits(out, path, names, labels, rng) -> None:
    """Edits of a payload list of contract labels."""
    foreign = [x for x in labels if x not in names]
    _replace(out, path, {}, "x", None, 7, [], list(reversed(names)), names + names[:1])
    if foreign:
        _replace(out, path, names + [rng.choice(foreign)])
    j = rng.randrange(len(names))
    out.append((path + [j], "delete", None))
    _replace(out, path + [j], 3, None, ["x"], "", "zz")
    if len(names) > 1:
        k = rng.choice([x for x in range(len(names)) if x != j])
        _replace(out, path + [j], names[k])
    if foreign:
        _replace(out, path + [j], rng.choice(foreign))


def _payload_edits(out, path, choice, labels, rng) -> None:
    family, payload = choice["family"], choice["payload"]
    if family == "linear":
        _label_list_edits(out, path, payload, labels, rng)
    elif family == "quota":
        _replace(out, path, [], "x", None, {"q": 1}, {"priority": payload["priority"]})
        out.append((path + ["q"], "delete", None))
        out.append((path + ["priority"], "delete", None))
        _replace(out, path + ["q"], 0, -1, True, 1.5, "2", None, 100)
        _label_list_edits(out, path + ["priority"], payload["priority"], labels, rng)
    else:
        _replace(out, path, {}, "x", None, [], payload[:-1], payload + payload[:1])
        # choosing nothing from a singleton breaks the axioms wherever a
        # larger menu chooses that contract
        for r, row in enumerate(payload):
            if len(row["menu"]) == 1:
                _replace(out, path + [r, "choice"], [])
        for r in rng.sample(range(len(payload)), 1):
            row = payload[r]
            _replace(out, path + [r], 7, [], {}, {"menu": row["menu"]})
            out.append((path + [r, "menu"], "delete", None))
            out.append((path + [r, "choice"], "delete", None))
            _replace(out, path + [r, "menu"], "x1", 7, [1], ["zz"], row["menu"] + row["menu"][:1],
                    ["x1", ""], payload[(r + 1) % len(payload)]["menu"])
            _replace(out, path + [r, "choice"], 7, ["zz"], row["choice"] + row["choice"][:1],
                    [x for x in labels if x not in row["menu"]][:1], row["menu"], [])


def generate_cases() -> list[dict]:
    """Every case, without its outputs, in a fixed order."""
    rng = random.Random(SEED)
    cases, seen = [], set()
    for base in BASES:
        for path, op, value in _edits(_base(base), rng):
            key = json.dumps([base, path, op, value])
            if key not in seen:
                seen.add(key)
                cases.append({"base": base, "path": path, "op": op, "value": value})
    return cases


def validate(doc, tmp_path: Path) -> dict:
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _case_id(case: dict) -> str:
    edit = case["op"] if case["op"] == "delete" else f"{case['op']}={json.dumps(case['value'])}"
    return f"{case['base'].removesuffix('.json')}:{'/'.join(map(str, case['path']))}:{edit}"


def _load_cases() -> list[dict]:
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


CASES = _load_cases() if CASES_FILE.exists() else []


def test_cases_are_current():
    stored = [{k: case[k] for k in ("base", "path", "op", "value")} for case in CASES]
    assert stored == generate_cases()


def test_the_cases_reach_every_outcome():
    codes = {case["exit"] for case in CASES}
    assert codes == {0, 1}
    errors = {case["stderr"].split("]")[0] for case in CASES if case["exit"]}
    assert errors == {"error [malformed", "error [dangling-reference",
                      "error [unknown-family", "error [axiom-violation"}


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_fault_is_reported_as_before(case, tmp_path):
    doc = apply(_base(case["base"]), case["path"], case["op"], case["value"])
    got = validate(doc, tmp_path)
    assert got == {k: case[k] for k in ("exit", "stdout", "stderr")}


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


def _rebuilt(value, str_, dict_=dict, list_=list):
    """``value`` with every str, keys included, passed through ``str_``,
    and every dict and list rebuilt by ``dict_`` and ``list_``."""
    if isinstance(value, dict):
        return dict_({_rebuilt(k, str_): _rebuilt(v, str_, dict_, list_)
                      for k, v in value.items()})
    if isinstance(value, list):
        return list_([_rebuilt(v, str_, dict_, list_) for v in value])
    return str_(value) if isinstance(value, str) else value


def _subclassed(doc):
    """``doc`` as the full checks alone read it."""
    return _rebuilt(doc, _Str, _Dict, _List)


def _built(doc):
    try:
        inst = instance_from_document(doc)
    except ParseError as exc:
        return exc.code, str(exc)
    return inst.agents, inst.contracts, dict(inst.choices)


def _renames():
    """Each base document with one contract label or agent id renamed onto
    another everywhere, as (case id, document)."""
    for base in BASES:
        doc = _base(base)
        for section in ("agents", "contracts"):
            names = [record["id"] for record in doc[section]]
            for old, new in itertools.permutations(names, 2):
                yield f"{base}:{old}->{new}", _rebuilt(
                    doc, lambda s, old=old, new=new: new if s == old else s)


def _diverging(named_docs) -> list[str]:
    return [name for name, doc in named_docs if _built(doc) != _built(_subclassed(doc))]


def test_fast_pass_agrees_with_the_full_checks_on_every_fault():
    docs = ((_case_id(c), apply(_base(c["base"]), c["path"], c["op"], c["value"]))
            for c in CASES)
    assert _diverging(docs) == []


def test_fast_pass_agrees_with_the_full_checks_on_every_rename():
    renames = list(_renames())
    assert len(renames) == 366
    assert _diverging(renames) == []


def test_subclassed_records_take_the_full_checks(monkeypatch):
    calls = collections.Counter()
    for module, name in ((fileformat, "_read_agent"), (fileformat, "_read_contract"),
                         (fileformat, "_resolve_labels"), (instance, "_check_agent"),
                         (instance, "_check_contract")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    for base in BASES:
        doc = _base(base)
        instance_from_document(doc)
        # a table row naming a contract no earlier menu named is re-read
        # label by label even as decoded
        assert calls.keys() <= {"_resolve_labels"}
        calls.clear()
        instance_from_document(_subclassed(doc))
        agents, contracts = len(doc["agents"]), len(doc["contracts"])
        assert calls.pop("_read_agent") == calls.pop("_check_agent") == agents
        assert calls.pop("_read_contract") == calls.pop("_check_contract") == contracts
        # once per linear or quota payload, twice per table row
        assert calls.pop("_resolve_labels") == sum(
            2 * len(c["payload"]) if c["family"] == "table" else 1
            for c in doc["choices"].values())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        cases = [
            {**case, **validate(apply(_base(case["base"]), case["path"], case["op"],
                                      case["value"]), Path(scratch))}
            for case in generate_cases()
        ]
    CASES_FILE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases written to {CASES_FILE}")
