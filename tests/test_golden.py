"""Golden CLI reports: byte-exact stdout of every report-producing command
on six fixed documents: ``solve`` (each algorithm the document admits),
``enumerate``, ``check``, ``validate`` and ``lemmas``.

``tests/golden/`` holds the input documents (the three fixtures, two
``stablecontracts generate`` documents of at most 12 contracts and the
empty market) and one ``<case>.out`` file per command below.  Every
document has a ``validate`` report; the empty market has no ``solve`` or
``check`` case.  A report may change only on purpose; after such a change,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from stablecontracts import cli, fixtures
from stablecontracts.fileformat import document_from_instance

GOLDEN = Path(__file__).parent / "golden"

FIXTURES = {
    "i1": fixtures.two_parallel_contracts,
    "i3": fixtures.marriage_2x2,
    "poset": fixtures.poset_table_instance,
}

GENERATED = {
    # two stable systems, linear agents only
    "gen-linear": ["--seed", "12", "--firms", "4", "--workers", "3",
                   "--density", "0.9", "--families", "linear"],
    # one stable system, six quota agents
    "gen-quota": ["--seed", "2", "--firms", "3", "--workers", "4",
                  "--families", "linear,quota"],
}

# no agents and no contracts: one stable system, the empty one
EMPTY = {"agents": [], "contracts": [], "choices": {}}

# the documents with linear orders throughout, which the classical
# solvers also answer
LINEAR = ("i1", "i3", "gen-linear")

# the last system each document's ``enumerate`` report lists
CHECKED = {
    "i1": ["e2"],
    "i3": ["e12", "e21"],
    "poset": ["x1", "x2"],
    "gen-linear": ["f2-w3", "f3-w2", "f4-w1"],
    "gen-quota": ["f1-w3", "f1-w4", "f2-w1", "f3-w2", "f3-w3", "f3-w4"],
}


def _doc(name: str) -> str:
    return str(GOLDEN / f"{name}.json")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in (*FIXTURES, *GENERATED):
        doc = _doc(name)
        cases[f"{name}.solve-ample"] = ["solve", "--trace", "--algorithm", "ample", doc]
        cases[f"{name}.solve-modest"] = ["solve", "--trace", "--algorithm", "modest", doc]
        cases[f"{name}.enumerate"] = ["enumerate", doc]
        cases[f"{name}.check"] = ["check", doc, *CHECKED[name]]
    for name in LINEAR:
        for algorithm in ("gs", "sotomayor"):
            cases[f"{name}.solve-{algorithm}"] = [
                "solve", "--algorithm", algorithm, _doc(name)
            ]
    cases["empty.enumerate"] = ["enumerate", _doc("empty")]
    for name in (*FIXTURES, *GENERATED, "empty"):
        cases[f"{name}.validate"] = ["validate", _doc(name)]
    cases["lemmas"] = ["lemmas", "--problems", "5", *map(_doc, GENERATED)]
    return cases


CASES = _cases()


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def _inputs() -> dict[str, str]:
    docs = {
        name: json.dumps(document_from_instance(make()), indent=2) + "\n"
        for name, make in FIXTURES.items()
    }
    for name, args in GENERATED.items():
        docs[name] = _stdout(["generate", *args])
    docs["empty"] = json.dumps(EMPTY, indent=2) + "\n"
    return docs


def test_inputs_are_current():
    for name, text in _inputs().items():
        assert (GOLDEN / f"{name}.json").read_text(encoding="utf-8") == text, name


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{case}.out").read_bytes()
    assert _stdout(CASES[case]).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in _inputs().items():
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_bytes(_stdout(argv).encode("utf-8"))
