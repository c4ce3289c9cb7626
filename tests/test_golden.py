"""Golden CLI reports: byte-exact stdout of every report-producing command
on six fixed documents: ``solve`` (each algorithm the document admits),
``enumerate``, ``check``, ``validate`` and ``lemmas``; and the refusal
``validate`` gives two documents that break an axiom.

``tests/golden/`` holds the input documents (the three fixtures, two
``stablecontracts generate`` documents of at most 12 contracts, the empty
market and the two refused markets) and one ``<case>.out`` file per
command below.  Every document has a ``validate`` report; the empty market
has no ``solve`` or ``check`` case, and a refused market's ``validate``
exits 1 with its stderr in ``<case>.err``.  A report may change only on
purpose; after such a change, rewrite the files with

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
from stablecontracts.ample import ag_solve
from stablecontracts.choice import Aggregate
from stablecontracts.errors import InternalInconsistencyError
from stablecontracts.fileformat import document_from_instance, load_components
from stablecontracts.instance import Side, TwoAgentProblem
from stablecontracts.modest import yang_solve
from stablecontracts.oracle import brute_force_stable

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


def _without_an_axiom(f1_rows: list[tuple[list[str], list[str]]],
                      w2_order: list[str]) -> dict:
    """A 2×2 market of ``test_oracle.py::TestWithoutTheAxioms``, one
    contract per pair: firm f1 the table of ``f1_rows`` (menu, choice),
    f2 and w1 linear orders, and w2 the linear order ``w2_order``."""
    agents = [{"id": a, "side": side} for a, side in
              (("f1", "firm"), ("f2", "firm"), ("w1", "worker"), ("w2", "worker"))]
    contracts = [{"id": f"{f}-{w}", "firm": f, "worker": w}
                 for f in ("f1", "f2") for w in ("w1", "w2")]
    table = [{"menu": menu, "choice": choice} for menu, choice in f1_rows]
    choices = {
        "f1": {"family": "table", "payload": table},
        "f2": {"family": "linear", "payload": ["f2-w1", "f2-w2"]},
        "w1": {"family": "linear", "payload": ["f1-w1", "f2-w1"]},
        "w2": {"family": "linear", "payload": w2_order},
    }
    return {"agents": agents, "contracts": contracts, "choices": choices}


# markets whose firm f1 breaks one axiom, which ``validate`` refuses with
# the axiom and its first witness.  Read as a ``TwoAgentProblem``, which
# trusts its sides, the first has no stable system, and the second has
# one, {f1-w1, f2-w2}, that the descent misses
REFUSED = {
    "breaks-substitutability": _without_an_axiom(
        [([], []), (["f1-w1"], []), (["f1-w2"], ["f1-w2"]),
         (["f1-w1", "f1-w2"], ["f1-w1", "f1-w2"])],
        ["f2-w2", "f1-w2"],
    ),
    "breaks-consistency": _without_an_axiom(
        [([], []), (["f1-w1"], ["f1-w1"]), (["f1-w2"], []),
         (["f1-w1", "f1-w2"], [])],
        ["f1-w2", "f2-w2"],
    ),
}

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


def _run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _stdout(argv: list[str]) -> str:
    code, out, _ = _run(argv)
    assert code == 0, f"{argv} exited {code}"
    return out


def _inputs() -> dict[str, str]:
    docs = {
        name: json.dumps(document_from_instance(make()), indent=2) + "\n"
        for name, make in FIXTURES.items()
    }
    for name, args in GENERATED.items():
        docs[name] = _stdout(["generate", *args])
    docs["empty"] = json.dumps(EMPTY, indent=2) + "\n"
    for name, doc in REFUSED.items():
        docs[name] = json.dumps(doc, indent=2) + "\n"
    return docs


def test_inputs_are_current():
    for name, text in _inputs().items():
        assert (GOLDEN / f"{name}.json").read_text(encoding="utf-8") == text, name


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{case}.out").read_bytes()
    assert _stdout(CASES[case]).encode("utf-8") == expected


@pytest.mark.parametrize("name", REFUSED)
def test_validate_refuses_with_the_axiom_and_its_witness(name):
    code, out, err = _run(["validate", _doc(name)])
    assert code == 1
    assert out.encode("utf-8") == (GOLDEN / f"{name}.validate.out").read_bytes()
    assert err.encode("utf-8") == (GOLDEN / f"{name}.validate.err").read_bytes()


def test_refused_markets_break_the_theorem():
    problems = {}
    for name in REFUSED:
        agents, _, choices = load_components(_doc(name))
        problems[name] = TwoAgentProblem(*(
            Aggregate(tuple(choices[a.id] for a in agents if a.side is side))
            for side in (Side.FIRM, Side.WORKER)
        ))
    assert brute_force_stable(problems["breaks-substitutability"]) == []
    problem = problems["breaks-consistency"]
    assert brute_force_stable(problem) == [0b1001]
    with pytest.raises(InternalInconsistencyError, match="^descent fixpoint"):
        ag_solve(problem)
    assert yang_solve(problem).system == 0b1001


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in _inputs().items():
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_bytes(_stdout(argv).encode("utf-8"))
    for name in REFUSED:
        _, out, err = _run(["validate", _doc(name)])
        (GOLDEN / f"{name}.validate.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{name}.validate.err").write_bytes(err.encode("utf-8"))
