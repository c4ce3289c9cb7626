import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import as_table, bad_table_documents
from stablecontracts import choice, cli, instance
from stablecontracts.choice import Table
from stablecontracts.contractsets import ids_of
from stablecontracts.fileformat import document_from_instance, instance_from_document
from stablecontracts.fixtures import (
    marriage_2x2,
    poset_table_instance,
    two_parallel_contracts,
)
from stablecontracts.instance import Instance
from stablecontracts.lemmas import LawResult


def _file(tmp_path, name: str, doc) -> str:
    """The path of ``tmp_path / name`` holding ``doc``: a text as it is, or
    any other value as JSON."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.fixture()
def i3_file(tmp_path):
    return _file(tmp_path, "i3.json", document_from_instance(marriage_2x2()))


@pytest.fixture()
def i1_file(tmp_path):
    return _file(tmp_path, "i1.json", document_from_instance(two_parallel_contracts()))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _generate(capsys, tmp_path, name: str, *flags: str) -> str:
    """The path of ``tmp_path / name`` holding the document ``generate``
    writes with ``flags``."""
    code, out, err = run(capsys, "generate", *flags)
    assert (code, err) == (0, "")
    return _file(tmp_path, name, out)


def _assert_stable(capsys, path: str, system: str) -> None:
    """``check``, which reads the agents' own choices, finds the printed
    ``system`` (such as ``{e1, e2}``) stable in ``path``."""
    labels = system.strip("{}").replace(",", "").split()
    code, out, err = run(capsys, "check", path, *labels)
    assert (code, err) == (0, "")
    assert out.endswith("\nstable = true\n")


def _assert_solvers_agree(capsys, path: str, algorithms) -> None:
    """Every solver in ``algorithms`` prints the same ``S = `` line on
    ``path``, and ``check`` confirms that system."""
    lines = set()
    for algorithm in algorithms:
        code, out, err = run(capsys, "solve", "--algorithm", algorithm, path)
        assert (code, err) == (0, "")
        lines.add(out.splitlines()[0])
    assert len(lines) == 1, lines
    _assert_stable(capsys, path, lines.pop().removeprefix("S = "))


def test_parser_is_reused_without_leaking_state(capsys, i3_file):
    # main builds its parser once per process; each call parses afresh
    assert cli.build_parser() is not cli.build_parser()
    traced = run(capsys, "solve", "--trace", i3_file)
    plain = run(capsys, "solve", i3_file)
    assert traced[1].startswith("B[0] = ") and plain[1].startswith("S = ")
    assert traced[1].endswith(plain[1])


class TestSolve:
    def test_ample_default(self, capsys, i3_file):
        code, out, err = run(capsys, "solve", "--algorithm", "ample", i3_file)
        assert code == 0
        assert out == "S = {e12, e21}\nsteps = 0\n"
        assert err == ""

    def test_ample_trace(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "ample", "--trace", i3_file)
        assert code == 0
        assert out.splitlines()[0] == "B[0] = {e11, e12, e21, e22}"

    def test_modest_default(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "modest", "--trace", i3_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Q[0] = {}"
        assert "S = {e12, e21}" in lines

    def test_gs(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "gs", i3_file)
        assert code == 0
        assert out == "S = {e12, e21}\n"

    def test_sotomayor(self, capsys, i3_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "sotomayor", i3_file)
        assert code == 0
        assert out == "S = {e12, e21}\n"

    def test_custom_ample_start(self, capsys, i1_file):
        code, out, _ = run(capsys, "solve", "--start", "e1", i1_file)
        assert code == 0
        assert "S = {e1}" in out

    def test_non_ample_start_is_domain_error(self, capsys, i1_file):
        code, out, err = run(capsys, "solve", "--start", "e2", i1_file)
        assert code == 1
        assert "not ample" in err

    def test_empty_modest_start(self, capsys, i1_file):
        code, out, _ = run(capsys, "solve", "--algorithm", "modest", "--start", "", i1_file)
        assert code == 0
        assert "S = {e2}" in out

    def test_start_with_gs_is_usage_error(self, capsys, i3_file):
        code, _, err = run(capsys, "solve", "--algorithm", "gs", "--start", "e11", i3_file)
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize("document, flags", [
        (None, ["--algorithm", "gs", "--trace"]),
        ("{not json", ["--algorithm", "sotomayor", "--start", "e11"]),
    ], ids=["missing", "malformed"])
    def test_usage_is_checked_before_the_document(self, capsys, tmp_path, document,
                                                  flags):
        # the flags alone decide: the document is never read
        path = tmp_path / "doc.json"
        if document is not None:
            path.write_text(document)
        code, out, err = run(capsys, "solve", *flags, str(path))
        assert (code, out) == (2, "")
        assert err == ("usage error: --start and --trace apply only to the ample "
                       "and modest algorithms\n")

    @pytest.mark.parametrize("algorithm, solver", [
        ("gs", "gale_shapley"), ("sotomayor", "sotomayor_insert_solve"),
    ])
    def test_classical_output_is_checked_for_stability(self, capsys, monkeypatch,
                                                       i3_file, algorithm, solver):
        # the empty matching of i3 is blocked by every contract
        monkeypatch.setattr(cli, solver, lambda inst: 0)
        code, out, err = run(capsys, "solve", "--algorithm", algorithm, i3_file)
        assert (code, out) == (3, "")
        assert err == (f"internal inconsistency: the {algorithm} solver returned "
                       f"an unstable system\n")

    @pytest.mark.parametrize("algorithm", ["ample", "modest"])
    def test_ample_and_modest_output_is_checked_for_stability(self, capsys, monkeypatch,
                                                              tmp_path, algorithm):
        # the document solves cleanly; then a one-pass count one byte wide
        # wraps f0's quota of 256 over its 300 contracts, the solvers settle
        # on a system that the agents' own choices reject, and not even the
        # trace is printed
        path = _file(tmp_path, "past255.json", _past_255_document("quota"))
        assert run(capsys, "solve", "--algorithm", algorithm, path)[::2] == (0, "")
        build = choice._RankedParts.__init__

        def narrow(self, *args):
            build(self, *args)
            self.count = np.dtype(np.uint8)
            self.quota = self.quota.astype(np.uint8)

        monkeypatch.setattr(choice._RankedParts, "__init__", narrow)
        code, out, err = run(capsys, "solve", "--algorithm", algorithm, "--trace", path)
        assert (code, out) == (3, "")
        assert err == (f"internal inconsistency: the {algorithm} solver returned "
                       f"an unstable system\n")

    def test_gs_on_quota_instance_is_domain_error(self, capsys, tmp_path):
        from stablecontracts.oracle import random_instance

        inst = random_instance(2, 2, 2, families=("quota",))
        path = _file(tmp_path, "quota.json", document_from_instance(inst))
        code, _, err = run(capsys, "solve", "--algorithm", "gs", path)
        assert code == 1
        assert "linear orders" in err

    def test_deterministic_bytes(self, capsys, i3_file):
        first = run(capsys, "solve", "--algorithm", "ample", "--trace", i3_file)
        second = run(capsys, "solve", "--algorithm", "ample", "--trace", i3_file)
        assert first == second

    @pytest.mark.parametrize("families, algorithms", [
        ("linear", ("ample", "modest", "gs", "sotomayor")),
        ("linear,quota", ("ample", "modest")),
    ], ids=["linear", "linear-quota"])
    def test_solvers_agree_on_40_agents_a_side(self, capsys, tmp_path, families,
                                               algorithms):
        # 415 contracts: the ample route answers in the one-pass evaluation,
        # the classical solvers agent by agent
        path = _generate(capsys, tmp_path, "wide.json", "--seed", "5", "--firms", "40",
                         "--workers", "40", "--density", "0.25", "--families", families)
        _assert_solvers_agree(capsys, path, algorithms)

    @pytest.mark.parametrize("variant, algorithms", [
        ("quota", ("ample", "modest")),
        ("linear", ("ample", "modest", "gs")),
    ], ids=["quota", "linear"])
    def test_solvers_agree_past_255_contracts_an_agent(self, capsys, tmp_path, variant,
                                                      algorithms):
        path = _file(tmp_path, "past255.json", _past_255_document(variant))
        _assert_solvers_agree(capsys, path, algorithms)

    def test_table_agent_past_id_63(self, capsys, tmp_path):
        path = _file(tmp_path, "past63.json", _behind_64_contracts(POSET))
        code, out, err = run(capsys, "solve", path)
        assert (code, err) == (0, "")
        assert out.startswith("S = {")


class TestEnumerate:
    def test_canonical_listing(self, capsys, i3_file):
        code, out, _ = run(capsys, "enumerate", i3_file)
        assert code == 0
        assert out == "count = 2\n{e11, e22}\n{e12, e21}\n"

    def test_two_parallel(self, capsys, i1_file):
        code, out, _ = run(capsys, "enumerate", i1_file)
        assert code == 0
        assert out == "count = 2\n{e1}\n{e2}\n"

    def test_listed_systems_are_checked_for_stability(self, capsys, monkeypatch,
                                                      i3_file):
        # both scans agree on the empty set, which every contract blocks
        for scan in ("enumerate_stable_via_ample", "brute_force_stable"):
            monkeypatch.setattr(cli, scan, lambda problem: [0])
        code, out, err = run(capsys, "enumerate", i3_file)
        assert (code, out) == (3, "")
        assert err == "internal inconsistency: the enumeration listed an unstable system\n"

    def test_tabulates_each_side_once(self, capsys, monkeypatch):
        # the enumerator and the oracle share one table per side
        original = choice.dense_table
        calls = []

        def counted(cf):
            calls.append(cf)
            return original(cf)

        for name, module in list(sys.modules.items()):
            if name.startswith("stablecontracts"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        doc = str(Path(__file__).parent / "golden" / "gen-linear.json")
        code, out, _ = run(capsys, "enumerate", doc)
        assert code == 0 and out.startswith("count = 2\n")
        assert len(calls) == 2

    def test_cross_check_mismatch_exits_3(self, capsys, i1_file, monkeypatch):
        monkeypatch.setattr(cli, "brute_force_stable", lambda problem: [])
        code, _, err = run(capsys, "enumerate", i1_file)
        assert code == 3
        assert "disagrees" in err

    def test_refuses_a_market_past_20_contracts(self, capsys, tmp_path):
        for path, size in (
            (_generate(capsys, tmp_path, "over20.json", "--seed", "2", "--firms", "3",
                       "--workers", "7"), 21),
            (_file(tmp_path, "past63.json", _behind_64_contracts(POSET)), 67),
        ):
            assert run(capsys, "enumerate", path) == (1, "", (
                f"error: ground has {size} contracts; power-set tables are capped at 20\n"))


class TestCheck:
    def test_stable_set(self, capsys, i3_file):
        code, out, _ = run(capsys, "check", i3_file, "e11", "e22")
        assert code == 0
        assert out == (
            "S = {e11, e22}\nacceptable = true\nblocking = {}\nstable = true\n"
        )

    @pytest.mark.parametrize("name, message", [
        ("is_stable", "the stability characterizations disagree on this set"),
        ("is_stable_multi", "two-agent and multi-agent stability disagree on this set"),
    ])
    def test_disagreeing_verdicts_exit_3(self, capsys, monkeypatch, i3_file, name,
                                         message):
        # the stable {e11, e22} called unstable by one of the checks
        monkeypatch.setattr(cli, name, lambda *args: False)
        code, out, err = run(capsys, "check", i3_file, "e11", "e22")
        assert (code, out) == (3, "")
        assert err == f"internal inconsistency: {message}\n"

    def test_empty_set_blocked_by_everything(self, capsys, i3_file):
        code, out, _ = run(capsys, "check", i3_file)
        assert code == 0
        assert "blocking = {e11, e12, e21, e22}" in out
        assert "stable = false" in out

    def test_unknown_contract(self, capsys, i3_file):
        code, _, err = run(capsys, "check", i3_file, "e99")
        assert code == 1
        assert "unknown contract label" in err

    def test_confirms_every_listed_system(self, capsys, tmp_path):
        # 20 contracts with every other agent a table of its own choice:
        # enumerate reads one table per side, check the agents' own choices
        code, out, _ = run(capsys, "generate", "--seed", "9", "--firms", "4",
                           "--workers", "5", "--families", "linear,quota")
        assert code == 0
        inst = instance_from_document(json.loads(out))
        assert inst.size == 20
        choices = dict(inst.choices)
        for agent in inst.agents[::2]:
            choices[agent.id] = as_table(choices[agent.id])
        doc = document_from_instance(Instance(inst.agents, inst.contracts, choices))
        path = _file(tmp_path, "tables.json", doc)
        code, out, _ = run(capsys, "enumerate", path)
        assert code == 0
        systems = out.splitlines()[1:]
        assert len(systems) >= 2
        for system in systems:
            _assert_stable(capsys, path, system)


WORKERS_13 = [f"w{i}" for i in range(13)]


def _star_document(firm_choice: dict, workers: list[str] = WORKERS_13) -> dict:
    """Single-contract workers (thirteen by default), then one firm holding
    all of them."""
    return {
        "agents": [{"id": w, "side": "worker"} for w in workers]
        + [{"id": "f", "side": "firm"}],
        "contracts": [{"id": w, "firm": "f", "worker": w} for w in workers],
        "choices": {
            **{w: {"family": "linear", "payload": [w]} for w in workers},
            "f": firm_choice,
        },
    }


def _behind_64_contracts(doc: dict) -> dict:
    """``doc`` with a filler firm's 64 contracts declared first, so its own
    contracts get ids 64 and above; the filler agents are listed last."""
    filler = [f"v{j}" for j in range(64)]
    return {
        "agents": doc["agents"]
        + [{"id": "g", "side": "firm"}]
        + [{"id": v, "side": "worker"} for v in filler],
        "contracts": [{"id": f"g-{v}", "firm": "g", "worker": v} for v in filler]
        + doc["contracts"],
        "choices": {
            **doc["choices"],
            "g": {"family": "linear", "payload": [f"g-{v}" for v in filler]},
            **{v: {"family": "linear", "payload": [f"g-{v}"]} for v in filler},
        },
    }


POSET = document_from_instance(poset_table_instance())


def _past_255_document(variant: str) -> dict:
    """40 firms and 300 workers: f0 holds a contract with every worker and
    each other firm with 8 drawn ones, so the firm side's one-pass count is
    wider than a byte, and the worker side's byte-wide count wraps over its
    layout.  Every agent ranks its contracts in a drawn linear order;
    variant "quota" gives f0 a quota of 256 over its order instead."""
    rng = random.Random(19)
    firms = [f"f{i}" for i in range(40)]
    workers = [f"w{j}" for j in range(300)]
    pairs = [("f0", w) for w in workers]
    pairs += [(f, w) for f in firms[1:] for w in rng.sample(workers, 8)]
    contracts = [{"id": f"c{n}", "firm": f, "worker": w} for n, (f, w) in enumerate(pairs)]
    orders = {a: [] for a in firms + workers}
    for c in contracts:
        orders[c["firm"]].append(c["id"])
        orders[c["worker"]].append(c["id"])
    for labels in orders.values():
        rng.shuffle(labels)
    choices = {a: {"family": "linear", "payload": o} for a, o in orders.items()}
    if variant == "quota":
        choices["f0"] = {"family": "quota", "payload": {"q": 256, "priority": orders["f0"]}}
    return {
        "agents": [{"id": f, "side": "firm"} for f in firms]
        + [{"id": w, "side": "worker"} for w in workers],
        "contracts": contracts,
        "choices": choices,
    }


def _poset_with(edit) -> dict:
    """The poset fixture's document with ``edit`` applied to its table rows
    (canonical order: [], [x1], [x2], [x3], [x1, x2], ...)."""
    doc = document_from_instance(poset_table_instance())
    edit(doc["choices"]["f1"]["payload"])
    return doc


def _dup_then_dangling(rows):
    rows.insert(2, dict(rows[1]))
    rows[5]["choice"] = ["ghost"]


def _dangling_then_dup(rows):
    rows[1]["choice"] = ["ghost"]
    rows.append(dict(rows[4]))


def _repeat_then_non_string(rows):
    rows[1]["menu"] = ["x1", "x1"]
    rows[4]["menu"] = ["x1", None]


def _repeat_and_non_string_in_one_row(rows):
    # labels are resolved before repeats are counted
    rows[4]["menu"] = ["x1", "x1", None]


def _known_repeat_then_dangling(rows):
    # x1 already has its bit when row 4 repeats it
    rows[4]["menu"] = ["x1", "x1"]
    rows[6]["choice"] = ["ghost"]


def _known_choice_repeat_then_dangling(rows):
    rows[4]["choice"] = ["x1", "x1"]
    rows[6]["choice"] = ["ghost"]


def _object_menu_then_dangling(rows):
    # an object whose keys are known labels is still no list
    rows[4]["menu"] = {"x1": 0, "x2": 0}
    rows[6]["choice"] = ["ghost"]


def _outside_before_missing(rows):
    del rows[2]
    rows[1]["choice"] = ["x2"]


def _missing_before_outside(rows):
    del rows[1]
    rows[1]["choice"] = ["x1"]


# two faults each, and the stderr of the one reported first; both texts as
# the label-by-label decoder printed them
TWO_FAULTS = {
    "dup-then-dangling": (
        _dup_then_dangling, "[malformed]: agent 'f1': duplicate table row for one menu"
    ),
    "dangling-then-dup": (
        _dangling_then_dup,
        "[dangling-reference]: agent 'f1' references unknown contract 'ghost'",
    ),
    "repeat-then-non-string": (
        _repeat_then_non_string,
        "[malformed]: agent 'f1': table row menu repeats a contract id",
    ),
    "repeat-and-non-string-in-one-row": (
        _repeat_and_non_string_in_one_row,
        "[malformed]: agent 'f1': contract id None is not a string",
    ),
    "known-repeat-then-dangling": (
        _known_repeat_then_dangling,
        "[malformed]: agent 'f1': table row menu repeats a contract id",
    ),
    "known-choice-repeat-then-dangling": (
        _known_choice_repeat_then_dangling,
        "[malformed]: agent 'f1': table row choice repeats a contract id",
    ),
    "object-menu-then-dangling": (
        _object_menu_then_dangling,
        "[malformed]: agent 'f1': expected a list of contract ids",
    ),
    "outside-before-missing": (
        _outside_before_missing,
        "[malformed]: agent 'f1': table entry for menu [{x1}] chooses outside it",
    ),
    "missing-before-outside": (
        _missing_before_outside,
        "[malformed]: agent 'f1': table is not total: menu [{x1}] is missing",
    ),
}


class TestTableFirstFault:
    @pytest.mark.parametrize("name", sorted(TWO_FAULTS))
    @pytest.mark.parametrize("shift", [0, 64])
    def test_names_the_first_fault(self, capsys, tmp_path, name, shift):
        edit, message = TWO_FAULTS[name]
        doc = _poset_with(edit)
        if shift:
            doc = _behind_64_contracts(doc)
        path = _file(tmp_path, "faults.json", doc)
        for command in ("validate", "solve", "enumerate"):
            assert run(capsys, command, path) == (
                1, "", f"error {message.format(x1=shift)}\n"
            )


class TestValidate:
    def test_valid_instance(self, capsys, i3_file):
        code, out, _ = run(capsys, "validate", i3_file)
        assert code == 0
        assert out.endswith("valid\n")
        assert out.count(": ok") == 4

    @pytest.mark.parametrize("name", ["consistency", "substitutability", "both"])
    def test_bad_tables_fail_with_witness(self, capsys, tmp_path, name):
        path = _file(tmp_path, f"bad_{name}.json", bad_table_documents()[name])
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert "failed at" in out
        assert "axiom-violation" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nope/missing.json")
        assert code == 1
        assert "[io]" in err

    def test_ground_mismatch_is_coded(self, capsys, tmp_path):
        doc = document_from_instance(marriage_2x2())
        worker = next(a["id"] for a in doc["agents"] if a["side"] == "worker")
        doc["choices"][worker] = {"family": "linear", "payload": []}
        path = _file(tmp_path, "mismatch.json", doc)
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        # the firms, listed before the worker at fault, passed their checks
        assert out == "agent f1: ok\nagent f2: ok\n"
        assert "[malformed]" in err and repr(worker) in err

    def test_agent_over_the_cap_is_coded(self, capsys, tmp_path):
        # the firm's best-first choice written out as a 13-contract table
        table = [
            {
                "menu": [WORKERS_13[i] for i in ids_of(menu)],
                "choice": [WORKERS_13[ids_of(menu)[0]]] if menu else [],
            }
            for menu in range(1 << 13)
        ]
        doc = _star_document({"family": "table", "payload": table})
        path = _file(tmp_path, "over_cap.json", doc)
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert out == "".join(f"agent {w}: ok\n" for w in WORKERS_13)
        assert "[malformed]" in err and "capped at 12" in err and "agent 'f'" in err

    def test_linear_agent_over_the_old_cap_validates(self, capsys, tmp_path):
        doc = _star_document({"family": "linear", "payload": WORKERS_13})
        path = _file(tmp_path, "linear_13.json", doc)
        code, out, err = run(capsys, "validate", path)
        assert code == 0
        assert out == "".join(f"agent {a}: ok\n" for a in WORKERS_13 + ["f"]) + "valid\n"
        assert err == ""

    @pytest.mark.parametrize(
        "doc",
        [POSET, bad_table_documents()["consistency"]],
    )
    def test_table_agent_past_id_63(self, capsys, tmp_path, doc):
        # the table's menus and choices hold ids past int64's bits
        reports = []
        for name, d in (("plain", doc), ("shifted", _behind_64_contracts(doc))):
            path = _file(tmp_path, f"{name}.json", d)
            reports.append(run(capsys, "validate", path))
        (code, out, err), (shifted_code, shifted_out, shifted_err) = reports
        assert (shifted_code, shifted_err) == (code, err)
        filler = "agent g: ok\n" + "".join(f"agent v{j}: ok\n" for j in range(64))
        if code == 0:
            assert shifted_out == out.replace("valid\n", filler + "valid\n")
        else:
            assert shifted_out == out and "failed at" in out

    def test_scans_each_agent_once(self, capsys, tmp_path, monkeypatch):
        # each table agent, that is: linear and quota agents skip the scan
        calls = []
        original = instance.validate_plott

        def counting(cf, *args):
            calls.append(cf)
            return original(cf, *args)

        monkeypatch.setattr(instance, "validate_plott", counting)
        for name, doc, code, tables in (
            ("i3", document_from_instance(marriage_2x2()), 0, 0),
            ("poset", POSET, 0, 1),
            ("consistency", bad_table_documents()["consistency"], 1, 1),
        ):
            path = _file(tmp_path, f"{name}.json", doc)
            calls.clear()
            assert run(capsys, "validate", path)[0] == code
            assert len(calls) == tables
            assert all(isinstance(cf, Table) for cf in calls)

    def test_false_path_independence_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        # a path-independence rule that fails a valid table contradicts
        # the other two axioms: the self-check stops the load
        path = _file(tmp_path, "poset.json", POSET)
        cons, subst, (name, _, finder) = choice._PLOTT_LAWS
        monkeypatch.setattr(choice, "_PLOTT_LAWS", (
            cons, subst, (name, lambda arr, *steps: False, finder),
        ))
        code, out, err = run(capsys, "solve", path)
        assert code == 3
        assert out == ""
        assert err.startswith("internal inconsistency: ")

    def test_reports_the_same_first_fault_as_solve(self, capsys, tmp_path):
        # a ground mismatch on the first-listed agent, then a table agent
        # that breaks consistency: both commands stop at the mismatch
        doc = bad_table_documents()["consistency"]
        doc["agents"].reverse()
        doc["choices"][doc["agents"][0]["id"]]["payload"] = []
        path = _file(tmp_path, "two_faults.json", doc)
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert out == ""
        assert "[malformed]" in err
        assert run(capsys, "solve", path) == (code, "", err)


def _choices_as_a_list():
    doc = document_from_instance(marriage_2x2())
    doc["choices"] = list(doc["choices"].values())
    return doc


def _table_payload_as_an_object():
    doc = document_from_instance(poset_table_instance())
    doc["choices"]["f1"]["payload"] = {"menu": [], "choice": []}
    return doc


def _table_row_over_21_contracts():
    workers = [f"w{i}" for i in range(21)]
    row = {"menu": workers, "choice": workers[:1]}
    return _star_document({"family": "table", "payload": [row]}, workers)


_QUOTA_PAYLOAD = "agent 'f': quota payload needs 'q' and 'priority'"


def _quota_document(payload):
    return _star_document({"family": "quota", "payload": payload}, ["w1", "w2"])


class TestMalformedSections:
    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("make, message", [
        (list, "document root must be an object"),
        (_choices_as_a_list, "'choices' must be an object keyed by agent id"),
        (_table_payload_as_an_object, "agent 'f1': table payload must be a list"),
        (_table_row_over_21_contracts,
         "agent 'f': ground has 21 contracts; power-set tables are capped at 20"),
        (lambda: _quota_document(["w1", "w2"]), _QUOTA_PAYLOAD),
        (lambda: _quota_document({"priority": ["w1", "w2"]}), _QUOTA_PAYLOAD),
        (lambda: _quota_document({"q": 1}), _QUOTA_PAYLOAD),
    ], ids=["root", "choices", "table-payload", "table-size", "quota-list",
            "quota-no-q", "quota-no-priority"])
    def test_exits_1_with_the_malformed_line(self, capsys, tmp_path, command, make,
                                             message):
        path = _file(tmp_path, "doc.json", make())
        assert run(capsys, command, path) == (1, "", f"error [malformed]: {message}\n")


def _i3_text(old: str, new: str) -> str:
    """The i3 document's JSON text with every ``old`` replaced by ``new``,
    which ``json.dumps`` cannot write: an integer past Python's int-string
    limit, or a lone surrogate escape as it stands."""
    return json.dumps(document_from_instance(marriage_2x2())).replace(old, new)


# documents that decode to no printable market, by what is spliced in
HOSTILE_TEXTS = {
    "long-integer-label": ('"e11"', "1" * 5000),
    "surrogate-label": ('"e11"', '"\\ud800"'),
    "surrogate-agent-id": ('"f1"', '"\\ud800"'),
}


class TestHostileText:
    @pytest.mark.parametrize("command", ["validate", "solve", "enumerate", "check"])
    @pytest.mark.parametrize("name", HOSTILE_TEXTS)
    def test_exits_1_with_the_malformed_line(self, capsys, tmp_path, command, name):
        path = _file(tmp_path, "doc.json", _i3_text(*HOSTILE_TEXTS[name]))
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        if name == "long-integer-label":
            assert err.startswith(f"error [malformed]: {path} is not valid JSON: ")
            assert err.count("\n") == 1
        else:
            assert err == (f"error [malformed]: {path} holds a lone surrogate escape, "
                           f"which is not Unicode text\n")

    def test_a_surrogate_pair_is_one_character(self, capsys, tmp_path):
        # an escaped pair decodes to one code point, which prints as UTF-8
        path = _file(tmp_path, "doc.json", _i3_text('"e12"', '"\\ud83d\\ude00"'))
        assert run(capsys, "solve", path) == (0, "S = {\U0001f600, e21}\nsteps = 0\n", "")


class TestGenerate:
    def test_round_trips_through_validate(self, capsys, tmp_path):
        path = _generate(capsys, tmp_path, "generated.json", "--seed", "3", "--firms", "2",
                         "--workers", "3", "--families", "linear,quota")
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        # one `ok` line for each of the 5 agents, then the verdict
        assert out.count(": ok") == 5
        assert out.splitlines()[-1] == "valid"

    def test_complete_market_past_the_old_cap(self, capsys, tmp_path):
        # every agent has 13 contracts, one more than a table may have
        path = _generate(capsys, tmp_path, "complete_13.json", "--firms", "13",
                         "--workers", "13")
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert out.count(": ok") == 26 and out.endswith("valid\n")
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        assert out.startswith("S = {")

    def test_a_2025_contract_market_validates_and_solves(self, capsys, tmp_path):
        # a complete 45x45 linear/quota market loads through the decoder's
        # one pass per record, and its solution is stable
        path = _generate(capsys, tmp_path, "big.json", "--seed", "3", "--firms", "45",
                         "--workers", "45", "--families", "linear,quota")
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert out.count(": ok") == 90
        assert out.splitlines()[-1] == "valid"
        code, out, err = run(capsys, "solve", path)
        assert (code, err) == (0, "")
        _assert_stable(capsys, path, out.splitlines()[0].removeprefix("S = "))

    @pytest.mark.parametrize("families", ["", ","])
    def test_a_mix_naming_no_family_is_refused(self, capsys, families):
        code, out, err = run(capsys, "generate", "--firms", "2", "--workers", "2",
                             "--families", families)
        assert (code, out) == (1, "")
        assert err == "error: families must name linear, quota or both, got []\n"

    def test_deterministic(self, capsys):
        a = run(capsys, "generate", "--seed", "5", "--firms", "2", "--workers", "2")
        b = run(capsys, "generate", "--seed", "5", "--firms", "2", "--workers", "2")
        assert a == b


class TestLemmas:
    def test_table_all_pass(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--problems", "5", "--seed", "11")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("problems = ")
        assert lines[-1] == "overall = pass"
        assert sum(1 for line in lines if line.endswith("pass")) >= 12

    def test_corpus_up_to_the_witness_cap_passes(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--problems", "5", "--max-contracts", "12")
        assert code == 0
        assert out.endswith("\noverall = pass\n")

    def test_includes_extra_files(self, capsys, i1_file):
        code, out, _ = run(capsys, "lemmas", "--problems", "0", i1_file)
        assert code == 0
        assert "problems = 4" in out

    @pytest.mark.parametrize("flags", [["--max-contracts", "0"], ["--max-contracts", "-3"],
                                       ["--problems", "-1"]])
    def test_empty_corpus_bounds_are_coded(self, capsys, flags):
        code, out, err = run(capsys, "lemmas", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_a_failing_law_exits_3_with_its_witness(self, capsys, monkeypatch):
        results = [
            LawResult("L1", "choice equals desirables within the menu", True),
            LawResult("L3", "ample fixpoints yield stable systems", False, "i3: B={0}"),
        ]
        monkeypatch.setattr(cli, "run_lemma_suite", lambda problems: results)
        code, out, err = run(capsys, "lemmas", "--problems", "0")
        assert code == 3
        assert out == (
            "problems = 3\n"
            "L1    choice equals desirables within the menu         pass\n"
            "L3    ample fixpoints yield stable systems             FAIL\n"
            "      witness i3: B={0}\n"
            "overall = FAIL\n"
        )
        assert err == "internal inconsistency: the lemma suite found a violated law\n"

    def test_refuses_a_problem_over_the_cap(self, capsys, tmp_path):
        doc = _star_document({"family": "linear", "payload": WORKERS_13})
        path = _file(tmp_path, "linear_13.json", doc)
        code, out, err = run(capsys, "lemmas", "--problems", "0", path)
        assert code == 1
        assert out == ""
        assert "capped at 12" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2


def _cli_subprocess(argv, stdout, unbuffered=True, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "stablecontracts", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60, **kwargs,
    )


def _closed_pipe_run(argv, unbuffered):
    r, w = os.pipe()
    os.close(r)
    try:
        return _cli_subprocess(argv, w, unbuffered)
    finally:
        os.close(w)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_is_a_coded_error(i3_file, unbuffered):
    # unbuffered, the first print meets the closed pipe; buffered, the
    # report reaches it only when stdout is flushed
    proc = _closed_pipe_run(["enumerate", i3_file], unbuffered)
    assert proc.returncode == 1
    assert proc.stderr == b"error [io]: standard output was closed\n"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_after_a_failure_report(tmp_path, unbuffered):
    # validate prints the failing agent, then exits with the coded error
    path = _file(tmp_path, "bad.json", bad_table_documents()["consistency"])
    proc = _closed_pipe_run(["validate", path], unbuffered)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert lines[-1] == "error [io]: standard output was closed"
    assert all(line.startswith("error [") for line in lines)


def test_stdout_closed_at_start_is_no_traceback(i3_file):
    # Python sets sys.stdout to None, where every print would vanish
    proc = _cli_subprocess(
        ["enumerate", i3_file], subprocess.DEVNULL, preexec_fn=lambda: os.close(1)
    )
    assert proc.returncode == 1
    assert proc.stderr == b"error [io]: standard output was closed\n"
