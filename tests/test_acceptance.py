"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The corpora are seeded and fixed; every tolerance and
bound is pinned here, not configurable.
"""

import itertools
import random
import time

import pytest

from conftest import bad_table_documents, classical_corpus, redeclared, submasks
from stablecontracts import cli
from stablecontracts.ample import ag_solve, enumerate_stable_via_ample
from stablecontracts.choice import validate_plott
from stablecontracts.classical import gale_shapley, sotomayor_insert_solve
from stablecontracts.contractsets import mask_of
from stablecontracts.errors import ParseError
from stablecontracts.fileformat import instance_from_document
from stablecontracts.fixtures import marriage_2x2
from stablecontracts.instance import reduce_to_two_agents
from stablecontracts.modest import yang_solve
from stablecontracts.oracle import brute_force_stable, random_corpus
from stablecontracts.stability import (
    blocking_contracts,
    is_acceptable,
    is_stable,
    is_stable_prop1,
    is_stable_multi,
)

EXISTENCE_CORPUS_SIZE = 1000
EXISTENCE_BUDGET_SECONDS = 60.0
EQUIVALENCE_CORPUS_SIZE = 200
CLASSICAL_CORPUS_SIZE = 500


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


@pytest.fixture(scope="module")
def existence_runs():
    """The criterion-1 corpus with oracle and both solver routes applied,
    plus the wall-clock time the whole sweep took."""
    started = time.perf_counter()
    runs = []
    for inst in random_corpus(
        EXISTENCE_CORPUS_SIZE, master_seed=2025, max_contracts=8
    ):
        problem = reduce_to_two_agents(inst)
        stable = brute_force_stable(problem)
        descending = ag_solve(problem)
        ascending = yang_solve(problem)
        runs.append((inst, problem, stable, descending, ascending))
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_1_existence(existence_runs):
    runs, elapsed = existence_runs
    ok = len(runs) == EXISTENCE_CORPUS_SIZE
    for _, _, stable, descending, ascending in runs:
        ok = ok and bool(stable)
        ok = ok and descending.system in stable
        ok = ok and ascending.system in stable
    within_budget = elapsed < EXISTENCE_BUDGET_SECONDS
    _report(
        1,
        "stable systems always exist",
        ok and within_budget,
        f"{len(runs)} instances in {elapsed:.1f}s",
    )


def test_criterion_2_three_way_equivalence():
    disagreements = 0
    for inst in random_corpus(
        EQUIVALENCE_CORPUS_SIZE, master_seed=2026, max_contracts=8
    ):
        problem = reduce_to_two_agents(inst)
        for s in submasks(problem.ground):
            definitional = is_acceptable(problem, s) and not blocking_contracts(
                problem, s
            )
            fixed_point = is_stable(problem, s)
            asymmetric = is_stable_prop1(problem, s)
            if not (definitional == fixed_point == asymmetric):
                disagreements += 1
    _report(
        2,
        "three stability characterizations agree",
        disagreements == 0,
        f"{EQUIVALENCE_CORPUS_SIZE} problems, exhaustive subsets",
    )


def test_criterion_3_lemma_suite(capsys):
    code = cli.main(
        ["lemmas", "--problems", "40", "--seed", "2027", "--max-contracts", "8"]
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    rows = [line for line in lines if line and line[0].isalnum() and " " in line]
    table_ok = (
        code == 0
        and lines[-1] == "overall = pass"
        and sum(1 for line in rows if line.endswith("pass")) >= 12
        and not any(line.endswith("FAIL") for line in lines)
    )
    print(out)
    _report(3, "lemma suite exhaustive at |E| <= 8", table_ok)


def test_criterion_4_enumeration_completeness(existence_runs):
    runs, _ = existence_runs
    mismatches = 0
    for _, problem, stable, _, _ in runs:
        if enumerate_stable_via_ample(problem) != stable:
            mismatches += 1
    _report(
        4,
        "ample-route enumeration equals brute force",
        mismatches == 0,
        f"{len(runs)} instances, zero symmetric difference required",
    )


def test_criterion_5_classical_agreement():
    ok = True
    order_rng = random.Random(20285)
    for inst in classical_corpus(CLASSICAL_CORPUS_SIZE, 2028):
        problem = reduce_to_two_agents(inst)
        if gale_shapley(inst) != ag_solve(problem).system:
            ok = False
        workers = list(inst.workers())
        if len(workers) <= 4:
            orders = list(itertools.permutations(workers))
        else:
            orders = []
            for _ in range(10):
                order_rng.shuffle(workers)
                orders.append(tuple(workers))
        for order in orders:
            if not is_stable_multi(inst, sotomayor_insert_solve(redeclared(inst, order))):
                ok = False

    i3 = marriage_2x2()
    worker_optimal = mask_of([1, 2])  # {e21, e12}
    firm_optimal = mask_of([0, 3])  # {e11, e22}
    ok = ok and gale_shapley(i3) == worker_optimal
    ok = ok and enumerate_stable_via_ample(reduce_to_two_agents(i3)) == [
        firm_optimal,
        worker_optimal,
    ]
    _report(
        5,
        "deferred acceptance agrees with the descending route",
        ok,
        f"{CLASSICAL_CORPUS_SIZE} classical instances up to 6x6",
    )


def test_criterion_6_termination_bounds(existence_runs):
    runs, _ = existence_runs
    ok = True
    for _, problem, _, descending, ascending in runs:
        if descending.steps > problem.size:
            ok = False
        if ascending.steps > problem.size + 1:
            ok = False
    _report(
        6,
        "iteration bounds: descent <= |E|, ascent <= |E|+1 steps",
        ok,
    )


def test_criterion_7_validator_soundness(existence_runs):
    expected_witnesses = {
        "consistency": ("consistency", (mask_of([0, 1, 2]), mask_of([0, 1]))),
        "substitutability": ("substitutability", (mask_of([0]), mask_of([0, 1]))),
        "both": ("consistency", (mask_of([0, 1]), mask_of([0]))),
    }
    ok = True
    for name, doc in bad_table_documents().items():
        try:
            instance_from_document(doc)
            ok = False
            continue
        except ParseError as err:
            if err.code != "axiom-violation":
                ok = False
                continue
            axiom, witness = expected_witnesses[name]
            # the full report travels on the chained ChoiceValidationError
            report = getattr(err.__cause__, "report", None)
            if report is None:
                ok = False
                continue
            check = report.check(axiom)
            if check.passed or check.witness != witness:
                ok = False

    runs, _ = existence_runs
    for inst, _, _, _, _ in runs:
        for cf in inst.choices.values():
            if not validate_plott(cf).passed:
                ok = False
    _report(
        7,
        "axiom validator: crafted tables fail with minimal witness, "
        "ordered families pass",
        ok,
    )
