import pytest

from conftest import m, naive_desirable, submasks
from stablecontracts import lemmas
from stablecontracts.choice import ChoiceFunction, LinearOrder, Table
from stablecontracts.contractsets import canonical_sorted, ids_of
from stablecontracts.errors import CapExceededError
from stablecontracts.instance import TwoAgentProblem, reduce_to_two_agents
from stablecontracts.lemmas import LAWS, run_lemma_suite
from stablecontracts.oracle import random_corpus


def test_all_laws_pass_on_fixture_and_random_problems(p1, p3, poset):
    problems = [("i1", p1), ("i3", p3), ("poset", reduce_to_two_agents(poset))]
    for i, inst in enumerate(random_corpus(15, master_seed=149, max_contracts=8)):
        problems.append((f"rnd-{i}", reduce_to_two_agents(inst)))
    results = run_lemma_suite(problems)
    assert len(results) == len(LAWS)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def _naive_detail(problem, key):
    """The L2A, L2B or LOB detail straight from the definitions: the first
    side with a witness, and its first offending A (or A, B) in canonical
    order; None when the law holds."""
    for name, cf in (("firm", problem.firm), ("worker", problem.worker)):
        order = canonical_sorted(submasks(cf.ground))
        d = {a: naive_desirable(cf, a) for a in order}
        if key == "L2A":
            bad = (
                (a, b) for a in order for b in order if a & ~b == 0 and d[b] & ~d[a]
            )
        elif key == "L2B":
            bad = ((a,) for a in order if d[a] != d[cf.evaluate(a)])
        else:
            bad = ((a,) for a in order if d[a] != d[a & d[a]])
        witness = next(bad, None)
        if witness is not None:
            sets = ", ".join(
                f"{n}={{{', '.join(map(str, ids_of(w)))}}}"
                for n, w in zip("AB", witness)
            )
            return f"bad: {name} side: {sets}"
    return None


def test_suite_detects_laws_broken_by_invalid_input():
    """Feeding a non-substitutable table produces concrete witnesses.

    TwoAgentProblem does not re-validate its choice functions, so the suite
    can be pointed at an invalid problem to prove it actually checks things.
    """
    complements = Table(m(0, 1), {0: 0, m(0): 0, m(1): 0, m(0, 1): m(0, 1)})
    # C({1, 2}) = {1}, C({0, 1, 2}) = {2}, every other menu chooses nothing:
    # each law's canonical-first witness differs from its integer-first one
    sparse = Table(
        m(0, 1, 2),
        {a: 0 for a in submasks(m(0, 1, 2))} | {m(1, 2): m(1), m(0, 1, 2): m(2)},
    )
    for problem in (
        TwoAgentProblem(complements, complements),
        TwoAgentProblem(sparse, LinearOrder((2, 0, 1))),
    ):
        results = {r.key: r for r in run_lemma_suite([("bad", problem)])}
        assert not results["L2A"].passed
        for key in ("L2A", "L2B", "LOB"):
            expected = _naive_detail(problem, key)
            assert results[key].passed == (expected is None)
            assert results[key].detail == (expected or "")


def _naive_route_details(problem):
    """Each route law's detail straight from the definitions: the first
    ample B or modest Q in canonical order that breaks it, or None."""
    f, w = problem.firm.evaluate, problem.worker.evaluate
    g = problem.ground

    def d_f(s):
        return naive_desirable(problem.firm, s)

    def ample(b):
        return d_f(w(b)) & ~b == 0

    def modest(q):
        return q & ~w(d_f(q)) == 0

    def stable(s):
        return s == d_f(s) & naive_desirable(problem.worker, s)

    def descent(b):
        return (b & ~w(b)) | f(w(b))

    def ascent(q):
        return f(w(d_f(q)))

    flaws = {
        "L3": ("B", ample, lambda b: f(w(b)) == w(b) and not stable(w(b))),
        "L4": ("B", ample, lambda b: descent(b) & ~b or not ample(descent(b))),
        "L5": ("Q", modest, lambda q: f(q) != q or w(q) != q),
        "L6": ("Q", modest, lambda q: not modest(ascent(q))),
        "L6D": ("Q", modest, lambda q: d_f(ascent(q)) & ~d_f(q) != 0),
        "DAM": ("B", ample, lambda b: not modest(f(w(b)))),
        "DMA": ("Q", modest, lambda q: not ample(d_f(q))),
    }
    details = {}
    for key, (name, kind, flaw) in flaws.items():
        s = next((s for s in canonical_sorted(submasks(g)) if kind(s) and flaw(s)), None)
        details[key] = None if s is None else (
            f"bad: {name}={{{', '.join(map(str, ids_of(s)))}}}"
        )
    return details


def test_route_laws_name_the_first_broken_set():
    """An invalid two-table problem breaks every route law; each detail
    names the walk's first offending set."""
    firm = Table(m(0, 1, 2), {0: 0, m(0): m(0), m(1): m(1), m(0, 1): m(1),
                              m(2): m(2), m(0, 2): m(0, 2), m(1, 2): m(1, 2),
                              m(0, 1, 2): m(0)})
    worker = Table(m(0, 1, 2), {0: 0, m(0): 0, m(1): m(1), m(0, 1): m(0, 1),
                                m(2): 0, m(0, 2): m(0), m(1, 2): m(1, 2),
                                m(0, 1, 2): m(0, 2)})
    problem = TwoAgentProblem(firm, worker)
    results = {r.key: r for r in run_lemma_suite([("bad", problem)])}
    expected = _naive_route_details(problem)
    assert all(expected.values())
    assert {key: results[key].detail for key in expected} == expected
    assert not any(results[key].passed for key in expected)


def test_suite_refuses_an_oversized_problem_before_any_law(monkeypatch, p1):
    ran = []
    monkeypatch.setattr(lemmas, "LAWS", (("X", "records", ran.append),))
    big = LinearOrder(tuple(range(13)))
    with pytest.raises(CapExceededError, match="capped at 12"):
        run_lemma_suite([("i1", p1), ("big", TwoAgentProblem(big, big))])
    assert ran == []


def test_law_keys_are_stable():
    assert [key for key, _, _ in LAWS] == [
        "L1",
        "L1C",
        "L2A",
        "L2B",
        "LOB",
        "L3",
        "L4",
        "L5",
        "L6",
        "L6D",
        "DAM",
        "DMA",
    ]


class _KeepsEveryMenu(ChoiceFunction):
    """Outside every family: keeps each menu whole and desires nothing."""

    ground = m(0, 1)

    def _choose(self, menu):
        return menu

    def desirable(self, state):
        return 0


class _ChoosesTheGround(ChoiceFunction):
    """Outside every family: chooses both contracts from any non-empty menu,
    even one holding only one of them, and desires both."""

    ground = m(0, 1)

    def _choose(self, menu):
        return self.ground if menu else 0

    def desirable(self, state):
        return self.ground


def test_descent_that_grows_is_named():
    """No library family lets the descent step grow B, since each keeps
    C(A) ⊆ A; a worker choosing outside its menu does, and L4 names the
    set it grew to."""
    problem = TwoAgentProblem(_KeepsEveryMenu(), _ChoosesTheGround())
    results = {r.key: r for r in run_lemma_suite([("grow", problem)])}
    assert not results["L4"].passed
    assert results["L4"].detail == "grow: B={0} grew to {0, 1}"
