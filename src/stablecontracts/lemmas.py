"""The lemma suite: every structural law the solvers rely on, checked
exhaustively over the power set of each supplied problem.

Each law has a short key (L1, L2A, ..., DMA) used by the CLI table and the
acceptance tests.  A law fails only with a concrete witness, which is
reported; on valid input every law is a theorem, so failures indicate a
bug in the library (or a deliberately invalid problem fed to the suite).

Each problem is tabulated once: both sides' C (the problem's cached
``tables``), each side's desirability operator (built once from the
family's own form of D, the form that runs) with its one
``validate_desirability_operator`` report, and the problem's ample and
modest sets.  The per-side laws scan those arrays; L2A and LOB are read
from the side's report (L2A by its one-contract rule, with a pair scan
only for a witness).  The route laws walk the ample or modest sets
through the library's own steps.  Witnesses are canonical-first.
Problems over ``choice.EXHAUSTIVE_CAP`` (12) contracts, the cap of every
witness scan, are refused before any law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ample import ag_step, is_ample
from .choice import EXHAUSTIVE_CAP, ValidationReport, first_state
from .contractsets import Mask, canonical_order, ids_of
from .desirability import (
    ANTIMONOTONICITY,
    LOB_IDENTITY,
    DesirabilityOperator,
    desirable_set,
    validate_desirability_operator,
)
from .errors import CapExceededError
from .instance import TwoAgentProblem
from .modest import ample_to_modest, is_modest, modest_to_ample, yang_step
from .stability import is_acceptable, is_stable


@dataclass(frozen=True)
class LawResult:
    key: str
    description: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class _Tables:
    """One problem tabulated once: each side's (name, C, D, report) with C
    and D over the power set, D its desirability operator's array and
    report that operator's validation, and the problem's ample and modest
    sets.  The ground is dense, so local masks are the problem's own;
    ``order`` and both lists are canonical."""

    problem: TwoAgentProblem
    order: np.ndarray
    sides: tuple[tuple[str, np.ndarray, np.ndarray, ValidationReport], ...]
    ample: list[Mask]
    modest: list[Mask]


def _tabulate(problem: TwoAgentProblem) -> _Tables:
    order = canonical_order(problem.size)
    sides = []
    for name, cf, c in zip(("firm", "worker"), (problem.firm, problem.worker),
                           problem.tables):
        op = DesirabilityOperator.from_choice(cf)
        sides.append((name, c, op.tabulate(), validate_desirability_operator(op)))
    canonical = [int(s) for s in order]
    ample = [b for b in canonical if is_ample(problem, b)]
    modest = [q for q in canonical if is_modest(problem, q)]
    return _Tables(problem, order, tuple(sides), ample, modest)


def _fmt(mask: Mask) -> str:
    return "{" + ", ".join(str(i) for i in ids_of(mask)) + "}"


def _per_side(finder) -> Callable[[_Tables], str | None]:
    """A law on each side's tables: ``finder(c, d, report, order)`` returns
    the first offending A (or pair A, B) in ``order``, or None."""

    def check(t: _Tables) -> str | None:
        for name, *side in t.sides:
            witness = finder(*side, t.order)
            if witness is not None:
                sets = ", ".join(f"{n}={_fmt(w)}" for n, w in zip("AB", witness))
                return f"{name} side: {sets}"
        return None

    return check


def _states(bad):
    """A finder for a law on single states: ``bad(a, c, d)`` flags each
    state A from its row (A, C(A), D(A)), over whole arrays."""
    return lambda c, d, report, order: first_state(
        bad(np.arange(len(c)), c, d), order
    )


def _operator_law(name: str):
    """A finder reading one law's witness off the side's report."""
    return lambda c, d, report, order: report.check(name).witness


def _walk(kind: str, flaw) -> Callable[[_Tables], str | None]:
    """A law on each of the problem's ``kind`` ("ample" or "modest") sets:
    ``flaw(problem, s)`` is falsy where it holds, else True or a detail to
    append to the witness."""
    name = {"ample": "B", "modest": "Q"}[kind]

    def check(t: _Tables) -> str | None:
        for s in getattr(t, kind):
            found = flaw(t.problem, s)
            if found:
                return f"{name}={_fmt(s)}" + ("" if found is True else f" {found}")
        return None

    return check


def _unstable_fixpoint(p: TwoAgentProblem, b: Mask) -> bool:
    wb = p.worker.evaluate(b)
    return p.firm.evaluate(wb) == wb and not is_stable(p, wb)


def _descent_flaw(p: TwoAgentProblem, b: Mask) -> bool | str:
    nxt = ag_step(p, b)
    return f"grew to {_fmt(nxt)}" if nxt & ~b else not is_ample(p, nxt)


def _widens_firm_d(p: TwoAgentProblem, q: Mask) -> bool:
    return desirable_set(p.firm, yang_step(p, q)) & ~desirable_set(p.firm, q) != 0


LAWS: tuple[tuple[str, str, Callable[[_Tables], str | None]], ...] = (
    # D(A) ∩ A = C(A)
    ("L1", "choice equals desirables within the menu",
     _per_side(_states(lambda a, c, d: (d & a) != c))),
    # A = C(A)  ⟺  A ⊆ D(A)
    ("L1C", "menu self-chosen iff menu within desirables",
     _per_side(_states(lambda a, c, d: (c == a) != ((a & ~d) == 0)))),
    ("L2A", "desirability antimonotone in the menu",
     _per_side(_operator_law(ANTIMONOTONICITY))),
    # D(A) = D(C(A))
    ("L2B", "desirability unchanged after choosing",
     _per_side(_states(lambda a, c, d: d != d[c]))),
    ("LOB", "desirability fixed on its desirable core",
     _per_side(_operator_law(LOB_IDENTITY))),
    ("L3", "ample fixpoints yield stable systems", _walk("ample", _unstable_fixpoint)),
    ("L4", "descent step preserves ampleness", _walk("ample", _descent_flaw)),
    ("L5", "modest systems are self-chosen on both sides",
     _walk("modest", lambda p, q: not is_acceptable(p, q))),
    ("L6", "ascent step preserves modesty",
     _walk("modest", lambda p, q: not is_modest(p, yang_step(p, q)))),
    ("L6D", "ascent step never widens firm desirability", _walk("modest", _widens_firm_d)),
    ("DAM", "ample systems map to modest systems",
     _walk("ample", lambda p, b: not is_modest(p, ample_to_modest(p, b)))),
    ("DMA", "modest systems map to ample systems",
     _walk("modest", lambda p, q: not is_ample(p, modest_to_ample(p, q)))),
)


def run_lemma_suite(problems: Sequence[tuple[str, TwoAgentProblem]]) -> list[LawResult]:
    """Check every law on every problem; first witness wins per law."""
    for label, problem in problems:
        if problem.size > EXHAUSTIVE_CAP:
            raise CapExceededError(
                f"problem {label!r} has {problem.size} contracts; the lemma "
                f"suite is capped at {EXHAUSTIVE_CAP}"
            )
    tabulated = [(label, _tabulate(problem)) for label, problem in problems]
    results = []
    for key, description, law in LAWS:
        passed = True
        detail = ""
        for label, tables in tabulated:
            witness = law(tables)
            if witness is not None:
                passed = False
                detail = f"{label}: {witness}"
                break
        results.append(LawResult(key, description, passed, detail))
    return results
