"""The descending route to stable systems via ample sets.

A set B is ample when D_F(W(B)) ⊆ B: everything the firm side wants after
the worker side has chosen from B is already inside B.  The whole ground
set is trivially ample, the descent step B ↦ (B \\ W(B)) ∪ F(W(B)) keeps
ampleness and shrinks B, and at the fixpoint W(B) = F(W(B)) the system
W(B) is stable.  Scanning every ample B whose worker choice is such a
fixpoint recovers every stable system, which is what the power-set
enumerator does on the problem's cached choice tables, candidates first;
those tables refuse a ground over 20 contracts
(``contractsets.check_power_set``) before anything is built.

``ag_solve`` makes one W pass and one D_F pass per step.  With
d = D_F(W(B)), the step reads F(W(B)) as W(B) ∩ d, since C(A) = A ∩ D(A)
for every choice function with C(A) ⊆ A.  The same d decides ampleness at
the start, and at the fixpoint it is the D_F of the closing stability
check S = D_F(S) ∩ D_W(S) with S = W(B).  ``ag_step`` keeps the
definitional form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractsets import Mask, canonical_sorted, check_subset, ids_of
from .desirability import desirable_set
from .errors import InternalInconsistencyError, PreconditionError
from .instance import TwoAgentProblem
from .stability import is_stable


@dataclass(frozen=True)
class SolveResult:
    """A stable system plus the iterates that led to it.

    ``trace[0]`` is the start set; ``steps`` counts actual transitions.
    """

    system: Mask
    trace: tuple[Mask, ...]

    @property
    def steps(self) -> int:
        return len(self.trace) - 1


def is_ample(problem: TwoAgentProblem, b: Mask) -> bool:
    """D_F(W(B)) ⊆ B."""
    b = check_subset(b, problem.ground)
    wb = problem.worker.evaluate(b)
    return desirable_set(problem.firm, wb) & ~b == 0


def ag_step(problem: TwoAgentProblem, b: Mask) -> Mask:
    """One descent step: drop worker-chosen contracts the firm rejects.

    B' = (B \\ W(B)) ∪ F(W(B)).  Always a subset of B; maps ample sets to
    ample sets.
    """
    b = check_subset(b, problem.ground)
    wb = problem.worker.evaluate(b)
    return (b & ~wb) | problem.firm.evaluate(wb)


def ag_solve(problem: TwoAgentProblem, start: Mask | None = None) -> SolveResult:
    """Iterate the descent step from an ample start until it stops.

    The default start is the whole ground set, which yields the
    worker-optimal stable system.  Custom ample starts are first-class and
    reach other stable systems; a non-ample start is a precondition error.
    The fixpoint satisfies W(B) = F(W(B)) and the returned system W(B) is
    re-verified for stability, raising InternalInconsistencyError if that
    ever fails: a bug on a problem reduced from an ``Instance``, and
    possible with no bug on a ``TwoAgentProblem`` whose sides break the
    axioms, which it trusts.  Each step is ``ag_step``'s in one W pass and
    one D_F pass: d = D_F(W(B)) gives F(W(B)) = W(B) ∩ d, the ample
    check's pass serves the first step, and the last step's W(B) and d are
    the system and its D_F in the closing check, which is ``is_stable``'s.
    """
    b = problem.ground if start is None else start
    b = check_subset(b, problem.ground)
    wb = problem.worker.evaluate(b)
    d = desirable_set(problem.firm, wb)
    if d & ~b:
        raise PreconditionError(
            f"start set {ids_of(b)} is not ample; the descent invariant "
            f"would not hold"
        )
    trace = [b]
    for _ in range(problem.size + 1):
        # one W pass and one D_F pass per step: F(W(B)) = W(B) ∩ D_F(W(B))
        nxt = (b & ~wb) | (wb & d)
        if nxt == b:
            break
        b = nxt
        trace.append(b)
        wb = problem.worker.evaluate(b)
        d = desirable_set(problem.firm, wb)
    else:
        raise InternalInconsistencyError(
            "descending iteration did not reach a fixpoint within the "
            "ground-set bound"
        )
    system = wb
    # is_stable's S = D_F(S) ∩ D_W(S), with D_F(S) the last step's d
    if system != d & desirable_set(problem.worker, system):
        raise InternalInconsistencyError(
            f"descent fixpoint produced an unstable system {ids_of(system)}"
        )
    return SolveResult(system, tuple(trace))


def ample_from_stable(problem: TwoAgentProblem, s: Mask) -> Mask:
    """The ample set D_F(S) behind a stable system S; W of it returns S."""
    if not is_stable(problem, s):
        raise PreconditionError(f"{ids_of(s)} is not a stable system")
    return desirable_set(problem.firm, s)


def enumerate_stable_via_ample(problem: TwoAgentProblem) -> list[Mask]:
    """All stable systems, found as worker choices of ample fixpoint sets.

    Scans the full power set through ``problem.tables``: S is collected
    whenever some B is ample with W(B) = F(W(B)) = S.  It keeps the B with
    W(B) = F(W(B)) first, then reads D_F(S) off the firm table once per
    distinct S.  Matches the brute-force oracle exactly; output is
    canonically sorted (cardinality, then ids).  A ground over 20
    contracts raises CapExceededError from ``problem.tables``.
    """
    tf, wb = problem.tables  # wb[b] is W(B)
    b = np.flatnonzero(wb == tf[wb])
    s = wb[b]  # W(B) = F(W(B)) for each of these B
    # D_F once per distinct S, kept at index S: bit x says x ∈ F(S ∪ {x})
    seen = np.zeros(len(wb), dtype=bool)
    seen[s] = True
    distinct = np.flatnonzero(seen)
    df = np.zeros_like(wb)
    for x in range(problem.size):
        df[distinct] |= tf[distinct | 1 << x] & 1 << x
    found = np.unique(s[(df[s] & ~b) == 0])
    return canonical_sorted(int(x) for x in found)
