"""The ascending route to stable systems via modest sets, plus the duality
with the ample route.

A set Q is modest when Q ⊆ W(D_F(Q)); replacing ⊆ by equality is exactly
stability, so modesty weakens it.  The empty set is always modest.  The
ascent step Q ↦ F(W(D_F(Q))) keeps modesty and never widens D_F, so the
firm-desirability sets descend until they stabilize; at that point the
iterate is a stable system.

``yang_solve`` takes each ascent step in one D_F pass.  With
X = W(D_F(Q)), the next iterate F(X) is X ∩ D_F(X), and its D_F is D_F(X)
again, since D_F(F(X)) = D_F(X) for a path-independent F (the Löb
identity).  So one pass gives both the iterate and the D_F that decides
whether the ascent has stopped.  The shortcut rests on path independence,
which every validated instance has; ``yang_step`` keeps the definitional
form, and the solver's output is still verified by ``is_stable``.

The two routes convert into each other: F(W(B)) of an ample B is modest,
and D_F(Q) of a modest Q is ample.
"""

from __future__ import annotations

from .ample import SolveResult, is_ample
from .contractsets import Mask, check_subset, ids_of
from .desirability import desirable_set
from .errors import InternalInconsistencyError, PreconditionError
from .instance import TwoAgentProblem
from .stability import is_stable


def is_modest(problem: TwoAgentProblem, q: Mask) -> bool:
    """Q ⊆ W(D_F(Q))."""
    q = check_subset(q, problem.ground)
    return q & ~problem.worker.evaluate(desirable_set(problem.firm, q)) == 0


def yang_step(problem: TwoAgentProblem, q: Mask) -> Mask:
    """One ascent step on a modest set: Q' = F(W(D_F(Q)))."""
    if not is_modest(problem, q):
        raise PreconditionError(f"{ids_of(q)} is not modest")
    return problem.firm.evaluate(
        problem.worker.evaluate(desirable_set(problem.firm, q))
    )


def yang_solve(problem: TwoAgentProblem, start: Mask | None = None) -> SolveResult:
    """Iterate the ascent step until the firm-desirability set stabilizes.

    No start (None) means the empty set, which is always modest.  Each step
    shrinks (weakly) D_F of the iterate; once D_F(Q') = D_F(Q) the next
    iterate would repeat, and that iterate is a stable system.  Stability
    of the output is re-verified defensively.
    """
    q = 0 if start is None else start
    q = check_subset(q, problem.ground)
    d = desirable_set(problem.firm, q)
    # the modesty check's W(D_F(Q)) is the first step's
    w = problem.worker.evaluate(d)
    if q & ~w:
        raise PreconditionError(f"start set {ids_of(q)} is not modest")
    trace = [q]
    for _ in range(problem.size + 2):
        # one D_F pass per step: F(X) = X ∩ D_F(X), and D_F(F(X)) = D_F(X)
        # for a path-independent F
        nxt_d = desirable_set(problem.firm, w)
        nxt = w & nxt_d
        if nxt_d == d:
            if nxt != q:
                trace.append(nxt)
            system = nxt
            break
        trace.append(nxt)
        q, d = nxt, nxt_d
        w = problem.worker.evaluate(d)
    else:
        raise InternalInconsistencyError(
            "ascending iteration did not stabilize within the ground-set bound"
        )
    if not is_stable(problem, system):
        raise InternalInconsistencyError(
            f"ascent fixpoint produced an unstable system {ids_of(system)}"
        )
    return SolveResult(system, tuple(trace))


def modest_from_stable(problem: TwoAgentProblem, s: Mask) -> Mask:
    """A stable system is itself modest (with equality in the definition)."""
    s = check_subset(s, problem.ground)
    if not is_stable(problem, s):
        raise PreconditionError(f"{ids_of(s)} is not a stable system")
    if not is_modest(problem, s):
        raise InternalInconsistencyError(
            f"stable system {ids_of(s)} failed the modesty check"
        )
    return s


def ample_to_modest(problem: TwoAgentProblem, b: Mask) -> Mask:
    """F(W(B)) of an ample B is modest."""
    if not is_ample(problem, b):
        raise PreconditionError(f"{ids_of(b)} is not ample")
    return problem.firm.evaluate(problem.worker.evaluate(b))


def modest_to_ample(problem: TwoAgentProblem, q: Mask) -> Mask:
    """D_F(Q) of a modest Q is ample."""
    if not is_modest(problem, q):
        raise PreconditionError(f"{ids_of(q)} is not modest")
    return desirable_set(problem.firm, q)
