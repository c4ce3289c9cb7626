"""Stability of contract systems: three equivalent two-agent forms plus the
multi-agent definition.

For a two-agent problem with firm choice F and worker choice W, a system S
is stable when both sides keep it as-is and no outside contract is wanted by
both.  Equivalently S = D_F(S) ∩ D_W(S), and equivalently S = W(D_F(S)).
All three are implemented independently so they can be cross-checked.
"""

from __future__ import annotations

from typing import Iterator

from .contractsets import Mask, as_mask, check_subset, ids_of
from .desirability import desirable_set
from .instance import Contract, Instance, TwoAgentProblem


def is_acceptable(problem: TwoAgentProblem, s: Mask) -> bool:
    """Both sides keep S whole: F(S) = S and W(S) = S."""
    s = check_subset(s, problem.ground)
    return problem.firm.evaluate(s) == s and problem.worker.evaluate(s) == s


def blocking_contracts(problem: TwoAgentProblem, s: Mask) -> Mask:
    """Outside contracts both sides would accept on top of S.

    Returns the full blocking set (D_F(S) ∩ D_W(S)) \\ S rather than a bare
    flag, so callers can report which contracts break a candidate system.
    """
    s = check_subset(s, problem.ground)
    out = 0
    for x in ids_of(problem.ground & ~s):
        low = 1 << x
        if problem.firm.evaluate(s | low) & low and problem.worker.evaluate(s | low) & low:
            out |= low
    return out


def is_stable(problem: TwoAgentProblem, s: Mask) -> bool:
    """Fixed-point form: S = D_F(S) ∩ D_W(S)."""
    s = check_subset(s, problem.ground)
    return s == desirable_set(problem.firm, s) & desirable_set(problem.worker, s)


def is_stable_prop1(problem: TwoAgentProblem, s: Mask) -> bool:
    """Asymmetric form: S = W(D_F(S))."""
    s = check_subset(s, problem.ground)
    return s == problem.worker.evaluate(desirable_set(problem.firm, s))


def is_stable_multi(inst: Instance, s: Mask) -> bool:
    """Multi-agent definition: per-agent acceptability plus no blocking
    contract accepted by both of its endpoints."""
    s = check_subset(s, inst.ground)
    return keeps_slices(inst, s) and next(multi_blocking(inst, s), None) is None


def keeps_slices(inst: Instance, s: Mask) -> bool:
    """Every agent keeps its own slice S ∩ E(v) whole."""
    for agent in inst.agents:
        cf = inst.choices[agent.id]
        slice_ = s & cf.ground
        if cf.evaluate(slice_) != slice_:
            return False
    return True


def multi_blocking(inst: Instance, s: Mask) -> Iterator[Contract]:
    """Outside contracts that both endpoints would accept on top of their
    slices of S, lazily and by ascending id."""
    s = as_mask(s)
    for x in ids_of(inst.ground & ~s):
        low = 1 << x
        contract = inst.contracts[x]
        firm = inst.choices[contract.firm]
        worker = inst.choices[contract.worker]
        if (
            firm.evaluate(s & firm.ground | low) & low
            and worker.evaluate(s & worker.ground | low) & low
        ):
            yield contract
