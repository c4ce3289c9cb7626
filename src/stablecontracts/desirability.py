"""Desirability operators: what an agent would accept on top of a state.

For a choice function C, contract x is desirable in state A when
x ∈ C(A ∪ {x}).  The resulting operator D(A) determines C through
C(A) = A ∩ D(A) and obeys two laws that are checked exhaustively here:

  antimonotonicity    A ⊆ B implies D(B) ⊆ D(A)
  Löb identity        D(A) = D(A ∩ D(A))

Conversely, any total map with these two properties induces a choice
function that passes the rationality axioms; ``choice_from_desirability``
implements that reconstruction.

``desirable_set`` recomputes from the choice function on every call (one
evaluation per ground element); nothing memoizes it, so the fixed-point
solvers pay that cost again at every step.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .choice import (
    AxiomCheck,
    ChoiceFunction,
    EXHAUSTIVE_CAP,
    Table,
    ValidationReport,
    superset_violation,
)
from .contractsets import (
    Mask,
    canonical_key,
    expand,
    ids_of,
    local_table,
    submasks,
)
from .errors import CapExceededError, DomainError

ANTIMONOTONICITY = "antimonotonicity"
LOB_IDENTITY = "lob-identity"


def desirable_set(cf: ChoiceFunction, state: Mask) -> Mask:
    """D(state): every ground contract x with x ∈ C(state ∪ {x}).

    Always a superset of C(state); membership of x in the state itself is
    handled uniformly since state ∪ {x} = state then.
    """
    if state & ~cf.ground:
        raise DomainError(
            f"state {ids_of(state)} is not a subset of the ground set"
        )
    out = 0
    g = cf.ground
    while g:
        low = g & -g
        if cf.evaluate(state | low) & low:
            out |= low
        g ^= low
    return out


class DesirabilityOperator:
    """A total map from subsets of the ground set to subsets of it.

    Arbitrary maps are accepted so the validator can be exercised on
    negative cases; only validated operators may be turned back into
    choice functions.
    """

    def __init__(self, ground: Mask, table: Mapping[Mask, Mask]):
        table = dict(table)
        count = 0
        for state in submasks(ground):
            if state not in table:
                raise DomainError(
                    f"operator is not total: state {ids_of(state)} is missing"
                )
            if table[state] & ~ground:
                raise DomainError(
                    f"operator maps state {ids_of(state)} outside the ground set"
                )
            count += 1
        if len(table) != count:
            raise DomainError("operator lists states outside the ground set")
        self.ground = ground
        self._table = table
        self._report: ValidationReport | None = None

    @classmethod
    def from_choice(cls, cf: ChoiceFunction) -> "DesirabilityOperator":
        """Materialize the desirability operator of a choice function."""
        return cls(
            cf.ground,
            {state: desirable_set(cf, state) for state in submasks(cf.ground)},
        )

    def map(self, state: Mask) -> Mask:
        if state & ~self.ground:
            raise DomainError(
                f"state {ids_of(state)} is not a subset of the ground set"
            )
        return self._table[state]

    def __eq__(self, other):
        if not isinstance(other, DesirabilityOperator):
            return NotImplemented
        return self.ground == other.ground and self._table == other._table


def validate_desirability_operator(
    op: DesirabilityOperator, cap: int = EXHAUSTIVE_CAP
) -> ValidationReport:
    """Exhaustively check antimonotonicity and the Löb identity.

    Witnesses follow the same canonical scan order as the choice-function
    validator.  The report is cached on the operator.
    """
    bits = ids_of(op.ground)
    k = len(bits)
    if k > cap:
        raise CapExceededError(
            f"ground has {k} contracts; exhaustive operator check is capped at {cap}"
        )
    if op._report is not None:
        return op._report

    tab = local_table(op.map, bits)
    # offending when D(B) ⊄ D(A) for A ⊆ B
    witness = superset_violation(tab, lambda a, da, b, db: (db & ~da) != 0)
    if witness is not None:
        witness = tuple(expand(w, bits) for w in witness)
    checks = [AxiomCheck(ANTIMONOTONICITY, witness is None, witness)]

    arr = np.asarray(tab, dtype=np.int64)
    lob_bad = arr != arr[np.arange(1 << k, dtype=np.int64) & arr]
    witness = None
    if lob_bad.any():
        state = min(np.nonzero(lob_bad)[0].tolist(), key=canonical_key)
        witness = (expand(int(state), bits),)
    checks.append(AxiomCheck(LOB_IDENTITY, not lob_bad.any(), witness))

    report = ValidationReport(all(c.passed for c in checks), tuple(checks))
    op._report = report
    return report


def choice_from_desirability(op: DesirabilityOperator, menu: Mask) -> Mask:
    """C(menu) = menu ∩ D(menu) for a validated operator."""
    _require_valid(op)
    return menu & op.map(menu)


def induced_choice(op: DesirabilityOperator) -> Table:
    """Materialize the choice function induced by a validated operator."""
    _require_valid(op)
    return Table(
        op.ground,
        {menu: menu & op.map(menu) for menu in submasks(op.ground)},
    )


def _require_valid(op: DesirabilityOperator) -> None:
    report = validate_desirability_operator(op)
    if not report.passed:
        failing = report.first_failure()
        raise DomainError(
            f"desirability operator violates {failing.axiom}; no choice "
            f"function can induce it"
        )
