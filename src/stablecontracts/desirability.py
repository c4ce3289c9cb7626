"""Desirability operators: what an agent would accept on top of a state.

For a choice function C, contract x is desirable in state A when
x ∈ C(A ∪ {x}).  The resulting operator D(A) determines C through
C(A) = A ∩ D(A) and obeys two laws:

  antimonotonicity    A ⊆ B implies D(B) ⊆ D(A)
  Löb identity        D(A) = D(A ∩ D(A))

``validate_desirability_operator`` checks both exhaustively with the law
rows of ``choice``: antimonotonicity is decided by its one-contract rule
D(A ∪ {x}) ⊆ D(A), which chains to every A ⊆ B, and names its witness
with a pair scan like substitutability; the Löb identity is a scan over
single states.  Both report the first offending sets in the canonical
order.

An operator is stored as a ``Table`` stores a choice function, one
``choice._PowerSetMap``: the ground's ids and one read-only array over its
local masks, read from a mapping by the table's own reader or tabulated
by one ``local_table`` pass (``from_choice``), and checked by its fill.
Conversely, any total map with these two properties induces a choice
function that passes the rationality axioms; ``induced_choice``
implements that reconstruction.

``desirable_set`` checks the state and hands it to the family's
``ChoiceFunction.desirable``, which every family must give.  The ranked
rule (a linear order is a quota of one) answers in closed form, one pass
over its priority: the prefix up to and including the q-th contract held,
or the whole ground while it holds fewer than q.  A market side (an
``Aggregate``) joins what each agent desires of its own slice of the
state; a side of many linear and quota agents finds all their prefixes in
one numpy pass, a running count of held contracts over its agents'
priorities laid end to end.  A table reads x ∈ C(state ∪ {x}) off its
array for each ground contract x.  The definition lives only in the
tests, as the oracle that every family's form is compared with, computed
through ``evaluate`` alone; the lemma suite checks the laws above for
whichever form runs.  The brute-force oracle and the blocking-contract
scans never use desirability.
"""

from __future__ import annotations

import numpy as np

from .choice import (
    ChoiceFunction,
    Table,
    _PowerSetMap,
    ValidationReport,
    check_laws,
    first_pair,
    first_state,
)
from .contractsets import Mask, check_subset, ids_of, local_table
from .errors import DomainError

ANTIMONOTONICITY = "antimonotonicity"
LOB_IDENTITY = "lob-identity"


def desirable_set(cf: ChoiceFunction, state: Mask) -> Mask:
    """D(state): every ground contract x with x ∈ C(state ∪ {x}).

    Always a superset of C(state); membership of x in the state itself is
    handled uniformly since state ∪ {x} = state then.
    """
    state = check_subset(state, cf.ground)
    return cf.desirable(state)


class DesirabilityOperator(_PowerSetMap):
    """A total map from subsets of the ground set to subsets of it.

    Stored as a ``Table`` stores a choice function (``choice._PowerSetMap``):
    the ground's contract ids ``bits`` and one read-only int64 array
    ``table`` over their local masks, which ``map`` and ``tabulate`` read.
    Arbitrary maps are accepted so the validator can be exercised on
    negative cases; only validated operators may be turned back into
    choice functions.
    """

    _kind, _key, _bound_by_key = "operator", "state", False
    _outside = "operator maps state {} outside the ground set"

    @classmethod
    def from_choice(cls, cf: ChoiceFunction) -> "DesirabilityOperator":
        """Materialize the desirability operator of a choice function."""
        op, bits = object.__new__(cls), ids_of(cf.ground)
        op._fill(bits, range(1 << len(bits)), local_table(cf.desirable, bits))
        return op

    def map(self, state: Mask) -> Mask:
        state = check_subset(state, self.ground)
        return self._lookup(state)


def validate_desirability_operator(op: DesirabilityOperator) -> ValidationReport:
    """Exhaustively check antimonotonicity and the Löb identity.

    Antimonotonicity is decided by its one-contract rule in O(k·2^k); only
    a failing operator runs the 4^k pair scan for its witness.  Witnesses
    follow the same canonical scan order as the choice-function validator.
    An operator over ``EXHAUSTIVE_CAP`` (12) contracts raises
    CapExceededError.
    """
    return check_laws(op, _OPERATOR_LAWS, "operator")


def _lob_breaks(arr):
    # a law on single states, so its rule is the law itself
    return arr != arr[np.arange(len(arr)) & arr]


def _antimonotone(arr, bit, a, da, dab):
    # D(A ∪ {x}) ⊆ D(A)
    return not (dab & ~da).any()


def _antimonotonicity_pair(arr, order):
    return first_pair(
        arr, order, lambda a, da, b, db: ((a & ~b) == 0) & ((db & ~da) != 0)
    )


_OPERATOR_LAWS = (
    (ANTIMONOTONICITY, _antimonotone, _antimonotonicity_pair),
    (LOB_IDENTITY, lambda arr, *steps: not _lob_breaks(arr).any(),
     lambda arr, order: first_state(_lob_breaks(arr), order)),
)


def induced_choice(op: DesirabilityOperator) -> Table:
    """Materialize the choice function induced by a validated operator:
    C(A) = A ∩ D(A) over every local mask A at once."""
    report = validate_desirability_operator(op)
    if not report.passed:
        raise DomainError(
            f"desirability operator violates {report.first_failure().axiom}; "
            f"no choice function can induce it"
        )
    menus = np.arange(1 << op.ground.bit_count())
    return Table.from_rows(ids_of(op.ground), menus, menus & op.tabulate())
