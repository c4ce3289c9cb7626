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
read-only array over its ground's local masks filled by one
``local_table`` pass.  Conversely, any total map with these two
properties induces a choice function that passes the rationality axioms;
``choice_from_desirability`` implements that reconstruction.

``desirable_set`` checks the state and hands it to the family's
``ChoiceFunction.desirable``, which every family must give.  Ordered
families answer in closed form, one pass over their preference list: a
linear order desires the prefix of its order up to and including the
first contract held, a quota the prefix up to and including the q-th
contract held (either desires its whole ground while it holds fewer than
q), and a market side (an ``Aggregate``) joins what each agent desires
of its own slice of the state; a side of many linear and quota agents
finds all their prefixes in one numpy pass, a running count of held
contracts over its agents' preference lists laid end to end.  A table
reads x ∈ C(state ∪ {x})
off its array for each ground contract x.  The definition lives only in
the tests, as the oracle that every family's form is compared with,
computed through ``evaluate`` alone; the lemma suite checks the laws
above for whichever form runs.  The brute-force oracle and the
blocking-contract scans never use desirability.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .choice import (
    ChoiceFunction,
    Table,
    ValidationReport,
    check_laws,
    first_pair,
    first_state,
)
from .contractsets import Mask, check_subset, compress, expand, ids_of, local_table
from .errors import DomainError

ANTIMONOTONICITY = "antimonotonicity"
LOB_IDENTITY = "lob-identity"


def desirable_set(cf: ChoiceFunction, state: Mask) -> Mask:
    """D(state): every ground contract x with x ∈ C(state ∪ {x}).

    Always a superset of C(state); membership of x in the state itself is
    handled uniformly since state ∪ {x} = state then.
    """
    check_subset(state, cf.ground)
    return cf.desirable(state)


class DesirabilityOperator:
    """A total map from subsets of the ground set to subsets of it.

    Stored as ``Table`` stores a choice function: the ground's contract ids
    (ascending) and one read-only int64 array over their local masks, laid
    out by ``contractsets.local_table``, which ``map`` and ``tabulate``
    read.  Arbitrary maps are accepted so the validator can be exercised on
    negative cases; only validated operators may be turned back into
    choice functions.
    """

    def __init__(self, ground: Mask, table: Mapping[Mask, Mask]):
        """Tabulate ``table``, state to desirable set in contract ids, over
        ``ground``: the first state, in ascending order, that is missing or
        maps outside the ground is named, then any state outside it."""

        def entry(state: Mask) -> Mask:
            if state not in table:
                raise DomainError(
                    f"operator is not total: state {ids_of(state)} is missing"
                )
            if table[state] & ~ground:
                raise DomainError(
                    f"operator maps state {ids_of(state)} outside the ground set"
                )
            return table[state]

        self._fill(ground, entry)
        if len(table) != len(self._table):
            raise DomainError("operator lists states outside the ground set")

    @classmethod
    def from_choice(cls, cf: ChoiceFunction) -> "DesirabilityOperator":
        """Materialize the desirability operator of a choice function."""
        op = object.__new__(cls)
        op._fill(cf.ground, cf.desirable)
        return op

    def _fill(self, ground: Mask, fn) -> None:
        self.ground = ground
        self._bits = ids_of(ground)
        self._table = local_table(fn, self._bits)
        self._report: ValidationReport | None = None

    def map(self, state: Mask) -> Mask:
        check_subset(state, self.ground)
        return expand(self._table.item(compress(state, self._bits)), self._bits)

    def tabulate(self) -> np.ndarray:
        """D over the local masks of the ground, as ``local_table`` lays it out."""
        return self._table

    def __eq__(self, other):
        if not isinstance(other, DesirabilityOperator):
            return NotImplemented
        return self.ground == other.ground and np.array_equal(self._table, other._table)


def validate_desirability_operator(op: DesirabilityOperator) -> ValidationReport:
    """Exhaustively check antimonotonicity and the Löb identity.

    Antimonotonicity is decided by its one-contract rule in O(k·2^k); only
    a failing operator runs the 4^k pair scan for its witness.  Witnesses
    follow the same canonical scan order as the choice-function validator.
    An operator over ``EXHAUSTIVE_CAP`` (12) contracts raises
    CapExceededError; any other report is cached on the operator.
    """
    if op._report is None:
        op._report = check_laws(op, _OPERATOR_LAWS, "operator")
    return op._report


def _lob_breaks(arr):
    # a law on single states, so its rule is the law itself
    return arr != arr[np.arange(len(arr)) & arr]


def _antimonotone(arr, bit, a, ab):
    # D(A ∪ {x}) ⊆ D(A)
    return not (arr[ab] & ~arr[a]).any()


def _antimonotonicity_pair(arr, order):
    return first_pair(
        arr, order, lambda a, da, b, db: ((a & ~b) == 0) & ((db & ~da) != 0)
    )


_OPERATOR_LAWS = (
    (ANTIMONOTONICITY, _antimonotone, _antimonotonicity_pair),
    (LOB_IDENTITY, lambda arr, *steps: not _lob_breaks(arr).any(),
     lambda arr, order: first_state(_lob_breaks(arr), order)),
)


def choice_from_desirability(op: DesirabilityOperator, menu: Mask) -> Mask:
    """C(menu) = menu ∩ D(menu) for a validated operator."""
    _require_valid(op)
    return menu & op.map(menu)


def induced_choice(op: DesirabilityOperator) -> Table:
    """Materialize the choice function induced by a validated operator:
    C(A) = A ∩ D(A) over every local mask A at once."""
    _require_valid(op)
    menus = np.arange(1 << op.ground.bit_count())
    return Table.from_rows(ids_of(op.ground), menus, menus & op.tabulate())


def _require_valid(op: DesirabilityOperator) -> None:
    report = validate_desirability_operator(op)
    if not report.passed:
        failing = report.first_failure()
        raise DomainError(
            f"desirability operator violates {failing.axiom}; no choice "
            f"function can induce it"
        )
