"""Markets whose choice is not path independent, swept through both
fixed-point routes against the brute-force oracle.

``sweep(k)`` takes the market of two firms and k workers with one contract
per pair: f1 holds contracts 0..k-1, f2 holds k..2k-1, and worker j holds
j and k + j.  It gives f1 each choice function on its k contracts and
completes the market every way: f2 a quota of 1 or 2 over its contracts
ascending or descending, each worker either order.  Each market is built
as a ``TwoAgentProblem``, which trusts its sides.  For every market it
asserts that each route returns a system from the brute-force list or
raises ``InternalInconsistencyError``, and it returns the counts by f1's
kind.  Without path independence a stable system may not exist, and a
route may stop on its own check; it never returns an unstable system.

``tests/test_oracle.py::TestWithoutTheAxioms`` pins k = 2 (256 markets).
Run as a script, this sweeps k = 3 (131,072 markets) and checks its
pinned counts:

    PYTHONPATH=src python tests/without_axioms.py
"""

from __future__ import annotations

import collections
import itertools

from conftest import submasks
from stablecontracts.ample import ag_solve
from stablecontracts.choice import (
    CONSISTENCY,
    SUBSTITUTABILITY,
    Aggregate,
    LinearOrder,
    Quota,
    Table,
    validate_plott,
)
from stablecontracts.contractsets import full_mask
from stablecontracts.errors import InternalInconsistencyError
from stablecontracts.instance import TwoAgentProblem
from stablecontracts.modest import yang_solve
from stablecontracts.oracle import brute_force_stable

KINDS = ("path independent", "consistent only", "substitutable only", "neither")
COLUMNS = ("markets", "no stable system", "ag_solve raises", "yang_solve raises")


def sweep(k: int) -> dict[str, tuple[int, ...]]:
    """Each kind of f1's choice function, with its counts in ``COLUMNS``."""
    menus = [a for a in submasks(full_mask(k)) if a]
    f2 = tuple(range(k, 2 * k))
    workers = [
        Aggregate(tuple(LinearOrder(order) for order in orders))
        for orders in itertools.product(*(((j, k + j), (k + j, j)) for j in range(k)))
    ]
    counts = collections.Counter()
    for chosen in itertools.product(*(list(submasks(a)) for a in menus)):
        f1 = Table(full_mask(k), {0: 0, **dict(zip(menus, chosen))})
        report = validate_plott(f1)
        kind = KINDS[2 * (not report.check(CONSISTENCY).passed)
                     + (not report.check(SUBSTITUTABILITY).passed)]
        for q, order, worker in itertools.product((1, 2), (f2, f2[::-1]), workers):
            problem = TwoAgentProblem(Aggregate((f1, Quota(q, order))), worker)
            stable = brute_force_stable(problem)
            counts[kind, "markets"] += 1
            counts[kind, "no stable system"] += not stable
            for name, solve in (("ag_solve", ag_solve), ("yang_solve", yang_solve)):
                try:
                    system = solve(problem).system
                except InternalInconsistencyError:
                    counts[kind, f"{name} raises"] += 1
                else:
                    assert system in stable
    return {kind: tuple(counts[kind, column] for column in COLUMNS) for kind in KINDS}


# sweep(3)'s counts, one row per kind of f1, in COLUMNS' order
THREE_CONTRACTS = {
    "path independent": (1120, 0, 0, 0),
    "consistent only": (6752, 280, 506, 532),
    "substitutable only": (5792, 24, 1568, 716),
    "neither": (117408, 18588, 38982, 26884),
}


if __name__ == "__main__":
    counts = sweep(3)
    for kind, row in counts.items():
        print(f"{kind}: " + ", ".join(f"{c} {n}" for c, n in zip(COLUMNS, row)))
    if counts != THREE_CONTRACTS:
        raise SystemExit(f"the three-contract counts moved from {THREE_CONTRACTS}")
