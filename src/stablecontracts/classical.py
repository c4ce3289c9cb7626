"""Classical marriage markets: strict linear orders, one contract per agent.

Two solvers live here.  ``gale_shapley`` is worker-proposing deferred
acceptance: every round each unmatched worker offers its best not-yet-
rejected contract, and each firm keeps the best contract among its current
holding and the round's offers, rejecting the rest.  The rounds are batch
operations, so the outcome cannot depend on the order workers are visited.

``sotomayor_insert_solve`` builds a stable matching one worker at a time.
The entering worker takes its best contract among those the counterpart
firm would accept; if that displaces another worker, the displaced worker
re-enters the same way, and the chain stops because the dismissing firm's
position strictly improves at every link.

Both require every agent's choice function to be a strict linear order
(the one-contract-per-agent marriage model); anything else is rejected.
"""

from __future__ import annotations

from .choice import LinearOrder
from .contractsets import Mask, check_subset, ids_of
from .errors import DomainError, InternalInconsistencyError, PreconditionError
from .instance import Instance, contracts_of
from .stability import keeps_slices, multi_blocking


def _linear_orders(inst: Instance) -> dict[str, tuple[int, ...]]:
    orders = {}
    for agent in inst.agents:
        cf = inst.choices[agent.id]
        if not isinstance(cf, LinearOrder):
            raise PreconditionError(
                f"agent {agent.id!r} has a {type(cf).__name__} choice function; "
                f"the classical solvers need linear orders throughout"
            )
        orders[agent.id] = cf.order
    return orders


def _setup(inst: Instance, sequence: tuple[str, ...] | None, name: str):
    """What both solvers start from: each agent's linear order, the workers
    in ``sequence`` (declaration order when None), each firm's rank of its
    contracts, and each contract's firm and worker."""
    orders = _linear_orders(inst)
    workers = inst.workers()
    if sequence is None:
        sequence = workers
    elif sorted(sequence) != sorted(workers):
        raise DomainError(f"{name} must be a permutation of the workers")
    firm_rank = {
        f: {e: r for r, e in enumerate(orders[f])} for f in inst.firms()
    }
    firm_of = {c.id: c.firm for c in inst.contracts}
    worker_of = {c.id: c.worker for c in inst.contracts}
    return orders, list(sequence), firm_rank, firm_of, worker_of


def _held(holding: dict[str, int | None]) -> Mask:
    """The contracts the firms hold, as a mask."""
    out = 0
    for e in holding.values():
        if e is not None:
            out |= 1 << e
    return out


def is_matching(inst: Instance, s: Mask) -> bool:
    """At most one contract per agent."""
    check_subset(s, inst.ground)
    for agent in inst.agents:
        if (s & contracts_of(inst, agent.id)).bit_count() > 1:
            return False
    return True


def gale_shapley(inst: Instance, worker_order: tuple[str, ...] | None = None) -> Mask:
    """Worker-proposing deferred acceptance; returns the worker-optimal
    stable matching as a contract mask.

    ``worker_order`` only permutes the bookkeeping sequence within rounds;
    it exists so order-independence can be tested directly.
    """
    orders, workers, firm_rank, firm_of, worker_of = _setup(
        inst, worker_order, "worker_order"
    )
    pointer = {w: 0 for w in workers}
    matched: dict[str, int | None] = {w: None for w in workers}
    holding: dict[str, int | None] = {f: None for f in inst.firms()}

    for _ in range(2 * inst.size + 2):
        offers: dict[str, list[int]] = {}
        for w in workers:
            if matched[w] is not None:
                continue
            order = orders[w]
            if pointer[w] >= len(order):
                continue
            e = order[pointer[w]]
            offers.setdefault(firm_of[e], []).append(e)
        if not offers:
            break
        for f, proposals in offers.items():
            candidates = list(proposals)
            if holding[f] is not None:
                candidates.append(holding[f])
            best = min(candidates, key=lambda e: firm_rank[f][e])
            for e in candidates:
                if e == best:
                    continue
                loser = worker_of[e]
                matched[loser] = None
                pointer[loser] += 1
            holding[f] = best
            matched[worker_of[best]] = best
    else:
        raise InternalInconsistencyError(
            "deferred acceptance did not terminate within the proposal bound"
        )

    return _held(holding)


def sotomayor_insert_solve(
    inst: Instance, insertion_order: tuple[str, ...] | None = None
) -> Mask:
    """Build a stable matching by inserting workers one at a time.

    Each entering worker picks its best contract among those desirable to
    the counterpart firm (the firm is free, or prefers it to its current
    contract).  A displaced worker re-enters immediately, depth-first; the
    repair chain is asserted to stop within |E| links.
    """
    orders, insertion_order, firm_rank, firm_of, worker_of = _setup(
        inst, insertion_order, "insertion_order"
    )
    holding: dict[str, int | None] = {f: None for f in inst.firms()}

    for entering in insertion_order:
        current = entering
        for _ in range(inst.size + 1):
            chosen = None
            for e in orders[current]:
                f = firm_of[e]
                held = holding[f]
                if held is None or firm_rank[f][e] < firm_rank[f][held]:
                    chosen = e
                    break
            if chosen is None:
                break
            f = firm_of[chosen]
            displaced = holding[f]
            holding[f] = chosen
            if displaced is None:
                break
            current = worker_of[displaced]
        else:
            raise InternalInconsistencyError(
                "repair chain exceeded the ground-set bound"
            )

    return _held(holding)


def is_quasi_stable(inst: Instance, matching: Mask) -> bool:
    """Acceptable, and every blocking contract's worker is unemployed.

    Stable matchings are quasi-stable; the converse fails as soon as an
    employed worker takes part in a block.
    """
    if not is_matching(inst, matching):
        raise DomainError(f"{ids_of(matching)} is not a matching")
    return keeps_slices(inst, matching) and not any(
        matching & contracts_of(inst, contract.worker)
        for contract in multi_blocking(inst, matching)
    )
