"""Classical marriage markets: strict linear orders, one contract per agent.

Two solvers live here.  Both keep one mask of held contracts and read every
preference from the market's own choice functions, C_v and D_v of agent v
over its ground E(v), the contracts naming v; they hold no preference data
of their own.

``gale_shapley`` is worker-proposing deferred acceptance.  Every round
each free worker w offers C_w(E(w) minus its rejected contracts), its best
contract not yet rejected, and each firm f that received an offer keeps
C_f((held ∪ offers) ∩ E(f)).  The workers of the dropped contracts are
free in the next round.  The rounds are batch operations, so the outcome
cannot depend on the order workers are visited.

``sotomayor_insert_solve`` builds a stable matching one worker at a time.
The entering worker takes the first contract e in its order with
e ∈ D_f(held ∩ E(f)), f the firm of e: its best contract among those the
firm would accept.  If that displaces another worker, the displaced worker
re-enters the same way, and the chain stops because the dismissing firm's
position strictly improves at every link.

Both require every agent's choice function to be a strict linear order
(the one-contract-per-agent marriage model); anything else is rejected.
"""

from __future__ import annotations

from .choice import LinearOrder
from .contractsets import Mask, as_mask, check_subset, ids_of
from .errors import DomainError, InternalInconsistencyError, PreconditionError
from .instance import Instance
from .stability import keeps_slices, multi_blocking


def _workers(inst: Instance, order: tuple[str, ...] | None = None):
    """The workers in ``order`` (declaration order when None), once every
    agent is known to choose by a linear order."""
    for agent in inst.agents:
        cf = inst.choices[agent.id]
        if type(cf) is not LinearOrder:
            raise PreconditionError(
                f"agent {agent.id!r} has a {type(cf).__name__} choice function; "
                f"the classical solvers need linear orders throughout"
            )
    workers = inst.workers()
    if order is None:
        return workers
    try:
        order = tuple(order)
        if sorted(order) == sorted(workers):
            return order
    except TypeError:  # not iterable, or of values that do not sort together
        pass
    raise DomainError("insertion_order must be a permutation of the workers")


def _desired(inst: Instance, held: Mask, e: int) -> bool:
    """e ∈ D_f(held ∩ E(f)) for the firm f of contract e."""
    firm = inst.choices[inst.contracts[e].firm]
    return bool(firm.desirable(held & firm.ground) >> e & 1)


def is_matching(inst: Instance, s: Mask) -> bool:
    """At most one contract per agent."""
    s = check_subset(s, inst.ground)
    for agent in inst.agents:
        if (s & inst.choices[agent.id].ground).bit_count() > 1:
            return False
    return True


def gale_shapley(inst: Instance) -> Mask:
    """Worker-proposing deferred acceptance; returns the worker-optimal
    stable matching as a contract mask.

    Each round the free workers offer C_w of their contracts not yet
    rejected, each firm that received an offer keeps C_f of what it holds
    and was offered, and the workers of the dropped contracts are the next
    round's free workers.  Every offer of a round joins one mask before
    any firm chooses, so no order of the workers can change the outcome.
    """
    free = _workers(inst)
    held = rejected = 0
    for _ in range(2 * inst.size + 2):
        offers = 0
        for w in free:
            worker = inst.choices[w]
            offers |= worker.evaluate(worker.ground & ~rejected)
        if not offers:
            return held
        menu = held | offers
        for f in {inst.contracts[e].firm for e in ids_of(offers)}:
            firm = inst.choices[f]
            held = held & ~firm.ground | firm.evaluate(menu & firm.ground)
        dropped = menu & ~held
        rejected |= dropped
        free = [inst.contracts[e].worker for e in ids_of(dropped)]
    raise InternalInconsistencyError(
        "deferred acceptance did not terminate within the proposal bound"
    )


def sotomayor_insert_solve(
    inst: Instance, insertion_order: tuple[str, ...] | None = None
) -> Mask:
    """Build a stable matching by inserting workers one at a time.

    Each entering worker takes the first contract e in its order that the
    firm f of e desires, e ∈ D_f(held ∩ E(f)): the firm is free, or prefers
    e to the contract it holds.  A displaced worker re-enters immediately,
    depth-first; the repair chain is asserted to stop within |E| links.
    """
    held = 0
    for entering in _workers(inst, insertion_order):
        current = entering
        for _ in range(inst.size + 1):
            chosen = next(
                (e for e in inst.choices[current].order if _desired(inst, held, e)),
                None,
            )
            if chosen is None:
                break
            displaced = held & inst.choices[inst.contracts[chosen].firm].ground
            held = held & ~displaced | 1 << chosen
            if not displaced:
                break
            current = inst.contracts[displaced.bit_length() - 1].worker
        else:
            raise InternalInconsistencyError(
                "repair chain exceeded the ground-set bound"
            )
    return held


def is_quasi_stable(inst: Instance, matching: Mask) -> bool:
    """Acceptable, and every blocking contract's worker is unemployed.

    Stable matchings are quasi-stable; the converse fails as soon as an
    employed worker takes part in a block.
    """
    matching = as_mask(matching)
    if not is_matching(inst, matching):
        raise DomainError(f"{ids_of(matching)} is not a matching")
    return keeps_slices(inst, matching) and not any(
        matching & inst.choices[contract.worker].ground
        for contract in multi_blocking(inst, matching)
    )
