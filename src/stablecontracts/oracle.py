"""Ground truth and test material: power-set brute force plus a seeded
instance generator.

``brute_force_stable`` applies the two-part stability definition (both
sides keep the system, no outside contract wanted by both) to every subset
of the ground set, reading each side's choices from the problem's cached
tables, which the enumerator shares.  It deliberately avoids the
desirability machinery and the fixed-point routes so it can arbitrate
between them; the tables are plain choices, C(A) for every menu A.
"""

from __future__ import annotations

import numbers
import random
from collections.abc import Iterable
from typing import Sequence

import numpy as np

from .choice import ChoiceFunction, LinearOrder, Quota
from .contractsets import Mask, as_int, canonical_sorted
from .errors import DomainError
from .instance import Agent, Contract, Instance, Side, TwoAgentProblem

_FAMILIES = ("linear", "quota")


def brute_force_stable(problem: TwoAgentProblem) -> list[Mask]:
    """Every stable system, by scanning the full power set.

    Only the acceptable S (F(S) = S = W(S)) are tested for a blocking
    e ∉ S, which both sides choose from S ∪ {e}.  Output order is canonical
    (cardinality, then lexicographic ids) and is part of the interface.  A
    ground over 20 contracts raises CapExceededError from
    ``problem.tables``, the one guard the enumerator shares.
    """
    n = problem.size
    tf, tw = problem.tables
    s = np.flatnonzero((tf == tw) & (tf == np.arange(1 << n)))
    blocked = np.zeros(len(s), dtype=bool)
    for e in range(n):
        se = s | 1 << e
        blocked |= (tf[se] & tw[se] & ~s) >> e & 1 == 1
    return canonical_sorted(int(x) for x in s[~blocked])


def random_instance(
    seed: int,
    firms: int,
    workers: int,
    density: float = 1.0,
    families: Sequence[str] = ("linear",),
) -> Instance:
    """Deterministic random bipartite market.

    One potential contract per (firm, worker) pair, kept with probability
    ``density``.  Each agent draws a choice family uniformly from the
    distinct names in ``families`` ("linear", "quota"; repeats and their
    order change nothing; naming none, passing a bare string or no
    iterable, or a member that is not a string, is refused), a shuffled
    strict order, and for quotas a size between 1 and its degree.  The
    result always passes instance validation.  The seed and both counts
    are integers, read as ``contractsets.as_int`` reads them, and the
    density a real number that is not a bool.
    """
    seed = as_int(seed, "seed must be an integer")
    firms = as_int(firms, "agent counts must be integers")
    workers = as_int(workers, "agent counts must be integers")
    if firms < 0 or workers < 0:
        raise DomainError("agent counts must be non-negative")
    if isinstance(density, bool) or not isinstance(density, numbers.Real):
        raise DomainError(f"density must be a real number, got {density!r}")
    if not 0.0 <= density <= 1.0:
        raise DomainError("density must lie in [0, 1]")
    if isinstance(families, str):
        raise DomainError(
            f"families must be a sequence of family names, got the string {families!r}"
        )
    if not isinstance(families, Iterable):
        raise DomainError(f"families must be a sequence of family names, got {families!r}")
    families = list(families)
    if not all(isinstance(fam, str) for fam in families):
        raise DomainError(f"families must name each family by a string, got {families!r}")
    families = sorted(set(families))
    if not families or any(fam not in _FAMILIES for fam in families):
        raise DomainError(f"families must name linear, quota or both, got {families}")

    rng = random.Random(seed)
    firm_ids = [f"f{i + 1}" for i in range(firms)]
    worker_ids = [f"w{j + 1}" for j in range(workers)]
    agents = [Agent(f, Side.FIRM) for f in firm_ids] + [
        Agent(w, Side.WORKER) for w in worker_ids
    ]

    contracts = []
    for f in firm_ids:
        for w in worker_ids:
            if rng.random() < density:
                contracts.append(Contract(f"{f}-{w}", f, w))

    adjacency: dict[str, list[int]] = {a.id: [] for a in agents}
    for cid, c in enumerate(contracts):
        adjacency[c.firm].append(cid)
        adjacency[c.worker].append(cid)

    choices: dict[str, ChoiceFunction] = {}
    for agent in agents:
        order = adjacency[agent.id]
        rng.shuffle(order)
        if not order:
            choices[agent.id] = LinearOrder(())
            continue
        family = rng.choices(families)[0]
        if family == "linear":
            choices[agent.id] = LinearOrder(tuple(order))
        else:
            choices[agent.id] = Quota(rng.randint(1, len(order)), tuple(order))
    return Instance(tuple(agents), tuple(contracts), choices)


def random_corpus(
    count: int,
    master_seed: int = 0,
    max_contracts: int = 8,
    families: Sequence[str] = _FAMILIES,
) -> list[Instance]:
    """A deterministic corpus of small random instances for sweeps.

    Shapes, densities and family mixes vary per entry but every instance
    has at most ``max_contracts`` contracts, at least 1.  The count, seed
    and bound are integers, read as ``contractsets.as_int`` reads them.
    """
    count = as_int(count, "corpus size must be an integer")
    master_seed = as_int(master_seed, "seed must be an integer")
    max_contracts = as_int(max_contracts, "max_contracts must be an integer")
    if count < 0:
        raise DomainError(f"corpus size must be non-negative, got {count}")
    if max_contracts < 1:
        raise DomainError(f"max_contracts must be at least 1, got {max_contracts}")
    master = random.Random(master_seed)
    shapes = [
        (f, w) for f in range(1, max_contracts + 1) for w in range(1, max_contracts // f + 1)
    ]
    out = []
    for _ in range(count):
        f, w = master.choice(shapes)
        density = master.choice((0.5, 0.75, 1.0))
        out.append(
            random_instance(
                master.randrange(2**32), f, w, density=density, families=families
            )
        )
    return out
