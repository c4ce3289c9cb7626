"""Seeded market generators and the instance-document writer.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed always yields the same markets, byte for byte.  Markets are
kept as plain data (``Market``) and turned into the library's JSON document
form by ``document``; the library itself only ever sees those documents or
the ``Instance`` objects built from them.

Why each workload uses the markets it does:

* ``cli_solve`` -- bounded-degree bipartite multigraphs of 50-150 contracts
  whose agent degrees spread over 6-11.  The CLI ``solve`` path is then
  almost entirely the exhaustive ``validate_plott`` axiom scan, whose cost
  grows as 4^k in an agent's degree k, while solving at this size takes a
  few milliseconds.  A minority of ``table`` agents, tabulated from a quota
  rule, keeps an exhaustive scan in the op even once ordered families are
  certified without one, and gives the document parser real work.
* ``large_solve`` -- regular bipartite multigraphs of degree 8 with 304-504
  contracts.  ``desirable_set`` evaluates the whole aggregate once per
  ground contract, so the fixed-point solvers grow roughly quadratically in
  the contract count; validation at degree 8 is cheap and happens only in
  set-up.  One in six markets is linear-only, so the classical solvers run
  too.
* ``small_enumerate`` -- cyclic Latin-square marriage markets of 12-16
  contracts with quota and table variants.  They have several stable
  systems, so enumeration, the oracle and ``check`` all do real work, and
  the cost is the 2^n power-set tabulation in ``dense_table``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LINEAR = "linear"
QUOTA = "quota"
TABLE = "table"


@dataclass
class Market:
    """A market as plain data.

    ``contracts`` holds ``(label, firm, worker)`` in declaration order.
    ``choices`` maps an agent to ``(family, q, priority)``: ``priority``
    lists the agent's contract labels best first; ``q`` is the quota
    (1 for a linear order).  A ``table`` agent is tabulated from the quota
    rule with that ``q`` and ``priority``.
    """

    firms: list[str]
    workers: list[str]
    contracts: list[tuple[str, str, str]]
    choices: dict[str, tuple[str, int, list[str]]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.contracts)

    def linear_only(self) -> bool:
        return all(fam == LINEAR for fam, _, _ in self.choices.values())


def bipartite_multigraph(
    rng: random.Random, firm_degrees: list[int], worker_degrees: list[int]
) -> list[tuple[int, int]]:
    """Random bipartite multigraph with exactly the given degrees.

    Configuration model: every agent gets one stub per unit of degree and
    the worker stubs are shuffled against the firm stubs.  Parallel edges
    are kept (parallel contracts are legal), so the degree bound holds
    exactly.  Returns ``(firm index, worker index)`` edges in stub order.
    """
    if sum(firm_degrees) != sum(worker_degrees):
        raise ValueError("the two sides must have the same total degree")
    firm_stubs = [f for f, d in enumerate(firm_degrees) for _ in range(d)]
    worker_stubs = [w for w, d in enumerate(worker_degrees) for _ in range(d)]
    rng.shuffle(worker_stubs)
    return list(zip(firm_stubs, worker_stubs))


def market_from_graph(
    rng: random.Random,
    firm_slots: list[tuple[int, str]],
    worker_slots: list[tuple[int, str]],
) -> Market:
    """Wire agents of the given ``(degree, family)`` slots at random.

    Slots are shuffled onto agent names, contracts are declared in random
    order, and every agent draws a random priority; quota and table agents
    draw a quota between 2 and their degree minus 1.
    """
    firm_slots = list(firm_slots)
    worker_slots = list(worker_slots)
    rng.shuffle(firm_slots)
    rng.shuffle(worker_slots)
    edges = bipartite_multigraph(
        rng, [d for d, _ in firm_slots], [d for d, _ in worker_slots]
    )
    rng.shuffle(edges)
    firms = [f"f{i}" for i in range(len(firm_slots))]
    workers = [f"w{j}" for j in range(len(worker_slots))]
    contracts = [
        (f"e{i}", firms[f], workers[w]) for i, (f, w) in enumerate(edges)
    ]
    adjacent: dict[str, list[str]] = {a: [] for a in firms + workers}
    for label, f, w in contracts:
        adjacent[f].append(label)
        adjacent[w].append(label)
    market = Market(firms, workers, contracts)
    for names, slots in ((firms, firm_slots), (workers, worker_slots)):
        for name, (_, family) in zip(names, slots):
            priority = list(adjacent[name])
            rng.shuffle(priority)
            q = 1 if family == LINEAR else rng.randint(2, len(priority) - 1)
            market.choices[name] = (family, q, priority)
    return market


def regular_market(rng: random.Random, agents_per_side: int, degree: int,
                   quota_share: float) -> Market:
    """Regular bipartite multigraph: every agent has the same degree.

    ``quota_share`` of the agents on each side use a quota rule, the rest a
    linear order; 0 gives a linear-only (marriage) market.
    """
    quotas = round(agents_per_side * quota_share)
    slots = [(degree, QUOTA)] * quotas + [(degree, LINEAR)] * (
        agents_per_side - quotas
    )
    return market_from_graph(rng, slots, slots)


def latin_market(rng: random.Random, dropped: int, variant: str) -> Market:
    """Cyclic Latin-square marriage market on 4 firms and 4 workers.

    Firm i ranks worker i+r r-th and worker j ranks firm j+r+1 r-th
    (indices mod 4), so each of the four "diagonal" matchings
    M_r = {(i, i+r)} gives every firm its r-th and every worker its
    (3-r)-th choice, and all four are stable.  ``dropped`` (0-4) contracts
    of the diagonal M_3 are removed, leaving 12-16 contracts and at least
    the three stable matchings M_0..M_2.

    ``variant`` picks the families: ``linear`` everywhere; ``quota`` turns
    the firms into quota rules with q = 2, a genuine many-to-one market;
    ``table`` turns two firms and two workers into tables tabulated from
    their linear orders (q = 1).  Labels and declaration order are shuffled.
    """
    k = 4
    firms = [f"f{i}" for i in range(k)]
    workers = [f"w{j}" for j in range(k)]
    gone = set(rng.sample(range(k), dropped))
    cells = [
        (i, (i + r) % k, r)
        for i in range(k)
        for r in range(k)
        if not (r == k - 1 and i in gone)
    ]
    rng.shuffle(cells)
    label_of = {(i, j): f"x{n}" for n, (i, j, _) in enumerate(cells)}
    contracts = [(label_of[i, j], firms[i], workers[j]) for i, j, _ in cells]
    market = Market(firms, workers, contracts)
    for i in range(k):
        order = [(i + r) % k for r in range(k)]
        market.choices[firms[i]] = (
            LINEAR, 1, [label_of[i, j] for j in order if (i, j) in label_of]
        )
    for j in range(k):
        order = [(j + r + 1) % k for r in range(k)]
        market.choices[workers[j]] = (
            LINEAR, 1, [label_of[i, j] for i in order if (i, j) in label_of]
        )
    if variant == QUOTA:
        for f in firms:
            _, _, priority = market.choices[f]
            market.choices[f] = (QUOTA, 2, priority)
    elif variant == TABLE:
        for name in rng.sample(firms, 2) + rng.sample(workers, 2):
            _, q, priority = market.choices[name]
            market.choices[name] = (TABLE, q, priority)
    elif variant != LINEAR:
        raise ValueError(f"unknown variant {variant!r}")
    return market


def quota_choice(q: int, priority: list[str], menu: list[str]) -> list[str]:
    """The top ``q`` members of ``menu`` by ``priority``."""
    inside = set(menu)
    return [label for label in priority if label in inside][:q]


def document(market: Market) -> dict:
    """The library's instance document for a market.

    Table agents list every subset of their contracts, in ascending mask
    order over the priority list, with the quota rule's choice.
    """
    choices: dict[str, dict] = {}
    for name, (family, q, priority) in market.choices.items():
        if family == LINEAR:
            choices[name] = {"family": LINEAR, "payload": list(priority)}
        elif family == QUOTA:
            choices[name] = {
                "family": QUOTA, "payload": {"q": q, "priority": list(priority)}
            }
        else:
            rows = []
            for mask in range(1 << len(priority)):
                menu = [p for b, p in enumerate(priority) if mask >> b & 1]
                rows.append({"menu": menu, "choice": quota_choice(q, priority, menu)})
            choices[name] = {"family": TABLE, "payload": rows}
    return {
        "agents": [{"id": f, "side": "firm"} for f in market.firms]
        + [{"id": w, "side": "worker"} for w in market.workers],
        "contracts": [
            {"id": label, "firm": f, "worker": w} for label, f, w in market.contracts
        ],
        "choices": choices,
    }
