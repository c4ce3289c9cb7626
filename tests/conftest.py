import random
from typing import Iterator

import pytest

from stablecontracts import reduce_to_two_agents
from stablecontracts.contractsets import canonical_sorted, ids_of, local_table, mask_of
from stablecontracts.choice import ChoiceFunction, LinearOrder, Quota, Table, law_steps
from stablecontracts.fixtures import (
    marriage_2x2,
    poset_table_instance,
    two_parallel_contracts,
)
from stablecontracts.instance import Instance, Side, TwoAgentProblem
from stablecontracts.oracle import random_instance


def m(*ids: int) -> int:
    """Shorthand: mask of the given contract ids."""
    return mask_of(ids)


def submasks(ground: int) -> Iterator[int]:
    """All subsets of ``ground``, in ascending integer order."""
    s = 0
    while True:
        yield s
        if s == ground:
            return
        s = (s - ground) & ground


def bad_table_documents() -> dict[str, dict]:
    """Instance documents whose table payloads violate exactly the axioms
    their name says.  They must fail to load, with a minimal witness."""

    def doc(workers: int, entries: list[dict]) -> dict:
        agents = [{"id": "f1", "side": "firm"}]
        contracts = []
        choices: dict = {"f1": {"family": "table", "payload": entries}}
        for j in range(workers):
            w = f"w{j + 1}"
            agents.append({"id": w, "side": "worker"})
            contracts.append({"id": f"x{j + 1}", "firm": "f1", "worker": w})
            choices[w] = {"family": "linear", "payload": [f"x{j + 1}"]}
        return {"agents": agents, "contracts": contracts, "choices": choices}

    breaks_consistency = doc(
        3,
        [
            {"menu": [], "choice": []},
            {"menu": ["x1"], "choice": ["x1"]},
            {"menu": ["x2"], "choice": ["x2"]},
            {"menu": ["x3"], "choice": ["x3"]},
            {"menu": ["x1", "x2"], "choice": ["x1", "x2"]},
            {"menu": ["x1", "x3"], "choice": ["x1"]},
            {"menu": ["x2", "x3"], "choice": ["x2"]},
            {"menu": ["x1", "x2", "x3"], "choice": ["x1"]},
        ],
    )
    breaks_substitutability = doc(
        2,
        [
            {"menu": [], "choice": []},
            {"menu": ["x1"], "choice": []},
            {"menu": ["x2"], "choice": []},
            {"menu": ["x1", "x2"], "choice": ["x1", "x2"]},
        ],
    )
    breaks_both = doc(
        2,
        [
            {"menu": [], "choice": []},
            {"menu": ["x1"], "choice": []},
            {"menu": ["x2"], "choice": ["x2"]},
            {"menu": ["x1", "x2"], "choice": ["x1"]},
        ],
    )
    return {
        "consistency": breaks_consistency,
        "substitutability": breaks_substitutability,
        "both": breaks_both,
    }


def as_table(cf) -> Table:
    """``cf`` written out menu by menu as a table over its own ground."""
    return Table(cf.ground, {a: cf.evaluate(a) for a in submasks(cf.ground)})


class Complement(ChoiceFunction):
    """Chooses the ground outside the menu and desires the ground outside
    the state: a firm no descent or ascent settles on, since each step
    swings between the whole ground and the empty set."""

    def __init__(self, ground: int):
        self.ground = ground

    def _choose(self, menu: int) -> int:
        return self.ground & ~menu

    def desirable(self, state: int) -> int:
        return self.ground & ~state


def unsettled_problem() -> TwoAgentProblem:
    """A ``Complement`` firm against a worker who keeps every menu whole,
    over two contracts."""
    return TwoAgentProblem(Complement(m(0, 1)), Quota(2, (0, 1)))


class Listed(ChoiceFunction):
    """Chooses what ``choices`` lists for each menu, inside the menu or
    not, and desires by the definition: x with x ∈ C(state ∪ {x})."""

    def __init__(self, ground: int, choices: dict[int, int]):
        self.ground = ground
        self.choices = choices

    def _choose(self, menu: int) -> int:
        return self.choices[menu]

    def desirable(self, state: int) -> int:
        return naive_desirable(self, state)


def unsettled_descent() -> TwoAgentProblem:
    """A linear-order firm (e0 over e1) against a worker who picks {e1}
    from the menu {e0} and keeps every other menu whole, over two
    contracts.  Only a choice outside its menu keeps a descent from
    settling: here it swings between {e0, e1} and {e0}."""
    worker = Listed(m(0, 1), {0: 0, m(0): m(1), m(1): m(1), m(0, 1): m(0, 1)})
    return TwoAgentProblem(LinearOrder((0, 1)), worker)


def swapped(problem: TwoAgentProblem) -> TwoAgentProblem:
    """``problem`` with the sides' roles exchanged: ``ag_solve`` on it
    reaches the firm-optimal stable system."""
    return TwoAgentProblem(problem.worker, problem.firm)


def classical_corpus(count: int, seed: int) -> list:
    """``count`` linear-order markets of 1-6 firms and 1-6 workers at
    density 0.5, 0.75 or 1, all drawn from one master seed."""
    master = random.Random(seed)
    out = []
    for _ in range(count):
        firms = master.randint(1, 6)
        workers = master.randint(1, 6)
        density = master.choice((0.5, 0.75, 1.0))
        out.append(random_instance(master.randrange(2**32), firms, workers, density))
    return out


def redeclared(inst: Instance, workers) -> Instance:
    """``inst`` with its workers declared in the order ``workers``: each
    worker's place among the agents goes to the next worker of ``workers``.
    Firms, contracts (so every contract id) and choice functions stay as
    they are."""
    order = iter(workers)
    agents = tuple(a if a.side is Side.FIRM else inst.agent(next(order)) for a in inst.agents)
    return Instance(agents, inst.contracts, inst.choices)


@pytest.fixture(scope="session")
def i1():
    return two_parallel_contracts()


@pytest.fixture(scope="session")
def i3():
    return marriage_2x2()


@pytest.fixture(scope="session")
def poset():
    return poset_table_instance()


@pytest.fixture(scope="session")
def p1(i1):
    return reduce_to_two_agents(i1)


@pytest.fixture(scope="session")
def p3(i3):
    return reduce_to_two_agents(i3)


def _first_pair(ground, bad):
    """The first (A, B) with bad(A, B), A outer and both in canonical order."""
    order = canonical_sorted(submasks(ground))
    return next(((a, b) for a in order for b in order if bad(a, b)), None)


def naive_axiom_witnesses(cf) -> dict[str, tuple[int, int] | None]:
    """Straight-from-the-definition axiom check, independent of the
    vectorized validator: each axiom's first offending pair in canonical
    order, or None.  Slow and only for small grounds."""
    c = cf.evaluate
    return {
        "consistency": _first_pair(
            cf.ground,
            lambda a, b: c(a) & ~b == 0 and b & ~a == 0 and c(b) != c(a),
        ),
        "substitutability": _first_pair(
            cf.ground, lambda a, b: a & ~b == 0 and c(b) & a & ~c(a) != 0
        ),
        "path-independence": _first_pair(
            cf.ground, lambda a, b: c(a | b) != c(c(a) | b)
        ),
    }


def naive_desirable(cf, state: int) -> int:
    """D(state) straight from the definition, independent of the families'
    closed forms: every ground contract x with x ∈ C(state ∪ {x}), found
    through ``cf.evaluate`` alone."""
    return mask_of(
        x for x in ids_of(cf.ground) if cf.evaluate(state | 1 << x) >> x & 1
    )


def naive_dense_table(cf) -> list[int]:
    """C(A) for every menu A of a dense ground, indexed by the mask A: one
    ``cf.evaluate`` per menu, independent of ``dense_table``'s per-part
    re-indexing."""
    return [cf.evaluate(menu) for menu in range(1 << cf.ground.bit_count())]


def naive_local_table(fn, ids: list[int]) -> list[int]:
    """fn(A) for every subset A of the contract ids ``ids`` (ascending),
    indexed by the local mask of A: bit i of an index or an entry stands for
    ``ids[i]``.  One call per menu, re-indexed bit by bit, independent of
    ``contractsets``' layout."""
    out = []
    for local in range(1 << len(ids)):
        chosen = fn(mask_of(b for i, b in enumerate(ids) if local >> i & 1))
        out.append(sum(1 << i for i, b in enumerate(ids) if chosen >> b & 1))
    return out


def naive_axiom_verdicts(cf) -> dict[str, bool]:
    """Whether each axiom holds, by ``naive_axiom_witnesses``."""
    return {axiom: w is None for axiom, w in naive_axiom_witnesses(cf).items()}


def naive_operator_witnesses(op) -> dict[str, tuple[int, ...] | None]:
    """Antimonotonicity and the Löb identity straight from their
    definitions: the first offending pair or state in canonical order."""
    d = op.map
    order = canonical_sorted(submasks(op.ground))
    return {
        "antimonotonicity": _first_pair(
            op.ground, lambda a, b: a & ~b == 0 and d(b) & ~d(a) != 0
        ),
        "lob-identity": next(
            ((a,) for a in order if d(a) != d(a & d(a))), None
        ),
    }


def rule_verdicts(laws, fn, ground) -> dict[str, bool]:
    """Whether each law row's one-contract rule holds on the table of
    ``fn`` over ``ground``, without the witness scan."""
    steps = law_steps(local_table(fn, ids_of(ground)))
    return {name: holds(*steps) for name, holds, _ in laws}
