"""Small worked markets used across the test suite and as CLI demo input."""

from __future__ import annotations

from .choice import LinearOrder, Table
from .instance import Agent, Contract, Instance, Side


def two_parallel_contracts() -> Instance:
    """One firm, one worker, two parallel contracts between them.

    The firm prefers e1, the worker prefers e2; both {e1} and {e2} are
    stable.  The smallest market where the two sides disagree.
    """
    agents = (Agent("f1", Side.FIRM), Agent("w1", Side.WORKER))
    contracts = (
        Contract("e1", "f1", "w1"),
        Contract("e2", "f1", "w1"),
    )
    choices = {
        "f1": LinearOrder((0, 1)),
        "w1": LinearOrder((1, 0)),
    }
    return Instance(agents, contracts, choices)


def marriage_2x2() -> Instance:
    """The classical 2x2 marriage market with crossed preferences.

    Contracts e11, e12, e21, e22 (eij joins firm i with worker j).  Firms
    prefer their own-index worker, workers prefer the other firm, so the
    firm-optimal stable matching is {e11, e22} and the worker-optimal one
    is {e21, e12}.
    """
    agents = (
        Agent("f1", Side.FIRM),
        Agent("f2", Side.FIRM),
        Agent("w1", Side.WORKER),
        Agent("w2", Side.WORKER),
    )
    contracts = (
        Contract("e11", "f1", "w1"),
        Contract("e12", "f1", "w2"),
        Contract("e21", "f2", "w1"),
        Contract("e22", "f2", "w2"),
    )
    choices = {
        "f1": LinearOrder((0, 1)),
        "f2": LinearOrder((3, 2)),
        "w1": LinearOrder((2, 0)),
        "w2": LinearOrder((1, 3)),
    }
    return Instance(agents, contracts, choices)


def poset_table_instance() -> Instance:
    """A firm choosing maximal elements of a partial order, as a table.

    Contracts x1 and x2 are incomparable and both dominate x3, so the firm
    keeps {x1, x2} from the full menu.  Not expressible as a linear order
    or a quota; exercises the table family with a genuinely multi-valued
    Plott function.
    """
    agents = (
        Agent("f1", Side.FIRM),
        Agent("w1", Side.WORKER),
        Agent("w2", Side.WORKER),
        Agent("w3", Side.WORKER),
    )
    contracts = (
        Contract("x1", "f1", "w1"),
        Contract("x2", "f1", "w2"),
        Contract("x3", "f1", "w3"),
    )
    table = {
        0b000: 0b000,
        0b001: 0b001,
        0b010: 0b010,
        0b100: 0b100,
        0b011: 0b011,
        0b101: 0b001,
        0b110: 0b010,
        0b111: 0b011,
    }
    choices = {
        "f1": Table(0b111, table),
        "w1": LinearOrder((0,)),
        "w2": LinearOrder((1,)),
        "w3": LinearOrder((2,)),
    }
    return Instance(agents, contracts, choices)

