"""Bipartite contract markets and their reduction to two aggregate agents.

A market instance is a bipartite multigraph: agents on two sides (firms and
workers), contracts as edges between them, and one validated choice function
per agent over exactly its adjacent contracts E(v).  A contract's id is its
position in ``Instance.contracts``, 0..|E|-1 in declaration order; a
human-readable label rides along for file round trips and display.

Validation is mandatory and happens at construction; Instance is the only
place that checks this structure, unique agent ids and labels included (a
name pointing at nothing raises DanglingReferenceError, any other fault
DomainError).  Agent ids and contract labels are non-empty strings and
endpoints strings.  ``Agent`` and ``Contract`` are slotted records.  Each
record is tested in one pass, and its full checks run only on a record that
pass refuses, to name its first fault.  E(v) is collected as each agent's
contract ids, ascending, and compared with the ids its choice function is
declared over (a ranked agent's sorted priority, a table's ``bits``); the
choice function's ground then stands for it.  Algorithms downstream assume
every per-agent choice function is path independent.  Each agent is
exactly a linear order or quota, path independent by theorem, or a table,
which must pass the exhaustive axiom check (capped at 12 contracts); any
other object, subclasses included, is refused for its type before its
declared contracts are read.
"""

from __future__ import annotations

import enum
import functools
import types
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .choice import RANKED, Aggregate, ChoiceFunction, Table, dense_table, validate_plott
from .contractsets import Mask, full_mask
from .errors import (
    CapExceededError,
    ChoiceValidationError,
    DanglingReferenceError,
    DomainError,
)


class Side(str, enum.Enum):
    FIRM = "firm"
    WORKER = "worker"


@dataclass(frozen=True, slots=True)
class Agent:
    id: str
    side: Side


@dataclass(frozen=True, slots=True)
class Contract:
    """An edge between one firm and one worker.

    Its id is its position in ``Instance.contracts``; parallel contracts
    between the same pair are legal and distinguished only by id.
    """

    label: str
    firm: str
    worker: str


@dataclass(frozen=True)
class Instance:
    agents: tuple[Agent, ...]
    contracts: tuple[Contract, ...]
    choices: Mapping[str, ChoiceFunction]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "contracts", tuple(self.contracts))
        object.__setattr__(self, "choices", types.MappingProxyType(dict(self.choices)))
        firm, worker = Side.FIRM, Side.WORKER
        by_id: dict[str, Agent] = {}
        # E(v) of each side's agents as the ids of its contracts, ascending;
        # the choice functions' grounds are checked against them
        firm_of: dict[str, list[int]] = {}
        worker_of: dict[str, list[int]] = {}
        for a in self.agents:
            agent_id, side = a.id, a.side
            if type(agent_id) is not str or not agent_id or agent_id in by_id or (
                side is not firm and side is not worker
            ):
                _check_agent(a, by_id)
            by_id[agent_id] = a
            (firm_of if side is firm else worker_of)[agent_id] = []
        by_label: dict[str, int] = {}
        for cid, c in enumerate(self.contracts):
            label, f, w = c.label, c.firm, c.worker
            if not (
                type(label) is str and label and label not in by_label
                and type(f) is str is type(w) and f in firm_of and w in worker_of
            ):
                _check_contract(c, by_id, by_label)
            firm_of[f].append(cid)
            worker_of[w].append(cid)
            by_label[label] = cid
        object.__setattr__(self, "_by_label", by_label)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_firms", tuple(firm_of))
        object.__setattr__(self, "_workers", tuple(worker_of))
        # the choice functions' grounds, checked against E(v), then stand
        # for it
        _validate_choices(self, firm_of, worker_of)
        # each side's choice functions in declaration order, which
        # reduce_to_two_agents aggregates
        choices = self.choices
        object.__setattr__(self, "_firm_choices", tuple(choices[f] for f in self._firms))
        object.__setattr__(self, "_worker_choices", tuple(choices[w] for w in self._workers))

    @property
    def size(self) -> int:
        return len(self.contracts)

    @property
    def ground(self) -> Mask:
        return full_mask(len(self.contracts))

    def agent(self, agent_id: str) -> Agent:
        try:
            return self._by_id[agent_id]
        except KeyError:
            raise DomainError(f"unknown agent {agent_id!r}") from None

    def firms(self) -> tuple[str, ...]:
        return self._firms

    def workers(self) -> tuple[str, ...]:
        return self._workers

    def contract_id(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise DomainError(f"unknown contract label {label!r}") from None


def _validate_choices(
    inst: Instance, firm_of: Mapping[str, list[int]], worker_of: Mapping[str, list[int]]
) -> None:
    """Check that each agent has one choice function over exactly its
    adjacent contracts, listed ascending in ``firm_of`` or ``worker_of`` by
    its side, of exactly one of the three document families, and that it
    is path independent: a linear order or quota by theorem, a table by the
    exhaustive ``validate_plott`` scan.

    Agents are checked one at a time in declaration order; a fault in one
    agent's check carries that agent's ``agent_id``."""
    by_id, choices, firm = inst._by_id, inst.choices, Side.FIRM
    for agent_id in choices:
        if agent_id not in by_id:
            raise DanglingReferenceError(
                f"choice function declared for unknown agent {agent_id!r}"
            )
    missing = [a.id for a in inst.agents if a.id not in choices]
    if missing:
        raise DomainError(f"no choice function for agent(s) {missing}")
    for a in inst.agents:
        try:
            adjacent = (firm_of if a.side is firm else worker_of)[a.id]
            _validate_agent(a.id, choices[a.id], adjacent)
        except DomainError as exc:
            # agents are checked in order, so every one before it passed
            exc.agent_id = a.id
            raise


def _check_agent(a: Agent, by_id: Mapping[str, Agent]) -> None:
    """The checks of one agent record, which name its first fault."""
    if not isinstance(a.id, str) or not a.id:
        raise DomainError(f"agent id must be a non-empty string, got {a.id!r}")
    if a.id in by_id:
        raise DomainError(f"duplicate agent id {a.id!r}")
    if not isinstance(a.side, Side):
        raise DomainError(f"agent {a.id!r} has no declared side")


def _check_contract(
    c: Contract, by_id: Mapping[str, Agent], by_label: Mapping[str, int]
) -> None:
    """The checks of one contract record, which name its first fault."""
    if not isinstance(c.label, str) or not c.label:
        raise DomainError(
            f"contract label must be a non-empty string, got {c.label!r}"
        )
    if c.label in by_label:
        raise DomainError(f"duplicate contract label {c.label!r}")
    for end, side in ((c.firm, Side.FIRM), (c.worker, Side.WORKER)):
        if not isinstance(end, str):
            raise DomainError(
                f"contract {c.label!r} must name its {side.value} by agent id, "
                f"got {end!r}"
            )
        agent = by_id.get(end)
        if agent is None or agent.side is not side:
            raise DanglingReferenceError(
                f"contract {c.label!r} names {end!r}, "
                f"which is not a declared {side.value}"
            )


def _validate_agent(agent_id: str, cf: ChoiceFunction, adjacent: list[int]) -> None:
    ranked = type(cf) in RANKED
    if not ranked and type(cf) is not Table:
        raise DomainError(
            f"choice function of agent {agent_id!r} has type {type(cf).__name__}, "
            f"not LinearOrder, Quota or Table"
        )
    # the ids the choice function is declared over, ascending
    declared = sorted(cf.priority) if ranked else list(cf.bits)
    if declared != adjacent:
        raise DomainError(
            f"choice function of agent {agent_id!r} is declared over "
            f"{declared} but its adjacent contracts are {adjacent}"
        )
    if ranked:
        return
    try:
        report = validate_plott(cf)
    except CapExceededError as exc:
        raise CapExceededError(
            f"choice function of agent {agent_id!r}: {exc}"
        ) from None
    if not report.passed:
        failing = report.first_failure()
        raise ChoiceValidationError(
            f"choice function of agent {agent_id!r} violates {failing.axiom}",
            report,
        )


@dataclass(frozen=True)
class TwoAgentProblem:
    """One aggregate Firm and one aggregate Worker over a dense ground set.
    It trusts its sides' axioms; ``reduce_to_two_agents`` of an ``Instance``
    is the validated way in."""

    firm: ChoiceFunction
    worker: ChoiceFunction

    def __post_init__(self):
        if self.firm.ground != self.worker.ground:
            raise DomainError(
                "firm and worker choice functions must share one ground set"
            )
        n = self.firm.ground.bit_count()
        if self.firm.ground != full_mask(n):
            raise DomainError("the shared ground set must be dense 0..n-1")

    @property
    def ground(self) -> Mask:
        return self.firm.ground

    @property
    def size(self) -> int:
        return self.firm.ground.bit_count()

    @functools.cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, W): each side's ``dense_table``, read-only arrays indexed by
        the menu mask.  Built on first use and kept, so every power-set scan
        of this problem reads one copy."""
        return dense_table(self.firm), dense_table(self.worker)


def contracts_of(inst: Instance, agent_id: str) -> Mask:
    """E(v): the contracts naming this agent, stored once as the ground of
    its choice function, which the instance checked against them."""
    inst.agent(agent_id)
    return inst.choices[agent_id].ground


def reduce_to_two_agents(inst: Instance) -> TwoAgentProblem:
    """Collapse each side into one aggregate choice function.

    The aggregate firm choice evaluates each firm on its slice of the menu
    and joins the results; likewise for workers.  Because the agents'
    grounds partition the ground on each side, both aggregates inherit the
    rationality axioms from their parts.  Each side is built afresh from
    the instance's choice functions of that side, kept in declaration
    order; nothing of the result is kept on the instance.
    """
    return TwoAgentProblem(Aggregate(inst._firm_choices), Aggregate(inst._worker_choices))
