"""Exception types raised by the library, mapped onto CLI exit codes."""

from __future__ import annotations


class StableContractsError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(StableContractsError):
    """An argument is outside an operation's domain (unknown agent, menu
    outside the ground set, malformed payload, ...).

    ``code`` is the ParseError code the error is reported under when it
    stops a document from loading.  ``agent_id`` names the agent whose
    choice function is at fault, when the fault is one agent's.
    """

    code = "malformed"
    agent_id: str | None = None


class DanglingReferenceError(DomainError):
    """A name points at nothing it may point at: a contract endpoint that
    is not a declared agent of that side, or a choice function keyed to an
    unknown agent."""

    code = "dangling-reference"


class PreconditionError(DomainError):
    """A declared algorithm precondition does not hold, e.g. a start set
    that is not ample/modest, or a non-classical instance fed to
    deferred acceptance."""


class CapExceededError(DomainError):
    """An exhaustive scan was requested over a ground set larger than its
    cap.  Scans never fall back to sampling; they refuse instead."""


class ParseError(DomainError):
    """An instance document could not be loaded.

    ``code`` identifies the failure class: ``io``, ``malformed``,
    ``unknown-family``, ``dangling-reference`` or ``axiom-violation``.  The
    parser raises the first three, and ``dangling-reference`` for a payload
    naming an unknown contract; a fault Instance rejects keeps the ``code``
    of its DomainError.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ChoiceValidationError(DomainError):
    """A choice function failed exhaustive axiom validation.

    Carries the full ValidationReport so callers can render the witness;
    Instance sets ``agent_id`` to the offending agent.
    """

    code = "axiom-violation"

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class InternalInconsistencyError(StableContractsError):
    """An algorithm produced output contradicting a theorem it relies on.

    On a market reduced from an ``Instance``, so on every CLI input, this
    signals an implementation bug, never bad user input.  A
    ``TwoAgentProblem`` built directly trusts its sides: one whose side
    is not path independent can reach it with no bug, since without the
    axioms a stable system may not exist and the routes may miss one that
    does.
    """
