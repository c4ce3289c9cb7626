"""Stable contract systems in two-sided matching markets.

Markets are bipartite multigraphs of contracts between firms and workers,
with one substitutable (path-independent) choice function per agent.  The
library reduces any such market to a single Firm and a single Worker,
decides stability three equivalent ways, and computes stable systems by two
dual fixed-point routes — a descending iteration over ample sets and an
ascending one over modest sets — cross-checked against a power-set oracle.
"""

from .ample import (
    SolveResult,
    ag_solve,
    ag_step,
    ample_from_stable,
    enumerate_stable_via_ample,
    is_ample,
)
from .choice import (
    Aggregate,
    AxiomCheck,
    ChoiceFunction,
    LinearOrder,
    Quota,
    Table,
    ValidationReport,
    validate_plott,
)
from .classical import (
    gale_shapley,
    is_matching,
    is_quasi_stable,
    sotomayor_insert_solve,
)
from .contractsets import (
    Mask,
    canonical_key,
    canonical_sorted,
    full_mask,
    ids_of,
    mask_of,
)
from .desirability import (
    DesirabilityOperator,
    desirable_set,
    induced_choice,
    validate_desirability_operator,
)
from .errors import (
    CapExceededError,
    ChoiceValidationError,
    DanglingReferenceError,
    DomainError,
    InternalInconsistencyError,
    ParseError,
    PreconditionError,
    StableContractsError,
)
from .fileformat import (
    document_from_instance,
    format_set,
    instance_from_document,
    parse_instance,
    parse_set,
)
from .instance import (
    Agent,
    Contract,
    Instance,
    Side,
    TwoAgentProblem,
    contracts_of,
    reduce_to_two_agents,
)
from .lemmas import LawResult, run_lemma_suite
from .modest import (
    ample_to_modest,
    is_modest,
    modest_from_stable,
    modest_to_ample,
    yang_solve,
    yang_step,
)
from .oracle import brute_force_stable, random_corpus, random_instance
from .stability import (
    blocking_contracts,
    is_acceptable,
    is_stable,
    is_stable_multi,
    is_stable_prop1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
