"""Command-line front end.

Subcommands: solve, enumerate, check, validate, generate, lemmas.  Reports
go to stdout and are byte-for-byte deterministic for identical inputs and
flags; errors go to stderr.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 internal inconsistency (an algorithm contradicted a
theorem it relies on).  Every market the CLI reads is an ``Instance``,
whose agents are path independent, so exit 3 always means a bug; only a
``TwoAgentProblem`` built in code from sides that break the axioms can
reach that error without one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import fixtures
from .ample import ag_solve, enumerate_stable_via_ample
from .classical import gale_shapley, sotomayor_insert_solve
from .contractsets import ids_of
from .errors import (
    ChoiceValidationError,
    InternalInconsistencyError,
    ParseError,
    StableContractsError,
)
from .fileformat import (
    build_instance,
    document_from_instance,
    format_set,
    load_components,
    parse_instance,
    parse_set,
)
from .instance import reduce_to_two_agents
from .lemmas import run_lemma_suite
from .modest import yang_solve
from .oracle import brute_force_stable, random_corpus, random_instance
from .stability import blocking_contracts, is_acceptable, is_stable, is_stable_multi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablecontracts",
        description="Solve, enumerate and verify stable contract systems "
        "in two-sided matching markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute one stable system")
    p_solve.add_argument(
        "--algorithm",
        choices=("ample", "modest", "gs", "sotomayor"),
        default="ample",
    )
    p_solve.add_argument(
        "--start",
        default=None,
        help="comma-separated contract ids for the initial set "
        "(ample/modest only; empty string for the empty set)",
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="print the iterates (ample/modest only)"
    )
    p_solve.add_argument("instance")
    p_solve.set_defaults(func=_cmd_solve)

    p_enum = sub.add_parser("enumerate", help="list every stable system")
    p_enum.add_argument("instance")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_check = sub.add_parser("check", help="diagnose one contract set")
    p_check.add_argument("instance")
    p_check.add_argument("contract", nargs="*", help="contract ids forming the set")
    p_check.set_defaults(func=_cmd_check)

    p_val = sub.add_parser("validate", help="validate an instance document")
    p_val.add_argument("instance")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("generate", help="emit a random instance document")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--firms", type=int, required=True)
    p_gen.add_argument("--workers", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=1.0)
    p_gen.add_argument(
        "--families",
        default="linear",
        help="comma-separated choice families to draw from (linear, quota)",
    )
    p_gen.set_defaults(func=_cmd_generate)

    p_lem = sub.add_parser(
        "lemmas", help="run the lemma suite and print a pass/fail table"
    )
    p_lem.add_argument("--problems", type=int, default=20)
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--max-contracts", type=int, default=8)
    p_lem.add_argument("instance", nargs="*", help="extra instance files to include")
    p_lem.set_defaults(func=_cmd_lemmas)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if sys.stdout is None:
        # the process started with stdout closed: a report would vanish
        print("error [io]: standard output was closed", file=sys.stderr)
        return 1
    try:
        try:
            return args.func(args)
        except InternalInconsistencyError as exc:
            print(f"internal inconsistency: {exc}", file=sys.stderr)
            return 3
        except ParseError as exc:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
            return 1
        except StableContractsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            # a buffered report reaches a closed pipe only when flushed
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error [io]: standard output was closed", file=sys.stderr)
        return 1


def _cmd_solve(args) -> int:
    classical = args.algorithm in ("gs", "sotomayor")
    if classical and (args.start is not None or args.trace):
        print(
            "usage error: --start and --trace apply only to the ample and modest algorithms",
            file=sys.stderr,
        )
        return 2
    inst = parse_instance(args.instance)
    trace, steps = (), None
    if classical:
        solver = gale_shapley if args.algorithm == "gs" else sotomayor_insert_solve
        system = solver(inst)
    else:
        problem = reduce_to_two_agents(inst)
        start = None
        if args.start is not None:
            labels = [x for x in args.start.split(",") if x]
            start = parse_set(inst, labels)
        if args.algorithm == "ample":
            result = ag_solve(problem, start)
            prefix = "B"
        else:
            result = yang_solve(problem, start)
            prefix = "Q"
        system, steps = result.system, result.steps
        if args.trace:
            trace = result.trace
    _confirm_stable(inst, system, f"the {args.algorithm} solver returned an unstable system")
    for i, step in enumerate(trace):
        print(f"{prefix}[{i}] = {format_set(inst, step)}")
    print(f"S = {format_set(inst, system)}")
    if steps is not None:
        print(f"steps = {steps}")
    return 0


def _confirm_stable(inst, system, message: str) -> None:
    # the stability definition itself, agent by agent through the agents'
    # own choices, so it reads neither D_f nor a side's one-pass evaluation
    if not is_stable_multi(inst, system):
        raise InternalInconsistencyError(message)


def _cmd_enumerate(args) -> int:
    inst = parse_instance(args.instance)
    problem = reduce_to_two_agents(inst)
    via_ample = enumerate_stable_via_ample(problem)
    oracle = brute_force_stable(problem)
    if via_ample != oracle:
        raise InternalInconsistencyError(
            "ample-route enumeration disagrees with the brute-force oracle"
        )
    for system in oracle:
        _confirm_stable(inst, system, "the enumeration listed an unstable system")
    print(f"count = {len(oracle)}")
    for system in oracle:
        print(format_set(inst, system))
    return 0


def _cmd_check(args) -> int:
    inst = parse_instance(args.instance)
    problem = reduce_to_two_agents(inst)
    s = parse_set(inst, args.contract)
    acceptable = is_acceptable(problem, s)
    blocking = blocking_contracts(problem, s)
    stable = is_stable(problem, s)
    if stable != (acceptable and blocking == 0):
        raise InternalInconsistencyError(
            "the stability characterizations disagree on this set"
        )
    if stable != is_stable_multi(inst, s):
        raise InternalInconsistencyError(
            "two-agent and multi-agent stability disagree on this set"
        )
    print(f"S = {format_set(inst, s)}")
    print(f"acceptable = {_bool(acceptable)}")
    print(f"blocking = {format_set(inst, blocking)}")
    print(f"stable = {_bool(stable)}")
    return 0


def _cmd_validate(args) -> int:
    agents, contracts, choices = load_components(args.instance)
    try:
        inst = build_instance(agents, contracts, choices)
    except ParseError as exc:
        failure = exc.__cause__
        if failure.agent_id is not None:
            # the agents before the failing one passed all their checks
            for agent in agents:
                if agent.id == failure.agent_id:
                    break
                print(f"agent {agent.id}: ok")
        if not isinstance(failure, ChoiceValidationError):
            raise

        def fmt(mask: int) -> str:
            return "{" + ", ".join(contracts[i].label for i in ids_of(mask)) + "}"

        failing = failure.report.first_failure()
        where = ", ".join(
            f"{name}={fmt(w)}" for name, w in zip(("A", "B"), failing.witness)
        )
        print(f"agent {failure.agent_id}: {failing.axiom} failed at {where}")
        raise ParseError(
            "axiom-violation",
            f"agent {failure.agent_id!r} violates {failing.axiom} at {where}",
        ) from failure
    for agent in inst.agents:
        print(f"agent {agent.id}: ok")
    print("valid")
    return 0


def _cmd_generate(args) -> int:
    families = [x for x in args.families.split(",") if x]
    inst = random_instance(
        args.seed, args.firms, args.workers, density=args.density, families=families
    )
    print(json.dumps(document_from_instance(inst), indent=2))
    return 0


def _cmd_lemmas(args) -> int:
    problems: list[tuple[str, object]] = [
        ("i1", reduce_to_two_agents(fixtures.two_parallel_contracts())),
        ("i3", reduce_to_two_agents(fixtures.marriage_2x2())),
        ("poset", reduce_to_two_agents(fixtures.poset_table_instance())),
    ]
    corpus = random_corpus(
        args.problems, master_seed=args.seed, max_contracts=args.max_contracts
    )
    for i, inst in enumerate(corpus):
        problems.append((f"rnd-{i:03d}", reduce_to_two_agents(inst)))
    for path in args.instance:
        problems.append((path, reduce_to_two_agents(parse_instance(path))))

    results = run_lemma_suite(problems)
    print(f"problems = {len(problems)}")
    all_passed = True
    for res in results:
        verdict = "pass" if res.passed else "FAIL"
        print(f"{res.key:<5} {res.description:<48} {verdict}")
        if not res.passed:
            all_passed = False
            print(f"      witness {res.detail}")
    print(f"overall = {'pass' if all_passed else 'FAIL'}")
    if not all_passed:
        raise InternalInconsistencyError("the lemma suite found a violated law")
    return 0


def _bool(value: bool) -> str:
    return "true" if value else "false"


if __name__ == "__main__":
    sys.exit(main())
