"""The three benchmark workloads: their inputs, their op and their checks.

Each workload is a closed loop with one client.  Set-up is split into
shards; a shard generates its markets from the workload seed, writes their
documents and builds what the op needs.  The op is the unit the loop times.
The check runs after the timed loop, on the op's captured output, and uses
the library only through an ``Instance`` built from the benchmark's own
document, never through the output under test.

The library is always reached through the package namespace at call time
(``sc.ag_solve``, never a name bound at import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Any

import stablecontracts as sc
from stablecontracts import cli

from generators import (
    LINEAR,
    QUOTA,
    TABLE,
    Market,
    document,
    latin_market,
    market_from_graph,
    regular_market,
)

SHARDS = 3


@dataclass
class Item:
    """One input of the loop: a market, its document file, and what the
    op needs already built (the large_solve ``Instance``)."""

    name: str
    market: Market
    doc: dict
    path: str
    inst: Any = None
    reference: Any = field(default=None, repr=False)

    def reference_instance(self):
        """The Instance the checks use, built from the benchmark's own
        document (validated; built once, outside the timed loop)."""
        if self.reference is None:
            self.reference = self.inst or sc.instance_from_document(self.doc)
        return self.reference


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


_SET_LINE = re.compile(r"^(?:S = )?\{(.*)\}$")


def _labels(line: str) -> list[str] | None:
    """Contract labels of a printed set such as ``S = {e1, e7}``."""
    match = _SET_LINE.match(line)
    if match is None:
        return None
    body = match.group(1).strip()
    return [x.strip() for x in body.split(",")] if body else []


def _mask(item: Item, labels: list[str]) -> int:
    return sc.parse_set(item.reference_instance(), labels)


def _shard(name: str, seed: int, shard: int, workdir: str, shapes, make,
           build: bool = False) -> list[Item]:
    """One set-up shard: a market per shape from its own seeded generator,
    its document written to ``workdir`` and, with ``build``, loaded back
    into a validated ``Instance``."""
    items = []
    for i, shape in enumerate(shapes):
        market = make(random.Random(f"{name}/{seed}/{shard}/{i}"), shape)
        doc = document(market)
        path = os.path.join(workdir, f"{name}-{shard}-{i}.json")
        _write(path, doc)
        inst = sc.parse_instance(path) if build else None
        items.append(Item(f"n{market.size}/{shard}.{i}", market, doc, path, inst))
    return items


# --- cli_solve ---------------------------------------------------------------

L, Q, T = LINEAR, QUOTA, TABLE

# (degree, family) slots per side, one template per size class.  Validation
# cost is 4^k in an agent's degree k, so these fix each class's cost: the
# seed only rewires the graph and redraws priorities and quotas.  Table
# agents stay at degree 7-9 (128-512 rows each).
CLI_TEMPLATES = {
    "S": (
        [(6, L), (7, Q), (8, L), (8, T), (9, Q), (10, L)],
        [(6, Q), (6, L), (7, L), (7, Q), (7, L), (7, L), (8, Q)],
    ),
    "M": (
        [(6, L), (6, Q), (7, L), (7, T), (8, Q), (8, L), (8, L), (9, Q),
         (9, L), (9, T), (10, L), (10, Q)],
        [(6, L), (6, Q), (6, L), (7, L), (7, L), (7, Q), (7, T), (7, L),
         (8, Q), (8, L), (9, Q), (9, L), (10, L)],
    ),
    "L": (
        [(6, L), (6, Q), (6, L), (7, L), (7, Q), (7, T), (7, L), (8, Q),
         (8, L), (8, T), (8, L), (8, Q), (9, L), (9, Q), (9, T), (9, L),
         (10, Q), (10, L), (11, L)],
        [(6, L), (6, Q), (6, L), (6, L), (7, Q), (7, Q), (7, L), (7, T),
         (7, L), (7, Q), (8, L), (8, T), (8, Q), (8, L), (8, L), (9, Q),
         (9, T), (9, L), (10, Q), (10, L)],
    ),
}
CLI_CLASSES = ["S", "M", "L", "S", "M", "L"]


def cli_solve_shard(seed: int, shard: int, workdir: str) -> list[Item]:
    return _shard("cli_solve", seed, shard, workdir, CLI_CLASSES,
                  lambda rng, cls: market_from_graph(rng, *CLI_TEMPLATES[cls]))


def cli_solve_op(item: Item) -> tuple[int, str]:
    return _run_cli(["solve", item.path])


def cli_solve_check(item: Item, output: tuple[int, str]) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if len(lines) != 2 or not re.fullmatch(r"steps = \d+", lines[1]):
        return "report is not 'S = {...}' then 'steps = N'"
    labels = _labels(lines[0]) if lines[0].startswith("S = ") else None
    if labels is None:
        return "no 'S = {...}' line"
    system = _mask(item, labels)
    inst = item.reference_instance()
    if not sc.is_stable_multi(inst, system):
        return "reported system is not stable"
    if item.market.linear_only() and system != sc.gale_shapley(inst):
        return "reported system differs from gale_shapley"
    return None


# --- large_solve -------------------------------------------------------------

# (agents per side, quota share) at degree 8, so 8x agents contracts.  One
# linear-only market and five that give three quarters of the agents a
# quota rule.  Linear-only markets vary most in cost (their step counts
# spread widely), so they are the cheap ones (n = 304), below the median.
# The pool is built in cost blocks: the median falls inside the nine
# n = 400 quota markets and the tail in the middle of the six n = 504 ones.
# The costliest op takes under half a second, so a run makes several passes
# of short ops.
LARGE_SHAPES = [(38, 0.0), (50, 0.75), (63, 0.75), (50, 0.75), (63, 0.75),
                (50, 0.75)]
LARGE_DEGREE = 8


def large_solve_shard(seed: int, shard: int, workdir: str) -> list[Item]:
    return _shard("large_solve", seed, shard, workdir, LARGE_SHAPES,
                  lambda rng, shape: regular_market(rng, shape[0], LARGE_DEGREE,
                                                    shape[1]),
                  build=True)


def large_solve_op(item: Item) -> tuple:
    problem = sc.reduce_to_two_agents(item.inst)
    ag = sc.ag_solve(problem)
    yang = sc.yang_solve(problem)
    classical = None
    if item.market.linear_only():
        classical = (
            sc.gale_shapley(item.inst), sc.sotomayor_insert_solve(item.inst)
        )
    return ag.system, ag.steps, yang.system, yang.steps, classical


def large_solve_check(item: Item, output: tuple) -> str | None:
    ag, _, yang, _, classical = output
    inst = item.reference_instance()
    if ag != yang:
        return "ag_solve and yang_solve disagree"
    if not sc.is_stable_multi(inst, ag):
        return "ag_solve system is not stable"
    if classical is not None:
        gs, soto = classical
        if gs != ag:
            return "gale_shapley differs from ag_solve"
        if not sc.is_stable_multi(inst, soto):
            return "sotomayor_insert_solve system is not stable"
    return None


def large_solve_text(item: Item, output: tuple) -> str:
    """The op's result in report form, for the output digest."""
    ag, ag_steps, yang, yang_steps, classical = output
    inst = item.inst
    lines = [
        f"ag = {sc.format_set(inst, ag)} steps = {ag_steps}",
        f"yang = {sc.format_set(inst, yang)} steps = {yang_steps}",
    ]
    if classical is not None:
        lines += [f"{name} = {sc.format_set(inst, s)}"
                  for name, s in zip(("gs", "sotomayor"), classical)]
    return "\n".join(lines) + "\n"


# --- small_enumerate ---------------------------------------------------------

# (contracts dropped from the 4x4 square, variant) per shard; n = 16 - dropped.
# Cost doubles per contract, so the pool falls into cost blocks: the median
# in the middle of the six n = 15 table markets and the p90 inside the three
# n = 16 linear ones.  Quota variants (n = 13) have a single stable system,
# the others three or four.
SMALL_SHAPES = [(1, TABLE), (3, QUOTA), (0, LINEAR), (1, TABLE)]


def small_enumerate_shard(seed: int, shard: int, workdir: str) -> list[Item]:
    return _shard("small_enumerate", seed, shard, workdir, SMALL_SHAPES,
                  lambda rng, shape: latin_market(rng, *shape))


def small_enumerate_op(item: Item) -> list[tuple[int, str]]:
    """``enumerate``, then ``check`` on every listed system."""
    code, text = _run_cli(["enumerate", item.path])
    outputs = [(code, text)]
    for line in text.splitlines()[1:]:
        labels = _labels(line)
        outputs.append(_run_cli(["check", item.path, *(labels or [])]))
    return outputs


def small_enumerate_check(item: Item, output: list[tuple[int, str]]) -> str | None:
    (code, text), checks = output[0], output[1:]
    if code != 0:
        return f"enumerate exit code {code}"
    lines = text.splitlines()
    match = re.fullmatch(r"count = (\d+)", lines[0]) if lines else None
    if match is None or int(match.group(1)) != len(lines) - 1:
        return "count does not match the listed systems"
    inst = item.reference_instance()
    for line in lines[1:]:
        labels = _labels(line)
        if labels is None or not sc.is_stable_multi(inst, _mask(item, labels)):
            return f"listed system {line} is not stable"
    if len(checks) != len(lines) - 1:
        return "check was not run on every listed system"
    for code, report in checks:
        if code != 0 or "stable = true" not in report.splitlines():
            return "check does not confirm a listed system"
    return None


def _cli_text(item: Item, output) -> str:
    if isinstance(output, list):
        return "".join(text for _, text in output)
    return output[1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shard: Any
    op: Any
    check: Any
    text: Any


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_solve",
            "CLI solve of 50-150 contract documents, degrees 6-11: loads the "
            "validate_plott axiom scan and the document parser",
            cli_solve_shard, cli_solve_op, cli_solve_check, _cli_text,
        ),
        Workload(
            "large_solve",
            "ag_solve + yang_solve on validated 304-504 contract markets: "
            "loads desirable_set and the fixed points at large n",
            large_solve_shard, large_solve_op, large_solve_check,
            large_solve_text,
        ),
        Workload(
            "small_enumerate",
            "CLI enumerate + check on 12-16 contract Latin-square markets: "
            "loads the 2^n dense_table tabulation and the oracle",
            small_enumerate_shard, small_enumerate_op, small_enumerate_check,
            _cli_text,
        ),
    )
}
