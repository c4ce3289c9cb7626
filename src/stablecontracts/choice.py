"""Choice-function families and exhaustive verification of their axioms.

A choice function C maps every menu A inside its ground set to a sub-menu
C(A) ⊆ A.  All correctness results downstream assume two rationality axioms,
which together are equivalent to path independence:

  consistency         if C(A) ⊆ B ⊆ A then C(B) = C(A)
  substitutability    if A ⊆ B then C(B) ∩ A ⊆ C(A)
  path independence   C(A ∪ B) = C(C(A) ∪ B)

A market agent chooses by one of three families, the three a document can
describe: ``LinearOrder``, ``Quota`` and ``Table``.  The first two are one
ranked rule (``_Ranked``, listed in ``RANKED``): keep the q best contracts
of a menu by priority, where a linear order is a quota of one.  The rule
satisfies the axioms by theorem, and an ``Aggregate`` of such parts
inherits them.  A ranked part, like every family but a table, tabulates
its power set with one ``_choose`` per menu.  A market
side with many ranked parts answers for all of them at once: each ranked
part keeps its priority packed as 64-bit integers beside the run record
of its shape (size and quota, one record shared by every part of that
shape), ``Aggregate`` joins both end to end in its one pass over the
parts, and x is desirable when fewer than q held contracts rank above it
in its agent's list, a running count over the whole side in one numpy
pass, kept in the narrowest unsigned dtype that holds the largest part; x
is chosen when it is also held.  One gather puts the answer back in bit
order.  For a ``Table`` the axioms are an empirical property:
``validate_plott`` checks all three exhaustively over the power set of the
ground (never by sampling), and it checks any choice function the same way.

The power-set layout comes from ``contractsets``: ``local_table``
tabulates a function over a ground's local masks, ``single_steps`` lists
every one-contract step (A, A ∪ {x}) between them, and ``canonical_order``
sorts menus by cardinality, then lexicographically by contract ids.  A map
stored in that layout (``_PowerSetMap``: the ground's ids and one
read-only array) is a ``Table`` here and a ``DesirabilityOperator`` in
``desirability``, each read by one reader and checked by one fill; its
``tabulate`` returns the array as it is, and an ``Aggregate`` gathers each
part's array onto its own axes above one contiguous block of the lowest
bits and broadcasts it over the rest.

Each axiom is decided by a one-contract version of itself, which a chain
of single additions or removals turns back into the global form (Plott
1973; Aizerman & Malishevski 1981); for every contract x and menu A
without it:

  consistency         C(A ∪ {x}) ⊆ A implies C(A) = C(A ∪ {x})
  substitutability    C(A ∪ {x}) ∩ A ⊆ C(A)
  path independence   C(C(A)) = C(A), and C(S ∪ {x}) = C(C(S) ∪ {x})
                      for every S, with x in S or not

Each rule is one numpy pass over all k·2^(k-1) steps of the 2^k table,
on C(A) and C(A ∪ {x}) gathered once for all rules (``law_steps``).
Only a law that fails runs its witness finder, a blocked numpy scan
(``first_pair``) over pairs (A, B): A runs in canonical order, and for each
A, B does too, and the first offending pair is the reported witness.
``check_laws`` is the one runner of such law rows, these and the
desirability-operator laws alike.  Path independence is decided
on its own, so the equivalence between the axioms doubles as a self-check:
a report where the first two pass and path independence fails raises, as
does a failing rule whose finder finds no witness, because either can only
mean the checks themselves are broken.
"""

from __future__ import annotations

import abc
import functools
import itertools
import struct
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping

import numpy as np

from .contractsets import (
    Mask,
    as_int,
    as_mask,
    canonical_order,
    check_power_set,
    check_subset,
    compress,
    contract_ids,
    expand,
    expansion,
    ids_of,
    local_masks,
    local_table,
    single_steps,
)
from .errors import (
    CapExceededError,
    DomainError,
    InternalInconsistencyError,
)

EXHAUSTIVE_CAP = 12

# A market side answers for its linear and quota agents in one numpy pass
# once it has this many of them.  The pass costs about the same at any
# side size, while one call per agent grows with the count.  Built cold and
# then solved by ``ag_solve`` (degree-8 agents, 3/4 of them quotas, median
# of 80-100 runs on 2 cores), the side costs 2.0 times as much with the
# pass as with the calls at 8 agents a side, 1.2-1.3 at 16, 1.0-1.1 at 24
# and 0.8 at 28 and 32.
_VECTOR_PARTS = 32

# Entries of a power-set map that are no mask: a key no row lists, and an
# entry that names a contract outside the map's ground (``Table.from_rows``
# and the mapping reader); as an index, OUTSIDE is the last entry of an array
_MISSING = -2
OUTSIDE = -1

# A market side's table keeps its lowest local bits, up to this many, as
# one last axis in C order (``Aggregate.tabulate``)
_LOW_BITS = 8

CONSISTENCY = "consistency"
SUBSTITUTABILITY = "substitutability"
PATH_INDEPENDENCE = "path-independence"


class ChoiceFunction(abc.ABC):
    """Base class for all families.  Subclasses set ``ground``, choose, and
    give desirability its family's form.  An ``Instance`` holds agents of
    the three document families only, each of its exact type."""

    ground: Mask

    def evaluate(self, menu: Mask) -> Mask:
        """C(menu), the one entry that checks the menu: a Python int inside
        the ground set passes one type test and one ``|``, and any other
        menu is read and refused by ``contractsets.check_subset``."""
        # menu | ground, not menu & ~ground, which costs ~30 ns more past bit 30
        if type(menu) is not int or menu | self.ground != self.ground:
            menu = check_subset(menu, self.ground)
        return self._choose(menu)

    def tabulate(self) -> np.ndarray:
        """C(A) for every subset A of the ground, as ``local_table`` lays
        it out: one ``_choose`` per menu unless the family builds the array
        from what it stores."""
        return local_table(self._choose, ids_of(self.ground))

    @abc.abstractmethod
    def _choose(self, menu: Mask) -> Mask:
        raise NotImplementedError

    @abc.abstractmethod
    def desirable(self, state: Mask) -> Mask:
        """D(state): every ground contract x with x ∈ C(state ∪ {x}), in the
        family's own form.  The state must lie inside the ground set;
        ``desirable_set`` checks that before calling here."""
        raise NotImplementedError


class _Ranked(ChoiceFunction):
    """Keep the ``quota`` best contracts of a menu by a strict ``priority``.

    ``priority`` lists contract ids best-first over the whole ground set,
    kept as ``contractsets.contract_ids`` reads them; menus of at most
    ``quota`` contracts are kept whole.  ``desirable(state)`` is the prefix
    of the priority up to and including the ``quota``-th contract held, or
    the whole ground when fewer are held: x is desirable exactly when fewer
    than ``quota`` held contracts rank above it.

    Path independent by theorem, so an ``Instance`` skips the scan for an
    agent of exactly a ranked family: x ∈ C(A) exactly when fewer than
    ``quota`` members of A rank above x.  Shrinking a menu that contains x
    only removes rivals, so it is substitutable; and when C(A) ⊆ B ⊆ A
    the top ``quota`` of B are those of A, so it is consistent
    (Aizerman & Malishevski 1981).  With a quota of one it is a linear
    order, whose best element of A ∪ B is the best of max(A) ∪ B (Plott
    1973).

    Its power-set table is ``ChoiceFunction.tabulate``'s, one ``_choose``
    per menu, as for every family that stores no table.
    """

    quota: int
    priority: tuple[int, ...]

    def _set_ground(self, ids, what: str) -> tuple[int, ...]:
        """Set the ground and the layout from the priority ``ids``; return
        the priority as ``contract_ids`` reads it, which the family stores."""
        priority, g = contract_ids(ids)
        size = len(priority)
        if g.bit_count() != size:
            raise DomainError(f"{what} repeats a contract id")
        quota = self.quota
        pack, run = _shape(size, quota if quota < size else size)
        object.__setattr__(self, "ground", g)
        # the priority packed as int64 and the run record of its shape,
        # which a large side's layout joins
        object.__setattr__(self, "_layout", (pack(*priority), run))
        return priority

    def _choose(self, menu: Mask) -> Mask:
        if menu.bit_count() <= self.quota:
            return menu
        out = 0
        left = self.quota
        for e in self.priority:
            if menu >> e & 1:
                out |= 1 << e
                left -= 1
                if left == 0:
                    break
        return out

    def desirable(self, state: Mask) -> Mask:
        if state.bit_count() < self.quota:
            return self.ground
        out = 0
        left = self.quota
        for e in self.priority:
            out |= 1 << e
            if state >> e & 1:
                left -= 1
                if left == 0:
                    break
        return out


@dataclass(frozen=True)
class LinearOrder(_Ranked):
    """Pick the single best element of the menu under a strict total order:
    the ranked rule with a quota of one and ``order`` as its priority.

    ``order`` lists contract ids best-first and must cover the ground set
    exactly.  The empty menu chooses nothing.  A linear order is still its
    own family, not a ``Quota``: it differs from ``Quota(1, order)`` in
    equality and in its document form, and only linear orders feed the
    classical solvers.
    """

    order: tuple[int, ...]
    ground: Mask = field(init=False)
    quota: ClassVar[int] = 1

    def __post_init__(self):
        priority = self._set_ground(self.order, "linear order")
        object.__setattr__(self, "priority", priority)
        if priority is not self.order:
            object.__setattr__(self, "order", priority)


@dataclass(frozen=True)
class Quota(_Ranked):
    """Keep the top ``quota`` elements of the menu by a strict priority
    (the ranked rule); ``quota`` must be an integer, not a bool, of at
    least 1, and a numpy integer is read as a Python int."""

    quota: int
    priority: tuple[int, ...]
    ground: Mask = field(init=False)

    def __post_init__(self):
        if type(self.quota) is not int:
            object.__setattr__(self, "quota", as_int(self.quota, "quota must be an integer"))
        if self.quota < 1:
            raise DomainError(f"quota must be at least 1, got {self.quota}")
        priority = self._set_ground(self.priority, "quota priority")
        if priority is not self.priority:
            object.__setattr__(self, "priority", priority)


@dataclass(frozen=True, init=False, eq=False)
class _PowerSetMap:
    """A map over the power set of a ground, stored one way: the ground's
    contract ids ``bits`` (ascending) and one read-only int64 array
    ``table`` of 2^k entries, laid out as ``contractsets.local_table`` lays
    out every power set.  ``tabulate`` returns the array as it is, and
    ``_lookup`` compresses a mask to its local bits and expands its entry
    back to contract ids.  Two maps are equal when they are of one type and
    store the same ids and array.  A ``Table`` and a ``DesirabilityOperator``
    share one mapping reader, ``__init__``, and one fill of rows, ``_fill``,
    and differ only in class data: ``_kind`` and ``_key`` name the map and
    its keys in a refusal, ``_outside`` words an entry outside its bound,
    and ``_bound_by_key`` bounds an entry by its own key, else the ground.
    """

    ground: Mask
    bits: tuple[int, ...]
    table: np.ndarray

    def __init__(self, ground: Mask, mapping: Mapping[Mask, Mask]):
        """Tabulate ``mapping``, key to entry in contract ids, over
        ``ground``.  A non-mapping and a ground over ``POWER_SET_CAP``
        contracts are refused before any key is read; keys and entries are
        read as ``as_mask`` reads them, and a key outside the ground is
        refused last."""
        bits = ids_of(ground)
        if not isinstance(mapping, Mapping):
            raise DomainError(f"{self._kind} must be a mapping of "
                              f"{self._key}s, got {type(mapping).__name__}")
        local = local_masks(bits)
        rows = {}
        for key, entry in mapping.items():
            i, entry = local.get(as_mask(key)), as_mask(entry)
            if i is not None:
                rows[i] = local.get(entry, OUTSIDE)
        self._fill(bits, list(rows), list(rows.values()))
        if len(rows) != len(mapping):
            raise DomainError(f"{self._kind} lists {self._key}s outside the ground set")

    def _fill(self, ids, keys, entries) -> None:
        # the one check of every map's rows: its ids and size, then that
        # every row is a pair of local masks (an entry may be OUTSIDE), then
        # the first key, in ascending mask order, that is missing or maps
        # outside its bound; once every key is there, only a key listed
        # twice leaves more rows than keys
        ids, mask = contract_ids(ids)
        k = len(ids)
        if mask.bit_count() != k:
            raise DomainError(f"{self._kind} ground repeats a contract id")
        check_power_set(k)
        n = 1 << k
        keys = np.asarray(keys, dtype=np.int64)
        entries = np.asarray(entries, dtype=np.int64)
        if keys.shape != entries.shape:
            raise DomainError(f"{self._kind} rows need one entry per {self._key}, got "
                              f"{keys.size} {self._key}s and {entries.size} entries")
        # local masks over k bits OR to one too; OUTSIDE sets every bit, so
        # only rows whose OR does not fit are bounded one by one
        for what, rows, low in ((self._key, keys, 0), ("entry", entries, OUTSIDE)):
            if np.bitwise_or.reduce(rows) >> k and (rows.min() < low or rows.max() >= n):
                stray = rows[(rows < low) | (rows >= n)][0]
                raise DomainError(f"{self._kind} {what} {stray} is not a local mask "
                                  f"over {k} contracts")
        bits = sorted(ids)
        # renumber every local mask to ascending ids in one gather; OUTSIDE
        # indexes the one sentinel entry past the masks, which keeps it
        renumber = np.concatenate((expansion([bits.index(i) for i in ids]), [OUTSIDE]))
        table = np.full(n, _MISSING, dtype=np.int64)
        table[renumber[keys]] = renumber[entries]
        bad = (table & ~(np.arange(n) if self._bound_by_key else n - 1)) != 0
        if bad.any():
            first = int(bad.argmax())
            key = [bits[i] for i in ids_of(first)]
            if table[first] == _MISSING:
                raise DomainError(f"{self._kind} is not total: {self._key} {key} is missing")
            raise DomainError(self._outside.format(key))
        if keys.size != n:
            raise DomainError(f"{self._kind} lists a {self._key} more than once")
        table.flags.writeable = False
        object.__setattr__(self, "ground", mask)
        object.__setattr__(self, "bits", tuple(bits))
        object.__setattr__(self, "table", table)

    def tabulate(self) -> np.ndarray:
        return self.table

    def _lookup(self, mask: Mask) -> Mask:
        return expand(self.table.item(compress(mask, self.bits)), self.bits)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.bits == other.bits and np.array_equal(self.table, other.table)


@dataclass(frozen=True, init=False, eq=False)
class Table(_PowerSetMap, ChoiceFunction):
    """Explicit choice listed for every subset of the ground set.

    Stored as a ``_PowerSetMap``: entry A of ``table`` is C(A) for the menu
    A, both over local bits 0..k-1.  The axiom check and ``dense_table``
    read that array as it is, ``evaluate`` looks the menu up, and
    ``desirable`` reads the state's own entry for the held contracts (x ∈ S
    is desirable exactly when x ∈ C(S)) and one entry per contract outside
    it, exact for any table.  ``Table(ground, mapping)`` tabulates a
    menu-to-choice mapping in contract ids; the document decoder uses
    ``from_rows``, which renumbers all menus and all choices to ascending
    ids by one gather each, through a permutation built by doubling.

    The table must be total over the power set and each entry must satisfy
    C(A) ⊆ A.  Whether it satisfies the rationality axioms is a separate
    question answered by ``validate_plott``: an ``Instance`` scans every
    table agent and rejects non-Plott tables at load time, but free-standing
    tables may be built invalid on purpose to exercise the validator.
    """

    _kind, _key, _bound_by_key = "table", "menu", True
    _outside = "table entry for menu {} chooses outside it"

    @classmethod
    def from_rows(cls, ids, menus, choices) -> Table:
        """The table choosing ``choices[i]`` from the distinct ``menus[i]``,
        masks over local bits that stand for the distinct ``ids`` in the
        order given (a decoder numbers contracts as it meets them); a
        choice of ``OUTSIDE`` names a contract outside the ground.  The ids
        are read as ``contract_ids`` reads them, and rows that are no such
        masks are refused."""
        table = object.__new__(cls)
        table._fill(ids, menus, choices)
        return table

    def _choose(self, menu: Mask) -> Mask:
        return self._lookup(menu)

    def desirable(self, state: Mask) -> Mask:
        # held: C(state); outside bit i: when the entry of state ∪ {i} holds it
        s, t = compress(state, self.bits), self.table
        outside = (1 << i for i in range(len(self.bits)) if not s >> i & 1)
        return expand(t.item(s) | sum(x for x in outside if t.item(s | x) & x), self.bits)


# The ranked families, by exact type: a subclass may choose otherwise
RANKED = (LinearOrder, Quota)


@functools.lru_cache(maxsize=None)
def _shape(size: int, quota: int) -> tuple[Callable[..., bytes], bytes]:
    """What a ranked part of this shape keeps in its layout: the packer of
    its ``size`` ids as int64, and its run record in a side's one-pass
    layout: for each of its ``size`` positions its rank in the part and
    the part's ``quota``, which the caller caps at ``size``, as int64
    pairs.  Built once per shape in a process and kept by every part of
    that shape; the cap keeps one key per shape that gives a different
    run."""
    run = struct.pack(f"{2 * size}q", *itertools.chain(*((r, quota) for r in range(size))))
    return struct.Struct(f"{size}q").pack, run


class _RankedParts:
    """Ranked parts (linear and quota agents) with disjoint grounds,
    answered in one numpy pass.  It is built from what the parts keep,
    their packed priorities and the run records of their shapes
    (``_shape``), which the side collects in its one pass, with a few
    C-level numpy calls and no loop over the parts: the priorities joined
    in (part, rank) order are ``pos``; the joined records give each
    position's run start ``start`` (its position less its rank) and its
    part's quota ``quota`` (at most the part's size, which changes no
    answer); and ``index`` is the position in that layout of every bit of
    ``ground``.  A contract is desirable from a state when fewer than its
    quota of held contracts rank above it in its part: an exclusive
    running count of the held contracts, restarted at each run.  The count
    is kept in the narrowest unsigned dtype that holds the largest part's
    size, so it wraps over the whole layout, but a difference inside one
    run is exact.  ``index`` reads the answer back from layout order into
    bit order in one gather.
    """

    def __init__(self, priorities, runs, ground: Mask):
        # the widest part's size: a packed priority has 8 bytes a contract
        self.count = np.min_scalar_type(max(map(len, priorities), default=0) // 8)
        self.pos = np.frombuffer(b"".join(priorities), dtype=np.int64)
        run = np.frombuffer(b"".join(runs), dtype=np.int64).reshape(-1, 2)
        order = np.arange(len(self.pos), dtype=np.intp)
        self.start = order - run[:, 0]
        self.quota = run[:, 1].astype(self.count)
        self.ground = ground
        self.nbytes = (ground.bit_length() + 7) // 8
        self.index = np.zeros(8 * self.nbytes, dtype=np.intp)
        self.index[self.pos] = order

    def desirable(self, state: Mask) -> Mask:
        state &= self.ground
        # parts holding nothing desire their whole grounds, as _Ranked does
        if not state:
            return self.ground
        raw = state.to_bytes(self.nbytes, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        held = bits[self.pos]
        ahead = np.add.accumulate(held, dtype=self.count)
        ahead -= held
        ahead -= ahead[self.start]
        out = np.packbits((ahead < self.quota)[self.index], bitorder="little")
        return int.from_bytes(out.tobytes(), "little") & self.ground


@dataclass(frozen=True)
class Aggregate(ChoiceFunction):
    """Evaluate disjoint part functions on their slice of the menu and join.

    Realizes one market side as a single choice function: parts are the
    per-agent functions, their grounds partition the aggregate ground.
    Because the grounds are disjoint, x ∈ C(S ∪ {x}) exactly when x is
    chosen by its own part from that part's slice of S plus x, so
    ``desirable`` joins each part's ``desirable`` of its slice (the
    side's D), and ``tabulate`` ORs the parts' own tables.  In C order the
    side's table ends in one axis over its lowest ``_LOW_BITS`` local bits
    (all of them on a smaller side), and above it has one axis per run of
    adjacent higher bits of one part.  Each part's table, re-indexed by
    ``expansion``, is gathered onto its own runs × that block through one
    low-index array, built by doubling for all parts at once, and
    broadcasts over the other runs; so every OR runs numpy's inner loop
    over the whole block.

    Construction is one pass over the parts: it checks that their grounds
    are disjoint, splits the linear and quota parts from the rest, and
    collects the packed priorities and run records (``_shape``) the ranked
    parts keep.  A side with at least ``_VECTOR_PARTS`` ranked parts joins
    those into one layout (``_passes``) and answers for all of them in one
    numpy pass (``_RankedParts``): their desirable set, and their choice
    as the held part of it.  Below that count, and for every other part,
    each part answers for its own slice with one ``_choose`` or
    ``desirable`` call, which checks nothing.

    Each axiom compares C on menus slice by slice, so it holds for the
    join when it holds for every part.
    """

    parts: tuple[ChoiceFunction, ...]
    ground: Mask = field(init=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        # one pass over the parts: their grounds must be disjoint, and the
        # ranked ones give their packed priorities and run records
        g = ranked = 0
        priorities, runs, rest = [], [], []
        for part in parts:
            own = part.ground
            if g & own:
                raise DomainError("aggregate parts must have disjoint grounds")
            g |= own
            if type(part) in RANKED:
                ranked |= own
                packed, run = part._layout
                priorities.append(packed)
                runs.append(run)
            else:
                rest.append(part)
        object.__setattr__(self, "ground", g)
        # the ranked parts laid out for one pass, or None below
        # _VECTOR_PARTS of them, and the parts answered one call each
        passes = None, parts
        if len(priorities) >= _VECTOR_PARTS:
            passes = _RankedParts(priorities, runs, ranked), tuple(rest)
        object.__setattr__(self, "_passes", passes)

    def _choose(self, menu: Mask) -> Mask:
        ranked, rest = self._passes
        out = 0 if ranked is None else menu & ranked.desirable(menu)
        for part in rest:
            out |= part._choose(menu & part.ground)
        return out

    def desirable(self, state: Mask) -> Mask:
        ranked, rest = self._passes
        out = 0 if ranked is None else ranked.desirable(state)
        for part in rest:
            out |= part.desirable(state & part.ground)
        return out

    def tabulate(self) -> np.ndarray:
        # in C order the table's last axis is its lowest local bits, one
        # block of 2^low menus, and above them each run of adjacent bits of
        # one part, highest bits first, is an axis
        n = self.ground.bit_count()
        check_power_set(n)
        owner = [next(i for i, p in enumerate(self.parts) if p.ground >> b & 1)
                 for b in ids_of(self.ground)]
        low = min(n, _LOW_BITS)
        runs = [(i, len(list(g))) for i, g in itertools.groupby(reversed(owner[low:]))]
        # index[i, m]: part i's own local mask of its bits in the low mask
        # m, built by doubling over the low bits for all parts at once;
        # part i owns its held[i] lowest bits there
        index = np.zeros((len(self.parts), 1 << low), dtype=np.intp)
        held = [0] * len(self.parts)
        for j, o in enumerate(owner[:low]):
            index[o, 1 << j:2 << j] = 1 << held[o]
            index[:, 1 << j:2 << j] += index[:, :1 << j]
            held[o] += 1
        table = np.zeros((1,) * (len(runs) + 1), dtype=np.int64)
        for i, part in enumerate(self.parts):
            local = [j for j, o in enumerate(owner) if o == i]
            # the part's masks with none of its low bits, one per row
            rows = np.arange(0, 1 << len(local), 1 << held[i])[:, None]
            shape = [1 << size if o == i else 1 for o, size in runs] + [1 << low]
            table = table | expansion(local)[part.tabulate()][rows + index[i]].reshape(shape)
        table = table.reshape(-1)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one exhaustive axiom scan.

    ``witness`` holds the first offending sets in the canonical scan order
    (a pair of masks for binary axioms, a single mask otherwise), or None
    when the axiom holds.
    """

    axiom: str
    passed: bool
    witness: tuple[Mask, ...] | None = None


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: tuple[AxiomCheck, ...]

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def first_failure(self) -> AxiomCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def dense_table(cf: ChoiceFunction) -> np.ndarray:
    """C(A) for every subset A of a dense ground, indexed by the mask A.

    Returns a read-only int64 array of 2^n entries; requires the ground to
    be {0, ..., n-1}, where local masks are the contract masks themselves,
    so the array is ``cf.tabulate()``: for a market side, the agents'
    tables broadcast together by ``Aggregate.tabulate``.
    """
    n = cf.ground.bit_count()
    if cf.ground != (1 << n) - 1:
        raise DomainError("dense_table requires a dense ground set")
    return cf.tabulate()


def validate_plott(cf: ChoiceFunction) -> ValidationReport:
    """Exhaustively check consistency, substitutability and path independence
    of any choice function; an ``Instance`` runs it on every table agent.

    Each axiom is decided by its one-contract rule, O(k·2^k) on a ground of
    k contracts; only a failing axiom runs the 4^k scan that names its
    canonical witness.  Raises CapExceededError when the ground exceeds
    ``EXHAUSTIVE_CAP`` (12) contracts; there is deliberately no sampling
    fallback.
    """
    report = check_laws(cf, _PLOTT_LAWS, "axiom")
    cons, subst, pathind = report.checks
    if cons.passed and subst.passed and not pathind.passed:
        raise InternalInconsistencyError(
            "consistency and substitutability passed but path independence "
            "failed; the axiom scanner itself is inconsistent"
        )
    return report


def check_laws(subject, laws, what: str) -> ValidationReport:
    """Run every law on ``subject.tabulate()``, the subject's map over the
    power set of its ground as an array over local masks.

    Each law is a ``(name, holds, finder)`` row.  ``holds(*law_steps(arr))``
    decides the law from the ``single_steps`` arrays and the entries they
    gather, gathered once per subject, with elementwise operators over all
    steps at once.  Only when it fails does ``finder(arr, order)`` scan for
    the first offending local masks in the canonical order; a failing law
    whose finder finds none raises InternalInconsistencyError.  Witnesses
    are reported in the ground's own contract ids.  Raises
    CapExceededError, before tabulating, when the ground exceeds
    ``EXHAUSTIVE_CAP`` contracts.
    """
    bits = ids_of(subject.ground)
    if len(bits) > EXHAUSTIVE_CAP:
        raise CapExceededError(
            f"ground has {len(bits)} contracts; exhaustive {what} check is "
            f"capped at {EXHAUSTIVE_CAP}"
        )
    arr = subject.tabulate()
    steps = law_steps(arr)
    checks = []
    for name, holds, finder in laws:
        witness = None
        if not holds(*steps):
            witness = finder(arr, canonical_order(len(bits)))
            if witness is None:
                raise InternalInconsistencyError(
                    "a one-contract rule failed but the exhaustive scan found "
                    "no witness; the law checks themselves are inconsistent"
                )
            witness = tuple(expand(w, bits) for w in witness)
        checks.append(AxiomCheck(name, witness is None, witness))
    return ValidationReport(all(c.passed for c in checks), tuple(checks))


def law_steps(arr: np.ndarray) -> tuple[np.ndarray, ...]:
    """What a law row's rule reads, for the map ``arr`` over a power set:
    ``(arr, bit, a, ca, cab)``, where every one-contract step (A, A ∪ {x})
    of ``single_steps`` has its bit x, its mask A, and the entries
    ``arr[A]`` and ``arr[A ∪ {x}]``, gathered once for every law."""
    bit, a, ab = single_steps(len(arr).bit_length() - 1)
    return arr, bit, a, arr[a], arr[ab]


def first_pair(arr: np.ndarray, order: np.ndarray, bad) -> tuple[Mask, Mask] | None:
    """The first (A, B) with bad(A, T[A], B, T[B]), or None.

    Rows A and columns B both run in ``order``: the first row holding a hit
    wins, and within it the first hit.  ``bad`` is evaluated on numpy
    blocks of about 4M pairs, A down the rows and B across the columns, so
    it must be written with elementwise operators only.
    """
    n = len(arr)
    ordered = arr[order]
    block = max(1, (1 << 22) // n)
    for lo in range(0, n, block):
        rows = order[lo:lo + block]
        hits = bad(rows[:, None], ordered[lo:lo + block, None], order, ordered)
        if hits.any():
            r = int(hits.any(axis=1).argmax())
            return int(rows[r]), int(order[hits[r].argmax()])
    return None


def first_state(bad: np.ndarray, order: np.ndarray) -> tuple[Mask] | None:
    """The first A in ``order`` with bad[A], or None; ``bad`` is a boolean
    array indexed by mask."""
    hits = bad[order]
    return (int(order[hits.argmax()]),) if hits.any() else None


def _consistent(arr, bit, a, ca, cab):
    # C(A ∪ {x}) ⊆ A implies C(A) = C(A ∪ {x}): the axiom itself for the
    # pair (A ∪ {x}, A), so the rule needs no C(S) ⊆ S to be exact
    return bool((((cab & ~a) != 0) | (ca == cab)).all())


def _substitutable(arr, bit, a, ca, cab):
    # C(A ∪ {x}) ∩ A ⊆ C(A)
    return not (cab & a & ~ca).any()


def _path_independent(arr, bit, a, ca, cab):
    # idempotence, the induction base, then C(S ∪ {x}) = C(C(S) ∪ {x})
    # for S = A (x ∉ S) and S = A ∪ {x} (x ∈ S)
    return bool(
        (arr[arr] == arr).all()
        and (arr[ca | bit] == cab).all()
        and (arr[cab | bit] == cab).all()
    )


def _consistency(arr, order):
    # offending when C(A) ⊆ B ⊆ A but C(B) ≠ C(A)
    return first_pair(
        arr, order,
        lambda a, ca, b, cb: ((ca & ~b) == 0) & ((b & ~a) == 0) & (cb != ca),
    )


def _substitutability(arr, order):
    # offending when C(B) ∩ A ⊄ C(A) for A ⊆ B
    return first_pair(
        arr, order, lambda a, ca, b, cb: ((a & ~b) == 0) & ((cb & a & ~ca) != 0)
    )


def _path_independence(arr, order):
    # offending when C(A ∪ B) ≠ C(C(A) ∪ B)
    return first_pair(arr, order, lambda a, ca, b, cb: arr[a | b] != arr[ca | b])


_PLOTT_LAWS = (
    (CONSISTENCY, _consistent, _consistency),
    (SUBSTITUTABILITY, _substitutable, _substitutability),
    (PATH_INDEPENDENCE, _path_independent, _path_independence),
)
