import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    as_table,
    m,
    naive_axiom_verdicts,
    naive_axiom_witnesses,
    naive_dense_table,
    naive_desirable,
    naive_local_table,
    rule_verdicts,
    submasks,
)
from stablecontracts import choice
from stablecontracts.choice import (
    PATH_INDEPENDENCE,
    Aggregate,
    ChoiceFunction,
    LinearOrder,
    Quota,
    Table,
    dense_table,
    validate_plott,
)
from stablecontracts.contractsets import (
    canonical_order,
    compress,
    expand,
    ids_of,
    mask_of,
)
from stablecontracts.classical import gale_shapley, sotomayor_insert_solve
from stablecontracts.errors import (
    CapExceededError,
    DomainError,
    InternalInconsistencyError,
    PreconditionError,
)
from stablecontracts.fileformat import (
    document_from_instance,
    instance_from_document,
    parse_instance,
)
from stablecontracts.instance import Agent, Contract, Instance, Side, reduce_to_two_agents


class TestLinearOrder:
    def test_chooses_max_of_menu(self):
        cf = LinearOrder((1, 0))  # e2 > e1
        assert cf.evaluate(m(0, 1)) == m(1)
        assert cf.evaluate(m(0)) == m(0)
        assert cf.evaluate(0) == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError):
            LinearOrder((0, 0))

    def test_menu_outside_ground_rejected(self):
        with pytest.raises(DomainError):
            LinearOrder((0, 1)).evaluate(m(2))

    def test_negative_menu_rejected(self):
        with pytest.raises(DomainError):
            LinearOrder((0, 1)).evaluate(-1)

    @pytest.mark.parametrize("cf", [LinearOrder((0, 1)), Quota(2, (1, 0)),
                                    Table(m(0, 1), {0: 0, 1: 1, 2: 2, 3: 1})],
                             ids=["linear", "quota", "table"])
    def test_numpy_menu_chooses_a_python_int(self, cf):
        for menu in range(4):
            out = cf.evaluate(np.int64(menu))
            assert type(out) is int and out == cf.evaluate(menu)

    @pytest.mark.parametrize("bad", [1.0, True, "1", np.bool_(True)],
                             ids=["float", "bool", "str", "numpy bool"])
    def test_non_integer_menu_rejected(self, bad):
        with pytest.raises(DomainError, match="contract sets are integer masks"):
            LinearOrder((0, 1)).evaluate(bad)


class TestQuota:
    def test_small_menu_kept_whole(self):
        cf = Quota(2, (0, 1, 2))  # priority e1 > e2 > e3
        assert cf.evaluate(m(1, 2)) == m(1, 2)

    def test_large_menu_truncated_by_priority(self):
        cf = Quota(2, (0, 1, 2))
        assert cf.evaluate(m(0, 1, 2)) == m(0, 1)

    def test_quota_must_be_positive(self):
        with pytest.raises(DomainError):
            Quota(0, (0,))

    @pytest.mark.parametrize("quota", [1.5, "2", True, np.bool_(True)],
                             ids=["float", "str", "bool", "numpy bool"])
    def test_quota_must_be_an_integer(self, quota):
        # the parser's rule: an int that is not a bool
        with pytest.raises(DomainError, match=r"^quota must be an integer, got "):
            Quota(quota, (0, 1))

    def test_numpy_quota_is_read_as_a_python_int(self):
        p = (0, 1, 2)
        cf = Quota(np.int64(2), p)
        assert cf == Quota(2, p) and hash(cf) == hash(Quota(2, p))
        assert type(cf.quota) is int


RANKED_MAKERS = pytest.mark.parametrize(
    "make", [LinearOrder, lambda ids: Quota(2, ids)], ids=["linear", "quota"]
)


@RANKED_MAKERS
def test_numpy_ids_past_62_choose_as_python_ints(make):
    # an int64 id shifted past bit 63 would wrap, or read as a repeat
    best_first = range(69, -1, -1)
    cf = make(tuple(np.arange(70)[::-1]))
    assert cf == make(tuple(best_first))
    assert cf.ground == mask_of(range(70))
    assert all(type(e) is int for e in cf.priority)
    menu = m(0, 3, 64, 69)
    for answer in (cf.ground, cf.evaluate(menu), cf.desirable(menu)):
        assert type(answer) is int
    assert cf.evaluate(menu) == _top(best_first, menu, cf.quota)
    small = make(tuple(np.arange(3)))
    assert type(small.ground) is int and type(small.evaluate(m(0, 2))) is int


@RANKED_MAKERS
@pytest.mark.parametrize("bad", [1.5, "a", True, np.bool_(False)],
                         ids=["float", "str", "bool", "numpy bool"])
def test_non_integer_ids_rejected(make, bad):
    with pytest.raises(DomainError, match="contract ids must be integers"):
        make((0, bad))


def _top(priority, menu, quota):
    """The ``quota`` best contracts of ``menu`` under ``priority``."""
    return mask_of([e for e in priority if menu >> e & 1][:quota])


@pytest.mark.parametrize("cf", [
    LinearOrder((3, 0, 70, 2)),
    Quota(1, (3, 0, 70, 2)),
    Quota(2, (3, 0, 70, 2, 9)),
    Quota(3, (3, 0, 70, 2, 9)),
], ids=["linear", "quota-1", "quota-2", "quota-3"])
def test_answers_around_the_quota(cf):
    # menus and states of q - 1, q and q + 1 contracts (and none), where
    # a slice of at most q is kept whole and fewer than q held leave the
    # whole ground desirable
    priority, q = cf.priority, cf.quota
    for size in sorted({0, max(q - 1, 0), q, q + 1}):
        for held in (priority[:size], priority[len(priority) - size:]):
            menu = mask_of(held)
            assert cf.evaluate(menu) == _top(priority, menu, q)
            assert cf.desirable(menu) == naive_desirable(cf, menu)
            if size <= q:
                assert cf.evaluate(menu) == menu
            if size < q:
                assert cf.desirable(menu) == cf.ground


class TestLinearOrderIsQuotaOfOne:
    """A linear order is the ranked rule with a quota of one: it answers
    as ``Quota(1, order)`` everywhere, but stays its own family."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=6, unique=True))
    @example([])
    @example([70, 3, 130, 64])
    def test_same_answers_on_every_menu(self, order):
        linear, quota = LinearOrder(order), Quota(1, order)
        assert linear.priority == quota.priority == tuple(order)
        assert linear.quota == quota.quota == 1
        assert linear.ground == quota.ground
        for menu in submasks(linear.ground):
            # the classical solvers read this rule, so it is pinned to a
            # definition that shares no code with the ranked one
            assert linear.evaluate(menu) == quota.evaluate(menu) == _top(order, menu, 1)
            want = naive_desirable(quota, menu)
            assert linear.desirable(menu) == quota.desirable(menu) == want
        assert linear.tabulate().tolist() == quota.tabulate().tolist()

    def test_stay_distinct_families(self):
        linear, quota = LinearOrder((1, 0)), Quota(1, (1, 0))
        assert linear != quota and quota != linear
        assert not isinstance(linear, Quota) and not isinstance(quota, LinearOrder)
        agents = (Agent("f", Side.FIRM), Agent("w", Side.WORKER))
        contracts = (Contract("a", "f", "w"), Contract("b", "f", "w"))
        inst = Instance(agents, contracts, {"f": linear, "w": quota})
        doc = document_from_instance(inst)
        assert doc["choices"] == {
            "f": {"family": "linear", "payload": ["b", "a"]},
            "w": {"family": "quota", "payload": {"q": 1, "priority": ["b", "a"]}},
        }
        again = instance_from_document(doc)
        assert again == inst
        assert type(again.choices["f"]) is LinearOrder and type(again.choices["w"]) is Quota
        for solver in (gale_shapley, sotomayor_insert_solve):
            with pytest.raises(PreconditionError, match="'w' has a Quota choice function"):
                solver(inst)


class TestTable:
    def test_partial_table_rejected(self):
        with pytest.raises(DomainError, match="not total"):
            Table(m(0, 1), {0: 0, m(0): m(0)})

    def test_choice_outside_menu_rejected(self):
        with pytest.raises(DomainError, match="outside"):
            Table(m(0), {0: 0, m(0): m(1)})

    def test_extra_menus_rejected(self):
        with pytest.raises(DomainError):
            Table(m(0), {0: 0, m(0): m(0), m(1): 0})

    def test_numpy_masks_are_read_as_ints(self):
        want = Table(3, {0: 0, 1: 1, 2: 2, 3: 1})
        assert Table(np.int64(3), {0: 0, 1: 1, 2: 2, 3: 1}) == want
        numpy_rows = {np.int64(a): np.uint8(c) for a, c in {0: 0, 1: 1, 2: 2, 3: 1}.items()}
        assert Table(3, numpy_rows) == want
        assert type(want.ground) is int

    @pytest.mark.parametrize("ground, rows", [
        (3.0, {0: 0, 1: 1, 2: 2, 3: 1}),
        (True, {0: 0, 1: 1}),
        (1, {0: 0, 1: 1.0}),
        (1, {0: 0, -1: 1}),
    ], ids=["float ground", "bool ground", "float choice", "negative menu"])
    def test_non_masks_rejected(self, ground, rows):
        with pytest.raises(DomainError, match="contract sets are"):
            Table(ground, rows)


@st.composite
def table_mapping(draw):
    """A total menu-to-choice mapping, C(A) ⊆ A, over 0 to 5 dense ids or
    sparse ids up to 200."""
    top = draw(st.sampled_from((4, 200)))
    ids = sorted(draw(st.lists(st.integers(min_value=0, max_value=top),
                               max_size=5, unique=True)))
    if top == 4:
        ids = list(range(len(ids)))
    ground = mask_of(ids)
    return ids, {a: a & draw(st.integers(min_value=0, max_value=ground))
                 for a in submasks(ground)}


@st.composite
def table_rows(draw):
    """``from_rows`` arguments over 0 to 5 sparse ids in any order: rows in
    any order, some menus left out, some choices outside the menu or
    ``OUTSIDE``."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=200), max_size=5, unique=True))
    full = (1 << len(ids)) - 1
    menus, choices = [], []
    for a in draw(st.permutations(range(full + 1))):
        kind = draw(st.sampled_from(["sub"] * 12 + ["any", "outside", "missing"]))
        if kind != "missing":
            menus.append(a)
            choices.append({"sub": a & draw(st.integers(0, full)),
                            "any": draw(st.integers(0, full)),
                            "outside": choice.OUTSIDE}[kind])
    return ids, menus, choices


def _naive_from_rows(ids, menus, choices):
    """The array ``from_rows`` builds, entry by entry in ascending ids, or
    the text of its first fault in ascending mask order."""
    bits = sorted(ids)

    def ascending(local):
        return sum(1 << bits.index(b) for i, b in enumerate(ids) if local >> i & 1)

    rows = {ascending(a): None if c == choice.OUTSIDE else ascending(c)
            for a, c in zip(menus, choices)}
    for a in range(1 << len(ids)):
        menu = [bits[i] for i in ids_of(a)]
        if a not in rows:
            return f"table is not total: menu {menu} is missing"
        if rows[a] is None or rows[a] & ~a:
            return f"table entry for menu {menu} chooses outside it"
    return [rows[a] for a in range(1 << len(ids))]


class TestTableArray:
    @settings(max_examples=150, deadline=None)
    @given(table_mapping())
    def test_array_is_the_per_menu_tabulation(self, case):
        ids, mapping = case
        table = Table(mask_of(ids), mapping)
        assert table.bits == tuple(ids)
        assert table.table.dtype == np.int64
        assert table.table.tolist() == naive_local_table(mapping.__getitem__, ids)
        assert all(table.evaluate(a) == c for a, c in mapping.items())
        if ids == list(range(len(ids))):
            assert naive_dense_table(table) == [mapping[a] for a in range(1 << len(ids))]

    @settings(max_examples=50, deadline=None)
    @given(table_mapping(), st.randoms(use_true_random=False))
    def test_rows_in_any_numbering(self, case, rng):
        # from_rows takes local bits numbered in any order of the ids
        ids, mapping = case
        order = list(ids)
        rng.shuffle(order)

        def local(mask):
            return sum(1 << i for i, b in enumerate(order) if mask >> b & 1)

        rows = list(mapping.items())
        rng.shuffle(rows)
        table = Table.from_rows(order, [local(a) for a, _ in rows],
                                [local(c) for _, c in rows])
        assert table == Table(mask_of(ids), mapping)

    @settings(max_examples=200, deadline=None)
    @given(table_rows())
    @example(([], [0], [choice.OUTSIDE]))
    @example(([], [], []))
    @example(([], [0], [0]))
    @example(([7], [1, 0], [choice.OUTSIDE, 0]))
    def test_rows_build_the_array_or_name_the_first_fault(self, rows):
        # at k = 0 the one menu is the full one, which OUTSIDE must not
        # alias: the error names it as choosing outside itself
        try:
            got = Table.from_rows(*rows).table.tolist()
        except DomainError as exc:
            got = str(exc)
        assert got == _naive_from_rows(*rows)

    def test_read_only(self):
        table = Table(m(0), {0: 0, m(0): m(0)})
        with pytest.raises(ValueError):
            table.table[0] = 1

    def test_over_20_contracts_is_refused_before_any_array(self):
        # choices that no array can hold: the cap must refuse first
        with pytest.raises(CapExceededError, match="21 contracts.*capped at 20"):
            Table.from_rows(list(range(21)), [(1 << 21) - 1], object())


@st.composite
def aggregate(draw):
    """An aggregate of disjoint parts over at most 9 contract ids, dense or
    sparse past 63, whose grounds interleave: linear, quota and table parts
    and parts with an empty ground; padded with empty linear orders, a side
    of 32 or more ranked parts, which answers in one pass."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=8)
                        | st.integers(min_value=60, max_value=140),
                        max_size=9, unique=True))
    parts, rest = [], list(draw(st.permutations(ids)))
    while rest:
        size = draw(st.integers(min_value=1, max_value=min(3, len(rest))))
        own, rest = tuple(rest[:size]), rest[size:]
        kind = draw(st.sampled_from(["linear", "quota", "table"]))
        if kind == "linear":
            parts.append(LinearOrder(own))
        elif kind == "quota":
            parts.append(Quota(draw(st.integers(min_value=1, max_value=size)), own))
        else:
            ground = mask_of(own)
            parts.append(Table(ground, {
                a: a & draw(st.integers(min_value=0, max_value=ground))
                for a in submasks(ground)
            }))
    parts += [LinearOrder(())] * draw(st.sampled_from([0, 1, 32]))
    return Aggregate(tuple(draw(st.permutations(parts))))


class TestAggregate:
    @settings(max_examples=150, deadline=None)
    @given(aggregate())
    @example(Aggregate(()))
    @example(Aggregate((LinearOrder(()),)))
    @example(Aggregate((LinearOrder((70, 2)), Quota(1, (64, 0)), LinearOrder((1,)))))
    # one ranked part past id 63, with quotas up to and past its size
    @example(Aggregate((Quota(1, ()),)))
    @example(Aggregate((LinearOrder((70, 3, 130, 64, 0, 99, 5, 63, 12, 140)),)))
    @example(Aggregate((Quota(10, (70, 3, 130, 64, 0, 99, 5, 63, 12, 140)),)))
    @example(Aggregate((Quota(12, (70, 3, 130, 64, 0, 99, 5, 63, 12, 140)),)))
    @example(Aggregate((Quota(5, (9, 80, 2, 71, 66)),)))
    def test_tabulates_as_it_evaluates(self, agg):
        table = agg.tabulate()
        assert table.dtype == np.int64
        assert not table.flags.writeable
        assert table.tolist() == naive_local_table(agg.evaluate, ids_of(agg.ground))

    def test_one_pass_side_is_covered(self):
        # the strategy's padding reaches the one-pass evaluation
        agg = Aggregate((Quota(2, (5, 1, 70)),) + (LinearOrder(()),) * 32)
        assert agg._passes[0] is not None
        assert agg.tabulate().tolist() == naive_local_table(agg.evaluate, [1, 5, 70])

    def test_overlapping_parts_rejected(self):
        with pytest.raises(DomainError, match="disjoint"):
            Aggregate((LinearOrder((0, 1)), LinearOrder((1, 2))))

    def test_joins_part_choices(self):
        agg = Aggregate((LinearOrder((0, 1)), Quota(1, (3, 2))))
        assert agg.ground == m(0, 1, 2, 3)
        assert agg.evaluate(m(0, 1, 2, 3)) == m(0, 3)
        assert agg.evaluate(m(1, 2)) == m(1, 2)

    def test_empty_aggregate(self):
        agg = Aggregate(())
        assert agg.ground == 0
        assert agg.evaluate(0) == 0

    @pytest.mark.parametrize("agg", [
        Aggregate(()),
        Aggregate((
            LinearOrder((9, 2)),
            Quota(2, (4, 0, 7)),
            Table(m(1, 3), {0: 0, m(1): m(1), m(3): m(3), m(1, 3): m(3)}),
        )),
        Aggregate((Quota(1, (70, 64)), LinearOrder((65,)))),
    ], ids=["empty", "interleaved", "past-63"])
    def test_tabulates_its_parts_without_evaluating_itself(self, agg, monkeypatch):
        expected = naive_local_table(agg.evaluate, ids_of(agg.ground))
        calls = []
        monkeypatch.setattr(Aggregate, "_choose", lambda self, menu: calls.append(menu))
        assert agg.tabulate().tolist() == expected
        assert validate_plott(agg).passed
        assert calls == []

    @pytest.mark.parametrize("n, shape", [
        (n, shape) for n in (0, 1, 7, 8, 9, 16, 20)
        for shape in ("interleaved", "straddling", "one part")
    ])
    def test_low_block_tabulates_as_it_evaluates(self, n, shape):
        # the lowest choice._LOW_BITS local bits are one block; parts own
        # shuffled bits, runs across the block's edge, or the whole side
        rng = random.Random(n)
        ids = [3 * i + 1 for i in range(n)]
        if shape == "interleaved":
            rng.shuffle(ids)
        low = choice._LOW_BITS
        if shape == "interleaved":
            cuts = sorted(rng.sample(range(1, n), min(n - 1, 4))) if n else []
        elif shape == "straddling":
            cuts = [c for c in (low - 1, low + 2) if c < n]
        else:
            cuts = []
        parts = []
        for i, j in zip([0, *cuts], [*cuts, n]):
            chunk = tuple(ids[i:j])
            quota = Quota(2, chunk)
            if len(parts) % 3 == 1 and len(chunk) <= 5:
                parts.append(as_table(quota))
            elif len(parts) % 3 == 2:
                parts.append(LinearOrder(chunk))
            else:
                parts.append(quota)
        agg = Aggregate(tuple(parts))
        table = agg.tabulate()
        assert len(table) == 1 << n
        # every menu up to 16 contracts; at 20, every menu of the low block
        # under a sample of high masks
        menus = range(1 << n)
        if n > 16:
            menus = [h << low | x for h in rng.sample(range(1 << n - low), 24)
                     for x in range(1 << low)]
        bits = sorted(ids)
        assert [int(table[a]) for a in menus] == [
            compress(agg.evaluate(expand(a, bits)), bits) for a in menus
        ]

    def test_side_over_20_contracts_is_refused_before_its_parts(self, monkeypatch):
        agg = Aggregate(tuple(LinearOrder((e,)) for e in range(21)))
        monkeypatch.setattr(LinearOrder, "tabulate", lambda self: 1 / 0)
        with pytest.raises(CapExceededError, match="21 contracts.*capped at 20"):
            agg.tabulate()


class TestValidatePlott:
    def test_linear_order_three_contracts_passes_all_axioms(self):
        report = validate_plott(LinearOrder((2, 0, 1)))
        assert report.passed
        assert [c.passed for c in report.checks] == [True, True, True]

    def test_report_lookups(self):
        report = validate_plott(LinearOrder((2, 0, 1)))
        assert report.first_failure() is None
        assert report.check(PATH_INDEPENDENCE) is report.checks[2]
        with pytest.raises(KeyError, match="no such axiom"):
            report.check("no such axiom")

    def test_identity_table_passes(self):
        cf = Table(m(0, 1), {menu: menu for menu in submasks(m(0, 1))})
        assert validate_plott(cf).passed

    def test_best_acceptable_table_is_plott(self):
        # max by e1 > e2 where e2 alone is unacceptable: C({e1,e2})={e1},
        # C({e1})={e1}, C({e2})=∅.  Passes all three axioms.
        cf = Table(m(0, 1), {0: 0, m(0): m(0), m(1): 0, m(0, 1): m(0)})
        report = validate_plott(cf)
        assert report.passed
        assert naive_axiom_verdicts(cf) == {
            "consistency": True,
            "substitutability": True,
            "path-independence": True,
        }

    def test_consistency_only_failure_with_minimal_witness(self):
        # the same table on the dense ground and relabelled onto the sparse
        # ground {2, 5, 9}: witnesses come back in the table's own ids
        for x, y, z in ((0, 1, 2), (2, 5, 9)):
            cf = Table(
                m(x, y, z),
                {
                    0: 0,
                    m(x): m(x),
                    m(y): m(y),
                    m(z): m(z),
                    m(x, y): m(x, y),
                    m(x, z): m(x),
                    m(y, z): m(y),
                    m(x, y, z): m(x),
                },
            )
            report = validate_plott(cf)
            assert not report.passed
            assert not report.check("consistency").passed
            assert report.check("consistency").witness == (m(x, y, z), m(x, y))
            assert report.check("substitutability").passed
            assert not report.check("path-independence").passed
            assert report.check("path-independence").witness == (m(x, z), m(y))
            assert naive_axiom_verdicts(cf) == {
                "consistency": False,
                "substitutability": True,
                "path-independence": False,
            }

    def test_substitutability_only_failure_with_minimal_witness(self):
        # complements: nothing alone, everything together
        cf = Table(m(0, 1), {0: 0, m(0): 0, m(1): 0, m(0, 1): m(0, 1)})
        report = validate_plott(cf)
        assert not report.passed
        assert report.check("consistency").passed
        assert not report.check("substitutability").passed
        assert report.check("substitutability").witness == (m(0), m(0, 1))
        assert report.check("path-independence").witness == (m(0), m(1))
        assert naive_axiom_verdicts(cf) == {
            "consistency": True,
            "substitutability": False,
            "path-independence": False,
        }

    def test_double_failure_with_minimal_witnesses(self):
        cf = Table(m(0, 1), {0: 0, m(0): 0, m(1): m(1), m(0, 1): m(0)})
        report = validate_plott(cf)
        assert report.check("consistency").witness == (m(0, 1), m(0))
        assert report.check("substitutability").witness == (m(0), m(0, 1))

    def test_cap_exceeded_is_explicit(self):
        with pytest.raises(CapExceededError):
            validate_plott(LinearOrder(tuple(range(13))))

    def test_exhaustive_at_ten_contracts(self):
        # the largest ground the invariants pin for routine exhaustive runs
        assert validate_plott(LinearOrder(tuple(range(10)))).passed
        assert validate_plott(Quota(4, tuple(reversed(range(10))))).passed

    def test_non_dense_ground_is_supported(self):
        report = validate_plott(LinearOrder((5, 2)))
        assert report.passed

    def test_scan_order_is_canonical(self):
        # witnesses are canonical only if the scan walks this order:
        # cardinality first, then ids lexicographically, spelled here
        # without ``canonical_key``
        for k in range(11):
            want = [mask_of(c) for r in range(k + 1)
                    for c in itertools.combinations(range(k), r)]
            assert list(canonical_order(k)) == want


@st.composite
def ordered_family(draw):
    size = draw(st.integers(min_value=0, max_value=8))
    order = draw(st.permutations(range(size)))
    kind = draw(st.sampled_from(["linear", "quota", "aggregate"]))
    if kind == "linear" or size == 0:
        return LinearOrder(tuple(order))
    if kind == "quota":
        quota = draw(st.integers(min_value=1, max_value=size))
        return Quota(quota, tuple(order))
    cut = draw(st.integers(min_value=0, max_value=size))
    left, right = tuple(order[:cut]), tuple(order[cut:])
    parts = []
    if left:
        parts.append(LinearOrder(left))
    if right:
        parts.append(Quota(draw(st.integers(min_value=1, max_value=len(right))), right))
    return Aggregate(tuple(parts))


@settings(max_examples=500, deadline=None)
@given(ordered_family())
def test_ordered_families_always_pass(cf):
    assert validate_plott(cf).passed


# Relabelling contracts changes no verdict, so the identity order covers
# every linear and quota shape of its size.  At k = 12 the quotas are
# trimmed to three: all twelve would double the run time.
_CERTIFIED_SHAPES = (
    [(k, None) for k in range(12)]
    + [(k, q) for k in range(1, 12) for q in range(1, k + 1)]
    + [(12, None), (12, 2), (12, 6), (12, 11)]
)


@pytest.mark.parametrize("k, quota", _CERTIFIED_SHAPES)
def test_certified_shapes_pass_the_exhaustive_scan(k, quota):
    # the theorem, up to the scan's cap, that lets an instance skip the
    # scan for an agent of exactly a ranked family
    order = tuple(range(k))
    cf = LinearOrder(order) if quota is None else Quota(quota, order)
    assert validate_plott(cf).passed


class _Complements(Quota):
    """A quota subclass that chooses its whole ground or nothing."""

    def _choose(self, menu):
        return menu if menu == self.ground else 0


@pytest.mark.parametrize("order", [(0, 1), (3, 0, 5, 1, 4, 2)], ids=["k2", "k6"])
def test_the_scan_reads_a_subclass_s_own_choice(order):
    # a free-standing subclass tabulates its own choice, at any size
    cf = _Complements(1, order)
    assert cf.tabulate().tolist() == naive_local_table(cf.evaluate, ids_of(cf.ground))
    assert not validate_plott(cf).passed


@settings(max_examples=100, deadline=None)
@given(ordered_family())
def test_empty_menu_chooses_nothing(cf):
    assert cf.evaluate(0) == 0


@st.composite
def table_up_to_six(draw):
    """An arbitrary table, or a quota's table with one to three menus
    re-chosen, over 0 to 6 dense or sparse contract ids."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=9), max_size=6, unique=True))
    ground = mask_of(ids)

    def any_subset(menu):
        return menu & draw(st.integers(min_value=0, max_value=ground))

    if draw(st.booleans()):
        return Table(ground, {a: any_subset(a) for a in submasks(ground)})
    quota = Quota(draw(st.integers(min_value=1, max_value=max(len(ids), 1))),
                  tuple(draw(st.permutations(ids))))
    entries = {a: quota.evaluate(a) for a in submasks(ground)}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = draw(st.sampled_from(sorted(entries)))
        entries[a] = any_subset(a)
    return Table(ground, entries)


@st.composite
def random_table(draw):
    # dense or sparse grounds, so witnesses are also checked after expansion
    ids = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                        max_size=4, unique=True))
    ground = mask_of(ids)
    entries = {}
    for menu in submasks(ground):
        # pick an arbitrary subset of the menu
        entries[menu] = menu & draw(st.integers(min_value=0, max_value=ground))
    return Table(ground, entries)


@settings(max_examples=200, deadline=None)
@given(random_table())
def test_validator_agrees_with_naive_oracle(cf):
    _assert_rules_agree_with_the_global_scan(cf)


@settings(max_examples=200, deadline=None)
@given(table_up_to_six())
def test_one_contract_rules_agree_with_the_global_scan(cf):
    _assert_rules_agree_with_the_global_scan(cf)


@settings(max_examples=200, deadline=None)
@given(table_up_to_six())
def test_table_desirable_is_the_definition_on_any_table(cf):
    # arbitrary tables too, not only those that validate: the held part
    # comes off the state's own entry, which rests on C(A) ⊆ A alone
    for state in submasks(cf.ground):
        assert cf.desirable(state) == naive_desirable(cf, state)


def _assert_rules_agree_with_the_global_scan(cf):
    witnesses = naive_axiom_witnesses(cf)
    verdicts = {axiom: w is None for axiom, w in witnesses.items()}
    assert rule_verdicts(choice._PLOTT_LAWS, cf.evaluate, cf.ground) == verdicts
    report = validate_plott(cf)
    assert {c.axiom: c.passed for c in report.checks} == verdicts
    assert {c.axiom: c.witness for c in report.checks} == witnesses
    # the equivalence both ways: PI holds exactly when the two axioms do
    assert verdicts["path-independence"] == (
        verdicts["consistency"] and verdicts["substitutability"]
    )


def _pairs_counted(monkeypatch):
    calls = []
    original = choice.first_pair

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(choice, "first_pair", counting)
    return calls


class TestOneContractRules:
    # C(∅) = ∅, each singleton chosen, C({e1, e2}) = ∅: the steps with
    # x ∉ S and idempotence all hold, and only a step with x ∈ S catches it
    # (S = {e1, e2}, x = e1: C(S) = ∅ but C(C(S) ∪ {x}) = {e1})
    NEEDS_STEPS_INSIDE = Table(m(0, 1), {0: 0, m(0): m(0), m(1): m(1), m(0, 1): 0})

    def test_path_independence_needs_the_steps_inside_the_set(self):
        cf = self.NEEDS_STEPS_INSIDE
        c = cf.evaluate
        outside = all(
            c(s | 1 << x) == c(c(s) | 1 << x)
            for s in submasks(cf.ground) for x in ids_of(cf.ground & ~s)
        )
        idempotent = all(c(c(a)) == c(a) for a in submasks(cf.ground))
        assert outside and idempotent
        assert naive_axiom_witnesses(cf)["path-independence"] == (m(0, 1), m(0))
        report = validate_plott(cf)
        assert report.check("path-independence").witness == (m(0, 1), m(0))
        assert not rule_verdicts(choice._PLOTT_LAWS, c, cf.ground)["path-independence"]

    def test_valid_table_makes_no_pair_scan(self, monkeypatch, poset):
        calls = _pairs_counted(monkeypatch)
        for cf in (poset.choices["f1"], as_table(Quota(2, (3, 0, 2)))):
            assert validate_plott(cf).passed
        assert calls == []

    def test_each_failing_law_makes_one_pair_scan(self, monkeypatch):
        # breaks consistency, and so path independence, but not
        # substitutability: one scan each for the two failing laws
        calls = _pairs_counted(monkeypatch)
        cf = Table(m(0, 1, 2), {
            0: 0, m(0): m(0), m(1): m(1), m(2): m(2),
            m(0, 1): m(0, 1), m(0, 2): m(0), m(1, 2): m(1), m(0, 1, 2): m(0),
        })
        report = validate_plott(cf)
        assert [c.passed for c in report.checks] == [False, True, False]
        assert len(calls) == 2

    @pytest.mark.parametrize("finder", [
        choice._path_independence,  # finds no witness on a valid table
        lambda arr, order: (0, 0),  # a witness the other two axioms deny
    ], ids=["no-witness", "denied-witness"])
    def test_false_path_independence_failure_is_internal(self, monkeypatch, poset, finder):
        cons, subst, _ = choice._PLOTT_LAWS
        monkeypatch.setattr(choice, "_PLOTT_LAWS", (
            cons, subst, (PATH_INDEPENDENCE, lambda arr, *steps: False, finder),
        ))
        with pytest.raises(InternalInconsistencyError):
            validate_plott(poset.choices["f1"])


@st.composite
def dense_part(draw, ids):
    """A linear, quota or arbitrary (not necessarily Plott) table agent over
    exactly the contracts ``ids``; tables only up to five contracts."""
    order = tuple(draw(st.permutations(ids)))
    family = draw(st.sampled_from(("linear", "quota", "table")))
    if family == "linear" or not ids:
        return LinearOrder(order)
    if family == "quota" or len(ids) > 5:
        return Quota(draw(st.integers(min_value=1, max_value=len(ids))), order)
    ground = mask_of(ids)
    return Table(ground, {
        a: a & draw(st.integers(min_value=0, max_value=ground))
        for a in submasks(ground)
    })


@st.composite
def dense_choice(draw):
    """One agent, or an aggregate of up to four whose grounds interleave,
    over the dense ground {0, ..., n-1}; n may be 0."""
    ids = list(range(draw(st.integers(min_value=0, max_value=9))))
    if draw(st.booleans()):
        return draw(dense_part(ids))
    parts = draw(st.integers(min_value=1, max_value=4))
    owner = [draw(st.integers(min_value=0, max_value=parts - 1)) for _ in ids]
    return Aggregate(tuple(
        draw(dense_part([x for x, o in zip(ids, owner) if o == p]))
        for p in range(parts)
    ))


@st.composite
def ranked_side(draw):
    """Parts of a market side on a sparse ground with ids past 63: linear
    and quota agents (some empty, as for isolated agents; quotas up to two
    past the degree), a few on either side of ``_VECTOR_PARTS``, and up
    to two table agents."""
    count = draw(st.sampled_from((0, 1, 5, choice._VECTOR_PARTS - 1,
                                  choice._VECTOR_PARTS, choice._VECTOR_PARTS + 3)))
    degrees = draw(st.lists(st.integers(min_value=0, max_value=4),
                            min_size=count, max_size=count))
    tables = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))
    pool = draw(st.permutations(range(3 * (sum(degrees) + sum(tables)) + 1)))
    ids = iter(pool)
    parts = []
    for degree in degrees:
        order = tuple(next(ids) for _ in range(degree))
        if degree and draw(st.booleans()):
            parts.append(Quota(draw(st.integers(min_value=1, max_value=degree + 2)), order))
        else:
            parts.append(LinearOrder(order))
    for size in tables:
        ground = mask_of(next(ids) for _ in range(size))
        parts.append(Table(ground, {
            a: a & draw(st.integers(min_value=0, max_value=ground))
            for a in submasks(ground)
        }))
    return tuple(draw(st.permutations(parts)))


def _joined(parts, menu, answer):
    out = 0
    for part in parts:
        out |= answer(part, menu & part.ground)
    return out


def _both_paths(parts):
    """The side over ``parts`` with its ranked parts forced into one numpy
    pass, then forced to answer one call each."""
    sides = []
    for limit in (0, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(choice, "_VECTOR_PARTS", limit)
            sides.append(Aggregate(parts))
    return sides


def _wide_document() -> dict:
    """41 firms and 300 workers.  f0 holds 256 contracts under a quota of 3,
    f1-f37 hold 8 drawn contracts each under linear orders and quotas of 2
    (of 2^16 for f2), and the table firms f38-f40 hold one contract with
    each of the table workers w0 and w1 and one drawn; every other worker
    ranks its contracts in a drawn linear order (or has none), but w2
    keeps its best 256."""
    rng = random.Random(22)
    firms = [f"f{i}" for i in range(41)]
    workers = [f"w{j}" for j in range(300)]
    pairs = [("f0", w) for w in workers[2:258]]
    pairs += [(f, w) for f in firms[1:38] for w in rng.sample(workers[2:], 8)]
    pairs += [(f, w) for f in firms[38:] for w in workers[:2] + rng.sample(workers[2:], 1)]
    contracts = [{"id": f"c{n}", "firm": f, "worker": w} for n, (f, w) in enumerate(pairs)]
    orders = {a: [] for a in firms + workers}
    for c in contracts:
        orders[c["firm"]].append(c["id"])
        orders[c["worker"]].append(c["id"])
    for labels in orders.values():
        rng.shuffle(labels)

    def table(order, q):
        rows = []
        for size in range(len(order) + 1):
            for menu in itertools.combinations(order, size):
                rows.append({"menu": list(menu),
                             "choice": [c for c in order if c in menu][:q]})
        return {"family": "table", "payload": rows}

    choices = {a: {"family": "linear", "payload": o} for a, o in orders.items()}
    choices["f0"] = {"family": "quota", "payload": {"q": 3, "priority": orders["f0"]}}
    for f in firms[1:38:2]:
        choices[f] = {"family": "quota", "payload": {"q": 2, "priority": orders[f]}}
    # quotas past what each side's count dtype holds keep all they hold
    choices["f2"] = {"family": "quota", "payload": {"q": 1 << 16, "priority": orders["f2"]}}
    choices["w2"] = {"family": "quota", "payload": {"q": 256, "priority": orders["w2"]}}
    for f in firms[38:]:
        choices[f] = table(orders[f], 2)
    for w in workers[:2]:
        choices[w] = table(orders[w], 1)
    return {
        "agents": [{"id": f, "side": "firm"} for f in firms]
        + [{"id": w, "side": "worker"} for w in workers],
        "contracts": contracts,
        "choices": choices,
    }


class TestVectorPass:
    """A side with ``_VECTOR_PARTS`` or more linear and quota agents answers
    for them in one numpy pass; it must answer as the per-part join."""

    def test_selected_by_the_count_of_ordered_parts(self):
        table = Table(m(500), {0: 0, m(500): m(500)})
        below = [LinearOrder((i,)) for i in range(choice._VECTOR_PARTS - 1)]
        assert Aggregate(tuple(below) + (table,))._passes == (None, tuple(below) + (table,))
        at = below + [Quota(2, (200, 100, 300))]
        ranked, rest = Aggregate((table, *at))._passes
        assert ranked is not None and rest == (table,)

    def test_a_subclass_part_answers_for_itself(self):
        # the pass reads a ranked part's priority, not its choice, so only
        # parts of exactly a ranked family join it
        odd = _Complements(1, (100, 101))
        parts = tuple(LinearOrder((i,)) for i in range(choice._VECTOR_PARTS)) + (odd,)
        side = Aggregate(parts)
        assert side._passes[0] is not None and side._passes[1] == (odd,)
        assert side.evaluate(m(100, 101)) == m(100, 101)

    @settings(max_examples=150, deadline=None)
    @given(ranked_side(), st.data())
    def test_agrees_with_the_per_part_join(self, parts, data):
        ranked = sum(type(p) in choice.RANKED for p in parts)
        # the constant as it is, then each path forced on the same parts
        for limit in (choice._VECTOR_PARTS, 0, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(choice, "_VECTOR_PARTS", limit)
                agg = Aggregate(parts)
                assert (agg._passes[0] is not None) == (ranked >= limit)
                g = agg.ground
                menus = [0, g] + [g & data.draw(st.integers(min_value=0, max_value=g))
                                  for _ in range(3)]
                for menu in menus:
                    assert agg.evaluate(menu) == _joined(parts, menu, ChoiceFunction.evaluate)
                    want = _joined(parts, menu, lambda part, s: part.desirable(s))
                    assert agg.desirable(menu) == want == naive_desirable(agg, menu)

    @pytest.mark.parametrize("size, quota", [
        (255, 1), (255, 255), (255, 256), (256, 255), (256, 256), (300, 256), (300, 302),
    ])
    def test_wide_part(self, size, quota):
        # one ranked part of ``size`` contracts beside 40 of degree 4: its
        # count fits a byte up to 255 contracts, so there the count over the
        # whole layout wraps, and a quota past the degree keeps all it holds
        rng = random.Random(f"{size}/{quota}")
        ids = rng.sample(range(3 * (size + 160)), size + 160)
        wide = Quota(quota, ids[:size])
        narrow = [
            (Quota(2, chunk) if i % 2 else LinearOrder(chunk))
            for i, chunk in enumerate(zip(*[iter(ids[size:])] * 4))
        ]
        parts = (*narrow[:20], wide, *narrow[20:])
        vector, loop = _both_paths(parts)
        assert vector._passes[0].count == (np.uint8 if size <= 255 else np.uint16)
        assert loop._passes[0] is None
        g, rest = vector.ground, vector.ground & ~wide.ground
        # the wide part holding its best quota - 1, quota, quota + 1 and all
        # of its contracts, beside every other contract or none
        held = [mask_of(wide.priority[:k]) for k in (quota - 1, quota, quota + 1, size)]
        menus = [0, g, *(g & rng.getrandbits(g.bit_length()) for _ in range(4))]
        menus += [h | other for h in held for other in (0, rest)]
        for menu in menus:
            want = _joined(parts, menu, ChoiceFunction.evaluate)
            assert vector.evaluate(menu) == loop.evaluate(menu) == want
            want = _joined(parts, menu, lambda part, s: part.desirable(s))
            assert vector.desirable(menu) == loop.desirable(menu) == want

    def test_parsed_document_answers_as_its_agents(self, tmp_path):
        # the benchmark's path: a document parsed, then reduced.  The firm
        # side has a quota firm of 256 contracts and three table firms beside
        # 38 ranked ones, and the worker side two table workers beside 298
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(_wide_document()))
        inst = parse_instance(str(path))
        problem = reduce_to_two_agents(inst)
        wide = inst.choices["f0"]
        for side, names, tables, count in (
            (problem.firm, inst.firms(), 3, np.uint16),
            (problem.worker, inst.workers(), 2, np.uint8),
        ):
            parts = tuple(inst.choices[a] for a in names)
            ranked, rest = side._passes
            assert ranked.count == count
            assert rest == tuple(p for p in parts if type(p) is Table) and len(rest) == tables
            g, rng = side.ground, random.Random(len(names))
            held = [mask_of(wide.priority[:k]) for k in (2, 3, 4, 256)]
            menus = [0, g, *held, *(g & rng.getrandbits(g.bit_length()) for _ in range(6))]
            for menu in menus:
                assert side.evaluate(menu) == _joined(parts, menu, ChoiceFunction.evaluate)
                want = _joined(parts, menu, lambda part, s: part.desirable(s))
                assert side.desirable(menu) == want

    @pytest.mark.parametrize("parts", [
        (),
        (Table(m(3, 5), {0: 0, m(3): m(3), m(5): m(5), m(3, 5): m(3)}),),
        (LinearOrder(()), Quota(2, ()), Table(m(1), {0: 0, m(1): m(1)})),
    ], ids=["empty", "table", "no-contract-ranked"])
    def test_side_with_no_ranked_contract(self, parts):
        vector, loop = _both_paths(parts)
        assert len(vector._passes[0].pos) == 0 and loop._passes[0] is None
        for menu in submasks(vector.ground):
            want = _joined(parts, menu, ChoiceFunction.evaluate)
            assert vector.evaluate(menu) == loop.evaluate(menu) == want
            want = _joined(parts, menu, lambda part, s: part.desirable(s))
            assert vector.desirable(menu) == loop.desirable(menu) == want


class _Parity(ChoiceFunction):
    """A bare function outside every family: keeps a menu of even size
    whole, and of an odd size only its highest contract."""

    def __init__(self, n):
        self.ground = (1 << n) - 1

    def _choose(self, menu):
        return menu if menu.bit_count() % 2 == 0 else 1 << (menu.bit_length() - 1)

    def desirable(self, state):
        return naive_desirable(self, state)


class TestDenseTable:
    @settings(max_examples=300, deadline=None)
    @given(dense_choice())
    def test_agrees_with_evaluating_every_menu(self, cf):
        table = dense_table(cf)
        assert table.dtype == np.int64
        assert table.tolist() == naive_dense_table(cf)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_bare_function_is_one_part(self, n):
        assert dense_table(_Parity(n)).tolist() == naive_dense_table(_Parity(n))

    def test_empty_ground(self):
        assert dense_table(Aggregate(())).tolist() == [0]

    @pytest.mark.parametrize("n, agents, table", [
        (10, 3, False), (12, 4, False), (14, 3, False), (12, 4, True),
    ])
    def test_many_runs_above_the_low_block(self, n, agents, table):
        # bits dealt round-robin, so above choice._LOW_BITS every bit is a
        # run of its own, as on an enumerated Latin-square side
        rng = random.Random(n)
        parts = []
        for a in range(agents):
            order = list(range(a, n, agents))
            rng.shuffle(order)
            parts.append(Quota(2, tuple(order)) if a % 2 else LinearOrder(tuple(order)))
        if table:
            parts[-1] = as_table(parts[-1])
        cf = Aggregate(tuple(parts))
        assert dense_table(cf).tolist() == naive_dense_table(cf)
        assert dense_table(LinearOrder(())).tolist() == [0]

    def test_read_only(self):
        table = dense_table(Aggregate((LinearOrder((1, 0)), Quota(1, (2,)))))
        with pytest.raises(ValueError):
            table[0] = 1

    def test_sparse_ground_rejected(self):
        with pytest.raises(DomainError, match="dense"):
            dense_table(Aggregate((LinearOrder((0,)), LinearOrder((2,)))))
