import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    as_table,
    m,
    naive_desirable,
    naive_operator_witnesses,
    rule_verdicts,
    submasks,
)
from stablecontracts import choice, desirability, fixtures
from stablecontracts.choice import (
    Aggregate,
    LinearOrder,
    Quota,
    Table,
    check_laws,
    validate_plott,
)
from stablecontracts.contractsets import mask_of
from stablecontracts.desirability import (
    DesirabilityOperator,
    desirable_set,
    induced_choice,
    validate_desirability_operator,
)
from stablecontracts.errors import CapExceededError, DomainError
from stablecontracts.instance import reduce_to_two_agents
from stablecontracts.lemmas import run_lemma_suite
from stablecontracts.oracle import random_corpus


class TestDesirableSet:
    def test_every_singleton_desirable_at_empty_state(self):
        cf = LinearOrder((0, 1))  # e1 > e2
        assert desirable_set(cf, 0) == m(0, 1)

    def test_worse_contract_not_desirable_next_to_better(self):
        cf = LinearOrder((0, 1))
        assert desirable_set(cf, m(0)) == m(0)

    def test_aggregate_firm_side_all_desirable(self, i3, p3):
        # holding the worker-optimal matching, every contract of the 2x2
        # market is desirable to some firm
        assert desirable_set(p3.firm, m(1, 2)) == m(0, 1, 2, 3)

    def test_superset_of_choice(self):
        cf = Quota(2, (2, 1, 0))
        for state in submasks(cf.ground):
            assert cf.evaluate(state) & ~desirable_set(cf, state) == 0

    def test_state_outside_ground_rejected(self):
        with pytest.raises(DomainError):
            desirable_set(LinearOrder((0,)), m(3))


def _exhaustive_cfs():
    return [
        LinearOrder((0, 1)),
        LinearOrder((2, 0, 1)),
        Quota(1, (2, 1, 0)),
        Quota(2, (0, 1, 2, 3)),
        Table(m(0, 1), {0: 0, m(0): m(0), m(1): 0, m(0, 1): m(0)}),
    ]


@pytest.mark.parametrize("cf", _exhaustive_cfs(), ids=lambda cf: type(cf).__name__ + str(cf.ground))
class TestDesirabilityLaws:
    def test_choice_is_desirables_within_menu(self, cf):
        for a in submasks(cf.ground):
            assert desirable_set(cf, a) & a == cf.evaluate(a)

    def test_self_chosen_iff_within_desirables(self, cf):
        for a in submasks(cf.ground):
            self_chosen = cf.evaluate(a) == a
            within = a & ~desirable_set(cf, a) == 0
            assert self_chosen == within

    def test_antimonotone(self, cf):
        d = {a: desirable_set(cf, a) for a in submasks(cf.ground)}
        for b in submasks(cf.ground):
            for a in submasks(b):
                assert d[b] & ~d[a] == 0

    def test_unchanged_after_choosing(self, cf):
        for a in submasks(cf.ground):
            assert desirable_set(cf, a) == desirable_set(cf, cf.evaluate(a))

    def test_fixed_on_desirable_core(self, cf):
        for a in submasks(cf.ground):
            d = desirable_set(cf, a)
            assert d == desirable_set(cf, a & d)

    def test_operator_of_choice_validates(self, cf):
        op = DesirabilityOperator.from_choice(cf)
        assert validate_desirability_operator(op).passed

    def test_round_trip_reconstructs_choice(self, cf):
        op = DesirabilityOperator.from_choice(cf)
        for a in submasks(cf.ground):
            assert induced_choice(op).evaluate(a) == cf.evaluate(a)

    def test_induced_choice_is_plott(self, cf):
        assert validate_plott(induced_choice(DesirabilityOperator.from_choice(cf))).passed

    def test_induced_choice_is_the_choice(self, cf):
        induced = induced_choice(DesirabilityOperator.from_choice(cf))
        assert induced.ground == cf.ground
        assert induced.table.tolist() == cf.tabulate().tolist()


class TestOperatorValidation:
    def test_identity_map_fails_antimonotonicity(self):
        op = DesirabilityOperator(m(0, 1), {a: a for a in submasks(m(0, 1))})
        report = validate_desirability_operator(op)
        assert not report.passed
        check = report.check("antimonotonicity")
        assert not check.passed
        assert check.witness == (0, m(0))
        assert report.check("lob-identity").passed

    def test_constant_empty_passes(self):
        op = DesirabilityOperator(m(0, 1), {a: 0 for a in submasks(m(0, 1))})
        assert validate_desirability_operator(op).passed

    def test_constant_ground_passes_and_induces_identity(self):
        g = m(0, 1)
        op = DesirabilityOperator(g, {a: g for a in submasks(g)})
        assert validate_desirability_operator(op).passed
        for a in submasks(g):
            assert induced_choice(op).evaluate(a) == a

    def test_lob_failure_detected(self):
        # D(∅)=∅ but D({e1})={e1}: antimonotone fails too; force a pure
        # Löb break instead: D(A) = ground for A nonempty, D(∅) = {e1}.
        g = m(0, 1)
        table = {0: m(0), m(0): g, m(1): g, g: g}
        op = DesirabilityOperator(g, table)
        report = validate_desirability_operator(op)
        assert not report.check("lob-identity").passed or not report.check(
            "antimonotonicity"
        ).passed

    def test_pure_lob_failure_on_sparse_ground(self):
        # D(∅) = {4}, D({4}) = ∅ is antimonotone, but D({4}) differs from
        # D({4} ∩ D({4})) = D(∅)
        op = DesirabilityOperator(m(4), {0: m(4), m(4): 0})
        report = validate_desirability_operator(op)
        assert report.check("antimonotonicity").passed
        check = report.check("lob-identity")
        assert not check.passed
        assert check.witness == (m(4),)

    def test_partial_operator_rejected(self):
        with pytest.raises(DomainError, match="not total"):
            DesirabilityOperator(m(0), {0: 0})

    def test_range_outside_ground_rejected(self):
        with pytest.raises(DomainError):
            DesirabilityOperator(m(0), {0: m(1), m(0): m(0)})

    @pytest.mark.parametrize("table, fault", [
        # the first bad state in ascending order decides, then stray states
        ({0: 0, m(3): m(0)}, r"not total: state \[1\] is missing"),
        ({0: 0, m(1): m(0)}, r"maps state \[1\] outside the ground set"),
        ({0: m(0), m(3): 0, m(5): 0}, r"maps state \[\] outside the ground set"),
        ({0: 0, m(1): 0, m(3): 0, m(1, 3): 0, m(0): 0},
         "lists states outside the ground set"),
    ])
    def test_first_fault_in_ascending_state_order(self, table, fault):
        with pytest.raises(DomainError, match=fault):
            DesirabilityOperator(m(1, 3), table)

    @pytest.mark.parametrize("ground, table", [
        (3, {0: 3, 1: 2, 2: 1, 3: "x"}),
        (3, {0: 3, 1: 2, 2: 1, 3: 1.0}),
        (3, {0: 3, 1: 2, 2: 1, "3": 0}),
        (3, {0: 3, 1: 2, 2: 1, 3.0: 0}),
        (3.0, {0: 3, 1: 2, 2: 1, 3: 0}),
    ], ids=["str value", "float value", "str key", "float key", "float ground"])
    def test_masks_are_read_as_a_table_reads_them(self, ground, table):
        with pytest.raises(DomainError, match="contract sets are integer masks"):
            DesirabilityOperator(ground, table)
        with pytest.raises(DomainError, match="contract sets are integer masks"):
            Table(ground, table)

    def test_numpy_masks_are_read_as_ints(self):
        table = {0: m(0, 1), m(0): m(0, 1), m(1): m(1), m(0, 1): m(1)}
        op = DesirabilityOperator(
            np.int64(3), {np.int64(a): np.uint8(d) for a, d in table.items()})
        assert op == DesirabilityOperator(3, table)
        assert type(op.ground) is int and type(op.map(np.int64(1))) is int

    def test_equality(self):
        op = DesirabilityOperator.from_choice(LinearOrder((1, 0)))
        table = {0: m(0, 1), m(0): m(0, 1), m(1): m(1), m(0, 1): m(1)}
        assert op == DesirabilityOperator(m(0, 1), table)
        assert op != DesirabilityOperator(m(0, 1), table | {m(1): 0})
        assert op != DesirabilityOperator.from_choice(LinearOrder((2, 0)))
        assert op.__eq__(table) is NotImplemented

    def test_cap_exceeded(self):
        ground = (1 << 13) - 1
        op = DesirabilityOperator(ground, {a: 0 for a in submasks(ground)})
        # a refusal is no report: every call raises
        for _ in range(2):
            with pytest.raises(CapExceededError, match="operator check is capped at 12"):
                validate_desirability_operator(op)

    def test_over_21_contracts_is_refused_before_any_state(self, monkeypatch):
        class Unread(dict):
            def __contains__(self, state):
                raise AssertionError("a state was read before the size check")

            __getitem__ = __contains__

        def unasked(self, state):
            raise AssertionError("a state was asked before the size check")

        ground = (1 << 21) - 1
        with pytest.raises(CapExceededError, match="21 contracts.*capped at 20"):
            DesirabilityOperator(ground, Unread())
        monkeypatch.setattr(LinearOrder, "desirable", unasked)
        with pytest.raises(CapExceededError, match="21 contracts.*capped at 20"):
            DesirabilityOperator.from_choice(LinearOrder(tuple(range(21))))

    def test_equal_reports_per_call(self):
        op = DesirabilityOperator.from_choice(LinearOrder((1, 0)))
        first, second = (validate_desirability_operator(op) for _ in range(2))
        assert first == second and first is not second

    def test_lemma_run_checks_each_side_once(self, monkeypatch, p3):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return check_laws(*args)

        monkeypatch.setattr(desirability, "check_laws", counting)
        assert all(law.passed for law in run_lemma_suite([("p3", p3)]))
        assert calls == [DesirabilityOperator.from_choice(p3.firm),
                         DesirabilityOperator.from_choice(p3.worker)]

    def test_invalid_operator_cannot_become_choice(self):
        op = DesirabilityOperator(m(0, 1), {a: a for a in submasks(m(0, 1))})
        with pytest.raises(DomainError, match="antimonotonicity"):
            induced_choice(op)


class TestSharedStore:
    """Tables and operators are stored one way: ids and a read-only array."""

    def test_table_and_operator_with_one_array_are_not_equal(self):
        g = m(2, 70)
        identity = {a: a for a in submasks(g)}
        table, op = Table(g, identity), DesirabilityOperator(g, identity)
        assert table.bits == op.bits == (2, 70)
        assert np.array_equal(table.table, op.table)
        assert table != op and op != table
        assert not table == op

    @pytest.mark.parametrize("stored", [
        lambda: Table(m(0, 1), {0: 0, m(0): m(0), m(1): 0, m(0, 1): m(0)}),
        lambda: Table.from_rows([1, 0], [0, 1, 2, 3], [0, 1, 0, 1]),
        lambda: DesirabilityOperator(m(0, 1), {a: 0 for a in submasks(m(0, 1))}),
        lambda: DesirabilityOperator.from_choice(Quota(1, (70, 2))),
    ], ids=["table", "table-rows", "operator", "operator-of-choice"])
    def test_arrays_stay_read_only(self, stored):
        s = stored()
        assert s.tabulate() is s.table
        with pytest.raises(ValueError):
            s.table[0] = 1


def test_choice_vs_desirability_exhaustive_at_ten_contracts():
    cf = Quota(3, (4, 9, 1, 7, 0, 5, 2, 8, 3, 6))
    for a in submasks(cf.ground):
        assert desirable_set(cf, a) & a == cf.evaluate(a)


class TestSpecificReconstructions:
    def test_linear_round_trip_example(self):
        op = DesirabilityOperator.from_choice(LinearOrder((0, 1)))
        assert induced_choice(op).evaluate(m(0, 1)) == m(0)

    def test_quota_reconstruction_example(self):
        # quota 1 with priority e3 > e2 > e1: from {e1,e2} the rebuilt
        # choice keeps e2
        op = DesirabilityOperator.from_choice(Quota(1, (2, 1, 0)))
        assert induced_choice(op).evaluate(m(0, 1)) == m(1)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_from_choice_always_valid_small_grounds(size, data):
    order = tuple(data.draw(st.permutations(range(size))))
    cf = LinearOrder(order) if size == 0 or data.draw(st.booleans()) else Quota(
        data.draw(st.integers(min_value=1, max_value=max(size, 1))), order
    )
    op = DesirabilityOperator.from_choice(cf)
    assert validate_desirability_operator(op).passed


@st.composite
def operator_up_to_six(draw):
    """An arbitrary map, or a linear order's or quota's operator with up to
    three states remapped (none leaves it valid), over 0 to 6 dense or
    sparse contract ids."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=9), max_size=6, unique=True))
    ground = mask_of(ids)

    def any_state():
        return draw(st.integers(min_value=0, max_value=ground)) & ground

    if draw(st.booleans()):
        return DesirabilityOperator(ground, {a: any_state() for a in submasks(ground)})
    order = tuple(draw(st.permutations(ids)))
    cf = LinearOrder(order) if not ids or draw(st.booleans()) else Quota(
        draw(st.integers(min_value=1, max_value=len(ids))), order
    )
    table = {a: desirable_set(cf, a) for a in submasks(ground)}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        table[draw(st.sampled_from(sorted(table)))] = any_state()
    return DesirabilityOperator(ground, table)


@st.composite
def random_operator(draw):
    """An arbitrary map, or a choice function's operator with at most one
    state remapped, over a dense or sparse ground of at most 4 contracts."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=6), max_size=4,
                        unique=True))
    ground = mask_of(ids)
    if draw(st.booleans()):
        table = {
            a: draw(st.integers(min_value=0, max_value=ground)) & ground
            for a in submasks(ground)
        }
        return DesirabilityOperator(ground, table)
    order = tuple(draw(st.permutations(ids)))
    cf = LinearOrder(order) if not ids or draw(st.booleans()) else Quota(
        draw(st.integers(min_value=1, max_value=len(ids))), order
    )
    table = {a: desirable_set(cf, a) for a in submasks(ground)}
    if draw(st.booleans()):
        state = draw(st.sampled_from(sorted(table)))
        table[state] = draw(st.integers(min_value=0, max_value=ground)) & ground
    return DesirabilityOperator(ground, table)


@settings(max_examples=200, deadline=None)
@given(random_operator())
def test_operator_validator_agrees_with_naive_oracle(op):
    _assert_rules_agree_with_the_global_scan(op)


@settings(max_examples=200, deadline=None)
@given(operator_up_to_six())
def test_one_contract_rules_agree_with_the_global_scan(op):
    _assert_rules_agree_with_the_global_scan(op)


def _assert_rules_agree_with_the_global_scan(op):
    witnesses = naive_operator_witnesses(op)
    verdicts = {axiom: w is None for axiom, w in witnesses.items()}
    assert rule_verdicts(desirability._OPERATOR_LAWS, op.map, op.ground) == verdicts
    report = validate_desirability_operator(op)
    assert {c.axiom: c.passed for c in report.checks} == verdicts
    assert {c.axiom: c.witness for c in report.checks} == witnesses


def test_lemma_suite_makes_no_pair_scan_on_valid_problems(monkeypatch):
    calls = []
    monkeypatch.setattr(desirability, "first_pair", lambda *args: calls.append(args))
    problems = [(f"p{i}", reduce_to_two_agents(inst))
                for i, inst in enumerate(random_corpus(10, master_seed=3))]
    assert all(law.passed for law in run_lemma_suite(problems))
    assert calls == []


@st.composite
def agent_choice(draw, ids, families=("linear", "quota", "table")):
    """A linear order, a quota (possibly at or above the ground's size) or a
    table tabulating a drawn quota, over exactly the contracts ``ids``."""
    order = tuple(draw(st.permutations(ids)))
    family = draw(st.sampled_from(families))
    if family == "linear":
        return LinearOrder(order)
    quota = Quota(draw(st.integers(min_value=1, max_value=len(ids) + 2)), order)
    if family == "quota":
        return quota
    return as_table(quota)


@st.composite
def any_choice(draw):
    """One agent's choice, or an aggregate of up to three agents whose
    grounds interleave; contract ids are sparse and the ground may be
    empty."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=15), max_size=8,
                        unique=True))
    if draw(st.booleans()):
        return draw(agent_choice(ids))
    parts = draw(st.integers(min_value=1, max_value=3))
    owner = [draw(st.integers(min_value=0, max_value=parts - 1)) for _ in ids]
    return Aggregate(tuple(
        draw(agent_choice([x for x, o in zip(ids, owner) if o == p]))
        for p in range(parts)
    ))


@settings(max_examples=300, deadline=None)
@given(any_choice())
@example(LinearOrder(()))
@example(Quota(1, ()))
@example(Quota(3, (5, 1)))
@example(fixtures.poset_table_instance().choices["f1"])
@example(Aggregate((
    LinearOrder((9, 2)),
    Quota(2, (4, 0, 7)),
    Table(m(1, 3), {0: 0, m(1): m(1), m(3): m(3), m(1, 3): m(3)}),
)))
def test_closed_forms_match_the_definition(cf):
    for state in submasks(cf.ground):
        assert desirable_set(cf, state) == naive_desirable(cf, state)


@st.composite
def wide_side(draw):
    """A side of ``_VECTOR_PARTS`` to ``_VECTOR_PARTS + 3`` linear and quota
    agents, so it answers them in one numpy pass, and up to two more agents
    of any family; degrees up to 4 on a sparse ground."""
    ranked = choice._VECTOR_PARTS + draw(st.integers(min_value=0, max_value=3))
    others = draw(st.integers(min_value=0, max_value=2))
    ids = iter(draw(st.permutations(range(5 * (ranked + others)))))
    parts = []
    for i in range(ranked + others):
        chunk = [next(ids) for _ in range(draw(st.integers(min_value=0, max_value=4)))]
        families = ("linear", "quota") if i < ranked else ("linear", "quota", "table")
        parts.append(draw(agent_choice(chunk, families)))
    return Aggregate(tuple(draw(st.permutations(parts))))


@settings(max_examples=100, deadline=None)
@given(st.one_of(any_choice(), wide_side()), st.data())
def test_choosing_leaves_desirability_unchanged(cf, data):
    # D(C(A)) = D(A), from the Löb identity: the ascent takes its next
    # iterate and that iterate's D_F from one desirability pass
    for _ in range(4):
        menu = cf.ground & data.draw(st.integers(min_value=0, max_value=cf.ground))
        assert cf.desirable(cf.evaluate(menu)) == cf.desirable(menu)


def _quota_market():
    """The first quota-only corpus market of six or more contracts in which
    some agent keeps more than one."""
    return next(
        inst for inst in random_corpus(50, master_seed=0, families=("quota",))
        if inst.size >= 6 and any(cf.quota > 1 for cf in inst.choices.values())
    )


@pytest.mark.parametrize("make", [fixtures.marriage_2x2, _quota_market],
                         ids=["marriage_2x2", "quota-corpus"])
def test_closed_forms_make_no_choice_evaluation(make, monkeypatch):
    problem = reduce_to_two_agents(make())
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(Aggregate, "evaluate", counting("aggregate", Aggregate.evaluate))
    monkeypatch.setattr(LinearOrder, "_choose", counting("linear", LinearOrder._choose))
    monkeypatch.setattr(Quota, "_choose", counting("quota", Quota._choose))
    for side in (problem.firm, problem.worker):
        for state in submasks(side.ground):
            desirable_set(side, state)
    assert calls == []
    problem.firm.evaluate(problem.firm.ground)
    assert calls[0] == "aggregate" and len(calls) > 1
