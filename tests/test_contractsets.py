import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import submasks
from stablecontracts.contractsets import (
    as_mask,
    canonical_key,
    canonical_sorted,
    check_subset,
    POWER_SET_CAP,
    compress,
    contract_ids,
    expand,
    expansion,
    full_mask,
    ids_of,
    local_table,
    mask_of,
)
from stablecontracts.errors import CapExceededError, DomainError


def test_mask_round_trip_examples():
    assert mask_of([0, 2, 5]) == 0b100101
    assert ids_of(0b100101) == [0, 2, 5]
    assert mask_of([]) == 0
    assert ids_of(0) == []


def test_negative_id_rejected():
    with pytest.raises(DomainError):
        mask_of([-1])
    with pytest.raises(DomainError, match="non-negative, got -1"):
        contract_ids((3, 1000, -1))


def test_a_tuple_of_ints_is_kept_as_it_is():
    ids = (513, 7, 1000, 64)
    assert contract_ids(ids) == (ids, mask_of([7, 64, 513, 1000]))
    assert contract_ids(ids)[0] is ids
    # any other iterable, or a tuple holding a numpy integer, is read anew
    assert contract_ids(iter(ids))[0] == ids
    mixed = (513, np.int64(7))
    read, mask = contract_ids(mixed)
    assert read == (513, 7) and read is not mixed and type(read[1]) is int
    assert mask == mask_of([7, 513])


def test_numpy_ids_past_62_are_python_ints():
    # an int64 id shifted past bit 63 would wrap; every id is read as an int
    ids, mask = contract_ids(np.arange(60, 70))
    assert ids == tuple(range(60, 70)) and all(type(i) is int for i in ids)
    assert mask == mask_of(range(60, 70)) == mask_of(np.arange(60, 70, dtype=np.uint8))
    assert mask_of(np.arange(70)) == full_mask(70)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, False, np.bool_(True), None],
                         ids=["float", "whole float", "str", "True", "False",
                              "numpy bool", "None"])
def test_non_integer_ids_rejected(bad):
    with pytest.raises(DomainError, match="contract ids must be integers"):
        mask_of([0, bad])
    with pytest.raises(DomainError, match="contract ids must be integers"):
        contract_ids([bad])


def test_negative_mask_rejected():
    with pytest.raises(DomainError):
        ids_of(-1)
    with pytest.raises(DomainError):
        check_subset(-1, 0b111)


@pytest.mark.parametrize("mask", [np.int64(5), np.uint8(5), np.uint64(5), 5],
                         ids=["int64", "uint8", "uint64", "int"])
def test_numpy_masks_are_read_as_python_ints(mask):
    assert type(as_mask(mask)) is int and as_mask(mask) == 5
    assert ids_of(mask) == [0, 2]
    # check_subset hands its callers the int it read
    out = check_subset(mask, 0b111)
    assert type(out) is int and out == 5
    with pytest.raises(DomainError, match="not a subset"):
        check_subset(mask, 0b11)


def test_negative_numpy_mask_rejected():
    for read in (as_mask, ids_of, lambda x: check_subset(x, 0b111)):
        with pytest.raises(DomainError, match="non-negative"):
            read(np.int64(-4))


def test_a_wide_numpy_mask_is_exact():
    assert as_mask(np.uint64(1 << 63)) == 1 << 63
    assert ids_of(np.uint64(1 << 63)) == [63]


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), 1.0, 5.5, "5", None],
                         ids=["True", "False", "numpy bool", "whole float",
                              "float", "str", "None"])
def test_non_integer_masks_rejected(bad):
    for read in (as_mask, ids_of, lambda x: check_subset(x, 0b111)):
        with pytest.raises(DomainError, match="contract sets are integer masks"):
            read(bad)


@given(st.sets(st.integers(min_value=0, max_value=40)))
def test_mask_round_trip(ids):
    assert ids_of(mask_of(ids)) == sorted(ids)


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111


def test_submasks_of_sparse_ground():
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


@given(st.integers(min_value=0, max_value=255))
def test_submasks_are_exactly_subsets(ground):
    subs = list(submasks(ground))
    assert len(subs) == 1 << ground.bit_count()
    assert all(s & ~ground == 0 for s in subs)
    assert subs == sorted(subs)


def test_canonical_order_prefers_cardinality_then_ids():
    # {0,3} before {1,2}: same size, lexicographically earlier ids
    assert canonical_key(0b1001) < canonical_key(0b0110)
    assert canonical_sorted([0b0110, 0b1001, 0b1, 0]) == [0, 0b1, 0b1001, 0b0110]


ids_up_to_200 = st.lists(st.integers(0, 200), max_size=12, unique=True).map(sorted)


@given(ids_up_to_200, st.integers(0, (1 << 201) - 1))
def test_expand_and_compress_round_trip(bits, mask):
    local = compress(mask, bits)
    assert local < 1 << len(bits)
    assert expand(local, bits) == mask & mask_of(bits)
    assert compress(expand(local, bits), bits) == local


@given(
    st.integers(0, POWER_SET_CAP).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, 62), min_size=k, max_size=k, unique=True).map(sorted),
            st.lists(st.integers(0, (1 << k) - 1), max_size=50),
        )
    )
)
@example(([0, 1, 2, 3], [0, 5, 15, 9, 5]))
def test_expansion_gather_is_the_int_expand(case):
    # an array of local masks re-indexes by one gather through the
    # expansion, entry by entry as the int expand, on sparse and dense ids
    bits, locals_ = case
    out = expansion(bits)[np.array(locals_, dtype=np.int64)]
    assert out.dtype == np.int64
    assert out.tolist() == [expand(x, bits) for x in locals_]


@pytest.mark.parametrize("k", [0, 1, 5, 12, POWER_SET_CAP])
def test_expansion_holds_every_local_mask(k):
    bits = [62 - 3 * i for i in range(k)][::-1]
    table = expansion(bits)
    assert table.dtype == np.int64 and len(table) == 1 << k
    # every mask at k <= 12, then every power of two and its neighbours
    locals_ = range(1 << k) if k <= 12 else sorted(
        {x for i in range(k + 1) for x in ((1 << i) - 1, 1 << i, (1 << i) + 1)
         if x < 1 << k})
    assert [int(table[x]) for x in locals_] == [expand(x, bits) for x in locals_]


def test_expansion_over_no_bits():
    assert expansion([])[np.zeros(3, dtype=np.int64)].tolist() == [0, 0, 0]
    assert expansion([])[np.zeros(0, dtype=np.int64)].tolist() == []
    assert expansion([]).tolist() == [0]


@pytest.mark.parametrize("bits", [[3, 9, 40], [64, 70, 100, 130], [0, 5, 63, 64, 200]])
def test_local_table_matches_a_per_menu_loop(bits):
    # keeps the two lowest ids of the menu, which must arrive as an int
    def fn(menu):
        assert isinstance(menu, int)
        return mask_of(ids_of(menu)[:2])

    table = local_table(fn, bits)
    expected = [
        sum(1 << i for i, b in enumerate(bits) if fn(menu) >> b & 1)
        for menu in submasks(mask_of(bits))
    ]
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tolist() == expected


def test_local_table_refuses_over_20_contracts_before_calling():
    def fn(menu):
        raise AssertionError("called before the size check")

    with pytest.raises(CapExceededError, match="ground has 21 contracts; power-set "
                                               "tables are capped at 20"):
        local_table(fn, list(range(100, 121)))
