"""Contract sets as integer bitmasks over dense contract ids, and the
layout of power sets.

Every set-valued quantity in this package is a plain ``int`` whose bit ``i``
says whether contract ``i`` is a member.  Set algebra is exact and cheap:
union is ``|``, intersection ``&``, difference ``a & ~b``, and A ⊆ B is
``a & ~b == 0``.  A contract id and a mask are Python ints: ``contract_ids``
reads ids and ``as_mask`` reads a mask, each through ``as_int``, which
takes a numpy integer as an int and refuses any other kind of value.

This module alone decides how a power set is laid out for an exhaustive
scan.  A ground's contract ids ``bits`` (ascending) map onto local bits
0..k-1: ``expand`` takes a local mask to contract ids and ``compress`` takes
it back, both on Python ints.  An int64 array of local masks is re-indexed
by one gather through ``expansion``, the expansion of every local mask,
built by doubling in one numpy call per bit.
``local_table`` tabulates a function over the 2^k local masks, for k up to
``POWER_SET_CAP``; ``canonical_order`` lists those masks in the canonical
scan order of ``canonical_key``, and ``single_steps`` lists every
one-contract step (A, A ∪ {x}) between them.
"""

from __future__ import annotations

import functools
import numbers
from typing import Callable, Iterable

import numpy as np

from .errors import CapExceededError, DomainError

Mask = int

# The most contracts a power set is laid out over: 2^20 entries
POWER_SET_CAP = 20


def contract_ids(ids: Iterable[int]) -> tuple[tuple[int, ...], Mask]:
    """The contract ids as Python ints, in their order, and their mask.

    An id is a non-negative integer: a Python int, or a numpy integer read
    as one, so that no id wraps in fixed-width arithmetic.  A bool, a
    float, a str or a negative id raises DomainError.  A tuple of Python
    ints comes back as it is.
    """
    if type(ids) is tuple:
        m = 0
        try:
            for i in ids:
                if type(i) is not int:
                    break
                m |= 1 << i
            else:
                return ids, m
        except ValueError:
            # a negative id, named below
            pass
    out = []
    m = 0
    for i in ids:
        if type(i) is not int:
            i = as_int(i, "contract ids must be integers")
        if i < 0:
            raise DomainError(f"contract ids must be non-negative, got {i}")
        out.append(i)
        m |= 1 << i
    return tuple(out), m


def as_int(value, what: str) -> int:
    """``value`` as a Python int: a numpy integer is read as one, so that
    it never wraps in fixed-width arithmetic, and a bool or any value that
    is not an integer raises DomainError ``"<what>, got <value>"``."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{what}, got {value!r}")
        value = int(value)
    return value


def mask_of(ids: Iterable[int]) -> Mask:
    """Build a mask from contract ids, read as ``contract_ids`` reads them."""
    return contract_ids(ids)[1]


def as_mask(mask) -> Mask:
    """The mask as a Python int.

    A mask is a non-negative integer: a Python int, or a numpy integer read
    as one, so that set algebra never wraps in fixed-width arithmetic.  A
    bool, a float, a str or a negative mask raises DomainError.
    """
    if type(mask) is not int:
        mask = as_int(mask, "contract sets are integer masks")
    if mask < 0:
        raise DomainError(f"contract sets are non-negative masks, got {mask}")
    return mask


def ids_of(mask: Mask) -> list[int]:
    """Member ids of a mask, ascending, read as ``as_mask`` reads it."""
    mask = as_mask(mask)
    out = []
    m = mask
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def full_mask(n: int) -> Mask:
    """Mask of the dense ground set {0, ..., n-1}."""
    return (1 << n) - 1


def check_subset(s: Mask, ground: Mask) -> Mask:
    """The mask ``s``, read as ``as_mask`` reads it; raise DomainError
    unless s ⊆ ground."""
    if type(s) is not int:
        s = as_mask(s)
    # a negative int is never a subset, and ids_of refuses it
    if s & ~ground:
        raise DomainError(
            f"contract set {ids_of(s)} is not a subset of the ground set"
        )
    return s


def expand(local: Mask, bits: list[int]) -> Mask:
    """Map a mask over local indices 0..k-1 to the contract ids ``bits``;
    an array of local masks goes through ``expansion(bits)`` instead."""
    out = 0
    for i, b in enumerate(bits):
        out |= (local >> i & 1) << b
    return out


def expansion(bits: list[int]) -> np.ndarray:
    """``expand(local, bits)`` for every local mask over k = len(bits) bits,
    indexed by the mask: 2^k int64 entries built by doubling, one numpy
    call per bit.  Every id must be below 63."""
    out = np.zeros(1 << len(bits), dtype=np.int64)
    for i, b in enumerate(bits):
        np.bitwise_or(out[:1 << i], 1 << b, out=out[1 << i:2 << i])
    return out


def compress(mask: Mask, bits: list[int]) -> Mask:
    """Map the members of ``mask`` among the contract ids ``bits`` to local
    indices 0..k-1, the inverse of ``expand``."""
    out = 0
    for i, b in enumerate(bits):
        out |= (mask >> b & 1) << i
    return out


def check_power_set(k: int) -> None:
    """Refuse, with CapExceededError, to lay out a power set over more than
    ``POWER_SET_CAP`` contracts."""
    if k > POWER_SET_CAP:
        raise CapExceededError(f"ground has {k} contracts; power-set tables "
                               f"are capped at {POWER_SET_CAP}")


def local_table(fn: Callable[[Mask], Mask], bits: list[int]) -> np.ndarray:
    """fn(A) for every subset A of ``bits``, re-indexed to dense local bits.

    Returns a read-only int64 array whose entry ``local`` is
    ``compress(fn(expand(local, bits)), bits)``, so a sparse ground
    tabulates like a dense one.  ``fn`` gets and returns ints: the menus
    are built by doubling, ``menus[local]`` being ``expand(local, bits)``,
    and each result is mapped back to its local mask through one dict.  A
    ground over ``POWER_SET_CAP`` contracts is refused before anything is
    built.
    """
    check_power_set(len(bits))
    menus = [0]
    for b in bits:
        menus += [a | 1 << b for a in menus]
    local = {a: i for i, a in enumerate(menus)}
    # as compress does, a member outside the ground is dropped
    table = np.array([local[fn(a) & menus[-1]] for a in menus], dtype=np.int64)
    table.flags.writeable = False
    return table


def canonical_key(mask: Mask) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering sets by cardinality, then lexicographically by ids."""
    ids = ids_of(mask)
    return len(ids), tuple(ids)


def canonical_sorted(masks: Iterable[Mask]) -> list[Mask]:
    """Masks sorted by the canonical (cardinality, ids) order."""
    return sorted(masks, key=canonical_key)


@functools.lru_cache(maxsize=None)
def canonical_order(k: int) -> np.ndarray:
    """Every mask over k local bits, as ``canonical_sorted`` sorts them;
    cached per k and therefore read-only."""
    order = np.array(canonical_sorted(range(1 << k)), dtype=np.int64)
    order.flags.writeable = False
    return order


@functools.lru_cache(maxsize=None)
def single_steps(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every one-contract step over k local bits as three flat arrays
    (bit, A, A | bit): for each bit, every mask A without it, ascending.
    That is k·2^(k-1) steps; cached per k and therefore read-only."""
    half = (1 << k) >> 1
    low = (1 << np.arange(k, dtype=np.int64)[:, None]) - 1
    m = np.arange(half, dtype=np.int64)
    a = ((m & ~low) << 1 | (m & low)).ravel()
    bit = np.repeat(low.ravel() + 1, half)
    steps = (bit, a, a | bit)
    for x in steps:
        x.flags.writeable = False
    return steps

