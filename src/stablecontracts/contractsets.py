"""Contract sets as integer bitmasks over dense contract ids.

Every set-valued quantity in this package is a plain ``int`` whose bit ``i``
says whether contract ``i`` is a member.  Set algebra is exact and cheap:
union is ``|``, intersection ``&``, difference ``a & ~b``, and the power set
of a ground mask is enumerable without allocation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import DomainError

Mask = int


def mask_of(ids: Iterable[int]) -> Mask:
    """Build a mask from contract ids."""
    m = 0
    for i in ids:
        if i < 0:
            raise DomainError(f"contract ids must be non-negative, got {i}")
        m |= 1 << i
    return m


def ids_of(mask: Mask) -> list[int]:
    """Member ids of a mask, ascending."""
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


def is_subset(a: Mask, b: Mask) -> bool:
    """a ⊆ b."""
    return a & ~b == 0


def check_subset(s: Mask, ground: Mask) -> None:
    """Raise DomainError unless s ⊆ ground."""
    if s & ~ground:
        raise DomainError(
            f"contract set {ids_of(s)} is not a subset of the ground set"
        )


def submasks(ground: Mask) -> Iterator[Mask]:
    """All subsets of ``ground``, in ascending integer order."""
    s = 0
    while True:
        yield s
        if s == ground:
            return
        s = (s - ground) & ground


def expand(local: Mask, bits: list[int]) -> Mask:
    """Map a mask over local indices 0..k-1 to the contract ids ``bits``."""
    m = 0
    t = local
    while t:
        low = t & -t
        m |= 1 << bits[low.bit_length() - 1]
        t ^= low
    return m


def local_table(fn: Callable[[Mask], Mask], bits: list[int]) -> list[Mask]:
    """fn(A) for every subset A of ``bits``, re-indexed to dense local bits.

    Entry ``local`` holds fn of ``expand(local, bits)``, mapped back onto
    local indices, so a sparse ground tabulates like a dense one.
    """
    tab = []
    for local in range(1 << len(bits)):
        value = fn(expand(local, bits))
        loc = 0
        for i, b in enumerate(bits):
            if value >> b & 1:
                loc |= 1 << i
        tab.append(loc)
    return tab


def canonical_key(mask: Mask) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering sets by cardinality, then lexicographically by ids."""
    ids = ids_of(mask)
    return len(ids), tuple(ids)


def canonical_sorted(masks: Iterable[Mask]) -> list[Mask]:
    """Masks sorted by the canonical (cardinality, ids) order."""
    return sorted(masks, key=canonical_key)
