"""Vertex subsets as integer bit masks.

Vertex labels are 1-based everywhere in the public API; bit i-1 of a mask
records membership of vertex i.  Masks keep face manipulation allocation
free and make subset tests single `&` operations.
"""

from collections.abc import Iterable
from typing import Iterator


def mask_of(vertices: Iterable[int]) -> int:
    """Pack 1-based vertex labels into a mask."""
    m = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex labels are 1-based, got {v}")
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a mask into sorted 1-based vertex labels."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """0-based positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
