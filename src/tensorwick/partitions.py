"""Set partitions of {1..q} and the moment/cumulant transforms over them.

Moments and cumulants determine each other through the partition lattice:
the moment of a set of observables is the sum over partitions of products of
blockwise cumulants, and the inverse weights each partition by the lattice
Mobius coefficient (-1)^(|pi|-1) (|pi|-1)!.  The transforms work for any
values supporting + and * (exact polynomials, floats, Fractions), so they
serve both the exact enumeration and Monte Carlo estimates.

Subsets of {1..q} are addressed as bitmasks: bit i-1 stands for element i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Callable, Iterator, Mapping, TypeVar

MAX_Q = 12  # Bell(12) = 4,213,597 keeps exact transforms tractable

V = TypeVar("V")


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty blocks covering {1..q}; blocks and elements sorted."""

    blocks: tuple[tuple[int, ...], ...]
    q: int

    @property
    def size(self) -> int:
        return len(self.blocks)


def bell_number(q: int) -> int:
    if q < 0:
        raise ValueError("q must be non-negative")
    row = [1]
    for _ in range(q):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _partitions_of(elements: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of an element tuple, in restricted-growth-string order."""
    k = len(elements)
    assignment = [0] * k

    def rec(i: int, blocks_used: int):
        if i == k:
            blocks: list[list[int]] = [[] for _ in range(blocks_used)]
            for pos, b in enumerate(assignment):
                blocks[b].append(elements[pos])
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(blocks_used + 1):
            assignment[i] = b
            yield from rec(i + 1, max(blocks_used, b + 1))

    yield from rec(0, 0)


def set_partitions(q: int) -> Iterator[SetPartition]:
    """Every partition of {1..q} exactly once, restricted-growth order."""
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"q must be in 1..{MAX_Q} (Bell-number budget)")
    for blocks in _partitions_of(tuple(range(1, q + 1))):
        yield SetPartition(blocks, q)


def _mobius_weight(k: int) -> int:
    return (-1) ** (k - 1) * math.factorial(k - 1)


def mobius_coefficient(pi: SetPartition) -> int:
    """(-1)^(|pi|-1) (|pi|-1)!, the partition-lattice Mobius weight of pi."""
    return _mobius_weight(pi.size)


def _mask(block: tuple[int, ...]) -> int:
    m = 0
    for e in block:
        m |= 1 << (e - 1)
    return m


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _validated_q(value_map: Mapping[int, V]) -> int:
    if not value_map:
        raise ValueError("empty map")
    for key in value_map:
        if not isinstance(key, int) or key < 1:
            raise ValueError(f"key {key!r} is not the bitmask of a nonempty subset")
    q = max(value_map).bit_length()
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the Bell-number budget {MAX_Q}")
    for mask in range(1, (1 << q)):
        if mask not in value_map:
            raise ValueError(f"missing subset entry for mask {bin(mask)}")
    return q


def _partition_sum(
    value_map: Mapping[int, V], weight: Callable[[int], int]
) -> dict[int, V]:
    """For every nonempty subset S, the sum over the partitions pi of S of
    weight(|pi|) times the product of value_map over the blocks of pi."""
    q = _validated_q(value_map)
    out: dict[int, V] = {}
    for mask in range(1, 1 << q):
        terms = []
        for pi in _partitions_of(_elements(mask)):
            term = reduce(mul, (value_map[_mask(b)] for b in pi))
            w = weight(len(pi))
            # a weight of 1 is not multiplied in, so moments_from_cumulants
            # needs no product of an int and a value
            terms.append(term if w == 1 else w * term)
        out[mask] = reduce(add, terms)
    return out


def moments_from_cumulants(cumulant_map: Mapping[int, V]) -> dict[int, V]:
    """moment(S) = sum over partitions pi of S of the product of cumulant(B).

    Input and output assign a value to every nonempty subset of {1..q},
    keyed by bitmask; any other key is refused with ValueError.
    """
    return _partition_sum(cumulant_map, lambda k: 1)


def cumulants_from_moments(moment_map: Mapping[int, V]) -> dict[int, V]:
    """Mobius inversion of moments_from_cumulants; the two are mutually inverse."""
    return _partition_sum(moment_map, _mobius_weight)
