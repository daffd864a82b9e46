import math
import random
import re
from fractions import Fraction

import pytest

from tensorwick.graphs import disjoint_union, new_dipole
from tensorwick.partitions import (
    SetPartition,
    bell_number,
    cumulants_from_moments,
    mobius_coefficient,
    moments_from_cumulants,
    set_partitions,
)
from tensorwick.wick import ExpectationPoly, cumulant_poly, expectation_poly


def test_partition_counts_match_bell():
    for q in range(1, 9):
        assert sum(1 for _ in set_partitions(q)) == bell_number(q)
    assert [bell_number(q) for q in range(6)] == [1, 1, 2, 5, 15, 52]


def test_partition_structure_and_order():
    parts = list(set_partitions(3))
    assert len(parts) == 5
    # restricted-growth order starts with the one-block partition and ends
    # with all singletons
    assert parts[0].blocks == ((1, 2, 3),)
    assert parts[-1].blocks == ((1,), (2,), (3,))
    for p in parts:
        flat = sorted(e for b in p.blocks for e in b)
        assert flat == [1, 2, 3]
    seen = {p.blocks for p in parts}
    assert len(seen) == 5


def test_partition_budget():
    with pytest.raises(ValueError):
        list(set_partitions(0))
    with pytest.raises(ValueError):
        list(set_partitions(13))


def test_mobius_coefficient():
    def pi_of_size(k):
        blocks = tuple((i,) for i in range(1, k + 1))
        return SetPartition(blocks, k)

    assert mobius_coefficient(pi_of_size(1)) == 1
    assert mobius_coefficient(pi_of_size(2)) == -1
    assert mobius_coefficient(pi_of_size(3)) == 2
    assert mobius_coefficient(pi_of_size(5)) == math.factorial(4)


def test_scalar_transforms():
    # q = 1: moment equals cumulant
    assert moments_from_cumulants({1: 7}) == {1: 7}
    # q = 2: m12 = c1 c2 + c12
    m = moments_from_cumulants({0b01: 2, 0b10: 3, 0b11: 5})
    assert m == {0b01: 2, 0b10: 3, 0b11: 11}
    assert cumulants_from_moments(m) == {0b01: 2, 0b10: 3, 0b11: 5}


def test_missing_entry_rejected():
    with pytest.raises(ValueError, match="missing subset"):
        moments_from_cumulants({0b01: 1, 0b11: 1})
    with pytest.raises(ValueError):
        cumulants_from_moments({})


@pytest.mark.parametrize("transform", [moments_from_cumulants, cumulants_from_moments])
@pytest.mark.parametrize("bad", [0, -1, -3, 1.5, 4.0, "1", None])
def test_keys_naming_no_nonempty_subset_are_rejected(transform, bad):
    # a key that is not the bitmask of a nonempty subset is refused by
    # name, not dropped
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        transform({bad: 1, 1: 2})
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        transform({1: 2, 2: 3, 3: 5, bad: 1})


def test_mobius_orthogonality_on_all_ones():
    # multiplicative moments: every cumulant of size >= 2 must vanish
    q = 4
    moments = {mask: 1 for mask in range(1, 1 << q)}
    cums = cumulants_from_moments(moments)
    for mask, value in cums.items():
        if mask.bit_count() >= 2:
            assert value == 0
        else:
            assert value == 1


def test_roundtrip_on_random_integers_and_fractions():
    rng = random.Random(5)
    for q in (2, 3, 4):
        cum = {
            mask: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for mask in range(1, 1 << q)
        }
        assert cumulants_from_moments(moments_from_cumulants(cum)) == cum
        mom = {mask: rng.randint(-20, 20) for mask in range(1, 1 << q)}
        assert moments_from_cumulants(cumulants_from_moments(mom)) == mom


def test_roundtrip_on_random_polynomials():
    rng = random.Random(11)
    for q in (2, 3, 4):
        cum = {}
        for mask in range(1, 1 << q):
            n = mask.bit_count()
            terms = {
                Fraction(rng.randint(-3, 3)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            }
            cum[mask] = ExpectationPoly(2, n, terms)
        back = cumulants_from_moments(moments_from_cumulants(cum))
        assert back == cum


def test_transforms_reproduce_enumerated_cumulant():
    # two dipoles: the Mobius inversion of the enumerated moments equals the
    # connected-restricted enumeration, exactly
    d = new_dipole(3)
    dd = disjoint_union(d, d)
    moments = {
        0b01: expectation_poly(d, nu=2),
        0b10: expectation_poly(d, nu=2),
        0b11: expectation_poly(dd, nu=2),
    }
    cums = cumulants_from_moments(moments)
    assert cums[0b11] == cumulant_poly(dd, nu=2)
    assert cums[0b01] == expectation_poly(d, nu=2)
