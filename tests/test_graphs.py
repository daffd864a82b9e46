import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwick.graphs import (
    ColoredGraph,
    GraphFormatError,
    Matching,
    connected_components,
    count_matchings,
    disjoint_union,
    graph_from_json,
    graph_from_text,
    graph_to_json,
    graph_to_text,
    is_melonic,
    melon_insert,
    new_dipole,
    parse_graph,
    random_colored_graph,
    random_melonic_graph,
    random_perfect_matching,
    splice,
    unsplice,
)

from helpers import melonic_all_orders, six_vertex_cyclic, spec_quartic_melon


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching([(0, 0)], 2)
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)], 4)
    with pytest.raises(ValueError):
        Matching([(0, 5)], 4)
    m = Matching([(3, 2), (1, 0)], 4)
    assert m.pairs == ((0, 1), (2, 3))
    assert m.is_perfect
    assert (2, 3) in m and (3, 2) in m
    assert not Matching([(0, 1)], 4).is_perfect


def test_new_dipole():
    for D in (1, 3, 4):
        g = new_dipole(D)
        assert g.D == D and g.n == 1
        assert all(m.pairs == ((0, 1),) for m in g.matchings)
    with pytest.raises(ValueError):
        new_dipole(0)


def test_melon_insert_reproduces_quartic_melon():
    g = melon_insert(new_dipole(3), 2, (0, 1))
    assert g == spec_quartic_melon()


def test_two_insertions_reproduce_six_vertex_melon():
    # insert two vertices on color 2 of the dipole, then on color 1 edge (2,3)
    g = melon_insert(new_dipole(3), 2, (0, 1))
    g = melon_insert(g, 1, (2, 3))
    expected = ColoredGraph(
        [
            Matching([(0, 1), (2, 4), (5, 3)], 6),
            Matching([(0, 2), (1, 3), (4, 5)], 6),
            Matching([(0, 1), (2, 3), (4, 5)], 6),
        ]
    )
    assert g == expected
    assert is_melonic(g).is_melonic


def test_melon_insert_rejects_missing_edge():
    with pytest.raises(ValueError):
        melon_insert(new_dipole(3), 1, (0, 2))
    with pytest.raises(ValueError):
        melon_insert(spec_quartic_melon(), 2, (0, 1))  # (0,1) is not color 2


@given(st.integers(2, 4), st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_melon_insert_structure(D, insertions, seed):
    g = random_melonic_graph(D, insertions, seed)
    assert 2 * g.n == 2 + 2 * insertions
    for m in g.matchings:
        assert m.is_perfect  # every mutation preserved perfectness
    assert is_melonic(g).is_melonic


def _d1_dipole_count(g: ColoredGraph) -> int:
    mult = Counter(p for m in g.matchings for p in m.pairs)
    return sum(1 for k in mult.values() if k == g.D - 1)


@given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_melon_insert_dipole_count_change(D, insertions, seed, data):
    # The fresh pair always adds one (D-1)-dipole; the split edge moves
    # between multiplicity classes (+1 when it was a full dipole, -1 when it
    # was a (D-1)-dipole); for D=2 the two split half-edges are singleton
    # edges and hence (D-1)-dipoles themselves.
    g = random_melonic_graph(D, insertions, seed)
    color = data.draw(st.integers(1, D))
    edge = data.draw(st.sampled_from(sorted(g.matching(color).pairs)))
    mult_before = sum(1 for m in g.matchings if edge in set(m.pairs))
    expected_delta = (
        1
        + (2 if D == 2 else 0)
        + (1 if mult_before == D else -1 if mult_before == D - 1 else 0)
    )
    g2 = melon_insert(g, color, edge)
    assert _d1_dipole_count(g2) - _d1_dipole_count(g) == expected_delta
    assert is_melonic(g2).is_melonic == is_melonic(g).is_melonic


def test_random_colored_graph_trivial_and_deterministic():
    g = random_colored_graph(3, 1, seed=99)
    assert g == new_dipole(3)
    a = random_colored_graph(3, 4, seed=5)
    b = random_colored_graph(3, 4, seed=5)
    assert a == b
    assert a != random_colored_graph(3, 4, seed=6)
    with pytest.raises(ValueError):
        random_colored_graph(0, 2, seed=1)
    with pytest.raises(ValueError):
        random_colored_graph(2, 0, seed=1)


def test_random_matching_uniform_small():
    # 3 matchings on 4 vertices; 1e5 draws stay within 5 sigma of 1/3 each
    samples = 100_000
    counts = Counter(
        random_perfect_matching(4, seed).pairs for seed in range(samples)
    )
    assert len(counts) == 3
    p = 1 / 3
    tol = 5 * math.sqrt(p * (1 - p) * samples)
    for c in counts.values():
        assert abs(c - samples * p) < tol


def test_random_colored_graph_uniform_over_all_graphs():
    # D=1, n=2: the 3 one-color graphs equally likely
    samples = 100_000
    counts = Counter(
        random_colored_graph(1, 2, seed).matchings[0].pairs
        for seed in range(samples)
    )
    assert len(counts) == 3
    p = 1 / 3
    tol = 5 * math.sqrt(p * (1 - p) * samples)
    for c in counts.values():
        assert abs(c - samples * p) < tol
    # D=2, n=2: 3^2 = 9 equally likely labelled graphs
    counts = Counter(
        random_colored_graph(2, 2, seed) for seed in range(samples)
    )
    assert len(counts) == 9
    p = 1 / 9
    tol = 5 * math.sqrt(p * (1 - p) * samples)
    for c in counts.values():
        assert abs(c - samples * p) < tol


def test_random_matching_partner_of_zero_uniform():
    samples = 60_000
    two_n = 8
    counts = Counter(
        random_perfect_matching(two_n, seed).partner_array()[0]
        for seed in range(samples)
    )
    p = 1 / (two_n - 1)
    tol = 5 * math.sqrt(p * (1 - p) * samples)
    for v in range(1, two_n):
        assert abs(counts[v] - samples * p) < tol


def test_random_matching_validation():
    assert random_perfect_matching(2, 7).pairs == ((0, 1),)
    with pytest.raises(ValueError):
        random_perfect_matching(5, 0)
    with pytest.raises(ValueError):
        random_perfect_matching(0, 0)


def test_count_matchings():
    assert count_matchings(0) == 1
    assert count_matchings(1) == 1
    assert count_matchings(2) == 3
    # independent evaluation of (2n)!/(2^n n!)
    for n in range(8):
        assert count_matchings(n) == math.factorial(2 * n) // (
            2**n * math.factorial(n)
        )
    assert count_matchings(4) == 105


def test_connected_components_roundtrip():
    d = new_dipole(3)
    assert connected_components(d) == [(d, (0, 1))]
    melon = spec_quartic_melon()
    u = disjoint_union(d, melon)
    comps = connected_components(u)
    assert len(comps) == 2
    assert comps[0][0] == d and comps[0][1] == (0, 1)
    assert comps[1][0] == melon and comps[1][1] == (2, 3, 4, 5)
    g = six_vertex_cyclic()
    assert connected_components(g) == [(g, (0, 1, 2, 3, 4, 5))]


def test_disjoint_union():
    d = new_dipole(3)
    u = disjoint_union(d, d)
    assert u.n == 2
    for m in u.matchings:
        assert m.pairs == ((0, 1), (2, 3))
    with pytest.raises(ValueError):
        disjoint_union(new_dipole(2), new_dipole(3))
    # dense labels make the union associative on the nose
    a, b, c = new_dipole(3), spec_quartic_melon(), six_vertex_cyclic()
    assert disjoint_union(disjoint_union(a, b), c) == disjoint_union(
        a, disjoint_union(b, c)
    )


def test_is_melonic_examples():
    rep = is_melonic(new_dipole(3))
    assert rep.is_melonic
    assert rep.canonical_pairing == Matching([(0, 1)], 2)
    assert rep.reduction_trace == ()

    rep = is_melonic(spec_quartic_melon())
    assert rep.is_melonic
    assert rep.canonical_pairing == Matching([(0, 1), (2, 3)], 4)

    rep = is_melonic(six_vertex_cyclic())
    assert not rep.is_melonic
    assert rep.canonical_pairing is None

    with pytest.raises(ValueError):
        is_melonic(new_dipole(1))


def test_is_melonic_disconnected():
    g = disjoint_union(new_dipole(3), spec_quartic_melon())
    rep = is_melonic(g)
    assert rep.is_melonic
    assert rep.canonical_pairing is not None and rep.canonical_pairing.is_perfect


def test_melonic_reduction_traces():
    # contractions enter the trace in order; the final peel of each
    # component does not
    for k, seed, trace in (
        (2, 0, ((0, 1), (2, 3))),
        (4, 1, ((2, 3), (0, 1), (4, 5), (6, 7))),
        (6, 3, ((0, 1), (6, 7), (4, 5), (8, 9), (10, 11), (2, 3))),
    ):
        rep = is_melonic(random_melonic_graph(3, k, seed))
        assert rep.reduction_trace == trace
        assert rep.canonical_pairing == Matching(
            [(i, i + 1) for i in range(0, 2 * k + 2, 2)], 2 * k + 2
        )
    g = disjoint_union(random_melonic_graph(3, 2, 5), random_melonic_graph(3, 3, 6))
    rep = is_melonic(g)
    assert rep.reduction_trace == ((0, 1), (2, 3), (10, 11), (8, 9), (6, 7))
    assert rep.canonical_pairing == Matching([(i, i + 1) for i in range(0, 14, 2)], 14)


@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 10**6), st.data())
@settings(max_examples=80, deadline=None)
def test_splice_counts_closed_faces_and_unsplice_restores(D, n, seed, data):
    partners = [list(p) for p in random_colored_graph(D, n, seed).partner_arrays()]
    original = [list(p) for p in partners]
    order = data.draw(st.permutations(range(2 * n)))
    pairs = [(order[i], order[i + 1]) for i in range(0, 2 * data.draw(st.integers(1, n)), 2)]
    for u, v in pairs:
        before = [list(p) for p in partners]
        assert splice(partners, u, v) == sum(p[u] == v for p in before)
        for p, old in zip(partners, before):
            if old[u] != v:
                # the far ends of the paths through u and v become partners
                assert p[old[u]] == old[v] and p[old[v]] == old[u]
    for u, v in reversed(pairs):
        unsplice(partners, u, v)
    assert partners == original


def test_melonic_generation_up_to_twenty_vertices():
    seen = 0
    for seed in range(100):
        g = random_melonic_graph(3 + seed % 2, seed % 10, seed)
        assert is_melonic(g).is_melonic
        seen += 1
    assert seen == 100


@given(st.integers(2, 3), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_melonic_contraction_confluent(D, n, seed):
    # every contraction order agrees with the greedy verdict (2n <= 12 here,
    # melonic and random graphs both)
    if seed % 2:
        g = random_melonic_graph(D, n - 1, seed)
    else:
        g = random_colored_graph(D, n, seed)
    verdicts = melonic_all_orders(g)
    assert verdicts == frozenset({is_melonic(g).is_melonic})


def test_json_roundtrip_and_diagnostics():
    for g in (new_dipole(3), spec_quartic_melon(), six_vertex_cyclic()):
        assert graph_from_json(graph_to_json(g)) == g
        assert parse_graph(graph_to_json(g)) == g
    with pytest.raises(GraphFormatError, match="color 2"):
        graph_from_json(
            '{"D": 2, "vertices": 4, "matchings": [[[0,1],[2,3]], [[0,1]]]}'
        )
    with pytest.raises(GraphFormatError, match="color 1"):
        graph_from_json(
            '{"D": 1, "vertices": 4, "matchings": [[[0,1],[1,3]]]}'
        )
    with pytest.raises(GraphFormatError):
        graph_from_json('{"D": 2, "vertices": 4, "matchings": [[[0,1],[2,3]]]}')
    for bad in ("5", "null"):
        with pytest.raises(GraphFormatError, match="matchings must be a list"):
            graph_from_json(f'{{"D": 1, "vertices": 2, "matchings": {bad}}}')
    # out-of-range and non-integral numbers are refused, never truncated
    for D, vertices, pair in (
        ("1e400", "2", "[0, 1]"),
        ("1", "1e400", "[0, 1]"),
        ("1", "2.7", "[0, 1]"),
        ("1", "2", "[0, 1.9]"),
    ):
        with pytest.raises(GraphFormatError, match="is not an integer"):
            graph_from_json(
                f'{{"D": {D}, "vertices": {vertices}, "matchings": [[{pair}]]}}'
            )
    with pytest.raises(GraphFormatError):
        graph_from_json("not json")


def test_text_roundtrip_and_diagnostics():
    for g in (new_dipole(4), spec_quartic_melon(), six_vertex_cyclic()):
        assert graph_from_text(graph_to_text(g)) == g
        assert parse_graph(graph_to_text(g)) == g
    assert graph_to_text(new_dipole(3)) == "3 1 | 0-1 ; 0-1 ; 0-1"
    with pytest.raises(GraphFormatError, match="color 3"):
        graph_from_text("3 2 | 0-1,2-3 ; 0-2,1-3 ; 0-1")
    with pytest.raises(GraphFormatError):
        graph_from_text("3 2 | 0-1,2-3 ; 0-2,1-3")
    with pytest.raises(GraphFormatError):
        graph_from_text("junk")


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_serialization_roundtrip_random(D, n, seed):
    g = random_colored_graph(D, n, seed)
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_from_text(graph_to_text(g)) == g
