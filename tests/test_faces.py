
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwick.faces import (
    boundary_graph,
    count_bicolored_cycles,
    euler_d3,
    total_faces,
)
from tensorwick.graphs import (
    ColoredGraph,
    Matching,
    disjoint_union,
    graph_from_text,
    graph_to_text,
    is_melonic,
    new_dipole,
    random_colored_graph,
    random_melonic_graph,
    random_perfect_matching,
)

from helpers import (
    all_matchings,
    closed_faces,
    dsu_cycle_count,
    faces_of,
    joined_connected,
    six_vertex_cyclic,
    spec_quartic_melon,
)


def test_count_bicolored_cycles_examples():
    a = Matching([(0, 1), (2, 3)], 4)
    b = Matching([(0, 2), (1, 3)], 4)
    assert count_bicolored_cycles(a, a) == 2  # parallel pairs are 2-cycles
    assert count_bicolored_cycles(a, b) == 1
    c1 = Matching([(0, 1), (2, 3), (4, 5)], 6)
    c2 = Matching([(1, 2), (3, 4), (5, 0)], 6)
    assert count_bicolored_cycles(c1, c2) == 1
    with pytest.raises(ValueError):
        count_bicolored_cycles(a, c1)
    with pytest.raises(ValueError):
        count_bicolored_cycles(a, Matching([(0, 1)], 4))


@given(st.integers(1, 5), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_count_cycles_matches_union_find(n, s1, s2):
    a = random_perfect_matching(2 * n, s1)
    b = random_perfect_matching(2 * n, s2)
    assert count_bicolored_cycles(a, b) == dsu_cycle_count(a.pairs, b.pairs, 2 * n)


def test_total_faces_examples():
    fc = total_faces(Matching([(0, 1)], 2), new_dipole(3))
    assert fc.per_color == (1, 1, 1) and fc.total == 3 and fc.omega == 0

    melon = spec_quartic_melon()
    fc = total_faces(Matching([(0, 1), (2, 3)], 4), melon)
    assert fc.total == 5 and fc.omega == 0 and fc.per_color == (2, 1, 2)
    fc = total_faces(Matching([(0, 3), (1, 2)], 4), melon)
    assert fc.total == 3 and fc.omega == 2

    with pytest.raises(ValueError):
        total_faces(Matching([(0, 1)], 4), melon)


def test_total_faces_omega_cases():
    d = new_dipole(3)
    dd = disjoint_union(d, d)
    # pairing inside the components: joined graph disconnected, omega undefined
    fc = total_faces(Matching([(0, 1), (2, 3)], 4), dd)
    assert fc.total == 6 and fc.omega is None and not fc.g_connected and fc.q == 2
    # crossing pairing joins everything: the disconnected formula applies
    fc = total_faces(Matching([(0, 2), (1, 3)], 4), dd)
    assert fc.g_connected and fc.total == 3
    assert fc.omega == 3 - 2 * 2 + 2 * 2 - 3  # D-(D-1)q+(D-1)n - total = 0


def test_total_faces_additive_over_disjoint_union():
    g1 = random_colored_graph(3, 2, seed=1)
    g2 = random_colored_graph(3, 3, seed=2)
    u = disjoint_union(g1, g2)
    m1 = random_perfect_matching(4, 11)
    m2 = random_perfect_matching(6, 12)
    m = Matching(
        list(m1.pairs) + [(a + 4, b + 4) for a, b in m2.pairs], 10
    )
    assert (
        total_faces(m, u).total
        == total_faces(m1, g1).total + total_faces(m2, g2).total
    )


def test_boundary_graph_melon():
    bg, labels = boundary_graph(spec_quartic_melon(), Matching([(0, 1)], 4))
    assert bg == new_dipole(3)
    assert labels == (2, 3)


def test_boundary_graph_empty_partial_is_identity():
    g = six_vertex_cyclic()
    bg, labels = boundary_graph(g, Matching([], 6))
    assert bg == g
    assert labels == (0, 1, 2, 3, 4, 5)


def test_boundary_graph_six_vertex_instances():
    # a melonic 6-vertex graph with two different absorbed pairs; expected
    # boundary graphs traced by hand by following the alternating paths
    g = ColoredGraph(
        [
            Matching([(0, 1), (2, 4), (5, 3)], 6),
            Matching([(0, 2), (1, 3), (4, 5)], 6),
            Matching([(0, 1), (2, 3), (4, 5)], 6),
        ]
    )
    bg, labels = boundary_graph(g, Matching([(1, 4)], 6))
    assert labels == (0, 2, 3, 5)
    assert [m.pairs for m in bg.matchings] == [
        ((0, 1), (2, 3)),
        ((0, 1), (2, 3)),
        ((0, 3), (1, 2)),
    ]
    bg2, labels2 = boundary_graph(g, Matching([(1, 5)], 6))
    assert labels2 == (0, 2, 3, 4)
    assert [m.pairs for m in bg2.matchings] == [
        ((0, 2), (1, 3)),
        ((0, 1), (2, 3)),
        ((0, 3), (1, 2)),
    ]


def test_boundary_graph_closes_and_splices():
    # (0, 5) splices every color's paths; (2, 3) then closes color 2's
    g = graph_from_text("4 4 | 0-3,1-5,2-4,6-7 ; 0-6,1-7,2-3,4-5 ; 0-1,2-5,3-6,4-7 ; 0-6,1-2,3-5,4-7")
    bg, labels = boundary_graph(g, Matching([(0, 5), (2, 3)], 8))
    assert labels == (1, 4, 6, 7)
    assert graph_to_text(bg) == "4 2 | 0-1,2-3 ; 0-3,1-2 ; 0-2,1-3 ; 0-2,1-3"


def test_boundary_graph_rejects_bad_partials():
    g = spec_quartic_melon()
    with pytest.raises(ValueError):
        boundary_graph(g, Matching([(0, 1), (2, 3)], 4))  # nothing left free
    with pytest.raises(ValueError):
        # overlapping pairs are rejected by the Matching type itself
        boundary_graph(g, Matching([(0, 1), (1, 2)], 4))


def test_connected_graph_with_disconnected_boundary_exists():
    # randomized search over 8-vertex connected graphs, fixed seeds
    found = False
    for seed in range(200):
        g = random_colored_graph(3, 4, seed)
        if not g.is_connected:
            continue
        for s2 in range(10):
            partial = Matching([tuple(random_perfect_matching(8, 50 * seed + s2).pairs[0])], 8)
            bg, _ = boundary_graph(g, partial)
            if not bg.is_connected:
                found = True
                break
        if found:
            break
    assert found


def test_boundary_graph_carries_every_unclosed_face():
    # faces of a pairing = faces closed by any sub-pairing (the head) plus
    # faces of the boundary graph against the rest (the tail), relabeled
    graphs = [
        new_dipole(3),
        spec_quartic_melon(),
        six_vertex_cyclic(),
        random_colored_graph(2, 4, seed=4),
        random_colored_graph(4, 3, seed=5),
        disjoint_union(random_colored_graph(3, 1, 0), random_colored_graph(3, 2, 1)),
    ]
    cases = 0
    for g in graphs:
        for pairs in all_matchings(2 * g.n):
            total = faces_of(g, pairs)
            for r in range(1, g.n):
                for head in combinations(pairs, r):
                    tail = [p for p in pairs if p not in head]
                    bg, labels = boundary_graph(g, Matching(head, 2 * g.n))
                    index = {orig: new for new, orig in enumerate(labels)}
                    rest = [(index[u], index[v]) for u, v in tail]
                    assert total == closed_faces(g, head) + faces_of(bg, rest)
                    cases += 1
    assert cases == 1746


def test_omega_nonnegative_whenever_defined():
    graphs = [
        random_colored_graph(D, n, seed)
        for D in (2, 3, 4)
        for n in (2, 3, 4)
        for seed in (0, 1)
    ] + [
        random_colored_graph(3, 5, seed=9),
        random_melonic_graph(3, 4, seed=3),
        disjoint_union(random_colored_graph(3, 1, 0), random_colored_graph(3, 2, 1)),
        disjoint_union(random_colored_graph(2, 2, 0), random_colored_graph(2, 2, 1)),
    ]
    for g in graphs:
        for pairs in all_matchings(2 * g.n):
            fc = total_faces(Matching(pairs, 2 * g.n), g)
            assert fc.g_connected == joined_connected(g, pairs)
            if fc.omega is not None:
                assert fc.omega >= 0


def test_canonical_pairing_saturates_and_joined_graph_is_melonic():
    for seed in range(12):
        D = 3 + seed % 2
        g = random_melonic_graph(D, seed % 5, seed)
        rep = is_melonic(g)
        m0 = rep.canonical_pairing
        fc = total_faces(m0, g)
        assert fc.omega == 0
        joined = ColoredGraph(list(g.matchings) + [m0])
        assert is_melonic(joined).is_melonic


def test_euler_d3_examples():
    rep = euler_d3(new_dipole(3))
    assert rep.total == 3 and rep.chi == 2 and rep.is_planar

    rep = euler_d3(spec_quartic_melon())
    assert rep.pair_faces == (1, 2, 1)
    assert rep.total == 4 and rep.is_planar

    rep = euler_d3(six_vertex_cyclic())
    assert rep.total == 3 and not rep.is_planar and rep.chi == 0

    with pytest.raises(ValueError):
        euler_d3(new_dipole(2))


def test_euler_d3_disconnected():
    g = disjoint_union(new_dipole(3), new_dipole(3))
    rep = euler_d3(g)
    assert rep.q == 2
    assert rep.total == 6 == g.n + 2 * rep.q
    assert rep.is_planar
