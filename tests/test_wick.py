import json
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwick.faces import count_bicolored_cycles, total_faces
from tensorwick.graphs import (
    ColoredGraph,
    Matching,
    count_matchings,
    disjoint_union,
    is_melonic,
    new_dipole,
    random_colored_graph,
    random_melonic_graph,
    random_perfect_matching,
    splice,
)
from tensorwick.wick import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    ExpectationPoly,
    FaceHistogram,
    cumulant_poly,
    enumerate_histogram,
    expectation_poly,
    factorization_verdict,
    lemma_condition,
    max_scaling,
    subadditivity_check,
    _Rows,
    _boundary_code,
    _child_rings,
    _children,
    _histogram,
    _scan,
    _walk,
)

from helpers import (
    all_matchings,
    boundary_matchings,
    brute_histogram,
    catalan,
    closed_faces,
    dsu_cycle_count,
    faces_of,
    joined_connected,
    least_relabeling,
    memo_state_count,
    pieces,
    random_connected_graph,
    reference_scan,
    relabelings,
    ring_cycles,
    spec_quartic_melon,
    two_color_cycle,
)


# a single graph with n <= 4, or a disjoint union of two or three graphs with
# total n <= 5: unions reach the last pair with two and with more than two
# unjoined components
part_sizes = st.one_of(
    st.integers(1, 4).map(lambda n: (n,)),
    st.sampled_from(
        [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2)]
    ),
)

# every shape of total n 5 or 6, where the ring bound prunes: one graph,
# or a union that the connected search must join
bound_sizes = st.sampled_from([(5,), (6,), (1, 4), (2, 3), (2, 4), (3, 3), (1, 2, 3), (2, 2, 2)])


def graph_of_parts(D, sizes, seed):
    return reduce(
        disjoint_union,
        [random_colored_graph(D, n, seed + i) for i, n in enumerate(sizes)],
    )


def test_histogram_examples():
    assert enumerate_histogram(new_dipole(3)).counts == {3: 1}
    assert enumerate_histogram(new_dipole(3), connected_only=True).counts == {3: 1}
    assert enumerate_histogram(spec_quartic_melon()).counts == {5: 1, 4: 1, 3: 1}
    dd = disjoint_union(new_dipole(3), new_dipole(3))
    assert enumerate_histogram(dd, connected_only=True).counts == {3: 2}
    assert enumerate_histogram(dd).counts == {6: 1, 3: 2}


def test_histogram_budget_refusal_names_size():
    g = random_colored_graph(2, 5, seed=0)
    with pytest.raises(BudgetExceeded, match=str(count_matchings(5))):
        enumerate_histogram(g, budget=4)


def test_histogram_totals():
    for n, seed in ((2, 0), (3, 1), (4, 2), (5, 3)):
        g = random_colored_graph(3, n, seed)
        h = enumerate_histogram(g)
        assert h.total_pairings == count_matchings(n)
        hc = enumerate_histogram(g, connected_only=True)
        assert hc.total_pairings <= h.total_pairings


# single graphs whose joined states with 4 pairs to go are scored from the
# eight-point table, and unions whose larger first part makes them join at or
# below that level, reaching the six-point table
table_sizes = st.one_of(
    st.integers(4, 6).map(lambda n: (n,)),
    st.sampled_from([(3, 1), (4, 1), (3, 2), (2, 1, 2), (4, 2), (3, 1, 1)]),
)


@given(st.integers(1, 8), st.one_of(part_sizes, table_sizes), st.integers(0, 10**6), st.booleans())
@settings(max_examples=160, deadline=None)
def test_histogram_matches_brute_force(D, sizes, seed, connected_only):
    # joined states are scored from the six-point table with 3 pairs to go,
    # at the root or below a union's last join, and from the eight-point
    # table with 4
    g = graph_of_parts(D, sizes, seed)
    assert (
        enumerate_histogram(g, connected_only=connected_only).counts
        == brute_histogram(g, connected_only=connected_only)
    )


@given(st.integers(1, 8), bound_sizes, st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_memoized_histogram_matches_brute_force(D, sizes, seed, connected_only):
    # total n 5-6: states with four pairs to go are memoized and shared
    g = graph_of_parts(D, sizes, seed)
    assert (
        enumerate_histogram(g, connected_only=connected_only).counts
        == brute_histogram(g, connected_only=connected_only)
    )


@pytest.mark.parametrize(
    "D, sizes, seed",
    # the table's bytes would carry from D = 86 at 4 pairs to go and from
    # D = 128 at 3, where the walk takes over; D = 85 is the last that the
    # eight-point table scores, and with seed None every color is one
    # matching, so the completion equal to it sums exactly 3 * D = 255
    [(86, (4,), 0), (86, (5,), 1), (100, (5,), 2), (130, (5,), 3), (90, (3, 2), 4),
     (85, (4,), 5), (85, (5,), 6), (85, (4,), None), (85, (5,), None)],
)
def test_histograms_past_the_tables_byte_range(D, sizes, seed):
    if seed is None:
        (n,) = sizes
        g = ColoredGraph([random_perfect_matching(2 * n, n)] * D)
    else:
        g = graph_of_parts(D, sizes, seed)
    for connected_only in (False, True):
        assert (
            enumerate_histogram(g, connected_only=connected_only).counts
            == brute_histogram(g, connected_only=connected_only)
        )


def check_table_rows(r):
    # a fresh table builds every row from its partner code, on first use
    rows = _Rows(r)
    m = 2 * r
    assert len(rows.matchings) == len(set(rows.matchings)) == count_matchings(r)
    # in the walks' lexicographic order, which the search's least witness
    # relies on
    assert [sorted(P) for P in rows.matchings] == list(all_matchings(m))
    for Q in all_matchings(m):
        mate = dict(Q) | {v: u for u, v in Q}
        code = 0
        for x in range(m - 3):
            code = code * m + mate[x]
        assert code not in rows
        faces = rows[code].to_bytes(len(rows.matchings), "little")
        assert list(faces) == [dsu_cycle_count(P, Q, m) - 1 for P in rows.matchings]
    assert len(rows) == count_matchings(r)


def test_six_point_table_counts_cycles():
    check_table_rows(3)


def test_eight_point_table_counts_cycles():
    check_table_rows(4)


def relabeled(g, perm, colors):
    """g with vertex x renamed perm[x] and color i taken from colors[i]."""
    return ColoredGraph(
        [Matching([(perm[u], perm[v]) for u, v in g.matchings[c].pairs], 2 * g.n) for c in colors]
    )


@given(st.integers(1, 6), st.one_of(part_sizes, bound_sizes), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_histogram_ignores_vertex_and_color_names(D, sizes, seed, connected_only):
    # the memo keys boundary states up to vertex names only; renaming
    # vertices and colors reaches other states in another order
    g = graph_of_parts(D, sizes, seed)
    rng = random.Random(seed)
    perm = list(range(2 * g.n))
    rng.shuffle(perm)
    colors = list(range(D))
    rng.shuffle(colors)
    h = enumerate_histogram(relabeled(g, perm, colors), connected_only=connected_only)
    assert h.counts == enumerate_histogram(g, connected_only=connected_only).counts


def whole_graph_code(g):
    # every vertex free and one group: the code of g itself
    return _boundary_code(g.partner_arrays(), list(range(2 * g.n)))


def assert_codes_are_classes(pairs):
    # pairs holds (code, least relabeling) for each graph: one code per
    # isomorphism class, and one class per code
    codes, classes = zip(*pairs)
    assert len(set(codes)) == len(set(classes)) == len(pairs)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_boundary_code_is_complete_on_every_small_graph(D):
    pairs = set()
    for n in (1, 2, 3):
        ms = [Matching(m, 2 * n) for m in all_matchings(2 * n)]
        least = {}  # each graph's least relabeling, found once per orbit
        for colors in product(ms, repeat=D):
            key = tuple(m.pairs for m in colors)
            if key not in least:
                orbit = set(relabelings(ColoredGraph(colors)))
                least.update(dict.fromkeys(orbit, min(orbit)))
            pairs.add((whole_graph_code(ColoredGraph(colors)), least[key]))
    assert_codes_are_classes(pairs)


def test_boundary_code_is_complete_on_sampled_graphs():
    # each D = 4 sample with a relabeled copy and a copy with two colors
    # swapped, which is mostly another graph on the same edges
    rng = random.Random(4)
    graphs = []
    for n, seeds in ((2, 12), (3, 12), (4, 3)):
        for s in range(seeds):
            g = random_colored_graph(4, n, s)
            perm = list(range(2 * n))
            rng.shuffle(perm)
            graphs += [g, relabeled(g, perm, range(4)), relabeled(g, range(2 * n), [1, 0, 2, 3])]
    assert_codes_are_classes({(whole_graph_code(g), least_relabeling(g)) for g in graphs})


def test_boundary_code_keeps_the_grouping():
    # four like components grouped 2 + 2 and 1 + 3 concatenate to the same
    # component codes; only the byte between groups tells them apart
    g = reduce(disjoint_union, [new_dipole(3)] * 4)
    comp_ids, q = g.component_ids()
    bnd, free = g.partner_arrays(), list(range(8))
    assert q == 4
    two_two = _boundary_code(bnd, free, [0, 0, 2, 2], comp_ids, 2)
    assert two_two == _boundary_code(bnd, free, [1, 1, 3, 3], comp_ids, 2)
    assert two_two != _boundary_code(bnd, free, [0, 1, 1, 1], comp_ids, 2)
    # a set without a free vertex: fewer groups than live sets
    assert _boundary_code(bnd, free, [0, 0, 2, 2], comp_ids, 3) is None


# counts computed pairing by pairing, by an exhaustive walk without the
# memo; states by helpers.memo_state_count
HISTOGRAM_PINS = [
    (
        lambda: random_colored_graph(3, 8, 1),
        False,
        {3: 62240, 4: 248692, 5: 457440, 6: 514065, 7: 394759, 8: 219651, 9: 91769,
         10: 29377, 11: 7281, 12: 1461, 13: 255, 14: 33, 15: 2},
        420,
    ),
    (
        lambda: random_colored_graph(4, 8, 1),
        False,
        {4: 18988, 5: 102698, 6: 257944, 7: 407682, 8: 449349, 9: 371060, 10: 235549,
         11: 117748, 12: 46656, 13: 14751, 14: 3751, 15: 719, 16: 115, 17: 14, 18: 1},
        1997,
    ),
    (
        lambda: disjoint_union(random_connected_graph(3, 3, 1), random_connected_graph(3, 4, 2)),
        True,
        {3: 5728, 4: 21344, 5: 32064, 6: 33692, 7: 22720, 8: 11232, 9: 4800, 10: 1524,
         11: 384, 12: 72},
        25,
    ),
]


@pytest.mark.parametrize("make, connected_only, counts, states", HISTOGRAM_PINS)
def test_histogram_pins_and_state_counts(make, connected_only, counts, states):
    h = enumerate_histogram(make(), connected_only=connected_only)
    assert h.counts == counts
    # the work count is deterministic, and stays out of the report
    assert h.states == states
    assert "states" not in h.to_json_dict()
    assert h == FaceHistogram(counts, connected_only, h.n, h.D)


@pytest.mark.parametrize(
    "D, sizes, seed, connected_only",
    [(1, (6,), 0, False), (2, (6,), 1, False), (3, (7,), 2, False), (5, (6,), 3, False),
     (3, (2, 4), 4, True), (4, (1, 2, 3), 5, True), (3, (3, 3), 6, False), (8, (5,), 7, True),
     (3, (4, 3), 8, True), (100, (5,), 9, False), (100, (3, 2), 10, True)],
)
def test_state_count_matches_an_independent_walk(D, sizes, seed, connected_only):
    g = graph_of_parts(D, sizes, seed)
    h = enumerate_histogram(g, connected_only=connected_only)
    assert h.states == memo_state_count(g, connected_only)


@pytest.mark.parametrize(
    "g, connected_only",
    [(random_colored_graph(3, 6, 1), False),
     (disjoint_union(random_connected_graph(3, 3, 1), random_connected_graph(3, 4, 2)), True),
     (disjoint_union(random_connected_graph(3, 4, 2), random_connected_graph(3, 3, 1)), True)],
)
def test_memo_stores_each_state_under_its_own_key(g, connected_only):
    # a histogram stored under a key no state has keeps every count and
    # states and only loses the memo's hits; so watch the walk: each time a
    # keyed level returns, the memo must hold its histogram at its key, a
    # canonical code.  The six-point table, reached below a join made at 4
    # pairs to go (which only the last union, whose first part is the
    # larger, makes), stores nothing
    (rec_code,) = [c for c in _histogram.__code__.co_consts if getattr(c, "co_name", "") == "rec"]
    kinds = set()

    def on_return(frame, event, arg):
        key = frame.f_locals.get("key")
        if event == "return" and key is not None:
            assert frame.f_locals["memo"].get(key) == arg
            kinds.add(type(key))
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code is rec_code:
            frame.f_trace_lines = False
            return on_return

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        enumerate_histogram(g, connected_only=connected_only)
    finally:
        sys.settrace(old)
    assert kinds == {bytes}


def free_list(nxt):
    S = len(nxt) - 1
    free = []
    x = nxt[S]
    while x != S:
        free.append(x)
        x = nxt[x]
    return free


@given(
    st.integers(1, 8),
    st.one_of(
        st.integers(1, 6).map(lambda n: (n,)),
        st.lists(st.integers(1, 3), min_size=2, max_size=3).map(tuple),
    ),
    st.integers(0, 10**6),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_children_places_each_pair_and_restores_the_state(D, sizes, seed, data):
    g = graph_of_parts(D, sizes, seed)
    state = _walk(g)
    bnd, nxt, prv, par, comp_ids, q = state
    # reach a random state, holding a random child of each level in effect
    pairs, closed, live, held = [], 0, q, []
    for _ in range(data.draw(st.integers(0, g.n - 1))):
        u = nxt[-1]
        loop = _children(bnd, nxt, prv, par, comp_ids, u, live)
        for _ in range(data.draw(st.integers(1, len(free_list(nxt)) - 1))):
            v, dclosed, live = next(loop)
        pairs.append((u, v))
        closed += dclosed
        held.append(loop)
    assert closed == closed_faces(g, pairs)
    assert live == pieces(g, pairs)
    entry = [[list(b) for b in bnd], list(nxt), list(prv), list(par)]
    free = free_list(nxt)
    u = free[0]
    placed = []
    for v, dclosed, lv in _children(bnd, nxt, prv, par, comp_ids, u, live):
        placed.append(v)
        spliced = [list(b) for b in entry[0]]
        assert dclosed == splice(spliced, u, v)
        assert bnd == spliced
        assert free_list(nxt) == [x for x in free if x not in (u, v)]
        assert lv == pieces(g, pairs + [(u, v)])
    assert placed == free[1:]
    assert [bnd, nxt, prv, par] == entry
    # exhausting the held levels, innermost first, restores the root state
    for loop in reversed(held):
        for _ in loop:
            pass
    assert state == _walk(g)


def test_expectation_poly_examples():
    assert expectation_poly(new_dipole(3), nu=2).to_triples() == [[1, 1, 1]]
    melon = spec_quartic_melon()
    assert expectation_poly(melon, nu=2).to_triples() == [
        [1, 1, 1],
        [0, 1, 1],
        [-1, 1, 1],
    ]
    c4 = two_color_cycle(2)
    assert expectation_poly(c4, nu=1).to_triples() == [[1, 1, 2], [0, 1, 1]]
    # default nu is D - 1
    assert expectation_poly(melon).nu == Fraction(2)
    # enumeration produces positive coefficients, so values at N >= 1 are > 0
    for g in (melon, c4, random_colored_graph(3, 3, seed=17)):
        poly = expectation_poly(g)
        assert all(c > 0 for c in poly.terms.values())
        assert poly.evaluate(1) > 0


def test_cumulant_poly():
    for g in (new_dipole(3), spec_quartic_melon(), two_color_cycle(3)):
        assert cumulant_poly(g, nu=2) == expectation_poly(g, nu=2)
    dd = disjoint_union(new_dipole(3), new_dipole(3))
    assert cumulant_poly(dd, nu=2).to_triples() == [[-1, 1, 2]]
    # moment = product of expectations + cumulant, at q = 2
    expect_d = expectation_poly(new_dipole(3), nu=2)
    assert expectation_poly(dd, nu=2) == expect_d * expect_d + cumulant_poly(dd, nu=2)


def test_poly_algebra():
    p = ExpectationPoly(2, 1, {Fraction(1): 1})
    q = ExpectationPoly(2, 1, {Fraction(1): 2, Fraction(-1): 1})
    assert (p + q).terms == {Fraction(1): 3, Fraction(-1): 1}
    assert (p * q).n == 2
    assert (p * q).terms == {Fraction(2): 2, Fraction(0): 1}
    assert (3 * p).terms == {Fraction(1): 3}
    assert (p - p).is_zero
    assert p.evaluate(Fraction(5)) == Fraction(5)
    assert q.evaluate(2) == Fraction(9, 2)
    assert abs(q.evaluate(2.0) - 4.5) < 1e-12
    with pytest.raises(ValueError):
        p + ExpectationPoly(1, 1, {Fraction(1): 1})


@pytest.mark.parametrize("n, coefficient", [(1.5, 1), (1, 1.5), (Fraction(3, 2), 1), (1, Fraction(1, 2))])
def test_expectation_poly_refuses_non_integral_n_and_coefficients(n, coefficient):
    with pytest.raises(ValueError, match="is not an integer"):
        ExpectationPoly(2, n, {0: coefficient})
    p = ExpectationPoly(2, 2.0, {0: Fraction(6, 2)})
    assert (p.n, p.terms) == (2, {0: 3}) and type(p.n) is type(p.terms[0]) is int


def test_max_scaling_examples():
    rep = max_scaling(spec_quartic_melon())
    assert rep.F_max == 5 and rep.num_optimal == 1 and rep.omega_min == 0
    assert rep.witness == Matching([(0, 1), (2, 3)], 4)

    rep = max_scaling(two_color_cycle(2))
    assert rep.F_max == 3 and rep.num_optimal == 2 == catalan(2)

    for D in (1, 2, 4):
        rep = max_scaling(new_dipole(D))
        assert rep.F_max == D and rep.num_optimal == 1


@given(st.integers(1, 4), part_sizes, st.integers(0, 10**6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_max_scaling_matches_brute_force(D, sizes, seed, connected_only):
    g = graph_of_parts(D, sizes, seed)
    hist = brute_histogram(g, connected_only=connected_only)
    rep = max_scaling(g, connected_only=connected_only)
    assert rep.exact
    assert rep.F_max == max(hist)
    assert rep.num_optimal == hist[max(hist)]
    assert faces_of(g, rep.witness.pairs) == rep.F_max


@given(st.integers(1, 6), part_sizes, st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_witness_is_lexicographically_least(D, sizes, seed, connected_only):
    # the search starts from the dive's incumbent, yet reports the least
    # optimal pairing, not the incumbent
    g = graph_of_parts(D, sizes, seed)
    best = max_scaling(g, connected_only=connected_only)
    optima = [
        tuple(m)
        for m in all_matchings(2 * g.n)
        if faces_of(g, m) == best.F_max
        and (not connected_only or joined_connected(g, m))
    ]
    assert best.witness.pairs == min(optima)


@given(st.integers(1, 8), st.one_of(part_sizes, bound_sizes), st.integers(0, 10**6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_dive_is_a_valid_incumbent(D, sizes, seed, connected_only):
    # a walk cut at its first node returns the greedy descent's pairing: a
    # perfect one that closes the faces it claims, no more than the
    # maximum, and joins every component when asked to
    g = graph_of_parts(D, sizes, seed)
    counts, pairs, exact = _scan(g, connected_only, node_budget=1)
    (F,) = counts
    assert counts[F] == 1 and not exact
    m = Matching(pairs, 2 * g.n)
    assert m.is_perfect and sorted(pairs) == pairs
    assert faces_of(g, pairs) == F
    assert F <= max(enumerate_histogram(g, connected_only=connected_only).counts)
    if connected_only:
        assert joined_connected(g, pairs)
    rep = max_scaling(g, connected_only=connected_only, node_budget=1)
    assert (rep.F_max, rep.num_optimal, rep.witness, rep.exact) == (F, 1, m, False)


def test_scaling_bound_and_melonic_rigidity():
    # connected graphs respect F <= 1 + (D-1) n; saturation at D >= 3 forces
    # melonic with a unique optimum
    for seed in range(25):
        D = 3 + seed % 2
        n = 2 + seed % 3
        g = random_connected_graph(D, n, seed)
        h = enumerate_histogram(g)
        bound = 1 + (D - 1) * g.n
        assert max(h.counts) <= bound
        rep = max_scaling(g)
        if rep.F_max == bound:
            assert is_melonic(g).is_melonic
            assert rep.num_optimal == 1
    for seed in range(8):
        g = random_melonic_graph(3, 2 + seed % 3, seed)
        rep = max_scaling(g)
        assert rep.F_max == 1 + 2 * g.n
        assert rep.num_optimal == 1
        assert rep.witness == is_melonic(g).canonical_pairing


def test_catalan_counts_small():
    for n in range(1, 5):
        rep = max_scaling(two_color_cycle(n))
        assert rep.F_max == 1 + n
        assert rep.num_optimal == catalan(n)


def test_parallel_equals_sequential():
    for seed in range(4):
        g = random_colored_graph(3, 4, seed)
        seq = max_scaling(g, threads=1).to_json_dict()
        par = max_scaling(g, threads=2).to_json_dict()
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)
    g = disjoint_union(spec_quartic_melon(), spec_quartic_melon())
    seq = max_scaling(g, connected_only=True, threads=1).to_json_dict()
    par = max_scaling(g, connected_only=True, threads=3).to_json_dict()
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)
    # also when the node budget binds and the report is only a lower bound
    # (the search finishes at 76 nodes, as `helpers.reference_scan` counts
    # them; the incumbent is optimal here)
    g = random_colored_graph(3, 8, seed=2)
    for budget, F_max, num_optimal, witness in (
        (1, 14, 1, [(0, 6), (1, 4), (2, 13), (3, 8), (5, 14), (7, 10), (9, 15), (11, 12)]),
        (75, 14, 1, [(0, 6), (1, 4), (2, 13), (3, 8), (5, 14), (7, 10), (9, 15), (11, 12)]),
    ):
        seq = max_scaling(g, threads=1, node_budget=budget)
        par = max_scaling(g, threads=2, node_budget=budget)
        assert seq == par
        assert not seq.exact
        assert (seq.F_max, seq.num_optimal) == (F_max, num_optimal)
        assert seq.witness == Matching(witness, 16)


# (budget, (F_max, num_optimal, exact, witness)), each row where the report
# of `helpers.reference_scan` changes and the budget before the walk ends:
# a walk that reached no leaf at or above the incumbent returns the
# incumbent, the dive's pairing (optimal in both tables, but for the union
# not the least of its 24 optima, WU).  The single graph's states with 4
# pairs to go are scored from the eight-point table, two nodes each.
W10 = [(0, 4), (1, 2), (3, 5), (6, 9), (7, 8)]
TRUNCATED_SINGLE = [(b, (10, 1, False, W10)) for b in range(1, 8)] + [
    (8, (10, 2, False, W10)),
    (11, (10, 2, False, W10)),
    (12, (10, 2, True, W10)),
    (100, (10, 2, True, W10)),
]
DIVE = [(0, 4), (1, 3), (2, 5), (6, 7)]
WU = [(0, 2), (1, 4), (3, 5), (6, 7)]
TRUNCATED_UNION = [(b, (6, 1, False, DIVE)) for b in range(1, 13)] + [
    (13, (6, 1, False, WU)),
    (15, (6, 2, False, WU)),
    (38, (6, 12, False, WU)),
    (100, (6, 18, False, WU)),
    (157, (6, 24, False, WU)),
    (158, (6, 24, True, WU)),
]


def test_truncated_reports_inside_the_last_two_levels():
    # small budgets stop the walk at table reads and among the closed-form
    # completions; node counts, budget checks and prunes there must follow
    # the documented accounting
    union = disjoint_union(random_colored_graph(3, 2, 1), random_colored_graph(3, 2, 2))
    for g, connected_only, table in (
        (random_colored_graph(3, 5, 1), False, TRUNCATED_SINGLE),
        (union, True, TRUNCATED_UNION),
    ):
        for budget, expected in table:
            rep = max_scaling(g, connected_only, node_budget=budget)
            F_max, num_optimal, exact, witness = expected
            assert (rep.F_max, rep.num_optimal, rep.exact) == (F_max, num_optimal, exact)
            assert rep.witness == Matching(witness, 2 * g.n)


@given(st.integers(1, 8), bound_sizes, st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ring_bound_keeps_the_top_bin(D, sizes, seed, connected_only):
    g = graph_of_parts(D, sizes, seed)
    counts = enumerate_histogram(g, connected_only=connected_only).counts
    rep = max_scaling(g, connected_only=connected_only)
    top = max(counts)
    assert rep.exact and (rep.F_max, rep.num_optimal) == (top, counts[top])
    assert faces_of(g, rep.witness.pairs) == top


@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_ring_bound_at_the_root(D, n, seed):
    # the bound the search prunes with, before any pair is placed: each
    # color's matching against the previous color's
    g = random_colored_graph(D, n, seed)
    m = g.matchings
    ring = sum(count_bicolored_cycles(m[c], m[c - 1]) for c in range(D))
    assert 2 * max(enumerate_histogram(g).counts) <= D * n + ring


def check_child_rings(g, placed, u):
    """Splice the pairs placed into g's partner arrays, read every child's
    F_ring off `_child_rings` at u, and compare each with a recount of the
    boundary walked anew by `helpers`.  Returns the cases the children met."""
    D = g.D
    bnd = [list(p) for p in g.partner_arrays()]
    mate = {}
    for x, y in placed:
        splice(bnd, x, y)
        mate.update({x: y, y: x})
    free = frozenset(range(2 * g.n)) - set(mate)
    ring = [(bnd[c], bnd[c - 1]) for c in range(D)]
    after = _child_rings(ring, u, ring_cycles(boundary_matchings(g, mate, free), free))
    cases = {"D = 1"} if D == 1 else set()
    for v in free - {u}:
        rest = free - {u, v}
        assert after[v] == ring_cycles(boundary_matchings(g, {**mate, u: v, v: u}, rest), rest)
        for bc, bd in ring:
            if bc[u] == bd[u] == v:
                cases.add("2-cycle")
            elif (bc[u] == v) != (bd[u] == v):
                cases.add("one neighbour")
    return cases


def random_state(D, n, seed, k):
    # a graph and k random pairs of its vertices, with a free vertex u
    g = random_colored_graph(D, n, seed)
    rng = random.Random(seed)
    order = rng.sample(range(2 * n), 2 * n)
    placed = list(zip(order[: 2 * k : 2], order[1 : 2 * k : 2]))
    return g, placed, rng.choice(order[2 * k :])


@given(st.integers(1, 8), st.integers(1, 7), st.integers(0, 10**6), st.data())
@settings(max_examples=150, deadline=None)
def test_child_rings_match_a_recount(D, n, seed, data):
    # the F_ring the walk hands each child, from one walk of u's cycles,
    # against a recount after the pair is placed, in any reachable state
    check_child_rings(*random_state(D, n, seed, data.draw(st.integers(0, n - 1))))


def test_child_rings_cover_every_case():
    # the rule's exceptions: D = 1, where the ring pair is one color twice;
    # a 2-cycle through u; and v at exactly one end of u's cycle
    cases = set()
    for D in range(1, 9):
        for seed in range(12):
            n = 2 + seed % 5
            cases |= check_child_rings(*random_state(D, n, seed, seed % n))
    assert cases == {"D = 1", "2-cycle", "one neighbour"}


# two to four parts of total n 2-6, each a uniform graph or a melonic one:
# melonic parts meet the connected bound, so a prune of a tie there loses
# optima
union_sizes = st.sampled_from(
    [(1, 1), (1, 3), (2, 2), (1, 4), (2, 3), (3, 3), (2, 4), (1, 1, 1), (1, 1, 3), (1, 2, 2),
     (1, 2, 3), (2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2)]
)


@given(st.integers(1, 8), union_sizes, st.lists(st.booleans(), min_size=4, max_size=4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_connected_bound_keeps_the_top_bin_and_the_least_witness(D, sizes, melonic, seed):
    g = reduce(
        disjoint_union,
        [
            random_melonic_graph(D, n - 1, seed + i) if mel else random_colored_graph(D, n, seed + i)
            for i, (n, mel) in enumerate(zip(sizes, melonic))
        ],
    )
    hist = brute_histogram(g, connected_only=True)
    top = max(hist)
    rep = max_scaling(g, connected_only=True)
    assert rep.exact and (rep.F_max, rep.num_optimal) == (top, hist[top])
    optima = [
        tuple(m)
        for m in all_matchings(2 * g.n)
        if joined_connected(g, m) and faces_of(g, m) == top
    ]
    assert rep.witness.pairs == min(optima)


@pytest.mark.parametrize("D", range(3, 7))
def test_root_bound_settles_melonic_verdicts(D):
    # a connected pairing of G u G closes at most 2 (D-1) n - D + 2 faces,
    # below 2 F_max(G) = 2 + 2 (D-1) n for melonic G: the decision search
    # on the pair prunes its root and is complete at one node
    for n, seed in ((1, 0), (3, 1), (5, 2), (8, 3)):
        g = random_melonic_graph(D, n - 1, seed)
        target = 2 * (1 + (D - 1) * n)
        assert _scan(disjoint_union(g, g), True, node_budget=1, target=target) == ({}, None, True)


@given(st.integers(1, 4), part_sizes, st.integers(0, 10**6), st.booleans(), st.integers(-1, 1))
@settings(max_examples=60, deadline=None)
def test_decision_search_meets_its_target(D, sizes, seed, connected_only, offset):
    # the internal decision mode behind factorization_verdict stops at the
    # first pairing reaching the target, and finds one iff the maximum does
    g = graph_of_parts(D, sizes, seed)
    hist = brute_histogram(g, connected_only=connected_only)
    target = max(hist) + offset
    counts, hit, exact = _scan(g, connected_only, DEFAULT_NODE_BUDGET, target)
    assert exact
    if offset > 0:
        assert counts == {} and hit is None
        return
    (F,) = counts
    assert counts[F] == 1 and F >= target
    assert faces_of(g, hit) == F
    if connected_only:
        assert joined_connected(g, hit)
    # the walk is in lexicographic order, so the hit is the first pairing
    # reaching the target
    assert hit == next(
        m
        for m in all_matchings(2 * g.n)
        if faces_of(g, m) >= target and (not connected_only or joined_connected(g, m))
    )


# unions of two to four parts and G u G, total n 4-6: their connected walks
# memoize states with 4 or more pairs to go and score joined ones with 4
# from the eight-point table; single graphs of n 4-6 reach the table
# unconnected
memo_sizes = st.sampled_from(
    [(4,), (5,), (6,), (1, 3), (2, 2), (2, 3), (1, 4), (3, 3), (2, 4), (1, 5), (1, 1, 2), (1, 2, 2),
     (1, 1, 3), (1, 2, 3), (2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2, 2),
     "GuG2", "GuG3"]
)


def memo_graph(D, sizes, seed):
    if isinstance(sizes, str):
        g = random_colored_graph(D, int(sizes[-1]), seed)
        return disjoint_union(g, g)
    return graph_of_parts(D, sizes, seed)


@given(st.integers(1, 8), memo_sizes, st.integers(0, 10**6), st.booleans(), st.integers(-2, 1))
@settings(max_examples=60, deadline=None)
def test_memo_and_table_match_brute_force(D, sizes, seed, connected_only, offset):
    # F_max, num_optimal and the least witness of the search, and the hit of
    # the decision search, against every pairing in lexicographic order
    g = memo_graph(D, sizes, seed)
    scored = [
        (m, faces_of(g, m))
        for m in all_matchings(2 * g.n)
        if not connected_only or joined_connected(g, m)
    ]
    top = max(f for _, f in scored)
    rep = max_scaling(g, connected_only=connected_only)
    assert rep.exact and (rep.F_max, rep.num_optimal) == (top, sum(f == top for _, f in scored))
    assert list(rep.witness.pairs) == next(m for m, f in scored if f == top)
    target = top + offset
    counts, hit, exact = _scan(g, connected_only, DEFAULT_NODE_BUDGET, target)
    first = next(((m, f) for m, f in scored if f >= target), None)
    assert exact and (counts, hit) == (({}, None) if first is None else ({first[1]: 1}, first[0]))


# (graph, connected_only, target): single graphs reach the table at their
# root and below it, unions the memo, the last two levels and the table
# below their last join, and G u G the decision search's memo, with a hit
# (targets 11 and 12, the maxima) and without one (13)
REFERENCE_CASES = [
    (random_colored_graph(3, 4, 1), False, None),
    (random_colored_graph(4, 5, 2), False, None),
    (random_colored_graph(1, 5, 3), False, None),
    (graph_of_parts(3, (1, 3), 4), True, None),
    (graph_of_parts(2, (2, 3), 5), True, None),
    (graph_of_parts(4, (1, 1, 2), 6), True, None),
    (graph_of_parts(3, (2, 2, 1), 7), True, None),
    (disjoint_union(random_colored_graph(1, 3, 1), random_colored_graph(1, 3, 2)), True, None),
    (disjoint_union(random_connected_graph(3, 3, 1), random_connected_graph(3, 3, 1)), True, 11),
    (disjoint_union(random_connected_graph(4, 3, 2), random_connected_graph(4, 3, 2)), True, 12),
    (disjoint_union(random_connected_graph(4, 3, 2), random_connected_graph(4, 3, 2)), True, 13),
]


@pytest.mark.parametrize("g, connected_only, target", REFERENCE_CASES)
def test_scan_follows_the_reference_walk(g, connected_only, target):
    # at every budget up to one past the end of the walk, the search agrees
    # with an independent walk that spends nodes as the `_scan` docstring
    # says: counts, witness and exact, so truncated reports too
    least = reference_scan(g, connected_only, DEFAULT_NODE_BUDGET, target)[3]
    for budget in range(1, least + 2):
        expected = reference_scan(g, connected_only, budget, target)
        assert _scan(g, connected_only, budget, target) == expected[:3]
        assert expected[2] == (budget >= least)


def residual_of(state):
    """(m, c) of a boundary state by brute force: the most faces a joined
    completion closes and how many do, or (None, 0) if none joins."""
    ends, group = state
    two_r = len(group)
    m, c = None, 0
    for P in all_matchings(two_r):
        up = {g: g for g in group}
        for x, y in P:
            a, b = group[x], group[y]
            while up[a] != a:
                a = up[a]
            while up[b] != b:
                b = up[b]
            up[a] = b
        if sum(up[g] == g for g in up) > 1:
            continue
        f = sum(dsu_cycle_count(P, pairs, two_r) for pairs in ends)
        if m is None or f > m:
            m, c = f, 0
        c += f == m
    return m, c


@pytest.mark.parametrize(
    "g, target",
    [
        (graph_of_parts(3, (2, 3), 5), None),
        (graph_of_parts(2, (1, 2, 2), 3), None),
        (disjoint_union(random_colored_graph(1, 3, 1), random_colored_graph(1, 3, 2)), None),
        (disjoint_union(random_connected_graph(3, 3, 1), random_connected_graph(3, 3, 1)), None),
        (disjoint_union(random_connected_graph(4, 3, 2), random_connected_graph(4, 3, 2)), 12),
        (disjoint_union(random_connected_graph(4, 3, 2), random_connected_graph(4, 3, 2)), 13),
    ],
)
def test_memo_entries_are_true_at_every_budget(monkeypatch, g, target):
    # whatever budget cuts the connected search, every entry its memo holds
    # at return is true of its state: (m, c) its best residual and the
    # number of joined completions closing it, (b, 0) a bound on it
    states = {}  # the grouped boundary of one state of each code
    memos = []

    def spy(bnd, free, par, comp_ids, live):
        code = _boundary_code(bnd, free, par, comp_ids, live)
        if code is not None and code not in states:
            at = {x: i for i, x in enumerate(free)}
            ends = [[(at[x], at[b[x]]) for x in free if x < b[x]] for b in bnd]
            group = []
            for x in free:
                s = comp_ids[x]
                while par[s] != s:
                    s = par[s]
                group.append(s)
            states[code] = (ends, group)
        frame_memo = sys._getframe(1).f_locals["memo"]
        if not memos or memos[-1] is not frame_memo:
            memos.append(frame_memo)
        return code

    monkeypatch.setattr("tensorwick.wick._boundary_code", spy)
    truth = {}
    least = None
    for budget in range(1, 2000):
        memos.clear()
        exact = _scan(g, True, budget, target)[2]
        assert len(memos) == 1
        for code, (m, c) in memos[0].items():
            if code not in truth:
                truth[code] = residual_of(states[code])
            top, ways = truth[code]
            if c:
                assert (m, c) == (top, ways)
            else:
                assert top is None or m >= top
        if exact:
            least = budget
            break
    assert least is not None and truth


def test_node_counts_of_the_bounded_search():
    # the least budget at which each search finishes, as
    # `helpers.reference_scan` counts it: a weaker bound or a lost memo hit
    # raises these, so a pruning regression fails here while timing noise
    # does not (the bound closed + D * remaining needed 1,408,169 nodes for
    # the first, the ring bound without an incumbent 2,162, and the walk
    # without the eight-point table 240)
    for D, n, seed, least in (
        (3, 10, 2, 195),
        (4, 10, 1, 23468),
        (8, 7, 1, 2093),
        (12, 7, 1, 2364),
    ):
        g = random_colored_graph(D, n, seed)
        assert max_scaling(g, node_budget=least).exact
        assert not max_scaling(g, node_budget=least - 1).exact
    # connected searches, memoized on boundary states: without the memo
    # G u G needed 16,297 nodes and the verdict 175, of which its decision
    # search 144
    g = random_connected_graph(3, 5, seed=0)
    union = disjoint_union(g, g)
    assert max_scaling(union, True, node_budget=1167).exact
    assert not max_scaling(union, True, node_budget=1166).exact
    g = random_connected_graph(3, 6, seed=2)
    assert factorization_verdict(g, node_budget=64).factorizes
    with pytest.raises(BudgetExceeded):
        factorization_verdict(g, node_budget=63)
    union, target = disjoint_union(g, g), 2 * max_scaling(g).F_max
    assert _scan(union, True, 64, target) == ({}, None, True)
    assert not _scan(union, True, 63, target)[2]
    # every connected D = 1 pairing closes one face, so all of them tie and
    # none may be pruned: 3,840 optima, 25,059 nodes without the memo
    union = disjoint_union(random_colored_graph(1, 3, 1), random_colored_graph(1, 3, 2))
    rep = max_scaling(union, True, node_budget=273)
    assert rep.exact and (rep.F_max, rep.num_optimal) == (1, 3840)
    assert not max_scaling(union, True, node_budget=272).exact


def test_max_scaling_beyond_histogram_cap():
    # pruning answers where a histogram sums millions of pairings
    g = random_melonic_graph(3, 9, seed=2)  # 20 vertices
    rep = max_scaling(g)
    assert rep.exact
    assert rep.F_max == 1 + 2 * g.n and rep.num_optimal == 1
    g = random_colored_graph(3, 8, seed=4)  # 16 vertices
    rep = max_scaling(g)
    assert rep.exact and rep.F_max >= 3  # at least one cycle per color


def test_fractional_nu_exponents():
    poly = expectation_poly(new_dipole(3), nu=Fraction(3, 2))
    assert poly.to_triples() == [[3, 2, 1]]
    assert abs(poly.evaluate(4.0) - 8.0) < 1e-12


def test_float_nu_is_read_as_its_decimal():
    # 0.1 stands for 1/10, as the CLI reads "--nu 0.1", not for the float's
    # binary value 3602879701896397/2**55
    poly = expectation_poly(new_dipole(3), nu=0.1)
    assert poly.nu == Fraction(1, 10) and poly.to_triples() == [[29, 10, 1]]
    assert cumulant_poly(new_dipole(3), nu=0.1) == poly
    assert factorization_verdict(new_dipole(3), nu=0.1).nu == Fraction(1, 10)
    assert ExpectationPoly(0.5, 1, {2.9: 1}).terms == {Fraction(29, 10): 1}
    assert expectation_poly(new_dipole(3), nu=2.0) == expectation_poly(new_dipole(3), nu=2)


def test_node_budget_truncation_is_flagged():
    g = random_colored_graph(3, 5, seed=8)  # exact from 13 nodes
    rep = max_scaling(g, node_budget=12)
    assert not rep.exact
    full = max_scaling(g)
    assert full.exact
    assert rep.F_max <= full.F_max  # truncated result is a lower bound


def test_node_budget_below_one_is_refused():
    g = random_connected_graph(3, 3, seed=1)
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"got {budget}$"):
            max_scaling(g, node_budget=budget)
        with pytest.raises(ValueError, match=f"got {budget}$"):
            factorization_verdict(g, node_budget=budget)


def test_lemma_condition():
    rep = lemma_condition(new_dipole(3))
    assert rep.holds and rep.F_max == 3 and rep.bound == Fraction(3, 2)
    rep = lemma_condition(spec_quartic_melon())
    assert rep.holds and rep.F_max == 5 and rep.bound == Fraction(3)
    rep = lemma_condition(two_color_cycle(2))
    assert rep.holds and rep.F_max == 3 and rep.bound == Fraction(2)
    with pytest.raises(ValueError):
        lemma_condition(disjoint_union(new_dipole(3), new_dipole(3)))


def test_subadditivity_examples():
    rep = subadditivity_check([new_dipole(3), new_dipole(3)])
    assert (rep.lhs, rep.rhs) == (3, 6) and rep.strict_subadditive
    assert rep.self_pairing_bound == 3
    assert rep.lhs >= rep.self_pairing_bound

    melon = spec_quartic_melon()
    rep = subadditivity_check([melon, melon])
    assert (rep.lhs, rep.rhs) == (7, 10) and rep.strict_subadditive
    assert rep.self_pairing_bound == 6

    rep = subadditivity_check([new_dipole(3), melon])
    assert rep.self_pairing_bound is None
    # disconnected formula with omega = 0: D - (D-1) q + (D-1) (n1+n2)
    assert rep.lhs == 3 - 2 * 2 + 2 * 3

    with pytest.raises(ValueError):
        subadditivity_check([new_dipole(3)])
    with pytest.raises(ValueError):
        subadditivity_check([new_dipole(3), new_dipole(2)])
    with pytest.raises(ValueError):
        subadditivity_check(
            [disjoint_union(new_dipole(3), new_dipole(3)), new_dipole(3)]
        )


def test_melonic_family_inequality_strict():
    # the saturated union scaling always loses to the sum of part scalings
    parts = [random_melonic_graph(3, k % 3, k) for k in range(3)]
    rep = subadditivity_check(parts)
    q = len(parts)
    total_n = sum(g.n for g in parts)
    assert rep.lhs == 3 - 2 * q + 2 * total_n
    assert rep.rhs == sum(1 + 2 * g.n for g in parts)
    assert rep.strict_subadditive


def check_certificate(g, rep):
    # a perfect matching of G u G that joins both copies and closes the
    # reported faces, at least the copy pairing's D*n, and at least
    # 2*F_max(G) exactly when G does not factorize
    union = disjoint_union(g, g)
    fc = total_faces(rep.pair_witness, union)
    assert rep.pair_witness.is_perfect and rep.pair_witness.ground_size == 4 * g.n
    assert fc.g_connected
    assert fc.total == rep.pair_connected_F_max >= g.D * g.n
    assert (fc.total >= 2 * rep.single_F_max) == (not rep.factorizes)
    assert rep.cumulant_leading == rep.pair_connected_F_max - rep.nu * 2 * g.n


def test_factorization_examples():
    melon = spec_quartic_melon()
    rep = factorization_verdict(melon, nu=2)
    assert rep.factorizes
    assert rep.product_leading == Fraction(2)
    assert rep.cumulant_leading <= Fraction(-1)
    check_certificate(melon, rep)
    exact = max_scaling(disjoint_union(melon, melon), connected_only=True)
    assert exact.F_max - 2 * 2 * melon.n == -1

    dipole = new_dipole(3)
    rep = factorization_verdict(dipole, nu=2)
    assert rep.factorizes and not rep.pair_exact
    assert rep.cumulant_leading <= Fraction(-1)
    check_certificate(dipole, rep)
    exact = max_scaling(disjoint_union(dipole, dipole), connected_only=True)
    assert exact.F_max - 2 * 2 * dipole.n == -1

    # D = 1: the copy pairing's face is one below 2 * F_max = 2 and the
    # search finds none at 2, so the certificate is the maximum
    rep = factorization_verdict(new_dipole(1), nu=0)
    assert rep.factorizes and rep.pair_exact
    assert rep.cumulant_leading == Fraction(1)
    check_certificate(new_dipole(1), rep)

    with pytest.raises(ValueError):
        factorization_verdict(disjoint_union(new_dipole(3), new_dipole(3)))


def test_factorization_verdict_independent_of_nu():
    g = random_connected_graph(3, 3, seed=4)
    verdicts = {
        factorization_verdict(g, nu=nu).factorizes
        for nu in (0, 1, 2, Fraction(5, 2))
    }
    assert len(verdicts) == 1


def test_factorization_agrees_with_lemma_condition():
    # 200 random connected 3-colored graphs; sizes bounded so the doubled
    # search (up to 16 vertices) stays cheap inside the node budget
    for seed in range(200):
        n = 2 + seed % 3
        g = random_connected_graph(3, n, seed)
        assert factorization_verdict(g).factorizes == lemma_condition(g).holds


def test_factorization_verdict_equals_histogram_route():
    # the verdict and the product exponent match the full polynomials; the
    # cumulant exponent is a certified lower bound on the polynomial's
    for seed in range(5):
        g = random_connected_graph(3, 2, seed)
        rep = factorization_verdict(g, nu=2)
        pair = cumulant_poly(disjoint_union(g, g), nu=2)
        single = expectation_poly(g, nu=2)
        assert rep.product_leading == 2 * single.leading_exponent()
        assert rep.cumulant_leading <= pair.leading_exponent()
        assert rep.factorizes == (pair.leading_exponent() < rep.product_leading)
        check_certificate(g, rep)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_factorization_verdict_matches_exact_pair_maximum(D, n, seed):
    g = random_connected_graph(D, 1 if D == 1 else n, seed)
    rep = factorization_verdict(g)
    pair = max_scaling(disjoint_union(g, g), connected_only=True)
    assert rep.single_F_max == max_scaling(g).F_max
    assert rep.factorizes == (pair.F_max < 2 * rep.single_F_max)
    assert rep.pair_connected_F_max <= pair.F_max
    if rep.pair_exact:
        assert rep.pair_connected_F_max == pair.F_max
    check_certificate(g, rep)
