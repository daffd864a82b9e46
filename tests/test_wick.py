import json
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwick.faces import count_bicolored_cycles, total_faces
from tensorwick.graphs import (
    Matching,
    count_matchings,
    disjoint_union,
    is_melonic,
    new_dipole,
    random_colored_graph,
    random_melonic_graph,
)
from tensorwick.wick import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    ExpectationPoly,
    cumulant_poly,
    enumerate_histogram,
    expectation_poly,
    factorization_verdict,
    lemma_condition,
    max_scaling,
    subadditivity_check,
    _scan,
)

from helpers import (
    all_matchings,
    brute_histogram,
    catalan,
    faces_of,
    joined_connected,
    random_connected_graph,
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


@given(st.integers(1, 4), part_sizes, st.integers(0, 10**6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_histogram_matches_brute_force(D, sizes, seed, connected_only):
    g = graph_of_parts(D, sizes, seed)
    assert (
        enumerate_histogram(g, connected_only=connected_only).counts
        == brute_histogram(g, connected_only=connected_only)
    )


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
    # (the search finishes at 91 nodes; the incumbent is optimal here)
    g = random_colored_graph(3, 8, seed=2)
    for budget, F_max, num_optimal, witness in (
        (1, 14, 1, [(0, 6), (1, 4), (2, 13), (3, 8), (5, 14), (7, 10), (9, 15), (11, 12)]),
        (90, 14, 1, [(0, 6), (1, 4), (2, 13), (3, 8), (5, 14), (7, 10), (9, 15), (11, 12)]),
    ):
        seq = max_scaling(g, threads=1, node_budget=budget)
        par = max_scaling(g, threads=2, node_budget=budget)
        assert seq == par
        assert not seq.exact
        assert (seq.F_max, seq.num_optimal) == (F_max, num_optimal)
        assert seq.witness == Matching(witness, 16)


# (budget, (F_max, num_optimal, exact, witness)): a walk that reached no
# leaf at or above the incumbent returns the incumbent, the dive's pairing
# (optimal in both tables, but for the union not the least of its 24
# optima, WU)
W10 = [(0, 4), (1, 2), (3, 5), (6, 9), (7, 8)]
TRUNCATED_SINGLE = [(b, (10, 1, False, W10)) for b in range(1, 30)] + [
    (30, (10, 2, False, W10)),
    (47, (10, 2, False, W10)),
    (48, (10, 2, True, W10)),
    (100, (10, 2, True, W10)),
]
DIVE = [(0, 4), (1, 3), (2, 5), (6, 7)]
WU = [(0, 2), (1, 4), (3, 5), (6, 7)]
TRUNCATED_UNION = [(b, (6, 1, False, DIVE)) for b in range(1, 36)] + [
    (36, (6, 1, False, WU)),
    (38, (6, 2, False, WU)),
    (50, (6, 7, False, WU)),
    (100, (6, 15, False, WU)),
    (180, (6, 24, False, WU)),
    (181, (6, 24, True, WU)),
]


def test_truncated_reports_inside_the_last_two_levels():
    # small budgets stop the walk among the closed-form completions; node
    # counts, budget checks and prunes there must match a walk to every leaf
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


def test_node_counts_of_the_bounded_search():
    # the least budget at which each search finishes: a weaker bound raises
    # these, so a pruning regression fails here while timing noise does not
    # (the bound closed + D * remaining needed 1,408,169 nodes for the first,
    # the ring bound without an incumbent 2,162)
    for D, n, seed, least in ((3, 10, 2, 240), (8, 7, 1, 16732), (12, 7, 1, 13713)):
        g = random_colored_graph(D, n, seed)
        assert max_scaling(g, node_budget=least).exact
        assert not max_scaling(g, node_budget=least - 1).exact
    g = random_connected_graph(3, 6, seed=2)
    assert factorization_verdict(g, node_budget=6426).factorizes
    with pytest.raises(BudgetExceeded):
        factorization_verdict(g, node_budget=6425)


def test_max_scaling_beyond_histogram_cap():
    # pruning reaches sizes where exhaustive histograms are hopeless
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


def test_node_budget_truncation_is_flagged():
    g = random_colored_graph(3, 5, seed=8)
    rep = max_scaling(g, node_budget=50)
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
