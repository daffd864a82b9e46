"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines (or add -s to see the printed summaries).  Statistical criteria use
5 sigma / 5 standard-error bands at the stated sample counts; everything
combinatorial is exact integer or rational arithmetic with zero tolerance.
"""

import math
import random
from fractions import Fraction

from tensorwick.faces import euler_d3, total_faces
from tensorwick.graphs import (
    ColoredGraph,
    Matching,
    copy_pairing,
    disjoint_union,
    is_melonic,
    melon_insert,
    new_dipole,
    random_colored_graph,
    random_melonic_graph,
)
from tensorwick.montecarlo import (
    closed_form_cycle_probabilities,
    cycle_distribution,
    threshold_report,
    verify_expectation_bound,
)
from tensorwick.numeric import mc_moment, orthogonal_invariance_check
from tensorwick.partitions import cumulants_from_moments, moments_from_cumulants
from tensorwick.wick import (
    cumulant_poly,
    enumerate_histogram,
    expectation_poly,
    max_scaling,
    subadditivity_check,
)

from helpers import (
    all_matchings,
    catalan,
    cycle_length_histogram,
    random_connected_graph,
    six_vertex_cyclic,
    spec_quartic_melon,
)


def _report(name: str, detail: str = ""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


def test_c01_melonic_saturation():
    # 50 connected melonic graphs, D=3, 2n <= 12: the scaling bound is
    # saturated by exactly one pairing, the canonical one, and never exceeded
    for i in range(50):
        g = random_melonic_graph(3, i % 6, seed=1000 + i)
        bound = 1 + 2 * g.n
        hist = enumerate_histogram(g)
        assert max(hist.counts) == bound, f"C1: bound missed on graph {i}"
        assert hist.counts[bound] == 1, f"C1: optimum not unique on graph {i}"
        assert all(f <= bound for f in hist.counts), f"C1: omega < 0 on graph {i}"
        canonical = is_melonic(g).canonical_pairing
        assert total_faces(canonical, g).total == bound, f"C1: canonical off on {i}"
    _report("C1 melonic saturation", "50 graphs, exhaustive histograms")


def test_c02_catalan_count_two_colors():
    # every connected 2-colored graph has exactly C(2n,n)/(n+1) optimal
    # pairings at F = 1+n; exhaustive over labelled graphs for n <= 3,
    # seeded connected samples for n = 4..6 (the count is label-invariant)
    checked = 0
    for n in (1, 2, 3):
        ms = [Matching(p, 2 * n) for p in all_matchings(2 * n)]
        for m1 in ms:
            for m2 in ms:
                g = ColoredGraph([m1, m2])
                if not g.is_connected:
                    continue
                rep = max_scaling(g)
                assert rep.F_max == 1 + n, f"C2: F_max at n={n}"
                assert rep.num_optimal == catalan(n), f"C2: count at n={n}"
                checked += 1
    for n in (4, 5, 6):
        for seed in range(8):
            g = random_connected_graph(2, n, seed + 100 * n)
            rep = max_scaling(g)
            assert rep.F_max == 1 + n, f"C2: F_max at n={n}"
            assert rep.num_optimal == catalan(n), f"C2: count at n={n} (want {catalan(n)})"
            checked += 1
    assert catalan(6) == 132
    _report("C2 two-color optimum count", f"{checked} graphs, Catalan exact")


def test_c03_moment_cumulant_consistency():
    # enumerated moments of unions of up to 4 graphs, Mobius-inverted, must
    # reproduce the connected-restricted enumeration exactly
    parts = [
        new_dipole(3),
        new_dipole(3),
        spec_quartic_melon(),
        random_connected_graph(3, 2, seed=77),
    ]
    q = len(parts)

    def union_of(mask):
        members = [parts[i] for i in range(q) if mask >> i & 1]
        u = members[0]
        for g in members[1:]:
            u = disjoint_union(u, g)
        return u

    moments = {
        mask: expectation_poly(union_of(mask), nu=2) for mask in range(1, 1 << q)
    }
    cums = cumulants_from_moments(moments)
    for mask in range(1, 1 << q):
        assert cums[mask] == cumulant_poly(union_of(mask), nu=2), (
            f"C3: cumulant mismatch on subset {bin(mask)}"
        )
    assert moments_from_cumulants(cums) == moments, "C3: transforms not inverse"
    _report("C3 moment-cumulant consistency", f"all {2**q - 1} subsets exact")


def test_c04_melonic_factorization_inequality():
    # melonic pairs/triples: connected scaling of the union equals
    # D-(D-1)q+(D-1)(sum n) exactly and stays strictly below the sum
    rng = random.Random(404)
    done = 0
    while done < 20:
        q = 2 + done % 2
        members = [
            random_melonic_graph(3, rng.randrange(3), rng.randrange(10**6))
            for _ in range(q)
        ]
        if sum(g.n for g in members) > 6:
            continue
        rep = subadditivity_check(members)
        total_n = sum(g.n for g in members)
        assert rep.lhs == 3 - 2 * q + 2 * total_n, f"C4: lhs formula, case {done}"
        assert rep.strict_subadditive, f"C4: not strict, case {done}"
        assert rep.rhs == sum(1 + 2 * g.n for g in members)
        done += 1
    _report("C4 melonic factorization", "20 unions, saturated lhs, strict")


def test_c05_self_pairing_identity():
    # pairing each vertex with its copy always closes D*n cycles
    count = 0
    for i in range(100):
        D = 3 + i % 2
        n = 1 + i % 7  # 2n <= 14
        g = random_connected_graph(D, n, seed=5000 + i)
        fc = total_faces(copy_pairing(2 * g.n), disjoint_union(g, g))
        assert fc.total == D * g.n, f"C5: instance {i}"
        count += 1
    _report("C5 self-pairing identity", f"{count} graphs, F = D*n exact")


def test_c06_random_matching_proposition():
    # exact n <= 7: p_k against the union-find oracle (n <= 6, which walks
    # every matching), sum/monotonicity, E[m^F] bound at m in {2n, 2n+3},
    # Markov tail for all t; sampled n = 30 at 1e6 draws
    for n in range(1, 8):
        dist = cycle_distribution(n)
        pk = closed_form_cycle_probabilities(n)
        if n <= 6:
            assert dist.cycle_length_histogram == cycle_length_histogram(n), (
                f"C6: p_k mismatch at n={n}"
            )
        assert sum(pk) == 1, f"C6: sum p_k at n={n}"
        assert all(pk[i] < pk[i + 1] for i in range(n - 1)), f"C6: monotone at n={n}"
        for m in (2 * n, 2 * n + 3):
            value = dist.expectation_m_power(m)
            assert value <= math.comb(m + n - 1, m - 1), f"C6: E bound n={n} m={m}"
        for t in range(1, n + 3):
            assert dist.tail_probability(t) <= dist.markov_bound(t), (
                f"C6: tail at n={n} t={t}"
            )
        rep = verify_expectation_bound(n, 2 * n)
        assert rep.value <= rep.binom_3n <= rep.seven_power

    n, samples = 30, 10**6
    dist = cycle_distribution(n, samples=samples, seed=606)
    pk = closed_form_cycle_probabilities(n)
    for k in range(1, n + 1):
        p = float(pk[k - 1])
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(dist.p(k) - p) <= 5 * se, f"C6: sampled p_{k} outside 5 se"
    _report("C6 random-matching proposition", "exact n<=7, sampled n=30 at 1e6")


def test_c07_wick_vs_monte_carlo():
    samples = 10**6
    cases = [
        (new_dipole(3), 2, 701),
        (new_dipole(3), 3, 702),
        (spec_quartic_melon(), 2, 703),
        (spec_quartic_melon(), 3, 704),
    ]
    for g, N, seed in cases:
        exact = float(expectation_poly(g, nu=2).evaluate(N))
        est = mc_moment([g], N, 2, samples, seed)
        z = abs(est.mean - exact) / est.standard_error
        assert z <= 5, f"C7: z={z:.2f} for N={N}, 2n={2 * g.n}"
    melon = spec_quartic_melon()
    exact = float(expectation_poly(melon, nu=2).evaluate(3))
    assert abs(exact - 13 / 3) < 1e-12
    _report("C7 Wick vs Monte Carlo", "dipole & melon, N in {2,3}, 1e6 draws")


def test_c08_orthogonal_invariance():
    checked = 0
    instances = [new_dipole(3), spec_quartic_melon()]
    instances += [random_connected_graph(3, 1 + i % 3, seed=800 + i) for i in range(18)]
    for i, g in enumerate(instances[:20]):
        dev = orthogonal_invariance_check(g, 3, seed=880 + i)
        assert dev < 1e-9, f"C8: deviation {dev:.2e} on instance {i}"
        checked += 1
    _report("C8 orthogonal invariance", f"{checked} instances, deviation < 1e-9")


def _all_connected_melonic(max_n: int) -> list[ColoredGraph]:
    seen = {new_dipole(3)}
    frontier = [new_dipole(3)]
    while frontier:
        grown = []
        for g in frontier:
            if g.n >= max_n:
                continue
            for color in range(1, 4):
                for edge in g.matching(color).pairs:
                    h = melon_insert(g, color, edge)
                    if h not in seen:
                        seen.add(h)
                        grown.append(h)
        frontier = grown
    return sorted(seen, key=lambda g: g.n)


def test_c09_euler_planarity():
    # (a) every melonic 3-colored graph up to 2n = 12 is planar: F = n + 2q
    melonic = _all_connected_melonic(6)
    for g in melonic:
        rep = euler_d3(g)
        assert rep.is_planar and rep.total == g.n + 2, f"C9: melonic 2n={2 * g.n}"
    unions = [
        disjoint_union(melonic[0], melonic[0]),
        disjoint_union(melonic[0], melonic[5]),
        disjoint_union(melonic[7], melonic[9]),
    ]
    for g in unions:
        rep = euler_d3(g)
        assert rep.is_planar and rep.total == g.n + 2 * rep.q, "C9: union planarity"

    # (b) the 6-vertex cyclic graph is not planar
    assert not euler_d3(six_vertex_cyclic()).is_planar, "C9: counterexample planar?"

    # (c) planar connected instances beat n + n/2 + q strictly (exact search)
    rng = random.Random(909)
    small = [g for g in melonic if g.n <= 4]
    large = [g for g in melonic if g.n > 4]
    tested = small + rng.sample(large, 30)
    for g in tested:
        rep = max_scaling(g)
        assert rep.exact
        assert rep.F_max > Fraction(3 * g.n, 2) + 1, f"C9: bound at 2n={2 * g.n}"
    _report(
        "C9 Euler planarity",
        f"{len(melonic)} melonic graphs planar, strict bound on {len(tested)}",
    )


def test_c10_differential_and_parallel():
    import json

    rng = random.Random(1010)
    for i in range(500):
        D = 1 + rng.randrange(4)
        n = 2 + rng.randrange(5)  # 2n <= 12
        g = random_colored_graph(D, n, seed=rng.randrange(10**9))
        hist = enumerate_histogram(g)
        rep = max_scaling(g)
        assert rep.exact
        assert rep.F_max == max(hist.counts), f"C10: max mismatch on trial {i}"
        assert rep.num_optimal == hist.counts[rep.F_max], f"C10: count on trial {i}"
    for seed in range(6):
        g = random_colored_graph(3, 4, seed=seed)
        seq = json.dumps(max_scaling(g, threads=1).to_json_dict(), sort_keys=True)
        par = json.dumps(max_scaling(g, threads=2).to_json_dict(), sort_keys=True)
        assert seq == par, "C10: parallel report differs"
    _report("C10 differential testing", "500 graphs pruned==plain; parallel==serial")


def test_c11_threshold_arithmetic():
    rep = threshold_report(3, 0.01)
    assert rep.n_epsilon == 18, f"C11: n_epsilon {rep.n_epsilon}"
    assert rep.n_gap is not None
    assert 7**6 / 10 <= rep.n_gap <= 7**6 * 10, f"C11: n_gap {rep.n_gap}"
    for eps in (0.5, 0.01):
        assert threshold_report(2, eps).n_gap is None, "C11: D=2 gap defined?"
    _report(
        "C11 threshold arithmetic",
        f"n_epsilon=18, n_gap={rep.n_gap} within 10x of 7^6",
    )
