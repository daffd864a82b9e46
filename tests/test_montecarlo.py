import math
import random
from fractions import Fraction

import pytest

from tensorwick import montecarlo
from tensorwick.faces import total_faces
from tensorwick.graphs import (
    ColoredGraph,
    consecutive_pairing,
    copy_pairing,
    disjoint_union,
)
from tensorwick.montecarlo import (
    a_threshold,
    closed_form_cycle_probabilities,
    counterexample_search,
    cycle_distribution,
    gap_holds,
    threshold_report,
    verify_expectation_bound,
)
from tensorwick.wick import enumerate_histogram, factorization_verdict, lemma_condition

from helpers import cycle_length_histogram, random_connected_graph


def test_exact_distribution_n2():
    d = cycle_distribution(2)
    assert d.face_histogram == {2: 1, 1: 2}
    assert d.p_list == [Fraction(1, 3), Fraction(2, 3)]
    assert d.tail_probability(2) == Fraction(1, 3)
    assert d.markov_bound(2) == Fraction(49, 16)
    assert d.tail_probability(2) <= d.markov_bound(2)
    assert d.total == 3


def test_closed_form_probabilities_sum_and_increase():
    for n in range(1, 7):
        pk = closed_form_cycle_probabilities(n)
        assert sum(pk) == 1
        assert all(pk[i] < pk[i + 1] for i in range(n - 1))


def test_cycle_length_histogram_matches_brute_force():
    # a union-find oracle independent of the closed form of exact mode
    for n in range(1, 7):
        d = cycle_distribution(n)
        assert d.cycle_length_histogram == cycle_length_histogram(n)


def test_face_histogram_cross_checks_pairing_engine():
    # the closed-form face histogram and the D-colored pairing engine agree
    for n in range(1, 8):
        d = cycle_distribution(n)
        g = ColoredGraph([consecutive_pairing(2 * n)])
        assert d.face_histogram == enumerate_histogram(g).counts


def test_reference_pairing_loses_no_generality():
    # fixing {{0,1},{2,3},...} is harmless: the exact F-histogram against
    # any other reference matching is identical
    from tensorwick.graphs import random_perfect_matching

    for n in (2, 3, 4, 5):
        canonical = enumerate_histogram(
            ColoredGraph([consecutive_pairing(2 * n)])
        ).counts
        for seed in range(3):
            other = random_perfect_matching(2 * n, seed)
            assert enumerate_histogram(ColoredGraph([other])).counts == canonical


def test_exact_budget():
    # exact mode answers at any n, here with 34,459,425 matchings
    d = cycle_distribution(9)
    assert d.total == 34_459_425
    assert sum(d.face_histogram.values()) == d.total
    # E[m^F] = prod_{i<n} (m+2i)/(2i+1), independent of the coefficients
    product = math.prod(Fraction(80 + 2 * i, 2 * i + 1) for i in range(40))
    assert verify_expectation_bound(40, 80).value == product
    with pytest.raises(ValueError):
        cycle_distribution(0)


def test_markov_tail_bound_exact():
    for n in range(1, 6):
        d = cycle_distribution(n)
        for t in range(1, n + 3):
            assert d.tail_probability(t) <= d.markov_bound(t)


def test_expectation_bound_examples():
    rep = verify_expectation_bound(1, 2)
    assert rep.value == 2 and rep.bound == 2 and rep.holds

    rep = verify_expectation_bound(2, 4)
    assert rep.value == 8 and rep.bound == 10 and rep.holds

    with pytest.raises(ValueError):
        verify_expectation_bound(3, 5)  # m < 2n


def test_expectation_bound_monotone_in_n():
    m = 12
    values = [verify_expectation_bound(n, m).value for n in range(1, 7)]
    assert all(values[i] <= values[i + 1] for i in range(5))


def test_binomial_vs_seven_and_footnote():
    for n in range(1, 6):
        rep = verify_expectation_bound(n, 2 * n)
        assert rep.binom_3n == math.comb(3 * n - 1, n)
        assert rep.binom_le_seven and rep.binom_le_footnote
        assert rep.footnote_bound == Fraction(27**n, 4**n)
        assert rep.footnote_bound <= rep.seven_power
        # the tail-bound chain at m = 2n
        assert rep.value <= rep.binom_3n


def test_sampled_distribution_matches_exact():
    n = 4
    exact = closed_form_cycle_probabilities(n)
    d = cycle_distribution(n, samples=40_000, seed=3)
    assert d.total == 40_000
    for k in range(1, n + 1):
        p = float(exact[k - 1])
        se = math.sqrt(p * (1 - p) / 40_000)
        assert abs(d.p(k) - p) <= 5 * se


def test_sampled_expectation_bound():
    rep = verify_expectation_bound(10, 20, samples=20_000, seed=9)
    assert rep.mode == "sample"
    assert rep.standard_error is not None
    assert rep.value <= rep.bound + 5 * rep.standard_error
    # one sample has no standard error; one sampled distribution is still fine
    with pytest.raises(ValueError, match="at least two samples"):
        verify_expectation_bound(3, 6, samples=1, seed=0)
    assert cycle_distribution(3, samples=1, seed=0).total == 1


def test_threshold_examples():
    rep = threshold_report(3, 0.01)
    assert rep.n_epsilon == 18
    assert rep.n_gap is not None
    assert 7**6 / 10 <= rep.n_gap <= 7**6 * 10
    assert gap_holds(3, rep.n_gap) and not gap_holds(3, rep.n_gap - 1)
    assert rep.a_at_n_gap == a_threshold(3, rep.n_gap)

    assert threshold_report(2, 0.5).n_gap is None

    with pytest.raises(ValueError):
        threshold_report(1, 0.01)
    with pytest.raises(ValueError):
        threshold_report(3, 0.0)


def test_threshold_epsilon_monotone():
    reps = [threshold_report(3, eps) for eps in (0.5, 0.1, 0.01, 0.001)]
    ns = [r.n_epsilon for r in reps]
    assert ns == sorted(ns)
    for r in reps:
        assert 0 <= r.fraction_bound_at_n_epsilon < 1
        assert r.fraction_bound_at_n_epsilon >= 1 - r.epsilon - 1e-12


def test_a_threshold_guards():
    assert a_threshold(3, 1) == math.inf
    assert not gap_holds(3, 1)
    assert a_threshold(3, 100) == pytest.approx(
        100 + (3 * math.log(7) - math.log(2)) * 100 / math.log(100) + 3
    )


def test_counterexample_search_no_violators_at_tiny_n():
    rep = counterexample_search(3, 1, trials=20, seed=0)
    assert rep.lemma_violations == ()
    assert rep.f_max_histogram == {3: 20}  # only the dipole exists at n=1
    assert rep.component_envelope_ok


def test_counterexample_search_statistics():
    rep = counterexample_search(3, 4, trials=40, seed=1)
    assert sum(rep.f_max_histogram.values()) + rep.inexact_trials == 40
    assert rep.component_envelope_ok
    assert rep.inexact_trials == 0
    # deterministic in the seed
    again = counterexample_search(3, 4, trials=40, seed=1)
    assert again.f_max_histogram == rep.f_max_histogram
    csv = rep.f_max_csv()
    assert csv.startswith("F_max,count\n")
    assert sum(int(line.split(",")[1]) for line in csv.strip().split("\n")[1:]) == 40


def test_counterexample_search_trial_streams_are_distinct(monkeypatch):
    # random.Random takes the absolute value of an int seed, so the trial
    # seeds of opposite search seeds must not be plain integer arithmetic
    seeds = []
    draw = montecarlo.random_colored_graph

    def recording(D, n, seed):
        seeds.append(seed)
        return draw(D, n, seed)

    monkeypatch.setattr(montecarlo, "random_colored_graph", recording)
    for seed in (-1, 0, 1):
        counterexample_search(3, 1, trials=4, seed=seed)
    streams = {random.Random(s).getrandbits(64) for s in seeds}
    assert len(seeds) == 12 and len(streams) == 12


def test_counterexample_search_envelope_at_n6():
    # observed maxima respect the component scaling bound; any reported
    # violator must make its connected square beat the squared expectation
    rep = counterexample_search(3, 6, trials=50, seed=7)
    assert rep.component_envelope_ok
    assert rep.inexact_trials == 0
    assert max(rep.f_max_histogram) <= 1 + 2 * 6 + 2  # q + (D-1)n with q small
    for violation in rep.lemma_violations:  # none exist at desk scale
        for comp in violation.components:
            if comp.violates:
                assert comp.F_max <= comp.bound
    a_count = len(rep.a_bound_violations)
    assert a_count == 50  # a_threshold(3, 6) ~ 27.6 dwarfs every observed F


def test_counterexample_search_lists_graphs_at_the_threshold():
    # F_max = D*n/2 violates the threshold: the copy pairing of G u G then
    # ties 2 * F_max, so neither the lemma nor factorization holds
    rep = counterexample_search(4, 10, trials=20, seed=1)
    assert [v.trial for v in rep.lemma_violations] == [5, 7, 16]
    for v in rep.lemma_violations:
        (comp,) = v.components
        assert v.graph.is_connected and comp.violates
        assert v.scaling.F_max == comp.F_max == comp.bound == 20
        assert not lemma_condition(v.graph).holds
        assert not factorization_verdict(v.graph).factorizes


def test_self_pairing_identity():
    for seed in range(10):
        D = 3 + seed % 2
        n = 2 + seed % 3
        g = random_connected_graph(D, n, seed)
        fc = total_faces(copy_pairing(2 * g.n), disjoint_union(g, g))
        assert fc.total == D * g.n
        assert fc.g_connected
