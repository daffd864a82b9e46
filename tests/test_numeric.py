import math

import numpy as np
import pytest

from tensorwick.graphs import (
    disjoint_union,
    new_dipole,
    random_colored_graph,
)
from tensorwick import numeric
from tensorwick.numeric import (
    DEFAULT_BATCH,
    MAX_DRAW_FLOATS,
    TensorData,
    evaluate_trace_invariant,
    mc_moment,
    orthogonal_invariance_check,
    sample_gaussian_tensor,
)
from tensorwick.partitions import cumulants_from_moments
from tensorwick.wick import cumulant_poly, expectation_poly

from helpers import naive_trace, random_connected_graph, spec_quartic_melon, two_color_cycle


def test_sampling_deterministic_and_shaped():
    a = sample_gaussian_tensor(3, 4, 2, seed=5)
    b = sample_gaussian_tensor(3, 4, 2, seed=5)
    assert a.entries.shape == (3, 3, 3, 3)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, sample_gaussian_tensor(3, 4, 2, seed=6).entries)
    with pytest.raises(ValueError):
        sample_gaussian_tensor(0, 3, 2, seed=1)


def test_sampling_variance_and_independence():
    # variance of entries must be N**-nu = 1/16; distinct entries uncorrelated
    N, D, nu, count = 4, 3, 2, 25_000
    flat = np.stack(
        [sample_gaussian_tensor(N, D, nu, seed).entries.ravel() for seed in range(count)]
    )
    sigma2 = 1 / 16
    var = flat.var()
    se_var = sigma2 * math.sqrt(2 / (flat.size - 1))
    assert abs(var - sigma2) < 5 * se_var
    assert abs(flat.mean()) < 5 * math.sqrt(sigma2 / flat.size)
    cov = (flat[:, 3] * flat[:, 40]).mean()
    assert abs(cov) < 5 * sigma2 / math.sqrt(count)


def test_dipole_trace_is_squared_norm():
    for seed in range(5):
        T = sample_gaussian_tensor(3, 3, 2, seed)
        got = evaluate_trace_invariant(new_dipole(3), T)
        assert got == pytest.approx(float((T.entries**2).sum()), rel=1e-13)
        assert got >= 0.0


def test_trace_multiplicative_over_components():
    g1 = spec_quartic_melon()
    g2 = random_connected_graph(3, 3, seed=2)
    T = sample_gaussian_tensor(2, 3, 1, seed=3)
    lhs = evaluate_trace_invariant(disjoint_union(g1, g2), T)
    rhs = evaluate_trace_invariant(g1, T) * evaluate_trace_invariant(g2, T)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trace_against_naive_index_sum():
    cases = [
        (spec_quartic_melon(), 4),
        (random_colored_graph(3, 2, seed=7), 5),
        (random_colored_graph(2, 3, seed=8), 6),
        # components reduce to scalars multiplied at the end
        (disjoint_union(random_colored_graph(3, 1, 1), random_colored_graph(3, 2, 2)), 9),
        (random_colored_graph(1, 3, seed=10), 11),
    ]
    for g, seed in cases:
        T = sample_gaussian_tensor(2, g.D, 0, seed)
        fast = evaluate_trace_invariant(g, T)
        slow = naive_trace(g, T.entries)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_trace_order_mismatch():
    T = sample_gaussian_tensor(2, 2, 1, seed=0)
    with pytest.raises(ValueError):
        evaluate_trace_invariant(new_dipole(3), T)
    # entries that do not have D axes of length N: a wrong length, and an
    # extra axis that a batched contraction would read as a batch
    for shape in [(3, 3, 4), (2, 3, 3, 3)]:
        with pytest.raises(ValueError, match="entries shape"):
            evaluate_trace_invariant(new_dipole(3), TensorData(3, 3, np.ones(shape)))


def test_per_step_letter_limit():
    # a dipole on D colors contracts in one step naming D labels; 52 fit,
    # with or without the batch axis of mc_moment
    ones = TensorData(1, 52, np.ones((1,) * 52))
    assert evaluate_trace_invariant(new_dipole(52), ones) == 1.0
    est = mc_moment([new_dipole(52)], 1, 0, 4, seed=0)
    assert est.sample_count == 4 and est.mean > 0.0
    with pytest.raises(ValueError, match="too large"):
        evaluate_trace_invariant(new_dipole(53), TensorData(1, 53, np.ones((1,) * 53)))
    with pytest.raises(ValueError, match="too large"):
        mc_moment([new_dipole(53)], 1, 0, 4, seed=0)


def test_orthogonal_invariance():
    assert orthogonal_invariance_check(new_dipole(3), 3, seed=0) < 1e-9
    assert orthogonal_invariance_check(spec_quartic_melon(), 3, seed=1) < 1e-9
    for seed in range(4):
        g = random_connected_graph(3, 3, seed)
        assert orthogonal_invariance_check(g, 3, seed=seed) < 1e-9


def test_identity_rotation_changes_nothing():
    g = spec_quartic_melon()
    T = sample_gaussian_tensor(3, 3, 2, seed=4)
    rotated = T.entries
    for axis in range(3):
        rotated = np.moveaxis(
            np.tensordot(np.eye(3), rotated, axes=(1, axis)), 0, axis
        )
    before = evaluate_trace_invariant(g, T)
    after = evaluate_trace_invariant(g, TensorData(3, 3, rotated))
    assert before == after  # exactly, multiplication by 1.0 is lossless


def _within_5se(est, exact):
    return abs(est.mean - exact) <= 5 * est.standard_error


def test_mc_moment_matches_exact_polynomials():
    samples = 200_000
    dipole = new_dipole(3)
    melon = spec_quartic_melon()
    cycle = two_color_cycle(2)
    cases = [
        (dipole, 2, 2, 1),
        (dipole, 3, 2, 2),
        (melon, 2, 2, 3),
        (melon, 3, 2, 4),
        (cycle, 2, 1, 5),
        (cycle, 3, 1, 6),
    ]
    for g, N, nu, seed in cases:
        est = mc_moment([g], N, nu, samples, seed)
        exact = float(expectation_poly(g, nu=nu).evaluate(N))
        assert _within_5se(est, exact), (g, N, est.mean, exact)
        assert est.sample_count == samples


def test_mc_joint_moment():
    melon = spec_quartic_melon()
    est = mc_moment([melon, melon], 2, 2, 200_000, seed=21)
    exact = float(
        expectation_poly(disjoint_union(melon, melon), nu=2).evaluate(2)
    )
    assert _within_5se(est, exact)


def test_mc_cumulant_via_mobius():
    # common random numbers: the same seed drives all three estimates
    d = new_dipole(3)
    dd = disjoint_union(d, d)
    samples, seed = 400_000, 31
    m1 = mc_moment([d], 2, 2, samples, seed)
    m12 = mc_moment([d, d], 2, 2, samples, seed)
    cums = cumulants_from_moments({0b01: m1.mean, 0b10: m1.mean, 0b11: m12.mean})
    exact = float(cumulant_poly(dd, nu=2).evaluate(2))
    tol = 5 * (m12.standard_error + 2 * abs(m1.mean) * m1.standard_error)
    assert abs(cums[0b11] - exact) <= tol


def test_mc_moment_deterministic():
    g = spec_quartic_melon()
    a = mc_moment([g], 2, 2, 50_000, seed=9)
    b = mc_moment([g], 2, 2, 50_000, seed=9)
    assert a == b
    assert a != mc_moment([g], 2, 2, 50_000, seed=10)


def test_mc_moment_validation():
    with pytest.raises(ValueError):
        mc_moment([], 2, 2, 100, seed=0)
    with pytest.raises(ValueError):
        mc_moment([new_dipole(2), new_dipole(3)], 2, 2, 100, seed=0)
    with pytest.raises(ValueError):
        mc_moment([new_dipole(3)], 2, 2, 1, seed=0)
    for N in (0, -1):
        with pytest.raises(ValueError, match="need N >= 1"):
            mc_moment([new_dipole(3)], N, 2, 100, seed=0)
        with pytest.raises(ValueError, match="need N >= 1"):
            orthogonal_invariance_check(new_dipole(3), N, seed=0)
    # a batch below one would draw nothing (a mean of 0.0) or crash
    for batch_size in (-20, -1, 0):
        with pytest.raises(ValueError, match="need batch_size >= 1"):
            mc_moment([new_dipole(3)], 2, 2, 10, seed=0, batch_size=batch_size)


def test_default_batch_is_capped_by_its_draw(monkeypatch):
    # the sampling benchmark's largest draw, D3 N8, stays uncapped; D4 N10
    # with the default batch would draw 1.3 GB
    assert MAX_DRAW_FLOATS // 8**3 >= DEFAULT_BATCH > MAX_DRAW_FLOATS // 10**4
    batches = []
    trace = numeric._trace

    def spy(plan, draw):
        batches.append(len(draw))
        return trace(plan, draw)

    monkeypatch.setattr(numeric, "_trace", spy)
    monkeypatch.setattr(numeric, "MAX_DRAW_FLOATS", 300)
    g = new_dipole(3)
    # 27 floats a sample at N = 3, so batches of 300 // 27 = 11
    capped = mc_moment([g], 3, 2, 50, seed=4)
    assert batches == [11, 11, 11, 11, 6]
    assert capped.batch_size == 11 and capped.to_json_dict()["batch_size"] == 11
    batches.clear()
    assert mc_moment([g], 3, 2, 50, seed=4, batch_size=11) == capped
    batches.clear()
    est = mc_moment([g], 3, 2, 50, seed=4, batch_size=DEFAULT_BATCH)
    assert batches == [50]
    # the batch asked for is echoed, not the samples drawn
    assert est.batch_size == DEFAULT_BATCH


def test_estimate_echoes_the_batch_used():
    # the default is cut to 2**25 // 7**4 at D4 N7; an explicit batch is kept
    est = mc_moment([new_dipole(4)], 7, 3, 3, seed=0)
    assert est.batch_size == 13_975 and type(est.batch_size) is int
    assert est.to_json_dict()["batch_size"] == 13_975
    assert mc_moment([new_dipole(3)], 2, 2, 3, seed=0).batch_size == DEFAULT_BATCH
    assert mc_moment([new_dipole(3)], 2, 2, 3, seed=0, batch_size=2).batch_size == 2


def test_batch_moments_merge_without_cancellation(monkeypatch):
    # samples of 1e8 plus a spread of variance about 1.3: their raw squares
    # sum to about 1e19, where a float's spacing is 2048, so the variance
    # must come from deviations, merged batch by batch
    spread = [i % 4 - 1.5 + (i % 7) / 8 for i in range(1000)]
    drawn = 0

    def spy(plan, draw):
        nonlocal drawn
        vals = np.array([1e8 + d for d in spread[drawn : drawn + len(draw)]])
        drawn += len(draw)
        return vals

    monkeypatch.setattr(numeric, "_trace", spy)
    est = mc_moment([new_dipole(3)], 2, 2, len(spread), seed=0, batch_size=64)
    assert drawn == len(spread)
    mean = sum(spread) / len(spread)
    var = sum((d - mean) ** 2 for d in spread) / (len(spread) - 1)
    assert est.mean == sum(1e8 + d for d in spread) / len(spread)
    assert est.standard_error == pytest.approx(math.sqrt(var / len(spread)), rel=1e-9)
