"""Random-pairing statistics and randomized search for scaling violators.

The cycle structure of a uniform perfect matching against a fixed one
controls how face counts of random graphs concentrate: the probability that
a fixed reference pair sits on a cycle of length 2k has a closed product
form, the expectation of m**F obeys a binomial bound, and a Markov step
turns that into the tail P[F >= t] <= 7**n / (2n)**t.  Those building
blocks are exact at any n, from closed forms, and checked statistically
against sampled matchings; they power the search for graphs whose maximal
face count does not exceed the factorization threshold D*n/2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import ColoredGraph, connected_components, count_matchings, random_colored_graph
from .wick import DEFAULT_NODE_BUDGET, ScalingReport, max_scaling

Number = Union[int, float, Fraction]


def closed_form_cycle_probabilities(n: int) -> list[Fraction]:
    """p_k for k=1..n: chance the reference pair lies on a cycle of length 2k.

    p_k = (2n-2)/(2n-1) * (2n-4)/(2n-3) * ... * (2n-2k+2)/(2n-2k+3)
          * 1/(2n-2k+1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    prefix = Fraction(1)
    for k in range(1, n + 1):
        out.append(prefix / (2 * n - 2 * k + 1))
        prefix *= Fraction(2 * n - 2 * k, 2 * n - 2 * k + 1)
    return out


def _walk_stats(m: Sequence[int]) -> tuple[int, int]:
    """(total alternating cycles, reference-pair cycle half-length).

    The fixed reference matching pairs v with v^1, so cycles are traced by
    alternating the xor step with the random partner array m.
    """
    two_n = len(m)
    seen = bytearray(two_n)
    faces = 0
    k01 = 0
    for start in range(two_n):
        if seen[start]:
            continue
        faces += 1
        length = 0
        v = start
        while True:
            seen[v] = 1
            w = v ^ 1
            seen[w] = 1
            length += 1
            v = m[w]
            if v == start:
                break
        if start == 0:
            k01 = length
    return faces, k01


@dataclass(frozen=True)
class CycleDistribution:
    """Face counts of random matchings against the fixed reference pairing.

    Exact mode counts every matching, in closed form; histograms then
    hold integer counts out of total = (2n)!/(2^n n!).  Sampled mode holds
    empirical counts out of total = samples.
    """

    n: int
    mode: str  # "exact" or "sample"
    samples: Optional[int]
    seed: Optional[int]
    face_histogram: dict[int, int]
    cycle_length_histogram: dict[int, int]
    total: int

    def p(self, k: int) -> Number:
        c = self.cycle_length_histogram.get(k, 0)
        if self.mode == "exact":
            return Fraction(c, self.total)
        return c / self.total

    @property
    def p_list(self) -> list[Number]:
        return [self.p(k) for k in range(1, self.n + 1)]

    def tail_probability(self, t) -> Number:
        c = sum(v for f, v in self.face_histogram.items() if f >= t)
        if self.mode == "exact":
            return Fraction(c, self.total)
        return c / self.total

    def markov_bound(self, t) -> Number:
        """7**n / (2n)**t, valid for every t > 0."""
        if isinstance(t, int):
            return Fraction(7**self.n) / Fraction(2 * self.n) ** t
        return 7.0**self.n / (2.0 * self.n) ** t

    def expectation_m_power(self, m: int) -> Number:
        total = sum(c * m**f for f, c in self.face_histogram.items())
        if self.mode == "exact":
            return Fraction(total, self.total)
        return total / self.total

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "face_histogram": {str(k): v for k, v in sorted(self.face_histogram.items())},
            "cycle_length_histogram": {
                str(k): v for k, v in sorted(self.cycle_length_histogram.items())
            },
            "total": self.total,
            "p_k": [float(p) for p in self.p_list],
        }


def cycle_distribution(
    n: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> CycleDistribution:
    """Distribution of F against the reference pairing; exact or sampled.

    Without samples both histograms are exact at any n, from closed forms:
    the matchings with k faces number the coefficient of x**k in
    x(x+2)(x+4)...(x+2n-2), and those whose reference cycle holds k pairs
    number (2n-1)!! p_k.  With samples, matchings are drawn uniformly from
    the given seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if samples is None:
        total = count_matchings(n)
        poly = [1]  # x(x+2)...(x+2i-2), coefficients by ascending power
        for i in range(n):
            poly = [a + 2 * i * b for a, b in zip([0] + poly, poly + [0])]
        face_hist = {k: c for k, c in enumerate(poly) if c}
        k_hist = {}
        for k, p in enumerate(closed_form_cycle_probabilities(n), start=1):
            c = total * p
            assert c.denominator == 1, f"(2n-1)!! p_{k} is not an integer"
            k_hist[k] = c.numerator
        return CycleDistribution(n, "exact", None, None, face_hist, k_hist, total)
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    two_n = 2 * n
    verts = list(range(two_n))
    m = [-1] * two_n
    face_hist = {}
    k_hist = {}
    shuffle = rng.shuffle
    for _ in range(samples):
        shuffle(verts)
        for i in range(0, two_n, 2):
            a = verts[i]
            b = verts[i + 1]
            m[a] = b
            m[b] = a
        f, k = _walk_stats(m)
        face_hist[f] = face_hist.get(f, 0) + 1
        k_hist[k] = k_hist.get(k, 0) + 1
    return CycleDistribution(n, "sample", samples, seed, face_hist, k_hist, samples)


@dataclass(frozen=True)
class ExpectationBoundReport:
    """E[m**F] for a random matching against the binomial bound C(m+n-1, m-1).

    Exact mode carries a Fraction; sampled mode a float with its standard
    error.  In JSON, value is null where it lies past the float range;
    value_exact still holds it.  The report also compares C(3n-1, n), the m = 2n instance that
    feeds the tail bound, with 7**n and the sharper 27**n/4**n.
    """

    n: int
    m: int
    mode: str
    value: Number
    standard_error: Optional[float]
    bound: int
    holds: bool
    binom_3n: int
    seven_power: int
    footnote_bound: Fraction
    binom_le_seven: bool
    binom_le_footnote: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "value": _float_or_none(self.value),
            "value_exact": str(self.value) if self.mode == "exact" else None,
            "standard_error": self.standard_error,
            "bound": self.bound,
            "holds": self.holds,
            "binom_3n": self.binom_3n,
            "seven_power": self.seven_power,
            "footnote_bound": str(self.footnote_bound),
            "binom_le_seven": self.binom_le_seven,
            "binom_le_footnote": self.binom_le_footnote,
        }


def _float_or_none(x: Number) -> Optional[float]:
    try:
        return float(x)
    except OverflowError:
        return None


def verify_expectation_bound(
    n: int,
    m: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> ExpectationBoundReport:
    """Check E[m**F_n] <= C(m+n-1, m-1); exact without samples, else sampled."""
    if m < 2 * n:
        raise ValueError(f"the bound needs m >= 2n, got m={m} < {2 * n}")
    if samples is not None and samples < 2:
        raise ValueError("need at least two samples for a standard error")
    dist = cycle_distribution(n, samples=samples, seed=seed)
    value = dist.expectation_m_power(m)
    stderr = None
    if dist.mode == "sample":
        second = sum(
            c * float(m) ** (2 * f) for f, c in dist.face_histogram.items()
        ) / dist.total
        var = max(second - float(value) ** 2, 0.0)
        stderr = math.sqrt(var / dist.total)
    bound = math.comb(m + n - 1, m - 1)
    binom3 = math.comb(3 * n - 1, n)
    footnote = Fraction(27**n, 4**n)
    return ExpectationBoundReport(
        n=n,
        m=m,
        mode=dist.mode,
        value=value,
        standard_error=stderr,
        bound=bound,
        holds=bool(value <= bound),
        binom_3n=binom3,
        seven_power=7**n,
        binom_le_seven=binom3 <= 7**n,
        footnote_bound=footnote,
        binom_le_footnote=binom3 <= footnote,
    )


# ---------------------------------------------------------------------------
# thresholds of the counterexample argument


def a_threshold(D: int, n: int) -> float:
    """n + (D ln 7 - ln 2) n / ln n + D; random graphs stay below this F."""
    if n < 2:
        return math.inf
    c = D * math.log(7.0) - math.log(2.0)
    return n + c * n / math.log(n) + D


def gap_holds(D: int, n: int) -> bool:
    """(D-2) n / 2 > (D ln 7 - ln 2) n / ln n + D."""
    if n < 2:
        return False
    c = D * math.log(7.0) - math.log(2.0)
    return (D - 2) * n / 2 > c * n / math.log(n) + D


@dataclass(frozen=True)
class ThresholdReport:
    """Sizes at which the probabilistic counterexample argument kicks in.

    n_epsilon is the least n with n > ln(sqrt(2e)/epsilon)/ln(e/2), past
    which at least a 1 - epsilon fraction of all graphs stays below the
    a_threshold for every pairing.  n_gap is the least n where that
    threshold drops below D*n/2, making most graphs scaling violators; for
    D = 2 the gap inequality fails for all large n and n_gap is undefined.
    """

    D: int
    epsilon: float
    n_epsilon: int
    n_gap: Optional[int]
    a_at_n_gap: Optional[float]
    fraction_bound_at_n_epsilon: float

    def to_json_dict(self) -> dict:
        return {
            "D": self.D,
            "epsilon": self.epsilon,
            "n_epsilon": self.n_epsilon,
            "n_gap": self.n_gap,
            "a_at_n_gap": self.a_at_n_gap,
            "fraction_bound_at_n_epsilon": self.fraction_bound_at_n_epsilon,
        }


def threshold_report(D: int, epsilon: float) -> ThresholdReport:
    if D < 2:
        raise ValueError("need D >= 2")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    x = math.log(math.sqrt(2 * math.e) / epsilon) / math.log(math.e / 2)
    n_epsilon = math.floor(x) + 1
    n_gap = None
    if D >= 3:
        hi = 4
        while not gap_holds(D, hi):
            hi *= 2
        lo = 2  # gap_holds is False below the single crossing, True after
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if gap_holds(D, mid):
                hi = mid
            else:
                lo = mid
        n_gap = hi
        assert gap_holds(D, n_gap) and not gap_holds(D, n_gap - 1)
    frac = 1.0 - math.sqrt(2 * math.e) * (2 / math.e) ** n_epsilon
    return ThresholdReport(
        D,
        float(epsilon),
        n_epsilon,
        n_gap,
        a_threshold(D, n_gap) if n_gap is not None else None,
        frac,
    )


# ---------------------------------------------------------------------------
# randomized violator search


@dataclass(frozen=True)
class ComponentVerdict:
    half_order: int
    F_max: int
    bound: Fraction
    violates: bool

    def to_json_dict(self) -> dict:
        return {
            "half_order": self.half_order,
            "F_max": self.F_max,
            "bound": str(self.bound),
            "violates": self.violates,
        }


@dataclass(frozen=True)
class ViolationRecord:
    trial: int
    graph: ColoredGraph
    scaling: ScalingReport
    components: tuple[ComponentVerdict, ...]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of sampling random graphs and maximizing their face counts.

    lemma_violations lists graphs with F_max <= D*n/2 (at least one component
    then violates its own threshold, which the component verdicts spell
    out); a_bound_violations lists graphs below the softer a_threshold.
    Trials whose search hit the node budget are only counted, never
    classified.
    """

    D: int
    n: int
    trials: int
    seed: int
    f_max_histogram: dict[int, int]
    lemma_violations: tuple[ViolationRecord, ...]
    a_bound_violations: tuple[int, ...]  # trial indices
    inexact_trials: int
    component_envelope_ok: bool

    def f_max_csv(self) -> str:
        lines = ["F_max,count"]
        lines += [f"{f},{c}" for f, c in sorted(self.f_max_histogram.items())]
        return "\n".join(lines) + "\n"


def counterexample_search(
    D: int,
    n: int,
    trials: int,
    seed: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchReport:
    """Sample uniform D-colored graphs on 2n vertices and test the threshold.

    Every trial gets an exact maximal face count (truncated searches are
    skipped and tallied separately).  A graph with F_max <= D*n/2 disproves
    factorization: for some component, the connected square then scales at
    least like the squared expectation.  As a sanity envelope, every
    component must respect F_max <= 1 + (D-1) n within itself.  Trial t
    draws its graph with the string seed f"{seed}:{t}", so no two
    (seed, trial) pairs share a random stream, negative seeds included.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    hist: dict[int, int] = {}
    lemma_hits: list[ViolationRecord] = []
    a_hits: list[int] = []
    inexact = 0
    envelope_ok = True
    a_bound = a_threshold(D, n)
    for trial in range(trials):
        g = random_colored_graph(D, n, f"{seed}:{trial}")
        rep = max_scaling(g, node_budget=node_budget)
        comps = connected_components(g)
        creps = [
            rep if len(comps) == 1 else max_scaling(cg, node_budget=node_budget)
            for cg, _ in comps
        ]
        if not rep.exact or not all(c.exact for c in creps):
            inexact += 1
            continue
        hist[rep.F_max] = hist.get(rep.F_max, 0) + 1
        verdicts = []
        for (cg, _), crep in zip(comps, creps):
            bound = Fraction(cg.D * cg.n, 2)
            verdicts.append(
                ComponentVerdict(cg.n, crep.F_max, bound, crep.F_max <= bound)
            )
            if crep.F_max > 1 + (cg.D - 1) * cg.n:
                envelope_ok = False
        if rep.F_max <= Fraction(D * n, 2):
            lemma_hits.append(ViolationRecord(trial, g, rep, tuple(verdicts)))
        if rep.F_max < a_bound:
            a_hits.append(trial)
    return SearchReport(
        D,
        n,
        trials,
        seed,
        hist,
        tuple(lemma_hits),
        tuple(a_hits),
        inexact,
        envelope_ok,
    )
