"""Seeded inputs, ops and oracle checks for the benchmark workloads.

Every input comes from the benchmark's own RNG, seeded by (workload, seed,
round), and graphs are built from Matching and ColoredGraph directly, so a
change to the program's random generators cannot change the work.  A round
is a fixed mix of ops; a run repeats rounds on fresh inputs until its time is
up, so every round of a workload has the same composition.

Ops call the program through module attributes (``wick.max_scaling``), which
is where a traced round wraps it.  Checks call the functions bound below at
import time, before any wrapping, and run outside every timed region.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from tensorwick import faces, graphs, montecarlo, numeric, partitions, wick
from tensorwick.graphs import ColoredGraph, Matching

# Oracles: the unwrapped program functions, captured before any tracing.
_histogram = wick.enumerate_histogram
_expectation = wick.expectation_poly
_cumulant = wick.cumulant_poly
_max_scaling = wick.max_scaling
_verdict = wick.factorization_verdict
_is_melonic = graphs.is_melonic
_total_faces = faces.total_faces
_cycle_distribution = montecarlo.cycle_distribution
_thresholds = montecarlo.threshold_report

# A frontier verdict is refused once its searches visit this many nodes.
# At 300k nodes the refusal takes 0.3-0.45 s, longer than nearly every other
# search op, so the three frontier ops of a round are its slowest.
FRONTIER_BUDGET = 300_000
# Histogram oracles are only run on graphs up to this half-order.
ORACLE_MAX_N = 6
SIGMAS = 5.0
CLI_TIMEOUT_S = 120


class WrongAnswer(Exception):
    """An op returned an answer its oracle rejects."""


class Refused(Exception):
    """An op returned without an exact answer (a truncated search)."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


@dataclass
class Op:
    """One timed call and the check of its answer.

    ``check`` raises WrongAnswer or Refused; for CLI ops it returns the
    seconds the library took in-process on the same input.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[float]]
    inputs: tuple = ()


@dataclass(frozen=True)
class Context:
    """The checkout root, and the environment subprocesses of the program get."""

    root: Path
    user_env: dict


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, int, Context], list]  # (seed, round, ctx) -> ops
    warmup: Callable[[Context], None]
    module: str  # imported at set-up, timed in a fresh interpreter
    composition: str
    # Highest op-time percentile reported; held fixed so that runs of
    # different length report the same percentile.  Each is the highest one
    # with ten ops beyond it in a slow run at BENCHMARK.json's run_seconds.
    tail_percentile: float


# ---------------------------------------------------------------------------
# seeded graphs, built without the program's generators


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def perfect_matching(rng: random.Random, two_n: int) -> Matching:
    verts = list(range(two_n))
    rng.shuffle(verts)
    return Matching(zip(verts[::2], verts[1::2]), two_n)


def uniform_graph(rng: random.Random, D: int, n: int) -> ColoredGraph:
    return ColoredGraph([perfect_matching(rng, 2 * n) for _ in range(D)])


def component_count(g: ColoredGraph, extra: Matching = ()) -> int:
    """Components of g, joined further by the pairs of ``extra``."""
    parent = list(range(2 * g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = 2 * g.n
    for m in (*g.matchings, extra):
        for u, v in m:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                count -= 1
    return count


def connected_graph(rng: random.Random, D: int, n: int) -> ColoredGraph:
    while True:
        g = uniform_graph(rng, D, n)
        if component_count(g) == 1:
            return g


def melonic_graph(rng: random.Random, D: int, n: int) -> ColoredGraph:
    """The D-dipole grown by n-1 random melon insertions, randomly relabelled."""
    pairs = [[(0, 1)] for _ in range(D)]
    for k in range(1, n):
        u, v = 2 * k, 2 * k + 1
        c = rng.randrange(D)
        a, b = pairs[c].pop(rng.randrange(len(pairs[c])))
        pairs[c] += [(a, u), (v, b)]
        for other in range(D):
            if other != c:
                pairs[other].append((u, v))
    label = list(range(2 * n))
    rng.shuffle(label)
    return ColoredGraph(
        [Matching([(label[a], label[b]) for a, b in ps], 2 * n) for ps in pairs]
    )


def union(*parts: ColoredGraph) -> ColoredGraph:
    """Colorwise disjoint union, each part shifted past the ones before it."""
    per_color = [[] for _ in range(parts[0].D)]
    shift = 0
    for g in parts:
        for c, m in enumerate(g.matchings):
            per_color[c] += [(u + shift, v + shift) for u, v in m]
        shift += 2 * g.n
    return ColoredGraph([Matching(p, shift) for p in per_color])


def graph_text(g: ColoredGraph) -> str:
    blocks = " ; ".join(",".join(f"{u}-{v}" for u, v in m) for m in g.matchings)
    return f"{g.D} {g.n} | {blocks}"


def pairings(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings on 2n points."""
    return math.prod(range(1, 2 * n, 2))


# ---------------------------------------------------------------------------
# closed forms used as oracles


def cycle_probabilities(n: int) -> list[Fraction]:
    """p_k: chance the reference pair lies on an alternating cycle of length 2k."""
    out, prefix = [], Fraction(1)
    for k in range(1, n + 1):
        out.append(prefix / (2 * n - 2 * k + 1))
        prefix *= Fraction(2 * n - 2 * k, 2 * n - 2 * k + 1)
    return out


def m_power_expectation(n: int, m: int) -> Fraction:
    """E[m**F] over uniform matchings: prod_k (m + 2k - 2) / (2k - 1)."""
    return math.prod(
        (Fraction(m + 2 * k - 2, 2 * k - 1) for k in range(1, n + 1)), start=Fraction(1)
    )


def mobius_cumulant(parts: tuple) -> wick.ExpectationPoly:
    """Joint cumulant of two or three parts from oracle moment polynomials."""
    m = {
        mask: _expectation(union(*(p for i, p in enumerate(parts) if mask >> i & 1)))
        for mask in range(1, 1 << len(parts))
    }
    if len(parts) == 2:
        return m[3] - m[1] * m[2]
    return m[7] - m[3] * m[4] - m[5] * m[2] - m[6] * m[1] + 2 * (m[1] * m[2] * m[4])


# ---------------------------------------------------------------------------
# checks


def check_scaling(g: ColoredGraph, rep, connected_only: bool = False) -> None:
    if not rep.exact:
        raise Refused("search truncated by its node budget")
    w = rep.witness
    expect(w.ground_size == 2 * g.n and w.is_perfect, "witness is not a perfect matching")
    expect(_total_faces(w, g).total == rep.F_max, "witness face count differs from F_max")
    q = 1 if connected_only else component_count(g)
    expect(rep.F_max <= q + (g.D - 1) * g.n, "F_max exceeds the scaling bound")
    if connected_only:
        expect(component_count(g, w) == 1, "witness does not join every component")
    if g.n <= ORACLE_MAX_N:
        counts = _histogram(g, connected_only=connected_only).counts
        top = max(counts)
        expect(
            (rep.F_max, rep.num_optimal) == (top, counts[top]),
            "F_max or num_optimal differs from the histogram's top bin",
        )


def check_melonic(g: ColoredGraph, result) -> None:
    rep, mel = result
    check_scaling(g, rep)
    expect(mel.is_melonic, "melonic input not recognized")
    expect(rep.F_max == 1 + (g.D - 1) * g.n, "melonic input below the scaling bound")
    expect(rep.num_optimal == 1, "melonic input has more than one optimal pairing")
    expect(rep.witness == mel.canonical_pairing, "witness is not the canonical pairing")


def check_verdict(g: ColoredGraph, rep) -> None:
    D, n, nu = g.D, g.n, Fraction(g.D - 1)
    expect(rep.nu == nu, "nu differs from the default D-1")
    expect(rep.single_F_max <= 1 + (D - 1) * n, "single F_max exceeds the scaling bound")
    expect(
        D * n <= rep.pair_connected_F_max <= 1 + (D - 1) * 2 * n,
        "pair F_max outside [D*n, 1 + (D-1)*2n]",
    )
    expect(rep.cumulant_leading == rep.pair_connected_F_max - nu * 2 * n, "cumulant exponent")
    expect(rep.product_leading == 2 * (rep.single_F_max - nu * n), "product exponent")
    expect(rep.factorizes == (rep.cumulant_leading < rep.product_leading), "verdict")
    if n <= ORACLE_MAX_N:
        expect(rep.single_F_max == max(_histogram(g).counts), "single F_max vs histogram")


def check_subadditivity(parts: tuple, rep) -> None:
    check_scaling(union(*parts), rep.union_report, connected_only=True)
    for g, part in zip(parts, rep.part_reports):
        check_scaling(g, part)
    expect(rep.lhs == rep.union_report.F_max, "lhs differs from the union's F_max")
    expect(rep.rhs == sum(p.F_max for p in rep.part_reports), "rhs differs from the parts")
    expect(rep.strict_subadditive == (rep.lhs < rep.rhs), "strictness flag")


def check_expectation(g: ColoredGraph, poly) -> None:
    expect(poly.n == g.n and poly.nu == g.D - 1, "polynomial n or nu")
    expect(sum(poly.terms.values()) == pairings(g.n), "histogram total differs from |M_n|")
    top = max(poly.terms) + poly.nu * g.n
    expect(top <= component_count(g) + (g.D - 1) * g.n, "face count above the scaling bound")


def check_cumulant(parts: tuple, poly) -> None:
    expect(poly == mobius_cumulant(parts), "cumulant differs from the Mobius oracle")


def check_moments(parts: tuple, cumulants) -> None:
    full = (1 << len(parts)) - 1
    expect(cumulants[full] == mobius_cumulant(parts), "cumulant differs from the Mobius oracle")


def check_exact_cycles(n: int, dist) -> None:
    expect(dist.mode == "exact" and dist.total == pairings(n), "exact total")
    expect(sum(dist.face_histogram.values()) == dist.total, "face histogram total")
    expect(dist.p_list == cycle_probabilities(n), "p_k differ from the closed form")


def within_sigmas(value: float, target: float, sigma: float) -> bool:
    return abs(value - target) <= SIGMAS * sigma


def check_moment(gs: tuple, N: int, samples: int, est) -> None:
    exact = float(_expectation(union(*gs)).evaluate(N))
    expect(est.sample_count == samples, "sample count")
    expect(
        within_sigmas(est.mean, exact, est.standard_error),
        f"mean {est.mean} is more than {SIGMAS} sigma from {exact}",
    )


def check_sampled_cycles(n: int, samples: int, dist) -> None:
    expect(dist.mode == "sample" and dist.total == samples, "sample total")
    for k, (got, p) in enumerate(zip(dist.p_list, cycle_probabilities(n)), start=1):
        sigma = math.sqrt(float(p * (1 - p)) / samples)
        expect(within_sigmas(got, float(p), sigma), f"p_{k} = {got} vs {float(p)}")


def check_bound(n: int, m: int, rep) -> None:
    expect(rep.mode == "sample", "mode")
    expect(rep.bound == math.comb(m + n - 1, m - 1), "binomial bound")
    expect(rep.holds == (rep.value <= rep.bound), "holds flag")
    exact = float(m_power_expectation(n, m))
    expect(
        within_sigmas(float(rep.value), exact, rep.standard_error),
        f"E[m^F] = {rep.value} is more than {SIGMAS} sigma from {exact}",
    )


# ---------------------------------------------------------------------------
# search: branch-and-bound maxima and verdicts


SEARCH_COMPOSITION = (
    "per round: max_scaling D3 n7 x16, D3 n8 x3, D4 n7 x6; "
    "max_scaling+is_melonic D3 n9 melonic x2; factorization_verdict D3 n4 connected x1; "
    "subadditivity_check D3 (3,3) and (3,4) x1 each; "
    f"frontier factorization_verdict D3 n6 connected at node_budget {FRONTIER_BUDGET} x3"
)


def _scaling_op(g: ColoredGraph) -> Op:
    return Op(
        f"max_scaling.d{g.D}",
        lambda: wick.max_scaling(g, threads=1),
        lambda rep: check_scaling(g, rep),
        (g,),
    )


def _melonic_op(g: ColoredGraph) -> Op:
    return Op(
        "melonic",
        lambda: (wick.max_scaling(g, threads=1), graphs.is_melonic(g)),
        lambda res: check_melonic(g, res),
        (g,),
    )


def _verdict_op(kind: str, g: ColoredGraph, budget: int = wick.DEFAULT_NODE_BUDGET) -> Op:
    return Op(
        kind,
        lambda: wick.factorization_verdict(g, node_budget=budget),
        lambda rep: check_verdict(g, rep),
        (g,),
    )


def _subadd_op(parts: tuple) -> Op:
    return Op(
        "subadditivity_check",
        lambda: wick.subadditivity_check(list(parts)),
        lambda rep: check_subadditivity(parts, rep),
        parts,
    )


def search_round(seed: int, r: int, ctx: Context) -> list:
    rng = round_rng("search", seed, r)
    ops = []
    # Each percentile reported falls inside one class of ops rather than
    # between two: the median among the 22 n7 searches of about 20 ms, the
    # 95th among the 3 frontier verdicts, whose cost their budget fixes.
    for D, n, count in ((3, 7, 16), (3, 8, 3), (4, 7, 6)):
        ops += [_scaling_op(uniform_graph(rng, D, n)) for _ in range(count)]
    ops += [_melonic_op(melonic_graph(rng, 3, 9)) for _ in range(2)]
    ops.append(_verdict_op("factorization_verdict", connected_graph(rng, 3, 4)))
    for sizes in ((3, 3), (3, 4)):
        ops.append(_subadd_op(tuple(connected_graph(rng, 3, n) for n in sizes)))
    ops += [
        _verdict_op("frontier", connected_graph(rng, 3, 6), FRONTIER_BUDGET) for _ in range(3)
    ]
    rng.shuffle(ops)
    return ops


def search_warmup(ctx: Context) -> None:
    rng = round_rng("search-warmup", 0, 0)
    g = connected_graph(rng, 3, 3)
    wick.max_scaling(g, threads=1)
    wick.factorization_verdict(g)
    wick.subadditivity_check([g, g])
    graphs.is_melonic(melonic_graph(rng, 3, 3))


# ---------------------------------------------------------------------------
# exact: unpruned enumeration behind polynomials and cycle statistics


EXACT_COMPOSITION = (
    "per round: expectation_poly D3 n6 x4, D3 n7 x2, D4 n6 x4, D4 n7 x2; "
    "cumulant_poly on D3 unions (3,3), (2,4), (2,2,2); "
    "expectation_poly of every sub-union + cumulants_from_moments on (3,3) and (2,2,2); "
    "exact cycle_distribution n6, n7"
)


def _expectation_op(g: ColoredGraph) -> Op:
    return Op(
        f"expectation_poly.d{g.D}",
        lambda: wick.expectation_poly(g),
        lambda poly: check_expectation(g, poly),
        (g,),
    )


def _cumulant_op(parts: tuple) -> Op:
    u = union(*parts)
    return Op(
        "cumulant_poly",
        lambda: wick.cumulant_poly(u),
        lambda poly: check_cumulant(parts, poly),
        parts,
    )


def _moments_op(parts: tuple) -> Op:
    subsets = {
        mask: union(*(p for i, p in enumerate(parts) if mask >> i & 1))
        for mask in range(1, 1 << len(parts))
    }

    def call():
        moments = {mask: wick.expectation_poly(u) for mask, u in subsets.items()}
        return partitions.cumulants_from_moments(moments)

    return Op("cumulants_from_moments", call, lambda c: check_moments(parts, c), parts)


def _exact_cycles_op(n: int) -> Op:
    return Op(
        "cycle_distribution.exact",
        lambda: montecarlo.cycle_distribution(n),
        lambda dist: check_exact_cycles(n, dist),
    )


def exact_round(seed: int, r: int, ctx: Context) -> list:
    rng = round_rng("exact", seed, r)
    ops = []
    # Enumeration cost is fixed by n and D.  Of the 19 ops, the median one is
    # a D4 n6 polynomial (the 8th to 11th fastest), and the 90th percentile
    # falls among the D4 n7 ones, below the single n7 cycle count.
    for D, n, count in ((3, 6, 4), (3, 7, 2), (4, 6, 4), (4, 7, 2)):
        ops += [_expectation_op(uniform_graph(rng, D, n)) for _ in range(count)]
    for sizes in ((3, 3), (2, 4), (2, 2, 2)):
        ops.append(_cumulant_op(tuple(connected_graph(rng, 3, n) for n in sizes)))
    for sizes in ((3, 3), (2, 2, 2)):
        ops.append(_moments_op(tuple(connected_graph(rng, 3, n) for n in sizes)))
    ops += [_exact_cycles_op(n) for n in (6, 7)]
    rng.shuffle(ops)
    return ops


def exact_warmup(ctx: Context) -> None:
    rng = round_rng("exact-warmup", 0, 0)
    parts = (connected_graph(rng, 3, 1), connected_graph(rng, 3, 2))
    _moments_op(parts).call()
    wick.cumulant_poly(union(*parts))
    montecarlo.cycle_distribution(3)


# ---------------------------------------------------------------------------
# sampling: dense Monte Carlo in numeric and the pure-Python samplers

# (D, N, graph maker, half-orders, samples, ops per round).  Sizes keep every
# contraction intermediate of a batch at or below about 34 MB, so the N=8
# melonic draw (67 MB) sets peak memory, and keep the invariant's tail light
# enough for a 5 sigma check: a uniform 16-vertex graph fails it at N=2, and
# a 12-vertex one needs up to 250 MB at N=3.  Melonic graphs fix the
# contraction structure, whose cost otherwise varies twofold between random
# graphs; every D3 melonic graph with n=2 has the same one.
#
# Batches are memory-bound, and their times move with the machine more than
# pure-Python work does.  The five D3 N5 melonic n2 draws (about 130 ms) hold
# the round's median op, with six cheaper ops below them and nine dearer
# ones above.  The 80th percentile falls among the four cycle samplings, pure
# Python of fixed cost, just below the single N8 draw.
MOMENT_MIX = (
    (3, 3, uniform_graph, (2,), 2 * numeric.DEFAULT_BATCH, 1),
    (3, 4, uniform_graph, (2,), numeric.DEFAULT_BATCH, 1),
    (3, 5, melonic_graph, (2,), numeric.DEFAULT_BATCH, 5),
    (3, 5, melonic_graph, (3,), numeric.DEFAULT_BATCH, 1),
    (3, 6, melonic_graph, (2,), numeric.DEFAULT_BATCH, 1),
    (3, 8, melonic_graph, (2,), numeric.DEFAULT_BATCH, 1),
    (4, 4, melonic_graph, (2,), numeric.DEFAULT_BATCH, 1),
    (3, 3, uniform_graph, (2, 2), numeric.DEFAULT_BATCH, 1),
    (3, 4, uniform_graph, (2, 2), numeric.DEFAULT_BATCH, 1),
)
CYCLE_SAMPLES = (30, 8_000)  # (n, samples)
BOUND_SAMPLES = (4, 8, 20_000)  # (n, m, samples)

SAMPLING_COMPOSITION = (
    "per round, default batch: mc_moment D3 N3 n2 (2 batches), D3 N4 n2, D3 N5 melonic n2 x5, "
    "D3 N5 melonic n3, D3 N6 melonic n2, D3 N8 melonic n2, D4 N4 melonic n2, "
    "products of two n2 at D3 N3 and N4; "
    "sampled cycle_distribution n30 x8000 x4; verify_expectation_bound n4 m8 x20000 x4"
)


def _moment_op(gs: tuple, N: int, samples: int, seed: int) -> Op:
    D = gs[0].D
    return Op(
        f"mc_moment.d{D}.N{N}",
        lambda: numeric.mc_moment(list(gs), N, D - 1, samples, seed),
        lambda est: check_moment(gs, N, samples, est),
        gs,
    )


def sampling_round(seed: int, r: int, ctx: Context) -> list:
    rng = round_rng("sampling", seed, r)
    ops = []
    for D, N, make, sizes, samples, count in MOMENT_MIX:
        for _ in range(count):
            gs = tuple(make(rng, D, n) for n in sizes)
            ops.append(_moment_op(gs, N, samples, rng.randrange(1 << 32)))
    n, samples = CYCLE_SAMPLES
    bn, bm, bsamples = BOUND_SAMPLES
    for _ in range(4):
        cseed, bseed = rng.randrange(1 << 32), rng.randrange(1 << 32)
        ops.append(
            Op(
                "cycle_distribution.sample",
                lambda cseed=cseed: montecarlo.cycle_distribution(n, samples=samples, seed=cseed),
                lambda dist: check_sampled_cycles(n, samples, dist),
            )
        )
        ops.append(
            Op(
                "verify_expectation_bound",
                lambda bseed=bseed: montecarlo.verify_expectation_bound(
                    bn, bm, samples=bsamples, seed=bseed
                ),
                lambda rep: check_bound(bn, bm, rep),
            )
        )
    rng.shuffle(ops)
    return ops


def sampling_warmup(ctx: Context) -> None:
    rng = round_rng("sampling-warmup", 0, 0)
    numeric.mc_moment([uniform_graph(rng, 3, 2)], 2, 2, 256, 0)
    montecarlo.verify_expectation_bound(2, 4, samples=256, seed=0)


# ---------------------------------------------------------------------------
# cli: documented subcommands as subprocesses, default flags


CLI_COMPOSITION = (
    "per round, one subprocess each: gen D3 n4; scaling D3 n5 (default pool); "
    "expect D3 n4; cumulant D3 (2,2); factorize D3 n3 connected; melonic D3 n4; "
    "mc-cycles n10 x2000; thresholds D3-5"
)


def cli_command(ctx: Context, args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tensorwick.cli", *args],
        cwd=ctx.root,
        env=ctx.user_env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def normalized(doc) -> object:
    return json.loads(json.dumps(doc, sort_keys=True, default=str))


def _cli_op(ctx: Context, sub: str, args: list, library: Callable[[], tuple], inputs=()) -> Op:
    """``library`` returns (documented exit code, expected JSON payload)."""

    def check(proc) -> float:
        start = time.perf_counter()
        code, payload = library()
        library_s = time.perf_counter() - start
        expect(proc.returncode == code, f"{sub}: exit {proc.returncode}, expected {code}")
        doc = json.loads(proc.stdout)
        expect(doc.pop("command") == sub, f"{sub}: command field")
        doc.pop("config")
        expect(doc == normalized(payload), f"{sub}: payload differs from the library")
        return library_s

    return Op(sub, lambda: cli_command(ctx, [sub, *args]), check, inputs)


def cli_round(seed: int, r: int, ctx: Context) -> list:
    rng = round_rng("cli", seed, r)
    gen_seed = rng.randrange(1 << 31)
    g_scaling = uniform_graph(rng, 3, 5)
    g_expect = uniform_graph(rng, 3, 4)
    g_cumulant = union(connected_graph(rng, 3, 2), connected_graph(rng, 3, 2))
    g_verdict = connected_graph(rng, 3, 3)
    g_melonic = melonic_graph(rng, 3, 4)
    mc_seed = rng.randrange(1 << 31)
    d_thresh = rng.choice((3, 4, 5))

    def poly(fn, g):
        p = fn(g)
        return 0, {"polynomial": p.to_triples(), "nu": str(p.nu), "n": p.n}

    def verdict():
        rep = _verdict(g_verdict)
        return (0 if rep.factorizes else 1), rep.to_json_dict()

    def melonic():
        rep = _is_melonic(g_melonic)
        return (0 if rep.is_melonic else 1), {
            "is_melonic": rep.is_melonic,
            "reduction_trace": [list(p) for p in rep.reduction_trace],
            "canonical_pairing": (
                [list(p) for p in rep.canonical_pairing.pairs]
                if rep.canonical_pairing is not None
                else None
            ),
        }

    return [
        _cli_op(
            ctx,
            "gen",
            ["--d", "3", "--n", "4", "--seed", str(gen_seed)],
            lambda: (0, graphs.graph_to_json_dict(graphs.random_colored_graph(3, 4, gen_seed))),
        ),
        _cli_op(
            ctx,
            "scaling",
            ["--inline", graph_text(g_scaling)],
            lambda: (0, _max_scaling(g_scaling, threads=1).to_json_dict()),
            (g_scaling,),
        ),
        _cli_op(
            ctx,
            "expect",
            ["--inline", graph_text(g_expect)],
            lambda: poly(_expectation, g_expect),
            (g_expect,),
        ),
        _cli_op(
            ctx,
            "cumulant",
            ["--inline", graph_text(g_cumulant)],
            lambda: poly(_cumulant, g_cumulant),
            (g_cumulant,),
        ),
        _cli_op(ctx, "factorize", ["--inline", graph_text(g_verdict)], verdict, (g_verdict,)),
        _cli_op(ctx, "melonic", ["--inline", graph_text(g_melonic)], melonic, (g_melonic,)),
        _cli_op(
            ctx,
            "mc-cycles",
            ["--n", "10", "--samples", "2000", "--seed", str(mc_seed)],
            lambda: (0, _cycle_distribution(10, samples=2000, seed=mc_seed).to_json_dict()),
        ),
        _cli_op(
            ctx,
            "thresholds",
            ["--d", str(d_thresh)],
            lambda: (0, _thresholds(d_thresh, 0.01).to_json_dict()),
        ),
    ]


def cli_warmup(ctx: Context) -> None:
    """Nothing to warm: the set-up's timed import of tensorwick.cli has already
    loaded and byte-compiled everything a subcommand imports."""


WORKLOADS = {
    "search": Workload(search_round, search_warmup, "tensorwick", SEARCH_COMPOSITION, 95.0),
    "exact": Workload(exact_round, exact_warmup, "tensorwick", EXACT_COMPOSITION, 90.0),
    "sampling": Workload(sampling_round, sampling_warmup, "tensorwick", SAMPLING_COMPOSITION, 80.0),
    "cli": Workload(cli_round, cli_warmup, "tensorwick.cli", CLI_COMPOSITION, 80.0),
}
