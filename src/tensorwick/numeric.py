"""Dense evaluation of trace invariants on sampled Gaussian tensors.

This is the floating-point cross-check of the exact combinatorics: sample
i.i.d. Gaussian tensors, evaluate the invariant of a graph by contracting
one tensor copy per vertex along the colored edges, and compare Monte Carlo
moments against the exact polynomials evaluated at the same N.  Each graph's
greedy contraction order is planned once, as einsum steps that one code path
runs on a single tensor and on a batch of samples; every step may name at
most 52 labels.  Exact results stay in integer or rational arithmetic
elsewhere; the two worlds only ever meet inside statistical tolerances.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graphs import ColoredGraph

DEFAULT_BATCH = 1 << 14
# most floats the default batch draws at once: 256 MiB of float64
MAX_DRAW_FLOATS = 1 << 25


class _DefaultBatch(int):
    """mc_moment's default batch, an int told apart from an explicit one."""


@dataclass(frozen=True, eq=False)
class TensorData:
    """A dense real tensor with D axes of length N; no index symmetry assumed."""

    N: int
    D: int
    entries: np.ndarray


def sample_gaussian_tensor(N: int, D: int, nu, seed) -> TensorData:
    """I.i.d. centered normal entries with variance N**(-nu); seed-deterministic."""
    if N < 1 or D < 1:
        raise ValueError("need N >= 1 and D >= 1")
    sigma = float(N) ** (-float(Fraction(nu)) / 2.0)
    rng = np.random.default_rng(seed)
    return TensorData(N, D, rng.normal(0.0, sigma, size=(N,) * D))


def _plan(G: ColoredGraph) -> tuple[int, list[tuple[int, int, str]]]:
    """G's vertex count and greedy pairwise contraction steps, made once per graph.

    Fragments start as one tensor copy per vertex, labelled by the edge id in
    each of its D slots.  Each step `(i, j, spec)` merges the two fragments
    that share a label and give the result of least rank (the first such pair
    wins ties), removes both and appends the result; components end as
    scalars, which `_trace` multiplies.  The einsum spec names the step's
    labels a, b, ... in order of first appearance and writes batch axes as
    `...`, so one plan serves a tensor and a batch of tensors alike.  A step
    may name at most 52 labels, with or without a batch axis.
    """
    slots = [[-1] * G.D for _ in range(2 * G.n)]
    edges = [(ci, pair) for ci, m in enumerate(G.matchings) for pair in m.pairs]
    for eid, (ci, (u, v)) in enumerate(edges):
        slots[u][ci] = slots[v][ci] = eid
    frags = [tuple(s) for s in slots]
    steps = []
    while True:
        merges = [
            (len(frags[i]) + len(frags[j]) - 2 * len(shared), i, j, shared)
            for i, j in itertools.combinations(range(len(frags)), 2)
            if (shared := set(frags[i]).intersection(frags[j]))
        ]
        if not merges:
            return 2 * G.n, steps
        _, i, j, shared = min(merges, key=lambda m: m[0])
        li, lj = frags[i], frags[j]
        out = tuple(l for l in li + lj if l not in shared)
        names = dict.fromkeys(li + lj)
        if len(names) > len(string.ascii_letters):
            raise ValueError("graph too large for dense evaluation")
        sym = dict(zip(names, string.ascii_letters))
        sub_i, sub_j, sub_o = ("".join(sym[l] for l in ls) for ls in (li, lj, out))
        steps.append((i, j, f"...{sub_i},...{sub_j}->...{sub_o}"))
        frags = [f for k, f in enumerate(frags) if k not in (i, j)] + [out]


def _trace(plan: tuple[int, list[tuple[int, int, str]]], entries: np.ndarray):
    """Run a plan on one tensor, or on a batch of them along leading axes."""
    count, steps = plan
    frags = [entries] * count
    for i, j, spec in steps:
        merged = np.einsum(spec, frags[i], frags[j])
        frags = [f for k, f in enumerate(frags) if k not in (i, j)] + [merged]
    return math.prod(frags)


def evaluate_trace_invariant(G: ColoredGraph, T: TensorData) -> float:
    """Contract one copy of T per vertex along G's colored edges.

    Slot c of vertex k is identified with slot c of its color-c partner;
    contraction proceeds pairwise, never materializing the full multi-index
    sum.
    """
    if T.D != G.D:
        raise ValueError(f"tensor order {T.D} does not match graph colors {G.D}")
    if T.entries.shape != (T.N,) * T.D:
        raise ValueError(f"entries shape {T.entries.shape} is not {(T.N,) * T.D}")
    return float(_trace(_plan(G), T.entries))


def orthogonal_invariance_check(
    G: ColoredGraph, N: int, seed, max_retries: int = 5
) -> float:
    """Rotate every index slot by an independent orthogonal matrix and compare.

    Returns |Tr(T') - Tr(T)| / |Tr(T)| for a Gaussian T, resampling in the
    (measure-zero) event that the invariant is numerically degenerate.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    plan = _plan(G)
    rng = np.random.default_rng(seed)
    D = G.D
    for _ in range(max_retries):
        entries = rng.standard_normal((N,) * D)
        base = float(_trace(plan, entries))
        if abs(base) < 1e-30:
            continue
        rotated = entries
        for axis in range(D):
            q, r = np.linalg.qr(rng.standard_normal((N, N)))
            q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
            rotated = np.moveaxis(np.tensordot(q, rotated, axes=(1, axis)), 0, axis)
        turned = float(_trace(plan, rotated))
        return abs(turned - base) / abs(base)
    raise RuntimeError("invariant degenerate on every retry")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean of a product of trace invariants over Gaussian tensors.

    batch_size is the batch the estimate was drawn in: the one asked for,
    or the default as cut by MAX_DRAW_FLOATS.
    """

    mean: float
    standard_error: float
    sample_count: int
    nu: Fraction
    seed: Optional[int]
    batch_size: int

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "standard_error": self.standard_error,
            "samples": self.sample_count,
            "nu": str(self.nu),
            "seed": self.seed,
            "batch_size": self.batch_size,
        }


def mc_moment(
    graphs: Sequence[ColoredGraph],
    N: int,
    nu,
    samples: int,
    seed,
    batch_size: int = _DefaultBatch(DEFAULT_BATCH),
) -> MomentEstimate:
    """Monte Carlo estimate of < product of Tr over the graphs > at dimension N.

    All graphs are evaluated on the same tensor draw per sample, so the
    estimate targets the joint moment.  Batches use independent child
    streams of the seed; results do not depend on scheduling.  Each batch
    draws batch_size * N**D floats.  The default batch is cut to
    MAX_DRAW_FLOATS // N**D samples where it would draw more (from N**D >
    2048 on, such as D = 4, N = 7); an explicit batch_size is used as given.
    The variance merges each batch's mean and squared deviations from it by
    Chan's pairwise update, so a mean large against the spread does not
    cancel it away.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    D = graphs[0].D
    for i, g in enumerate(graphs, start=1):
        if g.D != D:
            raise ValueError(f"graph {i} has {g.D} colors, expected {D}")
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if N < 1:
        raise ValueError("need N >= 1")
    if batch_size < 1:
        raise ValueError("need batch_size >= 1")
    if type(batch_size) is _DefaultBatch:
        batch_size = max(1, min(batch_size, MAX_DRAW_FLOATS // N**D))
    plans = [_plan(g) for g in graphs]
    nu = Fraction(nu)
    sigma = float(N) ** (-float(nu) / 2.0)
    root = np.random.SeedSequence(seed)
    n_batches = (samples + batch_size - 1) // batch_size
    children = root.spawn(n_batches)
    total = 0.0
    run_mean = 0.0  # mean of the batches merged so far
    m2 = 0.0  # their sum of squared deviations from run_mean
    done = 0
    for b in range(n_batches):
        size = min(batch_size, samples - done)
        rng = np.random.default_rng(children[b])
        draw = rng.normal(0.0, sigma, size=(size,) + (N,) * D)
        vals = np.ones(size)
        for plan in plans:
            vals = vals * _trace(plan, draw)
        batch_sum = float(vals.sum())
        batch_mean = batch_sum / size
        dev = vals - batch_mean
        delta = batch_mean - run_mean
        merged = done + size
        run_mean += delta * size / merged
        m2 += float(dev @ dev) + delta * delta * done * size / merged
        total += batch_sum
        done = merged
    mean = total / samples
    var = m2 / (samples - 1)
    return MomentEstimate(mean, math.sqrt(var / samples), samples, nu, seed, int(batch_size))
