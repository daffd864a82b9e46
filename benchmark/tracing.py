"""Spans around the program's public functions, recorded from outside it.

A traced round replaces each function in TARGETS at its module attribute
with a wrapper.  Ops call through those attributes, and so do the program's
own calls between them (factorization_verdict and subadditivity_check call
max_scaling; expectation_poly and cumulant_poly call enumerate_histogram;
verify_expectation_bound calls cycle_distribution), so those become child
spans.  Outside an op the wrappers call straight through, which keeps
oracle work out of the trace.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from tensorwick import graphs, montecarlo, numeric, partitions, wick

from workloads import pairings


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    op: int
    round: int
    work: dict = field(default_factory=dict)
    end: float = 0.0
    refused: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _max_scaling(a):
    return "wick.max_scaling." + ("connected" if a["connected_only"] else f"d{a['G'].D}"), {}


def _histogram(a):
    return "wick.enumerate_histogram", {"pairings": pairings(a["G"].n)}


def _cycles(a):
    if a["samples"] is None:
        return "montecarlo.cycle_distribution.exact", {"matchings": pairings(a["n"])}
    return "montecarlo.cycle_distribution.sample", {"samples": a["samples"]}


def _mc_moment(a):
    samples, N, D = a["samples"], a["N"], a["graphs"][0].D
    return "numeric.mc_moment", {
        "samples": samples,
        "batches": -(-samples // a["batch_size"]),
        "bytes_drawn": samples * N**D * 8,
    }


def _plain(name):
    return lambda a: (name, {})


# (module, attribute, labeller of the bound arguments -> (span name, work counts))
TARGETS = (
    (wick, "max_scaling", _max_scaling),
    (wick, "factorization_verdict", _plain("wick.factorization_verdict")),
    (wick, "subadditivity_check", _plain("wick.subadditivity_check")),
    (wick, "enumerate_histogram", _histogram),
    (wick, "expectation_poly", _plain("wick.expectation_poly")),
    (wick, "cumulant_poly", _plain("wick.cumulant_poly")),
    (graphs, "is_melonic", _plain("graphs.is_melonic")),
    (partitions, "cumulants_from_moments", _plain("partitions.cumulants_from_moments")),
    (montecarlo, "cycle_distribution", _cycles),
    (montecarlo, "verify_expectation_bound", _plain("montecarlo.verify_expectation_bound")),
    (numeric, "mc_moment", _mc_moment),
)


class Tracer:
    """In-memory spans; one root span per op, library spans beneath it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._round = 0
        self._ops = 0

    def begin(self, name: str, work: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            parent.id if parent else None,
            parent.op if parent else self._ops,
            self._round,
            work,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span, refused: bool = False) -> None:
        span.end = time.perf_counter()
        span.refused = refused
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """The root span of one op; library calls made inside become its children."""
        self._ops += 1
        span = self.begin("op." + kind, {})
        try:
            yield span
        finally:
            self.finish(span)

    def _wrap(self, fn, label):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = self.begin(*label(bound.arguments))
            refused = False
            try:
                return fn(*args, **kwargs)
            except wick.BudgetExceeded:
                refused = True
                raise
            finally:
                self.finish(span, refused)

        return traced

    @contextmanager
    def installed(self, round_index: int):
        """Wrap every target for one traced round, then restore the originals."""
        self._round = round_index
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, label), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(fn, label))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its child spans."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


# name -> (unit, better); kept in the order BENCHMARK.json lists them.
PER_LAYER = {
    "wick.max_scaling.d3.busy_s": ("s", "lower"),
    "wick.max_scaling.d4.busy_s": ("s", "lower"),
    "wick.max_scaling.connected.busy_s": ("s", "lower"),
    "wick.max_scaling.calls": ("count", "lower"),
    "wick.factorization_verdict.busy_s": ("s", "lower"),
    "wick.factorization_verdict.refused": ("count", "lower"),
    "wick.factorization_verdict.completed_frac": ("fraction", "higher"),
    "wick.subadditivity_check.busy_s": ("s", "lower"),
    "graphs.is_melonic.busy_s": ("s", "lower"),
    "wick.enumerate_histogram.busy_s": ("s", "lower"),
    "wick.enumerate_histogram.pairings": ("count", "lower"),
    "wick.enumerate_histogram.pairings_per_s": ("1/s", "higher"),
    "wick.expectation_poly.self_s": ("s", "lower"),
    "wick.cumulant_poly.self_s": ("s", "lower"),
    "partitions.cumulants_from_moments.busy_s": ("s", "lower"),
    "montecarlo.cycle_distribution.exact.busy_s": ("s", "lower"),
    "montecarlo.cycle_distribution.exact.matchings_per_s": ("1/s", "higher"),
    "montecarlo.cycle_distribution.sample.busy_s": ("s", "lower"),
    "montecarlo.cycle_distribution.sample.samples_per_s": ("1/s", "higher"),
    "montecarlo.verify_expectation_bound.busy_s": ("s", "lower"),
    "numeric.mc_moment.busy_s": ("s", "lower"),
    "numeric.mc_moment.samples_per_s": ("1/s", "higher"),
    "numeric.mc_moment.batches": ("count", "lower"),
    "numeric.mc_moment.bytes_drawn": ("bytes-computed", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.gen.wall_s": ("s", "lower"),
    "cli.scaling.wall_s": ("s", "lower"),
    "cli.expect.wall_s": ("s", "lower"),
    "cli.cumulant.wall_s": ("s", "lower"),
    "cli.factorize.wall_s": ("s", "lower"),
    "cli.melonic.wall_s": ("s", "lower"),
    "cli.mc-cycles.wall_s": ("s", "lower"),
    "cli.thresholds.wall_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "cli.subprocesses": ("count", "lower"),
    "bench.tracing_overhead_frac": ("fraction", "lower"),
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Library per-layer values: busy and self seconds per traced round, work
    counts of round 0 (fixed for a seed), and rates over all traced rounds."""
    own = self_times(spans)
    busy: dict[str, float] = {}
    selfs: dict[str, float] = {}
    work: dict[str, float] = {}
    first: dict[str, float] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        selfs[s.name] = selfs.get(s.name, 0.0) + own[s.id]
        keys = {s.name + ".calls": 1, s.name + ".refused": int(s.refused)}
        keys.update({f"{s.name}.{k}": v for k, v in s.work.items()})
        for key, v in keys.items():
            work[key] = work.get(key, 0) + v
            if s.round == 0:
                first[key] = first.get(key, 0) + v

    def per_round(table, name):
        return table.get(name, 0.0) / rounds

    fv = "wick.factorization_verdict"
    hist = "wick.enumerate_histogram"
    exact = "montecarlo.cycle_distribution.exact"
    sample = "montecarlo.cycle_distribution.sample"
    mc = "numeric.mc_moment"
    fv_calls = work.get(fv + ".calls", 0)
    out = {
        f"wick.max_scaling.{k}.busy_s": per_round(busy, f"wick.max_scaling.{k}")
        for k in ("d3", "d4", "connected")
    }
    out["wick.max_scaling.calls"] = sum(
        first.get(f"wick.max_scaling.{k}.calls", 0) for k in ("d3", "d4", "connected")
    )
    out[fv + ".busy_s"] = per_round(busy, fv)
    out[fv + ".refused"] = first.get(fv + ".refused", 0)
    out[fv + ".completed_frac"] = (
        1 - work.get(fv + ".refused", 0) / fv_calls if fv_calls else 0.0
    )
    for name in ("wick.subadditivity_check", "graphs.is_melonic", hist,
                 "partitions.cumulants_from_moments", exact, sample,
                 "montecarlo.verify_expectation_bound", mc):
        out[name + ".busy_s"] = per_round(busy, name)
    for name in ("wick.expectation_poly", "wick.cumulant_poly"):
        out[name + ".self_s"] = per_round(selfs, name)
    out[hist + ".pairings"] = first.get(hist + ".pairings", 0)
    out[hist + ".pairings_per_s"] = _rate(work.get(hist + ".pairings", 0), busy.get(hist, 0))
    out[exact + ".matchings_per_s"] = _rate(work.get(exact + ".matchings", 0), busy.get(exact, 0))
    out[sample + ".samples_per_s"] = _rate(work.get(sample + ".samples", 0), busy.get(sample, 0))
    out[mc + ".samples_per_s"] = _rate(work.get(mc + ".samples", 0), busy.get(mc, 0))
    out[mc + ".batches"] = first.get(mc + ".batches", 0)
    out[mc + ".bytes_drawn"] = first.get(mc + ".bytes_drawn", 0)
    return out
