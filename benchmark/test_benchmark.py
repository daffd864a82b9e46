"""Self-tests of the benchmark harness.

From the repository root:

    python3 -m pytest benchmark/test_benchmark.py

They take about two minutes: each runs single rounds of real workloads.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import run

run.load_program()

import tracing  # noqa: E402  (imports tensorwick, which load_program put on the path)
import workloads  # noqa: E402
from tensorwick import wick  # noqa: E402

# A traced op's library spans must account for its wall time to within this
# share plus SLACK_S; the rest is harness dispatch inside the op.
COVER_TOLERANCE = 0.05
SLACK_S = 0.002
COUNT_UNITS = ("count", "bytes-computed")


def _ctx() -> workloads.Context:
    return workloads.Context(run.ROOT, run.subprocess_env(dict(os.environ)))


def _main(capsys, *args) -> tuple[int, dict]:
    code = run.main(list(args))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_off_by_one_answer_is_caught_and_fails_the_command(monkeypatch, capsys):
    real = wick.max_scaling

    def off_by_one(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, F_max=rep.F_max + 1)

    monkeypatch.setattr(wick, "max_scaling", off_by_one)
    code, result = _main(capsys, "--workload", "search", "--seed", "3", "--seconds", "0")
    assert code == 1
    assert result["correct"] is False
    # Every op of the round reads max_scaling; the frontier ones are refused first.
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["answered_frac"]["value"] == 0


@pytest.mark.parametrize("name", ["exact", "sampling", "search"])
def test_self_times_sum_to_op_wall(name):
    tracer = tracing.Tracer()
    m = run.measure(workloads.WORKLOADS[name], 1, 0, _ctx(), tracer)
    assert all(r.status in ("ok", "refused") for r in m.traced)
    own = tracing.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == len(m.traced)
    for root in roots:
        inside = [s for s in tracer.spans if s.op == root.op and s.parent is not None]
        covered = sum(own[s.id] for s in inside)
        assert covered + own[root.id] == pytest.approx(root.duration, abs=1e-9)
        assert root.duration * (1 - COVER_TOLERANCE) - SLACK_S <= covered <= root.duration


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_work_counts_repeat_exactly(name, capsys):
    args = ("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1")
    first, second = (_main(capsys, *args) for _ in range(2))
    assert first[0] == second[0] == 0

    def counts(result):
        return {k: v["value"] for k, v in result[1]["metrics"].items() if v["unit"] in COUNT_UNITS}

    assert counts(first) == counts(second)
    expected_nonzero = {
        "search": ["wick.max_scaling.calls", "wick.factorization_verdict.refused"],
        "exact": ["wick.enumerate_histogram.pairings"],
        "sampling": ["numeric.mc_moment.batches", "numeric.mc_moment.bytes_drawn"],
        "cli": ["cli.subprocesses"],
    }[name]
    assert all(counts(first)[k] > 0 for k in expected_nonzero)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeds_change_the_graphs_but_not_the_mix(name):
    build = workloads.WORKLOADS[name].build

    def mix(ops):
        return sorted((op.kind, tuple((g.D, g.n) for g in op.inputs)) for op in ops)

    def inputs_of(ops):
        return [g for op in sorted(ops, key=lambda op: op.kind) for g in op.inputs]

    a, a_again, b = build(1, 0, _ctx()), build(1, 0, _ctx()), build(2, 0, _ctx())
    assert mix(a) == mix(b)
    assert inputs_of(a) == inputs_of(a_again)
    assert inputs_of(a) != inputs_of(b)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
