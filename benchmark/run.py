"""Run one tensorwick benchmark workload and print its metrics.

From the root of a checkout:

    python3 benchmark/run.py --workload search --seed 1 --seconds 20 --trace 0

One process runs the workload as a closed loop: one caller waits on each op
before starting the next, as a researcher's script does.  Rounds of a fixed
op mix repeat on fresh inputs drawn from --seed until the time spent in ops
reaches --seconds.  Every answer is checked against an oracle outside the
timed region.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are its per-layer ones, from a run in
which every round runs once traced and once untraced.  The line before it
records the environment, the tail percentile used and any failures.

Exit status: 0 when every answer was right, 1 on a wrong answer, 2 when
the program cannot be imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-ups timed per run, spread evenly over its op time so that they sample
# the same stretches of machine speed as the ops do.
SETUP_REPEATS = 9
STARTUP_REPEATS = 5
# Candidate tail percentiles, highest first; the first with ten samples beyond
# it, and not above the workload's own tail percentile, is used.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "answered_frac": "fraction",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """tensorwick cannot be imported from this checkout."""


def load_program():
    """Import tensorwick from SRC, never from a copy installed elsewhere."""
    if not (SRC / "tensorwick" / "__init__.py").is_file():
        raise ProgramMissing(f"no tensorwick package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tensorwick

    if Path(tensorwick.__file__).resolve().parent != (SRC / "tensorwick").resolve():
        raise ProgramMissing(f"tensorwick was imported from {tensorwick.__file__}")
    return tensorwick


def subprocess_env(base: dict) -> dict:
    """The caller's environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), base.get("PYTHONPATH")) if p)
    return env


@dataclass
class OpResult:
    kind: str
    wall: float
    status: str  # "ok", "refused" or "wrong"
    detail: str = ""
    library_s: Optional[float] = None


def run_op(op, tracer=None) -> OpResult:
    """Time one op, then check its answer outside the timed region."""
    from tensorwick.wick import BudgetExceeded
    from workloads import Refused, WrongAnswer

    start = time.perf_counter()
    try:
        if tracer is None:
            value = op.call()
        else:
            with tracer.op(op.kind):
                value = op.call()
    except BudgetExceeded as exc:
        return OpResult(op.kind, time.perf_counter() - start, "refused", str(exc))
    except Exception as exc:  # any other error is a failed answer, reported below
        return OpResult(op.kind, time.perf_counter() - start, "wrong", repr(exc))
    wall = time.perf_counter() - start
    try:
        return OpResult(op.kind, wall, "ok", library_s=op.check(value))
    except Refused as exc:
        return OpResult(op.kind, wall, "refused", str(exc))
    except WrongAnswer as exc:
        return OpResult(op.kind, wall, "wrong", str(exc))
    except Exception as exc:  # a malformed answer can break the check itself
        return OpResult(op.kind, wall, "wrong", repr(exc))


@dataclass
class Measurement:
    rounds: int
    untraced_rounds: list  # the untraced results, one list per round
    traced: list

    @property
    def untraced(self) -> list:
        return [r for rs in self.untraced_rounds for r in rs]


def measure(
    workload, seed: int, seconds: float, ctx, tracer=None, setups: Optional[list] = None
) -> Measurement:
    """Whole rounds until op time reaches ``seconds`` (at least one round).

    With a tracer every round runs twice on equal fresh inputs, traced and
    untraced, alternating which goes first.  Another round starts only while
    half a mean round still fits, so a run lands near ``seconds``.  With a
    ``setups`` list, SETUP_REPEATS set-ups are timed into it between rounds,
    the first before any op and the others spread evenly over the op time.
    """
    m = Measurement(0, [], [])
    busy = 0.0

    def setups_due(until: float) -> None:
        while setups is not None and len(setups) < SETUP_REPEATS:
            if len(setups) * seconds / SETUP_REPEATS > until:
                return
            setups.append(time_setup(workload, seed, ctx))

    while m.rounds == 0 or busy + busy / m.rounds / 2 < seconds:
        setups_due(busy)
        passes = (False,) if tracer is None else ((False, True), (True, False))[m.rounds % 2]
        for traced in passes:
            ops = workload.build(seed, m.rounds, ctx)
            if traced:
                with tracer.installed(m.rounds):
                    results = [run_op(op, tracer) for op in ops]
                m.traced += results
            else:
                results = [run_op(op) for op in ops]
                m.untraced_rounds.append(results)
            busy += sum(r.wall for r in results)
        m.rounds += 1
    setups_due(float("inf"))
    return m


def time_setup(workload, seed: int, ctx) -> float:
    """One set-up: the import in a fresh interpreter, then round-0 input
    generation and the warm-up calls in this process.  The import runs in the
    environment of the process that pays for it: the user's for the CLI
    subprocesses, this process's, with BLAS capped, otherwise."""
    cli = workload.module == "tensorwick.cli"
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER.format(module=workload.module)],
        cwd=ROOT,
        env=ctx.user_env if cli else subprocess_env(dict(os.environ)),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    start = time.perf_counter()
    workload.build(seed, 0, ctx)
    workload.warmup(ctx)
    return float(child.stdout) + time.perf_counter() - start


def tail(walls: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest TAIL_LADDER
    percentile up to ``cap`` with TAIL_BEYOND samples beyond it, linearly
    interpolated."""
    xs = sorted(walls)
    k = len(xs)
    pct = next(
        (p for p in TAIL_LADDER if p <= cap and k * (100 - p) / 100 >= TAIL_BEYOND), 50.0
    )
    pos = pct / 100 * (k - 1)
    lo = int(pos)
    hi = min(lo + 1, k - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return pct, value, sum(1 for x in xs if x > value)


def peak_rss_mb(workload_name: str) -> float:
    """High-water RSS of the process running the workload: the CLI
    subprocesses for ``cli``, this process otherwise (ru_maxrss is in KiB)."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name: str, workload, m: Measurement, setup: list[float]) -> tuple[dict, dict]:
    """Rate and median are taken per round, then the median over rounds, so a
    stretch of slow machine that covers fewer than half of the rounds does not
    move them.  Every round has the same op mix; rounds differ in inputs only."""
    rounds = [[r.wall for r in rs] for rs in m.untraced_rounds]
    walls = [w for ws in rounds for w in ws]
    pct, tail_s, beyond = tail(walls, workload.tail_percentile)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(len(ws) / sum(ws) for ws in rounds),
        "op_p50_ms": statistics.median(statistics.median(ws) for ws in rounds) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "answered_frac": sum(r.status == "ok" for r in m.untraced) / len(walls),
        "peak_rss_mb": peak_rss_mb(name),
    }
    record = {"tail_percentile": pct, "tail_beyond": beyond, "samples": len(walls)}
    return values, record


def cli_layer(m: Measurement, ctx) -> dict:
    """CLI per-layer values from the traced passes: mean wall per subcommand,
    mean wall minus in-process library time, and a --help start-up."""
    from workloads import cli_command

    out = {}
    for kind in dict.fromkeys(r.kind for r in m.traced):
        walls = [r.wall for r in m.traced if r.kind == kind]
        out[f"cli.{kind}.wall_s"] = statistics.mean(walls)
    answered = [r for r in m.traced if r.library_s is not None]
    if answered:
        out["cli.overhead_s"] = statistics.mean(r.wall - r.library_s for r in answered)
    startups = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        cli_command(ctx, ["--help"]).check_returncode()
        startups.append(time.perf_counter() - start)
    out["cli.startup_s"] = statistics.mean(startups)
    out["cli.subprocesses"] = len(m.traced) // m.rounds
    return out


def per_layer(name: str, m: Measurement, tracer, ctx) -> dict:
    import tracing

    values = dict.fromkeys(tracing.PER_LAYER, 0.0)
    values.update(tracing.layer_metrics(tracer.spans, m.rounds))
    if name == "cli":
        values.update(cli_layer(m, ctx))
    traced = sum(r.wall for r in m.traced)
    untraced = sum(r.wall for r in m.untraced)
    values["bench.tracing_overhead_frac"] = 1 - untraced / traced
    return values


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "exact", "sampling", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, user_env: Optional[dict] = None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"benchmark: cannot load tensorwick: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    load_start = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(ROOT, subprocess_env(os.environ if user_env is None else user_env))
    setup: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    # Set-up is an end-to-end metric; a traced run does not time it.
    m = measure(workload, args.seed, args.seconds, ctx, tracer, None if args.trace else setup)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "composition": workload.composition,
        "rounds": m.rounds,
        "setup_s_each": setup,
        "environment": environment(),
    }
    if args.trace:
        values = per_layer(args.workload, m, tracer, ctx)
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values, tail_record = end_to_end(args.workload, workload, m, setup)
        units = END_TO_END
        record.update(tail_record)
    results = m.untraced + m.traced
    failures = [r for r in results if r.status != "ok"]
    wrong = [r for r in failures if r.status == "wrong"]
    record["failures"] = Counter(f"{r.kind}:{r.status}" for r in failures)
    record["loadavg_start"] = load_start
    record["loadavg_end"] = os.getloadavg()
    for r in wrong[:10]:
        print(f"benchmark: wrong answer from {r.kind}: {r.detail}", file=sys.stderr)
    if args.trace:
        fields = ("id", "name", "start", "end", "parent", "op", "round", "refused")
        spans = [[getattr(s, f) for f in fields] for s in tracer.spans]
        print(json.dumps({"span_fields": fields, "spans": spans}))
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    # The benchmark process itself stays single-threaded in BLAS; CLI
    # subprocesses get the caller's environment, as a user's shell would.
    caller_env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main(user_env=caller_env))
