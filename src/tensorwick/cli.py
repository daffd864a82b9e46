"""Command-line front end: one subcommand per library operation, JSON out.

Structured output goes to stdout (or --out) only; human-readable summaries
go to stderr so pipelines stay clean.  Every report echoes its effective
configuration, seed included, making any run replayable from its own
output.  Exit codes: 0 success, 1 negative verdict (e.g. a graph that does
not factorize), 2 input or budget errors.  All flags can be overridden via
TENSORWICK_<COMMAND>_<FLAG> environment variables.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import faces as faces_mod
from . import graphs as graphs_mod
from . import montecarlo as mc_mod
from . import numeric as num_mod
from . import wick as wick_mod


class CliError(click.ClickException):
    exit_code = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_graph(graph: str | None, inline: str | None) -> graphs_mod.ColoredGraph:
    if (graph is None) == (inline is None):
        raise CliError("provide exactly one of --graph or --inline")
    text = inline if inline is not None else _read_text(graph)
    try:
        return graphs_mod.parse_graph(text)
    except graphs_mod.GraphFormatError as exc:
        raise CliError(f"malformed graph: {exc}") from exc


def _load_graphs(paths: tuple[str, ...], inline: tuple[str, ...]):
    if not paths and not inline:
        raise CliError("provide at least one --graph or --inline")
    out = []
    for p in paths:
        out.append(_load_graph(p, None))
    for s in inline:
        out.append(_load_graph(None, s))
    return out


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise CliError(f"bad pair token {token!r}; expected 'u-v'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if not pairs:
        raise CliError("no pairs given")
    return pairs


def _parse_nu(text: str | None, D: int) -> Fraction:
    if text is None:
        return Fraction(D - 1)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from exc


def _emit(command: str, config: dict, payload: dict, out: str | None, summary: str, code: int = 0):
    doc = {"command": command, "config": config}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        click.echo(text, nl=False)
    click.echo(summary, err=True)
    click.get_current_context().exit(code)


def _guard(fn):
    """Map library errors onto exit code 2 with a clean diagnostic."""

    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (wick_mod.BudgetExceeded, graphs_mod.GraphFormatError, ValueError) as exc:
            raise CliError(str(exc)) from exc

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


_graph_opt = click.option("--graph", type=str, default=None, help="graph file (JSON or text line), '-' for stdin")
_inline_opt = click.option("--inline", type=str, default=None, help="inline graph string")
_out_opt = click.option("--out", type=str, default=None, help="write the JSON report here instead of stdout")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True, help="RNG seed")


@click.group()
def main():
    """Exact pairing combinatorics and Monte Carlo checks for tensor invariants."""


@main.command()
@click.option("--d", type=int, default=3, show_default=True, help="number of colors")
@click.option("--n", type=int, default=2, show_default=True, help="half the vertex count")
@click.option("--melonic", is_flag=True, help="grow a melonic graph instead of a uniform one")
@click.option("--insertions", type=int, default=2, show_default=True, help="insertions for --melonic")
@_seed_opt
@_out_opt
@_guard
def gen(d, n, melonic, insertions, seed, out):
    """Generate a random graph (uniform, or melonic via random insertions)."""
    if melonic:
        g = graphs_mod.random_melonic_graph(d, insertions, seed)
    else:
        g = graphs_mod.random_colored_graph(d, n, seed)
    config = {"d": d, "n": n, "melonic": melonic, "insertions": insertions, "seed": seed}
    _emit(
        "gen",
        config,
        graphs_mod.graph_to_json_dict(g),
        out,
        f"generated {g.D}-colored graph on {2 * g.n} vertices",
    )


@main.command()
@_graph_opt
@_inline_opt
@_out_opt
@_guard
def melonic(graph, inline, out):
    """Recognize melonic graphs; exit 1 when the graph is not melonic."""
    g = _load_graph(graph, inline)
    rep = graphs_mod.is_melonic(g)
    payload = {
        "is_melonic": rep.is_melonic,
        "reduction_trace": [list(p) for p in rep.reduction_trace],
        "canonical_pairing": (
            [list(p) for p in rep.canonical_pairing.pairs]
            if rep.canonical_pairing is not None
            else None
        ),
    }
    _emit(
        "melonic",
        {"graph": graph or "inline"},
        payload,
        out,
        "melonic" if rep.is_melonic else "not melonic",
        0 if rep.is_melonic else 1,
    )


@main.command()
@_graph_opt
@_inline_opt
@click.option("--pairs", type=str, required=True, help="partial pairing, e.g. '0-3,1-2'")
@_out_opt
@_guard
def boundary(graph, inline, pairs, out):
    """Boundary graph left after absorbing a partial pairing."""
    g = _load_graph(graph, inline)
    absorbed = graphs_mod.Matching(_parse_pairs(pairs), 2 * g.n)
    bg, labels = faces_mod.boundary_graph(g, absorbed)
    payload = graphs_mod.graph_to_json_dict(bg)
    payload["vertex_map"] = list(labels)
    _emit(
        "boundary",
        {"graph": graph or "inline", "pairs": pairs},
        payload,
        out,
        f"boundary graph on {2 * bg.n} vertices",
    )


@main.command()
@_graph_opt
@_inline_opt
@click.option("--pairing", type=str, required=True, help="perfect pairing, e.g. '0-1,2-3'")
@_out_opt
@_guard
def faces(graph, inline, pairing, out):
    """Per-color face counts of a pairing against the graph."""
    g = _load_graph(graph, inline)
    m0 = graphs_mod.Matching(_parse_pairs(pairing), 2 * g.n)
    fc = faces_mod.total_faces(m0, g)
    _emit(
        "faces",
        {"graph": graph or "inline", "pairing": pairing},
        fc.to_json_dict(),
        out,
        f"total faces {fc.total}, omega {fc.omega}",
    )


@main.command()
@_graph_opt
@_inline_opt
@click.option("--connected-only", is_flag=True, help="restrict to component-joining pairings")
@click.option("--budget", type=int, default=wick_mod.DEFAULT_NODE_BUDGET, help="search node budget")
@_out_opt
@_guard
def scaling(graph, inline, connected_only, budget, out):
    """Maximal face count over pairings, with multiplicity and witness."""
    g = _load_graph(graph, inline)
    rep = wick_mod.max_scaling(g, connected_only=connected_only, node_budget=budget)
    _emit(
        "scaling",
        {
            "graph": graph or "inline",
            "connected_only": connected_only,
            "budget": budget,
        },
        rep.to_json_dict(),
        out,
        f"F_max {rep.F_max} attained by {rep.num_optimal} pairing(s)"
        + ("" if rep.exact else " [lower bound: budget hit]"),
    )


def _poly_command(kind):
    @_graph_opt
    @_inline_opt
    @click.option("--nu", type=str, default=None, help="covariance exponent, rational [default: D-1]")
    @click.option("--budget", type=int, default=wick_mod.DEFAULT_HISTOGRAM_CAP, help="enumeration cap on n")
    @_out_opt
    @_guard
    def cmd(graph, inline, nu, budget, out):
        g = _load_graph(graph, inline)
        nu_f = _parse_nu(nu, g.D)
        fn = wick_mod.expectation_poly if kind == "expect" else wick_mod.cumulant_poly
        poly = fn(g, nu=nu_f, budget=budget)
        payload = {"polynomial": poly.to_triples(), "nu": str(nu_f), "n": poly.n}
        _emit(
            kind,
            {"graph": graph or "inline", "nu": str(nu_f), "budget": budget},
            payload,
            out,
            f"{len(poly.terms)} term(s), leading exponent "
            + (str(poly.leading_exponent()) if poly.terms else "none"),
        )

    cmd.__name__ = kind
    return cmd


main.command(name="expect", help="Exact Gaussian expectation as a polynomial in N.")(
    _poly_command("expect")
)
main.command(name="cumulant", help="Connected expectation (cumulant) as a polynomial in N.")(
    _poly_command("cumulant")
)


@main.command()
@click.option("--graph", "graph_paths", type=str, multiple=True, help="graph file, repeatable")
@click.option("--inline", "inline_strs", type=str, multiple=True, help="inline graph, repeatable")
@click.option("--budget", type=int, default=wick_mod.DEFAULT_NODE_BUDGET, help="search node budget")
@_out_opt
@_guard
def subadd(graph_paths, inline_strs, budget, out):
    """Strict-subadditivity check of the connected scaling; exit 1 if violated."""
    gs = _load_graphs(graph_paths, inline_strs)
    rep = wick_mod.subadditivity_check(gs, node_budget=budget)
    _emit(
        "subadd",
        {"graphs": list(graph_paths) + ["inline"] * len(inline_strs), "budget": budget},
        rep.to_json_dict(),
        out,
        f"lhs {rep.lhs} vs rhs {rep.rhs}: "
        + ("strictly subadditive" if rep.strict_subadditive else "NOT subadditive"),
        0 if rep.strict_subadditive else 1,
    )


@main.command()
@_graph_opt
@_inline_opt
@click.option("--nu", type=str, default=None, help="covariance exponent, rational [default: D-1]")
@click.option("--budget", type=int, default=wick_mod.DEFAULT_NODE_BUDGET, help="search node budget")
@_out_opt
@_guard
def factorize(graph, inline, nu, budget, out):
    """Does the squared invariant factorize at large N?  Exit 1 if it does not."""
    g = _load_graph(graph, inline)
    nu_f = _parse_nu(nu, g.D)
    rep = wick_mod.factorization_verdict(g, nu=nu_f, node_budget=budget)
    _emit(
        "factorize",
        {"graph": graph or "inline", "nu": str(nu_f), "budget": budget},
        rep.to_json_dict(),
        out,
        "factorizes" if rep.factorizes else "DOES NOT factorize",
        0 if rep.factorizes else 1,
    )


@main.command()
@_graph_opt
@_inline_opt
@_out_opt
@_guard
def euler3(graph, inline, out):
    """Bicolored Euler count for 3 colors; exit 1 when not planar."""
    g = _load_graph(graph, inline)
    rep = faces_mod.euler_d3(g)
    _emit(
        "euler3",
        {"graph": graph or "inline"},
        rep.to_json_dict(),
        out,
        f"total {rep.total}, chi {rep.chi}, "
        + ("planar" if rep.is_planar else "NOT planar"),
        0 if rep.is_planar else 1,
    )


@main.command(name="mc-cycles")
@click.option("--n", type=int, required=True, help="half the vertex count")
@click.option("--samples", type=int, default=None, help="sample count; omit for exact enumeration")
@_seed_opt
@_out_opt
@_guard
def mc_cycles(n, samples, seed, out):
    """Cycle-length and face-count distribution of a random matching."""
    dist = mc_mod.cycle_distribution(n, samples=samples, seed=seed if samples else None)
    _emit(
        "mc-cycles",
        {"n": n, "samples": samples, "seed": seed},
        dist.to_json_dict(),
        out,
        f"{dist.mode} distribution over {dist.total} matchings",
    )


@main.command(name="mc-bound")
@click.option("--n", type=int, required=True, help="half the vertex count")
@click.option("--m", type=int, required=True, help="base of m**F; needs m >= 2n")
@click.option("--samples", type=int, default=None, help="sample count; omit for exact")
@_seed_opt
@_out_opt
@_guard
def mc_bound(n, m, samples, seed, out):
    """E[m**F] against the binomial bound C(m+n-1, m-1)."""
    rep = mc_mod.verify_expectation_bound(n, m, samples=samples, seed=seed if samples else None)
    _emit(
        "mc-bound",
        {"n": n, "m": m, "samples": samples, "seed": seed},
        rep.to_json_dict(),
        out,
        f"E[m^F] = {float(rep.value):.6g} vs bound {rep.bound}: "
        + ("holds" if rep.holds else "VIOLATED"),
    )


@main.command()
@click.option("--d", type=int, required=True, help="number of colors")
@click.option("--epsilon", type=float, default=0.01, show_default=True)
@_out_opt
@_guard
def thresholds(d, epsilon, out):
    """Sizes at which the probabilistic counterexample argument applies."""
    rep = mc_mod.threshold_report(d, epsilon)
    _emit(
        "thresholds",
        {"d": d, "epsilon": epsilon},
        rep.to_json_dict(),
        out,
        f"n_epsilon {rep.n_epsilon}, n_gap {rep.n_gap}",
    )


@main.command()
@click.option("--d", type=int, default=3, show_default=True)
@click.option("--n", type=int, required=True, help="half the vertex count")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--budget", type=int, default=wick_mod.DEFAULT_NODE_BUDGET, help="search node budget")
@click.option("--csv", "csv_path", type=str, default=None, help="also write the F_max histogram as CSV")
@_seed_opt
@_out_opt
@_guard
def search(d, n, trials, budget, csv_path, seed, out):
    """Sample random graphs and hunt for scaling violators."""
    rep = mc_mod.counterexample_search(d, n, trials, seed, node_budget=budget)
    payload = {
        "f_max_histogram": {str(k): v for k, v in sorted(rep.f_max_histogram.items())},
        "lemma_violations": [
            {
                "trial": v.trial,
                "graph": graphs_mod.graph_to_json_dict(v.graph),
                "scaling": v.scaling.to_json_dict(),
                "components": [c.to_json_dict() for c in v.components],
            }
            for v in rep.lemma_violations
        ],
        "a_bound_violations": list(rep.a_bound_violations),
        "inexact_trials": rep.inexact_trials,
        "component_envelope_ok": rep.component_envelope_ok,
    }
    if csv_path:
        try:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(rep.f_max_csv())
        except OSError as exc:
            raise CliError(f"cannot write {csv_path}: {exc}") from exc
    _emit(
        "search",
        {"d": d, "n": n, "trials": trials, "seed": seed, "budget": budget},
        payload,
        out,
        f"{len(rep.lemma_violations)} threshold violator(s) in {trials} trials",
    )


@main.command(name="mc-moment")
@click.option("--graph", "graph_paths", type=str, multiple=True, help="graph file, repeatable")
@click.option("--inline", "inline_strs", type=str, multiple=True, help="inline graph, repeatable")
@click.option("--dim", type=int, required=True, help="tensor dimension N")
@click.option("--nu", type=str, default=None, help="covariance exponent [default: D-1]")
@click.option("--samples", type=int, default=100_000, show_default=True)
@_seed_opt
@_out_opt
@_guard
def mc_moment(graph_paths, inline_strs, dim, nu, samples, seed, out):
    """Monte Carlo joint moment of the invariants of the given graphs."""
    gs = _load_graphs(graph_paths, inline_strs)
    nu_f = _parse_nu(nu, gs[0].D)
    est = num_mod.mc_moment(gs, dim, nu_f, samples, seed)
    _emit(
        "mc-moment",
        {
            "graphs": list(graph_paths) + ["inline"] * len(inline_strs),
            "dim": dim,
            "nu": str(nu_f),
            "samples": samples,
            "seed": seed,
        },
        est.to_json_dict(),
        out,
        f"mean {est.mean:.6g} +- {est.standard_error:.2g}",
    )


@main.command()
@_graph_opt
@_inline_opt
@click.option("--dim", type=int, default=3, show_default=True, help="tensor dimension N")
@_seed_opt
@_out_opt
@_guard
def invariance(graph, inline, dim, seed, out):
    """Relative change of the invariant under random orthogonal rotations."""
    g = _load_graph(graph, inline)
    dev = num_mod.orthogonal_invariance_check(g, dim, seed)
    _emit(
        "invariance",
        {"graph": graph or "inline", "dim": dim, "seed": seed},
        {"relative_deviation": dev},
        out,
        f"relative deviation {dev:.3e}",
    )


def run():
    main(auto_envvar_prefix="TENSORWICK")


if __name__ == "__main__":
    run()
