"""Command-line front end: one subcommand per library operation, JSON out.

Structured output goes to stdout (or --out) only; human-readable summaries
go to stderr so pipelines stay clean.  Every report's "config" block holds
the parsed options under their flag names (--connected-only as
connected_only), every option but --out, with inline graphs and the seed
included.  null means the option was not given and took its default; for
--nu that is D-1, and the payload carries the value used.  Passing each
entry back as its flag replays the run, except one that read a graph from
stdin (--graph -) or from a file that has changed since.  Exit codes: 0
success, 1 negative verdict (e.g. a graph that does not factorize), 2 input
or budget errors.  All flags can be overridden via
TENSORWICK_<COMMAND>_<FLAG> environment variables.
"""

from __future__ import annotations

import functools
import json
import sys
from decimal import Decimal
from fractions import Fraction

import click

from . import faces as faces_mod
from . import graphs as graphs_mod
from . import montecarlo as mc_mod
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
    pairs = graphs_mod.parse_pairs(text)
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


def _emit(payload: dict, summary: str, code: int = 0):
    ctx = click.get_current_context()
    out = ctx.params["out"]
    config = {k: v for k, v in ctx.params.items() if k != "out"}
    doc = {"command": ctx.command.name, "config": config}
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
    ctx.exit(code)


_seed_opt = click.option("--seed", type=int, default=0, show_default=True, help="RNG seed")
_nu_opt = click.option("--nu", type=str, default=None, help="covariance exponent, rational [default: D-1]")
_node_budget_opt = click.option(
    "--budget", type=int, default=wick_mod.DEFAULT_NODE_BUDGET, help="search node budget"
)
_histogram_cap_opt = click.option(
    "--budget", type=int, default=wick_mod.DEFAULT_HISTOGRAM_CAP, help="enumeration cap on n"
)


class _Lines(click.types.StringParamType):
    """A string option whose environment variable holds one value per line.

    Click splits a repeatable option's environment value on whitespace,
    which would cut a text graph ("3 1 | 0-1 ; ...") into pieces.  Blank
    lines are skipped.
    """

    envvar_list_splitter = "\n"

    def split_envvar_value(self, rv: str) -> list[str]:
        return [line for line in super().split_envvar_value(rv) if line.strip()]


@click.group()
def main():
    """Exact pairing combinatorics and Monte Carlo checks for tensor invariants."""


def _command(graphs: str | None = None):
    """Register a subcommand that writes one report with _emit.

    Adds --out, and maps library errors onto exit code 2 with a clean
    diagnostic.  graphs="one" adds --graph/--inline and passes the loaded
    graph as the first argument; graphs="many" makes both repeatable, with
    one entry per line in their environment variables, and passes the list
    of loaded graphs.
    """

    def register(fn):
        @functools.wraps(fn)
        def guarded(out, graph=None, inline=None, **options):
            # out is read back from the context by _emit
            try:
                if graphs == "one":
                    return fn(_load_graph(graph, inline), **options)
                if graphs == "many":
                    return fn(_load_graphs(graph, inline), **options)
                return fn(**options)
            except (wick_mod.BudgetExceeded, graphs_mod.GraphFormatError, ValueError) as exc:
                raise CliError(str(exc)) from exc

        cmd = main.command()(guarded)
        many = graphs == "many"
        kind = _Lines() if many else str
        sources = [
            click.Option(["--graph"], type=kind, multiple=many, help="graph file (JSON or text line), '-' for stdin"),
            click.Option(["--inline"], type=kind, multiple=many, help="inline graph string"),
        ]
        out_opt = click.Option(["--out"], type=str, default=None, help="write the JSON report here instead of stdout")
        cmd.params = [*(sources if graphs else []), *cmd.params, out_opt]
        return cmd

    return register


@_command()
@click.option("--d", type=int, default=3, show_default=True, help="number of colors")
@click.option("--n", type=int, default=2, show_default=True, help="half the vertex count")
@click.option("--melonic", is_flag=True, help="grow a melonic graph instead of a uniform one")
@click.option("--insertions", type=int, default=2, show_default=True, help="insertions for --melonic")
@_seed_opt
def gen(d, n, melonic, insertions, seed):
    """Generate a random graph (uniform, or melonic via random insertions)."""
    if melonic:
        g = graphs_mod.random_melonic_graph(d, insertions, seed)
    else:
        g = graphs_mod.random_colored_graph(d, n, seed)
    _emit(graphs_mod.graph_to_json_dict(g), f"generated {g.D}-colored graph on {2 * g.n} vertices")


@_command(graphs="one")
def melonic(g):
    """Recognize melonic graphs; exit 1 when the graph is not melonic."""
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
        payload,
        "melonic" if rep.is_melonic else "not melonic",
        0 if rep.is_melonic else 1,
    )


@_command(graphs="one")
@click.option("--pairs", type=str, required=True, help="partial pairing, e.g. '0-3,1-2'")
def boundary(g, pairs):
    """Boundary graph left after absorbing a partial pairing."""
    absorbed = graphs_mod.Matching(_parse_pairs(pairs), 2 * g.n)
    bg, labels = faces_mod.boundary_graph(g, absorbed)
    payload = graphs_mod.graph_to_json_dict(bg)
    payload["vertex_map"] = list(labels)
    _emit(payload, f"boundary graph on {2 * bg.n} vertices")


@_command(graphs="one")
@click.option("--pairing", type=str, required=True, help="perfect pairing, e.g. '0-1,2-3'")
def faces(g, pairing):
    """Per-color face counts of a pairing against the graph."""
    m0 = graphs_mod.Matching(_parse_pairs(pairing), 2 * g.n)
    fc = faces_mod.total_faces(m0, g)
    _emit(fc.to_json_dict(), f"total faces {fc.total}, omega {fc.omega}")


@_command(graphs="one")
@click.option("--connected-only", is_flag=True, help="restrict to component-joining pairings")
@_node_budget_opt
def scaling(g, connected_only, budget):
    """Maximal face count over pairings, with multiplicity and witness."""
    rep = wick_mod.max_scaling(g, connected_only=connected_only, node_budget=budget)
    _emit(
        rep.to_json_dict(),
        f"F_max {rep.F_max} attained by {rep.num_optimal} pairing(s)"
        + ("" if rep.exact else " [lower bound: budget hit]"),
    )


def _emit_poly(fn, g, nu, budget):
    nu_f = _parse_nu(nu, g.D)
    poly = fn(g, nu=nu_f, budget=budget)
    _emit(
        {"polynomial": poly.to_triples(), "nu": str(nu_f), "n": poly.n},
        f"{len(poly.terms)} term(s), leading exponent "
        + (str(poly.leading_exponent()) if poly.terms else "none"),
    )


@_command(graphs="one")
@_nu_opt
@_histogram_cap_opt
def expect(g, nu, budget):
    """Exact Gaussian expectation as a polynomial in N."""
    _emit_poly(wick_mod.expectation_poly, g, nu, budget)


@_command(graphs="one")
@_nu_opt
@_histogram_cap_opt
def cumulant(g, nu, budget):
    """Connected expectation (cumulant) as a polynomial in N."""
    _emit_poly(wick_mod.cumulant_poly, g, nu, budget)


@_command(graphs="many")
@_node_budget_opt
def subadd(gs, budget):
    """Strict-subadditivity check of the connected scaling; exit 1 if violated."""
    rep = wick_mod.subadditivity_check(gs, node_budget=budget)
    _emit(
        rep.to_json_dict(),
        f"lhs {rep.lhs} vs rhs {rep.rhs}: "
        + ("strictly subadditive" if rep.strict_subadditive else "NOT subadditive"),
        0 if rep.strict_subadditive else 1,
    )


@_command(graphs="one")
@_nu_opt
@_node_budget_opt
def factorize(g, nu, budget):
    """Does the squared invariant factorize at large N?  Exit 1 if it does not."""
    rep = wick_mod.factorization_verdict(g, nu=_parse_nu(nu, g.D), node_budget=budget)
    verdict = "factorizes" if rep.factorizes else "DOES NOT factorize"
    value = "the exact maximum" if rep.pair_exact else "a lower bound"
    _emit(
        rep.to_json_dict(),
        f"{verdict}: single F_max {rep.single_F_max}, certificate pairing of "
        f"G u G closes {rep.pair_connected_F_max} faces ({value})",
        0 if rep.factorizes else 1,
    )


@_command(graphs="one")
def euler3(g):
    """Bicolored Euler count for 3 colors; exit 1 when not planar."""
    rep = faces_mod.euler_d3(g)
    _emit(
        rep.to_json_dict(),
        f"total {rep.total}, chi {rep.chi}, "
        + ("planar" if rep.is_planar else "NOT planar"),
        0 if rep.is_planar else 1,
    )


@_command()
@click.option("--n", type=int, required=True, help="half the vertex count")
@click.option("--samples", type=int, default=None, help="sample count; omit for the exact closed form")
@_seed_opt
def mc_cycles(n, samples, seed):
    """Cycle-length and face-count distribution of a random matching."""
    dist = mc_mod.cycle_distribution(n, samples=samples, seed=seed if samples else None)
    _emit(dist.to_json_dict(), f"{dist.mode} distribution over {dist.total} matchings")


def _approx(x) -> str:
    """x to 6 significant digits, also past the float range."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        return f"{Decimal(x.numerator) / x.denominator:.6g}"


@_command()
@click.option("--n", type=int, required=True, help="half the vertex count")
@click.option("--m", type=int, required=True, help="base of m**F; needs m >= 2n")
@click.option("--samples", type=int, default=None, help="sample count; omit for the exact closed form")
@_seed_opt
def mc_bound(n, m, samples, seed):
    """E[m**F] against the binomial bound C(m+n-1, m-1)."""
    rep = mc_mod.verify_expectation_bound(n, m, samples=samples, seed=seed if samples else None)
    _emit(
        rep.to_json_dict(),
        f"E[m^F] = {_approx(rep.value)} vs bound {rep.bound}: "
        + ("holds" if rep.holds else "VIOLATED"),
    )


@_command()
@click.option("--d", type=int, required=True, help="number of colors")
@click.option("--epsilon", type=float, default=0.01, show_default=True)
def thresholds(d, epsilon):
    """Sizes at which the probabilistic counterexample argument applies."""
    rep = mc_mod.threshold_report(d, epsilon)
    _emit(rep.to_json_dict(), f"n_epsilon {rep.n_epsilon}, n_gap {rep.n_gap}")


@_command()
@click.option("--d", type=int, default=3, show_default=True)
@click.option("--n", type=int, required=True, help="half the vertex count")
@click.option("--trials", type=int, default=100, show_default=True)
@_node_budget_opt
@click.option("--csv", type=str, default=None, help="also write the F_max histogram as CSV")
@_seed_opt
def search(d, n, trials, budget, csv, seed):
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
    if csv:
        try:
            with open(csv, "w", encoding="utf-8") as fh:
                fh.write(rep.f_max_csv())
        except OSError as exc:
            raise CliError(f"cannot write {csv}: {exc}") from exc
    _emit(payload, f"{len(rep.lemma_violations)} threshold violator(s) in {trials} trials")


@_command(graphs="many")
@click.option("--dim", type=int, required=True, help="tensor dimension N")
@_nu_opt
@click.option("--samples", type=int, default=100_000, show_default=True)
@_seed_opt
def mc_moment(gs, dim, nu, samples, seed):
    """Monte Carlo joint moment of the invariants of the given graphs."""
    from . import numeric  # the only commands that need numpy import it here

    est = numeric.mc_moment(gs, dim, _parse_nu(nu, gs[0].D), samples, seed)
    _emit(est.to_json_dict(), f"mean {est.mean:.6g} +- {est.standard_error:.2g}")


@_command(graphs="one")
@click.option("--dim", type=int, default=3, show_default=True, help="tensor dimension N")
@_seed_opt
def invariance(g, dim, seed):
    """Relative change of the invariant under random orthogonal rotations."""
    from . import numeric

    dev = numeric.orthogonal_invariance_check(g, dim, seed)
    _emit({"relative_deviation": dev}, f"relative deviation {dev:.3e}")


def run():
    main(auto_envvar_prefix="TENSORWICK")


if __name__ == "__main__":
    run()
