import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import tensorwick
from tensorwick.cli import main

DIPOLE = "3 1 | 0-1 ; 0-1 ; 0-1"
MELON = "3 2 | 0-1,2-3 ; 0-2,1-3 ; 0-1,2-3"
SIX_CYCLIC = "3 3 | 0-1,2-3,4-5 ; 1-2,3-4,0-5 ; 0-2,1-4,3-5"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_gen_is_deterministic_and_echoes_seed():
    a = run("gen", "--melonic", "--insertions", "2", "--seed", "7")
    b = run("gen", "--melonic", "--insertions", "2", "--seed", "7")
    assert a.exit_code == 0
    assert a.stdout == b.stdout  # byte identical
    doc = json.loads(a.stdout)
    assert doc["config"]["seed"] == 7
    assert doc["command"] == "gen"
    assert doc["vertices"] == 6
    c = run("gen", "--melonic", "--insertions", "2", "--seed", "8")
    assert c.stdout != a.stdout


def test_gen_pipes_into_analysis_commands():
    gen = run("gen", "--melonic", "--insertions", "2", "--seed", "3")
    for cmd in (
        ["melonic"],
        ["scaling"],
        ["expect"],
        ["cumulant"],
        ["euler3"],
        ["factorize"],
        ["faces", "--pairing", "0-1,2-3,4-5"],
        ["boundary", "--pairs", "0-1"],
        ["mc-moment", "--dim", "2", "--samples", "200"],
        ["invariance", "--dim", "2"],
    ):
        res = run(*cmd, "--graph", "-", input=gen.stdout)
        assert res.exit_code == 0, (cmd, res.stderr)
        json.loads(res.stdout)  # structured output parses


def test_scaling_report_shape():
    res = run("scaling", "--inline", MELON)
    doc = json.loads(res.stdout)
    assert doc["F_max"] == 5
    assert doc["num_optimal"] == 1
    assert doc["omega_min"] == 0
    assert doc["witness"] == [[0, 1], [2, 3]]


def test_expect_polynomial_triples():
    res = run("expect", "--inline", DIPOLE, "--nu", "2")
    doc = json.loads(res.stdout)
    assert doc["polynomial"] == [[1, 1, 1]]
    assert doc["nu"] == "2"
    res = run("cumulant", "--inline", MELON, "--nu", "2")
    assert json.loads(res.stdout)["polynomial"] == [[1, 1, 1], [0, 1, 1], [-1, 1, 1]]


def test_verdict_exit_codes():
    assert run("melonic", "--inline", MELON).exit_code == 0
    assert run("melonic", "--inline", SIX_CYCLIC).exit_code == 1
    assert run("euler3", "--inline", MELON).exit_code == 0
    assert run("euler3", "--inline", SIX_CYCLIC).exit_code == 1
    assert run("factorize", "--inline", MELON).exit_code == 0
    assert (
        run("subadd", "--inline", DIPOLE, "--inline", DIPOLE).exit_code == 0
    )


def test_input_errors_exit_2():
    assert run("scaling", "--inline", "garbage").exit_code == 2
    assert run("scaling").exit_code == 2  # neither --graph nor --inline
    assert run("scaling", "--graph", "/no/such/file").exit_code == 2
    assert run("nonsense").exit_code == 2
    bad_color = "3 2 | 0-1,2-3 ; 0-2,1-3 ; 0-1"
    res = run("melonic", "--inline", bad_color)
    assert res.exit_code == 2
    assert "color 3" in res.stderr
    res = run("melonic", "--inline", '{"D": 1, "vertices": 2, "matchings": 5}')
    assert res.exit_code == 2
    assert "matchings must be a list" in res.stderr
    res = run("melonic", "--inline", '{"D": 1e400, "vertices": 2, "matchings": [[[0,1]]]}')
    assert res.exit_code == 2
    assert "is not an integer" in res.stderr
    # histogram budget refusal
    res = run("expect", "--inline", MELON, "--budget", "1")
    assert res.exit_code == 2
    # a node budget below one is an input error
    res = run("scaling", "--inline", MELON, "--budget", "-3")
    assert res.exit_code == 2
    assert "node budget must be at least 1, got -3" in res.stderr
    # a dimension below 1 is an input error, not a negative verdict
    dipole = "3 1 | 0-1 ; 0-1 ; 0-1"
    res = run("mc-moment", "--inline", dipole, "--dim", "0", "--samples", "10")
    assert res.exit_code == 2
    assert "need N >= 1" in res.stderr
    res = run("invariance", "--inline", dipole, "--dim", "0")
    assert res.exit_code == 2
    assert "need N >= 1" in res.stderr
    res = run("mc-bound", "--n", "3", "--m", "6", "--samples", "1")
    assert res.exit_code == 2
    assert "at least two samples" in res.stderr


def test_mc_bound_past_the_float_range():
    # E[m^F] is about 5.9e312 here: value is null, value_exact stays exact
    res = run("mc-bound", "--n", "520", "--m", "1040")
    assert res.exit_code == 0

    def no_constants(name):
        raise AssertionError(f"non-finite JSON constant {name}")

    doc = json.loads(res.stdout, parse_constant=no_constants)
    assert doc["value"] is None
    value = Fraction(doc["value_exact"])
    assert value == math.prod(Fraction(1040 + 2 * i, 2 * i + 1) for i in range(520))
    assert doc["holds"] and value <= doc["bound"]
    assert "E[m^F] = 5.89068e+312" in res.stderr


def test_faces_and_boundary():
    res = run("faces", "--inline", MELON, "--pairing", "0-1,2-3")
    doc = json.loads(res.stdout)
    assert doc["total"] == 5 and doc["omega"] == 0
    res = run("boundary", "--inline", MELON, "--pairs", "0-1")
    doc = json.loads(res.stdout)
    assert doc["vertices"] == 2
    assert doc["vertex_map"] == [2, 3]


def test_subadd_report():
    res = run("subadd", "--inline", MELON, "--inline", MELON)
    doc = json.loads(res.stdout)
    assert doc["lhs"] == 7 and doc["rhs"] == 10
    assert doc["strict_subadditive"] is True
    assert doc["self_pairing_bound"] == 6


def test_mc_commands():
    res = run("mc-cycles", "--n", "2")
    doc = json.loads(res.stdout)
    assert doc["face_histogram"] == {"1": 2, "2": 1}
    res = run("mc-cycles", "--n", "9")  # exact, like every n
    assert res.exit_code == 0
    assert json.loads(res.stdout)["total"] == 34_459_425
    res = run("mc-cycles", "--n", "3", "--samples", "500", "--seed", "4")
    assert json.loads(res.stdout)["total"] == 500

    res = run("mc-bound", "--n", "2", "--m", "4")
    doc = json.loads(res.stdout)
    assert doc["value_exact"] == "8" and doc["bound"] == 10 and doc["holds"]

    res = run("thresholds", "--d", "3", "--epsilon", "0.01")
    doc = json.loads(res.stdout)
    assert doc["n_epsilon"] == 18

    res = run("search", "--d", "3", "--n", "2", "--trials", "10", "--seed", "1")
    doc = json.loads(res.stdout)
    assert sum(doc["f_max_histogram"].values()) == 10
    assert doc["component_envelope_ok"] is True

    res = run(
        "mc-moment", "--inline", DIPOLE, "--dim", "2", "--nu", "2",
        "--samples", "20000", "--seed", "5",
    )
    doc = json.loads(res.stdout)
    assert abs(doc["mean"] - 2.0) < 5 * doc["standard_error"]
    assert doc["config"]["seed"] == 5

    res = run("invariance", "--inline", MELON, "--dim", "3", "--seed", "2")
    assert json.loads(res.stdout)["relative_deviation"] < 1e-9


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    res = run("scaling", "--inline", DIPOLE, "--out", str(target))
    assert res.exit_code == 0
    assert res.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["F_max"] == 3


def test_search_csv_export(tmp_path):
    target = tmp_path / "fmax.csv"
    res = run(
        "search", "--d", "3", "--n", "2", "--trials", "12", "--seed", "0",
        "--csv", str(target),
    )
    assert res.exit_code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "F_max,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 12


def test_env_var_override():
    plain = run("gen", "--melonic", "--seed", "0")
    overridden = run(
        "gen", "--melonic",
        env={"TENSORWICK_GEN_SEED": "7"},
        auto_envvar_prefix="TENSORWICK",
    )
    explicit = run("gen", "--melonic", "--seed", "7")
    assert overridden.stdout == explicit.stdout
    assert overridden.stdout != plain.stdout


def test_repeatable_graph_env_vars_take_one_graph_per_line(tmp_path):
    # text graphs and one-line JSON hold spaces, so click's default
    # whitespace split of a repeatable option's environment value breaks them
    dipole_json = json.dumps(
        {"D": 3, "vertices": 2, "matchings": [[[0, 1]], [[0, 1]], [[0, 1]]]}
    )
    path = tmp_path / "melon graph.txt"
    path.write_text(MELON)
    cases = [
        ("subadd", [], [MELON, dipole_json]),
        ("mc-moment", ["--dim", "2", "--samples", "200", "--seed", "4"], [DIPOLE, MELON]),
    ]
    for cmd, extra, inlines in cases:
        flags = []
        for text in inlines:
            flags += ["--inline", text]
        by_flags = run(cmd, "--graph", str(path), *flags, *extra)
        assert by_flags.exit_code in (0, 1), by_flags.stderr
        prefix = "TENSORWICK_" + cmd.upper().replace("-", "_")
        env = {
            prefix + "_GRAPH": f"{path}\n",
            prefix + "_INLINE": "\n".join(inlines) + "\n",
        }
        by_env = run(cmd, *extra, env=env, auto_envvar_prefix="TENSORWICK")
        assert by_env.exit_code == by_flags.exit_code, by_env.stderr
        assert by_env.stdout == by_flags.stdout


GRAPH = ("--graph", None, False, False, False)
INLINE = ("--inline", None, False, False, False)
GRAPHS = ("--graph", None, True, False, False)
INLINES = ("--inline", None, True, False, False)
SEED = ("--seed", 0, False, False, False)
OUT = ("--out", None, False, False, False)
NODE_BUDGET = ("--budget", 20_000_000, False, False, False)

# Every subcommand's options in declaration order, as
# (flags, default, multiple, is_flag, required).
SURFACE = {
    "boundary": [GRAPH, INLINE, ("--pairs", None, False, False, True), OUT],
    "cumulant": [GRAPH, INLINE, ("--nu", None, False, False, False), ("--budget", 10, False, False, False), OUT],
    "euler3": [GRAPH, INLINE, OUT],
    "expect": [GRAPH, INLINE, ("--nu", None, False, False, False), ("--budget", 10, False, False, False), OUT],
    "faces": [GRAPH, INLINE, ("--pairing", None, False, False, True), OUT],
    "factorize": [GRAPH, INLINE, ("--nu", None, False, False, False), NODE_BUDGET, OUT],
    "gen": [
        ("--d", 3, False, False, False),
        ("--n", 2, False, False, False),
        ("--melonic", False, False, True, False),
        ("--insertions", 2, False, False, False),
        SEED,
        OUT,
    ],
    "invariance": [GRAPH, INLINE, ("--dim", 3, False, False, False), SEED, OUT],
    "mc-bound": [
        ("--n", None, False, False, True),
        ("--m", None, False, False, True),
        ("--samples", None, False, False, False),
        SEED,
        OUT,
    ],
    "mc-cycles": [("--n", None, False, False, True), ("--samples", None, False, False, False), SEED, OUT],
    "mc-moment": [
        GRAPHS,
        INLINES,
        ("--dim", None, False, False, True),
        ("--nu", None, False, False, False),
        ("--samples", 100_000, False, False, False),
        SEED,
        OUT,
    ],
    "melonic": [GRAPH, INLINE, OUT],
    "scaling": [GRAPH, INLINE, ("--connected-only", False, False, True, False), NODE_BUDGET, OUT],
    "search": [
        ("--d", 3, False, False, False),
        ("--n", None, False, False, True),
        ("--trials", 100, False, False, False),
        NODE_BUDGET,
        ("--csv", None, False, False, False),
        SEED,
        OUT,
    ],
    "subadd": [GRAPHS, INLINES, NODE_BUDGET, OUT],
    "thresholds": [("--d", None, False, False, True), ("--epsilon", 0.01, False, False, False), OUT],
}


def test_cli_surface_is_pinned():
    surface = {}
    for name, cmd in main.commands.items():
        rows = []
        for p in cmd.params:
            info = p.to_info_dict()
            rows.append(
                (" ".join(p.opts), info["default"], p.multiple, info["is_flag"], p.required)
            )
        surface[name] = rows
    assert surface == SURFACE


# the package's public names, submodules included; a removal edits this list
PUBLIC_API = [
    "BudgetExceeded", "ColoredGraph", "CycleDistribution", "EulerReport",
    "ExpectationPoly", "FaceCount", "FaceHistogram", "GraphFormatError",
    "Matching", "MelonicReport", "MomentEstimate", "ScalingReport",
    "SearchReport", "SetPartition", "TensorData", "ThresholdReport",
    "bell_number", "boundary_graph", "closed_form_cycle_probabilities",
    "connected_components", "consecutive_pairing", "copy_pairing",
    "count_bicolored_cycles", "count_matchings", "counterexample_search",
    "cumulant_poly", "cumulants_from_moments", "cycle_distribution",
    "disjoint_union", "enumerate_histogram", "euler_d3",
    "evaluate_trace_invariant", "expectation_poly", "faces",
    "factorization_verdict", "graph_from_json", "graph_from_text",
    "graph_to_json", "graph_to_text", "graphs", "is_melonic",
    "lemma_condition", "max_scaling", "mc_moment", "melon_insert",
    "mobius_coefficient", "moments_from_cumulants", "montecarlo",
    "new_dipole", "numeric", "orthogonal_invariance_check", "parse_graph",
    "partitions", "random_colored_graph", "random_melonic_graph",
    "random_perfect_matching", "sample_gaussian_tensor", "set_partitions",
    "subadditivity_check", "threshold_report", "total_faces",
    "verify_expectation_bound", "wick",
]


def test_public_api_is_pinned():
    assert sorted(tensorwick.__all__) == PUBLIC_API


# runs in a fresh interpreter: pytest's own process may have numpy loaded
LAZY_NUMERIC = """
import sys
import tensorwick, tensorwick.cli
tensorwick.cli.main(["thresholds", "--d", "3"], standalone_mode=False)
assert "numpy" not in sys.modules, "numpy loaded without a numeric command"
assert tensorwick.mc_moment is tensorwick.numeric.mc_moment
names = {}
exec("from tensorwick import *", names)
missing = set(tensorwick.__all__) - set(names)
assert not missing, missing
"""


def test_numpy_loads_only_with_numeric():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", LAZY_NUMERIC], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr


def _args_from_config(config):
    args = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            args.append(flag)
        elif isinstance(value, list):
            for item in value:
                args += [flag, str(item)]
        else:
            args += [flag, str(value)]
    return args


def test_every_report_replays_from_its_config(tmp_path):
    cases = [
        ["gen", "--melonic", "--insertions", "2", "--seed", "7"],
        ["melonic", "--inline", MELON],
        ["boundary", "--inline", MELON, "--pairs", "0-1"],
        ["faces", "--inline", MELON, "--pairing", "0-1,2-3"],
        ["scaling", "--inline", SIX_CYCLIC, "--connected-only"],
        ["expect", "--inline", DIPOLE, "--nu", "2"],
        ["cumulant", "--inline", MELON],
        ["subadd", "--inline", DIPOLE, "--inline", MELON],
        ["factorize", "--inline", MELON, "--nu", "1/2"],
        ["euler3", "--inline", SIX_CYCLIC],
        ["mc-cycles", "--n", "3", "--samples", "50", "--seed", "4"],
        ["mc-bound", "--n", "2", "--m", "5"],
        ["thresholds", "--d", "4", "--epsilon", "0.05"],
        ["search", "--n", "2", "--trials", "5", "--seed", "3", "--csv", str(tmp_path / "f.csv")],
        ["mc-moment", "--inline", DIPOLE, "--inline", DIPOLE, "--dim", "2", "--samples", "200", "--seed", "1"],
        ["invariance", "--inline", MELON, "--dim", "2", "--seed", "3"],
    ]
    assert sorted(args[0] for args in cases) == sorted(main.commands)
    for args in cases:
        first = run(*args)
        assert first.exit_code in (0, 1), (args, first.stderr)
        doc = json.loads(first.stdout)
        again = run(doc["command"], *_args_from_config(doc["config"]))
        assert again.exit_code == first.exit_code, (args, again.stderr)
        assert again.stdout == first.stdout, args
