"""Exact Wick-pairing combinatorics and Monte Carlo checks for Gaussian random tensors.

Every module but `numeric` is imported here.  `numeric`, and numpy with it,
loads on first use of `tensorwick.numeric` or of one of its names, so the
exact paths and most CLI commands never import numpy.
"""

import importlib as _importlib

from .faces import (
    EulerReport,
    FaceCount,
    boundary_graph,
    count_bicolored_cycles,
    euler_d3,
    total_faces,
)
from .graphs import (
    ColoredGraph,
    GraphFormatError,
    Matching,
    MelonicReport,
    connected_components,
    consecutive_pairing,
    copy_pairing,
    count_matchings,
    disjoint_union,
    graph_from_json,
    graph_from_text,
    graph_to_json,
    graph_to_text,
    is_melonic,
    melon_insert,
    new_dipole,
    parse_graph,
    random_colored_graph,
    random_melonic_graph,
    random_perfect_matching,
)
from .montecarlo import (
    CycleDistribution,
    SearchReport,
    ThresholdReport,
    closed_form_cycle_probabilities,
    counterexample_search,
    cycle_distribution,
    threshold_report,
    verify_expectation_bound,
)
from .partitions import (
    SetPartition,
    bell_number,
    cumulants_from_moments,
    mobius_coefficient,
    moments_from_cumulants,
    set_partitions,
)
from .wick import (
    BudgetExceeded,
    ExpectationPoly,
    FaceHistogram,
    ScalingReport,
    cumulant_poly,
    enumerate_histogram,
    expectation_poly,
    factorization_verdict,
    lemma_condition,
    max_scaling,
    subadditivity_check,
)

_NUMERIC_NAMES = (
    "MomentEstimate",
    "TensorData",
    "evaluate_trace_invariant",
    "mc_moment",
    "orthogonal_invariance_check",
    "sample_gaussian_tensor",
)


def __getattr__(name):
    # import_module, not `from . import numeric`: the latter asks the package
    # for the attribute first, which would call this function again
    if name == "numeric" or name in _NUMERIC_NAMES:
        numeric = _importlib.import_module(".numeric", __name__)
        return numeric if name == "numeric" else getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["numeric", *_NUMERIC_NAMES]
