"""Alternating-cycle (face) counting, boundary graphs, and the 3-color Euler check.

A face of a pair of perfect matchings A, B is a connected component of the
union multigraph A + B; every component is an even cycle whose edges
alternate between the two, and a pair shared by A and B counts as one
2-cycle.  Face counts against a pairing drive every scaling computation in
this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import ColoredGraph, Matching


def count_bicolored_cycles(A: Matching, B: Matching) -> int:
    """Number of cycles alternating between the perfect matchings A and B."""
    if A.ground_size != B.ground_size:
        raise ValueError(
            f"ground sets differ: {A.ground_size} vs {B.ground_size}"
        )
    if not (A.is_perfect and B.is_perfect):
        raise ValueError("both matchings must be perfect")
    pa = A.partner_array()
    pb = B.partner_array()
    two_n = A.ground_size
    seen = bytearray(two_n)
    cycles = 0
    for start in range(two_n):
        if seen[start]:
            continue
        cycles += 1
        v = start
        while not seen[v]:
            seen[v] = 1
            w = pa[v]
            seen[w] = 1
            v = pb[w]
    return cycles


@dataclass(frozen=True)
class FaceCount:
    """Per-color face counts of a pairing against a graph.

    omega is the distance from the scaling bound: 1 + (D-1)n - total for a
    connected graph, D - (D-1)q + (D-1)n - total when the graph has q > 1
    components but the pairing joins everything into one piece.  When both
    the graph and the joined graph are disconnected no formula applies and
    omega is None.
    """

    per_color: tuple[int, ...]
    total: int
    omega: Optional[int]
    g_connected: bool
    q: int

    def to_json_dict(self) -> dict:
        return {
            "per_color": list(self.per_color),
            "total": self.total,
            "omega": self.omega,
            "g_connected": self.g_connected,
            "components": self.q,
        }


def scaling_defect(G: ColoredGraph, total: int, g_connected: bool) -> Optional[int]:
    """omega for a given total face count, or None where no formula applies."""
    _, q = G.component_ids()
    D, n = G.D, G.n
    if q == 1:
        return 1 + (D - 1) * n - total
    if g_connected:
        return D - (D - 1) * q + (D - 1) * n - total
    return None


def total_faces(M0: Matching, G: ColoredGraph) -> FaceCount:
    """Face counts of the pairing M0 against every color of G, plus omega."""
    if M0.ground_size != 2 * G.n or not M0.is_perfect:
        raise ValueError("M0 must be a perfect matching on the graph's vertices")
    per_color = tuple(count_bicolored_cycles(M0, m) for m in G.matchings)
    total = sum(per_color)
    g_conn = ColoredGraph((*G.matchings, M0)).is_connected
    _, q = G.component_ids()
    return FaceCount(per_color, total, scaling_defect(G, total, g_conn), g_conn, q)


# ---------------------------------------------------------------------------
# boundary graphs: the alternating paths a partial pairing leaves


def boundary_graph(
    G: ColoredGraph, partial: Matching
) -> tuple[ColoredGraph, tuple[int, ...]]:
    """The graph induced on the free vertices by alternating-path endpoints.

    For each color, a free vertex u is paired with the other endpoint of the
    maximal path through u that alternates between that color and the pairs
    of the partial matching.  Absorbing a pair (u, v) either closes one cycle
    of a color (when u and v already bound the same path) or splices two
    paths into one.

    Returns the boundary graph with dense labels together with the map from
    new labels back to G's labels: the free vertices in ascending order.  The
    partial matching must leave at least one pair of vertices free.
    """
    if partial.ground_size != 2 * G.n:
        raise ValueError("partial matching lives on a different ground set")
    if len(partial) >= G.n:
        raise ValueError("partial matching absorbs every vertex; no boundary is left")
    boundary = [list(p) for p in G.partner_arrays()]
    for u, v in partial.pairs:
        for b in boundary:
            # when pu == v the pair closes a cycle and both stores are no-ops
            pu, pv = b[u], b[v]
            b[pu] = pv
            b[pv] = pu
    labels = tuple(w for w, p in enumerate(partial.partner_array()) if p < 0)
    index = {orig: new for new, orig in enumerate(labels)}
    ms = [
        Matching([(index[u], index[b[u]]) for u in labels if u < b[u]], len(labels))
        for b in boundary
    ]
    return ColoredGraph(ms), labels


# ---------------------------------------------------------------------------
# Euler count for three colors


@dataclass(frozen=True)
class EulerReport:
    """Bicolored face total over the three color pairs of a 3-colored graph.

    With 2n vertices and 3n edges the embedded Euler characteristic is
    total - n, and the graph is planar (sphere-like for the coloring's
    embedding) exactly when total = n + 2q.
    """

    pair_faces: tuple[int, int, int]  # color pairs (1,2), (1,3), (2,3)
    total: int
    chi: int
    q: int
    is_planar: bool

    def to_json_dict(self) -> dict:
        return {
            "pair_faces": {
                "1,2": self.pair_faces[0],
                "1,3": self.pair_faces[1],
                "2,3": self.pair_faces[2],
            },
            "total": self.total,
            "chi": self.chi,
            "components": self.q,
            "is_planar": self.is_planar,
        }


def euler_d3(G: ColoredGraph) -> EulerReport:
    if G.D != 3:
        raise ValueError(f"Euler check needs exactly 3 colors, got {G.D}")
    m1, m2, m3 = G.matchings
    faces = (
        count_bicolored_cycles(m1, m2),
        count_bicolored_cycles(m1, m3),
        count_bicolored_cycles(m2, m3),
    )
    total = sum(faces)
    _, q = G.component_ids()
    return EulerReport(faces, total, total - G.n, q, total == G.n + 2 * q)
