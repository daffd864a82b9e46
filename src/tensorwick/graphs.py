"""Edge-colored graphs: D perfect matchings on a shared set of 2n labelled vertices.

A graph with D colors is stored as an ordered tuple of perfect matchings,
one per color c = 1..D, over the dense vertex labels 0..2n-1.  Matchings of
different colors may contain the same pair, so multi-edges are first class.
Equality compares the ordered color lists, so relabelled or recolored
copies of a graph are different graphs.  The one isomorphism quotient in
the package is the internal `wick._boundary_code`, on whose classes of
boundary graphs `wick._histogram` memoizes its sum.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Pair = tuple[int, int]


class GraphFormatError(ValueError):
    """A serialized graph failed to parse or validate."""


def _integral(x) -> int:
    """int(x), refusing any number (inf and nan too) that int() would change.

    A string is parsed by int(), so "1" is read as 1 and "1.5" refused.
    """
    try:
        n = int(x)
    except (OverflowError, ValueError):
        n = None
    if n is None or not isinstance(x, str) and n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def _normalize_pair(u: int, v: int) -> Pair:
    u = _integral(u)
    v = _integral(v)
    if u == v:
        raise ValueError(f"pair ({u}, {v}) joins a vertex to itself")
    return (u, v) if u < v else (v, u)


class Matching:
    """Disjoint unordered vertex pairs on the ground set 0..ground_size-1.

    A matching is perfect when it covers every vertex.  Partial matchings
    are allowed; faces.boundary_graph takes one as the pairs it absorbs.
    Instances are immutable and hashable.
    """

    __slots__ = ("pairs", "ground_size", "_partner", "_hash")

    def __init__(self, pairs: Iterable[Sequence[int]], ground_size: int):
        ground_size = _integral(ground_size)
        if ground_size < 0:
            raise ValueError("ground_size must be non-negative")
        norm = sorted(_normalize_pair(u, v) for u, v in pairs)
        seen: set[int] = set()
        for u, v in norm:
            for w in (u, v):
                if not 0 <= w < ground_size:
                    raise ValueError(f"vertex {w} outside 0..{ground_size - 1}")
                if w in seen:
                    raise ValueError(f"vertex {w} appears in more than one pair")
                seen.add(w)
        object.__setattr__(self, "pairs", tuple(norm))
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "_partner", None)
        object.__setattr__(self, "_hash", hash((tuple(norm), ground_size)))

    def __setattr__(self, name, value):
        raise AttributeError("Matching is immutable")

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.pairs) == self.ground_size

    def partner_array(self) -> list[int]:
        """partner[v] of each matched vertex, -1 for uncovered ones.  Do not mutate."""
        if self._partner is None:
            p = [-1] * self.ground_size
            for u, v in self.pairs:
                p[u] = v
                p[v] = u
            object.__setattr__(self, "_partner", p)
        return self._partner

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        """Whether the matching holds pair; False for a pair no matching can hold."""
        try:
            u, v = pair
            u, v = _normalize_pair(u, v)
        except ValueError:
            return False
        return 0 <= u and v < self.ground_size and self.partner_array()[u] == v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matching)
            and self.ground_size == other.ground_size
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Matching({list(self.pairs)}, ground_size={self.ground_size})"


def consecutive_pairing(two_n: int) -> Matching:
    """The fixed reference pairing {{0,1},{2,3},...} on two_n vertices."""
    if two_n % 2 or two_n < 2:
        raise ValueError("two_n must be even and at least 2")
    return Matching([(i, i + 1) for i in range(0, two_n, 2)], two_n)


def copy_pairing(two_n: int) -> Matching:
    """Pair vertex i of a graph with vertex i + two_n of its disjoint copy.

    Ground set has 2 * two_n vertices; used to probe the scaling of the
    connected part of a squared invariant.
    """
    if two_n % 2 or two_n < 2:
        raise ValueError("two_n must be even and at least 2")
    return Matching([(i, i + two_n) for i in range(two_n)], 2 * two_n)


class ColoredGraph:
    """D perfect matchings (colors 1..D) on vertices 0..2n-1."""

    __slots__ = ("D", "n", "matchings", "_hash", "_partners", "_components")

    def __init__(self, matchings: Sequence[Matching]):
        ms = tuple(matchings)
        if not ms:
            raise ValueError("a colored graph needs at least one color")
        g = ms[0].ground_size
        if g < 2 or g % 2:
            raise ValueError(f"vertex count must be even and at least 2, got {g}")
        for c, m in enumerate(ms, start=1):
            if not isinstance(m, Matching):
                raise TypeError(f"color {c}: expected a Matching")
            if m.ground_size != g:
                raise ValueError(
                    f"color {c}: ground size {m.ground_size} differs from {g}"
                )
            if not m.is_perfect:
                raise ValueError(f"color {c}: matching is not perfect")
        object.__setattr__(self, "D", len(ms))
        object.__setattr__(self, "n", g // 2)
        object.__setattr__(self, "matchings", ms)
        object.__setattr__(self, "_hash", hash(ms))
        object.__setattr__(self, "_partners", None)
        object.__setattr__(self, "_components", None)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredGraph is immutable")

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    def matching(self, color: int) -> Matching:
        """The matching of a 1-based color."""
        if not 1 <= color <= self.D:
            raise ValueError(f"color {color} outside 1..{self.D}")
        return self.matchings[color - 1]

    def partner_arrays(self) -> tuple[list[int], ...]:
        """One partner array per color.  Shared caches; do not mutate."""
        if self._partners is None:
            object.__setattr__(
                self, "_partners", tuple(m.partner_array() for m in self.matchings)
            )
        return self._partners

    def component_ids(self) -> tuple[list[int], int]:
        """(component id per vertex, number of components), ids dense 0..q-1."""
        if self._components is None:
            two_n = 2 * self.n
            parent = list(range(two_n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for m in self.matchings:
                for u, v in m.pairs:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[rv] = ru
            ids = [-1] * two_n
            q = 0
            for v in range(two_n):
                r = find(v)
                if ids[r] < 0:
                    ids[r] = q
                    q += 1
                ids[v] = ids[r]
            object.__setattr__(self, "_components", (ids, q))
        return self._components

    @property
    def is_connected(self) -> bool:
        return self.component_ids()[1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ColoredGraph) and self.matchings == other.matchings

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ColoredGraph(D={self.D}, n={self.n})"


# ---------------------------------------------------------------------------
# construction


def new_dipole(D: int) -> ColoredGraph:
    """The two-vertex graph whose every color joins vertex 0 to vertex 1."""
    if D < 1:
        raise ValueError("need at least one color")
    m = Matching([(0, 1)], 2)
    return ColoredGraph([m] * D)


def melon_insert(G: ColoredGraph, color: int, edge: Sequence[int]) -> ColoredGraph:
    """Insert two fresh vertices joined by all colors except `color` on `edge`.

    The edge {a, b} of the stated color is split into {a, u} and {v, b} where
    u, v are the two new vertices 2n and 2n+1.  All other pairs survive, so
    the output stays melonic whenever the input is.
    """
    a, b = _normalize_pair(*edge)
    target = G.matching(color)
    if (a, b) not in set(target.pairs):
        raise ValueError(f"edge ({a}, {b}) is not in color {color}")
    two_n = 2 * G.n
    u, v = two_n, two_n + 1
    new = []
    for c, m in enumerate(G.matchings, start=1):
        pairs = list(m.pairs)
        if c == color:
            pairs.remove((a, b))
            pairs += [(a, u), (v, b)]
        else:
            pairs.append((u, v))
        new.append(Matching(pairs, two_n + 2))
    return ColoredGraph(new)


def _random_matching(two_n: int, rng: random.Random) -> Matching:
    verts = list(range(two_n))
    rng.shuffle(verts)
    return Matching(
        [(verts[i], verts[i + 1]) for i in range(0, two_n, 2)], two_n
    )


def random_perfect_matching(two_n: int, seed) -> Matching:
    """Uniform over all (2n)!/(2^n n!) perfect matchings; deterministic per seed."""
    if two_n < 2 or two_n % 2:
        raise ValueError(f"two_n must be even and at least 2, got {two_n}")
    return _random_matching(two_n, random.Random(seed))


def random_colored_graph(D: int, n: int, seed) -> ColoredGraph:
    """D independent uniform perfect matchings on 2n labelled vertices.

    This is the uniform distribution on all edge D-colored graphs with
    labelled vertices; deterministic given the seed.
    """
    if D < 1 or n < 1:
        raise ValueError("need D >= 1 and n >= 1")
    rng = random.Random(seed)
    return ColoredGraph([_random_matching(2 * n, rng) for _ in range(D)])


def random_melonic_graph(D: int, insertions: int, seed) -> ColoredGraph:
    """A connected melonic graph grown by `insertions` random insertions from the dipole."""
    if insertions < 0:
        raise ValueError("insertions must be non-negative")
    rng = random.Random(seed)
    g = new_dipole(D)
    for _ in range(insertions):
        color = rng.randrange(D) + 1
        edge = rng.choice(g.matching(color).pairs)
        g = melon_insert(g, color, edge)
    return g


def count_matchings(n: int) -> int:
    """(2n)! / (2^n n!), the number of perfect matchings on 2n points."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return math.factorial(2 * n) // (2**n * math.factorial(n))


# ---------------------------------------------------------------------------
# structure


def disjoint_union(G1: ColoredGraph, G2: ColoredGraph) -> ColoredGraph:
    """Colorwise union with G2's vertices shifted up by 2 * G1.n."""
    if G1.D != G2.D:
        raise ValueError(f"color counts differ: {G1.D} vs {G2.D}")
    shift = 2 * G1.n
    total = shift + 2 * G2.n
    ms = []
    for m1, m2 in zip(G1.matchings, G2.matchings):
        pairs = list(m1.pairs) + [(u + shift, v + shift) for u, v in m2.pairs]
        ms.append(Matching(pairs, total))
    return ColoredGraph(ms)


def connected_components(
    G: ColoredGraph,
) -> list[tuple[ColoredGraph, tuple[int, ...]]]:
    """Split into standalone graphs with dense labels plus the original-label map.

    Each entry is (component, labels) where labels[new_vertex] is the vertex's
    label in G.  Components are ordered by their smallest original vertex.
    """
    ids, q = G.component_ids()
    if q == 1:
        return [(G, tuple(range(2 * G.n)))]
    members: list[list[int]] = [[] for _ in range(q)]
    for v, c in enumerate(ids):
        members[c].append(v)
    members.sort(key=lambda vs: vs[0])
    out = []
    for vs in members:
        index = {orig: new for new, orig in enumerate(vs)}
        ms = []
        for m in G.matchings:
            pairs = [(index[u], index[v]) for u, v in m.pairs if u in index]
            ms.append(Matching(pairs, len(vs)))
        out.append((ColoredGraph(ms), tuple(vs)))
    return out


def splice(partners: Sequence[list[int]], u: int, v: int) -> int:
    """Absorb the pair (u, v) into every color's alternating paths.

    partners[c] pairs the two ends of each of color c's paths (a graph's
    partner arrays before any pair is absorbed).  Where u and v end the
    same path the pair closes it into a face; otherwise the paths ending at
    u and v are joined, so their far ends become partners.  Returns the
    number of faces closed.  partners[c][u] and [v] keep their old values,
    which is what lets unsplice undo the step.
    """
    closed = 0
    for p in partners:
        a = p[u]
        if a == v:
            closed += 1
        else:
            b = p[v]
            p[a] = b
            p[b] = a
    return closed


def unsplice(partners: Sequence[list[int]], u: int, v: int) -> None:
    """Undo splice(partners, u, v), the last splice still in effect."""
    for p in partners:
        a = p[u]
        if a != v:
            p[a] = u
            p[p[v]] = v


@dataclass(frozen=True)
class MelonicReport:
    """Outcome of the dipole-contraction recognizer.

    reduction_trace lists the contracted (D-1)-dipole pairs in contraction
    order; canonical_pairing adds the final dipole pair of each component,
    so it is a perfect matching whenever the graph is melonic.
    """

    is_melonic: bool
    reduction_trace: tuple[Pair, ...]
    canonical_pairing: Optional[Matching]


def is_melonic(G: ColoredGraph) -> MelonicReport:
    """Recognize melonic graphs by greedy contraction of (D-1)-dipoles.

    A pair of vertices joined by all D colors is a dipole component and gets
    peeled off; a pair joined by exactly D-1 colors is contracted, splicing
    the remaining color's two edges into one.  The graph is melonic iff this
    terminates with nothing left.  Contraction order does not change the
    verdict (a property test enforces this; it is not assumed blindly).
    Both steps splice the pair away; a peel closes D faces, a contraction
    D-1, and only contractions enter the trace.
    """
    if G.D < 2:
        raise ValueError("melonic recognition needs at least two colors")
    D = G.D
    two_n = 2 * G.n
    partner = [list(p) for p in G.partner_arrays()]
    alive = [True] * two_n
    trace: list[Pair] = []
    pairs: list[Pair] = []

    def find_pair() -> Optional[Pair]:
        # the first D-dipole, else the first (D-1)-dipole
        dipole = None
        for u in range(two_n):
            if not alive[u]:
                continue
            counts: dict[int, int] = {}
            for c in range(D):
                w = partner[c][u]
                counts[w] = counts.get(w, 0) + 1
            for w, k in counts.items():
                if u < w:
                    if k == D:
                        return (u, w)
                    if k == D - 1 and dipole is None:
                        dipole = (u, w)
        return dipole

    while len(pairs) < G.n:
        pair = find_pair()
        if pair is None:
            return MelonicReport(False, tuple(trace), None)
        u, v = pair
        if splice(partner, u, v) < D:
            trace.append(pair)
        alive[u] = alive[v] = False
        pairs.append(pair)
    return MelonicReport(True, tuple(trace), Matching(pairs, two_n))


# ---------------------------------------------------------------------------
# serialization: JSON schema and one-line text format


def graph_to_json_dict(G: ColoredGraph) -> dict:
    return {
        "D": G.D,
        "vertices": 2 * G.n,
        "matchings": [[list(p) for p in m.pairs] for m in G.matchings],
    }


def graph_to_json(G: ColoredGraph) -> str:
    return json.dumps(graph_to_json_dict(G), sort_keys=True)


def _graph_of_colors(blocks: Sequence, vertices: int, pairs_of) -> ColoredGraph:
    """One perfect Matching per block, from pairs_of(block); errors become GraphFormatError."""
    ms = []
    for c, block in enumerate(blocks, start=1):
        try:
            m = Matching(pairs_of(block), vertices)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"color {c}: {exc}") from exc
        if not m.is_perfect:
            raise GraphFormatError(f"color {c}: matching is not perfect")
        ms.append(m)
    try:
        return ColoredGraph(ms)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_from_json_dict(doc: dict) -> ColoredGraph:
    try:
        D = _integral(doc["D"])
        vertices = _integral(doc["vertices"])
        matchings = doc["matchings"]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"missing or malformed graph field: {exc}") from exc
    if not isinstance(matchings, list):
        raise GraphFormatError(
            f"matchings must be a list, found {type(matchings).__name__}"
        )
    if len(matchings) != D:
        raise GraphFormatError(
            f"expected {D} matchings, found {len(matchings)}"
        )
    return _graph_of_colors(matchings, vertices, lambda pairs: [tuple(p) for p in pairs])


def graph_from_json(text: str) -> ColoredGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph JSON must be an object")
    return graph_from_json_dict(doc)


def graph_to_text(G: ColoredGraph) -> str:
    """Compact one-line form: 'D n | u-v,u-v ; ... ' with one block per color."""
    blocks = " ; ".join(
        ",".join(f"{u}-{v}" for u, v in m.pairs) for m in G.matchings
    )
    return f"{G.D} {G.n} | {blocks}"


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Pairs from comma-separated 'u-v' tokens; empty tokens are skipped."""
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise GraphFormatError(f"bad pair token {token!r}; expected 'u-v'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from exc
    return pairs


def graph_from_text(line: str) -> ColoredGraph:
    head, sep, body = line.partition("|")
    if not sep:
        raise GraphFormatError("missing '|' separator between header and blocks")
    try:
        D, n = (int(t) for t in head.split())
    except ValueError as exc:
        raise GraphFormatError(f"header must be 'D n': {exc}") from exc
    blocks = [b.strip() for b in body.split(";")]
    if len(blocks) != D:
        raise GraphFormatError(f"expected {D} color blocks, found {len(blocks)}")
    return _graph_of_colors(blocks, 2 * n, parse_pairs)


def parse_graph(text: str) -> ColoredGraph:
    """Accept either the JSON schema or the one-line text format."""
    stripped = text.strip()
    if not stripped:
        raise GraphFormatError("empty graph input")
    if stripped.startswith("{"):
        return graph_from_json(stripped)
    return graph_from_text(stripped)
