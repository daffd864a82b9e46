"""Exact Gaussian expectations of trace invariants via pairing enumeration.

The Gaussian expectation of the invariant of a D-colored graph is a sum
over all perfect pairings M0 of its 2n vertices of N**F(M0), where F is the
total face count of M0 against the D colors, divided by N**(nu*n).  The
connected part (classical cumulant) restricts the sum to pairings that join
all graph components into one piece.  Everything here is exact integer or
rational arithmetic; N never becomes a float.

One engine, `_scan`, serves both histograms and maximization.  It walks
pairings in canonical order (smallest free vertex first, partners
ascending), keeping per-color alternating-path endpoints as flat partner
arrays so each extension costs O(D): the splice of `graphs.splice`, which
the walk's inner loop writes inline.  The last two levels need no splice:
the last pair's vertices are the ends of every color's remaining path, so
it closes exactly D faces, and each of the three ways to pair the least of
four free vertices is scored from the boundary arrays alone.  Given a node
budget, the same walk becomes a branch and bound.  It starts from the
incumbent of one greedy descent, run on the walk's own state, and its ring
bound on the faces left to close never prunes a tie, so it counts every
optimal pairing and reports the lexicographically least witness (see
`_scan`).  With a target too, it is a decision search that stops at the
first pairing reaching the target, as the factorization verdict's pair
question does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .faces import scaling_defect
from .graphs import (
    ColoredGraph,
    Matching,
    copy_pairing,
    count_matchings,
    disjoint_union,
    splice,
    unsplice,
)

# refuse exhaustive sums past |M_10| = 654,729,075; a D = 3 histogram takes
# about 1.6 s at n = 8, 29 s at n = 9 and 9 minutes at n = 10 (extrapolated
# at 0.8 us per pairing, one core of a 2-core x86 host, Python 3.11)
DEFAULT_HISTOGRAM_CAP = 10
DEFAULT_NODE_BUDGET = 20_000_000


class BudgetExceeded(RuntimeError):
    """An exact computation was refused or truncated because of its size."""


class _Hit(Exception):
    """Unwinds a decision search from its first leaf that meets the target."""


# ---------------------------------------------------------------------------
# enumeration engine


def _scan(
    G: ColoredGraph,
    connected_only: bool,
    node_budget: Optional[int] = None,
    target: Optional[int] = None,
) -> tuple[dict[int, int], Optional[list[tuple[int, int]]], bool]:
    """Depth-first walk over the perfect pairings of G, in lexicographic order.

    Returns (counts, witness, exact).  counts maps each face count to the
    number of visited pairings attaining it (with connected_only, only
    pairings joining all q components count); witness is the first visited
    pairing of the largest face count, i.e. the lexicographically least one.

    The walk keeps one state: each color's alternating-path ends as partner
    arrays bnd, spliced and unspliced as pairs are placed; the free vertices
    as a doubly linked list; and a union-find over the components.

    Without node_budget every pairing is visited and counts is the full
    histogram; with connected_only, subtrees that can no longer join every
    component are skipped.  With a budget, every level of the walk counts
    as a node and a subtree is pruned when even its best completion falls
    short of best.  With r pairs to go, color c's path ends pair the 2r free
    vertices by a matching b_c.  d(a, b) = r - cyc(a u b) is a metric on
    such matchings, so every completion M has cyc(M, b_c) + cyc(M, b_d) <=
    r + cyc(b_c, b_d); over the ring pairs (c, c - 1 mod D) each color
    appears twice, so 2 * F_rest <= D * r + F_ring.  A node is pruned when
    room = 2 * (best - closed) - D * r exceeds F_ring: at once if
    room > D * r, else, above the last two levels, by the ring walk, which
    stops once F_ring can reach room.

    best starts at the face count of an incumbent, the pairing reached by
    one greedy descent on the walk's state before the walk (the state is
    reset after it).  At each level the descent pairs the least free vertex
    u with the partner v that closes the most faces; among ties, with the
    one whose spliced boundary has the most ring cycles F_ring (the most
    room left to close faces), then with the least v.  With
    connected_only, while components are still apart, v is taken from
    another union-find set; every set then keeps at least two free
    vertices, so the descent always ends in a pairing joining them all.
    Leaves below best are not counted.  No tie is pruned, so the walk
    reaches the incumbent's leaf and every maximizing one: the top bin of
    counts is the number of maximizing pairings, and the first leaf at best
    or above (witness is None until then) is still the lexicographically
    least witness.  When the budget runs out the walk stops short and exact
    is False; if it reached no leaf at or above the incumbent, the
    incumbent is returned as ({F: 1}, pairing, False).

    With a target (which needs a budget) the walk is a decision search with
    no descent: best starts at target, so the bound prunes every subtree
    that cannot reach it, and the walk stops at the first counted leaf,
    returning it as witness with counts {F: 1}.  A walk that finds none
    returns ({}, None, exact).

    The last two levels are scored in closed form, without splicing or
    recursing.  Each completion still counts as two nodes, its pair (u, v)
    and its last pair, with the budget and prune checks a walk down to
    every leaf would make, so truncated reports do not depend on how the
    bottom is scored.
    """
    D = G.D
    two_n = 2 * G.n
    comp_ids, q = G.component_ids()
    bounded = node_budget is not None
    decide = target is not None
    if two_n == 2:
        # one pairing closing D faces; the walk is a root and a leaf node
        if decide:
            if node_budget < 2:
                return {}, None, False
            if D < target:
                return {}, None, True
        return {D: 1}, [(0, 1)], not bounded or node_budget >= 2
    bnd = [list(p) for p in G.partner_arrays()]
    S = two_n  # sentinel of the doubly linked free list
    nxt = list(range(1, two_n + 1)) + [0]
    prv = [S] + list(range(two_n - 1)) + [two_n - 1]
    par = list(range(q))
    sz = [1] * q
    mate = [0] * two_n  # mate[u] for the least free vertex u of each level
    counts: dict[int, int] = {}
    witness = None
    nodes = 0
    exact = True
    ring = [(bnd[c], bnd[c - 1]) for c in range(D)]
    seen = [0] * two_n  # seen[x] == stamp marks x as on a counted cycle
    stamp = 0

    def find(c: int) -> int:
        while par[c] != c:
            c = par[c]
        return c

    def ring_cycles(cap: int) -> int:
        """F_ring of the free vertices, or cap once it is sure to reach it.

        Counts the cycles found plus one for each ring pair still to walk
        (a nonempty pair has at least one), so it never exceeds F_ring and
        can stop at cap.  A cap of 0 is never reached.
        """
        nonlocal stamp
        found = D
        for bc, bd in ring:
            stamp += 1
            found -= 1
            x = nxt[S]
            while x != S:
                if seen[x] != stamp:
                    found += 1
                    if found == cap:
                        return cap
                    y = x
                    while seen[y] != stamp:
                        seen[y] = stamp
                        y = bc[y]
                        seen[y] = stamp
                        y = bd[y]
                x = nxt[x]
        return found

    def unlink(x: int) -> None:
        nxt[prv[x]] = nxt[x]
        prv[nxt[x]] = prv[x]

    def relink(x: int) -> None:
        nxt[prv[x]] = x
        prv[nxt[x]] = x

    def ring_after(u: int, w: int) -> int:
        # F_ring once (u, w) is paired too
        unlink(w)
        splice(bnd, u, w)
        found = ring_cycles(0)
        unsplice(bnd, u, w)
        relink(w)
        return found

    def descend() -> tuple[int, list[tuple[int, int]]]:
        live = q if connected_only else 1
        faces = 0
        pairs = []
        while nxt[S] != S:
            u = nxt[S]
            unlink(u)
            closes = [bc[u] for bc in bnd]
            if live > 1:
                ru = find(comp_ids[u])
                options = []
                x = nxt[S]
                while x != S:
                    if find(comp_ids[x]) != ru:
                        options.append(x)
                    x = nxt[x]
            else:
                options = closes  # every other v closes no face
            top = max(map(closes.count, options))
            tied = sorted({v for v in options if closes.count(v) == top})
            # max keeps the first, so the least, of equal F_ring
            v = tied[0] if len(tied) == 1 else max(tied, key=lambda w: ring_after(u, w))
            unlink(v)
            faces += splice(bnd, u, v)
            if live > 1:
                par[find(comp_ids[v])] = ru
                live -= 1
            pairs.append((u, v))
        # hand the walk its root state: undo the last pair first
        for u, v in reversed(pairs):
            unsplice(bnd, u, v)
            relink(v)
            relink(u)
        par[:] = range(q)
        return faces, pairs

    if decide:
        best = target
    elif bounded:
        best, incumbent = descend()
    else:
        best = -1

    def rec(remaining: int, closed: int, live: int) -> None:
        nonlocal nodes, exact, best, witness
        u = nxt[S]
        if bounded:
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            room = 2 * (best - closed) - D * remaining
            if room > D * remaining:  # closed + D * remaining < best
                return
            if room > D and remaining > 2 and ring_cycles(room) < room:
                return
        elif live > remaining:
            # each pair but the last merges at most one union-find set, so
            # no pairing below joins every component
            return
        if remaining == 2:
            # Free vertices u < a < b < c.  Pairing (u, v) closes the colors
            # with bc[u] == v; the last pair is then joined by every color's
            # boundary path and closes D more.  Each completion stands for
            # the child node and its leaf, counted and pruned in their order;
            # past the budget every later node returns at once, so stop.
            a = nxt[u]
            b = nxt[a]
            c = nxt[b]
            ka = kb = 0
            for bc in bnd:
                x = bc[u]
                if x == a:
                    ka += 1
                elif x == b:
                    kb += 1
            f = closed + D
            scores = ((a, f + ka), (b, f + kb), (c, f + D - ka - kb))
            if live == 2:
                ru = find(comp_ids[u])
            for v, f in scores:
                if bounded:
                    nodes += 1
                    if nodes > node_budget:
                        exact = False
                        return
                    if f < best:
                        continue
                    nodes += 1
                    if nodes > node_budget:
                        exact = False
                        return
                # every union-find set holds an even number of free vertices,
                # so the last pair shares one and only (u, v) can merge two
                if live > 1 and (live > 2 or find(comp_ids[v]) == ru):
                    continue
                counts[f] = counts.get(f, 0) + 1
                if f > best or witness is None:
                    best = f
                    mate[u] = v
                    y, z = [w for w in (a, b, c) if w != v]
                    mate[y] = z
                    witness = []
                    paired = [False] * two_n
                    for w in range(two_n):
                        if not paired[w]:
                            paired[mate[w]] = True
                            witness.append((w, mate[w]))
                    if decide:
                        raise _Hit
            return
        u_next = nxt[u]
        nxt[S] = u_next
        prv[u_next] = S
        v = u_next
        while v != S:
            pv_, nv_ = prv[v], nxt[v]
            nxt[pv_] = nv_
            prv[nv_] = pv_
            # splice(bnd, u, v) and unsplice, inline: a helper call per
            # node made the D = 3, n = 8 histogram slower in six of six
            # interleaved runs, by 2-8%
            dclosed = 0
            for bc in bnd:
                a = bc[u]
                if a == v:
                    dclosed += 1
                else:
                    b = bc[v]
                    bc[a] = b
                    bc[b] = a
            merged = -1
            lv = live
            if lv > 1:
                ru = find(comp_ids[u])
                rv = find(comp_ids[v])
                if ru != rv:
                    if sz[ru] < sz[rv]:
                        ru, rv = rv, ru
                    par[rv] = ru
                    sz[ru] += sz[rv]
                    merged = rv
                    lv -= 1
            mate[u] = v
            rec(remaining - 1, closed + dclosed, lv)
            if merged >= 0:
                sz[par[merged]] -= sz[merged]
                par[merged] = merged
            # bc[u] and bc[v] are untouched below this level: undo from them
            for bc in bnd:
                a = bc[u]
                if a != v:
                    bc[a] = u
                    bc[bc[v]] = v
            nxt[pv_] = v
            prv[nv_] = v
            v = nv_
        nxt[S] = u
        prv[u_next] = u

    try:
        rec(two_n // 2, 0, q if connected_only else 1)
    except _Hit:
        pass
    if witness is None and bounded and not decide:
        # truncated before any leaf reached the incumbent
        return {best: 1}, incumbent, False
    return counts, witness, exact


# ---------------------------------------------------------------------------
# histograms and polynomials


@dataclass(frozen=True)
class FaceHistogram:
    """How many pairings attain each total face count F.

    With connected_only the count only includes pairings joining all graph
    components, so the totals sum to at most the number of pairings.
    """

    counts: dict[int, int]
    connected_only: bool
    n: int
    D: int

    @property
    def total_pairings(self) -> int:
        return sum(self.counts.values())

    @property
    def max_faces(self) -> int:
        return max(self.counts)

    def to_json_dict(self) -> dict:
        return {
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "connected_only": self.connected_only,
            "n": self.n,
            "D": self.D,
        }


def enumerate_histogram(
    G: ColoredGraph,
    connected_only: bool = False,
    budget: int = DEFAULT_HISTOGRAM_CAP,
) -> FaceHistogram:
    """Exact face-count histogram by exhaustive enumeration over pairings."""
    if G.n > budget:
        raise BudgetExceeded(
            f"exhaustive enumeration over {count_matchings(G.n)} pairings "
            f"(n={G.n}) exceeds the configured budget n <= {budget}"
        )
    counts, _, _ = _scan(G, connected_only)
    return FaceHistogram(counts, connected_only, G.n, G.D)


class ExpectationPoly:
    """Integer-coefficient Laurent polynomial in N with exact exponents.

    Terms map exponents F - nu*n (stored as Fractions) to integer
    coefficients.  Addition requires matching nu and n; multiplication adds
    the n's, which mirrors taking products of invariants on disjoint graphs.
    """

    __slots__ = ("nu", "n", "terms")

    def __init__(self, nu, n: int, terms: dict):
        object.__setattr__(self, "nu", Fraction(nu))
        object.__setattr__(self, "n", int(n))
        clean = {}
        for e, c in terms.items():
            c = int(c)
            if c:
                clean[Fraction(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExpectationPoly is immutable")

    @classmethod
    def from_histogram(cls, hist: FaceHistogram, nu) -> "ExpectationPoly":
        nu = Fraction(nu)
        shift = nu * hist.n
        return cls(nu, hist.n, {Fraction(F) - shift: c for F, c in hist.counts.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_exponent(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_exponent()]

    def evaluate(self, x):
        """Exact Fraction for rational x and integral exponents, else float."""
        if isinstance(x, (int, Fraction)) and all(
            e.denominator == 1 for e in self.terms
        ):
            x = Fraction(x)
            return sum(
                (c * x ** int(e) for e, c in self.terms.items()), Fraction(0)
            )
        return sum(c * float(x) ** float(e) for e, c in self.terms.items())

    def _compatible(self, other: "ExpectationPoly"):
        if self.nu != other.nu:
            raise ValueError("cannot combine polynomials with different nu")

    def __add__(self, other):
        if not isinstance(other, ExpectationPoly):
            return NotImplemented
        self._compatible(other)
        if self.n != other.n:
            raise ValueError("cannot add polynomials of different half-order")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return ExpectationPoly(self.nu, self.n, terms)

    def __sub__(self, other):
        if not isinstance(other, ExpectationPoly):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return ExpectationPoly(
                self.nu, self.n, {e: other * c for e, c in self.terms.items()}
            )
        if not isinstance(other, ExpectationPoly):
            return NotImplemented
        self._compatible(other)
        terms: dict[Fraction, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return ExpectationPoly(self.nu, self.n + other.n, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpectationPoly)
            and self.nu == other.nu
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nu, self.n, tuple(sorted(self.terms.items()))))

    def to_triples(self) -> list[list[int]]:
        """[[exponent_numerator, exponent_denominator, coefficient], ...], leading first."""
        return [
            [e.numerator, e.denominator, self.terms[e]]
            for e in sorted(self.terms, reverse=True)
        ]

    def __repr__(self) -> str:
        if not self.terms:
            return "ExpectationPoly(0)"
        bits = [
            f"{c}*N^{e}" for e, c in sorted(self.terms.items(), reverse=True)
        ]
        return "ExpectationPoly(" + " + ".join(bits) + ")"


def _default_nu(G: ColoredGraph, nu) -> Fraction:
    return Fraction(G.D - 1) if nu is None else Fraction(nu)


def expectation_poly(
    G: ColoredGraph, nu=None, budget: int = DEFAULT_HISTOGRAM_CAP
) -> ExpectationPoly:
    """Exact Gaussian expectation of the invariant of G as a polynomial in N."""
    hist = enumerate_histogram(G, connected_only=False, budget=budget)
    return ExpectationPoly.from_histogram(hist, _default_nu(G, nu))


def cumulant_poly(
    G: ColoredGraph, nu=None, budget: int = DEFAULT_HISTOGRAM_CAP
) -> ExpectationPoly:
    """Connected part of the expectation: only component-joining pairings count."""
    hist = enumerate_histogram(G, connected_only=True, budget=budget)
    return ExpectationPoly.from_histogram(hist, _default_nu(G, nu))


# ---------------------------------------------------------------------------
# scaling maximization


@dataclass(frozen=True)
class ScalingReport:
    """Maximum face count over pairings, with multiplicity and witness.

    omega_min translates F_max into the defect from the scaling bound when
    a formula applies (always for connected graphs; for disconnected ones
    only under the connected-pairing restriction).  exact=False marks a
    truncated search whose F_max is merely a lower bound and whose
    num_optimal counts only the pairings it reached.
    """

    F_max: int
    num_optimal: int
    witness: Matching
    omega_min: Optional[int]
    connected_only: bool
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "F_max": self.F_max,
            "num_optimal": self.num_optimal,
            "witness": [list(p) for p in self.witness.pairs],
            "omega_min": self.omega_min,
            "connected_only": self.connected_only,
            "exact": self.exact,
        }


def max_scaling(
    G: ColoredGraph,
    connected_only: bool = False,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ScalingReport:
    """Exact maximum of the face count over perfect pairings of G's vertices.

    Works past the histogram budget thanks to pruning: 0.02-0.45 s on
    random graphs at D = 3, n = 16 and D = 4, n = 12 (one core of a 2-core
    x86 host).  A search cut by node_budget (at least 1) reports exact=False
    with the best pairings it reached, or else the greedy incumbent it
    started from with num_optimal 1; either way F_max is a lower bound and
    the witness attains it.  The search is sequential; threads is accepted
    for compatibility and has no effect, so every value gives the same
    report, also when node_budget truncates the search.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    counts, witness, exact = _scan(G, connected_only, node_budget)
    best = max(counts)
    g_conn = connected_only or G.is_connected
    omega = scaling_defect(G, best, g_conn) if g_conn else None
    return ScalingReport(
        best, counts[best], Matching(witness, 2 * G.n), omega, connected_only, exact
    )


# ---------------------------------------------------------------------------
# verdicts


def _exact_scaling(G: ColoredGraph, connected_only: bool, node_budget: int):
    rep = max_scaling(G, connected_only, node_budget=node_budget)
    if not rep.exact:
        raise BudgetExceeded("scaling search truncated; verdict would be unsound")
    return rep


@dataclass(frozen=True)
class LemmaReport:
    """Whether the maximal face count clears D*n/2, the factorization threshold."""

    holds: bool
    F_max: int
    bound: Fraction

    def to_json_dict(self) -> dict:
        return {"holds": self.holds, "F_max": self.F_max, "bound": str(self.bound)}


def lemma_condition(
    G: ColoredGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> LemmaReport:
    """Check max F > D*n/2 for a connected graph.

    Large-N factorization of multi-trace expectations is equivalent to this
    bound holding for every connected graph, so a single violator is a
    counterexample to factorization in general.
    """
    if not G.is_connected:
        raise ValueError("the threshold condition is stated for connected graphs")
    rep = _exact_scaling(G, False, node_budget)
    bound = Fraction(G.D * G.n, 2)
    return LemmaReport(rep.F_max > bound, rep.F_max, bound)


@dataclass(frozen=True)
class SubadditivityReport:
    """Connected-pairing scaling of a union versus the sum of part scalings."""

    lhs: int
    rhs: int
    strict_subadditive: bool
    self_pairing_bound: Optional[int]
    union_report: ScalingReport
    part_reports: tuple[ScalingReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "strict_subadditive": self.strict_subadditive,
            "self_pairing_bound": self.self_pairing_bound,
            "union": self.union_report.to_json_dict(),
            "parts": [r.to_json_dict() for r in self.part_reports],
        }


def subadditivity_check(
    graphs: Sequence[ColoredGraph], node_budget: int = DEFAULT_NODE_BUDGET
) -> SubadditivityReport:
    """Compare the connected scaling of a disjoint union against its parts.

    lhs is the maximal face count over pairings that join the union into one
    piece; rhs sums the unrestricted maxima of the parts.  Strict
    subadditivity (lhs < rhs) is what large-N factorization needs.  For a
    pair (G, G) the vertex-to-copy pairing forces lhs >= D*n, which is
    reported as self_pairing_bound.
    """
    if len(graphs) < 2:
        raise ValueError("need at least two graphs")
    D = graphs[0].D
    for i, g in enumerate(graphs, start=1):
        if g.D != D:
            raise ValueError(f"graph {i} has {g.D} colors, expected {D}")
        if not g.is_connected:
            raise ValueError(f"graph {i} is not connected")
    union = reduce(disjoint_union, graphs)
    union_rep = _exact_scaling(union, True, node_budget)
    part_reps = tuple(_exact_scaling(g, False, node_budget) for g in graphs)
    lhs = union_rep.F_max
    rhs = sum(r.F_max for r in part_reps)
    self_bound = None
    if len(graphs) == 2 and graphs[0] == graphs[1]:
        self_bound = D * graphs[0].n
    return SubadditivityReport(
        lhs, rhs, lhs < rhs, self_bound, union_rep, part_reps
    )


@dataclass(frozen=True)
class FactorizationReport:
    """Leading-exponent comparison: connected square versus squared expectation.

    factorizes is True when the connected part of <Tr^2> is strictly smaller
    in scaling than <Tr>^2, i.e. when no pairing of G u G that joins both
    copies closes 2 * single_F_max faces.  single_F_max is exact.  The pair
    side is settled by a certificate: pair_witness, a connected pairing of
    G u G closing pair_connected_F_max faces.  When the graph does not
    factorize it closes at least 2 * single_F_max; when it does, it is the
    copy pairing (D * n faces) and a search proved that none reaches
    2 * single_F_max.  pair_connected_F_max is therefore a lower bound on
    the connected maximum, at least D * n, and pair_exact says whether it is
    proven to be that maximum (only when the search found nothing at
    2 * single_F_max and D * n is one below).  cumulant_leading is pair_connected_F_max -
    2 * nu * n, so it too is a lower bound; the exact pair maximum is
    max_scaling(disjoint_union(G, G), connected_only=True).
    """

    factorizes: bool
    cumulant_leading: Fraction
    product_leading: Fraction
    pair_connected_F_max: int
    single_F_max: int
    nu: Fraction
    pair_witness: Matching
    pair_exact: bool

    def to_json_dict(self) -> dict:
        return {
            "factorizes": self.factorizes,
            "cumulant_leading": str(self.cumulant_leading),
            "product_leading": str(self.product_leading),
            "pair_connected_F_max": self.pair_connected_F_max,
            "single_F_max": self.single_F_max,
            "nu": str(self.nu),
            "pair_witness": [list(p) for p in self.pair_witness.pairs],
            "pair_exact": self.pair_exact,
        }


def factorization_verdict(
    G: ColoredGraph, nu=None, node_budget: int = DEFAULT_NODE_BUDGET
) -> FactorizationReport:
    """Does <Tr^2> factorize into <Tr><Tr> at leading order in N?

    F_max(G) is computed exactly; the pair side is a decision search for a
    connected pairing of G u G with at least T = 2 * F_max(G) faces.  The
    copy pairing closes D * n, so D * n >= T settles it without a search.
    Otherwise the search runs under node_budget, and a truncated search
    raises BudgetExceeded; a node_budget below 1 raises ValueError.
    """
    if not G.is_connected:
        raise ValueError("factorization verdicts are stated for connected graphs")
    nu = _default_nu(G, nu)
    single = _exact_scaling(G, False, node_budget)
    target = 2 * single.F_max
    pair_F, witness, pair_exact = G.D * G.n, copy_pairing(2 * G.n), False
    if pair_F < target:
        union = disjoint_union(G, G)
        counts, hit, complete = _scan(union, True, node_budget, target)
        if not complete:
            raise BudgetExceeded("scaling search truncated; verdict would be unsound")
        if hit is not None:
            (pair_F,) = counts
            witness = Matching(hit, 4 * G.n)
        else:
            # no connected pairing reaches target, so the copy pairing's
            # D * n is the maximum when it is one below
            pair_exact = pair_F == target - 1
    cum_lead = Fraction(pair_F) - nu * (2 * G.n)
    prod_lead = 2 * (Fraction(single.F_max) - nu * G.n)
    return FactorizationReport(
        pair_F < target, cum_lead, prod_lead, pair_F, single.F_max, nu, witness, pair_exact
    )
