"""Exact Gaussian expectations of trace invariants via pairing enumeration.

The Gaussian expectation of the invariant of a D-colored graph is a sum
over all perfect pairings M0 of its 2n vertices of N**F(M0), where F is the
total face count of M0 against the D colors, divided by N**(nu*n).  The
connected part (classical cumulant) restricts the sum to pairings that join
all graph components into one piece.  Everything here is exact integer or
rational arithmetic; N never becomes a float.

Two walks place pairs in canonical order, smallest free vertex first and
partners ascending, on one state built by `_walk` and through one child
loop, `_children`, where both are described.  Each pair costs O(D), the
splice of `graphs.splice`.  The last two levels need no splice: the last
pair's vertices are the ends of every color's remaining path, so it closes
exactly D faces, and `_last_two` scores each of the three ways to pair the
least of four free vertices from the boundary arrays alone.

`_histogram` sums the exact histograms.  The faces the rest of a pairing
closes depend only on the boundary graph that the path ends make on the
free vertices, so it memoizes the residual histogram of each state on that
graph's canonical code, `_boundary_code`, and pairing prefixes that leave
isomorphic boundaries share one subtree.  Once all components are joined,
tables of the matchings of eight and of six points score every completion
of a state with four or three pairs to go at once, without a memo.

`_scan` maximizes, as a branch and bound under a node budget.  It starts
from the incumbent of one greedy descent, run on the walk's own state, and
bounds the faces left to close twice: by a ring bound, from cycles between
the path ends of neighbouring colors, and, in connected searches, by
Gurau's degree bound less D for each join still missing.  Neither prunes a
tie, so the walk counts every optimal pairing and reports the
lexicographically least witness (see `_scan`).  With a target too, it is a
decision search that stops at the first pairing reaching the target, as
the factorization verdict's pair question does.  It shares `_histogram`'s
bottom and key: joined states with four pairs to go are scored whole from
the eight-point table, and connected walks memoize the best residual of
each state on its canonical code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterator, Optional, Sequence

from .faces import scaling_defect
from .graphs import (
    ColoredGraph,
    Matching,
    _integral,
    copy_pairing,
    count_matchings,
    disjoint_union,
    splice,
    unsplice,
)

# refuse histograms past n = 10, |M_10| = 654,729,075 pairings; the memoized
# sum takes about 0.05 s, 0.35 s and 1.5 s at D = 3 and n = 8, 9, 10, and
# 0.14 s, 1.7-1.9 s and 18-25 s at D = 4 (CPU time on one core of a shared
# 2-core x86 host, Python 3.11, seed 1; its speed drifts by up to 1.5x)
DEFAULT_HISTOGRAM_CAP = 10
DEFAULT_NODE_BUDGET = 20_000_000


class BudgetExceeded(RuntimeError):
    """An exact computation was refused or truncated because of its size."""


class _Hit(Exception):
    """Unwinds a decision search from its first leaf that meets the target."""


# ---------------------------------------------------------------------------
# enumeration engine


def _walk(G: ColoredGraph):
    """The root state of a walk over G's pairings: (bnd, nxt, prv, par, comp_ids, q).

    Both walks place pairs in canonical order, the least free vertex u
    first, then each partner v in list order, and keep one state:
    - bnd, each color's alternating-path ends as partner arrays, which
      `graphs.splice` and `unsplice` update as pairs are placed;
    - the free vertices as a doubly linked list nxt/prv over 0..2n-1, with
      the sentinel S = 2n, so the least free vertex is nxt[S];
    - par, a union-find over the q components (comp_ids maps each vertex to
      its component), whose sets are linked as pairs join them and unlinked
      as pairs are taken back.
    """
    two_n = 2 * G.n
    comp_ids, q = G.component_ids()
    bnd = [list(p) for p in G.partner_arrays()]
    nxt = list(range(1, two_n + 1)) + [0]
    prv = [two_n] + list(range(two_n - 1)) + [two_n - 1]
    return bnd, nxt, prv, list(range(q)), comp_ids, q


def _find(par: list[int], c: int) -> int:
    """The root of c's set in the union-find par."""
    while par[c] != c:
        c = par[c]
    return c


def _children(
    bnd, nxt, prv, par, comp_ids, u: int, live: int
) -> Iterator[tuple[int, int, int]]:
    """Place (u, v) for each later free v in list order, one at a time.

    u is the least free vertex, nxt[S] (see `_walk`).  It is unlinked for
    the whole loop; each v is unlinked and spliced, and with live > 1
    union-find sets still apart, its set is linked to u's.  While (u, v) is
    in effect the generator yields (v, faces closed, live after); it takes
    the pair back, in reverse order, before it places the next one, and
    once exhausted the state is back where it started.  A caller therefore
    either exhausts it or abandons the whole state, as a `_Hit` does:
    breaking out of the loop would leave a pair in effect.
    """
    S = len(nxt) - 1
    u_next = nxt[u]
    nxt[S] = u_next
    prv[u_next] = S
    if live > 1:
        ru = _find(par, comp_ids[u])
    v = u_next
    while v != S:
        pv_, nv_ = prv[v], nxt[v]
        nxt[pv_] = nv_
        prv[nv_] = pv_
        dclosed = splice(bnd, u, v)
        merged = -1
        lv = live
        if lv > 1:
            rv = _find(par, comp_ids[v])
            if ru != rv:
                par[rv] = ru
                merged = rv
                lv -= 1
        yield v, dclosed, lv
        if merged >= 0:
            par[merged] = merged
        unsplice(bnd, u, v)
        nxt[pv_] = v
        prv[nv_] = v
        v = nv_
    nxt[S] = u
    prv[u_next] = u


def _last_two(
    bnd: list[list[int]], u: int, a: int, b: int, c: int
) -> tuple[tuple[int, int], ...]:
    """(v, faces) for each way (u, v) to complete free vertices u < a < b < c.

    Pairing (u, v) closes the colors whose path from u ends at v; the last
    pair is then joined by every color's path and closes D more.  faces
    counts both pairs.
    """
    D = len(bnd)
    ka = kb = 0
    for bc in bnd:
        x = bc[u]
        if x == a:
            ka += 1
        elif x == b:
            kb += 1
    return (a, D + ka), (b, D + kb), (c, 2 * D - ka - kb)


def _scan(
    G: ColoredGraph,
    connected_only: bool,
    node_budget: int,
    target: Optional[int] = None,
) -> tuple[dict[int, int], Optional[list[tuple[int, int]]], bool]:
    """Branch and bound over the perfect pairings of G, in lexicographic order.

    Returns (counts, witness, exact).  counts maps each face count to the
    number of visited pairings attaining it (with connected_only, only
    pairings joining all q components count); witness is the first visited
    pairing of the largest face count, i.e. the lexicographically least one.

    The walk runs on `_walk`'s state and places pairs through `_children`.

    Every state of the walk counts as a node against node_budget, and a
    subtree is pruned when even its best completion falls short of best.
    With r pairs to go, color c's path ends pair the 2r free vertices by a
    matching b_c.  d(a, b) = r - cyc(a u b) is a metric on such matchings,
    so every completion M has cyc(M, b_c) + cyc(M, b_d) <= r + cyc(b_c,
    b_d); over the ring pairs (c, c - 1 mod D) each color appears twice, so
    2 * F_rest <= D * r + F_ring.  A node is pruned when room = 2 * (best -
    closed) - D * r exceeds F_ring: at once if room > D * r, else, above
    the last two levels, by the ring walk, which stops once F_ring can
    reach room.

    With connected_only, while live > 1 union-find sets are still apart, a
    second bound counts the joins missing.  The path ends of every color
    make a boundary graph B on the free vertices, with q_B components, each
    inside one live set.  A completion M joins them into p components of
    B u M; each is a connected (D + 1)-colored graph of degree omega >= 0
    (for D = 2, Euler's formula), so F_rest <= (D - 1) * r + D * p -
    (D - 1) * q_B.  If M joins every live set, p <= q_B - (live - 1), and
    F_rest <= (D - 1) * r + q_B - D * (live - 1): Gurau's degree bound less
    D per missing join, at the root `scaling_defect`'s own formula.  A node
    with two or more pairs to go is pruned when q_B falls short of need =
    best - closed - (D - 1) * r + D * (live - 1).  It is kept at once if
    need <= live, as every live set with free vertices holds a B-component;
    pruned at once if need > r, as each B-component has two vertices or
    more; else a search of B decides, stopping once q_B reaches need.
    Unconnected walks never check it.

    best starts at the face count of an incumbent, the pairing reached by
    one greedy descent on the walk's state before the walk (the state is
    reset after it).  At each level the descent pairs the least free vertex
    u with the partner v that closes the most faces; among ties, with the
    one whose spliced boundary has the most ring cycles F_ring (the most
    room left to close faces), then with the least v.  With
    connected_only, while components are still apart, v is taken from
    another union-find set; every set then keeps at least two free
    vertices, so the descent always ends in a pairing joining them all.
    It places its pairs itself, not through `_children`, as it keeps one
    pair per level in effect on the way down, where a child loop would
    splice every sibling.
    Leaves below best are not counted.  No tie is pruned, so the walk
    reaches the incumbent's leaf and every maximizing one: the top bin of
    counts is the number of maximizing pairings, and the first leaf at best
    or above (witness is None until then) is still the lexicographically
    least witness.  When the budget runs out the walk stops short and exact
    is False; if it reached no leaf at or above the incumbent, the
    incumbent is returned as ({F: 1}, pairing, False).

    With a target the walk is a decision search with no descent: best
    starts at target, so the bound prunes every subtree that cannot reach
    it, and the walk stops at the first counted leaf, returning it as
    witness with counts {F: 1}.  A walk that finds none returns ({}, None,
    exact); on G u G, the connected bound at the root alone rules out any
    target above 2 * (D - 1) * n - D + 2.

    A state that passes the bounds with 4 pairs to go, once every set is
    joined (live == 1) and while 3 * D < 256, is scored whole from
    `_EIGHT_ROWS`, as in `_histogram`: byte j of its row sum is F(P_j) - D
    for the j-th completion P_j, and the table lists the completions in
    the walk's own lexicographic order.  So the state's best completion
    closes closed + D + t faces for the largest byte t, t occurs once per
    optimal completion, and its first index is the least of them; a
    decision search takes the first byte reaching target - closed - D.
    The read costs one node besides the state's own, checked against the
    budget before it is made.  The last two levels, where the walk reaches
    them, are scored in closed form by `_last_two`: each completion counts
    as two nodes, its pair (u, v) and its last pair, with the budget and
    prune checks a walk to every leaf would make.

    Connected walks of q > 1 components reach the same boundary state over
    and over, so their states with 4 to 127 pairs to go that are not
    scored from the table are memoized for the call on `_boundary_code`,
    the isomorphism class of B with its components grouped by union-find
    set.  A state whose code is None has a set that can never be joined,
    and is pruned.  An entry, stored once the subtree is walked, is (m, c)
    if the subtree counted leaves, c of them at its largest residual m:
    best started at or below closed + m and never passed it, no bound
    prunes a tie, so no completion closes more than m further faces and
    every one closing m was counted.  It is (b, 0) if the subtree counted
    none: then every completion closes at most b = best - closed - 1.
    Nothing is stored where the budget ran out inside the subtree.  On a
    hit, at one node in all, the state is pruned when closed + m (or b)
    falls short of best; an exact entry at best adds c to the top bin once
    there is a witness.  Otherwise the subtree is walked again, as the
    least witness depends on labels the code forgets.

    Truncated reports depend on how the walk is scored as well as bounded:
    a table read or a memo hit stands for a whole subtree at one node.
    """
    D = G.D
    two_n = 2 * G.n
    decide = target is not None
    if two_n == 2:
        # one pairing closing D faces; the walk is a root and a leaf node
        if decide:
            if node_budget < 2:
                return {}, None, False
            if D < target:
                return {}, None, True
        return {D: 1}, [(0, 1)], node_budget >= 2
    bnd, nxt, prv, par, comp_ids, q = _walk(G)
    S = two_n  # sentinel of the free list
    mate = [0] * two_n  # mate[u] for the least free vertex u of each level
    counts: dict[int, int] = {}
    witness = None
    nodes = 0
    exact = True
    ring = [(bnd[c], bnd[c - 1]) for c in range(D)]
    seen = [0] * two_n  # seen[x] == stamp marks x as on a counted cycle
    stamp = 0
    table = 3 * D < 256  # the eight-point row sums fit a byte
    rank = [0] * two_n
    keyed = connected_only and q > 1
    # (m, c) or (b, 0) for each walked state on its boundary code
    memo: dict[bytes, tuple[int, int]] = {}

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

    def boundary_components(cap: int) -> int:
        """q_B of the free vertices, or cap once the count reaches it.

        One stamped search over the boundary graph B, whose edges are every
        color's path ends; it shares seen and stamp with ring_cycles.
        """
        nonlocal stamp
        stamp += 1
        found = 0
        x = nxt[S]
        while x != S:
            if seen[x] != stamp:
                found += 1
                if found == cap:
                    return cap
                seen[x] = stamp
                stack = [x]
                while stack:
                    y = stack.pop()
                    for bc in bnd:
                        z = bc[y]
                        if seen[z] != stamp:
                            seen[z] = stamp
                            stack.append(z)
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
                ru = _find(par, comp_ids[u])
                options = []
                x = nxt[S]
                while x != S:
                    if _find(par, comp_ids[x]) != ru:
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
                par[_find(par, comp_ids[v])] = ru
                live -= 1
            pairs.append((u, v))
        # hand the walk its root state: undo the last pair first
        for u, v in reversed(pairs):
            unsplice(bnd, u, v)
            relink(v)
            relink(u)
        par[:] = range(q)
        return faces, pairs

    def pairing() -> list[tuple[int, int]]:
        # the pairing in mate, where each pair is set at its lesser vertex
        paired = [False] * two_n
        pairs = []
        for w in range(two_n):
            if not paired[w]:
                paired[mate[w]] = True
                pairs.append((w, mate[w]))
        return pairs

    if decide:
        best = target
    else:
        best, incumbent = descend()

    def rec(remaining: int, closed: int, live: int) -> None:
        nonlocal nodes, exact, best, witness
        u = nxt[S]
        nodes += 1
        if nodes > node_budget:
            exact = False
            return
        room = 2 * (best - closed) - D * remaining
        if room > D * remaining:  # closed + D * remaining < best
            return
        if live > 1:
            need = best - closed - (D - 1) * remaining + D * (live - 1)
            if need > live and (need > remaining or boundary_components(need) < need):
                return
        if room > D and remaining > 2 and ring_cycles(room) < room:
            return
        if remaining == 4 and live == 1 and table:
            nodes += 1
            if nodes > node_budget:
                exact = False
                return
            rows, free = _eight_rows(bnd, nxt, u, rank)
            fields = rows.to_bytes(105, "little")
            t = max(fields)
            f = closed + D + t
            if f < best:
                return
            if decide:
                t = best - closed - D
                j = 0
                while fields[j] < t:
                    j += 1
                f = closed + D + fields[j]
            else:
                counts[f] = counts.get(f, 0) + fields.count(t)
                if f == best and witness is not None:
                    return
                j = fields.index(t)
            best = f
            for y, z in _EIGHT_ROWS.matchings[j]:
                mate[free[y]] = free[z]
            witness = pairing()
            if decide:
                counts[f] = 1
                raise _Hit
            return
        if remaining == 2:
            # Each completion stands for the child node and its leaf, counted
            # and pruned in their order; past the budget every later node
            # returns at once, so stop.
            a = nxt[u]
            b = nxt[a]
            c = nxt[b]
            if live == 2:
                ru = _find(par, comp_ids[u])
            for v, f in _last_two(bnd, u, a, b, c):
                f += closed
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
                if live > 1 and (live > 2 or _find(par, comp_ids[v]) == ru):
                    continue
                counts[f] = counts.get(f, 0) + 1
                if f > best or witness is None:
                    best = f
                    mate[u] = v
                    y, z = [w for w in (a, b, c) if w != v]
                    mate[y] = z
                    witness = pairing()
                    if decide:
                        raise _Hit
            return
        key = None
        if keyed and 4 <= remaining <= 127:
            free = []
            x = u
            while x != S:
                free.append(x)
                x = nxt[x]
            key = _boundary_code(bnd, free, par, comp_ids, live)
            if key is None:
                return
            entry = memo.get(key)
            if entry is not None:
                m, c = entry
                if closed + m < best:
                    return
                if c and closed + m == best and witness is not None:
                    counts[best] += c
                    return
            best0 = best
            c0 = counts.get(best, 0)
        for v, dclosed, lv in _children(bnd, nxt, prv, par, comp_ids, u, live):
            mate[u] = v
            rec(remaining - 1, closed + dclosed, lv)
        if key is not None and exact:
            c = counts.get(best, 0)
            if best == best0:
                c -= c0
            memo[key] = (best - closed, c) if c else (best - closed - 1, 0)

    try:
        rec(two_n // 2, 0, q if connected_only else 1)
    except _Hit:
        pass
    del rec  # rec refers to itself: free the memo now, not at the next gc
    if witness is None and not decide:
        # truncated before any leaf reached the incumbent
        return {best: 1}, incumbent, False
    return counts, witness, exact


def _pairings(points: tuple) -> list[frozenset]:
    """Every perfect matching of points, each a frozenset of pairs.

    They come in lexicographic order, as the walks place pairs: by the
    partner of the first point, then of the first point left, and so on.
    """
    if not points:
        return [frozenset()]
    u = points[0]
    return [
        rest | {(u, v)}
        for i, v in enumerate(points[1:], 1)
        for rest in _pairings(points[1:i] + points[i + 1 :])
    ]


class _Rows(dict):
    """Rows of the cycle table of the matchings of 2r points, built on first use.

    A matching B is coded by the partners of points 0..2r-4, as digits base
    2r from point 0 down.  They fix B: those 2r - 3 points are odd in
    number, so one or three of them pair with the last three points, and
    where one does, the two points left pair each other.  B's row is one
    int whose byte j, little-endian, is cycles(P_j u B) - 1 over the
    matchings P_j of `matchings`; a sum of rows adds byte by byte while no
    byte passes 255.
    """

    def __init__(self, r: int):
        super().__init__()
        self.points = 2 * r
        self.matchings = _pairings(tuple(range(2 * r)))

    def __missing__(self, code: int) -> int:
        m = self.points
        mate = [-1] * m
        digits = code
        for x in range(m - 4, -1, -1):
            digits, y = divmod(digits, m)
            mate[x] = y
            mate[y] = x
        left = [x for x in range(m) if mate[x] < 0]
        if left:
            y, z = left
            mate[y] = z
            mate[z] = y
        cycles = bytearray()
        for P in self.matchings:
            p = [0] * m
            for y, z in P:
                p[y] = z
                p[z] = y
            seen = [False] * m
            found = -1
            for x in range(m):
                if not seen[x]:
                    found += 1
                    y = x
                    while not seen[y]:
                        seen[y] = seen[p[y]] = True
                        y = mate[p[y]]
            cycles.append(found)
        row = self[code] = int.from_bytes(cycles, "little")
        return row

    def residual(self, rows: int, D: int, k: int) -> int:
        """The histogram, as `_histogram` keeps one, of a sum of D rows.

        Byte t of rows, at most (r - 1) * D, stands for a completion
        closing D + t faces.
        """
        fields = rows.to_bytes(len(self.matchings), "little")
        h = 0
        for t in range((self.points // 2 - 1) * D + 1):
            c = fields.count(t)
            if c:
                h += c << k * (D + t)
        return h


# rows of the 15 matchings of six points and of the 105 of eight; every call
# shares them, as a row depends on its code alone
_SIX_ROWS = _Rows(3)
_EIGHT_ROWS = _Rows(4)


def _eight_rows(
    bnd: Sequence[list[int]], nxt: list[int], u: int, rank: list[int]
) -> tuple[int, tuple[int, ...]]:
    """The sum of the colors' `_EIGHT_ROWS` rows at a state with 4 pairs to go.

    u is the least free vertex and nxt the free list (see `_walk`).  The
    eight free vertices are ranked 0..7 in list order, in the scratch array
    rank; color c's path ends pair them by a matching B_c, whose row is
    looked up by the ranks of the partners of the first five.  Returns the
    sum and the eight vertices in rank order.
    """
    a = nxt[u]
    b = nxt[a]
    c = nxt[b]
    d = nxt[c]
    e = nxt[d]
    f = nxt[e]
    h = nxt[f]
    rank[u] = 0
    rank[a] = 1
    rank[b] = 2
    rank[c] = 3
    rank[d] = 4
    rank[e] = 5
    rank[f] = 6
    rank[h] = 7
    rows = 0
    for bc in bnd:
        rows += _EIGHT_ROWS[
            4096 * rank[bc[u]] + 512 * rank[bc[a]] + 64 * rank[bc[b]]
            + 8 * rank[bc[c]] + rank[bc[d]]
        ]
    return rows, (u, a, b, c, d, e, f, h)


def _boundary_code(
    bnd: Sequence[list[int]],
    free: list[int],
    par: Optional[list[int]] = None,
    comp_ids: Sequence[int] = (),
    live: int = 1,
) -> Optional[bytes]:
    """The canonical code of the boundary graph B on the free vertices.

    B joins each free vertex x to bnd[c][x] for every color c.  Equal codes
    mean isomorphic graphs, colors kept in order: an edge-colored graph is
    rigid once a root is fixed, so a breadth-first walk from a root,
    visiting colors in order, labels each vertex by its discovery rank, and
    the code lists the labels of every vertex's neighbours in label order,
    one byte each (so B has at most 127 vertex pairs).  A component's code
    is its least over the roots whose signature, the lengths of the cycles
    of the ring color pairs (c, c - 1) through them, is least; B's code
    joins the sorted component codes.  Each closes its own component (the
    labels used equal the vertices read), so the joined bytes are
    unambiguous.

    With live > 1, the components are grouped by the union-find par over
    comp_ids, and the groups, each coded alike, are joined by byte 255,
    which no label takes.  Returns None when fewer than live groups hold a
    free vertex: the set left without one can never be joined.
    """
    size = len(bnd[0])
    D = len(bnd)
    seen = [-1] * size  # seen[x] == c: x is on a counted cycle of ring pair c
    sig = [0] * size
    base = len(free) + 1
    for c in range(D):
        bc = bnd[c]
        bd = bnd[c - 1]
        for x in free:
            if seen[x] != c:
                cycle = []
                y = x
                while seen[y] != c:
                    seen[y] = c
                    cycle.append(y)
                    y = bc[y]
                    seen[y] = c
                    cycle.append(y)
                    y = bd[y]
                length = len(cycle)
                for y in cycle:
                    sig[y] = sig[y] * base + length
    label = [-1] * size
    groups: dict[int, list[bytes]] = {}
    for x in free:
        if seen[x] == D:
            continue
        members = [x]
        seen[x] = D
        for y in members:
            for bc in bnd:
                z = bc[y]
                if seen[z] != D:
                    seen[z] = D
                    members.append(z)
        least = min([sig[y] for y in members])
        best = None
        for root in members:
            if sig[root] != least:
                continue
            label[root] = 0
            order = [root]
            code = []
            for y in order:
                for bc in bnd:
                    z = bc[y]
                    lz = label[z]
                    if lz < 0:
                        lz = label[z] = len(order)
                        order.append(z)
                    code.append(lz)
            for y in order:
                label[y] = -1
            if best is None or code < best:
                best = code
        groups.setdefault(_find(par, comp_ids[x]) if live > 1 else 0, []).append(bytes(best))
    if len(groups) < live:
        return None
    return b"\xff".join(sorted(b"".join(sorted(g)) for g in groups.values()))


def _histogram(G: ColoredGraph, connected_only: bool) -> tuple[dict[int, int], int]:
    """Face histogram of G by a recursion memoized on boundary states.

    Returns (counts, states): counts maps each face count to the number of
    pairings attaining it (with connected_only, of pairings joining all q
    components); states is the number of entries of its memo.

    The walk places pairs as `_scan` does, on `_walk`'s state and through
    `_children`; the union-find only counts with connected_only.  With r
    pairs to go, the faces the rest of a pairing closes depend only on the
    boundary graph B: the free vertices, joined by every color's path ends.
    So each level returns its residual histogram, the faces closed below
    it, and adds its children's, each shifted by the faces its pair
    closes.  A histogram is kept as its generating polynomial evaluated at
    x = 2**k, one big int: counts never reach |M_n| < 2**k, so the count of
    f faces is bits k*f to k*f + k - 1, a shift multiplies by x**d and the
    sum of two histograms is the sum of their ints.

    States with 5 to 127 pairs to go, and with 4 while union-find sets are
    still apart, are memoized for the call on `_boundary_code`, the
    isomorphism class of B, with its components grouped by union-find set
    under connected_only: lower down a subtree costs less than its key, and
    above 127 a label no longer fits a byte below 255.  A state with a set
    left without a free vertex can never be joined, so it adds nothing.

    Once every set is joined (live == 1), a state with r = 4 or 3 pairs to
    go is scored whole from a table.  Rank the 2r free vertices in list
    order; color c's path ends pair them by a matching B_c, and a
    completion P closes F(P) = sum over c of cycles(P u B_c) faces.  The
    table `_EIGHT_ROWS` or `_SIX_ROWS` holds B_c's row, one byte
    cycles(P u B_c) - 1 for each of the 105 or 15 completions P, found
    from the partner ranks of B_c's first 2r - 3 points (see `_Rows`).
    The sum of the colors' rows holds F(P) - D <= (r - 1) * D in byte P,
    and the residual histogram is read off its bytes, one count per value.
    A sum carries past a byte from D = 86 at r = 4 and from D = 128 at r
    = 3, so there the walk goes on to the level below.

    Table-scored states are not memoized.  Keyed on the table sum, a memo
    at 4 pairs to go held 4.5 times the states of the D = 4, n = 10
    histogram and raised its peak from 64 to 265 MB maxrss, for a 7-13%
    gain in time and none at n <= 7.  A joined state reaches 3 pairs to go
    only at the root, below a join made at 4 pairs to go or for D from 86;
    keyed on the table sum, a memo there answered 0-21% of its lookups.

    The last two levels, where the walk still reaches them (at n = 2, with
    sets still apart at 3 pairs to go, or for D from 128), are scored by
    `_last_two`, as in `_scan`.
    """
    D = G.D
    n = G.n
    if n == 1:
        return {D: 1}, 0
    two_n = 2 * n
    bnd, nxt, prv, par, comp_ids, q = _walk(G)
    S = two_n  # sentinel of the free list
    k = count_matchings(n).bit_length()
    x_to = [1 << k * f for f in range(2 * D + 1)]  # x**f for the last two levels
    memo: dict[bytes, int] = {}  # residual histograms on canonical codes
    rank = [0] * two_n  # rank of each free vertex in list order

    def rec(remaining: int, live: int) -> int:
        u = nxt[S]
        if remaining == 2:
            if live > 2:
                return 0
            a = nxt[u]
            b = nxt[a]
            ru = _find(par, comp_ids[u])
            h = 0
            for v, f in _last_two(bnd, u, a, b, nxt[b]):
                # with live == 2 only (u, v) can join the two sets
                if live == 1 or _find(par, comp_ids[v]) != ru:
                    h += x_to[f]
            return h
        if live == 1 and remaining == 4 and 3 * D < 256:
            return _EIGHT_ROWS.residual(_eight_rows(bnd, nxt, u, rank)[0], D, k)
        if live == 1 and remaining == 3 and 2 * D < 256:
            # likewise with six
            a = nxt[u]
            b = nxt[a]
            c = nxt[b]
            d = nxt[c]
            rank[u] = 0
            rank[a] = 1
            rank[b] = 2
            rank[c] = 3
            rank[d] = 4
            rank[nxt[d]] = 5
            rows = 0
            for bc in bnd:
                rows += _SIX_ROWS[36 * rank[bc[u]] + 6 * rank[bc[a]] + rank[bc[b]]]
            return _SIX_ROWS.residual(rows, D, k)
        key = None
        if 4 < remaining <= 127 or remaining == 4 and live > 1:
            free = []
            x = u
            while x != S:
                free.append(x)
                x = nxt[x]
            key = _boundary_code(bnd, free, par, comp_ids, live)
            if key is None:
                return 0
            h = memo.get(key)
            if h is not None:
                return h
        h = 0
        for v, dclosed, lv in _children(bnd, nxt, prv, par, comp_ids, u, live):
            h += rec(remaining - 1, lv) << k * dclosed
        if key is not None:
            memo[key] = h
        return h

    h = rec(n, q if connected_only else 1)
    states = len(memo)
    del rec  # rec refers to itself: free the memo now, not at the next gc
    mask = (1 << k) - 1
    counts = {}
    f = 0
    while h:
        c = h & mask
        if c:
            counts[f] = c
        h >>= k
        f += 1
    return counts, states


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
    # boundary states the memoized recursion stored, the canonical codes in
    # its memo; a work count, kept out of equality and of the JSON report
    states: int = field(default=0, compare=False)

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
    """Exact face-count histogram over every pairing of G's vertices.

    Graphs with n above budget are refused.  The sum is `_histogram`'s
    memoized recursion; states counts the boundary states it stored, one
    canonical code each; states scored from a matching table are not
    stored.
    """
    if G.n > budget:
        raise BudgetExceeded(
            f"exhaustive enumeration over {count_matchings(G.n)} pairings "
            f"(n={G.n}) exceeds the configured budget n <= {budget}"
        )
    counts, states = _histogram(G, connected_only)
    return FaceHistogram(counts, connected_only, G.n, G.D, states)


def _rational(x) -> Fraction:
    """x as a Fraction; a float by its shortest decimal, so 0.1 is 1/10.

    Fraction(0.1) is the float's exact binary value, 3602879701896397/2**55,
    not the number it was written as.  The CLI's `_parse_nu` reads the
    decimal text the same way.
    """
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


class ExpectationPoly:
    """Integer-coefficient Laurent polynomial in N with exact exponents.

    Terms map exponents F - nu*n (stored as Fractions) to integer
    coefficients.  Addition requires matching nu and n; multiplication adds
    the n's, which mirrors taking products of invariants on disjoint graphs.
    """

    __slots__ = ("nu", "n", "terms")

    def __init__(self, nu, n: int, terms: dict):
        object.__setattr__(self, "nu", _rational(nu))
        object.__setattr__(self, "n", _integral(n))
        clean = {}
        for e, c in terms.items():
            c = _integral(c)
            if c:
                clean[_rational(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExpectationPoly is immutable")

    @classmethod
    def from_histogram(cls, hist: FaceHistogram, nu) -> "ExpectationPoly":
        nu = _rational(nu)
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
    return Fraction(G.D - 1) if nu is None else _rational(nu)


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

    Works past the histogram budget thanks to pruning.  The least exact
    node_budget of random_colored_graph(3, 16, s) for s = 0, 1, 2, 3 is
    136,504, 3,521, 29,045 and 3,826 nodes, and of random_colored_graph(4,
    12, s) 41,729, 19,119, 57,243 and 60,939; those searches take 0.02-0.8
    s (CPU time, one core of a shared 2-core x86 host, Python 3.11).  A
    search cut by node_budget (at least 1) reports exact=False
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
    raises BudgetExceeded; a node_budget below 1 raises ValueError.  Where
    T exceeds 2 * (D - 1) * n - D + 2, the most faces a connected pairing
    of G u G can close, the search ends at its root (every melonic G).
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
