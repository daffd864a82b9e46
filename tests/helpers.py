"""Independent oracles the tests check the library against.

Everything here recomputes quantities by a different route than the package
does: faces by union-find instead of boundary splicing, pairings by list
recursion instead of the linked-list engine, trace invariants by the full
multi-index sum, melonic recognition by exploring every contraction order.
"""

from __future__ import annotations

import math
from itertools import permutations, product

from tensorwick.graphs import ColoredGraph, Matching, random_colored_graph


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def dsu_cycle_count(pairs_a, pairs_b, two_n: int) -> int:
    """Components of the union multigraph, via union-find (not walking)."""
    parent = list(range(two_n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = two_n
    for u, v in list(pairs_a) + list(pairs_b):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            count -= 1
    return count


def all_matchings(two_n: int):
    """Every perfect matching on 0..two_n-1 as a list of pairs."""
    if two_n == 0:
        yield []
        return
    verts = list(range(two_n))

    def rec(remaining):
        if not remaining:
            yield []
            return
        u = remaining[0]
        for i in range(1, len(remaining)):
            v = remaining[i]
            rest = remaining[1:i] + remaining[i + 1 :]
            for tail in rec(rest):
                yield [(u, v)] + tail

    yield from rec(verts)


def faces_of(G: ColoredGraph, m0_pairs) -> int:
    two_n = 2 * G.n
    return sum(dsu_cycle_count(m.pairs, m0_pairs, two_n) for m in G.matchings)


def closed_faces(G: ColoredGraph, partial_pairs) -> int:
    """Faces a partial pairing closes: per color, the union-find components
    of that color's pairs plus the partial pairs that hold no free vertex."""
    two_n = 2 * G.n
    free = set(range(two_n)) - {w for p in partial_pairs for w in p}
    total = 0
    for m in G.matchings:
        parent = list(range(two_n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in list(m.pairs) + list(partial_pairs):
            parent[find(u)] = find(v)
        roots = {find(x) for x in range(two_n)}
        total += len(roots - {find(x) for x in free})
    return total


def pieces(G: ColoredGraph, pairs) -> int:
    """Components of G once the pairs are added to its edges, via union-find."""
    all_pairs = [p for m in G.matchings for p in m.pairs] + list(pairs)
    return dsu_cycle_count(all_pairs, [], 2 * G.n)


def joined_connected(G: ColoredGraph, m0_pairs) -> bool:
    return pieces(G, m0_pairs) == 1


def brute_histogram(G: ColoredGraph, connected_only: bool = False) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m0 in all_matchings(2 * G.n):
        if connected_only and not joined_connected(G, m0):
            continue
        f = faces_of(G, m0)
        counts[f] = counts.get(f, 0) + 1
    return counts


def cycle_length_histogram(n: int) -> dict[int, int]:
    """k -> number of matchings on 2n vertices whose cycle against the
    reference pairing {2i, 2i+1} through vertex 0 holds k reference pairs.

    The cycle is found as vertex 0's union-find component, not by walking.
    """
    counts: dict[int, int] = {}
    for m0 in all_matchings(2 * n):
        parent = list(range(2 * n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in [(2 * i, 2 * i + 1) for i in range(n)] + m0:
            parent[find(u)] = find(v)
        root = find(0)
        k = sum(find(x) == root for x in range(2 * n)) // 2
        counts[k] = counts.get(k, 0) + 1
    return counts


def naive_trace(G: ColoredGraph, entries) -> float:
    """The literal multi-index sum: one D-tuple of indices per vertex, one
    delta per colored edge.  Exponentially slow; only for tiny N."""
    N = entries.shape[0]
    two_n = 2 * G.n
    D = G.D
    total = 0.0
    for assign in product(range(N), repeat=two_n * D):
        idx = [assign[v * D : (v + 1) * D] for v in range(two_n)]
        ok = True
        for c in range(D):
            for u, v in G.matchings[c].pairs:
                if idx[u][c] != idx[v][c]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        term = 1.0
        for v in range(two_n):
            term *= entries[idx[v]]
        total += term
    return total


def melonic_all_orders(G: ColoredGraph) -> frozenset[bool]:
    """Verdicts reachable by every possible contraction order."""
    D = G.D
    init = (
        frozenset(range(2 * G.n)),
        tuple(frozenset(m.pairs) for m in G.matchings),
    )
    memo: dict = {}

    def partner_in(mat, u):
        for x, y in mat:
            if x == u:
                return y
            if y == u:
                return x
        raise AssertionError("vertex not matched")

    def verdicts(state) -> frozenset[bool]:
        if state in memo:
            return memo[state]
        alive, mats = state
        if not alive:
            return frozenset({True})
        mult: dict = {}
        for mat in mats:
            for p in mat:
                mult[p] = mult.get(p, 0) + 1
        moves = [(p, k) for p, k in mult.items() if k in (D, D - 1)]
        if not moves:
            memo[state] = frozenset({False})
            return memo[state]
        out: set[bool] = set()
        for (u, v), k in moves:
            new_alive = alive - {u, v}
            new_mats = []
            for mat in mats:
                if (u, v) in mat:
                    new_mats.append(mat - {(u, v)})
                else:
                    a = partner_in(mat, u)
                    b = partner_in(mat, v)
                    pair = (a, b) if a < b else (b, a)
                    new_mats.append(
                        (mat - {tuple(sorted((u, a))), tuple(sorted((v, b)))})
                        | {pair}
                    )
            out |= verdicts((new_alive, tuple(new_mats)))
        memo[state] = frozenset(out)
        return memo[state]

    return verdicts(init)


def random_connected_graph(D: int, n: int, seed: int) -> ColoredGraph:
    """Rejection-sample a uniform graph conditioned on connectedness."""
    for attempt in range(10_000):
        g = random_colored_graph(D, n, seed * 131_071 + attempt)
        if g.is_connected:
            return g
    raise RuntimeError("no connected graph found")


def spec_quartic_melon() -> ColoredGraph:
    return ColoredGraph(
        [
            Matching([(0, 1), (2, 3)], 4),
            Matching([(0, 2), (1, 3)], 4),
            Matching([(0, 1), (2, 3)], 4),
        ]
    )


def six_vertex_cyclic() -> ColoredGraph:
    """Connected, non-melonic, non-planar: no vertex pair shares two colors."""
    return ColoredGraph(
        [
            Matching([(0, 1), (2, 3), (4, 5)], 6),
            Matching([(1, 2), (3, 4), (5, 0)], 6),
            Matching([(0, 2), (1, 4), (3, 5)], 6),
        ]
    )


def two_color_cycle(n: int) -> ColoredGraph:
    """The connected 2-colored graph on 2n vertices: one alternating cycle."""
    m1 = Matching([(i, i + 1) for i in range(0, 2 * n, 2)], 2 * n)
    m2 = Matching([(i, (i + 1) % (2 * n)) for i in range(1, 2 * n, 2)], 2 * n)
    return ColoredGraph([m1, m2])


def relabelings(G: ColoredGraph):
    """G's colors, each as its sorted pairs, under every relabeling of its vertices.

    One tuple per permutation of 0..2n-1, all (2n)! of them, colors kept in
    order.
    """
    for perm in permutations(range(2 * G.n)):
        yield tuple(
            tuple(sorted((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]) for u, v in m.pairs))
            for m in G.matchings
        )


def least_relabeling(G: ColoredGraph) -> tuple:
    """The least of G's relabelings: equal for two graphs exactly when they are isomorphic."""
    return min(relabelings(G))


def component_of(G: ColoredGraph) -> list[int]:
    """Each vertex's component of G, numbered by least vertex, via union-find."""
    two_n = 2 * G.n
    parent = list(range(two_n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in G.matchings:
        for u, v in m.pairs:
            parent[find(u)] = find(v)
    roots = sorted({find(x) for x in range(two_n)})
    return [roots.index(find(x)) for x in range(two_n)]


def boundary_matchings(G: ColoredGraph, mate: dict, free) -> list[dict]:
    """Each color's boundary matching of the free vertices under the partial
    pairing mate, found by walking the alternating path from every free
    vertex until it meets a free one."""
    bnd = []
    for m in G.matchings:
        partner = m.partner_array()
        b = {}
        for x in free:
            y = partner[x]
            while y not in free:
                y = partner[mate[y]]
            b[x] = y
        bnd.append(b)
    return bnd


def grouped_code(bnd: list[dict], free, group_of) -> tuple:
    """A canonical form of the boundary graph on the free vertices, its
    components grouped by group_of: a depth-first code minimized over every
    root of each component, sorted within each group, groups sorted.
    Equal forms mean isomorphic grouped boundary graphs, colors in order."""

    def code(root):
        label = {root: 0}
        order = [root]

        def visit(x):
            for b in bnd:
                if b[x] not in label:
                    label[b[x]] = len(order)
                    order.append(b[x])
                    visit(b[x])

        visit(root)
        return tuple(tuple(label[b[x]] for b in bnd) for x in order)

    groups = {}
    done = set()
    for x in sorted(free):
        if x in done:
            continue
        members = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for b in bnd:
                if b[y] not in members:
                    members.add(b[y])
                    stack.append(b[y])
        done |= members
        groups.setdefault(group_of(x), []).append(min(code(y) for y in members))
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def joined_sets(comp: list[int], q: int, mate: dict):
    """(live, top): the union-find over G's q components once the pairs of
    mate join them, as the number of sets and the root of a component.
    With q = 1 every component counts as one set."""
    if q == 1:
        return 1, lambda c: 0
    up = list(range(q))

    def top(c):
        while up[c] != c:
            c = up[c]
        return c

    for u, v in mate.items():
        a, b = top(comp[u]), top(comp[v])
        if a != b:
            up[a] = b
    return len({top(c) for c in range(q)}), top


def memo_state_count(G: ColoredGraph, connected_only: bool = False) -> int:
    """Entries of `wick._histogram`'s memo, its canonical codes.

    Walks the pairing prefixes in the histogram's order (least free vertex
    first, partners ascending) and skips the subtree of every state whose
    key was seen before.  Each boundary matching is found by walking the
    alternating paths from scratch, the components' joins by union-find,
    and the isomorphism class of the boundary graph by a depth-first code
    minimized over every root.  Keys are canonical with 5 or more pairs to
    go, or 4 while components are still apart.  Once all are joined, a
    state with 4 pairs to go is scored whole and never stored while its
    table's byte sums fit (3 * D < 256), and no state with 3 pairs to go
    or fewer is stored.
    """
    D, two_n = G.D, 2 * G.n
    comp = component_of(G)
    q = max(comp) + 1 if connected_only else 1
    canonical = set()

    def rec(mate, free):
        r = len(free) // 2
        live, top = joined_sets(comp, q, mate)
        if r < 4 or r == 4 and live == 1 and 3 * D < 256:
            return
        if r > 4 or live > 1:
            key = grouped_code(boundary_matchings(G, mate, free), free, lambda x: top(comp[x]))
            if len(key) < live:
                return  # a set that can no longer be joined
            if key in canonical:
                return
            canonical.add(key)
        u = min(free)
        for v in sorted(free - {u}):
            rec({**mate, u: v, v: u}, free - {u, v})

    rec({}, frozenset(range(two_n)))
    return len(canonical)


def ring_cycles(bnd: list[dict], free) -> int:
    """F_ring: the cycles of each ring pair of boundary matchings (color c
    and c - 1), summed over the D pairs, counted by union-find."""
    total = 0
    for c in range(len(bnd)):
        pairs = [(x, bnd[c][x]) for x in free] + [(x, bnd[c - 1][x]) for x in free]
        total += len(free) - sum(1 for _ in _merges(pairs, free))
    return total


def boundary_component_count(bnd: list[dict], free) -> int:
    """q_B: the components of the boundary graph, by union-find."""
    pairs = [(x, b[x]) for b in bnd for x in free]
    return len(free) - sum(1 for _ in _merges(pairs, free))


def _merges(pairs, vertices):
    parent = {x: x for x in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in pairs:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            yield a


def reference_descent(G: ColoredGraph, connected_only: bool) -> list:
    """The greedy incumbent of `wick._scan`, recomputed from scratch.

    Pairs the least free vertex u with the partner closing the most faces
    (the colors whose boundary path from u ends there), among ties the one
    leaving the most ring cycles, then the least; while components are
    apart, only with partners in another union-find set.
    """
    comp = component_of(G)
    q = max(comp) + 1 if connected_only else 1
    mate, free = {}, frozenset(range(2 * G.n))
    while free:
        u = min(free)
        bnd = boundary_matchings(G, mate, free)
        live, top = joined_sets(comp, q, mate)
        options = [v for v in sorted(free - {u}) if live == 1 or top(comp[v]) != top(comp[u])]

        def rank(v):
            closes = sum(b[u] == v for b in bnd)
            rest = free - {u, v}
            after = ring_cycles(boundary_matchings(G, {**mate, u: v, v: u}, rest), rest)
            return closes, after, -v

        v = max(options, key=rank)
        mate = {**mate, u: v, v: u}
        free = free - {u, v}
    return sorted((u, v) for u, v in mate.items() if u < v)


def reference_scan(G: ColoredGraph, connected_only: bool, node_budget: int, target=None):
    """`wick._scan` by plain recursion, with its documented node accounting.

    Returns (counts, witness, exact, nodes).  At every state the faces
    closed, the boundary matchings, F_ring, q_B and the joins are
    recomputed from scratch by path walks and union-find; a table state
    (4 pairs to go, all joined, 3 * D < 256) scores each of its 105
    completions by `faces_of`, and a connected walk keys its states with 4
    or more pairs to go by `grouped_code`.  Costs: one node per state, one
    more for a table read (checked against the budget before it), a memo
    hit one node, and at 2 pairs to go two nodes per completion, the
    second only for completions not below best.
    """
    D, n = G.D, G.n
    comp = component_of(G)
    q = max(comp) + 1 if connected_only else 1
    decide = target is not None
    counts = {}
    memo = {}
    state = {"nodes": 0, "exact": True, "witness": None}
    if decide:
        state["best"] = target
    else:
        incumbent = reference_descent(G, connected_only)
        state["best"] = faces_of(G, incumbent)

    class Hit(Exception):
        pass

    def spend():
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            state["exact"] = False
            return False
        return True

    def count(pairs, f):
        # a counted leaf: f is at least best
        counts[f] = counts.get(f, 0) + 1
        if f > state["best"] or state["witness"] is None:
            state["best"] = f
            state["witness"] = sorted(pairs)
            if decide:
                raise Hit

    def rec(mate, free):
        if not state["exact"] or not spend():
            return
        r = len(free) // 2
        best = state["best"]
        prefix = [(u, v) for u, v in mate.items() if u < v]
        closed = closed_faces(G, prefix)
        live, top = joined_sets(comp, q, mate)
        bnd = boundary_matchings(G, mate, free)
        room = 2 * (best - closed) - D * r
        if room > D * r or r > 2 and room > ring_cycles(bnd, free):
            return
        need = best - closed - (D - 1) * r + D * (live - 1)
        if live > 1 and need > live and boundary_component_count(bnd, free) < need:
            return
        if r == 0:  # n = 1: the root's one child is the leaf
            count(prefix, closed)
            return
        if r == 4 and live == 1 and 3 * D < 256:
            if not spend():
                return
            scored = [(faces_of(G, prefix + tail), tail) for tail in _completions(free)]
            top_f = max(f for f, _ in scored)
            if top_f < best:
                return
            if decide:
                f, tail = next((f, t) for f, t in scored if f >= best)
                counts[f] = 1
                state["witness"] = sorted(prefix + tail)
                raise Hit
            counts[top_f] = counts.get(top_f, 0) + sum(f == top_f for f, _ in scored)
            if top_f > best or state["witness"] is None:
                state["best"] = top_f
                state["witness"] = sorted(prefix + next(t for f, t in scored if f == top_f))
            return
        if r == 2:
            u = min(free)
            for v in sorted(free - {u}):
                y, z = sorted(free - {u, v})
                pairs = prefix + [(u, v), (y, z)]
                f = faces_of(G, pairs)
                if not spend():
                    return
                if f < state["best"]:
                    continue
                if not spend():
                    return
                if connected_only and not joined_connected(G, pairs):
                    continue
                count(pairs, f)
            return
        key = None
        if q > 1 and 4 <= r <= 127:
            key = grouped_code(bnd, free, lambda x: top(comp[x]))
            if len(key) < live:
                return
            if key in memo:
                m, c = memo[key]
                if closed + m < best:
                    return
                if c and closed + m == best and state["witness"] is not None:
                    counts[best] += c
                    return
            before = counts.get(best, 0)
        u = min(free)
        for v in sorted(free - {u}):
            rec({**mate, u: v, v: u}, free - {u, v})
        if key is not None and state["exact"]:
            now = state["best"]
            c = counts.get(now, 0) - (before if now == best else 0)
            memo[key] = (now - closed, c) if c else (now - closed - 1, 0)

    try:
        rec({}, frozenset(range(2 * n)))
    except Hit:
        pass
    if state["witness"] is None and not decide:
        return {state["best"]: 1}, incumbent, False, state["nodes"]
    return counts, state["witness"], state["exact"], state["nodes"]


def _completions(free):
    """The perfect matchings of the free vertices in lexicographic order."""
    points = sorted(free)
    for m in all_matchings(len(points)):
        yield [(points[a], points[b]) for a, b in m]
