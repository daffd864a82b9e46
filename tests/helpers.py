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
    partners = G.partner_arrays()
    comp = [0] * two_n
    parent = list(range(two_n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in G.matchings:
        for u, v in m.pairs:
            parent[find(u)] = find(v)
    roots = sorted({find(x) for x in range(two_n)})
    for x in range(two_n):
        comp[x] = roots.index(find(x))
    q = len(roots) if connected_only else 1
    canonical = set()

    def boundary(mate, free):
        bnd = []
        for c in range(D):
            b = {}
            for x in free:
                y = partners[c][x]
                while y not in free:
                    y = partners[c][mate[y]]
                b[x] = y
            bnd.append(b)
        return bnd

    def code(bnd, root):
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

    def rec(mate, free):
        r = len(free) // 2
        up = list(range(q))

        def top(c):
            while up[c] != c:
                c = up[c]
            return c

        if q > 1:
            for u, v in mate.items():
                up[top(comp[u])] = top(comp[v])
        live = len({top(c) for c in range(q)})
        if r < 4 or r == 4 and live == 1 and 3 * D < 256:
            return
        if r > 4 or live > 1:
            bnd = boundary(mate, free)
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
                least = min(code(bnd, y) for y in members)
                groups.setdefault(top(comp[x]) if live > 1 else 0, []).append(least)
            if len(groups) < live:
                return  # a set that can no longer be joined
            key = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
            if key in canonical:
                return
            canonical.add(key)
        u = min(free)
        for v in sorted(free - {u}):
            rec({**mate, u: v, v: u}, free - {u, v})

    rec({}, frozenset(range(two_n)))
    return len(canonical)
