import itertools
import random
import tracemalloc

import pytest

from treealpha import (
    GraphError,
    build_graph,
    clique_tree,
    complete_graph,
    cycle_graph,
    independence_number,
    path_graph,
    validate,
)
from treealpha.chordal import _perfect_order
from .conftest import (
    all_labeled_graphs,
    chordal_fill_in,
    cycle_has_chord,
    has_edge,
    induced_subgraph,
    interval_graph,
    is_chordal,
    random_graph,
    reference_clique_tree,
)


def chordal_by_cycle_enumeration(g):
    """Reference check: every cycle of length >= 4 has a chord.

    Enumerates all simple cycles by DFS over paths; only viable for tiny n.
    """

    def extend(path, seen):
        start = path[0]
        last = path[-1]
        for nxt in g.adj[last]:
            if nxt == start and len(path) >= 4:
                if not cycle_has_chord(g, path):
                    return False
            elif nxt not in seen and nxt > start:
                seen.add(nxt)
                if not extend(path + [nxt], seen):
                    return False
                seen.discard(nxt)
        return True

    for v in range(g.n):
        if not extend([v], {v}):
            return False
    return True


def test_examples():
    assert _perfect_order(cycle_graph(4)) is None
    order, _ = _perfect_order(path_graph(5))
    assert sorted(order) == list(range(5))
    k5_minus = build_graph(5, [e for e in itertools.combinations(range(5), 2) if e != (0, 1)])
    assert _perfect_order(k5_minus) is not None
    assert chordal_by_cycle_enumeration(k5_minus)
    assert _perfect_order(build_graph(0, [])) == ([], [])


def test_order_is_simplicial_last():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        found = _perfect_order(g)
        if found is None:
            continue
        order = found[0]
        for i, v in enumerate(order):
            earlier = [u for u in g.adj[v] if u in order[:i]]
            for a, b in itertools.combinations(earlier, 2):
                assert has_edge(g, a, b)


def test_recognition_matches_cycle_enumeration():
    for g in all_labeled_graphs(5):
        assert (_perfect_order(g) is not None) == chordal_by_cycle_enumeration(g)
        assert is_chordal(g) == chordal_by_cycle_enumeration(g)


def test_chordality_is_hereditary():
    rng = random.Random(6)
    for _ in range(30):
        g = random_graph(rng.randint(2, 7), 0.4, rng)
        if _perfect_order(g) is None:
            continue
        for v in range(g.n):
            sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
            assert _perfect_order(sub) is not None


def test_clique_tree_examples():
    ct = clique_tree(path_graph(3))
    assert set(ct.bags) == {frozenset({0, 1}), frozenset({1, 2})}
    assert len(ct.tree_edges) == 1

    ct = clique_tree(complete_graph(4))
    assert ct.bags == (frozenset({0, 1, 2, 3}),)

    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    ct = clique_tree(star)
    assert sorted(sorted(b) for b in ct.bags) == [[0, 1], [0, 2], [0, 3]]


def test_clique_tree_rejects_non_chordal_and_null():
    with pytest.raises(GraphError):
        clique_tree(cycle_graph(4))
    with pytest.raises(GraphError):
        clique_tree(build_graph(0, []))


def test_clique_tree_validates_with_unit_independence():
    rng = random.Random(7)
    seen = 0
    while seen < 25:
        g = random_graph(rng.randint(1, 8), 0.45, rng)
        if not is_chordal(g):
            continue
        seen += 1
        ct = clique_tree(g)
        assert validate(g, ct).ok
        assert all(not u for u in ct.refined)
        assert independence_number(g, ct) == 1


def test_clique_tree_bags_are_exactly_maximal_cliques():
    rng = random.Random(8)
    seen = 0
    while seen < 15:
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        if not is_chordal(g):
            continue
        seen += 1
        ct = clique_tree(g)
        # Reference maximal cliques by brute force.
        cliques = set()
        for size in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                if all(has_edge(g, a, b) for a, b in itertools.combinations(combo, 2)):
                    cliques.add(frozenset(combo))
        maximal = {c for c in cliques if not any(c < d for d in cliques)}
        assert set(ct.bags) == maximal


# Exact output on small graphs whose ties decide it. The reference search
# picks the largest weight, then the smallest id; bags are the maximal cliques sorted
# by their sorted members; tree edges come from Kruskal over (-|C_i & C_j|,
# i, j), and a component without clique 0 joins it by (0, smallest id).
PINNED = [
    # Equal MCS weights at every step of a shuffled path.
    (5, [(3, 1), (1, 4), (4, 0), (0, 2)],
     (0, 2, 4, 1, 3), [[0, 2], [0, 4], [1, 3], [1, 4]],
     ((0, 1), (1, 3), (2, 3))),
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)],
     (0, 1, 2, 3, 4, 5), [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]],
     ((0, 1), (1, 2), (2, 3))),
    # Equal intersection sizes: every pair of cliques shares the centre.
    (5, [(2, 0), (2, 1), (2, 3), (2, 4)],
     (0, 2, 1, 3, 4), [[0, 2], [1, 2], [2, 3], [2, 4]],
     ((0, 1), (0, 2), (0, 3))),
    # Three cliques share {1, 2}, the fourth meets one of them in {4}.
    (6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (4, 5)],
     (0, 1, 2, 3, 4, 5), [[0, 1, 2], [1, 2, 3], [1, 2, 4], [4, 5]],
     ((0, 1), (0, 2), (2, 3))),
    # Disconnected: later components join clique 0.
    (9, [(5, 6), (6, 7), (5, 7), (1, 8), (3, 4), (4, 0)],
     (0, 4, 3, 1, 8, 2, 5, 6, 7), [[0, 4], [1, 8], [2], [3, 4], [5, 6, 7]],
     ((0, 1), (0, 2), (0, 3), (0, 4))),
    # Disconnected with interleaved clique ids: each component joins clique
    # 0 through its smallest id, not through the clique first reached.
    (7, [(1, 3), (3, 5), (2, 4), (4, 6)],
     (0, 1, 3, 5, 2, 4, 6), [[0], [1, 3], [2, 4], [3, 5], [4, 6]],
     ((0, 1), (0, 2), (1, 3), (2, 4))),
]


@pytest.mark.parametrize("n, edges, order, bags, tree_edges", PINNED)
def test_exact_order_bags_and_tree_edges(n, edges, order, bags, tree_edges):
    g = build_graph(n, edges)
    assert reference_clique_tree(g) == (order, bags, tree_edges)
    ct = clique_tree(g)
    assert [sorted(b) for b in ct.bags] == bags
    assert ct.tree_edges == tree_edges


def test_recognition_and_bags_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    seen = {"chordal": 0, "not chordal": 0, "disconnected chordal": 0}
    for i in range(600):
        g = random_graph(rng.randint(1, 14), rng.choice([0.1, 0.25, 0.5, 0.8]), rng)
        if i % 2:
            g = chordal_fill_in(g, rng)
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        ok = _perfect_order(g) is not None
        assert ok == nx.is_chordal(ng)
        if not ok:
            seen["not chordal"] += 1
            continue
        seen["chordal"] += 1
        seen["disconnected chordal"] += not nx.is_connected(ng)
        bags = clique_tree(g).bags
        assert len(bags) == len(set(bags))
        assert set(bags) == set(nx.chordal_graph_cliques(ng))
    assert min(seen.values()) >= 50, seen


def test_clique_tree_of_a_large_star_lists_no_clique_pairs():
    # K_{1,999}: 999 cliques all hold the centre. Listing the pairs that
    # share a vertex took 82 MiB here; the tree needs well under 1 MiB.
    g = build_graph(1000, [(0, v) for v in range(1, 1000)])
    tracemalloc.start()
    try:
        ct = clique_tree(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ct.tree_edges == tuple((0, j) for j in range(1, 999))
    assert peak < 4 * 2**20, peak


def shuffled_k_tree(n, k, rng):
    """A k-tree on n >= k vertices with shuffled ids: a k-clique, then each
    new vertex joined to a random k-clique already present."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = list(itertools.combinations(ids[:k], 2))
    cliques = [ids[:k]]
    for v in ids[k:]:
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [[u for u in base if u != x] + [v] for x in base]
    return build_graph(n, edges)


def star(n, rng):
    centre = rng.randrange(n)
    return build_graph(n, [(centre, v) for v in range(n) if v != centre])


def disjoint_union(parts, rng):
    """The parts side by side, their vertex ids shuffled together."""
    n = sum(g.n for g in parts)
    ids = list(range(n))
    rng.shuffle(ids)
    edges, offset = [], 0
    for g in parts:
        edges += [(ids[offset + u], ids[offset + v]) for u, v in g.edges()]
        offset += g.n
    return build_graph(n, edges)


def differential_corpus(rng):
    """(kind, graph) pairs with n up to about 250."""
    def chordal_part():
        kind = rng.choice(["fill-in", "k-tree", "interval", "star"])
        n = rng.randint(1, 80)
        if kind == "fill-in":
            return chordal_fill_in(random_graph(n, rng.choice([0.5, 1, 2]) / n, rng), rng)
        if kind == "k-tree":
            return shuffled_k_tree(n + 4, rng.randint(1, 4), rng)
        if kind == "interval":
            return interval_graph(n, rng)
        return star(n, rng)

    for _ in range(40):
        n = rng.randint(1, 250)
        yield "fill-in", chordal_fill_in(random_graph(n, rng.choice([0.5, 1, 2]) / n, rng), rng)
    for k in range(1, 5):
        for _ in range(15):
            yield f"{k}-tree", shuffled_k_tree(rng.randint(k, 250), k, rng)
    for _ in range(40):
        yield "interval", interval_graph(rng.randint(1, 250), rng)
    for _ in range(10):
        yield "star", star(rng.randint(1, 250), rng)
    for _ in range(40):
        yield "union", disjoint_union([chordal_part() for _ in range(rng.randint(2, 4))], rng)
    for _ in range(40):
        n = rng.randint(4, 250)
        yield "random", random_graph(n, rng.choice([1, 2, 4]) / n, rng)
    for _ in range(40):
        # A chordal graph plus one random edge, chordal or not.
        g = chordal_part()
        if g.n >= 2:
            u, v = rng.sample(range(g.n), 2)
            g = build_graph(g.n, list(g.edges()) + [(min(u, v), max(u, v))])
        yield "chordal plus an edge", g


def test_clique_tree_and_order_match_the_all_pairs_reference():
    rng = random.Random(19)
    seen = {}
    for kind, g in differential_corpus(rng):
        want = reference_clique_tree(g)
        if want is None:
            with pytest.raises(GraphError):
                clique_tree(g)
            seen["not chordal"] = seen.get("not chordal", 0) + 1
            continue
        _, bags, tree_edges = want
        ct = clique_tree(g)
        assert [sorted(b) for b in ct.bags] == bags
        assert ct.tree_edges == tree_edges
        seen[kind] = seen.get(kind, 0) + 1
    assert seen["not chordal"] >= 40, seen
    assert all(seen[k] >= 10 for k in ("fill-in", "1-tree", "4-tree", "union", "star")), seen


def test_bucket_search_is_a_maximum_cardinality_search():
    # The search behind clique_tree pops its buckets last in, first out, so
    # its order is not the pinned one. A plain replay checks that each
    # vertex, when visited, has the most visited neighbours among the
    # unvisited vertices, and that earlier[v] lists v's neighbours visited
    # before it, in visit order.
    rng = random.Random(19)
    seen = {"chordal": 0, "not chordal": 0}
    for _, g in differential_corpus(rng):
        found = _perfect_order(g)
        if reference_clique_tree(g) is None:
            assert found is None
            seen["not chordal"] += 1
            continue
        seen["chordal"] += 1
        order, earlier = found
        assert sorted(order) == list(range(g.n))
        weight = [0] * g.n
        unvisited = set(range(g.n))
        for v in order:
            assert weight[v] == max(weight[u] for u in unvisited)
            unvisited.remove(v)
            for u in g.adj[v]:
                weight[u] += 1
        pos = {v: i for i, v in enumerate(order)}
        for v in range(g.n):
            want = sorted((u for u in g.adj[v] if pos[u] < pos[v]), key=pos.__getitem__)
            assert earlier[v] == want
    assert min(seen.values()) >= 40, seen


def bench_interval_graph(n, rng):
    """Intervals of length 8-12 whose left ends advance by 1.5 on average,
    with shuffled ids: about 7 cover a point, and the clique number is near
    10, as on the benchmark's interval graphs."""
    spans = []
    for i in range(n):
        left = 3 * i // 2 + rng.randrange(2)
        spans.append((left, left + rng.randint(8, 12)))
    rng.shuffle(spans)
    by_left = sorted(range(n), key=lambda v: spans[v])
    edges = []
    for a, u in enumerate(by_left):
        for v in by_left[a + 1 :]:
            if spans[v][0] > spans[u][1]:
                break
            edges.append((min(u, v), max(u, v)))
    return build_graph(n, edges)


def test_clique_tree_matches_the_reference_at_bench_scale():
    rng = random.Random(29)
    for _ in range(3):
        g = bench_interval_graph(900, rng)
        _, bags, tree_edges = reference_clique_tree(g)
        assert 7 <= max(map(len, bags)) <= 12
        ct = clique_tree(g)
        assert [sorted(b) for b in ct.bags] == bags
        assert ct.tree_edges == tree_edges
    # K_{1,2000}: the reference lists two million clique pairs here, so
    # compare with what it gives, every pair meeting in the centre alone.
    g = star(2001, rng)
    centre = next(v for v in range(g.n) if len(g.adj[v]) == 2000)
    ct = clique_tree(g)
    assert [sorted(b) for b in ct.bags] == [
        sorted((centre, v)) for v in range(g.n) if v != centre
    ]
    assert ct.tree_edges == tuple((0, j) for j in range(1, 2000))


def test_clique_tree_memory_is_linear_on_a_path():
    # tracemalloc peaks are the same on every run of a fixed Python, so the
    # ratio does not depend on timing; a linear cost gives about 4.
    rng = random.Random(31)
    peaks = []
    for n in (5000, 20000):
        ids = list(range(n))
        rng.shuffle(ids)
        g = build_graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])
        tracemalloc.start()
        try:
            ct = clique_tree(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ct.bags) == n - 1
    assert peaks[1] <= 6 * peaks[0], peaks
