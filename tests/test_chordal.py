import itertools
import random

import pytest

from treealpha import (
    GraphError,
    build_graph,
    clique_tree,
    complete_graph,
    cycle_graph,
    independence_number,
    induced_subgraph,
    is_chordal,
    path_graph,
    validate,
)
from .conftest import all_labeled_graphs, cycle_has_chord, random_graph


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
    assert is_chordal(cycle_graph(4)) == (False, None)
    ok, order = is_chordal(path_graph(5))
    assert ok and len(order) == 5
    k5_minus = build_graph(5, [e for e in itertools.combinations(range(5), 2) if e != (0, 1)])
    assert is_chordal(k5_minus)[0]
    assert chordal_by_cycle_enumeration(k5_minus)
    assert is_chordal(build_graph(0, []))[0]


def test_order_is_simplicial_last():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        ok, order = is_chordal(g)
        if not ok:
            continue
        for i, v in enumerate(order):
            earlier = [u for u in g.adj[v] if u in order[:i]]
            for a, b in itertools.combinations(earlier, 2):
                assert g.has_edge(a, b)


def test_recognition_matches_cycle_enumeration():
    for g in all_labeled_graphs(5):
        assert is_chordal(g)[0] == chordal_by_cycle_enumeration(g)


def test_chordality_is_hereditary():
    rng = random.Random(6)
    for _ in range(30):
        g = random_graph(rng.randint(2, 7), 0.4, rng)
        if not is_chordal(g)[0]:
            continue
        for v in range(g.n):
            sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
            assert is_chordal(sub)[0]


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
        if not is_chordal(g)[0]:
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
        if not is_chordal(g)[0]:
            continue
        seen += 1
        ct = clique_tree(g)
        # Reference maximal cliques by brute force.
        cliques = set()
        for size in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                    cliques.add(frozenset(combo))
        maximal = {c for c in cliques if not any(c < d for d in cliques)}
        assert set(ct.bags) == maximal
