import itertools
import random
import tracemalloc

import pytest

from treealpha import (
    CapExceededError,
    GraphError,
    alpha_exact,
    alpha_of_subset,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    independence_number,
    make_decomposition,
    residual_independence_number,
)

from .conftest import (
    alpha_by_enumeration,
    all_labeled_graphs,
    complement,
    has_edge,
    induced_subgraph,
    random_graph,
    shuffled_path,
)


def test_alpha_examples():
    assert alpha_exact(cycle_graph(5)) == 2
    assert alpha_exact(complete_bipartite(3, 3)) == 3
    assert alpha_exact(build_graph(7, [])) == 7


def test_omega_examples():
    # Clique numbers, as independence numbers of the complements.
    assert alpha_exact(complement(complete_graph(4))) == 4
    assert alpha_exact(complement(cycle_graph(5))) == 2
    assert alpha_exact(complement(build_graph(0, []))) == 0


def test_alpha_exhaustive_small():
    for n in range(5):
        for g in all_labeled_graphs(n):
            assert alpha_exact(g) == alpha_by_enumeration(g)


def test_alpha_random_mid_size():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(8, rng.choice([0.2, 0.5, 0.8]), rng)
        assert alpha_exact(g) == alpha_by_enumeration(g)


def test_alpha_omega_complement_duality():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        comp = complement(g)
        # omega(g) = alpha(comp), checked against enumeration.
        assert alpha_exact(comp) == alpha_by_enumeration(comp)


def test_cap_is_enforced():
    g = build_graph(65, [])
    with pytest.raises(CapExceededError):
        alpha_exact(g)
    # A clique needs no search, but the cap still comes first.
    k65 = complete_graph(65)
    with pytest.raises(CapExceededError):
        alpha_of_subset(k65, range(65))
    with pytest.raises(CapExceededError):
        independence_number(k65, make_decomposition(k65, [range(65)]))
    assert alpha_of_subset(k65, range(64)) == 1


def test_alpha_of_subset():
    g = cycle_graph(6)
    assert alpha_of_subset(g, {0, 1, 2, 3}) == 2  # induced P_4
    assert alpha_of_subset(g, set()) == 0
    assert alpha_of_subset(g, range(6)) == 3


def test_alpha_of_subset_cost_follows_the_subset():
    g, ids = shuffled_path(20000, random.Random(7))
    bag = ids[10000:10003]
    tracemalloc.start()
    try:
        assert alpha_of_subset(g, bag) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_alpha_of_subset_matches_enumeration_in_wide_graphs():
    # Subsets of graphs with ids past 64; the search runs on the subset's
    # own rows, held against enumeration of the induced subgraph.
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng.randint(65, 90), rng.choice([0.1, 0.3, 0.5]), rng)
        s = rng.sample(range(g.n), rng.randint(0, 18))
        sub, _ = induced_subgraph(g, s)
        assert alpha_of_subset(g, s) == alpha_by_enumeration(sub)


def _graph_with_planted_sets(rng):
    """A random graph with planted cliques and planted cliques less one
    edge, and vertex sets of it: the planted sets and their subsets, the
    empty set, every single vertex and a few random sets."""
    n = rng.randint(8, 14)
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3}
    planted = [sorted(rng.sample(range(n), rng.randint(2, 7))) for _ in range(4)]
    for i, p in enumerate(planted):
        edges |= set(itertools.combinations(p, 2))
        if i % 2:
            edges.discard(tuple(sorted(rng.sample(p, 2))))
    g = build_graph(n, edges)
    sets = [[], *([v] for v in range(n))]
    for p in planted:
        sets.append(p)
        sets += (rng.sample(p, rng.randint(2, len(p))) for _ in range(3))
    sets += (rng.sample(range(n), rng.randint(0, n)) for _ in range(4))
    return g, sets


def _missing_edges(g, s):
    return sum(not has_edge(g, u, v) for u, v in itertools.combinations(s, 2))


def test_clique_shortcut_matches_enumeration():
    # Cliques are answered without search and every other set by the branch
    # and bound; both are held to enumeration of the induced subgraph, one
    # set at a time and through the two measures, whose bags share one
    # cache of closed neighbourhoods.
    rng = random.Random(23)
    cliques = near = 0
    for _ in range(60):
        g, sets = _graph_with_planted_sets(rng)
        wants = [alpha_by_enumeration(induced_subgraph(g, s)[0]) for s in sets]
        for s, want in zip(sets, wants):
            assert alpha_of_subset(g, s) == want
            cliques += len(s) > 1 and _missing_edges(g, s) == 0
            near += _missing_edges(g, s) == 1
        td = make_decomposition(g, sets)
        assert independence_number(g, td) == max(wants)
        # Residual sets X_t - U_t equal to each set, with U_t outside it.
        marked = [
            frozenset(rng.sample(sorted(set(range(g.n)) - set(s)), min(2, g.n - len(s))))
            for s in sets
        ]
        td = make_decomposition(g, [set(s) | u for s, u in zip(sets, marked)], refined=marked)
        assert residual_independence_number(g, td) == max(wants)
        # A bag's value is not hidden by a larger one: each set comes after
        # single-vertex bags that fill the cache first.
        singles = [[v] for v in range(g.n)]
        for s, want in zip(sets, wants):
            td = make_decomposition(g, singles + [s])
            assert independence_number(g, td) == max(1, want)
    assert cliques > 500 and near > 100


def test_out_of_range_vertex_in_a_clique_set_is_refused():
    # -1 would index the last adjacency list, whose closed neighbourhood in
    # K_4 holds 0 and 1: the range check must come before the clique test.
    g = complete_graph(4)
    for bad in ({0, 1, 4}, {-1, 0, 1}):
        with pytest.raises(GraphError, match="out of range"):
            alpha_of_subset(g, bad)
    td = make_decomposition(g, [{0, 1}, {0, 1, 2, 9}], [(0, 1)])
    with pytest.raises(GraphError, match="vertex 9 out of range"):
        independence_number(g, td)
    td = make_decomposition(g, [{0, 1, 2, 3}, {-1, 0}], [(0, 1)])
    with pytest.raises(GraphError, match="vertex -1 out of range"):
        residual_independence_number(g, td)
