import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealpha import (
    GraphError,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_independent,
    path_graph,
)
from treealpha.exact import alpha_exact
from treealpha.graph import mask_of, members

from .conftest import (
    alpha_by_enumeration,
    contract_edge,
    has_edge,
    independent_by_edge_scan,
    induced_subgraph,
    random_graph,
    shuffled_path,
)


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [len(g.adj[v]) for v in range(3)] == [1, 2, 1]


def test_build_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.m == 1


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        build_graph(4, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError, match="nonnegative"):
        build_graph(-1, [])


def test_induced_cycle_minus_vertex_is_path():
    g, relabel = induced_subgraph(cycle_graph(4), {0, 1, 2})
    assert relabel == {0: 0, 1: 1, 2: 2}
    assert g == path_graph(3)


def test_induced_empty_is_null():
    g, _ = induced_subgraph(complete_graph(4), set())
    assert g.n == 0 and g.m == 0


def test_induced_bipartite_side_is_edgeless():
    g, _ = induced_subgraph(complete_bipartite(3, 3), {0, 1, 2})
    assert g.n == 3 and g.m == 0


def test_contract_cycle():
    g = contract_edge(cycle_graph(4), (0, 1))
    assert g.n == 3 and g.m == 3  # C_3


def test_contract_triangle():
    g = contract_edge(complete_graph(3), (0, 1))
    assert g == complete_graph(2)


def test_contract_middle_of_path():
    g = contract_edge(path_graph(4), (1, 2))
    assert sorted(len(g.adj[v]) for v in range(3)) == [1, 1, 2]


def test_contract_requires_edge():
    with pytest.raises(GraphError):
        contract_edge(path_graph(3), (0, 2))


def test_is_independent_examples():
    assert is_independent(cycle_graph(5), {0, 2})
    assert not is_independent(complete_graph(3), {0, 1})
    assert is_independent(complete_graph(3), set())


def test_is_independent_matches_edge_scan():
    rng = random.Random(1)
    for _ in range(60):
        g = random_graph(rng.randint(0, 8), 0.5, rng)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        assert is_independent(g, s) == independent_by_edge_scan(g, s)
    # Large and sparse with shuffled ids, so a set's vertices lie far apart.
    g, ids = shuffled_path(5000, rng)
    for s in (ids[::2], ids[:3], set(rng.sample(ids, 40))):
        assert is_independent(g, s) == independent_by_edge_scan(g, s)


def test_is_independent_matches_pairwise_definition():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng.randint(0, 12), rng.random(), rng)
        s = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        pairwise = not any(has_edge(g, u, v) for u, v in itertools.combinations(s, 2))
        assert is_independent(g, s) == pairwise


def _rows_by_has_edge(g, vertices):
    order = sorted(vertices)
    return [
        sum(1 << j for j, u in enumerate(order) if has_edge(g, v, u)) for v in order
    ]


def test_bit_rows_match_has_edge_on_random_subsets():
    rng = random.Random(4)
    for _ in range(120):
        # Up to 90 vertices, so rows of the larger sets pass 64 bits.
        n = rng.randint(0, 90)
        g = random_graph(n, rng.random(), rng)
        top = rng.randint(0, n)
        for s in (
            set(),
            range(n),
            range(n - top, n),
            set(rng.sample(range(n), rng.randint(0, n))),
        ):
            assert g.bit_rows(s) == _rows_by_has_edge(g, s)
        assert g.bit_rows() == _rows_by_has_edge(g, range(n))


def test_contraction_drops_alpha_by_at_most_one():
    rng = random.Random(2)
    for _ in range(40):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        edges = list(g.edges())
        if not edges:
            continue
        e = rng.choice(edges)
        assert alpha_exact(contract_edge(g, e)) >= alpha_exact(g) - 1


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, picked)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_is_symmetric_and_sorted(g):
    for v in range(g.n):
        assert list(g.adj[v]) == sorted(set(g.adj[v]))
        for u in g.adj[v]:
            assert v in g.adj[u]
            assert u != v


@given(graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_bit_rows_agree_with_adjacency(g, data):
    rows = g.bit_rows()
    for v in range(g.n):
        assert rows[v] == sum(1 << u for u in g.adj[v])
        assert members(rows[v]) == list(g.adj[v])
    sub = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    order = sorted(sub)
    local = g.bit_rows(sub)
    assert len(local) == len(order)
    for i, v in enumerate(order):
        for j, u in enumerate(order):
            assert (local[i] >> j & 1) == has_edge(g, v, u)
        assert local[i] >> len(order) == 0
    assert mask_of(order) == sum(1 << v for v in order)


@given(graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_alpha_matches_enumeration(g):
    assert alpha_exact(g) == alpha_by_enumeration(g)
