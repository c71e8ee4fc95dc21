import pytest

from treealpha import (
    GraphError,
    alpha_exact,
    complete_bipartite,
    cycle_graph,
    double_join,
    generate,
    path_graph,
    sharpness_gadget,
)


def test_complete_bipartite_counts():
    g = complete_bipartite(3, 3)
    assert g.n == 6 and g.m == 9


def test_double_join_counts():
    # Two copies of C_5 contribute 2*5 edges; the join adds 5*5 cross edges.
    g = double_join(cycle_graph(5))
    assert g.n == 10
    assert g.m == 2 * 5 + 5 * 5


def test_double_join_independent_sets_stay_in_one_copy():
    h = path_graph(4)
    g = double_join(h)
    assert alpha_exact(g) == alpha_exact(h)


def test_sharpness_counts():
    # k hubs plus k middles per hub pair; every middle has degree two.
    g = sharpness_gadget(3)
    assert g.n == 3 + 3 * 3
    assert g.m == 18
    assert sorted(g.degree(v) for v in range(3, g.n)) == [2] * 9
    assert all(not g.has_edge(i, j) for i in range(3) for j in range(i + 1, 3))


def test_sharpness_common_neighbors():
    k = 4
    g = sharpness_gadget(k)
    for i in range(k):
        for j in range(i + 1, k):
            common = set(g.adj[i]) & set(g.adj[j])
            assert len(common) == k


def test_parameter_validation():
    with pytest.raises(GraphError):
        sharpness_gadget(2)
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        complete_bipartite(0, 3)
    with pytest.raises(GraphError):
        generate("frobnicate", (1,))
    with pytest.raises(GraphError, match="parameter"):
        generate("path", ())
    with pytest.raises(GraphError, match="parameter"):
        generate("complete-bipartite", (3,))


def test_generate_dispatch():
    assert generate("knn", (3,)).m == 9
    assert generate("path", (4,)).m == 3
    assert generate("double-join", base=path_graph(2)).n == 4
