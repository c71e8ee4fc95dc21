import pytest

from treealpha import (
    CapExceededError,
    GraphError,
    alpha_exact,
    complete_bipartite,
    cycle_graph,
    double_join,
    generate,
    path_graph,
    sharpness_gadget,
)
from treealpha.generators import GENERATOR_KINDS
from treealpha.graph import MAX_COUNT, build_graph

from .conftest import has_edge


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
    assert sorted(len(g.adj[v]) for v in range(3, g.n)) == [2] * 9
    assert all(not has_edge(g, i, j) for i in range(3) for j in range(i + 1, 3))


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
    with pytest.raises(GraphError, match="needs a base graph"):
        generate("double-join", ())


def test_generate_dispatch():
    assert generate("knn", (3,)).m == 9
    assert generate("path", (4,)).m == 3
    assert generate("double-join", base=path_graph(2)).n == 4


def test_generate_knows_sizes_before_building():
    for kind, (_, arity, size) in GENERATOR_KINDS.items():
        for p in range(3, 7):
            if kind == "double-join":
                base = cycle_graph(p)
                g = generate(kind, base=base)
                assert (g.n, g.m) == size(base)
            else:
                params = (p, p + 2)[:arity]
                g = generate(kind, params)
                assert (g.n, g.m) == size(*params), kind


def test_generate_refuses_oversized_graphs():
    # K_1449 has 1,048,676 edges, one step over the cap; K_1448 fits.
    assert GENERATOR_KINDS["complete"][2](1448)[1] <= MAX_COUNT
    with pytest.raises(CapExceededError, match="complete"):
        generate("complete", (1449,))
    with pytest.raises(CapExceededError, match="double-join"):
        generate("double-join", base=build_graph(1025, []))
    with pytest.raises(CapExceededError, match="path"):
        generate("path", (MAX_COUNT + 1,))
    # Invalid parameters keep their own error, however large.
    with pytest.raises(GraphError):
        generate("complete", (-5000,))
