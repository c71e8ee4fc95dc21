import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from treealpha import (
    CapExceededError,
    GraphError,
    WeightMap,
    alpha_exact,
    alpha_of_subset,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_join,
    independence_number,
    is_chordal,
    path_graph,
    sharpness_gadget,
    tin_exact,
    treewidth_exact,
    validate,
)
from treealpha.graph import members
from treealpha.oracle import (
    _alpha_table,
    _elimination_dp,
    _fill_in,
    _size_table,
    brute_force_mwis,
)

from .conftest import (
    all_labeled_graphs,
    complement,
    contract_edge,
    elimination_bag,
    induced_subgraph,
    mwis_by_enumeration,
    push_form_elimination_dp,
    random_graph,
    random_weights,
    reference_fill_in,
)


def test_elimination_bag_examples():
    p3 = path_graph(3)
    assert elimination_bag(p3, 0, set()) == frozenset({0, 1})
    assert elimination_bag(p3, 0, {1}) == frozenset({0, 2})
    assert elimination_bag(cycle_graph(4), 0, set()) == frozenset({0, 1, 3})


def test_elimination_bag_rejects_eliminated_vertex():
    with pytest.raises(GraphError):
        elimination_bag(path_graph(3), 1, {1})


def test_tin_examples():
    assert tin_exact(complete_bipartite(3, 3))[0] == 3
    assert tin_exact(cycle_graph(4))[0] == 2
    for g in (path_graph(6), complete_graph(5), build_graph(4, [(0, 1), (0, 2), (0, 3)])):
        assert tin_exact(g)[0] == 1
    assert tin_exact(sharpness_gadget(3))[0] == 3


def test_treewidth_examples():
    assert treewidth_exact(path_graph(5)) == 1
    assert treewidth_exact(build_graph(4, [(0, 1), (0, 2), (0, 3)])) == 1
    assert treewidth_exact(complete_graph(5)) == 4
    assert treewidth_exact(sharpness_gadget(3)) == 2
    assert treewidth_exact(build_graph(0, [])) == -1
    assert treewidth_exact(build_graph(3, [])) == 0


def test_null_graph_conventions():
    null = build_graph(0, [])
    value, witness = tin_exact(null)
    assert value == 0
    assert witness.bags == (frozenset(),)


def test_witness_soundness():
    rng = random.Random(24)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]), rng)
        value, witness = tin_exact(g)
        assert validate(g, witness).ok
        assert independence_number(g, witness) == value


def test_tin_lower_bounds_every_other_decomposition():
    # Completeness on the small corpus: nothing beats the DP value.
    from treealpha import clique_tree, trivial_decomposition

    rng = random.Random(25)
    for _ in range(20):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        value = tin_exact(g)[0]
        assert value <= independence_number(g, trivial_decomposition(g))
        if is_chordal(g)[0]:
            assert value <= independence_number(g, clique_tree(g))


def test_chordal_characterization_small():
    for g in all_labeled_graphs(4):
        assert (tin_exact(g)[0] == 1) == is_chordal(g)[0]


def test_monotonicity_under_deletion_and_contraction():
    rng = random.Random(26)
    for _ in range(25):
        g = random_graph(rng.randint(2, 6), 0.5, rng)
        t = tin_exact(g)[0]
        for v in range(g.n):
            sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
            assert tin_exact(sub)[0] <= t
        for e in g.edges():
            assert tin_exact(contract_edge(g, e))[0] <= t


def test_clique_number_lower_bounds_treewidth():
    # The clique number of g is the independence number of its complement.
    rng = random.Random(41)
    for g in all_labeled_graphs(4):
        assert alpha_exact(complement(g)) - 1 <= treewidth_exact(g)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        assert alpha_exact(complement(g)) - 1 <= treewidth_exact(g)


def test_double_join_identity_small():
    rng = random.Random(27)
    for _ in range(10):
        h = random_graph(rng.randint(1, 5), 0.5, rng)
        assert tin_exact(double_join(h))[0] == alpha_exact(h)


def test_caps():
    g = build_graph(21, [])
    with pytest.raises(CapExceededError):
        tin_exact(g)
    with pytest.raises(CapExceededError):
        treewidth_exact(g)
    big = build_graph(23, [])
    with pytest.raises(CapExceededError):
        brute_force_mwis(big, WeightMap(23))


def test_brute_force_examples():
    c5 = cycle_graph(5)
    assert brute_force_mwis(c5, WeightMap(5))[0] == 2
    p3 = path_graph(3)
    assert brute_force_mwis(p3, WeightMap(3, {0: 3, 1: 1, 2: 3})) == (
        Fraction(6),
        frozenset({0, 2}),
    )
    assert brute_force_mwis(build_graph(0, []), WeightMap(0)) == (
        Fraction(0),
        frozenset(),
    )


def test_brute_force_matches_plain_enumeration():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(0, 8)
        g = random_graph(n, 0.5, rng)
        w = WeightMap(n, random_weights(n, rng))
        value, chosen = brute_force_mwis(g, w)
        assert value == mwis_by_enumeration(g, w)
        assert w.total(chosen) == value


def test_deterministic_outputs():
    g = random_graph(8, 0.4, random.Random(29))
    assert tin_exact(g) == tin_exact(g)
    w = WeightMap(8, random_weights(8, random.Random(30)))
    assert brute_force_mwis(g, w) == brute_force_mwis(g, w)


def test_exact_witness_bags_and_tree_edges():
    # Pinned outputs: the elimination order the DP picks (first strictly
    # better candidate in state order, then vertex order) fixes the witness.
    triangle_and_square = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    # Two 4-cycles sharing the edge 2-3: many orderings tie at the optimum.
    tied = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)]
    cases = [
        (cycle_graph(6), 2, [{0, 1, 5}, {1, 2, 5}, {2, 3, 5}, {3, 4, 5}],
         [(0, 1), (1, 2), (2, 3)], 2),
        (complete_bipartite(3, 3), 3, [{0, 3, 4, 5}, {1, 3, 4, 5}, {2, 3, 4, 5}],
         [(0, 1), (0, 2)], 3),
        (sharpness_gadget(3), 3,
         [{0, 1, 2, 5, 7, 8}, {0, 1, 3}, {0, 1, 4}, {0, 2, 6}, {1, 2, 9, 10, 11}],
         [(0, 1), (0, 2), (0, 3), (0, 4)], 2),
        (double_join(path_graph(3)), 2, [{0, 1, 3, 4, 5}, {1, 2, 3, 4, 5}],
         [(0, 1)], 4),
        (build_graph(7, triangle_and_square), 2, [{0, 1, 2}, {3, 4, 6}, {4, 5, 6}],
         [(0, 1), (1, 2)], 2),
        (build_graph(6, tied), 2, [{0, 1, 3}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}],
         [(0, 1), (1, 2), (2, 3)], 2),
    ]
    for g, value, bags, tree_edges, tw in cases:
        got, witness = tin_exact(g)
        assert got == value
        assert witness.bags == tuple(frozenset(b) for b in bags)
        assert list(witness.tree_edges) == tree_edges
        assert not any(witness.refined)
        assert treewidth_exact(g) == tw


def test_subset_dp_matches_every_ordering():
    # Independent of the DP: walk all n! orderings, take each one's worst
    # elimination_bag, and keep the best ordering.
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
        bag_of = {}
        alpha_of = {}
        best_tin = best_tw = n
        for order in itertools.permutations(range(n)):
            worst_tin = worst_tw = 0
            for i, v in enumerate(order):
                key = (frozenset(order[:i]), v)
                if key not in bag_of:
                    bag_of[key] = elimination_bag(g, v, key[0])
                bag = bag_of[key]
                if bag not in alpha_of:
                    alpha_of[bag] = alpha_of_subset(g, bag)
                worst_tin = max(worst_tin, alpha_of[bag])
                worst_tw = max(worst_tw, len(bag) - 1)
            best_tin = min(best_tin, worst_tin)
            best_tw = min(best_tw, worst_tw)
        assert tin_exact(g)[0] == best_tin
        assert treewidth_exact(g) == best_tw


def test_alpha_table_matches_alpha_of_subset():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.choice([0, 1, 7, 8, 9, 9])
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        table = _alpha_table(g.bit_rows(), n)
        assert len(table) == 1 << n
        for mask in range(1 << n):
            assert table[mask] == alpha_of_subset(g, members(mask))


def _tie_heavy_graph(i, rng):
    """Graph number i of the differential corpus: random graphs of every
    density plus the families where many orderings tie (edgeless,
    complete, cycles, complete bipartite, disjoint unions), relabeled at
    random so that the tied moves fall on varied ids."""
    n = rng.randint(1, 10)
    kind = i % 6
    if kind == 1:
        g = build_graph(n, [])
    elif kind == 2:
        g = complete_graph(n)
    elif kind == 3 and n >= 3:
        g = cycle_graph(n)
    elif kind == 4 and n >= 2:
        a = rng.randint(1, n - 1)
        g = complete_bipartite(a, n - a)
    elif kind == 5:
        a = rng.randint(0, n)
        left = random_graph(a, rng.random(), rng)
        right = random_graph(n - a, rng.random(), rng)
        edges = list(left.edges()) + [(u + a, v + a) for u, v in right.edges()]
        g = build_graph(n, edges)
    else:
        g = random_graph(n, rng.random(), rng)
    ids = list(range(n))
    rng.shuffle(ids)
    return build_graph(n, [(ids[u], ids[v]) for u, v in g.edges()])


def test_pull_form_dp_matches_push_form_reference():
    # Value and order, hence the tie rule, on both cost tables; and the
    # fill-in made from the returned bags equals the one that finds each
    # bag again by search.
    rng = random.Random(44)
    for i in range(1200):
        g = _tie_heavy_graph(i, rng)
        n = g.n
        sizes = bytearray(max(m.bit_count() - 1, 0) for m in range(1 << n))
        for cost in (_alpha_table(g.bit_rows(), n), sizes):
            value, order, bags = _elimination_dp(g, cost)
            assert (value, order) == push_form_elimination_dp(g, cost), g.adj
            assert _fill_in(g, bags) == reference_fill_in(g, order), g.adj


def test_disjoint_union_takes_the_max_of_its_parts():
    # The component rule, checked on the parts alone rather than against
    # the push-form reference.
    rng = random.Random(46)
    for _ in range(100):
        n = rng.randint(2, 12)
        a = rng.randint(1, n - 1)
        g = random_graph(a, rng.random(), rng)
        h = random_graph(n - a, rng.random(), rng)
        ids = list(range(n))
        rng.shuffle(ids)
        edges = list(g.edges())
        edges += [(u + a, v + a) for u, v in h.edges()]
        union = build_graph(n, [(ids[u], ids[v]) for u, v in edges])
        assert tin_exact(union)[0] == max(tin_exact(g)[0], tin_exact(h)[0])
        assert treewidth_exact(union) == max(treewidth_exact(g), treewidth_exact(h))


def test_size_table_matches_popcounts():
    for n in range(13):
        want = bytearray(max(m.bit_count() - 1, 0) for m in range(1 << n))
        assert _size_table(n) == want


def test_subset_dp_memory_is_bytes_per_subset():
    g = random_graph(14, 0.4, random.Random(45))
    alpha = _alpha_table(g.bit_rows(), g.n)
    tracemalloc.start()
    try:
        value, order, _ = _elimination_dp(g, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(order) == list(range(14))
    # 9 bytes per subset: low and nb at 4 each, dp at 1; no move table.
    assert peak < 10 << 14
