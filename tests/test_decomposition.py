import random
import time

import pytest

from treealpha import (
    GraphError,
    InvalidDecompositionError,
    alpha_exact,
    build_graph,
    clique_tree,
    complete_bipartite,
    complete_graph,
    compose_clique_cutset,
    cycle_graph,
    independence_number,
    make_decomposition,
    path_graph,
    residual_independence_number,
    tin_exact,
    treewidth_exact,
    trivial_decomposition,
    validate,
    width,
)
from treealpha.formats import parse_td

from .conftest import induced_subgraph, is_chordal, random_graph, reference_validate


def test_trivial_decomposition_examples():
    g = complete_graph(1)
    assert independence_number(g, trivial_decomposition(g)) == 1
    g = cycle_graph(5)
    assert independence_number(g, trivial_decomposition(g)) == 2
    null = build_graph(0, [])
    td = trivial_decomposition(null)
    assert td.node_count == 1 and td.bags == (frozenset(),)
    assert independence_number(null, td) == 0
    assert width(td) == -1


def test_validate_ok_on_trivial():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng.randint(0, 7), 0.5, rng)
        report = validate(g, trivial_decomposition(g))
        assert report.ok and str(report) == "ok"


def test_validate_reports_uncovered_edge():
    g = complete_graph(2)
    report = validate(g, make_decomposition(g, [{0}, {1}], [(0, 1)]))
    assert not report.ok
    assert report.violations[0].clause == "edges"


def test_validate_reports_broken_subtree():
    g = path_graph(2)
    td = make_decomposition(g, [{0, 1}, {0}, {0, 1}], [(0, 1), (1, 2)])
    report = validate(g, td)
    assert not report.ok
    assert any(v.clause == "connectivity" for v in report.violations)


def test_validate_reports_missing_vertex_and_bad_tree():
    g = path_graph(3)
    report = validate(g, make_decomposition(g, [{0, 1}]))
    assert any(v.clause == "coverage" for v in report.violations)
    td = make_decomposition(g, [{0, 1}, {1, 2}], [])
    assert any(v.clause == "tree" for v in validate(g, td).violations)


def test_validate_reports_refined_outside_bag():
    g = path_graph(2)
    td = make_decomposition(g, [{0, 1}, {1}], [(0, 1)], [set(), {0}])
    report = validate(g, td)
    assert any(v.clause == "refined" for v in report.violations)


def _random_valid_decomposition(rng):
    """A random tree whose nodes each vertex holds along a random subtree,
    with graph edges only between vertices whose subtrees meet."""
    nodes = rng.randint(1, 6)
    tree = [(rng.randrange(t), t) for t in range(1, nodes)]
    n = rng.randint(0, 7)
    bags = [set() for _ in range(nodes)]
    for v in range(n):
        held = {rng.randrange(nodes)}
        for a, b in rng.sample(tree, len(tree)):
            if (a in held) != (b in held) and rng.random() < 0.5:
                held |= {a, b}
        for t in held:
            bags[t].add(v)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if any(u in b and v in b for b in bags) and rng.random() < 0.6
    ]
    refined = [set(rng.sample(sorted(b), rng.randint(0, len(b)))) for b in bags]
    return n, edges, bags, tree, refined


def _mutate(rng, n, bags, tree, refined):
    bags = [set(b) for b in bags]
    tree = list(tree)
    refined = [set(u) for u in refined]
    nodes = len(bags)
    kind = rng.randrange(7)
    if kind == 0:
        rng.choice(bags).add(rng.randint(-1, n))
    elif kind == 1:
        bag = rng.choice(bags)
        if bag:
            bag.discard(rng.choice(sorted(bag)))
    elif kind == 2 and tree:
        tree.pop(rng.randrange(len(tree)))
    elif kind == 3:
        tree.append((rng.randint(-1, nodes), rng.randint(0, nodes)))
    elif kind == 4 and tree:
        i = rng.randrange(len(tree))
        tree[i] = (tree[i][0], rng.randrange(nodes))
    elif kind == 5:
        rng.choice(refined).add(rng.randint(0, n))
    else:
        bags.append(set(rng.sample(range(n), rng.randint(0, n))))
        refined.append(set())
        tree.append((nodes, rng.randrange(nodes)))
    return bags, tree, refined


def _violated_by_definition(nx, graph, td, universe):
    """Clause names violated, checked from the definitions with networkx."""
    nodes = td.node_count
    bad = set()
    tree = nx.MultiGraph()
    tree.add_nodes_from(range(nodes))
    in_range = all(0 <= t < nodes for e in td.tree_edges for t in e)
    if in_range:
        tree.add_edges_from(td.tree_edges)
    if nodes < 1 or not in_range or not nx.is_tree(tree):
        bad.add("tree")
    held = set().union(*td.bags)
    if not held <= universe or not universe <= held:
        bad.add("coverage")
    for u, v in graph.edges():
        if u in universe and v in universe and not any(u in b and v in b for b in td.bags):
            bad.add("edges")
    if "tree" not in bad:
        for v in universe & held:
            holding = [t for t in range(nodes) if v in td.bags[t]]
            if not nx.is_connected(tree.subgraph(holding)):
                bad.add("connectivity")
    if any(not u <= b for u, b in zip(td.refined, td.bags)):
        bad.add("refined")
    return bad


def _validation_corpus():
    """3,000 seeded (graph, td, universe, mutated) cases, about 70% mutated
    and 30% restricted to a random universe."""
    rng = random.Random(29)
    for _ in range(3000):
        n, edges, bags, tree, refined = _random_valid_decomposition(rng)
        g = build_graph(n, edges)
        mutated = rng.random() < 0.7
        if mutated:
            bags, tree, refined = _mutate(rng, n, bags, tree, refined)
        universe = None
        if rng.random() < 0.3:
            universe = {v for v in range(n) if rng.random() < 0.7}
        yield g, make_decomposition(g, bags, tree, refined), universe, mutated


def test_validate_matches_definitions_checked_with_networkx():
    nx = pytest.importorskip("networkx")
    seen = set()
    for g, td, universe, mutated in _validation_corpus():
        report = validate(g, td, universe)
        expected = _violated_by_definition(
            nx, g, td, frozenset(range(g.n)) if universe is None else universe
        )
        assert {v.clause for v in report.violations} == expected
        assert report.ok == (not expected)
        assert mutated or universe is not None or report.ok
        seen |= expected
    assert seen == {"tree", "coverage", "edges", "connectivity", "refined"}


def test_validate_matches_reference_with_and_without_universe():
    rng = random.Random(31)
    seen = set()
    for g, td, universe, _ in _validation_corpus():
        if universe is None:
            universe = {v for v in range(g.n) if rng.random() < 0.7}
        for u in (None, universe):
            report = validate(g, td, u)
            assert report == reference_validate(g, td, u)
            seen |= {v.clause for v in report.violations}
    assert seen == {"tree", "coverage", "edges", "connectivity", "refined"}


@pytest.mark.parametrize(
    "n, edges, bags, tree, universe, want",
    [
        # Vertex 0 has edges but is in no bag: both its edges are uncovered,
        # and the clause names the first.
        (
            3,
            [(0, 1), (0, 2), (1, 2)],
            [{1, 2}],
            [],
            None,
            ["[coverage] vertex 0 is in no bag", "[edges] edge (0, 1) is in no bag"],
        ),
        # Edge (1, 2) leaves the universe {0, 1}, so nothing needs to cover it.
        (3, [(0, 1), (1, 2)], [{0, 1}], [], {0, 1}, []),
        # Edge (0, 1) leaves the universe {1, 2} at its lower end.
        (3, [(0, 1), (1, 2)], [{1, 2}], [], {1, 2}, []),
        # Vertex 0's first two edges are covered; its third is the witness.
        (
            4,
            [(0, 1), (0, 2), (0, 3), (1, 3)],
            [{0, 1}, {0, 2}, {1, 3}],
            [(0, 1), (0, 2)],
            None,
            ["[edges] edge (0, 3) is in no bag"],
        ),
        # Every edge of vertex 0 is covered; vertex 1's second later edge is not.
        (
            4,
            [(0, 1), (1, 2), (1, 3), (2, 3)],
            [{0, 1, 2}, {2, 3}],
            [(0, 1)],
            None,
            ["[edges] edge (1, 3) is in no bag"],
        ),
        # A tree edge names node 5 of two.
        (
            3,
            [(0, 1), (1, 2)],
            [{0, 1}, {1, 2}],
            [(0, 5)],
            None,
            ["[tree] edge (0, 5) references a missing node"],
        ),
    ],
)
def test_validate_edge_clause_hand_cases(n, edges, bags, tree, universe, want):
    g = build_graph(n, edges)
    td = make_decomposition(g, bags, tree)
    report = validate(g, td, universe)
    assert [str(v) for v in report.violations] == want
    assert report == reference_validate(g, td, universe)


def test_measures():
    g = complete_bipartite(3, 3)
    td = trivial_decomposition(g)
    assert width(td) == 5
    assert independence_number(g, td) == 3

    ct = clique_tree(path_graph(3))
    assert width(ct) == 1
    assert independence_number(path_graph(3), ct) == 1

    c4 = cycle_graph(4)
    td = make_decomposition(c4, [set(range(4))], [], [{0}])
    assert residual_independence_number(c4, td) == 2
    assert independence_number(c4, td) == 2
    assert td.refinement_size == 1


def test_clique_bags_of_a_star_are_measured_without_rebuilding_the_hub():
    # The clique tree of K_{1,20000} has 20,000 bags {centre, leaf}; each
    # bag is a clique, so its alpha needs no rows over the centre's
    # 20,000 neighbours.
    g = complete_bipartite(1, 20000)
    td = clique_tree(g)
    start = time.perf_counter()
    assert residual_independence_number(g, td) == 1
    assert independence_number(g, td) == 1
    assert time.perf_counter() - start < 2


def test_refined_sets_must_match_the_bags():
    g = path_graph(2)
    with pytest.raises(GraphError, match="equal length"):
        make_decomposition(g, [{0, 1}], [], [set(), set()])


@pytest.mark.parametrize(
    "measure, want",
    [
        (lambda g, td: width(td), -1),
        (independence_number, 0),
        (residual_independence_number, 0),
        (lambda g, td: repr(td), "RefinedTreeDecomposition(nodes=0, width=-1, ell=0)"),
    ],
    ids=["width", "independence", "residual", "repr"],
)
def test_measures_of_a_decomposition_with_no_nodes(measure, want):
    # `s td 0 0 3` parses to a decomposition with no nodes. It fails
    # validation, but measures it as they measure the null graph.
    g = path_graph(3)
    td = parse_td("s td 0 0 3\n", g)
    assert td == make_decomposition(g, [])
    assert measure(g, td) == want


def test_refinement_size_is_derived():
    g = cycle_graph(4)
    td = make_decomposition(g, [{0, 1, 2}, {0, 2, 3}], [(0, 1)], [{0, 1}, {3}])
    assert td.refinement_size == 2


def test_trivial_attains_alpha():
    rng = random.Random(10)
    for _ in range(25):
        g = random_graph(rng.randint(0, 8), 0.4, rng)
        assert independence_number(g, trivial_decomposition(g)) == alpha_exact(g)


def test_compose_diamond():
    # K_4 minus the edge (2, 3): the two degree-3 vertices form the cutset.
    # Each side is a triangle, whose clique tree is its single bag.
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    ta = make_decomposition(g, [{0, 1, 2}])
    tb = make_decomposition(g, [{0, 1, 3}])
    out = compose_clique_cutset(g, {2}, {3}, {0, 1}, ta, tb)
    assert validate(g, out).ok
    assert independence_number(g, out) == 1
    assert is_chordal(g)


def test_compose_two_triangles_sharing_a_vertex():
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    ta = make_decomposition(g, [{0, 1, 2}])
    tb = make_decomposition(g, [{2, 3, 4}])
    out = compose_clique_cutset(g, {0, 1}, {3, 4}, {2}, ta, tb)
    assert validate(g, out).ok
    assert independence_number(g, out) == 1


def test_compose_max_rule_with_unequal_parts():
    # Two triangles sharing vertex 2, plus a pendant at 3: the B part is a
    # triangle with a pendant whose trivial decomposition has alpha 2.
    g = build_graph(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (3, 5)]
    )
    ta = make_decomposition(g, [{0, 1, 2}])
    tb = make_decomposition(g, [{2, 3, 4, 5}])
    assert independence_number(g, tb) == 2
    out = compose_clique_cutset(g, {0, 1}, {3, 4, 5}, {2}, ta, tb)
    assert validate(g, out).ok
    assert independence_number(g, out) == 2


def test_compose_rejects_bad_partitions():
    g = path_graph(4)
    td = trivial_decomposition(g)
    with pytest.raises(GraphError, match="crosses"):
        compose_clique_cutset(g, {0, 1}, {2, 3}, set(), td, td)
    g2 = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="nonempty"):
        compose_clique_cutset(g2, set(), {0, 1, 2}, set(), td, td)
    with pytest.raises(GraphError, match="pairwise disjoint"):
        compose_clique_cutset(g2, {0, 1}, {2}, {1}, td, td)
    with pytest.raises(GraphError, match="partition"):
        compose_clique_cutset(g2, {0}, {2}, set(), td, td)
    c4 = cycle_graph(4)
    ta = make_decomposition(c4, [{0, 1, 2}])
    tb = make_decomposition(c4, [{0, 2, 3}])
    bad_cut = {0, 2}  # separates C_4 but is not a clique
    with pytest.raises(GraphError, match="clique"):
        compose_clique_cutset(c4, {1}, {3}, bad_cut, ta, tb)


def test_compose_rejects_part_missing_cutset_bag():
    g = build_graph(3, [(0, 1), (1, 2)])
    ta = make_decomposition(g, [{0}, {1}], [(0, 1)])  # invalid over A u C
    tb = make_decomposition(g, [{1, 2}])
    with pytest.raises(InvalidDecompositionError):
        compose_clique_cutset(g, {0}, {2}, {1}, ta, tb)


def test_compose_with_empty_cutset():
    g = build_graph(2, [])
    ta = make_decomposition(g, [{0}])
    tb = make_decomposition(g, [{1}])
    out = compose_clique_cutset(g, {0}, {1}, set(), ta, tb)
    assert validate(g, out).ok


def random_clique_sum(rng):
    a = rng.randint(1, 4)
    b = rng.randint(1, 4)
    c = rng.randint(0, 3)
    n = a + b + c
    a_set = frozenset(range(a))
    c_set = frozenset(range(a, a + c))
    b_set = frozenset(range(a + c, n))
    edges = [(u, v) for u in c_set for v in c_set if u < v]
    for part in (a_set | c_set, b_set | c_set):
        verts = sorted(part)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if (u, v) not in edges and not (u in c_set and v in c_set):
                    if rng.random() < 0.5:
                        edges.append((u, v))
    return build_graph(n, edges), a_set, b_set, c_set


def test_compose_alpha_equality_randomized():
    rng = random.Random(11)
    for _ in range(30):
        g, a_set, b_set, c_set = random_clique_sum(rng)
        ta = make_decomposition(g, [a_set | c_set])
        tb = make_decomposition(g, [b_set | c_set])
        out = compose_clique_cutset(g, a_set, b_set, c_set, ta, tb)
        assert validate(g, out).ok
        expected = max(
            independence_number(g, ta), independence_number(g, tb)
        )
        assert independence_number(g, out) == expected


def test_width_bound_for_residual_one_refinements():
    # Chordal core plus up to ell extra marked vertices: the bags minus the
    # marked set are cliques, so the width stays within treewidth + ell.
    rng = random.Random(12)
    trials = 0
    while trials < 15:
        core = random_graph(rng.randint(1, 6), 0.5, rng)
        if not is_chordal(core):
            continue
        trials += 1
        ell = rng.randint(0, 2)
        n = core.n + ell
        extra = set(range(core.n, n))
        edges = list(core.edges())
        for x in extra:
            for v in range(n):
                if v != x and rng.random() < 0.5:
                    edges.append((min(v, x), max(v, x)))
        g = build_graph(n, edges)
        ct = clique_tree(core)
        td = make_decomposition(
            g,
            [set(b) | extra for b in ct.bags],
            ct.tree_edges,
            [extra for _ in ct.bags],
        )
        assert validate(g, td).ok
        assert residual_independence_number(g, td) <= 1
        assert width(td) <= treewidth_exact(g) + td.refinement_size


def test_clique_cutset_tin_equality():
    rng = random.Random(13)
    for _ in range(15):
        g, a_set, b_set, c_set = random_clique_sum(rng)
        ga, _ = induced_subgraph(g, a_set | c_set)
        gb, _ = induced_subgraph(g, b_set | c_set)
        assert tin_exact(g)[0] == max(tin_exact(ga)[0], tin_exact(gb)[0])


def _witness_in_host_ids(g, part):
    """Optimal decomposition of G[part], with bags mapped back to g's ids."""
    sub, relabel = induced_subgraph(g, part)
    back = {new: old for old, new in relabel.items()}
    value, witness = tin_exact(sub)
    bags = [frozenset(back[v] for v in bag) for bag in witness.bags]
    return value, make_decomposition(g, bags, witness.tree_edges)


def test_compose_with_multi_bag_optimal_parts():
    rng = random.Random(44)
    for _ in range(15):
        g, a_set, b_set, c_set = random_clique_sum(rng)
        val_a, td_a = _witness_in_host_ids(g, a_set | c_set)
        val_b, td_b = _witness_in_host_ids(g, b_set | c_set)
        out = compose_clique_cutset(g, a_set, b_set, c_set, td_a, td_b)
        assert validate(g, out).ok
        assert independence_number(g, out) == max(val_a, val_b)
        # Optimal parts compose to an optimal whole.
        assert independence_number(g, out) == tin_exact(g)[0]
