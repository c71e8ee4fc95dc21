import random

import pytest

from treealpha import (
    CapExceededError,
    InvalidDecompositionError,
    build_graph,
    clique_tree,
    make_decomposition,
    make_nice,
    node_kinds,
    path_graph,
    residual_independence_number,
    tin_exact,
    trivial_decomposition,
    validate,
    width,
)
from treealpha.graph import MAX_COUNT
from treealpha.nice import NICE_NODE_FACTOR, _nice_bag_total, rooted_contraction

from .conftest import (
    nice_children,
    nice_vertex,
    nice_violations,
    postorder,
    random_connected_set,
    random_graph,
)


def test_path_trivial_expansion():
    g = path_graph(3)
    nice = make_nice(g, trivial_decomposition(g))
    assert not nice_violations(g, nice)
    kinds = node_kinds(nice)
    assert kinds.count("introduce") == 3
    assert kinds.count("forget") == 3
    assert kinds.count("join") == 0
    assert kinds.count("leaf") == 1


def test_star_clique_tree_produces_a_join():
    # Four maximal cliques through the center share a vertex, so the clique
    # tree is a star; rooting at one leaf leaves a two-child node behind.
    star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    nice = make_nice(star, clique_tree(star))
    assert not nice_violations(star, nice)
    assert node_kinds(nice).count("join") >= 1


def test_high_degree_node_is_binarized():
    # Six maximal cliques through one shared vertex: the clique tree is a
    # star whose center keeps multiple children after rooting, so the
    # conversion must chain join nodes.
    star = build_graph(7, [(0, v) for v in range(1, 7)])
    nice = make_nice(star, clique_tree(star))
    assert not nice_violations(star, nice)
    assert node_kinds(nice).count("join") >= 3
    assert all(len(kids) <= 2 for kids in nice_children(nice))


def test_idempotent_class():
    rng = random.Random(14)
    for _ in range(15):
        g = random_graph(rng.randint(1, 7), 0.4, rng)
        first = make_nice(g, trivial_decomposition(g))
        again = make_nice(g, first)
        assert not nice_violations(g, again)
        assert residual_independence_number(
            g, again
        ) == residual_independence_number(g, first)


def test_single_vertex_and_null_graph():
    g1 = build_graph(1, [])
    nice = make_nice(g1, trivial_decomposition(g1))
    assert not nice_violations(g1, nice)
    null = build_graph(0, [])
    nice0 = make_nice(null, trivial_decomposition(null))
    assert nice0.node_count == 1
    assert node_kinds(nice0) == ("leaf",)


def test_rejects_invalid_input():
    g = path_graph(2)
    bad = make_decomposition(g, [{0}, {1}], [(0, 1)])
    with pytest.raises(InvalidDecompositionError):
        make_nice(g, bad)


def _refined_variant(g, td, rng):
    refs = []
    for b in td.bags:
        pick = [v for v in sorted(b) if rng.random() < 0.4][:2]
        refs.append(frozenset(pick))
    return make_decomposition(g, td.bags, td.tree_edges, refs)


def _decomposition_corpus(rng, count):
    out = []
    for _ in range(count):
        g = random_graph(rng.randint(1, 8), rng.choice([0.25, 0.5]), rng)
        out.append((g, trivial_decomposition(g)))
        value, witness = tin_exact(g)
        out.append((g, witness))
        out.append((g, _refined_variant(g, witness, rng)))
        # A hand-built multi-bag decomposition: cover with closed neighborhoods
        # strung along a path, which always validates.
        bags = [frozenset(g.adj[v]) | {v} for v in range(g.n)]
        prefix = []
        acc = frozenset()
        for b in bags:
            acc |= b
            prefix.append(acc)
        td = make_decomposition(
            g, prefix, [(i, i + 1) for i in range(len(prefix) - 1)]
        )
        if validate(g, td).ok:
            out.append((g, td))
    return out


def test_contract_on_corpus():
    rng = random.Random(15)
    worst_ratio = 0.0
    for g, td in _decomposition_corpus(rng, 12):
        nice = make_nice(g, td)
        assert not nice_violations(g, nice)
        assert residual_independence_number(
            g, nice
        ) <= residual_independence_number(g, td)
        # Every output bag must trace to an input bag with the marked set
        # restricted accordingly.
        for bag, ref in zip(nice.bags, nice.refined):
            assert any(
                bag <= b and ref == u & bag
                for b, u in zip(td.bags, td.refined)
            )
        bound = NICE_NODE_FACTOR * (width(td) + 2) * td.node_count
        assert nice.node_count <= bound
        worst_ratio = max(
            worst_ratio, nice.node_count / ((width(td) + 2) * td.node_count)
        )
    assert worst_ratio <= NICE_NODE_FACTOR


def test_bag_total_is_counted_before_building():
    rng = random.Random(17)
    corpus = _decomposition_corpus(rng, 40)
    corpus.append((build_graph(0, []), trivial_decomposition(build_graph(0, []))))
    for _ in range(20):
        g = path_graph(rng.randint(1, 12))
        corpus.append((g, clique_tree(g)))
    for g, td in corpus:
        bags, _, root, _, kids = rooted_contraction(td)
        emitted = sum(len(b) for b in make_nice(g, td).bags)
        assert _nice_bag_total(bags, root, kids) == emitted


def test_oversized_nice_form_is_refused():
    # One edgeless bag of n vertices: two chains of n bags, n^2 ids in all.
    g = build_graph(1024, [])
    assert _nice_bag_total([frozenset(range(1024))], 0, [[]]) == 1024**2
    assert make_nice(g, trivial_decomposition(g)).node_count == 2049
    g = build_graph(1025, [])
    with pytest.raises(CapExceededError, match=f"cap={MAX_COUNT}"):
        make_nice(g, trivial_decomposition(g))


def test_postorder_visits_children_first():
    g = random_graph(6, 0.5, random.Random(16))
    nice = make_nice(g, trivial_decomposition(g))
    kids = nice_children(nice)
    seen = set()
    for t in postorder(nice):
        for c in kids[t]:
            assert c in seen
        seen.add(t)
    assert seen == set(range(nice.node_count))


def test_nice_with_connected_set_refinements():
    rng = random.Random(17)
    for _ in range(10):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        td = trivial_decomposition(g)
        u = random_connected_set(g, 2, rng)
        refined = make_decomposition(g, td.bags, td.tree_edges, [u])
        nice = make_nice(g, refined)
        assert not nice_violations(g, nice)
        for bag, ref in zip(nice.bags, nice.refined):
            assert ref == u & bag


def _rows(nice):
    """One (bag, U, kind, vertex, children) row per nice node, sorted tuples;
    the kind is `node_kinds`', the vertex the one a node's bag and its only
    child's differ by."""
    kids = nice_children(nice)
    return [
        (
            tuple(sorted(b)),
            tuple(sorted(u)),
            kind,
            nice_vertex(nice, t, kids) if len(kids[t]) == 1 else None,
            tuple(kids[t]),
        )
        for t, (b, u, kind) in enumerate(zip(nice.bags, nice.refined, node_kinds(nice)))
    ]


def _path_edges(count):
    return tuple((i, i + 1) for i in range(count - 1))


def test_exact_output_star_with_a_join_chain():
    # Clique tree of the 7-vertex star: rooted at bag {0,2}, the center bag
    # {0,1} keeps four children, so three join nodes are chained.
    star = build_graph(7, [(0, v) for v in range(1, 7)])
    nice = make_nice(star, clique_tree(star))
    assert not nice_violations(star, nice)
    assert _rows(nice) == [
        ((), (), "forget", 2, (1,)),
        ((2,), (), "forget", 0, (2,)),
        ((0, 2), (), "introduce", 2, (3,)),
        ((0,), (), "forget", 1, (4,)),
        ((0, 1), (), "join", None, (5, 6)),
        ((0, 1), (), "introduce", 1, (7,)),
        ((0, 1), (), "join", None, (8, 9)),
        ((0,), (), "forget", 3, (10,)),
        ((0, 1), (), "introduce", 1, (11,)),
        ((0, 1), (), "join", None, (12, 13)),
        ((0, 3), (), "introduce", 3, (14,)),
        ((0,), (), "forget", 4, (15,)),
        ((0, 1), (), "introduce", 1, (16,)),
        ((0, 1), (), "introduce", 1, (17,)),
        ((0,), (), "introduce", 0, (18,)),
        ((0, 4), (), "introduce", 4, (19,)),
        ((0,), (), "forget", 5, (20,)),
        ((0,), (), "forget", 6, (21,)),
        ((), (), "leaf", None, ()),
        ((0,), (), "introduce", 0, (22,)),
        ((0, 5), (), "introduce", 5, (23,)),
        ((0, 6), (), "introduce", 6, (24,)),
        ((), (), "leaf", None, ()),
        ((0,), (), "introduce", 0, (25,)),
        ((0,), (), "introduce", 0, (26,)),
        ((), (), "leaf", None, ()),
        ((), (), "leaf", None, ()),
    ]
    assert nice.tree_edges == (
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7), (6, 8), (6, 9),
        (7, 10), (8, 11), (9, 12), (9, 13), (10, 14), (11, 15), (12, 16),
        (13, 17), (14, 18), (15, 19), (16, 20), (17, 21), (19, 22), (20, 23),
        (21, 24), (23, 25), (24, 26),
    )


def test_exact_output_equal_bags_with_different_marked_sets():
    # Nodes 1 and 2 carry the same bag {1,2} but U = {1} and U = {2}; the
    # contraction keeps node 1, so every node cut from {1,2} carries U & {1}.
    g = path_graph(4)
    td = make_decomposition(
        g,
        [{0, 1}, {1, 2}, {1, 2}, {2, 3}],
        _path_edges(4),
        [{0}, {1}, {2}, {3}],
    )
    nice = make_nice(g, td)
    assert not nice_violations(g, nice)
    assert _rows(nice) == [
        ((), (), "forget", 1, (1,)),
        ((1,), (), "forget", 0, (2,)),
        ((0, 1), (0,), "introduce", 0, (3,)),
        ((1,), (1,), "forget", 2, (4,)),
        ((1, 2), (1,), "introduce", 1, (5,)),
        ((2,), (), "forget", 3, (6,)),
        ((2, 3), (3,), "introduce", 3, (7,)),
        ((2,), (), "introduce", 2, (8,)),
        ((), (), "leaf", None, ()),
    ]
    assert nice.tree_edges == _path_edges(9)


def test_exact_output_trivial_path():
    g = path_graph(3)
    nice = make_nice(g, trivial_decomposition(g))
    assert not nice_violations(g, nice)
    assert _rows(nice) == [
        ((), (), "forget", 2, (1,)),
        ((2,), (), "forget", 1, (2,)),
        ((1, 2), (), "forget", 0, (3,)),
        ((0, 1, 2), (), "introduce", 2, (4,)),
        ((0, 1), (), "introduce", 1, (5,)),
        ((0,), (), "introduce", 0, (6,)),
        ((), (), "leaf", None, ()),
    ]
    assert nice.tree_edges == _path_edges(7)


def test_chains_forget_then_introduce_smallest_id_first():
    # Walking up from a contracted node c to its parent p, the nice form
    # forgets X_c - X_p and then introduces X_p - X_c, each smallest id
    # first; the MWIS solver's tie rule and residual checks rely on it.
    rng = random.Random(17)
    corpus = _decomposition_corpus(rng, 12)
    star = build_graph(7, [(0, v) for v in range(1, 7)])
    corpus.append((star, clique_tree(star)))
    for g, td in corpus:
        bags, _, root, parent, kids = rooted_contraction(td)
        if bags == [frozenset()]:
            continue
        nice = make_nice(g, td)
        kinds, down = node_kinds(nice), nice_children(nice)
        up = {b: a for a, b in nice.tree_edges}
        start_of = set()
        for leaf in (t for t in range(nice.node_count) if kinds[t] == "leaf"):
            steps, t = [], up[leaf]
            while t is not None:
                if kinds[t] != "join":
                    steps.append((kinds[t], nice_vertex(nice, t, down)))
                t = up.get(t)
            first = next(i for i, (kind, _) in enumerate(steps) if kind != "introduce")
            x = bags.index(frozenset(v for _, v in steps[:first]))
            start_of.add(x)
            expect = [("introduce", v) for v in sorted(bags[x])]
            while x != root:
                c, x = x, parent[x]
                expect += [("forget", v) for v in sorted(bags[c] - bags[x])]
                expect += [("introduce", v) for v in sorted(bags[x] - bags[c])]
            expect += [("forget", v) for v in sorted(bags[root])]
            assert steps == expect
        assert start_of == {t for t in range(len(bags)) if not kids[t]}
