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
    build_graph,
    clique_tree,
    complete_graph,
    cycle_graph,
    derived_graph,
    enumerate_F_subgraphs,
    independence_number,
    make_family,
    make_instance,
    path_graph,
    pattern_by_name,
    solve_mwis,
    solve_packing,
    tin_exact,
    trivial_decomposition,
    validate,
)
from treealpha import decomposition
from treealpha.formats import format_graph, parse_family, parse_graph
from treealpha.graph import mask_of
from treealpha.packing import (
    PATTERN_BUILDERS,
    PackingInstance,
    _reduction,
    brute_force_packing,
    compatible,
)

from .conftest import (
    all_labeled_graphs,
    blob_family,
    connected_vertex_sets,
    dissociation_set,
    family_by_permutation,
    has_edge,
    induced_matching,
    is_chordal,
    is_connected_set,
    k_separator,
    random_connected_set,
    random_graph,
    spans_by_permutation,
)


def line_graph(g):
    """Vertices are g's edges in lexicographic order; adjacency = shared endpoint."""
    edges = list(g.edges())
    adj = [
        (i, j)
        for i in range(len(edges))
        for j in range(i + 1, len(edges))
        if set(edges[i]) & set(edges[j])
    ]
    return build_graph(len(edges), adj)


def graph_square(g):
    pairs = []
    for u in range(g.n):
        two_hop = set(g.adj[u])
        for w in g.adj[u]:
            two_hop.update(g.adj[w])
        for v in two_hop:
            if v > u:
                pairs.append((u, v))
    return build_graph(g.n, pairs)


def test_family_validation():
    g = path_graph(4)
    with pytest.raises(GraphError, match="empty"):
        make_family(g, [set()])
    with pytest.raises(GraphError, match="connected"):
        make_family(g, [{0, 2}])
    with pytest.raises(GraphError):
        make_family(g, [{0, 9}])


def test_derived_identity_on_singletons():
    g = cycle_graph(5)
    fam = make_family(g, [{v} for v in range(5)])
    assert derived_graph(g, fam) == g


def test_derived_p4_edges_is_triangle():
    g = path_graph(4)
    fam = make_family(g, [frozenset(e) for e in g.edges()])
    assert derived_graph(g, fam) == complete_graph(3)


def test_derived_disjoint_edges():
    g = build_graph(4, [(0, 1), (2, 3)])
    fam = make_family(g, [{0, 1}, {2, 3}])
    assert derived_graph(g, fam).m == 0


def test_derived_methods_agree():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        members = {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(6)}
        fam = make_family(g, sorted(members, key=sorted))
        conflicts = {
            (i, j)
            for (i, a), (j, b) in itertools.combinations(enumerate(fam.members), 2)
            if not compatible(g, a, b)
        }
        assert set(derived_graph(g, fam).edges()) == conflicts


def assert_transfer_matches_definitions(g, fam, td):
    """Derived edges are the pairwise conflicts, and bag t holds exactly the
    members meeting X_t, on the same tree with no marked sets. The solve's
    one pass hands over the same rows and bags."""
    conflicts = {
        (i, j)
        for (i, a), (j, b) in itertools.combinations(enumerate(fam.members), 2)
        if not compatible(g, a, b)
    }
    derived = derived_graph(g, fam)
    assert derived.n == len(fam)
    assert set(derived.edges()) == conflicts
    return derived, assert_reduction_matches(g, fam, td)


def assert_reduction_matches(g, fam, td):
    """`_reduction`'s rows are the masks of `derived_graph`'s adjacency, and
    bag t of its decomposition holds exactly the members meeting X_t, on the
    same tree with no marked sets. Returns that decomposition."""
    rows, td2 = _reduction(fam, td)
    assert rows == [mask_of(a) for a in derived_graph(g, fam).adj]
    assert td2.n == len(fam)
    assert td2.tree_edges == td.tree_edges
    assert td2.bags == tuple(
        frozenset(j for j, s in enumerate(fam.members) if s & bag) for bag in td.bags
    )
    assert not any(td2.refined)
    return td2


def test_transfer_matches_pairwise_definitions():
    rng = random.Random(40)
    pattern_sets = [["k1", "k2"], ["p3"]]
    isolated = 0
    for trial in range(150):
        core = random_graph(rng.randint(1, 9), rng.choice((0.25, 0.5)), rng)
        n = core.n + rng.randint(0, 3)
        ids = list(range(n))
        rng.shuffle(ids)
        g = build_graph(n, [(ids[u], ids[v]) for u, v in core.edges()])
        isolated += sum(1 for v in range(n) if not g.adj[v])
        td = trivial_decomposition(g) if trial % 2 else tin_exact(g)[1]
        fams = [
            enumerate_F_subgraphs(g, [pattern_by_name(p) for p in names])
            for names in pattern_sets
        ]
        if n <= 7:
            fams.append(blob_family(g))
        for fam in fams:
            assert_transfer_matches_definitions(g, fam, td)
    assert isolated >= 150


def random_fam_family(g, rng):
    """A family as a .fam file may give it: random connected members of up
    to four vertices, repeats kept, read back through `parse_family`."""
    count = rng.randint(0, 10)
    lines = [f"s fam {count}"]
    for i in range(count):
        vs = sorted(random_connected_set(g, rng.randint(1, 4), rng))
        lines.append(f"f {i + 1} 1 {len(vs)} " + " ".join(str(v + 1) for v in vs))
    return parse_family("\n".join(lines) + "\n", g).family


def test_reduction_matches_the_definitions_on_random_hosts():
    rng = random.Random(45)
    pattern_sets = [["k1", "k2"], ["k3"], ["p3"], ["c4"]]
    for trial in range(60):
        g = random_graph(rng.randint(1, 11), rng.choice((0.2, 0.4, 0.7)), rng)
        td = trivial_decomposition(g) if trial % 3 == 0 else tin_exact(g)[1]
        fams = [
            enumerate_F_subgraphs(g, [pattern_by_name(p) for p in names])
            for names in pattern_sets
        ]
        fams.append(random_fam_family(g, rng))
        for fam in fams:
            assert_reduction_matches(g, fam, td)


def test_transfer_of_duplicate_and_empty_families():
    g = path_graph(3)
    twice = parse_family("s fam 3\nf 1 1 2 1 2\nf 2 1 1 3\nf 3 1 2 1 2\n", g)
    assert twice.family.members[0] == twice.family.members[2]
    for td in (trivial_decomposition(g), tin_exact(g)[1]):
        derived, _ = assert_transfer_matches_definitions(g, twice.family, td)
        assert set(derived.edges()) == {(0, 1), (0, 2), (1, 2)}
        assert solve_packing(twice, td, 2)[0] == 1

    empty = parse_family("s fam 0\n", g)
    for td in (trivial_decomposition(g), tin_exact(g)[1]):
        derived, td2 = assert_transfer_matches_definitions(g, empty.family, td)
        assert derived.n == 0
        assert all(not bag for bag in td2.bags)
        assert solve_packing(empty, td, 2) == (0, frozenset())


def test_instance_weights_are_exact_and_nonnegative():
    # The solver reads member weights as they are, so the instance admits
    # only ints and Fractions; a float is refused, not rounded.
    g = path_graph(3)
    fam = make_family(g, [{0}, {2}])
    with pytest.raises(GraphError, match="int or Fraction"):
        PackingInstance(fam, (Fraction(1), 0.5))
    with pytest.raises(GraphError, match="negative"):
        PackingInstance(fam, (Fraction(1), -1))
    with pytest.raises(GraphError, match="one weight per family member"):
        PackingInstance(fam, (Fraction(1),))
    inst = PackingInstance(fam, (1, Fraction(1, 2)))
    assert solve_packing(inst, trivial_decomposition(g), 2) == (Fraction(3, 2), frozenset({0, 1}))


def test_derived_rejects_foreign_family():
    fam = make_family(path_graph(3), [{0}])
    with pytest.raises(GraphError, match="host"):
        derived_graph(cycle_graph(4), fam)


def test_line_graph_square_identity():
    rng = random.Random(32)
    for _ in range(25):
        g = random_graph(rng.randint(2, 8), 0.45, rng)
        fam = make_family(g, [frozenset(e) for e in g.edges()])
        assert derived_graph(g, fam) == graph_square(line_graph(g))


def test_derived_decomposition_example():
    g = path_graph(3)
    fam = make_family(g, [{0, 1}, {2}])
    td2 = _reduction(fam, trivial_decomposition(g))[1]
    assert td2.bags == (frozenset({0, 1}),)
    derived = derived_graph(g, fam)
    assert derived == complete_graph(2)
    assert validate(derived, td2).ok
    assert independence_number(derived, td2) == 1


def test_derived_decomposition_builds_no_derived_graph(monkeypatch):
    # The transfer is fixed by the member index and |J| alone.
    g = cycle_graph(5)
    fam = make_family(g, [{0, 1}, {2}, {3, 4}])
    td = tin_exact(g)[1]
    derived = derived_graph(g, fam)

    def refuse(*args, **kwargs):
        raise AssertionError("derived graph built")

    monkeypatch.setattr("treealpha.packing.derived_graph", refuse)
    monkeypatch.setattr("treealpha.graph.Graph.__init__", refuse)
    td2 = _reduction(fam, td)[1]
    assert td2.n == 3 and validate(derived, td2).ok


def test_derived_decomposition_identity_family():
    g = cycle_graph(5)
    td = tin_exact(g)[1]
    fam = make_family(g, [{v} for v in range(5)])
    td2 = _reduction(fam, td)[1]
    assert td2.bags == td.bags and td2.tree_edges == td.tree_edges


def test_derived_of_chordal_clique_tree_stays_chordal():
    rng = random.Random(33)
    seen = 0
    while seen < 12:
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        if not is_chordal(g):
            continue
        seen += 1
        members = {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(5)}
        fam = make_family(g, sorted(members, key=sorted))
        td2 = _reduction(fam, clique_tree(g))[1]
        derived = derived_graph(g, fam)
        assert validate(derived, td2).ok
        assert independence_number(derived, td2) <= 1
        assert is_chordal(derived)


def test_derived_alpha_never_grows():
    rng = random.Random(34)
    for _ in range(30):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        members = {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(6)}
        fam = make_family(g, sorted(members, key=sorted))
        td = trivial_decomposition(g) if rng.random() < 0.5 else tin_exact(g)[1]
        td2 = _reduction(fam, td)[1]
        derived = derived_graph(g, fam)
        assert validate(derived, td2).ok
        assert independence_number(derived, td2) <= independence_number(g, td)


def test_tin_of_derived_never_grows_small():
    rng = random.Random(35)
    for _ in range(15):
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        members = {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(5)}
        fam = make_family(g, sorted(members, key=sorted))
        assert tin_exact(derived_graph(g, fam))[0] <= tin_exact(g)[0]


def test_solve_packing_examples():
    g = build_graph(4, [(0, 1), (2, 3)])
    inst = make_instance(g, [{0, 1}, {2, 3}])
    value, chosen = solve_packing(inst, trivial_decomposition(g), 2)
    assert value == 2 and chosen == frozenset({0, 1})

    p4 = path_graph(4)
    inst = make_instance(p4, [frozenset(e) for e in p4.edges()])
    value, chosen = solve_packing(inst, trivial_decomposition(p4), 2)
    assert value == 1 and len(chosen) == 1


def test_packing_matches_brute_force_random():
    rng = random.Random(36)
    for _ in range(30):
        g = random_graph(rng.randint(2, 9), 0.35, rng)
        members = [frozenset({v}) for v in range(g.n) if rng.random() < 0.6]
        members += [frozenset(e) for e in g.edges() if rng.random() < 0.6]
        members = members[:14]
        if not members:
            continue
        ws = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in members]
        inst = make_instance(g, members, ws)
        td = trivial_decomposition(g)
        value, _ = solve_packing(inst, td, alpha_exact(g))
        expect, _ = brute_force_packing(inst)
        assert value == expect


def test_brute_force_packing_examples():
    g = path_graph(2)
    empty = make_instance(g, [])
    assert brute_force_packing(empty) == (Fraction(0), frozenset())
    single = make_instance(g, [{0, 1}], [Fraction(7, 2)])
    assert brute_force_packing(single) == (Fraction(7, 2), frozenset({0}))
    with pytest.raises(CapExceededError):
        brute_force_packing(
            make_instance(build_graph(23, []), [{v} for v in range(23)])
        )


def test_enumerate_patterns():
    g = path_graph(4)
    singles = enumerate_F_subgraphs(g, [pattern_by_name("k1")])
    assert sorted(sorted(s) for s in singles.members) == [[0], [1], [2], [3]]
    edges = enumerate_F_subgraphs(g, [pattern_by_name("k2")])
    assert sorted(sorted(s) for s in edges.members) == [[0, 1], [1, 2], [2, 3]]
    k3 = complete_graph(3)
    paths = enumerate_F_subgraphs(k3, [pattern_by_name("p3")])
    assert [sorted(s) for s in paths.members] == [[0, 1, 2]]


def test_enumerate_rejects_bad_patterns():
    with pytest.raises(GraphError):
        enumerate_F_subgraphs(path_graph(3), [build_graph(3, [(0, 1)])])
    with pytest.raises(GraphError):
        enumerate_F_subgraphs(path_graph(3), [build_graph(0, [])])
    with pytest.raises(CapExceededError):
        enumerate_F_subgraphs(path_graph(3), [path_graph(6)])


def random_pattern_file(rng, order):
    """A random connected graph of the given order, read back from its .gr
    text as `--pattern-file` reads it: a random spanning tree plus random
    chords."""
    ids = list(range(order))
    rng.shuffle(ids)
    edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, order)}
    edges |= {e for e in itertools.combinations(range(order), 2) if rng.random() < 0.3}
    return parse_graph(format_graph(build_graph(order, edges)))


def test_family_matches_the_permutation_reference():
    # The take-all rule for trees of order up to 3, the spanned-mask tables
    # and the counted walk must give the reference family member for member, in
    # order: every named pattern in turn, with a second named one or a
    # random connected pattern file of order 4-5 beside it.
    rng = random.Random(42)
    names = sorted(PATTERN_BUILDERS)
    files = 0
    for trial in range(540):
        g = random_graph(rng.randint(1, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        pats = [pattern_by_name(names[trial % len(names)])]
        if trial % 3 == 1:
            pats.append(pattern_by_name(rng.choice(names)))
        elif trial % 3 == 2:
            pats.append(random_pattern_file(rng, rng.randint(4, 5)))
            files += 1
        got = enumerate_F_subgraphs(g, pats)
        assert list(got.members) == family_by_permutation(g, pats), (g, trial)
        assert got.host is g
    assert files == 180


# Each pair puts the cycle first: a cycle spans fewer hosts than the path of
# its order, so a table built from an order's first pattern alone would miss
# members.
@pytest.mark.parametrize(
    "names",
    [[name] for name in sorted(PATTERN_BUILDERS)] + [["c4", "p4"], ["c5", "p5"]],
    ids="+".join,
)
def test_every_connected_host_of_the_pattern_order_is_decided_exactly(names):
    # Every connected labelled host on range(r) is one component of a
    # disjoint union, shifted by a multiple of r so its sorted vertices keep
    # their ranks. The one call builds each table once and asks it about
    # every edge mask a connected set of order r can have: a component is a
    # member exactly when the reference finds a spanning copy in its host.
    pats = [pattern_by_name(name) for name in names]
    r = pats[0].n
    hosts = [h for h in all_labeled_graphs(r) if is_connected_set(h, range(r))]
    assert len(hosts) == (1, 1, 4, 38, 728)[r - 1]
    union = build_graph(
        len(hosts) * r,
        [(k * r + a, k * r + b) for k, h in enumerate(hosts) for a, b in h.edges()],
    )
    want = [
        frozenset(range(k * r, k * r + r))
        for k, h in enumerate(hosts)
        if any(spans_by_permutation(h, list(range(r)), p) for p in pats)
    ]
    assert list(enumerate_F_subgraphs(union, pats).members) == want


def test_family_is_counted_before_it_is_built(monkeypatch):
    # Every connected set of at most r vertices counts, whether or not it
    # becomes a member: exactly at the cap the family is built, one set
    # more is refused before any member is.
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.choice((0.3, 0.6)), rng)
        pats = [pattern_by_name(rng.choice(("k1", "k3", "p4", "c5")))]
        count = len(connected_vertex_sets(g, pats[0].n))
        monkeypatch.setattr("treealpha.packing.MAX_COUNT", count)
        assert list(enumerate_F_subgraphs(g, pats).members) == family_by_permutation(g, pats)
        monkeypatch.setattr("treealpha.packing.MAX_COUNT", count - 1)
        with pytest.raises(CapExceededError, match=f"cap={count - 1} connected sets"):
            enumerate_F_subgraphs(g, pats)


def test_derived_graph_is_counted_before_it_is_built(monkeypatch):
    # The count is sum_j sum_{v in N[H_j]} |index[v]|, the work of the
    # build; exactly at the cap the graph is built, one term less is
    # refused.
    rng = random.Random(44)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.choice((0.2, 0.5)), rng)
        members = {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(8)}
        fam = make_family(g, sorted(members, key=sorted))
        held = [sum(1 for s in fam.members if v in s) for v in range(g.n)]
        terms = sum(
            held[v]
            for s in fam.members
            for v in s.union(*(g.adj[u] for u in s))
        )
        td = trivial_decomposition(g)
        monkeypatch.setattr("treealpha.packing.MAX_COUNT", terms)
        want = derived_graph(g, fam)
        rows, _ = _reduction(fam, td)
        monkeypatch.setattr("treealpha.packing.MAX_COUNT", terms - 1)
        with pytest.raises(CapExceededError, match="derived graph refused"):
            derived_graph(g, fam)
        with pytest.raises(CapExceededError, match="derived graph refused"):
            _reduction(fam, td)
        monkeypatch.undo()
        assert want == derived_graph(g, fam)
        assert rows == [mask_of(a) for a in want.adj]


def test_k1_k2_packing_runs_on_k37_and_is_refused_on_k38():
    # Every k1,k2 member of K_n meets every closed neighbourhood: the work
    # is n * n * (n + n(n-1)/2), 962,407 at n = 37 and 1,070,004 at 38.
    pats = [pattern_by_name("k1"), pattern_by_name("k2")]
    for n, runs in ((37, True), (38, False)):
        g = complete_graph(n)
        fam = enumerate_F_subgraphs(g, pats)
        inst = PackingInstance(fam, tuple(Fraction(len(s)) for s in fam.members))
        if runs:
            assert solve_packing(inst, trivial_decomposition(g), 1)[0] == 2
        else:
            with pytest.raises(CapExceededError, match="derived graph refused"):
                solve_packing(inst, trivial_decomposition(g), 1)


def test_derived_graph_refusal_stays_small():
    # K_200's 20,100 k1,k2 members all meet every closed neighbourhood, so
    # the count passes the cap inside the first vertex's union, at about
    # 5,300 of its 20,100 members; no neighbour row or mask is built. Both
    # refusals peak at 1.47-1.48 MiB, 0.84 of it the vertex -> members
    # index; the bound is about twice that.
    g = complete_graph(200)
    fam = enumerate_F_subgraphs(g, [pattern_by_name("k1"), pattern_by_name("k2")])
    for refuse in (
        lambda: derived_graph(g, fam),
        lambda: _reduction(fam, trivial_decomposition(g)),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="derived graph refused"):
                refuse()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20


def test_spanning_vs_induced_containment():
    # C_4 contains a spanning P_4 but no induced one; the family keys on
    # spanning subgraphs, so the whole cycle counts as a path member.
    c4 = cycle_graph(4)
    fam = enumerate_F_subgraphs(c4, [pattern_by_name("p4")])
    assert [sorted(s) for s in fam.members] == [[0, 1, 2, 3]]


def test_k1_packing_equals_mwis():
    rng = random.Random(37)
    for _ in range(15):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        fam = enumerate_F_subgraphs(g, [pattern_by_name("k1")])
        w = WeightMap(g.n, {v: Fraction(rng.randint(0, 8)) for v in range(g.n)})
        inst = make_instance(
            g, fam.members, [w[min(s)] for s in fam.members]
        )
        td = trivial_decomposition(g)
        k = alpha_exact(g)
        got, _ = solve_packing(inst, td, k)
        expect, _ = solve_mwis(g, w, td, k)
        assert got == expect


def dissociation_by_enumeration(g):
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            if all(sum(1 for u in g.adj[v] if u in s) <= 1 for v in s):
                best = size
                break
    return best


def test_induced_matching_examples():
    g = build_graph(4, [(0, 1), (2, 3)])
    value, edges = induced_matching(g, None, trivial_decomposition(g), 2)
    assert value == 2 and edges == ((0, 1), (2, 3))
    p4 = path_graph(4)
    value, edges = induced_matching(p4, None, trivial_decomposition(p4), 2)
    assert value == 1
    value, edges = induced_matching(
        p4, {(0, 1): Fraction(5), (2, 3): "1/2"}, trivial_decomposition(p4), 2
    )
    assert value == Fraction(5) and edges == ((0, 1),)


def test_dissociation_examples():
    p4 = path_graph(4)
    value, chosen = dissociation_set(p4, trivial_decomposition(p4), 2)
    assert value == 3 == dissociation_by_enumeration(p4)
    assert len(chosen) == 3
    rng = random.Random(38)
    for _ in range(10):
        g = random_graph(rng.randint(1, 7), 0.4, rng)
        td = trivial_decomposition(g)
        value, chosen = dissociation_set(g, td, alpha_exact(g))
        assert value == dissociation_by_enumeration(g)
        assert all(sum(1 for u in g.adj[v] if u in chosen) <= 1 for v in chosen)


def test_k_separator_unit_weights_small():
    # With s = n and unit weights the packing takes everything.
    g = path_graph(3)
    value, members = k_separator(
        g, WeightMap(3), 3, trivial_decomposition(g), alpha_exact(g)
    )
    assert value == 3 and members == (frozenset({0, 1, 2}),)
    with pytest.raises(CapExceededError):
        k_separator(g, None, 6, trivial_decomposition(g), 2)


def test_blob_examples():
    k2 = complete_graph(2)
    fam = blob_family(k2)
    assert sorted(sorted(s) for s in fam.members) == [[0], [0, 1], [1]]
    assert derived_graph(k2, fam) == complete_graph(3)

    p3 = path_graph(3)
    fam = blob_family(p3)
    assert len(fam) == 6
    d = derived_graph(p3, fam)
    assert d.n == 6 and d.m == 14  # complete minus the two endpoint singletons
    i = fam.members.index(frozenset({0}))
    j = fam.members.index(frozenset({2}))
    assert not has_edge(d, i, j)
    with pytest.raises(CapExceededError):
        blob_family(build_graph(13, []))


def test_selected_members_always_compatible():
    rng = random.Random(39)
    for _ in range(15):
        g = random_graph(rng.randint(2, 8), 0.4, rng)
        members = sorted(
            {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(8)},
            key=sorted,
        )
        inst = make_instance(
            g, members, [Fraction(rng.randint(1, 5)) for _ in members]
        )
        _, chosen = solve_packing(inst, trivial_decomposition(g), alpha_exact(g))
        for a, b in itertools.combinations(sorted(chosen), 2):
            sa, sb = inst.family.members[a], inst.family.members[b]
            assert not (sa & sb)
            assert all(not has_edge(g, u, v) for u in sa for v in sb)


def test_packing_validates_the_host_decomposition_only(monkeypatch):
    # The transferred decomposition is valid by construction; only the
    # host's is checked, once.
    g = cycle_graph(6)
    td = tin_exact(g)[1]
    inst = make_instance(g, enumerate_F_subgraphs(g, [complete_graph(2)]).members)
    checked = []

    def require_valid(graph, td):
        checked.append(td)
        decomposition.require_valid(graph, td)

    monkeypatch.setattr("treealpha.packing.require_valid", require_valid)
    monkeypatch.setattr("treealpha.mwis.require_valid", require_valid)
    assert solve_packing(inst, td, 2)[0] == 2
    assert checked == [td]


def test_packing_refuses_derived_tables_over_the_cap():
    # 21 single-vertex members of an edgeless host share one derived bag of
    # 21 pairwise independent members: the 21st would double 2^20 keys.
    g = build_graph(21, [])
    inst = make_instance(g, [{v} for v in range(21)])
    with pytest.raises(CapExceededError, match="21 vertices.*cap=1048576"):
        solve_packing(inst, trivial_decomposition(g), 21)


def test_packing_check_rejects_conflicting_selections(monkeypatch):
    # On the path 0-1-2-3, members 0 and 1 share vertex 1, members 2 and 3
    # are joined by the host edge 0-1, and members 2 and 4 lie at distance 2.
    g = path_graph(4)
    inst = make_instance(g, [{0, 1}, {1, 2}, {0}, {1}, {2}])
    td = trivial_decomposition(g)
    for picked in ({0, 1}, {2, 3}):
        monkeypatch.setattr(
            "treealpha.packing._dp",
            lambda *args, picked=picked: (Fraction(2), frozenset(picked), {}),
        )
        with pytest.raises(RuntimeError, match="selected members conflict"):
            solve_packing(inst, td, 2)
    monkeypatch.setattr(
        "treealpha.packing._dp",
        lambda *args: (Fraction(2), frozenset({2, 4}), {}),
    )
    assert solve_packing(inst, td, 2) == (Fraction(2), frozenset({2, 4}))
