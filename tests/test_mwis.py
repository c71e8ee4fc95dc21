import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealpha import (
    CapExceededError,
    PackingInstance,
    ResidualBoundViolation,
    WeightMap,
    alpha_exact,
    alpha_of_subset,
    build_graph,
    clique_tree,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    derived_graph,
    double_join,
    enumerate_F_subgraphs,
    independence_number,
    is_independent,
    make_decomposition,
    make_nice,
    path_graph,
    pattern_by_name,
    residual_independence_number,
    solve_mwis,
    tin_exact,
    trivial_decomposition,
    validate,
)
from treealpha import cli, mwis, packing
from treealpha.formats import format_graph, format_td
from treealpha.graph import MAX_COUNT, Graph, mask_of, members
from treealpha.mwis import _dp
from treealpha.nice import rooted_contraction
from treealpha.oracle import brute_force_mwis
from treealpha.packing import _reduction, brute_force_packing

from .conftest import (
    chordal_fill_in,
    complement,
    has_edge,
    interval_graph,
    is_chordal,
    mwis_by_enumeration,
    nice_form_mwis,
    random_graph,
    random_weights,
)


def _key_sets(table):
    return {frozenset(v for v in range(s.bit_length()) if s >> v & 1) for s in table}


def _independent_subsets(g, bag):
    bag = sorted(bag)
    return {
        frozenset(c)
        for r in range(len(bag) + 1)
        for c in itertools.combinations(bag, r)
        if is_independent(g, c)
    }


def _tables(g, w, td, k):
    """The solver's final table at every contracted bag, with the rooted
    contracted tree (bags, marked sets, root, parent, children) it indexes."""
    return rooted_contraction(td), _dp(g.bit_rows(), [w[v] for v in range(g.n)], td, k)[2]


def _full_bag_table(g, td, k):
    """The table of the contracted node whose bag is the whole vertex set."""
    (bags, *_), tables = _tables(g, WeightMap(g.n), td, k)
    return tables[bags.index(frozenset(range(g.n)))]


def test_enumerate_path_bag():
    g = path_graph(3)
    table = _full_bag_table(g, trivial_decomposition(g), 2)
    assert _key_sets(table) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 2}),
    }


def test_enumerate_clique_bag():
    g = complete_graph(5)
    assert len(_full_bag_table(g, trivial_decomposition(g), 1)) == 6


def test_enumerate_detects_residual_violation():
    # With only vertex 0 marked, the rest of the 4-cycle still holds the
    # independent pair {1, 3}, so a promised residual bound of 1 is false.
    g = cycle_graph(4)
    td = make_decomposition(g, [set(range(4))], [], [{0}])
    with pytest.raises(ResidualBoundViolation) as err:
        solve_mwis(g, WeightMap(4), td, 1)
    assert err.value.witness == frozenset({1, 3})
    with pytest.raises(ResidualBoundViolation) as err:
        nice_form_mwis(g, WeightMap(4), td, 1)
    assert err.value.witness == frozenset({1, 3})


def test_broken_promise_on_a_wide_bag_fails_fast():
    # An edgeless 60-vertex bag with every 7th vertex marked has 2^60
    # independent subsets; k = 1 breaks at its third vertex, 2, and the
    # check there stops the pass before the bag is enumerated.
    g = build_graph(60, [])
    td = make_decomposition(g, [range(60)], [], [range(0, 60, 7)])
    started = time.perf_counter()
    with pytest.raises(ResidualBoundViolation) as err:
        solve_mwis(g, WeightMap(60), td, 1)
    assert time.perf_counter() - started < 0.5
    assert err.value.witness == frozenset({1, 2})


def test_witness_is_rechecked_against_the_rows_and_the_graph(monkeypatch):
    # Rows that disagree (0 lists 1, 1 does not list 0) let the pass add 1
    # beside 0; the re-check against the rows it was given catches the pair.
    g = build_graph(2, [])
    with pytest.raises(RuntimeError, match="witness set is not independent"):
        _dp([0b10, 0], [1, 1], trivial_decomposition(g), 2)
    # Rows that lose an edge agree with themselves; `solve_mwis` checks the
    # witness against the adjacency lists too.
    monkeypatch.setattr(Graph, "bit_rows", lambda self, vertices=None: [0] * self.n)
    with pytest.raises(RuntimeError, match="witness set is not independent"):
        solve_mwis(path_graph(2), WeightMap(2), trivial_decomposition(path_graph(2)), 2)


def test_tables_over_the_cap_are_refused_during_the_pass():
    # Vertices 0..18 are marked: the table holds 2^20 keys, the cap, after
    # vertex 19. Vertex 20 would double it, and would also break k = 1; the
    # cap is counted before a vertex is added, so it is refused first.
    g = build_graph(21, [])
    td = make_decomposition(g, [range(21)], [], [range(19)])
    with pytest.raises(CapExceededError, match="21 vertices, 19 marked.*cap=1048576"):
        solve_mwis(g, WeightMap(21), td, 1)


def test_weight_scale_over_the_cap_is_refused_before_the_pass():
    # The lcm of the denominators may have 2^18 bits; one bit more, from a
    # wider denominator or a second one coprime to it, is refused.
    g, top = path_graph(2), 1 << (mwis.MAX_SCALE_BITS - 1)
    td = trivial_decomposition(g)
    weights = {0: Fraction(3, top), 1: Fraction(1, top)}
    assert solve_mwis(g, WeightMap(2, weights), td, 1) == (Fraction(3, top), {0})
    for weights in ({0: Fraction(1, 2 * top)}, {0: Fraction(1, top), 1: Fraction(1, 3)}):
        with pytest.raises(CapExceededError, match="denominators passes cap=262144 bits"):
            solve_mwis(g, WeightMap(2, weights), td, 1)


def test_enumerate_refined_bag_with_adequate_bound():
    g = cycle_graph(4)
    td = make_decomposition(g, [set(range(4))], [], [{0}])
    table = _full_bag_table(g, td, 2)
    assert _key_sets(table) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({0, 2}),
        frozenset({1, 3}),
    }


def test_enumerate_count_bound():
    # At every contracted bag the keys are exactly the independent subsets
    # of the bag, and there are at most 2^|U_t| * sum_{s<=k} C(|X_t - U_t|, s).
    rng = random.Random(18)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        td = _perturb(g, tin_exact(g)[1], rng) if rng.random() < 0.5 else trivial_decomposition(g)
        marked = [frozenset(v for v in b if rng.random() < 0.3) for b in td.bags]
        td = make_decomposition(g, td.bags, td.tree_edges, marked)
        k = residual_independence_number(g, td)
        (bags, refs, *_), tables = _tables(g, WeightMap(g.n), td, k)
        assert set(tables) == set(range(len(bags)))
        for t, table in tables.items():
            bag, marked = bags[t], refs[t]
            assert _key_sets(table) == _independent_subsets(g, bag)
            residual = len(bag - marked)
            cap = (2 ** len(marked)) * sum(math.comb(residual, i) for i in range(k + 1))
            assert len(table) <= cap


def test_solve_examples():
    g = path_graph(3)
    td = trivial_decomposition(g)
    assert solve_mwis(g, WeightMap(3, {0: 1, 1: 5, 2: 1}), td, 2) == (
        Fraction(5),
        frozenset({1}),
    )
    assert solve_mwis(g, WeightMap(3, {0: 3, 1: 1, 2: 3}), td, 2) == (
        Fraction(6),
        frozenset({0, 2}),
    )
    # A tie keeps the entry without the forgotten vertex, so the witness
    # does not depend on how the tables are stored.
    assert solve_mwis(g, WeightMap(3, {0: 1, 1: 2, 2: 1}), td, 2) == (
        Fraction(2),
        frozenset({1}),
    )
    c5 = cycle_graph(5)
    value, _ = solve_mwis(c5, WeightMap(5), trivial_decomposition(c5), 2)
    assert value == 2


def test_solve_double_join_over_witness():
    g = double_join(cycle_graph(5))
    value, witness_td = tin_exact(g)
    assert value == 2
    w = WeightMap(g.n)
    got, chosen = solve_mwis(g, w, witness_td, 2)
    expect, _ = brute_force_mwis(g, w)
    assert got == expect == 2
    assert is_independent(g, chosen)


def test_plain_on_clique_trees_gives_alpha():
    rng = random.Random(19)
    seen = 0
    while seen < 15:
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        if not is_chordal(g):
            continue
        seen += 1
        value, _ = solve_mwis(g, WeightMap(g.n), clique_tree(g), 1)
        assert value == alpha_exact(g)


def test_plain_examples():
    g = complete_bipartite(3, 3)
    value, _ = solve_mwis(g, WeightMap(6), trivial_decomposition(g), 3)
    assert value == 3
    e = build_graph(5, [])
    value, chosen = solve_mwis(e, WeightMap(5), trivial_decomposition(e), 5)
    assert value == 5 and chosen == frozenset(range(5))


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        w = WeightMap(n, random_weights(n, rng))
        expect = mwis_by_enumeration(g, w)
        k = max(alpha_exact(g), 0)
        value, chosen = solve_mwis(g, w, trivial_decomposition(g), k)
        assert value == expect
        assert is_independent(g, chosen)
        assert w.total(chosen) == value


def _perturb(g, td, rng):
    """Insert a node with the intersection bag on a random tree edge."""
    if not td.tree_edges:
        return td
    a, b = td.tree_edges[rng.randrange(len(td.tree_edges))]
    mid = td.bags[a] & td.bags[b]
    bags = list(td.bags) + [mid]
    refined = list(td.refined) + [frozenset()]
    edges = [e for e in td.tree_edges if e != (a, b)]
    m = len(bags) - 1
    edges += [(a, m), (m, b)]
    return make_decomposition(g, bags, edges, refined)


def _coarsen(g, td, rng, rounds):
    """Grow random bags by random vertices of a neighbouring bag. A vertex of
    X_b added to X_a, with a-b a tree edge, keeps its node set connected, so
    the result stays a valid decomposition; marked sets are kept."""
    bags = list(td.bags)
    for _ in range(rounds if td.tree_edges else 0):
        a, b = rng.sample(rng.choice(td.tree_edges), 2)
        bags[a] |= frozenset(v for v in bags[b] if rng.random() < 0.6)
    return make_decomposition(g, bags, td.tree_edges, td.refined)


def test_coarsened_decompositions_match_brute_force():
    rng = random.Random(46)
    grown = 0
    for _ in range(150):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5]), rng)
        w = WeightMap(n, random_weights(n, rng))
        base = _perturb(g, tin_exact(g)[1], rng)
        if rng.random() < 0.5:
            marked = [frozenset(v for v in b if rng.random() < 0.3) for b in base.bags]
            base = make_decomposition(g, base.bags, base.tree_edges, marked)
        td = _coarsen(g, base, rng, rng.randint(1, 4))
        assert validate(g, td).ok
        grown += td.bags != base.bags
        value, chosen = solve_mwis(g, w, td, residual_independence_number(g, td))
        assert value == brute_force_mwis(g, w)[0]
        assert is_independent(g, chosen) and w.total(chosen) == value
    assert grown >= 75  # most instances really are coarsened


def test_integer_weights_on_clique_trees_match_networkx():
    # An independent set of g is a clique of its complement.
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    for _ in range(120):
        n = rng.randint(1, 16)
        g = chordal_fill_in(random_graph(n, rng.choice([0.1, 0.2, 0.4]), rng), rng)
        weights = {v: rng.randint(0, 30) for v in range(n)}
        value, chosen = solve_mwis(g, WeightMap(n, weights), clique_tree(g), 1)
        co = nx.Graph()
        co.add_nodes_from((v, {"weight": w}) for v, w in weights.items())
        co.add_edges_from((u, v) for u in range(n) for v in range(u) if not has_edge(g, u, v))
        _, best = nx.max_weight_clique(co, weight="weight")
        assert value == best
        assert is_independent(g, chosen) and sum(weights[v] for v in chosen) == best


def test_decomposition_independence_of_value():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 9)
        g = random_graph(n, 0.4, rng)
        w = WeightMap(n, random_weights(n, rng))
        k = alpha_exact(g)
        tin_val, witness = tin_exact(g)
        v1, _ = solve_mwis(g, w, trivial_decomposition(g), k)
        v2, _ = solve_mwis(g, w, witness, tin_val)
        v3, _ = solve_mwis(g, w, _perturb(g, witness, rng), tin_val)
        assert v1 == v2 == v3


def test_refinement_never_changes_value():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 8)
        g = random_graph(n, 0.4, rng)
        w = WeightMap(n, random_weights(n, rng))
        base = trivial_decomposition(g)
        expect, _ = solve_mwis(g, w, base, alpha_exact(g))
        refs = [
            frozenset(v for v in sorted(b) if rng.random() < 0.4)
            for b in base.bags
        ]
        refined = make_decomposition(g, base.bags, base.tree_edges, refs)
        k = residual_independence_number(g, refined)
        got, _ = solve_mwis(g, w, refined, k)
        assert got == expect


def test_zero_weights_and_scaling():
    rng = random.Random(23)
    g = random_graph(7, 0.4, rng)
    zero = WeightMap(7, {v: 0 for v in range(7)})
    value, chosen = solve_mwis(g, zero, trivial_decomposition(g), alpha_exact(g))
    assert value == 0 and zero.total(chosen) == 0
    w = WeightMap(7, random_weights(7, rng))
    base, _ = solve_mwis(g, w, trivial_decomposition(g), alpha_exact(g))
    scaled, _ = solve_mwis(
        g,
        WeightMap(7, {v: w[v] * Fraction(3, 7) for v in range(7)}),
        trivial_decomposition(g),
        alpha_exact(g),
    )
    assert scaled == base * Fraction(3, 7)


def test_residual_violation_propagates_from_solver():
    g = cycle_graph(4)
    with pytest.raises(ResidualBoundViolation):
        solve_mwis(g, WeightMap(4), trivial_decomposition(g), 1)


def test_matches_brute_force_above_corpus_scale():
    rng = random.Random(45)
    for n, p in ((14, 0.35), (15, 0.5), (16, 0.6)):
        g = random_graph(n, p, rng)
        w = WeightMap(n, random_weights(n, rng))
        expect, _ = brute_force_mwis(g, w)
        k = alpha_exact(g)
        value, chosen = solve_mwis(g, w, trivial_decomposition(g), k)
        assert value == expect
        assert is_independent(g, chosen) and w.total(chosen) == value


def test_larger_budget_changes_nothing():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(1, 8)
        g = random_graph(n, 0.4, rng)
        w = WeightMap(n, random_weights(n, rng))
        td = trivial_decomposition(g)
        k = alpha_exact(g)
        assert solve_mwis(g, w, td, k) == solve_mwis(g, w, td, k + 3)


def test_solver_is_deterministic():
    rng = random.Random(43)
    g = random_graph(8, 0.4, rng)
    w = WeightMap(8, random_weights(8, rng))
    td = trivial_decomposition(g)
    k = alpha_exact(g)
    assert solve_mwis(g, w, td, k) == solve_mwis(g, w, td, k)


def _assert_recurrences(weights, td, tables):
    """Every key of every table `_dp` returned for `td` obeys
    c[t, S] = w(S) + sum over children c of (P_c[S & X_c] - w(S & X_c)),
    P_c[S'] = max of c[c, s] over the keys s with s & X_t = S', all scaled
    by the lcm L of the weight denominators."""
    bags, _, _, _, kids = rooted_contraction(td)
    bag = [mask_of(b) for b in bags]
    scale = math.lcm(*(Fraction(x).denominator for x in weights))

    def scaled(s):
        return scale * sum(weights[v] for v in members(s))

    for t, table in tables.items():
        for key, value in table.items():
            expect = scaled(key)
            for c in kids[t]:
                common = key & bag[c]
                top = max(x for s, x in tables[c].items() if s & bag[t] == common)
                expect += top - scaled(common)
            assert value == expect


def test_tables_expose_the_recurrences():
    # The optimum is max c[root, S], scaled by L.
    g = cycle_graph(5)
    w = WeightMap(5, {0: 2, 1: Fraction(3, 2), 2: 5, 3: Fraction(7, 3), 4: 11})
    scale = 6
    rng = random.Random(24)
    for td in (trivial_decomposition(g), tin_exact(g)[1], _perturb(g, tin_exact(g)[1], rng)):
        (bags, _, root, *_), tables = _tables(g, w, td, 2)
        assert set(tables) == set(range(len(bags)))
        _assert_recurrences([w[v] for v in range(g.n)], td, tables)
        assert Fraction(max(tables[root].values()), scale) == brute_force_mwis(g, w)[0]


class _Choices(int):
    """Stands in for `mwis.WALK`, and appends to `seen` the choice `extend`
    makes at each added vertex: True where it walks the subsets of `free`,
    False where it scans the table."""

    def __new__(cls, value, seen):
        out = super().__new__(cls, value)
        out.seen = seen
        return out

    def __lshift__(self, bits):
        return _Choices(int(self) << bits, self.seen)

    def __lt__(self, size):
        self.seen.append(int(self) < size)
        return self.seen[-1]


def _independent_masks(rows, mask):
    """Every independent subset of `mask` under `rows`, by branching on its
    lowest vertex."""
    if not mask:
        return {0}
    low = mask & -mask
    rest = mask ^ low
    return _independent_masks(rows, rest) | {
        s | low for s in _independent_masks(rows, rest & ~rows[low.bit_length() - 1])
    }


def _on_every_path(monkeypatch, solve, g, w, td, k):
    """`solve(g, w, td, k)` under the walk-or-scan rule, with every added
    vertex walked (WALK = 0) and with every one scanned (WALK = MAX_COUNT).
    All three must give the same answer, or the same violation, and the
    same tables at every `_dp` call; those tables must hold exactly the
    independent subsets of their bags and obey the recurrences. Returns the
    answer and the rule's choices. Undoes every patch of `monkeypatch`."""
    runs, seen = [], []
    for walk in (_Choices(mwis.WALK, seen), 0, MAX_COUNT):
        calls = []

        def recording(rows, weights, td, k, dp=mwis._dp, calls=calls):
            out = dp(rows, weights, td, k)
            calls.append((rows, [weights[v] for v in range(len(rows))], td, out[2]))
            return out

        monkeypatch.setattr(mwis, "WALK", walk)
        monkeypatch.setattr(mwis, "_dp", recording)
        monkeypatch.setattr(packing, "_dp", recording)
        runs.append((_answer(solve, g, w, td, k), calls))
        monkeypatch.undo()
    assert runs[1] == runs[0] and runs[2] == runs[0]
    for rows, weights, td, tables in runs[0][1]:
        bags = rooted_contraction(td)[0]
        for t, table in tables.items():
            assert set(table) == _independent_masks(rows, mask_of(bags[t]))
        _assert_recurrences(weights, td, tables)
    return runs[0][0], seen


def _cocycle(cycle):
    """The complement of the cycle through `cycle`'s vertices in that order."""
    return complement(build_graph(len(cycle), list(zip(cycle, cycle[1:] + cycle[:1]))))


def _pack(g, job, td, k):
    return packing._solve_packing(job, td, k)[:2]


def test_walked_and_scanned_extensions_match_the_references(monkeypatch):
    rng = random.Random(27)

    def check_mwis(g, td):
        w = WeightMap(g.n, random_weights(g.n, rng))
        k = residual_independence_number(g, td)
        answer, seen = _on_every_path(monkeypatch, solve_mwis, g, w, td, k)
        assert answer == _answer(nice_form_mwis, g, w, td, k)
        if g.n <= 22:
            assert answer[0] == brute_force_mwis(g, w)[0]
        return seen

    # One-bag cliques: from the fifth vertex on, the table has over WALK
    # keys, and the one key that can take v is found by a single lookup.
    for n in range(2, 41):
        g = complete_graph(n)
        seen = check_mwis(g, trivial_decomposition(g))
        assert seen == [False] * min(n, mwis.WALK) + [True] * max(n - mwis.WALK, 0)
    # Edgeless bags: every key can take every vertex, so the table is scanned.
    for n in range(1, 13):
        g = build_graph(n, [])
        assert not any(check_mwis(g, trivial_decomposition(g)))
    # Complements of cycles in one bag, as on cocycle-mwis, alone and with a
    # marked window of consecutive cycle vertices: both paths run.
    for n in range(8, 21):
        cycle = list(range(n))
        rng.shuffle(cycle)
        g = _cocycle(cycle)
        for window in (0, rng.randint(2, n // 2)):
            td = make_decomposition(g, [range(n)], [], [cycle[:window]])
            seen = check_mwis(g, td)
            assert True in seen and False in seen
    # k1,k2 packings on interval hosts: each derived bag is a clique.
    pats = [pattern_by_name("k1"), pattern_by_name("k2")]
    walked = 0
    for n in (5, 6, 7, 12, 20, 30, 40):
        g = interval_graph(n, rng)
        td = clique_tree(g)
        fam = enumerate_F_subgraphs(g, pats)
        ws = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in fam.members)
        job = PackingInstance(fam, ws)
        k = independence_number(g, td)
        answer, seen = _on_every_path(monkeypatch, _pack, g, job, td, k)
        derived = (derived_graph(g, fam), WeightMap(len(fam), dict(enumerate(ws))))
        expect = nice_form_mwis(*derived, _reduction(fam, td)[1], k)
        assert answer == expect
        if len(fam) <= 22:
            assert answer[0] == brute_force_packing(job)[0]
        walked += sum(seen)
    assert walked > 100


def test_broken_promise_found_by_a_walk(monkeypatch, tmp_path, capsys):
    # In id order, 0..7 are pairwise apart on the cycle and 8 follows 7: the
    # table holds 9 keys when 8 is added, one of which can take it, so 8 is
    # walked and {7, 8} breaks k = 1. The error and witness are the textbook
    # pass's, and `mwis` prints them with 1-based ids and exits 2.
    g = _cocycle([0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5, 15, 6, 16, 7, 8, 17, 9, 18, 19])
    td = trivial_decomposition(g)
    seen = []
    monkeypatch.setattr(mwis, "WALK", _Choices(mwis.WALK, seen))
    with pytest.raises(ResidualBoundViolation) as err:
        solve_mwis(g, WeightMap(20), td, 1)
    assert str(err.value) == "residual bound violated: independent set of size 2 in bag residual"
    assert err.value.witness == frozenset({7, 8})
    assert seen == [False] * 4 + [True] * 5
    assert _answer(nice_form_mwis, g, WeightMap(20), td, 1) == _answer(
        solve_mwis, g, WeightMap(20), td, 1
    )
    (tmp_path / "g.gr").write_text(format_graph(g))
    (tmp_path / "t.td").write_text(format_td(td))
    argv = ["mwis", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"), "-k", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: residual bound violated: independent set of size 2 in bag residual;"
        " witness vertices 8 9\n"
    )


def test_cap_is_counted_before_a_walk_breaks_the_promise(monkeypatch):
    # 0..19 are marked and apart: 2^20 keys, the cap. Vertex 20 sees 0..3,
    # so 2^16 keys can take it, found by walking the subsets of 4..19; it
    # would pass the cap and break k = 0, and is refused for the cap.
    g = build_graph(21, [(u, 20) for u in range(4)])
    td = make_decomposition(g, [range(21)], [], [range(20)])
    seen = []
    monkeypatch.setattr(mwis, "WALK", _Choices(mwis.WALK, seen))
    with pytest.raises(CapExceededError, match="21 vertices, 20 marked.*cap=1048576"):
        solve_mwis(g, WeightMap(21), td, 0)
    assert seen[-1] and not any(seen[:-1])


def _elimination_decomposition(g, rng):
    """A decomposition from a random elimination order, half the time
    sorted by degree: v's bag is v plus its later neighbours in the fill-in,
    hung below the first of them to be eliminated (or, with none, below the
    next node in the order)."""
    adj = [set(a) for a in g.adj]
    order = list(range(g.n))
    rng.shuffle(order)
    if rng.random() < 0.5:  # low degree first: hubs go last, with many children
        order.sort(key=lambda v: len(adj[v]))
    pos = {v: i for i, v in enumerate(order)}
    bags, edges = [], []
    for i, v in enumerate(order):
        later = [u for u in adj[v] if pos[u] > i]
        for a, b in itertools.combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
        bags.append(frozenset(later) | {v})
        if later:
            edges.append((i, min(pos[u] for u in later)))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    return make_decomposition(g, bags, edges)


def _sprout(g, td, rng, count):
    """Hang `count` new leaves below random nodes, each with a random subset
    of its parent's bag: nested bags and nodes with many children."""
    bags, edges = list(td.bags), list(td.tree_edges)
    for _ in range(count):
        a = rng.randrange(len(bags))
        bags.append(frozenset(v for v in bags[a] if rng.random() < 0.6))
        edges.append((a, len(bags) - 1))
    return make_decomposition(g, bags, edges)


def _tree_first(rng):
    """A random tree whose nodes mostly hang off node 0, each bag with one
    or two fresh vertices plus some of its parent's, and a graph drawn
    inside the bags: a decomposition with many children per node."""
    bags, edges, n = [], [], 0
    for i in range(rng.randint(1, 7)):
        fresh = rng.randint(1, 2)
        bag = set(range(n, n + fresh))
        n += fresh
        if i:
            a = rng.choice([0, 0, rng.randrange(i)])
            bag |= {v for v in bags[a] if rng.random() < 0.5}
            edges.append((a, i))
        bags.append(frozenset(bag))
    pairs = {e for b in bags for e in itertools.combinations(sorted(b), 2)}
    g = build_graph(n, [e for e in sorted(pairs) if rng.random() < 0.5])
    return g, make_decomposition(g, bags, edges)


def _differential_corpus(rng, count):
    """Weighted graphs (n <= 14) with varied decompositions: elimination
    trees, tree-first bags, sprouted leaves, intersection bags on edges,
    coarsened bags, random marked sets, weights in {0, 1, 2} half the time
    (many ties), and a promised k that is often one too small."""
    for _ in range(count):
        if rng.random() < 0.5:
            g, td = _tree_first(rng)
        else:
            g = random_graph(rng.randint(1, 10), rng.choice([0.15, 0.3, 0.5]), rng)
            td = _elimination_decomposition(g, rng)
        n = g.n
        if rng.random() < 0.5:
            w = WeightMap(n, random_weights(n, rng))
        else:
            w = WeightMap(n, {v: rng.randint(0, 2) for v in range(n)})
        td = _sprout(g, td, rng, rng.randint(0, 4))
        td = _perturb(g, td, rng)
        if rng.random() < 0.3:
            td = _coarsen(g, td, rng, 2)
        if rng.random() < 0.6:
            marked = [frozenset(v for v in b if rng.random() < 0.35) for b in td.bags]
            td = make_decomposition(g, td.bags, td.tree_edges, marked)
        k = max(residual_independence_number(g, td) - rng.choice([0, 0, 1]), 0)
        yield g, w, td, k


def _answer(solve, g, w, td, k):
    try:
        return solve(g, w, td, k)
    except ResidualBoundViolation as err:
        return "violation", err.witness, str(err)


def test_contracted_pass_matches_the_nice_form_reference():
    rng = random.Random(47)
    seen = {"marked": 0, "nested": 0, "three kids": 0, "violation": 0, "tie": 0}
    for g, w, td, k in _differential_corpus(rng, 500):
        expect = _answer(nice_form_mwis, g, w, td, k)
        assert _answer(solve_mwis, g, w, td, k) == expect
        seen["marked"] += any(td.refined)
        seen["nested"] += any(
            td.bags[a] <= td.bags[b] or td.bags[b] <= td.bags[a] for a, b in td.tree_edges
        )
        seen["three kids"] += max(map(len, rooted_contraction(td)[4])) >= 3
        seen["violation"] += expect[0] == "violation"
        seen["tie"] += expect[0] != "violation" and len(
            {w.total(s) for s in _independent_subsets(g, range(g.n))}
        ) < len(_independent_subsets(g, range(g.n)))
    assert min(seen.values()) >= 40, seen


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ws = {
        v: Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 4)))
        for v in range(n)
    }
    return build_graph(n, picked), WeightMap(n, ws)


@given(weighted_graphs())
@settings(max_examples=40, deadline=None)
def test_hypothesis_solver_is_exact(gw):
    g, w = gw
    value, chosen = solve_mwis(g, w, trivial_decomposition(g), max(alpha_exact(g), 0))
    assert value == mwis_by_enumeration(g, w)
    assert is_independent(g, chosen)
    assert w.total(chosen) == value


@st.composite
def refined_instances(draw):
    """A weighted graph (n <= 9), a valid decomposition, maybe refined with
    random marked sets, and a promised k that is sometimes one too small."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, picked)
    w = WeightMap(
        n, {v: Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 4))) for v in range(n)}
    )
    builders = [trivial_decomposition, lambda g: tin_exact(g)[1]]
    if n and is_chordal(g):
        builders.append(clique_tree)
    td = draw(st.sampled_from(builders))(g)
    if draw(st.booleans()):
        marked = [
            frozenset(v for v in sorted(b) if draw(st.booleans())) for b in td.bags
        ]
        td = make_decomposition(g, td.bags, td.tree_edges, marked)
    k = max(residual_independence_number(g, td) - draw(st.integers(0, 1)), 0)
    return g, w, td, k


@given(refined_instances())
@settings(max_examples=150, deadline=None)
def test_hypothesis_solver_matches_brute_force_and_reports_broken_promises(inst):
    g, w, td, k = inst
    nice = make_nice(g, td)
    residuals = [b - u for b, u in zip(nice.bags, nice.refined)]
    over = [r for r in residuals if alpha_of_subset(g, r) > k]
    try:
        value, chosen = solve_mwis(g, w, td, k)
    except ResidualBoundViolation as err:
        assert over
        assert len(err.witness) == k + 1 and is_independent(g, err.witness)
        assert any(err.witness <= r for r in over)
        return
    assert not over
    assert value == brute_force_mwis(g, w)[0]
    assert is_independent(g, chosen) and w.total(chosen) == value
