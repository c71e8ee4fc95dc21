"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every numeric claim is
exact (rational or integer equality, no tolerances); the stated wall-clock
budgets are asserted as upper bounds.
"""

import random
import time
from fractions import Fraction

import pytest

from treealpha import (
    WeightMap,
    alpha_exact,
    build_graph,
    clique_tree,
    complete_bipartite,
    compose_clique_cutset,
    derived_graph,
    double_join,
    enumerate_F_subgraphs,
    independence_number,
    make_decomposition,
    make_family,
    make_instance,
    make_nice,
    path_graph,
    pattern_by_name,
    residual_independence_number,
    sharpness_gadget,
    solve_mwis,
    solve_packing,
    tin_exact,
    treewidth_exact,
    trivial_decomposition,
    validate,
    width,
)
from treealpha.nice import NICE_NODE_FACTOR
from treealpha.oracle import brute_force_mwis
from treealpha.packing import brute_force_packing

from .conftest import (
    all_labeled_graphs,
    dissociation_set,
    induced_matching,
    induced_subgraph,
    is_chordal,
    k_separator,
    nice_violations,
    random_connected_set,
    random_graph,
    transferred,
)
from .test_packing import graph_square, line_graph


@pytest.fixture
def verdict(capsys):
    """Prints one pass/fail line per criterion, bypassing pytest capture so
    the lines land in any teed log."""

    def report(num, description, elapsed, budget):
        ok = elapsed <= budget
        line = (
            f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {description} "
            f"({elapsed:.1f}s of {budget:.0f}s budget)"
        )
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, line

    return report


@pytest.fixture(scope="module")
def mwis_corpus():
    """Criterion 5/6 corpus: every labeled graph on up to 5 vertices plus 300
    random graphs on 6..12 vertices, each with one random rational weighting,
    the brute-force optimum, and the exact witness decomposition."""
    rng = random.Random(0x5EED)
    corpus = []

    def weighting(n):
        return WeightMap(
            n, {v: Fraction(rng.randint(0, 12), rng.randint(1, 6)) for v in range(n)}
        )

    for n in range(6):
        for g in all_labeled_graphs(n):
            w = weighting(n)
            corpus.append((g, w, brute_force_mwis(g, w)[0], *tin_exact(g)))
    for i in range(300):
        n = rng.randint(6, 12)
        g = random_graph(n, 0.3 if i % 2 == 0 else 0.5, rng)
        w = weighting(n)
        corpus.append((g, w, brute_force_mwis(g, w)[0], *tin_exact(g)))
    return corpus


def test_criterion_01_complete_bipartite_tin(verdict):
    started = time.monotonic()
    for n in range(1, 5):
        value, witness = tin_exact(complete_bipartite(n, n))
        assert value == n
        g = complete_bipartite(n, n)
        assert validate(g, witness).ok
        assert independence_number(g, witness) == n
    verdict(
        1,
        "tree-independence number of K_{n,n} equals n for n in 1..4",
        time.monotonic() - started,
        1.0,
    )


def test_criterion_02_exhaustive_six_vertex_laws(verdict):
    started = time.monotonic()
    checked = 0
    for n in range(7):
        for g in all_labeled_graphs(n):
            t = tin_exact(g)[0]
            tw = treewidth_exact(g)
            a = alpha_exact(g)
            chordal = is_chordal(g)
            if n > 0:
                assert (t == 1) == chordal, (n, sorted(g.edges()))
            assert t <= a, (n, sorted(g.edges()))
            assert t <= tw + 1, (n, sorted(g.edges()))
            assert not (t == tw + 1 == 2), (n, sorted(g.edges()))
            checked += 1
    assert checked == 1 + 1 + 2 + 8 + 64 + 1024 + 32768
    verdict(
        2,
        "exhaustive n<=6 sweep: chordal iff value 1, alpha and treewidth+1 "
        "upper bounds, no value = treewidth+1 = 2",
        time.monotonic() - started,
        300.0,
    )


def test_criterion_03_sharpness_gadget(verdict):
    started = time.monotonic()
    g = sharpness_gadget(3)
    assert tin_exact(g)[0] == 3
    assert treewidth_exact(g) == 2
    verdict(
        3,
        "sharpness gadget k=3: tree-independence 3 with treewidth 2",
        time.monotonic() - started,
        30.0,
    )


def test_criterion_04_double_join_identity(verdict):
    started = time.monotonic()
    rng = random.Random(0xD0B1)
    for _ in range(50):
        n = rng.randint(1, 7)
        h = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        assert tin_exact(double_join(h))[0] == alpha_exact(h)
    verdict(
        4,
        "double-join of 50 random graphs: tree-independence equals base alpha",
        time.monotonic() - started,
        120.0,
    )


def test_criterion_05_mwis_oracle_equivalence(verdict, mwis_corpus):
    started = time.monotonic()
    for g, w, expect, tin_value, witness in mwis_corpus:
        k_trivial = max(alpha_exact(g), 0)
        got_trivial, set_trivial = solve_mwis(g, w, trivial_decomposition(g), k_trivial)
        got_witness, set_witness = solve_mwis(g, w, witness, max(tin_value, 0))
        assert got_trivial == expect, (g, w)
        assert got_witness == expect, (g, w)
        assert w.total(set_trivial) == expect
        assert w.total(set_witness) == expect
    verdict(
        5,
        f"MWIS over trivial and witness decompositions matches brute force "
        f"on {len(mwis_corpus)} weighted instances",
        time.monotonic() - started,
        300.0,
    )


def test_criterion_06_refined_consistency(verdict, mwis_corpus):
    started = time.monotonic()
    rng = random.Random(0x0DD5)
    for g, w, expect, _, witness in mwis_corpus:
        base = trivial_decomposition(g) if rng.random() < 0.5 else witness
        refs = [
            frozenset(v for v in sorted(b) if rng.random() < 0.4)
            for b in base.bags
        ]
        refined = make_decomposition(g, base.bags, base.tree_edges, refs)
        k = residual_independence_number(g, refined)
        got, _ = solve_mwis(g, w, refined, k)
        assert got == expect, (g, refs)
    verdict(
        6,
        f"marking random refined sets never changes the optimum "
        f"({len(mwis_corpus)} instances)",
        time.monotonic() - started,
        120.0,
    )


def test_criterion_07_derived_decomposition_law(verdict):
    started = time.monotonic()
    rng = random.Random(0xDE51)
    small_checked = 0
    for i in range(200):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.3, 0.5]), rng)
        count = rng.randint(1, 12)
        members = sorted(
            {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(count)},
            key=sorted,
        )
        fam = make_family(g, members)
        td = trivial_decomposition(g) if i % 2 == 0 else tin_exact(g)[1]
        derived = derived_graph(fam)
        td2 = transferred(fam, td)
        assert validate(derived, td2).ok
        assert independence_number(derived, td2) <= independence_number(g, td)
        if n <= 6:
            assert tin_exact(derived)[0] <= tin_exact(g)[0]
            small_checked += 1
    assert small_checked > 0
    verdict(
        7,
        "derived decompositions validate with no independence growth "
        "(200 instances, tree-independence law on the small subcorpus)",
        time.monotonic() - started,
        180.0,
    )


def _random_packing_instance(rng):
    """One of four instance kinds; returns (instance, host, kind)."""
    kind = rng.choice(["matching", "dissociation", "separator", "mixed"])
    while True:
        n = rng.randint(2, 8)
        g = random_graph(n, rng.choice([0.25, 0.4]), rng)
        if kind == "matching":
            fam = enumerate_F_subgraphs(g, [pattern_by_name("k2")])
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in fam.members]
        elif kind == "dissociation":
            fam = enumerate_F_subgraphs(
                g, [pattern_by_name("k1"), pattern_by_name("k2")]
            )
            weights = [Fraction(len(s)) for s in fam.members]
        elif kind == "separator":
            vw = WeightMap(n, {v: Fraction(rng.randint(0, 9)) for v in range(n)})
            fam = enumerate_F_subgraphs(
                g, [pattern_by_name("k1"), pattern_by_name("k2")]
            )
            weights = [vw.total(s) for s in fam.members]
        else:
            members = sorted(
                {random_connected_set(g, rng.randint(1, 3), rng) for _ in range(10)},
                key=sorted,
            )
            fam = make_family(g, members)
            weights = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in fam.members]
        if 1 <= len(fam) <= 16:
            return make_instance(g, fam.members, weights), g, kind


def test_criterion_08_packing_oracle_equivalence(verdict):
    started = time.monotonic()
    rng = random.Random(0xBA1E)

    p4 = path_graph(4)
    value, _ = dissociation_set(p4, trivial_decomposition(p4), 2)
    assert value == 3

    for _ in range(150):
        inst, g, kind = _random_packing_instance(rng)
        td = trivial_decomposition(g)
        k = alpha_exact(g)
        got, chosen = solve_packing(inst, td, k)
        expect, _ = brute_force_packing(inst)
        assert got == expect, (kind, g)
        if kind == "matching":
            ew = {
                tuple(sorted(s)): w
                for s, w in zip(inst.family.members, inst.member_weights)
            }
            fe_value, _ = induced_matching(g, ew, td, k)
            assert fe_value == expect
        elif kind == "separator":
            fe_value, _ = k_separator(
                g,
                WeightMap(g.n, {v: inst.member_weights[j] for j, s in
                                enumerate(inst.family.members) if len(s) == 1
                                for v in s}),
                2,
                td,
                k,
            )
            assert fe_value == expect

    for _ in range(50):
        g = random_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), rng)
        fam = make_family(g, [frozenset(e) for e in g.edges()])
        assert derived_graph(fam) == graph_square(line_graph(g))
    verdict(
        8,
        "packing front-ends and mixed families match brute force "
        "(150 instances); edge families derive the line-graph square (50 graphs)",
        time.monotonic() - started,
        300.0,
    )


def _nice_corpus(rng):
    out = []
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng.choice([0.25, 0.5]), rng)
        out.append((g, trivial_decomposition(g)))
        out.append((g, tin_exact(g)[1]))
        if is_chordal(g):
            out.append((g, clique_tree(g)))
    more = []
    for g, td in out:
        refs = [
            frozenset(v for v in sorted(b) if rng.random() < 0.35)
            for b in td.bags
        ]
        more.append((g, make_decomposition(g, td.bags, td.tree_edges, refs)))
    return out + more


def test_criterion_09_nice_conversion_contract(verdict):
    started = time.monotonic()
    rng = random.Random(0x1CE5)
    worst = 0.0
    for g, td in _nice_corpus(rng):
        nice = make_nice(g, td)
        assert not nice_violations(g, nice)
        assert residual_independence_number(
            g, nice
        ) <= residual_independence_number(g, td)
        bound = NICE_NODE_FACTOR * (width(td) + 2) * td.node_count
        assert nice.node_count <= bound
        worst = max(worst, nice.node_count / ((width(td) + 2) * td.node_count))
    verdict(
        9,
        f"nice conversion: valid, invariant-clean, residual never grows, "
        f"node count within {NICE_NODE_FACTOR}x(width+2)x|T| "
        f"(worst observed factor {worst:.2f})",
        time.monotonic() - started,
        120.0,
    )


def test_criterion_10_clique_cutset_equality(verdict):
    started = time.monotonic()
    rng = random.Random(0xC117)
    for _ in range(100):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        c = rng.randint(0, 3)
        n = a + b + c
        a_set = frozenset(range(a))
        c_set = frozenset(range(a, a + c))
        b_set = frozenset(range(a + c, n))
        edges = {(u, v) for u in c_set for v in c_set if u < v}
        for part in (a_set | c_set, b_set | c_set):
            verts = sorted(part)
            for i, u in enumerate(verts):
                for v in verts[i + 1 :]:
                    if rng.random() < 0.5:
                        edges.add((u, v))
        g = build_graph(n, edges)
        td_a = make_decomposition(g, [a_set | c_set])
        td_b = make_decomposition(g, [b_set | c_set])
        composed = compose_clique_cutset(g, a_set, b_set, c_set, td_a, td_b)
        assert validate(g, composed).ok
        assert independence_number(g, composed) == max(
            independence_number(g, td_a), independence_number(g, td_b)
        )
        ga, _ = induced_subgraph(g, a_set | c_set)
        gb, _ = induced_subgraph(g, b_set | c_set)
        assert tin_exact(g)[0] == max(tin_exact(ga)[0], tin_exact(gb)[0])
    verdict(
        10,
        "clique-cutset composition: independence number is the max of the "
        "parts, and the same law holds for the exact tree-independence number "
        "(100 random clique sums)",
        time.monotonic() - started,
        120.0,
    )
