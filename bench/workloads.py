"""The benchmark's workloads: seeded set-up, one request, and its check.

A request mirrors the stage order of the matching CLI command: parse the
text inputs, validate, measure `k` the way the CLI does without `-k`, solve,
and then check the answer against the reference computed at set-up. Every
treealpha function is looked up as a module attribute at call time
(`formats.parse_graph`, not a name imported once), so the traced run can
wrap it where it is looked up.
"""

import random
from dataclasses import dataclass

import inputs
import reference
from reference import WrongAnswer, check_independent, check_value

from treealpha import chordal, decomposition, formats, mwis, oracle, packing
from treealpha.weights import WeightMap

INTERVAL_N = 900
COCYCLE_N = 50
#: Marked instances are larger so that both kinds cost about the same.
COCYCLE_MARKED_N = 55
COCYCLE_WINDOW = 8
PACK_N = 200
TIN_BASE_N = 7
POOL = 8


@dataclass(frozen=True)
class Instance:
    """Serialised inputs (what the program sees) plus the benchmark's own
    data for the check (what it never sees)."""

    graph: str
    td: str = None
    weights: str = None
    data: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    setup: object
    solve: object
    check: object

    def instances(self, seed):
        return self.setup(random.Random(f"{self.name}:{seed}"))


def _require_valid(g, td):
    report = decomposition.validate(g, td)
    if not report.ok:
        raise WrongAnswer(f"a valid decomposition was rejected: {report}")


def _check_mwis(edges, weights, want, want_k, answer):
    value, chosen, k = answer
    check_value(k, want_k, "measured k")
    check_value(value, want)
    check_independent(edges, chosen)
    check_value(sum(weights[v] for v in chosen), value, "witness weight")


# interval-mwis: the chordal (alpha = 1) case at scale.


def _interval_mwis_setup(rng):
    out = []
    for _ in range(POOL):
        spans = inputs.random_intervals(rng, INTERVAL_N)
        edges = inputs.interval_edges(spans)
        w = inputs.rational_weights(rng, INTERVAL_N)
        want = reference.interval_scheduling(spans, w)
        out.append(
            Instance(
                inputs.format_graph(INTERVAL_N, edges),
                weights=inputs.format_weights(w),
                data=(edges, w, want),
            )
        )
    return out


def _interval_mwis_solve(inst):
    g = formats.parse_graph(inst.graph)
    w = formats.parse_weights(inst.weights, g.n)
    td = chordal.clique_tree(g)
    _require_valid(g, td)
    k = decomposition.residual_independence_number(g, td)
    value, chosen = mwis.solve_mwis(g, w, td, k)
    return value, chosen, k


def _interval_mwis_check(inst, answer):
    edges, w, want = inst.data
    _check_mwis(edges, w, want, 1, answer)


# cocycle-mwis: one huge bag, tree-independence 2; every other instance
# marks a window of the cycle so the 2^ell branch of the enumeration runs.


def _cocycle_setup(rng):
    out = []
    for i in range(POOL):
        n, window = (COCYCLE_MARKED_N, COCYCLE_WINDOW) if i % 2 else (COCYCLE_N, 0)
        cycle, edges, marked = inputs.cocycle(rng, n, window)
        w = inputs.rational_weights(rng, n)
        td = inputs.format_td(n, [range(n)], [], {0: marked} if marked else None)
        out.append(
            Instance(
                inputs.format_graph(n, edges),
                td=td,
                weights=inputs.format_weights(w),
                data=(edges, w, reference.cocycle_mwis(cycle, w)),
            )
        )
    return out


def _cocycle_solve(inst):
    g = formats.parse_graph(inst.graph)
    td = formats.parse_td(inst.td, g)
    _require_valid(g, td)
    w = formats.parse_weights(inst.weights, g.n)
    k = decomposition.residual_independence_number(g, td)
    value, chosen = mwis.solve_mwis(g, w, td, k)
    return value, chosen, k


def _cocycle_check(inst, answer):
    edges, w, want = inst.data
    _check_mwis(edges, w, want, 2, answer)


# interval-pack: dissociation packing (`pack --patterns k1,k2`, members
# weighted by size) on interval hosts whose clique path arrives as text.


def _pack_setup(rng):
    out = []
    for _ in range(POOL):
        spans = inputs.random_intervals(rng, PACK_N, min_len=7, max_len=13)
        edges = inputs.interval_edges(spans)
        cliques = inputs.interval_clique_path(spans)
        path = [(i, i + 1) for i in range(len(cliques) - 1)]
        members = {frozenset([v]): spans[v] for v in range(PACK_N)}
        for u, v in edges:
            members[frozenset((u, v))] = (
                min(spans[u][0], spans[v][0]),
                max(spans[u][1], spans[v][1]),
            )
        keys = list(members)
        want = reference.interval_scheduling(
            [members[s] for s in keys], [len(s) for s in keys]
        )
        out.append(
            Instance(
                inputs.format_graph(PACK_N, edges),
                td=inputs.format_td(PACK_N, cliques, path),
                data=(members, want),
            )
        )
    return out


def _pack_solve(inst):
    g = formats.parse_graph(inst.graph)
    td = formats.parse_td(inst.td, g)
    _require_valid(g, td)
    pats = [packing.pattern_by_name(p) for p in ("k1", "k2")]
    fam = packing.enumerate_F_subgraphs(g, pats)
    w = WeightMap(g.n)
    job = packing.PackingInstance(fam, tuple(w.total(s) for s in fam.members))
    k = decomposition.independence_number(g, td)
    value, chosen = packing.solve_packing(job, td, k)
    return value, tuple(fam.members[j] for j in sorted(chosen)), k, fam.members


def _pack_check(inst, answer):
    members, want = inst.data
    value, selected, k, family = answer
    check_value(k, 1, "measured k")
    if len(family) != len(members) or set(family) != members.keys():
        raise WrongAnswer("the k1,k2 family differs from the vertices and edges")
    check_value(value, want)
    reference.check_packing([members[s] for s in selected])
    check_value(sum(len(s) for s in selected), value, "packing weight")


# tin-oracle: exact tree-independence number of gadgets with known values.


def _tin_setup(rng):
    gadgets = [
        (14, inputs.complete_bipartite_edges(7, 7), 7),
        (14, inputs.cycle_edges(14), 2),
        (*inputs.sharpness_edges(3), 3),
    ]
    while len(gadgets) < POOL:
        base = inputs.random_graph_edges(rng, TIN_BASE_N)
        value = reference.alpha(TIN_BASE_N, base)
        gadgets.append((*inputs.double_join_edges(TIN_BASE_N, base), value))
    out = []
    for n, edges, value in gadgets:
        relabel = list(range(n))
        rng.shuffle(relabel)
        edges = sorted(
            (min(relabel[u], relabel[v]), max(relabel[u], relabel[v])) for u, v in edges
        )
        out.append(Instance(inputs.format_graph(n, edges), data=(n, edges, value)))
    return out


def _tin_solve(inst):
    g = formats.parse_graph(inst.graph)
    value, witness = oracle.tin_exact(g)
    _require_valid(g, witness)
    return value, witness.bags, witness.tree_edges


def _tin_check(inst, answer):
    n, edges, want = inst.data
    value, bags, tree_edges = answer
    check_value(value, want, "tree-independence number")
    reference.check_decomposition(n, edges, bags, tree_edges)
    got = max(reference.alpha(n, edges, bag) for bag in bags)
    check_value(got, value, "witness bag independence")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "interval-mwis",
            f"interval graphs, n={INTERVAL_N}, clique number about 7, rational weights",
            _interval_mwis_setup,
            _interval_mwis_solve,
            _interval_mwis_check,
        ),
        Workload(
            "cocycle-mwis",
            f"cycle complements, one bag: n={COCYCLE_N} unmarked alternating with"
            f" n={COCYCLE_MARKED_N} with {COCYCLE_WINDOW} marked",
            _cocycle_setup,
            _cocycle_solve,
            _cocycle_check,
        ),
        Workload(
            "interval-pack",
            f"k1,k2 packing on interval hosts, n={PACK_N}, clique path as .td",
            _pack_setup,
            _pack_solve,
            _pack_check,
        ),
        Workload(
            "tin-oracle",
            "tin_exact on K_7,7, C_14, sharpness(3) and double joins of 7-vertex graphs",
            _tin_setup,
            _tin_solve,
            _tin_check,
        ),
    )
}
