"""Refined tree decompositions: data model, validation, measures, composition.

A refined tree decomposition carries, per node t, a bag X_t and a marked
subset U_t <= X_t. The refinement budget ell is derived as max |U_t|, never
stored. Decompositions are constructed unchecked; `validate` is the explicit,
first-class check and reports violations as data rather than raising.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .errors import GraphError, InvalidDecompositionError
from .exact import alpha_of_subset
from .graph import check_vertex_set


@dataclass(frozen=True)
class RefinedTreeDecomposition:
    """Tree decomposition of `graph` with bags `bags[t]` and marked sets `refined[t]`.

    `tree_edges` must form a tree on node ids 0..node_count-1 for the
    decomposition to validate; construction itself does not check anything.
    """

    graph: object
    bags: tuple
    tree_edges: tuple
    refined: tuple

    @property
    def node_count(self):
        return len(self.bags)

    @property
    def refinement_size(self):
        """The derived refinement budget ell = max |U_t|."""
        return max((len(u) for u in self.refined), default=0)

    def __repr__(self):
        return (
            f"RefinedTreeDecomposition(nodes={self.node_count}, "
            f"width={width(self)}, ell={self.refinement_size})"
        )


#: The one empty set that empty bags and marked sets share: CPython builds
#: a new object for each `frozenset()`, and `frozenset(_EMPTY) is _EMPTY`.
_EMPTY = frozenset()


def make_decomposition(graph, bags, tree_edges=(), refined=None):
    """Normalize raw data into a RefinedTreeDecomposition (still unvalidated)."""
    bags = tuple(frozenset(b) for b in bags)
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in tree_edges))
    if refined is None:
        refs = (_EMPTY,) * len(bags)
    else:
        refs = tuple(frozenset(u) for u in refined)
        if len(refs) != len(bags):
            raise GraphError("refined sets and bags must have equal length")
    return RefinedTreeDecomposition(graph, bags, edges, refs)


def trivial_decomposition(graph):
    """Single node whose bag is the whole vertex set; U empty."""
    return make_decomposition(graph, [frozenset(range(graph.n))])


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str

    def __str__(self):
        return f"[{self.clause}] {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def validate(graph, td, universe=None):
    """Check the five decomposition clauses; report the first witness of each.

    `universe` restricts the check to a vertex subset: bags must cover exactly
    `universe` and every graph edge inside it. The default is all of V(G).
    Violations are data, not exceptions.

    One index, vertex -> set of nodes holding it, serves every clause, so the
    check is linear in the size of the graph plus the decomposition. An edge
    is covered when its ends' node sets meet. The edges clause walks each
    vertex u in ascending id and tests all its later neighbours in one
    `any(map(...isdisjoint...))` pass, which runs in C; only when that pass
    fails does it look for the first uncovered neighbour in Python. Once the
    tree clause holds, the nodes holding v induce a forest whose component
    count is their number minus the tree edges (a, b) with v in X_a & X_b;
    they form a subtree exactly when that difference is 1.
    """
    violations = []
    nodes = td.node_count
    edges = td.tree_edges
    tree_bad = None
    if nodes < 1:
        tree_bad = "decomposition has no nodes"
    elif len(edges) != nodes - 1:
        tree_bad = f"{len(edges)} edges on {nodes} nodes (need {nodes - 1})"
    else:
        nbrs = [[] for _ in range(nodes)]
        seen_pairs = set()
        for a, b in edges:
            key = (min(a, b), max(a, b))
            if not (0 <= a < nodes and 0 <= b < nodes):
                tree_bad = f"edge ({a}, {b}) references a missing node"
            elif a == b:
                tree_bad = f"self-loop on node {a}"
            elif key in seen_pairs:
                tree_bad = f"duplicate edge {key}"
            else:
                seen_pairs.add(key)
                nbrs[a].append(b)
                nbrs[b].append(a)
                continue
            break
        if tree_bad is None:
            # Correct edge count + no duplicates, so connectivity implies acyclicity.
            stack = [0]
            reached = {0}
            while stack:
                for y in nbrs[stack.pop()]:
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
            if len(reached) != nodes:
                missing = min(set(range(nodes)) - reached)
                tree_bad = f"node {missing} is disconnected from node 0"
    if tree_bad is not None:
        violations.append(Violation("tree", tree_bad))

    restricted = universe is not None
    ids = sorted(check_vertex_set(graph, universe)) if restricted else range(graph.n)
    index = {v: set() for v in ids}
    coverage_bad = None
    for t in range(nodes):
        for v in td.bags[t]:
            if v in index:
                index[v].add(t)
            elif coverage_bad is None:
                coverage_bad = f"bag {t} contains {v}, outside the vertex universe"
    if coverage_bad is None:
        missing = next((v for v in ids if not index[v]), None)
        if missing is not None:
            coverage_bad = f"vertex {missing} is in no bag"
    if coverage_bad is not None:
        violations.append(Violation("coverage", coverage_bad))

    adj = graph.adj
    nodes_of = index.__getitem__
    for u in ids:
        row = adj[u]
        later = row[bisect_right(row, u) :]
        if restricted:
            later = [v for v in later if v in index]
        if any(map(index[u].isdisjoint, map(nodes_of, later))):
            v = next(v for v in later if index[u].isdisjoint(index[v]))
            violations.append(Violation("edges", f"edge ({u}, {v}) is in no bag"))
            break

    if tree_bad is None:
        shared = Counter()
        for a, b in edges:
            shared.update(td.bags[a] & td.bags[b])
        for v in ids:
            if index[v] and len(index[v]) - shared[v] != 1:
                violations.append(
                    Violation(
                        "connectivity",
                        f"nodes holding vertex {v} do not form a subtree",
                    )
                )
                break

    for t in range(nodes):
        if not td.refined[t] <= td.bags[t]:
            extra = min(td.refined[t] - td.bags[t])
            violations.append(
                Violation("refined", f"U_{t} contains {extra}, not in bag {t}")
            )
            break

    return ValidationReport(not violations, tuple(violations))


def require_valid(graph, td, universe=None):
    report = validate(graph, td, universe)
    if not report.ok:
        raise InvalidDecompositionError(report)
    return report


def width(td):
    """Max bag size minus one; a single empty bag has width -1."""
    return max(len(b) for b in td.bags) - 1


def independence_number(graph, td):
    """alpha(T): max over bags of the induced subgraph's independence number."""
    return max(alpha_of_subset(graph, b) for b in td.bags)


def residual_independence_number(graph, td):
    """Max over bags of alpha(G[X_t - U_t])."""
    return max(alpha_of_subset(graph, b - u) for b, u in zip(td.bags, td.refined))


def _is_clique(graph, vertices):
    vs = sorted(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not graph.has_edge(u, v):
                return False
    return True


def compose_clique_cutset(graph, a_side, b_side, cutset, td_a, td_b):
    """Join decompositions of G[A u C] and G[B u C] along the clique cutset C.

    The parts must use the host graph's vertex ids. The composed decomposition
    links a bag containing C on each side, so alpha and the residual measure
    of the result equal the max of the two parts.
    """
    a_side = check_vertex_set(graph, a_side)
    b_side = check_vertex_set(graph, b_side)
    cutset = check_vertex_set(graph, cutset)
    if not a_side or not b_side:
        raise GraphError("cut-partition requires nonempty A and B")
    if a_side & b_side or a_side & cutset or b_side & cutset:
        raise GraphError("A, B, C must be pairwise disjoint")
    if a_side | b_side | cutset != frozenset(range(graph.n)):
        raise GraphError("A, B, C must partition the vertex set")
    for u in sorted(a_side):
        for v in graph.adj[u]:
            if v in b_side:
                raise GraphError(f"edge ({u}, {v}) crosses the A-B split")
    if not _is_clique(graph, cutset):
        raise GraphError("C is not a clique")

    require_valid(graph, td_a, universe=a_side | cutset)
    require_valid(graph, td_b, universe=b_side | cutset)

    # C is a clique, so by the Helly property of subtrees some bag of each
    # valid part holds all of C.
    ta = next(t for t, bag in enumerate(td_a.bags) if cutset <= bag)
    tb = next(t for t, bag in enumerate(td_b.bags) if cutset <= bag)
    offset = td_a.node_count
    edges = list(td_a.tree_edges)
    edges += [(a + offset, b + offset) for a, b in td_b.tree_edges]
    edges.append((ta, tb + offset))
    return make_decomposition(
        graph,
        td_a.bags + td_b.bags,
        edges,
        td_a.refined + td_b.refined,
    )
