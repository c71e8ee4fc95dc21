"""Shared test helpers: deterministic random instances and tiny brute-force
oracles that are independent of the library's own solvers."""

import itertools
import random
from fractions import Fraction

import pytest

from treealpha import build_graph


def random_graph(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def shuffled_path(n, rng):
    """A path on n vertices with shuffled ids; returns the graph and the ids
    in path order."""
    ids = list(range(n))
    rng.shuffle(ids)
    return build_graph(n, zip(ids, ids[1:])), ids


def all_labeled_graphs(n):
    """Every labeled graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_weights(n, rng, allow_zero=True):
    lo = 0 if allow_zero else 1
    return {v: Fraction(rng.randint(lo, 12), rng.randint(1, 6)) for v in range(n)}


def alpha_by_enumeration(graph):
    """Independence number by checking all 2^n subsets edge by edge."""
    best = 0
    verts = range(graph.n)
    for size in range(graph.n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(verts, size):
            s = set(combo)
            if all(not (u in s and v in s) for u, v in graph.edges()):
                best = max(best, size)
                break
    return best


def independent_by_edge_scan(graph, vertices):
    s = set(vertices)
    return all(not (u in s and v in s) for u, v in graph.edges())


def mwis_by_enumeration(graph, weights):
    """Max weight independent set by full subset enumeration (no pruning)."""
    best = Fraction(0)
    for size in range(graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            if independent_by_edge_scan(graph, combo):
                w = sum((weights[v] for v in combo), Fraction(0))
                if w > best:
                    best = w
    return best


def random_connected_set(graph, max_size, rng):
    v = rng.randrange(graph.n)
    s = {v}
    while len(s) < max_size:
        frontier = sorted({u for x in s for u in graph.adj[x]} - s)
        if not frontier or rng.random() < 0.35:
            break
        s.add(rng.choice(frontier))
    return frozenset(s)


@pytest.fixture
def rng():
    return random.Random(0xA1FA)
