import random
import tracemalloc

import pytest

from treealpha import (
    CapExceededError,
    alpha_exact,
    alpha_of_subset,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
)

from .conftest import (
    alpha_by_enumeration,
    all_labeled_graphs,
    complement,
    random_graph,
    shuffled_path,
)


def test_alpha_examples():
    assert alpha_exact(cycle_graph(5)) == 2
    assert alpha_exact(complete_bipartite(3, 3)) == 3
    assert alpha_exact(build_graph(7, [])) == 7


def test_omega_examples():
    # Clique numbers, as independence numbers of the complements.
    assert alpha_exact(complement(complete_graph(4))) == 4
    assert alpha_exact(complement(cycle_graph(5))) == 2
    assert alpha_exact(complement(build_graph(0, []))) == 0


def test_alpha_exhaustive_small():
    for n in range(5):
        for g in all_labeled_graphs(n):
            assert alpha_exact(g) == alpha_by_enumeration(g)


def test_alpha_random_mid_size():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(8, rng.choice([0.2, 0.5, 0.8]), rng)
        assert alpha_exact(g) == alpha_by_enumeration(g)


def test_alpha_omega_complement_duality():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        comp = complement(g)
        # omega(g) = alpha(comp), checked against enumeration.
        assert alpha_exact(comp) == alpha_by_enumeration(comp)


def test_cap_is_enforced():
    g = build_graph(65, [])
    with pytest.raises(CapExceededError):
        alpha_exact(g)


def test_alpha_of_subset():
    g = cycle_graph(6)
    assert alpha_of_subset(g, {0, 1, 2, 3}) == 2  # induced P_4
    assert alpha_of_subset(g, set()) == 0
    assert alpha_of_subset(g, range(6)) == 3


def test_alpha_of_subset_cost_follows_the_subset():
    g, ids = shuffled_path(20000, random.Random(7))
    bag = ids[10000:10003]
    tracemalloc.start()
    try:
        assert alpha_of_subset(g, bag) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
