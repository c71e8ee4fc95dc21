"""Tests of the benchmark itself: references, failure counting, tracing.

Run with `python -m pytest bench/tests -q` from the repository root.
"""

import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import inputs
import reference
import run
import tracing
import workloads

import treealpha.mwis
from treealpha import build_graph, validate
from treealpha.decomposition import make_decomposition
from treealpha.exact import alpha_exact
from treealpha.oracle import brute_force_mwis
from treealpha.packing import brute_force_packing, make_instance
from treealpha.weights import WeightMap

SEEDS = range(6)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a whole pool solves in about a second."""
    monkeypatch.setattr(workloads, "INTERVAL_N", 40)
    monkeypatch.setattr(workloads, "COCYCLE_N", 12)
    monkeypatch.setattr(workloads, "COCYCLE_MARKED_N", 13)
    monkeypatch.setattr(workloads, "COCYCLE_WINDOW", 4)
    monkeypatch.setattr(workloads, "PACK_N", 16)
    monkeypatch.setattr(workloads, "POOL", 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_interval_scheduling_matches_brute_force(seed):
    rng = random.Random(seed)
    spans = inputs.random_intervals(rng, 16, spacing=2, min_len=1, max_len=6)
    w = inputs.rational_weights(rng, 16)
    g = build_graph(16, inputs.interval_edges(spans))
    want, _ = brute_force_mwis(g, WeightMap(16, dict(enumerate(w))))
    assert reference.interval_scheduling(spans, w) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_cocycle_closed_form_matches_brute_force(seed):
    rng = random.Random(seed)
    cycle, edges, marked = inputs.cocycle(rng, 11, window=4)
    w = inputs.rational_weights(rng, 11)
    want, _ = brute_force_mwis(build_graph(11, edges), WeightMap(11, dict(enumerate(w))))
    assert reference.cocycle_mwis(cycle, w) == want
    assert len(marked) == 4


@pytest.mark.parametrize("seed", SEEDS)
def test_packing_reference_matches_brute_force(seed):
    rng = random.Random(seed)
    spans = inputs.random_intervals(rng, 8, spacing=3, min_len=1, max_len=5)
    edges = inputs.interval_edges(spans)
    members = [frozenset([v]) for v in range(8)] + [frozenset(e) for e in edges]
    assert len(members) <= 22
    union = [
        (min(spans[v][0] for v in s), max(spans[v][1] for v in s)) for s in members
    ]
    sizes = [len(s) for s in members]
    job = make_instance(build_graph(8, edges), members, sizes)
    want, _ = brute_force_packing(job)
    assert reference.interval_scheduling(union, sizes) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_alpha_and_clique_path_agree_with_the_library(seed):
    rng = random.Random(seed)
    edges = inputs.random_graph_edges(rng, 9, p=0.4)
    assert reference.alpha(9, edges) == alpha_exact(build_graph(9, edges))
    spans = inputs.random_intervals(rng, 30)
    g = build_graph(30, inputs.interval_edges(spans))
    cliques = inputs.interval_clique_path(spans)
    path = [(i, i + 1) for i in range(len(cliques) - 1)]
    assert validate(g, make_decomposition(g, cliques, path)).ok
    assert all(reference.alpha(30, inputs.interval_edges(spans), c) == 1 for c in cliques)


def test_gadget_values_are_the_closed_forms():
    n, edges = inputs.sharpness_edges(3)
    assert (n, reference.alpha(n, edges)) == (12, 9)
    assert reference.alpha(14, inputs.complete_bipartite_edges(7, 7)) == 7
    base = [(0, 1), (1, 2)]
    n, edges = inputs.double_join_edges(3, base)
    assert reference.alpha(n, edges) == reference.alpha(3, base) == 2


def test_witness_checks_reject_bad_witnesses():
    with pytest.raises(reference.WrongAnswer):
        reference.check_independent([(0, 1)], {0, 1})
    with pytest.raises(reference.WrongAnswer):
        reference.check_packing([(0, 3), (3, 5)])
    with pytest.raises(reference.WrongAnswer):
        reference.check_decomposition(3, [(0, 1), (1, 2)], [{0, 1}, {2}], [(0, 1)])
    reference.check_decomposition(3, [(0, 1), (1, 2)], [{0, 1}, {1, 2}], [(0, 1)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_request_verifies_and_inputs_follow_the_seed(small, name):
    wl = workloads.WORKLOADS[name]
    pool = wl.instances(3)
    assert [i.graph for i in pool] == [i.graph for i in wl.instances(3)]
    assert [i.graph for i in pool] != [i.graph for i in wl.instances(4)]
    for inst in pool:
        wl.check(inst, wl.solve(inst))


def test_wrong_answers_raise_failed_ratio_without_stopping_the_run(small):
    wl = workloads.WORKLOADS["interval-mwis"]
    pool = wl.instances(1)
    calls = []

    def sometimes_wrong(inst):
        calls.append(inst)
        value, chosen, k = wl.solve(inst)
        if len(calls) % 3 == 1:
            return value + Fraction(1, 7), chosen, k
        if len(calls) % 3 == 2:
            raise RuntimeError("injected")
        return value, chosen, k

    bad = replace(wl, solve=sometimes_wrong)
    args = SimpleNamespace(workload="interval-mwis", seed=1, seconds=0)
    attempted, failures, metrics, _ = run.untraced(bad, pool, args, run.Calibration())
    assert attempted == run.MIN_REQUESTS
    assert len(failures) == 8
    assert metrics["verified_ratio"][0] == pytest.approx(3 / attempted)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_answers_are_identical(small, name):
    wl = workloads.WORKLOADS[name]
    original = treealpha.mwis.make_nice
    tracer = tracing.Tracer()
    for rid, inst in enumerate(wl.instances(2)):
        plain = wl.solve(inst)
        tracer.install()
        try:
            spanned = tracer.request(rid, lambda: wl.solve(inst))
        finally:
            tracer.uninstall()
        assert spanned == plain
    assert treealpha.mwis.make_nice is original
    assert tracer.missing == []
    rows = tracing.self_time_table(tracer.spans)
    _, requests = tracing.summarize(tracer.spans)
    assert sum(r[2] for r in rows) == pytest.approx(sum(requests) / len(requests) / 1e9)


def test_layer_metrics_see_the_packing_layers(small):
    wl = workloads.WORKLOADS["interval-pack"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for rid, inst in enumerate(wl.instances(5)):
            tracer.request(rid, lambda: wl.solve(inst))
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 0.0)
    for key in (
        "packing.family_s",
        "packing.derived_graph_s",
        "packing.derived_td_s",
        "packing.verify_s",
        "mwis.enumerate_s",
        "nice.make_nice_s",
    ):
        assert m[key] > 0, key
    assert m["packing.members"] > workloads.PACK_N
    assert m["mwis.candidates"] >= m["mwis.family_total"] > 0
    assert 0 < m["mwis.candidate_yield"] <= 1
    assert m["chordal.clique_tree_s"] == 0


def test_calibration_scales_by_the_neighbouring_calibrations():
    cal = run.Calibration()
    cal.samples = [2 * run.REFERENCE_CAL_S]
    cal.run = lambda: 4 * run.REFERENCE_CAL_S
    assert cal.scale(0.9) == pytest.approx(0.3)
    assert cal.scale(0.9) == pytest.approx(0.225)
    assert cal.speed() == pytest.approx(1 / 4)


def test_tail_keeps_ten_samples_beyond():
    for n in (11, 20, 35, 100, 1000):
        p, value = run.tail(list(range(n)))
        assert n - 1 - value >= 10
        assert p == 100 * (n - 10) // n


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tin-oracle", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert done.returncode != 0
    assert done.stdout == ""
