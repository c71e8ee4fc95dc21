import io
import json
import random
import signal
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from treealpha import (
    build_graph,
    clique_tree,
    cycle_graph,
    is_independent,
    make_decomposition,
    path_graph,
    trivial_decomposition,
)
from treealpha import cli, decomposition, mwis, nice, packing
from treealpha import graph as graph_module
from treealpha.cli import main
from treealpha.formats import format_graph, format_td

from .conftest import mwis_by_enumeration


def write_graph(graph, path):
    path.write_text(format_graph(graph), encoding="utf-8")


def write_td(td, path):
    path.write_text(format_td(td), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(out):
    return json.loads(out)


def test_gen_writes_report_with_output(tmp_path, capsys):
    target = tmp_path / "g.gr"
    code, out, _ = run(capsys, "gen", "knn", "3", "-o", str(target))
    assert code == 0
    doc = report_of(out)
    assert doc["results"] == {"n": 6, "m": 9}
    assert target.exists()


def test_gen_stdout_is_pipeable(capsys):
    code, out, _ = run(capsys, "gen", "sharpness", "3")
    assert code == 0
    assert out.startswith("p tw 12 18")


def test_gen_tin_knn(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "knn", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "tin", "--graph", "-")
    assert code == 0
    assert report_of(out)["results"]["tree_independence_number"] == 3


def test_gen_tw_sharpness(tmp_path, capsys):
    target = tmp_path / "s.gr"
    run(capsys, "gen", "sharpness", "3", "-o", str(target))
    code, out, _ = run(capsys, "tw", "--graph", str(target))
    assert code == 0
    assert report_of(out)["results"]["treewidth"] == 2


def test_mwis_path_weights(tmp_path, capsys):
    g = path_graph(3)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    (tmp_path / "w.w").write_text("1 3\n2 1\n3 3\n")
    code, out, _ = run(
        capsys,
        "mwis",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--weights", str(tmp_path / "w.w"),
    )
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["weight"] == "6/1"
    assert doc["results"]["independent_set"] == [1, 3]


def test_validate_exit_codes(tmp_path, capsys):
    g = path_graph(2)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "ok.td")
    bad = make_decomposition(g, [{0}, {1}], [(0, 1)])
    write_td(bad, tmp_path / "bad.td")
    code, out, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "ok.td")
    )
    assert code == 0 and report_of(out)["results"]["ok"]
    code, out, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "bad.td")
    )
    assert code == 2
    assert report_of(out)["results"]["violations"]


def test_measure(tmp_path, capsys):
    g = cycle_graph(4)
    write_graph(g, tmp_path / "g.gr")
    td = make_decomposition(g, [frozenset(range(4))], [], [{0}])
    write_td(td, tmp_path / "t.td")
    code, out, _ = run(
        capsys, "measure", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td")
    )
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["width"] == 3
    assert doc["results"]["independence_number"] == 2
    assert doc["results"]["residual_independence_number"] == 2
    assert doc["results"]["refinement_size"] == 1


def test_nice_roundtrip(tmp_path, capsys):
    g = path_graph(3)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    code, out, _ = run(
        capsys,
        "nice",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "-o", str(tmp_path / "nice.td"),
    )
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["kinds"]["introduce"] == 3
    assert doc["results"]["kinds"]["forget"] == 3
    code, out, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "nice.td")
    )
    assert code == 0


def test_pack_patterns_and_artifacts(tmp_path, capsys):
    g = path_graph(4)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    code, out, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--patterns", "k2",
        "--emit-derived", str(tmp_path / "d.gr"),
        "--emit-derived-td", str(tmp_path / "d.td"),
    )
    assert code == 0
    doc = report_of(out)
    # Each edge member weighs the sum of its unit vertex weights.
    assert doc["results"]["weight"] == "2/1"
    assert (tmp_path / "d.gr").read_text().startswith("p tw 3 3")
    code, _, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "d.gr"), "--td", str(tmp_path / "d.td")
    )
    assert code == 0


def _count_derived_builds(monkeypatch, members):
    """Count the calls that could build the derived graph of a family of
    `members` members: the packing functions by name, wherever the CLI looks
    them up, and every `Graph` made with that many vertices."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("_reduction", "derived_graph"):
        for module in (packing, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    init = graph_module.Graph.__init__

    def counted_init(self, n, adj):
        if n == members:
            calls["Graph"] += 1
        init(self, n, adj)

    monkeypatch.setattr(graph_module.Graph, "__init__", counted_init)
    return calls


def test_plain_pack_builds_no_derived_graph(tmp_path, capsys, monkeypatch):
    # P_5 has 9 k1,k2 members; the solve runs on their conflict rows.
    g = path_graph(5)
    td = make_decomposition(g, [{0, 1}, {1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
    write_graph(g, tmp_path / "g.gr")
    write_td(td, tmp_path / "t.td")
    calls = _count_derived_builds(monkeypatch, 9)
    code, out, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--patterns", "k1,k2",
    )
    assert code == 0 and json.loads(out)["results"]["weight"] == "4/1"
    assert calls == {"_reduction": 1}


def test_pack_emits_the_derived_graph_and_bags_the_solve_built(
    tmp_path, capsys, monkeypatch
):
    # The solve's one pass gives the bags; the derived graph is built once,
    # to be written. They equal `derived_graph`'s and `_reduction`'s output.
    g = path_graph(5)
    td = make_decomposition(g, [{0, 1}, {1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
    write_graph(g, tmp_path / "g.gr")
    write_td(td, tmp_path / "t.td")
    calls = _count_derived_builds(monkeypatch, 9)
    code, _, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--patterns", "k1,k2",
        "--emit-derived", str(tmp_path / "d.gr"),
        "--emit-derived-td", str(tmp_path / "d.td"),
    )
    assert code == 0
    assert calls == {"_reduction": 1, "derived_graph": 1, "Graph": 1}
    monkeypatch.undo()
    fam = packing.enumerate_F_subgraphs(g, [packing.pattern_by_name(p) for p in ("k1", "k2")])
    derived = packing.derived_graph(g, fam)
    assert (tmp_path / "d.gr").read_text() == format_graph(derived)
    want_td = format_td(packing._reduction(fam, td)[1])
    assert (tmp_path / "d.td").read_text() == want_td


def test_pack_emits_the_transferred_bags_without_the_derived_graph(
    tmp_path, capsys, monkeypatch
):
    # The .td names only the derived graph's order, |J|, so writing the
    # transferred decomposition alone builds no derived graph.
    g = path_graph(5)
    td = make_decomposition(g, [{0, 1}, {1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
    write_graph(g, tmp_path / "g.gr")
    write_td(td, tmp_path / "t.td")
    calls = _count_derived_builds(monkeypatch, 9)
    code, _, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--patterns", "k1,k2",
        "--emit-derived-td", str(tmp_path / "d.td"),
    )
    assert code == 0
    assert calls == {"_reduction": 1}
    monkeypatch.undo()
    fam = packing.enumerate_F_subgraphs(g, [packing.pattern_by_name(p) for p in ("k1", "k2")])
    want_td = format_td(packing._reduction(fam, td)[1])
    assert (tmp_path / "d.td").read_text() == want_td


def test_each_request_checks_its_decomposition_once(tmp_path, capsys, monkeypatch):
    g = path_graph(4)
    td = make_decomposition(g, [{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    write_graph(g, tmp_path / "g.gr")
    write_td(td, tmp_path / "t.td")
    graph_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"))
    checked = []

    def require_valid(graph, td, universe=None):
        checked.append(td)
        return decomposition.require_valid(graph, td, universe)

    for module in (cli, mwis, nice, packing):
        monkeypatch.setattr(module, "require_valid", require_valid)
    for argv, checks in (
        (("mwis", *graph_td), 1),
        (("measure", *graph_td), 1),
        (("nice", *graph_td, "-o", str(tmp_path / "n.td")), 1),
        (("pack", *graph_td, "--patterns", "k2"), 1),
    ):
        checked.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(checked) == checks, argv


@pytest.mark.parametrize(
    "argv, want_code, message",
    [
        ("pack --graph G --td T", 1, "pack needs --family, --patterns, or --pattern-file"),
        ("pack --graph G --td T --patterns foo", 1, "unknown pattern name 'foo'"),
        ("pack --graph G --td T --patterns ,", 1, "pattern set must be nonempty"),
        ("mwis --graph G --td T -k -1", 1, "residual bound k must be nonnegative"),
        ("gen double-join", 1, "gen double-join needs --graph for the base graph"),
        ("gen double-join --graph NULL", 1, "double_join: base graph must be nonnull"),
        ("gen path 0", 1, "path: n must be positive"),
        # The path's edge 2-3 joins A = {1, 2} to B = {3}, named as in the files.
        (
            "compose --graph G --cut A B C --td-a T --td-b T -o OUT",
            1,
            "edge (2, 3) crosses the A-B split",
        ),
        ("validate --graph G --td EMPTY", 2, "decomposition has no nodes"),
    ],
)
def test_refused_requests_report_one_error(tmp_path, capsys, argv, want_code, message):
    # Usage errors print one `error:` line; a decomposition with no nodes
    # is a violation that `validate` reports.
    files = {"G": "g.gr", "T": "t.td", "NULL": "null.gr", "EMPTY": "empty.td"}
    files.update({"A": "a.set", "B": "b.set", "C": "c.set", "OUT": "out.td"})
    write_graph(path_graph(3), tmp_path / "g.gr")
    write_td(trivial_decomposition(path_graph(3)), tmp_path / "t.td")
    (tmp_path / "null.gr").write_text("p tw 0 0\n")
    (tmp_path / "empty.td").write_text("s td 0 0 3\n")
    for name, ids in (("a.set", "1 2\n"), ("b.set", "3\n"), ("c.set", "")):
        (tmp_path / name).write_text(ids)
    code, out, err = run(
        capsys, *(str(tmp_path / files[a]) if a in files else a for a in argv.split())
    )
    assert code == want_code
    if code == 2:
        assert err == ""
        violation = {"clause": "tree", "detail": message}
        assert report_of(out)["results"]["violations"][0] == violation
    else:
        assert (out, err) == ("", f"error: {message}\n")


def test_mwis_refuses_a_table_that_would_pass_the_cap(tmp_path, capsys):
    # An edgeless 40-vertex bag measures k = 40: its table would reach 2^40
    # keys, and is refused once it would pass 2^20.
    g = build_graph(40, [])
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    graph_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"))
    started = time.perf_counter()
    code, out, err = run(capsys, "mwis", *graph_td)
    assert time.perf_counter() - started < 5
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "cap=1048576" in err
    # Smaller promises break while the table is small: exit 2, with witness.
    for k in (2, 6):
        code, _, err = run(capsys, "mwis", *graph_td, "-k", str(k))
        witness = " ".join(str(v) for v in range(1, k + 2))
        assert code == 2 and f"witness vertices {witness}" in err


def test_wide_bags_with_few_keys_run(tmp_path, capsys):
    # K_40 and six isolated vertices measure k = 6, for mwis and for pack
    # (whose k1 members repeat the host). The promise bound of the clique
    # bag is over 2^20; its 41 keys are not.
    g = build_graph(46, [(u, v) for u in range(40) for v in range(u + 1, 40)])
    td = make_decomposition(g, [range(40), range(40, 46)], [(0, 1)])
    write_graph(g, tmp_path / "g.gr")
    write_td(td, tmp_path / "t.td")
    graph_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"))
    code, out, _ = run(capsys, "mwis", *graph_td)
    assert code == 0 and json.loads(out)["results"]["weight"] == "7/1"
    code, out, _ = run(capsys, "pack", *graph_td, "--patterns", "k1")
    assert code == 0 and json.loads(out)["results"]["weight"] == "7/1"


def test_nice_refuses_an_oversized_form_before_building(tmp_path, capsys):
    # One edgeless bag of 20,000 vertices, all marked: no residual bag needs
    # an independence number, and the nice form would hold about 4 * 10^8
    # ids. It is refused from the contracted tree alone.
    g = build_graph(20_000, [])
    bag = [range(20_000)]
    write_graph(g, tmp_path / "g.gr")
    write_td(make_decomposition(g, bag, [], bag), tmp_path / "t.td")
    started = time.perf_counter()
    code, out, err = run(
        capsys, "nice", "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"), "-o", str(tmp_path / "nice.td"),
    )
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "cap=1048576" in err
    assert not (tmp_path / "nice.td").exists()


def wide_denominator_path(tmp_path, n):
    """P_n with its clique tree; its vertices and singleton members weigh
    1/q_v, each q_v a distinct odd 498-digit int. Returns the q_v and the
    options of `mwis` and of `pack`."""
    rng = random.Random(5)
    qs = sorted({rng.randrange(10**497, 10**498) | 1 for _ in range(n)})
    write_graph(path_graph(n), tmp_path / "p.gr")
    write_td(clique_tree(path_graph(n)), tmp_path / "p.td")
    (tmp_path / "p.w").write_text("".join(f"{v} 1/{q}\n" for v, q in enumerate(qs, 1)))
    members = "".join(f"f {v} 1/{q} 1 {v}\n" for v, q in enumerate(qs, 1))
    (tmp_path / "p.fam").write_text(f"s fam {n}\n{members}")
    graph_td = ("--graph", str(tmp_path / "p.gr"), "--td", str(tmp_path / "p.td"))
    pack = (*graph_td, "--family", str(tmp_path / "p.fam"))
    return qs, (*graph_td, "--weights", str(tmp_path / "p.w")), pack


def test_wide_weight_denominators_are_refused_before_the_pass(tmp_path, capsys):
    # The lcm of 1,000 distinct 498-digit denominators passes 2^18 bits long
    # before it is built. It is refused before the pass, so a broken promise
    # (-k 0) is refused for it too.
    _, mwis_options, pack_options = wide_denominator_path(tmp_path, 1000)
    for argv in (
        ("mwis", *mwis_options), ("mwis", *mwis_options, "-k", "0"), ("pack", *pack_options)
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1
        assert (code, out) == (3, "")
        assert err == "error: mwis refused: the lcm of the weights' denominators passes cap=262144 bits\n"


def test_wide_weight_denominators_under_the_cap_answer(tmp_path, capsys):
    # On P_8 the lcm has about 13,000 bits: the answer is exact, and -k 0
    # is a broken promise.
    qs, mwis_options, pack_options = wide_denominator_path(tmp_path, 8)
    best = mwis_by_enumeration(path_graph(8), [Fraction(1, q) for q in qs])
    for argv in (("mwis", *mwis_options), ("pack", *pack_options)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert report_of(out)["results"]["weight"] == f"{best.numerator}/{best.denominator}"
    code, _, err = run(capsys, "mwis", *mwis_options, "-k", "0")
    assert code == 2 and "residual bound violated" in err


def oversized_pack(tmp_path, capsys, n, *options):
    """`pack` on K_n with its one-bag decomposition: exit code, stdout,
    stderr and seconds taken."""
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    started = time.perf_counter()
    code, out, err = run(
        capsys, "pack", "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"), *options,
    )
    return code, out, err, time.perf_counter() - started


def test_pack_refuses_an_oversized_family_before_building(tmp_path, capsys):
    # K_120 holds about 2 * 10^8 connected sets of at most 5 vertices, every
    # one of order 5 a k5 member. They are counted, not listed, and the
    # count passes 2^20 long before the walk ends.
    code, out, err, seconds = oversized_pack(tmp_path, capsys, 120, "--patterns", "k5")
    assert seconds < 2
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "pattern family refused" in err and "cap=1048576" in err


def test_pack_refuses_an_oversized_derived_graph_before_building(tmp_path, capsys):
    # K_200 has 20,100 k1,k2 members, each conflicting with all others:
    # about 8 * 10^8 index terms. The count stops at the cap, before any
    # neighbour set is built.
    code, out, err, seconds = oversized_pack(
        tmp_path, capsys, 200, "--patterns", "k1,k2", "-k", "1"
    )
    assert seconds < 2
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "derived graph refused" in err and "cap=1048576" in err


def test_pack_custom_pattern_file(tmp_path, capsys):
    # A custom triangle pattern on C_3: the single member blocks everything.
    g = cycle_graph(3)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    (tmp_path / "tri.gr").write_text("p tw 3 3\n1 2\n2 3\n1 3\n")
    code, out, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--pattern-file", str(tmp_path / "tri.gr"),
    )
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["weight"] == "3/1"
    assert doc["results"]["selected"] == [{"index": 1, "vertices": [1, 2, 3]}]


def test_pack_family_file(tmp_path, capsys):
    g = path_graph(4)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    (tmp_path / "f.fam").write_text(
        "s fam 2\nf 1 7/2 2 1 2\nf 2 1 1 4\n"
    )
    code, out, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--family", str(tmp_path / "f.fam"),
    )
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["weight"] == "9/2"
    assert [m["index"] for m in doc["results"]["selected"]] == [1, 2]


def test_compose(tmp_path, capsys):
    g = parse_graph_fixture(tmp_path)
    code, out, _ = run(
        capsys,
        "compose",
        "--graph", str(tmp_path / "g.gr"),
        "--cut", str(tmp_path / "A.set"), str(tmp_path / "B.set"), str(tmp_path / "C.set"),
        "--td-a", str(tmp_path / "a.td"),
        "--td-b", str(tmp_path / "b.td"),
        "-o", str(tmp_path / "out.td"),
    )
    assert code == 0
    doc = report_of(out)
    assert doc["results"]["independence_number"] == 1
    code, _, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "out.td")
    )
    assert code == 0


@pytest.mark.parametrize(
    "td_text, violations",
    [
        # Bags {1, 3} and {2, 3} miss the path's edge 1-2.
        ("s td 2 2 3\nb 1 1 3\nb 2 2 3\n1 2\n", [("edges", "edge (1, 2) is in no bag")]),
        # Vertex 2 is in no bag, so neither of its edges is covered.
        (
            "s td 2 1 3\nb 1 1\nb 2 3\n1 2\n",
            [("coverage", "vertex 2 is in no bag"), ("edges", "edge (1, 2) is in no bag")],
        ),
        # The one tree edge joins bag 1 to itself.
        ("s td 2 3 3\nb 1 1 2 3\nb 2\n1 1\n", [("tree", "self-loop on node 1")]),
    ],
)
def test_violations_name_ids_as_the_files_do(tmp_path, capsys, td_text, violations):
    # Vertex and bag ids in the output are 1-based, like the ids in the files.
    (tmp_path / "g.gr").write_text("p tw 3 2\n1 2\n2 3\n")
    (tmp_path / "t.td").write_text(td_text)
    graph_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"))
    code, out, err = run(capsys, "validate", *graph_td)
    assert (code, err) == (2, "")
    shown = [(v["clause"], v["detail"]) for v in report_of(out)["results"]["violations"]]
    assert shown == violations
    code, out, err = run(capsys, "mwis", *graph_td)
    detail = "; ".join(f"[{clause}] {text}" for clause, text in violations)
    assert (code, out) == (2, "")
    assert err == f"error: decomposition failed validation: {detail}\n"


def parse_graph_fixture(tmp_path):
    # Two triangles glued at vertex 2 (0-indexed); cutset is that vertex.
    from treealpha import build_graph

    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    write_graph(g, tmp_path / "g.gr")
    (tmp_path / "A.set").write_text("1 2\n")
    (tmp_path / "B.set").write_text("4 5\n")
    (tmp_path / "C.set").write_text("3\n")
    write_td(make_decomposition(g, [{0, 1, 2}]), tmp_path / "a.td")
    write_td(make_decomposition(g, [{2, 3, 4}]), tmp_path / "b.td")
    return g


def test_gen_trivial_td_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "gen", "cycle", "6",
        "-o", str(tmp_path / "g.gr"),
        "--emit-trivial-td", str(tmp_path / "t.td"),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td")
    )
    assert code == 0


def test_tin_witness_file_attains_the_value(tmp_path, capsys):
    run(capsys, "gen", "knn", "3", "-o", str(tmp_path / "g.gr"))
    code, out, _ = run(
        capsys, "tin", "--graph", str(tmp_path / "g.gr"), "-o", str(tmp_path / "w.td")
    )
    assert code == 0
    value = report_of(out)["results"]["tree_independence_number"]
    code, out, _ = run(
        capsys, "measure", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "w.td")
    )
    assert code == 0
    assert report_of(out)["results"]["independence_number"] == value == 3


def test_pack_patterns_with_vertex_weights(tmp_path, capsys):
    g = path_graph(4)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    (tmp_path / "w.w").write_text("1 5\n2 1/2\n3 1/2\n4 5\n")
    code, out, _ = run(
        capsys,
        "pack",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--patterns", "k1",
        "--weights", str(tmp_path / "w.w"),
    )
    assert code == 0
    assert report_of(out)["results"]["weight"] == "10/1"


def test_nice_preserves_residual_through_files(tmp_path, capsys):
    g = cycle_graph(4)
    write_graph(g, tmp_path / "g.gr")
    td = make_decomposition(g, [frozenset(range(4))], [], [{0, 1}])
    write_td(td, tmp_path / "t.td")
    code, out, _ = run(
        capsys,
        "nice",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "-o", str(tmp_path / "n.td"),
    )
    assert code == 0
    assert report_of(out)["results"]["residual_independence_number"] <= 1


def test_cap_exit_code(tmp_path, capsys):
    from treealpha import build_graph

    write_graph(build_graph(21, []), tmp_path / "big.gr")
    code, _, err = run(capsys, "tin", "--graph", str(tmp_path / "big.gr"))
    assert code == 3
    assert "cap" in err


def test_usage_and_parse_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "tw", "--graph", str(tmp_path / "missing.gr"))
    assert code == 1
    (tmp_path / "junk.gr").write_text("not a graph\n")
    code, _, err = run(capsys, "tw", "--graph", str(tmp_path / "junk.gr"))
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code != 0
    code, _, _ = run(capsys, "mwis", "--td", str(tmp_path / "t.td"))
    assert code == 1
    code, _, _ = run(capsys, "mwis", "--graph", "g.gr", "--td", "t.td", "-k", "two")
    assert code == 1
    code, _, _ = run(capsys, "frobnicate", "--graph", "g.gr")
    assert code == 1
    write_graph(path_graph(2), tmp_path / "g.gr")
    for params in (
        ("path",),
        ("complete-bipartite", "3"),
        ("path", "3", "4"),
        ("double-join", "7", "--graph", str(tmp_path / "g.gr")),
    ):
        code, out, err = run(capsys, "gen", *params)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "parameter" in err
    code, out, _ = run(capsys, "mwis", "--help")
    assert code == 0 and "--graph" in out


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # A 0xff byte on line 2, in a file or on stdin, whether stdin decodes
    # strictly (the read fails) or with surrogateescape (the digest fails).
    g = path_graph(3)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    bad = b"p tw 3 2\n1 2\xff\n2 3\n"
    (tmp_path / "bad").write_bytes(bad)
    ok_gr, ok_td, bad_path = (str(tmp_path / name) for name in ("g.gr", "t.td", "bad"))
    for graph, td, shown in ((bad_path, ok_td, bad_path), (ok_gr, bad_path, bad_path)):
        code, out, err = run(capsys, "validate", "--graph", graph, "--td", td)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {shown}:2: not valid UTF-8 text"]
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(bad), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "validate", "--graph", "-", "--td", ok_td)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: <stdin>:2: not valid UTF-8 text"]


def test_a_second_input_on_stdin_is_refused(tmp_path, capsys, monkeypatch):
    # Stdin holds one input: the second `-` is named with the first, not
    # read as an empty file.
    g = path_graph(3)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    ok_gr, ok_td = str(tmp_path / "g.gr"), str(tmp_path / "t.td")
    cases = (
        (("--graph", "-", "--td", "-"), format_graph(g), "graph and td"),
        (
            ("--graph", ok_gr, "--td", "-", "--weights", "-"),
            format_td(trivial_decomposition(g)),
            "td and weights",
        ),
    )
    for argv, text, names in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "mwis", *argv)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {names} both read stdin; give `-` to one input"]
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(g)))
    code, out, _ = run(capsys, "mwis", "--graph", "-", "--td", ok_td)
    assert code == 0 and report_of(out)["inputs"]["graph"]["path"] == "<stdin>"


def test_reports_are_deterministic_modulo_wall_time(tmp_path, capsys):
    g = cycle_graph(5)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    docs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "mwis", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td")
        )
        assert code == 0
        doc = report_of(out)
        doc.pop("wall_time_s")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_residual_violation_exit_code(tmp_path, capsys):
    g = cycle_graph(4)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    code, _, err = run(
        capsys,
        "mwis",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "-k", "1",
    )
    assert code == 2
    assert "residual" in err
    assert len(err.strip().splitlines()) == 1
    shown = err.split("witness vertices")[1].split()
    witness = {int(x) - 1 for x in shown}
    assert len(shown) == len(witness) == 2
    assert witness <= set(range(4)) and is_independent(g, witness)


def test_broken_promise_on_a_wide_bag_exits_2(tmp_path, capsys):
    # 51 unmarked isolated vertices in one bag: the solver stops at the
    # third vertex instead of enumerating the bag.
    g = build_graph(60, [])
    write_graph(g, tmp_path / "g.gr")
    write_td(make_decomposition(g, [range(60)], [], [range(0, 60, 7)]), tmp_path / "t.td")
    code, out, err = run(
        capsys, "mwis", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"), "-k", "1"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: residual bound violated: independent set of size 2 in bag residual; "
        "witness vertices 2 3\n"
    )


def test_oversized_weight_literal_is_a_parse_error(tmp_path, capsys):
    g = path_graph(2)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    (tmp_path / "w.w").write_text("1 1e300000\n")
    code, out, err = run(
        capsys,
        "mwis",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--weights", str(tmp_path / "w.w"),
    )
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "w.w:1:" in err


def test_oversized_rational_result_is_a_cap(tmp_path, capsys):
    # Every literal is under the weight-digit cap, but the optimum's
    # denominator passes Python's 4300-digit int-to-str limit.
    g = build_graph(5, [])
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    powers = (3**2000, 7**1100, 11**900, 13**840, 17**760)
    (tmp_path / "w.w").write_text(
        "".join(f"{v + 1} 1/{q}\n" for v, q in enumerate(powers))
    )
    code, out, err = run(
        capsys,
        "mwis",
        "--graph", str(tmp_path / "g.gr"),
        "--td", str(tmp_path / "t.td"),
        "--weights", str(tmp_path / "w.w"),
    )
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "cap" in err


def test_invalid_decomposition_wins_over_later_faults(tmp_path, capsys):
    def assert_invalid(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: decomposition failed validation")
        return err

    g = path_graph(2)
    write_graph(g, tmp_path / "g.gr")
    write_td(make_decomposition(g, [{0}, {1}], [(0, 1)]), tmp_path / "bad.td")
    graph_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "bad.td"))
    (tmp_path / "junk.w").write_text("1 not-a-weight\n")
    (tmp_path / "junk.fam").write_text("s fam 1\nf 1 junk\n")
    err = assert_invalid("mwis", *graph_td, "--weights", str(tmp_path / "junk.w"))
    assert "[edges]" in err
    assert_invalid("pack", *graph_td, "--family", str(tmp_path / "junk.fam"))
    # With a valid decomposition the same files are parse errors.
    write_td(trivial_decomposition(g), tmp_path / "ok.td")
    ok_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "ok.td"))
    for argv in (
        ("mwis", *ok_td, "--weights", str(tmp_path / "junk.w")),
        ("pack", *ok_td, "--family", str(tmp_path / "junk.fam")),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "junk" in err
    assert_invalid("nice", *graph_td, "-o", str(tmp_path / "n.td"))
    assert not (tmp_path / "n.td").exists()

    # Two 70-vertex bags and no tree edge: the tree clause is reported
    # before the 64-vertex alpha cap (exit 3) is reached.
    wide = build_graph(70, [])
    write_graph(wide, tmp_path / "wide.gr")
    bag = " ".join(str(v) for v in range(1, 71))
    (tmp_path / "wide.td").write_text(f"s td 2 70 70\nb 1 {bag}\nb 2 {bag}\n")
    err = assert_invalid(
        "measure", "--graph", str(tmp_path / "wide.gr"), "--td", str(tmp_path / "wide.td")
    )
    assert "[tree] 0 edges on 2 nodes" in err
    (tmp_path / "one.td").write_text(f"s td 1 70 70\nb 1 {bag}\n")
    code, _, err = run(
        capsys, "measure", "--graph", str(tmp_path / "wide.gr"), "--td", str(tmp_path / "one.td")
    )
    assert code == 3 and "cap" in err
    # A clique's alpha needs no search, but a 65-vertex one is still refused.
    kg, kt = str(tmp_path / "k.gr"), str(tmp_path / "k.td")
    code, _, _ = run(capsys, "gen", "complete", "65", "-o", kg, "--emit-trivial-td", kt)
    assert code == 0
    code, out, err = run(capsys, "measure", "--graph", kg, "--td", kt)
    assert code == 3 and out == "" and "cap" in err


def test_internal_fault_exit_code(tmp_path, capsys, monkeypatch):
    g = path_graph(3)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    graph_td = ("--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"))

    def fail_with(exc):
        def solver(*args, **kwargs):
            raise exc

        return solver

    for exc, shown in (
        (RuntimeError("internal: witness set is not independent"),
         "error: internal: witness set is not independent"),
        (MemoryError(), "error: MemoryError"),
    ):
        monkeypatch.setattr("treealpha.mwis._dp", fail_with(exc))
        code, out, err = run(capsys, "mwis", *graph_td)
        assert code == 4 and out == ""
        assert err.strip().splitlines() == [shown]
    monkeypatch.setattr("treealpha.cli.make_nice", fail_with(RuntimeError("internal: x")))
    code, out, err = run(capsys, "nice", *graph_td, "-o", str(tmp_path / "n.td"))
    assert (code, out, err) == (4, "", "error: internal: x\n")
    assert not (tmp_path / "n.td").exists()


def test_mwis_rechecks_its_witness_against_the_graph(tmp_path, capsys, monkeypatch):
    # Rows that lose every edge make the pass pick both ends of P_2; the
    # command's check against the adjacency lists is an internal fault.
    g = path_graph(2)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    monkeypatch.setattr(graph_module.Graph, "bit_rows", lambda self, vertices=None: [0] * self.n)
    code, out, err = run(
        capsys, "mwis", "--graph", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td"), "-k", "2"
    )
    assert (code, out, err) == (4, "", "error: internal: witness set is not independent\n")


def test_failed_commands_write_no_artifacts(tmp_path, capsys):
    g_gr, t_td = str(tmp_path / "g.gr"), str(tmp_path / "t.td")
    code, _, _ = run(capsys, "gen", "path", "4", "-o", g_gr, "--emit-trivial-td", t_td)
    assert code == 0
    code, out, err = run(
        capsys,
        "pack",
        "--graph", g_gr,
        "--td", t_td,
        "--patterns", "k2",
        "-k", "0",
        "--emit-derived", str(tmp_path / "d.gr"),
        "--emit-derived-td", str(tmp_path / "d.td"),
    )
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert not (tmp_path / "d.gr").exists() and not (tmp_path / "d.td").exists()
    # The nice form converts, then measuring its 70-vertex bag hits the alpha cap.
    write_graph(build_graph(70, []), tmp_path / "wide.gr")
    bag = " ".join(str(v) for v in range(1, 71))
    (tmp_path / "one.td").write_text(f"s td 1 70 70\nb 1 {bag}\n")
    code, out, err = run(
        capsys,
        "nice",
        "--graph", str(tmp_path / "wide.gr"),
        "--td", str(tmp_path / "one.td"),
        "-o", str(tmp_path / "n.td"),
    )
    assert code == 3 and out == "" and "cap" in err
    assert not (tmp_path / "n.td").exists()


def test_gen_trivial_td_without_output_pipes_the_graph(tmp_path, capsys):
    t_td = tmp_path / "t.td"
    code, out, err = run(capsys, "gen", "sharpness", "3", "--emit-trivial-td", str(t_td))
    assert code == 0 and err == ""
    assert out.startswith("p tw 12 18\n")
    (tmp_path / "g.gr").write_text(out)
    code, out, _ = run(
        capsys, "validate", "--graph", str(tmp_path / "g.gr"), "--td", str(t_td)
    )
    assert code == 0 and report_of(out)["results"]["ok"]


def test_forced_subset_dp_refuses_unaddressable_tables(tmp_path, capsys):
    # 2^70 table entries cannot even be counted in a list; --force does not
    # lift that.
    write_graph(build_graph(70, []), tmp_path / "g.gr")
    for command in ("tin", "tw"):
        code, out, err = run(capsys, command, "--graph", str(tmp_path / "g.gr"), "--force")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "n=70 > cap=" in err


def test_forced_subset_dp_stops_at_32_vertices(tmp_path, capsys):
    # Masks live in 4-byte cells, so --force lifts the cap to 32 only: C_33
    # is refused with one line before any table is allocated.
    write_graph(cycle_graph(33), tmp_path / "c33.gr")
    for command in ("tin", "tw"):
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, command, "--graph", str(tmp_path / "c33.gr"), "--force"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "refused for n=33 > cap=32" in err
        assert peak < 1 << 20


def test_gen_refuses_oversized_output_before_building(tmp_path, capsys):
    def assert_refused(*argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "cap=1048576" in err

    # 1,999,000 edges.
    assert_refused("complete", "2000")
    assert_refused(
        "complete", "2000",
        "-o", str(tmp_path / "k.gr"),
        "--emit-trivial-td", str(tmp_path / "k.td"),
    )
    assert not (tmp_path / "k.gr").exists() and not (tmp_path / "k.td").exists()
    # A header-only base of 2000 vertices asks for 2000^2 cross edges.
    (tmp_path / "base.gr").write_text("p tw 2000 0\n")
    assert_refused("double-join", "--graph", str(tmp_path / "base.gr"))


def test_pack_family_refuses_options_it_would_ignore(tmp_path, capsys):
    g = path_graph(4)
    write_graph(g, tmp_path / "g.gr")
    write_td(trivial_decomposition(g), tmp_path / "t.td")
    (tmp_path / "f.fam").write_text("s fam 1\nf 1 2 1 1\n")
    (tmp_path / "w.w").write_text("1 5\n")
    family = ("--family", str(tmp_path / "f.fam"))
    for graph in (tmp_path / "g.gr", tmp_path / "missing.gr"):
        graph_td = ("--graph", str(graph), "--td", str(tmp_path / "t.td"))
        for extra in (
            ("--weights", str(tmp_path / "w.w")),
            ("--weights", str(tmp_path / "missing.w")),
            ("--patterns", "k1"),
            ("--pattern-file", str(tmp_path / "g.gr")),
        ):
            code, out, err = run(capsys, "pack", *graph_td, *family, *extra)
            assert code == 1 and out == ""
            assert len(err.strip().splitlines()) == 1
            # Refused before any file is read: the missing graph goes unnoticed.
            assert err.startswith("error: pack --family") and extra[0] in err


def test_gen_refuses_graph_for_kinds_that_read_none(tmp_path, capsys):
    write_graph(path_graph(2), tmp_path / "g.gr")
    for graph in (tmp_path / "g.gr", tmp_path / "missing.gr"):
        for params in (("path", "3"), ("sharpness", "3", "-o", str(tmp_path / "s.gr"))):
            code, out, err = run(capsys, "gen", *params, "--graph", str(graph))
            assert code == 1 and out == ""
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("error: gen") and "--graph" in err
    assert not (tmp_path / "s.gr").exists()


class _Stalled(BaseException):
    """Raised by the fuzz test's alarm; no handler in `main` catches it."""


def _mutate(text, rng):
    """One random edit: insert, delete or replace a character, insert an
    odd token, or drop or repeat a line."""
    kind = rng.randrange(6)
    i = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:i] + rng.choice("0123456789 -/.\nepstbrfcx\t") + text[i:]
    if kind == 1:
        return text[:i] + text[i + 1:]
    if kind == 2:
        return text[:i] + rng.choice("0123456789 -/\n") + text[i + 1:]
    if kind == 3:
        token = rng.choice(
            ("99999999999999999999", "1048577", "0", "-1", "1e999", "1/0", "nan", "c")
        )
        return text[:i] + token + text[i:]
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    j = rng.randrange(len(lines))
    if kind == 4:
        return "".join(lines[:j] + lines[j + 1:])
    return "".join(lines[: j + 1] + lines[j:])


def test_cli_survives_mutated_inputs(tmp_path, capsys):
    # A seeded in-process fuzz of `main`: small .gr/.td/.w texts, each case
    # with one to three edits, through every command that reads them. Each
    # case must end in a documented exit code (no traceback, no exit 4)
    # within its time bound; the alarm turns a stall into a failure.
    rng = random.Random(0xF022)
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (1, 6)])
    td = make_decomposition(
        g, [{0, 1, 4, 6}, {1, 2, 3, 4}, {4, 5, 6}], [(0, 1), (0, 2)], [{6}, set(), set()]
    )
    base = {
        "g.gr": format_graph(g),
        "t.td": format_td(td),
        "w.w": "1 3/4\n2 2\n4 0.5\n7 5\n",
    }
    paths = {name: str(tmp_path / name) for name in base}
    graph_td = ("--graph", paths["g.gr"], "--td", paths["t.td"])
    commands = (
        ("validate", *graph_td),
        ("measure", *graph_td),
        ("nice", *graph_td, "-o", str(tmp_path / "nice.td")),
        ("mwis", *graph_td, "--weights", paths["w.w"]),
        ("mwis", *graph_td, "-k", "1"),
        ("pack", *graph_td, "--patterns", "k1,k2", "--weights", paths["w.w"]),
        ("pack", *graph_td, "--patterns", "p3,c4,k3"),
        ("tin", "--graph", paths["g.gr"]),
        ("tw", "--graph", paths["g.gr"]),
    )

    def stalled(signum, frame):
        raise _Stalled

    previous = signal.signal(signal.SIGALRM, stalled)
    codes = Counter()
    try:
        for case in range(400):
            texts = dict(base)
            for _ in range(rng.randint(1, 3)):
                name = rng.choice(sorted(texts))
                texts[name] = _mutate(texts[name], rng)
            for name, text in texts.items():
                (tmp_path / name).write_text(text)
            argv = rng.choice(commands)
            started = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 10)
            try:
                code = main(list(argv))
            except _Stalled:
                raise AssertionError(f"case {case} stalled: {argv} on {texts}") from None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - started
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (case, argv, texts, err)
            assert seconds < 2, (case, argv, texts, seconds)
            codes[code] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # The edits reach past the parsers: some cases still solve, some fail
    # validation, some are refused.
    assert codes[0] and codes[1] and codes[2], codes
