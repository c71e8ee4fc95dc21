import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealpha import (
    ParseError,
    WeightMap,
    build_graph,
    cycle_graph,
    generate,
    make_decomposition,
    make_family,
    path_graph,
)
from treealpha import formats
from treealpha.formats import (
    MAX_COUNT,
    format_graph,
    format_td,
    parse_family,
    parse_graph,
    parse_td,
    parse_vertex_set,
    parse_weights,
)
from treealpha.packing import PackingInstance

from .conftest import format_family, interval_graph, random_weights


def test_graph_round_trip():
    g = cycle_graph(5)
    assert parse_graph(format_graph(g)) == g


def test_graph_parse_with_comments():
    g = parse_graph("c a comment\np tw 3 2\n1 2\nc another\n2 3\n")
    assert g == path_graph(3)


def test_graph_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_graph("1 2\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("p tw 2 1\n1 1\n")
    with pytest.raises(ParseError, match="outside"):
        parse_graph("p tw 2 1\n1 3\n")
    with pytest.raises(ParseError, match="announced"):
        parse_graph("p tw 2 2\n1 2\n")


def test_td_round_trip():
    g = cycle_graph(4)
    td = make_decomposition(g, [{0, 1, 2}, {0, 2, 3}], [(0, 1)], [{0, 1}, set()])
    assert parse_td(format_td(td), g) == td


def test_td_round_trip_trivial():
    from treealpha import trivial_decomposition

    g = cycle_graph(4)
    td = trivial_decomposition(g)
    assert parse_td(format_td(td), g) == td


def test_td_without_r_lines_has_empty_marks():
    g = path_graph(2)
    td = parse_td("s td 1 2 2\nb 1 1 2\n", g)
    assert td.refined == (frozenset(),)


def test_td_parse_errors():
    g = path_graph(2)
    with pytest.raises(ParseError, match="not in bag"):
        parse_td("s td 1 2 2\nb 1 1\nr 1 2\n", g)
    with pytest.raises(ParseError, match="outside"):
        parse_td("s td 1 2 2\nb 2 1\n", g)
    with pytest.raises(ParseError, match="over 3 vertices"):
        parse_td("s td 1 2 3\nb 1 1\n", g)
    with pytest.raises(ParseError, match="duplicate bag"):
        parse_td("s td 2 1 2\nb 1 1\nb 1 2\n", g)
    with pytest.raises(ParseError, match="missing bag id"):
        parse_td("s td 1 1 2\nb\n", g)


def test_refined_set_errors_name_their_r_line():
    # The check runs once every bag is read, since a bag may follow its
    # refined set; it still names the `r` line.
    g = path_graph(3)
    with pytest.raises(ParseError) as err:
        parse_td("s td 1 2 3\nr 1 3\nc bag 1 below\nb 1 1 2\n", g, source="r.td")
    assert str(err.value) == "r.td:2: refined vertex 3 is not in bag 1"
    with pytest.raises(ParseError) as err:
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\nr 1 1\nr 2 1\n1 2\n", g, source="r.td")
    assert str(err.value) == "r.td:5: refined vertex 1 is not in bag 2"


def test_weights_parsing():
    w = parse_weights("1 3/4\n2 0.25\nc skip\n3 2\n", 4)
    assert w[0] == Fraction(3, 4)
    assert w[1] == Fraction(1, 4)
    assert w[2] == Fraction(2)
    assert w[3] == Fraction(1)  # default


def test_weights_errors():
    with pytest.raises(ParseError, match="negative"):
        parse_weights("1 -2\n", 3)
    with pytest.raises(ParseError, match="duplicate"):
        parse_weights("1 2\n1 3\n", 3)
    with pytest.raises(ParseError, match="unparsable"):
        parse_weights("1 x\n", 3)


def test_parsed_weights_match_the_checking_constructor():
    # parse_weights hands its own checked values over without a second check;
    # the public constructor still checks whatever it is given.
    w = parse_weights("1 3/4\n3 0\n", 3)
    assert w == WeightMap(3, {0: Fraction(3, 4), 2: 0})
    assert all(type(x) is Fraction for _, x in w.items())
    with pytest.raises(ParseError, match="vertex 4 outside"):
        parse_weights("4 1\n", 3)
    with pytest.raises(ValueError, match="out of range"):
        WeightMap(3, {3: 1})
    with pytest.raises(ValueError, match="negative"):
        WeightMap(3, {0: Fraction(-1, 2)})


def test_weight_map_refuses_outside_ids_and_iteration():
    # An id outside range(n) raises instead of reading weight 1, and the map
    # is not iterable. islice bounds the loop, and `in` runs only after it,
    # so a regression fails here instead of indexing 0, 1, 2, ... forever.
    w = WeightMap(2, {1: Fraction(1, 2)})
    assert (w[0], w[1]) == (1, Fraction(1, 2))
    for v in (-1, 2, 99):
        with pytest.raises(IndexError, match=f"vertex {v} out of range"):
            w[v]
        with pytest.raises(IndexError, match=f"vertex {v} out of range"):
            w.total([0, 1, v])
    with pytest.raises(TypeError, match="not iterable"):
        list(itertools.islice(w, 5))
    with pytest.raises(TypeError, match="not iterable"):
        3 in w
    with pytest.raises(TypeError, match="not iterable"):
        0 in WeightMap(2)
    assert list(w.items()) == [(0, 1), (1, Fraction(1, 2))]


def test_weight_totals_are_exact_fraction_sums():
    # Vertices with no stored weight count 1 each; the stored weights are
    # added exactly. Every total is a Fraction, whatever the map holds.
    vertices = [0, 1, 2, 3, 5]
    for values in (
        {},
        {1: Fraction(3, 4), 3: 0, 4: Fraction(9, 2)},
        {v: Fraction(v + 1, 3) for v in range(6)},
    ):
        w = WeightMap(6, values)
        want = sum((values.get(v, Fraction(1)) for v in vertices), Fraction(0))
        for given in (vertices, set(vertices), iter(vertices)):
            got = w.total(given)
            assert type(got) is Fraction and got == want
        assert type(w.total(())) is Fraction and w.total(()) == 0
    many = WeightMap(40, {0: Fraction(1, 3)}).total(range(40))
    assert type(many) is Fraction and many == 39 + Fraction(1, 3)
    parsed = parse_weights("2 1/3\n4 0.5\n", 6)
    assert parsed.total(vertices) == 3 + Fraction(1, 3) + Fraction(1, 2)
    assert type(parsed.total(vertices)) is Fraction


def test_family_round_trip():
    g = path_graph(4)
    inst = PackingInstance(
        make_family(g, [{0, 1}, {2}]), (Fraction(7, 2), Fraction(1))
    )
    assert parse_family(format_family(inst), g) == inst


def test_family_errors():
    g = path_graph(4)
    with pytest.raises(ParseError, match="announced"):
        parse_family("s fam 1\nf 1 1 2 1\n", g)
    with pytest.raises(ParseError, match="missing member"):
        parse_family("s fam 2\nf 1 1 1 1\n", g)
    with pytest.raises(ParseError, match="not connected"):
        parse_family("s fam 1\nf 1 1 2 1 3\n", g)
    with pytest.raises(ParseError, match="empty"):
        parse_family("s fam 1\nf 1 1 0\n", g)


def test_family_member_errors_name_their_f_line():
    # Empty and disconnected members are found once every member is read;
    # the error names the member's own line. A missing member has none, so
    # its line is 0, the end of the text.
    g = path_graph(4)
    text = "s fam 3\nf 3 1 1 4\nf 1 1 2 1 2\n\nf 2 1 2 1 3\n"
    with pytest.raises(ParseError) as err:
        parse_family(text, g, source="dis.fam")
    assert str(err.value) == "dis.fam:5: member 2 is empty or not connected"
    with pytest.raises(ParseError) as err:
        parse_family("s fam 2\nf 2 1 1 1\nf 1 1 0\n", g, source="dis.fam")
    assert str(err.value) == "dis.fam:3: member 1 is empty or not connected"
    with pytest.raises(ParseError) as err:
        parse_family("s fam 2\nf 1 1 1 1\n", g, source="dis.fam")
    assert err.value.line_no == 0 and "missing member id 2" in str(err.value)


def test_vertex_set_parsing():
    assert parse_vertex_set("1 3\nc zap\n4\n", 5) == frozenset({0, 2, 3})
    with pytest.raises(ParseError):
        parse_vertex_set("9\n", 5)


@pytest.mark.parametrize(
    "parse, header",
    [
        (parse_graph, "p tw {} 0"),
        (lambda text: parse_td(text, path_graph(2)), "s td {} 1 2"),
        (lambda text: parse_family(text, path_graph(2)), "s fam {}"),
    ],
    ids=["graph", "td", "family"],
)
def test_header_counts_are_capped(parse, header):
    with pytest.raises(ParseError, match="outside") as err:
        parse("c counts drive allocation\n" + header.format(MAX_COUNT + 1) + "\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError, match="outside"):
        parse(header.format(-1) + "\n")


def test_header_cap_holds_with_as_many_ids_as_vertices():
    # Ascending edges with enough ids for the bulk path's table: the header
    # is still refused.
    n = MAX_COUNT + 1
    edges = "".join(f"{v} {v + 1}\n" for v in range(1, n, 2))
    text = f"p tw {n} {n // 2 + 1}\n{edges}{n - 1} {n}\n"
    with pytest.raises(ParseError, match="outside") as err:
        parse_graph(text)
    assert err.value.line_no == 1


def traced_peak(parse, *args):
    """The result of `parse` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        out = parse(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_header_only_inputs_cost_pointers_not_sets():
    # At the cap the graph keeps one pointer per vertex and the
    # decomposition two per bag (8 and 16 MiB); no set is built per count.
    pointers = 8 * MAX_COUNT
    graph, peak = traced_peak(parse_graph, f"p tw {MAX_COUNT} 0\n")
    assert graph.n == MAX_COUNT and graph.m == 0
    assert peak <= 2 * pointers, f"graph peak {peak >> 20} MiB"
    td, peak = traced_peak(parse_td, f"s td {MAX_COUNT} 0 {MAX_COUNT}\n", graph)
    assert td.node_count == MAX_COUNT and not any(td.bags)
    assert peak <= 5 * pointers, f"decomposition peak {peak >> 20} MiB"


@pytest.mark.parametrize("literal", ["1e300000", "1E-1001", "2.5e+995", "1" * 1001])
def test_weight_literals_are_capped(literal):
    with pytest.raises(ParseError, match="digits") as err:
        parse_weights(f"1 1\n2 {literal}\n", 2)
    assert err.value.line_no == 2
    with pytest.raises(ParseError, match="digits"):
        parse_family(f"s fam 1\nf 1 {literal} 1 1\n", path_graph(2))


def test_weight_literals_under_the_cap_stay_exact():
    w = parse_weights("1 1e990\n2 3e-990\n", 2)
    assert w[0] == 10**990
    assert w[1] == Fraction(3, 10**990)


# Valid texts of each format over 4 vertices, written by the library's own
# writers, then mutated: tokens replaced or dropped, lines repeated or
# removed. Replacements come from a small vocabulary or from free text
# without decimal digits, so a header never asks for a large allocation;
# the caps are tested above.
_PATH4 = path_graph(4)
_IDS = st.integers(0, 3)
_WEIGHTS = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))
_ODD = st.one_of(
    st.sampled_from("-1 0 1 2 3 4 5".split()),
    st.sampled_from(["", "+2", "1_0", "1/0", "0.5", "1e", "1e99999", "p", "s", "c"]),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=4),
)


def _graph_text(edges):
    return format_graph(build_graph(4, [(u, v) for u, v in edges if u != v]))


def _td_text(bags_and_marks):
    bags = [b for b, _ in bags_and_marks]
    marks = [b & u for b, u in bags_and_marks]
    tree = [(i, i - 1) for i in range(1, len(bags))]
    return format_td(make_decomposition(_PATH4, bags, tree, marks))


def _weights_text(weights):
    return "".join(f"{v + 1} {w}\n" for v, w in weights.items())


def _family_text(ends_and_weights):
    members = [range(min(a, b), max(a, b) + 1) for a, b, _ in ends_and_weights]
    weights = tuple(w for _, _, w in ends_and_weights)
    return format_family(PackingInstance(make_family(_PATH4, members), weights))


_VALID = {
    "graph": st.lists(st.tuples(_IDS, _IDS)).map(_graph_text),
    "td": st.lists(st.tuples(st.frozensets(_IDS), st.frozensets(_IDS)), max_size=4)
    .map(_td_text),
    "weights": st.dictionaries(_IDS, _WEIGHTS).map(_weights_text),
    "family": st.lists(st.tuples(_IDS, _IDS, _WEIGHTS), max_size=4).map(_family_text),
    "set": st.lists(_IDS).map(lambda vs: " ".join(str(v + 1) for v in vs)),
}
_PARSERS = {
    "graph": parse_graph,
    "td": lambda text: parse_td(text, _PATH4),
    "weights": lambda text: parse_weights(text, 4),
    "family": lambda text: parse_family(text, _PATH4),
    "set": lambda text: parse_vertex_set(text, 4),
}


def _mutate(data, text):
    """Replace about one token in six; drop or repeat about one line in six."""
    out = []
    for line in text.splitlines():
        toks = [
            data.draw(_ODD) if data.draw(st.integers(0, 5)) == 0 else tok
            for tok in line.split()
        ]
        out += [" ".join(toks)] * data.draw(st.sampled_from([1, 1, 1, 1, 0, 2]))
    return "\n".join(out)


@pytest.mark.parametrize("name", sorted(_PARSERS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_text_parses_or_raises_parse_error(name, data):
    text = _mutate(data, data.draw(_VALID[name]))
    try:
        _PARSERS[name](text)
    except ParseError:
        pass


# The bulk path reads canonical graph and weight text; whenever one of its
# checks fails, `_Reader` reads the text again. Texts in the canonical line
# shape that break each check must give the reader's graph, weights or error.


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as e:
        return "ParseError", e.source, e.line_no, str(e)


_FAULTS = ["none", "none", "none", "zero", "range", "zeros", "repeat"]


def _apply(draw, fault, rows, n):
    """`rows` (lists of id strings) with one id broken as `fault` asks: 0,
    n + 1, zero-padded (which the reader accepts), or, in a row of two, a
    copy of the other id."""
    if rows and fault in ("zero", "range", "zeros", "repeat"):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 1))
        row[i] = {
            "zero": "0",
            "range": str(n + 1),
            "zeros": "00" + row[i],
            "repeat": row[i - 1],
        }[fault]
    return rows


@st.composite
def _canonical_graph_text(draw):
    """Canonical-shape `.gr` text with at most one fault: a bad or padded
    id, a self-loop (`repeat`), a wrong `m` or a header over the cap."""
    fault = draw(st.sampled_from(_FAULTS + ["m", "cap"]))
    n = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=9))
    if draw(st.booleans()):
        edges = sorted((min(e), max(e)) for e in edges)
    rows = _apply(draw, fault, [[str(u), str(v)] for u, v in edges], n)
    m = len(rows) + (draw(st.sampled_from([-1, 1])) if fault == "m" else 0)
    lines = [f"p tw {MAX_COUNT + 1 if fault == 'cap' else n} {max(m, 0)}"]
    lines += [" ".join(row) for row in rows]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def _canonical_weights_text(draw, n):
    """Canonical-shape `.w` text over n vertices with at most one fault: a
    bad or padded vertex id, a `p/0` weight, a repeated vertex, or a part
    long enough to leave the bulk path (and, at 999 digits, the cap)."""
    fault = draw(st.sampled_from(_FAULTS + ["q", "long"]))
    vertices = draw(st.lists(st.integers(1, max(n, 1)), max_size=6, unique=True))
    rows = _apply(draw, fault, [[str(v)] for v in vertices], n)
    if fault == "repeat" and rows:
        rows.append(draw(st.sampled_from(rows)))
    nums = [str(draw(st.integers(0, 9))) for _ in rows]
    dens = [str(draw(st.integers(1, 4))) for _ in rows]
    if rows and fault == "q":
        dens[draw(st.integers(0, len(rows) - 1))] = "0"
    if rows and fault == "long":
        nums[draw(st.integers(0, len(rows) - 1))] = "1" * draw(st.sampled_from([499, 600, 999]))
    lines = [f"{row[0]} {p}/{q}" for row, p, q in zip(rows, nums, dens)]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def test_canonical_text_takes_the_bulk_path():
    # The shapes are the possessive patterns. They read the writers' text in
    # bulk, with `p/q` weights: small graphs, a generated cycle and a seeded
    # interval graph.
    assert formats._GRAPH_SHAPE.pattern == r"p tw ([0-9]++) ([0-9]++)(?:\n[0-9]++ [0-9]++)*+\n?"
    assert formats._WEIGHTS_SHAPE.pattern == r"(?:[0-9]++ [0-9]{1,499}+/[0-9]{1,499}+(?:\n|\Z))*+"
    rng = random.Random(31)
    for g in (path_graph(5), cycle_graph(4), build_graph(0, []), generate("cycle", (50,)),
              interval_graph(200, rng)):
        assert formats._bulk_graph(format_graph(g)) == g
        weights = random_weights(g.n, rng)
        text = "".join(f"{v + 1} {w.numerator}/{w.denominator}\n" for v, w in weights.items())
        assert formats._bulk_weights(text, g.n) == WeightMap(g.n, weights)
    weights = WeightMap(3, {0: Fraction(3, 4), 2: 0})
    assert formats._bulk_weights("1 6/8\n3 0/1", 3) == weights
    # Comments, other line ends, fewer ids than vertices and edge lines out
    # of order, repeated or with u > v go to the reader.
    for text in (
        "c x\np tw 2 1\n1 2\n",
        "p tw 2 1\r\n1 2\r\n",
        "p tw 3 1\n1 2\n",
        "p tw 3 2\n2 3\n1 2\n",
        "p tw 3 3\n1 2\n1 2\n2 3\n",
        "p tw 3 2\n2 1\n2 3\n",
    ):
        assert formats._bulk_graph(text) is None
        assert parse_graph(text) == formats._read_graph(text, "<graph>")
    # Numbers past the interpreter's int digit limit go to the reader too.
    long = "9" * 5000
    for text in (f"p tw {long} 0\n", f"p tw 1 {long}\n"):
        assert _outcome(parse_graph, text, "g") == _outcome(formats._read_graph, text, "g")
    text = f"{long} 1/2\n"
    assert _outcome(parse_weights, text, 3, "w") == _outcome(formats._read_weights, text, 3, "w")


@given(text=_canonical_graph_text())
@settings(max_examples=400, deadline=None)
def test_bulk_graph_path_matches_the_reader(text):
    want = _outcome(formats._read_graph, text, "in.gr")
    assert _outcome(parse_graph, text, "in.gr") == want


@given(data=st.data(), n=st.integers(0, 5))
@settings(max_examples=400, deadline=None)
def test_bulk_weights_path_matches_the_reader(data, n):
    text = data.draw(_canonical_weights_text(n))
    want = _outcome(formats._read_weights, text, n, "in.w")
    assert _outcome(parse_weights, text, n, "in.w") == want
