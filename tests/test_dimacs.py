import pytest

from cyclecover.dimacs import emit_cover, emit_dimacs, parse_cover, parse_dimacs
from cyclecover.errors import DimacsParseError
from cyclecover.generators import generate, petersen_graph
from cyclecover.graph import Graph


def test_parse_triangle():
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n")
    assert g.num_vertices() == 3 and g.num_edges() == 3
    assert g.has_edge(1, 3)


def test_parse_allows_comments_isolated_and_crlf():
    g = parse_dimacs("c hello\r\np edge 4 1\r\nc mid\r\ne 2 4\r\n")
    assert g.num_vertices() == 4
    assert g.degree(1) == 0
    assert g.has_edge(2, 4)


def test_parse_duplicate_edges_warn():
    warnings = []
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n", warnings)
    assert g.num_edges() == 2
    assert len(warnings) == 1 and "duplicate" in warnings[0]


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("p edge 2 1\ne 1 3\n", 2),          # vertex out of range
        ("p edge 2 1\ne 1 1\n", 2),          # self-loop
        ("e 1 2\np edge 2 1\n", 1),          # edge before header
        ("p edge 2 1\np edge 2 1\ne 1 2\n", 2),  # duplicate header
        ("p edge 2 2\ne 1 2\n", 2),          # edge count mismatch
        ("p edge 2 1\nq 1 2\n", 2),          # unknown line kind
        ("p edge 2 1\ne 1\n", 2),            # short edge line
        ("p edge x 1\ne 1 2\n", 1),          # bad header int
        ("p edge 1_0 0\n", 1),               # int() takes underscores
        ("p edge +2 1\ne 1 2\n", 1),         # and signs
        ("p edge -2 1\ne 1 2\n", 1),         # negative count
        ("p edge 2 1\ne 1 +2\n", 2),         # signed endpoint
        ("p edge 2 1\ne 1\t 2\n", 2),        # int() strips tabs
        ("p edge 2 1\ne \u0661 2\n", 2),     # non-ASCII digit
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs(text)
    assert f"line {line_no}" in str(err.value)


def test_missing_header():
    with pytest.raises(DimacsParseError):
        parse_dimacs("c only a comment\n")


def test_emit_renumbers_sorted():
    g = Graph.from_edges([(10, 30), (30, 20)])
    text = emit_dimacs(g)
    assert text == "p edge 3 2\ne 1 3\ne 2 3\n"


def test_round_trip_stable():
    for seed in range(20):
        g = generate("maxdeg3", 14, seed)
        text = emit_dimacs(g)
        again = emit_dimacs(parse_dimacs(text))
        assert text == again, seed


def test_round_trip_preserves_shape():
    g = petersen_graph()
    h = parse_dimacs(emit_dimacs(g))
    assert h.num_vertices() == g.num_vertices()
    assert h.num_edges() == g.num_edges()
    assert sorted(h.degree(v) for v in h.vertices()) == sorted(g.degree(v) for v in g.vertices())


def test_cover_files():
    text = emit_cover({4, 1, 9})
    assert text == "1\n4\n9\n"
    assert parse_cover(text) == {1, 4, 9}
    assert parse_cover("") == set()
    assert parse_cover(" 3 \r\n\n12\n") == {3, 12}
    for bad in ("two", "-3", "0", "1_0", "+1", "1.0", "\u0661"):
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_cover(f"1\n{bad}\n")
