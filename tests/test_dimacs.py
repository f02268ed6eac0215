import random

import pytest

from cyclecover.dimacs import _parse_canonical, _parse_lines, emit_cover, emit_dimacs, parse_cover, parse_dimacs
from cyclecover.errors import DimacsParseError, ResourceLimitError
from cyclecover.generators import generate, petersen_graph
from cyclecover.graph import Graph

from conftest import gnp


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


def outcome(parse, text):
    """What a reader makes of text: the graph in iteration order (vertices,
    and each neighbor set, which the solver's tie-breaks follow), its edge
    count and the warnings, or the error's type, message and line number."""
    warnings = []
    try:
        g = parse(text, warnings)
    except (DimacsParseError, ResourceLimitError) as err:
        return type(err).__name__, str(err), getattr(err, "line_no", None)
    adj = g.adjacency()
    return [(v, list(nbrs)) for v, nbrs in adj.items()], g.num_edges(), warnings


def canonical_texts(rng):
    """Texts in the form emit_dimacs writes, with the edge lines shuffled and
    some pairs reversed: random graphs large and small (the large ones span
    several of the bulk reader's chunks), isolated vertices, duplicate edge
    lines, ids with leading zeros and a missing final LF."""
    for n, p in ((1, 0), (6, 0.5), (40, 0.1), (300, 0.05), (2500, 0.002)):
        g = gnp(n, p, rng)
        header, *edges = emit_dimacs(g).splitlines()
        rng.shuffle(edges)
        edges = [f"e {v} {u}" if rng.random() < 0.3 else f"e {u} {v}" for _, u, v in map(str.split, edges)]
        yield "\n".join([header, *edges]) + "\n"
        if not edges:
            continue
        dup = edges + rng.sample(edges, max(1, len(edges) // 5))
        rng.shuffle(dup)
        yield "\n".join([f"p edge {n} {len(dup)}", *dup]) + "\n"
        padded = [f"e 0{u} {'00' if rng.random() < 0.5 else ''}{v}" for _, u, v in map(str.split, edges)]
        yield "\n".join([f"p edge 0{n} {len(edges)}", *padded]) + "\n"
        yield "\n".join([header, *edges])


def test_bulk_reader_matches_line_reader_on_canonical_text():
    rng = random.Random(22)
    texts = list(canonical_texts(rng))
    assert len(texts) > 15
    duplicates = 0
    for text in texts:
        got = outcome(parse_dimacs, text)
        assert got == outcome(_parse_lines, text)
        assert isinstance(got[0], list)
        duplicates += bool(got[2])
        # the bulk reader takes every text but the one without its final LF
        assert (_parse_canonical(text, []) is None) == (not text.endswith("\n"))
    assert duplicates >= 4


def test_bulk_reader_leaves_other_text_to_the_line_reader():
    """Same graph, or same error with the same line number."""
    rng = random.Random(23)
    g = gnp(30, 0.2, rng)
    text = emit_dimacs(g)
    header, first, *rest = text.splitlines()
    n = g.num_vertices()
    m = g.num_edges()
    lines = [header, first, *rest]
    variants = {
        "crlf": text.replace("\n", "\r\n"),
        "leading comment": "c made by hand\n" + text,
        "comment between edges": "\n".join([header, first, "c here", *rest]) + "\n",
        "double space": text.replace(first, first.replace(" ", "  ", 1)),
        "trailing space": text.replace(first, first + " "),
        "blank line": text + "\n",
        "self-loop": text.replace(first, "e 3 3"),
        "id 0": text.replace(first, "e 0 2"),
        "id N+1": text.replace(first, f"e 1 {n + 1}"),
        "5,000-digit id": text.replace(first, "e 1 " + "9" * 5000),
        "5,000-digit id with leading zeros": text.replace(first, "e 1 " + "0" * 4999 + "2"),
        "5,000-digit count": f"p edge {n} {'0' * 4990}{m}\n" + "\n".join(lines[1:]) + "\n",
        "too few edges": text.replace(header, f"p edge {n} {m + 1}"),
        "too many edges": text.replace(header, f"p edge {n} {m - 1}"),
        "edge before header": "\n".join([first, header, *rest]) + "\n",
        "second header": "\n".join([header, header, first, *rest]) + "\n",
        "tab": text.replace(first, first.replace(" ", "\t")),
        "non-ASCII digit": text.replace(first, "e \u0661 2"),
        "too many vertices": "p edge 1000001 0\n",
        "empty": "",
    }
    errors = 0
    for why, variant in variants.items():
        got = outcome(parse_dimacs, variant)
        assert got == outcome(_parse_lines, variant), why
        errors += isinstance(got[0], str)
    assert errors >= 14
