"""DIMACS edge-format reader and writer, plus cover files.

Accepted grammar: "c ..." comments, exactly one "p edge N M" header, then M
lines "e u v" with 1-based endpoints not exceeding N. Tokens are separated by
ASCII spaces; lines end with LF or CRLF. Counts and ids are runs of ASCII
decimal digits: no sign, no underscore. Parsed graphs keep the 1-based ids.
Duplicate edge lines collapse to one edge and are reported through the
warnings list rather than rejected.

A header may declare at most MAX_VERTICES vertices; a larger count raises
ResourceLimitError before any vertex is allocated.

``parse_dimacs`` reads the canonical form that ``emit_dimacs`` writes (the
header, then only "e u v" lines with single spaces, every line ending in LF)
in bulk: a chunk of edge lines at a time is checked by one regular
expression and converted by ``str.split`` and ``int``. Any other text, and
canonical text that breaks a rule (an endpoint out of range, a self-loop,
the wrong edge count), goes to the line reader ``_parse_lines``, which
accepts the whole grammar and names every error with its line number. Both
collect the endpoints and hand them to one builder: vertices 1..N in order,
then the edges in line order.

A cover file is one vertex id per line, 1-based, LF-terminated.
"""

from __future__ import annotations

import re
from operator import eq

from .errors import DimacsParseError, ResourceLimitError
from .graph import Graph

# 50 times the largest benchmark graph; the vertices are allocated from the
# header alone, so an unchecked count would hang the parser
MAX_VERTICES = 10**6

_CANONICAL_HEADER = re.compile(r"p edge ([0-9]+) ([0-9]+)\n")
_CANONICAL_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
# characters matched at a time: matching the whole text at once holds the
# regular expression engine's backtracking stack for every line, 4.1 MB at
# peak on a 20,304-edge benchmark graph against 0.55 MB in chunks
_CHUNK = 1 << 15


def _digits(token: str) -> int | None:
    """The value of a run of ASCII decimal digits; None for any other token,
    such as the sign and underscores that int() accepts."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def parse_dimacs(text: str, warnings: list[str] | None = None) -> Graph:
    g = _parse_canonical(text, warnings)
    return _parse_lines(text, warnings) if g is None else g


def _parse_canonical(text: str, warnings: list[str] | None) -> Graph | None:
    """The graph of canonical text, or None where the line reader must
    decide: text in another form, or that it would reject."""
    header = _CANONICAL_HEADER.match(text)
    if header is None or not text.endswith("\n"):
        return None
    us: list[int] = []
    vs: list[int] = []
    pos, size = header.end(), len(text)
    try:  # int() raises ValueError on more digits than it converts
        n, m = int(header[1]), int(header[2])
        if n > MAX_VERTICES:
            return None
        while pos < size:
            end = text.index("\n", min(pos + _CHUNK, size) - 1) + 1
            if _CANONICAL_EDGES.fullmatch(text, pos, end) is None:
                return None
            tokens = text[pos:end].split()
            us += map(int, tokens[1::3])
            vs += map(int, tokens[2::3])
            pos = end
    except ValueError:
        return None
    if len(us) != m:
        return None
    if m and (min(us) < 1 or min(vs) < 1 or max(us) > n or max(vs) > n):
        return None
    if any(map(eq, us, vs)):
        return None
    return _build(n, us, vs, warnings)


def _parse_lines(text: str, warnings: list[str] | None) -> Graph:
    """The line-by-line reader of the whole grammar, and the one that
    reports errors."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    us: list[int] = []
    vs: list[int] = []
    n = m = 0
    header_seen = False
    for idx, raw in enumerate(lines, start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if line.startswith("c"):
            continue
        tokens = line.split(" ")
        if "" in tokens:  # runs of spaces
            tokens = [t for t in tokens if t != ""]
        if not tokens:
            raise DimacsParseError("blank line", idx)
        kind = tokens[0]
        if kind == "p":
            if header_seen:
                raise DimacsParseError("duplicate header", idx)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise DimacsParseError(f"malformed header {line!r}", idx)
            n, m = _digits(tokens[2]), _digits(tokens[3])
            if n is None or m is None:
                raise DimacsParseError(f"header count is not a decimal number in {line!r}", idx)
            if n > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {idx}: header declares {n} vertices, above the limit of {MAX_VERTICES}"
                )
            header_seen = True
        elif kind == "e":
            if not header_seen:
                raise DimacsParseError("edge before header", idx)
            if len(tokens) != 3:
                raise DimacsParseError(f"malformed edge line {line!r}", idx)
            u, v = _digits(tokens[1]), _digits(tokens[2])
            if u is None or v is None:
                raise DimacsParseError(f"endpoint is not a decimal number in {line!r}", idx)
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise DimacsParseError(f"vertex out of range 1..{n} in {line!r}", idx)
            if u == v:
                raise DimacsParseError(f"self-loop at vertex {u}", idx)
            us.append(u)
            vs.append(v)
        else:
            raise DimacsParseError(f"unrecognized line {line!r}", idx)
    if not header_seen:
        raise DimacsParseError("missing header", len(lines) or 1)
    if len(us) != m:
        raise DimacsParseError(f"header promises {m} edges, found {len(us)}", len(lines))
    return _build(n, us, vs, warnings)


def _build(n: int, us: list[int], vs: list[int], warnings: list[str] | None) -> Graph:
    """The graph on vertices 1..n with the edges {us[i], vs[i]} in order;
    duplicate edge lines collapse and are reported."""
    g = Graph.from_edges(zip(us, vs), range(1, n + 1))
    duplicates = len(us) - g.num_edges()
    if duplicates and warnings is not None:
        warnings.append(f"{duplicates} duplicate edge line(s) collapsed")
    return g


def emit_dimacs(g: Graph) -> str:
    """Render with vertices relabeled 1..N in sorted-id order."""
    ids = sorted(g.vertices())
    label = {v: i + 1 for i, v in enumerate(ids)}
    edges = sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in g.edges())
    out = [f"p edge {len(ids)} {len(edges)}"]
    out.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def parse_cover(text: str) -> set[int]:
    cover = set()
    for idx, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        v = _digits(line)
        if v is None or v < 1:
            raise DimacsParseError(f"cover line is not a vertex id: {line!r}", idx)
        cover.add(v)
    return cover


def emit_cover(cover: set[int]) -> str:
    return "".join(f"{v}\n" for v in sorted(cover))
