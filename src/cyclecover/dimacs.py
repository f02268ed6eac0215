"""DIMACS edge-format reader and writer, plus cover files.

Accepted grammar: "c ..." comments, exactly one "p edge N M" header, then M
lines "e u v" with 1-based endpoints not exceeding N. Tokens are separated by
ASCII spaces; lines end with LF or CRLF. Counts and ids are runs of ASCII
decimal digits: no sign, no underscore. Parsed graphs keep the 1-based ids.
Duplicate edge lines collapse to one edge and are reported through the
warnings list rather than rejected.

A header may declare at most MAX_VERTICES vertices; a larger count raises
ResourceLimitError before any vertex is allocated.

A cover file is one vertex id per line, 1-based, LF-terminated.
"""

from __future__ import annotations

from .errors import DimacsParseError, ResourceLimitError
from .graph import Graph

# 50 times the largest benchmark graph; the vertices are allocated from the
# header alone, so an unchecked count would hang the parser
MAX_VERTICES = 10**6


def _digits(token: str) -> int | None:
    """The value of a run of ASCII decimal digits; None for any other token,
    such as the sign and underscores that int() accepts."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def parse_dimacs(text: str, warnings: list[str] | None = None) -> Graph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    g = Graph()
    n = m = 0
    header_seen = False
    edges_seen = 0
    duplicates = 0
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
            for v in range(1, n + 1):
                g.add_vertex(v)
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
            edges_seen += 1
            if g.has_edge(u, v):
                duplicates += 1
            else:
                g.add_edge(u, v)
        else:
            raise DimacsParseError(f"unrecognized line {line!r}", idx)
    if not header_seen:
        raise DimacsParseError("missing header", len(lines) or 1)
    if edges_seen != m:
        raise DimacsParseError(f"header promises {m} edges, found {edges_seen}", len(lines))
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
