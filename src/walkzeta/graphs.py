"""Graph ingestion, arcs and vertex-level matrices.

Graphs are finite undirected multigraphs on vertices 0..n-1.  Parallel
edges are allowed and kept in order; loops are rejected at construction
because arc inversion is not well defined for them here.  A ``Graph`` owns
the facts every hypothesis gate reads: ``arcs``, ``degrees``, ``connected``
and ``simple``, each computed once per graph.  Each edge {u, v} contributes
two opposite arcs: ``g.arcs`` is the tuple of (origin, terminus) pairs,
laid out so that arc ``i + m``, ``g.inverse_arc(i)``, reverses arc ``i``.

Two text formats are supported: a plain edge list (one ``u v`` pair per
line, ``#`` comments, optional leading ``n <count>`` line for isolated
vertices) and the graph6 format for simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import Matrix, SizeGuardError


# A graph's largest dense matrix, a vertex determinant's 2n-row linearisation
# or a 2m-row arc operator, has max(2n, 2m) rows.  4096 admits every graph
# the roadmap plans (at most 1944 arcs) at 16.8 million entries per matrix.
MAX_DENSE_ROWS = 4096


class GraphFormatError(ValueError):
    """Malformed edge-list or graph6 input."""


def check_dense_size(n: int, m: int):
    """Raise SizeGuardError if a graph of n vertices and m edges is past MAX_DENSE_ROWS."""
    rows = 2 * max(n, m)
    if rows > MAX_DENSE_ROWS:
        raise SizeGuardError(f"graph needs {rows} matrix rows; the size guard allows {MAX_DENSE_ROWS}")


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph: vertex count and an ordered edge tuple.

    A graph past the size guard is refused.  Its arcs, degrees, connectivity
    and simplicity are computed at most once, on first use.  Equality,
    hashing and pickling see only n and the edges, so a graph whose facts
    were read is interchangeable with a fresh one.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        if self.n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"loop edge at vertex {u} is not supported")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"edge ({u}, {v}) leaves vertex range 0..{self.n - 1}")
        check_dense_size(self.n, self.m)

    def __getstate__(self) -> dict:
        return {"n": self.n, "edges": self.edges}

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """(origin, terminus) of each arc: 0..m-1 follow the edges, m..2m-1 reverse them."""
        return self.edges + tuple((v, u) for u, v in self.edges)

    def inverse_arc(self, a: int) -> int:
        """The arc that reverses arc a, m places away."""
        return (a + self.m) % (2 * self.m)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex, counting parallel edges."""
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    @cached_property
    def connected(self) -> bool:
        """Every vertex is reachable from vertex 0."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    @cached_property
    def simple(self) -> bool:
        """No two edges join the same pair of vertices."""
        return len({frozenset(e) for e in self.edges}) == self.m


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Blank lines and ``#`` comments are skipped.  The first data line may be
    ``n <count>`` to declare the vertex count; otherwise it is inferred as
    max endpoint + 1.  Repeated pairs are kept as parallel edges.
    """
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    first_data = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if first_data and parts[0] == "n":
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'n <count>'")
            try:
                declared = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if declared < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            first_data = False
            continue
        first_data = False
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two endpoints, got {len(parts)} tokens")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex label")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop edge at vertex {u}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    if declared is None:
        if max_seen < 0:
            raise GraphFormatError("no vertices: empty edge list without an 'n' line")
        n = max_seen + 1
    else:
        n = declared
        if max_seen >= n:
            raise GraphFormatError(f"endpoint {max_seen} exceeds declared vertex count {n}")
    return Graph(n, tuple(edges))


def _graph6_values(chunk: str) -> list[int]:
    """The 6-bit value of each graph6 byte, which must lie in '?'..'~'."""
    vals = [ord(ch) - 63 for ch in chunk]
    for ch, v in zip(chunk, vals):
        if not 0 <= v <= 63:
            raise GraphFormatError(f"graph6 byte {ch!r} out of range")
    return vals


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (simple graphs; optional standard header)."""
    s = text.strip()
    header = ">>graph6<<"
    if s.startswith(header):
        s = s[len(header):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    # the size field takes 1, 4 or 8 bytes; n is read and guarded before
    # the n(n - 1)/2 bits of the body are decoded
    if s[0] != "~":
        width, skip = 1, 0
    elif s[1:2] != "~":
        width, skip = 4, 1
    else:
        width, skip = 8, 2
    field = _graph6_values(s[:width])
    if len(field) < width:
        raise GraphFormatError("truncated graph6 size field")
    n = 0
    for v in field[skip:]:
        n = (n << 6) | v
    if n == 0:
        raise GraphFormatError("graph6 string encodes the empty graph")
    check_dense_size(n, 0)
    vals = _graph6_values(s[width:])
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(vals) != nbytes:
        raise GraphFormatError(f"graph6 bit stream for n={n} needs {nbytes} bytes, got {len(vals)}")
    bits = []
    for v in vals:
        bits.extend((v >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphFormatError("nonzero padding bits in graph6 string")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, tuple(edges))


def adjacency_matrix(g: Graph) -> Matrix:
    """Symmetric n x n matrix; entries count edge multiplicity."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] += 1
        a[v][u] += 1
    return Matrix.from_ints(a)
