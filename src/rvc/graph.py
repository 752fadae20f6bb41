"""Simple undirected graphs and classical structure queries.

Vertices are dense 0-based integers. Graphs are immutable after
construction, and every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import DuplicateEdgeWarning, GraphFormatError, PreconditionError


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite, undirected, simple graph, stored as one frozenset of
    neighbours per vertex plus the set of normalized edges. Walks that
    need a fixed visiting order sort `adj(u)` themselves."""

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        eset: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            eset.add(_norm_edge(u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._edges = frozenset(eset)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def adj(self, u: int) -> frozenset[int]:
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edges

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self._edges | {_norm_edge(u, v)})

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on `vertices`, relabeled densely.

        Returns the subgraph and the list mapping new ids back to the
        original ids (sorted ascending, so the relabeling is deterministic).
        """
        old = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(old)}
        edges = [(pos[u], pos[v]) for u, v in self._edges if u in pos and v in pos]
        return Graph(len(old), edges), old

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {n}")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs or single edges) plus cut vertices."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]

    @property
    def t(self) -> int:
        return len(self.cut_vertices)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list text format.

    One edge per line as two whitespace-separated non-negative integers;
    `#` starts a comment; blank lines are ignored; an optional directive
    `vertices <n>` before any edge fixes the vertex count (otherwise it is
    1 + the largest id seen). Duplicate edges warn and collapse.
    """
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if edges or declared is not None:
                raise GraphFormatError(
                    f"line {lineno}: 'vertices' directive must appear once, before any edge"
                )
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: malformed 'vertices' directive")
            try:
                declared = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed vertex count {parts[1]!r}")
            if declared < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed vertex id in {line!r}")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        e = _norm_edge(u, v)
        if e in seen:
            warnings.warn(f"line {lineno}: duplicate edge {e}", DuplicateEdgeWarning)
            continue
        seen.add(e)
        edges.append(e)
        max_id = max(max_id, u, v)
    n = declared if declared is not None else max_id + 1
    if declared is not None and max_id >= declared:
        raise GraphFormatError(
            f"vertex id {max_id} exceeds declared count {declared}"
        )
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Emit the edge-list format; `parse_graph` round-trips the edge set."""
    lines = [f"vertices {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _bfs_dist(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj(u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    """True iff every pair of vertices is joined by a path (n <= 1 counts)."""
    if g.n <= 1:
        return True
    return all(d >= 0 for d in _bfs_dist(g, 0))


def _require_connected(g: Graph, op: str) -> None:
    if not is_connected(g):
        raise PreconditionError(f"{op} requires a connected graph")


def diameter(g: Graph) -> int:
    """Largest shortest-path length over all vertex pairs; 0 for n = 1."""
    _require_connected(g, "diameter")
    if g.n == 0:
        raise PreconditionError("diameter requires at least one vertex")
    return max(max(_bfs_dist(g, s)) for s in range(g.n))


def _block_dfs(g: Graph) -> tuple[list[frozenset[int]], set[int]]:
    """Tarjan's depth-first low-point sweep yielding blocks and cut vertices.

    Each vertex but a root waits on `opened` from its discovery until its
    block closes: when a child u of p has low[u] >= disc[p], the vertices
    from u up form one block with p. Iterative so deep graphs do not hit
    the recursion limit.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    opened: list[int] = []
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    timer = 0

    for root in range(g.n):
        if disc[root] >= 0:
            continue
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        # stack entries: (vertex, iterator over sorted neighbors, its index in opened)
        stack = [(root, iter(sorted(g.adj(root))), 0)]
        while stack:
            u, it, mark = stack[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(sorted(g.adj(w))), len(opened)))
                    opened.append(w)
                    break
                # w may be u's parent p: low[u] <= disc[p] flips no test
                # low[x] >= disc[y], as y is then p or an ancestor of p
                low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        if p == root:
                            root_children += 1
                        else:
                            cuts.add(p)
                        blocks.append(frozenset([p, *opened[mark:]]))
                        del opened[mark:]
        if root_children > 1:
            cuts.add(root)
    return blocks, cuts


def cut_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose removal disconnects the graph."""
    _require_connected(g, "cut_vertices")
    _, cuts = _block_dfs(g)
    return frozenset(cuts)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Maximal 2-connected subgraphs and bridge edges, plus cut vertices.

    Blocks are ordered by their smallest contained vertex id.
    """
    _require_connected(g, "block_decomposition")
    if g.n < 2:
        raise PreconditionError("block_decomposition requires at least 2 vertices")
    blocks, cuts = _block_dfs(g)
    blocks.sort(key=min)
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def is_2_connected(g: Graph) -> bool:
    """n >= 3, connected, and no cut vertex: the sweep finds one block, all of g."""
    return g.n >= 3 and _block_dfs(g)[0] == [frozenset(range(g.n))]


def all_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Unordered vertex pairs in lexicographic order."""
    return combinations(range(n), 2)
