"""Rainbow path search and all-pairs certificate checking.

A rainbow path has pairwise-distinct colors on its internal vertices; its
end vertices are exempt, so in particular the two ends may share a color.
The "revised" reading (all vertices distinct, or all but the ends) is the
same predicate, so `REVISED` is kept only as an alias of `None`, the
forbidden color that bans nothing. Every search takes an optional
forbidden color, banned on every vertex of the path, ends included. The
searches renumber the colors by first appearance before they start, so
their masks grow with the number of colors in use, not with the color
values.

All-pairs verification and color-avoiding reachability work once per
source u. Two greedy passes certify most targets in linear time: a
breadth-first walk from u that keeps only the first mask of internal
colors to arrive at each vertex, then the same walk from each target still
pending back to u. A walk whose internal colors are distinct has distinct
internal vertices, so it is a path, and paths read both ways; each pass
therefore only certifies, never refutes. The targets both passes miss go
to an exact breadth-first search over states (vertex, internal colors used
so far): the colorful-path dynamic program of color-coding (Alon, Yuster,
Zwick, J. ACM 1995), exponential only in the number of colors, as deciding
rainbow vertex-connectivity is NP-complete (Chen, Li, Shi, TCS 2011).
Witness paths come from one exhaustive depth-first walk over simple paths
per source, which hands each pending target the path it stands next to;
`exists_rainbow_path` is that walk with a single target. The walk keeps
its state on an explicit stack, so long paths do not meet the recursion
limit. Absence of a path is claimed only by an exhaustive search; running
out of node budget raises instead of claiming absence.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .errors import PreconditionError, SearchInconclusiveError
from .graph import Graph, is_connected

DEFAULT_NODE_BUDGET = 5_000_000


def parse_node_budget(text: str, source: str) -> int:
    """A node budget given as text; `source` names where it came from."""
    try:
        budget = int(text)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise PreconditionError(f"{source} must be a non-negative integer, got {text!r}")


def node_budget_default(default: int = DEFAULT_NODE_BUDGET) -> int:
    """RVC_NODE_BUDGET when it is set and non-empty, else `default`."""
    env = os.environ.get("RVC_NODE_BUDGET")
    return parse_node_budget(env, "RVC_NODE_BUDGET") if env else default


REVISED = None  # the revised predicate is the rainbow one: no color is banned


@dataclass(frozen=True)
class Certificate:
    """All-pairs verification outcome with optional per-pair witness paths."""

    status: str  # "verified" | "counterexample"
    failing_pair: tuple[int, int] | None = None
    witnesses: dict[tuple[int, int], tuple[int, ...]] | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"


@dataclass(frozen=True)
class ColorStats:
    distinct: int
    histogram: dict[int, int] = field(default_factory=dict)
    once_used: tuple[int, ...] = ()


def _colors_of(c) -> Sequence[int]:
    return getattr(c, "colors", c)


def _dense_colors(colors: Sequence[int], forbidden: int | None) -> tuple[list[int], int]:
    """`colors` renumbered 0, 1, ... by first appearance, and the mask bit
    of `forbidden` in that numbering (0 when no vertex carries it).

    The renumbering is a bijection, so a search over it gives the same
    verdicts, witnesses and node counts as one over the original values.
    """
    ids: dict[int, int] = {}
    dense = [ids.setdefault(col, len(ids)) for col in colors]
    return dense, (1 << ids[forbidden] if forbidden in ids else 0)


def is_rainbow_path(path: Sequence[int], c, forbidden: int | None = None) -> bool:
    """Color predicate on a path given as its vertex sequence."""
    colors = _colors_of(c)
    seq = [colors[v] for v in path]
    if forbidden is not None and forbidden in seq:
        return False
    internal = seq[1:-1]
    return len(internal) == len(set(internal))


def exists_rainbow_path(
    g: Graph,
    c,
    u: int,
    v: int,
    forbidden: int | None = None,
    node_budget: int | None = None,
) -> tuple[int, ...] | None:
    """Some qualifying simple path from u to v, or None after exhaustive search.

    Deterministic: at every step the direct edge to the target is tried
    first, then neighbors in ascending id order. This is the walk that
    `verify_rainbow_vc` runs for its witnesses, with v as the only target.
    """
    if u == v:
        raise PreconditionError("exists_rainbow_path requires distinct endpoints")
    colors, block = _dense_colors(_colors_of(c), forbidden)
    budget = node_budget if node_budget is not None else node_budget_default()
    return _witness_paths(_SortedAdjacency(g), colors, u, (v,), block, budget)[v]


class _SortedAdjacency(dict):
    """Sorted neighbour lists of g, each sorted on its first lookup, so a
    walk pays only for the vertices it enters."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, x: int) -> list[int]:
        self[x] = nbrs = sorted(self.g.adj(x))
        return nbrs


def _witness_paths(
    adj: _SortedAdjacency,
    colors: Sequence[int],
    u: int,
    targets: Sequence[int],
    block: int,
    budget: int,
) -> dict[int, tuple[int, ...] | None]:
    """The first qualifying path from u to each of `targets`, or None, from
    one depth-first walk over the sorted adjacency `adj`; `block` bans
    colors everywhere.

    The walk visits nodes in the order a search for one target v alone
    does: at each node it first resolves every pending target adjacent to
    it with the current path, then descends through neighbours in
    ascending id order. A search for v alone stops at the first node
    adjacent to v, where v is resolved, so its path is the walk's. The walk
    stops once no target is pending. Its node count is, at every point, what
    the one-target search for each pending target has spent, so running out
    of budget names the smallest pending target, whose own search runs out
    there too. The path's neighbour iterators live on an explicit stack, so
    path length is not bounded by the recursion limit.
    """
    found: dict[int, tuple[int, ...] | None] = dict.fromkeys(targets)
    if block >> colors[u] & 1:
        return found
    pending = {v for v in found if not block >> colors[v] & 1}
    nodes = 0
    path: list[int] = []
    on_path = 0
    stack = []
    x, used = u, 0
    while x >= 0:
        # enter x: the walk's path now ends there
        path.append(x)
        on_path |= 1 << x
        for y in adj[x]:
            if y in pending:
                pending.discard(y)
                found[y] = (*path, y)
        if not pending:
            break
        stack.append((iter(adj[x]), used))
        # find the next vertex to enter, backing up where none is left
        x = -1
        while stack and x < 0:
            it, used = stack[-1]
            for y in it:
                if on_path >> y & 1:
                    continue
                bit = 1 << colors[y]
                if bit & (used | block):
                    continue
                nodes += 1
                if nodes > budget:
                    raise SearchInconclusiveError(
                        f"path search for pair ({u}, {min(pending)}) exceeded node budget {budget}"
                    )
                x, used = y, used | bit
                break
            else:
                stack.pop()
                on_path ^= 1 << path.pop()
    return found


def _greedy_walk(
    g: Graph,
    colors: Sequence[int],
    s: int,
    goals: set[int],
    block: int,
    states: int,
    budget: int,
    source: int,
) -> int:
    """Breadth-first walk from s that removes each goal it meets from `goals`.

    Keeps one mask of internal colors per vertex, from its first arrival,
    so it is linear in the edges but may miss paths that the exact search
    finds. Never re-enters s; `block` bans colors on internal vertices.
    Stops once `goals` is empty. Returns `states` plus the vertices entered,
    raising once that exceeds the budget of `source`'s search.
    """
    masks = [-1] * g.n
    masks[s] = 0
    queue = deque([s])
    while queue and goals:
        x = queue.popleft()
        mask = masks[x]
        for y in g.adj(x):
            if y in goals:
                goals.discard(y)
                if not goals:
                    return states
            if masks[y] >= 0:
                continue
            bit = 1 << colors[y]
            if bit & (mask | block):
                continue
            states += 1
            if states > budget:
                raise SearchInconclusiveError(
                    f"path search from vertex {source} exceeded node budget {budget}"
                )
            masks[y] = mask | bit
            queue.append(y)
    return states


def _unreached(
    g: Graph, colors: Sequence[int], u: int, targets, block: int, budget: int
) -> set[int]:
    """Targets that no qualifying path from u reaches.

    Pass 1 is a greedy walk from u over the pending targets; pass 2 is a
    greedy walk from each target still pending back to u. Only the residue
    goes to the exact search: a state (x, mask) is a walk from u to
    internal vertex x whose internal colors, the set mask, are distinct, so
    it repeats no internal vertex. Walks never re-enter u, and a state is
    skipped when x already kept one whose mask is a subset. `block` bans
    colors on internal vertices and on both ends. Stops once every target
    is reached; the budget bounds the vertices the passes enter plus the
    states the search keeps.
    """
    unreached = set(targets)
    if block >> colors[u] & 1:
        return unreached
    pending = {t for t in unreached if not block >> colors[t] & 1}
    unreached -= pending
    states = _greedy_walk(g, colors, u, pending, block, 0, budget, u)
    for t in sorted(pending):
        goal = {u}
        states = _greedy_walk(g, colors, t, goal, block, states, budget, u)
        if not goal:
            pending.discard(t)
    if not pending:
        return unreached
    kept: list[list[int]] = [[] for _ in range(g.n)]
    queue = deque([(u, 0)])
    while queue:
        x, mask = queue.popleft()
        for y in g.adj(x):
            if y == u:
                continue
            if y in pending:
                pending.discard(y)
                if not pending:
                    return unreached
            bit = 1 << colors[y]
            if bit & (mask | block):
                continue
            grown = mask | bit
            masks = kept[y]
            if any(k & grown == k for k in masks):
                continue
            states += 1
            if states > budget:
                raise SearchInconclusiveError(
                    f"path search from vertex {u} exceeded node budget {budget}"
                )
            masks.append(grown)
            queue.append((y, grown))
    return unreached | pending


def _first_failure(
    g: Graph, colors: Sequence[int], block: int, budget: int, first: int = 0
) -> tuple[int, int] | None:
    """`(u, v)` for the first source u, from `first` up, that no qualifying
    path joins to some v, the smallest such; None when there is none.

    Each source runs `_unreached` against every vertex not yet searched as
    a source, so from 0 this is the lexicographically first failing pair.
    """
    for u in range(first, g.n):
        unreached = _unreached(g, colors, u, [*range(first), *range(u + 1, g.n)], block, budget)
        if unreached:
            return u, min(unreached)
    return None


def verify_rainbow_vc(
    g: Graph,
    c,
    forbidden: int | None = None,
    store_witnesses: bool = False,
    node_budget: int | None = None,
) -> Certificate:
    """Check every unordered vertex pair for a qualifying path.

    The counterexample reported is the lexicographically first failing
    pair. The node budget bounds, per source, the vertices the greedy
    passes enter plus the states the exact search keeps.
    """
    if not is_connected(g):
        raise PreconditionError("verify_rainbow_vc requires a connected graph")
    colors, block = _dense_colors(_colors_of(c), forbidden)
    if len(colors) != g.n:
        raise PreconditionError(
            f"coloring covers {len(colors)} vertices but the graph has {g.n}"
        )
    budget = node_budget if node_budget is not None else node_budget_default()
    failing = _first_failure(g, colors, block, budget)
    if failing:
        return Certificate("counterexample", failing_pair=failing)
    witnesses = None
    if store_witnesses:
        adj = _SortedAdjacency(g)
        witnesses = {
            (u, v): path
            for u in range(g.n - 1)
            for v, path in _witness_paths(
                adj, colors, u, range(u + 1, g.n), block, budget
            ).items()
        }
    return Certificate("verified", witnesses=witnesses)


def has_color_avoiding_connectivity(g: Graph, c, v: int, x: int) -> bool:
    """True iff every vertex not colored x is reachable from v by a revised
    rainbow path that avoids color x entirely."""
    colors = _colors_of(c)
    if colors[v] == x:
        raise PreconditionError("the source vertex must not carry the avoided color")
    targets = [u for u in range(g.n) if u != v and colors[u] != x]
    colors, block = _dense_colors(colors, x)
    return not _unreached(g, colors, v, targets, block, node_budget_default())


def color_stats(c) -> ColorStats:
    """Distinct count, multiplicity histogram, and once-used colors."""
    colors = _colors_of(c)
    hist: dict[int, int] = {}
    for col in colors:
        hist[col] = hist.get(col, 0) + 1
    once = tuple(sorted(col for col, k in hist.items() if k == 1))
    return ColorStats(distinct=len(hist), histogram=hist, once_used=once)


def serialize_certificate(cert: Certificate) -> str:
    """Structured text record: status, failing pair, optional witnesses."""
    lines = [f"status {cert.status}"]
    if cert.failing_pair is not None:
        lines.append(f"failing {cert.failing_pair[0]} {cert.failing_pair[1]}")
    if cert.witnesses:
        for (u, v), path in cert.witnesses.items():
            lines.append(f"witness {u} {v} " + " ".join(map(str, path)))
    return "\n".join(lines) + "\n"
