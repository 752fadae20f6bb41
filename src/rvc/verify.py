"""Rainbow path search and all-pairs certificate checking.

A rainbow path has pairwise-distinct colors on its internal vertices; its
end vertices are exempt, so in particular the two ends may share a color.
The "revised" reading (all vertices distinct, or all but the ends) is the
same predicate, so `REVISED` is kept only as an alias of `RAINBOW`. Every
search takes an optional forbidden color, banned on every vertex of the
path, ends included.

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
Single-pair witnesses come from exhaustive depth-first search over simple
paths. Absence of a path is claimed only by the exact search; running out
of node budget raises instead of claiming absence.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .errors import PreconditionError, SearchInconclusiveError
from .graph import Graph, all_pairs, is_connected

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


# the forbidden-color argument of the path searches: no color is banned
RAINBOW = None
REVISED = None  # the revised predicate is the rainbow one; kept as an alias


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
    first, then neighbors in ascending id order.
    """
    if u == v:
        raise PreconditionError("exists_rainbow_path requires distinct endpoints")
    colors = _colors_of(c)
    budget = node_budget if node_budget is not None else node_budget_default()
    block = 0 if forbidden is None else 1 << forbidden
    adj = [sorted(g.adj(w)) for w in range(g.n)]
    return _dfs_path(g, adj, colors, u, v, block, budget)


def _dfs_path(
    g: Graph,
    adj: list[list[int]],
    colors: Sequence[int],
    u: int,
    v: int,
    block: int,
    budget: int,
) -> tuple[int, ...] | None:
    """First qualifying u-v path of `exists_rainbow_path`'s search order over
    the sorted adjacency `adj`; `block` bans colors everywhere."""
    if block >> colors[u] & 1 or block >> colors[v] & 1:
        return None
    nodes = 0
    path = [u]
    on_path = 1 << u

    def dfs(w: int, used: int) -> bool:
        nonlocal nodes, on_path
        if v in g.adj(w):
            return True
        for x in adj[w]:
            if on_path >> x & 1:
                continue
            cx = colors[x]
            bit = 1 << cx
            if bit & (used | block):
                continue
            nodes += 1
            if nodes > budget:
                raise SearchInconclusiveError(
                    f"path search for pair ({u}, {v}) exceeded node budget {budget}"
                )
            path.append(x)
            on_path |= 1 << x
            if dfs(x, used | bit):
                return True
            path.pop()
            on_path &= ~(1 << x)
        return False

    if dfs(u, 0):
        return tuple(path) + (v,)
    return None


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
    colors = tuple(_colors_of(c))
    if len(colors) != g.n:
        raise PreconditionError(
            f"coloring covers {len(colors)} vertices but the graph has {g.n}"
        )
    budget = node_budget if node_budget is not None else node_budget_default()
    block = 0 if forbidden is None else 1 << forbidden
    for u in range(g.n - 1):
        unreached = _unreached(g, colors, u, range(u + 1, g.n), block, budget)
        if unreached:
            return Certificate("counterexample", failing_pair=(u, min(unreached)))
    witnesses = None
    if store_witnesses:
        adj = [sorted(g.adj(w)) for w in range(g.n)]
        witnesses = {
            (u, v): _dfs_path(g, adj, colors, u, v, block, budget)
            for u, v in all_pairs(g.n)
        }
    return Certificate("verified", witnesses=witnesses)


def has_color_avoiding_connectivity(g: Graph, c, v: int, x: int) -> bool:
    """True iff every vertex not colored x is reachable from v by a revised
    rainbow path that avoids color x entirely."""
    colors = _colors_of(c)
    if colors[v] == x:
        raise PreconditionError("the source vertex must not carry the avoided color")
    targets = [u for u in range(g.n) if u != v and colors[u] != x]
    return not _unreached(g, colors, v, targets, 1 << x, node_budget_default())


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
