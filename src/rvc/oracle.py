"""Brute-force exact rainbow vertex-connection numbers on small graphs.

Colorings are enumerated as restricted-growth strings (the first use of
color i precedes the first use of color i+1), which removes the k!
palette symmetry. Pruning is driven by a per-pair table of all simple
paths: a path dies as soon as two of its colored internal vertices share a
color, and a partial assignment is rejected the moment some pair has no
live path left. Paths with more internal vertices than there are colors
are dropped before the search starts, which is what makes the exhaustive
nonexistence checks on mid-size cycles finish at desk scale. The table is
built one source at a time: a single depth-first sweep from u lists the
paths to every v > u at once, in the order a search for each pair alone
would find them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .coloring import Coloring
from .errors import BudgetExceededError, PreconditionError
from .graph import Graph, _bfs_dist, all_pairs, is_2_connected, is_connected
from .verify import verify_rainbow_vc

MAX_PATH_TABLE = 2_000_000  # safety valve on total path-table entries


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exact search; instances above max_vertices are refused."""

    max_vertices: int = 11
    node_budget: int = 200_000_000


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Coloring
    nodes: int


def _paths_from(
    adj: list[list[int]], u: int, max_internal: int, stop: int, room: int
) -> tuple[list[list[tuple[int, ...]]], int]:
    """Simple paths from u with at most max_internal internal vertices,
    listed by end vertex v for u < v < stop, from one depth-first sweep over
    the sorted adjacency `adj`.

    A path to v is recorded wherever the sweep stands next to v, and the
    sweep goes on through v, so v's list holds the paths of a search for v
    alone, in that search's order. `room` is what the path table may still
    take, in path vertices: the sweep raises once it is used up, and
    returns the lists with what is left. The sweep keeps each path with its
    vertex mask and neighbour iterator on an explicit stack.
    """
    lists: list[list[tuple[int, ...]]] = [[] for _ in adj]
    stack = [((u,), 1 << u, iter(adj[u]))]
    while stack:
        path, on_path, it = stack[-1]
        deeper = len(path) <= max_internal
        for x in it:
            if on_path >> x & 1:
                continue
            p = path + (x,)
            if u < x < stop:
                lists[x].append(p)
                room -= len(p)
                if room < 0:
                    raise BudgetExceededError("path table too large; shrink the instance")
            if deeper:
                stack.append((p, on_path | 1 << x, iter(adj[x])))
                break
        else:
            stack.pop()
    return lists, room


class _FixedKSearch:
    """Backtracking search for one coloring with exactly k colors.

    `dist` holds the graph's shortest-path distances. The path table is
    built one source at a time, in `all_pairs` order.
    """

    def __init__(self, g: Graph, k: int, node_budget: int, dist: list[list[int]]):
        self.g = g
        self.k = k
        self.node_budget = node_budget
        self.nodes = 0
        n = g.n
        self.pairs = list(all_pairs(n))
        # a path with more internal vertices than colors can never qualify,
        # so a pair more than k + 1 apart has no usable path and no k-coloring
        # can work; the table is still built up to that pair, because a
        # table too large before it is reported first
        far = next(((u, v) for u, v in self.pairs if dist[u][v] > k + 1), None)
        self.feasible = far is None
        last, last_stop = far or (n - 2, n)
        adj = [sorted(g.adj(w)) for w in range(n)]
        paths: list[tuple[int, ...]] = []
        pair_of: list[int] = []
        room = MAX_PATH_TABLE
        pid = 0
        for u in range(last + 1):
            lists, room = _paths_from(adj, u, k, last_stop if u == last else n, room)
            for v in range(u + 1, n):
                paths.extend(lists[v])
                pair_of.extend([pid] * len(lists[v]))
                pid += 1
        if not self.feasible:
            return

        self.pair_of = pair_of
        self.path_mask = [0] * len(paths)
        self.path_dead = bytearray(len(paths))
        self.pair_alive = [0] * len(self.pairs)
        for pid in pair_of:
            self.pair_alive[pid] += 1
        self.inc_internal: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(paths):
            for w in p[1:-1]:
                self.inc_internal[w].append(i)
        self.colors = [-1] * n

    def _assign(self, w: int, col: int) -> tuple[bool, list[tuple[int, int]]]:
        """Propagate one assignment; returns (conflict, undo frame).

        Undo entries: (path_id, previous mask) for mask growth, or
        (path_id, -1) for a path that died here.
        """
        bit = 1 << col
        frame: list[tuple[int, int]] = []
        conflict = False
        dead = self.path_dead
        mask = self.path_mask
        for pid in self.inc_internal[w]:
            if dead[pid]:
                continue
            m = mask[pid]
            if m & bit:
                dead[pid] = 1
                frame.append((pid, -1))
                pr = self.pair_of[pid]
                self.pair_alive[pr] -= 1
                if self.pair_alive[pr] == 0:
                    conflict = True
            else:
                mask[pid] = m | bit
                frame.append((pid, m))
        return conflict, frame

    def _undo(self, frame: list[tuple[int, int]]) -> None:
        for pid, m in reversed(frame):
            if m < 0:
                self.path_dead[pid] = 0
                self.pair_alive[self.pair_of[pid]] += 1
            else:
                self.path_mask[pid] = m

    def run(self) -> list[int] | None:
        """Color vertices 0..n-1 in order, trying colors in restricted-growth
        order and backtracking on a conflict. The stack holds, per colored
        vertex, (its color, the colors used before it, its undo frame)."""
        if not self.feasible:
            return None
        n, k, colors = self.g.n, self.k, self.colors
        assign, undo = self._assign, self._undo
        stack: list[tuple[int, int, list[tuple[int, int]]]] = []
        col = used = 0  # the next color to try at vertex len(stack); colors used before it
        while True:
            idx = len(stack)
            if idx == n and used == k:
                return list(colors)
            # used <= k, so at idx == n the last test fails unless used == k
            if col <= used and col < k and used + (n - idx) >= k:
                self.nodes += 1
                if self.nodes > self.node_budget:
                    raise BudgetExceededError(
                        f"exact search exceeded node budget {self.node_budget}"
                    )
                colors[idx] = col
                conflict, frame = assign(idx, col)
                if conflict:
                    undo(frame)
                    col += 1
                else:
                    stack.append((col, used, frame))
                    used += col == used
                    col = 0
                continue
            if not stack:
                return None
            col, used, frame = stack.pop()
            undo(frame)
            col += 1


def _check_instance(
    g: Graph, forbidden: int | None, budget: SearchBudget, caller: str
) -> None:
    """Refuse what the exact search cannot decide: a disconnected graph, a
    forbidden color (the path table does not ban colors, so it would go
    unheeded) and an instance over the budget's vertex count."""
    if not is_connected(g):
        raise PreconditionError(f"{caller} requires a connected graph")
    if forbidden is not None:
        raise PreconditionError("the exact search does not support a forbidden color")
    if g.n > budget.max_vertices:
        raise BudgetExceededError(
            f"instance has {g.n} vertices, over the budget of {budget.max_vertices}; "
            "pass a larger SearchBudget to override"
        )


def _distances(g: Graph) -> list[list[int]]:
    return [_bfs_dist(g, s) for s in range(g.n)]


def find_rainbow_coloring(
    g: Graph,
    k: int,
    forbidden: int | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> tuple[Coloring, int] | None:
    """Exhaustive search for a coloring with exactly k colors that verifies.

    Returns (coloring, nodes expanded) or None; None is a proof that no
    such coloring exists.
    """
    _check_instance(g, forbidden, budget, "find_rainbow_coloring")
    if k < 1:
        raise PreconditionError("k must be at least 1")
    search = _FixedKSearch(g, k, budget.node_budget, _distances(g))
    assignment = search.run()
    if assignment is None:
        return None
    witness = Coloring(tuple(assignment), reported_count=k, method="exact")
    return witness, search.nodes


def exact_rvc(
    g: Graph,
    forbidden: int | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> OracleResult:
    """Minimum k such that some k-coloring passes the verifier.

    Complete graphs report 0 by convention. Enumeration starts at the
    diameter lower bound and increases, so the first witness found is
    optimal; the witness is re-verified before being returned.
    """
    _check_instance(g, forbidden, budget, "exact_rvc")
    if g.is_complete():
        witness = Coloring((0,) * g.n, reported_count=0, method="exact")
        return OracleResult(0, witness, 0)
    dist = _distances(g)
    lb = max(max(map(max, dist)) - 1, 1)
    nodes_total = 0
    for k in range(lb, g.n + 1):
        search = _FixedKSearch(g, k, budget.node_budget - nodes_total, dist)
        assignment = search.run()
        nodes_total += search.nodes
        if assignment is not None:
            witness = Coloring(tuple(assignment), reported_count=k, method="exact")
            cert = verify_rainbow_vc(g, witness)
            if not cert.verified:
                raise AssertionError(f"oracle witness failed re-verification at {cert.failing_pair}")
            return OracleResult(k, witness, nodes_total)
    raise PreconditionError(f"no coloring found with at most {g.n} colors")


@dataclass(frozen=True)
class TableRow:
    n: int
    constructed: int
    exact: int | None
    closed_form: int


def cycle_reference_table(
    max_exact_n: int = 11,
    max_n: int = 30,
) -> list[TableRow]:
    """Cycle rvc values three ways: constructed, exact (n <= max_exact_n),
    closed form.

    The constructed coloring is re-verified for every row.
    """
    from .coloring import cycle_coloring, cycle_rvc_value

    budget = SearchBudget(max_vertices=max_exact_n)
    rows = []
    for n in range(3, max_n + 1):
        c = cycle_coloring(n)
        g = Graph.cycle(n)
        cert = verify_rainbow_vc(g, c)
        constructed = c.reported_count if cert.verified else -1
        exact = None
        if n <= max_exact_n:
            exact = exact_rvc(g, budget=budget).value
        rows.append(TableRow(n, constructed, exact, cycle_rvc_value(n)))
    return rows


def random_2connected(
    n: int,
    extra_edges: int,
    seed: int,
    kind: str = "hamilton",
) -> Graph:
    """Deterministic-for-seed 2-connected test instance.

    kind="hamilton": a Hamilton cycle plus extra_edges distinct chords.
    kind="ears": a smaller cycle grown by random ears to n vertices, then
    extra_edges chords.
    """
    if n < 3:
        raise PreconditionError("a 2-connected graph needs at least 3 vertices")
    rng = random.Random(seed)
    if kind == "hamilton":
        edges = {(i, (i + 1) % n) for i in range(n)}
        edges = {(min(u, v), max(u, v)) for u, v in edges}
        pool = [e for e in combinations(range(n), 2) if e not in edges]
        if extra_edges > len(pool):
            raise PreconditionError(
                f"{extra_edges} chords requested but only {len(pool)} available"
            )
        edges.update(rng.sample(pool, extra_edges))
        g = Graph(n, edges)
    elif kind == "ears":
        base = rng.randint(3, n)
        edges = {(i, (i + 1) % base) for i in range(base)}
        edges = {(min(u, v), max(u, v)) for u, v in edges}
        covered = base
        while covered < n:
            interior = rng.randint(1, n - covered)
            a, b = rng.sample(range(covered), 2)
            path = [a] + list(range(covered, covered + interior)) + [b]
            edges.update(
                (min(x, y), max(x, y)) for x, y in zip(path, path[1:])
            )
            covered += interior
        pool = [e for e in combinations(range(n), 2) if e not in edges]
        if extra_edges > len(pool):
            raise PreconditionError(
                f"{extra_edges} chords requested but only {len(pool)} available"
            )
        edges.update(rng.sample(pool, extra_edges))
        g = Graph(n, edges)
    else:
        raise PreconditionError(f"unknown generator kind {kind!r}")
    if not is_2_connected(g):
        raise AssertionError("generator produced a graph that is not 2-connected")
    return g
