"""Brute-force exact rainbow vertex-connection numbers on small graphs.

Colorings are enumerated as restricted-growth strings (the first use of
color i precedes the first use of color i+1), which removes the k!
palette symmetry. The oracle is one sweep and one loop. `_path_table`
lists every simple path with at most k internal vertices (a longer one
can never be rainbow with k colors) in one depth-first sweep per source,
writing each path's id straight into the list of every vertex internal to
it. `_search` then colors vertices in order: a path dies as soon as two
of its internal vertices share a color, a partial assignment is rejected
the moment some pair has no live path left, and backtracking undoes a
vertex from the two lists of paths it changed. Dropping the long paths up
front is what makes the exhaustive nonexistence checks on mid-size cycles
finish at desk scale.
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


def _path_table(
    g: Graph, k: int, dist: list[list[int]]
) -> tuple[list[list[int]], list[int]] | None:
    """The paths a k-coloring must keep alive: `(inc, pair_of)`, or None
    when some pair is more than k + 1 apart.

    A path qualifies when it has at most k internal vertices. Path ids
    count up in sweep order; `pair_of[pid]` is the `all_pairs` index of the
    path's ends and `inc[w]` lists the ids of the paths with w internal.
    One depth-first sweep per source u, over sorted neighbours, records a
    path to x wherever it stands next to x > u and goes on through x, so
    each pair's paths come in the order of a search for that pair alone.
    The path table may take MAX_PATH_TABLE path vertices. A pair more than
    k + 1 apart has no qualifying path, but the table is still built up to
    that pair, because a table too large before it is reported first.
    """
    n = g.n
    far = next(((u, v) for u, v in all_pairs(n) if dist[u][v] > k + 1), None)
    last, last_stop = far or (n - 2, n)
    adj = [sorted(g.adj(w)) for w in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    pair_of: list[int] = []
    room = MAX_PATH_TABLE
    base = -1  # the pair index of (u, x) is base + x
    for u in range(last + 1):
        stop = last_stop if u == last else n
        path = [u]
        on_path = 1 << u
        stack = [iter(adj[u])]
        while stack:
            for x in stack[-1]:
                if on_path >> x & 1:
                    continue
                if u < x < stop:
                    pid = len(pair_of)
                    pair_of.append(base + x)
                    for w in path[1:]:
                        inc[w].append(pid)
                    room -= len(path) + 1
                    if room < 0:
                        raise BudgetExceededError("path table too large; shrink the instance")
                if len(path) <= k:
                    path.append(x)
                    on_path |= 1 << x
                    stack.append(iter(adj[x]))
                    break
            else:
                stack.pop()
                on_path ^= 1 << path.pop()
        base += n - 2 - u
    return None if far else (inc, pair_of)


def _search(
    g: Graph, k: int, node_budget: int, dist: list[list[int]]
) -> tuple[list[int] | None, int]:
    """One coloring with exactly k colors under which every pair keeps a
    live path, or None; with the number of nodes expanded.

    Vertices 0..n-1 are colored in order, colors tried in restricted-growth
    order. Coloring w with col kills each live path through w whose mask
    already holds col and adds col to the mask of the others; a pair left
    with no live path is a conflict. The stack holds, per colored vertex,
    (its color, the colors used before it, the paths whose mask grew, the
    paths that died), which is all it takes to undo it.
    """
    table = _path_table(g, k, dist)
    if table is None:
        return None, 0
    inc, pair_of = table
    n = g.n
    path_mask = [0] * len(pair_of)
    path_dead = bytearray(len(pair_of))
    pair_alive = [0] * (n * (n - 1) // 2)
    for pr in pair_of:
        pair_alive[pr] += 1
    colors = [-1] * n
    nodes = 0
    stack: list[tuple[int, int, list[int], list[int]]] = []
    col = used = 0  # the next color to try at vertex len(stack); colors used before it
    while True:
        idx = len(stack)
        if idx == n and used == k:
            return colors, nodes
        # used <= k, so at idx == n the last test fails unless used == k
        if col <= used and col < k and used + (n - idx) >= k:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(f"exact search exceeded node budget {node_budget}")
            colors[idx] = col
            bit = 1 << col
            grown: list[int] = []
            died: list[int] = []
            conflict = False
            for pid in inc[idx]:
                if path_dead[pid]:
                    continue
                if path_mask[pid] & bit:
                    path_dead[pid] = 1
                    died.append(pid)
                    pr = pair_of[pid]
                    pair_alive[pr] -= 1
                    if pair_alive[pr] == 0:
                        conflict = True
                else:
                    path_mask[pid] |= bit
                    grown.append(pid)
            stack.append((col, used, grown, died))
            if not conflict:
                used += col == used
                col = 0
                continue
        elif not stack:
            return None, nodes
        # undo the top vertex (a conflict was pushed just above) and try its next color
        col, used, grown, died = stack.pop()
        bit = 1 << col
        for pid in grown:
            path_mask[pid] ^= bit
        for pid in died:
            path_dead[pid] = 0
            pair_alive[pair_of[pid]] += 1
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
    assignment, nodes = _search(g, k, budget.node_budget, _distances(g))
    if assignment is None:
        return None
    witness = Coloring(tuple(assignment), reported_count=k, method="exact")
    return witness, nodes


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
        assignment, nodes = _search(g, k, budget.node_budget - nodes_total, dist)
        nodes_total += nodes
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
