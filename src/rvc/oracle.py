"""Brute-force exact rainbow vertex-connection numbers on small graphs.

Colorings are enumerated as restricted-growth strings (the first use of
color i precedes the first use of color i+1), which removes the k!
palette symmetry. Pruning is driven by a per-pair table of all simple
paths: a path dies as soon as two of its colored internal vertices share a
color, and a partial assignment is rejected the moment some pair has no
live path left. Paths with more internal vertices than there are colors
are dropped before the search starts, which is what makes the exhaustive
nonexistence checks on mid-size cycles finish at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .coloring import Coloring
from .errors import BudgetExceededError, PreconditionError
from .graph import Graph, all_pairs, diameter, is_2_connected, is_connected
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


def _enumerate_paths(g: Graph, u: int, v: int, max_internal: int) -> list[tuple[int, ...]]:
    """All simple u-v paths with at most max_internal internal vertices."""
    out: list[tuple[int, ...]] = []
    path = [u]
    on_path = {u}

    def dfs(w: int):
        for x in sorted(g.adj(w)):
            if x == v:
                out.append(tuple(path) + (v,))
                continue
            if x in on_path or len(path) - 1 >= max_internal:
                continue
            path.append(x)
            on_path.add(x)
            dfs(x)
            path.pop()
            on_path.remove(x)

    dfs(u)
    return out


class _FixedKSearch:
    """Backtracking search for one coloring with exactly k colors."""

    def __init__(self, g: Graph, k: int, node_budget: int):
        self.g = g
        self.k = k
        self.node_budget = node_budget
        self.nodes = 0
        n = g.n
        # a path with more internal vertices than colors can never qualify
        max_internal = k

        self.pairs = list(all_pairs(n))
        self.feasible = True
        paths: list[tuple[int, ...]] = []
        pair_of: list[int] = []
        total = 0
        for pid_pair, (u, v) in enumerate(self.pairs):
            cand = _enumerate_paths(g, u, v, max_internal)
            if not cand:
                # no path short enough for k colors: no k-coloring can work
                self.feasible = False
                return
            total += sum(len(p) for p in cand)
            if total > MAX_PATH_TABLE:
                raise BudgetExceededError(
                    "path table too large; shrink the instance"
                )
            for p in cand:
                paths.append(p)
                pair_of.append(pid_pair)

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
        if not self.feasible:
            return None
        return self._rec(0, 0)

    def _rec(self, idx: int, used: int) -> list[int] | None:
        n = self.g.n
        if idx == n:
            return list(self.colors) if used == self.k else None
        if used + (n - idx) < self.k:
            return None  # cannot reach exactly k colors
        for col in range(min(used + 1, self.k)):
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise BudgetExceededError(
                    f"exact search exceeded node budget {self.node_budget}"
                )
            self.colors[idx] = col
            conflict, frame = self._assign(idx, col)
            if not conflict:
                result = self._rec(idx + 1, used + (1 if col == used else 0))
                if result is not None:
                    return result
            self._undo(frame)
        self.colors[idx] = -1
        return None


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
    search = _FixedKSearch(g, k, budget.node_budget)
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
    lb = max(diameter(g) - 1, 1)
    nodes_total = 0
    for k in range(lb, g.n + 1):
        search = _FixedKSearch(g, k, budget.node_budget - nodes_total)
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
    budget: SearchBudget = DEFAULT_BUDGET,
) -> list[TableRow]:
    """Cycle rvc values three ways: constructed, exact (small n), closed form.

    The constructed coloring is re-verified for every row.
    """
    from .coloring import cycle_coloring, cycle_rvc_value

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
