"""Even-cycle detection and nonincreasing ear decompositions of 2-connected graphs.

An ear of a subgraph H in G is a nontrivial path whose two ends lie in H
(and are distinct) but whose internal vertices do not. The decomposition
grows an initial cycle by repeatedly attaching a longest remaining ear, so
ear lengths come out nonincreasing and chords (length-1 ears) land last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, PreconditionError
from .graph import Graph, _norm_edge as _norm, is_2_connected

DEFAULT_EAR_BUDGET = 500_000


@dataclass(frozen=True)
class Ear:
    """A path with both ends in the host subgraph and fresh interior vertices."""

    path: tuple[int, ...]
    heuristic: bool = False  # longest-ear search ran out of budget

    @property
    def a(self) -> int:
        return self.path[0]

    @property
    def b(self) -> int:
        return self.path[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.path[1:-1]

    @property
    def length(self) -> int:
        return len(self.path) - 1

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("an ear has at least two vertices")
        if self.path[0] == self.path[-1]:
            raise ValueError("ear endpoints must be distinct")


@dataclass(frozen=True)
class EarDecomposition:
    """Initial cycle plus ordered ears whose union reconstructs the graph."""

    initial_cycle: tuple[int, ...]
    ears: tuple[Ear, ...] = field(default_factory=tuple)
    heuristic_cycle: bool = False  # the initial cycle's ear search ran out of budget

    @property
    def t(self) -> int:
        """Number of leading ears of length >= 2 (the rest are chords)."""
        t = 0
        for ear in self.ears:
            if ear.length < 2:
                break
            t += 1
        return t

    def replay_edges(self) -> set[tuple[int, int]]:
        """Edge set reconstructed from the initial cycle and the ears."""
        edges = set(_cycle_edges(self.initial_cycle))
        for ear in self.ears:
            edges.update(_path_edges(ear.path))
        return edges


def _path_edges(path: tuple[int, ...]) -> list[tuple[int, int]]:
    return [_norm(path[i], path[i + 1]) for i in range(len(path) - 1)]


def _cycle_edges(cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    return _path_edges(cycle) + [_norm(cycle[-1], cycle[0])]


def _dfs_cycle(g: Graph) -> tuple[int, ...]:
    """Some cycle of g, via the first depth-first back edge."""
    parent = [-1] * g.n
    disc = [-1] * g.n
    disc[0] = 0
    timer = 1
    stack = [(0, iter(sorted(g.adj(0))))]
    while stack:
        u, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                parent[w] = u
                disc[w] = timer
                timer += 1
                stack.append((w, iter(sorted(g.adj(w)))))
                break
            if w != parent[u] and disc[w] < disc[u]:
                # back edge (u, w): the tree path w..u plus this edge closes a cycle
                cyc = [u]
                x = u
                while x != w:
                    x = parent[x]
                    cyc.append(x)
                cyc.reverse()
                return tuple(cyc)
        else:
            stack.pop()
    raise PreconditionError("graph has no cycle")


def _longest_ear_impl(
    g: Graph,
    h_vertices: set[int],
    h_edges: set[tuple[int, int]],
    budget: int,
) -> Ear | None:
    """Exhaustive depth-first enumeration of ears of (h_vertices, h_edges) in g.

    Returns the longest ear, ties broken by lexicographically smallest
    vertex sequence. None when no ear exists. The node budget bounds path
    extensions; on exhaustion the best ear found so far carries the
    heuristic flag, and exhaustion before any ear was found raises. The
    walk keeps one iterator over sorted neighbours per path vertex on an
    explicit stack, so an ear's length is not bounded by the recursion
    limit. Roots ascend and neighbours are taken in ascending order, so
    ears are met in lexicographic order; no ear has more interior vertices
    than the graph has outside h, so the first ear through all of them is
    the answer and the walk stops there, never marking it heuristic.
    Chords (length-1 ears) cost no budget; they are looked for only when
    the walk found no longer ear.
    """
    best: tuple[int, ...] = ()  # its key (0, ()) sorts after every (-len(ear), ear)
    longest = g.n - len(h_vertices) + 2  # vertices on an ear through every fresh one
    nodes = 0
    exhausted = False
    for a in sorted(h_vertices):
        path = [a]
        on_path = {a}
        stack = [iter(sorted(g.adj(a)))]
        while stack and not exhausted:
            for w in stack[-1]:
                if w in h_vertices:
                    if w != a and len(path) >= 2:
                        ear = (*path, w)
                        if (-len(ear), ear) < (-len(best), best):
                            best = ear
                            if len(ear) == longest:
                                return Ear(ear)
                    continue
                if w in on_path:
                    continue
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    break
                path.append(w)
                on_path.add(w)
                stack.append(iter(sorted(g.adj(w))))
                break
            else:
                stack.pop()
                on_path.remove(path.pop())
    if not best:
        # the first chord in (a, b) order is the lexicographically smallest
        best = next(
            ((a, b) for a in sorted(h_vertices) for b in sorted(g.adj(a))
             if b in h_vertices and _norm(a, b) not in h_edges),
            (),
        )
    if not best:
        if exhausted:
            raise BudgetExceededError(
                "ear search budget exhausted before any ear was found"
            )
        return None
    return Ear(best, heuristic=exhausted)


def longest_ear(g: Graph, h: Graph, budget: int = DEFAULT_EAR_BUDGET) -> Ear:
    """Longest ear of subgraph h in g, with deterministic tie-breaking.

    h must share g's vertex id space; its vertex set is taken to be the
    endpoints of its edges.
    """
    if not is_2_connected(g):
        raise PreconditionError("longest_ear requires a 2-connected host graph")
    if not h.edges <= g.edges:
        raise PreconditionError("h is not a subgraph of g")
    ear = _longest_ear_impl(g, {u for e in h.edges for u in e}, set(h.edges), budget)
    if ear is None:
        raise PreconditionError("h already contains every edge of g; no ear exists")
    return ear


def find_initial_cycle(g: Graph, budget: int = DEFAULT_EAR_BUDGET) -> tuple[int, ...]:
    """An even cycle of g, or g's full cycle when g is an odd cycle.

    Takes any depth-first cycle; when it is odd and g is more than that
    cycle, an ear of it splits g into two cycles of opposite parity and the
    even one is returned. `budget` bounds that ear search.
    """
    if not is_2_connected(g):
        raise PreconditionError("find_initial_cycle requires a 2-connected graph")
    return _initial_cycle(g, budget)[0]


def _initial_cycle(g: Graph, budget: int) -> tuple[tuple[int, ...], bool]:
    """`find_initial_cycle` on a 2-connected g, with whether the ear that
    split an odd depth-first cycle came from a search that ran out of
    budget (then the cycle may differ from the one a full search gives)."""
    cyc = _dfs_cycle(g)
    if len(cyc) % 2 == 0:
        return cyc, False
    if g.m == g.n == len(cyc):
        return cyc, False  # g is this odd cycle
    verts = set(cyc)
    edges = set(_cycle_edges(cyc))
    ear = _longest_ear_impl(g, verts, edges, budget)
    if ear is None:
        raise PreconditionError("no ear of the initial cycle exists")
    ia, ib = cyc.index(ear.a), cyc.index(ear.b)
    if ia > ib:
        ia, ib = ib, ia
    arc_in = cyc[ia : ib + 1]  # ia..ib along the cycle
    arc_out = cyc[ib:] + cyc[: ia + 1]  # ib..end..ia the other way
    for arc in (arc_in, arc_out):
        # cycle = arc (a'..b') plus the ear walked back from b' to a'
        ear_path = ear.path if arc[0] == ear.a else tuple(reversed(ear.path))
        cycle_seq = arc + ear_path[-2:0:-1]
        if len(cycle_seq) % 2 == 0:
            return cycle_seq, ear.heuristic
    raise AssertionError("one of the two ear cycles must be even")


def ear_decomposition(g: Graph, budget: int = DEFAULT_EAR_BUDGET) -> EarDecomposition:
    """Nonincreasing ear decomposition built by greedy longest-ear attachment.

    The initial cycle is even unless g itself is an odd cycle; every
    prefix is 2-connected; replaying the ears reconstructs g exactly.
    `budget` bounds each ear search, the initial cycle's included; an
    initial cycle whose ear search ran out sets `heuristic_cycle`. Once
    every vertex is covered, a search would return the smallest uncovered
    edge, so the remaining edges follow in ascending order as chords,
    with no search.
    """
    if not is_2_connected(g):
        raise PreconditionError("ear_decomposition requires a 2-connected graph")
    cyc, heuristic_cycle = _initial_cycle(g, budget)
    covered_v = set(cyc)
    covered_e = set(_cycle_edges(cyc))
    ears: list[Ear] = []
    while len(covered_v) < g.n:
        ear = _longest_ear_impl(g, covered_v, covered_e, budget)
        if ear is None:
            raise AssertionError("uncovered edges remain but no ear was found")
        new_edges = set(_path_edges(ear.path)) - covered_e
        if not new_edges:
            raise AssertionError(f"ear {ear.path} adds no new edge")
        ears.append(ear)
        covered_v.update(ear.path)
        covered_e.update(new_edges)
    ears.extend(Ear(chord) for chord in sorted(g.edges - covered_e))
    return EarDecomposition(cyc, tuple(ears), heuristic_cycle)


def serialize_decomposition(d: EarDecomposition) -> str:
    """Structured text record: cycle, one line per ear, then t."""
    lines = ["cycle " + " ".join(map(str, d.initial_cycle))]
    for ear in d.ears:
        lines.append("ear " + " ".join(map(str, ear.path)) + f" length {ear.length}")
    lines.append(f"t {d.t}")
    return "\n".join(lines) + "\n"
