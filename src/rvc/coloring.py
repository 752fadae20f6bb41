"""Coloring constructions: cycles, balanced ear extensions, 2-connected
graphs via nonincreasing ear decompositions, and block composition.

Counts follow the complete-graph convention: a complete host graph reports
0 even though one physical color is present on the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .decompose import Ear, EarDecomposition, _cycle_edges, _path_edges, ear_decomposition
from .errors import (
    ConstructionError,
    GraphFormatError,
    PreconditionError,
    SearchInconclusiveError,
)
from .graph import Graph, _bfs_dist, block_decomposition, is_2_connected, is_connected
from .verify import (
    _reaches_all_from,
    color_stats,
    has_color_avoiding_connectivity,
    verify_rainbow_vc,
)


@dataclass(frozen=True)
class Coloring:
    """Total vertex-color assignment plus the rvc-style reported count."""

    colors: tuple[int, ...]
    reported_count: int
    method: str = ""

    @property
    def n(self) -> int:
        return len(self.colors)


def serialize_coloring(c: Coloring) -> str:
    """Structured record: vertex count, color array, count, provenance tag."""
    lines = [
        f"vertices {c.n}",
        "colors " + " ".join(map(str, c.colors)),
        f"count {c.reported_count}",
        f"method {c.method or 'unknown'}",
    ]
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> Coloring:
    n = None
    colors: tuple[int, ...] | None = None
    count = None
    method = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "vertices" and len(parts) == 2:
                n = int(parts[1])
            elif parts[0] == "colors":
                colors = tuple(int(p) for p in parts[1:])
            elif parts[0] == "count" and len(parts) == 2:
                count = int(parts[1])
            elif parts[0] == "method" and len(parts) == 2:
                method = parts[1]
            else:
                raise GraphFormatError(f"line {lineno}: unrecognized record line {line!r}")
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed value in {line!r}")
    if colors is None:
        raise GraphFormatError("coloring record is missing a 'colors' line")
    if n is not None and n != len(colors):
        raise GraphFormatError(f"declared {n} vertices but {len(colors)} colors")
    if count is None:
        count = len(set(colors))
    return Coloring(colors, reported_count=count, method=method)


def cycle_rvc_value(n: int) -> int:
    """Exact rainbow vertex-connection number of the n-cycle."""
    if n < 3:
        raise PreconditionError("cycles need at least 3 vertices")
    if n == 3:
        return 0
    if n in (4, 5):
        return 1
    if n == 9:
        return 3
    if n in (6, 7, 8, 10, 11, 12, 13, 15):
        return (n + 1) // 2 - 1
    return (n + 1) // 2  # n == 14 or n >= 16


# Optimal colorings for the cycle orders whose count beats the wraparound
# pattern. Found by exhaustive search (see tests for the regeneration
# check) and verified rainbow vertex-connected.
SMALL_CYCLE_COLORINGS: dict[int, tuple[int, ...]] = {
    6: (0, 0, 0, 1, 0, 1),
    7: (0, 0, 0, 1, 0, 2, 1),
    8: (0, 1, 0, 1, 2, 0, 1, 2),
    9: (0, 1, 2, 0, 1, 2, 0, 1, 2),
    10: (0, 1, 2, 0, 1, 3, 0, 1, 2, 3),
    11: (0, 1, 2, 0, 1, 3, 0, 1, 2, 4, 3),
    12: (0, 1, 2, 3, 0, 1, 4, 2, 0, 1, 3, 4),
    13: (0, 1, 2, 3, 0, 1, 4, 2, 0, 1, 3, 5, 4),
    15: (0, 1, 2, 3, 4, 0, 5, 1, 6, 2, 0, 3, 4, 5, 6),
}


def cycle_coloring(n: int) -> Coloring:
    """A rainbow vertex-coloring of the n-cycle with the optimal count.

    Vertices 0..n-1 are taken in cyclic order. For n = 14 and n >= 16 the
    half-wraparound pattern i mod ceil(n/2) is optimal; small cycles use
    frozen search results.
    """
    if n < 3:
        raise PreconditionError("cycles need at least 3 vertices")
    if n == 3:
        return Coloring((0,) * 3, reported_count=0, method="cycle")
    if n in (4, 5):
        return Coloring((0,) * n, reported_count=1, method="cycle")
    if n == 14 or n >= 16:
        half = (n + 1) // 2
        return Coloring(tuple(i % half for i in range(n)), reported_count=half, method="cycle")
    colors = SMALL_CYCLE_COLORINGS[n]
    return Coloring(colors, reported_count=len(set(colors)), method="cycle")


def _check_balanced_precondition(colors: list[int]) -> int | None:
    """Structural checks on the incoming coloring; returns the once-used
    color when the host order is odd."""
    h_order = len(colors)
    stats = color_stats(colors)
    if stats.distinct != (h_order + 1) // 2:
        raise PreconditionError(
            f"host coloring uses {stats.distinct} colors, expected {(h_order + 1) // 2}"
        )
    if max(stats.histogram.values()) > 2:
        raise PreconditionError("host coloring uses some color more than twice")
    if h_order % 2 == 1:
        if len(stats.once_used) != 1:
            raise PreconditionError("odd-order host coloring must have exactly one once-used color")
        return stats.once_used[0]
    return None


def _apply_balanced(
    colors: list[int],
    ear_path: tuple[int, ...],
    x: int | None,
    placement: int | None,
) -> list[int]:
    """One balanced extension step over prefix ids.

    The host is 0..h-1 and the ear's interior continues the numbering. x is
    the host's once-used color (odd h only). When the extended order is odd,
    placement is the 0-based ear position that receives the new once-used
    color. Fresh colors start after the host's largest color: every color
    allocated by earlier steps still sits on some vertex, so none is reused.
    """
    h_odd = len(colors) % 2
    s = len(ear_path)
    result_odd = (len(colors) + s) % 2
    ca, cb = colors[ear_path[0]], colors[ear_path[-1]]
    fresh = max(colors) + 1
    new = list(range(fresh, fresh + (s - result_odd - 2 - h_odd) // 2))
    first = (new + [ca] if ca != cb else [ca] + new) + ([x] if h_odd else [])
    last = [cb] + new
    out = colors + [0] * (s - 2)
    positions = list(range(s))
    if result_odd:
        out[ear_path[placement]] = fresh + len(new)
        del positions[placement]
    if len(first) + len(last) != len(positions):
        raise AssertionError("balanced sequences do not cover the ear")
    for idx, col in zip(positions, first + last):
        out[ear_path[idx]] = col
    return out


def _star_placement_candidates(
    colors: list[int],
    ear_path: tuple[int, ...],
    star_target: int,
) -> list[int]:
    """0-based ear positions to try for the once-used singleton so that the
    color-avoiding reachability property holds at star_target.

    The prescribed position comes first; the remaining positions follow as
    checked fallbacks for the configurations the construction leaves open.
    """
    s = len(ear_path)
    ell = s - 1
    ceil_s2 = (s + 1) // 2
    case4 = len(colors) % 2 == 1 and ell % 2 == 1
    prescribed: int | None = None
    if star_target in ear_path:
        j = ear_path.index(star_target) + 1  # 1-based position
        for u in (j - ceil_s2, j + ceil_s2):
            if 1 <= u <= s:
                prescribed = u - 1
                break
    elif case4:
        a = ear_path[0]
        if colors[star_target] != colors[a]:
            prescribed = s // 2  # v_{s/2+1}, 0-based
        else:
            prescribed = s // 2 - 1  # v_{s/2}
    else:
        prescribed = ceil_s2 - 1  # middle vertex
    order = list(range(s))
    if prescribed is not None:
        order.remove(prescribed)
        order.insert(0, prescribed)
    if star_target in ear_path:
        # placing the singleton on the target itself would violate c(v) != x
        target_idx = ear_path.index(star_target)
        order = [i for i in order if i != target_idx]
    return order


def _gate(g: Graph, host: list[int], out: list[int], host_verified: bool) -> bool:
    """Whether the extension `out` of the host coloring verifies on g.

    When the host coloring is known to verify on the host graph, and the
    host vertices the extension recolors take pairwise distinct colors
    that no other host vertex carries, every host pair keeps its old
    rainbow path; only the pairs with an ear interior vertex (ids
    len(host) and up) need a search. Otherwise the whole graph is verified.
    """
    h = len(host)
    if host_verified:
        recolored = [v for v in range(h) if out[v] != host[v]]
        new = {out[v] for v in recolored}
        if len(new) == len(recolored) and new.isdisjoint(
            out[v] for v in range(h) if out[v] == host[v]
        ):
            return _reaches_all_from(g, out, range(h, g.n))
    return verify_rainbow_vc(g, out).verified


def _extension_options(
    colors: list[int],
    ear_path: tuple[int, ...],
    g: Graph,
    verdicts: dict[tuple, bool],
    star_target: int | None = None,
    avoid_vertices: frozenset[int] = frozenset(),
    host_verified: bool = False,
):
    """Yield verified balanced extensions of the host coloring across one ear.

    Vertices carry prefix ids: the host is 0..len(colors)-1, the ear's
    interior continues the numbering, and g is the host plus the ear. Each
    yielded item is the extended color list. An extension qualifies when it
    passes `_gate` and, if star_target is given, the color-avoiding
    property holds there. host_verified says that the host coloring
    verifies on the host graph, which lets the gate search only from the
    ear's interior; its verdict is then the full verifier's. For odd
    extended order the singleton placement ranges over the ear (prescribed
    position first); vertices in avoid_vertices never receive the
    singleton (a chain uses this to keep the once-used color off the next
    ear's attachment points). The even case has no free choice, so at most
    one extension is yielded. verdicts caches the verification verdict per
    extended coloring, and the avoiding verdict under (coloring,
    star_target); a chain shares one cache across its ears, since a
    coloring's length fixes g and the coloring fixes its once-used color.
    """
    x = _check_balanced_precondition(colors)
    s = len(ear_path)
    if (len(colors) + s) % 2 == 0:
        placements: list[int | None] = [None]
    elif star_target is not None:
        placements = _star_placement_candidates(colors, ear_path, star_target)
    else:
        mid = (s + 1) // 2 - 1
        placements = [mid] + [i for i in range(s) if i != mid]
    for placement in placements:
        if placement is not None and ear_path[placement] in avoid_vertices:
            continue
        out = _apply_balanced(colors, ear_path, x, placement)
        key = tuple(out)
        if key not in verdicts:
            verdicts[key] = _gate(g, colors, out, host_verified)
        if not verdicts[key]:
            continue
        if star_target is not None:
            avoid_key = (key, star_target)
            if avoid_key not in verdicts:
                verdicts[avoid_key] = has_color_avoiding_connectivity(
                    g, out, star_target, out[ear_path[placement]]
                )
            if not verdicts[avoid_key]:
                continue
        yield out


def attach_ear(h: Graph, a: int, b: int, interior_count: int) -> tuple[Graph, Ear]:
    """Grow h by a fresh ear from a to b with interior_count new vertices."""
    if a == b:
        raise PreconditionError("ear endpoints must be distinct")
    if not (0 <= a < h.n and 0 <= b < h.n):
        raise PreconditionError("ear endpoints must be vertices of the host graph")
    if interior_count < 1:
        raise PreconditionError("an attached ear needs at least one interior vertex")
    path = (a,) + tuple(range(h.n, h.n + interior_count)) + (b,)
    return Graph(h.n + interior_count, [*h.edges, *_path_edges(path)]), Ear(path)


def balanced_coloring(
    h: Graph,
    c_prime: Coloring,
    p: Ear,
    star_target: int | None = None,
) -> Coloring:
    """Extend a half-order revised rainbow coloring of h across the ear p.

    The ear's interior ids must continue h's id space densely (use
    attach_ear to build such instances). When the extended order is odd and
    star_target is given, the once-used color is placed so every vertex not
    carrying it stays reachable from star_target by a revised rainbow path
    avoiding it. For an odd-order host, the once-used color must not sit on
    the ear's first attachment p.a.
    """
    s = len(p.path)
    if s < 6:
        raise PreconditionError("balanced coloring needs an ear on at least 6 vertices")
    if not (0 <= p.a < h.n and 0 <= p.b < h.n):
        raise PreconditionError("ear attachment vertices must lie in the host graph")
    if sorted(p.interior) != list(range(h.n, h.n + s - 2)):
        raise PreconditionError(
            "ear interior must be the next dense vertex ids after the host"
        )
    if len(c_prime.colors) != h.n:
        raise PreconditionError("host coloring does not cover the host graph")
    n2 = h.n + s - 2
    if star_target is not None:
        if n2 % 2 == 0:
            raise PreconditionError(
                "a star target is only meaningful when the extended order is odd"
            )
        if not 0 <= star_target < n2:
            raise PreconditionError("star target is not a vertex of the extended graph")
    colors = list(c_prime.colors)
    if _check_balanced_precondition(colors) == colors[p.a]:
        raise PreconditionError(
            "the once-used color must differ from the first attachment's color"
        )
    g2 = Graph(n2, [*h.edges, *_path_edges(p.path)])
    out = next(_extension_options(colors, p.path, g2, {}, star_target), None)
    if out is None:
        raise ConstructionError(
            "no balanced extension verifies"
            + (f" with the avoiding property at vertex {star_target}" if star_target is not None else "")
        )
    return Coloring(tuple(out), reported_count=len(set(out)), method="balanced")


_CHAIN_STEP_BUDGET = 600


def _balanced_chain(
    initial_cycle: tuple[int, ...],
    ears: list[Ear],
    final_target: int | None = None,
) -> dict[int, int]:
    """Base cycle coloring followed by one balanced extension per ear.

    Vertices are renumbered once, in insertion order (the cycle, then each
    ear's interior), so every intermediate host is the prefix 0..k-1 and
    the graph after each ear is built once, before the search. The
    construction's free choices (singleton placements, the orientation of
    each ear where it is not pinned) are searched depth-first with every
    extension verify-gated, so a dead end at a later ear backtracks to an
    earlier choice. When an intermediate order is odd, the chain prepares
    the color-avoiding property at one endpoint of the next ear (pinning
    that ear's orientation) and keeps the singleton off the other endpoint,
    so the next step never sees an attachment carrying the once-used color.
    final_target asks for the avoiding property at that vertex in the last
    (odd-order) extension. Returns the coloring keyed by the original
    vertex ids. Raises ConstructionError when the search finishes without
    a verified chain and SearchInconclusiveError when it runs out of steps
    first.

    The search keeps one generator of candidate extensions per ear on an
    explicit stack. A state is an extension plus the orientation of the
    next ear; its subtree depends on nothing else, so a state met again
    has already failed and is skipped. Each new state costs one step, and
    each candidate coloring is verified, and its avoiding property checked
    for a target, once per search.
    """
    n0 = len(initial_cycle)
    if n0 % 2 == 1:
        if ears:
            raise PreconditionError(
                "an odd initial cycle is only valid when the graph is that cycle"
            )
        if final_target is not None:
            raise PreconditionError("an odd cycle alone admits no placement choice")
    for ear in ears:
        if len(ear.path) < 6:
            raise PreconditionError("balanced chain requires ears of length at least 5")
    order = list(initial_cycle) + [v for ear in ears for v in ear.interior]
    dense = {v: i for i, v in enumerate(order)}
    if len(dense) != len(order):
        raise PreconditionError("ear interiors must be vertices not yet in the chain")
    paths = tuple(tuple(dense[v] for v in ear.path) for ear in ears)
    edges = _cycle_edges(tuple(range(n0)))
    graphs = []
    n = n0
    for path in paths:
        edges = edges + _path_edges(path)
        n += len(path) - 2
        graphs.append(Graph(n, edges))
    target = None if final_target is None else dense[final_target]
    verdicts: dict[tuple, bool] = {}

    def extensions(colors: list[int], idx: int, path: tuple[int, ...]):
        """Yield (extension across ear idx, next ear as oriented for it)."""
        nxt = paths[idx + 1] if idx + 1 < len(paths) else None
        odd = (len(colors) + len(path)) % 2 == 1
        if odd and nxt is not None:
            # preferred: prepare the avoiding property at one endpoint of
            # the next ear and keep the singleton off the other; fallbacks
            # drop the preparation and trust the verify gates
            plans = [(nxt[0], frozenset({nxt[-1]}), False),
                     (nxt[-1], frozenset({nxt[0]}), True),
                     (None, frozenset({nxt[0], nxt[-1]}), False),
                     (None, frozenset(), False)]
        elif odd and target is not None:
            plans = [(target, frozenset(), False)]
        else:
            plans = [(None, frozenset(), False)]
        # when a previous step prepared the avoiding property at path[0],
        # that orientation goes first; the flipped one stays as a gated
        # fallback since every extension is verified anyway
        for oriented in (path, path[::-1]):
            for star, avoid, flip_next in plans:
                for out in _extension_options(
                    colors, oriented, graphs[idx], verdicts, star, avoid, host_verified=True
                ):
                    yield out, (nxt[::-1] if flip_next else nxt)

    # every host verifies: later ones passed their gate, and on the base
    # cycle the shorter arc between two vertices has at most n0/2 - 1
    # consecutive internal vertices, which i mod n0/2 colors distinctly
    colors = [i % ((n0 + 1) // 2) for i in range(n0)]
    if not paths:
        return dict(zip(order, colors))
    seen = set()
    steps_left = _CHAIN_STEP_BUDGET
    stack = [extensions(colors, 0, paths[0])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        out, nxt = state
        key = (tuple(out), nxt)
        if key in seen:
            continue
        seen.add(key)
        steps_left -= 1
        if steps_left < 0:
            raise SearchInconclusiveError("balanced chain search budget exhausted")
        if nxt is None:
            return dict(zip(order, out))
        stack.append(extensions(out, len(stack), nxt))
    raise ConstructionError("no verified balanced chain exists for this decomposition")


def balanced_chain_coloring(
    n0: int,
    ears,
    final_target: int | None = None,
) -> tuple[Graph, Coloring]:
    """Grow an even base cycle 0..n0-1 by successive balanced ear extensions.

    Each ear must attach to two distinct existing vertices and bring fresh
    dense interior ids (attach_ear produces this shape). final_target asks
    for the color-avoiding property at that vertex when the final order is
    odd. Returns the grown graph and its coloring. Raises ConstructionError
    when the search proves that no verified chain exists, and
    SearchInconclusiveError when it runs out of steps before deciding.
    """
    if n0 < 4 or n0 % 2 == 1:
        raise PreconditionError("the base cycle must be even, on at least 4 vertices")
    cyc = tuple(range(n0))
    edges = _cycle_edges(cyc)
    n = n0
    for ear in ears:
        s = len(ear.path)
        if not (0 <= ear.a < n and 0 <= ear.b < n):
            raise PreconditionError("ear attachments must be existing vertices")
        if sorted(ear.interior) != list(range(n, n + s - 2)):
            raise PreconditionError("ear interior must be the next dense vertex ids")
        edges += _path_edges(ear.path)
        n += s - 2
    if final_target is not None and not (0 <= final_target < n):
        raise PreconditionError("final target is not a vertex of the grown graph")
    if final_target is not None and n % 2 == 0:
        raise PreconditionError("a final target is only meaningful for odd final order")
    g = Graph(n, edges)
    colors = _balanced_chain(cyc, list(ears), final_target)
    flat = tuple(colors[v] for v in range(n))
    return g, Coloring(flat, reported_count=len(set(flat)), method="balanced")


def long_ear_coloring(g: Graph, d: EarDecomposition) -> Coloring:
    """Revised half-order rainbow coloring of a 2-connected graph whose ear
    decomposition has only ears of length >= 5 (or none at all).

    Every color is used at most twice; for odd order exactly one color is
    used once.
    """
    if not is_2_connected(g):
        raise PreconditionError("long_ear_coloring requires a 2-connected graph")
    if g.n < 16:
        raise PreconditionError("long_ear_coloring is stated for order at least 16")
    if any(e.length < 5 for e in d.ears):
        raise PreconditionError("long_ear_coloring requires every ear length >= 5")
    if d.replay_edges() != set(g.edges):
        raise PreconditionError("decomposition does not reconstruct the graph")
    colors = _balanced_chain(d.initial_cycle, list(d.ears))
    flat = tuple(colors[v] for v in range(g.n))
    return Coloring(flat, reported_count=len(set(flat)), method="long-ear")


def _cycle_order(g: Graph) -> tuple[int, ...]:
    """Vertex sequence of a cycle graph, starting at 0, smaller neighbor first."""
    order = [0, min(g.adj(0))]
    while len(order) < g.n:
        nxt = [w for w in g.adj(order[-1]) if w != order[-2]]
        order.append(nxt[0])
    return tuple(order)


def _short_ear_colors(
    c_t: dict[int, int],
    short_ears: list[Ear],
    x: int,
) -> dict[int, int]:
    """Color short ears (length 2..4) on top of the long-prefix coloring.

    Length-4 ears pair a fresh color across a_j and the third interior
    vertex and push a_j's old color inward; centers share one fresh color
    when there are several length-4 ears, otherwise reuse x. Length-3 ears
    do the same without a center; length-2 interiors reuse x. Later ears
    win recoloring conflicts at shared attachment vertices. Fresh colors
    start after c_t's largest color, which is the chain's last allocation.
    """
    out = dict(c_t)
    fresh = count(max(c_t.values()) + 1)
    four_count = sum(1 for e in short_ears if e.length == 4)
    x0 = next(fresh) if four_count >= 2 else None
    queue = sorted(short_ears, key=lambda e: (-e.length, e.path))
    ordered: list[Ear] = []
    colored = set(c_t)
    while queue:
        # an attachment can sit on another short ear's interior; that ear
        # must be colored first, so defer until the attachment has a color
        ready = next((e for e in queue if e.a in colored), None)
        if ready is None:
            raise AssertionError("short ears form an unresolvable attachment chain")
        queue.remove(ready)
        ordered.append(ready)
        colored.update(ready.interior)
    for ear in ordered:
        a = ear.a
        old_a = c_t[a] if a in c_t else out[a]
        if ear.length == 4:
            v1, v2, v3 = ear.interior
            xj = next(fresh)
            out[a] = xj
            out[v3] = xj
            out[v1] = old_a
            out[v2] = x0 if x0 is not None else x
        elif ear.length == 3:
            v1, v2 = ear.interior
            xj = next(fresh)
            out[a] = xj
            out[v2] = xj
            out[v1] = old_a
        elif ear.length == 2:
            out[ear.interior[0]] = x
        else:
            raise AssertionError("short ears have length 2..4")
    return out


def _verified(g: Graph, coloring: Coloring) -> Coloring:
    """The coloring, once the verifier accepts it on g."""
    cert = verify_rainbow_vc(g, coloring.colors)
    if not cert.verified:
        raise ConstructionError(f"construction failed verification at pair {cert.failing_pair}")
    return coloring


def two_connected_coloring(g: Graph) -> Coloring:
    """Rainbow vertex-coloring of a 2-connected graph with at most as many
    colors as the same-order cycle needs.

    Pipeline: nonincreasing ear decomposition; balanced chain over the
    ears of length >= 5; explicit rules for ears of length 2..4; chords
    need no colors of their own. Complete graphs, cycles and diameter-2
    graphs take their direct colorings, and small orders the pipeline
    cannot serve fall back to the exact search. The diameter-2 test runs
    one breadth-first search per vertex and stops at the first vertex
    with another more than 2 away. Every result is verified on g once
    before it is returned; a failing check raises ConstructionError.
    """
    if not is_2_connected(g):
        raise PreconditionError("two_connected_coloring requires a 2-connected graph")
    n = g.n
    if g.is_complete():
        return _verified(g, Coloring((0,) * n, reported_count=0, method="complete"))
    if g.m == n:  # a cycle
        pattern = cycle_coloring(n)
        order = _cycle_order(g)
        flat = [0] * n
        for pos, v in enumerate(order):
            flat[v] = pattern.colors[pos]
        return _verified(g, Coloring(tuple(flat), pattern.reported_count, method="cycle"))
    if all(max(_bfs_dist(g, s)) <= 2 for s in range(n)):
        # a non-adjacent pair has a common neighbour, its path's only internal vertex
        return _verified(g, Coloring((0,) * n, reported_count=1, method="two-connected"))
    attempt = _two_connected_pipeline(g)
    if attempt is not None:
        return attempt
    cap = cycle_rvc_value(n)
    if n <= 15:
        from .oracle import SearchBudget, exact_rvc

        found = exact_rvc(g, budget=SearchBudget(max_vertices=n)).witness  # verified there
        if found.reported_count <= cap:
            return Coloring(found.colors, found.reported_count, method="two-connected")
    raise ConstructionError(
        f"no verified coloring within {cap} colors was constructed for n={n}"
    )


def _two_connected_pipeline(g: Graph) -> Coloring | None:
    """Decomposition-driven construction, verified on g by the check that
    accepts its reuse color; None when it needs more colors than the cycle
    or no reuse color verifies."""
    d = ear_decomposition(g)
    long_ears: list[Ear] = []
    rest: list[Ear] = []
    for ear in d.ears:
        if ear.length >= 5 and not rest:
            long_ears.append(ear)
        else:
            rest.append(ear)
    if any(e.length >= 5 for e in rest):
        # only possible when a budget-exhausted ear search broke monotonicity
        raise ConstructionError(
            "the ear search ran out of its budget, so the ear lengths are not nonincreasing"
        )
    short_ears = [e for e in rest if 2 <= e.length <= 4]
    c_t = _balanced_chain(d.initial_cycle, long_ears)

    once = color_stats(c_t.values()).once_used
    candidates = [*once, *sorted(set(c_t.values()) - set(once))]
    for x in candidates:
        colors = _short_ear_colors(c_t, short_ears, x)
        if len(colors) != g.n:
            raise AssertionError("pipeline did not color every vertex")
        flat = tuple(colors[v] for v in range(g.n))
        if len(set(flat)) > cycle_rvc_value(g.n):
            return None  # count is independent of the reuse color; retrying cannot help
        if verify_rainbow_vc(g, flat).verified:
            return Coloring(flat, reported_count=len(set(flat)), method="two-connected")
    return None


def block_coloring(g: Graph) -> Coloring:
    """Rainbow vertex-coloring of any connected graph, verified on g once.

    A complete graph (n < 2 included) takes the complete record and a
    2-connected graph its `two_connected_coloring`. Otherwise each
    non-complete block gets its own palette and the cut vertices fresh
    distinct colors. Palettes are laid side by side from color 0. The
    vertices of complete blocks that are not cut vertices keep color 0;
    when every block is complete, that is the color of the first cut
    vertex.
    """
    if not is_connected(g):
        raise PreconditionError("block_coloring requires a connected graph")
    if g.is_complete():
        return _verified(g, Coloring((0,) * g.n, reported_count=0, method="complete"))
    if is_2_connected(g):
        return two_connected_coloring(g)
    bd = block_decomposition(g)
    flat = [0] * g.n
    offset = 0
    for block in bd.blocks:
        sub, back = g.induced(block)
        if sub.is_complete():
            continue
        sub_coloring = two_connected_coloring(sub)
        for new_id, col in enumerate(sub_coloring.colors):
            flat[back[new_id]] = col + offset
        offset += max(sub_coloring.colors) + 1
    for i, v in enumerate(sorted(bd.cut_vertices)):
        flat[v] = offset + i
    return _verified(g, Coloring(tuple(flat), reported_count=len(set(flat)), method="blocks"))


def block_bound(g: Graph) -> int:
    """Sum of per-block cycle bounds plus the cut-vertex count."""
    if g.is_complete():
        return 0
    bd = block_decomposition(g)
    total = bd.t
    for block in bd.blocks:
        sub, _ = g.induced(block)
        if not sub.is_complete():
            total += cycle_rvc_value(sub.n)
    return total
