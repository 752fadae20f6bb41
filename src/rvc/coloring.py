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
from .graph import Graph, block_decomposition, diameter, is_2_connected, is_connected
from .verify import (
    Certificate,
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

    def distinct(self) -> int:
        return len(set(self.colors))


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


def _extension_options(
    colors: list[int],
    ear_path: tuple[int, ...],
    g: Graph,
    star_target: int | None = None,
    avoid_vertices: frozenset[int] = frozenset(),
):
    """Yield verified balanced extensions of the host coloring across one ear.

    Vertices carry prefix ids: the host is 0..len(colors)-1, the ear's
    interior continues the numbering, and g is the host plus the ear. Each
    yielded item is the extended color list. An extension qualifies when it
    verifies revised-rainbow and, if star_target is given, the
    color-avoiding property holds there. For odd extended order the
    singleton placement ranges over the ear (prescribed position first);
    vertices in avoid_vertices never receive the singleton (a chain uses
    this to keep the once-used color off the next ear's attachment points).
    The even case has no free choice, so at most one extension is yielded.
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
        if not verify_rainbow_vc(g, out).verified:
            continue
        if star_target is not None and not has_color_avoiding_connectivity(
            g, out, star_target, out[ear_path[placement]]
        ):
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
    out = next(_extension_options(colors, p.path, g2, star_target), None)
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
    steps_left = _CHAIN_STEP_BUDGET

    def dfs(colors: list[int], idx: int,
            paths: tuple[tuple[int, ...], ...]) -> list[int] | None:
        nonlocal steps_left
        if idx == len(paths):
            return colors
        path = paths[idx]
        odd = (len(colors) + len(path)) % 2 == 1
        if odd and idx + 1 < len(paths):
            nxt = paths[idx + 1]
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
                for out in _extension_options(colors, oriented, graphs[idx], star, avoid):
                    steps_left -= 1
                    if steps_left < 0:
                        raise SearchInconclusiveError("balanced chain search budget exhausted")
                    nxt_paths = paths
                    if flip_next:
                        nxt_paths = paths[:idx + 1] + (paths[idx + 1][::-1],) + paths[idx + 2:]
                    result = dfs(out, idx + 1, nxt_paths)
                    if result is not None:
                        return result
        return None

    result = dfs([i % ((n0 + 1) // 2) for i in range(n0)], 0, paths)
    dfs = None  # the recursive closure refers to itself; free the prefix graphs now
    if result is None:
        raise ConstructionError("no verified balanced chain exists for this decomposition")
    return dict(zip(order, result))


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


def _search_capped(g: Graph, cap: int) -> Coloring | None:
    """Bounded exhaustive witness search with at most cap colors."""
    from .oracle import SearchBudget, find_rainbow_coloring

    lb = max(diameter(g) - 1, 1)
    budget = SearchBudget(max_vertices=g.n)
    for k in range(lb, cap + 1):
        found = find_rainbow_coloring(g, k, budget=budget)
        if found is not None:
            coloring, _ = found
            return Coloring(coloring.colors, coloring.reported_count, method="exact")
    return None


def two_connected_coloring(g: Graph) -> Coloring:
    """Rainbow vertex-coloring of a 2-connected graph with at most as many
    colors as the same-order cycle needs.

    Pipeline: nonincreasing ear decomposition; balanced chain over the
    ears of length >= 5; explicit rules for ears of length 2..4; chords
    need no colors of their own. The result is verified before being
    returned, retrying each available reuse color if needed, and small
    orders fall back to a capped exhaustive search.
    """
    return _two_connected_certified(g)[0]


def _two_connected_certified(g: Graph) -> tuple[Coloring, Certificate | None]:
    """`two_connected_coloring` plus the certificate of its final check on g;
    None for cycles, complete graphs and the capped search, which are not
    verified here."""
    if not is_2_connected(g):
        raise PreconditionError("two_connected_coloring requires a 2-connected graph")
    n = g.n
    if g.is_complete():
        return Coloring((0,) * n, reported_count=0, method="complete"), None
    if g.m == n:  # a cycle
        pattern = cycle_coloring(n)
        order = _cycle_order(g)
        flat = [0] * n
        for pos, v in enumerate(order):
            flat[v] = pattern.colors[pos]
        return Coloring(tuple(flat), pattern.reported_count, method="cycle"), None
    cap = cycle_rvc_value(n)
    if diameter(g) == 2:
        flat = (0,) * n
        cert = verify_rainbow_vc(g, flat)
        if cert.verified:
            return Coloring(flat, reported_count=1, method="two-connected"), cert

    attempt = _two_connected_pipeline(g)
    if attempt is not None:
        return attempt
    if n <= 15:
        found = _search_capped(g, cap)
        if found is not None:
            return Coloring(found.colors, found.reported_count, method="two-connected"), None
    raise ConstructionError(
        f"no verified coloring within {cap} colors was constructed for n={n}"
    )


def _two_connected_pipeline(g: Graph) -> tuple[Coloring, Certificate] | None:
    """Decomposition-driven construction and the certificate that accepted
    it; None when it needs more colors than the cycle or no reuse color
    verifies."""
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
            "ear lengths are not nonincreasing; rerun with a larger ear budget"
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
        cert = verify_rainbow_vc(g, flat)
        if cert.verified:
            return Coloring(flat, reported_count=len(set(flat)), method="two-connected"), cert
    return None


def block_coloring(g: Graph) -> Coloring:
    """Rainbow vertex-coloring of a connected graph, one palette per
    non-complete block plus fresh distinct colors on the cut vertices.

    Complete blocks reuse a color from the first non-complete block's
    palette; when every block is complete the cut vertices' colors and one
    shared color suffice.
    """
    return _block_certified(g)[0]


def _block_certified(g: Graph) -> tuple[Coloring, Certificate | None]:
    """`block_coloring` plus the certificate of its whole-graph check; None
    for a complete graph, which is not verified here."""
    if g.n < 2:
        raise PreconditionError("block_coloring requires at least 2 vertices")
    if not is_connected(g):
        raise PreconditionError("block_coloring requires a connected graph")
    if g.is_complete():
        return Coloring((0,) * g.n, reported_count=0, method="complete"), None
    bd = block_decomposition(g)
    cuts = sorted(bd.cut_vertices)
    flat = [0] * g.n

    block_graphs = []
    any_noncomplete = False
    for block in bd.blocks:
        sub, back = g.induced(block)
        complete = sub.is_complete()
        any_noncomplete = any_noncomplete or not complete
        block_graphs.append((sub, back, complete))

    if not any_noncomplete:
        # cut vertices distinct, everything else shares the first cut color
        for i, v in enumerate(cuts):
            flat[v] = i
    else:
        offset = 0
        reuse_color: int | None = None
        for sub, back, complete in block_graphs:
            if complete:
                continue
            sub_coloring = two_connected_coloring(sub)
            if reuse_color is None:
                reuse_color = offset  # a color that appears in the first palette
            for new_id, col in enumerate(sub_coloring.colors):
                flat[back[new_id]] = col + offset
            offset += max(sub_coloring.colors) + 1
        for sub, back, complete in block_graphs:
            if not complete:
                continue
            for new_id in range(sub.n):
                flat[back[new_id]] = reuse_color
        for i, v in enumerate(cuts):
            flat[v] = offset + i

    coloring = Coloring(tuple(flat), reported_count=len(set(flat)), method="blocks")
    cert = verify_rainbow_vc(g, coloring.colors)
    if not cert.verified:
        raise ConstructionError(f"block coloring failed verification at {cert.failing_pair}")
    return coloring, cert


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
