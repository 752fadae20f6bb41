"""Output checks, run after the timed loop.

The rainbow checks here do not use `rvc.verify`: `unreached` searches
states (vertex, set of colors used so far) breadth-first from each source,
the colorful-path formulation of Alon, Yuster and Zwick. A walk whose
internal vertices have pairwise distinct colors has distinct internal
vertices, so it is a path once returns to the source are cut out; a state
is skipped when a state at the same vertex with a subset of its colors was
already kept. On small graphs `nx_unreached` repeats the check by
enumerating simple paths with networkx, when networkx is installed.
"""

from __future__ import annotations

import hashlib
from collections import deque

try:
    import networkx as nx
except ImportError:  # the independent path-enumeration check is then skipped
    nx = None

from instances import Instance, cycle_rvc_value

NX_MAX_N = 40


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def unreached(adj, colors, source: int, targets, forbidden: int | None = None) -> set[int]:
    """Targets that no rainbow path from `source` reaches.

    A rainbow path has pairwise distinct colors on its internal vertices;
    with `forbidden`, no vertex of the path may carry that color.
    """
    remaining = set(targets)
    bits = [1 << c for c in colors]
    block = 0 if forbidden is None else 1 << forbidden
    kept: dict[int, list[int]] = {}
    frontier = [(source, 0)]
    while frontier and remaining:
        nxt = []
        for x, used in frontier:
            for y in adj[x]:
                if y == source:
                    continue
                remaining.discard(y)
                b = bits[y]
                if b & (used | block):
                    continue
                s = used | b
                seen = kept.setdefault(y, [])
                if any(k & ~s == 0 for k in seen):
                    continue
                seen.append(s)
                nxt.append((y, s))
        frontier = nxt
    return remaining


def first_failing_pair(n: int, edges, colors) -> tuple[int, int] | None:
    """Lexicographically first pair with no rainbow path, or None."""
    adj = adjacency(n, edges)
    for u in range(n):
        missing = unreached(adj, colors, u, range(u + 1, n))
        if missing:
            return (u, min(missing))
    return None


def avoiding_fails(n: int, edges, colors, source: int, x: int) -> set[int]:
    """Vertices not colored x that no x-avoiding rainbow path from source reaches."""
    targets = [v for v in range(n) if v != source and colors[v] != x]
    return unreached(adjacency(n, edges), colors, source, targets, forbidden=x)


def nx_unreached(n: int, edges, colors, source: int, targets, forbidden=None) -> set[int] | None:
    """Same question as `unreached`, by networkx simple-path enumeration.

    None when networkx is missing or the graph is too large to enumerate.
    """
    if nx is None or n > NX_MAX_N:
        return None
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    missing = set()
    for v in targets:
        ok = False
        for path in nx.all_simple_paths(g, source, v):
            if forbidden is not None and any(colors[w] == forbidden for w in path):
                continue
            inner = [colors[w] for w in path[1:-1]]
            if len(inner) == len(set(inner)):
                ok = True
                break
        if not ok:
            missing.add(v)
    return missing


def nx_failing_pair(n: int, edges, colors) -> tuple[int, int] | None | bool:
    """networkx cross-check of `first_failing_pair`; False when skipped."""
    for u in range(n):
        missing = nx_unreached(n, edges, colors, u, range(u + 1, n))
        if missing is None:
            return False
        if missing:
            return (u, min(missing))
    return None


def _bfs_ecc(adj, s: int) -> int:
    dist = {s: 0}
    q = deque([s])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return max(dist.values())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _header(lines: list[str], command: str, text: str) -> list[str]:
    if lines[:2] != [f"command {command}", f"input sha256:{digest(text)}"]:
        raise ValueError(f"bad header {lines[:2]}")
    return lines[2:]


def _coloring(lines: list[str], n: int) -> tuple[list[int], int, str]:
    if len(lines) != 4 or lines[0] != f"vertices {n}":
        raise ValueError(f"bad coloring record {lines}")
    head, *cols = lines[1].split()
    count_head, count = lines[2].split()
    method_head, method = lines[3].split()
    if (head, count_head, method_head) != ("colors", "count", "method"):
        raise ValueError(f"bad coloring record {lines}")
    colors = [int(c) for c in cols]
    if len(colors) != n or min(colors) < 0:
        raise ValueError(f"coloring covers {len(colors)} of {n} vertices")
    return colors, int(count), method


def check_color(inst: Instance, text: str, out: str) -> str | None:
    """None when the color record is right, else the reason it is wrong."""
    lines = _header(out.splitlines(), "color", text)
    colors, count, _ = _coloring(lines, inst.n)
    if count != len(set(colors)):
        return f"count {count} but {len(set(colors))} distinct colors"
    if count > inst.bound:
        return f"count {count} over the bound {inst.bound}"
    bad = first_failing_pair(inst.n, inst.edges, colors)
    if bad is not None:
        return f"no rainbow path for pair {bad}"
    return None


def check_decompose(inst: Instance, text: str, out: str) -> str | None:
    """None when replaying the ears rebuilds exactly the graph's edges."""
    lines = _header(out.splitlines(), "decompose", text)
    head, *cyc = lines[0].split()
    if head != "cycle" or len(cyc) < 3:
        return f"bad cycle line {lines[0]!r}"
    cycle = [int(v) for v in cyc]
    covered_v = set(cycle)
    if len(covered_v) != len(cycle):
        return "initial cycle repeats a vertex"
    is_odd_cycle = len(inst.edges) == inst.n and inst.n % 2 == 1
    if len(cycle) % 2 == 1 and not is_odd_cycle:
        return "initial cycle is odd but the graph is not an odd cycle"
    covered_e = {tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) for i in range(len(cycle))}
    lengths = []
    for line in lines[1:-1]:
        parts = line.split()
        if parts[0] != "ear" or parts[-2] != "length":
            return f"bad ear line {line!r}"
        path = [int(v) for v in parts[1:-2]]
        if int(parts[-1]) != len(path) - 1 or len(path) < 2:
            return f"ear length mismatch in {line!r}"
        if path[0] == path[-1] or path[0] not in covered_v or path[-1] not in covered_v:
            return f"ear ends not distinct host vertices in {line!r}"
        interior = path[1:-1]
        if len(set(interior)) != len(interior) or covered_v & set(interior):
            return f"ear interior not fresh in {line!r}"
        new = {tuple(sorted(e)) for e in zip(path, path[1:])}
        if new & covered_e or len(new) != len(path) - 1:
            return f"ear reuses an edge in {line!r}"
        covered_v.update(interior)
        covered_e |= new
        lengths.append(len(path) - 1)
    t = 0
    while t < len(lengths) and lengths[t] >= 2:
        t += 1
    if lines[-1] != f"t {t}":
        return f"{lines[-1]!r} but {t} leading ears of length >= 2"
    if covered_e != set(inst.edges):
        return "replayed ears do not rebuild the edge set"
    return None


def check_exact(inst: Instance, text: str, out: str) -> str | None:
    """None when the value fits the closed form or bounds and the witness verifies."""
    lines = _header(out.splitlines(), "exact", text)
    if not lines[0].startswith("budget ") or not lines[-1].startswith("nodes "):
        return f"bad exact record {lines}"
    head, value = lines[1].split()
    if head != "value":
        return f"bad value line {lines[1]!r}"
    value = int(value)
    colors, count, method = _coloring(lines[2:-1], inst.n)
    if count != value or len(set(colors)) != value or method != "exact":
        return f"witness has {len(set(colors))} colors, count {count}, value {value}"
    adj = adjacency(inst.n, inst.edges)
    if inst.cycle and value != cycle_rvc_value(inst.n):
        return f"value {value} differs from the closed form {cycle_rvc_value(inst.n)}"
    lower = max(max(_bfs_ecc(adj, s) for s in range(inst.n)) - 1, 1)
    if not lower <= value <= cycle_rvc_value(inst.n):
        return f"value {value} outside [{lower}, {cycle_rvc_value(inst.n)}]"
    bad = first_failing_pair(inst.n, inst.edges, colors)
    if bad is not None:
        return f"witness has no rainbow path for pair {bad}"
    nx_bad = nx_failing_pair(inst.n, inst.edges, colors)
    if nx_bad:
        return f"networkx finds no rainbow path for pair {nx_bad}"
    return None


def check_chain(inst: Instance, g, coloring, rvc) -> str | None:
    """Criterion-4 checks on a chain result, with rvc's verifier (as the
    acceptance suite runs them) and again with the checks of this module."""
    if set(g.edges) != set(inst.edges) or g.n != inst.n:
        return "grown graph differs from the instance"
    colors = list(coloring.colors)
    hist: dict[int, int] = {}
    for c in colors:
        hist[c] = hist.get(c, 0) + 1
    if len(hist) != (inst.n + 1) // 2:
        return f"{len(hist)} colors, expected {(inst.n + 1) // 2}"
    if max(hist.values()) > 2:
        return "a color is used more than twice"
    if not rvc.verify_rainbow_vc(g, coloring, rvc.REVISED).verified:
        return "revised verification failed"
    bad = first_failing_pair(inst.n, inst.edges, colors)
    if bad is not None:
        return f"no rainbow path for pair {bad}"
    if nx_failing_pair(inst.n, inst.edges, colors):
        return "networkx finds a pair without a rainbow path"
    target = inst.chain["target"]
    if target is not None:
        once = sorted(c for c, k in hist.items() if k == 1)
        if len(once) != 1:
            return f"odd order but {len(once)} once-used colors"
        if not rvc.has_color_avoiding_connectivity(g, coloring, target, once[0]):
            return f"avoiding property fails at {target}"
        if avoiding_fails(inst.n, inst.edges, colors, target, once[0]):
            return f"independent check: avoiding property fails at {target}"
        targets = [v for v in range(inst.n) if v != target and colors[v] != once[0]]
        if nx_unreached(inst.n, inst.edges, colors, target, targets, once[0]):
            return f"networkx: avoiding property fails at {target}"
    return None
