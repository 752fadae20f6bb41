"""Seeded instance generation for the benchmark workloads.

Everything here is a pure function of (workload seed, round index), written
without the library so that a change to `rvc` cannot change the inputs.
Each workload is a sequence of rounds with a fixed composition: the seed
picks the graphs inside every cell of the grid, never the grid itself, so
two seeds differ in their graphs but not in their mix of shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def cycle_rvc_value(n: int) -> int:
    """Closed-form rainbow vertex-connection number of the n-cycle."""
    if n == 3:
        return 0
    if n in (4, 5):
        return 1
    if n == 9:
        return 3
    if n in (6, 7, 8, 10, 11, 12, 13, 15):
        return (n + 1) // 2 - 1
    return (n + 1) // 2


@dataclass
class Instance:
    """One unit of work: a graph file for the CLI workloads, a chain record
    for `chain`. `bound` is the color bound the output must respect."""

    key: str
    n: int
    edges: frozenset[tuple[int, int]]
    bound: int | None = None
    cycle: bool = False
    chain: dict | None = None
    path: str = ""
    shape: str = ""


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _cycle_edges(vs) -> set[tuple[int, int]]:
    return {_norm(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))}


def _add_chords(rng: random.Random, n: int, edges: set, chords: int) -> None:
    """Add `chords` distinct non-edges by rejection sampling."""
    if chords > n * (n - 1) // 2 - len(edges):
        raise ValueError(f"{chords} chords do not fit on {n} vertices")
    added = 0
    while added < chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and _norm(u, v) not in edges:
            edges.add(_norm(u, v))
            added += 1


def _relabel(rng: random.Random, n: int, edges) -> frozenset[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return frozenset(_norm(perm[u], perm[v]) for u, v in edges)


def two_connected(rng: random.Random, n: int, chords: int, kind: str) -> frozenset:
    """A 2-connected graph on n vertices with `chords` extra edges.

    hamilton: a Hamilton cycle plus chords. ears: a random base cycle grown
    by random open ears (distinct attachment vertices) to n vertices, then
    chords. Both shapes are 2-connected by construction.
    """
    if kind == "hamilton":
        edges = _cycle_edges(list(range(n)))
    elif kind == "ears":
        base = rng.randint(3, n)
        edges = _cycle_edges(list(range(base)))
        covered = base
        while covered < n:
            interior = rng.randint(1, n - covered)
            a, b = rng.sample(range(covered), 2)
            path = [a, *range(covered, covered + interior), b]
            edges.update(_norm(x, y) for x, y in zip(path, path[1:]))
            covered += interior
    else:
        raise ValueError(f"unknown kind {kind!r}")
    _add_chords(rng, n, edges, chords)
    return _relabel(rng, n, edges)


def block_assembly(rng: random.Random) -> tuple[int, frozenset, int]:
    """2..4 non-complete 2-connected blocks glued at cut vertices.

    Returns (n, edges, bound) where bound is the sum of the blocks' cycle
    values plus the number of cut vertices, known from the construction.
    """
    n = 0
    edges: set[tuple[int, int]] = set()
    cuts: set[int] = set()
    bound = 0
    for i in range(rng.randint(2, 4)):
        size = rng.randint(10, 18)
        block = two_connected(rng, size, size // 6, rng.choice(("hamilton", "ears")))
        bound += cycle_rvc_value(size)
        if i == 0:
            mapping = list(range(size))
            n = size
        else:
            cut = rng.randrange(n)
            cuts.add(cut)
            # block vertex 0 is identified with an existing vertex
            mapping = [cut] + list(range(n, n + size - 1))
            n += size - 1
        edges.update(_norm(mapping[u], mapping[v]) for u, v in block)
    return n, _relabel(rng, n, edges), bound + len(cuts)


def _rng(workload: str, seed: int, round_index: int, cell: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}:{cell}")


KINDS = ("hamilton", "ears")


def _ramp(lo: int, hi: int, cells: int) -> list[int]:
    return [lo + round((hi - lo) * i / (cells - 1)) for i in range(cells)]


# (n, chords divisor, tier) of the 2-connected cells of a color round; each
# size runs once in each kind
COLOR_CELLS = ((40, 4, "dense"), (42, 4, "dense"), (44, 4, "dense"), (64, 10, "sparse"))


def color_round(seed: int, r: int) -> list[Instance]:
    """One color round: eight 2-connected graphs (the COLOR_CELLS sizes in
    both kinds), one block assembly and one cycle on 30..60 vertices.

    The cells fall into three groups of different cost: the block assembly
    and the cycle (two per round, about 0.1 s), dense graphs with n = 40,
    42, 44 (six, about 0.2..0.3 s) and sparse graphs with n = 64 (two,
    about 0.6 s). The two outer groups are the same size, so the median
    falls in the middle of the dense group, and the p90 tail (one per round
    from the top) in the middle of the sparse one, where neither moves much
    with the seed. With two dense and four sparse sizes the median sat at
    the upper edge of the dense group and moved by 25% between seeds. Graphs
    stop at n = 64: sparse graphs near n = 80 take 1..4 s with a long tail,
    and runs holding them spread by 25% in throughput.
    """
    out = []
    for cell, (n, div, tier) in enumerate(c for c in COLOR_CELLS for _ in KINDS):
        kind = KINDS[cell % 2]
        edges = two_connected(_rng("color", seed, r, cell), n, n // div, kind)
        out.append(Instance(f"c{r}.{cell}", n, edges, bound=cycle_rvc_value(n),
                            shape=f"{kind}-{tier}-{n}"))
    n, edges, bound = block_assembly(_rng("color", seed, r, 8))
    out.append(Instance(f"c{r}.8", n, edges, bound=bound, shape="blocks"))
    rng = _rng("color", seed, r, 9)
    n = rng.randint(30, 60)
    edges = _relabel(rng, n, _cycle_edges(list(range(n))))
    out.append(Instance(f"c{r}.9", n, edges, bound=cycle_rvc_value(n), cycle=True,
                        shape="cycle"))
    return out


def decompose_round(seed: int, r: int) -> list[Instance]:
    """One decompose round: ten sparse graphs (n/10 chords) with n spread
    evenly over 150..400, kinds alternating."""
    out = []
    for cell, n in enumerate(_ramp(150, 400, 10)):
        kind = KINDS[cell % 2]
        edges = two_connected(_rng("decompose", seed, r, cell), n, n // 10, kind)
        out.append(Instance(f"d{r}.{cell}", n, edges, shape=kind))
    return out


# Even rounds hold the even cycles, odd rounds the odd ones, and both hold
# C16, C17 and C18, so the two halves cost about the same. With three
# graphs per cycle a round has 24 instances, and the p90 tail of a run (2.4
# per round from the top) lands in the middle of its C17 runs (the third
# per round from the top), about two ranks away from either edge: seeded
# graphs slower than C17 are rare enough not to move it. With only C16
# between the small cycles and C18, the p90 tail fell on seeded graphs in
# some seeds and read 50% higher there.
EXACT_CYCLES = ((12, 14, 16, 17, 18, 20), (13, 15, 16, 17, 18, 19))
EXACT_GRAPHS_PER_CYCLE = 3


def exact_round(seed: int, r: int) -> list[Instance]:
    """One exact round: one half of EXACT_CYCLES, each cycle followed by
    three seeded 2-connected graphs with 12..14 vertices and 1..n/3 chords.

    The graphs stop at 14 vertices because the oracle's cost on seeded
    15- and 16-vertex graphs has a long tail: one in a few hundred takes
    about 30 s, which alone decides a run's throughput. The cycles
    carry the larger orders.
    """
    out = []
    cell = 0
    for c in EXACT_CYCLES[r % 2]:
        # the cycles are identical in every round and for every seed, in
        # their natural labelling: the oracle's cost depends on vertex order
        edges = frozenset(_cycle_edges(list(range(c))))
        out.append(Instance(f"x{r}.{cell}", c, edges, bound=cycle_rvc_value(c), cycle=True,
                            shape=f"cycle-{c}"))
        cell += 1
        for _ in range(EXACT_GRAPHS_PER_CYCLE):
            rng = _rng("exact", seed, r, cell)
            n = rng.randint(12, 14)
            edges = two_connected(rng, n, rng.randint(1, n // 3), rng.choice(KINDS))
            out.append(Instance(f"x{r}.{cell}", n, edges, bound=cycle_rvc_value(n),
                                shape="graph"))
            cell += 1
    return out


CHAIN_ROUND = 50


def chain_record(instance_seed: int) -> dict:
    """The criterion-4 chain shape: an even base cycle on 6..12 vertices,
    1..3 nonincreasing ears on 5..9 edges attached at existing vertices with
    fresh dense interior ids, and a designated target when the final order
    is odd."""
    rng = random.Random(instance_seed)
    n0 = rng.choice([6, 8, 10, 12])
    n_ears = rng.randint(1, 3)
    lengths = sorted((rng.randint(5, 9) for _ in range(n_ears)), reverse=True)
    sizes = [n0]
    for ell in lengths:
        sizes.append(sizes[-1] + ell - 1)
    attach = [tuple(rng.sample(range(sizes[j]), 2)) for j in range(n_ears)]
    ears = []
    nid = n0
    for (a, b), ell in zip(attach, lengths):
        ears.append((a, *range(nid, nid + ell - 1), b))
        nid += ell - 1
    target = rng.randrange(sizes[-1]) if sizes[-1] % 2 == 1 else None
    return {"n0": n0, "ears": ears, "target": target}


def chain_round(seed: int, r: int) -> list[Instance]:
    """Chain instances with seeds seed + 50 r .. seed + 50 r + 49, so a run
    walks a contiguous seed range starting at the workload seed."""
    out = []
    for s in range(seed + CHAIN_ROUND * r, seed + CHAIN_ROUND * (r + 1)):
        rec = chain_record(s)
        edges = _cycle_edges(list(range(rec["n0"])))
        n = rec["n0"]
        for ear in rec["ears"]:
            edges.update(_norm(x, y) for x, y in zip(ear, ear[1:]))
            n += len(ear) - 2
        out.append(Instance(f"k{s}", n, frozenset(edges), bound=(n + 1) // 2, chain=rec,
                            shape="chain"))
    return out


ROUNDS = {
    "color": color_round,
    "chain": chain_round,
    "decompose": decompose_round,
    "exact": exact_round,
}


def serialize(inst: Instance) -> str:
    """Edge-list text for a graph instance; for a chain, an `n0` line, a
    `target` line (`-` for none) and one `ear` line per ear."""
    if inst.chain is not None:
        rec = inst.chain
        lines = [f"n0 {rec['n0']}", f"target {'-' if rec['target'] is None else rec['target']}"]
        lines.extend("ear " + " ".join(map(str, ear)) for ear in rec["ears"])
        return "\n".join(lines) + "\n"
    lines = [f"vertices {inst.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(inst.edges))
    return "\n".join(lines) + "\n"


def parse_chain_record(text: str) -> dict:
    """Inverse of `serialize` for chain records."""
    rec: dict = {"ears": []}
    for line in text.splitlines():
        head, *rest = line.split()
        if head == "n0":
            rec["n0"] = int(rest[0])
        elif head == "target":
            rec["target"] = None if rest[0] == "-" else int(rest[0])
        elif head == "ear":
            rec["ears"].append(tuple(map(int, rest)))
    return rec
