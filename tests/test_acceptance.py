"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Stated runtime tolerances are asserted too.
"""

import random
import time

from rvc import (
    REVISED,
    ConstructionError,
    Graph,
    SearchBudget,
    SearchInconclusiveError,
    balanced_chain_coloring,
    block_bound,
    block_coloring,
    color_stats,
    cycle_coloring,
    cycle_rvc_value,
    diameter,
    ear_decomposition,
    exact_rvc,
    find_rainbow_coloring,
    has_color_avoiding_connectivity,
    is_2_connected,
    random_2connected,
    two_connected_coloring,
    verify_rainbow_vc,
)
from rvc.decompose import Ear

from .conftest import random_connected_graph


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_cycle_values():
    """exact_rvc(C_n) equals the closed form for n in 3..11."""
    t0 = time.monotonic()
    mismatches = []
    for n in range(3, 12):
        value = exact_rvc(Graph.cycle(n)).value
        if value != cycle_rvc_value(n):
            mismatches.append((n, value, cycle_rvc_value(n)))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed <= 300
    report(1, ok, f"exact cycle values 3..11, {elapsed:.1f}s (limit 300s)")
    assert not mismatches, mismatches
    assert elapsed <= 300


def test_criterion_2_cycle_construction_reproduction():
    """cycle_coloring(n) verifies with exactly the closed-form count, n in 3..60."""
    t0 = time.monotonic()
    bad = []
    for n in range(3, 61):
        c = cycle_coloring(n)
        if c.reported_count != cycle_rvc_value(n):
            bad.append((n, "count", c.reported_count))
            continue
        if not verify_rainbow_vc(Graph.cycle(n), c).verified:
            bad.append((n, "verify", None))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed <= 60
    report(2, ok, f"cycle constructions 3..60, {elapsed:.1f}s (limit 60s)")
    assert not bad, bad
    assert elapsed <= 60


def test_criterion_3_lower_bound_spot_checks():
    """Exhaustive search: no 6-coloring of C14 and no 4-coloring of C11 verifies."""
    t0 = time.monotonic()
    c14 = find_rainbow_coloring(
        Graph.cycle(14), 6, budget=SearchBudget(max_vertices=14)
    )
    c11 = find_rainbow_coloring(Graph.cycle(11), 4)
    elapsed = time.monotonic() - t0
    ok = c14 is None and c11 is None and elapsed <= 600
    report(3, ok, f"nonexistence at C14/6 and C11/4, {elapsed:.1f}s (limit 600s)")
    assert c14 is None
    assert c11 is None
    assert elapsed <= 600


def _chain_instance(seed: int):
    """Seeded instance for the balanced-coloring suite: even base cycle,
    1..3 successive ears of lengths 5..9, nonincreasing as decompositions
    produce them, plus a designated target when the final order is odd."""
    rng = random.Random(seed)
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
        ears.append(Ear((a,) + tuple(range(nid, nid + ell - 1)) + (b,)))
        nid += ell - 1
    target = rng.randrange(sizes[-1]) if sizes[-1] % 2 == 1 else None
    cases = {(sizes[j] % 2, lengths[j] % 2) for j in range(n_ears)}
    return n0, ears, target, cases


def test_criterion_4_balanced_property_suite():
    """>= 200 seeded chain instances: exact half-order count, multiplicity
    at most 2, revised verification, and the color-avoiding property at the
    designated target when the final order is odd; zero failures.

    Known defect: the designated-target clause encodes a universal placement
    claim that is refutable. Minimal counterexample: an 8-cycle base with one
    ear on 7 vertices between adjacent attachments and the target at the
    exact middle ear vertex admits NO balanced coloring with the avoiding
    property there (all orientations and singleton placements enumerated),
    although non-balanced colorings in the same count/multiplicity envelope
    do satisfy it. Instances whose designated target cannot be served are
    reported here as honest failures rather than being regenerated away;
    instances whose chain search runs out of steps are reported as
    inconclusive, which is a failure too but not a refutation.
    """
    failures = []
    cases_seen = set()
    for seed in range(220):
        n0, ears, target, cases = _chain_instance(seed)
        cases_seen |= cases
        try:
            g, c = balanced_chain_coloring(n0, ears, final_target=target)
        except ConstructionError as err:
            failures.append((seed, f"unservable designated target {target}: {err}"))
            continue
        except SearchInconclusiveError as err:
            failures.append((seed, f"inconclusive: {err}"))
            continue
        st = color_stats(c)
        if st.distinct != (g.n + 1) // 2:
            failures.append((seed, f"count {st.distinct} != {(g.n + 1) // 2}"))
        elif max(st.histogram.values()) > 2:
            failures.append((seed, "some color used more than twice"))
        elif not verify_rainbow_vc(g, c, REVISED).verified:
            failures.append((seed, "revised verification failed"))
        elif target is not None and not has_color_avoiding_connectivity(
            g, c, target, st.once_used[0]
        ):
            failures.append((seed, f"avoiding property fails at {target}"))
    all_cases = {(0, 0), (0, 1), (1, 0), (1, 1)}
    ok = not failures and cases_seen == all_cases
    report(
        4,
        ok,
        f"balanced suite over 220 instances, parity cases {sorted(cases_seen)}, "
        f"{len(failures)} failures",
    )
    assert cases_seen == all_cases
    assert not failures, (
        f"{len(failures)} of 220 instances failed: {failures}. The "
        "'unservable designated target' failures reproduce a refutable "
        "universal placement claim: the search exhausted every orientation "
        "and singleton placement without finding a balanced coloring with "
        "the avoiding property at the designated vertex. The 'inconclusive' "
        "failures ran out of chain search steps first and refute nothing."
    )


def test_criterion_5_two_connected_bound_at_scale():
    """>= 100 seeded 2-connected graphs, 16 <= n <= 40: construction verifies
    with at most ceil(n/2) colors."""
    t0 = time.monotonic()
    rng = random.Random(123)
    failures = []
    for i in range(100):
        n = rng.randint(16, 40)
        kind = rng.choice(["hamilton", "ears"])
        extra = rng.randint(0, max(1, n // 4))
        g = random_2connected(n, extra, seed=1000 + i, kind=kind)
        try:
            c = two_connected_coloring(g)
        except ConstructionError as err:
            failures.append((i, str(err)))
            continue
        if c.reported_count > (n + 1) // 2:
            failures.append((i, f"count {c.reported_count} over {(n + 1) // 2}"))
        elif not verify_rainbow_vc(g, c).verified:
            failures.append((i, "verification failed"))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 900
    report(5, ok, f"two-connected bound on 100 graphs 16..40, {elapsed:.1f}s (limit 900s)")
    assert not failures, failures
    assert elapsed <= 900


def test_criterion_6_small_two_connected_oracle_bound():
    """>= 100 seeded 2-connected graphs with n <= 10: exact value is at most
    the same-order cycle value."""
    rng = random.Random(21)
    failures = []
    for i in range(100):
        n = rng.randint(3, 10)
        extra = rng.randint(0, max(0, n - 3))
        g = random_2connected(n, extra, seed=i, kind=rng.choice(["hamilton", "ears"]))
        value = exact_rvc(g).value
        if value > cycle_rvc_value(n):
            failures.append((i, n, value))
    report(6, not failures, f"oracle bound on 100 small 2-connected graphs, {len(failures)} failures")
    assert not failures, failures


def _assemble_blocks(rng: random.Random, n_blocks: int) -> Graph:
    """Connected graph from 2..5 blocks (cycles and complete graphs)
    sharing cut vertices."""
    import itertools

    g_edges = set()
    n = 0
    for _ in range(n_blocks):
        make_cycle = rng.random() < 0.6
        size = rng.randint(3, 8) if make_cycle else rng.randint(2, 5)
        if make_cycle:
            block_edges = [(i, (i + 1) % size) for i in range(size)]
        else:
            block_edges = list(itertools.combinations(range(size), 2))
        if n == 0:
            mapping = list(range(size))
            n = size
        else:
            attach_at = rng.randrange(n)
            mapping = list(range(n, n + size - 1))
            mapping.insert(rng.randrange(size), attach_at)
            n += size - 1
        g_edges.update(
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
            for u, v in block_edges
        )
    return Graph(n, g_edges)


def test_criterion_7_block_composition_suite():
    """>= 100 seeded block assemblies: coloring verifies and stays within the
    per-block bounds plus the cut-vertex count."""
    failures = []
    for i in range(100):
        rng = random.Random(900 + i)
        g = _assemble_blocks(rng, rng.randint(2, 5))
        try:
            c = block_coloring(g)
        except ConstructionError as err:
            failures.append((i, str(err)))
            continue
        bound = block_bound(g)
        if not verify_rainbow_vc(g, c).verified:
            failures.append((i, "verification failed"))
        elif c.reported_count > bound:
            failures.append((i, f"count {c.reported_count} over bound {bound}"))
    report(7, not failures, f"block suite on 100 assemblies, {len(failures)} failures")
    assert not failures, failures


def test_criterion_8_observation_suite():
    """>= 300 seeded connected graphs with n <= 8: diameter and completeness
    relations hold for the exact values, and rainbow <= revised."""
    rng = random.Random(31)
    failures = []
    checked = 0
    while checked < 300:
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n) if n >= 2 else Graph(1)
        value = exact_rvc(g).value
        revised_value = exact_rvc(g, REVISED).value
        d = diameter(g)
        if not (max(d - 1, 0) <= value <= max(n - 2, 0)):
            failures.append((checked, "bounds", n, value, d))
        if (value == 0) != g.is_complete():
            failures.append((checked, "complete-iff", n, value))
        if (value == 1) != (d == 2):
            failures.append((checked, "diameter-2-iff", n, value, d))
        if value > revised_value:
            failures.append((checked, "revised-below-rainbow", value, revised_value))
        checked += 1
    report(8, not failures, f"observation suite on {checked} graphs, {len(failures)} failures")
    assert not failures, failures


def test_criterion_9_decomposition_invariants():
    """>= 100 seeded 2-connected graphs (n <= 30): replay reconstructs the
    edges, lengths nonincreasing, prefixes 2-connected, even initial cycle
    unless the graph is an odd cycle."""
    rng = random.Random(11)
    failures = []
    for i in range(100):
        n = rng.randint(4, 30)
        extra = rng.randint(0, max(0, n - 3))
        g = random_2connected(n, extra, seed=i, kind=rng.choice(["hamilton", "ears"]))
        d = ear_decomposition(g)
        if d.replay_edges() != set(g.edges):
            failures.append((i, "replay"))
            continue
        lengths = [e.length for e in d.ears]
        if lengths != sorted(lengths, reverse=True):
            failures.append((i, "monotone", lengths))
            continue
        if not (g.m == g.n and g.n % 2 == 1) and len(d.initial_cycle) % 2 == 1:
            failures.append((i, "odd initial cycle"))
            continue
        covered = set(d.initial_cycle)
        edges = {
            (min(u, v), max(u, v))
            for u, v in zip(d.initial_cycle, d.initial_cycle[1:])
        }
        edges.add(
            (min(d.initial_cycle[0], d.initial_cycle[-1]),
             max(d.initial_cycle[0], d.initial_cycle[-1]))
        )
        for ear in d.ears:
            if ear.a not in covered or ear.b not in covered or ear.a == ear.b:
                failures.append((i, "attachment"))
                break
            if any(v in covered for v in ear.interior):
                failures.append((i, "interior not fresh"))
                break
            covered.update(ear.path)
            edges.update(
                (min(x, y), max(x, y)) for x, y in zip(ear.path, ear.path[1:])
            )
            sub, _ = g.induced(covered)
            if not is_2_connected(sub):
                failures.append((i, "prefix not 2-connected"))
                break
    report(9, not failures, f"decomposition invariants on 100 graphs, {len(failures)} failures")
    assert not failures, failures
