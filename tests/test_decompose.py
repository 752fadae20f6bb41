import itertools
import random

import pytest

from rvc import (
    BudgetExceededError,
    Ear,
    EarDecomposition,
    Graph,
    PreconditionError,
    attach_ear,
    ear_decomposition,
    find_initial_cycle,
    is_2_connected,
    longest_ear,
    random_2connected,
    serialize_decomposition,
)
from rvc.decompose import _cycle_edges, _dfs_cycle, _longest_ear_impl, _norm


def cycle_edges(seq):
    pairs = list(zip(seq, seq[1:])) + [(seq[-1], seq[0])]
    return {(min(u, v), max(u, v)) for u, v in pairs}


def is_cycle_of(g: Graph, seq) -> bool:
    return len(set(seq)) == len(seq) >= 3 and cycle_edges(seq) <= g.edges


def brute_force_ears(g: Graph, h_vertices, h_edges):
    """Every ear of (h_vertices, h_edges) in g, by exhaustive path enumeration."""
    ears = []
    outside = [v for v in range(g.n) if v not in h_vertices]
    for a, b in itertools.permutations(sorted(h_vertices), 2):
        if g.has_edge(a, b) and (min(a, b), max(a, b)) not in h_edges:
            ears.append((a, b))
        for r in range(1, len(outside) + 1):
            for mid in itertools.permutations(outside, r):
                path = (a,) + mid + (b,)
                if all(g.has_edge(x, y) for x, y in zip(path, path[1:])):
                    ears.append(path)
    return ears


def reference_longest_ear(g: Graph, h_vertices, h_edges, budget: int) -> Ear | None:
    """`_longest_ear_impl` as a recursive depth-first search, one call per
    path vertex: the ear search before its walk kept an explicit stack. It
    stops, as that search does, at the first ear through every vertex
    outside the host."""
    best = None
    nodes = 0
    exhausted = False
    longest = g.n - len(h_vertices) + 2

    def consider(path):
        nonlocal best
        if best is None or len(path) > len(best) or (len(path) == len(best) and path < best):
            best = path

    for a in sorted(h_vertices):
        if best is not None and len(best) == longest:
            break
        for b in sorted(g.adj(a)):
            if b in h_vertices and b != a and _norm(a, b) not in h_edges:
                consider((a, b))
        path = [a]
        on_path = {a}

        def dfs(u: int):
            nonlocal nodes, exhausted
            if exhausted:
                return
            for w in sorted(g.adj(u)):
                if exhausted or len(best or ()) == longest:
                    return
                if w in h_vertices:
                    if w != a and len(path) >= 2:
                        consider(tuple(path) + (w,))
                    continue
                if w in on_path:
                    continue
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return
                path.append(w)
                on_path.add(w)
                dfs(w)
                path.pop()
                on_path.remove(w)

        dfs(a)
    if best is None:
        if exhausted:
            raise BudgetExceededError("ear search budget exhausted before any ear was found")
        return None
    return Ear(best, heuristic=exhausted)


def ear_search_hosts(g: Graph):
    """Every host an ear search meets while decomposing g: the depth-first
    cycle, then each prefix of the decomposition."""
    cyc = _dfs_cycle(g)
    yield set(cyc), set(_cycle_edges(cyc))
    d = ear_decomposition(g)
    covered_v = set(d.initial_cycle)
    covered_e = set(_cycle_edges(d.initial_cycle))
    for ear in d.ears:
        yield set(covered_v), set(covered_e)
        covered_v.update(ear.path)
        covered_e.update((min(x, y), max(x, y)) for x, y in zip(ear.path, ear.path[1:]))


class TestInitialCycle:
    def test_odd_cycle_returns_itself(self):
        g = Graph.cycle(7)
        seq = find_initial_cycle(g)
        assert len(seq) == 7 and set(seq) == set(range(7))

    def test_even_cycle(self):
        g = Graph.cycle(6)
        seq = find_initial_cycle(g)
        assert len(seq) == 6 and is_cycle_of(g, seq)

    def test_c5_plus_chord_yields_the_even_cycle(self):
        # chord {0, 2} splits C5 into a triangle and a 4-cycle; only the
        # 4-cycle is even, so any correct answer is exactly {0, 2, 3, 4}
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        cycles = []
        for r in range(3, 6):
            for sub in itertools.permutations(range(5), r):
                if sub[0] == min(sub) and is_cycle_of(g, sub):
                    cycles.append(sub)
        even = {frozenset(c) for c in cycles if len(c) % 2 == 0}
        assert even == {frozenset({0, 2, 3, 4})}
        seq = find_initial_cycle(g)
        assert len(seq) % 2 == 0 and is_cycle_of(g, seq)
        assert frozenset(seq) == frozenset({0, 2, 3, 4})

    def test_even_whenever_not_odd_cycle(self):
        rng = random.Random(3)
        for i in range(40):
            n = rng.randint(4, 14)
            g = random_2connected(n, rng.randint(0, max(0, n - 3)), seed=i)
            seq = find_initial_cycle(g)
            assert is_cycle_of(g, seq)
            if not (g.m == g.n and g.n % 2 == 1):
                assert len(seq) % 2 == 0

    def test_rejects_non_2connected(self, bowtie):
        with pytest.raises(PreconditionError):
            find_initial_cycle(bowtie)


class TestLongestEar:
    def test_unique_ear(self):
        g, _ = attach_ear(Graph.cycle(6), 0, 3, 1)
        ear = longest_ear(g, Graph.cycle(6))
        assert ear.path == (0, 6, 3) and ear.length == 2

    def test_k4_diagonal(self):
        g = Graph.complete(4)
        h = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ear = longest_ear(g, h)
        assert ear.length == 1 and set(ear.path) in ({0, 2}, {1, 3})

    def test_picks_longest_of_two_attached_paths(self):
        # C8 plus paths of lengths 3 and 5 between cycle vertices
        g1, _ = attach_ear(Graph.cycle(8), 0, 3, 2)
        g, _ = attach_ear(g1, 4, 7, 4)
        h = Graph(g.n, [(i, (i + 1) % 8) for i in range(8)])
        ear = longest_ear(g, h)
        best = max(len(p) for p in brute_force_ears(g, set(range(8)), set(h.edges)))
        assert ear.length == best - 1 == 5
        assert ear.interior == (10, 11, 12, 13)

    def test_lexicographic_tie_break(self):
        g = Graph.complete(4)
        h = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert longest_ear(g, h).path == (0, 2)

    def test_no_ear_raises(self):
        g = Graph.cycle(5)
        with pytest.raises(PreconditionError):
            longest_ear(g, g)

    def test_budget_exhaustion_sets_heuristic_flag(self):
        # a chord is found without touching the budget, so the tiny budget
        # truncates only the long-ear search and flags the result
        g, _ = attach_ear(Graph.cycle(6), 0, 3, 4)
        g = g.with_edge(1, 4)
        h = Graph(g.n, [(i, (i + 1) % 6) for i in range(6)])
        ear = longest_ear(g, h, budget=1)
        assert ear.heuristic
        full = longest_ear(g, h)
        assert not full.heuristic
        assert ear.length <= full.length == 5

    def test_budget_exhaustion_with_nothing_found_is_loud(self):
        from rvc import BudgetExceededError

        g, _ = attach_ear(Graph.cycle(6), 0, 3, 4)
        h = Graph(g.n, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(BudgetExceededError):
            longest_ear(g, h, budget=1)

    def test_decomposition_budget_exhaustion_is_loud(self):
        # three internally disjoint 3-edge paths between 0 and 3: the
        # initial 6-cycle needs no ear search, and a budget of one path
        # extension runs out before the remaining path closes into an ear
        from rvc import BudgetExceededError

        g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 3)])
        with pytest.raises(BudgetExceededError):
            ear_decomposition(g, budget=1)

    def test_decomposition_budget_reaches_initial_cycle_search(self):
        # the depth-first cycle 0-1-2-3-4 is odd, so the initial cycle needs
        # an ear search, which one path extension cannot finish
        from rvc import BudgetExceededError

        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6), (2, 6)])
        with pytest.raises(BudgetExceededError):
            ear_decomposition(g, budget=1)

    def test_initial_cycle_budget_exhaustion_is_marked(self):
        # the depth-first cycle (0, 1, 2) is odd; five path extensions find
        # an ear that splits off an even 6-cycle but stop the search before
        # the one that gives the 12-cycle
        g = random_2connected(14, 4, seed=1, kind="ears")
        assert _dfs_cycle(g) == (0, 1, 2)
        full = ear_decomposition(g)
        assert full.initial_cycle == find_initial_cycle(g) == (2, 0, 1, 13, 7, 8, 9, 10, 11, 12, 6, 5)
        assert not full.heuristic_cycle
        cut = ear_decomposition(g, budget=5)
        assert cut.initial_cycle == find_initial_cycle(g, budget=5) == (2, 0, 4, 3, 10, 5)
        assert cut.heuristic_cycle
        assert cut.replay_edges() == set(g.edges)


class TestEarSearchReference:
    """The explicit-stack ear search against the recursive reference."""

    @staticmethod
    def outcome(search, *args):
        try:
            return search(*args)
        except BudgetExceededError as err:
            return str(err)

    def test_every_budget_matches(self):
        # budgets from 1 up to the search's full node count, where the
        # reference first finishes; past it the ear no longer changes
        rng = random.Random(17)
        hosts = 0
        for i in range(30):
            n = rng.randint(5, 12)
            g = random_2connected(n, rng.randint(1, n // 2), seed=300 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            for h_vertices, h_edges in ear_search_hosts(g):
                hosts += 1
                budget = 0
                while True:
                    budget += 1
                    want = self.outcome(reference_longest_ear, g, h_vertices, h_edges, budget)
                    got = self.outcome(_longest_ear_impl, g, h_vertices, h_edges, budget)
                    assert got == want, (g, sorted(h_vertices), budget)
                    if not isinstance(want, str) and not (want and want.heuristic):
                        break
        assert hosts > 30

    def test_ears_through_every_fresh_vertex_are_never_heuristic(self):
        # at every budget, an ear holding every vertex outside the host is
        # the full search's answer, so it carries no heuristic flag
        rng = random.Random(19)
        full = 0
        for i in range(30):
            n = rng.randint(5, 12)
            g = random_2connected(n, rng.randint(1, n // 2), seed=600 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            for h_vertices, h_edges in ear_search_hosts(g):
                unbudgeted = _longest_ear_impl(g, h_vertices, h_edges, 10**6)
                for budget in range(1, 3 * g.n):
                    ear = self.outcome(_longest_ear_impl, g, h_vertices, h_edges, budget)
                    if isinstance(ear, Ear) and len(ear.path) == g.n - len(h_vertices) + 2:
                        full += 1
                        assert not ear.heuristic and ear == unbudgeted
        assert full > 100

    def test_unbudgeted_search_matches(self):
        rng = random.Random(18)
        for i in range(20):
            n = rng.randint(8, 16)
            g = random_2connected(n, rng.randint(0, n // 2), seed=400 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            for h_vertices, h_edges in ear_search_hosts(g):
                want = reference_longest_ear(g, h_vertices, h_edges, 10**6)
                assert _longest_ear_impl(g, h_vertices, h_edges, 10**6) == want


class TestEarDecomposition:
    def test_plain_cycle_has_no_ears(self):
        d = ear_decomposition(Graph.cycle(10))
        assert d.ears == () and len(d.initial_cycle) == 10

    def test_theta_graph(self):
        g, _ = attach_ear(Graph.cycle(6), 0, 3, 1)
        d = ear_decomposition(g)
        assert len(d.initial_cycle) == 6
        assert len(d.ears) == 1 and d.ears[0].length == 2
        assert d.t == 1

    def test_k4_even_cycle_then_two_chords(self):
        d = ear_decomposition(Graph.complete(4))
        assert len(d.initial_cycle) == 4
        assert [e.length for e in d.ears] == [1, 1]
        assert d.t == 0
        assert d.replay_edges() == set(Graph.complete(4).edges)

    def test_invariants_on_seeded_instances(self):
        rng = random.Random(4)
        for i in range(30):
            n = rng.randint(4, 16)
            g = random_2connected(n, rng.randint(0, max(0, n - 3)), seed=100 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            d = ear_decomposition(g)
            assert d.replay_edges() == set(g.edges)
            lengths = [e.length for e in d.ears]
            assert lengths == sorted(lengths, reverse=True)
            covered = set(d.initial_cycle)
            edges = cycle_edges(d.initial_cycle)
            for ear in d.ears:
                assert ear.a in covered and ear.b in covered and ear.a != ear.b
                assert all(v not in covered for v in ear.interior)
                covered.update(ear.path)
                edges.update(
                    (min(x, y), max(x, y)) for x, y in zip(ear.path, ear.path[1:])
                )
                sub, _ = g.induced(covered)
                assert is_2_connected(sub) if len(covered) >= 3 else True

    def test_each_ear_is_the_first_longest(self):
        # every ear is the longest, lexicographically first ear of its
        # prefix, by exhaustive enumeration independent of the library
        rng = random.Random(11)
        for i in range(25):
            n = rng.randint(6, 8)
            g = random_2connected(n, rng.randint(1, n), seed=200 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            d = ear_decomposition(g)
            covered = set(d.initial_cycle)
            edges = cycle_edges(d.initial_cycle)
            for ear in d.ears:
                expected = min(brute_force_ears(g, covered, edges),
                               key=lambda p: (-len(p), p))
                assert ear.path == expected and not ear.heuristic
                covered.update(ear.path)
                edges.update((min(x, y), max(x, y)) for x, y in zip(ear.path, ear.path[1:]))

    def test_trailing_chords_match_the_ear_search(self):
        # once every vertex is covered the chords are appended unsearched;
        # searching for each of them, as before, gives the same ears
        rng = random.Random(23)
        chords = 0
        for i in range(40):
            n = rng.randint(6, 30)
            g = random_2connected(n, rng.randint(0, n), seed=700 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            d = ear_decomposition(g)
            covered = set(d.initial_cycle)
            edges = set(_cycle_edges(d.initial_cycle))
            searched = []
            while edges != set(g.edges):
                ear = _longest_ear_impl(g, covered, edges, 10**6)
                searched.append(ear)
                covered.update(ear.path)
                edges.update((min(x, y), max(x, y)) for x, y in zip(ear.path, ear.path[1:]))
            assert list(d.ears) == searched
            chords += sum(ear.length == 1 for ear in searched)
        assert chords > 100

    def test_rejects_non_2connected(self, bowtie):
        with pytest.raises(PreconditionError):
            ear_decomposition(bowtie)


class TestEarType:
    def test_degenerate_ears_rejected(self):
        with pytest.raises(ValueError):
            Ear((3,))
        with pytest.raises(ValueError):
            Ear((3, 4, 3))

    def test_serialization_layout(self):
        d = EarDecomposition((0, 1, 2, 3), (Ear((0, 4, 2)), Ear((1, 3))))
        text = serialize_decomposition(d)
        assert text.splitlines() == [
            "cycle 0 1 2 3",
            "ear 0 4 2 length 2",
            "ear 1 3 length 1",
            "t 1",
        ]
