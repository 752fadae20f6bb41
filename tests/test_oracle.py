import itertools
import random

import pytest

from rvc import (
    BudgetExceededError,
    Graph,
    PreconditionError,
    SearchBudget,
    cycle_reference_table,
    cycle_rvc_value,
    diameter,
    exact_rvc,
    find_rainbow_coloring,
    is_2_connected,
    random_2connected,
    verify_rainbow_vc,
)
from rvc import oracle
from rvc.graph import all_pairs

from .conftest import naive_simple_paths, random_connected_graph


def reference_paths(g: Graph, u: int, v: int, max_internal: int) -> list[tuple[int, ...]]:
    """All simple u-v paths with at most max_internal internal vertices, by
    one depth-first search per pair over sorted neighbours: the oracle's
    path table before it was built one source at a time."""
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


def reference_table(g: Graph, k: int) -> list[list[tuple[int, ...]]] | None:
    """Per-pair path lists in `all_pairs` order, None when some pair has no
    path short enough for k colors; raises as the table crosses
    MAX_PATH_TABLE, whichever of the two comes first."""
    table = []
    total = 0
    for u, v in all_pairs(g.n):
        cand = reference_paths(g, u, v, k)
        if not cand:
            return None
        total += sum(len(p) for p in cand)
        if total > oracle.MAX_PATH_TABLE:
            raise BudgetExceededError("path table too large; shrink the instance")
        table.append(cand)
    return table


def table_graphs():
    rng = random.Random(21)
    for n in range(4, 13):
        yield Graph.cycle(n)
        for seed in range(2):
            kind = "ears" if seed else "hamilton"
            yield random_2connected(n, rng.randint(1, n // 3), seed=900 + n + seed, kind=kind)
        if n <= 8:
            yield random_connected_graph(rng, n)


def decoded_table(g: Graph, k: int) -> dict[tuple[int, int], list[set[int]]] | None:
    """`_path_table`'s output per pair: the interior vertex sets of the
    pair's paths in path-id order; None where the oracle gives None."""
    table = oracle._path_table(g, k, oracle._distances(g))
    if table is None:
        return None
    inc, pair_of = table
    interiors: list[set[int]] = [set() for _ in pair_of]
    for w, pids in enumerate(inc):
        for pid in pids:
            interiors[pid].add(w)
    pairs = list(all_pairs(g.n))
    out: dict[tuple[int, int], list[set[int]]] = {}
    for pid, pr in enumerate(pair_of):
        out.setdefault(pairs[pr], []).append(interiors[pid])
    return out


class TestPathTable:
    """The per-source sweep against the per-pair reference enumerator. The
    search reads only which pair each path joins and which vertices are
    internal to it, so the table is compared by interior sets, pair by
    pair; how the sweep interleaves the pairs is free."""

    def test_lists_match_per_pair_search(self):
        for g in table_graphs():
            for k in range(1, g.n - 1):
                got = decoded_table(g, k)
                if got is None:
                    continue
                want = {
                    (u, v): [set(p[1:-1]) for p in reference_paths(g, u, v, k)]
                    for u, v in all_pairs(g.n)
                }
                assert got == want, (g, k)

    def test_table_order_matches(self):
        for g in table_graphs():
            dist = oracle._distances(g)
            for k in range(1, g.n - 1):
                table = oracle._path_table(g, k, dist)
                assert (table is None) == (reference_table(g, k) is None), (g, k)
                if table is None:
                    continue
                inc, pair_of = table
                # each path is listed once per internal vertex, in id order,
                # which undoing a vertex by XOR relies on
                for pids in inc:
                    assert pids == sorted(set(pids)), (g, k)
                # path ids follow the sweep, source by source
                pairs = list(all_pairs(g.n))
                sources = [pairs[pr][0] for pr in pair_of]
                assert sources == sorted(sources), (g, k)

    @staticmethod
    def outcome(run):
        try:
            return run()
        except BudgetExceededError as err:
            return str(err)

    def test_table_limit_and_far_pair_keep_their_precedence(self, monkeypatch):
        # on P6 with k = 2 the first pair more than k + 1 apart is (0, 4);
        # the pairs before it need 2 + 3 + 4 = 9 path vertices
        g = Graph.path(6)
        seen = set()
        for limit in range(1, 40):
            monkeypatch.setattr(oracle, "MAX_PATH_TABLE", limit)
            want = self.outcome(lambda: reference_table(g, 2))
            got = self.outcome(lambda: find_rainbow_coloring(g, 2))
            assert got == want, limit
            seen.add(want is None)
        assert seen == {True, False}
        monkeypatch.setattr(oracle, "MAX_PATH_TABLE", 8)
        with pytest.raises(BudgetExceededError, match="path table too large"):
            find_rainbow_coloring(g, 2)
        monkeypatch.setattr(oracle, "MAX_PATH_TABLE", 9)
        assert find_rainbow_coloring(g, 2) is None

    def test_table_limit_without_far_pair(self, monkeypatch):
        g = random_2connected(8, 2, seed=3)
        monkeypatch.setattr(oracle, "MAX_PATH_TABLE", 60)
        assert self.outcome(lambda: reference_table(g, 3)) == "path table too large; shrink the instance"
        with pytest.raises(BudgetExceededError, match="path table too large"):
            find_rainbow_coloring(g, 3)


class TestExactValues:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph.complete(4), 0),
            (Graph.cycle(7), 3),
            (Graph.path(5), 3),
            (Graph.cycle(9), 3),
        ],
    )
    def test_known(self, g, expected):
        assert exact_rvc(g).value == expected

    def test_witness_reverifies_with_exact_count(self):
        r = exact_rvc(Graph.cycle(10))
        assert r.value == 4
        assert len(set(r.witness.colors)) == 4
        assert verify_rainbow_vc(Graph.cycle(10), r.witness).verified

    def test_complete_graph_witness_is_constant(self):
        r = exact_rvc(Graph.complete(6))
        assert r.value == 0 and len(set(r.witness.colors)) == 1

    def test_revised_at_least_rainbow(self):
        rng = random.Random(14)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(3, 7))
            # the revised predicate is the rainbow one, so both runs are the same search
            assert exact_rvc(g).value <= exact_rvc(g).value

    def test_over_budget_refused(self):
        with pytest.raises(BudgetExceededError):
            exact_rvc(Graph.cycle(14))

    def test_budget_override(self):
        r = exact_rvc(Graph.cycle(12), budget=SearchBudget(max_vertices=12))
        assert r.value == 5

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            exact_rvc(Graph(4, [(0, 1), (2, 3)]))

    def test_budget_is_keyword_only(self):
        with pytest.raises(TypeError):
            exact_rvc(Graph.cycle(8), 0)
        with pytest.raises(TypeError):
            find_rainbow_coloring(Graph.cycle(8), 3, 0)


class TestFixedK:
    def test_absence_is_exhaustive(self):
        assert find_rainbow_coloring(Graph.cycle(9), 2) is None

    def test_witness_found_at_true_value(self):
        found = find_rainbow_coloring(Graph.cycle(9), 3)
        assert found is not None
        coloring, nodes = found
        assert nodes > 0
        assert verify_rainbow_vc(Graph.cycle(9), coloring).verified

    def test_vertex_budget_is_honoured(self):
        with pytest.raises(BudgetExceededError):
            find_rainbow_coloring(Graph.cycle(12), 5)
        found = find_rainbow_coloring(Graph.cycle(12), 5, budget=SearchBudget(max_vertices=12))
        assert found is not None

    def test_canonical_first_use_order(self):
        coloring, _ = find_rainbow_coloring(Graph.cycle(11), 5)
        seen = []
        for col in coloring.colors:
            if col not in seen:
                seen.append(col)
        assert seen == sorted(seen)


# exact_rvc's (value, nodes, witness) with the witness's colors as digits,
# recorded from the oracle before its path table and search became the two
# functions `_path_table` and `_search`: a kernel that changes how the
# table is stored or how a vertex is undone must expand the same search
# tree and find the same witness.
PINNED_SEARCH = {
    "C3": (0, 0, "000"),
    "C4": (1, 4, "0000"),
    "C5": (1, 5, "00000"),
    "C6": (2, 12, "000101"),
    "C7": (3, 32, "0001021"),
    "C8": (3, 30, "01012012"),
    "C9": (3, 18, "012012012"),
    "C10": (4, 51, "0120130123"),
    "C11": (5, 115, "01201301243"),
    "C12": (5, 63, "012301420134"),
    "C13": (6, 166, "0123014201354"),
    "C14": (7, 1051, "01230142013564"),
    "C15": (7, 1250, "012340516203456"),
    "C16": (8, 5499, "0123405162034576"),
    "R0": (3, 13, "00100121"),
    "R1": (3, 15, "012000120"),
    "R2": (3, 14, "0001001002"),
    "R3": (3, 18, "00000120112"),
    "R4": (5, 28, "010012300234"),
    "R5": (2, 10, "00000011"),
    "R6": (2, 11, "001000010"),
    "R7": (2, 15, "0000010011"),
    "R8": (4, 24, "01230120130"),
    "R9": (5, 27, "000102300234"),
    "R10": (2, 10, "00000110"),
    "R11": (2, 10, "000000010"),
    "R12": (4, 138, "0101201032"),
    "R13": (3, 16, "00000102002"),
    "R14": (4, 24, "001230000123"),
    "R15": (2, 9, "00000010"),
    "R16": (3, 15, "001200012"),
    "R17": (2, 11, "0010000000"),
    "R18": (3, 17, "01200000120"),
    "R19": (3, 16, "000001001020"),
    "R20": (3, 11, "00001002"),
    "R21": (3, 16, "000101212"),
    "R22": (3, 43, "0001012211"),
    "R23": (3, 17, "01000002102"),
    "R24": (5, 26, "010001230034"),
    "R25": (2, 10, "00000110"),
    "R26": (3, 12, "000000012"),
    "R27": (2, 12, "0010001000"),
    "R28": (4, 26, "01230013203"),
    "R29": (4, 20, "000012200300"),
}


def pinned_graphs():
    for n in range(3, 17):
        yield f"C{n}", Graph.cycle(n)
    for i in range(30):
        kind = "ears" if i % 2 else "hamilton"
        yield f"R{i}", random_2connected(8 + i % 5, 1 + i % 4, seed=2200 + i, kind=kind)


def naive_rvc(g: Graph) -> int:
    """The least k for which some assignment of k colors gives every pair a
    path with distinct internal colors, trying every assignment in turn
    and every path from conftest's brute-force enumerator."""
    if g.is_complete():
        return 0
    interiors = [
        [p[1:-1] for p in naive_simple_paths(g, u, v)] for u, v in all_pairs(g.n)
    ]
    for k in range(1, g.n + 1):
        for colors in itertools.product(range(k), repeat=g.n):
            if all(
                any(len({colors[w] for w in inner}) == len(inner) for inner in pair)
                for pair in interiors
            ):
                return k
    raise AssertionError("n colors always suffice")


class TestSearchTree:
    def test_exact_results_are_pinned(self):
        budget = SearchBudget(max_vertices=16)
        got = {}
        for name, g in pinned_graphs():
            r = exact_rvc(g, budget=budget)
            got[name] = (r.value, r.nodes, "".join(map(str, r.witness.colors)))
        assert got == PINNED_SEARCH

    def test_value_matches_naive_enumeration(self):
        # half dense, half a random tree plus up to two edges, so that the
        # values spread up to n - 2
        rng = random.Random(22)
        for i in range(40):
            n = rng.randint(4, 7)
            if i % 2:
                g = random_connected_graph(rng, n)
            else:
                edges = {(rng.randrange(v), v) for v in range(1, n)}
                edges.update(rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(0, 2)))
                g = Graph(n, edges)
            assert exact_rvc(g).value == naive_rvc(g), g


class TestReferenceTable:
    def test_default_rows_agree(self):
        rows = cycle_reference_table(max_exact_n=9, max_n=20)
        by_n = {r.n: r for r in rows}
        assert by_n[3].exact == 0 and by_n[3].closed_form == 0
        assert by_n[9].exact == 3
        assert by_n[16].constructed == 8 and by_n[16].exact is None
        for r in rows:
            assert r.constructed == r.closed_form
            if r.exact is not None:
                assert r.exact == r.closed_form

    def test_exceptional_row_11(self):
        rows = cycle_reference_table(max_exact_n=11, max_n=11)
        row = [r for r in rows if r.n == 11][0]
        assert row.exact == 5 == -(-11 // 2) - 1


class TestGenerator:
    def test_no_chords_gives_the_cycle(self):
        g = random_2connected(5, 0, seed=3)
        assert g == Graph.cycle(5)

    def test_saturation_gives_complete(self):
        g = random_2connected(6, 9, seed=3)
        assert g.is_complete()

    def test_deterministic_and_2connected(self):
        a = random_2connected(20, 4, seed=7)
        b = random_2connected(20, 4, seed=7)
        assert a == b and is_2_connected(a)
        c = random_2connected(20, 4, seed=8)
        assert is_2_connected(c)

    def test_ears_kind(self):
        for seed in range(8):
            g = random_2connected(12, 2, seed=seed, kind="ears")
            assert is_2_connected(g) and g.n == 12

    def test_capacity_errors(self):
        with pytest.raises(PreconditionError):
            random_2connected(5, 6, seed=0)


class TestOracleInvariants:
    def test_section_bounds_on_random_graphs(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 7))
            value = exact_rvc(g).value
            d = diameter(g)
            assert max(d - 1, 0) <= value <= g.n - 2
            assert (value == 0) == g.is_complete()
            assert (value == 1) == (d == 2)

    def test_two_connected_cycle_bound_small(self):
        rng = random.Random(16)
        for i in range(30):
            n = rng.randint(3, 9)
            g = random_2connected(n, rng.randint(0, max(0, n - 3)), seed=600 + i)
            assert exact_rvc(g).value <= cycle_rvc_value(n)
