import random

import pytest

from rvc import (
    REVISED,
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

from .conftest import random_connected_graph


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


class TestPathTable:
    """The per-source sweep against the per-pair reference enumerator."""

    def test_lists_match_per_pair_search(self):
        for g in table_graphs():
            adj = [sorted(g.adj(w)) for w in range(g.n)]
            for k in range(1, g.n - 1):
                got = {}
                for u in range(g.n - 1):
                    lists, _ = oracle._paths_from(adj, u, k, g.n, oracle.MAX_PATH_TABLE)
                    got.update(((u, v), lists[v]) for v in range(u + 1, g.n))
                want = {(u, v): reference_paths(g, u, v, k) for u, v in all_pairs(g.n)}
                assert got == want, (g, k)

    def test_table_order_matches(self):
        for g in table_graphs():
            dist = oracle._distances(g)
            for k in range(1, g.n - 1):
                table = reference_table(g, k)
                search = oracle._FixedKSearch(g, k, 10, dist)
                assert search.feasible == (table is not None), (g, k)
                if table is None:
                    continue
                paths = [p for cand in table for p in cand]
                assert search.pair_of == [i for i, cand in enumerate(table) for _ in cand]
                assert search.inc_internal == [
                    [i for i, p in enumerate(paths) if w in p[1:-1]] for w in range(g.n)
                ]

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
            assert exact_rvc(g).value <= exact_rvc(g, REVISED).value

    def test_over_budget_refused(self):
        with pytest.raises(BudgetExceededError):
            exact_rvc(Graph.cycle(14))

    def test_budget_override(self):
        r = exact_rvc(Graph.cycle(12), budget=SearchBudget(max_vertices=12))
        assert r.value == 5

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            exact_rvc(Graph(4, [(0, 1), (2, 3)]))

    def test_forbidden_rejected(self):
        # the search does not honour a banned color, so it must refuse one
        with pytest.raises(PreconditionError, match="forbidden color"):
            exact_rvc(Graph.cycle(8), 0)
        with pytest.raises(PreconditionError, match="forbidden color"):
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
