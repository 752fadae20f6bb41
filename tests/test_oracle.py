import random

import pytest

from rvc import (
    REVISED,
    BudgetExceededError,
    Graph,
    PreconditionError,
    RainbowMode,
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

from .conftest import random_connected_graph


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

    def test_forbidden_color_rejected(self):
        # the search does not honour a banned color, so it must refuse one
        mode = RainbowMode(forbidden_color=0)
        with pytest.raises(PreconditionError, match="forbidden color"):
            exact_rvc(Graph.cycle(8), mode)
        with pytest.raises(PreconditionError, match="forbidden color"):
            find_rainbow_coloring(Graph.cycle(8), 3, mode)


class TestFixedK:
    def test_absence_is_exhaustive(self):
        assert find_rainbow_coloring(Graph.cycle(9), 2) is None

    def test_witness_found_at_true_value(self):
        found = find_rainbow_coloring(Graph.cycle(9), 3)
        assert found is not None
        coloring, nodes = found
        assert nodes > 0
        assert verify_rainbow_vc(Graph.cycle(9), coloring).verified

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
