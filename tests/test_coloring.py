import inspect
import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from rvc import (
    REVISED,
    Coloring,
    ConstructionError,
    EarDecomposition,
    Graph,
    PreconditionError,
    SearchInconclusiveError,
    attach_ear,
    balanced_chain_coloring,
    balanced_coloring,
    block_bound,
    block_coloring,
    block_decomposition,
    color_stats,
    cycle_coloring,
    cycle_rvc_value,
    diameter,
    ear_decomposition,
    find_rainbow_coloring,
    has_color_avoiding_connectivity,
    long_ear_coloring,
    parse_coloring,
    random_2connected,
    serialize_coloring,
    two_connected_coloring,
    verify_rainbow_vc,
)
from rvc.coloring import SMALL_CYCLE_COLORINGS, _gate
from rvc.decompose import Ear
from rvc.verify import _first_failure

from .test_acceptance import _chain_instance


def closed_form(n: int) -> int:
    # restated independently of the library for the table comparison
    if n == 3:
        return 0
    if n in (4, 5):
        return 1
    if n == 9:
        return 3
    if n in (6, 7, 8, 10, 11, 12, 13, 15):
        return -(-n // 2) - 1
    return -(-n // 2)


class TestCycleValue:
    def test_matches_closed_form_up_to_100(self):
        for n in range(3, 101):
            assert cycle_rvc_value(n) == closed_form(n)

    def test_rejects_tiny(self):
        with pytest.raises(PreconditionError):
            cycle_rvc_value(2)


class TestCycleColoring:
    def test_wraparound_pattern_at_14(self):
        c = cycle_coloring(14)
        assert c.colors == tuple(list(range(7)) + list(range(7)))
        assert c.reported_count == 7

    def test_constant_at_4(self):
        c = cycle_coloring(4)
        assert len(set(c.colors)) == 1 and c.reported_count == 1

    def test_complete_convention_at_3(self):
        c = cycle_coloring(3)
        assert c.reported_count == 0 and len(set(c.colors)) == 1

    def test_frozen_9_cycle_witness(self):
        c = cycle_coloring(9)
        assert c.reported_count == 3
        assert verify_rainbow_vc(Graph.cycle(9), c).verified

    def test_counts_and_verification_3_to_60(self):
        for n in range(3, 61):
            c = cycle_coloring(n)
            assert c.reported_count == cycle_rvc_value(n), n
            assert verify_rainbow_vc(Graph.cycle(n), c).verified, n

    def test_counts_match_table_to_100(self):
        for n in range(3, 101):
            assert cycle_coloring(n).reported_count == cycle_rvc_value(n)

    def test_frozen_witnesses_regenerate_from_search(self):
        from rvc import SearchBudget

        for n, frozen in SMALL_CYCLE_COLORINGS.items():
            k = cycle_rvc_value(n)
            assert len(set(frozen)) == k
            budget = SearchBudget(max_vertices=n)
            found = find_rainbow_coloring(Graph.cycle(n), k, budget=budget)
            assert found is not None
            assert verify_rainbow_vc(Graph.cycle(n), frozen).verified


class TestBalancedColoring:
    def test_worked_even_host_odd_ear_example(self):
        # C6 colored (x1,x2,x3)*2, ear on 6 vertices between equal-colored
        # attachments; the mechanical case application gives exactly this
        h = Graph.cycle(6)
        cp = Coloring((0, 1, 2, 0, 1, 2), reported_count=3)
        g2, ear = attach_ear(h, 0, 3, 4)
        c = balanced_coloring(h, cp, ear)
        assert dict(enumerate(c.colors)) == {
            0: 0, 1: 1, 2: 2, 3: 4, 4: 1, 5: 2, 6: 3, 7: 4, 8: 0, 9: 3,
        }
        st = color_stats(c)
        assert st.distinct == 5 and set(st.histogram.values()) == {2}
        assert verify_rainbow_vc(g2, c, REVISED).verified

    def test_even_even_case_has_a_singleton_on_the_ear(self):
        h = Graph.cycle(6)
        cp = Coloring((0, 1, 2, 0, 1, 2), reported_count=3)
        g2, ear = attach_ear(h, 0, 3, 5)  # ear length 6: both parities even
        c = balanced_coloring(h, cp, ear)
        st = color_stats(c)
        assert st.distinct == (g2.n + 1) // 2
        assert len(st.once_used) == 1
        carrier = [v for v in range(g2.n) if c.colors[v] == st.once_used[0]]
        assert len(carrier) == 1 and carrier[0] in ear.path

    def test_fresh_colors_skip_host_palette_gaps(self):
        # the host palette {0, 3, 5} has gaps; new colors must still avoid it
        h = Graph.cycle(6)
        cp = Coloring((0, 3, 5, 0, 3, 5), reported_count=3)
        g2, ear = attach_ear(h, 0, 3, 4)
        c = balanced_coloring(h, cp, ear)
        assert sorted(set(c.colors) - {0, 3, 5}) == [6, 7]
        assert verify_rainbow_vc(g2, c, REVISED).verified

    def test_multiset_shape_on_seeded_inputs(self):
        rng = random.Random(10)
        for trial in range(30):
            n0 = rng.choice([6, 8, 10])
            h = Graph.cycle(n0)
            cp = Coloring(tuple(i % (n0 // 2) for i in range(n0)), n0 // 2)
            a, b = rng.sample(range(n0), 2)
            g2, ear = attach_ear(h, a, b, rng.randint(5, 8))
            c = balanced_coloring(h, cp, ear)
            st = color_stats(c)
            assert st.distinct == (g2.n + 1) // 2
            assert max(st.histogram.values()) <= 2
            assert verify_rainbow_vc(g2, c, REVISED).verified

    def test_star_target_served_and_checked(self):
        h = Graph.cycle(8)
        cp = Coloring(tuple(i % 4 for i in range(8)), 4)
        g2, ear = attach_ear(h, 0, 4, 5)  # result order 13, odd
        c = balanced_coloring(h, cp, ear, star_target=2)
        st = color_stats(c)
        assert len(st.once_used) == 1
        assert c.colors[2] != st.once_used[0]
        assert has_color_avoiding_connectivity(g2, c, 2, st.once_used[0])

    def test_short_ear_rejected(self):
        h = Graph.cycle(6)
        cp = Coloring((0, 1, 2, 0, 1, 2), reported_count=3)
        _, ear = attach_ear(h, 0, 3, 3)  # only 5 ear vertices
        with pytest.raises(PreconditionError):
            balanced_coloring(h, cp, ear)

    def test_bad_host_coloring_rejected(self):
        h = Graph.cycle(6)
        _, ear = attach_ear(h, 0, 3, 4)
        with pytest.raises(PreconditionError):
            balanced_coloring(h, Coloring((0, 0, 0, 1, 1, 2), 3), ear)

    def test_star_target_on_even_order_rejected(self):
        h = Graph.cycle(6)
        cp = Coloring((0, 1, 2, 0, 1, 2), reported_count=3)
        _, ear = attach_ear(h, 0, 3, 4)  # result order 10, even
        with pytest.raises(PreconditionError):
            balanced_coloring(h, cp, ear, star_target=1)

    def test_once_used_color_on_first_attachment_rejected(self):
        h = Graph.cycle(7)
        cp = Coloring((0, 1, 2, 3, 0, 1, 2), reported_count=4)  # 3 is once-used
        _, ear = attach_ear(h, 3, 0, 4)
        with pytest.raises(PreconditionError, match="first attachment"):
            balanced_coloring(h, cp, ear)
        # breaking the star-target parity rule as well reports that first
        _, ear = attach_ear(h, 3, 0, 5)  # result order 12, even
        with pytest.raises(PreconditionError, match="star target is only meaningful"):
            balanced_coloring(h, cp, ear, star_target=1)

    def test_host_coloring_that_fails_on_the_host_rejected(self):
        # every structural check passes, but the host coloring fails on C8
        h = Graph.cycle(8)
        _, ear = attach_ear(h, 0, 3, 5)
        with pytest.raises(PreconditionError, match=r"pair \(0, 4\)"):
            balanced_coloring(h, Coloring((0, 0, 1, 1, 2, 2, 3, 3), 4), ear)


class TestBalancedChain:
    def test_unservable_target_is_a_refutation(self):
        # minimal counterexample: no balanced coloring of this chain has the
        # avoiding property at the middle ear vertex, and the search proves it
        with pytest.raises(ConstructionError, match="no verified balanced chain exists"):
            balanced_chain_coloring(8, [Ear((0, 8, 9, 10, 11, 12, 1))], final_target=10)

    def test_step_budget_exhaustion_is_inconclusive(self, monkeypatch):
        _, ear = attach_ear(Graph.cycle(10), 0, 4, 5)
        balanced_chain_coloring(10, [ear])  # solvable within the default budget
        monkeypatch.setattr("rvc.coloring._CHAIN_STEP_BUDGET", 0)
        with pytest.raises(SearchInconclusiveError, match="budget exhausted"):
            balanced_chain_coloring(10, [ear])

    @pytest.mark.parametrize("seed", [108, 199])
    def test_backtracking_seeds_are_refuted_within_budget(self, seed):
        # criterion 4's two deepest searches finish once no state is searched twice
        n0, ears, target, _ = _chain_instance(seed)
        with pytest.raises(ConstructionError, match="no verified balanced chain exists"):
            balanced_chain_coloring(n0, ears, final_target=target)

    def test_each_candidate_is_verified_once(self, monkeypatch):
        # counted at the gate, which runs either the full or the interior-only check
        calls = Counter()

        def counting(g, host, out):
            calls[g.n, tuple(out)] += 1
            return _gate(g, host, out)

        monkeypatch.setattr("rvc.coloring._gate", counting)
        n0, ears, target, _ = _chain_instance(108)
        with pytest.raises(ConstructionError):
            balanced_chain_coloring(n0, ears, final_target=target)
        assert len(calls) > 1000 and max(calls.values()) == 1

    def test_each_avoiding_check_runs_once(self, monkeypatch):
        calls = Counter()
        check = has_color_avoiding_connectivity

        def counting(g, colors, v, x):
            calls[g.n, tuple(colors), v] += 1
            return check(g, colors, v, x)

        monkeypatch.setattr("rvc.coloring.has_color_avoiding_connectivity", counting)
        n0, ears, target, _ = _chain_instance(199)
        with pytest.raises(ConstructionError):
            balanced_chain_coloring(n0, ears, final_target=target)
        assert len(calls) > 1000 and max(calls.values()) == 1

    def test_more_ears_than_the_recursion_limit_allows(self):
        ears, n = [], 8
        for _ in range(30):
            ears.append(Ear((0, *range(n, n + 4), n - 1)))
            n += 4
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 25)
        try:
            g, c = balanced_chain_coloring(8, ears)
        finally:
            sys.setrecursionlimit(limit)
        assert g.n == n and verify_rainbow_vc(g, c).verified


class TestInteriorOnlyGates:
    """A gate whose recolored host vertices keep host pairs intact searches
    only from the new ear's interior; its verdict is the full verifier's."""

    @staticmethod
    def color_shaped_graphs():
        # the 2-connected cells of perfbench's color rounds
        cells = [(40, 4), (42, 4), (44, 4), (64, 10)]
        for i in range(50):
            n, div = cells[i % 4]
            yield random_2connected(n, n // div, seed=900 + i, kind=("hamilton", "ears")[i // 4 % 2])

    def test_interior_only_verdicts_match_full_verification(self, monkeypatch):
        gates = 0
        verdicts = Counter()

        def counting_gate(*args):
            nonlocal gates
            gates += 1
            return _gate(*args)

        def checked(g, colors, block, budget, first=0):
            got = _first_failure(g, colors, block, budget, first)
            if first > 0:
                assert (got is None) == verify_rainbow_vc(g, colors).verified, (g, colors)
                verdicts[got is None] += 1
            return got

        monkeypatch.setattr("rvc.coloring._gate", counting_gate)
        monkeypatch.setattr("rvc.coloring._first_failure", checked)
        for seed in range(220):
            n0, ears, target, _ = _chain_instance(seed)
            try:
                balanced_chain_coloring(n0, ears, final_target=target)
            except (ConstructionError, SearchInconclusiveError):
                pass
        for g in self.color_shaped_graphs():
            two_connected_coloring(g)
        interior_only = sum(verdicts.values())
        print(f"interior-only gates: {interior_only} of {gates}"
              f" ({verdicts[True]} passed, {verdicts[False]} failed)")
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_base_cycle_pattern_verifies(self):
        # the first gate's host: i mod n0/2 on the even base cycle
        for n0 in range(4, 65, 2):
            assert verify_rainbow_vc(Graph.cycle(n0), [i % (n0 // 2) for i in range(n0)]).verified


class TestLongEarColoring:
    def test_odd_cycle_wraparound(self):
        g = Graph.cycle(17)
        c = long_ear_coloring(g, ear_decomposition(g))
        st = color_stats(c)
        assert st.distinct == 9 and st.once_used == (8,)
        assert list(st.histogram.values()).count(2) == 8
        assert verify_rainbow_vc(g, c, REVISED).verified

    def test_even_base_plus_long_ear(self):
        g, _ = attach_ear(Graph.cycle(12), 0, 5, 4)  # n = 16
        c = long_ear_coloring(g, ear_decomposition(g))
        st = color_stats(c)
        assert st.distinct == 8 and set(st.histogram.values()) == {2}
        assert verify_rainbow_vc(g, c, REVISED).verified

    def test_nested_ears_with_intermediate_property_checks(self):
        g1, e1 = attach_ear(Graph.cycle(10), 0, 4, 5)   # length 6
        g2, e2 = attach_ear(g1, 11, 13, 4)              # length 5, nested
        d = EarDecomposition(tuple(range(10)), (e1, e2))
        c = long_ear_coloring(g2, d)
        st = color_stats(c)
        assert st.distinct == 10 and len(st.once_used) == 1
        assert verify_rainbow_vc(g2, c, REVISED).verified
        # the intermediate stage must have supported the second attachment:
        # rebuild it through the public chain and check the property there
        g_mid, c_mid = balanced_chain_coloring(10, [e1], final_target=e2.path[0])
        st_mid = color_stats(c_mid)
        assert has_color_avoiding_connectivity(
            g_mid, c_mid, e2.path[0], st_mid.once_used[0]
        )

    def test_rejects_short_ears(self):
        g, _ = attach_ear(Graph.cycle(16), 0, 5, 1)
        with pytest.raises(PreconditionError):
            long_ear_coloring(g, ear_decomposition(g))

    def test_rejects_small_order(self):
        g = Graph.cycle(12)
        with pytest.raises(PreconditionError):
            long_ear_coloring(g, ear_decomposition(g))

    def test_rejects_ear_through_host_vertices(self):
        # the "ear" runs along the cycle, so its interior is not new
        d = EarDecomposition(tuple(range(16)), (Ear((0, 1, 2, 3, 4, 5)),))
        with pytest.raises(PreconditionError, match="not yet in the chain"):
            long_ear_coloring(Graph.cycle(16), d)


class TestTwoConnected:
    def test_defers_to_cycle_values(self):
        for n in (4, 7, 9, 14, 20):
            g = Graph.cycle(n)
            c = two_connected_coloring(g)
            assert c.reported_count == cycle_rvc_value(n)
            assert verify_rainbow_vc(g, c).verified

    def test_complete_graph_convention(self):
        c = two_connected_coloring(Graph.complete(4))
        assert c.reported_count == 0

    def test_c16_plus_short_ear(self):
        g, _ = attach_ear(Graph.cycle(16), 0, 7, 1)  # n = 17
        c = two_connected_coloring(g)
        assert c.reported_count <= 9
        assert verify_rainbow_vc(g, c).verified

    def test_every_short_ear_length_appears_and_verifies(self):
        g, _ = attach_ear(Graph.cycle(16), 0, 8, 1)   # length 2
        g, _ = attach_ear(g, 2, 10, 2)                # length 3
        g, _ = attach_ear(g, 4, 12, 3)                # length 4
        g, _ = attach_ear(g, 5, 13, 3)                # second length 4
        c = two_connected_coloring(g)
        assert verify_rainbow_vc(g, c).verified
        assert c.reported_count <= (g.n + 1) // 2

    def test_ear_lengths_out_of_order_name_the_ear_budget(self, monkeypatch):
        # a long ear after a short one happens only when the ear search ran
        # out of budget and returned a shorter ear first
        from rvc import coloring

        g, _ = attach_ear(Graph.cycle(16), 0, 8, 1)
        g, _ = attach_ear(g, 2, 12, 4)
        d = EarDecomposition(
            tuple(range(16)),
            (Ear((0, 16, 8), heuristic=True), Ear((2, 17, 18, 19, 20, 12))),
        )
        monkeypatch.setattr(coloring, "ear_decomposition", lambda _g: d)
        with pytest.raises(ConstructionError) as info:
            two_connected_coloring(g)
        assert str(info.value) == (
            "the ear search ran out of its budget, so the ear lengths are not nonincreasing"
        )

    def test_bound_on_seeded_graphs(self):
        rng = random.Random(11)
        for i in range(25):
            n = rng.randint(16, 34)
            g = random_2connected(n, rng.randint(0, n // 4), seed=200 + i,
                                  kind=rng.choice(["hamilton", "ears"]))
            c = two_connected_coloring(g)
            assert c.reported_count <= (n + 1) // 2
            assert verify_rainbow_vc(g, c).verified

    def test_golden_colorings_on_seeded_graphs(self):
        # exact outputs of the construction, frozen so that refactors of the
        # ear, chain and short-ear layers keep every choice they make
        golden = [
            ((37, 1, 21, "ears"), (
                3, 1, 2, 0, 1, 12, 15, 14, 11, 13, 5, 17, 4, 14, 17, 16, 12, 0,
                2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 10, 9, 8, 15, 7, 6, 16, 15, 13,
            )),
            ((31, 4, 63, "ears"), (
                9, 0, 13, 2, 3, 4, 5, 6, 7, 10, 11, 8, 12, 7, 10, 11, 8, 9, 0,
                1, 2, 13, 4, 5, 14, 3, 12, 14, 1, 6, 14,
            )),
            ((27, 6, 4, "ears"), (
                0, 13, 11, 3, 11, 0, 9, 2, 3, 4, 1, 13, 8, 9, 10, 1, 5, 6, 7, 8,
                4, 10, 12, 2, 7, 6, 5,
            )),
            ((29, 2, 70, "ears"), (
                0, 1, 2, 3, 10, 12, 2, 11, 12, 7, 8, 9, 10, 6, 5, 4, 9, 8, 7, 6,
                5, 4, 3, 11, 11, 1, 11, 11, 0,
            )),
            ((28, 2, 4, "hamilton"), (
                7, 6, 5, 4, 3, 2, 1, 0, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                1, 0, 13, 12, 11, 10, 9, 8,
            )),
            ((40, 6, 6, "hamilton"), (
                2, 0, 1, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5,
                4, 3, 2, 1, 0, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7,
                6, 5, 4, 3,
            )),
        ]
        for (n, extra, seed, kind), colors in golden:
            c = two_connected_coloring(random_2connected(n, extra, seed=seed, kind=kind))
            assert c.colors == colors, (n, extra, seed, kind)

    def test_small_orders_meet_cycle_bound(self):
        rng = random.Random(12)
        for i in range(40):
            n = rng.randint(4, 15)
            g = random_2connected(n, rng.randint(0, max(0, n - 3)), seed=300 + i)
            c = two_connected_coloring(g)
            assert c.reported_count <= cycle_rvc_value(n), (n, c.reported_count)
            assert verify_rainbow_vc(g, c).verified

    def test_minimal_spanning_coloring_extends_to_supergraph(self):
        rng = random.Random(13)
        for i in range(10):
            n = rng.randint(8, 16)
            h = random_2connected(n, 0, seed=400 + i)  # a Hamilton cycle, minimally 2-connected
            g = h
            for u, v in rng.sample(sorted(set(combinations(range(n), 2)) - h.edges), 5):
                g = g.with_edge(u, v)
            ch = two_connected_coloring(h)
            assert verify_rainbow_vc(g, ch).verified

    def test_rejects_non_2connected(self, bowtie):
        with pytest.raises(PreconditionError):
            two_connected_coloring(bowtie)

    @pytest.mark.parametrize(
        "g",
        [Graph(m + 2, [(a, j) for a in (0, 1) for j in range(2, m + 2)]) for m in range(3, 7)]
        + [Graph(r + 1, [(0, i) for i in range(1, r + 1)] + [(i, i % r + 1) for i in range(1, r + 1)])
           for r in range(4, 9)]
        + [Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])],
        ids=[f"K2,{m}" for m in range(3, 7)] + [f"wheel{r}" for r in range(4, 9)] + ["petersen"],
    )
    def test_diameter_2_takes_one_color(self, g):
        # a non-adjacent pair has a common neighbour, so one color always verifies
        c = two_connected_coloring(g)
        assert (c.colors, c.reported_count, c.method) == ((0,) * g.n, 1, "two-connected")
        assert verify_rainbow_vc(g, c).verified

    def test_diameter_2_shortcut_agrees_with_diameter(self, monkeypatch):
        # the shortcut stops at the first vertex with a distance above 2;
        # whether it is taken must still be whether the diameter is 2
        class Pipeline(Exception):
            pass

        def pipeline(g):
            raise Pipeline

        monkeypatch.setattr("rvc.coloring._two_connected_pipeline", pipeline)
        rng = random.Random(29)
        graphs = [Graph(r + 1, [(0, i) for i in range(1, r + 1)] + [(i, i % r + 1) for i in range(1, r + 1)])
                  for r in range(4, 24)]
        graphs += [Graph(n, set(Graph.complete(n).edges) - {(0, n - 1)}) for n in range(4, 24)]
        for n in range(6, 26):
            # a clique on all but two vertices, which are 3 apart: the only far pair
            perm = rng.sample(range(n), n)
            edges = [(0, 1), (0, 2), (n - 1, n - 3), (n - 1, n - 2)] + list(combinations(range(1, n - 1), 2))
            graphs.append(Graph(n, [(perm[u], perm[v]) for u, v in edges]))
        for i in range(140):
            n = rng.randint(8, 30)
            dense = i % 2 == 0
            extra = rng.randint(n * (n - 3) // 4, n * (n - 3) // 2 - n) if dense else rng.randint(1, n)
            graphs.append(random_2connected(n, extra, seed=1000 + i, kind=("hamilton", "ears")[i // 2 % 2]))
        taken = Counter()
        for g in graphs:
            try:
                shortcut = two_connected_coloring(g).colors == (0,) * g.n
            except Pipeline:
                shortcut = False
            assert shortcut == (diameter(g) == 2), g
            taken[shortcut] += 1
        assert len(graphs) == 200 and taken[True] > 50 and taken[False] > 50

    BRANCHES = {
        "cycle": (lambda: Graph.cycle(14), "cycle", False),
        "complete": (lambda: Graph.complete(4), "complete", False),
        "diameter-2": (lambda: Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
                       "two-connected", False),
        "pipeline": (lambda: random_2connected(40, 10, seed=3), "two-connected", False),
        "exact": (lambda: random_2connected(8, 1, seed=0), "two-connected", True),
    }

    @pytest.mark.parametrize("name", sorted(BRANCHES))
    def test_each_branch_verifies_its_result_once(self, name, monkeypatch):
        import rvc.coloring
        import rvc.oracle

        make, method, exact = self.BRANCHES[name]
        g = make()
        checks = []
        original = rvc.coloring.verify_rainbow_vc

        def recorder(graph, c, *args, **kwargs):
            checks.append((graph, tuple(getattr(c, "colors", c))))
            return original(graph, c, *args, **kwargs)

        searched = []
        search = rvc.oracle.exact_rvc

        def spy(graph, *args, **kwargs):
            searched.append(graph.n)
            return search(graph, *args, **kwargs)

        monkeypatch.setattr(rvc.coloring, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.oracle, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.oracle, "exact_rvc", spy)
        c = two_connected_coloring(g)
        assert c.method == method and bool(searched) == exact
        assert checks.count((g, c.colors)) == 1


class TestBlockColoring:
    def test_bowtie(self, bowtie):
        c = block_coloring(bowtie)
        assert verify_rainbow_vc(bowtie, c).verified
        assert c.reported_count <= 1  # 0 + 0 + one cut vertex

    def test_two_hexagon_blocks(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        mapping = [5, 6, 7, 8, 9, 10]
        edges += [(mapping[i], mapping[(i + 1) % 6]) for i in range(6)]
        g = Graph(11, edges)
        c = block_coloring(g)
        assert verify_rainbow_vc(g, c).verified
        assert c.reported_count <= 2 + 2 + 1

    def test_tree_uses_exactly_cut_count(self):
        tree = Graph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6)])
        c = block_coloring(tree)
        assert verify_rainbow_vc(tree, c).verified
        assert c.reported_count == block_decomposition(tree).t

    def test_complete_graph_reports_zero(self):
        c = block_coloring(Graph.complete(5))
        assert c.reported_count == 0

    def test_single_edge(self):
        c = block_coloring(Graph(2, [(0, 1)]))
        assert c.reported_count == 0  # K2 is complete

    def test_mixed_blocks_within_bound(self):
        # triangle - C5 - K4 chained through two cut vertices
        edges = [(0, 1), (1, 2), (2, 0)]
        edges += [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2)]
        edges += [(6, 7), (7, 8), (8, 9), (9, 6), (6, 8), (7, 9)]
        g = Graph(10, edges)
        c = block_coloring(g)
        assert verify_rainbow_vc(g, c).verified
        assert c.reported_count <= block_bound(g)

    def test_rejects_disconnected(self):
        with pytest.raises(PreconditionError):
            block_coloring(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_get_the_complete_record(self, n):
        c = block_coloring(Graph(n))
        assert (c.colors, c.reported_count, c.method) == ((0,) * n, 0, "complete")

    @pytest.mark.parametrize(
        "g",
        [Graph.cycle(14), Graph.complete(4), random_2connected(40, 10, seed=3),
         random_2connected(8, 1, seed=0)],
        ids=["c14", "k4", "pipeline", "exact"],
    )
    def test_2_connected_input_is_its_own_block(self, g):
        assert block_coloring(g) == two_connected_coloring(g)


class TestColoringSerialization:
    def test_round_trip(self):
        c = cycle_coloring(14)
        back = parse_coloring(serialize_coloring(c))
        assert back.colors == c.colors
        assert back.reported_count == c.reported_count
        assert back.method == "cycle"

    def test_parse_without_count_falls_back_to_distinct(self):
        c = parse_coloring("colors 0 1 0 2\n")
        assert c.reported_count == 3

    def test_dimension_mismatch_rejected(self):
        from rvc import GraphFormatError

        with pytest.raises(GraphFormatError):
            parse_coloring("vertices 3\ncolors 0 1\n")
