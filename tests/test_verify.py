import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvc import (
    RAINBOW,
    REVISED,
    Graph,
    PreconditionError,
    SearchInconclusiveError,
    color_stats,
    exists_rainbow_path,
    has_color_avoiding_connectivity,
    is_rainbow_path,
    serialize_certificate,
    verify_rainbow_vc,
)

from .conftest import naive_simple_paths, random_connected_graph


class TestPathPredicate:
    def test_two_vertex_path_is_always_rainbow(self):
        assert is_rainbow_path((0, 1), [5, 5], RAINBOW)
        assert is_rainbow_path((0, 1), [5, 5], REVISED)

    def test_internal_repeat_fails_both_modes(self):
        colors = [5, 1, 2, 1, 6]
        path = (0, 1, 2, 3, 4)
        assert not is_rainbow_path(path, colors, RAINBOW)
        assert not is_rainbow_path(path, colors, REVISED)

    def test_shared_end_colors_allowed(self):
        colors = [3, 1, 2, 3]
        path = (0, 1, 2, 3)
        assert is_rainbow_path(path, colors, RAINBOW)
        assert is_rainbow_path(path, colors, REVISED)

    def test_forbidden_bans_everywhere(self):
        assert not is_rainbow_path((0, 1, 2), [3, 1, 2], 3)
        assert not is_rainbow_path((0, 1, 2), [1, 3, 2], 3)
        assert is_rainbow_path((0, 1, 2), [1, 4, 2], 3)


class TestExistsPath:
    def test_adjacent_pair_gets_the_edge(self):
        g = Graph.cycle(6)
        assert exists_rainbow_path(g, [0] * 6, 2, 3) == (2, 3)

    def test_c7_with_two_colors_has_a_dead_pair(self):
        # adjacent same-colored vertices on C7 leave no rainbow route
        # between the vertices just outside them
        g = Graph.cycle(7)
        colors = [0, 0, 1, 0, 1, 0, 1]
        assert exists_rainbow_path(g, colors, 6, 2) is None

    def test_c14_wraparound_antipodal_shortest_arc(self):
        g = Graph.cycle(14)
        colors = [i % 7 for i in range(14)]
        path = exists_rainbow_path(g, colors, 0, 7)
        assert path is not None and len(path) == 8

    def test_symmetry_under_reversal(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 7))
            colors = [rng.randrange(3) for _ in range(g.n)]
            for mode in (RAINBOW, REVISED):
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        a = exists_rainbow_path(g, colors, u, v, mode)
                        b = exists_rainbow_path(g, colors, v, u, mode)
                        assert (a is None) == (b is None)

    def test_budget_exhaustion_is_loud(self):
        g = Graph.path(8)
        colors = list(range(8))
        with pytest.raises(SearchInconclusiveError):
            exists_rainbow_path(g, colors, 0, 7, RAINBOW, node_budget=2)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(PreconditionError):
            exists_rainbow_path(Graph.cycle(3), [0, 1, 2], 1, 1)

    def test_matches_naive_enumeration(self):
        rng = random.Random(6)
        for _ in range(120):
            g = random_connected_graph(rng, rng.randint(3, 6))
            k = rng.randint(1, g.n)
            colors = [rng.randrange(k) for _ in range(g.n)]
            forbidden = rng.choice([RAINBOW, REVISED, 0, 1])
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    found = exists_rainbow_path(g, colors, u, v, forbidden)
                    naive = any(
                        is_rainbow_path(p, colors, forbidden)
                        for p in naive_simple_paths(g, u, v)
                    )
                    assert (found is not None) == naive
                    if found is not None:
                        assert is_rainbow_path(found, colors, forbidden)


class TestVerifyAllPairs:
    def test_complete_graph_any_constant_coloring(self):
        cert = verify_rainbow_vc(Graph.complete(5), [0] * 5)
        assert cert.verified

    def test_c14_wraparound_verified(self):
        cert = verify_rainbow_vc(Graph.cycle(14), [i % 7 for i in range(14)])
        assert cert.verified

    def test_c14_six_colors_fails(self):
        # any concrete 6-coloring has a counterexample pair
        colors = [i % 6 for i in range(14)]
        cert = verify_rainbow_vc(Graph.cycle(14), colors)
        assert not cert.verified and cert.failing_pair is not None

    def test_failing_pair_is_lexicographic_minimum(self):
        rng = random.Random(10)
        for _ in range(150):
            g = random_connected_graph(rng, rng.randint(3, 8))
            k = rng.randint(1, g.n)
            colors = [rng.randrange(k) for _ in range(g.n)]
            for forbidden in (RAINBOW, REVISED, 0, 1):
                cert = verify_rainbow_vc(g, colors, forbidden)
                failing = [
                    (u, v)
                    for u in range(g.n)
                    for v in range(u + 1, g.n)
                    if exists_rainbow_path(g, colors, u, v, forbidden) is None
                ]
                assert cert.verified == (not failing)
                assert cert.failing_pair == min(failing, default=None)

    def test_witness_storage(self):
        g = Graph.cycle(5)
        cert = verify_rainbow_vc(g, [0, 1, 2, 3, 4], store_witnesses=True)
        assert cert.verified and len(cert.witnesses) == 10
        for (u, v), path in cert.witnesses.items():
            assert path[0] == u and path[-1] == v

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            verify_rainbow_vc(Graph.cycle(5), [0, 1, 2, 3])

    def test_budget_exhaustion_is_loud(self):
        with pytest.raises(SearchInconclusiveError):
            verify_rainbow_vc(Graph.path(8), list(range(8)), node_budget=1)

    def test_pair_missed_by_both_greedy_passes(self):
        # the first-arrival walks from 5 and from 8 both miss the other end,
        # so only the exact search over the residue finds 5-4-3-6-1-8
        g = Graph(9, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 6), (1, 7), (1, 8), (2, 3),
                      (2, 5), (2, 6), (3, 4), (3, 6), (4, 5)])
        colors = [7, 5, 5, 3, 7, 2, 2, 3, 2]
        assert is_rainbow_path((5, 4, 3, 6, 1, 8), colors)
        assert verify_rainbow_vc(g, colors).verified

    def test_revised_pass_implies_rainbow_pass(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 7))
            colors = [rng.randrange(4) for _ in range(g.n)]
            if verify_rainbow_vc(g, colors, REVISED).verified:
                assert verify_rainbow_vc(g, colors, RAINBOW).verified

    def test_refining_a_verified_coloring_stays_verified(self):
        rng = random.Random(8)
        checked = 0
        while checked < 25:
            g = random_connected_graph(rng, rng.randint(3, 7))
            colors = [rng.randrange(3) for _ in range(g.n)]
            if not verify_rainbow_vc(g, colors).verified:
                continue
            refined = list(colors)
            refined[rng.randrange(g.n)] = max(colors) + 1  # split one class
            assert verify_rainbow_vc(g, refined).verified
            checked += 1

    def test_constant_coloring_on_diameter_2_graphs(self):
        rng = random.Random(9)
        from rvc import diameter

        checked = 0
        while checked < 25:
            g = random_connected_graph(rng, rng.randint(3, 7))
            if diameter(g) > 2:
                continue
            assert verify_rainbow_vc(g, [0] * g.n).verified
            checked += 1


class TestAvoidingConnectivity:
    def test_star_graph_center(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        colors = [0, 1, 1, 1, 2]
        assert has_color_avoiding_connectivity(g, colors, 0, 2)

    def test_c5_blocked_pair(self):
        # from vertex 0, reaching vertex 3 needs either two same-colored
        # internals or the forbidden vertex; exhaustively decided
        g = Graph.cycle(5)
        colors = [1, 1, 1, 1, 2]
        naive_ok = {}
        for u in (1, 2, 3):
            naive_ok[u] = any(
                is_rainbow_path(p, colors, 2) for p in naive_simple_paths(g, 0, u)
            )
        assert naive_ok == {1: True, 2: True, 3: False}
        assert not has_color_avoiding_connectivity(g, colors, 0, 2)

    def test_rejects_source_carrying_the_color(self):
        with pytest.raises(PreconditionError):
            has_color_avoiding_connectivity(Graph.cycle(3), [0, 1, 2], 1, 1)

    def test_matches_per_target_path_search(self):
        rng = random.Random(11)
        for _ in range(150):
            g = random_connected_graph(rng, rng.randint(3, 8))
            k = rng.randint(2, g.n + 1)
            colors = [rng.randrange(k) for _ in range(g.n)]
            for x in set(colors):
                for v in range(g.n):
                    if colors[v] == x:
                        continue
                    expected = all(
                        exists_rainbow_path(g, colors, v, u, x) is not None
                        for u in range(g.n)
                        if u != v and colors[u] != x
                    )
                    assert has_color_avoiding_connectivity(g, colors, v, x) == expected


class TestColorStats:
    def test_all_twice(self):
        st_ = color_stats([1, 2, 1, 2])
        assert st_.distinct == 2 and set(st_.histogram.values()) == {2}
        assert st_.once_used == ()

    def test_once_used(self):
        st_ = color_stats([1, 2, 3, 1, 2])
        assert st_.distinct == 3 and st_.once_used == (3,)


class TestCertificateSerialization:
    def test_verified_with_witnesses(self):
        cert = verify_rainbow_vc(Graph.cycle(4), [0, 1, 0, 1], store_witnesses=True)
        text = serialize_certificate(cert)
        assert text.startswith("status verified\n")
        assert "witness 0 2 " in text

    # sha256 of serialize_certificate(..., store_witnesses=True), frozen
    # from the per-pair exists_rainbow_path witnesses
    GOLDEN_WITNESSES = {
        "c10": "747ea6777193a507b5ed6c64833bf88914591ad8e3accc79cb861eba13ff0eb1",
        "ears12": "ffe3062f4462a68e51a835a7cd8ff43b8fd6a3bbcf52df84178ad240e605caa5",
    }

    def test_witness_records_are_frozen(self):
        from rvc import cycle_coloring, random_2connected

        cases = {
            "c10": (Graph.cycle(10), cycle_coloring(10).colors),
            "ears12": (
                random_2connected(12, 4, seed=5, kind="ears"),
                (0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 2),
            ),
        }
        for name, (g, colors) in cases.items():
            text = serialize_certificate(verify_rainbow_vc(g, colors, store_witnesses=True))
            assert text.count("\n") == 1 + g.n * (g.n - 1) // 2
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == self.GOLDEN_WITNESSES[name], (name, text)
        text = serialize_certificate(
            verify_rainbow_vc(Graph.cycle(10), cycle_coloring(10), store_witnesses=True)
        )
        assert "witness 0 5 0 9 8 7 6 5\n" in text
        assert "witness 2 7 2 1 0 9 8 7\n" in text

    def test_witnesses_match_per_pair_search(self):
        rng = random.Random(12)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng, rng.randint(3, 8))
            colors = [rng.randrange(g.n) for _ in range(g.n)]
            forbidden = rng.choice([RAINBOW, max(colors) + 1])
            cert = verify_rainbow_vc(g, colors, forbidden, store_witnesses=True)
            if not cert.verified:
                continue
            assert cert.witnesses == {
                (u, v): exists_rainbow_path(g, colors, u, v, forbidden)
                for u in range(g.n)
                for v in range(u + 1, g.n)
            }
            checked += 1

    def test_counterexample(self):
        cert = verify_rainbow_vc(Graph.cycle(7), [0, 0, 1, 0, 1, 0, 1])
        text = serialize_certificate(cert)
        assert "status counterexample" in text and "failing" in text


@given(st.integers(4, 9))
@settings(max_examples=20, deadline=None)
def test_all_distinct_coloring_always_verifies(n):
    g = Graph.cycle(n)
    assert verify_rainbow_vc(g, list(range(n)), REVISED).verified
