import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvc import (
    DuplicateEdgeWarning,
    Graph,
    GraphFormatError,
    PreconditionError,
    block_decomposition,
    cut_vertices,
    diameter,
    is_2_connected,
    is_connected,
    parse_graph,
    serialize_graph,
)


def edge_sets(max_n=8):
    return st.integers(3, max_n).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n * (n - 1) // 2,
        ).map(lambda es: (n, {(min(u, v), max(u, v)) for u, v in es}))
    )


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestParse:
    def test_triangle(self):
        g = parse_graph("0 1\n1 2\n2 0")
        assert g.n == 3 and g.edges == {(0, 1), (1, 2), (0, 2)}

    def test_declared_count_leaves_isolated_vertex(self):
        g = parse_graph("vertices 4\n0 1")
        assert g.n == 4 and g.m == 1
        assert not is_connected(g)

    def test_k4(self):
        g = parse_graph("0 1\n1 2\n2 3\n3 0\n0 2\n1 3")
        assert g.is_complete() and g.n == 4

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\n0 1  # tail comment\n\n1 2\n")
        assert g.edges == {(0, 1), (1, 2)}

    def test_duplicate_edge_warns_and_collapses(self):
        with pytest.warns(DuplicateEdgeWarning):
            g = parse_graph("0 1\n1 0\n1 2")
        assert g.m == 2

    @pytest.mark.parametrize(
        "text",
        ["0", "a b", "0 -1", "3 3", "0 1 2", "vertices x", "0 1\nvertices 5"],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    def test_id_beyond_declared_count(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 2\n0 5")

    @given(edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity_on_edges(self, ne):
        n, edges = ne
        g = Graph(n, edges)
        assert parse_graph(serialize_graph(g)).edges == g.edges
        assert parse_graph(serialize_graph(g)).n == g.n


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(Graph.cycle(3))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex_convention(self):
        assert is_connected(Graph(1))
        assert is_connected(Graph(0))


class TestDiameter:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph.cycle(5), 2),
            (Graph.complete(4), 1),
            (Graph.path(5), 4),
            (Graph(1), 0),
        ],
    )
    def test_known_values(self, g, expected):
        assert diameter(g) == expected

    def test_rejects_disconnected(self):
        with pytest.raises(PreconditionError):
            diameter(Graph(4, [(0, 1), (2, 3)]))

    @given(edge_sets())
    @settings(max_examples=50, deadline=None)
    def test_matches_floyd_warshall(self, ne):
        n, edges = ne
        g = Graph(n, edges)
        if not is_connected(g):
            return
        # independent all-pairs recomputation
        inf = float("inf")
        dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for u, v in g.edges:
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        assert diameter(g) == max(max(row) for row in dist)


class TestCutVerticesAndBlocks:
    def test_bowtie(self, bowtie):
        assert cut_vertices(bowtie) == {2}
        bd = block_decomposition(bowtie)
        assert len(bd.blocks) == 2 and bd.t == 1
        assert bd.blocks[0] == frozenset({0, 1, 2})
        assert bd.blocks[1] == frozenset({2, 3, 4})

    def test_cycle_has_no_cut_vertex(self):
        assert cut_vertices(Graph.cycle(6)) == frozenset()
        bd = block_decomposition(Graph.cycle(7))
        assert len(bd.blocks) == 1 and bd.t == 0

    def test_path_internals_are_cut(self):
        assert cut_vertices(Graph.path(4)) == {1, 2}
        bd = block_decomposition(Graph.path(4))
        assert len(bd.blocks) == 3 and bd.t == 2

    def test_blocks_sorted_by_smallest_vertex(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])
        bd = block_decomposition(g)
        assert [min(b) for b in bd.blocks] == sorted(min(b) for b in bd.blocks)

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(0)
        from .conftest import random_connected_graph

        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 9))
            h = to_nx(g)
            assert cut_vertices(g) == set(nx.articulation_points(h))
            ours = sorted(sorted(b) for b in block_decomposition(g).blocks)
            theirs = sorted(sorted(c) for c in nx.biconnected_components(h))
            assert ours == theirs

    def test_every_edge_in_exactly_one_block(self):
        rng = random.Random(1)
        from .conftest import random_connected_graph

        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(3, 9))
            bd = block_decomposition(g)
            for u, v in g.edges:
                homes = [b for b in bd.blocks if u in b and v in b]
                assert len(homes) == 1

    def test_block_cut_tree_is_acyclic(self):
        rng = random.Random(2)
        from .conftest import random_connected_graph

        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(3, 9))
            bd = block_decomposition(g)
            t = nx.Graph()
            for i, b in enumerate(bd.blocks):
                for c in bd.cut_vertices:
                    if c in b:
                        t.add_edge(("block", i), ("cut", c))
            if t.number_of_nodes():
                assert nx.is_forest(t)


class TestTwoConnected:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph.complete(4), True),
            (Graph(2, [(0, 1)]), False),  # order below 3
            (Graph.cycle(3), True),
            (Graph(0), False),
            (Graph(1), False),
            (Graph(4, [(0, 1), (1, 2), (0, 2)]), False),  # plus an isolated vertex
            (Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), False),
            (Graph(5, [*Graph.cycle(4).edges, (3, 4)]), False),  # pendant vertex
        ],
    )
    def test_known(self, g, expected):
        assert is_2_connected(g) is expected

    def test_bowtie_is_not(self, bowtie):
        assert not is_2_connected(bowtie)

    def test_matches_networkx(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randint(0, 12)
            p = rng.choice([0.15, 0.3, 0.5, 0.8])
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            h = to_nx(g)
            want = n >= 3 and nx.is_connected(h) and not set(nx.articulation_points(h))
            assert is_2_connected(g) is want, sorted(g.edges)
