import importlib.util
import io
import os
import re
import sys
from pathlib import Path

import pytest

from rvc import Coloring, Graph, random_2connected, serialize_graph
from rvc.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, g: Graph):
    p = tmp_path / name
    p.write_text(serialize_graph(g))
    return str(p)


@pytest.fixture
def c14(tmp_path):
    return write_graph(tmp_path, "c14.txt", Graph.cycle(14))


@pytest.fixture
def bowtie_file(tmp_path, bowtie):
    return write_graph(tmp_path, "bowtie.txt", bowtie)


class TestColor:
    def test_cycle_14_gets_7_colors(self, c14, capsys):
        code, out, _ = run_cli(["color", c14], capsys)
        assert code == 0
        assert "count 7" in out

    def test_bowtie_auto_routes_to_blocks(self, bowtie_file, capsys):
        code, out, _ = run_cli(["color", bowtie_file], capsys)
        assert code == 0
        assert "count 1" in out and "method blocks" in out

    def test_k4_reports_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.txt", Graph.complete(4))
        code, out, _ = run_cli(["color", path], capsys)
        assert code == 0 and "count 0" in out

    def test_single_vertex_gets_the_complete_record(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k1.txt", Graph(1))
        code, out, _ = run_cli(["--format", "structured", "color", path], capsys)
        assert code == 0
        assert out.endswith("vertices 1\ncolors 0\ncount 0\nmethod complete\n")
        code, out, _ = run_cli(["--format", "structured", "exact", path], capsys)
        assert code == 0 and "count 0\n" in out

    def test_method_flag_is_rejected(self, c14, capsys):
        # the graph's shape picks the construction
        with pytest.raises(SystemExit) as info:
            main(["color", c14, "--method", "auto"])
        assert info.value.code == 2
        assert "unrecognized arguments: --method auto" in capsys.readouterr().err

    def test_disconnected_is_precondition_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, "dis.txt", Graph(4, [(0, 1), (2, 3)]))
        code, _, err = run_cli(["color", path], capsys)
        assert code == 3 and "connected" in err

    def test_human_message_is_one_timing_line(self, c14, capsys):
        code, _, err = run_cli(["color", c14], capsys)
        assert code == 0
        assert re.fullmatch(
            r"constructed and verified rainbow vertex-connected in \d+\.\d{3}s\n", err
        )

    @pytest.fixture
    def constant_cycles(self, monkeypatch):
        """A cycle construction that colors every vertex 0, which C7 and C14 reject."""
        import rvc.coloring

        monkeypatch.setattr(
            rvc.coloring, "cycle_coloring", lambda n: Coloring((0,) * n, 1, method="cycle")
        )

    def test_failed_construction_exits_4(self, c14, capsys, constant_cycles):
        code, out, err = run_cli(["--format", "structured", "color", c14], capsys)
        assert (code, out) == (4, "")
        assert err == "error: construction failed verification at pair (0, 3)\n"

    def test_failed_block_exits_4_at_the_blocks_pair(self, tmp_path, capsys, constant_cycles):
        # two C7 blocks sharing vertex 0: the first cycle block fails its own
        # check, and the pair is named in that block's numbering
        edges = [(i, (i + 1) % 7) for i in range(7)]
        edges += list(zip([0, *range(7, 13)], [*range(7, 13), 0]))
        path = write_graph(tmp_path, "c7c7.txt", Graph(13, edges))
        code, out, err = run_cli(["--format", "structured", "color", path], capsys)
        assert (code, out) == (4, "")
        assert err == "error: construction failed verification at pair (0, 3)\n"


class TestVerifyOnce:
    """`rvc color` verifies the coloring it emits on the input graph once,
    by the construction's own final check; on the exact fallback that check
    is the oracle's witness re-verification."""

    CASES = {
        "c14": (lambda: Graph.cycle(14), "cycle", False),
        "k4": (lambda: Graph.complete(4), "complete", False),
        "pipeline": (lambda: random_2connected(40, 10, seed=3), "two-connected", False),
        "bowtie": (
            lambda: Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
            "blocks",
            False,
        ),
        "capped": (lambda: random_2connected(8, 1, seed=0, kind="hamilton"), "two-connected", True),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_emitted_coloring_is_verified_once(self, name, tmp_path, capsys, monkeypatch):
        import rvc.cli
        import rvc.coloring
        import rvc.oracle

        make, method, capped = self.CASES[name]
        g = make()
        path = write_graph(tmp_path, "g.txt", g)
        checks = []
        original = rvc.coloring.verify_rainbow_vc

        def recorder(graph, c, *args, **kwargs):
            checks.append((graph.n, frozenset(graph.edges), tuple(getattr(c, "colors", c))))
            return original(graph, c, *args, **kwargs)

        searched = []
        search = rvc.oracle.exact_rvc

        def spy(graph, *args, **kwargs):
            searched.append(graph.n)
            return search(graph, *args, **kwargs)

        monkeypatch.setattr(rvc.coloring, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.cli, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.oracle, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.oracle, "exact_rvc", spy)
        code, out, _ = run_cli(["color", path], capsys)
        assert code == 0 and f"method {method}\n" in out
        assert bool(searched) == capped
        line = next(ln for ln in out.splitlines() if ln.startswith("colors "))
        emitted = tuple(int(x) for x in line.split()[1:])
        assert checks.count((g.n, frozenset(g.edges), emitted)) == 1


class TestVerify:
    def test_good_coloring_exit_0(self, c14, tmp_path, capsys):
        code, out, _ = run_cli(["color", c14], capsys)
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text(out)
        code, out, _ = run_cli(["verify", c14, str(coloring_path)], capsys)
        assert code == 0 and "status verified" in out

    def test_bad_coloring_exit_1(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c7.txt", Graph.cycle(7))
        coloring_path = tmp_path / "bad.txt"
        coloring_path.write_text("colors 0 0 1 0 1 0 1\n")
        code, out, _ = run_cli(["verify", g, str(coloring_path)], capsys)
        assert code == 1 and "failing" in out

    def test_negative_colors(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c4.txt", Graph.cycle(4))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("colors -1 0 1 0\n")
        code, out, _ = run_cli(["verify", g, str(coloring_path)], capsys)
        assert code == 0 and out == "status verified\n"

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c5.txt", Graph.cycle(5))
        coloring_path = tmp_path / "short.txt"
        coloring_path.write_text("colors 0 1 2 0\n")
        code, _, err = run_cli(["verify", g, str(coloring_path)], capsys)
        assert code == 2

    def test_revised_flag_is_rejected(self, tmp_path, capsys):
        # the flag changed nothing and is gone from both commands
        g = write_graph(tmp_path, "c6.txt", Graph.cycle(6))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("colors 0 1 2 0 1 2\n")
        for argv in (["verify", g, str(coloring_path), "--revised"], ["exact", g, "--revised"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "unrecognized arguments: --revised" in capsys.readouterr().err

    def test_node_budget_env_var(self, tmp_path, capsys, monkeypatch):
        g = write_graph(tmp_path, "p8.txt", Graph.path(8))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("colors " + " ".join("01234567") + "\n")
        monkeypatch.setenv("RVC_NODE_BUDGET", "1")
        code, _, err = run_cli(["verify", g, str(coloring_path)], capsys)
        assert code == 5 and "budget" in err

    def test_malformed_env_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        g = write_graph(tmp_path, "c5.txt", Graph.cycle(5))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("colors 0 0 0 0 0\n")
        assert run_cli(["verify", g, str(coloring_path)], capsys)[0] == 0
        # the parser is reused across calls, the environment is read on each
        monkeypatch.setenv("RVC_NODE_BUDGET", "abc")
        for argv in (["verify", g, str(coloring_path)], ["color", g]):
            code, _, err = run_cli(argv, capsys)
            assert code == 3 and "RVC_NODE_BUDGET" in err

    @pytest.mark.parametrize("value", ["-3", "abc"])
    def test_malformed_flag_budget_exit_3(self, tmp_path, capsys, value):
        g = write_graph(tmp_path, "c5.txt", Graph.cycle(5))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("colors 0 0 0 0 0\n")
        code, _, err = run_cli(["verify", g, str(coloring_path), "--node-budget", value], capsys)
        assert code == 3 and "--node-budget" in err
        code, _, err = run_cli(["exact", g, "--node-budget", value], capsys)
        assert code == 3 and "--node-budget" in err


class TestExact:
    def test_c9(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c9.txt", Graph.cycle(9))
        code, out, _ = run_cli(["exact", g], capsys)
        assert code == 0 and out.startswith("value 3\n")

    def test_k5(self, tmp_path, capsys):
        g = write_graph(tmp_path, "k5.txt", Graph.complete(5))
        code, out, _ = run_cli(["exact", g], capsys)
        assert code == 0 and out.startswith("value 0\n")

    def test_c12_with_budget_override(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c12.txt", Graph.cycle(12))
        code, out, _ = run_cli(["exact", g, "--max-n", "12"], capsys)
        assert code == 0 and out.startswith("value 5\n")

    def test_zero_node_budget_is_honoured(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c12.txt", Graph.cycle(12))
        code, _, err = run_cli(["exact", g, "--max-n", "12", "--node-budget", "0"], capsys)
        assert code == 3 and "exceeded node budget 0" in err

    def test_over_budget_exit_3(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c12.txt", Graph.cycle(12))
        code, _, err = run_cli(["exact", g], capsys)
        assert code == 3 and "budget" in err

    def test_search_deeper_than_recursion_limit_exits_0(self, tmp_path, capsys):
        # the search keeps one stack entry per colored vertex, not one call
        g = write_graph(tmp_path, "star.txt", Graph(400, [(0, v) for v in range(1, 400)]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(350)
        try:
            code, out, _ = run_cli(["exact", g, "--max-n", "400"], capsys)
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0 and out.startswith("value 1\n")


def long_theta(interior: int = 1100) -> Graph:
    """Two 2-interior paths and one `interior`-vertex path between 0 and 1."""
    long = [0, *range(6, 6 + interior), 1]
    edges = [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), *zip(long, long[1:])]
    return Graph(6 + interior, edges)


class TestLongEar:
    """An ear longer than the default recursion limit, at that limit."""

    def test_decompose_ears(self, tmp_path, capsys):
        g = long_theta()
        path = write_graph(tmp_path, "theta.txt", g)
        code, out, _ = run_cli(["--format", "structured", "decompose", path, "--ears"], capsys)
        assert code == 0
        lines = out.splitlines()
        cycle = [int(x) for ln in lines if ln.startswith("cycle ") for x in ln.split()[1:]]
        ears = [[int(x) for x in ln.split()[1:-2]] for ln in lines if ln.startswith("ear ")]
        assert len(ears) == 1 and len(ears[0]) - 1 == 1101
        edges = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
        edges |= {frozenset(e) for e in zip(ears[0], ears[0][1:])}
        assert edges == {frozenset(e) for e in g.edges}

    def test_color(self, tmp_path, capsys):
        path = write_graph(tmp_path, "theta.txt", long_theta())
        code, out, _ = run_cli(["--format", "structured", "color", path], capsys)
        assert code == 0 and "count 553\n" in out


class TestDecompose:
    def test_theta_ears(self, tmp_path, capsys):
        from rvc import attach_ear

        g, _ = attach_ear(Graph.cycle(6), 0, 3, 1)
        path = write_graph(tmp_path, "theta.txt", g)
        code, out, _ = run_cli(["decompose", path, "--ears"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("cycle ") and len(lines[0].split()) == 7
        assert sum(1 for ln in lines if ln.startswith("ear ")) == 1

    def test_heuristic_ears_are_counted_on_stderr(self, tmp_path, capsys, monkeypatch):
        from rvc import attach_ear, ear_decomposition

        # an ear through every fresh vertex is proved longest, so the theta
        # graph gets a second ear: the first search leaves vertex 8 out
        g, _ = attach_ear(Graph.cycle(6), 0, 3, 2)
        g, _ = attach_ear(g, 1, 4, 1)
        path = write_graph(tmp_path, "theta.txt", g)
        code, _, err = run_cli(["decompose", path, "--ears"], capsys)
        assert code == 0 and err.endswith("may not be longest): 0 of 2\n")
        # two path extensions find the ear but stop the search for a longer one
        monkeypatch.setattr("rvc.cli.ear_decomposition", lambda g: ear_decomposition(g, budget=2))
        code, out, err = run_cli(["decompose", path, "--ears"], capsys)
        assert code == 0 and out.count("ear ") == 2 and "ear 0 6 7 3 length 3\n" in out
        assert err.count("\n") == 1 and err.endswith("may not be longest): 1 of 2\n")
        code, _, err = run_cli(["--format", "structured", "decompose", path, "--ears"], capsys)
        assert code == 0 and err == ""

    def test_heuristic_initial_cycle_is_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        from rvc import ear_decomposition, random_2connected

        # the odd depth-first cycle's ear search runs out at budget 5
        path = write_graph(tmp_path, "ears.txt", random_2connected(14, 4, seed=1, kind="ears"))
        code, _, err = run_cli(["decompose", path, "--ears"], capsys)
        assert code == 0 and err.startswith("initial cycle from an exhausted ear search: no;")
        monkeypatch.setattr("rvc.cli.ear_decomposition", lambda g: ear_decomposition(g, budget=5))
        code, out, err = run_cli(["decompose", path, "--ears"], capsys)
        assert code == 0 and out.startswith("cycle 2 0 4 3 10 5\n")
        assert err.count("\n") == 1 and err.startswith("initial cycle from an exhausted ear search: yes;")

    def test_bowtie_blocks(self, bowtie_file, capsys):
        code, out, _ = run_cli(["decompose", bowtie_file, "--blocks"], capsys)
        assert code == 0
        assert "t 1" in out
        assert sum(1 for ln in out.splitlines() if ln.startswith("block ")) == 2

    def test_bowtie_ears_precondition(self, bowtie_file, capsys):
        code, _, err = run_cli(["decompose", bowtie_file, "--ears"], capsys)
        assert code == 3 and "2-connected" in err


class TestTable:
    def test_defaults_agree(self, capsys):
        code, out, _ = run_cli(["table", "--max-exact-n", "9", "--max-n", "16"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n constructed exact closed_form"
        assert "9 3 3 3" in lines

    def test_single_row(self, capsys):
        code, out, _ = run_cli(["table", "--max-exact-n", "3", "--max-n", "3"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == "3 0 0 0"


class TestDeterminism:
    def test_structured_output_is_byte_identical(self, c14, capsys):
        code1, out1, _ = run_cli(["--format", "structured", "color", c14], capsys)
        code2, out2, _ = run_cli(["--format", "structured", "color", c14], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "input sha256:" in out1

    def test_parse_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 zero\n")
        code, _, err = run_cli(["color", str(p)], capsys)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["color", "/nonexistent/graph.txt"], capsys)
        assert code == 2


# tools/contract_digest.py's report: per command family, the case count, a
# sha256 over every case's argv, exit code and structured output, and the
# exit-code counts. A change that declares a contract change updates it.
CONTRACT_DIGEST = [
    "color cases=50 sha256=7e71dfd0c132fa4c390870afe20ea2946a4910d73e1778badc3bcf6972bb8edb exit0=50",
    "decompose cases=98 sha256=e71f8c3e38e285f879f7659024cc614a1a8dff4d1e6fe383d29076c65113b4fc exit0=83 exit3=15",
    "verify cases=295 sha256=dbd2c2fc91d8eead83d39359a07e0b457213ea2b9073790caec8151c7794cacf exit0=190 exit1=67 exit5=38",
    "exact cases=42 sha256=d7ed651db8a917c36bf2a08381b0fd48489bb898692cf1a4ca1679b8463e0399 exit0=40 exit3=2",
    "table cases=2 sha256=67e718ea449a2b78583d576cbbe8d46cd45b68ddb067caf4add892ed65dab69e exit0=2",
]


def test_contract_digest_is_pinned(tmp_path, capsys, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "tools" / "contract_digest.py"
    spec = importlib.util.spec_from_file_location("contract_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    monkeypatch.delenv("RVC_NODE_BUDGET", raising=False)
    runner = digest.Runner(main, tmp_path, per_case=False)
    digest.run_all(runner)
    runner.report()
    assert capsys.readouterr().out.splitlines() == CONTRACT_DIGEST
