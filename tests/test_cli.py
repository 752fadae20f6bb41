import io
import os
import re
import sys

import pytest

from rvc import Graph, random_2connected, serialize_graph
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
        code, out, _ = run_cli(["color", bowtie_file, "--method", "auto"], capsys)
        assert code == 0
        assert "count 1" in out and "method blocks" in out

    def test_k4_reports_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.txt", Graph.complete(4))
        code, out, _ = run_cli(["color", path], capsys)
        assert code == 0 and "count 0" in out

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


class TestVerifyOnce:
    """`rvc color` verifies the coloring it emits on the input graph once:
    by the construction's own final check, or by the CLI when the
    construction returns no certificate."""

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

        make, method, capped = self.CASES[name]
        g = make()
        path = write_graph(tmp_path, "g.txt", g)
        checks = []
        original = rvc.coloring.verify_rainbow_vc

        def recorder(graph, c, *args, **kwargs):
            checks.append((graph.n, frozenset(graph.edges), tuple(getattr(c, "colors", c))))
            return original(graph, c, *args, **kwargs)

        searched = []
        search = rvc.coloring._search_capped

        def spy(graph, cap):
            searched.append(cap)
            return search(graph, cap)

        monkeypatch.setattr(rvc.coloring, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.cli, "verify_rainbow_vc", recorder)
        monkeypatch.setattr(rvc.coloring, "_search_capped", spy)
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

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c5.txt", Graph.cycle(5))
        coloring_path = tmp_path / "short.txt"
        coloring_path.write_text("colors 0 1 2 0\n")
        code, _, err = run_cli(["verify", g, str(coloring_path)], capsys)
        assert code == 2

    def test_revised_flag(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c6.txt", Graph.cycle(6))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("colors 0 1 2 0 1 2\n")
        code, out, _ = run_cli(["verify", g, str(coloring_path), "--revised"], capsys)
        assert code == 0

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

    def test_revised_is_an_alias(self, tmp_path, capsys):
        g = write_graph(tmp_path, "c7.txt", Graph.cycle(7))
        good = tmp_path / "good.txt"
        good.write_text("colors 0 0 0 1 0 2 1\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("colors 0 0 1 0 1 0 1\n")
        for argv in (
            ["verify", g, str(good)],
            ["verify", g, str(good), "--witnesses"],
            ["verify", g, str(bad)],
            ["exact", g],
        ):
            plain = run_cli(["--format", "structured", *argv], capsys)
            revised = run_cli(["--format", "structured", *argv, "--revised"], capsys)
            assert plain == revised


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
