"""Digest of rvc's behaviour contract on a fixed seeded case set.

Runs `rvc --format structured ...` in-process on generated inputs and
prints, per command family, the number of cases, a sha256 over every
case's argv (with file names replaced by labels), exit code, stdout and
stderr, and the count of each exit code. Two checkouts whose digests and
counts agree gave byte-identical structured output and identical exit
codes on the whole set.

    python3 tools/contract_digest.py                   # this checkout's src/
    python3 tools/contract_digest.py --src OTHER/src   # another checkout
    python3 tools/contract_digest.py --per-case        # one line per case

The inputs are generated here from fixed seeds, without calling the
library, so a change to rvc cannot change them. Colorings for `verify`
are the ones `rvc color` emitted (all zeros where it refused the graph),
and "spoiled" copies with the highest color merged into the lowest, each
written as a bare `colors` line. The set:

- color: cycles, 2-connected graphs (Hamilton cycle or ears plus chords,
  n 8..40), block assemblies, trees, complete graphs K0..K5;
- verify: every emitted and every spoiled coloring, plain, with
  `--witnesses`, and with `--witnesses --node-budget 40`, plus
  `--witnesses` on C_200;
- exact: C3..C18 and seeded graphs with n 5..14 (`--max-n 20`), plus an
  over-budget and a node-budget case;
- decompose: `--ears` and `--blocks` on the color inputs;
- table: the default table and a shorter one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def edge_list(n: int, edges) -> str:
    lines = [f"vertices {n}"]
    lines.extend(f"{min(u, v)} {max(u, v)}" for u, v in sorted({(min(e), max(e)) for e in edges}))
    return "\n".join(lines) + "\n"


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def add_chords(rng: random.Random, n: int, edges, count: int) -> set[tuple[int, int]]:
    have = {(min(e), max(e)) for e in edges}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have]
    return have | set(rng.sample(pool, min(count, len(pool))))


def hamilton(rng: random.Random, n: int, chords: int) -> str:
    return edge_list(n, add_chords(rng, n, cycle_edges(n), chords))


def ears(rng: random.Random, n: int, chords: int) -> str:
    base = rng.randint(3, max(3, n // 2))
    edges = cycle_edges(base)
    covered = base
    while covered < n:
        inner = rng.randint(1, n - covered)
        a, b = rng.sample(range(covered), 2)
        path = [a, *range(covered, covered + inner), b]
        edges += list(zip(path, path[1:]))
        covered += inner
    return edge_list(n, add_chords(rng, n, edges, chords))


def assembly(rng: random.Random) -> str:
    """Two or three chorded cycles joined at cut vertices, plus a pendant path."""
    edges: list[tuple[int, int]] = []
    n = 0
    attach = None
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(5, 9)
        if attach is None:
            ids = list(range(n, n + size))
        else:
            ids = [attach, *range(n, n + size - 1)]
        block = [(ids[i], ids[(i + 1) % size]) for i in range(size)]
        chord = rng.sample(range(size), 2)
        if abs(chord[0] - chord[1]) not in (1, size - 1):
            block.append((ids[chord[0]], ids[chord[1]]))
        edges += block
        n = max(n, max(ids) + 1)
        attach = rng.choice(ids[1:])
    tail = rng.randint(1, 3)
    prev = attach
    for _ in range(tail):
        edges.append((prev, n))
        prev = n
        n += 1
    return edge_list(n, edges)


def tree(rng: random.Random, n: int) -> str:
    return edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)])


def color_inputs() -> list[tuple[str, str]]:
    rng = random.Random(2011)
    cases = [(f"C{n}", edge_list(n, cycle_edges(n))) for n in (3, 4, 5, 7, 9, 11, 14, 17, 24, 31)]
    for i, n in enumerate(range(8, 41, 4)):
        cases.append((f"ham{n}", hamilton(rng, n, rng.randint(1, n // 4))))
        cases.append((f"ears{n}", ears(rng, n, rng.randint(0, n // 5))))
        if i % 2 == 0:
            cases.append((f"dense{n}", hamilton(rng, n, n)))
    cases += [(f"blocks{i}", assembly(rng)) for i in range(6)]
    cases += [(f"tree{i}", tree(rng, rng.randint(2, 12))) for i in range(4)]
    cases += [(f"K{n}", edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])) for n in range(6)]
    return cases


def exact_inputs() -> list[tuple[str, str]]:
    rng = random.Random(1995)
    cases = [(f"C{n}", edge_list(n, cycle_edges(n))) for n in range(3, 19)]
    for i in range(24):
        n = rng.randint(5, 14)
        make = hamilton if i % 2 == 0 else ears
        cases.append((f"g{i}n{n}", make(rng, n, rng.randint(0, n // 3))))
    return cases


def emitted_colors(code: int, out: str, graph_text: str) -> list[int]:
    """The colors `rvc color` emitted, or all zeros where it refused the graph."""
    if code != 0:
        return [0] * int(graph_text.split()[1])
    line = next(ln for ln in out.splitlines() if ln.startswith("colors"))
    return [int(x) for x in line.split()[1:]]


def spoiled(colors: list[int]) -> list[int]:
    """The coloring with its highest color merged into its lowest."""
    lo, hi = min(colors, default=0), max(colors, default=0)
    return [lo if c == hi else c for c in colors]


def coloring_record(colors: list[int]) -> str:
    return "colors " + " ".join(map(str, colors)) + "\n"


class Runner:
    def __init__(self, main, workdir: Path, per_case: bool):
        self.main = main
        self.workdir = workdir
        self.per_case = per_case
        self.digests: dict = {}
        self.codes: dict[str, Counter] = {}
        self.sizes: Counter = Counter()

    def file(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def run(self, family: str, label: str, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(["--format", "structured", *argv])
        shown = [a if not a.startswith(str(self.workdir)) else Path(a).name for a in argv]
        record = f"{label}\0{shown}\0{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()
        self.digests.setdefault(family, hashlib.sha256()).update(record)
        self.codes.setdefault(family, Counter())[code] += 1
        self.sizes[family] += 1
        if self.per_case:
            print(f"case {family} {label} exit {code} {hashlib.sha256(record).hexdigest()[:16]}")
        return code, out.getvalue()

    def report(self) -> None:
        for family in self.digests:
            codes = " ".join(f"exit{c}={k}" for c, k in sorted(self.codes[family].items()))
            print(f"{family} cases={self.sizes[family]} sha256={self.digests[family].hexdigest()} {codes}")


def run_all(runner: Runner) -> None:
    for name, text in color_inputs():
        graph = runner.file(f"{name}.txt", text)
        code, out = runner.run("color", name, ["color", graph])
        runner.run("decompose", f"{name} ears", ["decompose", graph, "--ears"])
        runner.run("decompose", f"{name} blocks", ["decompose", graph, "--blocks"])
        colors = emitted_colors(code, out, text)
        for kind, variant in (("emitted", colors), ("spoiled", spoiled(colors))):
            coloring = runner.file(f"{name}.{kind}.col", coloring_record(variant))
            for flags in ([], ["--witnesses"], ["--witnesses", "--node-budget", "40"]):
                runner.run("verify", f"{name} {kind} {flags}", ["verify", graph, coloring, *flags])
    c200_text = edge_list(200, cycle_edges(200))
    c200 = runner.file("C200.txt", c200_text)
    code, out = runner.run("color", "C200", ["color", c200])
    coloring = runner.file("C200.col", coloring_record(emitted_colors(code, out, c200_text)))
    runner.run("verify", "C200 emitted ['--witnesses']", ["verify", c200, coloring, "--witnesses"])

    for name, text in exact_inputs():
        graph = runner.file(f"exact-{name}.txt", text)
        runner.run("exact", name, ["exact", graph, "--max-n", "20"])
    c12 = runner.file("exact-over.txt", edge_list(12, cycle_edges(12)))
    runner.run("exact", "C12 default budget", ["exact", c12])
    runner.run("exact", "C12 node budget 50", ["exact", c12, "--max-n", "12", "--node-budget", "50"])

    runner.run("table", "default", ["table"])
    runner.run("table", "short", ["table", "--max-exact-n", "9", "--max-n", "20"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the rvc package")
    parser.add_argument("--per-case", action="store_true", help="also print one digest per case")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "rvc").is_dir():
        print(f"error: no rvc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("RVC_NODE_BUDGET", None)
    from rvc.cli import main as rvc_main

    print(f"rvc from {Path(sys.modules['rvc'].__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="rvc-contract-") as tmp:
        runner = Runner(rvc_main, Path(tmp), args.per_case)
        run_all(runner)
    runner.report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
