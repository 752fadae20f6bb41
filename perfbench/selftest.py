"""Self-checks of the benchmark: python3 -m pytest perfbench/selftest.py

The traced run's counts must repeat exactly on the same instances, and the
benchmark's own rainbow checks must agree with the library's verifier.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from instances import two_connected  # noqa: E402

COUNTS = (
    "decompose.ears",
    "decompose.heuristic_ears",
    "oracle.nodes",
    "coloring.gate_verifies",
    "coloring.chain_refuted",
    "coloring.chain_budget_exhausted",
    "verify.pool_starts",
    "verify.verify_rainbow_vc.calls",
    "verify.exists_rainbow_path.calls",
    "verify.has_color_avoiding_connectivity.calls",
    "graph.is_2_connected.calls",
)

# (workload, seed, instances): small prefixes of each workload; the chain
# range 170..174 holds seed 172, whose balanced chain is refuted
CASES = (
    ("color", 3, 4),
    ("chain", 170, 5),
    ("decompose", 3, 10),
    ("exact", 3, 4),
)


@pytest.mark.parametrize("workload,seed,instances", CASES)
def test_traced_counts_repeat(tmp_path, workload, seed, instances):
    results = [
        run.measure(workload, seed, 0.0, trace=True, max_instances=instances,
                    workdir=tmp_path / str(i))
        for i in range(2)
    ]
    for res in results:
        assert res["correct"], res["summary"]
        assert res["attempted"] == instances
    first, second = (
        {k: res["metrics"][k]["value"] for k in COUNTS} for res in results
    )
    assert first == second
    if workload == "chain":
        assert first["coloring.chain_refuted"] > 0


def test_checker_agrees_with_library():
    import rvc

    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(5, 11)
        edges = two_connected(rng, n, rng.randint(0, n // 2), rng.choice(("hamilton", "ears")))
        g = rvc.Graph(n, edges)
        colors = [rng.randrange(max(1, n // 3)) for _ in range(n)]
        cert = rvc.verify_rainbow_vc(g, colors)
        assert checks.first_failing_pair(n, edges, colors) == cert.failing_pair
        assert checks.nx_failing_pair(n, edges, colors) in (cert.failing_pair, False)
        x = colors[0]
        v = next((w for w in range(n) if colors[w] != x), None)
        if v is not None:
            expected = rvc.has_color_avoiding_connectivity(g, colors, v, x)
            assert (not checks.avoiding_fails(n, edges, colors, v, x)) == expected
