"""In-memory spans around the library's public functions.

`Tracer.install` wraps each function in TRACED and rebinds every module
attribute of `rvc` that refers to the original, so calls that go through a
name imported with `from .verify import verify_rainbow_vc` are traced as
well as calls through `rvc.verify`. Spans are kept in flat arrays (name,
start, end, parent, instance) and turned into per-layer figures by
`layer_metrics` after the run. Work inside `--jobs` pool workers happens
in other processes and records no spans.
"""

from __future__ import annotations

import multiprocessing.pool
import sys
from array import array
from time import perf_counter

# (defining module, function) pairs; the span name is "<layer>.<function>"
TRACED = (
    ("rvc.cli", "main"),
    ("rvc.graph", "parse_graph"),
    ("rvc.graph", "is_2_connected"),
    ("rvc.graph", "block_decomposition"),
    ("rvc.graph", "diameter"),
    ("rvc.decompose", "ear_decomposition"),
    ("rvc.decompose", "find_initial_cycle"),
    ("rvc.coloring", "two_connected_coloring"),
    ("rvc.coloring", "block_coloring"),
    ("rvc.coloring", "balanced_chain_coloring"),
    ("rvc.verify", "verify_rainbow_vc"),
    ("rvc.verify", "exists_rainbow_path"),
    ("rvc.verify", "has_color_avoiding_connectivity"),
    ("rvc.oracle", "exact_rvc"),
    ("rvc.oracle", "find_rainbow_coloring"),
)

LAYERS = ("cli", "graph", "decompose", "coloring", "verify", "oracle")

POOL_SPAN = "verify.pool"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.stack: list[int] = []
        self.current = -1
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, span: str, fn, entry: str):
        nid = self._id(span)
        observe = _OBSERVERS.get(span)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, result, entry)
            return result

        return traced

    def install(self) -> None:
        """Rebind every `rvc` module attribute that names a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "rvc" or k.startswith("rvc.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            span = mod_name.split(".")[1] + "." + fn_name
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(span, original, mod.__name__))
        self._restore.append((multiprocessing.pool, "Pool", multiprocessing.pool.Pool))
        multiprocessing.pool.Pool = _timed_pool(self)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()


def _timed_pool(tracer: Tracer):
    """A Pool whose start and join are recorded as `verify.pool` spans."""
    nid = tracer._id(POOL_SPAN)

    class TimedPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            idx = tracer._open(nid)
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.count("pool_starts")

        def __exit__(self, *exc):
            idx = tracer._open(nid)
            try:
                return super().__exit__(*exc)
            finally:
                tracer._close(idx)

    return TimedPool


def _obs_verify(tracer: Tracer, cert, entry: str) -> None:
    tracer.count("verify_counterexamples", not cert.verified)
    if entry == "rvc.coloring":
        tracer.count("gate_verifies")
        tracer.count("gate_passes", cert.verified)


def _obs_avoid(tracer: Tracer, ok: bool, entry: str) -> None:
    tracer.count("avoid_passes", ok)


def _obs_ears(tracer: Tracer, d, entry: str) -> None:
    tracer.count("ears", len(d.ears))
    tracer.count("heuristic_ears", sum(e.heuristic for e in d.ears))


def _obs_exact(tracer: Tracer, result, entry: str) -> None:
    tracer.count("oracle_nodes", result.nodes)


_OBSERVERS = {
    "verify.verify_rainbow_vc": _obs_verify,
    "verify.has_color_avoiding_connectivity": _obs_avoid,
    "decompose.ear_decomposition": _obs_ears,
    "oracle.exact_rvc": _obs_exact,
}


def span_totals(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus that of its direct children; the
    library code is single-threaded in this process, so children nest.
    """
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, list] = {name: [0, 0.0, 0.0] for name in tracer.names}
    for i in range(n):
        rec = out[tracer.names[tracer.name[i]]]
        rec[0] += 1
        rec[1] += dur[i]
        rec[2] += dur[i] - child[i]
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(tracer: Tracer, instances: int, busy_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per instance where they are sums.

    `busy_s` is the summed wall time of the traced instances; the
    `share.*` figures split it by layer self time, with `share.bench`
    taking the time outside every span.
    """
    tot = span_totals(tracer)
    c = tracer.counts
    per = 1.0 / max(instances, 1)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0] * per

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1] * per

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2] * per

    def ratio(a, b):
        return a / b if b else 0.0

    verify_calls = tot.get("verify.verify_rainbow_vc", (0,))[0]
    avoid_calls = tot.get("verify.has_color_avoiding_connectivity", (0,))[0]
    exact_total = tot.get("oracle.exact_rvc", (0, 0.0))[1]
    m: dict[str, tuple[float, str]] = {
        "verify.verify_rainbow_vc.calls": (calls("verify.verify_rainbow_vc"), "count/inst"),
        "verify.verify_rainbow_vc.total_s": (total("verify.verify_rainbow_vc"), "s/inst"),
        "verify.verify_rainbow_vc.self_s": (self_s("verify.verify_rainbow_vc"), "s/inst"),
        "verify.exists_rainbow_path.calls": (calls("verify.exists_rainbow_path"), "count/inst"),
        "verify.exists_rainbow_path.total_s": (total("verify.exists_rainbow_path"), "s/inst"),
        "verify.counterexample_ratio": (ratio(c.get("verify_counterexamples", 0), verify_calls), "ratio"),
        "verify.pool_starts": (c.get("pool_starts", 0) * per, "count/inst"),
        "verify.pool_s": (total(POOL_SPAN), "s/inst"),
        "verify.has_color_avoiding_connectivity.calls": (
            calls("verify.has_color_avoiding_connectivity"), "count/inst"),
        "verify.has_color_avoiding_connectivity.total_s": (
            total("verify.has_color_avoiding_connectivity"), "s/inst"),
        "coloring.avoid_pass_ratio": (ratio(c.get("avoid_passes", 0), avoid_calls), "ratio"),
        "coloring.two_connected_coloring.self_s": (self_s("coloring.two_connected_coloring"), "s/inst"),
        "coloring.block_coloring.self_s": (self_s("coloring.block_coloring"), "s/inst"),
        "coloring.balanced_chain_coloring.self_s": (self_s("coloring.balanced_chain_coloring"), "s/inst"),
        "coloring.gate_verifies": (c.get("gate_verifies", 0) * per, "count/inst"),
        "coloring.gate_pass_ratio": (ratio(c.get("gate_passes", 0), c.get("gate_verifies", 0)), "ratio"),
        "decompose.ear_decomposition.total_s": (total("decompose.ear_decomposition"), "s/inst"),
        "decompose.find_initial_cycle.total_s": (total("decompose.find_initial_cycle"), "s/inst"),
        "decompose.ears": (c.get("ears", 0) * per, "count/inst"),
        "decompose.heuristic_ears": (c.get("heuristic_ears", 0) * per, "count/inst"),
        "oracle.exact_rvc.total_s": (total("oracle.exact_rvc"), "s/inst"),
        "oracle.exact_rvc.self_s": (self_s("oracle.exact_rvc"), "s/inst"),
        "oracle.nodes": (c.get("oracle_nodes", 0) * per, "count/inst"),
        "oracle.nodes_per_s": (ratio(c.get("oracle_nodes", 0), exact_total), "1/s"),
        "graph.parse_graph.total_s": (total("graph.parse_graph"), "s/inst"),
        "graph.is_2_connected.calls": (calls("graph.is_2_connected"), "count/inst"),
        "graph.is_2_connected.total_s": (total("graph.is_2_connected"), "s/inst"),
        "graph.block_decomposition.total_s": (total("graph.block_decomposition"), "s/inst"),
        "graph.diameter.total_s": (total("graph.diameter"), "s/inst"),
        "cli.main.total_s": (total("cli.main"), "s/inst"),
    }
    top = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start)) if tracer.parent[i] < 0)
    for layer in LAYERS:
        spent = sum(rec[2] for name, rec in tot.items() if name.split(".")[0] == layer)
        m[f"share.{layer}"] = (ratio(spent, busy_s), "ratio")
    m["share.bench"] = (ratio(busy_s - top, busy_s), "ratio")
    m["trace.spans"] = (len(tracer.start) * per, "count/inst")
    return m

