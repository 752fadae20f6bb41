"""Seeded benchmark for rvc: one client, closed loop, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload color --seed 1 --seconds 45 --trace 0

Workloads: color, decompose and exact drive `rvc.cli.main` in-process with
`--format structured` and the CLI's default flags; chain calls
`balanced_chain_coloring` directly. Each run generates its instances from
the seed, writes them under .perfbench_work/, runs whole rounds of them
back to back until --seconds have been measured, then checks every output
outside the timed region. The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. See README.md in this directory.

Every run also prints each instance's CPU time, of this process and of the
--jobs pool workers it waited for, on a summary line: on a shared machine
the gap between it and wall-clock time shows how much the host took.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from instances import ROUNDS, Instance, parse_chain_record, serialize  # noqa: E402

# Set-up is repeated and its median reported. The repeats are spread over
# the run, one after each round and the rest after the last, because a
# set-up lasts about 0.06 s and 15 of them back to back all fall into the
# same second: one slow second of the machine then moved a run's median
# by 2x.
SETUP_REPS = 15
SETUP_ROUNDS = 4  # rounds generated during set-up; later rounds are made on demand, untimed
INSTANCE_LIMIT_S = 60.0  # an instance still running after this counts as failed (timeout)
OVERHEAD_SHARE = 0.25  # share of --seconds a traced run spends measuring its own overhead

# A run goes on past --seconds until it has this many instances, so that
# at least ten samples lie beyond its tail percentile. The percentile is
# fixed per workload, so runs and versions that fit more or fewer
# instances report the same quantile. On color the p90 tail lands inside
# the group of costliest cells; on exact it lands among the deterministic
# C17 runs rather than on the seeded graphs.
MIN_INSTANCES = {"color": 100, "chain": 40, "decompose": 40, "exact": 100}
TAIL_PERCENTILE = {"color": 90.0, "chain": 75.0, "decompose": 75.0, "exact": 90.0}

CLI_ARGS = {
    "color": ["color"],
    "decompose": ["decompose", "--ears"],
    "exact": ["exact", "--max-n", "20"],
}


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"instance exceeded {INSTANCE_LIMIT_S:g}s")


def import_rvc():
    """Import rvc afresh (set-up time includes the import) and return it."""
    for name in [k for k in sys.modules if k == "rvc" or k.startswith("rvc.")]:
        del sys.modules[name]
    rvc = importlib.import_module("rvc")
    importlib.import_module("rvc.cli")
    return rvc


class InstancePool:
    """Rounds of instances for one workload and seed, written to `workdir`."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.make = ROUNDS[workload]
        self.seed = seed
        self.workdir = workdir
        self.rounds: dict[int, list[Instance]] = {}
        self.texts: dict[str, str] = {}

    def round(self, r: int) -> list[Instance]:
        if r not in self.rounds:
            insts = self.make(self.seed, r)
            for inst in insts:
                text = serialize(inst)
                inst.path = str(self.workdir / f"{inst.key}.txt")
                with open(inst.path, "w") as fh:
                    fh.write(text)
                self.texts[inst.key] = text
            self.rounds[r] = insts
        return self.rounds[r]


def setup(workload: str, seed: int, workdir: Path):
    """Import rvc afresh, then generate and write the first rounds into
    `workdir`. Returns (rvc, instance pool, seconds)."""
    t0 = perf_counter()
    rvc = import_rvc()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    pool = InstancePool(workload, seed, workdir)
    for r in range(SETUP_ROUNDS):
        pool.round(r)
    return rvc, pool, perf_counter() - t0


def setup_again(workload: str, seed: int, workdir: Path) -> float:
    """Time one more set-up into `workdir` and remove it, leaving the rvc
    modules in use in place. The garbage left by the instances run so far
    is collected first, untimed, so that no set-up pays for it."""
    in_use = {k: m for k, m in sys.modules.items() if k == "rvc" or k.startswith("rvc.")}
    gc.collect()
    try:
        return setup(workload, seed, workdir)[2]
    finally:
        for k in [k for k in sys.modules if k == "rvc" or k.startswith("rvc.")]:
            del sys.modules[k]
        sys.modules.update(in_use)
        shutil.rmtree(workdir, ignore_errors=True)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children, which
    include the --jobs pool workers once an instance has closed its pool."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def run_one(rvc, workload: str, inst: Instance):
    """Run one instance. Returns (seconds, outcome, payload).

    outcome is "ok" (payload is the output to check), "exit" (non-zero exit
    code), "refuted" or "budget_exhausted" (a chain search that proved no
    balanced chain exists, or ran out of budget), "timeout", or "error" (an
    exception the library does not document).
    """
    if workload == "chain":
        rec = parse_chain_record(Path(inst.path).read_text())
        ears = [rvc.Ear(tuple(p)) for p in rec["ears"]]
    else:
        argv = ["--format", "structured", *CLI_ARGS[workload], inst.path]
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
    t0 = perf_counter()
    try:
        if workload == "chain":
            payload = rvc.balanced_chain_coloring(rec["n0"], ears, final_target=rec["target"])
            outcome = "ok"
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = sys.modules["rvc.cli"].main(argv)
            outcome, payload = ("ok", out.getvalue()) if rc == 0 else ("exit", f"exit {rc}: {err.getvalue().strip()}")
    except InstanceTimeout as exc:
        outcome, payload = "timeout", str(exc)
    except (rvc.ConstructionError, rvc.SearchInconclusiveError) as exc:
        inconclusive = isinstance(exc, rvc.SearchInconclusiveError) or "budget exhausted" in str(exc)
        outcome, payload = ("budget_exhausted" if inconclusive else "refuted"), str(exc)
    except Exception as exc:  # an undocumented failure of the program under test
        outcome, payload = "error", f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, outcome, payload


def timed_loop(rvc, workload: str, pool: InstancePool, seconds: float, tracer=None,
               max_instances: int | None = None, between=None):
    """Whole rounds back to back until `seconds` of them have been measured
    and MIN_INSTANCES instances have run, or `max_instances` have run.

    Returns (records, CPU seconds per record, timed seconds, rounds run);
    records are (instance, seconds, outcome, payload). Generating rounds
    beyond the set-up ones is not timed, nor is `between`, called after
    each round.
    """
    records = []
    cpu = []
    timed = 0.0
    r = 0  # rounds run

    def more() -> bool:
        if max_instances is not None:
            return len(records) < max_instances
        return timed < seconds or len(records) < MIN_INSTANCES[workload]

    while r == 0 or more():
        insts = pool.round(r)
        if max_instances is not None:
            insts = insts[: max_instances - len(records)]
        t0 = perf_counter()
        for inst in insts:
            if tracer is not None:
                tracer.current = len(records)
            c0 = cpu_seconds()
            records.append((inst, *run_one(rvc, workload, inst)))
            cpu.append(cpu_seconds() - c0)
        timed += perf_counter() - t0
        r += 1
        if between is not None:
            between()
    return records, cpu, timed, r


def check_all(rvc, workload: str, pool: InstancePool, records) -> tuple[int, list[str], list[float]]:
    """Check every output. Returns (failed, wrong-output reasons, color ratios)."""
    failed = 0
    wrong: list[str] = []
    ratios: list[float] = []
    cache: dict[tuple[str, str], str | None] = {}
    for inst, _, outcome, payload in records:
        if outcome != "ok":
            failed += 1
            continue
        text = pool.texts[inst.key]
        try:
            if workload == "chain":
                g, coloring = payload
                reason = checks.check_chain(inst, g, coloring, rvc)
                count = len(set(coloring.colors))
            else:
                key = (text, payload)
                if key not in cache:
                    cache[key] = getattr(checks, f"check_{workload}")(inst, text, payload)
                reason = cache[key]
                count = _reported_count(payload)
        except (ValueError, IndexError) as exc:
            reason = f"unparsable output: {exc}"
        if reason is not None:
            failed += 1
            wrong.append(f"{inst.key}: {reason}")
        elif count is not None and inst.bound:
            ratios.append(count / inst.bound)
    return failed, wrong, ratios


def _reported_count(out: str) -> int | None:
    for line in out.splitlines():
        if line.startswith("count "):
            return int(line.split()[1])
    return None


def tail(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank value at percentile p and the number of samples beyond it."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_instances: int | None = None, workdir: Path | None = None) -> dict:
    """One benchmark run; returns the result object plus a human summary."""
    os.environ.pop("RVC_NODE_BUDGET", None)  # it changes search budgets, hence failures
    load_start = os.getloadavg()
    workdir = workdir or ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    spare = workdir.with_name(workdir.name + "-setup")  # for the repeated set-ups
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        rvc, pool, first_setup_s = setup(workload, seed, workdir)
        setup_times = [first_setup_s]

        def setup_more():
            if not trace and len(setup_times) < SETUP_REPS:  # a traced run reports no setup_s
                setup_times.append(setup_again(workload, seed, spare))

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            records, cpu, timed, rounds = timed_loop(rvc, workload, pool, seconds, tracer,
                                                max_instances, setup_more)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for _ in range(SETUP_REPS):
            setup_more()
        setup_s = statistics.median(setup_times)
        overhead = None
        if trace and max_instances is None:
            overhead = _overhead(rvc, workload, records, seconds * OVERHEAD_SHARE)
        t0 = perf_counter()
        failed, wrong, ratios = check_all(rvc, workload, pool, records)
        check_s = perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    latencies = [rec[1] for rec in records]
    attempted = len(records)
    outcomes: dict[str, int] = {}
    for rec in records:
        outcomes[rec[2]] = outcomes.get(rec[2], 0) + 1
    tail_p = TAIL_PERCENTILE[workload]
    tail_v, tail_beyond = tail(latencies, tail_p)
    color_ratio = statistics.fmean(ratios) if ratios else 0.0
    per = 1.0 / attempted
    if trace:
        busy = sum(latencies)
        metrics = tracing.layer_metrics(tracer, attempted, busy)
        metrics["coloring.chain_refuted"] = (outcomes.get("refuted", 0) * per, "count/inst")
        metrics["coloring.chain_budget_exhausted"] = (outcomes.get("budget_exhausted", 0) * per, "count/inst")
        metrics["coloring.color_ratio"] = (color_ratio, "ratio")
        metrics["trace.instances_per_s"] = (attempted / timed, "1/s")
        if overhead is not None:
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (attempted / timed, "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_v, "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    summary = [
        f"workload {workload} seed {seed} trace {int(trace)} rounds {rounds} "
        f"instances {attempted} timed_s {timed:.3f} check_s {check_s:.3f}",
        "outcomes " + " ".join(f"{k}={v}" for k, v in sorted(outcomes.items())),
        f"fail_ratio {failed / attempted:.6f} (failed {failed} of {attempted})",
        f"color_ratio {color_ratio:.6f} (mean of count/bound over {len(ratios)} outputs)",
        f"cpu per_instance_s {sum(cpu) / attempted:.6g} p50_s {statistics.median(cpu):.6g} "
        f"tail_s {tail(cpu, tail_p)[0]:.6g} (this process and the waited-for pool workers)",
        f"latency_tail percentile p{tail_p:g} with {tail_beyond} samples beyond, of {attempted}",
        f"setup_s median of {len(setup_times)} set-ups, min {min(setup_times):.4f} max {max(setup_times):.4f}",
        "machine nproc {} affinity {} python {} loadavg_start {} loadavg_end {}".format(
            os.cpu_count(), len(os.sched_getaffinity(0)), platform.python_version(),
            "/".join(f"{x:.2f}" for x in load_start),
            "/".join(f"{x:.2f}" for x in os.getloadavg())),
    ]
    by_shape: dict[str, list[float]] = {}
    for inst, seconds_taken, _, _ in records:
        by_shape.setdefault(inst.shape, []).append(seconds_taken)
    summary += [f"shape {k} instances {len(v)} mean_s {statistics.fmean(v):.4f}"
                for k, v in sorted(by_shape.items())]
    slowest = sorted(records, key=lambda rec: -rec[1])[:3]
    summary += [f"slowest {inst.key} {inst.shape} n={inst.n} {t:.3f}s" for inst, t, _, _ in slowest]
    summary += [f"failure {inst.key} {outcome}: {payload}"
                for inst, _, outcome, payload in records if outcome != "ok"][:20]
    summary += [f"wrong {w}" for w in wrong[:20]]
    summary += [f"metric {k} {v:.6g} {u} samples={attempted}" for k, (v, u) in metrics.items()]
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "summary": summary,
    }


def _overhead(rvc, workload: str, records, budget_s: float) -> float:
    """Tracing overhead: rerun the first instances of the run once untraced
    and once traced, back to back so that both see the same machine, for
    at least `budget_s` in all; returns traced over untraced time minus 1."""
    traced = untraced = 0.0
    for inst, _, _, _ in records:
        if traced + untraced >= budget_s:
            break
        untraced += run_one(rvc, workload, inst)[0]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced += run_one(rvc, workload, inst)[0]
        finally:
            tracer.uninstall()
    return traced / untraced - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "rvc" / "__init__.py").is_file():
        print(f"error: no rvc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("summary"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
