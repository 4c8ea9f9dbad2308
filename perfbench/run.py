"""Closed-loop benchmark of the tempoflow solvers.

    python3 perfbench/run.py --workload oracle-small --seed 1 --seconds 30 --trace 0

One client and no extra threads: each call starts only after the previous
one returned, all in this process.  The run generates its instances from
the seed, serializes them to instance text, measures set-up (a cold import
of the package in a fresh interpreter plus parsing every text), then times
the public solvers for the given number of seconds, split between the
operations of the workload.  After the timed loop, a fresh process solves
a fixed set of the instances and reports its peak memory (``memory.py``).
Every answer is checked against an independent networkx oracle after the
timed region; a wrong answer aborts the run with exit code 1 and no result
line.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run times half of the call sequence untraced, repeats it
with span-recording wrappers around the package's layer functions, solves
the full expansion of the original network as a baseline, and reports the
per-layer metrics.  Without ``--workload`` every workload runs in turn.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

if not (SRC / "tempoflow" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package sources at {SRC}/tempoflow; run from a repository checkout")
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# A call running longer than this is stopped and counted as failed.
OP_TIMEOUT_S = 20.0
# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
# The package is imported in a fresh interpreter, so that set-up includes
# every module it pulls in, not only its own.
COLD_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import tempoflow; print(time.perf_counter() - start)"
)
# The memory process solves the first this many pool entries of each
# operation the workload runs: feas builds the cTEN, mfot the witness TEN.
MEMORY_CALLS = {"feas": 36, "mfot": 12}
MEMORY_TIMEOUT_S = 60
# Share of the measured seconds a traced run spends on the TEN baseline.
BASELINE_SHARE = 0.25
# Reported times are rescaled to a machine on which ``calibration_work``
# takes this long.  On a shared 2-vCPU machine the speed changed by up to
# 1.7x between runs (same seed, same instances: feas p50 from 31 to 52 ms),
# so raw times of separate runs do not compare; the calibration, timed just
# before every call, tracks that speed.
REF_CALIBRATION_S = 1e-3
# Each call is rescaled by the median calibration of this many calls on
# either side of it.
CALIBRATION_WINDOW = 15


@dataclass(frozen=True)
class WorkloadDef:
    build: object
    # (operation, share of the measured seconds, pool size)
    ops: tuple[tuple[str, float, int], ...]


# Feasibility gets most of the time: it is the gated operation, and its
# median needs a few hundred calls to hold still from seed to seed.
WORKLOADS = {
    "oracle-small": WorkloadDef(
        workloads.oracle_small,
        (("feas", 0.7, 800), ("quickest", 0.15, 150), ("mfot", 0.15, 300)),
    ),
    "coarse-medium": WorkloadDef(workloads.coarse_medium, (("feas", 1.0, 500),)),
    "long-horizon": WorkloadDef(
        workloads.long_horizon,
        (("feas", 0.8, 800), ("quickest", 0.1, 100), ("mfot", 0.1, 200)),
    ),
}


class OpTimeout(BaseException):
    """Raised by the interval timer inside a call that passed its deadline."""


class Deadline:
    """Per-call timeout from the real-time interval timer (no extra thread)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        if self.armed:
            raise OpTimeout

    def call(self, fn):
        """(status, seconds, answer) of fn(); status is ok, timeout or error."""
        answer = None
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        start = time.perf_counter()
        try:
            answer = fn()
            status = "ok"
        except OpTimeout:
            status = "timeout"
        except Exception:
            traceback.print_exc(file=sys.stderr)
            status = "error"
        finally:
            elapsed = time.perf_counter() - start
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return status, elapsed, answer


def calibration_work():
    """Fixed interpreter work (dicts, tuples, lists, sorting), about 1 ms."""
    table: dict = {}
    keys = []
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        keys.append(key)
    return len(sorted(table.items())), len(keys)


def calibrate() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


@dataclass
class Call:
    op: str
    index: int
    status: str
    seconds: float
    answer: object = None
    # Seconds of ``calibration_work`` timed just before the call.
    calibration: float = 0.0
    # Multiplier taking this call's seconds to the reference machine.
    scale: float = 1.0


def rescale(calls: list[Call]) -> list[Call]:
    """Set each call's scale from the calibrations around it."""
    cal = [c.calibration for c in calls]
    w = CALIBRATION_WINDOW
    for i, c in enumerate(calls):
        c.scale = REF_CALIBRATION_S / statistics.median(cal[max(0, i - w): i + w + 1])
    return calls


def load_modules() -> dict:
    """The package modules whose attributes the solvers and the tracer use."""
    return {n: importlib.import_module(f"tempoflow.{n}") for n in ("netio", "solvers", "feasibility")}


def cold_import_s() -> float:
    """Seconds ``import tempoflow`` takes in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-I", "-c", COLD_IMPORT, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(child.stdout)


def measure_setup(parse, texts: list[str]) -> tuple[float, list]:
    """Median time to import the package cold and parse every instance text.

    Each repetition is rescaled by calibrations taken right around it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = [calibrate() for _ in range(5)]
        imported = cold_import_s()
        start = time.perf_counter()
        parsed = [parse(t) for t in texts]
        parsing = time.perf_counter() - start
        around = before + [calibrate() for _ in range(5)]
        times.append((imported + parsing) * REF_CALIBRATION_S / statistics.median(around))
    return statistics.median(times), parsed


def operation(mods: dict, op: str, parsed, draw):
    """A zero-argument call of one public solver, returning its answer."""
    solvers = mods["solvers"]
    net, v = parsed.network, parsed.demands
    if op == "feas":
        return lambda: solvers.dttn_feasible(net, net.horizon, v).feasible
    if op == "quickest":

        def quickest():
            try:
                return solvers.quickest_transshipment(net, v, draw.quickest_cap)[0]
            except solvers.BoundedSearchError:
                return None

        return quickest
    if op == "mfot":
        return lambda: solvers.max_flow_over_time(net, net.horizon)[0]
    raise ValueError(op)


class Bench:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seconds = seconds
        self.pools = self.spec.build(seed, {op: size for op, _, size in self.spec.ops})
        self.draws = self.pools.all_draws()
        self.slot = {d.name: k for k, d in enumerate(self.draws)}
        self.mods = load_modules()
        self.setup_s, self.parsed = measure_setup(
            self.mods["netio"].parse_network, [d.text for d in self.draws]
        )
        # The pools are the harness's, not the solvers': keep the cyclic
        # collector from walking them during timed calls.
        gc.collect()
        gc.freeze()
        self.deadline = Deadline(OP_TIMEOUT_S)
        self._expected: dict[tuple[str, str], object] = {}

    def pool(self, op: str):
        return getattr(self.pools, op)

    def run_call(self, op: str, index: int) -> Call:
        draw = self.pool(op)[index]
        fn = operation(self.mods, op, self.parsed[self.slot[draw.name]], draw)
        calibration = calibrate()
        status, seconds, answer = self.deadline.call(fn)
        return Call(op, index, status, seconds, answer, calibration)

    def warm_up(self):
        for op, _, _ in self.spec.ops:
            self.run_call(op, 0)

    def closed_loop(self, seconds: float) -> list[Call]:
        """Each operation in turn for its share of the seconds, cycling its pool."""
        calls = []
        for op, share, _ in self.spec.ops:
            pool_size = len(self.pool(op))
            stop = time.perf_counter() + share * seconds
            n = 0
            while time.perf_counter() < stop:
                calls.append(self.run_call(op, n % pool_size))
                n += 1
        return rescale(calls)

    def replay(self, calls: list[Call]) -> list[Call]:
        return rescale([self.run_call(c.op, c.index) for c in calls])

    def memory_pass(self) -> tuple[float, list[Call]]:
        """Peak RSS, in MB, of a fresh process that solves the first pool
        entries of each operation, and those calls, for the answer check."""
        calls = [
            Call(op, index, "ok", 0.0)
            for op, _, _ in self.spec.ops if op in MEMORY_CALLS
            for index in range(MEMORY_CALLS[op])
        ]
        child = subprocess.run(
            [sys.executable, "-I", str(HERE / "memory.py"), str(SRC)],
            input=json.dumps([[c.op, self.pool(c.op)[c.index].text] for c in calls]),
            capture_output=True, text=True, check=True, timeout=MEMORY_TIMEOUT_S,
        )
        result = json.loads(child.stdout)
        for c, answer in zip(calls, result["answers"], strict=True):
            c.answer = answer
        return result["peak_rss_mb"], calls

    # -- correctness -----------------------------------------------------

    def expected_ok(self, op: str, draw, answer) -> bool:
        """Whether the answer agrees with the oracle on the unstretched draw."""
        net, v, k, T0 = draw.base, draw.base_demands, draw.stretch, draw.base.horizon
        if op == "feas":
            key = ("feas", draw.name)
            if key not in self._expected:
                self._expected[key] = oracle.feasible(net, T0, v)
            return answer == self._expected[key]
        if op == "mfot":
            key = ("mfot", draw.name)
            if key not in self._expected:
                self._expected[key] = oracle.max_flow_over_time(net, T0)
            return answer == k * self._expected[key]
        cap = draw.quickest_cap
        if answer is None:
            # The search found nothing up to the cap.  The stretched T* is at
            # most k T0* + k - 1, so that is only right if the base draw is
            # infeasible at every horizon T0 with k T0 + k - 1 <= cap.
            return not oracle.feasible(net, (cap + 1) // k - 1, v)
        if k == 1:
            return answer == oracle.least_feasible_horizon(net, v, cap)
        base_star = oracle.least_feasible_horizon(net, v, answer // k)
        return base_star is not None and k * base_star <= answer <= k * base_star + k - 1

    def check(self, calls: list[Call]):
        checked: dict[tuple[str, int], object] = {}
        for c in calls:
            if c.status != "ok":
                continue
            key = (c.op, c.index)
            if key in checked:
                if checked[key] != c.answer:
                    fail(f"{self.name}: {c.op} on {self.pool(c.op)[c.index].name} answered "
                         f"{c.answer!r}, earlier {checked[key]!r}")
                continue
            draw = self.pool(c.op)[c.index]
            if not self.expected_ok(c.op, draw, c.answer):
                fail(f"{self.name}: {c.op} on {draw.name} (stretch {draw.stretch}) "
                     f"answered {c.answer!r}, which the oracle contradicts")
            checked[key] = c.answer


def fail(message: str):
    print(f"perfbench: WRONG ANSWER: {message}", file=sys.stderr)
    sys.exit(1)


# -- end-to-end metrics ---------------------------------------------------


def latencies(calls: list[Call], op: str, scaled: bool = True) -> list[float]:
    """Per-call seconds; a failed call counts as at least the timeout."""
    return [
        (c.seconds * (c.scale if scaled else 1.0)) if c.status == "ok" else OP_TIMEOUT_S
        for c in calls
        if c.op == op
    ]


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and which one.

    None below 21 samples, where that percentile would not exceed the median.
    """
    if len(values) < 21:
        return None
    k = len(values) - 11
    return sorted(values)[k], 100.0 * (k + 1) / len(values)


def end_to_end(bench: Bench, calls: list[Call], peak_rss_mb: float) -> tuple[dict, list[str]]:
    metrics = {"setup_s": (bench.setup_s, "s")}
    notes = []
    for op, _, _ in bench.spec.ops:
        lat = latencies(calls, op)
        if not lat:
            sys.exit(f"perfbench: {bench.name}: no {op} call ran within the run")
        metrics[f"{op}_p50_s"] = (statistics.median(lat), "s")
        wall = statistics.median(latencies(calls, op, scaled=False))
        found = tail(lat)
        if found:
            metrics[f"{op}_tail_s"] = (found[0], "s")
            about_tail = f"tail is p{found[1]:.1f}"
        else:
            about_tail = f"tail undefined below 21 calls, slowest call {max(lat):.6g} s"
        notes.append(f"{op}: {len(lat)} calls, {about_tail}, unscaled p50 {wall:.6g} s")
        if op == "feas":
            metrics["feas_per_s"] = (len(lat) / sum(lat), "1/s")
            verdicts = [c.answer for c in calls if c.op == "feas" and c.status == "ok"]
            metrics["feas_infeasible_frac"] = (verdicts.count(False) / len(verdicts), "frac")
    failed = sum(1 for c in calls if c.status != "ok")
    metrics["fail_frac"] = (failed / len(calls), "frac")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    calibration = statistics.median(c.calibration for c in calls)
    notes.append(f"calibration_work took {calibration * 1e3:.4g} ms (reference {REF_CALIBRATION_S * 1e3:g} ms)")
    return metrics, notes


# -- traced run -----------------------------------------------------------


def baseline(bench: Bench, calls: list[Call], seconds: float) -> dict:
    """Solve the full expansion of each original feas draw until seconds run out."""
    from tempoflow.expansion import DEFAULT_TEN_BUDGET, OracleBudgetError, build_ten
    from tempoflow.maxflow import max_flow
    from tempoflow.reductions import attach_super_terminals

    fast: dict[int, list[float]] = {}
    verdicts: dict[int, bool] = {}
    for c in calls:
        if c.op == "feas" and c.status == "ok":
            fast.setdefault(c.index, []).append(c.seconds * c.scale)
            verdicts[c.index] = c.answer
    outcomes = {"ok": 0, "timeout": 0, "over_budget": 0, "error": 0}
    ten_times, fast_times = [], []
    stop = time.perf_counter() + seconds
    for index in fast:
        if time.perf_counter() >= stop:
            break
        parsed = bench.parsed[bench.slot[bench.pool("feas")[index].name]]
        net, v = parsed.network, parsed.demands
        required = sum(d for d in v.values.values() if d > 0)

        def solve():
            try:
                graph = build_ten(attach_super_terminals(net, v), budget=DEFAULT_TEN_BUDGET)
            except OracleBudgetError:
                return None
            return max_flow(graph)[0]

        scale = REF_CALIBRATION_S / statistics.median(calibrate() for _ in range(3))
        status, elapsed, value = bench.deadline.call(solve)
        if status == "ok" and value is None:
            status = "over_budget"
        if status != "ok":
            outcomes[status] += 1
            continue
        if (value >= required) != verdicts[index]:
            fail(f"{bench.name}: TEN baseline and dttn_feasible disagree on {bench.pool('feas')[index].name}")
        outcomes["ok"] += 1
        ten_times.append(elapsed * scale)
        fast_times.append(statistics.median(fast[index]))
    return {
        "baseline.ten_s": (statistics.median(ten_times) if ten_times else 0.0, "s"),
        "baseline.ten_ok": (outcomes["ok"], "count"),
        "baseline.ten_timeout": (outcomes["timeout"], "count"),
        "baseline.ten_over_budget": (outcomes["over_budget"], "count"),
        "baseline.ten_error": (outcomes["error"], "count"),
        "baseline.fast_over_ten": (sum(fast_times) / sum(ten_times) if ten_times else 0.0, "ratio"),
    }


def per_layer(tracer: Tracer, calls: list[Call]) -> dict:
    """Layer metrics of the traced pass; times are per operation, rescaled."""
    scale = statistics.median(c.scale for c in calls)
    ops = len(calls)
    selfs = tracer.self_times()

    def per_op(name):
        return (selfs.get(name, 0.0) * scale / ops, "s")

    def mean_count(span_name, key):
        """Mean of a count over the spans of one function."""
        vals = [s.counts[key] for s in tracer.named(span_name) if s.counts]
        return (sum(vals) / len(vals) if vals else 0.0, "count")

    bps = [s.counts for s in tracer.named("breakpoints.cten_breakpoints") if s.counts]
    verdicts = [s.counts["infeasible"] for s in tracer.named("feasibility.feas") if s.counts]
    quickest = tracer.named("solvers.quickest_transshipment")
    probes = [
        s for s in tracer.named("solvers.dttn_feasible")
        if tracer.parent_name(s) == "solvers.quickest_transshipment"
    ]
    witnessed = [
        s.counts["witness_skipped"]
        for s in quickest + tracer.named("solvers.max_flow_over_time")
        if s.counts
    ]
    return {
        # One parse of every instance text, as in set-up.
        "netio.parse_s": (selfs.get("netio.parse_network", 0.0) * scale, "s"),
        "model.to_one_shot_s": per_op("model.to_one_shot"),
        "model.one_shot_edges": mean_count("model.to_one_shot", "edges"),
        "reductions.hoppe_tardos_star_s": per_op("reductions.hoppe_tardos_star"),
        "reductions.canonical_reduction_s": per_op("reductions.canonical_reduction"),
        "reductions.canon_nodes": mean_count("reductions.canonical_reduction", "nodes"),
        "reductions.canon_edges": mean_count("reductions.canonical_reduction", "edges"),
        "breakpoints.cten_breakpoints_s": per_op("breakpoints.cten_breakpoints"),
        "breakpoints.sum_A": mean_count("breakpoints.cten_breakpoints", "sum_A"),
        "breakpoints.max_A": (max((c["max_A"] for c in bps), default=0), "count"),
        "breakpoints.full_frac": (
            sum(c["full"] for c in bps) / max(1, sum(c["nodes"] for c in bps)), "frac"
        ),
        "expansion.build_cten_s": per_op("expansion.build_cten"),
        "expansion.cten_vertices": mean_count("expansion.build_cten", "vertices"),
        "expansion.cten_arcs": mean_count("expansion.build_cten", "arcs"),
        "expansion.build_ten_s": per_op("expansion.build_ten"),
        "expansion.ten_vertices": mean_count("expansion.build_ten", "vertices"),
        "maxflow.max_flow_cten_s": per_op("maxflow.max_flow_cten"),
        "maxflow.max_flow_ten_s": per_op("maxflow.max_flow_ten"),
        "maxflow.residual_reachable_s": per_op("maxflow.residual_reachable"),
        "feasibility.capacity_oT_s": per_op("feasibility.capacity_oT"),
        "feasibility.infeasible_frac": (sum(verdicts) / max(1, len(verdicts)), "frac"),
        "solvers.probes_per_quickest": (len(probes) / max(1, len(quickest)), "count"),
        "solvers.probe_s": (scale * sum(s.duration for s in probes) / max(1, len(quickest)), "s"),
        "solvers.extract_flow_s": per_op("solvers.extract_flow"),
        "solvers.witness_skipped_frac": (sum(witnessed) / max(1, len(witnessed)), "frac"),
    }


def traced_run(bench: Bench) -> tuple[dict, list[Call]]:
    untraced = bench.closed_loop(bench.seconds / 2)
    tracer = Tracer(bench.mods)
    tracer.install()
    try:
        parse = bench.mods["netio"].parse_network
        for d in bench.draws:
            parse(d.text)
        traced = bench.replay(untraced)
    finally:
        tracer.restore()
    for a, b in zip(untraced, traced):
        if a.status == b.status == "ok" and a.answer != b.answer:
            fail(f"{bench.name}: traced {a.op} answer {b.answer!r} differs from untraced {a.answer!r}")
    bench.check(untraced + traced)
    both = [(a, b) for a, b in zip(untraced, traced) if a.status == b.status == "ok"]
    overhead = (sum(b.seconds * b.scale for _, b in both)
                / sum(a.seconds * a.scale for a, _ in both)) - 1.0
    metrics = per_layer(tracer, traced)
    metrics.update(baseline(bench, untraced, BASELINE_SHARE * bench.seconds))
    metrics["trace.overhead_frac"] = (overhead, "frac")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{bench.name}.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return metrics, untraced + traced


# -- command line ---------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(name, seed, seconds)
    bench.warm_up()
    if trace:
        metrics, calls = traced_run(bench)
        notes = []
    else:
        calls = bench.closed_loop(seconds)
        peak_rss_mb, memory_calls = bench.memory_pass()
        bench.check(calls + memory_calls)
        metrics, notes = end_to_end(bench, calls, peak_rss_mb)
    benchmark = json.loads(BENCHMARK.read_text())
    why = next(w["why"] for w in benchmark["workloads"] if w["name"] == name)
    print(f"# workload {name}: {why}")
    print(f"# seed {seed}, commit {commit()}, python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, {seconds:g} s measured, closed loop with one client")
    for note in notes:
        print(f"# {note}")
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:34s} {value:14.6g} {unit}")
    listed = benchmark["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: {name} does not measure {missing}")
    return {
        "correct": True,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.status != "ok"),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in listed
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
