"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/sweep.py --workload coarse-medium --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric it prints (gated or not, plus ``run_wall_s``, the wall time of the
whole run) the median over the runs and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  ``--out`` writes the per-run values, their header
lines (seed, commit, Python version, nproc) and the summary as JSON; the
files in ``results/`` were written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int) -> dict[str, float]:
    """Every metric the run prints, gated or not, by name, and its header."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    json.loads(lines[-1])
    metrics = {
        fields[1]: float(fields[2])
        for fields in (line.split() for line in lines[:-1] if not line.startswith("#"))
    }
    metrics["run_wall_s"] = elapsed
    return metrics, [line[2:] for line in lines if line.startswith("# ")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    runs, headers = {}, {}
    for seed in seeds(args.seeds):
        runs[seed], headers[seed] = run(args.workload, seed)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[seed].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    summary = {}
    # A tail is printed only by runs with enough calls for it.
    for name in dict.fromkeys(k for r in runs.values() for k in r):
        values = [r[name] for r in runs.values() if name in r]
        if len(values) < 2:
            continue
        summary[name] = {"median": statistics.median(values), "spread": spread(values),
                         "runs": len(values), "bound": bounds.get(name)}
        print(f"{name:34s} median {summary[name]['median']:12.6g}  spread {summary[name]['spread']:.3f}"
              + f"  runs {len(values)}" + (f"  bound {bounds[name]}" if bounds.get(name) else ""))
    if args.out:
        record = {"workload": args.workload, "python": platform.python_version(),
                  "nproc": os.cpu_count(), "headers": headers, "runs": runs, "summary": summary}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
