"""Peak memory of a process that only parses instances and solves them.

    python3 -I perfbench/memory.py SRC < calls.json

Reads a JSON list of ``[operation, instance text]`` pairs (operation
``feas`` or ``mfot``), imports the package from SRC, parses and solves each
in turn, and prints one JSON object: the answers, in order, and the peak
resident set size in MB.  ``run.py`` starts it after its timed loop, so
that the peak holds the interpreter, the package and the solvers' working
memory, and none of the benchmark's own instance pools or oracle.  The peak
is read from ``VmHWM``: ``ru_maxrss`` would report the parent's peak, which
Linux carries over into a child across exec.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from tempoflow import dttn_feasible, max_flow_over_time, parse_network  # noqa: E402


def main():
    answers = []
    for op, text in json.load(sys.stdin):
        parsed = parse_network(text)
        net, v = parsed.network, parsed.demands
        if op == "feas":
            answers.append(dttn_feasible(net, net.horizon, v).feasible)
        else:
            answers.append(max_flow_over_time(net, net.horizon)[0])
    status = open("/proc/self/status").read().split("\n")
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0
    print(json.dumps({"answers": answers, "peak_rss_mb": peak}))


if __name__ == "__main__":
    main()
