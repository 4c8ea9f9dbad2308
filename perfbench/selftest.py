"""Self-test of the benchmark's time-stretch transform and oracle.

    python3 perfbench/selftest.py

For small factors k the networkx oracle is run on the stretched instance
itself: it must give the same verdict as on the unstretched draw and k times
its max flow over time.  The long-horizon workload relies on exactly this
to check answers on draws whose full expansion is too large to build.
Exits 1 on the first disagreement.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

FACTORS = (2, 3, 5)
# Draws of each family, multi-terminal and single-pair each.
DRAWS = 40


def main():
    cases = 0
    for family, tag in ((workloads.SMALL, "small"), (workloads.COARSE, "coarse")):
        for single_pair in (False, True):
            for draw in workloads.draws(family, tag, 0, DRAWS, single_pair):
                net, v, T = draw.base, draw.base_demands, draw.base.horizon
                verdict = oracle.feasible(net, T, v)
                value = oracle.max_flow_over_time(net, T)
                for k in FACTORS:
                    s_net, s_v = workloads.stretch(net, v, k)
                    got = (oracle.feasible(s_net, s_net.horizon, s_v),
                           oracle.max_flow_over_time(s_net, s_net.horizon))
                    if got != (verdict, k * value):
                        sys.exit(f"{draw.name} stretched by {k}: verdict/value {got}, "
                                 f"expected {(verdict, k * value)}")
                    cases += 1
    print(f"selftest: {cases} stretched instances agree with their unstretched draws")


if __name__ == "__main__":
    main()
