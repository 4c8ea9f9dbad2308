"""Seeded instance generator for the benchmark workloads.

Every workload is a pure function of its seed: the same seed gives the same
instance texts.  Instances come from ``tempoflow.generate_instance``
(outside any timed region) and reach the timed loop as instance text.

Draws are stratified: draw n takes its shape (terminal counts, horizon,
demand mode) from a fixed cycle, and the seed picks everything else
(pieces, capacities, travel times, demands).  Every prefix of a pool then
holds the shapes in fixed proportions, so the timed loop sees the same mix
on every seed.  The graph is the complete forward DAG on its nodes, so the
seed does not change the topology; random topologies made the per-call
cost spread so wide that a median over the few hundred calls a run allows
moved by 20% from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from tempoflow import (
    DemandVector,
    EdgeFn,
    InstanceSpec,
    PiecewiseConstFn,
    TemporalNetwork,
    generate_instance,
    serialize_network,
)

# Horizon cap of ``quickest_transshipment``, as a multiple of the instance horizon.
QUICKEST_CAP_FACTOR = 4
# Stretch factors of the long-horizon workload: with the first the full
# expansion of a stretched draw stays under the package's 2M-vertex budget,
# so witnesses go through it; with the second it is far over the budget.
STRETCH_FACTORS = (30, 1_000_000)
# More edges than any node count below can hold: the complete forward DAG.
ALL_EDGES = 99
# Multi-terminal draws have two sources and two sinks.  Single-pair draws
# have fewer nodes: with one source and one sink, every further internal
# node multiplies the pin paths.
TERMINALS = 2
PAIR_NODES = 4
# Two draws with feasible demands to one with random demands, so that the
# median call stays inside the cheaper, feasible mode of the costs.
DEMAND_MODES = ("feasible", "feasible", "random")


@dataclass(frozen=True)
class Family:
    """A grid of instance shapes that draws cycle through."""

    nodes: int
    horizons: tuple[int, ...]
    max_pieces: int
    # Random demands are multiplied by this, so that about 30% of the draws
    # are infeasible (28-33% of the feas draws of seeds 1-2 by the oracle).
    # The generator's random demands alone are feasible on most of these
    # dense networks: 3-4% of the draws were infeasible.
    overload: int

    def specs(self, single_pair: bool) -> list[InstanceSpec]:
        return [
            InstanceSpec(
                n_nodes=PAIR_NODES if single_pair else self.nodes,
                n_sources=1 if single_pair else TERMINALS,
                n_sinks=1 if single_pair else TERMINALS,
                n_edges=ALL_EDGES,
                horizon=horizon,
                max_capacity=4,
                max_travel_time=3,
                max_pieces=self.max_pieces,
                demand_mode=mode,
            )
            for horizon, mode in itertools.product(self.horizons, DEMAND_MODES)
        ]


# Inside the test-corpus envelope (T <= 12, 2-6 nodes): breakpoint sets
# fill most of [0, T], so fixed per-call costs weigh most.
SMALL = Family(nodes=5, horizons=(12,), max_pieces=2, overload=12)
# Horizons long enough that breakpoint sets coarsen.
COARSE = Family(nodes=6, horizons=(30, 45, 60), max_pieces=1, overload=24)


@dataclass(frozen=True)
class Draw:
    """One benchmark instance and the unstretched draw its oracle answers come from.

    ``stretch`` is the factor k relating the instance to ``base`` (1 for an
    unstretched draw); ``text`` is the instance in the package's format.
    """

    name: str
    text: str
    base: TemporalNetwork
    base_demands: DemandVector
    stretch: int
    horizon: int

    @property
    def quickest_cap(self) -> int:
        return QUICKEST_CAP_FACTOR * self.horizon


def stretch(net: TemporalNetwork, v: DemandVector, k: int) -> tuple[TemporalNetwork, DemandVector]:
    """Stretch a network in time by the factor k.

    Time step t becomes the k steps kt .. kt + k - 1: a piece [a, b]
    becomes [ka, kb + k - 1], every travel time tau becomes k tau, and the
    demands are multiplied by k.  The stretched instance behaves like k
    interleaved copies of the original, so it has the same verdict, k times
    the max flow over time, and a least feasible horizon T* with
    k T0* <= T* <= k T0* + k - 1.
    """

    def scaled(fn: PiecewiseConstFn, factor: int) -> PiecewiseConstFn:
        return PiecewiseConstFn(
            tuple((k * a, k * b + k - 1, val * factor) for a, b, val in fn.pieces)
        )

    edges = {
        e: EdgeFn(scaled(fn.capacity, 1), scaled(fn.travel_time, k))
        for e, fn in net.edges.items()
    }
    horizon = k * (net.horizon + 1) - 1
    stretched = TemporalNetwork(net.nodes, edges, net.sources, net.sinks, horizon)
    return stretched, DemandVector({t: k * d for t, d in v.values.items()})


def draws(family: Family, tag: str, seed: int, count: int, single_pair: bool = False) -> list[Draw]:
    """The first ``count`` draws of a family's stream for this seed."""
    specs = family.specs(single_pair)
    rng = random.Random(f"{tag}/{seed}/{single_pair}")
    out = []
    for n in range(count):
        spec = specs[n % len(specs)]
        parsed = generate_instance(spec, rng.randrange(2**32))
        net, v = parsed.network, parsed.demands
        if spec.demand_mode == "random":
            v = DemandVector({t: family.overload * d for t, d in v.values.items()})
        out.append(Draw(f"{tag}-{n}", serialize_network(net, v), net, v, 1, net.horizon))
    return out


def stretched(draw: Draw, k: int) -> Draw:
    net, v = stretch(draw.base, draw.base_demands, k)
    return Draw(f"{draw.name}*{k}", serialize_network(net, v), draw.base, draw.base_demands, k, net.horizon)


@dataclass(frozen=True)
class Workload:
    """Instance pools per operation; ``mfot`` holds single-pair draws only."""

    feas: list[Draw]
    quickest: list[Draw]
    mfot: list[Draw]

    def all_draws(self) -> list[Draw]:
        seen: dict[str, Draw] = {}
        for d in self.feas + self.quickest + self.mfot:
            seen.setdefault(d.name, d)
        return list(seen.values())


def _pools(family: Family, tag: str, seed: int, sizes: dict[str, int], k_cycle=(1,)) -> Workload:
    def pool(count: int, single_pair: bool) -> list[Draw]:
        base = draws(family, tag + ("-pair" if single_pair else ""), seed, count, single_pair)
        return [d if k == 1 else stretched(d, k) for d, k in zip(base, itertools.cycle(k_cycle))]

    shared = pool(max(sizes.get("feas", 0), sizes.get("quickest", 0)), False)
    return Workload(
        shared[: sizes.get("feas", 0)],
        shared[: sizes.get("quickest", 0)],
        pool(sizes.get("mfot", 0), True),
    )


def oracle_small(seed: int, sizes: dict[str, int]) -> Workload:
    return _pools(SMALL, "small", seed, sizes)


def coarse_medium(seed: int, sizes: dict[str, int]) -> Workload:
    return _pools(COARSE, "coarse", seed, sizes)


def long_horizon(seed: int, sizes: dict[str, int]) -> Workload:
    """oracle-small shapes, each draw stretched by the factors in turn."""
    return _pools(SMALL, "long", seed, sizes, STRETCH_FACTORS)
