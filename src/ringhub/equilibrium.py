"""Nash-equilibrium baseline for the route-choice game.

An agent is a potential hub user when its uncongested inside route strictly
beats its outside route (advantage l > 0). In equilibrium the hub carries at
most its capacity L, is therefore never congested, and only potential users
enter. The closed form below evaluates the two extreme equilibria (the
cheapest and the dearest allocation of hub slots); a brute-force enumerator
over small instances serves as its oracle.

All arithmetic is exact. Costs are priced once, as integers scaled by the
lcm of the alpha and beta denominators (scaled_costs), and the closed form
(ne_totals) works on those integers for the batched engine and, with Python
integers, for the Fraction API.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import (
    Network,
    NetworkConfig,
    ODPair,
    best_inside_route,
    inside_cost,
    outside_cost,
    route_table,
)

__all__ = [
    "CostAdvantage",
    "NEResult",
    "scaled_costs",
    "ne_totals",
    "cost_advantages",
    "potential_count",
    "ne_costs",
    "brute_force_ne",
]


@dataclass(frozen=True)
class CostAdvantage:
    """Agent index and its advantage l = c_out - c_in(uncongested)."""

    agent: int
    l: Fraction


@dataclass(frozen=True)
class NEResult:
    """Potential-user count and the extreme equilibrium average costs."""

    n_p: int
    c_best: Fraction
    c_worst: Fraction


def scaled_costs(cfg: NetworkConfig, geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outside, inside-uncongested and inside-congested costs times cfg.scale.

    geometry is route_table's (d_out, d_access, d_hub); the results are exact
    int64 arrays of the same shape, which NetworkConfig's bound keeps from
    overflowing.
    """
    d_out, d_access, d_hub = geometry
    scale = cfg.scale
    access = scale * d_access
    return (
        scale * d_out,
        access + int(cfg.alpha * scale) * d_hub,
        access + int(cfg.beta * scale) * d_hub,
    )


def ne_totals(l, out, inu, L) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total costs of the best and worst equilibrium of each run.

    l, out and inu are (runs, agents) arrays of advantages, outside costs and
    uncongested inside costs on one integer scale: int64, or Python ints in
    object arrays. L is the hub capacity, one for all runs or one per run.
    Agents are ranked by descending advantage, ties by index. The best
    allocation seats the min(n_p, L) most-advantaged potential users (l > 0),
    the worst the least-advantaged ones; everyone else drives outside.
    Returns (n_p, best, worst), one entry per run.

    The allocations are equilibria whenever beta >= 1: the ring distance obeys
    d(O,D) <= d_access + d_hub, so joining a full hub at the congested price
    can never beat the outside route. For beta < 1 consult brute_force_ne.
    """
    order = np.argsort(-l, axis=1, kind="stable")
    seated = np.zeros((l.shape[0], l.shape[1] + 1), dtype=out.dtype)
    # seated[:, k]: change of the run's total when the first k ranked agents sit inside
    np.cumsum(np.take_along_axis(inu - out, order, axis=1), axis=1, out=seated[:, 1:])
    n_p = (l > 0).sum(axis=1)
    k = np.minimum(n_p, L)
    runs = np.arange(l.shape[0])
    total_out = out.sum(axis=1)
    best = total_out + seated[runs, k]
    worst = total_out + seated[runs, n_p] - seated[runs, n_p - k]
    return n_p, best, worst


def cost_advantages(
    net: Network, od_pairs: list[ODPair]
) -> tuple[list[CostAdvantage], list[int], list[Fraction]]:
    """Per-agent advantages plus the cost arrays ne_costs consumes.

    Returns (advantages, outside_costs, inside_costs_uncongested), all
    indexed by agent.
    """
    geometry = route_table(
        net, [od.origin for od in od_pairs], [od.destination for od in od_pairs]
    )
    out, inu, _ = scaled_costs(net.config, geometry)
    scale = net.config.scale
    advantages = [
        CostAdvantage(agent=n, l=Fraction(l, scale)) for n, l in enumerate((out - inu).tolist())
    ]
    return advantages, geometry[0].tolist(), [Fraction(c, scale) for c in inu.tolist()]


def potential_count(advantages: list[CostAdvantage]) -> int:
    """Number of agents whose inside route strictly beats their outside route."""
    return sum(1 for adv in advantages if adv.l > 0)


def ne_costs(
    advantages: list[CostAdvantage],
    outside_costs: list[int | Fraction],
    inside_costs_uncongested: list[Fraction],
    L: int,
) -> NEResult:
    """Average cost of the best and worst equilibrium hub allocations.

    Agents are ranked by descending advantage, ties by agent index; see
    ne_totals for the allocations. The inputs are put on one common
    denominator as Python integers, so the result is exact for any rationals.
    """
    n = len(advantages)
    if not (len(outside_costs) == n and len(inside_costs_uncongested) == n):
        raise ValueError(
            "inconsistent lengths: "
            f"{n} advantages, {len(outside_costs)} outside costs, "
            f"{len(inside_costs_uncongested)} inside costs"
        )
    advantage = [Fraction(0)] * n
    for adv in advantages:
        advantage[adv.agent] = Fraction(adv.l)
    costs = [
        advantage,
        [Fraction(c) for c in outside_costs],
        [Fraction(c) for c in inside_costs_uncongested],
    ]
    scale = math.lcm(*(x.denominator for xs in costs for x in xs))
    n_p, best, worst = ne_totals(
        *(np.array([[x.numerator * (scale // x.denominator) for x in xs]], dtype=object) for xs in costs),
        L,
    )
    return NEResult(
        n_p=int(n_p[0]), c_best=Fraction(best[0], n * scale), c_worst=Fraction(worst[0], n * scale)
    )


def brute_force_ne(
    network: Network, od_pairs: list[ODPair], L: int
) -> tuple[Fraction, Fraction]:
    """Extreme equilibrium average costs by exhaustive enumeration.

    Enumerates every subset of potential agents of size min(n_p, L) as the
    hub population, keeps the subsets no agent wants to leave or join
    unilaterally, and returns the (min, max) average cost over them. Only
    feasible for small instances.
    """
    n = len(od_pairs)
    if n > 16:
        raise ValueError(f"instance too large for enumeration: N={n} > 16")
    cfg = network.config
    c_out: list[Fraction] = []
    c_in_unc: list[Fraction] = []
    c_in_con: list[Fraction] = []
    for od in od_pairs:
        route = best_inside_route(od, network)
        c_out.append(Fraction(outside_cost(od, network.N)))
        c_in_unc.append(inside_cost(route, False, cfg.alpha, cfg.beta))
        c_in_con.append(inside_cost(route, True, cfg.alpha, cfg.beta))

    potential = [a for a in range(n) if c_out[a] > c_in_unc[a]]
    k = min(len(potential), L)

    best: Fraction | None = None
    worst: Fraction | None = None
    for subset in itertools.combinations(potential, k):
        inside = set(subset)
        congested_if_joined = (k + 1) > L
        stable = True
        for a in range(n):
            if a in inside:
                if c_out[a] < c_in_unc[a]:  # leaving would pay off
                    stable = False
                    break
            else:
                joined_cost = c_in_con[a] if congested_if_joined else c_in_unc[a]
                if joined_cost < c_out[a]:  # joining would pay off
                    stable = False
                    break
        if not stable:
            continue
        total = sum(c_out[a] for a in range(n) if a not in inside)
        total += sum(c_in_unc[a] for a in inside)
        avg = total / n
        if best is None or avg < best:
            best = avg
        if worst is None or avg > worst:
            worst = avg
    if best is None or worst is None:
        raise ValueError("no equilibrium among capacity-respecting allocations")
    return best, worst
