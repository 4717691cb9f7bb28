"""Nash-equilibrium baseline for the route-choice game.

An agent is a potential hub user when its uncongested inside route strictly
beats its outside route (advantage l > 0). In equilibrium the hub carries at
most its capacity L, is therefore never congested, and only potential users
enter. The closed form below evaluates the two extreme equilibria (the
cheapest and the dearest allocation of hub slots).

All arithmetic is exact. Costs are priced once, as int64 integers scaled by
the lcm of the alpha and beta denominators (scaled_costs), and the closed
form (ne_totals) works on those integers for the batched engine and for
ringhub ne alike; NetworkConfig's check_cost_sums(1) keeps N agents' sums
inside int64. Fractions appear only in NEResult. The brute-force enumerator
the closed form is checked against lives with the tests, in
tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import Network, NetworkConfig, route_table

__all__ = [
    "NEResult",
    "scaled_costs",
    "ne_totals",
    "cost_advantages",
    "ne_costs",
]


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

    l, out and inu are (runs, agents) int64 arrays of advantages, outside
    costs and uncongested inside costs on one integer scale. L is the hub
    capacity, one for all runs or one per run.
    Agents are ranked by descending advantage, ties by index. The best
    allocation seats the min(n_p, L) most-advantaged potential users (l > 0),
    the worst the least-advantaged ones; everyone else drives outside.
    Returns (n_p, best, worst), one entry per run.

    The allocations are equilibria whenever beta >= 1: the ring distance obeys
    d(O,D) <= d_access + d_hub, so joining a full hub at the congested price
    can never beat the outside route. For beta < 1 the tests' brute-force
    enumerator (tests/reference.py) is the judge.
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


def cost_advantages(net: Network, dests) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-agent (l, out, inu) on net.config.scale, the arrays ne_costs takes.

    dests is a trip table as draw_destinations returns it: agent n travels
    from node n to node dests[n], which must differ from n. Returns three
    (N,) int64 arrays indexed by agent: the advantage out - inu, the outside
    cost and the uncongested inside cost, each times the scale.
    """
    origins, dests = np.arange(net.N), np.asarray(dests)
    if dests.shape != origins.shape:
        raise ValueError(f"dests must have shape ({net.N},), got {dests.shape}")
    geometry = route_table(net, origins, dests)  # refuses dests that are not nodes
    if np.any(dests == origins):
        raise ValueError("dests: every agent's destination must differ from its own node")
    out, inu, _ = scaled_costs(net.config, geometry)
    return out - inu, out, inu


def ne_costs(cfg: NetworkConfig, l, out, inu) -> NEResult:
    """Average cost of the best and worst equilibrium hub allocations.

    l, out and inu are cost_advantages' (N,) int64 arrays on cfg.scale; see
    ne_totals for the allocations.
    """
    runs = []
    for field, costs in (("l", l), ("out", out), ("inu", inu)):
        costs = np.asarray(costs)
        if costs.shape != (cfg.N,) or costs.dtype != np.int64:
            raise ValueError(
                f"{field} must be an int64 array of N={cfg.N} scaled costs, "
                f"got {costs.dtype} of shape {costs.shape}"
            )
        runs.append(costs[None])
    n_p, best, worst = ne_totals(*runs, cfg.L)
    denominator = cfg.N * cfg.scale
    return NEResult(
        int(n_p[0]), Fraction(int(best[0]), denominator), Fraction(int(worst[0]), denominator)
    )
