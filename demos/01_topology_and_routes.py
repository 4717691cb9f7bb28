"""Tour of the network model: rings, interchanges, and the two route types.

Every traveler starts at a ring node and heads to a random other node.
The outside option walks the ring; the inside option walks to a hub
interchange, crosses the hub at a discounted (or, when crowded, inflated)
per-edge price, and walks out to the destination. This script builds a few
networks, shows where the interchanges land, and prices both options for
sample trips.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import ringhub as rh
from ringhub.equilibrium import scaled_costs

# Interchanges are spread as evenly as the ring allows. When the count
# divides the ring size the spacing is exact.
for n, lam in [(12, 4), (100, 4), (100, 3), (10, 3)]:
    net = rh.build_network(rh.NetworkConfig(N=n, hub_links=lam, L=max(1, n // 2)))
    print(f"N={n:>3} hub_links={lam}: interchanges at {list(net.interchanges)}")

print()

# Price a handful of trips on the default network. The inside route is
# attractive when the hub shortcut saves more ring walking than the access
# legs cost. Costs come out as exact integers on the network's price scale.
net = rh.build_network(rh.NetworkConfig(N=100, hub_links=4, L=80))
scale = net.config.scale
trips = [(0, 50), (3, 52), (10, 12), (40, 90)]
origins, dests = zip(*trips)
d_out, d_access, d_hub = rh.route_table(net, origins, dests)
_, quiet, crowded = scaled_costs(net.config, (d_out, d_access, d_hub))
for k, (origin, destination) in enumerate(trips):
    print(
        f"trip {origin:>2} -> {destination:<2} outside={d_out[k]:>2} "
        f"inside legs (access={d_access[k]}, hub={d_hub[k]}): "
        f"quiet={quiet[k] / scale:.1f} crowded={crowded[k] / scale:.1f}"
    )

print()

# How many travelers would even consider the hub? Draw a random trip table
# and count the agents whose uncongested inside route beats the ring.
# Agent n travels from node n to node dests[n].
dests = rh.draw_destinations(net.N, np.random.default_rng(7))
advantages, _, _ = rh.cost_advantages(net, dests)
print(f"potential hub users for this trip table: {(advantages > 0).sum()} of {net.N}")

# The same count as the hub thins out: fewer interchanges mean longer
# access walks, so fewer trips benefit.
for lam in (2, 4, 10, 25, 50):
    thin = rh.build_network(rh.NetworkConfig(N=100, hub_links=lam, L=80))
    adv, _, _ = rh.cost_advantages(thin, dests)
    print(f"hub_links={lam:>2}: potential users={(adv > 0).sum():>3}")

# Mean advantage of the best inside route, exact arithmetic throughout.
mean_l = Fraction(int(advantages.sum()), net.N * scale)
print(f"\nmean cost advantage of the hub at hub_links=4: {mean_l} = {float(mean_l):.3f}")
