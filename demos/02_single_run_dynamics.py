"""One simulation, step by step: hub load, congestion flags, and the trace.

Agents carry a handful of lookup-table strategies keyed on the recent
congestion history and follow whichever has the best track record. This
script runs a single configuration, prints summary metrics against the
equilibrium baseline, sketches the hub load over time, and writes the full
per-step trace as CSV.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import ringhub as rh

OUT = Path(__file__).parent / "output"

cfg = rh.SimConfig(
    network=rh.NetworkConfig(N=100, hub_links=4, L=80),
    M=2, S=8, mode="homogeneous", T=1000, warmup=500, seed=42,
)
metrics, records = rh.run(cfg, trace=True)

print("single run, hub_links=4 (uncongested regime)")
print(f"  avg cost per agent   {metrics.avg_cost:.4f}")
print(f"  congestion ratio     {metrics.congestion_ratio:.4f}")
print(f"  hub users mean/std   {metrics.avg_hub_users:.2f} / {metrics.std_hub_users:.3f}")
print(f"  potential hub users  {metrics.n_p:.0f}")

# The matching equilibrium baseline for the same trip table.
net = rh.build_network(cfg.network)
dests = rh.draw_destinations(net.N, np.random.default_rng(cfg.seed))
ne = rh.ne_costs(cfg.network, *rh.cost_advantages(net, dests))
print(f"  equilibrium band     [{float(ne.c_best):.4f}, {float(ne.c_worst):.4f}]")

# A sideways sparkline of the hub load: early exploration settles into a
# steady split once the scores separate good strategies from bad ones.
print("\nhub load every 25 steps (column height = N_in / 10):")
samples = [rec.n_in for rec in records[::25]]
for level in range(10, 0, -1):
    row = "".join("#" if v >= level * 10 else " " for v in samples)
    print(f"  {level * 10:>3} |{row}")
print("      +" + "-" * len(samples))

path = OUT / "single_run_trace.csv"
OUT.mkdir(exist_ok=True)
rh.write_trace_csv(records, path)
print(f"\nfull trace written to {path}")

# Contrast with a congested configuration: the same population behind a
# sparse hub overshoots capacity again and again.
crowded = rh.sim.config_with(cfg, hub_links=50)
metrics2 = rh.run(crowded)
print(
    f"\nsame run at hub_links=50: avg cost {metrics2.avg_cost:.4f}, "
    f"congestion ratio {metrics2.congestion_ratio:.4f}"
)
