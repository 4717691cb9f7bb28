"""Sweep the interchange count and watch the system leave equilibrium.

With few interchanges the hub has a small clientele and adaptive agents
settle onto the equilibrium allocation: costs sit inside the analytic band
and the hub almost never overflows. Adding interchanges recruits more
potential users than the hub can seat, and past a threshold the population
overshoots capacity persistently. This script runs the sweep at a reduced
replication count and writes the CSV table.

Runtime is a couple of minutes; raise REPS for smoother curves.
"""

from __future__ import annotations

from pathlib import Path

import ringhub as rh
from ringhub import cli

OUT = Path(__file__).parent / "output"
REPS = 25

spec = cli.SweepSpec(
    base=rh.SimConfig(seed=0),
    sweep_variable="lambda",
    values=tuple(range(2, 61, 2)),
    replications=REPS,
    modes=("homogeneous", "random"),
)
rows = cli.run_sweep(spec)
path = cli.emit_outputs(rows, OUT, basename="phase_transition")

print(f"{'lambda':>6} {'avg_cost':>9} {'r':>6} {'hub users':>9} {'NE band':>17}")
for row in rows:
    if row.mode != "homogeneous":
        continue
    band = f"[{row.ne_best:6.2f},{row.ne_worst:6.2f}]"
    print(
        f"{row.value:>6} {row.avg_cost:>9.3f} {row.congestion_ratio:>6.3f} "
        f"{row.avg_hub_users:>9.2f} {band:>17}"
    )

transition = next(
    (r.value for r in rows if r.mode == "homogeneous" and r.congestion_ratio > 0.5),
    None,
)
print(f"\ncongestion ratio first exceeds 0.5 at hub_links={transition}")
print(f"wrote {path}")
