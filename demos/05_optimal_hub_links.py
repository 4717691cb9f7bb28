"""How many interchanges should a hub have?

More interchanges shorten access walks but recruit more users than the hub
can seat; the system cost is minimized at a modest interchange count. The
planner's answer depends on capacity: a generous hub can afford to recruit,
so its optimum sits at a dozen or so links, while a tight hub is overrun by
any crowd it attracts and does best staying nearly closed. This script
sweeps the interchange count at two capacity ratios on a coarse grid and
reports the cost-minimizing count for each.

Runtime is a couple of minutes; REPS and the grid are deliberately small.
"""

from __future__ import annotations

from pathlib import Path

import ringhub as rh
from ringhub import cli

OUT = Path(__file__).parent / "output"
REPS = 25
GRID = tuple(range(2, 31, 2)) + tuple(range(35, 101, 5))

spec = cli.SweepSpec(
    base=rh.SimConfig(seed=0),
    sweep_variable="capacity_ratio",
    values=(0.3, 0.9),
    replications=REPS,
    ne_baseline=False,
)

for ratio in spec.values:
    base = cli.config_at(spec, ratio)
    sub = cli.SweepSpec(
        base=base,
        sweep_variable="lambda",
        values=GRID,
        replications=REPS,
        ne_baseline=False,
    )
    rows = cli.run_sweep(sub)
    cli.emit_outputs(rows, OUT, basename=f"cost_vs_links_L{base.network.L}")
    best = min(rows, key=lambda r: (r.avg_cost, r.value))
    print(f"capacity L={base.network.L} (ratio {ratio}):")
    for row in rows[:8]:
        marker = "  <- minimum" if row.value == best.value else ""
        print(f"  hub_links={row.value:>3}  avg_cost={row.avg_cost:.3f}{marker}")
    print(f"  ... best of the full grid: hub_links={best.value} "
          f"at avg_cost={best.avg_cost:.3f}\n")

table = cli.optimal_lambda(spec, lambda_values=GRID)
print("summary (ratio -> cost-minimizing hub_links):")
for ratio, lam in table:
    print(f"  {ratio} -> {lam}")
print("\ngenerous hubs favor more interchanges than tight ones.")
