"""Smoke tests for the demos that call the package's API directly: the
trip table, the route geometry and the equilibrium (draw_destinations,
route_table, scaled_costs, cost_advantages, ne_costs) in 01 and 02, and the
sweep harness with its CSV output (run_sweep, emit_outputs, optimal_lambda)
in 03 to 05. The tables of demos 03 and 04 are deleted before each runs, so
only a fresh one passes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringhub import read_rows

ROOT = Path(__file__).resolve().parent.parent
# sweep demo -> the table it writes to demos/output
SWEEP_TABLES = {
    "03_phase_transition_sweep.py": "phase_transition.csv",
    "04_agent_populations.py": "agent_populations.csv",
}


@pytest.mark.parametrize(
    "script",
    [
        "01_topology_and_routes.py",
        "02_single_run_dynamics.py",
        *SWEEP_TABLES,
        "05_optimal_hub_links.py",
    ],
)
def test_demo_runs(script):
    table = ROOT / "demos" / "output" / SWEEP_TABLES[script] if script in SWEEP_TABLES else None
    if table:
        table.unlink(missing_ok=True)  # a table left by an earlier run must not pass
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if table:
        assert f"wrote {table}" in proc.stdout.splitlines()
        assert read_rows(table)
