"""Tests of the benchmark's own code: span arithmetic, the tracer, checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import harness  # noqa: E402
import ringhub  # noqa: E402
import tracer  # noqa: E402

TINY = ringhub.SimConfig(network=ringhub.NetworkConfig(N=12, hub_links=3, L=8), T=20, warmup=10, seed=3)


def span(id, name, start, end, parent=None, run=0, **extra):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "workload": "w", "run": run, **extra}


class TestSelfTimes:
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            span(0, "a", 0.0, 10.0),
            span(1, "b", 1.0, 3.0, parent=0),
            span(2, "b", 2.0, 5.0, parent=0),  # overlaps span 1 on [2, 3]
            span(3, "c", 6.0, 7.0, parent=0),
            span(4, "d", 6.2, 6.7, parent=3),  # a grandchild: not subtracted from 0
        ]
        own = tracer.self_times(spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert own[3] == pytest.approx(0.5)
        assert own[1] == pytest.approx(2.0)
        assert own[4] == pytest.approx(0.5)

    def test_child_time_outside_the_parent_is_ignored(self):
        own = tracer.self_times([span(0, "a", 0.0, 2.0), span(1, "b", 1.5, 4.0, parent=0)])
        assert own[0] == pytest.approx(1.5)

    def test_pass_metrics_take_engine_self_time_net_of_route_table(self):
        spans = [
            span(0, "cli.run_sweep", 0.0, 10.0),
            span(1, "sim.replicate", 1.0, 9.0, parent=0),
            span(2, "_engine.simulate_batch", 2.0, 8.0, parent=1, agent_steps=500),
            span(3, "network.route_table", 2.5, 4.0, parent=2, peak_bytes=3 * 2**20),
        ]
        m = tracer.pass_metrics(spans)
        assert m["engine.simulate_batch_s"] == pytest.approx(6.0)
        assert m["engine.self_s"] == pytest.approx(4.5)
        assert m["sim.replicate_self_s"] == pytest.approx(2.0)
        assert m["cli.run_sweep_self_s"] == pytest.approx(2.0)
        assert m["network.route_table_peak_mb"] == pytest.approx(3.0)
        assert (m["cli.points"], m["engine.agent_steps"]) == (1, 500)
        assert set(m) | {"engine.setup_s", "engine.step_us", "trace.overhead_s"} == set(tracer.LAYER_UNITS)


class TestTracer:
    def test_wrappers_are_restored(self):
        before = tracer.site_functions()
        with tracer.Tracer("w") as trace:
            assert all(tracer.site_functions()[k] is not v for k, v in before.items())
            ringhub.replicate(TINY, 2)
        assert tracer.site_functions() == before
        names = [s["name"] for s in trace.spans]
        assert names == ["sim.replicate", "network.build_network", "_engine.simulate_batch",
                         "network.route_table"]
        assert [s["parent"] for s in trace.spans] == [None, 0, 0, 2]
        assert trace.spans[2]["agent_steps"] == 2 * 12 * 20

    def test_wrappers_are_restored_when_the_program_raises(self):
        before = tracer.site_functions()
        with pytest.raises(ValueError):
            with tracer.Tracer("w"):
                ringhub.replicate(TINY, 0)
        assert tracer.site_functions() == before

    def test_traced_output_is_bit_identical(self):
        plain = harness.format_result(ringhub.replicate(TINY, 3))
        with tracer.Tracer("w"):
            traced = harness.format_result(ringhub.replicate(TINY, 3))
        assert traced == plain


# replicate(SimConfig(network=NetworkConfig(alpha=0.3), T=200, warmup=100), 4)
# as formatted by harness.format_result: alpha=0.3 becomes Fraction(0.3),
# whose 2**54 denominator makes the engine's int64 cost sums wrap.
ALPHA_03_OVERFLOW = """\
avg_cost=-0.00970000000000019
congestion_ratio=0.0
avg_hub_users=55.5
std_hub_users=0.0
n_p=55.25
ne_best=-3.60375
ne_worst=-3.60375
"""


class TestChecks:
    def test_negative_avg_cost_is_flagged(self):
        problems = harness.check_text(ALPHA_03_OVERFLOW.encode())
        assert any(p.startswith("avg_cost=") for p in problems)
        assert any(p.startswith("ne_best=") for p in problems)

    def test_correct_output_passes(self):
        assert harness.check_text(harness.format_result(ringhub.replicate(TINY, 3)).encode()) == []

    def test_parses_exact_ne_output(self):
        m = harness.parse_metrics("n_p=7\nc_best=271/2 (135.5)\nc_worst=140 (140.0)\n")
        assert m == {"n_p": 7.0, "c_best": 135.5, "c_worst": 140.0}
        assert harness.violations({"c_best": 2.0, "c_worst": 1.0}) == ["c_best=2.0 exceeds c_worst=1.0"]
        assert harness.violations({"congestion_ratio": 1.5})

    def test_ledger_counts_failures_and_keeps_going(self):
        ops = {
            "ok": harness.Op("ok", lambda: b"avg_cost=1.0\n", harness.check_text, 1),
            "raises": harness.Op("raises", lambda: 1 / 0, harness.check_text, 1),
        }
        ledger = harness.Ledger(recorded={"ok": "not-the-digest", "raises": ""})
        harness.run_pass(list(ops.values()), ledger)
        assert (ledger.attempted, ledger.failed) == (2, 2)
        ledger = harness.Ledger(recorded=None)
        harness.run_pass([ops["ok"]], ledger)
        harness.run_pass([harness.Op("ok", lambda: b"avg_cost=2.0\n", harness.check_text, 1)], ledger)
        assert (ledger.attempted, ledger.failed) == (2, 1)  # differs from the first pass


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-ne", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
