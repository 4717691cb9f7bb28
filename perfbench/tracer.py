"""Spans around the calls between ringhub's modules, for the traced run.

A Tracer replaces each traced function at the module attribute through
which its callers reach it (another ringhub module, or the benchmark
itself), records one span per call in memory, and puts every original
back when it is closed. The untraced run never creates a Tracer, so it
runs the program with no wrapper at all. The wrappers only read the clock
and, around route_table, tracemalloc; they draw no random numbers.

Spans are dicts: id, name, start, end, parent (the id of the enclosing
traced call, or None), workload and run (the pass they belong to).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc

# Traced function -> the (module, attribute) sites its callers look it up at.
# A site that stops existing raises on entering a Tracer, so a refactor of the
# import graph cannot silently drop a layer from the trace.
SITES = {
    "network.build_network": [("ringhub.sim", "build_network"), ("ringhub.cli", "build_network")],
    "network.route_table": [("ringhub._engine", "route_table")],
    "network.assign_destinations": [("ringhub.cli", "assign_destinations")],
    "_engine.simulate_batch": [("ringhub._engine", "simulate_batch")],
    "equilibrium.cost_advantages": [("ringhub.cli", "cost_advantages")],
    "equilibrium.ne_costs": [("ringhub.cli", "ne_costs")],
    "sim.replicate": [("ringhub", "replicate"), ("ringhub.cli", "replicate")],
    "sim.run": [("ringhub.cli", "run")],
    "sim.write_trace_csv": [("ringhub.cli", "write_trace_csv")],
    "cli.main": [("ringhub.cli", "main")],
    "cli.run_sweep": [("ringhub.cli", "run_sweep")],
    "cli.emit_outputs": [("ringhub.cli", "emit_outputs")],
}

# Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "network.route_table_s": "s",
    "network.route_table_calls": "count",
    "network.route_table_peak_mb": "MiB",
    "network.build_network_s": "s",
    "network.assign_destinations_s": "s",
    "engine.simulate_batch_s": "s",
    "engine.self_s": "s",
    "engine.agent_steps": "count",
    "engine.setup_s": "s",
    "engine.step_us": "us",
    "equilibrium.cost_advantages_s": "s",
    "equilibrium.ne_costs_s": "s",
    "sim.replicate_self_s": "s",
    "sim.run_s": "s",
    "sim.write_trace_csv_s": "s",
    "cli.run_sweep_self_s": "s",
    "cli.emit_outputs_s": "s",
    "cli.points": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs span-recording wrappers at SITES; use as a context manager."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run = 0  # pass index stamped on new spans
        self.spans: list[dict] = []
        # (span id, bound arguments) of every simulate_batch call
        self.batch_calls: list[tuple[int, dict]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, sites in SITES.items():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Put every original function back, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, original):
        signature = inspect.signature(original)
        tracks_memory = name == "network.route_table"
        records_batch = name == "_engine.simulate_batch"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "run": self.run,
            }
            self.spans.append(span)
            if records_batch:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                span["agent_steps"] = len(a["seeds"]) * a["net"].N * a["T"]
                self.batch_calls.append((span["id"], dict(a)))
            self._stack.append(span["id"])
            if tracks_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if tracks_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return wrapper


def site_functions() -> dict[tuple[str, str], object]:
    """What each site in SITES holds now; equal before and after a Tracer."""
    return {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for sites in SITES.values()
        for module_name, attr in sites
    }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = 0.0
        lo = hi = None
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, span["start"]), min(end, span["end"])
            if end <= start:
                continue
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over the spans of one pass (one run id)."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def of(name):
        return [span for span in spans if span["name"] == name]

    def total(name):
        return sum(span["end"] - span["start"] for span in of(name))

    def self_total(name):
        return sum(own[span["id"]] for span in of(name))

    tables = of("network.route_table")
    return {
        "network.route_table_s": total("network.route_table"),
        "network.route_table_calls": len(tables),
        "network.route_table_peak_mb": max((s["peak_bytes"] for s in tables), default=0) / 2**20,
        "network.build_network_s": total("network.build_network"),
        "network.assign_destinations_s": total("network.assign_destinations"),
        "engine.simulate_batch_s": total("_engine.simulate_batch"),
        "engine.self_s": self_total("_engine.simulate_batch"),
        "engine.agent_steps": sum(s["agent_steps"] for s in of("_engine.simulate_batch")),
        "equilibrium.cost_advantages_s": total("equilibrium.cost_advantages"),
        "equilibrium.ne_costs_s": total("equilibrium.ne_costs"),
        "sim.replicate_self_s": self_total("sim.replicate"),
        "sim.run_s": total("sim.run"),
        "sim.write_trace_csv_s": total("sim.write_trace_csv"),
        "cli.run_sweep_self_s": self_total("cli.run_sweep"),
        "cli.emit_outputs_s": total("cli.emit_outputs"),
        "cli.points": sum(
            1
            for span in of("sim.replicate")
            if span["parent"] is not None and by_id[span["parent"]]["name"] == "cli.run_sweep"
        ),
    }


def median_pass_metrics(spans: list[dict], runs: int) -> dict[str, float]:
    """The median over passes 0 .. runs-1 of each pass_metrics value."""
    per_run = [pass_metrics([s for s in spans if s["run"] == run]) for run in range(runs)]
    return {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
