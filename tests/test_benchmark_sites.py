"""The benchmark's tracer reaches ringhub through named module attributes.

perfbench/tracer.py wraps each function at the (module, attribute) sites its
callers look it up at, and its harness calls simulate_batch positionally. A
refactor that drops a site or reorders those parameters breaks the benchmark,
so the suite checks both. The tracer is loaded by file path under a private
name: tests/ and perfbench/ each hold a top-level module named `reference`,
so putting perfbench/ on sys.path could shadow the test oracle.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from ringhub import _engine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("_ringhub_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_to_a_callable():
    sites = load_tracer().SITES
    assert sites
    for name, places in sites.items():
        for module_name, attr in places:
            target = getattr(importlib.import_module(module_name), attr, None)
            assert callable(target), f"{name}: {module_name}.{attr} is gone"


def test_simulate_batch_keeps_its_positional_parameters():
    params = list(inspect.signature(_engine.simulate_batch).parameters.values())[:7]
    assert [p.name for p in params] == ["net", "M", "S", "mode", "T", "warmup", "seeds"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
