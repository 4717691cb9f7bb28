"""Game loop driver: single runs, replication batches, metrics, traces.

A run is fully determined by its SimConfig: the seed fixes the trip
table, the strategy tables, the initial history, and every per-step
draw, in the order documented in ringhub._engine; that order is part of the
determinism contract. Replications use seeds seed+0 .. seed+R-1:
replicate_points returns each config's per-run arrays, and summarize
reduces them to each metric's mean and standard error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import _engine
from .network import INT64_MAX, NetworkConfig, _require_int, build_network

__all__ = [
    "MODES",
    "SimConfig",
    "StepRecord",
    "Metrics",
    "METRIC_NAMES",
    "ReplicateResult",
    "run",
    "replicate",
    "replicate_points",
    "summarize",
    "write_trace_csv",
    "config_with",
]


MODES = ("homogeneous", "heterogeneous", "random")


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    network: NetworkConfig = NetworkConfig()
    M: int = 2
    S: int = 8
    mode: str = "homogeneous"
    T: int = 1000
    warmup: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.network, NetworkConfig):
            raise ValueError(f"network must be a NetworkConfig, got {self.network!r}")
        object.__setattr__(self, "M", _require_int(self.M, "M", 1, 12))
        object.__setattr__(self, "S", _require_int(self.S, "S", 1))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "T", _require_int(self.T, "T", 1))
        object.__setattr__(self, "warmup", _require_int(self.warmup, "warmup", 0, self.T - 1))
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0, INT64_MAX))
        self.network.check_cost_sums(self.T)


@dataclass(frozen=True)
class StepRecord:
    """One step of a trace: hub usage, hub state, and total realized cost."""

    t: int
    n_in: int
    h: int
    total_cost: Fraction


@dataclass(frozen=True)
class Metrics:
    """The five per-run summary measures over the measurement window."""

    avg_cost: float
    congestion_ratio: float
    avg_hub_users: float
    std_hub_users: float
    n_p: int | float


METRIC_NAMES = tuple(f.name for f in fields(Metrics))


@dataclass(frozen=True)
class ReplicateResult:
    """Across-run mean and standard error of each metric, plus NE baselines.

    ne_best and ne_worst are the equilibrium averages of each run's own trip
    table, averaged across runs.
    """

    mean: Metrics
    se: Metrics
    ne_best: float
    ne_worst: float
    replications: int


def _require_config(cfg, field: str) -> None:
    """Refuses anything but a SimConfig."""
    if not isinstance(cfg, SimConfig):
        raise ValueError(f"{field} must be a SimConfig, got {cfg!r}")


def _batch(cfg: SimConfig, seeds, collect_trace=False):
    net = build_network(cfg.network)
    return _engine.simulate_batch(
        net, cfg.M, cfg.S, cfg.mode, cfg.T, cfg.warmup, seeds, collect_trace=collect_trace
    )


def run(cfg: SimConfig, trace: bool = False):
    """Execute one run.

    Returns Metrics, or (Metrics, list of StepRecord) when trace is true.
    Metrics cover steps warmup+1 .. T only; the trace has all T steps.
    """
    _require_config(cfg, "cfg")
    batch = _batch(cfg, [cfg.seed], collect_trace=trace)
    metrics = Metrics(**{name: getattr(batch, name)[0].item() for name in METRIC_NAMES})
    if not trace:
        return metrics
    L, scale = cfg.network.L, cfg.network.scale
    records = [
        StepRecord(t=t + 1, n_in=n_in, h=int(n_in > L), total_cost=Fraction(cost, scale))
        for t, (n_in, cost) in enumerate(
            zip(batch.trace_n_in[0].tolist(), batch.trace_cost[0].tolist())
        )
    ]
    return metrics, records


def _seeds(cfg: SimConfig, R: int) -> np.ndarray:
    """The seeds of R replications of cfg: seed, seed+1, .., seed+R-1."""
    _require_int(R, "R", 1)
    if cfg.seed + R - 1 > INT64_MAX:
        raise ValueError(f"R: the last seed, seed+R-1 = {cfg.seed + R - 1}, exceeds int64")
    return cfg.seed + np.arange(R, dtype=np.int64)


def summarize(runs: _engine.BatchResult) -> ReplicateResult:
    """Mean and standard error of each metric over the runs of one config,
    as replicate_points returns them."""
    R = len(runs.n_p)
    arrays = [np.asarray(getattr(runs, name), dtype=np.float64) for name in METRIC_NAMES]
    return ReplicateResult(
        mean=Metrics(*(float(a.mean()) for a in arrays)),
        se=Metrics(*(float(a.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0 for a in arrays)),
        ne_best=float(runs.ne_best.mean()),
        ne_worst=float(runs.ne_worst.mean()),
        replications=R,
    )


def replicate(cfg: SimConfig, R: int) -> ReplicateResult:
    """Mean and standard error of each metric over R independent runs.

    Run i uses seed cfg.seed + i. Runs execute as one vectorized batch;
    results are identical to executing them one at a time and are
    independent of batch order.
    """
    _require_config(cfg, "cfg")
    return summarize(_batch(cfg, _seeds(cfg, R)))


def replicate_points(cfgs: list[SimConfig], R: int) -> list[_engine.BatchResult]:
    """The R runs of each of cfgs, in input order: per-run arrays, run i at
    seed cfg.seed + i; summarize(runs) is replicate(cfg, R).

    Configs that differ only in network.hub_links, network.L and mode form
    one stack, so they share the R seeds' trip tables, which the engine
    prices once for every mode; each (mode, seed) keeps a generator of its
    own. All the stacks run in one engine call, in order of first
    appearance, and each config's runs equal replicate's exactly.
    """
    if not isinstance(cfgs, (list, tuple)):
        raise ValueError(f"cfgs must be a list of SimConfig, got {cfgs!r}")
    _require_int(R, "R", 1)
    groups: dict[SimConfig, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        _require_config(cfg, f"cfgs[{i}]")
        groups.setdefault(config_with(cfg, hub_links=2, L=1, mode=MODES[0]), []).append(i)
    stacks = [
        (
            [build_network(cfgs[i].network) for i in members],
            key.M, key.S, [cfgs[i].mode for i in members], key.T, key.warmup, _seeds(key, R),
        )
        for key, members in groups.items()
    ]
    results = [None] * len(cfgs)
    for stack, members in zip(_engine.simulate_stacks(stacks), groups.values()):
        for i, runs in zip(members, stack):
            results[i] = runs
    return results


def write_csv(path, header, rows) -> Path:
    """Write a header and rows as UTF-8 CSV with LF line endings.

    The csv module writes floats as their repr and None as an empty cell, so
    a table reads back exactly and rewrites byte for byte.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_trace_csv(records: list[StepRecord], path) -> Path:
    """Write a trace as CSV rows (t, n_in, h, total_cost), LF line endings,
    refusing records that are not StepRecords before touching disk."""
    records = list(records)
    if not all(isinstance(rec, StepRecord) for rec in records):
        raise ValueError("records must be StepRecords")
    return write_csv(
        path,
        ["t", "n_in", "h", "total_cost"],
        ([rec.t, rec.n_in, rec.h, float(rec.total_cost)] for rec in records),
    )


def config_with(cfg: SimConfig, **changes) -> SimConfig:
    """replace() that also reaches one level into the network config, the given one if any."""
    net_names = NetworkConfig.__dataclass_fields__
    unknown = sorted(set(changes) - set(net_names) - set(SimConfig.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(unknown)}")
    net_fields = {k: v for k, v in changes.items() if k in net_names}
    sim_fields = {k: v for k, v in changes.items() if k not in net_fields}
    if net_fields:
        net = sim_fields.get("network", cfg.network)
        if not isinstance(net, NetworkConfig):
            raise ValueError(f"network must be a NetworkConfig, got {net!r}")
        sim_fields["network"] = replace(net, **net_fields)
    return replace(cfg, **sim_fields)
