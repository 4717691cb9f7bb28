"""Experiment harness and command line interface.

Subcommands:
    run    simulate one configuration and print its metrics
    sweep  run a parameter sweep (preset, config file, or ad-hoc flags) and
           write CSV tables or SVG charts
    ne     print the equilibrium baseline for one configuration and seed

A sweep varies one of {lambda, M, N, capacity_ratio} over a value list,
replicates each point R times per requested agent mode, attaches the
per-run equilibrium baselines, and emits one row per (value, mode).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .equilibrium import cost_advantages, ne_costs
from .network import (
    NetworkConfig,
    _as_fraction,
    _require_int,
    assign_destinations,
    build_network,
)
from .sim import (
    METRIC_NAMES,
    MODES,
    Metrics,
    SimConfig,
    config_with,
    replicate,
    run,
    write_csv,
    write_trace_csv,
)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SWEEP_VARIABLES",
    "run_sweep",
    "optimal_lambda",
    "emit_outputs",
    "read_rows",
    "preset_specs",
    "PRESETS",
    "main",
]

SWEEP_VARIABLES = ("lambda", "M", "N", "capacity_ratio")
CSV_HEADER = ["value", "mode", *METRIC_NAMES, "ne_best", "ne_worst"]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration, the variable to vary, and its values.

    modes lists the agent populations to run at every point; it defaults to
    the base configuration's mode. replications is the run count per
    (value, mode) point. With ne_baseline on, each point also reports the
    equilibrium averages of its runs' OD draws.
    """

    base: SimConfig = SimConfig()
    sweep_variable: str = "lambda"
    values: tuple = ()
    replications: int = 1000
    ne_baseline: bool = True
    modes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"sweep_variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.sweep_variable!r}"
            )
        for name in ("values", "modes"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("values must be a non-empty list")
        _require_int(self.replications, "replications", 1)
        modes = tuple(self.modes) or (self.base.mode,)
        for mode in modes:
            if mode not in MODES:
                raise ValueError(f"modes must draw from {MODES}, got {mode!r}")
        object.__setattr__(self, "modes", modes)
        for value in self.values:
            config_at(self, value)  # raises on an invalid point


@dataclass(frozen=True)
class SweepRow(Metrics):
    """Across-run means of the Metrics at one sweep point for one agent mode,
    with the point's equilibrium band when the sweep computes it."""

    value: int | float
    mode: str
    ne_best: float | None
    ne_worst: float | None


def config_at(spec: SweepSpec, value) -> SimConfig:
    """The base configuration with the sweep variable set to value.

    An N sweep rescales the hub capacity to keep the base L/N ratio; a
    capacity_ratio sweep sets L = round(ratio * N).
    """
    base = spec.base
    var = spec.sweep_variable
    try:
        if var == "lambda":
            return config_with(base, hub_links=value)
        if var == "M":
            return config_with(base, M=value)
        if var == "N":
            _require_int(value, "N", 4)
            ratio = Fraction(base.network.L, base.network.N)
            return config_with(
                base,
                N=value,
                L=max(1, round(ratio * value)),
                hub_links=min(base.network.hub_links, value),
            )
        ratio = _as_fraction(value, "capacity_ratio")
        return config_with(base, L=round(ratio * base.network.N))
    except ValueError as exc:
        raise ValueError(f"values: {value!r} is invalid for {var} sweep: {exc}") from exc


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Replicate every (value, mode) point and return one row per point.

    All points share the spec's base seed, so modes at the same value see
    identical OD draws and the whole table is reproducible byte for byte.
    """
    rows: list[SweepRow] = []
    for value in spec.values:
        point = config_at(spec, value)
        for mode in spec.modes:
            result = replicate(replace(point, mode=mode), spec.replications)
            rows.append(
                SweepRow(
                    **vars(result.mean),
                    value=value,
                    mode=mode,
                    ne_best=result.ne_best if spec.ne_baseline else None,
                    ne_worst=result.ne_worst if spec.ne_baseline else None,
                )
            )
    return rows


def optimal_lambda(
    spec: SweepSpec, lambda_values: tuple[int, ...] | None = None
) -> list[tuple[float, int]]:
    """Hub-link count minimizing mean cost, per capacity ratio.

    spec must be a capacity_ratio sweep; each ratio expands into a full
    lambda sweep (2..N unless lambda_values narrows it). Ties go to the
    smaller lambda. Returns (ratio, best lambda) pairs.
    """
    if spec.sweep_variable != "capacity_ratio":
        raise ValueError(
            f"sweep_variable: optimal_lambda needs a capacity_ratio sweep, "
            f"got {spec.sweep_variable!r}"
        )
    if len(spec.modes) != 1:
        raise ValueError(f"modes: optimal_lambda needs one mode, got {spec.modes}")
    grid = tuple(lambda_values) if lambda_values else tuple(range(2, spec.base.network.N + 1))
    table: list[tuple[float, int]] = []
    for ratio in spec.values:
        sub = SweepSpec(
            base=config_at(spec, ratio),
            sweep_variable="lambda",
            values=grid,
            replications=spec.replications,
            ne_baseline=False,
            modes=spec.modes,
        )
        rows = run_sweep(sub)
        best = min(rows, key=lambda row: (row.avg_cost, row.value))
        table.append((float(ratio), int(best.value)))
    return table


# ---------------------------------------------------------------- output --


def emit_outputs(rows: list[SweepRow], format: str, out_dir, basename: str = "results") -> list[Path]:
    """Write sweep rows as a CSV table or as one SVG chart per metric.

    Returns the created paths. Refuses empty input before touching disk.
    """
    if not rows:
        raise ValueError("rows is empty; nothing to emit")
    if format not in ("csv", "svg"):
        raise ValueError(f"format must be 'csv' or 'svg', got {format!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "csv":
        table = ([getattr(row, col) for col in CSV_HEADER] for row in rows)
        return [write_csv(out_dir / f"{basename}.csv", CSV_HEADER, table)]
    paths: list[Path] = []
    for metric in METRIC_NAMES:
        path = out_dir / f"{basename}-{metric}.svg"
        path.write_text(_chart_svg(rows, metric), encoding="utf-8")
        paths.append(path)
    return paths


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_rows(path) -> list[SweepRow]:
    """Parse a CSV file produced by emit_outputs back into SweepRows."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header: {header!r}")
        rows = []
        for raw in reader:
            cells = dict(zip(header, raw))
            rows.append(
                SweepRow(
                    **{name: float(cells[name]) for name in METRIC_NAMES},
                    value=_parse_value(cells["value"]),
                    mode=cells["mode"],
                    ne_best=float(cells["ne_best"]) if cells["ne_best"] else None,
                    ne_worst=float(cells["ne_worst"]) if cells["ne_worst"] else None,
                )
            )
    return rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _chart_svg(rows: list[SweepRow], metric: str) -> str:
    """A small deterministic line chart: one series per mode, NE references
    dashed on the cost chart."""
    modes: list[str] = []
    for row in rows:
        if row.mode not in modes:
            modes.append(row.mode)
    series: list[tuple[str, list[float], list[float], bool]] = []
    for mode in modes:
        pts = [(float(r.value), float(getattr(r, metric))) for r in rows if r.mode == mode]
        xs, ys = zip(*pts)
        series.append((mode, list(xs), list(ys), False))
    if metric == "avg_cost":
        for name in ("ne_best", "ne_worst"):
            pts = [
                (float(r.value), float(getattr(r, name)))
                for r in rows
                if r.mode == modes[0] and getattr(r, name) is not None
            ]
            if pts:
                xs, ys = zip(*pts)
                series.append((name, list(xs), list(ys), True))

    width, height = 640, 400
    mleft, mright, mtop, mbottom = 60, 20, 36, 44
    all_x = [x for _, xs, _, _ in series for x in xs]
    all_y = [y for _, _, ys, _ in series for y in ys]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x0 == x1:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y0 == y1:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    inner_w = width - mleft - mright
    inner_h = height - mtop - mbottom

    def px(x: float) -> float:
        return mleft + (x - x0) / (x1 - x0) * inner_w

    def py(y: float) -> float:
        return mtop + (y1 - y) / (y1 - y0) * inner_h

    def ticks(a: float, b: float, count: int = 5) -> list[float]:
        return [a + (b - a) * i / (count - 1) for i in range(count)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="14">{metric}</text>',
        f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" y2="{height - mbottom}" stroke="black"/>',
        f'<line x1="{mleft}" y1="{height - mbottom}" x2="{width - mright}" '
        f'y2="{height - mbottom}" stroke="black"/>',
    ]
    for tx in ticks(x0, x1):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{height - mbottom}" x2="{px(tx):.1f}" '
            f'y2="{height - mbottom + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.1f}" y="{height - mbottom + 18}" '
            f'text-anchor="middle">{tx:g}</text>'
        )
    for ty in ticks(y0, y1):
        parts.append(
            f'<line x1="{mleft - 4}" y1="{py(ty):.1f}" x2="{mleft}" '
            f'y2="{py(ty):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{mleft - 8}" y="{py(ty) + 4:.1f}" text-anchor="end">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle">sweep value</text>'
    )
    for k, (label, xs, ys, dashed) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        dash = ' stroke-dasharray="6 3"' if dashed else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>'
        )
        ly = mtop + 14 + 16 * k
        lx = width - mright - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------- presets --


# Each preset is a list of (output basename, config document); a document has
# the shape of a JSON config file given to `ringhub sweep --config`.
PRESET_DOCS = {
    "baseline-homogeneous": [
        ("baseline-homogeneous", {
            "values": list(range(2, 101)),
            "modes": ["homogeneous", "random"],
        }),
    ],
    "heterogeneous": [
        ("heterogeneous", {
            "base": {"M": 8, "mode": "heterogeneous"},
            "values": list(range(2, 101)),
            "modes": ["heterogeneous", "random"],
        }),
    ],
    "multi-scale": [
        (f"multi-scale-n{n}", {
            "base": {"network": {"N": n, "L": round(0.8 * n), "hub_links": 2}},
            "values": list(range(2, n + 1)),
        })
        for n in (20, 40, 60, 80)
    ],
    "optimal-lambda": [
        ("optimal-lambda", {
            "sweep_variable": "capacity_ratio",
            "values": [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            "ne_baseline": False,
        }),
    ],
}
PRESETS = tuple(PRESET_DOCS)
_FAST_REPLICATIONS = 50


def preset_specs(name: str, fast: bool = False) -> list[tuple[str, SweepSpec]]:
    """Named experiment presets as (output basename, spec) pairs.

    fast drops replications to 50 for smoke runs.
    """
    if name not in PRESET_DOCS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    overrides = {"replications": _FAST_REPLICATIONS} if fast else {}
    return [(basename, _spec_from_doc(doc, **overrides)) for basename, doc in PRESET_DOCS[name]]


# ------------------------------------------------------------------- cli --


def _json_object(doc, cls, where: str) -> dict:
    """doc as keyword arguments for cls; refuses a non-object or an unknown key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
    return doc


def _spec_from_doc(doc, **overrides) -> SweepSpec:
    """The sweep a config document describes, with overrides applied.

    doc has the shape of a JSON config file: SweepSpec fields, with base and
    base.network as nested objects. An override names a SweepSpec, SimConfig
    or NetworkConfig field and replaces that field of the document. The base
    config is complete before the spec is built, because modes defaults to
    the base mode.
    """
    spec = dict(_json_object(doc, SweepSpec, "config"))
    base = dict(_json_object(spec.pop("base", {}), SimConfig, "config base"))
    net = _json_object(base.pop("network", {}), NetworkConfig, "config base network")
    spec.update(overrides)
    config = {k: spec.pop(k) for k in list(spec) if k not in SweepSpec.__dataclass_fields__}
    return SweepSpec(base=config_with(SimConfig(), **{**net, **base, **config}), **spec)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"config: cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config: {path} is not valid JSON: {exc}") from exc


_FIELDS = {*NetworkConfig.__dataclass_fields__, *SimConfig.__dataclass_fields__,
           *SweepSpec.__dataclass_fields__}


def _given(args) -> dict:
    """The flags given on the command line, keyed by the field each one sets."""
    return {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}


def _value_list(text: str) -> list:
    return [_parse_value(v) for v in text.split(",")]


def _parent_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The network flags with --seed, and the agent flags."""
    d = SimConfig()
    network = argparse.ArgumentParser(add_help=False)
    net = network.add_argument_group("network")
    net.add_argument("--nodes", dest="N", type=int, help=f"ring size (default {d.network.N})")
    net.add_argument("--hub-links", type=int, metavar="LAM",
                     help=f"interchange count (default {d.network.hub_links})")
    net.add_argument("--capacity", dest="L", type=int, help=f"hub capacity (default {d.network.L})")
    net.add_argument("--alpha", help=f"uncongested hub price, exact (default {d.network.alpha})")
    net.add_argument("--beta", help=f"congested hub price, exact (default {d.network.beta})")
    network.add_argument("--seed", type=int, help=f"master seed (default {d.seed})")
    agents = argparse.ArgumentParser(add_help=False)
    group = agents.add_argument_group("agents")
    group.add_argument("--memory", dest="M", type=int, help=f"history bits (default {d.M})")
    group.add_argument("--strategies", dest="S", type=int,
                       help=f"strategies per agent (default {d.S})")
    group.add_argument("--mode", choices=MODES, help=f"agent population (default {d.mode})")
    group.add_argument("--steps", dest="T", type=int, help=f"total steps (default {d.T})")
    group.add_argument("--warmup", type=int,
                       help=f"steps excluded from metrics (default {d.warmup})")
    return network, agents


def _cmd_run(args) -> int:
    cfg = config_with(SimConfig(), **_given(args))
    if args.trace and args.reps != 1:
        print("error: --trace requires --reps 1", file=sys.stderr)
        return 2
    if args.out_dir is not None and not args.trace:
        raise ValueError("out-dir: --out-dir needs --trace")
    if args.reps == 1:
        if args.trace:
            metrics, records = run(cfg, trace=True)
            out = Path(args.out_dir or ".")
            out.mkdir(parents=True, exist_ok=True)
            path = write_trace_csv(records, out / "trace.csv")
            print(f"trace: {path}")
        else:
            metrics = run(cfg)
        for name in METRIC_NAMES:
            print(f"{name}={getattr(metrics, name)}")
        return 0
    result = replicate(cfg, args.reps)
    for name in METRIC_NAMES:
        print(f"{name}={getattr(result.mean, name)} (se {getattr(result.se, name):.4g})")
    print(f"ne_best={result.ne_best}")
    print(f"ne_worst={result.ne_worst}")
    return 0


def _cmd_sweep(args) -> int:
    given = _given(args)
    if args.fast:
        given.setdefault("replications", _FAST_REPLICATIONS)
    if args.mode is not None:
        # a sweep runs its modes, so --mode alone is the one-mode list
        if args.modes is not None:
            raise ValueError("modes: give --mode or --modes, not both")
        given["modes"] = [args.mode]
    if args.preset:
        docs = PRESET_DOCS[args.preset]
    elif args.config:
        docs = [(Path(args.config).stem, _read_json(args.config))]
    elif args.sweep_variable:
        if args.values is None:
            print("error: --values is required with --variable", file=sys.stderr)
            return 2
        docs = [("results", {})]
    else:
        print("error: give --preset, --config, or --variable", file=sys.stderr)
        return 2
    named = [(basename, _spec_from_doc(doc, **given)) for basename, doc in docs]

    paths: list[Path] = []
    for basename, spec in named:
        if args.preset == "optimal-lambda":
            if args.format != "csv":
                raise ValueError("format: the optimal-lambda table is CSV only")
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            header = ["capacity_ratio", "optimal_lambda"]
            paths.append(write_csv(out / f"{basename}.csv", header, optimal_lambda(spec)))
            continue
        rows = run_sweep(spec)
        paths.extend(emit_outputs(rows, args.format, args.out_dir, basename=basename))
    for path in paths:
        print(path)
    return 0


def _cmd_ne(args) -> int:
    cfg = config_with(SimConfig(), **_given(args))
    net = build_network(cfg.network)
    rng = np.random.default_rng(cfg.seed)
    od_pairs = assign_destinations(net, rng)
    advantages, outside, inside = cost_advantages(net, od_pairs)
    result = ne_costs(advantages, outside, inside, cfg.network.L)
    print(f"n_p={result.n_p}")
    print(f"c_best={result.c_best} ({float(result.c_best)})")
    print(f"c_worst={result.c_worst} ({float(result.c_worst)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    network, agents = _parent_parsers()
    parser = argparse.ArgumentParser(
        prog="ringhub",
        description="Minority-game route choice on ring-and-hub networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[network, agents], help="single configuration")
    p_run.add_argument("--reps", type=int, default=1, help="average this many runs")
    p_run.add_argument("--out-dir", help="directory for --trace output (default .)")
    p_run.add_argument("--trace", action="store_true", help="write the full step trace CSV")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[network, agents], help="parameter sweep")
    source = p_sweep.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=PRESETS, help="named experiment preset")
    source.add_argument("--config", help="JSON sweep spec file")
    p_sweep.add_argument("--variable", dest="sweep_variable", choices=SWEEP_VARIABLES,
                         help="sweep variable")
    p_sweep.add_argument("--values", type=_value_list, help="comma-separated sweep values")
    p_sweep.add_argument("--modes", type=lambda text: text.split(","),
                         help="comma-separated agent modes")
    p_sweep.add_argument("--reps", dest="replications", type=int, metavar="REPS",
                         help="replications per point")
    p_sweep.add_argument("--fast", action="store_true",
                         help=f"{_FAST_REPLICATIONS} replications unless --reps (smoke test)")
    p_sweep.add_argument("--out-dir", default=".", help="output directory")
    p_sweep.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ne = sub.add_parser("ne", parents=[network], help="equilibrium baseline")
    p_ne.set_defaults(func=_cmd_ne)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
