"""Experiment harness and command line interface.

Subcommands:
    run    simulate one configuration and print its metrics
    sweep  run a parameter sweep (preset, config file, or ad-hoc flags) and
           write its CSV table
    ne     print the equilibrium baseline for one configuration and seed

A sweep varies one of {lambda, M, N, capacity_ratio} over a value list,
replicates each point R times per requested agent mode, attaches the
per-run equilibrium baselines, and emits one row per (value, mode).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .equilibrium import cost_advantages, ne_costs
from .network import (
    INT64_MAX,
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
    _require_config,
    config_with,
    replicate,
    replicate_points,
    run,
    summarize,
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
    (value, mode) point. Each point also reports the equilibrium averages of
    its runs' trip tables.
    """

    base: SimConfig = SimConfig()
    sweep_variable: str = "lambda"
    values: tuple = ()
    replications: int = 1000
    modes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_config(self.base, "base")
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
        if len(set(modes)) < len(modes):
            raise ValueError(f"modes must be distinct, got {list(modes)}")
        object.__setattr__(self, "modes", modes)
        for value in self.values:
            config_at(self, value)  # raises on an invalid point


@dataclass(frozen=True)
class SweepRow(Metrics):
    """Across-run means of the Metrics at one sweep point for one agent mode,
    with the point's equilibrium band."""

    value: int | float
    mode: str
    ne_best: float
    ne_worst: float


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
    identical trip tables and the whole table is reproducible byte for byte.
    The points run through one replicate_points call, one engine call,
    which stacks those that differ only in hub_links, L and mode (every
    point of a lambda or capacity_ratio sweep, whatever its modes), prices
    each trip table once for every mode, and keeps one generator for each
    (mode, seed); each row is summarize of that point's runs, what
    replicate gives for that point alone.
    """
    points = [(value, mode) for value in spec.values for mode in spec.modes]
    runs = replicate_points(
        [replace(config_at(spec, value), mode=mode) for value, mode in points],
        spec.replications,
    )
    return [
        SweepRow(
            **vars(result.mean),
            value=value,
            mode=mode,
            ne_best=result.ne_best,
            ne_worst=result.ne_worst,
        )
        for (value, mode), result in zip(points, map(summarize, runs))
    ]


def optimal_lambda(
    spec: SweepSpec, lambda_values: tuple[int, ...] | None = None
) -> list[tuple[float, int]]:
    """Hub-link count minimizing mean cost, per capacity ratio.

    spec must be a capacity_ratio sweep; each ratio expands into a full
    lambda sweep (2..N, or the non-empty lambda_values). Ties go to the
    smaller lambda. Returns (ratio, best lambda) pairs.
    """
    if spec.sweep_variable != "capacity_ratio":
        raise ValueError(
            f"sweep_variable: optimal_lambda needs a capacity_ratio sweep, "
            f"got {spec.sweep_variable!r}"
        )
    if len(spec.modes) != 1:
        raise ValueError(f"modes: optimal_lambda needs one mode, got {spec.modes}")
    n = spec.base.network.N
    grid = tuple(range(2, n + 1)) if lambda_values is None else lambda_values
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ValueError(f"lambda_values must be a non-empty list or None, got {grid!r}")
    for lam in grid:
        _require_int(lam, "lambda_values", 2, n)
    table: list[tuple[float, int]] = []
    for ratio in spec.values:
        rows = run_sweep(
            replace(spec, base=config_at(spec, ratio), sweep_variable="lambda", values=grid)
        )
        best = min(rows, key=lambda row: (row.avg_cost, row.value))
        table.append((float(ratio), int(best.value)))
    return table


# ---------------------------------------------------------------- output --


def emit_outputs(rows: list[SweepRow], out_dir, basename: str = "results") -> Path:
    """Write sweep rows as the CSV table out_dir/basename.csv; returns its path.

    Refuses empty input, and a basename that is not a file name, before
    touching disk.
    """
    if not rows:
        raise ValueError("rows is empty; nothing to emit")
    if basename in ("", ".", "..") or {os.sep, os.altsep} & set(basename):
        raise ValueError(f"basename must be a file name, got {basename!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = ([getattr(row, col) for col in CSV_HEADER] for row in rows)
    return write_csv(out_dir / f"{basename}.csv", CSV_HEADER, table)


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _cell(column: str, text: str, line: int):
    """One CSV cell as its SweepRow field."""
    if column == "mode":
        return text
    try:
        return _parse_value(text) if column == "value" else float(text)
    except ValueError:
        raise ValueError(f"line {line}, column {column}: {text!r} is not a number") from None


def read_rows(path) -> list[SweepRow]:
    """Parse a CSV file produced by emit_outputs back into SweepRows.

    A malformed file is refused with a ValueError naming the line, and the
    column where there is one, and a path that cannot be read with one
    naming the path.
    """
    try:
        fh = Path(path).open(newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != CSV_HEADER:
            raise ValueError(f"line 1: unexpected header {header!r}")
        rows = []
        for raw in reader:
            line = reader.line_num
            if len(raw) != len(CSV_HEADER):
                raise ValueError(f"line {line}: {len(raw)} cells, expected {len(CSV_HEADER)}")
            rows.append(SweepRow(**{c: _cell(c, t, line) for c, t in zip(CSV_HEADER, raw)}))
    return rows


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
        }),
    ],
}
PRESETS = tuple(PRESET_DOCS)


def preset_specs(name: str, **overrides) -> list[tuple[str, SweepSpec]]:
    """Named experiment presets as (output basename, spec) pairs, with
    overrides applied to each document as _spec_from_doc applies them."""
    if name not in PRESET_DOCS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
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
    try:
        return [_parse_value(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of numbers") from None


def _output(write, *args, **kwargs):
    """write(*args, **kwargs), which makes or writes the output directory;
    an OSError becomes the ValueError main reports."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise ValueError(f"out-dir: {exc}") from exc


def _cmd_run(args) -> int:
    cfg = config_with(SimConfig(), **_given(args))
    _require_int(args.reps, "reps", 1)
    if args.trace and args.reps != 1:
        raise ValueError("--trace requires --reps 1")
    if args.out_dir is not None and not args.trace:
        raise ValueError("out-dir: --out-dir needs --trace")
    if args.reps == 1:
        if args.trace:
            out = Path(args.out_dir or ".")
            _output(out.mkdir, parents=True, exist_ok=True)
            metrics, records = run(cfg, trace=True)
            path = _output(write_trace_csv, records, out / "trace.csv")
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
    if args.preset:
        named = preset_specs(args.preset, **given)
    elif args.config:
        named = [(Path(args.config).stem, _spec_from_doc(_read_json(args.config), **given))]
    elif args.sweep_variable:
        if args.values is None:
            raise ValueError("--values is required with --variable")
        named = [("results", _spec_from_doc({}, **given))]
    else:
        raise ValueError("give --preset, --config, or --variable")
    out = Path(args.out_dir)
    _output(out.mkdir, parents=True, exist_ok=True)

    paths: list[Path] = []
    for basename, spec in named:
        if args.preset == "optimal-lambda":
            table, header = optimal_lambda(spec), ["capacity_ratio", "optimal_lambda"]
            paths.append(_output(write_csv, out / f"{basename}.csv", header, table))
        else:
            paths.append(_output(emit_outputs, run_sweep(spec), out, basename=basename))
    for path in paths:
        print(path)
    return 0


def _cmd_ne(args) -> int:
    # only the network and the seed: ne simulates no steps, so the price
    # check for T steps of SimConfig does not apply
    given = _given(args)
    seed = given.pop("seed", SimConfig.seed)
    net = build_network(NetworkConfig(**given))
    _require_int(seed, "seed", 0, INT64_MAX)
    dests = assign_destinations(net, np.random.default_rng(seed))
    result = ne_costs(net.config, *cost_advantages(net, dests))
    print(f"n_p={result.n_p}")
    print(f"c_best={result.c_best} ({float(result.c_best)})")
    print(f"c_worst={result.c_worst} ({float(result.c_worst)})")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main parses every
    argv against it and keeps no state between calls."""
    d = SimConfig()
    # the network flags with --seed, and the agent flags
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
    group.add_argument("--steps", dest="T", type=int, help=f"total steps (default {d.T})")
    group.add_argument("--warmup", type=int,
                       help=f"steps excluded from metrics (default {d.warmup})")

    parser = argparse.ArgumentParser(
        prog="ringhub",
        description="Minority-game route choice on ring-and-hub networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[network, agents], help="single configuration")
    p_run.add_argument("--mode", choices=MODES,
                       help=f"agent population (default {SimConfig.mode})")
    p_run.add_argument("--reps", type=int, default=1, help="average this many runs")
    p_run.add_argument("--out-dir", help="directory for --trace output (default .)")
    p_run.add_argument("--trace", action="store_true", help="write the full step trace CSV")

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
    p_sweep.add_argument("--out-dir", default=".", help="output directory")

    sub.add_parser("ne", parents=[network], help="equilibrium baseline")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so that a
    # replaced _cmd_* function is the one that runs
    command = {"run": _cmd_run, "sweep": _cmd_sweep, "ne": _cmd_ne}[args.command]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
