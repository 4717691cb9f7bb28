"""Workloads, output checks and the timed loop of the ringhub benchmark.

This module imports ringhub, so run.py imports it only in a child process,
after putting the checkout's src/ directory first on sys.path.

A workload is a list of operations (Op). One pass runs every operation
once, in order, from a single process: a closed loop with one client.
Every pass of a run uses the same inputs, derived from the seed, so every
pass must produce the same bytes; the first pass fixes what later passes,
traced or not, are compared with.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ringhub
from ringhub import _engine, cli

import reference


@dataclass(frozen=True)
class Op:
    """One call into ringhub, with how to check what it returned."""

    key: str  # names the operation in digests.json
    call: Callable[[], bytes]  # runs the program; returns its output bytes
    check: Callable[[bytes], list[str]]  # invariant violations in the output
    work: int  # agent-steps (R*N*T) simulated, or exact NE evaluations


# ------------------------------------------------------------ invariants --


def parse_metrics(text: str) -> dict[str, float]:
    """name=value lines as printed by `ringhub run` and `ringhub ne`.

    `c_best=271/2 (135.5)` reads as 135.5; `avg_cost=3.2 (se 0.1)` as 3.2.
    Lines without `=` are skipped.
    """
    values = {}
    for line in text.splitlines():
        name, sep, rest = line.partition("=")
        if not sep:
            continue
        token = rest.split()[0]
        if "/" in token:  # an exact Fraction; its float follows in parentheses
            token = rest[rest.index("(") + 1 : rest.index(")")]
        values[name.strip()] = float(token)
    return values


def violations(metrics: dict[str, float]) -> list[str]:
    """Properties every correct output has, whatever the seed.

    Costs are non-negative (a negative one means an int64 sum wrapped),
    congestion_ratio is a share, and the best equilibrium is no dearer
    than the worst.
    """
    bad = []
    for name in ("avg_cost", "ne_best", "ne_worst", "c_best", "c_worst"):
        if name in metrics and not metrics[name] >= 0:
            bad.append(f"{name}={metrics[name]!r} is negative")
    ratio = metrics.get("congestion_ratio")
    if ratio is not None and not 0 <= ratio <= 1:
        bad.append(f"congestion_ratio={ratio!r} is outside [0, 1]")
    for lo, hi in (("ne_best", "ne_worst"), ("c_best", "c_worst")):
        if lo in metrics and hi in metrics and not metrics[lo] <= metrics[hi]:
            bad.append(f"{lo}={metrics[lo]!r} exceeds {hi}={metrics[hi]!r}")
    return bad


def check_text(blob: bytes) -> list[str]:
    return violations(parse_metrics(blob.decode()))


def check_sweep_csv(blob: bytes) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(blob.decode())))
    if not rows:
        return ["sweep CSV has no rows"]
    bad = []
    for row in rows:
        metrics = {k: float(v) for k, v in row.items() if k not in ("value", "mode") and v}
        bad += [f"value={row['value']} mode={row['mode']}: {v}" for v in violations(metrics)]
    return bad


def check_trace(n_agents: int) -> Callable[[bytes], list[str]]:
    """Checks `ringhub run --trace` output: metric lines, `--`, trace CSV."""

    def check(blob: bytes) -> list[str]:
        text, _, trace = blob.decode().partition("--\n")
        bad = violations(parse_metrics(text))
        rows = list(csv.DictReader(io.StringIO(trace)))
        if not rows:
            bad.append("trace CSV has no rows")
        for row in rows:
            if not (0 <= int(row["n_in"]) <= n_agents and row["h"] in ("0", "1")):
                bad.append(f"trace step {row['t']}: n_in={row['n_in']} h={row['h']}")
            if not float(row["total_cost"]) >= 0:
                bad.append(f"trace step {row['t']}: total_cost={row['total_cost']} is negative")
        return bad

    return check


# ------------------------------------------------------------- workloads --


def run_cli(argv: list[str]) -> str:
    """`ringhub <argv>` in this process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)  # looked up per call, so a Tracer's wrapper is seen
    if code != 0:
        raise RuntimeError(f"ringhub {' '.join(argv)} exited with {code}")
    return out.getvalue()


def format_result(result) -> str:
    """The repr of every float of a ReplicateResult, one name=value a line."""
    lines = [f"{k}={getattr(result.mean, k)!r}" for k in vars(result.mean)]
    lines += [f"se_{k}={getattr(result.se, k)!r}" for k in vars(result.se)]
    lines += [f"ne_best={result.ne_best!r}", f"ne_worst={result.ne_worst!r}"]
    return "\n".join(lines) + "\n"


REF_REPS = 16


def replicate_ref(seed: int, workdir: Path) -> list[Op]:
    """`replicate` at the two reference configs: the step loop dominates."""
    base = ringhub.SimConfig(seed=seed)
    configs = {
        "homogeneous": base,
        "heterogeneous": ringhub.config_with(base, M=8, mode="heterogeneous", hub_links=50),
    }

    def op(key, cfg):
        def call():
            return format_result(ringhub.replicate(cfg, REF_REPS)).encode()

        return Op(key, call, check_text, REF_REPS * cfg.network.N * cfg.T)

    return [op(key, cfg) for key, cfg in configs.items()]


SWEEP_VALUES = tuple(range(2, 101, 16))  # the 2..100 lambda grid, thinned
SWEEP_MODES = ("homogeneous", "random")
SWEEP_REPS = 4


def lambda_sweep(seed: int, workdir: Path) -> list[Op]:
    """`ringhub sweep --variable lambda`: per-point setup repeats K times."""
    argv = [
        "sweep", "--variable", "lambda",
        "--values", ",".join(map(str, SWEEP_VALUES)),
        "--modes", ",".join(SWEEP_MODES),
        "--reps", str(SWEEP_REPS),
        "--seed", str(seed),
        "--out-dir", str(workdir),
    ]
    table = workdir / "results.csv"
    default = ringhub.SimConfig()

    def call():
        table.unlink(missing_ok=True)
        run_cli(argv)
        return table.read_bytes()

    points = len(SWEEP_VALUES) * len(SWEEP_MODES)
    return [Op("sweep", call, check_sweep_csv, points * SWEEP_REPS * default.network.N * default.T)]


LARGE_N = 1000
LARGE_RING = ["--nodes", str(LARGE_N), "--hub-links", "100", "--capacity", "800"]
LARGE_REPS = 2


def large_ring(seed: int, workdir: Path) -> list[Op]:
    """N=1000, lambda=100: route_table's (N, lambda, N) temporary dominates."""
    common = LARGE_RING + ["--seed", str(seed)]
    trace_csv = workdir / "trace.csv"
    steps = LARGE_N * ringhub.SimConfig().T

    def traced_run():
        trace_csv.unlink(missing_ok=True)
        printed = run_cli(["run", "--trace", "--out-dir", str(workdir)] + common)
        # drop the "trace: <path>" line, which names this run's directory
        metrics = "".join(line for line in printed.splitlines(True) if "=" in line)
        return metrics.encode() + b"--\n" + trace_csv.read_bytes()

    def replicated():
        return run_cli(["run", "--reps", str(LARGE_REPS)] + common).encode()

    return [
        Op("trace", traced_run, check_trace(LARGE_N), steps),
        Op("reps", replicated, check_text, LARGE_REPS * steps),
    ]


NE_SEEDS = {4: 24, 16: 2}  # lambda -> seeds per pass; cost grows ~lambda^2


def exact_ne(seed: int, workdir: Path) -> list[Op]:
    """`ringhub ne`: the Fraction equilibrium path, nothing simulated."""

    def op(lam, i):
        argv = ["ne", "--hub-links", str(lam), "--seed", str(seed + i)]
        return Op(f"ne-l{lam}-s{i}", lambda: run_cli(argv).encode(), check_text, 1)

    return [op(lam, i) for lam, count in NE_SEEDS.items() for i in range(count)]


# name -> (builder, what Op.work counts, reference kernel)
WORKLOADS = {
    "replicate-ref": (replicate_ref, "agent_steps", "numpy"),
    "lambda-sweep": (lambda_sweep, "agent_steps", "numpy"),
    "large-ring": (large_ring, "agent_steps", "memory"),
    "exact-ne": (exact_ne, "ne_evals", "fraction"),
}


# ----------------------------------------------------------- timed loop --


class Ledger:
    """Counts operations and failures; holds the digests outputs must match.

    An operation fails when it raises or its output breaks an invariant,
    differs from the digest recorded at the default seed, or differs from
    the same operation's output in the first pass.
    """

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {key} failed: {why}", file=sys.stderr)

    def record(self, op: Op, blob: bytes | None, error: str | None = None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(op.key, error)
            return
        digest = hashlib.sha256(blob).hexdigest()
        problems = op.check(blob)
        if self.recorded is not None and self.recorded.get(op.key) != digest:
            problems.append("output differs from the digest recorded for the default seed")
        if self.first.setdefault(op.key, digest) != digest:
            problems.append("output differs from the first pass")
        if problems:
            self.fail(op.key, "; ".join(problems))


def run_pass(ops: list[Op], ledger: Ledger) -> float:
    """Run every operation once; check outputs after the clock stops."""
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            results.append((op, op.call(), None))
        except Exception:
            results.append((op, None, traceback.format_exc()))
    elapsed = time.perf_counter() - start
    for op, blob, error in results:
        ledger.record(op, blob, error)
    return elapsed


def timed_passes(
    ops: list[Op], ledger: Ledger, seconds: float, kernel: str, on_pass=None
) -> tuple[list[float], list[float]]:
    """Repeat passes until `seconds` have gone by.

    Returns each pass's time and the mean time of the reference kernel
    run just before and just after it, which brackets the pass.
    """
    times: list[float] = []
    refs: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        gc.collect()
        before = reference.time_kernel(kernel)
        if on_pass is not None:
            on_pass(len(times))
        times.append(run_pass(ops, ledger))
        refs.append((before + reference.time_kernel(kernel)) / 2)
    return times, refs


def warm_up(ops: list[Op]) -> str | None:
    """The set-up's one warm-up call: the first operation, unchecked."""
    try:
        ops[0].call()
    except Exception:
        return traceback.format_exc()
    return None


def engine_setup_s(batch_calls: list[dict]) -> float:
    """simulate_batch at T=1, warmup=0 on each recorded call's seeds.

    This times everything a call does before its step loop (route table,
    per-run draws, the vectorised equilibrium) plus a single step.
    """
    total = 0.0
    for args in batch_calls:
        start = time.perf_counter()
        _engine.simulate_batch(args["net"], args["M"], args["S"], args["mode"], 1, 0, args["seeds"])
        total += time.perf_counter() - start
    return total
