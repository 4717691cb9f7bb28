"""ringhub benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload replicate-ref --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --record-digests        # rewrite digests.json

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its src/ directory. Measurements run in child
processes, one at a time, so a crash or an out-of-memory kill in a
workload shows as failed operations instead of a lost run.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
untraced for half the time and traced for the other half, reports the
per-layer metrics, and writes the spans to perfbench/out/. The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics. See README.md in this directory for the workloads and what each
metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer  # standard library only; harness, which imports ringhub, is child-only

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0  # outputs at this seed must match DIGESTS byte for byte

# the keys of harness.WORKLOADS, which the parent cannot import
WORKLOADS = ("replicate-ref", "lambda-sweep", "large-ring", "exact-ne")
END_TO_END_UNITS = {"wall_s": "s", "throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
CHILDREN = 3  # timing children per run; each sets up once and times a third of the run
BUDGET_S = 170.0  # every child of one workload run ends within this
NO_PROGRAM = 3  # exit code of a child that cannot import ringhub
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class ProgramMissing(Exception):
    """The checkout has no importable ringhub package."""


# ---------------------------------------------------------------- child --


def child(args) -> int:
    """Set up one workload, then time it (or trace it); print a JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
        import reference
    except ImportError:
        traceback.print_exc()
        return NO_PROGRAM

    build, work_name, kernel = harness.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = build(args.seed, workdir)
    recorded = None
    if args.seed == DEFAULT_SEED and args.child != "record":
        recorded = {}
        if DIGESTS.exists():
            doc = json.loads(DIGESTS.read_text())
            recorded = doc["workloads"].get(args.workload, {})
    ledger = harness.Ledger(recorded)
    error = harness.warm_up(ops)
    result = {"ready_at": time.perf_counter()}
    if error is not None:
        ledger.attempted += 1
        ledger.fail("warm-up", error)
    nominal = reference.KERNELS[kernel][1]

    def scaled(times, refs):
        return [t * nominal / r for t, r in zip(times, refs)]

    if args.child == "record":
        harness.run_pass(ops, ledger)
        result["digests"] = ledger.first
    elif args.child == "time":
        kernel_s = statistics.median(reference.time_kernel(kernel) for _ in range(3))
        result["setup_scale"] = nominal / kernel_s
        times, refs = harness.timed_passes(ops, ledger, args.seconds, kernel)
        result["pass_s"] = times
        result["scaled_pass_s"] = scaled(times, refs)
        result["work"] = sum(op.work for op in ops)
        result["work_name"] = work_name
    elif args.child == "trace":
        # half the time untraced, half traced: trace.overhead_s is their difference
        untraced = harness.timed_passes(ops, ledger, args.seconds / 2, kernel)
        before = tracer.site_functions()
        trace = tracer.Tracer(args.workload)
        with trace:
            traced = harness.timed_passes(
                ops, ledger, args.seconds / 2, kernel, on_pass=lambda i: setattr(trace, "run", i)
            )
        if tracer.site_functions() != before:
            ledger.attempted += 1
            ledger.fail("tracer", "a wrapper was left in place")
        first = [a for sid, a in trace.batch_calls if trace.spans[sid]["run"] == 0]
        layers = tracer.median_pass_metrics(trace.spans, len(traced[0]))
        setup = harness.engine_setup_s(first)
        steps = sum(a["T"] for a in first)
        layers["engine.setup_s"] = setup
        # derived, not measured: (batch time - setup time) per simulated step
        layers["engine.step_us"] = (
            (layers["engine.simulate_batch_s"] - setup) / steps * 1e6 if steps else 0.0
        )
        layers["trace.overhead_s"] = statistics.median(scaled(*traced)) - statistics.median(
            scaled(*untraced)
        )
        result["layers"] = layers
        write_spans(trace.spans, tracer.self_times(trace.spans), args)

    result["attempted"] = ledger.attempted
    result["failed"] = ledger.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def write_spans(spans: list[dict], own: dict[int, float], args) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "spans": [{**span, "self": own[span["id"]]} for span in spans],
    }
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=0) + "\n")


# --------------------------------------------------------------- parent --


def spawn(mode: str, workload: str, seed: int, seconds: float, workdir: Path, deadline: float):
    """Run one child to completion; return (its JSON, spawn time) or (None, ...)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--workdir", str(workdir),
    ]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env={**os.environ, **THREAD_CAPS}, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} {mode} child timed out", file=sys.stderr)
        return None, spawned
    if proc.returncode == NO_PROGRAM:
        raise ProgramMissing(f"cannot import ringhub from {ROOT / 'src'}")
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} {mode} child exited with {proc.returncode}", file=sys.stderr)
        return None, spawned
    return json.loads(lines[-1]), spawned


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload, as the result printed last.

    Untraced, CHILDREN processes each set up and then time passes for a
    share of `seconds`: set-up is sampled CHILDREN times, and the pooled
    passes average out how fast one process happens to be.
    """
    deadline = time.perf_counter() + BUDGET_S
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    mode, children = ("trace", 1) if trace else ("time", CHILDREN)
    attempted = failed = 0
    done = []  # (child result, spawn time)
    try:
        for _ in range(children):
            res, spawned = spawn(mode, workload, seed, seconds / children, workdir, deadline)
            if res is None:
                attempted, failed = attempted + 1, failed + 1
            else:
                done.append((res, spawned))
                attempted += res["attempted"]
                failed += res["failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = tracer.LAYER_UNITS if trace else END_TO_END_UNITS
    if not done:
        metrics = {name: 0.0 for name in units}
    elif trace:
        metrics = done[0][0]["layers"]
    else:
        wall = statistics.median(t for res, _ in done for t in res["scaled_pass_s"])
        metrics = {
            "wall_s": wall,
            "throughput_per_s": done[0][0]["work"] / wall,
            "setup_s": statistics.median((r["ready_at"] - at) * r["setup_scale"] for r, at in done),
            "peak_rss_mb": max(res["peak_rss_mb"] for res, _ in done),
        }
    result = {
        "correct": len(done) == children and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if done:
        report(workload, seed, done, result, trace)
    return result


def report(workload: str, seed: int, done: list, result: dict, trace: bool) -> None:
    """Human-readable lines, each metric by name with its unit."""
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} (seed {seed}): {result['attempted']} operations, {result['failed']} failed")
    if trace:
        for name, unit in tracer.LAYER_UNITS.items():
            print(f"  {name:32s} {metrics[name]:.6g} {unit}")
        return
    passes = [t for res, _ in done for t in res["pass_s"]]
    raw_setup = statistics.median(res["ready_at"] - at for res, at in done)
    throughput_name = f"{done[0][0]['work_name']}_per_s"
    print(f"  wall_s             {metrics['wall_s']:.6g} s (median of {len(passes)} passes in "
          f"{len(done)} processes, reference-scaled; unscaled {statistics.median(passes):.6g} s)")
    print(f"  {throughput_name:18s} {metrics['throughput_per_s']:.6g} 1/s (reported as throughput_per_s)")
    print(f"  setup_s            {metrics['setup_s']:.6g} s (median of {len(done)} set-ups, "
          f"reference-scaled; unscaled {raw_setup:.6g} s)")
    print(f"  peak_rss_mb        {metrics['peak_rss_mb']:.6g} MiB")
    print(f"  failed_ratio       {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")


def record_digests() -> int:
    """Write digests.json: every operation's output digest at the default seed."""
    digests = {}
    for workload in WORKLOADS:
        workdir = OUT / f"work-{workload}-{os.getpid()}"
        try:
            res, _ = spawn("record", workload, DEFAULT_SEED, 1, workdir, time.perf_counter() + BUDGET_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res is None or res["failed"]:
            print(f"perfbench: {workload} did not run cleanly; nothing written", file=sys.stderr)
            return 1
        digests[workload] = res["digests"]
    doc = {"seed": DEFAULT_SEED, "workloads": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(DIGESTS)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--child", choices=("time", "trace", "record"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.child:
        return child(args)
    if not (ROOT / "src" / "ringhub" / "__init__.py").is_file():
        print(f"perfbench: no ringhub package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            return record_digests()
        if args.workload != "all":
            print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
