"""Batched simulation core.

Runs many independent replications of the route-choice game as one numpy
batch. A row of the batch is one (point, seed) pair: a point is a network
played in one mode, and the points of one stack differ at most in
hub_links, L and mode, so each row owns its costs, its capacity L and its
score state. Rows stay inside the engine: simulate_stacks returns each
network's runs as a BatchResult of its own, in seed order, viewing the
stack's rows. Each (mode, seed) pair owns a dedicated Generator, and the
draw order of each is fixed (destinations, bias draws for heterogeneous
agents, strategy tables, initial history bits, then per-step float draws in
step order). None of these draws depends on the network, so every row of
one mode with that seed reads the same ones: the engine draws them once per
(mode, seed) and indexes them by the row's seed slot, and a batch is
bit-identical to the same rows executed one at a time. The destinations are
each generator's first draw, so every mode's generator of a seed draws the
same trip table, and a slab prices it once for all of them: route_table and
scaled_costs once per interchange set and ne_totals once per network, at
every seed of the slab. Then each mode's rows play in turn. Per-step draws
use the float64 path only, which consumes one raw 64-bit word per value;
chunked draws therefore match per-agent scalar draws exactly.

Costs are equilibrium.scaled_costs, integers scaled by the lcm of the alpha
and beta denominators, so cost comparisons (the sign() in the score update)
are exact, and the equilibrium band is equilibrium.ne_totals on the same
integers. Scores are kept doubled in float64; they stay exact integers.

A row's state is held with agents innermost. The strategy tables are
(P, seeds, S, N) int8, +1 where a strategy takes the hub at a history and
-1 where it keeps out, and a row's doubled scores, keys and score
increments are (S, N), so each pass of a step runs over agents, the
strategies being its outer axis. Each seed's generator fills its chunk of
keys in stream order, agent-major as (steps, N, S), and a step reads them
through a transposed view as it adds them to the scores, into one keys
buffer per slab: while the rows still stepping are whole points, as
(points x seeds), each seed's keys broadcast over the points; once a lock
leaves part of a point they are gathered by slot. (Copying each chunk to
(S, N) once was 3-8% slower over whole runs, on a 2-core box.)

Each agent plays the suggestion of its strategy with the largest key,
2*score + tie-break key, which is the maximum over the strategy axis
(np.maximum.reduce) and an == mask against it. Doubled scores are even
integers and tie-break keys lie in [0, 1), so that strategy has a top score
and the keys split ties between top scores, as argmax(2*score + key) does in
the scalar reference (tests/reference.py). Where two keys tie exactly, the
agent plays the first such strategy, as np.argmax does: the mask then has
more entries than there are agents, and only then are the tied agents
looked up one by one.

A step computes only what the next step reads: the actions, n_in, the hub
state h = n_in > L, the scores, which add sgn2 (+-2 or 0, the sign of the
agent's cost advantage in state h) times each strategy's suggestion, and
the history mu; it keeps the chunk's actions and n_in. After the chunk,
int64 matrix products of the actions with each row's savings, l = out - inu
and k = out - inc, price every recorded step, as many steps a product as
keep numpy's int64 copy of the actions within BLOCK_BYTES (one step at
least): a step costs out_sum, the row's total outside cost, less the k
savings of the agents inside when congested, else the l savings. That is an
exact int64 identity within the bound NetworkConfig.check_cost_sums
enforces, whatever order the sums take. Records hold each step's n_in and
cost (the hub state is n_in > L), over the measured window only unless a
trace asks for every step.

Random play carries nothing from step to step. Its actions are each seed's
coins of the chunk's recorded steps, a (seeds, steps, N) array shared by the
points; a step's n_in is a per-seed sum, and the chunk is priced by the
same product as adaptive play's. Warm-up steps draw their coins and record
nothing.

A run whose hub states settle on an exact cycle is locked by a
ringhub._cycles._Lock. stepped records the hub states of a stepped chunk
and, at a boundary, tests them: it drops from the live rows those it
filled to T, and holds the others that locked when they are every live
row left. hold plays a chunk of that held set and returns whether it did,
else every live row steps the chunk one by one; finish returns each row's
lock_step and period. The lock owns the record of hub states and its share
of a slab's bytes (_cycles.lock_bytes).

Rows of one seed share its keys. A seed's generator draws the keys of a
chunk when some row of that seed is still live, held or stepped, at that
chunk. Only rows without keyed agents leave the batch, so once no row of a
seed is live none will be again: the keys a generator skips are ones no
row would have read, and every live row reads exactly the keys it would
read alone.

A batch runs on every CPU the process may use, and all the stacks of one
simulate_stacks call run in one fork. Each stack's seeds are split into
WORKERS contiguous groups, no more than the largest stack has seeds: group
0 of every stack runs in the calling process and every other group g in
the forked child g, each through the same slab loop, one stack after the
other, and the children write their rows in place into result arrays held
in anonymous shared memory. Every generator lives wholly inside one group,
so results do not depend on the CPU count. The groups share the memory
budget of one serial batch: each runs slabs of SLAB_BYTES / workers, and
no more groups run than one seed of each stack fits in SLAB_BYTES. The
engine stays serial, through the same group loop, where os.fork is
missing, while the process runs a second Python thread, and for one seed.
Forking a process that has another thread can deadlock the child,
so a child waits for the caller to read the number of its OS threads after
the fork, and when any thread lived through the fork the children end
without running and the caller runs every group. (numpy's OpenBLAS pool
shuts down for a fork and does not count.)
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from ._cycles import _Lock, lock_bytes
from .equilibrium import ne_totals, scaled_costs
from .network import _ROUTE_BLOCK_BYTES, Network, draw_destinations, route_table

__all__ = [
    "BatchResult", "simulate_batch", "simulate_stacks",
    "CHUNK", "SLAB_BYTES", "WORKERS",
]

# steps per draw block; per-step semantics do not depend on it. At least
# SimConfig's largest M, 12, as the lock test reads a chunk's last M states
CHUNK = 32
SLAB_BYTES = 1_500_000_000  # rough memory budget of the slabs that run at once
BLOCK_BYTES = 1 << 20  # bound on the temporaries of a row-wise copy or reduction
try:  # the CPUs this process may run on: one seed group runs on each
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity, as on macOS and Windows
    WORKERS = os.cpu_count() or 1
try:  # physical memory: a seed whose runs need more is refused up front
    MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # no sysconf, as on Windows
    MEMORY_BYTES = 1 << 62


@dataclass
class BatchResult:
    """Per-run results of one network; arrays are indexed by seed."""

    avg_cost: np.ndarray
    congestion_ratio: np.ndarray
    avg_hub_users: np.ndarray
    std_hub_users: np.ndarray
    n_p: np.ndarray
    ne_best: np.ndarray
    ne_worst: np.ndarray
    lock_step: np.ndarray  # the step from which its hub states kept a cycle to T, else T
    period: np.ndarray  # that cycle's length, 0 if none; random play reads T and 0
    trace_n_in: np.ndarray | None = None  # hub users per step; h is trace_n_in > L
    trace_cost: np.ndarray | None = None  # scaled integer totals per step
    final_scores: np.ndarray | None = None  # (R, N, S) virtual scores; None for random play


def simulate_batch(
    net: Network,
    M: int,
    S: int,
    mode: str,
    T: int,
    warmup: int,
    seeds,
    collect_trace: bool = False,
    collect_scores: bool = False,
) -> BatchResult:
    """Simulate one run of net per seed: simulate_stacks with one stack of
    the one network."""
    stack = ([net], M, S, [mode], T, warmup, seeds)
    return simulate_stacks([stack], collect_trace, collect_scores)[0][0]


def simulate_stacks(stacks, collect_trace=False, collect_scores=False) -> list[list[BatchResult]]:
    """Simulate one run per (network, seed) of each stack, in one fork.

    A stack is a tuple (nets, M, S, modes, T, warmup, seeds): networks that
    may differ only in hub_links and L, each played in its own mode of
    modes, at every seed. Returns, for each stack, one BatchResult per
    network, whose arrays hold its runs in seed order.

    Splits every stack's seeds into one contiguous group per worker (see the
    module docstring); worker g runs group g of each stack in turn, in
    memory-bounded slabs that write into the rows of one preallocated
    result per stack, shared with the forked workers. Results are identical
    to running each row alone because every row reads only its own
    (mode, seed) generator's draws.
    """
    plans = [_plan(*stack, collect_trace, collect_scores) for stack in stacks]
    if not plans:
        return []
    # one group of seeds per worker, as many as one slab of a seed of every
    # stack fits in the serial budget; a process with other threads stays
    # serial, as forking it can deadlock
    workers = min(
        WORKERS,
        max(r for _, r, _, _ in plans),
        *(max(1, SLAB_BYTES // one_seed) for _, _, one_seed, _ in plans),
    )
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1

    def run_group(g):
        for _, _, _, run in plans:
            run(g, workers)

    _run_forked(run_group, workers)
    return [results for results, _, _, _ in plans]


def _plan(nets, M, S, modes, T, warmup, seeds, collect_trace, collect_scores):
    """Check one stack and allocate its results: (one BatchResult per
    network, seed count, bytes of one seed, run), where run(g, workers)
    simulates group g of the seeds split into that many groups, and nothing
    for g past the seed count. Row k*R + i of the stack's shared arrays is
    nets[k] at seeds[i], and network k's result views its R rows."""
    first = nets[0].config
    for net in nets:
        cfg = net.config
        if (cfg.N, cfg.alpha, cfg.beta) != (first.N, first.alpha, first.beta):
            raise ValueError("nets: stacked networks may differ only in hub_links and L")
    modes = tuple(modes)
    if len(modes) != len(nets):
        raise ValueError(f"modes: {len(modes)} modes for {len(nets)} networks")
    seeds = np.asarray(seeds, dtype=np.int64)
    k, r, n = len(nets), len(seeds), first.N
    fixed, per_seed = _slab_bytes(
        n, M, S, {m: modes.count(m) for m in modes},
        len({net.interchanges for net in nets}), max(net.config.hub_links for net in nets),
        T if collect_trace else T - warmup, T, collect_scores,
    )
    one_seed = fixed + per_seed
    if one_seed > MEMORY_BYTES:
        raise ValueError(
            f"S={S}, M={M}, N={n} and T={T} need about {one_seed:,} bytes for one seed, "
            f"more than the {MEMORY_BYTES:,} bytes of memory of this machine"
        )

    def per_step(dtype):
        return _shared_empty((k * r, T), dtype=dtype) if collect_trace else None

    # final scores only for the adaptive networks: network q's are rows
    # scored[q]*R .. scored[q]*R + R-1, and a random network's are None
    adaptive = np.array([m != "random" for m in modes])
    scored = np.cumsum(adaptive) - 1
    scores = collect_scores and adaptive.any()
    res = BatchResult(
        avg_cost=_shared_empty(k * r),
        congestion_ratio=_shared_empty(k * r),
        avg_hub_users=_shared_empty(k * r),
        std_hub_users=_shared_empty(k * r),
        n_p=_shared_empty(k * r, dtype=np.int64),
        ne_best=_shared_empty(k * r),
        ne_worst=_shared_empty(k * r),
        lock_step=_shared_empty(k * r, dtype=np.int64),
        period=_shared_empty(k * r, dtype=np.int64),
        trace_n_in=per_step(np.int32),
        trace_cost=per_step(np.int64),
        final_scores=_shared_empty((int(scored[-1] + 1) * r, n, S)) if scores else None,
    )
    results = []
    for q in range(k):
        views = {name: a if a is None else a[q * r : (q + 1) * r] for name, a in vars(res).items()}
        if scores:
            at = scored[q] * r
            views["final_scores"] = res.final_scores[at : at + r] if adaptive[q] else None
        results.append(BatchResult(**views))

    def run(g, workers):
        if g >= r:  # fewer seeds than workers
            return
        groups = min(workers, r)
        slab = max(1, min(r, (SLAB_BYTES // workers - fixed) // per_seed))
        lo, hi = r * g // groups, r * (g + 1) // groups
        for start in range(lo, hi, slab):
            stop = min(start + slab, hi)
            seed_rows = np.arange(start, stop)
            rows = (np.arange(k)[:, None] * r + seed_rows).ravel()
            srows = (scored[:, None] * r + seed_rows).ravel()
            _simulate_slab(nets, M, S, modes, T, warmup, seeds[start:stop], rows, srows, res)

    return results, r, one_seed, run


def _slab_bytes(n, M, S, points, geometries, lam, recorded, T, scores) -> tuple[int, int]:
    """Rough peak bytes of a slab of runs at N = n, as (bytes whatever its
    seed count, bytes each seed adds). points maps each mode to its number
    of networks, which have `geometries` distinct interchange sets.

    For each seed, the whole slab holds its trip table and every geometry's
    savings and outside total. Before play, one geometry at a time holds
    route_table's (N, lambda) sums and argmin of its stage 2, its costs and
    the equilibrium's temporaries; then the modes play in turn, so the
    largest of these counts. An adaptive mode holds each seed's int8
    strategy tables and one chunk of keys, and for each of its rows doubled
    scores, keys, increments, the choice mask, the chunk's actions, its
    savings and the lock's bytes (_cycles.lock_bytes). Random play holds
    each seed's chunk of coins and its actions. Each row of either holds
    `recorded` steps of records, a chunk's n_in and costs, and the final
    scores when asked for. Whatever the seeds: one block of the table draw
    (int64 draws with their bool and two int8 copies), of route_table's
    stage 1, of row compaction, of the int64 actions np.matmul prices or of
    the reductions over the T steps, each within twice the larger of
    BLOCK_BYTES and one row, and the lock's blocks.
    """
    p = 1 << M
    table_block = 11 * S * p * min(n, max(1, BLOCK_BYTES // (8 * S * p)))
    route_block = 64 * n * min(lam, max(1, _ROUTE_BLOCK_BYTES // (64 * n)))
    row_block = 2 * max(BLOCK_BYTES, 16 * T, 8 * n * S)
    lock_block, lock_row = lock_bytes(n, S, T, CHUNK, BLOCK_BYTES)
    setup = 80 * n + 16 * n * lam
    row = 24 * n + 24 * CHUNK + 12 * recorded
    played = []
    for mode, count in points.items():
        if mode == "random":
            played.append(9 * n * CHUNK + count * row)
        else:
            per_row = row + lock_row + n * S * (18 + 8 * scores) + n * CHUNK
            played.append(n * S * (p + 8 * CHUNK) + count * per_row)
    trips = 8 * n + geometries * (16 * n + 8)
    return table_block + route_block + row_block + lock_block, trips + max(setup, *played)


def _shared_empty(shape, dtype=np.float64) -> np.ndarray:
    """An array in anonymous shared memory, so that what a forked worker
    writes into it shows in the caller."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _run_forked(run, groups: int) -> None:
    """Call run(g) for each of the groups: run(0) here and every other in a
    forked child, which writes its results in place and reports nothing but
    an exception. A child runs once the caller has seen no other thread of
    its own outlive a fork; else the children end unrun and every group
    runs here. A child's exception is raised here with its type and message;
    every child is reaped, and killed first if the caller fails."""
    children = []  # (pid, read end of the pipe the child reports on)
    gate_read, gate_write = os.pipe()  # a byte lets one child run; EOF ends it
    failed = True
    try:
        for g in range(1, groups):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: os._exit skips every handler of the caller
                code = 0
                try:
                    os.close(read)
                    os.close(gate_write)
                    if os.read(gate_read, 1):
                        run(g)
                except BaseException as exc:
                    code = 1
                    _report(write, exc)
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, read))
            if _threads() > 1:  # another thread lived through the fork
                here = range(groups)
                break
        else:
            os.write(gate_write, bytes(len(children)))
            here = [0]
        os.close(gate_write)
        gate_write = None
        for g in here:
            run(g)
        failed = False
    finally:
        os.close(gate_read)
        if gate_write is not None:
            os.close(gate_write)
        errors = []
        for pid, read in children:
            if failed:
                os.kill(pid, signal.SIGKILL)
            errors.append(_reap(pid, read))
    for error in errors:
        if error is not None:
            raise error


def _threads() -> int:
    """The threads of this process: its OS threads where /proc lists them,
    else its Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _report(fd: int, exc: BaseException) -> None:
    """Write exc and its traceback, pickled, to the pipe fd; an exception
    that does not survive pickling goes as a RuntimeError of the same text."""
    text = traceback.format_exc()
    try:
        payload = pickle.dumps((exc, text))
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), text))
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(payload)


def _reap(pid: int, fd: int) -> BaseException | None:
    """Wait for a child; return its exception, with the child's traceback as
    the cause, if it failed."""
    with os.fdopen(fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if payload:
        exc, text = pickle.loads(payload)
        exc.__cause__ = RuntimeError(f"raised in an engine worker:\n{text}")
        return exc
    if status:
        return RuntimeError(
            f"an engine worker ended with exit code {os.waitstatus_to_exitcode(status)}"
        )
    return None


def _simulate_slab(
    nets: list[Network],
    M: int,
    S: int,
    mode: tuple[str, ...],
    T: int,
    warmup: int,
    seeds: np.ndarray,
    rows: np.ndarray,
    srows: np.ndarray,
    res: BatchResult,
) -> None:
    """Simulate every network at every seed and write the results into
    res[rows], and the adaptive rows' final scores, when asked for, into
    res.final_scores[srows]; slab row k*len(seeds) + i is nets[k] at
    seeds[i], played in mode[k]. Every mode's runs of a seed share its trip
    table, so it is priced once: route_table and scaled_costs once per ring
    geometry and ne_totals once per network. Then each mode's rows play in
    turn."""
    cfg = nets[0].config
    n, n_seeds = cfg.N, len(seeds)
    at = rows.reshape(len(nets), n_seeds)  # each network's result rows
    score_at = srows.reshape(len(nets), n_seeds)
    # the networks by interchange set, then by capacity
    geometry: dict[tuple, tuple[Network, dict[int, list[int]]]] = {}
    for q, net in enumerate(nets):
        geometry.setdefault(net.interchanges, (net, {}))[1].setdefault(net.config.L, []).append(q)
    rngs, dests = _generators(seeds, n)

    # each geometry's savings inside at every seed, (geometries, seeds, N, 2):
    # l = out - inu uncongested and k = out - inc congested; and its total
    # outside cost. A step costs out_sum less l (k when congested) for each
    # agent inside
    lk = np.empty((len(geometry), n_seeds, n, 2), dtype=np.int64)
    out_sum = np.empty((len(geometry), n_seeds), dtype=np.int64)
    for g, (net, by_cap) in enumerate(geometry.values()):
        out, inu, inc = scaled_costs(cfg, route_table(net, np.arange(n), dests))
        np.subtract(out, inu, out=lk[g, ..., 0])
        np.subtract(out, inc, out=lk[g, ..., 1])
        out_sum[g] = out.sum(axis=1)
        for L, points in by_cap.items():
            n_p, best, worst = ne_totals(lk[g, ..., 0], out, inu, L)
            res.n_p[at[points]] = n_p
            res.ne_best[at[points]] = best / float(n * cfg.scale)
            res.ne_worst[at[points]] = worst / float(n * cfg.scale)
        del out, inu, inc

    index = {key: g for g, key in enumerate(geometry)}
    geo = np.array([index[net.interchanges] for net in nets])
    caps = np.array([net.config.L for net in nets])
    for i, played in enumerate(dict.fromkeys(mode)):
        points = [q for q, m in enumerate(mode) if m == played]
        if i:  # each (mode, seed) has a generator of its own
            rngs, _ = _generators(seeds, n)
        _play(
            played, rngs, M, S, T, warmup, cfg.scale,
            lk[geo[points]].reshape(-1, n, 2), out_sum[geo[points]].ravel(),
            np.repeat(caps[points], n_seeds), at[points].ravel(), score_at[points].ravel(), res,
        )


def _generators(seeds: np.ndarray, n: int) -> tuple[list[np.random.Generator], np.ndarray]:
    """A generator for each seed, past its first draw, and that draw: the
    seeds' trip tables, (seeds, N)."""
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    return rngs, np.array([draw_destinations(n, rng) for rng in rngs])


def _play(mode, rngs, M, S, T, warmup, scale, lk, out_sum, L, rows, srows, res) -> None:
    """Play one mode's rows and write their results into res[rows], and
    their final scores, when asked for, into res.final_scores[srows]. rngs
    are the seeds' generators past their trip tables, and row q*len(rngs) + i
    a network at seed i, with its savings lk (N, 2), its outside total
    out_sum and its capacity L."""
    n_seeds, n_rows, n = len(rngs), len(rows), lk.shape[1]
    p = 1 << M
    adaptive = mode != "random"

    mu0 = np.zeros(n_seeds, dtype=np.int64)
    if adaptive:
        # +1 where a strategy takes the hub at a history, -1 where it keeps
        # out; a step gathers each row's (S, N) block
        signed = np.empty((p, n_seeds, S, n), dtype=np.int8)
        block = max(1, BLOCK_BYTES // (8 * S * p))  # agents per table draw
    for i, rng in enumerate(rngs):
        if adaptive:
            if mode == "heterogeneous":
                bias = rng.integers(0, p + 1, size=(n, S))
            else:
                bias = np.full((n, S), p // 2, dtype=np.int64)
            # a block of agents per call: a draw below P, a power of two,
            # takes one half of a 64-bit word and is never rejected, so
            # calls of a multiple of P values read the stream one call would
            table = signed[:, i].transpose(2, 1, 0)  # (N, S, P), stream order
            for a in range(0, n, block):
                agents = slice(a, min(a + block, n))
                raw = rng.integers(0, p, size=(agents.stop - a, S, p))
                table[agents] = 2 * (raw >= bias[agents, :, None]).view(np.int8) - 1
        bits = rng.integers(0, 2, size=M)
        acc = 0
        for b in bits:
            acc = (acc << 1) | int(b)
        mu0[i] = acc

    # per-row state; slot is the row's seed. _Live.compact overwrites L in
    # place, so the hub states recorded n_in implies are read against cap
    slot = np.tile(np.arange(n_seeds), n_rows // n_seeds)
    cap = L.copy()
    live = _Live(np.arange(n_rows), slot, mu0[slot], out_sum, lk, L)
    # records start at the measured window unless the trace wants every step
    off = 0 if res.trace_n_in is not None else warmup
    nin_rec = np.empty((n_rows, T - off), dtype=np.int32)
    cost_rec = np.empty((n_rows, T - off), dtype=np.int64)
    if adaptive:
        live.signed = signed
        live.scores2 = np.zeros((n_rows, S, n), dtype=np.float64)  # doubled scores
        live.sgn_u2 = 2 * np.sign(lk[..., 0]).astype(np.int8)
        live.sgn_c2 = 2 * np.sign(lk[..., 1]).astype(np.int8)
        # step and chunk buffers; the live rows use a prefix
        bufs = (
            np.empty((n_rows, S, n), dtype=np.float64),  # keys
            np.empty((n_rows, S, n), dtype=np.int8),  # score increments
            np.empty((n_rows, S, n), dtype=bool),  # choice mask
            np.empty((n_rows, CHUNK, n), dtype=bool),  # actions, True inside
            np.empty((n_rows, CHUNK), dtype=np.int64),  # n_in
        )
        nin = bufs[4]
        draw_shape = (n, S)  # one tie-break key per strategy, in stream order
    else:
        draw_shape = (n,)  # one coin per agent
    draws = np.empty((n_seeds, CHUNK, *draw_shape))  # each seed's chunk of draws
    final = np.empty((n_rows, S, n)) if adaptive and res.final_scores is not None else None
    if adaptive:
        lock = _Lock(T, off, nin_rec, cost_rec, final, CHUNK, BLOCK_BYTES, _choose)
    # while row j's seed is seed j % n_seeds, as when the live rows are
    # whole points, each seed's keys broadcast over the rows (grid); else
    # they are gathered by slot
    grid = True

    for t in range(0, T, CHUNK):
        c = min(CHUNK, T - t)
        for i in np.flatnonzero(np.bincount(live.slot, minlength=n_seeds)):
            rngs[i].random(out=draws[i, :c])
        lo = max(off - t, 0)  # the chunk's first recorded step
        if adaptive:
            if lock.hold(t, c, draws, live):  # every live row was held
                continue
            live.mu = _step(
                c, draws, grid, signed, live.slot, live.scores2, live.mu,
                live.sgn_u2, live.sgn_c2, live.L, bufs,
            )
            h = nin[: len(live), :c] > live.L[:, None]
            acts_c, nin_c, lk_c = bufs[3][: len(live), lo:c], nin[: len(live), lo:c], live.lk
        elif lo < c:
            # random play: the chunk's recorded steps at once, each seed's
            # coins shared by the points, as its rows never lock
            acts_c = draws[:, lo:c] < 0.5  # (seeds, steps, N)
            nin_c = acts_c.sum(axis=2)[slot]
            lk_c = lk.reshape(-1, n_seeds, n, 2)
        if lo < c:
            nin_rec[live.row, t + lo - off : t + c - off] = nin_c
            cost_rec[live.row, t + lo - off : t + c - off] = _costs(
                acts_c, nin_c, lk_c, live.L, live.out_sum
            )
        if adaptive and lock.stepped(t, h, live):  # rows were dropped
            m = len(live)
            if not m:
                break
            grid = m % n_seeds == 0 and np.array_equal(live.slot, np.arange(m) % n_seeds)

    # a block of rows' records at a time; each row's reductions read that
    # row alone
    ms = slice(warmup - off, None)
    block = max(1, BLOCK_BYTES // (8 * (T - warmup)))
    for b in range(0, n_rows, block):
        part, at = slice(b, b + block), rows[b : b + block]
        nin_m = nin_rec[part, ms].astype(np.float64)
        res.avg_cost[at] = cost_rec[part, ms].sum(axis=1) / float(scale * n * (T - warmup))
        res.congestion_ratio[at] = (nin_rec[part, ms] > cap[part, None]).mean(axis=1)
        res.avg_hub_users[at] = nin_m.mean(axis=1)
        res.std_hub_users[at] = nin_m.std(axis=1)
    # the held rows' scores catch up to T, and each row's cycle; random play has none
    res.lock_step[rows], res.period[rows] = lock.finish(live) if adaptive else (T, 0)
    if res.trace_n_in is not None:
        res.trace_n_in[rows], res.trace_cost[rows] = nin_rec, cost_rec
    if final is not None:
        final[live.row] = live.scores2 / 2.0
        res.final_scores[srows] = final.transpose(0, 2, 1)


@dataclass
class _Live:
    """The live rows of one mode, at positions 0..len-1 of each per-row
    array: row holds their indices among the mode's rows and slot their
    seeds, then their histories mu, outside totals, savings (N, 2) and
    capacities L; for adaptive play also their doubled scores (S, N), the
    doubled signs of their agents' cost advantages uncongested and
    congested, and the seeds' strategy tables signed."""

    row: np.ndarray
    slot: np.ndarray
    mu: np.ndarray
    out_sum: np.ndarray
    lk: np.ndarray
    L: np.ndarray
    scores2: np.ndarray | None = None
    sgn_u2: np.ndarray | None = None
    sgn_c2: np.ndarray | None = None
    signed: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.row)

    def compact(self, kept: np.ndarray) -> None:
        """Keep the rows at positions kept, in order. The kept rows move
        forward within each array, so no per-row array is ever held twice."""
        for name in ("row", "slot", "mu", "out_sum", "lk", "L", "scores2", "sgn_u2", "sgn_c2"):
            a = getattr(self, name)
            _compact(a, kept)
            setattr(self, name, a[: len(kept)])


def _step(c, draws, grid, signed, slot, scores2, mu, sgn_u2, sgn_c2, L, bufs):
    """Step rows c steps one by one, from their doubled scores, updated in
    place, and histories mu: each step's actions and n_in go to a prefix of
    the buffers bufs, and the histories after the chunk are returned. With
    grid, row j's seed is seed j % len(draws)."""
    n_seeds, (S, n) = len(draws), scores2.shape[1:]
    keys, inc2, mask, acts, nin = (a[: len(mu)] for a in bufs)
    p = len(signed)
    if grid:  # rows as (points, seeds), keys as (seeds, steps, S, N)
        grid_scores, grid_keys = (a.reshape(-1, n_seeds, S, n) for a in (scores2, keys))
        seed_keys = draws.transpose(0, 1, 3, 2)
    for j in range(c):
        tmu = signed[mu, slot]  # (rows, S, N) suggestions as +-1
        if grid:
            np.add(grid_scores, seed_keys[:, j], out=grid_keys)
        else:
            np.add(scores2, draws[slot, j].transpose(0, 2, 1), out=keys)
        _choose(keys, tmu, mask, out=acts[:, j])
        acts[:, j].sum(axis=1, out=nin[:, j])
        h = nin[:, j] > L
        sgn2 = np.where(h[:, None], sgn_c2, sgn_u2)
        np.multiply(sgn2[:, None, :], tmu, out=inc2)
        scores2 += inc2
        mu = ((mu << 1) | h) & (p - 1)
    return mu


def _choose(keys: np.ndarray, tmu: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each agent's action into out, (rows, N), True taking the hub: the
    suggestion in tmu of the strategy with the largest key, the first of
    them where keys tie exactly, as np.argmax(keys, axis=1) picks. keys and
    tmu (+-1) are (rows, S, N); mask is a bool buffer of that shape."""
    np.equal(keys, np.maximum.reduce(keys, axis=1)[:, None], out=mask)
    tied = np.count_nonzero(mask) > out.size  # some agent has two top keys
    if tied:
        r, a = np.nonzero(np.add.reduce(mask, axis=1) > 1)
        first = tmu[r, mask[r, :, a].argmax(axis=1), a] > 0
    np.logical_and(mask, tmu > 0, out=mask)
    np.logical_or.reduce(mask, axis=1, out=out)
    if tied:
        out[r, a] = first
    return out


def _costs(acts, nin, lk, L, out_sum) -> np.ndarray:
    """Each row's total scaled cost at each step of a chunk, (rows, steps):
    out_sum less the savings of the agents inside, k when the step is
    congested (nin > L), else l. acts (..., steps, N) broadcasts against lk
    (..., N, 2) to the rows. np.matmul copies the bool actions to int64, so
    each product prices as many steps as keep that copy within BLOCK_BYTES,
    and one step at least."""
    rows, steps = nin.shape
    cost = np.empty((rows, steps), dtype=np.int64)
    block = max(1, BLOCK_BYTES // (8 * acts[..., 0, :].size))
    for a in range(0, steps, block):
        part = slice(a, a + block)
        save = np.matmul(acts[..., part, :], lk).reshape(rows, -1, 2)
        congested = nin[:, part] > L[:, None]
        cost[:, part] = out_sum[:, None] - np.where(congested, save[..., 1], save[..., 0])
    return cost


def _compact(a: np.ndarray, kept: np.ndarray) -> None:
    """Move row kept[i] of a to row i, in place, BLOCK_BYTES of rows at a
    time. kept rises, so kept[i] >= i: no block overwrites a row that a later
    block reads."""
    block = max(1, BLOCK_BYTES // a[0].nbytes)
    for b in range(0, len(kept), block):
        part = kept[b : b + block]
        a[b : b + len(part)] = a[part]
