"""Batched simulation core.

Runs many independent replications of the route-choice game as one numpy
batch. A row of the batch is one (point, seed) pair: a point is a network,
and the networks of one batch differ at most in hub_links and L, so each
row owns its costs, its capacity L and its score state. Each seed owns a
dedicated Generator, and the per-seed draw order is fixed (destinations,
bias draws for heterogeneous agents, strategy tables, initial history bits,
then per-step float draws in step order). None of these draws depends on
the network, so every row with that seed reads the same ones: the engine
draws them once per seed and indexes them by the row's seed slot, and a
batch is bit-identical to the same rows executed one at a time. Per-step
draws use the float64 path only, which consumes one raw 64-bit word per
value; chunked draws therefore match per-agent scalar draws exactly.

Costs are equilibrium.scaled_costs, integers scaled by the lcm of the alpha
and beta denominators, so cost comparisons (the sign() in the score update)
are exact, and the equilibrium band is equilibrium.ne_totals on the same
integers. Scores are kept doubled in float64; they stay exact integers.

A step is a few whole-array passes over the live rows. Each seed's
generator fills its chunk of keys in place. The keys are added to the
scores into one keys buffer per slab: while every row still steps, the rows
are the (points x seeds) grid, so each seed's keys broadcast over the
points; once a row has locked they are gathered by slot. The chosen
strategy's suggestion is read from the gathered suggestions by flat index,
(row * N + agent) * S + argmax. A step's total cost is out_sum less the
saving l = out - inu of each agent inside (k = out - inc when congested),
with out_sum the row's total outside cost: an exact int64 identity within
the bound NetworkConfig.check_cost_sums enforces. Step records cover the
measured window only, unless a trace asks for every step, and random play,
which carries nothing from step to step, skips its warm-up steps after
drawing their keys.

A run whose remaining steps are all alike stops stepping. At each chunk
boundary after the first, a run is locked when, at its current history mu:

1. every agent's top-score strategies suggest one action a_n at mu;
2. mu is all h*, where h* = (sum of a_n > L) is the hub state those
   actions produce, so the step leaves mu unchanged;
3. every agent either gains, d_n = sgn_n(h*) * (2*a_n - 1) >= 0, or has
   all S strategies suggesting a_n at mu.

Doubled scores differ by at least 2 and tie-break keys lie in [0, 1), so
the action is a_n whatever the keys. The step adds 2*d_n to the top
strategies and at most that to the others (the same to all of them under
the second branch of 3), so the top set and mu are the same before the next
step, which therefore repeats this one. A locked run's remaining n_in, h
and cost are constants, its doubled scores grow by (T - t) times one
integer step, exactly, and it reads no key again, so filling its records in
one write and dropping its row from the step loop gives the same results as
stepping it to T. Random mode has no scores and never locks.

Rows of one seed share its keys. A seed's generator draws the keys of a
chunk when some row of that seed is still live at that chunk. Locking only
ever removes rows, so once no row of a seed is live none will be again:
the keys a generator skips are ones no row would have read, and every live
row reads exactly the keys it would read alone.

A batch runs on every CPU the process may use. Its seeds are split into
WORKERS contiguous groups, no more than there are seeds: group 0 runs in
the calling process and every other in a forked child, each through the
same slab loop, and the children write their rows in place into result
arrays held in anonymous shared memory. Every seed's generator lives wholly
inside one group, so results do not depend on the CPU count. The groups
share the memory budget of one serial batch: each runs slabs of
SLAB_BYTES / workers, and no more groups run than one seed each fits in
SLAB_BYTES. The engine stays serial, through the same group loop, where
os.fork is missing, while the process runs a second Python thread, and for
one seed. Forking a process that has another thread can deadlock the child,
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

from .equilibrium import ne_totals, scaled_costs
from .network import Network, draw_destinations, route_table

__all__ = ["BatchResult", "simulate_batch", "simulate_points", "CHUNK", "SLAB_BYTES", "WORKERS"]

CHUNK = 32  # steps per draw block; per-step semantics do not depend on it
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
    """Per-run results for one batch; arrays are indexed by row."""

    avg_cost: np.ndarray
    congestion_ratio: np.ndarray
    avg_hub_users: np.ndarray
    std_hub_users: np.ndarray
    n_p: np.ndarray
    ne_best: np.ndarray
    ne_worst: np.ndarray
    scale: int
    trace_n_in: np.ndarray | None = None
    trace_h: np.ndarray | None = None
    trace_cost: np.ndarray | None = None  # scaled integer totals per step
    final_scores: np.ndarray | None = None  # (R, N, S) virtual scores


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
    """Simulate one run per seed and return per-run metrics: simulate_points
    with the one network."""
    return simulate_points([net], M, S, mode, T, warmup, seeds, collect_trace, collect_scores)


def simulate_points(
    nets: list[Network],
    M: int,
    S: int,
    mode: str,
    T: int,
    warmup: int,
    seeds,
    collect_trace: bool = False,
    collect_scores: bool = False,
) -> BatchResult:
    """Simulate one run per (network, seed) pair and return per-run metrics.

    Row k*R + i of the result is nets[k] at seeds[i], for R seeds, so each
    network's runs are one contiguous slice. The networks may differ only in
    hub_links and L. Splits the seeds into one contiguous group per worker
    (see the module docstring) and each group into memory-bounded slabs that
    write into the rows of one preallocated result, shared with the forked
    workers; results are identical to running each row alone because every
    row reads only its own seed's draws.
    """
    first = nets[0].config
    for net in nets:
        cfg = net.config
        if (cfg.N, cfg.alpha, cfg.beta) != (first.N, first.alpha, first.beta):
            raise ValueError("nets: stacked networks may differ only in hub_links and L")
    seeds = np.asarray(seeds, dtype=np.int64)
    k, r, n, p = len(nets), len(seeds), first.N, 1 << M
    lam = max(net.config.hub_links for net in nets)
    # per seed: strategy tables, one chunk of keys and the pair-wise route
    # temporaries of one point; per row: scores, the step's keys, suggestions
    # and score increments, costs, and the step records, which cover the
    # measured window unless a trace asks for every step
    per_seed = n * S * (2 * p + 8 * CHUNK) + 24 * n * lam
    per_row = 18 * n * S + 64 * n + 13 * (T if collect_trace else T - warmup)
    one_seed = per_seed + k * per_row
    if one_seed > MEMORY_BYTES:
        raise ValueError(
            f"S={S}, M={M}, N={n} and T={T} need about {one_seed:,} bytes for one seed, "
            f"more than the {MEMORY_BYTES:,} bytes of memory of this machine"
        )
    # one group of seeds per worker, as many as one slab of a seed each fits
    # in the serial budget; a process with other threads stays serial, as
    # forking it can deadlock
    workers = min(WORKERS, r, max(1, SLAB_BYTES // one_seed))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    slab = max(1, min(r, SLAB_BYTES // workers // one_seed))

    def per_step(dtype):
        return _shared_empty((k * r, T), dtype=dtype) if collect_trace else None

    scores = collect_scores and mode != "random"
    res = BatchResult(
        avg_cost=_shared_empty(k * r),
        congestion_ratio=_shared_empty(k * r),
        avg_hub_users=_shared_empty(k * r),
        std_hub_users=_shared_empty(k * r),
        n_p=_shared_empty(k * r, dtype=np.int64),
        ne_best=_shared_empty(k * r),
        ne_worst=_shared_empty(k * r),
        scale=first.scale,
        trace_n_in=per_step(np.int32),
        trace_h=per_step(bool),
        trace_cost=per_step(np.int64),
        final_scores=_shared_empty((k * r, n, S)) if scores else None,
    )

    def run_group(g):
        lo, hi = r * g // workers, r * (g + 1) // workers
        for start in range(lo, hi, slab):
            stop = min(start + slab, hi)
            rows = (np.arange(k)[:, None] * r + np.arange(start, stop)).ravel()
            _simulate_slab(nets, M, S, mode, T, warmup, seeds[start:stop], rows, res)

    _run_forked(run_group, workers)
    return res


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
    mode: str,
    T: int,
    warmup: int,
    seeds: np.ndarray,
    rows: np.ndarray,
    res: BatchResult,
) -> None:
    """Simulate every network at every seed and write the results into
    res[rows]; slab row k*len(seeds) + i is nets[k] at seeds[i]."""
    cfg = nets[0].config
    n, p = cfg.N, 1 << M
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    n_seeds, n_rows = len(rngs), len(rows)
    adaptive = mode != "random"

    dests = np.empty((n_seeds, n), dtype=np.int64)
    mu0 = np.zeros(n_seeds, dtype=np.int64)
    if adaptive:
        # +1 where a strategy takes the hub at a history, -1 where it keeps
        # out; the (P, seeds, N, S) layout makes the per-step gather contiguous
        signed = np.empty((p, n_seeds, n, S), dtype=np.int8)
    for i, rng in enumerate(rngs):
        dests[i] = draw_destinations(n, rng)
        if adaptive:
            if mode == "heterogeneous":
                bias = rng.integers(0, p + 1, size=(n, S))
            else:
                bias = np.full((n, S), p // 2, dtype=np.int64)
            raw = rng.integers(0, p, size=(n, S, p))
            signed[:, i] = (2 * (raw >= bias[:, :, None]).view(np.int8) - 1).transpose(2, 0, 1)
        bits = rng.integers(0, 2, size=M)
        acc = 0
        for b in bits:
            acc = (acc << 1) | int(b)
        mu0[i] = acc

    # per-row state: slot is the row's seed, L its network's capacity; a
    # step costs out_sum less l (k when congested) for each agent inside
    slot = np.tile(np.arange(n_seeds), len(nets))
    L = np.repeat([net.config.L for net in nets], n_seeds)
    out, inu, k = (np.empty((n_rows, n), dtype=np.int64) for _ in range(3))
    for q, net in enumerate(nets):
        part = slice(q * n_seeds, (q + 1) * n_seeds)
        out[part], inu[part], inc = scaled_costs(net.config, route_table(net, np.arange(n), dests))
        np.subtract(out[part], inc, out=k[part])
    l = out - inu
    n_p, best, worst = ne_totals(l, out, inu, L)
    res.n_p[rows] = n_p
    res.ne_best[rows] = best / float(n * cfg.scale)
    res.ne_worst[rows] = worst / float(n * cfg.scale)
    out_sum = out.sum(axis=1)
    del out, inu

    # records start at the measured window unless the trace wants every step
    off = 0 if res.trace_n_in is not None else warmup
    nin_rec = np.empty((n_rows, T - off), dtype=np.int32)
    h_rec = np.empty((n_rows, T - off), dtype=bool)
    cost_rec = np.empty((n_rows, T - off), dtype=np.int64)
    mu = mu0[slot]
    if adaptive:
        scores2 = np.zeros((n_rows, n, S), dtype=np.float64)  # doubled scores
        sgn_u2 = 2 * np.sign(l).astype(np.int8)
        sgn_c2 = 2 * np.sign(k).astype(np.int8)
        # step buffers; live rows use a prefix of each
        keys_all = np.empty((n_rows, n, S), dtype=np.float64)
        inc2_all = np.empty((n_rows, n, S), dtype=np.int8)
        flat_all = np.arange(n_rows * n) * S  # each agent's first strategy
        keys, inc2, flat = keys_all, inc2_all, flat_all
        draw_shape = (n, S)  # one tie-break key per strategy
    else:
        draw_shape = (n,)  # one coin per agent
    draws = np.empty((n_seeds, CHUNK, *draw_shape), dtype=np.float64)
    final = np.empty((n_rows, n, S)) if res.final_scores is not None else None
    # slab rows still stepping: a slice until a row locks, so records are
    # written by basic indexing and keys broadcast over the points as long
    # as every row steps
    live = slice(None)

    def outcome(acts, out_sum, l, k, cap):
        """Hub users, hub state and total scaled cost of one step's actions."""
        nin = acts.sum(axis=1)
        h = nin > cap
        return nin, h, out_sum - np.where(acts, np.where(h[:, None], k, l), 0).sum(axis=1)

    for t in range(0, T, CHUNK):
        if adaptive and t:
            hit, acts = _locked_runs(signed, slot, scores2, mu, sgn_u2, sgn_c2, L)
            if len(hit):
                nin, h, cost = outcome(acts, out_sum[hit], l[hit], k[hit], L[hit])
                at = np.arange(n_rows)[live]
                done = at[hit]
                fill = max(t - off, 0)
                nin_rec[done, fill:] = nin[:, None]
                h_rec[done, fill:] = h[:, None]
                cost_rec[done, fill:] = cost[:, None]
                if final is not None:
                    step2 = np.where(h[:, None], sgn_c2[hit], sgn_u2[hit])[:, :, None]
                    step2 = step2 * signed[mu[hit], slot[hit]]  # +-2 or 0, as int8
                    final[done] = (scores2[hit] + float(T - t) * step2) / 2.0
                keep = np.ones(len(at), dtype=bool)
                keep[hit] = False
                kept = np.flatnonzero(keep)
                live = at[kept]
                m = len(live)
                # the kept rows move forward within each array, so no
                # per-row array is ever held twice
                state = (slot, scores2, mu, sgn_u2, sgn_c2, out_sum, l, k, L)
                for a in state:
                    _compact(a, kept)
                slot, scores2, mu, sgn_u2, sgn_c2, out_sum, l, k, L = (a[:m] for a in state)
                if not m:
                    break
                keys, inc2, flat = keys_all[:m], inc2_all[:m], flat_all[: m * n]
        c = min(CHUNK, T - t)
        for i in np.flatnonzero(np.bincount(slot, minlength=n_seeds)):
            rngs[i].random(out=draws[i, :c])
        for j in range(c):
            if not adaptive and t + j < off:
                continue  # random play carries nothing into the next step
            if adaptive:
                tmu = signed[mu, slot]  # (rows, N, S) suggestions as +-1
                if isinstance(live, slice):
                    # rows are the (points, seeds) grid: each seed's keys
                    # broadcast over the points
                    grid = (-1, n_seeds, n, S)
                    np.add(scores2.reshape(grid), draws[:, j], out=keys.reshape(grid))
                else:
                    # gathered by slot; mode="clip" skips take's copy of
                    # the result, and slot is always in range
                    draws[:, j].take(slot, axis=0, out=keys, mode="clip")
                    keys += scores2
                sel = keys.argmax(axis=2)
                acts = tmu.reshape(-1).take(sel.ravel() + flat).reshape(-1, n) > 0
            else:  # random play never locks, so rows stay the grid
                acts = np.tile(draws[:, j] < 0.5, (len(nets), 1))
            nin, h, cost = outcome(acts, out_sum, l, k, L)
            if adaptive:
                sgn2 = np.where(h[:, None], sgn_c2, sgn_u2)
                np.multiply(sgn2[:, :, None], tmu, out=inc2)
                scores2 += inc2
                mu = ((mu << 1) | h) & (p - 1)
            if t + j >= off:
                nin_rec[live, t + j - off] = nin
                h_rec[live, t + j - off] = h
                cost_rec[live, t + j - off] = cost

    # a block of rows' float64 records at a time; each row's reductions
    # read that row alone
    ms = slice(warmup - off, None)
    block = max(1, BLOCK_BYTES // (8 * (T - warmup)))
    for b in range(0, n_rows, block):
        part, at = slice(b, b + block), rows[b : b + block]
        nin_m = nin_rec[part, ms].astype(np.float64)
        res.avg_cost[at] = cost_rec[part, ms].sum(axis=1) / float(cfg.scale * n * (T - warmup))
        res.congestion_ratio[at] = h_rec[part, ms].mean(axis=1)
        res.avg_hub_users[at] = nin_m.mean(axis=1)
        res.std_hub_users[at] = nin_m.std(axis=1)
    if res.trace_n_in is not None:
        res.trace_n_in[rows], res.trace_h[rows], res.trace_cost[rows] = nin_rec, h_rec, cost_rec
    if final is not None:
        final[live] = scores2 / 2.0
        res.final_scores[rows] = final


def _compact(a: np.ndarray, kept: np.ndarray) -> None:
    """Move row kept[i] of a to row i, in place, BLOCK_BYTES of rows at a
    time. kept rises, so kept[i] >= i: no block overwrites a row that a later
    block reads."""
    block = max(1, BLOCK_BYTES // a[0].nbytes)
    for b in range(0, len(kept), block):
        part = kept[b : b + block]
        a[b : b + len(part)] = a[part]


def _locked_runs(signed, slot, scores2, mu, sgn_u2, sgn_c2, L):
    """The rows that pass the lock test of the module docstring, with their
    actions: (row indices, (K, N) bool, True taking the hub).

    Only rows whose history is all zeros or all ones can pass condition 2,
    so the test looks at those alone.
    """
    p = len(signed)
    cand = np.flatnonzero((mu == 0) | (mu == p - 1))
    tmu = signed[mu[cand], slot[cand]]  # (K, N, S) suggestions as +-1
    s = scores2[cand]
    top = s == s.max(axis=2, keepdims=True)
    up = (top & (tmu > 0)).any(axis=2)  # some top strategy takes the hub
    down = (top & (tmu < 0)).any(axis=2)  # some top strategy keeps out
    h = up.sum(axis=1) > L[cand]
    gain2 = np.where(h[:, None], sgn_c2[cand], sgn_u2[cand]) * np.where(up, 1, -1)
    unanimous = (tmu == tmu[:, :, :1]).all(axis=2)
    ok = ((up != down) & ((gain2 >= 0) | unanimous)).all(axis=1)
    ok &= h == (mu[cand] == p - 1)
    return cand[ok], up[ok]
