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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import ne_totals, scaled_costs
from .network import Network, draw_destinations, route_table

__all__ = ["BatchResult", "simulate_batch", "simulate_points", "CHUNK", "SLAB_BYTES"]

CHUNK = 32  # steps per draw block; per-step semantics do not depend on it
SLAB_BYTES = 1_500_000_000  # rough memory budget of one slab of runs


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
    hub_links and L. Splits the seeds into memory-bounded slabs that write
    into the rows of one preallocated result; results are identical to
    running each row alone because every row reads only its own seed's
    draws.
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
    # temporaries of one point; per row: scores and one step's sum of them
    # with the keys, costs, and the (T,) step records
    per_seed = n * S * (2 * p + 8 * CHUNK) + 24 * n * lam
    per_row = 16 * n * S + 64 * n + 13 * T
    slab = max(1, min(r, SLAB_BYTES // (per_seed + k * per_row)))

    def per_step(dtype):
        return np.empty((k * r, T), dtype=dtype) if collect_trace else None

    res = BatchResult(
        avg_cost=np.empty(k * r),
        congestion_ratio=np.empty(k * r),
        avg_hub_users=np.empty(k * r),
        std_hub_users=np.empty(k * r),
        n_p=np.empty(k * r, dtype=np.int64),
        ne_best=np.empty(k * r),
        ne_worst=np.empty(k * r),
        scale=first.scale,
        trace_n_in=per_step(np.int32),
        trace_h=per_step(bool),
        trace_cost=per_step(np.int64),
        final_scores=np.empty((k * r, n, S)) if collect_scores and mode != "random" else None,
    )
    for start in range(0, r, slab):
        stop = min(start + slab, r)
        rows = (np.arange(k)[:, None] * r + np.arange(start, stop)).ravel()
        _simulate_slab(nets, M, S, mode, T, warmup, seeds[start:stop], rows, res)
    return res


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
        tables = np.empty((n_seeds, n, S, p), dtype=bool)
    for i, rng in enumerate(rngs):
        dests[i] = draw_destinations(n, rng)
        if adaptive:
            if mode == "heterogeneous":
                bias = rng.integers(0, p + 1, size=(n, S))
            else:
                bias = np.full((n, S), p // 2, dtype=np.int64)
            raw = rng.integers(0, p, size=(n, S, p))
            tables[i] = raw >= bias[:, :, None]
        bits = rng.integers(0, 2, size=M)
        acc = 0
        for b in bits:
            acc = (acc << 1) | int(b)
        mu0[i] = acc

    # per-row state: slot is the row's seed, L its network's capacity
    slot = np.tile(np.arange(n_seeds), len(nets))
    L = np.repeat([net.config.L for net in nets], n_seeds)
    out_s, inu_s, inc_s = (np.empty((n_rows, n), dtype=np.int64) for _ in range(3))
    for k, net in enumerate(nets):
        part = slice(k * n_seeds, (k + 1) * n_seeds)
        priced = scaled_costs(net.config, route_table(net, np.arange(n), dests))
        out_s[part], inu_s[part], inc_s[part] = priced
    l_s = out_s - inu_s
    n_p, best, worst = ne_totals(l_s, out_s, inu_s, L)
    res.n_p[rows] = n_p
    res.ne_best[rows] = best / float(n * cfg.scale)
    res.ne_worst[rows] = worst / float(n * cfg.scale)

    nin_rec = np.empty((n_rows, T), dtype=np.int32)
    h_rec = np.empty((n_rows, T), dtype=bool)
    cost_rec = np.empty((n_rows, T), dtype=np.int64)
    mu = mu0[slot]
    if adaptive:
        # (P, seeds, N, S) layout makes the per-step history gather contiguous
        signed = np.ascontiguousarray(
            (2 * tables.astype(np.int8) - 1).transpose(3, 0, 1, 2)
        )
        del tables
        scores2 = np.zeros((n_rows, n, S), dtype=np.float64)  # doubled scores
        sgn_u2 = 2 * np.sign(l_s).astype(np.int8)
        sgn_c2 = 2 * np.sign(out_s - inc_s).astype(np.int8)
        draw_shape = (n, S)  # one tie-break key per strategy
    else:
        draw_shape = (n,)  # one coin per agent
    draws = np.empty((n_seeds, CHUNK, *draw_shape), dtype=np.float64)
    final = np.empty((n_rows, n, S)) if res.final_scores is not None else None
    # slab rows still stepping: a slice until a row locks, so records are
    # written by basic indexing as long as every row steps
    live = slice(None)

    def outcome(acts, out, inu, inc, cap):
        """Hub users, hub state and total scaled cost of one step's actions."""
        nin = acts.sum(axis=1)
        h = nin > cap
        return nin, h, np.where(acts, np.where(h[:, None], inc, inu), out).sum(axis=1)

    for t in range(0, T, CHUNK):
        if adaptive and t:
            hit, acts = _locked_runs(signed, slot, scores2, mu, sgn_u2, sgn_c2, L)
            if len(hit):
                nin, h, cost = outcome(acts, out_s[hit], inu_s[hit], inc_s[hit], L[hit])
                at = np.arange(n_rows)[live]
                done = at[hit]
                nin_rec[done, t:] = nin[:, None]
                h_rec[done, t:] = h[:, None]
                cost_rec[done, t:] = cost[:, None]
                if final is not None:
                    step2 = np.where(h[:, None], sgn_c2[hit], sgn_u2[hit])[:, :, None]
                    step2 = step2 * signed[mu[hit], slot[hit]]  # +-2 or 0, as int8
                    final[done] = (scores2[hit] + float(T - t) * step2) / 2.0
                keep = np.ones(len(at), dtype=bool)
                keep[hit] = False
                live = at[keep]
                slot, scores2, mu, sgn_u2, sgn_c2, out_s, inu_s, inc_s, L = (
                    a[keep] for a in (slot, scores2, mu, sgn_u2, sgn_c2, out_s, inu_s, inc_s, L)
                )
                if not len(live):
                    break
        c = min(CHUNK, T - t)
        for i in np.flatnonzero(np.bincount(slot, minlength=n_seeds)):
            draws[i, :c] = rngs[i].random((c, *draw_shape))
        for j in range(c):
            keys = draws[slot, j]  # a gathered copy, so adding to it leaves draws intact
            if adaptive:
                tmu = signed[mu, slot]  # (rows, N, S) suggestions as +-1
                keys += scores2
                sel = np.argmax(keys, axis=2)
                acts = np.take_along_axis(tmu, sel[:, :, None], axis=2)[:, :, 0] > 0
            else:
                acts = keys < 0.5
            nin, h, cost = outcome(acts, out_s, inu_s, inc_s, L)
            if adaptive:
                sgn2 = np.where(h[:, None], sgn_c2, sgn_u2)
                scores2 += sgn2[:, :, None] * tmu
                mu = ((mu << 1) | h) & (p - 1)
            nin_rec[live, t + j] = nin
            h_rec[live, t + j] = h
            cost_rec[live, t + j] = cost

    ms = slice(warmup, T)
    nin_m = nin_rec[:, ms].astype(np.float64)
    res.avg_cost[rows] = cost_rec[:, ms].sum(axis=1) / float(cfg.scale * n * (T - warmup))
    res.congestion_ratio[rows] = h_rec[:, ms].mean(axis=1)
    res.avg_hub_users[rows] = nin_m.mean(axis=1)
    res.std_hub_users[rows] = nin_m.std(axis=1)
    if res.trace_n_in is not None:
        res.trace_n_in[rows], res.trace_h[rows], res.trace_cost[rows] = nin_rec, h_rec, cost_rec
    if final is not None:
        final[live] = scores2 / 2.0
        res.final_scores[rows] = final


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
