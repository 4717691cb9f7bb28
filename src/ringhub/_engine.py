"""Batched simulation core.

Runs many independent replications of the route-choice game as one numpy
batch with a leading run axis. Each run owns a dedicated Generator, and the
per-run draw order is fixed (destinations, bias draws for heterogeneous
agents, strategy tables, initial history bits, then per-step float draws in
step order), so a batch of runs is bit-identical to the same runs executed
one at a time. Per-step draws use the float64 path only, which consumes one
raw 64-bit word per value; chunked draws therefore match per-agent scalar
draws exactly.

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
integer step, exactly, and its generator is never read again, so filling
its records in one write and dropping it from the step loop gives the same
results as stepping it to T. Random mode has no scores and never locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .equilibrium import ne_totals, scaled_costs
from .network import Network, draw_destinations, route_table

__all__ = ["BatchResult", "simulate_batch", "CHUNK", "SLAB_BYTES"]

CHUNK = 32  # steps per draw block; per-step semantics do not depend on it
SLAB_BYTES = 1_500_000_000  # rough memory budget of one slab of runs


@dataclass
class BatchResult:
    """Per-run results for one batch; arrays are indexed by run."""

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
    """Simulate one run per seed and return per-run metrics.

    Splits the batch into memory-bounded slabs that write into the rows of
    one preallocated result; results are identical to running each seed
    alone because every run draws only from its own generator.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    r, n, p, lam = len(seeds), net.N, 1 << M, net.config.hub_links
    # strategy tables, one chunk of keys, the pair-wise route temporaries
    # and the (R, T) step records of one run
    per_run = n * S * (2 * p + 8 * CHUNK) + 64 * n + 24 * n * lam + 13 * T
    slab = max(1, min(r, SLAB_BYTES // per_run))

    def per_step(dtype):
        return np.empty((r, T), dtype=dtype) if collect_trace else None

    res = BatchResult(
        avg_cost=np.empty(r),
        congestion_ratio=np.empty(r),
        avg_hub_users=np.empty(r),
        std_hub_users=np.empty(r),
        n_p=np.empty(r, dtype=np.int64),
        ne_best=np.empty(r),
        ne_worst=np.empty(r),
        scale=net.config.scale,
        trace_n_in=per_step(np.int32),
        trace_h=per_step(bool),
        trace_cost=per_step(np.int64),
        final_scores=np.empty((r, n, S)) if collect_scores and mode != "random" else None,
    )
    for start in range(0, r, slab):
        _simulate_slab(net, M, S, mode, T, warmup, seeds, slice(start, start + slab), res)
    return res


def _simulate_slab(
    net: Network,
    M: int,
    S: int,
    mode: str,
    T: int,
    warmup: int,
    seeds: np.ndarray,
    rows: slice,
    res: BatchResult,
) -> None:
    """Simulate seeds[rows] and write their results into res[rows]."""
    cfg = net.config
    n, p, L = net.N, 1 << M, cfg.L
    rngs = [np.random.default_rng(int(s)) for s in seeds[rows]]
    r_count = len(rngs)
    adaptive = mode != "random"

    dests = np.empty((r_count, n), dtype=np.int64)
    mu = np.zeros(r_count, dtype=np.int64)
    if adaptive:
        tables = np.empty((r_count, n, S, p), dtype=bool)
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
        mu[i] = acc

    out_s, inu_s, inc_s = scaled_costs(cfg, route_table(net, np.arange(n), dests))
    l_s = out_s - inu_s
    n_p, best, worst = ne_totals(l_s, out_s, inu_s, L)
    res.n_p[rows] = n_p
    res.ne_best[rows] = best / float(n * cfg.scale)
    res.ne_worst[rows] = worst / float(n * cfg.scale)

    def record(full, dtype):
        return full[rows] if full is not None else np.empty((r_count, T), dtype=dtype)

    nin_rec = record(res.trace_n_in, np.int32)
    h_rec = record(res.trace_h, bool)
    cost_rec = record(res.trace_cost, np.int64)

    ridx = np.arange(r_count)
    if adaptive:
        # (P, R, N, S) layout makes the per-step history gather contiguous
        signed = np.ascontiguousarray(
            (2 * tables.astype(np.int8) - 1).transpose(3, 0, 1, 2)
        )
        del tables
        scores2 = np.zeros((r_count, n, S), dtype=np.float64)  # doubled scores
        sgn_u2 = 2 * np.sign(l_s).astype(np.int8)
        sgn_c2 = 2 * np.sign(out_s - inc_s).astype(np.int8)
        draw_shape = (n, S)  # one tie-break key per strategy
    else:
        draw_shape = (n,)  # one coin per agent
    draws = np.empty((r_count, CHUNK, *draw_shape), dtype=np.float64)
    final = res.final_scores[rows] if res.final_scores is not None else None
    # slab rows still stepping: a slice until a run locks, so records are
    # written through views as long as every run steps
    live = slice(None)

    def outcome(acts, out, inu, inc):
        """Hub users, hub state and total scaled cost of one step's actions."""
        nin = acts.sum(axis=1)
        h = nin > L
        return nin, h, np.where(acts, np.where(h[:, None], inc, inu), out).sum(axis=1)

    for t in range(0, T, CHUNK):
        if adaptive and t:
            hit, acts = _locked_runs(signed, scores2, mu, sgn_u2, sgn_c2, L)
            if len(hit):
                nin, h, cost = outcome(acts, out_s[hit], inu_s[hit], inc_s[hit])
                at = np.arange(r_count)[live]
                done = at[hit]
                nin_rec[done, t:] = nin[:, None]
                h_rec[done, t:] = h[:, None]
                cost_rec[done, t:] = cost[:, None]
                if final is not None:
                    step2 = np.where(h[:, None], sgn_c2[hit], sgn_u2[hit])[:, :, None]
                    step2 = step2 * signed[mu[hit], hit]  # +-2 or 0, as int8
                    final[done] = (scores2[hit] + float(T - t) * step2) / 2.0
                keep = np.ones(len(at), dtype=bool)
                keep[hit] = False
                live, rngs, signed = at[keep], list(compress(rngs, keep)), signed[:, keep]
                scores2, mu, sgn_u2, sgn_c2, out_s, inu_s, inc_s = (
                    a[keep] for a in (scores2, mu, sgn_u2, sgn_c2, out_s, inu_s, inc_s)
                )
                ridx, draws = ridx[: len(live)], draws[: len(live)]
                if not len(live):
                    break
        c = min(CHUNK, T - t)
        for i, rng in enumerate(rngs):
            draws[i, :c] = rng.random((c, *draw_shape))
        for j in range(c):
            if adaptive:
                tmu = signed[mu, ridx]  # (R, N, S) suggestions as +-1
                sel = np.argmax(scores2 + draws[:, j], axis=2)
                acts = np.take_along_axis(tmu, sel[:, :, None], axis=2)[:, :, 0] > 0
            else:
                acts = draws[:, j] < 0.5
            nin, h, cost = outcome(acts, out_s, inu_s, inc_s)
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
    if final is not None:
        final[live] = scores2 / 2.0


def _locked_runs(signed, scores2, mu, sgn_u2, sgn_c2, L):
    """The runs that pass the lock test of the module docstring, with their
    actions: (run indices, (K, N) bool, True taking the hub).

    Only runs whose history is all zeros or all ones can pass condition 2,
    so the test looks at those alone.
    """
    p = len(signed)
    cand = np.flatnonzero((mu == 0) | (mu == p - 1))
    tmu = signed[mu[cand], cand]  # (K, N, S) suggestions as +-1
    s = scores2[cand]
    top = s == s.max(axis=2, keepdims=True)
    up = (top & (tmu > 0)).any(axis=2)  # some top strategy takes the hub
    down = (top & (tmu < 0)).any(axis=2)  # some top strategy keeps out
    h = up.sum(axis=1) > L
    gain2 = np.where(h[:, None], sgn_c2[cand], sgn_u2[cand]) * np.where(up, 1, -1)
    unanimous = (tmu == tmu[:, :, :1]).all(axis=2)
    ok = ((up != down) & ((gain2 >= 0) | unanimous)).all(axis=1)
    ok &= h == (mu[cand] == p - 1)
    return cand[ok], up[ok]
