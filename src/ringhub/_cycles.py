"""The lock of runs settled on a cycle of hub states.

A run whose hub states settle on a cycle can be locked, and then its steps
need not be played one by one. At each chunk boundary t, a row that the
last chunk stepped one by one and whose chunk of hub states has a smallest
period p <= CHUNK/2 is on a cycle of period p, and it takes the lock test:
for a period of 1 always, and for a longer one when every row of its mode
could then be locked.

1. phase f of the cycle is step t + f, played at the history mu_f with the
   hub state h_f of the last chunk's last period, and mu_p = mu_0;
2. stepping its doubled scores S_0 through the phases under h_f gives each
   phase's scores S_f and the increment over a period, D = S_p - S_0;
3. at every phase, each strategy with its agent's top score in S_f has its
   agent's largest D;
4. every h_f can still come about: h_f = 1 needs the sure agents and the
   keyed ones together above L, and h_f = 0 the sure agents within L;
5. the entries of its keyed agents, (S + 13) bytes for each keyed agent
   and phase, fit in the 16·N·(S + 1) bytes its slab counts for a row's
   copies (see _engine._slab_bytes).

At phase f an agent whose top strategies all suggest one action at mu_f is
sure of it; one whose top strategies disagree is keyed. While h follows the
cycle, the doubled scores at phase f of period k are S_f + k*D: the top
strategies grow by their agent's largest D a period and the others by no
more, and doubled scores differ by at least 2 while keys lie in [0, 1), so
every phase keeps its top sets, its sure actions and its keyed agents. A
keyed agent's key for a top strategy is 2*score + key with the common top
score, bit for bit the dense step's, and the first of the largest wins as
there; no other strategy can.

A locked run with no keyed agent never leaves its cycle: its records are
filled to T from its phases, its row is dropped, and its final scores are
S_0 advanced by T - t steps. (This is the lock of fixed points, p = 1.) A
locked run with keyed agents stays locked while its hub states follow the
cycle, and is unlocked at the boundary after a chunk that left it. Once
every live row of its mode is locked, the locked rows are held: each chunk
of them is played at once, which ends the step loop. A held chunk gathers
the keyed agents' keys from the drawn chunk, chooses among their top
strategies with the engine's choice rule, and sums each step's n_in and
cost from its phase's sums of the sure agents. Where a realised hub state
leaves the cycle anywhere in a held chunk, the row is unlocked, its scores
and history are restored exactly to where the chunk began, S_f + k*D at
mu_f, and it steps that chunk one by one. Once not every row is locked,
the held rows step one by one from their scores caught up to the chunk.
(Held rows with 36-40% keyed agents at N=100 cost about what stepping them
costs: the gain is the step loop's per-step cost when no row is left to
step.) Which way a row plays changes no result.

Apart from the lock, settled() reads each run's cycle from its hub states
alone, for BatchResult.lock_step and period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class _Cycles:
    """Rows locked on a cycle of hub states.

    Per row: its index among the mode's rows, the step its lock began
    (phase 0 of its cycle), its period p, the step from which it is held
    (-1 while it steps one by one: the engine's scores stand for it there),
    and for each phase f < p, in columns of width CHUNK // 2: the hub state
    h, the history mu the phase is played at, the n_in and the cost of its
    sure agents, and its count of keyed agents. Then one entry per keyed
    agent and phase, in (row, phase) order: the agent, its top doubled
    score at the lock and that score's growth per period, and its
    strategies' suggestions at mu, +-1 for its top strategies and 0 for the
    others.
    """

    row: np.ndarray
    since: np.ndarray
    per: np.ndarray
    base: np.ndarray
    h: np.ndarray
    mu: np.ndarray
    nin: np.ndarray
    cost: np.ndarray
    count: np.ndarray
    agent: np.ndarray
    top: np.ndarray
    grow: np.ndarray
    code: np.ndarray  # (entries, S)

    def __len__(self) -> int:
        return len(self.row)

    def select(self, keep: np.ndarray) -> _Cycles | None:
        """The rows where keep is True, with their entries; None for none."""
        if not keep.any():
            return None
        entries = np.repeat(keep, self.count.sum(axis=1))
        fields = list(vars(self).values())
        return _Cycles(*(a[keep] for a in fields[:9]), *(a[entries] for a in fields[9:]))

    def join(self, other: _Cycles | None) -> _Cycles:
        if other is None:
            return self
        return _Cycles(*map(np.concatenate, zip(vars(self).values(), vars(other).values())))

    def advance(self, live, pos, a, b):
        """The doubled scores of these rows, at positions pos of the live
        rows' scores, where they are a steps after the lock, b steps after
        it: phase f adds its increment once for each step s in a..b-1 with
        s % p == f."""
        f = np.arange(self.per.max())
        per = self.per[:, None]
        a, b = (np.broadcast_to(x, len(pos))[:, None] for x in (a, b))
        times = np.where(f < per, (b - f + per - 1) // per - (a - f + per - 1) // per, 0)
        inc = np.where(self.h[:, f, None], live.sgn_c2[pos, None], live.sgn_u2[pos, None])
        inc = inc[:, :, None, :] * live.signed[self.mu[:, f], live.slot[pos, None]]
        return live.scores2[pos] + np.einsum("rf,rfsn->rsn", times, inc)


class _Lock:
    """The lock of one mode's adaptive rows, as the module docstring sets
    out. The engine calls test at each chunk boundary, hold before it steps
    a chunk and finish after the last; each takes the engine's live rows.
    The lock writes the records of the rows it fills or holds into the
    engine's arrays, which it is given indexed by row: n_in and cost from
    step off, every hub state, and the final scores when asked for. chunk
    is the engine's CHUNK, block_bytes its bound on temporaries and choose
    its choice rule."""

    def __init__(self, T, off, nin_rec, cost_rec, hub, final, chunk, block_bytes, choose):
        self.T, self.off = T, off
        self.nin_rec, self.cost_rec, self.hub, self.final = nin_rec, cost_rec, hub, final
        self.chunk, self.block_bytes, self.choose = chunk, block_bytes, choose
        self.cycles: _Cycles | None = None
        self.held = False  # whether the locked rows were held in the last chunk
        self.work = None  # the held play's buffers, made once a row is held

    def test(self, t, h, dense, live):
        """At chunk boundary t: h holds the last chunk's hub states of the
        live rows at positions dense, which it stepped one by one. A locked
        row among them stays locked while its hub states followed its
        cycle; the others on a cycle take the lock test. The positions of
        the rows to keep, once those that locked with no keyed agent are
        filled to T; None when every row stays."""
        cyc = self.cycles
        per = _periods(h)
        if cyc is not None and not self.held:  # every row was stepped
            at = np.searchsorted(live.row, cyc.row)
            phase = (t - h.shape[1] + np.arange(h.shape[1]) - cyc.since[:, None]) % cyc.per[:, None]
            stay = (h[at] == np.take_along_axis(cyc.h, phase, axis=1)).all(axis=1)
            per[at[stay]] = 0
            if not stay.all():
                cyc = cyc.select(stay)
        # a cycle longer than 1 is tested only when every row could then be
        # locked, and so held
        if len(cyc or ()) + np.count_nonzero(per) < len(live):
            per[per > 1] = 0
        found = _find_cycles(t, h, per, dense, live, self.block_bytes) if per.any() else None
        if found is None:
            self.cycles = cyc
            return None
        fixed = found.count.sum(axis=1) == 0
        keyed = found.select(~fixed)
        self.cycles = cyc.join(keyed) if cyc is not None else keyed
        if not fixed.any():
            return None
        done = found.select(fixed)
        at = np.searchsorted(live.row, done.row)
        # a run with no keyed agent can never leave its cycle: fill its
        # records and drop its row
        phase = np.arange(self.T - t) % done.per[:, None]
        self.hub[done.row, t:] = np.take_along_axis(done.h, phase, axis=1)
        phase = phase[:, max(self.off - t, 0) :]
        fill = max(t - self.off, 0)
        self.nin_rec[done.row, fill:] = np.take_along_axis(done.nin, phase, axis=1)
        self.cost_rec[done.row, fill:] = np.take_along_axis(done.cost, phase, axis=1)
        if self.final is not None:
            self.final[done.row] = done.advance(live, at, 0, self.T - t) / 2.0
        keep = np.ones(len(live), dtype=bool)
        keep[at] = False
        return np.flatnonzero(keep)

    def hold(self, t, c, keys, live):
        """Play the c steps of chunk t of the locked rows, when they are
        every live row, and write their records. keys is the drawn chunk,
        flat, after a leading -inf. Returns the positions of the rows to
        step one by one: every row while some is not locked, else those
        whose hub states left their cycles in the chunk, unlocked and
        restored to step t."""
        cyc = self.cycles
        everyone = np.arange(len(live))
        if cyc is None or len(cyc) < len(live):
            if self.held:  # the held rows catch up, and step one by one
                was = cyc.base >= 0
                self._restore(cyc.select(was), t, live)
                cyc.base[:] = -1
                self.held = False
            return everyone
        self.held = True
        cyc.base[cyc.base < 0] = t
        at = np.searchsorted(live.row, cyc.row)
        nin_c, cost_c, ok = self._play(cyc, t, c, keys, live, at)
        if not ok.all():
            self._restore(cyc.select(~ok), t, live)
            self.cycles = cyc = cyc.select(ok)
            self.held = cyc is not None
            at, nin_c, cost_c = at[ok], nin_c[ok], cost_c[ok]
        if cyc is not None:
            self.hub[cyc.row, t : t + c] = nin_c > live.L[at, None]
            lo = max(self.off - t, 0)  # the chunk's first recorded step
            if lo < c:
                steps = slice(t + lo - self.off, t + c - self.off)
                self.nin_rec[cyc.row, steps] = nin_c[:, lo:]
                self.cost_rec[cyc.row, steps] = cost_c[:, lo:]
        return np.delete(everyone, at)

    def finish(self, live):
        """After the last chunk: the held rows' scores catch up to T."""
        if self.held and self.final is not None:
            self._restore(self.cycles, self.T, live)

    def _restore(self, cyc, t, live):
        """The held rows cyc's scores and histories at step t, into the live
        rows' state, where their scores stand at step base."""
        at = np.searchsorted(live.row, cyc.row)
        live.scores2[at] = cyc.advance(live, at, cyc.base - cyc.since, t - cyc.since)
        live.mu[at] = cyc.mu[np.arange(len(cyc)), (t - cyc.since) % cyc.per]

    def _play(self, cyc, t, c, keys, live, at):
        """The n_in and cost of the c steps of chunk t of the held rows cyc,
        at positions at of the live rows, (rows, c) each, and whether every
        step's hub state was the cycle's, (rows,).

        A step's n_in and cost are its phase's plus the keyed agents that
        its keys send inside. A keyed agent's top strategies get their keys
        plus its top score at the step, and the others the -inf, so the
        choice rule picks what it would among all of them: no other strategy
        can win, as its doubled score is at least 2 lower."""
        K, width = cyc.h.shape
        S, n = cyc.code.shape[1], live.lk.shape[1]
        # a block of the chunk's entries at a time, one step's at least
        need = (cyc.count.sum(axis=1) * (c // cyc.per + 1)).sum()
        block = max(n, min(need, self.block_bytes // (16 * S)))
        if self.work is None or len(self.work[-1]) < block:
            kinds = (np.int64, np.float64, np.int8, bool)
            self.work = tuple(np.empty(S * block, dtype=d) for d in kinds)
            self.work += (np.empty(block, dtype=bool),)
        work = self.work
        steps = (t - cyc.since)[:, None] + np.arange(c)
        phase, k = steps % cyc.per[:, None], steps // cyc.per[:, None]
        # each (row, step) group reads its phase's sums and contiguous
        # entries, its keys from key_at + agent*S on and its savings from
        # lk.ravel()[save_at + 2*agent]
        group = np.arange(K)[:, None] * width + phase
        n_in, cost, h = cyc.nin.ravel()[group], cyc.cost.ravel()[group], cyc.h.ravel()[group]
        group = group.ravel()
        bounds = np.concatenate(([0], np.cumsum(cyc.count)))
        first, size = bounds[group], cyc.count.ravel()[group]
        end = np.cumsum(size)
        start = end - size
        key_at = ((live.slot[at, None] * self.chunk + np.arange(c)) * n * S + 1).ravel()
        save_at = (at[:, None] * 2 * n + h).ravel()
        n_flat, cost_flat, k_flat = n_in.ravel(), cost.ravel(), k.ravel()
        g0 = 0
        while g0 < len(group):
            g1 = max(g0 + 1, int(np.searchsorted(end, start[g0] + block, side="right")))
            part, sz = slice(g0, g1), size[g0:g1]
            m = int(sz.sum())
            if m:
                kidx, chosen, code, mask = (a[: S * m].reshape(S, m) for a in work[:4])
                acts = work[4][:m]
                e = np.arange(m) + np.repeat(first[part] - start[part] + start[g0], sz)
                agent = cyc.agent[e]
                np.copyto(code, np.take(cyc.code, e, axis=0).T)
                np.add(np.repeat(key_at[part], sz) + agent * S, np.arange(S)[:, None], out=kidx)
                np.not_equal(code, 0, out=mask)
                np.multiply(kidx, mask, out=kidx)  # the others read the -inf
                np.take(keys, kidx, out=chosen, mode="clip")
                chosen += cyc.top[e] + np.repeat(k_flat[part], sz) * cyc.grow[e]
                self.choose(chosen[None], code[None], mask[None], acts[None])
                save = live.lk.ravel()[np.repeat(save_at[part], sz) + 2 * agent] * acts
                on = np.flatnonzero(sz) + g0
                first_on = start[on] - start[g0]
                n_flat[on] += np.add.reduceat(acts, first_on, dtype=np.int64)
                cost_flat[on] -= np.add.reduceat(save, first_on)
            g0 = g1
        return n_in, cost, ((n_in > live.L[at, None]) == h).all(axis=1)


def _periods(h):
    """Each row's smallest period q <= CHUNK // 2 of its hub states h,
    (rows, CHUNK): h[j] == h[j - q] for j >= q; 0 where there is none. The
    chunk's states are read as the bits of an int64, so CHUNK < 64."""
    c = h.shape[1]
    lag = np.arange(1, c // 2 + 1)
    bits = (h << np.arange(c)).sum(axis=1)[:, None]
    periodic = ((bits ^ (bits >> lag)) & ((1 << (c - lag)) - 1)) == 0  # (rows, lags)
    return np.where(periodic.any(axis=1), periodic.argmax(axis=1) + 1, 0)


def _find_cycles(t, h, per, pos, live, block_bytes):
    """The live rows at positions pos that pass the lock test at chunk
    boundary t, as _Cycles, or None if none does. h is their hub states in
    the chunk before it, (rows, CHUNK), and per a period of h for the rows
    to test and 0 for the others. Phase f of a row's cycle is step t + f."""
    c = h.shape[1]
    width = c // 2
    r = np.flatnonzero(per)
    per = per[r]
    # phase f is step t + f, for f < width: h repeats the chunk's last period,
    # and mu is the history before it
    phase = np.arange(width)
    hp = h[r[:, None], c - per[:, None] + phase % per[:, None]]
    bits = (hp << (width - 1 - phase)).sum(axis=1)
    ahead = np.arange(width + 1)
    mus = ((live.mu[pos[r], None] << ahead) | (bits[:, None] >> (width - ahead)))
    mus &= len(live.signed) - 1
    back = mus[np.arange(len(r)), per] == mus[:, 0]  # mu returns after a period
    at, per, hp, mus = pos[r[back]], per[back], hp[back], mus[back, :width]
    if not len(at):
        return None

    S, n = live.scores2.shape[1:]
    nin, cost, count = (np.zeros((len(at), width), dtype=np.int64) for _ in range(3))
    good = np.ones(len(at), dtype=bool)
    parts = [(np.zeros(0, np.int32), np.zeros(0), np.zeros(0, np.int8), np.zeros((0, S), np.int8))]
    # a block of rows at a time, every phase at once: (rows, phases, S, N)
    # arrays of the doubled scores at each phase and of its increments
    block = max(1, block_bytes // (8 * per.max() * S * n))
    for b in range(0, len(at), block):
        k = slice(b, b + block)
        a, p = at[k], per[k].max()
        on = phase[:p] < per[k, None]  # (rows, phases)
        hk = hp[k, :p, None]
        tmu = live.signed[mus[k, :p], live.slot[a, None]]
        inc = np.where(hk, live.sgn_c2[a, None], live.sgn_u2[a, None]) * on[..., None]
        inc = inc[:, :, None, :] * tmu
        s = np.empty(inc.shape)  # each phase's doubled scores
        s[:, 0] = live.scores2[a]
        for f in range(1, p):
            np.add(s[:, f - 1], inc[:, f - 1], out=s[:, f])
        grow = s[:, -1] + inc[:, -1] - s[:, 0]  # the increment over a period, D
        most = grow.max(axis=1)
        best = s.max(axis=2)
        top = s == best[:, :, None]
        good[k] &= ~(top & (grow != most[:, None])[:, None]).any(axis=(1, 2, 3))
        code = top * tmu  # +-1 for the top strategies' suggestions, 0 for the others
        up, down = code.max(axis=2) > 0, code.min(axis=2) < 0
        sure = up & ~down
        keyed = up & down & on[..., None]
        nin[k, :p] = sure.sum(axis=2)
        save = np.where(hk, live.lk[a, None, :, 1], live.lk[a, None, :, 0])
        cost[k, :p] = live.out_sum[a, None] - (sure * save).sum(axis=2)
        count[k, :p] = keyed.sum(axis=2)
        i, f, j = np.nonzero(keyed)  # in (row, phase, agent) order
        code = code.transpose(0, 1, 3, 2)[i, f, j]
        parts.append((j.astype(np.int32), best[i, f, j], most[i, j].astype(np.int8), code))
    # every phase's hub state can still come about
    lim = live.L[at, None]
    good &= (np.where(hp, nin + count > lim, nin <= lim) | (phase >= per[:, None])).all(axis=1)
    # its keyed entries fit in the bytes counted for a row's copies
    good &= (S + 13) * count.sum(axis=1) <= 16 * n * (S + 1)
    if not good.any():
        return None
    agent, top, grow, code = (np.concatenate(x) for x in zip(*parts))
    found = _Cycles(
        live.row[at], np.full(len(at), t), per, np.full(len(at), -1),
        hp, mus, nin, cost, count,
        agent, top, grow, code,
    )
    return found if good.all() else found.select(good)


def settled(hub, chunk):
    """Each run's cycle of hub states, from its hub states hub (runs, T):
    (lock_step, period). A run is on a cycle of period p from the end of a
    whole chunk whose smallest period is p <= chunk // 2, while each later
    hub state equals the one p steps back. lock_step is the chunk boundary
    from which the run stayed on one cycle to T, and period its p; they are
    T and 0 where there is none, or only from T. That p is the smallest
    whose longest p-periodic tail of hub states holds a whole chunk ending
    before T, and lock_step the end of the first such chunk: a smaller
    period of that chunk would divide p (Fine and Wilf), and so give a
    tail that holds it. These read the hub states alone, as a trace would
    give them, whatever the lock did. Temporaries take about 32 bytes a run
    and step."""
    runs, T = hub.shape
    lag = np.arange(1, chunk // 2 + 1)
    # back in time from step T - 1: ahead[:, l, i] is step T - 1 - i - l
    back = np.zeros((runs, T + len(lag)), dtype=bool)
    back[:, :T] = hub[:, ::-1]
    ahead = sliding_window_view(back, T, axis=1)
    differ = ahead[:, 1:] != ahead[:, :1]  # (runs, lags, T)
    i = differ.argmax(axis=2)
    last = np.where(np.take_along_axis(differ, i[..., None], axis=2)[..., 0], T - 1 - i, -1)
    # each lag's periodic tail starts at last - lag + 1 (a step before lag
    # compares with none), and the cycle at the end of its first whole chunk
    start = np.maximum(last - lag + 1, 0)
    step = (-(-start // chunk) + 1) * chunk
    ok = step < T
    first = ok.argmax(axis=1)
    on = ok.any(axis=1)
    return np.where(on, step[np.arange(runs), first], T), np.where(on, first + 1, 0)
