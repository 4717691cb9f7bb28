"""The lock of runs settled on a cycle of hub states, and its record of them.

Every row's hub states are kept as words, one int64 per row and chunk with
bit j for step k*CHUNK + j (CHUNK < 64). One reader, _changes, marks for
each lag q <= CHUNK/2 the steps whose state differs from the one q steps
back, a word's first q steps comparing with the word before. It gives a
stepped chunk's smallest period (its word alone), whether a locked row kept
its cycle (its word after the one before) and settled's cycle of each run
(all its words). lock_bytes holds the lock's memory terms for the engine.

At each chunk boundary t, a row that the last chunk stepped one by one and
whose chunk of hub states has a smallest period p <= CHUNK/2 takes the lock
test, for p = 1 always and for a longer p when every row of its mode could
then be locked:

1. phase f of the cycle is step t + f, played at the history mu_f with the
   hub state h_f of the last chunk's last period, and mu_p = mu_0;
2. stepping its doubled scores S_0 through the phases under h_f gives each
   phase's scores S_f and the increment over a period, D = S_p - S_0;
3. at every phase, each strategy with its agent's top score in S_f has its
   agent's largest D;
4. every h_f can still come about: h_f = 1 needs the sure agents and the
   keyed ones together above L, and h_f = 0 the sure agents within L;
5. its keyed entries, (S + 13) bytes each, fit in held_room.

At phase f an agent whose top strategies all suggest one action at mu_f is
sure of it; one whose top strategies disagree is keyed. While h follows the
cycle, the doubled scores at phase f of period k are S_f + k*D: the top
strategies grow by their agent's largest D a period and the others by no
more, and doubled scores differ by at least 2 while keys lie in [0, 1), so
every phase keeps its top sets, its sure actions and its keyed agents, and
a keyed agent's key for a top strategy is the dense step's bit for bit.

A locked run with no keyed agent never leaves its cycle: its records are
filled to T from its phases and its row is dropped. Once every live row of
its mode is locked, they are held: each chunk of them is played at once,
choosing among the keyed agents' top strategies with the engine's choice
rule. A held row whose hub states leave the cycle in a chunk is restored
exactly to the chunk's start, S_f + k*D at mu_f, and steps that chunk one
by one; once not every row is locked, the held rows step one by one from
their scores caught up. Which way a row plays changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROW_FIELDS = ("row", "since", "per", "base", "h", "mu", "nin", "cost", "count")
_ENTRY_FIELDS = ("agent", "top", "grow", "code")


@dataclass
class _Cycles:
    """Rows locked on a cycle of hub states. Per row (_ROW_FIELDS): its index
    among the mode's rows, the step its lock began (phase 0), its period p,
    the step from which it is held (-1 while it steps), and for each phase
    f < p, in columns of width CHUNK // 2, the hub state h, the history mu,
    its sure agents' n_in and cost, and its count of keyed agents. Per keyed
    agent and phase (_ENTRY_FIELDS), in (row, phase) order: the agent, its
    top doubled score at the lock and its growth per period, and its
    strategies' suggestions at mu, +-1 for the top ones and 0 else."""

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
        return _Cycles(
            **{name: getattr(self, name)[keep] for name in _ROW_FIELDS},
            **{name: getattr(self, name)[entries] for name in _ENTRY_FIELDS},
        )

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
        times = (b - f + per - 1) // per - (a - f + per - 1) // per
        _, inc = _increments(live, pos, self.h[:, f], self.mu[:, f], self.per)
        return live.scores2[pos] + np.einsum("rf,rfsn->rsn", times, inc)


class _Lock:
    """The lock of one mode's adaptive rows: the engine calls hold before
    it steps a chunk, stepped after and finish after the last. It writes
    the records of the rows it fills or holds into the engine's arrays by
    row: n_in and cost from step off, and final scores when asked for."""

    def __init__(self, T, off, nin_rec, cost_rec, final, chunk, block_bytes, choose):
        self.T, self.off, self.chunk = T, off, chunk
        self.nin_rec, self.cost_rec, self.final = nin_rec, cost_rec, final
        self.block_bytes, self.choose = block_bytes, choose
        self.words = np.zeros((len(nin_rec), -(-T // chunk)), dtype=np.int64)
        self.cycles: _Cycles | None = None
        self.held = False  # whether the locked rows were held in the last chunk
        self.work = None  # the held play's buffers, made once a row is held

    def stepped(self, t, h, dense, live):
        """After the live rows at positions dense stepped chunk t one by one
        with hub states h: record h and, at a boundary before T, unlock the
        locked rows that left their cycles and test the others. Those that
        lock with no keyed agent are filled to T and dropped from live;
        returns whether any was."""
        i = t // self.chunk
        self.words[live.row[dense], i] = word = _pack(h, self.chunk)[:, 0]
        t += self.chunk
        if t >= self.T:
            return False
        still = _changes(word[:, None], self.chunk)[..., 0] == 0  # (rows, lags)
        per = np.where(still.any(axis=1), still.argmax(axis=1) + 1, 0)
        cyc = self.cycles
        if cyc is not None and not self.held:  # every row was stepped
            marks = _changes(self.words[cyc.row, i - 1 : i + 1], self.chunk)
            stay = marks[np.arange(len(cyc)), cyc.per - 1, 1] == 0
            per[np.searchsorted(live.row, cyc.row[stay])] = 0
            if not stay.all():
                cyc = cyc.select(stay)
        # a cycle longer than 1 is tested only when every row could then be
        # locked, and so held
        if len(cyc or ()) + np.count_nonzero(per) < len(live):
            per[per > 1] = 0
        found = _find_cycles(t, h, per, dense, live, self.block_bytes) if per.any() else None
        if found is None:
            self.cycles = cyc
            return False
        fixed = found.count.sum(axis=1) == 0
        keyed = found.select(~fixed)
        self.cycles = cyc.join(keyed) if cyc is not None else keyed
        done = found.select(fixed)
        if done is None:
            return False
        at = np.searchsorted(live.row, done.row)
        # a run with no keyed agent can never leave its cycle: fill its
        # records, each step's phase indexing the flat phase fields
        width = done.h.shape[1]
        phase = np.arange(self.T - t) % done.per[:, None] + width * np.arange(len(done))[:, None]
        rec = phase[:, max(self.off - t, 0) :]
        nin, cost = done.nin.ravel()[rec], done.cost.ravel()[rec]
        self._record(done.row, t, done.h.ravel()[phase], nin, cost)
        if self.final is not None:
            self.final[done.row] = done.advance(live, at, 0, self.T - t) / 2.0
        live.compact(np.delete(np.arange(len(live)), at))
        return True

    def hold(self, t, c, keys, live):
        """Play chunk t of the locked rows when they are every live row,
        with keys the drawn chunk. Returns the positions of the rows to step
        one by one: every row while some is not locked, else those that left
        their cycles in the chunk, unlocked and restored to step t."""
        cyc = self.cycles
        everyone = np.arange(len(live))
        if cyc is None or len(cyc) < len(live):
            if self.held:  # the held rows catch up, and step one by one
                self._restore(cyc.select(cyc.base >= 0), t, live)
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
            self._record(cyc.row, t, nin_c > live.L[at, None], nin_c, cost_c)
        return np.delete(everyone, at)

    def finish(self, live):
        """After the last chunk: the held rows' scores catch up to T, and
        each row's (lock_step, period) is settled's, a block of rows at a
        time."""
        if self.held and self.final is not None:
            self._restore(self.cycles, self.T, live)
        w, block = self.words, max(1, self.block_bytes // (16 * (self.T + 4 * self.chunk)))
        parts = [settled(w[b : b + block], self.chunk, self.T) for b in range(0, len(w), block)]
        return np.concatenate(parts, axis=1)

    def _record(self, rows, t, h, nin, cost):
        """Write the records of rows from chunk boundary t: hub states h,
        (rows, steps), and n_in and cost of the recorded last of them."""
        end = t + h.shape[1]
        self.words[rows, t // self.chunk : -(-end // self.chunk)] = _pack(h, self.chunk)
        start = max(end - nin.shape[1], self.off)
        if start < end:
            steps = slice(start - self.off, end - self.off)
            self.nin_rec[rows, steps] = nin[:, start - end :]
            self.cost_rec[rows, steps] = cost[:, start - end :]

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
        plus its top score at the step, and the others 2 less: no less than
        their own doubled scores give, and below every top strategy's, so the
        choice rule picks what it would among all of them."""
        K, width = cyc.h.shape
        S, n = cyc.code.shape[1], live.lk.shape[1]
        # a block of the chunk's entries at a time, one step's at least
        need = (cyc.count.sum(axis=1) * (c // cyc.per + 1)).sum()
        block = max(n, min(need, self.block_bytes // held_entry(S)))
        if self.work is None or len(self.work[-1]) < block:
            kinds = (np.int64, np.float64, np.int8, bool)
            self.work = [np.empty(S * block, dtype=d) for d in kinds] + [np.empty(block, bool)]
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
        key_at = ((live.slot[at, None] * self.chunk + np.arange(c)) * n * S).ravel()
        save_at = (at[:, None] * 2 * n + h).ravel()
        n_flat, cost_flat, k_flat = n_in.ravel(), cost.ravel(), k.ravel()
        g0 = 0
        while g0 < len(group):
            g1 = max(g0 + 1, int(np.searchsorted(end, start[g0] + block, side="right")))
            part, sz = slice(g0, g1), size[g0:g1]
            m = int(sz.sum())
            if m:
                kidx, chosen, code, others = (a[: S * m].reshape(S, m) for a in self.work[:4])
                acts = self.work[4][:m]
                e = np.arange(m) + np.repeat(first[part] - start[part] + start[g0], sz)
                agent = cyc.agent[e]
                np.copyto(code, np.take(cyc.code, e, axis=0).T)
                np.add(np.repeat(key_at[part], sz) + agent * S, np.arange(S)[:, None], out=kidx)
                np.take(keys, kidx, out=chosen, mode="clip")  # "clip" takes without a buffer
                chosen += cyc.top[e] + np.repeat(k_flat[part], sz) * cyc.grow[e]
                np.equal(code, 0, out=others)
                sink = kidx.view(np.float64)  # kidx was read: 2 less for the others
                np.multiply(others, -2.0, out=sink)
                chosen += sink
                self.choose(chosen[None], code[None], others[None], acts[None])
                save = live.lk.ravel()[np.repeat(save_at[part], sz) + 2 * agent] * acts
                on = np.flatnonzero(sz) + g0
                first_on = start[on] - start[g0]
                n_flat[on] += np.add.reduceat(acts, first_on, dtype=np.int64)
                cost_flat[on] -= np.add.reduceat(save, first_on)
            g0 = g1
        return n_in, cost, ((n_in > live.L[at, None]) == h).all(axis=1)


def _increments(live, pos, h, mu, per):
    """The +-1 suggestions and doubled score increments, (rows, phases, S,
    N), of the live rows at pos at the phases' hub states h and histories
    mu; the increments are 0 from phase per on."""
    tmu = live.signed[mu, live.slot[pos, None]]
    sgn2 = np.where(h[..., None], live.sgn_c2[pos, None], live.sgn_u2[pos, None])
    sgn2 *= (np.arange(h.shape[1]) < per[:, None])[..., None]
    return tmu, sgn2[:, :, None, :] * tmu


def _find_cycles(t, h, per, pos, live, block_bytes):
    """The live rows at positions pos that pass the lock test at chunk
    boundary t, as _Cycles, or None if none does. h is their hub states in
    the chunk before it, (rows, CHUNK), and per a period of h for the rows
    to test and 0 for the others. Phase f of a row's cycle is step t + f."""
    c, width = h.shape[1], h.shape[1] // 2
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
    nin, cost, count = np.zeros((3, len(at), width), dtype=np.int64)
    good = np.ones(len(at), dtype=bool)
    parts = []
    # a block of rows at a time, every phase at once: (rows, phases, S, N)
    # arrays of the doubled scores at each phase and of its increments
    block = max(1, block_bytes // (8 * per.max() * S * n))
    for b in range(0, len(at), block):
        k = slice(b, b + block)
        a, p = at[k], per[k].max()
        on = phase[:p] < per[k, None]  # (rows, phases)
        hk = hp[k, :p]
        tmu, inc = _increments(live, a, hk, mus[k, :p], per[k])
        s = np.empty(inc.shape)  # each phase's doubled scores
        s[:, 0] = live.scores2[a]
        for f in range(1, p):
            np.add(s[:, f - 1], inc[:, f - 1], out=s[:, f])
        grow = inc.sum(axis=1, dtype=np.int8)  # the increment over a period, D
        most = grow.max(axis=1)
        best = s.max(axis=2)
        top = s == best[:, :, None]
        good[k] &= ~(top & (grow != most[:, None])[:, None]).reshape(len(a), -1).any(axis=1)
        code = top * tmu  # +-1 for the top strategies' suggestions, 0 for the others
        up, down = code.max(axis=2) > 0, code.min(axis=2) < 0
        sure = up & ~down
        keyed = up & down & on[..., None]
        nin[k, :p] = sure.sum(axis=2)
        save = np.where(hk[..., None], live.lk[a, None, :, 1], live.lk[a, None, :, 0])
        cost[k, :p] = live.out_sum[a, None] - (sure * save).sum(axis=2)
        count[k, :p] = keyed.sum(axis=2)
        i, f, j = np.nonzero(keyed)  # in (row, phase, agent) order
        code = code.transpose(0, 1, 3, 2)[i, f, j]
        parts.append((j.astype(np.int32), best[i, f, j], most[i, j].astype(np.int8), code))
    # every phase's hub state can still come about
    lim = live.L[at, None]
    good &= (np.where(hp, nin + count > lim, nin <= lim) | (phase >= per[:, None])).all(axis=1)
    # its keyed entries fit in the room a held row has for them
    good &= (S + 13) * count.sum(axis=1) <= held_room(n, S)
    if not good.any():
        return None
    agent, top, grow, code = (np.concatenate(x) for x in zip(*parts))
    found = _Cycles(live.row[at], np.full(len(at), t), per, np.full(len(at), -1), hp, mus, nin,
                    cost, count, agent, top, grow, code)
    return found if good.all() else found.select(good)


def _pack(h, chunk):
    """Hub states h, (rows, steps), as words: bit j of word i is step
    i*chunk + j."""
    rows, steps = h.shape
    k = -(-steps // chunk)
    if steps < k * chunk:
        h = np.concatenate((h, np.zeros((rows, k * chunk - steps), dtype=bool)), axis=1)
    return (h.reshape(rows, k, chunk) << np.arange(chunk)).sum(axis=2)


def _changes(words, chunk):
    """The reader of hub-state words, (rows, k): for each lag q = 1 ..
    chunk // 2, the steps whose state differs from the one q steps back, as
    words, (rows, lags, k). Word 0's first q steps compare with none."""
    q = np.arange(1, chunk // 2 + 1)
    before = np.zeros_like(words)  # the word before each; word 0's is masked
    before[:, 1:] = words[:, :-1]
    back = (words[:, None] << q[:, None]) | (before[:, None] >> (chunk - q[:, None]))
    marks = (words[:, None] ^ back) & ((1 << chunk) - 1)
    marks[..., 0] &= ~((1 << q) - 1)
    return marks


def settled(words, chunk, T):
    """Each run's cycle, as rows lock_step and period, from its hub-state
    words (runs, k) of T steps alone: the smallest p <= chunk // 2 whose
    p-periodic tail holds a whole chunk ending before T, and the end of the
    first such chunk; T and 0 where none does. (A smaller period of that
    chunk would divide p, by Fine and Wilf.) Temporaries take about 16
    bytes a run and step, and 64 a run and lag."""
    k, lag = words.shape[1], np.arange(1, chunk // 2 + 1)
    marks = _changes(words, chunk)
    marks[..., -1] &= (1 << (T - (k - 1) * chunk)) - 1  # no step from T on
    # each lag's last change, in its last marked word, starts its periodic
    # tail lag - 1 steps later
    i = k - 1 - (marks[..., ::-1] != 0).argmax(axis=2)
    word = np.take_along_axis(marks, i[..., None], axis=2)[..., 0]
    bits = np.unpackbits(word.astype("<i8")[..., None].view(np.uint8), axis=-1, bitorder="little")
    last = np.where(word != 0, i * chunk + 63 - bits[..., ::-1].argmax(axis=-1), -1)
    step = (-(-np.maximum(last - lag + 1, 0) // chunk) + 1) * chunk
    ok = step < T
    first, on = ok.argmax(axis=1), ok.any(axis=1)
    return np.stack((np.where(on, step[np.arange(len(words)), first], T), (first + 1) * on))


def held_entry(S):
    """Bytes of a keyed entry in the held play's five buffers."""
    return 18 * S + 1


def held_room(n, S):
    """Bytes a held row's keyed entries may take, (S + 13) each: the copies
    of its scores, keys and savings it takes if stepped while others are
    held."""
    return 16 * n * (S + 1)


def lock_bytes(n, S, T, chunk, block_bytes):
    """Rough peak bytes of the lock at N = n, as (bytes whatever its rows,
    bytes each row adds: hub-state words, a chunk's test, its phases and
    held_room). The first is the largest of the lock test's block, one
    row's phases, the held play's buffers and settled's block of rows."""
    width = chunk // 2
    held = (held_entry(S) + 56) * max(n, block_bytes // held_entry(S))  # 56: temporaries
    fixed = max(3 * block_bytes // 2, 12 * width * S * n, held, 16 * (T + 4 * chunk))
    per_row = 8 * -(-T // chunk) + 24 * chunk + 33 * width + held_room(n, S)
    return fixed, per_row
