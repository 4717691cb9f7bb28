"""The lock of runs settled on a cycle of hub states, and its record of them.

Every row's hub states are kept as words, one int64 per row and chunk with
bit j for step k*CHUNK + j (CHUNK < 64). One reader, _changes, marks for
each lag q <= CHUNK/2 the steps whose state differs from the one q steps
back, a word's first q steps comparing with the word before. It gives a
stepped chunk's smallest period (its word alone) and settled's cycle of
each run (all its words). lock_bytes holds the lock's memory terms for the
engine.

At each chunk boundary t, a row that the last chunk stepped one by one and
whose chunk of hub states has a smallest period p <= CHUNK/2 takes the lock
test, for p = 1 always and for a longer p when every row of its mode could
then be locked:

1. phase f of the cycle is step t + f, played at the history mu_f with the
   hub state h_f of the last chunk's last period;
2. stepping its doubled scores S_0 through the phases under h_f gives each
   phase's scores S_f and the increment over a period, D = S_p - S_0;
3. at every phase, each strategy with its agent's top score in S_f has its
   agent's largest D;
4. every h_f can still come about: h_f = 1 needs the sure agents and the
   keyed ones together above L, and h_f = 0 the sure agents within L;
5. its keyed entries, entry_bytes(S) each, fit in held_room.

The history returns after a period, mu_p = mu_0, with no test: the chunk is
p-periodic and mu_0 is its last M states, M <= CHUNK, so the last M states
of the chunk followed by a period of its own are those M states again.

At phase f an agent whose top strategies all suggest one action at mu_f is
sure of it; one whose top strategies disagree is keyed. While h follows the
cycle, the doubled scores at phase f of period k are S_f + k*D: the top
strategies grow by their agent's largest D a period and the others by no
more, and doubled scores differ by at least 2 while keys lie in [0, 1), so
every phase keeps its top sets, its sure actions and its keyed agents, and
a keyed agent's key for a top strategy is the dense step's bit for bit.

A locked run with no keyed agent never leaves its cycle: its records are
filled to T from its phases and its row is dropped. The others are held all
or none: when they are every live row left, they are held from t, the held
set's start, and played a chunk at a time; else they are unlocked at once
and step on. When a held row's hub states leave the cycle in a chunk, every
held row is restored exactly to the chunk's start, S_f + k*D at mu_f, the
held set is dropped, and every live row steps that chunk one by one. So no
locked row steps, and every row of a held set locked at its start. A row
that stays on its cycle takes the test again at each boundary and passes
it, as its phases keep their top sets, sure actions and keyed agents; only
the number of tests depends on this. Which way a row plays changes no
result.

The held play follows a plan made when its set is found. Its rows are
ordered by p, as rows of one p are at the same phase at every step, and cut
into blocks of such rows. A keyed entry (row, phase, agent) keeps what its
plays need: the offset of its agent's keys in a chunk of keys at its
phase's step, its top doubled score c at period 0 and growth a period (c +
k*grow at period k), its strategies' codes (+-1 for the top ones, 0 else)
and its saving inside at its phase's hub state. A chunk plays each block as
repetitions of its period: each gathers the block's keys at the offsets
shifted by the repetition's first step, and multiplies them by the codes,
so that a max and a min over the strategies give each entry's largest
in-key kin and largest out-key kout; a repetition cut by the chunk's edge
plays the entries of its phases in the chunk. As x -> fl(c + x) is
monotone, the dense step's largest key among the top strategies that go
inside is fl(c + kin), and among those that keep out fl(c + kout), and the
others' keys lie below both, since their doubled scores are at least 2
less. So the agent goes inside exactly when fl(c + kin) > fl(c + kout), and
keeps out when it is less. Where the two are equal, keys that differ may
round to one sum at large c, and the dense step plays its first strategy of
that sum: those entries alone go through the engine's choice rule over
their strategies' sums, the others 2 below their top score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROW_FIELDS = ("row", "per", "h", "mu", "nin", "cost", "count")
_ENTRY_FIELDS = ("key", "top", "grow", "code", "save")


@dataclass
class _Cycles:
    """Rows locked on a cycle of hub states at one chunk boundary, whose
    step is phase 0. Per row (_ROW_FIELDS): its index among the mode's rows,
    its period p, and for each phase f < p, in columns of width CHUNK // 2,
    the hub state h, the history mu, its sure agents' n_in and cost, and its
    count of keyed agents. Per keyed agent and phase (_ENTRY_FIELDS), in
    (row, phase) order: the offset of its keys in a chunk of keys, (seeds,
    CHUNK, N, S), at the phase's step of the chunk, its top doubled score at
    period 0 and its growth per period, its strategies' suggestions at mu,
    +-1 for the top ones and 0 else, and its saving inside at h. plan is the
    held play's, made when these rows are held."""

    row: np.ndarray
    per: np.ndarray
    h: np.ndarray
    mu: np.ndarray
    nin: np.ndarray
    cost: np.ndarray
    count: np.ndarray
    key: np.ndarray
    top: np.ndarray
    grow: np.ndarray
    code: np.ndarray  # (S, entries)
    save: np.ndarray
    plan: list | None = None

    def __len__(self) -> int:
        return len(self.row)

    def select(self, rows: np.ndarray) -> _Cycles | None:
        """The rows at indices rows, or where rows is True, in that order,
        with their entries; None for none."""
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        if not len(rows):
            return None
        size = self.count.sum(axis=1)
        first, size = (np.cumsum(size) - size)[rows], size[rows]
        entries = np.repeat(first - (np.cumsum(size) - size), size) + np.arange(size.sum())
        return _Cycles(
            **{name: getattr(self, name)[rows] for name in _ROW_FIELDS},
            **{name: getattr(self, name)[..., entries] for name in _ENTRY_FIELDS},
        )

    def grouped(self) -> _Cycles:
        """These rows ordered by per, so that rows which play alike are
        neighbours."""
        order = np.argsort(self.per, kind="stable")
        return self if (order == np.arange(len(order))).all() else self.select(order)

    def advance(self, live, pos, b):
        """The doubled scores of these rows, at positions pos of the live
        rows' scores, where they stand at phase 0, b steps later: phase f
        adds its increment once for each step s < b with s % p == f."""
        f = np.arange(self.per.max())
        per = self.per[:, None]
        times = (b - f + per - 1) // per
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
        self.cycles: _Cycles | None = None  # the held set
        self.start = None  # the step from which the held set is held, else None

    def stepped(self, t, h, live):
        """After the live rows stepped chunk t one by one with hub states h:
        record h and, at a boundary before T, test the rows whose chunk is
        periodic. Those that lock with no keyed agent are filled to T and
        dropped from live, and those with keyed agents are held from the
        boundary when they are every live row left; returns whether any row
        was dropped."""
        word = _pack(h, self.chunk)[:, 0]
        self.words[live.row, t // self.chunk] = word
        t += self.chunk
        if t >= self.T:
            return False
        marks = _changes(word[:, None], self.chunk)[..., 0]  # the chunk's own period
        still = marks >> np.arange(1, self.chunk // 2 + 1) == 0  # (rows, lags)
        per = np.where(still.any(axis=1), still.argmax(axis=1) + 1, 0)
        # a cycle longer than 1 is tested only when every row could then be
        # locked, and so held
        if np.count_nonzero(per) < len(live):
            per[per > 1] = 0
        found = _find_cycles(t, h, per, live, self.block_bytes) if per.any() else None
        if found is None:
            return False
        fixed = found.count.sum(axis=1) == 0
        if len(found) == len(live) and not fixed.all():  # held only as every live row
            S, n = live.scores2.shape[1:]
            self.cycles, self.start = found.select(~fixed).grouped(), t
            self.cycles.plan = _plan(self.cycles, self._cap(n, S))
        done = found.select(fixed)
        if done is None:
            return False
        at = np.searchsorted(live.row, done.row)
        # a run with no keyed agent can never leave its cycle: fill its
        # records, each step's phase, read once per period, indexing the
        # flat phase fields
        width = done.h.shape[1]
        pers, which = np.unique(done.per, return_inverse=True)
        phase = (np.arange(self.T - t) % pers[:, None])[which]
        phase += width * np.arange(len(done))[:, None]
        rec = phase[:, max(self.off - t, 0) :]
        nin, cost = done.nin.ravel()[rec], done.cost.ravel()[rec]
        self._record(done.row, t, done.h.ravel()[phase], nin, cost)
        if self.final is not None:
            self.final[done.row] = done.advance(live, at, self.T - t) / 2.0
        live.compact(np.delete(np.arange(len(live)), at))
        return True

    def hold(self, t, c, keys, live):
        """Play chunk t of the held set, every live row, with keys the drawn
        chunk, and return whether it was held. When some row left its cycle
        in the chunk, every row is restored to step t and the set is
        dropped: the live rows then step the chunk one by one."""
        cyc = self.cycles
        if cyc is None:
            return False
        at = np.searchsorted(live.row, cyc.row)
        nin_c, cost_c, ok = self._play(cyc, t, c, keys, live, at)
        if not ok.all():
            self._restore(cyc, t, live)
            self.cycles = self.start = None
            return False
        self._record(cyc.row, t, nin_c > live.L[at, None], nin_c, cost_c)
        return True

    def finish(self, live):
        """After the last chunk: the held rows' scores catch up to T, and
        each row's (lock_step, period) is settled's, a block of rows at a
        time."""
        if self.start is not None and self.final is not None:
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
        rows' state, where their scores stand at step start."""
        at = np.searchsorted(live.row, cyc.row)
        live.scores2[at] = cyc.advance(live, at, t - self.start)
        live.mu[at] = cyc.mu[np.arange(len(cyc)), (t - self.start) % cyc.per]

    def _cap(self, n, S):
        """Keyed entries the held play takes at once, over its repetitions,
        at N = n: as many as keep their temporaries within the lock test's
        block, and one phase of every agent at least."""
        return max(n, 3 * self.block_bytes // (2 * held_entry(S)))

    def _play(self, cyc, t, c, keys, live, at):
        """The n_in and cost of the c steps of chunk t of the held rows cyc,
        at positions at of the live rows, (rows, c) each, and whether every
        step's hub state was the cycle's, (rows,).

        A step's n_in and cost are its phase's plus the keyed agents that
        its keys send inside. Each block of cyc.plan plays as repetitions of
        its period, as many at once as keep its entries within _cap, each
        gathering its keys at the block's offsets from its first step on;
        a repetition that the chunk cuts plays the entries of its phases in
        the chunk."""
        K, width = cyc.h.shape
        u = t - self.start  # steps since phase 0
        phase = np.arange(K)[:, None] * width + (u + np.arange(c)) % cyc.per[:, None]
        n_in, cost, h = cyc.nin.ravel()[phase], cyc.cost.ravel()[phase], cyc.h.ravel()[phase]
        n, S = keys.shape[2:]
        flat, cap = keys.ravel(), self._cap(n, S)
        for per, e0, e1, starts, seg_row, seg_f in cyc.plan:
            # repetition r has phase 0 at step first[r] of the chunk, and its
            # top scores are period k[r]'s
            first = np.arange(-(u % per), c, per)
            k = u // per + np.arange(len(first))
            at0 = seg_row * c + seg_f  # each segment's record at its phase's step
            inner = (first >= 0) & (first + per <= c)
            whole = np.flatnonzero(inner)
            if len(whole):
                offsets = cyc.key[e0:e1] + np.arange(S)[:, None]  # (S, entries)
                step = max(1, cap // (e1 - e0))
                for b in range(0, len(whole), step):
                    r = whole[b : b + step]
                    got = np.empty((len(r), *offsets.shape))
                    for i, j in enumerate(first[r] * n * S):
                        np.take(flat[j:], offsets, out=got[i], mode="clip")  # "clip": unbuffered
                    rec = at0 + first[r, None]
                    self._add(cyc, slice(e0, e1), got, k[r], starts, rec, n_in, cost)
            for r in np.flatnonzero(~inner):
                on = (seg_f >= -first[r]) & (seg_f < c - first[r])
                if on.any():
                    size = np.diff(starts, append=e1 - e0)
                    e = e0 + np.flatnonzero(np.repeat(on, size))
                    offsets = cyc.key[e] + first[r] * n * S + np.arange(S)[:, None]
                    got = np.take(flat, offsets, mode="clip")[None]
                    kept = size[on]
                    rec = at0[on] + first[r]
                    self._add(cyc, e, got, k[[r]], np.cumsum(kept) - kept, rec, n_in, cost)
        return n_in, cost, ((n_in > live.L[at, None]) == h).all(axis=1)

    def _add(self, cyc, e, keys, k, starts, rec, n_in, cost):
        """Add to n_in and cost, (rows, c), the keyed entries e of cyc that
        go inside in repetitions of periods k, whose keys are keys, (reps,
        S, entries). starts are e's (row, phase) segments, as positions in
        e, and rec their records' flat positions in each repetition."""
        top = cyc.top[e] + k[:, None] * cyc.grow[e]
        inside = _keyed_choice(top, keys, cyc.code[:, e], self.choose)
        rec = rec.ravel()
        n_in.ravel()[rec] += np.add.reduceat(inside, starts, axis=1, dtype=np.int64).ravel()
        cost.ravel()[rec] -= np.add.reduceat(inside * cyc.save[e], starts, axis=1).ravel()


def _keyed_choice(top, keys, code, choose):
    """Whether each keyed entry goes inside, (reps, entries): top is its
    top strategies' doubled score, keys (reps, S, entries) its strategies'
    keys, which it overwrites, and code (S, entries) their suggestions, +-1
    for the top strategies and 0 for the others. It goes inside when the
    largest key of a top strategy suggesting so, fl(top + kin), beats the
    largest of one keeping out, fl(top + kout); where they are equal,
    choose, the engine's choice rule, picks among its strategies' sums, the
    others' 2 below."""
    signed = np.multiply(keys, code, out=keys)  # the in-keys, the out-keys negated, and 0
    kin = np.maximum.reduce(signed, axis=1)
    kin += top
    kout = np.minimum.reduce(signed, axis=1)  # -kout
    np.subtract(top, kout, out=kout)
    inside = kin > kout
    tie = kin == kout
    if tie.any():
        r, e = np.nonzero(tie)
        tied = code[:, e]
        # a top strategy's key is its signed key times its code, exactly
        sums = np.where(tied == 0, top[r, e] - 2, top[r, e] + signed[r, :, e].T * tied)
        out = np.empty((1, len(e)), dtype=bool)
        inside[r, e] = choose(sums[None], tied[None], np.empty((1, *sums.shape), bool), out)[0]
    return inside


def _plan(cyc, cap):
    """The held play's plan of cyc, whose rows are grouped by per: a list of
    blocks of neighbouring rows of one per, cut where the entries before a
    row pass a multiple of cap, each as (per, first and end entries, and for
    each of its nonempty (row, phase) segments its first entry within the
    block, its row and its phase)."""
    size = cyc.count.sum(axis=1)
    first = np.cumsum(size) - size
    cut = np.flatnonzero((np.diff(cyc.per) != 0) | (np.diff(first // cap) != 0)) + 1
    seg_row, seg_f = np.nonzero(cyc.count)
    seg_size = cyc.count[seg_row, seg_f]
    seg_first = np.cumsum(seg_size) - seg_size
    plan = []
    for r0, r1 in zip(np.r_[0, cut], np.r_[cut, len(cyc)]):
        e0, e1 = first[r0], first[r1 - 1] + size[r1 - 1]
        if e0 < e1:
            s = slice(*np.searchsorted(seg_row, [r0, r1]))
            segs = seg_first[s] - e0, seg_row[s], seg_f[s]
            plan.append((int(cyc.per[r0]), int(e0), int(e1), *segs))
    return plan


def _increments(live, pos, h, mu, per):
    """The +-1 suggestions and doubled score increments, (rows, phases, S,
    N), of the live rows at pos at the phases' hub states h and histories
    mu; the increments are 0 from phase per on."""
    tmu = live.signed[mu, live.slot[pos, None]]
    sgn2 = np.where(h[..., None], live.sgn_c2[pos, None], live.sgn_u2[pos, None])
    sgn2 *= (np.arange(h.shape[1]) < per[:, None])[..., None]
    return tmu, sgn2[:, :, None, :] * tmu


def _find_cycles(t, h, per, live, block_bytes):
    """The live rows that pass the lock test at chunk boundary t, as
    _Cycles, or None if none does. h is their hub states in the chunk before
    it, (rows, CHUNK), and per a period of h for the rows to test and 0 for
    the others. Phase f of a row's cycle is step t + f."""
    c, width = h.shape[1], h.shape[1] // 2
    at = np.flatnonzero(per)
    per = per[at]
    # phase f is step t + f, for f < width: h repeats the chunk's last period,
    # and mu is the history before it
    phase = np.arange(width)
    hp = h[at[:, None], c - per[:, None] + phase % per[:, None]]
    bits = (hp << (width - 1 - phase)).sum(axis=1)
    mus = (live.mu[at, None] << phase) | (bits[:, None] >> (width - phase))
    mus &= len(live.signed) - 1

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
        key = ((live.slot[a[i]] * c + f) * n + j) * S
        code = code[i, f, :, j].T
        parts.append((key, best[i, f, j], most[i, j].astype(np.int8), code, save[i, f, j]))
    # every phase's hub state can still come about
    lim = live.L[at, None]
    good &= (np.where(hp, nin + count > lim, nin <= lim) | (phase >= per[:, None])).all(axis=1)
    # its keyed entries fit in the room a held row has for them
    good &= entry_bytes(S) * count.sum(axis=1) <= held_room(n, S)
    if not good.any():
        return None
    entries = (np.concatenate(x, axis=-1) for x in zip(*parts))
    found = _Cycles(live.row[at], per, hp, mus, nin, cost, count, *entries)
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
    """Bytes of the held play's temporaries for a keyed entry in one
    repetition: its S keys, signed in place, and its sums."""
    return 8 * S + 48


def entry_bytes(S):
    """Bytes of a keyed entry in _Cycles: its key offset, top score,
    growth, S codes and saving."""
    return S + 25


def held_room(n, S):
    """Bytes a held row's keyed entries may take, entry_bytes(S) each: its
    doubled scores' and keys' bytes when it steps, 16 an agent and strategy,
    and 16 an agent more, so that a held row takes about what a stepped one
    does."""
    return 16 * n * (S + 1)


def lock_bytes(n, S, T, chunk, block_bytes):
    """Rough peak bytes of the lock at N = n, as (bytes whatever its rows,
    bytes each row adds: hub-state words, a chunk's test, its phases, the
    plan's segments and held_room). The first is the largest of the lock
    test's block, one row's phases, the held play's temporaries and
    settled's block of rows. The held play takes at once the entries of
    its cap (_Lock._cap), and one row's more where a block's rows pass it,
    with their S offsets."""
    width = chunk // 2
    cap = max(n, 3 * block_bytes // (2 * held_entry(S))) + held_room(n, S) // entry_bytes(S)
    held = (held_entry(S) + 8 * S) * cap
    fixed = max(3 * block_bytes // 2, 12 * width * S * n, held, 16 * (T + 4 * chunk))
    per_row = 8 * -(-T // chunk) + 24 * chunk + 57 * width + held_room(n, S)
    return fixed, per_row
