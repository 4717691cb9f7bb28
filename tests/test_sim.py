"""Simulator driver tests.

The batched engine must agree bit for bit with the scalar reference loop in
tests/reference.py, a self-contained per-agent loop with its own scalar route
geometry, which shares no geometry or cost code with the engine.
"""

from __future__ import annotations

import _thread
import dataclasses
import math
import os
import re
import signal
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ringhub as rh
from ringhub import _cycles, _engine
from ringhub.equilibrium import scaled_costs

import reference
from reference import best_inside_route, inside_cost, outside_cost, reference_run


def small_config(mode="homogeneous", S=2, L=5, T=40, warmup=10, seed=99):
    net = rh.NetworkConfig(N=12, hub_links=3, L=L)
    return rh.SimConfig(network=net, M=2, S=S, mode=mode, T=T, warmup=warmup, seed=seed)


class TestConfigValidation:
    def test_memory_bounds(self):
        net = rh.NetworkConfig(N=12, hub_links=3, L=5)
        with pytest.raises(ValueError, match="M"):
            rh.SimConfig(network=net, M=0, S=2, mode="homogeneous", T=10, warmup=2, seed=0)
        with pytest.raises(ValueError, match="M"):
            rh.SimConfig(network=net, M=13, S=2, mode="homogeneous", T=10, warmup=2, seed=0)

    def test_chunk_holds_the_longest_memory(self):
        # the lock test takes a chunk's last M hub states as its history
        with pytest.raises(ValueError, match="M"):
            rh.SimConfig(M=_engine.CHUNK + 1)

    def test_strategy_count_positive(self):
        net = rh.NetworkConfig(N=12, hub_links=3, L=5)
        with pytest.raises(ValueError, match="S"):
            rh.SimConfig(network=net, M=2, S=0, mode="homogeneous", T=10, warmup=2, seed=0)

    def test_mode_names(self):
        net = rh.NetworkConfig(N=12, hub_links=3, L=5)
        with pytest.raises(ValueError, match="mode"):
            rh.SimConfig(network=net, M=2, S=2, mode="adaptive", T=10, warmup=2, seed=0)

    def test_warmup_must_leave_measured_steps(self):
        net = rh.NetworkConfig(N=12, hub_links=3, L=5)
        with pytest.raises(ValueError, match="warmup"):
            rh.SimConfig(network=net, M=2, S=2, mode="homogeneous", T=10, warmup=10, seed=0)


    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"M": 2.5}, "M"),
            ({"S": 2.0}, "S"),
            ({"T": 20.5}, "T"),
            ({"warmup": 2.5}, "warmup"),
            ({"seed": 2**63}, "seed"),
            ({"N": 12.0}, "N"),
            ({"hub_links": 3.5}, "hub_links"),
            ({"L": 5.5}, "L"),
            ({"alpha": float("inf")}, "alpha"),
            ({"alpha": 0.3}, "alpha"),
            ({"beta": 0.9}, "beta"),
            # accepted for one step, but T=40 steps of cost sums pass int64
            ({"N": 100, "L": 80, "alpha": Fraction(1, 2**44)}, "alpha"),
            ({"foo": 1}, "foo"),  # no such field
            ({"network": 1}, "network"),
        ],
    )
    def test_rejection_names_the_field(self, changes, field):
        with pytest.raises(ValueError, match=field):
            rh.sim.config_with(small_config(), **changes)

    @pytest.mark.parametrize(
        "build",
        [
            lambda i: rh.SimConfig(
                network=rh.NetworkConfig(N=i(100), L=80, alpha=Fraction(1, 2**44)), T=40, warmup=0
            ),
            lambda i: rh.SimConfig(T=i(2**62), warmup=0),
        ],
        ids=["N", "T"],
    )
    def test_numpy_integers_are_refused_like_python_ints(self, build):
        # as np.int64 the cost-sum bound itself wrapped, with only a warning
        with pytest.raises(ValueError) as want:
            build(int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                build(np.int64)
        assert str(got.value) == str(want.value)

    def test_integer_fields_are_stored_as_python_ints(self):
        net = rh.NetworkConfig(N=np.int64(12), hub_links=np.int32(3), L=np.uint8(5))
        cfg = rh.SimConfig(
            network=net, M=np.int8(2), S=np.int64(3), T=np.int64(40), warmup=np.int16(10),
            seed=np.uint64(7),
        )
        assert cfg == small_config(S=3, seed=7)
        fields = {net: ("N", "hub_links", "L"), cfg: ("M", "S", "T", "warmup", "seed")}
        for obj, names in fields.items():
            for name in names:
                assert type(getattr(obj, name)) is int, name

    @pytest.mark.parametrize(
        "call,field",
        [
            (lambda: rh.run(None), "cfg"),
            (lambda: rh.replicate(None, 2), "cfg"),
            (lambda: rh.sim.replicate_points([1], 2), r"cfgs\[0\]"),
            (lambda: rh.sim.replicate_points(small_config(), 2), "cfgs"),
        ],
        ids=["run-None", "replicate-None", "replicate_points-int", "replicate_points-bare"],
    )
    def test_entry_points_refuse_what_is_not_a_config(self, call, field):
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            call()

    def test_replicate_refuses_seeds_past_int64(self):
        cfg = small_config(seed=2**63 - 1)
        assert rh.replicate(cfg, 1).replications == 1
        with pytest.raises(ValueError, match="R"):
            rh.replicate(cfg, 2)
        with pytest.raises(ValueError, match="R"):
            rh.replicate(small_config(), 2.5)


@st.composite
def priced_configs(draw):
    """Small configs whose price denominators range up to far past int64."""
    n = draw(st.integers(4, 12))
    den = draw(st.one_of(st.integers(1, 16), st.integers(2**40, 2**62)))
    a = draw(st.integers(1, 3 * den))
    b = draw(st.integers(a + 1, 4 * den))
    net = dict(
        N=n,
        hub_links=draw(st.integers(2, n)),
        L=draw(st.integers(1, n)),
        alpha=Fraction(a, den),
        beta=Fraction(b, den),
    )
    return net, draw(st.integers(1, 6))


class TestExactCosts:
    @given(priced_configs())
    @settings(max_examples=60, deadline=None)
    def test_accepted_prices_give_exact_nonnegative_costs(self, params):
        net_kwargs, T = params
        try:
            cfg = rh.SimConfig(
                network=rh.NetworkConfig(**net_kwargs), M=2, S=2, T=T, warmup=0, seed=3
            )
        except ValueError as exc:
            assert "alpha" in str(exc) and "beta" in str(exc)
            return
        net = rh.build_network(cfg.network)
        n, scale = net.N, cfg.network.scale
        origins, dests = np.indices((n, n))
        costs = scaled_costs(cfg.network, rh.route_table(net, origins, dests))
        for o, d in zip(origins.ravel(), dests.ravel()):
            if o == d:
                continue
            route = best_inside_route(int(o), int(d), net)
            want = [
                outside_cost(int(o), int(d), n),
                inside_cost(route, False, net.config.alpha, net.config.beta),
                inside_cost(route, True, net.config.alpha, net.config.beta),
            ]
            got = [Fraction(int(c[o, d]), scale) for c in costs]
            assert got == want
            assert min(got) >= 0

        batch = _engine.simulate_batch(net, 2, 2, "homogeneous", T, 0, [3], collect_trace=True)
        totals = [Fraction(int(c), scale) for c in batch.trace_cost[0]]
        assert totals == reference_run(cfg).total_cost
        assert min(totals) >= 0


class TestSlabs:
    # homogeneous at lambda=3: three of the five runs lock by step 32
    @pytest.mark.parametrize("mode", ["heterogeneous", "random", "homogeneous"])
    def test_many_slabs_equal_one(self, monkeypatch, mode):
        cfg = small_config(mode=mode, S=3, seed=50)
        args = (
            rh.build_network(cfg.network), cfg.M, cfg.S, cfg.mode, cfg.T, cfg.warmup,
            cfg.seed + np.arange(5),
        )
        whole = _engine.simulate_batch(*args, collect_trace=True, collect_scores=True)

        slab_sizes = []

        def spy(net, origins, dests):
            slab_sizes.append(len(dests))
            return rh.route_table(net, origins, dests)

        monkeypatch.setattr(_engine, "route_table", spy)
        monkeypatch.setattr(_engine, "SLAB_BYTES", 1)  # one run per slab
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's calls miss the spy
        split = _engine.simulate_batch(*args, collect_trace=True, collect_scores=True)
        assert slab_sizes == [1] * 5
        assert (whole.final_scores is None) == (mode == "random")
        assert_same_batch(split, whole)

    @pytest.mark.parametrize("mode", rh.sim.MODES)
    @pytest.mark.parametrize("warmup", [0, 6, 57])
    def test_untraced_runs_record_only_the_window(self, monkeypatch, mode, warmup):
        # runs lock at steps 4 to 16: after the measured window starts
        # (warmup 0), on both sides of its start (6) and before it (57)
        monkeypatch.setattr(_engine, "CHUNK", 4)
        net = rh.build_network(rh.NetworkConfig(N=12, hub_links=3, L=8))
        args = (net, 2, 3, mode, 80, warmup, list(range(1, 13)))
        traced = _engine.simulate_batch(*args, collect_trace=True)
        plain = _engine.simulate_batch(*args)
        for name in rh.sim.METRIC_NAMES + ("ne_best", "ne_worst"):
            assert np.array_equal(getattr(plain, name), getattr(traced, name)), name
        assert plain.trace_n_in is None

    @pytest.mark.parametrize("mode", rh.sim.MODES)
    @pytest.mark.parametrize("traced", [True, False])
    def test_row_blocks_equal_one_block(self, monkeypatch, mode, traced):
        # rows that lock are compacted, and the metrics reduced, a row at a time
        monkeypatch.setattr(_engine, "CHUNK", 4)
        args = stacked_args(mode, traced)
        whole = simulate_stack(*args)
        monkeypatch.setattr(_engine, "BLOCK_BYTES", 1)
        assert_same_runs(simulate_stack(*args), whole)

    def test_seed_larger_than_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(_engine, "MEMORY_BYTES", 10_000)
        cfg = small_config(S=3)
        with pytest.raises(ValueError, match="S=3, M=2, N=12 and T=40"):
            _engine.simulate_batch(
                rh.build_network(cfg.network), cfg.M, cfg.S, cfg.mode, cfg.T, cfg.warmup, [1]
            )


class TestMemoryEstimate:
    """One seed's tracemalloc peak stays within the bytes simulate_stacks
    counts for it, which its slab budget and its refusal of a seed larger
    than memory rely on."""

    ALLOWANCE = 256 * 1024  # Python objects and the few (N,) arrays left out

    def one_seed_args(self, case):
        default = rh.SimConfig()
        if case.startswith("M=10,S=16"):
            nets = [rh.build_network(rh.NetworkConfig(N=200, L=160))]
            if case.endswith("every mode"):  # a mixed slab plays its modes in turn
                return (nets * 3, 10, 16, rh.sim.MODES, 200, 100, [1], False, True)
            return (nets, 10, 16, ["heterogeneous"], 200, 100, [1], False, False)
        # each perfbench workload's engine calls, at one seed
        if case.startswith("lambda-sweep"):
            lams = range(2, 101, 16)
            nets = [rh.build_network(rh.NetworkConfig(hub_links=lam)) for lam in lams]
            modes = [mode for mode in case.split()[1].split(",") for _ in lams]
            return (nets * (len(modes) // len(lams)), 2, 8, modes, 1000, 500, [1], False, False)
        if case.startswith("large-ring"):
            net = rh.NetworkConfig(N=1000, hub_links=100, L=800)
            traced = case.endswith("trace")
            return ([rh.build_network(net)], 2, 8, ["homogeneous"], 1000, 500, [1], traced, False)
        cfg = default if case == "replicate-ref" else rh.config_with(
            default, M=8, mode="heterogeneous", hub_links=50
        )
        return ([rh.build_network(cfg.network)], cfg.M, cfg.S, [cfg.mode], cfg.T, cfg.warmup, [1])

    @pytest.mark.parametrize(
        "case",
        [
            "M=10,S=16",
            "M=10,S=16 every mode",
            "replicate-ref",
            "replicate-ref heterogeneous",
            "lambda-sweep homogeneous",
            "lambda-sweep random",
            "lambda-sweep homogeneous,random",
            "large-ring trace",
            "large-ring reps",
        ],
    )
    def test_one_seed_peak_within_estimate(self, monkeypatch, case):
        args = self.one_seed_args(case)
        estimate = TestWorkers.one_seed(monkeypatch, args)
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's memory is its own
        tracemalloc.start()
        try:
            simulate_stack(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate + self.ALLOWANCE, (peak, estimate)

    def test_forty_seeds_peak_within_half_again_of_estimate(self, monkeypatch):
        # lambda-sweep's homogeneous stack at 40 seeds, whose estimate once
        # counted twice its peak and so cut large stacks into twice the slabs
        args = list(self.one_seed_args("lambda-sweep homogeneous"))
        args[6] = list(range(1, 41))
        counted = []
        real = _engine._slab_bytes

        def spy(*args):
            counted.append(real(*args))
            return counted[-1]

        monkeypatch.setattr(_engine, "_slab_bytes", spy)
        monkeypatch.setattr(_engine, "WORKERS", 1)
        tracemalloc.start()
        try:
            simulate_stack(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fixed, per_seed = counted[0]
        estimate = fixed + 40 * per_seed
        assert peak <= estimate + self.ALLOWANCE, (peak, estimate)
        assert estimate <= 1.5 * peak, (peak, estimate)


class KeyCounter:
    """A Generator stand-in that counts the floats drawn from it."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))  # default_rng(seed)
        self.seed = seed
        self.floats = 0

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size=None, out=None):
        self.floats += out.size if out is not None else math.prod(np.atleast_1d(size))
        return self._rng.random(size, out=out)


class CoarseKeys(KeyCounter):
    """A KeyCounter whose floats are rounded down to quarters, so that
    tie-break keys often tie exactly."""

    def random(self, size=None, out=None):
        x = super().random(size, out=out)
        np.floor(x * 4, out=x)
        x /= 4
        return x


def spy_locks(monkeypatch):
    """Each row that passes the engine's lock test, as it does: (boundary,
    period, keyed agent-phases), the rows with none being filled and
    dropped. A forked worker's locks are its own."""
    locks = []
    find = _cycles._find_cycles

    def spy(t, *args):
        found = find(t, *args)
        if found is not None:
            keyed = found.count.sum(axis=1).tolist()
            locks.extend(zip([t] * len(found), found.per.tolist(), keyed))
        return found

    monkeypatch.setattr(_cycles, "_find_cycles", spy)
    return locks


def spy_chunks(monkeypatch):
    """What the caller's engine did with each adaptive chunk, as it does:
    [step, live rows, each held row's ok from the held play or None where
    none played, rows stepped one by one]."""
    chunks = []
    hold, play, step = _cycles._Lock.hold, _cycles._Lock._play, _engine._step

    def spy_hold(self, t, c, keys, live):
        chunks.append([t, len(live), None, 0])
        return hold(self, t, c, keys, live)

    def spy_play(self, *args):
        out = play(self, *args)
        chunks[-1][2] = out[2].tolist()
        return out

    def spy_step(c, draws, grid, signed, slot, *args):
        chunks[-1][3] += len(slot)
        return step(c, draws, grid, signed, slot, *args)

    monkeypatch.setattr(_cycles._Lock, "hold", spy_hold)
    monkeypatch.setattr(_cycles._Lock, "_play", spy_play)
    monkeypatch.setattr(_engine, "_step", spy_step)
    return chunks


def assert_held_all_or_none(chunks):
    """Every chunk was held for every live row, each keeping its cycle, or
    stepped one by one for every live row, after a held play that saw a row
    leave if any played. Returns the steps of those plays."""
    left = []
    for t, live, ok, stepped in chunks:
        if stepped:
            assert stepped == live and (ok is None or not all(ok)), (t, live, ok, stepped)
            if ok is not None:
                left.append(t)
        else:
            assert ok is not None and len(ok) == live and all(ok), (t, live, ok)
    return left


class TestLockedRuns:
    """Runs locked on a cycle of hub states, held a chunk at a time or
    filled to T, give the scalar reference's traces and final scores."""

    @staticmethod
    def run_locked(monkeypatch, chunk, workers, net, S, seeds, T, rng=KeyCounter):
        """The traced runs of net at seeds, each checked against the
        reference, and what the caller's lock did: (batch, plays, locks,
        generators), plays holding each held row-chunk's (step, ok) and
        locks each locked row's (step, period, keyed agent-phases)."""
        monkeypatch.setattr(_engine, "CHUNK", chunk)
        monkeypatch.setattr(_engine, "WORKERS", workers)
        plays, counters = [], []
        play = _cycles._Lock._play

        def spy_play(self, cyc, t, *args):
            out = play(self, cyc, t, *args)
            plays.extend((t, ok) for ok in out[2].tolist())
            return out

        def counting_rng(seed):
            counters.append(rng(seed))
            return counters[-1]

        monkeypatch.setattr(_cycles._Lock, "_play", spy_play)
        locks = spy_locks(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", counting_rng)
            batch = _engine.simulate_batch(
                rh.build_network(net), 2, S, "homogeneous", T, 10, seeds,
                collect_trace=True, collect_scores=True,
            )
            for i, seed in enumerate(seeds):
                cfg = rh.SimConfig(network=net, M=2, S=S, T=T, warmup=10, seed=seed)
                ref = reference_run(cfg)
                assert list(batch.trace_n_in[i]) == ref.n_in, seed
                costs = [Fraction(int(c), net.scale) for c in batch.trace_cost[i]]
                assert costs == ref.total_cost, seed
                want = np.stack(ref.final_scores).astype(np.float64)
                assert np.array_equal(batch.final_scores[i], want), seed
        return batch, plays, locks, counters[: len(seeds)]

    @pytest.mark.parametrize("chunk", [4, 32])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_period_one_lock_with_keyed_indifferent_agents(self, monkeypatch, chunk, workers):
        # seed 23 settles uncongested while an agent with l = 0 keeps
        # choosing by its keys between top strategies that disagree; the
        # two runs lock together, so they are held also in one worker
        net = rh.NetworkConfig(N=12, hub_links=3, L=3)
        batch, plays, locks, _ = self.run_locked(monkeypatch, chunk, workers, net, 3, [23, 23], 120)
        assert batch.period.tolist() == [1, 1] and batch.lock_step[0] <= 64
        assert (batch.lock_step[0], 1) in [(t, p) for t, p, keyed in locks if keyed]
        assert plays and all(ok for _, ok in plays[-4:])

    @pytest.mark.parametrize("chunk", [4, 32])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_congested_cycle_leaves_and_locks_again(self, monkeypatch, chunk, workers):
        # at CHUNK=32 seed 8 locks on a period-8 cycle at step 64, is held
        # for two chunks, its keys send it off the cycle in the third, and it
        # locks again at step 224; CHUNK=4 cannot see a period of 8
        net = rh.NetworkConfig(N=20, hub_links=6, L=10)
        batch, plays, locks, _ = self.run_locked(monkeypatch, chunk, workers, net, 4, [8, 8], 256)
        if chunk == 32:
            assert sorted({(t, p) for t, p, keyed in locks if keyed}) == [(64, 8), (224, 8)]
            # held chunks at steps 64, 96, 128 (the roll-back) and 224, for
            # each run the caller plays
            held = [(64, True), (96, True), (128, False), (224, True)]
            assert plays == [x for x in held for _ in range(3 - workers)]
            assert batch.lock_step.tolist() == [224, 224] and batch.period.tolist() == [8, 8]

    @pytest.mark.parametrize("chunk", [4, 32])
    def test_held_run_catches_up_when_another_leaves(self, monkeypatch, chunk):
        # at CHUNK=32 seeds 8 and 17 lock at step 64 and are held together;
        # seed 8 leaves its cycle at step 128, so both are restored to step
        # 128 and step from there one by one, seed 17 still locked. Seed 8
        # locks again at 224, where both are held to T and caught up to it
        caught = []
        restore = _cycles._Lock._restore

        def spy(self, cyc, t, live):
            caught.append((t, cyc.row.tolist()))
            return restore(self, cyc, t, live)

        monkeypatch.setattr(_cycles._Lock, "_restore", spy)
        net = rh.NetworkConfig(N=20, hub_links=6, L=10)
        batch, _, _, _ = self.run_locked(monkeypatch, chunk, 1, net, 4, [8, 17], 256)
        if chunk == 32:  # the rows by period, seed 17's first
            assert caught == [(128, [1, 0]), (256, [1, 0])]
            assert batch.lock_step.tolist() == [224, 64] and batch.period.tolist() == [8, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_held_plan_is_made_again_for_a_new_held_set(self, monkeypatch, workers):
        # test_held_run_catches_up_when_another_leaves' runs at CHUNK=32:
        # seeds 8 and 17 are held together on periods of 8 and 1 from step
        # 64, seed 8 leaves its cycle at step 128 and locks again at 224,
        # where both are held again on a plan made anew
        made, lock = [], []
        plan, hold = _cycles._plan, _cycles._Lock.hold

        def spy_hold(self, *args):
            lock[:] = [self]
            return hold(self, *args)

        def spy(cyc, cap):
            made.append((cyc.row.tolist(), cyc.per.tolist(), lock[0].start))
            return plan(cyc, cap)

        monkeypatch.setattr(_cycles._Lock, "hold", spy_hold)
        monkeypatch.setattr(_cycles, "_plan", spy)
        net = rh.NetworkConfig(N=20, hub_links=6, L=10)
        batch, plays, _, _ = self.run_locked(monkeypatch, 32, workers, net, 4, [8, 17], 256)
        assert batch.lock_step.tolist() == [224, 64] and batch.period.tolist() == [8, 1]
        if workers == 1:  # the rows by period, seed 17's first
            assert made == [([1, 0], [1, 8], 64), ([1, 0], [1, 8], 224)]
            assert (128, False) in plays

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_live_row_is_held_or_none(self, monkeypatch, workers):
        # test_held_run_catches_up_when_another_leaves' runs at CHUNK=32:
        # seed 8 leaves its cycle in the held chunk at step 128, and with it
        # every live row steps that chunk; the caller of two workers holds
        # seed 8 alone
        chunks = spy_chunks(monkeypatch)
        net = rh.NetworkConfig(N=20, hub_links=6, L=10)
        self.run_locked(monkeypatch, 32, workers, net, 4, [8, 17], 256)
        assert assert_held_all_or_none(chunks) == [128]
        assert [t for t, _, ok, stepped in chunks if not stepped] == [64, 96, 224]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_held_period_that_does_not_divide_the_chunk(self, monkeypatch, workers):
        # seed 20 locks on a period of 3 at step 64 with keyed agents and is
        # held to T: every chunk of 32 steps starts at another phase of the
        # cycle than the one before, and the chunk's edges cut repetitions
        net = rh.NetworkConfig(N=12, hub_links=3, L=2)
        batch, plays, locks, _ = self.run_locked(monkeypatch, 32, workers, net, 2, [20, 20], 256)
        assert (64, 3) in [(t, p) for t, p, keyed in locks if keyed]
        assert batch.period.tolist() == [3, 3] and all(ok for _, ok in plays)
        held = sorted({t for t, _ in plays})
        assert held == list(range(64, 256, 32))
        assert [(t - 64) % 3 for t in held] == [0, 2, 1, 0, 2, 1]

    @pytest.mark.parametrize("chunk", [4, 32])
    def test_held_runs_draw_every_chunk_and_filled_runs_stop(self, monkeypatch, chunk):
        # seed 23 of the first network is held with a keyed agent to T; the
        # second network's seed 2 locks with none and its row is dropped
        T, S = 120, 3
        for L, seed, keyed in ((3, 23, True), (8, 2, False)):
            net = rh.NetworkConfig(N=12, hub_links=3, L=L)
            batch, plays, _, (counter,) = self.run_locked(monkeypatch, chunk, 1, net, S, [seed], T)
            per_step = net.N * S
            assert batch.lock_step[0] < T and bool(plays) == keyed
            if keyed:
                assert counter.floats == T * per_step
            else:
                assert counter.floats == batch.lock_step[0] * per_step
                assert counter.floats % (chunk * per_step) == 0

    @pytest.mark.parametrize("chunk", [4, 32])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exact_key_ties_inside_a_held_chunk(self, monkeypatch, chunk, workers):
        # keys in quarters tie often; the runs lock with keyed agents, on a
        # period of 4 at CHUNK=32 and of 1 at CHUNK=4
        tied, holding = [], []
        choose, play = _engine._choose, _cycles._Lock._play

        def spy_choose(keys, tmu, mask, out):
            if holding:
                tied.append(((keys == keys.max(axis=1, keepdims=True)).sum(axis=1) > 1).any())
            return choose(keys, tmu, mask, out)

        def spy_play(self, *args):
            holding.append(True)
            try:
                return play(self, *args)
            finally:
                holding.pop()

        monkeypatch.setattr(_engine, "_choose", spy_choose)
        monkeypatch.setattr(_cycles._Lock, "_play", spy_play)
        net = rh.NetworkConfig(N=12, hub_links=3, L=3)
        seeds = [2, 2] if chunk == 32 else [23, 23]
        _, plays, _, _ = self.run_locked(
            monkeypatch, chunk, workers, net, 3, seeds, 120, CoarseKeys
        )
        assert plays and any(tied)

    def test_stepped_run_that_leaves_its_cycle_is_unlocked(self, monkeypatch):
        # at CHUNK=4 seed 28 locks with keyed agents at step 4 while seed 27
        # steps on, so it is not held and steps one by one too; its keys take
        # it off the cycle before step 8, where its chunk has no period and
        # seed 27 is filled and dropped. It locks again at 12 and is held:
        # held from 8 on the cycle it left, it would miss the reference
        net = rh.NetworkConfig(N=20, hub_links=5, L=12)
        _, plays, locks, _ = self.run_locked(monkeypatch, 4, 1, net, 2, [27, 28], 256)
        assert [(t, p) for t, p, keyed in locks if keyed][:2] == [(4, 1), (12, 1)]
        assert (8, 1, 0) in locks and plays[0][0] == 12

    @pytest.mark.parametrize("chunk", [4, 32])
    def test_keyed_entries_past_the_room_are_not_locked(self, monkeypatch, chunk):
        # test_period_one_lock_with_keyed_indifferent_agents' runs, with no
        # room for a single keyed entry: the guard refuses their cycles, so
        # they step one by one to T
        monkeypatch.setattr(_cycles, "held_room", lambda n, S: S + 12)
        net = rh.NetworkConfig(N=12, hub_links=3, L=3)
        batch, plays, locks, _ = self.run_locked(monkeypatch, chunk, 1, net, 3, [23, 23], 120)
        assert not [lock for lock in locks if lock[2]] and not plays
        assert batch.period.tolist() == [1, 1] and batch.lock_step[0] <= 64

    @pytest.mark.parametrize(
        "mode,L,S",
        [
            # uncongested locks (h=0)
            ("homogeneous", 8, 3),
            ("heterogeneous", 8, 3),
            # congested locks (h=1)
            ("homogeneous", 1, 3),
            ("heterogeneous", 1, 3),
            # one strategy: every agent's strategies agree
            ("homogeneous", 8, 1),
            ("heterogeneous", 1, 1),
        ],
    )
    def test_locked_runs_match_reference(self, monkeypatch, mode, L, S):
        net = rh.NetworkConfig(N=12, hub_links=3, L=L)
        T, seeds = 120, range(1, 21)
        counters = []

        def counting_rng(seed):
            counters.append(KeyCounter(seed))
            return counters[-1]

        monkeypatch.setattr(_engine, "CHUNK", 4)
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's counters are its own
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", counting_rng)
            batch = _engine.simulate_batch(
                rh.build_network(net), 2, S, mode, T, 10, list(seeds),
                collect_trace=True, collect_scores=True,
            )

        # a run that locked stopped drawing keys at a chunk boundary
        per_step = net.N * S
        drawn = [c.floats for c in counters]
        assert all(k % (4 * per_step) == 0 and k <= T * per_step for k in drawn)
        assert any(k < T * per_step for k in drawn)

        for i, seed in enumerate(seeds):
            cfg = rh.SimConfig(network=net, M=2, S=S, mode=mode, T=T, warmup=10, seed=seed)
            ref = reference_run(cfg)
            assert list(batch.trace_n_in[i]) == ref.n_in, seed
            assert list(batch.trace_n_in[i] > net.L) == ref.h, seed
            costs = [Fraction(int(c), net.scale) for c in batch.trace_cost[i]]
            assert costs == ref.total_cost, seed
            want = np.stack(ref.final_scores).astype(np.float64)
            assert np.array_equal(batch.final_scores[i], want), seed


class TestStackedPoints:
    """Networks stacked into one batch equal the same networks run one at a
    time, while each seed's generator is made once per slab."""

    # (hub_links, L) at N=12: L=1 next to L=8, and several lambdas
    POINTS = [(3, 8), (3, 1), (5, 8), (12, 4), (2, 1)]

    @pytest.mark.parametrize("mode", rh.sim.MODES)
    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("slab_bytes", [_engine.SLAB_BYTES, 1])
    def test_stacked_points_equal_single_points(self, monkeypatch, mode, S, slab_bytes):
        nets = [
            rh.build_network(rh.NetworkConfig(N=12, hub_links=lam, L=L)) for lam, L in self.POINTS
        ]
        seeds = [5, 3, 5, 11, 2, 7]
        monkeypatch.setattr(_engine, "CHUNK", 4)
        monkeypatch.setattr(_engine, "SLAB_BYTES", slab_bytes)
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's counters are its own
        counters = []

        def counting_rng(seed):
            counters.append(KeyCounter(seed))
            return counters[-1]

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", counting_rng)
            stacked = simulate_stack(nets, 2, S, [mode] * len(nets), 120, 10, seeds, True, True)

        # one generator per seed, whether the seeds share one slab or not,
        # and no more keys than one point alone reads
        assert [c.seed for c in counters] == seeds
        per_step = 12 * (S if mode != "random" else 1)
        drawn = [c.floats for c in counters]
        assert all(k % (4 * per_step) == 0 and k <= 120 * per_step for k in drawn)

        for runs, net in zip(stacked, nets, strict=True):
            alone = _engine.simulate_batch(net, 2, S, mode, 120, 10, seeds, True, True)
            assert_same_batch(runs, alone)

    def test_some_stacked_rows_lock(self, monkeypatch):
        """The stacked case above steps past locks: a seed whose rows all
        locked stops drawing keys early."""
        monkeypatch.setattr(_engine, "CHUNK", 4)
        counters = []

        def counting_rng(seed):
            counters.append(KeyCounter(seed))
            return counters[-1]

        nets = [rh.build_network(rh.NetworkConfig(N=12, hub_links=3, L=L)) for L in (8, 1)]
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's counters are its own
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        simulate_stack(nets, 2, 3, ["homogeneous"] * 2, 120, 10, range(1, 21))
        assert any(c.floats < 120 * 12 * 3 for c in counters)

    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    def test_stacked_rows_that_lock_match_reference(self, monkeypatch, mode):
        """Each row of a stack in which some rows lock mid-run, and so are
        compacted away while others step on, equals the scalar reference."""
        monkeypatch.setattr(_engine, "CHUNK", 4)
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's locks are its own
        locks = spy_locks(monkeypatch)
        nets = [rh.NetworkConfig(N=12, hub_links=3, L=L) for L in (8, 1)]
        seeds = list(range(1, 9))
        stacked = simulate_stack(
            [rh.build_network(net) for net in nets], 2, 3, [mode] * 2, 60, 10, seeds, True, True
        )
        dropped = [t for t, _, keyed in locks if not keyed]
        assert 0 < len(dropped) < len(nets) * len(seeds)
        assert len(set(dropped)) > 1  # rows lock after others have locked
        self.assert_match_reference(nets, stacked, mode, 60, seeds)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stacked_rows_are_held_all_or_none(self, monkeypatch, workers):
        """test_stacked_rows_that_lock_match_reference's stack at CHUNK=32:
        the caller's live rows are all held at step 64, some leave their
        cycles in that chunk, and so every live row steps it one by one."""
        monkeypatch.setattr(_engine, "CHUNK", 32)
        monkeypatch.setattr(_engine, "WORKERS", workers)
        chunks = spy_chunks(monkeypatch)
        nets = [rh.NetworkConfig(N=12, hub_links=3, L=L) for L in (8, 1)]
        seeds = list(range(1, 9))
        stacked = simulate_stack(
            [rh.build_network(net) for net in nets], 2, 3, ["homogeneous"] * 2, 120, 10, seeds,
            True, True,
        )
        assert assert_held_all_or_none(chunks) == [64]
        self.assert_match_reference(nets, stacked, "homogeneous", 120, seeds)

    @pytest.mark.parametrize("chunk", [4, 32])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_locked_row_steps(self, monkeypatch, chunk, workers):
        """In a stack whose rows lock at different boundaries while others
        step on, a boundary keeps its locked rows only as a held set of
        every live row, each found at the set's start, and the set is gone
        before any row steps again."""
        monkeypatch.setattr(_engine, "CHUNK", chunk)
        monkeypatch.setattr(_engine, "WORKERS", workers)
        found, mixed, held, lock = {}, [], [], []
        find, stepped, play = _cycles._find_cycles, _cycles._Lock.stepped, _cycles._Lock._play

        def spy_find(t, h, per, live, *args):
            out = find(t, h, per, live, *args)
            rows = set() if out is None else set(out.row.tolist())
            found[lock[0], t] = rows
            if 0 < len(rows) < len(live):  # some rows lock while others step on
                mixed.append(t)
            return out

        def spy_stepped(self, t, h, live):
            assert self.cycles is None, t  # no locked row stepped chunk t
            lock[:] = [self]
            out = stepped(self, t, h, live)
            if self.cycles is not None:
                assert self.start == t + chunk, t
                assert sorted(self.cycles.row.tolist()) == sorted(live.row.tolist()), t
            return out

        def spy_play(self, cyc, t, *args):
            held.append(t)
            assert set(cyc.row.tolist()) <= found[self, self.start], (t, self.start)
            return play(self, cyc, t, *args)

        monkeypatch.setattr(_cycles, "_find_cycles", spy_find)
        monkeypatch.setattr(_cycles._Lock, "stepped", spy_stepped)
        monkeypatch.setattr(_cycles._Lock, "_play", spy_play)
        nets = [rh.NetworkConfig(N=12, hub_links=3, L=L) for L in (8, 1)]
        seeds = [5, 3, 5, 11, 2, 7]
        stacked = simulate_stack(
            [rh.build_network(net) for net in nets], 2, 3, ["heterogeneous"] * 2, 120, 10, seeds,
            True, True,
        )
        assert mixed and held
        self.assert_match_reference(nets, stacked, "heterogeneous", 120, seeds)

    @staticmethod
    def assert_match_reference(nets, stacked, mode, T, seeds):
        """Each traced run of the stack of nets equals the scalar reference."""
        for net, runs in zip(nets, stacked, strict=True):
            for i, seed in enumerate(seeds):
                cfg = rh.SimConfig(network=net, M=2, S=3, mode=mode, T=T, warmup=10, seed=seed)
                ref = reference_run(cfg)
                assert list(runs.trace_n_in[i]) == ref.n_in, (net.L, seed)
                costs = [Fraction(int(c), net.scale) for c in runs.trace_cost[i]]
                assert costs == ref.total_cost, (net.L, seed)
                want = np.stack(ref.final_scores).astype(np.float64)
                assert np.array_equal(runs.final_scores[i], want), (net.L, seed)

    def test_refuses_networks_that_differ_in_more(self):
        nets = [rh.build_network(rh.NetworkConfig(N=n, hub_links=3, L=5)) for n in (12, 13)]
        with pytest.raises(ValueError, match="nets"):
            simulate_stack(nets, 2, 2, ["homogeneous"] * 2, 10, 0, [1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_modes_equal_single_modes(self, monkeypatch, workers):
        """A stack of every network in all three modes equals each mode's
        own stack bit for bit, traces and final scores included, while some
        adaptive rows lock and others step on."""
        monkeypatch.setattr(_engine, "CHUNK", 4)
        nets, M, S, _, T, warmup, seeds, _, _ = stacked_args("homogeneous")
        locks = spy_locks(monkeypatch)
        monkeypatch.setattr(_engine, "WORKERS", workers)
        # each network in every mode, interleaved
        mixed = simulate_stack(
            [net for net in nets for _ in rh.sim.MODES], M, S, rh.sim.MODES * len(nets), T,
            warmup, seeds, True, True,
        )
        dropped = [t for t, _, keyed in locks if not keyed]
        assert 0 < len(dropped) < 2 * len(nets) * len(seeds)  # the caller's rows alone
        monkeypatch.setattr(_engine, "WORKERS", 1)
        for m, mode in enumerate(rh.sim.MODES):
            alone = simulate_stack(nets, M, S, [mode] * len(nets), T, warmup, seeds, True, True)
            assert_same_runs(mixed[m :: len(rh.sim.MODES)], alone)

    def test_final_scores_only_for_adaptive_networks(self, monkeypatch):
        """A stack one third random holds final scores for its adaptive
        networks alone, and each network's are its own."""
        nets, M, S, _, T, warmup, seeds, _, _ = stacked_args("homogeneous")
        shapes = []
        real = _engine._shared_empty

        def spy(shape, dtype=np.float64):
            shapes.append(shape)
            return real(shape, dtype)

        monkeypatch.setattr(_engine, "_shared_empty", spy)
        mixed = simulate_stack(
            [net for net in nets for _ in rh.sim.MODES], M, S, rh.sim.MODES * len(nets), T,
            warmup, seeds, True, True,
        )
        adaptive = 2 * len(nets)
        assert [s for s in shapes if len(np.atleast_1d(s)) == 3] == [(adaptive * len(seeds), 12, S)]
        for runs, mode in zip(mixed, rh.sim.MODES * len(nets)):
            assert (runs.final_scores is None) == (mode == "random")
        scored = [runs.final_scores for runs in mixed if runs.final_scores is not None]
        assert not any(np.shares_memory(a, b) for a, b in zip(scored, scored[1:]))

    def test_route_table_once_per_interchange_set(self, monkeypatch):
        """Networks that differ only in L share a ring geometry, so a slab
        prices their trip tables with one route_table call; the results
        are test_stacked_points_equal_single_points'."""
        calls = []

        def spy(net, origins, dests):
            calls.append(net.config.hub_links)
            return rh.route_table(net, origins, dests)

        monkeypatch.setattr(_engine, "route_table", spy)
        monkeypatch.setattr(_engine, "WORKERS", 1)  # a forked worker's calls miss the spy
        nets, M, S, modes, *rest = stacked_args("random")
        simulate_stack(nets * 2, M, S, modes * 2, *rest)
        assert calls == [3, 5, 12, 2]  # POINTS holds (3, 8) and (3, 1)

    def test_refuses_a_mode_count_unlike_the_networks(self):
        nets = [rh.build_network(rh.NetworkConfig(N=12, hub_links=3, L=5))] * 2
        with pytest.raises(ValueError, match="modes: 1 modes for 2 networks"):
            simulate_stack(nets, 2, 2, ["random"], 10, 0, [1])

    def test_replicate_points_groups_mixed_configs(self, monkeypatch):
        """Configs equal but for hub_links, L and mode share one stack, the
        others form stacks of their own, all the stacks run in one engine
        call, and each config's runs are its own batch's, in input order,
        and summarize to replicate's result."""
        lam3 = small_config()
        cfgs = [
            lam3,
            dataclasses.replace(small_config(mode="random"), network=lam3.network),
            rh.sim.config_with(lam3, hub_links=5, L=8),
            dataclasses.replace(lam3, M=3),
            small_config(seed=7),
        ]
        calls = []
        real = _engine.simulate_stacks

        def spy(stacks, *args, **kwargs):
            calls.append([
                [(net.config.hub_links, net.config.L, mode) for net, mode in zip(s[0], s[3])]
                for s in stacks
            ])
            return real(stacks, *args, **kwargs)

        monkeypatch.setattr(_engine, "simulate_stacks", spy)
        got = rh.sim.replicate_points(cfgs, 3)
        assert calls == [[
            [(3, 5, "homogeneous"), (3, 5, "random"), (5, 8, "homogeneous")],
            [(3, 5, "homogeneous")],
            [(3, 5, "homogeneous")],
        ]]
        monkeypatch.setattr(_engine, "simulate_stacks", real)
        for cfg, runs in zip(cfgs, got, strict=True):
            alone = _engine.simulate_batch(
                rh.build_network(cfg.network), cfg.M, cfg.S, cfg.mode, cfg.T, cfg.warmup,
                cfg.seed + np.arange(3),
            )
            assert_same_batch(runs, alone)
            assert rh.sim.summarize(runs) == rh.replicate(cfg, 3)
        assert rh.sim.replicate_points([], 2) == []

    @pytest.mark.parametrize("R", [0, "x", 1.0])
    def test_replicate_points_refuses_a_bad_r_without_configs(self, R):
        with pytest.raises(ValueError, match="R must be an integer >= 1"):
            rh.sim.replicate_points([], R)


def simulate_stack(nets, M, S, modes, T, warmup, seeds, collect_trace=False, collect_scores=False):
    """The engine's results of one stack, one BatchResult per network."""
    stack = (nets, M, S, modes, T, warmup, seeds)
    return _engine.simulate_stacks([stack], collect_trace, collect_scores)[0]


def stacked_args(mode, traced=True):
    """simulate_stack arguments for TestStackedPoints.POINTS in one mode at
    six seeds, whose rows lock at CHUNK=4."""
    nets = [
        rh.build_network(rh.NetworkConfig(N=12, hub_links=lam, L=L))
        for lam, L in TestStackedPoints.POINTS
    ]
    return (nets, 2, 3, [mode] * len(nets), 120, 10, [5, 3, 5, 11, 2, 7], traced, traced)


def assert_same_batch(a, b):
    """Every BatchResult field of a equals b's, with the same dtype."""
    for field in dataclasses.fields(_engine.BatchResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if y is None:
            assert x is None, field.name
        else:
            assert np.array_equal(x, y), field.name
            assert np.asarray(x).dtype == np.asarray(y).dtype, field.name


def assert_same_runs(a, b):
    """a and b hold as many BatchResults, each equal to its counterpart."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert_same_batch(x, y)


@st.composite
def hub_runs(draw):
    """(chunk, runs): a few runs of T hub states each, random, on a periodic
    tail from some step, or constant, at a chunk of 4, 8 or 32 steps."""
    chunk = draw(st.sampled_from([4, 8, 32]))
    T = draw(st.integers(1, 5 * chunk + 3))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        hub = draw(st.lists(st.booleans(), min_size=T, max_size=T))
        kind = draw(st.sampled_from(["random", "periodic tail", "constant"]))
        if kind == "periodic tail":
            cycle = draw(st.lists(st.booleans(), min_size=1, max_size=chunk))
            start = draw(st.integers(0, T))
            hub[start:] = [cycle[i % len(cycle)] for i in range(T - start)]
        elif kind == "constant":
            hub = [hub[0]] * T
        runs.append(hub)
    return chunk, runs


class TestHubWords:
    """The lock's record of hub states, one int64 word per run and chunk,
    read by _cycles._changes, against plain loops over the states."""

    @settings(max_examples=400, deadline=None)
    @given(hub_runs())
    def test_words_read_as_the_states(self, case):
        chunk, runs = case
        T = len(runs[0])
        words = _cycles._pack(np.array(runs, dtype=bool), chunk)
        assert words.shape == (len(runs), -(-T // chunk))
        # each lag's last marked step, read bit by bit from the words
        def last(w):
            return max([i for i in range(T) if w[i // chunk] >> (i % chunk) & 1], default=-1)

        got = [[last(w) for w in run] for run in _cycles._changes(words, chunk).tolist()]
        assert got == [reference.last_changes(hub, chunk) for hub in runs]
        lock_step, period = _cycles.settled(words, chunk, T)
        want = [reference.settled(hub, chunk) for hub in runs]
        assert list(zip(lock_step.tolist(), period.tolist())) == want
        # a whole chunk's word alone marks no step at the lags it repeats at
        for i in range(T // chunk):
            marks = _cycles._changes(words[:, i : i + 1], chunk)[..., 0]
            for hub, got in zip(runs, marks.tolist()):
                states = hub[i * chunk : (i + 1) * chunk]
                want = [states[q:] == states[:-q] for q in range(1, chunk // 2 + 1)]
                assert [m == 0 for m in got] == want


class TestLockDiagnostics:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_large_ring_runs_lock_on_a_period_of_eight(self, monkeypatch, workers):
        # perfbench's large-ring runs: N=1000, lambda=100, L=800, seeds 0
        # and 1, locked from before step 128 to T on the 2*2^M cycle
        # and held from there, in one process as in two
        held = []
        play = _cycles._Lock._play

        def spy(self, cyc, t, c, *args):
            out = play(self, cyc, t, c, *args)
            held.append(c * np.count_nonzero(out[2]))
            return out

        monkeypatch.setattr(_cycles._Lock, "_play", spy)
        monkeypatch.setattr(_engine, "WORKERS", workers)
        net = rh.build_network(rh.NetworkConfig(N=1000, hub_links=100, L=800))
        runs = _engine.simulate_batch(net, 2, 8, "homogeneous", 1000, 500, [0, 1])
        assert runs.period.tolist() == [8, 8]
        assert (runs.lock_step < 128).all()
        assert (1000 - runs.lock_step).sum() >= 0.85 * 2 * 1000  # row-steps on the cycle
        # a forked worker's held chunks are its own: the caller holds seed 0's
        caller = runs.lock_step[: 3 - workers]
        assert sum(held) == (1000 - caller).sum()

    def test_random_runs_never_lock(self):
        net = rh.build_network(rh.NetworkConfig(N=12, hub_links=3, L=8))
        runs = _engine.simulate_batch(net, 2, 3, "random", 40, 10, [1, 2])
        assert runs.lock_step.tolist() == [40, 40] and runs.period.tolist() == [0, 0]


class TestWorkers:
    """Seed groups run in forked workers that write into shared memory; no
    result depends on the number of workers."""

    @staticmethod
    def serial(monkeypatch, args):
        with monkeypatch.context() as m:
            m.setattr(_engine, "WORKERS", 1)
            return simulate_stack(*args)

    @staticmethod
    def spy(monkeypatch, args):
        """The forks, the seeds the calling process simulates, and a shared
        mark on each result row a forked worker simulates."""
        forks, seeds = [], []
        by_worker = _engine._shared_empty(len(args[0]) * len(args[6]), dtype=bool)
        by_worker[:] = False
        caller, real_fork, real_slab = os.getpid(), os.fork, _engine._simulate_slab

        def counting_fork():
            forks.append(1)
            return real_fork()

        def counting_slab(*args):
            if os.getpid() == caller:
                seeds.extend(args[6])
            else:
                by_worker[args[7]] = True
            return real_slab(*args)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(_engine, "_simulate_slab", counting_slab)
        return forks, seeds, by_worker

    @staticmethod
    def one_seed(monkeypatch, args) -> int:
        """The bytes simulate_stacks counts for one seed of args."""
        with monkeypatch.context() as m:
            m.setattr(_engine, "MEMORY_BYTES", 1)
            with pytest.raises(ValueError, match="bytes for one seed") as info:
                simulate_stack(*args)
        return int(re.search(r"about ([\d,]+) bytes", str(info.value)).group(1).replace(",", ""))

    @pytest.mark.parametrize("mode", rh.sim.MODES)
    @pytest.mark.parametrize("slabs", ["one", "one seed each"])
    @pytest.mark.parametrize("workers", [2, 3, 7])  # 7 is more than the seeds
    def test_any_worker_count_equals_one(self, monkeypatch, mode, slabs, workers):
        # stacked points whose rows lock at CHUNK=4, traced and with scores
        monkeypatch.setattr(_engine, "CHUNK", 4)
        args = stacked_args(mode)
        want = self.serial(monkeypatch, args)
        groups = min(workers, len(args[6]))
        if slabs == "one seed each":  # the budget of one seed for each group
            monkeypatch.setattr(_engine, "SLAB_BYTES", groups * self.one_seed(monkeypatch, args))
        forks, seeds, by_worker = self.spy(monkeypatch, args)
        monkeypatch.setattr(_engine, "WORKERS", workers)
        got = simulate_stack(*args)
        here = len(args[6]) // groups
        assert len(forks) == groups - 1
        assert seeds == args[6][:here]
        assert by_worker.sum() == len(args[0]) * (len(args[6]) - here)  # the rest
        assert_same_runs(got, want)

    # from Python 3.12 os.fork warns when a thread of the process outlives it
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_blas_threads_do_not_keep_the_workers_idle(self, monkeypatch):
        a = np.ones((256, 256))
        a @ a  # numpy's BLAS thread pool, where it has one, is running
        args = stacked_args("homogeneous")
        want = self.serial(monkeypatch, args)
        forks, seeds, by_worker = self.spy(monkeypatch, args)
        monkeypatch.setattr(_engine, "WORKERS", 2)
        got = simulate_stack(*args)
        assert (len(forks), seeds, by_worker.sum()) == (1, args[6][:3], len(args[0]) * 3)
        assert_same_runs(got, want)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc thread list")
    def test_a_thread_outliving_the_fork_keeps_the_workers_idle(self, monkeypatch):
        args = stacked_args("heterogeneous")
        want = self.serial(monkeypatch, args)
        forks, seeds, by_worker = self.spy(monkeypatch, args)
        monkeypatch.setattr(_engine, "WORKERS", 3)
        release = _thread.allocate_lock()
        release.acquire()
        before = _engine._threads()
        _thread.start_new_thread(release.acquire, ())  # an OS thread threading does not list
        try:
            assert threading.active_count() == 1
            got = simulate_stack(*args)
        finally:
            release.release()
            deadline = time.monotonic() + 30
            while _engine._threads() > before and time.monotonic() < deadline:
                time.sleep(0.01)
        assert (len(forks), seeds, by_worker.any()) == (1, args[6], False)  # all here
        assert_same_runs(got, want)

    @pytest.mark.parametrize("where", ["worker", "unpicklable", "killed", "caller", "fork"])
    def test_failure_reaches_the_caller_and_leaves_no_child(self, monkeypatch, where):
        class Unpicklable(Exception):  # a local class pickles by no import path
            pass

        caller, real = os.getpid(), _engine._simulate_slab

        def failing(*args):
            in_worker = os.getpid() != caller
            if in_worker and where == "worker":
                raise LookupError("slab failed in a worker")
            if in_worker and where == "unpicklable":
                raise Unpicklable("slab failed in a worker")
            if in_worker and where == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if where == "caller":
                if in_worker:
                    time.sleep(60)  # until the caller's failure kills it
                raise LookupError("slab failed in the caller")
            return real(*args)

        real_fork = os.fork
        forks = []

        def second_fork_fails():  # the first child is forked, the second is not
            forks.append(1)
            if len(forks) > 1:
                raise BlockingIOError("no more processes")
            return real_fork()

        monkeypatch.setattr(_engine, "_simulate_slab", failing)
        monkeypatch.setattr(_engine, "WORKERS", 3)
        if where == "fork":
            monkeypatch.setattr(os, "fork", second_fork_fails)
        want = {
            "worker": (LookupError, "^slab failed in a worker$"),
            "unpicklable": (RuntimeError, "^Unpicklable: slab failed in a worker$"),
            "killed": (RuntimeError, f"exit code {-signal.SIGKILL}$"),
            "caller": (LookupError, "^slab failed in the caller$"),
            "fork": (BlockingIOError, "^no more processes$"),
        }[where]
        start = time.perf_counter()
        with pytest.raises(want[0], match=want[1]) as info:
            simulate_stack(*stacked_args("homogeneous"))
        assert type(info.value) is want[0]
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_stacks_of_any_seed_count_share_one_fork(self, monkeypatch):
        """Stacks of 1, 2 and 6 seeds run in one fork of three workers, the
        workers past a stack's seed count skipping it, and each result
        equals its stack run alone."""
        monkeypatch.setattr(_engine, "CHUNK", 4)
        nets, M, S, modes, T, warmup, seeds, _, _ = stacked_args("heterogeneous")
        stacks = [
            (nets[:2], M, S, modes[:2], T, warmup, seeds[:1]),
            (nets[2:], 3, S, ["random", "homogeneous", "random"], T, warmup, seeds[:2]),
            (nets, M, S, modes, T, warmup, seeds),
        ]
        want = [self.serial(monkeypatch, stack) for stack in stacks]
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(_engine, "WORKERS", 3)
        got = _engine.simulate_stacks(stacks)
        assert len(forks) == 2
        for a, b in zip(got, want, strict=True):
            assert_same_runs(a, b)

    @pytest.mark.parametrize("why", ["thread", "no fork", "budget"])
    def test_stays_serial(self, monkeypatch, why):
        args = stacked_args("heterogeneous")
        want = self.serial(monkeypatch, args)
        monkeypatch.setattr(_engine, "WORKERS", 2)
        if why == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        if why == "budget":  # one seed fits in the serial budget, two do not
            monkeypatch.setattr(_engine, "SLAB_BYTES", 2 * self.one_seed(monkeypatch, args) - 1)
        if why != "thread":
            assert_same_runs(simulate_stack(*args), want)
            return
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            got = simulate_stack(*args)
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert_same_runs(got, want)


def assert_trace_matches_reference(cfg):
    ref = reference_run(cfg)
    batch = _engine.simulate_batch(
        rh.build_network(cfg.network), cfg.M, cfg.S, cfg.mode, cfg.T,
        cfg.warmup, [cfg.seed], collect_trace=True, collect_scores=True,
    )
    assert list(batch.trace_n_in[0]) == ref.n_in
    assert list(batch.trace_n_in[0] > cfg.network.L) == ref.h
    costs = [Fraction(int(c), cfg.network.scale) for c in batch.trace_cost[0]]
    assert costs == ref.total_cost
    assert int(batch.n_p[0]) == ref.n_p
    if cfg.mode != "random":
        got = batch.final_scores[0]
        want = np.stack(ref.final_scores)
        assert got.shape == want.shape
        assert np.array_equal(got, want.astype(np.float64))


class TestChoice:
    """Each agent plays the suggestion of its first strategy with the
    largest key, the one np.argmax picks."""

    @staticmethod
    def choose(keys, tmu):
        keys, tmu = np.asarray(keys, dtype=np.float64), np.asarray(tmu, dtype=np.int8)
        out = np.empty((keys.shape[0], keys.shape[2]), dtype=bool)
        return _engine._choose(keys, tmu, np.empty(keys.shape, dtype=bool), out=out)

    @pytest.mark.parametrize("first", [1, -1])
    def test_first_of_two_tied_top_keys_wins(self, first):
        # (rows, S, N) = (1, 3, 2): agent 0's strategies 1 and 2 tie at the
        # top and disagree; agent 1's top key is strategy 1's alone
        keys = [[[0.5, 0.1], [2.25, 0.7], [2.25, 0.3]]]
        tmu = [[[-first, 1], [first, -1], [-first, 1]]]
        assert self.choose(keys, tmu).tolist() == [[first > 0, False]]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_argmax_on_small_integer_keys(self, data):
        shape = (
            data.draw(st.integers(1, 3), label="rows"),
            data.draw(st.integers(1, 5), label="S"),
            data.draw(st.integers(1, 6), label="N"),
        )
        keys = data.draw(arrays(np.int8, shape, elements=st.integers(0, 2)), label="keys")
        tmu = data.draw(arrays(np.int8, shape, elements=st.sampled_from([-1, 1])), label="tmu")
        want = np.take_along_axis(tmu, keys.argmax(axis=1)[:, None], axis=1)[:, 0] > 0
        assert np.array_equal(self.choose(keys, tmu), want)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_held_choice_by_in_and_out_key_maxima(self, data):
        # a held chunk's keyed agents choose by their largest key inside and
        # outside, fl(c + kin) against fl(c + kout), and the engine's rule
        # where those tie; the dense step picks among the sums fl(c + key)
        # of the top strategies and the others', at least 2 below. Keys in
        # quarters tie exactly; keys a few ulps apart round to one sum at a
        # large c
        T = 1000
        S = data.draw(st.integers(2, 8), label="S")
        m = data.draw(st.integers(1, 6), label="agents")
        top = 2.0 * np.array(data.draw(st.lists(st.integers(-T, T), min_size=m, max_size=m)))
        base = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(0, 1, exclude_max=True))

        def key():  # in [0, 1), as every key is
            x = data.draw(base)
            for _ in range(data.draw(st.integers(0, 3))):
                x = np.nextafter(x, data.draw(st.sampled_from([0.0, 1.0])))
            return min(max(x, 0.0), np.nextafter(1.0, 0.0))

        keys = np.array([[key() for _ in range(m)] for _ in range(S)])
        code = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=S, max_size=S), min_size=m, max_size=m,
        )), dtype=np.int8).T
        for a in range(m):  # a keyed agent has top strategies of both suggestions
            inside, outside = data.draw(st.permutations(range(S)))[:2]
            code[inside, a], code[outside, a] = 1, -1
        others = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=S * m, max_size=S * m)))
        tmu = np.where(code == 0, others.reshape(S, m), code)
        sums = np.where(code == 0, top - 2 + keys, top + keys)
        want = self.choose(sums[None], tmu[None])
        got = _cycles._keyed_choice(top[None], keys[None].copy(), code, _engine._choose)
        assert np.array_equal(got, want)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous", "random"])
    @pytest.mark.parametrize("S", [1, 3, 16])
    def test_exact_trace_agreement(self, mode, S):
        assert_trace_matches_reference(small_config(mode=mode, S=S, seed=1234))

    @pytest.mark.parametrize(
        "M,mode,T",
        [
            # the (256, seeds, S, N) strategy tables replicate-ref runs
            (8, "heterogeneous", 60),
            # the last chunk is one step, filled by one in-place draw
            (2, "homogeneous", 2 * _engine.CHUNK + 1),
            (2, "random", 2 * _engine.CHUNK + 1),
        ],
    )
    def test_exact_trace_agreement_at_table_and_chunk_edges(self, M, mode, T):
        net = rh.NetworkConfig(N=10, hub_links=4, L=3)
        assert_trace_matches_reference(
            rh.SimConfig(network=net, M=M, S=5, mode=mode, T=T, warmup=7, seed=31)
        )

    def test_exact_agreement_with_non_default_pricing(self):
        net = rh.NetworkConfig(
            N=10, hub_links=4, L=4, alpha=Fraction(1, 3), beta=Fraction(7, 5)
        )
        cfg = rh.SimConfig(network=net, M=3, S=2, mode="homogeneous", T=30, warmup=5, seed=7)
        ref = reference_run(cfg)
        batch = _engine.simulate_batch(
            rh.build_network(net), cfg.M, cfg.S, cfg.mode, cfg.T, cfg.warmup,
            [cfg.seed], collect_trace=True,
        )
        costs = [Fraction(int(c), net.scale) for c in batch.trace_cost[0]]
        assert costs == ref.total_cost
        assert list(batch.trace_n_in[0]) == ref.n_in

    def test_metrics_recomputable_from_trace(self):
        cfg = small_config(seed=5)
        metrics, records = rh.run(cfg, trace=True)
        tail = records[cfg.warmup:]
        n_in = np.array([rec.n_in for rec in tail], dtype=np.float64)
        avg_cost = sum(rec.total_cost for rec in tail) / (len(tail) * cfg.network.N)
        assert metrics.avg_cost == pytest.approx(float(avg_cost), rel=1e-12)
        assert metrics.congestion_ratio == pytest.approx(
            sum(rec.h for rec in tail) / len(tail), abs=1e-15
        )
        assert metrics.avg_hub_users == pytest.approx(n_in.mean(), rel=1e-12)
        assert metrics.std_hub_users == pytest.approx(n_in.std(), rel=1e-12)

    def test_trace_h_consistent_with_capacity(self):
        cfg = small_config(seed=21, L=4)
        _, records = rh.run(cfg, trace=True)
        for rec in records:
            assert rec.h == int(rec.n_in > cfg.network.L)
            assert 0 <= rec.n_in <= cfg.network.N
        assert [rec.t for rec in records] == list(range(1, cfg.T + 1))


class TestRandomChunks:
    """Random play runs a chunk of steps at once. Measured windows that start
    one step either side of a chunk boundary, with a last chunk of one step,
    keep the reference's metrics untraced, and a lambda stack equals its
    points run alone."""

    T = 2 * _engine.CHUNK + 1
    NET = rh.NetworkConfig(N=10, hub_links=4, L=3, alpha=Fraction(1, 3), beta=Fraction(7, 5))
    SEEDS = [31, 32, 33]

    @pytest.mark.parametrize("warmup", [_engine.CHUNK - 1, _engine.CHUNK + 1])
    def test_untraced_window_matches_reference(self, warmup):
        nets = [
            rh.build_network(dataclasses.replace(self.NET, hub_links=lam, L=L))
            for lam, L in [(4, 3), (2, 3), (10, 8), (7, 1)]
        ]
        stacked = simulate_stack(nets, 2, 1, ["random"] * len(nets), self.T, warmup, self.SEEDS)
        for runs, net in zip(stacked, nets, strict=True):
            assert runs.trace_n_in is None
            alone = _engine.simulate_batch(net, 2, 1, "random", self.T, warmup, self.SEEDS)
            assert_same_batch(runs, alone)
        batch = stacked[0]  # NET's runs
        steps = self.T - warmup
        for i, seed in enumerate(self.SEEDS):
            cfg = rh.SimConfig(
                network=self.NET, M=2, S=1, mode="random", T=self.T, warmup=warmup, seed=seed
            )
            ref = reference_run(cfg)
            n_in, h = ref.n_in[warmup:], ref.h[warmup:]
            # the engine's reductions, correctly rounded from exact sums
            assert batch.avg_cost[i] == float(sum(ref.total_cost[warmup:]) / (10 * steps))
            assert batch.congestion_ratio[i] == float(Fraction(sum(h), steps))
            assert batch.avg_hub_users[i] == float(Fraction(sum(n_in), steps))
            assert batch.std_hub_users[i] == np.array(n_in, dtype=np.float64).std()
            assert batch.n_p[i] == ref.n_p


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        cfg = small_config(seed=42)
        assert rh.run(cfg) == rh.run(cfg)

    def test_different_seed_differs(self):
        a = rh.run(small_config(seed=42, T=80, warmup=0))
        b = rh.run(small_config(seed=43, T=80, warmup=0))
        assert a != b

    def test_replicate_one_equals_run(self):
        cfg = small_config(seed=17)
        single = rh.run(cfg)
        rep = rh.replicate(cfg, 1)
        assert rep.replications == 1
        assert rep.mean == single
        assert rep.se == rh.Metrics(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_batch_equals_sequential_runs(self):
        cfg = small_config(seed=300)
        rep = rh.replicate(cfg, 3)
        singles = [
            rh.run(rh.sim.config_with(cfg, seed=cfg.seed + i)) for i in range(3)
        ]
        for field in ("avg_cost", "congestion_ratio", "avg_hub_users", "std_hub_users", "n_p"):
            vals = [getattr(m, field) for m in singles]
            assert getattr(rep.mean, field) == pytest.approx(np.mean(vals), rel=1e-12)
            want_se = np.std(vals, ddof=1) / math.sqrt(3)
            assert getattr(rep.se, field) == pytest.approx(want_se, rel=1e-9, abs=1e-15)

    def test_replicate_reports_ne_band(self):
        cfg = small_config(seed=8)
        rep = rh.replicate(cfg, 4)
        assert rep.ne_best <= rep.ne_worst


class TestRandomBaseline:
    def test_coin_flip_population_level(self):
        net = rh.NetworkConfig(N=100, hub_links=4, L=80)
        cfg = rh.SimConfig(
            network=net, M=2, S=2, mode="random", T=200, warmup=100, seed=10
        )
        rep = rh.replicate(cfg, 30)
        # mean hub load is Binomial(100, 1/2) per step
        se = math.sqrt(25.0 / (100 * 30))
        assert abs(rep.mean.avg_hub_users - 50.0) < 4 * 100 * se
        assert rep.mean.congestion_ratio == 0.0

    def test_random_mode_congests_tight_capacity(self):
        net = rh.NetworkConfig(N=100, hub_links=4, L=40)
        cfg = rh.SimConfig(
            network=net, M=2, S=2, mode="random", T=120, warmup=20, seed=3
        )
        metrics = rh.run(cfg)
        assert metrics.congestion_ratio > 0.9


class TestTraceCSV:
    def test_round_trip(self, tmp_path):
        cfg = small_config(seed=11, T=25, warmup=5)
        _, records = rh.run(cfg, trace=True)
        path = rh.write_trace_csv(records, tmp_path / "trace.csv")
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "t,n_in,h,total_cost"
        assert lines[-1] == ""
        assert len(lines) == cfg.T + 2
        assert "\r" not in text
        for rec, line in zip(records, lines[1:]):
            t, n_in, h, cost = line.split(",")
            assert (int(t), int(n_in), int(h)) == (rec.t, rec.n_in, rec.h)
            assert float(cost) == float(rec.total_cost)
