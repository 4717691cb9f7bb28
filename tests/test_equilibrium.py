"""Equilibrium baseline: closed form versus exhaustive enumeration."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import ringhub as rh
from ringhub.equilibrium import ne_totals

from reference import brute_force_ne, draw_dests, potential_users


def closed_form(ls, outs, L, scale=1):
    """ne_totals on one run of integer advantages and outside costs, in units
    of 1/scale: (n_p, best average, worst average) as exact Fractions."""
    l = np.array([ls], dtype=np.int64)
    out = np.array([outs], dtype=np.int64)
    n_p, best, worst = ne_totals(l, out, out - l, L)
    denominator = l.shape[1] * scale
    return int(n_p[0]), Fraction(int(best[0]), denominator), Fraction(int(worst[0]), denominator)


class TestPotentialCount:
    def test_strictly_positive_advantage_counts(self):
        # advantages 13/2, 0, -2 on scale 2
        n_p, _, _ = closed_form([13, 0, -4], [36, 20, 10], L=3, scale=2)
        assert n_p == 1

    def test_zero_advantage_excluded(self):
        n_p, _, _ = closed_form([0, 0], [4, 4], L=2)
        assert n_p == 0

    def test_all_dominated(self):
        n_p, _, _ = closed_form([-1, -3, -2], [4, 4, 4], L=3)
        assert n_p == 0


class TestNECosts:
    def test_no_potential_users_means_everyone_outside(self):
        n_p, best, worst = closed_form([-1, 0, -5, -2], [7, 3, 9, 4], L=2)
        assert n_p == 0
        assert best == worst == Fraction(7 + 3 + 9 + 4, 4)

    def test_everyone_fits_makes_extremes_coincide(self):
        n_p, best, worst = closed_form([5, 3, 1], [10, 10, 10], L=3)
        assert n_p == 3
        assert best == worst == Fraction(5 + 7 + 9, 3)

    def test_eight_agents_three_potential_two_slots(self):
        # agents 0..2 have advantages 5, 3, 1; five more are outside-bound.
        # With L=2 the best allocation seats {5,3}, the worst seats {3,1};
        # frozen expectations verified below by enumerating all three seatings.
        ls = [5, 3, 1, -1, -1, -1, -1, -1]
        outs = [10, 10, 10, 5, 5, 5, 5, 5]
        ins = [o - l for o, l in zip(outs, ls)]
        n_p, best, worst = closed_form(ls, outs, L=2)
        assert n_p == 3
        assert best == Fraction(47, 8)
        assert worst == Fraction(51, 8)

        averages = []
        for seated in itertools.combinations([0, 1, 2], 2):
            total = sum(ins[a] if a in seated else outs[a] for a in range(8))
            averages.append(Fraction(total, 8))
        assert best == min(averages)
        assert worst == max(averages)

    def test_best_never_exceeds_worst_or_outside_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            ls = [int(x) for x in rng.integers(-4, 6, size=n)]
            outs = [int(x) for x in rng.integers(1, 20, size=n)]
            n_p, best, worst = closed_form(ls, outs, L=int(rng.integers(1, n + 1)))
            mean_out = Fraction(sum(outs), n)
            assert best <= worst
            assert best <= mean_out
            if n_p == 0:
                assert best == mean_out

    def test_tied_advantages_are_order_invariant(self):
        ls = [2, 2, 2, -1]
        outs = [9, 9, 9, 4]
        base = closed_form(ls, outs, L=2)
        for perm in itertools.permutations(range(3)):
            order = list(perm) + [3]
            other = closed_form([ls[j] for j in order], [outs[j] for j in order], L=2)
            assert other[1:] == base[1:]

    def test_exact_with_fine_price_denominators(self):
        # scale 2 * (2**50 + 1): every total is exact in int64 only because
        # check_cost_sums(1) admits these prices at N <= 12
        alpha = Fraction(2**49, 2**50 + 1)
        rng = np.random.default_rng(70)
        for _ in range(20):
            n = int(rng.integers(4, 13))
            lam = int(rng.integers(2, n + 1))
            cap = int(rng.integers(1, n + 1))
            cfg = rh.NetworkConfig(N=n, hub_links=lam, L=cap, alpha=alpha, beta=Fraction(3, 2))
            assert cfg.scale > 2**50
            net = rh.build_network(cfg)
            dests = rh.draw_destinations(net.N, rng)
            result = rh.ne_costs(cfg, *rh.cost_advantages(net, dests))
            assert result.n_p == potential_users(net, dests)
            assert (result.c_best, result.c_worst) == brute_force_ne(net, dests, cap)

    def test_inconsistent_lengths_rejected(self):
        cfg = rh.NetworkConfig(N=8, hub_links=2, L=4)
        net = rh.build_network(cfg)
        l, out, inu = rh.cost_advantages(net, rh.draw_destinations(8, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="out must be an int64 array of N=8"):
            rh.ne_costs(cfg, l, out[:1], inu)
        with pytest.raises(ValueError, match="inu must be an int64 array of N=8"):
            rh.ne_costs(cfg, l, out, inu.astype(object))

    def test_cost_advantages_refuses_a_bad_trip_table(self):
        net = rh.build_network(rh.NetworkConfig(N=8, hub_links=2, L=4))
        for dests in (
            [1, 1, 0, 0, 0, 0, 0, 0],  # agent 1 travels to its own node
            [1, 0, 0, 0, 0, 0, 0],  # one destination short
            [1, 0, 0, 0, 0, 0, 0, 0, 0],  # one too many
            np.ones((2, 8), dtype=np.int64),  # not one destination per agent
        ):
            with pytest.raises(ValueError, match="dests"):
                rh.cost_advantages(net, dests)


class TestBruteForce:
    def test_instance_too_large(self):
        cfg = rh.NetworkConfig(N=20, hub_links=4, L=5)
        net = rh.build_network(cfg)
        dests = rh.draw_destinations(net.N, np.random.default_rng(0))
        with pytest.raises(ValueError, match="too large"):
            brute_force_ne(net, dests, 5)

    def test_single_allocation_when_everyone_fits(self):
        cfg = rh.NetworkConfig(N=8, hub_links=2, L=8)
        net = rh.build_network(cfg)
        dests = rh.draw_destinations(net.N, np.random.default_rng(1))
        best, worst = brute_force_ne(net, dests, 8)
        assert best == worst

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(4, 13))
            lam = int(rng.integers(2, n + 1))
            cap = int(rng.integers(1, n + 1))
            cfg = rh.NetworkConfig(N=n, hub_links=lam, L=cap)
            net = rh.build_network(cfg)
            dests = rh.draw_destinations(net.N, rng)
            closed = rh.ne_costs(cfg, *rh.cost_advantages(net, dests))
            best, worst = brute_force_ne(net, dests, cap)
            assert closed.c_best == best
            assert closed.c_worst == worst

    def test_hub_population_never_exceeds_capacity(self):
        # n_p > L forces exactly L inside for both extremes
        n_p, best, worst = closed_form([6, 5, 4, 3], [20, 20, 20, 20], L=2)
        assert n_p == 4
        # best seats 6,5 -> inside costs 14,15; worst seats 4,3 -> 16,17
        assert best == Fraction(14 + 15 + 20 + 20, 4)
        assert worst == Fraction(16 + 17 + 20 + 20, 4)


class TestEngineAgreement:
    def test_per_run_baselines_match_exact_arithmetic(self):
        # each run's n_p and equilibrium band, from the engine's int64
        # closed form, equal ne_costs' exact values on its own trip table:
        # several capacities per interchange set and several interchange
        # sets in one stack, at two pricings
        R, base = 10, rh.SimConfig(T=2, warmup=1, seed=31)
        cfgs = [
            rh.config_with(base, N=12, hub_links=lam, L=cap, **prices)
            for prices in ({}, {"alpha": Fraction(1, 3), "beta": Fraction(7, 5)})
            for lam in (2, 5, 12)
            for cap in (1, 4, 8, 12)
        ]
        for cfg, runs in zip(cfgs, rh.sim.replicate_points(cfgs, R), strict=True):
            net = rh.build_network(cfg.network)
            for i in range(R):
                dests = np.array(draw_dests(net.N, np.random.default_rng(cfg.seed + i)))
                want = rh.ne_costs(cfg.network, *rh.cost_advantages(net, dests))
                assert int(runs.n_p[i]) == want.n_p
                assert runs.ne_best[i] == float(want.c_best)
                assert runs.ne_worst[i] == float(want.c_worst)
