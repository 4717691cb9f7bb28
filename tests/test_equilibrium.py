"""Equilibrium baseline: closed form versus exhaustive enumeration."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import ringhub as rh


def synthetic(ls, outs, ins=None):
    """Build the ne_costs argument triple from plain numbers."""
    advantages = [rh.CostAdvantage(agent=i, l=Fraction(l)) for i, l in enumerate(ls)]
    if ins is None:
        ins = [Fraction(o) - Fraction(l) for o, l in zip(outs, ls)]
    return advantages, list(outs), [Fraction(c) for c in ins]


class TestPotentialCount:
    def test_strictly_positive_advantage_counts(self):
        advantages, _, _ = synthetic([Fraction(13, 2), 0, -2], [18, 10, 5])
        assert rh.potential_count(advantages) == 1

    def test_zero_advantage_excluded(self):
        advantages, _, _ = synthetic([0, 0], [4, 4])
        assert rh.potential_count(advantages) == 0

    def test_all_dominated(self):
        advantages, _, _ = synthetic([-1, -3, -2], [4, 4, 4])
        assert rh.potential_count(advantages) == 0


class TestNECosts:
    def test_no_potential_users_means_everyone_outside(self):
        advantages, outs, ins = synthetic([-1, 0, -5, -2], [7, 3, 9, 4])
        result = rh.ne_costs(advantages, outs, ins, L=2)
        assert result.n_p == 0
        assert result.c_best == result.c_worst == Fraction(7 + 3 + 9 + 4, 4)

    def test_everyone_fits_makes_extremes_coincide(self):
        advantages, outs, ins = synthetic([5, 3, 1], [10, 10, 10])
        result = rh.ne_costs(advantages, outs, ins, L=3)
        assert result.n_p == 3
        assert result.c_best == result.c_worst == Fraction(5 + 7 + 9, 3)

    def test_eight_agents_three_potential_two_slots(self):
        # agents 0..2 have advantages 5, 3, 1; five more are outside-bound.
        # With L=2 the best allocation seats {5,3}, the worst seats {3,1};
        # frozen expectations verified below by enumerating all three seatings.
        ls = [5, 3, 1, -1, -1, -1, -1, -1]
        outs = [10, 10, 10, 5, 5, 5, 5, 5]
        advantages, outs, ins = synthetic(ls, outs)
        result = rh.ne_costs(advantages, outs, ins, L=2)
        assert result.n_p == 3
        assert result.c_best == Fraction(47, 8)
        assert result.c_worst == Fraction(51, 8)

        averages = []
        for seated in itertools.combinations([0, 1, 2], 2):
            total = sum(
                ins[a] if a in seated else Fraction(outs[a]) for a in range(8)
            )
            averages.append(total / 8)
        assert result.c_best == min(averages)
        assert result.c_worst == max(averages)

    def test_best_never_exceeds_worst_or_outside_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            ls = [int(x) for x in rng.integers(-4, 6, size=n)]
            outs = [int(x) for x in rng.integers(1, 20, size=n)]
            advantages, outs, ins = synthetic(ls, outs)
            result = rh.ne_costs(advantages, outs, ins, L=int(rng.integers(1, n + 1)))
            mean_out = Fraction(sum(outs), n)
            assert result.c_best <= result.c_worst
            assert result.c_best <= mean_out
            if result.n_p == 0:
                assert result.c_best == mean_out

    def test_tied_advantages_are_order_invariant(self):
        ls = [2, 2, 2, -1]
        outs = [9, 9, 9, 4]
        advantages, o, i = synthetic(ls, outs)
        base = rh.ne_costs(advantages, o, i, L=2)
        for perm in itertools.permutations(range(3)):
            order = list(perm) + [3]
            adv2 = [rh.CostAdvantage(agent=k, l=advantages[j].l) for k, j in enumerate(order)]
            o2 = [o[j] for j in order]
            i2 = [i[j] for j in order]
            other = rh.ne_costs(adv2, o2, i2, L=2)
            assert (other.c_best, other.c_worst) == (base.c_best, base.c_worst)

    def test_exact_with_denominators_beyond_int64(self):
        d = Fraction(1, 2**70 + 1)
        ls = [5, 3, 1, -1, -1, -1, -1, -1]
        outs = [10, 10, 10, 5, 5, 5, 5, 5]
        advantages, outs, ins = synthetic([l * d for l in ls], [o * d for o in outs])
        result = rh.ne_costs(advantages, outs, ins, L=2)
        assert result.n_p == 3
        assert result.c_best == Fraction(47, 8) * d
        assert result.c_worst == Fraction(51, 8) * d

    def test_inconsistent_lengths_rejected(self):
        advantages, outs, ins = synthetic([1, 2], [5, 5])
        with pytest.raises(ValueError, match="inconsistent"):
            rh.ne_costs(advantages, outs[:1], ins, L=1)


class TestBruteForce:
    def test_instance_too_large(self):
        cfg = rh.NetworkConfig(N=20, hub_links=4, L=5)
        net = rh.build_network(cfg)
        od_pairs = rh.assign_destinations(net, np.random.default_rng(0))
        with pytest.raises(ValueError, match="too large"):
            rh.brute_force_ne(net, od_pairs, 5)

    def test_single_allocation_when_everyone_fits(self):
        cfg = rh.NetworkConfig(N=8, hub_links=2, L=8)
        net = rh.build_network(cfg)
        od_pairs = rh.assign_destinations(net, np.random.default_rng(1))
        best, worst = rh.brute_force_ne(net, od_pairs, 8)
        assert best == worst

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(4, 13))
            lam = int(rng.integers(2, n + 1))
            cap = int(rng.integers(1, n + 1))
            net = rh.build_network(rh.NetworkConfig(N=n, hub_links=lam, L=cap))
            od_pairs = rh.assign_destinations(net, rng)
            advantages, outs, ins = rh.cost_advantages(net, od_pairs)
            closed = rh.ne_costs(advantages, outs, ins, cap)
            best, worst = rh.brute_force_ne(net, od_pairs, cap)
            assert closed.c_best == best
            assert closed.c_worst == worst

    def test_hub_population_never_exceeds_capacity(self):
        # n_p > L forces exactly L inside for both extremes
        advantages, outs, ins = synthetic([6, 5, 4, 3], [20, 20, 20, 20])
        result = rh.ne_costs(advantages, outs, ins, L=2)
        assert result.n_p == 4
        # best seats 6,5 -> inside costs 14,15; worst seats 4,3 -> 16,17
        assert result.c_best == Fraction(14 + 15 + 20 + 20, 4)
        assert result.c_worst == Fraction(16 + 17 + 20 + 20, 4)


class TestEngineAgreement:
    def test_per_run_baselines_match_exact_arithmetic(self):
        # the vectorized per-run equilibrium inside the engine must agree
        # with the Fraction implementation on every draw
        from ringhub import _engine

        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            lam = int(rng.integers(2, n + 1))
            cap = int(rng.integers(1, n + 1))
            cfg = rh.NetworkConfig(N=n, hub_links=lam, L=cap)
            net = rh.build_network(cfg)
            seed = int(rng.integers(0, 10_000))
            batch = _engine.simulate_batch(net, 2, 2, "homogeneous", 2, 1, [seed])
            od_pairs = rh.assign_destinations(net, np.random.default_rng(seed))
            advantages, outs, ins = rh.cost_advantages(net, od_pairs)
            exact = rh.ne_costs(advantages, outs, ins, cap)
            assert int(batch.n_p[0]) == exact.n_p
            assert batch.ne_best[0] == pytest.approx(float(exact.c_best), abs=1e-12)
            assert batch.ne_worst[0] == pytest.approx(float(exact.c_worst), abs=1e-12)
