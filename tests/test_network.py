"""Topology, distance, and route-cost behavior."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringhub as rh
from ringhub import network

from reference import (
    InsideRoute,
    best_inside_route,
    draw_dests,
    inside_cost,
    outside_cost,
    ring_distance,
)

# frozen expectations, computed by hand from the half-up rounding rule
KNOWN_INTERCHANGES = {
    (8, 4): (0, 2, 4, 6),
    (8, 8): (0, 1, 2, 3, 4, 5, 6, 7),
    (100, 3): (0, 33, 67),
    (100, 4): (0, 25, 50, 75),
    (10, 3): (0, 3, 7),
    (12, 5): (0, 2, 5, 7, 10),
    (8, 3): (0, 3, 5),
    (9, 2): (0, 5),
}

MEAN_RING_DISTANCE_100 = Fraction(2500, 99)  # exact mean of d(O,D), uniform D != O


class TestConfig:
    def test_defaults(self):
        cfg = rh.NetworkConfig()
        assert (cfg.N, cfg.hub_links, cfg.L) == (100, 4, 80)
        assert cfg.alpha == Fraction(1, 2)
        assert cfg.beta == Fraction(3, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"N": 3},
            {"hub_links": 1},
            {"hub_links": 101},
            {"L": 0},
            {"L": 101},
            {"alpha": 0},
            {"alpha": Fraction(3, 2), "beta": Fraction(1, 2)},
            {"alpha": Fraction(1, 2), "beta": Fraction(1, 2)},
            {"N": 100.5},
            {"hub_links": 3.5},
            {"L": 80.5},
            {"alpha": float("inf")},
            {"alpha": 0.3},  # Fraction(0.3) has a 2**54 denominator
            {"beta": 0.9},
            {"alpha": "1/0"},
            {"L": True},  # a JSON true is not the integer 1
            {"beta": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            rh.NetworkConfig(**kwargs)

    def test_coerces_rationals(self):
        cfg = rh.NetworkConfig(alpha="1/4", beta="5/4")
        assert cfg.alpha == Fraction(1, 4)
        assert cfg.beta == Fraction(5, 4)


class TestInterchanges:
    @pytest.mark.parametrize("key", sorted(KNOWN_INTERCHANGES))
    def test_known_placements(self, key):
        n, lam = key
        assert rh.interchange_positions(n, lam) == KNOWN_INTERCHANGES[key]

    def test_build_network_is_deterministic(self):
        cfg = rh.NetworkConfig(N=97, hub_links=13)
        assert rh.build_network(cfg).interchanges == rh.build_network(cfg).interchanges

    @given(
        st.integers(min_value=4, max_value=80).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=2, max_value=n))
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_count_and_uniqueness(self, pair):
        n, lam = pair
        pos = rh.interchange_positions(n, lam)
        assert len(pos) == lam
        assert len(set(pos)) == lam
        assert all(0 <= p < n for p in pos)
        assert pos == tuple(sorted(pos))

    def test_even_spacing_when_divisible(self):
        for n, lam in [(100, 4), (100, 5), (100, 10), (60, 6), (8, 2)]:
            pos = rh.interchange_positions(n, lam)
            gaps = {
                (pos[(i + 1) % lam] - pos[i]) % n for i in range(lam)
            }
            assert gaps == {n // lam}

    @pytest.mark.parametrize(
        "n,lam,field",
        [(10, 2.5, "hub_links"), (10.0, 3, "N"), (10, 11, "hub_links"), (10, True, "hub_links")],
    )
    def test_refuses_non_integer_arguments(self, n, lam, field):
        with pytest.raises(ValueError, match=field):
            rh.interchange_positions(n, lam)

    def test_numpy_integer_arguments_give_python_int_nodes(self):
        pos = rh.interchange_positions(np.int64(10), np.int32(3))
        assert pos == rh.interchange_positions(10, 3)
        assert all(type(node) is int for node in pos)


class TestRingDistance:
    @pytest.mark.parametrize(
        "i,j,n,expected", [(0, 3, 8, 3), (0, 6, 8, 2), (5, 5, 8, 0), (0, 50, 100, 50)]
    )
    def test_examples(self, i, j, n, expected):
        assert ring_distance(i, j, n) == expected

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ring_distance(0, 8, 8)

    @given(
        st.integers(min_value=4, max_value=200).flatmap(
            lambda n: st.tuples(*([st.just(n)] + [st.integers(0, n - 1)] * 3))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, quad):
        n, a, b, c = quad
        d = ring_distance
        assert d(a, b, n) == d(b, a, n)
        assert (d(a, b, n) == 0) == (a == b)
        assert d(a, c, n) <= d(a, b, n) + d(b, c, n)
        assert d(a, b, n) <= n // 2


class TestDestinations:
    def test_origin_is_agent_index_and_never_destination(self):
        net = rh.build_network(rh.NetworkConfig())
        dests = rh.draw_destinations(net.N, np.random.default_rng(5))
        assert dests.shape == (100,) and dests.dtype == np.int64
        assert dests.min() >= 0 and dests.max() < 100
        assert np.all(dests != np.arange(100))

    def test_same_seed_same_assignment(self):
        net = rh.build_network(rh.NetworkConfig(N=31, hub_links=5, L=20))
        a = rh.draw_destinations(net.N, np.random.default_rng(9))
        b = rh.draw_destinations(net.N, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_mean_distance_matches_uniform_expectation(self):
        net = rh.build_network(rh.NetworkConfig())
        rng = np.random.default_rng(123)
        samples = []
        for _ in range(60):
            for o, d in enumerate(rh.draw_destinations(net.N, rng).tolist()):
                samples.append(outside_cost(o, d, net.N))
        samples = np.asarray(samples, dtype=float)
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - float(MEAN_RING_DISTANCE_100)) < 4 * se

    @pytest.mark.parametrize("n", [1, 2.5])
    def test_refuses_a_bad_ring_size(self, n):
        with pytest.raises(ValueError, match="N must be an integer >= 2"):
            rh.draw_destinations(n, np.random.default_rng(0))

    @pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (12, 7), (100, 2), (101, 2024)])
    def test_oracle_draw_equals_draw_destinations(self, n, seed):
        got = rh.draw_destinations(n, np.random.default_rng(seed))
        assert got.tolist() == draw_dests(n, np.random.default_rng(seed))


def brute_force_route(o: int, d: int, net: rh.Network, alpha: Fraction) -> tuple:
    """Independent exhaustive scan over ordered interchange pairs:
    (cost, h_in, h_out, d_access, d_hub) of the lexicographic minimum."""
    best = None
    for h_in in net.interchanges:
        for h_out in net.interchanges:
            if h_in == h_out:
                continue
            d_access = ring_distance(o, h_in, net.N) + ring_distance(h_out, d, net.N)
            d_hub = ring_distance(h_in, h_out, net.N)
            cost = d_access + alpha * d_hub
            key = (cost, h_in, h_out, d_access, d_hub)
            if best is None or key < best:
                best = key
    return best


class TestRoutes:
    def test_outside_cost_is_ring_distance(self):
        assert outside_cost(0, 18, 100) == 18
        assert outside_cost(4, 5, 100) == 1

    def test_inside_cost_examples(self):
        prices = rh.NetworkConfig().alpha, rh.NetworkConfig().beta
        route = InsideRoute(h_in=0, h_out=25, d_access=5, d_hub=13)
        assert inside_cost(route, False, *prices) == Fraction(23, 2)
        assert float(inside_cost(route, False, *prices)) == 11.5
        assert inside_cost(route, True, *prices) == Fraction(49, 2)
        near = InsideRoute(h_in=0, h_out=2, d_access=0, d_hub=2)
        assert inside_cost(near, False, *prices) == 1

    def test_congested_exceeds_uncongested_by_gap_times_hub_leg(self):
        route = InsideRoute(h_in=0, h_out=25, d_access=7, d_hub=9)
        cfg = rh.NetworkConfig()
        gap = inside_cost(route, True, cfg.alpha, cfg.beta) - inside_cost(
            route, False, cfg.alpha, cfg.beta
        )
        assert gap == (cfg.beta - cfg.alpha) * route.d_hub

    def test_route_validation(self):
        with pytest.raises(ValueError):
            InsideRoute(h_in=3, h_out=3, d_access=0, d_hub=1)
        with pytest.raises(ValueError):
            InsideRoute(h_in=0, h_out=1, d_access=0, d_hub=0)

    @given(
        st.integers(min_value=4, max_value=24).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(2, n),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_best_route_matches_exhaustive_scan(self, args):
        n, lam, o, d = args
        if o == d:
            d = (d + 1) % n
        net = rh.build_network(rh.NetworkConfig(N=n, hub_links=lam, L=1))
        d_out, d_access, d_hub = rh.route_table(net, o, d)
        cost, h_in, h_out, want_access, want_hub = brute_force_route(o, d, net, net.config.alpha)
        assert d_access + net.config.alpha * d_hub == cost
        assert (d_out, d_access, d_hub) == (ring_distance(o, d, n), want_access, want_hub)
        route = best_inside_route(o, d, net)
        assert (route.h_in, route.h_out) == (h_in, h_out)

    def test_all_interchanges_gives_zero_access_entry(self):
        net = rh.build_network(rh.NetworkConfig(N=12, hub_links=12, L=4))
        _, d_access, _ = rh.route_table(net, 7, 1)
        assert d_access == 0
        assert ring_distance(7, best_inside_route(7, 1, net).h_in, 12) == 0

    def test_more_interchanges_never_worse(self):
        # nested placements: {0,50} within {0,25,50,75} within the lam=8 set
        cfgs = [rh.NetworkConfig(hub_links=lam) for lam in (2, 4, 8)]
        nets = [rh.build_network(c) for c in cfgs]
        for a, b in zip(nets, nets[1:]):
            assert set(a.interchanges) <= set(b.interchanges)
        rng = np.random.default_rng(2)
        origins = np.arange(40)
        dests = rh.draw_destinations(nets[0].N, rng)[:40]
        costs = []
        for net in nets:
            _, d_access, d_hub = rh.route_table(net, origins, dests)
            costs.append([a + net.config.alpha * h for a, h in zip(d_access, d_hub)])
        for a, b, c in zip(*costs):
            assert a >= b >= c


class TestRouteTable:
    @pytest.mark.parametrize(
        "n,lam", [(8, 2), (12, 5), (20, 7), (30, 30), (25, 2), (16, 3)]
    )
    def test_matches_scalar_ops_on_all_pairs(self, n, lam):
        net = rh.build_network(rh.NetworkConfig(N=n, hub_links=lam, L=1))
        d_out, d_access, d_hub = rh.route_table(net, *np.indices((n, n)))
        for o in range(n):
            for d in range(n):
                if o == d:
                    continue
                assert d_out[o, d] == outside_cost(o, d, n)
                route = best_inside_route(o, d, net)
                assert d_access[o, d] == route.d_access
                assert d_hub[o, d] == route.d_hub

    # prices(D) -> (alpha, beta): alpha below 1, near 1, near 2 and at 2 and
    # 7/5; route_table prices by alpha's numerator and denominator alone
    PRICE_FAMILIES = {
        "1/D": lambda d: (Fraction(1, d), Fraction(2, d)),
        "(D-1)/D": lambda d: (Fraction(d - 1, d), 1),
        "(2D-1)/D": lambda d: (Fraction(2 * d - 1, d), 2),
        "2": lambda d: (2, 2 + Fraction(1, d)),
        "7/5": lambda d: (Fraction(7, 5), Fraction(7, 5) + Fraction(1, d)),
    }
    # (N, lambda) -> (origins, destinations): the oracle takes 63 ms a pair
    # at lambda=100, so the larger rings check the pairs of a few origins
    ORACLE_PAIRS = {
        (10, 5): (range(10), range(10)),
        (30, 30): ((0, 1, 15, 29), range(30)),
        (100, 100): ((0, 99), (1, 33, 50, 67, 98)),
    }

    @pytest.mark.parametrize("n,lam", sorted(ORACLE_PAIRS))
    @pytest.mark.parametrize("family", sorted(PRICE_FAMILIES))
    def test_matches_oracle_at_the_largest_accepted_scale(self, n, lam, family):
        # the ring transform's keys come closest to int64 at the largest
        # scale NetworkConfig accepts for N
        prices = self.PRICE_FAMILIES[family]

        def config(d):
            alpha, beta = prices(d)
            try:
                return rh.NetworkConfig(N=n, hub_links=lam, L=1, alpha=alpha, beta=beta)
            except ValueError:
                return None

        lo, hi = 2, 2**63  # config(lo) is accepted, config(hi) refused
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if config(mid) else (lo, mid)
        cfg = config(lo)
        assert config(lo + 1) is None
        net = rh.build_network(cfg)
        origins, dests = self.ORACLE_PAIRS[n, lam]
        pairs = [(o, d) for o in origins for d in dests if o != d]
        d_out, d_access, d_hub = rh.route_table(net, *zip(*pairs))
        for i, (o, d) in enumerate(pairs):
            route = best_inside_route(o, d, net)
            assert (d_out[i], d_access[i], d_hub[i]) == (
                outside_cost(o, d, n), route.d_access, route.d_hub
            ), (o, d)

    @pytest.mark.parametrize("n,lam", [(20, 7), (30, 30), (101, 37)])
    @pytest.mark.parametrize("entries", [1, 2])
    def test_blocks_of_entries_equal_one_block(self, monkeypatch, n, lam, entries):
        cfg = rh.NetworkConfig(N=n, hub_links=lam, L=1, alpha=Fraction(2, 3), beta=2)
        net = rh.build_network(cfg)
        pairs = np.indices((n, n))
        whole = rh.route_table(net, *pairs)
        monkeypatch.setattr(network, "_ROUTE_BLOCK_BYTES", 8 * lam * n * entries)
        blocked = rh.route_table(net, *pairs)
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_respects_alpha_pricing(self):
        # a large alpha pushes routes toward shorter hub crossings
        cfg = rh.NetworkConfig(N=20, hub_links=5, L=1, alpha=Fraction(9, 10), beta=Fraction(11, 10))
        net = rh.build_network(cfg)
        _, d_access, d_hub = rh.route_table(net, *np.indices((20, 20)))
        for o in range(20):
            for d in range(20):
                if o == d:
                    continue
                route = best_inside_route(o, d, net)
                priced = d_access[o, d] + cfg.alpha * d_hub[o, d]
                assert priced == inside_cost(route, False, cfg.alpha, cfg.beta)

    @pytest.mark.parametrize(
        "origins,dests,field",
        [
            ([250], [3], "origins"),  # past the ring
            ([1.7], [3], "origins"),  # not truncated to node 1
            ([1], [-1], "dests"),  # not wrapped to node N-1
            ([1], [20], "dests"),  # node N
            ([True], [3], "origins"),
            ([2**70], [3], "origins"),
            ([1], np.array([3.0]), "dests"),
        ],
    )
    def test_refuses_values_that_are_not_nodes(self, origins, dests, field):
        net = rh.build_network(rh.NetworkConfig(N=20, hub_links=5, L=1))
        with pytest.raises(ValueError, match=field):
            rh.route_table(net, origins, dests)

    def test_refuses_origins_and_dests_that_do_not_broadcast(self):
        net = rh.build_network(rh.NetworkConfig(N=20, hub_links=5, L=1))
        origins, dests = np.zeros((3, 4), dtype=int), np.ones((4, 4), dtype=int)
        with pytest.raises(ValueError) as exc:
            rh.route_table(net, origins, dests)
        assert str(exc.value) == (
            "origins and dests must broadcast to one shape, not (3, 4) and (4, 4)"
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint32, np.uint64, np.int64])
    def test_takes_any_integer_dtype(self, dtype):
        net = rh.build_network(rh.NetworkConfig(N=20, hub_links=5, L=1))
        origins, dests = [0, 7, 19], [19, 3, 0]
        want = rh.route_table(net, origins, dests)
        got = rh.route_table(net, np.array(origins, dtype=dtype), np.array(dests, dtype=dtype))
        for a, b in zip(want, got):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
