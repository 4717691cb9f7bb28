"""Acceptance suite: statistical reproduction checks plus exact oracles.

One test per criterion. Each records a PASS/FAIL line on the scoreboard
(printed after the run by conftest) and then asserts, so a red criterion
is visible both in the test list and in the summary. Criteria 1-7 are
statistical; 8 and 9 are exact. The master seed for all statistical runs
is 1 and replication seeds follow seed+0..seed+R-1.

Expect roughly ten minutes of wall time on one core; the heavy fixtures
are module-scoped so each sweep runs once.
"""

from __future__ import annotations

import numpy as np
import pytest

import ringhub as rh
from ringhub import _engine, cli
from ringhub.sim import config_with

from reference import brute_force_ne, ring_distance

BASE = rh.SimConfig(seed=1)  # N=100, hub_links=4, L=80, M=2, S=8, T=1000, warmup=500
BASELINE_R = 200  # replications per point of the baseline lambda sweep


def fmt(x: float) -> str:
    return f"{x:.3f}"


# ------------------------------------------------------------- fixtures --


@pytest.fixture(scope="module")
def baseline_rows():
    """Homogeneous lambda sweep with equilibrium baselines, R=200."""
    spec = cli.SweepSpec(
        base=BASE,
        sweep_variable="lambda",
        values=tuple(range(2, 10)) + (20,),
        replications=BASELINE_R,
    )
    return {row.value: row for row in cli.run_sweep(spec)}


@pytest.fixture(scope="module")
def memory_metrics():
    """Mean metrics at lambda=50 for short and long memories, R=200."""
    return {
        m: rh.replicate(config_with(BASE, hub_links=50, M=m), 200).mean
        for m in (2, 8)
    }


@pytest.fixture(scope="module")
def stability_sigmas():
    """Mean hub-load standard deviation over lambda 2..10, R=500."""
    spec = cli.SweepSpec(
        base=BASE,
        sweep_variable="lambda",
        values=tuple(range(2, 11)),
        replications=500,
    )
    return {row.value: row.std_hub_users for row in cli.run_sweep(spec)}


@pytest.fixture(scope="module")
def multi_scale_curves():
    """Congestion-ratio curves for four ring sizes at L/N=0.8, R=100."""
    curves = {}
    for n in (20, 40, 60, 80):
        step = 1 if n <= 40 else 2
        spec = cli.SweepSpec(
            base=config_with(BASE, N=n, L=round(0.8 * n), hub_links=2),
            sweep_variable="lambda",
            values=tuple(range(2, n + 1, step)),
            replications=100,
            )
        curves[n] = {row.value: row.congestion_ratio for row in cli.run_sweep(spec)}
    return curves


@pytest.fixture(scope="module")
def population_costs():
    """Mean cost at lambda=50 for each agent population, R=400."""
    return {
        mode: rh.replicate(config_with(BASE, hub_links=50, mode=mode), 400).mean.avg_cost
        for mode in ("heterogeneous", "homogeneous", "random")
    }


@pytest.fixture(scope="module")
def sigma_grid_m8():
    """Hub-load sigma across lambda for biased and coin-flip agents, M=8."""
    spec = cli.SweepSpec(
        base=config_with(BASE, M=8),
        sweep_variable="lambda",
        values=tuple(range(2, 101, 2)),
        replications=100,
        modes=("heterogeneous", "random"),
    )
    out = {"heterogeneous": {}, "random": {}}
    for row in cli.run_sweep(spec):
        out[row.mode][row.value] = row.std_hub_users
    return out


@pytest.fixture(scope="module")
def optimal_lambda_table():
    """Best hub-link count at capacity ratios 0.3 and 0.9, R=200."""
    grid = tuple(range(2, 31)) + tuple(range(32, 51, 2)) + tuple(range(55, 101, 5))
    spec = cli.SweepSpec(
        base=BASE,
        sweep_variable="capacity_ratio",
        values=(0.3, 0.9),
        replications=200,
    )
    return dict(cli.optimal_lambda(spec, lambda_values=grid))


# ------------------------------------------------------------- criteria --


def band_text(cost: float, ne_best: float, ne_worst: float) -> tuple[bool, str]:
    """Whether cost lies in [ne_best - 0.5, ne_worst + 0.5], and that as text."""
    lo, hi = ne_best - 0.5, ne_worst + 0.5
    inside = lo <= cost <= hi
    where = "inside" if inside else "outside"
    return inside, f"<C>={fmt(cost)} {where} [{fmt(lo)}, {fmt(hi)}]"


def np_split(lam: int) -> str:
    """Criterion 1's runs at lambda split by n_p <= L and n_p > L.

    Reruns the baseline fixture's seeds through the engine for its per-run
    arrays and reports, per group, the run count, <C> against the group's
    own equilibrium band, and r.
    """
    cfg = config_with(BASE, hub_links=lam)
    batch = _engine.simulate_batch(
        rh.build_network(cfg.network), cfg.M, cfg.S, cfg.mode, cfg.T, cfg.warmup,
        cfg.seed + np.arange(BASELINE_R),
    )
    groups = []
    for label, runs in (
        ("n_p<=L", batch.n_p <= cfg.network.L),
        ("n_p>L", batch.n_p > cfg.network.L),
    ):
        if not runs.any():
            groups.append(f"{label}: 0 runs")
            continue
        _, band = band_text(
            batch.avg_cost[runs].mean(), batch.ne_best[runs].mean(), batch.ne_worst[runs].mean()
        )
        groups.append(
            f"{label}: {runs.sum()} runs, {band}, r={fmt(batch.congestion_ratio[runs].mean())}"
        )
    return " / ".join(groups)


def test_criterion_1_uncongested_equilibrium_band(baseline_rows, criterion):
    failures = []
    for lam in range(2, 10):
        row = baseline_rows[lam]
        in_band, band = band_text(row.avg_cost, row.ne_best, row.ne_worst)
        quiet = row.congestion_ratio < 0.05
        if not (in_band and quiet):
            rate = f"r={fmt(row.congestion_ratio)}" + ("" if quiet else " >= 0.05")
            checks = ((band, in_band), (rate, quiet))
            failed = " and ".join(text for text, ok in checks if not ok)
            held = ", ".join(text for text, ok in checks if ok)
            failures.append(
                f"lambda={lam}: {failed}" + (f" ({held})" if held else "")
                + f" -- {np_split(lam)}"
            )
    passed = not failures
    criterion(
        1,
        "mean cost in NE band and r<0.05 for lambda 2..9",
        passed,
        "; ".join(failures) if failures else "all 8 points inside the band",
    )
    assert passed, "; ".join(failures)


def test_criterion_2_congestion_phase_transition(baseline_rows, criterion):
    r8 = baseline_rows[8].congestion_ratio
    r20 = baseline_rows[20].congestion_ratio
    cost20 = baseline_rows[20].avg_cost
    worst20 = baseline_rows[20].ne_worst
    passed = r20 >= 5 * r8 and r20 > 0 and cost20 > worst20
    criterion(
        2,
        "r jumps >=5x from lambda 8 to 20 and cost exceeds NE worst",
        passed,
        f"r(8)={fmt(r8)}, r(20)={fmt(r20)}, "
        f"<C>(20)={fmt(cost20)} vs ne_worst={fmt(worst20)}",
    )
    assert passed


def test_criterion_3_memory_reduces_congestion_cost(memory_metrics, criterion):
    short, long = memory_metrics[2], memory_metrics[8]
    passed = long.avg_cost < short.avg_cost and long.congestion_ratio < short.congestion_ratio
    criterion(
        3,
        "longer memory lowers cost and congestion at lambda 50",
        passed,
        f"<C>: M=8 {fmt(long.avg_cost)} vs M=2 {fmt(short.avg_cost)}; "
        f"r: {fmt(long.congestion_ratio)} vs {fmt(short.congestion_ratio)}",
    )
    assert passed


def test_criterion_4_hub_load_stability_minimum(stability_sigmas, criterion):
    minimum = min(stability_sigmas.values())
    passed = stability_sigmas[4] == minimum
    detail = ", ".join(f"{lam}:{fmt(s)}" for lam, s in sorted(stability_sigmas.items()))
    criterion(4, "sigma over lambda 2..10 is minimal at lambda 4", passed, detail)
    assert passed, detail


def test_criterion_5_transition_at_every_ring_size(multi_scale_curves, criterion):
    failures = []
    details = []
    for n, curve in sorted(multi_scale_curves.items()):
        low = [lam for lam, r in curve.items() if r < 0.05]
        high = [lam for lam, r in curve.items() if r > 0.2]
        if low and high and min(low) < max(high):
            details.append(f"N={n}: r<0.05 at lambda={min(low)}, r>0.2 by lambda={max(high)}")
        else:
            failures.append(f"N={n}: no r<0.05 -> r>0.2 crossing")
    passed = not failures
    criterion(
        5,
        "r crosses from <0.05 to >0.2 for N in {20,40,60,80}",
        passed,
        "; ".join(failures or details),
    )
    assert passed, "; ".join(failures)


def test_criterion_6_strategy_bias_raises_cost(population_costs, sigma_grid_m8, criterion):
    het, hom, rnd = (
        population_costs["heterogeneous"],
        population_costs["homogeneous"],
        population_costs["random"],
    )
    cost_ok = het > hom and het > rnd
    sigma_bad = [
        lam
        for lam in sigma_grid_m8["heterogeneous"]
        if not sigma_grid_m8["heterogeneous"][lam] < sigma_grid_m8["random"][lam]
    ]
    passed = cost_ok and not sigma_bad
    criterion(
        6,
        "biased strategies cost more at lambda 50; M=8 sigma below coin-flip",
        passed,
        f"<C>: het {fmt(het)}, hom {fmt(hom)}, rnd {fmt(rnd)}"
        + (f"; sigma violations at lambda={sigma_bad}" if sigma_bad else ""),
    )
    assert passed


def test_criterion_7_optimal_hub_link_count(optimal_lambda_table, criterion):
    tight, loose = optimal_lambda_table[0.3], optimal_lambda_table[0.9]
    passed = loose <= 15 and loose >= tight
    criterion(
        7,
        "argmin lambda <= 15 at L/N=0.9 and >= argmin at L/N=0.3",
        passed,
        f"argmin(0.9)={loose}, argmin(0.3)={tight}",
    )
    assert passed


def test_criterion_8_equilibrium_oracle_equivalence(criterion):
    rng = np.random.default_rng(2024)
    mismatches = []
    for _ in range(200):
        n = int(rng.integers(4, 13))
        lam = int(rng.integers(2, n + 1))
        cap = int(rng.integers(1, n + 1))
        cfg = rh.NetworkConfig(N=n, hub_links=lam, L=cap)
        net = rh.build_network(cfg)
        dests = rh.draw_destinations(n, rng)
        closed = rh.ne_costs(cfg, *rh.cost_advantages(net, dests))
        best, worst = brute_force_ne(net, dests, cap)
        if (closed.c_best, closed.c_worst) != (best, worst):
            mismatches.append(f"N={n} lambda={lam} L={cap}")
    passed = not mismatches
    criterion(
        8,
        "closed-form equilibrium equals brute force on 200 instances",
        passed,
        "; ".join(mismatches) if mismatches else "200/200 exact matches",
    )
    assert passed, "; ".join(mismatches)


def test_criterion_9_property_suite(criterion):
    failures = []

    # same seed, identical trace
    cfg = rh.SimConfig(
        network=rh.NetworkConfig(N=30, hub_links=5, L=12),
        M=3, S=4, mode="homogeneous", T=120, warmup=40, seed=77,
    )
    m1, t1 = rh.run(cfg, trace=True)
    m2, t2 = rh.run(cfg, trace=True)
    if m1 != m2 or t1 != t2:
        failures.append("same seed produced different traces")

    # congestion flag consistent with capacity on every step
    bad_h = [rec.t for rec in t1 if rec.h != int(rec.n_in > cfg.network.L)]
    _, base_trace = rh.run(BASE, trace=True)
    bad_h += [rec.t for rec in base_trace if rec.h != int(rec.n_in > BASE.network.L)]
    if bad_h:
        failures.append(f"h inconsistent with capacity at t={bad_h[:5]}")

    # virtual scores move at most one unit per step
    batch = _engine.simulate_batch(
        rh.build_network(cfg.network), cfg.M, cfg.S, cfg.mode, 60, 0,
        [5, 6, 7], collect_scores=True,
    )
    if float(np.abs(batch.final_scores).max()) > 60:
        failures.append("a virtual score exceeded the step count")

    # ring distance (route_table's d_out) is a metric and equals the oracle's
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(4, 60))
        i, j, k = (int(x) for x in rng.integers(0, n, size=3))
        net = rh.build_network(rh.NetworkConfig(N=n, hub_links=2, L=1))
        dij, dii, dji, dik, djk = (
            int(d) for d in rh.route_table(net, [i, i, j, i, j], [j, i, i, k, k])[0]
        )
        if dii != 0:
            failures.append(f"d({i},{i}) != 0 on N={n}")
        if dij != dji:
            failures.append(f"asymmetric distance on N={n}")
        if (i != j) == (dij == 0):
            failures.append(f"zero distance iff equal violated on N={n}")
        if dik > dij + djk:
            failures.append(f"triangle inequality violated on N={n}")
        if [dij, dik, djk] != [ring_distance(*pair, n) for pair in ((i, j), (i, k), (j, k))]:
            failures.append(f"route_table distance differs from the oracle on N={n}")

    # route_table's hub route is optimal among all interchange pairs
    for _ in range(40):
        n = int(rng.integers(4, 21))
        lam = int(rng.integers(2, n + 1))
        net = rh.build_network(rh.NetworkConfig(N=n, hub_links=lam, L=1))
        dests = rh.draw_destinations(n, rng)
        _, d_access, d_hub = rh.route_table(net, np.arange(n), dests)
        for o, d, access, hub in zip(range(n), dests.tolist(), d_access.tolist(), d_hub.tolist()):
            got = access + net.config.alpha * hub
            best = min(
                ring_distance(o, a, n)
                + ring_distance(b, d, n)
                + net.config.alpha * ring_distance(a, b, n)
                for a in net.interchanges
                for b in net.interchanges
                if a != b
            )
            if got != best:
                failures.append(f"suboptimal route for ({o}, {d}) on N={n} lambda={lam}")

    # coin-flip agents load the hub at N/2 on average
    rep = rh.replicate(config_with(BASE, mode="random"), 30)
    half = BASE.network.N / 2
    se = max(rep.se.avg_hub_users, 1e-9)
    if abs(rep.mean.avg_hub_users - half) > 4 * se:
        failures.append(
            f"random-agent hub load {rep.mean.avg_hub_users:.3f} "
            f"more than 4 SE from {half}"
        )

    passed = not failures
    criterion(
        9,
        "determinism, flag consistency, score bound, metric axioms, route optimality, coin-flip load",
        passed,
        "; ".join(failures) if failures else "all property checks hold",
    )
    assert passed, "; ".join(failures)
