"""Scalar oracles for the vectorized package: route geometry, the
equilibrium band and a slow reference simulator.

ring_distance, outside_cost, best_inside_route and inside_cost price one
trip, an (origin, destination) node pair, at a time. scalar_costs,
potential_users and brute_force_ne take a trip table as a sequence dests
with agent n travelling from node n to dests[n], the form
ringhub.draw_destinations returns; brute_force_ne enumerates hub
allocations. reference_run is a self-contained loop over agents and steps, and
settled reads each run's cycle of hub states from the states one by one.
They share no draw, geometry, cost or equilibrium code with ringhub, only
its configs and build_network. reference_run consumes random samples in the
draw order documented in ringhub._engine (destinations, bias draws, tables,
history bits, then per-step draws agent-major), so a correct engine must
reproduce its output bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import ringhub as rh


def ring_distance(i: int, j: int, N: int) -> int:
    """Shortest path length between nodes i and j along the ring."""
    if not (0 <= i < N and 0 <= j < N):
        raise IndexError(f"node index out of range for N={N}: ({i}, {j})")
    d = abs(i - j)
    return min(d, N - d)


def outside_cost(o: int, d: int, N: int) -> int:
    """Ring-route cost: the peripheral distance from origin o to destination d."""
    return ring_distance(o, d, N)


@dataclass(frozen=True)
class InsideRoute:
    """Least-cost hub route: entry interchange, exit interchange, leg lengths.

    d_access is d(O, h_in) + d(h_out, D); d_hub is d(h_in, h_out). The hub
    crossing is the only leg whose price depends on congestion.
    """

    h_in: int
    h_out: int
    d_access: int
    d_hub: int

    def __post_init__(self) -> None:
        if self.h_in == self.h_out:
            raise ValueError("inside route must use two distinct interchanges")
        if self.d_access < 0 or self.d_hub < 1:
            raise ValueError("leg lengths out of range")


def best_inside_route(o: int, d: int, net: rh.Network) -> InsideRoute:
    """Cheapest hub route from node o to node d under the uncongested price alpha.

    Scans all ordered pairs of distinct interchanges; ties go to the
    lexicographically smallest (h_in, h_out).
    """
    alpha = net.config.alpha
    n = net.N
    best: InsideRoute | None = None
    best_cost: Fraction | None = None
    for h_in in net.interchanges:
        d_in = ring_distance(o, h_in, n)
        for h_out in net.interchanges:
            if h_out == h_in:
                continue
            d_hub = ring_distance(h_in, h_out, n)
            d_access = d_in + ring_distance(h_out, d, n)
            cost = d_access + alpha * d_hub
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = InsideRoute(h_in, h_out, d_access, d_hub)
    assert best is not None  # guaranteed by hub_links >= 2
    return best


def inside_cost(route: InsideRoute, congested: bool, alpha: Fraction, beta: Fraction) -> Fraction:
    """Realized hub-route cost: access legs plus the priced hub crossing."""
    return route.d_access + (beta if congested else alpha) * route.d_hub


def scalar_costs(net: rh.Network, dests):
    """Per-agent (outside, inside uncongested, inside congested) cost lists."""
    alpha, beta = net.config.alpha, net.config.beta
    c_out: list[int] = []
    c_in_unc: list[Fraction] = []
    c_in_con: list[Fraction] = []
    for o, d in enumerate(map(int, dests)):
        if o == d:
            raise ValueError(f"dests: agent {o} travels to its own node")
        route = best_inside_route(o, d, net)
        c_out.append(outside_cost(o, d, net.N))
        c_in_unc.append(inside_cost(route, False, alpha, beta))
        c_in_con.append(inside_cost(route, True, alpha, beta))
    return c_out, c_in_unc, c_in_con


def potential_users(net: rh.Network, dests) -> int:
    """Agents whose uncongested inside route strictly beats the ring."""
    c_out, c_in_unc, _ = scalar_costs(net, dests)
    return sum(1 for out, inu in zip(c_out, c_in_unc) if out > inu)


def brute_force_ne(network: rh.Network, dests, L: int) -> tuple[Fraction, Fraction]:
    """Extreme equilibrium average costs by exhaustive enumeration.

    Enumerates every subset of potential agents of size min(n_p, L) as the
    hub population, keeps the subsets no agent wants to leave or join
    unilaterally, and returns the (min, max) average cost over them. Only
    feasible for small instances.
    """
    n = len(dests)
    if n > 16:
        raise ValueError(f"instance too large for enumeration: N={n} > 16")
    c_out, c_in_unc, c_in_con = scalar_costs(network, dests)

    potential = [a for a in range(n) if c_out[a] > c_in_unc[a]]
    k = min(len(potential), L)

    best: Fraction | None = None
    worst: Fraction | None = None
    for subset in itertools.combinations(potential, k):
        inside = set(subset)
        congested_if_joined = (k + 1) > L
        stable = True
        for a in range(n):
            if a in inside:
                if c_out[a] < c_in_unc[a]:  # leaving would pay off
                    stable = False
                    break
            else:
                joined_cost = c_in_con[a] if congested_if_joined else c_in_unc[a]
                if joined_cost < c_out[a]:  # joining would pay off
                    stable = False
                    break
        if not stable:
            continue
        total = sum(c_out[a] for a in range(n) if a not in inside)
        total += sum(c_in_unc[a] for a in inside)
        avg = Fraction(total) / n
        if best is None or avg < best:
            best = avg
        if worst is None or avg > worst:
            worst = avg
    if best is None or worst is None:
        raise ValueError("no equilibrium among capacity-respecting allocations")
    return best, worst


@dataclass
class ReferenceTrace:
    n_in: list[int]
    h: list[int]
    total_cost: list[Fraction]
    mu_after: list[int]
    final_scores: list[np.ndarray]
    n_p: int


def draw_dests(N: int, rng) -> list[int]:
    """Agent n's destination, uniform over the N-1 other nodes: one draw on
    0..N-2 per agent in a single call, shifted up by one at or past node n."""
    return [d + (d >= n) for n, d in enumerate(rng.integers(0, N - 1, size=N).tolist())]


def draw_biases(mode: str, M: int, N: int, S: int, rng) -> list[list[int]]:
    """Bias K of each agent's strategies: P/2 for homogeneous agents, else
    uniform on the P+1 integers 0..P, one scalar draw each, agent-major."""
    p = 1 << M
    if mode == "homogeneous":
        return [[p // 2] * S for _ in range(N)]
    return [[int(rng.integers(0, p + 1)) for _ in range(S)] for _ in range(N)]


def draw_tables(biases: list[list[int]], M: int, rng) -> list[np.ndarray]:
    """One (S, P) bool table per agent; True (take the hub) where the entry's
    draw on 0..P-1 is at least K, so an entry is False with probability K/P."""
    p = 1 << M
    return [np.array([rng.integers(0, p, size=p) >= k for k in row]) for row in biases]


def choose(table: np.ndarray | None, scores: np.ndarray, mu: int, rng) -> bool:
    """One agent's action: True takes the hub.

    An agent without a table flips a fair coin (one float below 1/2). Others
    draw one key per strategy and play the suggestion of argmax(2*score + key),
    so the best score wins, ties split uniformly, and the stream advances at
    a fixed rate whether or not there was a tie.
    """
    if table is None:
        return bool(rng.random() < 0.5)
    return bool(table[np.argmax(2 * scores + rng.random(len(scores))), mu])


def credit(table: np.ndarray, scores: np.ndarray, mu: int, c_out, c_in) -> None:
    """Score every strategy, played or not, for the step that just resolved:
    +1 for suggesting the cheaper route, -1 for the dearer one, no change on
    an exact cost tie. c_in is priced at the realized hub state."""
    diff = c_out - c_in
    scores += ((diff > 0) - (diff < 0)) * (2 * table[:, mu].astype(np.int64) - 1)


def reference_run(cfg: rh.SimConfig) -> ReferenceTrace:
    net = rh.build_network(cfg.network)
    rng = np.random.default_rng(cfg.seed)
    c_out, c_in_unc, c_in_con = scalar_costs(net, draw_dests(net.N, rng))
    n_p = sum(1 for n in range(net.N) if c_out[n] > c_in_unc[n])

    adaptive = cfg.mode != "random"
    tables: list = [None] * net.N
    if adaptive:
        tables = draw_tables(draw_biases(cfg.mode, cfg.M, net.N, cfg.S, rng), cfg.M, rng)
    scores = [np.zeros(cfg.S, dtype=np.int64) for _ in range(net.N)]

    p = 1 << cfg.M
    mu = 0
    for bit in rng.integers(0, 2, size=cfg.M):
        mu = (mu << 1) | int(bit)

    trace = ReferenceTrace([], [], [], [], [], n_p)
    for _ in range(cfg.T):
        actions = [choose(tables[n], scores[n], mu, rng) for n in range(net.N)]
        n_in = sum(actions)
        h = int(n_in > cfg.network.L)
        c_in = c_in_con if h else c_in_unc
        total = sum((c_in[n] if actions[n] else c_out[n] for n in range(net.N)), Fraction(0))
        if adaptive:
            for n in range(net.N):
                credit(tables[n], scores[n], mu, c_out[n], c_in[n])
        mu = ((mu << 1) | h) & (p - 1)
        trace.n_in.append(n_in)
        trace.h.append(h)
        trace.total_cost.append(total)
        trace.mu_after.append(mu)
    trace.final_scores = [s.copy() for s in scores]
    return trace


def last_changes(hub: list[int], chunk: int) -> list[int]:
    """For each lag q = 1 .. chunk // 2, the last step of the hub states hub
    whose state differs from the one q steps back; -1 where none does."""
    last = []
    for q in range(1, chunk // 2 + 1):
        changed = [i for i in range(q, len(hub)) if hub[i] != hub[i - q]]
        last.append(changed[-1] if changed else -1)
    return last


def settled(hub: list[int], chunk: int) -> tuple[int, int]:
    """A run's cycle of hub states, (lock_step, period), as
    BatchResult.lock_step and period report it: the smallest lag q whose
    q-periodic tail, from its last change - q + 1, holds a whole chunk ending
    before T, and the end of the first such chunk; (T, 0) where none does."""
    T = len(hub)
    for q, last in enumerate(last_changes(hub, chunk), start=1):
        start = max(last - q + 1, 0)
        step = (start + chunk - 1) // chunk * chunk + chunk
        if step < T:
            return step, q
    return T, 0
