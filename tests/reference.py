"""Slow scalar reference simulator used as the oracle for the batched engine.

A self-contained loop over agents and steps that shares no code with the
engine beyond the network's scalar route functions. It consumes random
samples in the draw order documented in ringhub._engine (destinations, bias
draws, tables, history bits, then per-step draws agent-major), so a correct
engine must reproduce its output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import ringhub as rh


@dataclass
class ReferenceTrace:
    n_in: list[int]
    h: list[int]
    total_cost: list[Fraction]
    mu_after: list[int]
    final_scores: list[np.ndarray]
    n_p: int


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
    alpha, beta = cfg.network.alpha, cfg.network.beta
    rng = np.random.default_rng(cfg.seed)
    od_pairs = rh.assign_destinations(net, rng)

    c_out: list[int] = []
    c_in_unc: list[Fraction] = []
    c_in_con: list[Fraction] = []
    for od in od_pairs:
        route = rh.best_inside_route(od, net)
        c_out.append(rh.outside_cost(od, net.N))
        c_in_unc.append(rh.inside_cost(route, False, alpha, beta))
        c_in_con.append(rh.inside_cost(route, True, alpha, beta))
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
