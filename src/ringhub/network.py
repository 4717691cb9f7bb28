"""Ring-and-hub road networks: topology, peripheral distances, route costs.

The network is a cycle of N peripheral nodes plus one central hub connected
to ``hub_links`` of them (the interchanges). Every agent travels from an
origin node to a destination node either along the ring (outside route) or
through the hub (inside route). The hub crossing is priced by ``alpha``
when uncongested and ``beta`` when congested; both are exact rationals so
that cost comparisons never suffer floating-point ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "NetworkConfig",
    "Network",
    "build_network",
    "interchange_positions",
    "draw_destinations",
    "assign_destinations",
    "route_table",
]


INT64_MAX = int(np.iinfo(np.int64).max)
_ROUTE_BLOCK_BYTES = 1 << 21  # rough size of one block of route_table's stage 1, 2 MiB


def _as_fraction(value, field: str) -> Fraction:
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"{field} is not a rational number: {value!r}")


def _require_int(value, field: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int; refuses anything but an integer in [lo, hi]
    (hi=None: no upper bound). Python ints never wrap, so sums of the
    result cannot overflow the way numpy integers do."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ValueError(f"{field} must be an integer {bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of a ring-and-hub network.

    N: number of peripheral nodes (one agent lives on each).
    hub_links: number of interchanges connected to the hub.
    L: hub capacity; the hub is congested when more than L agents use it.
    alpha: uncongested hub-crossing coefficient.
    beta: congested hub-crossing coefficient.
    """

    N: int = 100
    hub_links: int = 4
    L: int = 80
    alpha: Fraction = Fraction(1, 2)
    beta: Fraction = Fraction(3, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_fraction(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_fraction(self.beta, "beta"))
        object.__setattr__(self, "N", _require_int(self.N, "N", 4))
        object.__setattr__(self, "hub_links", _require_int(self.hub_links, "hub_links", 2, self.N))
        object.__setattr__(self, "L", _require_int(self.L, "L", 1, self.N))
        if not 0 < self.alpha < self.beta:
            raise ValueError(
                f"need 0 < alpha < beta, got alpha={self.alpha}, beta={self.beta}"
            )
        self.check_cost_sums(1)

    @property
    def scale(self) -> int:
        """Common denominator of alpha and beta: every scaled cost is an integer."""
        return math.lcm(self.alpha.denominator, self.beta.denominator)

    def check_cost_sums(self, steps: int) -> None:
        """Refuse prices whose scaled costs, summed over N agents and steps, can pass int64.

        An agent's scaled cost is at most scale * (N//2) * (2 + beta): two
        access legs and a congested hub crossing, each no longer than N//2.
        """
        bound = steps * self.N * (self.N // 2) * (2 * self.scale + int(self.beta * self.scale))
        if bound > INT64_MAX:
            raise ValueError(
                f"alpha={self.alpha} and beta={self.beta} need scale {self.scale}; "
                f"summing N={self.N} agents' costs over {steps} step(s) can exceed int64, "
                "so give alpha and beta as fractions with small denominators"
            )


@dataclass(frozen=True)
class Network:
    """A built topology: the config plus the sorted interchange set."""

    config: NetworkConfig
    interchanges: tuple[int, ...]

    @property
    def N(self) -> int:
        return self.config.N


def interchange_positions(N: int, hub_links: int) -> tuple[int, ...]:
    """Evenly spaced interchange nodes: round(i*N/hub_links), half up.

    Rounding is done in integer arithmetic. For 2 <= hub_links <= N the exact
    positions i*N/hub_links lie at least one node apart, so the rounded ones
    are distinct, increasing and below N.
    """
    N = _require_int(N, "N", 2)
    hub_links = _require_int(hub_links, "hub_links", 2, N)
    return tuple((2 * i * N + hub_links) // (2 * hub_links) for i in range(hub_links))


def build_network(cfg: NetworkConfig) -> Network:
    """Place the interchanges for cfg. Deterministic; no RNG involved."""
    return Network(config=cfg, interchanges=interchange_positions(cfg.N, cfg.hub_links))


def draw_destinations(N: int, rng: np.random.Generator) -> np.ndarray:
    """One destination per agent, uniform over the other N-1 nodes.

    Agent n's origin is node n. The whole draw is a single generator call so
    replications consume identical stream lengths.
    """
    draws = rng.integers(0, N - 1, size=N)
    return draws + (draws >= np.arange(N))


def assign_destinations(net: Network, rng: np.random.Generator) -> np.ndarray:
    """draw_destinations for net's ring. `ringhub ne` draws its trip table
    here, the call site perfbench/tracer.py times."""
    return draw_destinations(net.N, rng)


def _nodes(values, n: int, field: str) -> np.ndarray:
    """values as an int64 array of nodes; refuses anything but integers in [0, n)."""
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"{field} must be integer nodes in [0, {n})")
    return arr.astype(np.int64, copy=False)


def route_table(net: Network, origins, dests) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized route geometry for the given (origin, destination) pairs.

    origins and dests are integer arrays of nodes in [0, N), refused with a
    ValueError naming them otherwise, that broadcast to one shape; the
    result is (d_out, d_access, d_hub), three int64 arrays of that shape:
    the ring distance from origin to destination, and the legs of the
    cheapest hub route under the uncongested price alpha. d_access is
    d(O, h_in) + d(h_out, D) and d_hub is d(h_in, h_out), over ordered pairs
    of distinct interchanges; ties go to the lexicographically smallest
    (h_in, h_out). A pair with origin == destination carries no meaning.

    Routes are priced in integers scaled by alpha = p/q, q per access step
    and p per hub step, so route selection is exact. Stage 1 finds the best
    exit b for each (entry a, destination D) as one key per pair,
    (p*d(h_a, h_b) + q*d(h_b, D)) * lam + b over b != a, whose minimum
    holds the cheapest cost and, among equal costs, the smallest b. It is a
    distance transform on the ring (Felzenszwalb and Huttenlocher, Theory
    of Computing 8, 2012): each exit's key p*d(h_a, h_b)*lam + b sits at
    h_b and grows by w = q*lam per step, so the minimum over exits is one
    running minimum clockwise and one counter-clockwise. Clockwise, the
    ring is unrolled to the line -(N-1)..N-1 with each exit at h_b and, for
    h_b > 0, at h_b - N, and the key at y is stored as key - w*y;
    counter-clockwise is the clockwise pass on the mirrored ring. Stage 1
    runs one block of entries at a time, its arrays of about 8N int64 per
    entry under _ROUTE_BLOCK_BYTES (2 MiB; at least one entry per block).
    Stage 2 picks the best entry per pair from a (pairs, lambda) array by
    np.argmin, which takes the first minimum; with the stage 1 ties this
    gives the lexicographic (h_in, h_out) order because interchanges are
    sorted.

    No int64 value of stage 1 wraps. With s = config.scale, q <= s and
    p <= alpha*s <= beta*s - 1, as alpha*s < beta*s are integers; and
    lam <= N. A key is at most K = lam*(p*(N//2) + 1) - 1, a stored value
    lies in [-w*(N-1), K + w*(N-1)], and a read-out, being a minimum, is
    at most the nearest exit's key plus w times its clockwise distance,
    which is below N as the N positions up to a node hold every exit once.
    So every value is at most
    K + w*(N-1) <= N*(N//2)*(beta*s - 1) + N + s*N*2*(N//2)
    < N*(N//2)*(2*s + beta*s) for N >= 4, the bound that
    NetworkConfig.check_cost_sums(1) keeps within int64.
    """
    n = net.N
    hubs = np.asarray(net.interchanges, dtype=np.int64)
    p = int(net.config.alpha.numerator)
    q = int(net.config.alpha.denominator)
    origins, dests = (_nodes(x, n, name) for x, name in ((origins, "origins"), (dests, "dests")))

    def ring(a, b):
        diff = np.abs(a - b)
        return np.minimum(diff, n - diff)

    # stage 1: both passes run clockwise on lines y = -(N-1)..N-1, the
    # second on the mirrored ring, whose node x is node -x mod N here. A
    # pass holds each exit at its node pos and at pos - N, which is minus
    # its mirrored node (so 0 again when pos = 0); src is each copy's exit,
    # y its place and col its column in a block's flattened
    # (entries, 2, 2N-1) lines
    lam = len(hubs)
    w = q * lam  # a key's growth per ring step
    span = 2 * n - 1
    cw, ccw = hubs, (-hubs) % n
    src = np.arange(4 * lam) % lam
    y = np.concatenate([cw, -ccw, ccw, -cw])
    col = y + (n - 1)
    col[2 * lam :] += span
    mirror = (-np.arange(n)) % n
    s1 = np.empty((n, lam), dtype=np.int64)  # (D, a), the layout stage 2 gathers
    b_star = np.empty((n, lam), dtype=np.int64)
    block = max(1, _ROUTE_BLOCK_BYTES // (64 * n))  # about 8N int64 an entry
    for lo in range(0, lam, block):
        a = np.arange(lo, min(lo + block, lam))
        key = p * lam * ring(hubs[a, None], hubs[src]) + src
        lines = np.full((len(a), 2, span), INT64_MAX)
        # no exit at the entry itself
        lines.reshape(len(a), -1)[:, col] = np.where(a[:, None] != src, key - w * y, INT64_MAX)
        np.minimum.accumulate(lines, axis=2, out=lines)
        spread = lines[:, :, n - 1 :] + w * np.arange(n)  # read at y = D = 0..N-1
        best = np.minimum(spread[:, 0], spread[:, 1, mirror])
        s1[:, a], b_star[:, a] = (x.T for x in np.divmod(best, lam))

    # stage 2: cheapest entry for each pair
    a_star = np.argmin(q * ring(origins[..., None], hubs) + s1[dests], axis=-1)
    h_in = hubs[a_star]
    h_out = hubs[b_star[dests, a_star]]
    return ring(origins, dests), ring(origins, h_in) + ring(h_out, dests), ring(h_in, h_out)
