"""Independent reference for Process 1, the linear-threshold friending process.

This module shares no code with ``repro``.  It follows the paper's model as
stated in ``repro/diffusion/threshold_model.py``'s docstring:

* every user ``u`` draws a threshold ``theta_u ~ U[0, 1]``;
* the circle starts at the initiator's friends ``C_0 = N_s``;
* ``C_{i+1} = C_i  u  (Phi(C_i) n I)`` with
  ``Phi(C) = {u not in C : sum_{v in C} w(v, u) >= theta_u}``;
* ``f(I)`` is the probability that the target ends up in the final circle,
  and ``pmax = f(V)``.

Weights follow the paper's evaluation convention ``w(v, u) = 1 / |N_u|``.

Three estimators are provided:

* :func:`forward_acceptance` simulates Process 1 directly, vectorised over
  samples with numpy/scipy.  Only invited users can join, so the state of a
  sample is a boolean row over ``I \\ C_0``.
* :func:`exact_acceptance` computes ``f(I)`` exactly on graphs of a few
  users: the outcome depends on each threshold only through which interval
  between two attainable influence levels it falls in, so the threshold
  cube splits into finitely many cells, each run once.
* :func:`live_edge_pmax` estimates ``pmax`` through the live-edge view of
  the threshold model (Kempe, Kleinberg and Tardos 2003): every user keeps
  at most one incoming friendship, ``v`` with probability ``w(v, u)``, and
  the target joins iff its chain of kept friendships reaches ``C_0`` without
  a repeat.  It is checked against the other two in the tests and is the
  only one cheap enough for ``I = V`` on large graphs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse

__all__ = [
    "RefGraph",
    "forward_acceptance",
    "exact_acceptance",
    "live_edge_pmax",
    "bfs_distance",
    "sampling_sigma",
]


class RefGraph:
    """An undirected friendship graph with degree-normalised weights.

    ``edges`` is an integer array of shape ``(E, 2)`` of user ids.  Self
    loops are dropped and repeated friendships collapse to one, as SNAP
    loaders do.
    """

    def __init__(self, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[edges[:, 0] != edges[:, 1]]
        self.ids = np.unique(edges)
        index = np.searchsorted(self.ids, edges)
        n = len(self.ids)
        lo = np.minimum(index[:, 0], index[:, 1])
        hi = np.maximum(index[:, 0], index[:, 1])
        pairs = np.unique(lo * n + hi)
        lo, hi = pairs // n, pairs % n
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        adjacency = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n)
        )
        self.degree = np.diff(adjacency.indptr)
        # weights[v, u] = w(v, u) = 1 / deg(u): the share user v carries
        # towards u's threshold.
        self.weights = sparse.csr_matrix(adjacency.multiply(1.0 / self.degree[None, :]))
        self.weights.sort_indices()
        self.n = n
        self.num_edges = len(pairs)
        # Incoming view: in_weights[u] lists (v, w(v, u)) over u's friends.
        self.in_weights = sparse.csr_matrix(self.weights.T)
        self.in_weights.sort_indices()

    def index(self, node: int) -> int:
        position = int(np.searchsorted(self.ids, node))
        if position >= self.n or self.ids[position] != node:
            raise KeyError(f"unknown user {node}")
        return position

    def neighbors(self, position: int) -> np.ndarray:
        return self.weights.indices[self.weights.indptr[position]:self.weights.indptr[position + 1]]


def sampling_sigma(probability: float, samples: int) -> float:
    """Standard error of a Bernoulli mean over ``samples`` draws."""
    p = min(max(probability, 1.0 / samples), 1.0 - 1.0 / samples)
    return math.sqrt(p * (1.0 - p) / samples)


def _candidates(graph: RefGraph, source: int, invitation) -> tuple[np.ndarray, np.ndarray]:
    """(circle C_0, invited users outside it) as sorted position arrays."""
    circle = graph.neighbors(source)
    invited = np.unique(np.asarray(list(invitation), dtype=np.int64))
    return circle, np.setdiff1d(invited, circle, assume_unique=True)


def forward_acceptance(
    graph: RefGraph,
    source: int,
    target: int,
    invitation,
    samples: int,
    rng: np.random.Generator,
    batch: int = 4096,
) -> int:
    """Successes of ``samples`` forward simulations of Process 1.

    ``source``, ``target`` and ``invitation`` are positions (see
    :meth:`RefGraph.index`).  Returns how many simulations ended with the
    target in the circle.
    """
    circle, joinable = _candidates(graph, source, invitation)
    if np.isin(target, circle):
        return samples
    where = np.searchsorted(joinable, target)
    if where >= len(joinable) or joinable[where] != target:
        return 0
    # Influence C_0 exerts on each joinable user, and the joinable block of
    # the weight matrix that carries influence between joiners.
    base = np.asarray(graph.weights[circle][:, joinable].sum(axis=0)).ravel()
    inner = sparse.csr_matrix(graph.weights[joinable][:, joinable])
    successes = 0
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        thresholds = rng.random((k, len(joinable)))
        influence = np.broadcast_to(base, thresholds.shape).copy()
        joined = np.zeros(thresholds.shape, dtype=bool)
        newly = influence >= thresholds
        while newly.any():
            joined |= newly
            influence += (sparse.csr_matrix(newly, dtype=np.float64) @ inner).toarray()
            newly = (influence >= thresholds) & ~joined
        successes += int(joined[:, where].sum())
        done += k
    return successes


def exact_acceptance(graph: RefGraph, source: int, target: int, invitation) -> float:
    """``f(I)`` computed exactly by enumerating threshold cells (tiny graphs)."""
    circle, joinable = _candidates(graph, source, invitation)
    if np.isin(target, circle):
        return 1.0
    if not np.isin(target, joinable):
        return 0.0
    # Attainable influence levels of each joinable user: sums of subsets of
    # its incoming weights, clipped to [0, 1].  A threshold strictly between
    # two consecutive levels gives the same process as any other there.
    cells = []
    for user in joinable:
        start, stop = graph.in_weights.indptr[user], graph.in_weights.indptr[user + 1]
        incoming = graph.in_weights.data[start:stop]
        levels = {0.0, 1.0}
        for size in range(1, len(incoming) + 1):
            for subset in itertools.combinations(incoming, size):
                levels.add(min(1.0, float(sum(subset))))
        levels = sorted(levels)
        cells.append([(lo, hi) for lo, hi in zip(levels, levels[1:]) if hi > lo])
    total = 0.0
    circle_set = set(int(v) for v in circle)
    for choice in itertools.product(*cells):
        weight = math.prod(hi - lo for lo, hi in choice)
        thresholds = {int(u): (lo + hi) / 2 for u, (lo, hi) in zip(joinable, choice)}
        if _run_once(graph, circle_set, thresholds, int(target)):
            total += weight
    return total


def _run_once(graph: RefGraph, circle: set, thresholds: dict, target: int) -> bool:
    """One deterministic run of Process 1 with explicit thresholds."""
    members = set(circle)
    while target not in members:
        joiners = []
        for user, theta in thresholds.items():
            if user in members:
                continue
            start, stop = graph.in_weights.indptr[user], graph.in_weights.indptr[user + 1]
            influence = sum(
                w for v, w in zip(graph.in_weights.indices[start:stop],
                                  graph.in_weights.data[start:stop])
                if int(v) in members
            )
            if influence >= theta:
                joiners.append(user)
        if not joiners:
            return False
        members.update(joiners)
    return True


def live_edge_pmax(
    graph: RefGraph,
    source: int,
    target: int,
    samples: int,
    rng: np.random.Generator,
) -> int:
    """Successes of ``samples`` live-edge draws for ``pmax = f(V)``."""
    circle = np.zeros(graph.n, dtype=bool)
    circle[graph.neighbors(source)] = True
    if circle[target]:
        return samples
    indptr, indices = graph.in_weights.indptr, graph.in_weights.indices
    cumulative = np.cumsum(graph.in_weights.data)
    offsets = np.concatenate([[0.0], cumulative])[indptr[:-1]]
    successes = 0
    done = 0
    while done < samples:
        k = min(8192, samples - done)
        alive = np.arange(k)
        current = np.full(k, target, dtype=np.int64)
        # Users each chain has visited, one column per step (-1: none).
        history = [current.copy()]
        while len(alive):
            users = current[alive]
            # Keep friend j of user u with probability w(j, u), none with
            # the remainder of u's unit of threshold mass.
            pick = np.searchsorted(cumulative, rng.random(len(alive)) + offsets[users], side="right")
            kept = pick < indptr[users + 1]
            parents = indices[np.minimum(pick, len(indices) - 1)]
            hit = kept & circle[parents]
            successes += int(hit.sum())
            # A repeated user closes a cycle: that chain never reaches C_0.
            keep = kept & ~hit
            for column in history:
                keep &= column[alive] != parents
            alive, parents = alive[keep], parents[keep]
            current[alive] = parents
            column = np.full(k, -1, dtype=np.int64)
            column[alive] = parents
            history.append(column)
        done += k
    return successes


def bfs_distance(graph: RefGraph, source: int, limit: int) -> np.ndarray:
    """Hop distance from ``source`` (``limit + 1`` for anything farther)."""
    distance = np.full(graph.n, limit + 1, dtype=np.int64)
    distance[source] = 0
    frontier = np.array([source])
    for hop in range(1, limit + 1):
        reached = np.unique(graph.weights[frontier].indices)
        reached = reached[distance[reached] > limit]
        if not len(reached):
            break
        distance[reached] = hop
        frontier = reached
    return distance
