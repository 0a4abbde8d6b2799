"""The benchmark's reference simulator against exact f(I) on graphs of a few users.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("scipy")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import inputs  # noqa: E402
import refsim  # noqa: E402

SAMPLES = 40_000

#: Small friendship graphs (edge lists) with an initiator and a target at
#: distance >= 2.
GRAPHS = {
    # s - a - t with a second route s - b - c - t.
    "two-routes": ([(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)], 0, 3),
    # A diamond of intermediaries with a cross friendship.
    "diamond": ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 2), (2, 5), (5, 4)], 0, 4),
    # Path of length 4 with a pendant on the target.
    "path": ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 0, 4),
}


def positions(graph: refsim.RefGraph, nodes) -> list[int]:
    return [graph.index(node) for node in nodes]


def test_exact_matches_hand_computation():
    # s - a - t: C_0 = {a}; t has friends {a} only, so w(a, t) = 1 and t
    # always joins when invited.
    graph = refsim.RefGraph(np.array([(0, 1), (1, 2)]))
    s, t = graph.index(0), graph.index(2)
    assert refsim.exact_acceptance(graph, s, t, [t]) == pytest.approx(1.0)
    assert refsim.exact_acceptance(graph, s, t, []) == 0.0
    # s - a - t - u: t's friends are {a, u}, so w(a, t) = 1/2.
    graph = refsim.RefGraph(np.array([(0, 1), (1, 2), (2, 3)]))
    s, t = graph.index(0), graph.index(2)
    assert refsim.exact_acceptance(graph, s, t, [t]) == pytest.approx(0.5)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_forward_simulation_matches_exact(name):
    edges, source, target = GRAPHS[name]
    graph = refsim.RefGraph(np.array(edges))
    s, t = graph.index(source), graph.index(target)
    everyone = list(range(graph.n))
    rng = np.random.default_rng(7)
    for invitation in (everyone, [t], [p for p in everyone if p != s][:3] + [t]):
        exact = refsim.exact_acceptance(graph, s, t, invitation)
        hits = refsim.forward_acceptance(graph, s, t, invitation, SAMPLES, rng, batch=5000)
        sigma = refsim.sampling_sigma(exact, SAMPLES)
        assert abs(hits / SAMPLES - exact) <= 5 * sigma, (invitation, exact, hits / SAMPLES)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_live_edge_pmax_matches_exact(name):
    edges, source, target = GRAPHS[name]
    graph = refsim.RefGraph(np.array(edges))
    s, t = graph.index(source), graph.index(target)
    exact = refsim.exact_acceptance(graph, s, t, range(graph.n))
    hits = refsim.live_edge_pmax(graph, s, t, SAMPLES, np.random.default_rng(11))
    assert abs(hits / SAMPLES - exact) <= 5 * refsim.sampling_sigma(exact, SAMPLES)


def test_live_edge_agrees_with_forward_on_a_generated_graph():
    edges = inputs.preferential_attachment(120, 3, seed=5)
    graph = refsim.RefGraph(edges)
    distance = refsim.bfs_distance(graph, 0, limit=3)
    target = int(np.flatnonzero(distance == 3)[0])
    rng = np.random.default_rng(3)
    forward = refsim.forward_acceptance(graph, 0, target, range(graph.n), 8000, rng) / 8000
    live = refsim.live_edge_pmax(graph, 0, target, 8000, rng) / 8000
    sigma = np.hypot(refsim.sampling_sigma(forward, 8000), refsim.sampling_sigma(live, 8000))
    assert abs(forward - live) <= 5 * sigma


def test_generator_is_a_pure_function_of_its_seed():
    first = inputs.preferential_attachment(300, 4, seed=9)
    assert np.array_equal(first, inputs.preferential_attachment(300, 4, seed=9))
    assert not np.array_equal(first, inputs.preferential_attachment(300, 4, seed=10))
    graph = refsim.RefGraph(first)
    assert graph.n == 300
    assert graph.num_edges == (300 - 4) * 4
    # Degree-normalised weights: every user's incoming weights sum to 1.
    incoming = np.asarray(graph.weights.sum(axis=0)).ravel()
    assert np.allclose(incoming, 1.0)
