"""Inputs of the benchmark: graphs, screened pairs and invitations.

The two friendship graphs are fixed: ``G`` (about 1,400 users and 10k
friendships) and ``D`` (35,000 users and 210k friendships) are built from
constant graph seeds, so every run measures the same graph and the same
screened pairs, whatever its workload seed.  The workload seed picks
everything else in ``run.py``: the seeds handed to the program, the order
of the pair cycle and the request sequences.

Generated files are cached under ``perfbench/.cache/<graph>-<digest>/``,
where the digest covers this file and ``refsim.py``; a run rebuilds any file
that is missing, so it never depends on the cache being there.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refsim

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"

#: Live-edge draws behind each reference ``pmax``, and the quick first pass
#: that rejects a candidate before the full draw.
PMAX_REFERENCE_SAMPLES = 40_000
PMAX_QUICK_SAMPLES = 4_000


@dataclass(frozen=True)
class GraphSpec:
    """A preferential-attachment graph and how its pairs are screened."""

    name: str
    users: int
    links: int            # friendships each new user makes
    graph_seed: int
    pairs: int            # screened (source, target) pairs
    band: tuple           # accepted range of the reference pmax
    source_min_degree: int


#: Pairs below the band make the stopping rule draw many samples
#: (it needs ~1/pmax), pairs above it are trivial; inside it every request
#: and stopping rule finishes.  On ``D`` only well-connected initiators
#: reach such a pmax at distance 3.
GRAPH_G = GraphSpec("G", users=1400, links=7, graph_seed=20191, pairs=8,
                    band=(0.15, 0.45), source_min_degree=1)
GRAPH_D = GraphSpec("D", users=35_000, links=6, graph_seed=20192, pairs=48,
                    band=(0.04, 0.20), source_min_degree=40)


def cache_dir(spec: GraphSpec) -> Path:
    digest = hashlib.sha256()
    for name in ("inputs.py", "refsim.py"):
        digest.update((HERE / name).read_bytes())
    directory = CACHE / f"{spec.name}-{digest.hexdigest()[:12]}"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@dataclass(frozen=True)
class Pair:
    source: int
    target: int
    pmax: float       # reference pmax
    pmax_sigma: float  # its sampling standard error


def preferential_attachment(users: int, links: int, seed: int) -> np.ndarray:
    """Barabasi-Albert friendships: each new user befriends ``links`` others.

    Targets are drawn with probability proportional to degree (uniformly
    from the list of friendship endpoints) and are distinct per new user.
    Ids are shuffled so that id order says nothing about age or degree.
    """
    rng = random.Random(seed)
    endpoints: list[int] = list(range(links))
    edges: list[tuple[int, int]] = []
    for user in range(links, users):
        chosen: set[int] = set()
        while len(chosen) < links:
            chosen.add(endpoints[rng.randrange(len(endpoints))])
        for friend in chosen:
            edges.append((user, friend))
            endpoints.append(friend)
        endpoints.extend([user] * links)
    label = list(range(users))
    rng.shuffle(label)
    relabel = np.asarray(label, dtype=np.int64)
    return relabel[np.asarray(edges, dtype=np.int64)]


def write_edge_list(edges: np.ndarray, path: Path) -> None:
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(f"# preferential-attachment friendships: {len(edges)} edges\n")
        handle.write("\n".join(f"{u}\t{v}" for u, v in edges.tolist()))
        handle.write("\n")
    tmp.replace(path)


def screen_pairs(graph: refsim.RefGraph, spec: GraphSpec) -> list[Pair]:
    """``spec.pairs`` (source, target) pairs: non-friends at distance 3 whose
    reference ``pmax`` lies inside ``spec.band``.

    Candidates are drawn in a seeded order; each initiator contributes at
    most one pair so the pairs spread over the graph.
    """
    rng = random.Random(spec.graph_seed + 1)
    sample_rng = np.random.default_rng(spec.graph_seed + 1)
    low, high = spec.band
    pairs: list[Pair] = []
    sources = np.flatnonzero(graph.degree >= spec.source_min_degree).tolist()
    rng.shuffle(sources)
    for source in sources:
        if len(pairs) == spec.pairs:
            break
        # Distance exactly 3: not a friend of a friend, so the invitation
        # must recruit at least one intermediary.
        ring = np.flatnonzero(refsim.bfs_distance(graph, source, limit=3) == 3)
        if not len(ring):
            continue
        target = int(ring[rng.randrange(len(ring))])
        quick = refsim.live_edge_pmax(graph, source, target, PMAX_QUICK_SAMPLES, sample_rng)
        if not 0.8 * low <= quick / PMAX_QUICK_SAMPLES <= 1.2 * high:
            continue
        hits = refsim.live_edge_pmax(graph, source, target, PMAX_REFERENCE_SAMPLES, sample_rng)
        pmax = hits / PMAX_REFERENCE_SAMPLES
        if low <= pmax <= high:
            pairs.append(Pair(
                source=int(graph.ids[source]),
                target=int(graph.ids[target]),
                pmax=pmax,
                pmax_sigma=refsim.sampling_sigma(pmax, PMAX_REFERENCE_SAMPLES),
            ))
    if len(pairs) < spec.pairs:
        raise RuntimeError(f"only {len(pairs)} of {spec.pairs} pairs screened into {spec.band}")
    return pairs


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def prepare_graph(spec: GraphSpec):
    """(edge list path, reference graph, screened pairs), cached."""
    directory = cache_dir(spec)
    edge_path = directory / "edges.txt"
    array_path = directory / "edges.npy"
    pairs_path = directory / "pairs.json"
    if array_path.exists() and edge_path.exists():
        edges = np.load(array_path)
    else:
        edges = preferential_attachment(spec.users, spec.links, spec.graph_seed)
        write_edge_list(edges, edge_path)
        np.save(array_path.with_suffix(".tmp.npy"), edges)
        array_path.with_suffix(".tmp.npy").replace(array_path)
    graph = refsim.RefGraph(edges)
    if pairs_path.exists():
        pairs = [Pair(**item) for item in json.loads(pairs_path.read_text())]
    else:
        pairs = screen_pairs(graph, spec)
        _write_atomic(pairs_path, json.dumps([pair.__dict__ for pair in pairs]))
    return edge_path, graph, pairs


def prepare_snapshot(spec: GraphSpec, edge_path: Path, env: dict) -> Path:
    """The graph compiled by ``repro compile-graph`` (once; users compile once
    and serve many times)."""
    directory = cache_dir(spec)
    snapshot = directory / "snapshot"
    done = directory / "snapshot.done"
    if not done.exists():
        subprocess.run(
            [sys.executable, "-m", "repro", "compile-graph", str(edge_path), str(snapshot)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        done.write_text("ok\n")
    return snapshot


def bridge_invitation(graph: refsim.RefGraph, pair: Pair, limit: int = 8) -> list[int]:
    """The target plus up to ``limit - 1`` of its friends who are friends of
    the initiator's friends: the shortest bridges an invitation can use."""
    source, target = graph.index(pair.source), graph.index(pair.target)
    near = refsim.bfs_distance(graph, source, limit=2) == 2
    bridges = [int(v) for v in graph.neighbors(target) if near[v]][: limit - 1]
    return sorted(int(graph.ids[v]) for v in [target, *bridges])
