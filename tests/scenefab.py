"""Scene and graph builders shared across test modules."""

from __future__ import annotations

import functools
import importlib.util
import math
from pathlib import Path

import numpy as np

from beamroute.graph import LosGraph, RoutingTopology
from beamroute.scene import Scene

BENCH_SCENES = Path(__file__).resolve().parent.parent / "perfbench" / "scenes.py"


def make_scene(positions, num_irs, num_users, los_override=None, **kw) -> Scene:
    """Scene from raw positions: BS first, then IRSs, then users."""
    if los_override is not None:
        los_override = np.asarray(los_override)
    positions = np.array(positions, dtype=float)
    return Scene(positions, num_irs, num_users, los_override=los_override, **kw)


def los_rows(scene: Scene) -> list[list[int]]:
    """The scene's LoS as a 0/1 matrix of plain ints, an override it loads from."""
    n = scene.num_nodes
    return [[int(scene.los_indicator(i, j)) for j in range(n)] for i in range(n)]


def from_edges(
    num_irs: int, num_users: int, weighted_edges: list[tuple[int, int, float]]
) -> LosGraph:
    """Synthetic graph from explicit weighted edges; its ``topo_order``
    is id order, so every edge must run from a lower to a higher id."""
    order = tuple(range(1 + num_irs + num_users))
    edges = tuple((i, j) for i, j, _ in weighted_edges)
    topology = RoutingTopology(num_irs, num_users, edges, order)
    return LosGraph(topology, [w for _, _, w in weighted_edges])


def edge_costs(graph: LosGraph) -> dict[tuple[int, int], tuple[float, ...]]:
    """The cost tuple the searches compare, per edge: (weight,), or
    (-1, weight) with hop priority, where the -1s sum to minus the edge
    count."""
    if graph.hop_priority:
        costs = [(-1.0, w) for w in graph.weights]
    else:
        costs = [(w,) for w in graph.weights]
    return dict(zip(graph.topology.edges, costs))


def full_los(n: int) -> np.ndarray:
    m = np.ones((n, n), dtype=int)
    np.fill_diagonal(m, 0)
    return m


def chain_scene(rng, hops, elements=4, antennas=4, step_lo=3.0, step_hi=8.0, **kw) -> Scene:
    """Random single-user chain: BS, `hops` IRSs, one user.

    Consecutive nodes are placed a random step apart along a wandering
    direction; every pair is kept beyond the far-field limit.  All
    links are forced LoS via override so any chain is a valid route.
    """
    n = hops + 2
    for _ in range(200):
        pos = [np.zeros(3)]
        ok = True
        for _ in range(n - 1):
            for _ in range(100):
                step = rng.uniform(step_lo, step_hi)
                az = rng.uniform(0, 2 * math.pi)
                el = rng.uniform(math.pi / 3, 2 * math.pi / 3)
                d = np.array(
                    [
                        math.sin(el) * math.cos(az),
                        math.sin(el) * math.sin(az),
                        math.cos(el),
                    ]
                )
                cand = pos[-1] + step * d
                if all(np.linalg.norm(cand - p) >= 3.0 for p in pos):
                    pos.append(cand)
                    break
            else:
                ok = False
                break
        if ok:
            return make_scene(
                pos, hops, 1, los_override=full_los(n), elements=elements,
                bs_antennas=antennas, **kw,
            )
    raise RuntimeError("chain placement failed")


def star_scene(antennas=20) -> Scene:
    """BS with five LoS surfaces fanned out at well separated angles.

    Angles keep every pairwise sine difference away from 0 and from the
    half-wavelength grating point at 2, so all beam pairs decorrelate.
    """
    radius = 6.3
    positions = [[0.0, 0.0, 0.0]]
    for deg in (-55, -25, 3, 31, 60):
        rad = math.radians(deg)
        positions.append([radius * math.sin(rad), radius * math.cos(rad), 0.0])
    return make_scene(positions, 5, 0, bs_antennas=antennas)


def grid_positions(rows, cols, spacing):
    out = []
    for r in range(rows):
        for c in range(cols):
            out.append([(c + 1) * spacing, r * spacing, 0.0])
    return out


def override_from_pairs(n: int, pairs) -> np.ndarray:
    m = np.zeros((n, n), dtype=int)
    for i, j in pairs:
        m[i, j] = 1
        m[j, i] = 1
    return m


def corridor_scene(**kw) -> Scene:
    """One user, two disjoint ways there: a 4-hop chain of short links
    or a 2-hop detour over two long ones.

    The chain has hops of 3.2 m, the detour hops of about 7.29 m, so
    which route carries more power flips with the element count: the
    detour wins for small surfaces, the chain for large ones (the
    break-even sits near 295 elements).
    """
    positions = [
        [0.0, 0.0, 0.0],
        [3.2, 0.0, 0.0],
        [6.4, 0.0, 0.0],
        [9.6, 0.0, 0.0],
        [6.4, 3.5, 0.0],
        [12.8, 0.0, 0.0],
    ]
    pairs = [(0, 1), (1, 2), (2, 3), (3, 5), (0, 4), (4, 5)]
    return make_scene(
        positions, 4, 1, los_override=override_from_pairs(6, pairs), **kw
    )


def adversarial_scene(**kw) -> Scene:
    """Two users, two single-surface routes each, built so per-user
    greedy choices collide.

    User 1 reaches surface 1 (cheap) or 2, user 2 surface 3 (cheap) or
    4.  Cross links 1-3, 1-4 and 2-3 make every combination except
    (2, 4) conflict, so routing either user through its cheap surface
    strands the other, while the joint pick (2, 4) serves both.
    """
    positions = [
        [0.0, 0.0, 0.0],
        [4.0, 0.0, 0.0],
        [4.0, 4.0, 0.0],
        [4.0, -8.0, 0.0],
        [4.0, -12.0, 0.0],
        [8.0, 0.0, 0.0],
        [8.0, -8.0, 0.0],
    ]
    pairs = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 5), (2, 5), (3, 6), (4, 6),
        (1, 3), (1, 4), (2, 3),
    ]
    return make_scene(
        positions, 4, 2, los_override=override_from_pairs(7, pairs), **kw
    )


@functools.cache
def bench_scenes():
    """``perfbench/scenes.py``, the benchmark's seeded scene documents.

    Loaded from its file under its own name, so it neither needs the
    benchmark directory on the path nor meets the ``scenes/`` folder.
    """
    spec = importlib.util.spec_from_file_location("bench_scenes", BENCH_SCENES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corridors_k8_document(scene_seed: int) -> str:
    """A benchmark corridors document with eight users, eight surfaces each."""
    gen = bench_scenes()
    return gen.corridors_document(scene_seed, dict(gen.CORRIDORS, users=8, per_sector=8))
