"""Route compatibility, path-graph assembly, min-max clique search."""

import itertools

import numpy as np
import pytest

from beamroute.clique import (
    CliqueError,
    CliqueSearch,
    NoCandidateRoutesError,
    PathGraph,
    build_path_graph,
    min_max_clique,
    neighbor_disjoint,
)
from beamroute.graph import route_from_sequence
from scenefab import make_scene


def pathgraph_from_bits(weights_by_part, adj_pairs):
    """Synthetic PathGraph: weights per partition plus an edge list."""
    partitions = []
    weight = []
    order_key = []
    idx = 0
    for ws in weights_by_part:
        ids = []
        for w in ws:
            ids.append(idx)
            weight.append(float(w))
            order_key.append((float(w),))
            idx += 1
        partitions.append(tuple(ids))
    adj = [set() for _ in weight]
    for a, b in adj_pairs:
        adj[a].add(b)
        adj[b].add(a)
    return PathGraph(
        users=tuple(range(1, len(partitions) + 1)),
        partitions=tuple(partitions),
        weight=tuple(weight),
        order_key=tuple(order_key),
        adj=tuple(frozenset(s) for s in adj),
    )


def oracle_min_max(graph):
    """Exhaustive product enumeration, no recursion sharing."""
    best = None
    for combo in itertools.product(*graph.partitions):
        ok = all(
            b in graph.adj[a] for a, b in itertools.combinations(combo, 2)
        )
        if not ok:
            continue
        worst = max(graph.order_key[v] for v in combo)
        total = tuple(
            sum(graph.order_key[v][i] for v in combo) for i in range(len(worst))
        )
        key = (worst, total, combo)
        if best is None or key < best:
            best = key
    return best


def random_pathgraph(rng):
    k = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 6)) for _ in range(k)]
    weights = [[float(rng.normal()) for _ in range(s)] for s in sizes]
    partitions = []
    idx = 0
    for s in sizes:
        partitions.append(list(range(idx, idx + s)))
        idx += s
    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            for va in partitions[a]:
                for vb in partitions[b]:
                    if rng.random() < 0.55:
                        pairs.append((va, vb))
    return pathgraph_from_bits(weights, pairs)


class TestNeighborDisjoint:
    def scene(self):
        # BS centered between two corridors 8 m apart, beyond LoS range
        positions = [
            [0, 4, 0],
            [3, 0, 0],
            [8, 0, 0],
            [3, 8, 0],
            [8, 8, 0],
            [13, 0, 0],
            [13, 8, 0],
        ]
        return make_scene(positions, 4, 2, los_threshold=6.4)

    def test_separated_routes(self):
        scene = self.scene()
        a = route_from_sequence(scene, 1, [1, 2])
        b = route_from_sequence(scene, 2, [3, 4])
        assert neighbor_disjoint(a, b, scene) is True
        assert neighbor_disjoint(b, a, scene) is True

    def test_cross_los_vertex_blocks(self):
        # routes share no vertex, but their surfaces see each other
        positions = [[0, 0, 0], [5, 0, 0], [5, 5, 0], [10, 0, 0], [10, 5, 0]]
        override = np.zeros((5, 5), dtype=int)
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 4), (1, 2)]:
            override[i, j] = override[j, i] = 1
        scene = make_scene(positions, 2, 2, los_override=override)
        a = route_from_sequence(scene, 1, [1])
        b = route_from_sequence(scene, 2, [2])
        assert neighbor_disjoint(a, b, scene) is False
        # removing the cross link restores compatibility
        override2 = override.copy()
        override2[1, 2] = override2[2, 1] = 0
        scene2 = make_scene(positions, 2, 2, los_override=override2)
        a2 = route_from_sequence(scene2, 1, [1])
        b2 = route_from_sequence(scene2, 2, [2])
        assert neighbor_disjoint(a2, b2, scene2) is True

    def test_shared_vertex_blocks(self):
        positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0], [9, 4, 0], [15, 0, 0], [15, 6, 0]]
        scene = make_scene(positions, 3, 2, los_threshold=6.4)
        a = route_from_sequence(scene, 1, [1, 2])
        b = route_from_sequence(scene, 2, [1, 3])
        assert neighbor_disjoint(a, b, scene) is False

    def test_user_to_user_los_blocks(self):
        positions = [[0, 0, 0], [5, 0, 0], [5, 20, 0], [10, 0, 0], [10, 4, 0]]
        scene = make_scene(positions, 2, 2, los_threshold=6.4)
        a = route_from_sequence(scene, 1, [1])
        b = route_from_sequence(scene, 2, [2]) if scene.los_indicator(0, 2) else None
        assert b is None  # surface 2 out of BS range by construction
        # force the situation with an override instead
        override = np.zeros((5, 5), dtype=int)
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]:
            override[i, j] = override[j, i] = 1
        scene = make_scene(positions, 2, 2, los_override=override)
        a = route_from_sequence(scene, 1, [1])
        b = route_from_sequence(scene, 2, [2])
        assert neighbor_disjoint(a, b, scene) is False  # users 3 and 4 see each other

    def test_same_user_rejected(self):
        scene = self.scene()
        a = route_from_sequence(scene, 1, [1, 2])
        b = route_from_sequence(scene, 1, [1, 2])
        with pytest.raises(CliqueError, match="same-user"):
            neighbor_disjoint(a, b, scene)


class TestBuildPathGraph:
    def scene(self):
        positions = [
            [0, 4, 0],
            [3, 0, 0],
            [8, 0, 0],
            [3, 8, 0],
            [8, 8, 0],
            [13, 0, 0],
            [13, 8, 0],
        ]
        return make_scene(positions, 4, 2, los_threshold=6.4)

    def test_two_user_graph(self):
        scene = self.scene()
        cands = {
            1: [route_from_sequence(scene, 1, [1, 2])],
            2: [route_from_sequence(scene, 2, [3, 4])],
        }
        pg = build_path_graph(cands, scene)
        assert pg.partitions == ((0,), (1,))
        assert pg.adj[0] == frozenset({1})
        assert pg.weight[0] == pytest.approx(cands[1][0].cost)

    def test_empty_candidate_list(self):
        scene = self.scene()
        cands = {1: [route_from_sequence(scene, 1, [1, 2])], 2: []}
        with pytest.raises(NoCandidateRoutesError) as info:
            build_path_graph(cands, scene)
        assert info.value.user_index == 2
        assert "user 2" in str(info.value)

    def test_adjacency_matches_predicate(self):
        # dense override scene so both users hold several candidates
        positions = [
            [0, 0, 0],
            [5, 0, 0],
            [10, 0, 0],
            [5, 10, 0],
            [10, 10, 0],
            [15, 0, 0],
            [15, 10, 0],
        ]
        override = np.zeros((7, 7), dtype=int)
        links = [(0, 1), (0, 3), (1, 2), (3, 4), (2, 5), (4, 6), (1, 4), (2, 4), (3, 2)]
        for i, j in links:
            override[i, j] = override[j, i] = 1
        scene = make_scene(positions, 4, 2, los_override=override)
        cands = {
            1: [
                route_from_sequence(scene, 1, [1, 2]),
                route_from_sequence(scene, 1, [3, 2]),
            ],
            2: [
                route_from_sequence(scene, 2, [3, 4]),
                route_from_sequence(scene, 2, [1, 4]),
            ],
        }
        pg = build_path_graph(cands, scene)
        routes = pg.routes
        for va in pg.partitions[0]:
            for vb in pg.partitions[1]:
                expect = neighbor_disjoint(routes[va], routes[vb], scene)
                assert (vb in pg.adj[va]) == expect

    def test_mislabeled_route_rejected(self):
        scene = self.scene()
        cands = {1: [route_from_sequence(scene, 2, [3, 4])]}
        with pytest.raises(CliqueError, match="listed under"):
            build_path_graph(cands, scene)

    def test_intra_partition_edges_rejected(self):
        with pytest.raises(CliqueError, match="inside a partition"):
            pathgraph_from_bits([[1.0, 2.0]], [(0, 1)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(CliqueError, match="symmetric"):
            PathGraph(
                users=(1, 2),
                partitions=((0,), (1,)),
                weight=(1.0, 2.0),
                order_key=((1.0,), (2.0,)),
                adj=(frozenset({1}), frozenset()),
            )


class TestMinMaxClique:
    def test_single_partition(self):
        pg = pathgraph_from_bits([[3.0, 1.0, 2.0]], [])
        c = min_max_clique(pg)
        assert c.vertices == (1,)
        assert c.objective == 1.0

    def test_complete_bipartite(self):
        pg = pathgraph_from_bits(
            [[3.0, 1.0], [2.0, 5.0]],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        )
        c = min_max_clique(pg)
        assert c.vertices == (1, 2)
        assert c.objective == 2.0

    def test_forced_worse_choice(self):
        # the cheap candidates are incompatible, only the dear pair works
        pg = pathgraph_from_bits([[1.0, 9.0], [1.0, 8.0]], [(1, 3)])
        c = min_max_clique(pg)
        assert c.vertices == (1, 3)
        assert c.objective == 9.0

    def test_infeasible(self):
        pg = pathgraph_from_bits([[1.0], [1.0]], [])
        assert min_max_clique(pg) is None

    def test_tie_breaks_on_sum_then_index(self):
        pg = pathgraph_from_bits(
            [[5.0, 5.0], [3.0, 1.0]],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        )
        c = min_max_clique(pg)
        assert c.vertices == (0, 3)  # same max, smaller sum
        pg2 = pathgraph_from_bits(
            [[5.0, 5.0], [3.0, 3.0]],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        )
        c2 = min_max_clique(pg2)
        assert c2.vertices == (0, 2)  # full tie, lexicographic

    def test_oracle_agreement(self):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(120):
            pg = random_pathgraph(rng)
            want = oracle_min_max(pg)
            got = min_max_clique(pg)
            if want is None:
                assert got is None
                continue
            assert got.vertices == want[2]
            assert got.objective_key == want[0]
            hits += 1
        assert hits >= 40

    def test_pruned_matches_unpruned(self):
        rng = np.random.default_rng(32)
        for _ in range(80):
            pg = random_pathgraph(rng)
            a = min_max_clique(pg, prune=True)
            b = min_max_clique(pg, prune=False)
            if a is None:
                assert b is None
                continue
            assert a.objective == b.objective
            assert a.vertices == b.vertices

    def test_pruning_reduces_exploration(self):
        pg = pathgraph_from_bits(
            [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
            [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)],
        )
        pruned = CliqueSearch(pg, prune=True)
        pruned.run()
        full = CliqueSearch(pg, prune=False)
        full.run()
        assert pruned.explored < full.explored

    def test_explored_counts_partials(self):
        pg = pathgraph_from_bits([[1.0], [2.0]], [(0, 1)])
        search = CliqueSearch(pg, prune=False)
        search.run()
        assert search.explored == 2  # the singleton and the pair

    def test_clique_members_pairwise_adjacent(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            pg = random_pathgraph(rng)
            c = min_max_clique(pg)
            if c is None:
                continue
            for a, b in itertools.combinations(c.vertices, 2):
                assert b in pg.adj[a]
