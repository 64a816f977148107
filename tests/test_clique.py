"""Route compatibility, path-graph assembly, min-max clique search."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from beamroute import solver
from beamroute.clique import (
    CliqueError,
    CliqueSearch,
    NoCandidateRoutesError,
    PathGraph,
    build_path_graph,
    compatible,
    route_masks,
)
from beamroute.graph import (
    Route,
    build_routing_graph,
    enumerate_paths,
    route_from_sequence,
    top_routes,
)
from beamroute.scene import Scene, SceneError, load_scene
from beamroute.solver import SolveParams, solve
from scenefab import (
    adversarial_scene,
    bench_scenes,
    chain_scene,
    corridor_scene,
    corridors_k8_document,
    make_scene,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def worst_key(graph, clique):
    """A clique's largest ``order_key``, the min-max objective."""
    return max(graph.order_key[v] for v in clique.vertices)


def pathgraph_from_bits(weights_by_part, adj_pairs):
    """Synthetic PathGraph: weights per partition plus an edge list.

    Vertices are listed partition by partition, in the order given;
    each pair (a, b) of listed ids links two of them.  The graph is
    renumbered by ``sorted_pathgraph``.
    """
    keys = [(float(w),) for ws in weights_by_part for w in ws]
    return sorted_pathgraph(keys, [len(ws) for ws in weights_by_part], adj_pairs)


def sorted_pathgraph(keys, sizes, adj_pairs):
    """PathGraph over keys listed partition by partition, in any order.

    ``sizes`` splits ``keys`` into consecutive partitions.  Each is
    renumbered in key order, equal keys in listed order, as
    ``PathGraph`` requires, and the pairs of listed ids are mapped
    along.  Listed keys that are already sorted keep their ids.
    """
    order, partitions, start = [], [], 0
    for size in sizes:
        order += sorted(range(start, start + size), key=keys.__getitem__)
        partitions.append(tuple(range(start, start + size)))
        start += size
    new_id = {old: new for new, old in enumerate(order)}
    masks = [0] * len(keys)
    for a, b in adj_pairs:
        a, b = new_id[a], new_id[b]
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    graph = PathGraph(
        partitions=tuple(partitions),
        order_key=tuple(keys[v] for v in order),
        adj_masks=tuple(masks),
    )
    # PathGraph checks nothing on construction: the search's precondition
    assert_pathgraph_invariants(graph)
    return graph


def assert_pathgraph_invariants(graph):
    """What ``PathGraph`` requires and ``build_path_graph`` makes: at
    least one partition, consecutive ids partition by partition, keys in
    order within each, one key and one mask per vertex, and symmetric
    adjacency with no edge inside a partition or past the last vertex."""
    parts, keys, masks = graph.partitions, graph.order_key, graph.adj_masks
    assert parts
    start = 0
    for part in parts:
        assert part == tuple(range(start, start + len(part))), parts
        assert list(keys[start : start + len(part)]) == sorted(keys[start : start + len(part)])
        start += len(part)
    assert len(keys) == len(masks) == start
    for part, bits in zip(parts, graph.part_masks):
        assert all(not masks[v] & bits for v in part)
    for v, mask in enumerate(masks):
        assert mask >> start == 0
        assert all(masks[u] >> v & 1 == mask >> u & 1 for u in range(start))


def all_cliques(graph):
    """Every full clique as (worst key, key sum, vertex tuple), by product enumeration."""
    found = []
    for combo in itertools.product(*graph.partitions):
        ok = all(
            b in graph.adj[a] for a, b in itertools.combinations(combo, 2)
        )
        if not ok:
            continue
        worst = max(graph.order_key[v] for v in combo)
        # plain left-to-right addition in member order, as the search
        # adds; the builtin sum() compensates from Python 3.12 on
        total = [0.0] * len(worst)
        for v in combo:
            for i, x in enumerate(graph.order_key[v]):
                total[i] += x
        found.append((worst, tuple(total), combo))
    return found


def oracle_min_max(graph):
    """Exhaustive product enumeration, no recursion sharing."""
    return min(all_cliques(graph), default=None)


def naive_rounds(parts, linked):
    """The arc-consistency pass written over sets, one round at a time.

    ``parts`` lists each partition's items and ``linked(a, b)`` says
    whether two items of different partitions are compatible.  Returns
    the surviving sets after the last round and the lowest partition
    that round left empty, or None when the pass ends with none empty.
    """
    alive = [set(p) for p in parts]
    while True:
        empty = [k for k, items in enumerate(alive) if not items]
        if empty:
            return alive, empty[0]
        kept = [
            {
                a
                for a in items
                if all(
                    any(linked(a, b) for b in other)
                    for j, other in enumerate(alive)
                    if j != k
                )
            }
            for k, items in enumerate(alive)
        ]
        if kept == alive:
            return alive, None
        alive = kept


def graph_rounds(graph):
    """``naive_rounds`` on a PathGraph's neighbour sets."""
    return naive_rounds(graph.partitions, lambda a, b: b in graph.adj[a])


def alive_sets(graph, search):
    """Each partition's vertices left by the search's pass."""
    return [{v for v in part if search.alive >> v & 1} for part in graph.partitions]


def pass_graphs(seed):
    """Random K-partite graphs of every key draw, and random_pathgraph ones."""
    rng = np.random.default_rng(seed)
    for draw in sorted(KEY_DRAWS):
        for _ in range(120):
            yield random_kpartite(rng, KEY_DRAWS[draw])
    for _ in range(120):
        yield random_pathgraph(rng)


# key draws for random K-partite graphs
KEY_DRAWS = {
    "normal": lambda rng: (float(rng.normal()),),
    # equal keys and exactly tying sums
    "half_units": lambda rng: (float(rng.integers(0, 6)) / 2,),
    # hop-priority keys: hop count first, then a half-unit cost
    "hop_priority": lambda rng: (float(rng.integers(1, 4)), float(rng.integers(0, 6)) / 2),
    # decimals whose sums round, differently in different orders
    "decimals": lambda rng: (float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.6, 0.7])),),
}


def random_kpartite(rng, draw):
    """Random K-partite graph from keys drawn in no particular order.

    ``sorted_pathgraph`` renumbers every partition whose draws come out
    unsorted.
    """
    k = int(rng.integers(2, 5))
    sizes = [int(s) for s in rng.integers(1, 6, k)]
    owner = np.repeat(np.arange(k), sizes)
    density = rng.uniform(0.3, 0.9)
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(len(owner)), 2)
        if owner[a] != owner[b] and rng.random() < density
    ]
    return sorted_pathgraph([draw(rng) for _ in owner], sizes, pairs)


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


def raw_compatible(scene, a, b):
    """The compatibility rule written out over raw LoS queries."""
    va = a.vertices[1:]
    vb = b.vertices[1:]
    if set(va) & set(vb):
        return False
    return not any(scene.los_indicator(u, v) for u in va for v in vb)


def naive_last_hop(scene):
    """The last-hop relaxation written out over raw LoS queries.

    Each user's partition holds the pseudo-routes (0, l, u) for the
    surfaces l in LoS of u that a path from the BS reaches: from the BS
    to a LoS surface, then on to LoS surfaces strictly farther from the
    BS.  ``naive_rounds`` runs over them with ``raw_compatible``.
    Returns the partitions, the survivors and the lowest partition
    emptied (an empty partition before any round means a user with no
    path from the BS), or None.
    """
    j = scene.num_irs
    reached = []
    for s in sorted(range(1, j + 1), key=lambda s: scene.distance(0, s)):
        if scene.los_indicator(0, s) or any(
            scene.los_indicator(r, s) and scene.distance(0, r) < scene.distance(0, s)
            for r in reached
        ):
            reached.append(s)
    parts = [
        [Route(u, (0, l, j + u), ()) for l in sorted(reached) if scene.los_indicator(l, j + u)]
        for u in range(1, scene.num_users + 1)
    ]
    alive, blocked = naive_rounds(parts, lambda a, b: raw_compatible(scene, a, b))
    return parts, alive, blocked


def neighbor_disjoint(a, b, scene):
    """Whether ``build_path_graph`` links two routes of different users.

    It also checks that the link is the same seen from either end.
    """
    pg = build_path_graph({a.user_index: [a], b.user_index: [b]}, scene)
    forward = bool(pg.adj_masks[0] >> 1 & 1)
    assert forward == bool(pg.adj_masks[1] & 1)
    return forward


def random_override_scene(rng, num_irs, num_users):
    """Random symmetric LoS bits over a 5 m lattice, BS links likelier."""
    n = 1 + num_irs + num_users
    cells = [(i, j) for i in range(6) for j in range(6) if (i, j) != (0, 0)]
    picks = rng.permutation(len(cells))[: n - 1]
    positions = [[0.0, 0.0, 0.0]] + [
        [5.0 * cells[c][0], 5.0 * cells[c][1], 0.0] for c in picks
    ]
    los = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.35), 1)
    los[0, 1 : 1 + num_irs] |= rng.random(num_irs) < 0.6
    los = (los | los.T).astype(int)
    return make_scene(positions, num_irs, num_users, los_override=los)


def mask_rule_scenes(rng):
    """scenefab scenes, random overrides and distance-rule lattices."""
    scenes = [corridor_scene(), adversarial_scene()]
    scenes += [chain_scene(rng, int(rng.integers(2, 7))) for _ in range(3)]
    scenes += [
        random_override_scene(rng, int(rng.integers(4, 10)), int(rng.integers(2, 4)))
        for _ in range(12)
    ]
    for _ in range(4):
        base = random_override_scene(rng, 8, 3)
        scenes.append(
            make_scene(base.positions, 8, 3, los_threshold=float(rng.uniform(5.0, 11.0)))
        )
    return scenes


def all_routes(scene, cap=60):
    return [
        route_from_sequence(scene, k, path[1:-1])
        for k, paths in enumerate_paths(scene.topology).items()
        for path in paths[:cap]
    ]


class TestRouteMasks:
    def test_los_masks_follow_the_raw_rule(self):
        # bit j of mask i is override entry (i, j), given as ints, floats,
        # bools or an array, or else d(i, j) <= los_threshold from the
        # numpy broadcast; bit i is always set, and los_indicator gives
        # the raw rule off the diagonal and False on it
        rng = np.random.default_rng(40)
        for _ in range(16):
            base = random_override_scene(rng, int(rng.integers(4, 10)), int(rng.integers(2, 4)))
            pos = np.array(base.positions)
            n = len(pos)
            diff = pos[:, None, :] - pos[None, :, :]
            threshold = float(rng.uniform(5.0, 11.0))
            near = np.sqrt((diff**2).sum(axis=2)) <= threshold
            los = np.triu(rng.random((n, n)) < 0.3, 1)
            los = los | los.T
            scenes = [
                (near, make_scene(pos, base.num_irs, base.num_users, los_threshold=threshold))
            ]
            for rows in (los.astype(int), los.astype(int).tolist(),
                         los.astype(float).tolist(), los.tolist()):
                scene = Scene(base.positions, base.num_irs, base.num_users, los_override=rows)
                scenes.append((los, scene))
            for raw, scene in scenes:
                assert scene.los_masks == tuple(
                    sum(1 << j for j in range(n) if i == j or raw[i, j]) for i in range(n)
                )
                for i in range(n):
                    for j in range(n):
                        assert scene.los_indicator(i, j) is (i != j and bool(raw[i, j]))

    def test_override_entries_must_be_zero_or_one(self):
        positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0]]
        for bad in (0.5, 2, -1, "1", None, [1], float("nan")):
            rows = [[0, 1, 0], [1, 0, bad], [0, bad, 0]]
            with pytest.raises(SceneError, match="^los_override entries must be 0 or 1$"):
                Scene(positions, 2, 0, los_override=rows)
        for bad in (5, [0, 1, 0], [[0, 1], [1, 0, 0], [0, 0, 0]]):
            with pytest.raises(SceneError, match="^los_override must be a rectangular matrix$"):
                Scene(positions, 2, 0, los_override=bad)

    def test_rule_matches_raw_loop(self):
        rng = np.random.default_rng(42)
        shared = bs_exempt = passed = 0
        for scene in mask_rule_scenes(rng):
            routes = all_routes(scene)
            if not routes:
                continue
            masks = [route_masks(r, scene) for r in routes]
            for _ in range(300):
                ia, ib = (int(x) for x in rng.integers(0, len(routes), 2))
                # mostly pairs of different users, the solver's case
                user = routes[ia].user_index
                others = [i for i, r in enumerate(routes) if r.user_index != user]
                if others and rng.random() < 0.7:
                    ib = others[int(rng.integers(0, len(others)))]
                a, b = routes[ia], routes[ib]
                want = raw_compatible(scene, a, b)
                assert compatible(masks[ia], masks[ib]) == want
                assert compatible(masks[ib], masks[ia]) == want
                shared += bool(set(a.vertices[1:]) & set(b.vertices[1:]))
                # both first surfaces see the BS, which must not count
                bs_exempt += want and bool(masks[ia].closed & masks[ib].closed & 1)
                passed += want
        assert shared >= 1000
        assert passed >= 100
        assert bs_exempt >= 100

    def test_closed_mask_is_the_sequential_banned_set(self):
        # the vertices the sequential solver bans after routing a user,
        # as its raw loop computed them
        rng = np.random.default_rng(43)
        for scene in mask_rule_scenes(rng):
            for route in all_routes(scene):
                occupied = set(route.vertices[1:])
                banned = set(occupied)
                for v in occupied:
                    for w in range(1, scene.num_nodes):
                        if w != v and scene.los_indicator(v, w):
                            banned.add(w)
                closed = route_masks(route, scene).closed & ~1
                assert {w for w in range(scene.num_nodes) if closed >> w & 1} == banned


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
        # user 1's candidates share only the user vertex, which is
        # enough to keep them apart
        positions = [[0, 4, 0], [3, 0, 0], [3, 8, 0], [8, 4, 0], [13, 4, 0]]
        override = np.zeros((5, 5), dtype=int)
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)]:
            override[i, j] = override[j, i] = 1
        scene = make_scene(positions, 2, 2, los_override=override)
        a = route_from_sequence(scene, 1, [1])
        b = route_from_sequence(scene, 1, [2])
        assert not scene.los_indicator(1, 2)
        pg = build_path_graph({1: [a, b]}, scene)
        assert pg.adj_masks == (0, 0)


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
        assert pg.order_key[0] == cands[1][0].cost_vec

    def test_empty_candidate_list(self):
        scene = self.scene()
        cands = {1: [route_from_sequence(scene, 1, [1, 2])], 2: []}
        with pytest.raises(NoCandidateRoutesError) as info:
            build_path_graph(cands, scene)
        assert info.value.user_index == 2
        assert "user 2" in str(info.value)
        # no lists at all would make a graph of no partitions
        with pytest.raises(CliqueError, match="no candidate lists given"):
            build_path_graph({}, scene)

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
                expect = raw_compatible(scene, routes[va], routes[vb])
                assert (vb in pg.adj[va]) == expect

    def test_top_routes_keep_their_order(self):
        # top_routes lists come in key order, so the graph numbers the
        # solver's candidates as listed; reversed lists are sorted back
        rng = np.random.default_rng(37)
        for scene in mask_rule_scenes(rng):
            for hop_priority in (False, True):
                graph = build_routing_graph(scene, hop_priority=hop_priority)
                cands = top_routes(graph, 6)
                try:
                    pg = build_path_graph(cands, scene)
                except NoCandidateRoutesError:
                    continue
                assert pg.routes == tuple(r for k in sorted(cands) for r in cands[k])
                # equal costs stay reversed, so compare by route
                again = build_path_graph({k: rs[::-1] for k, rs in cands.items()}, scene)
                was = {r.vertices: v for v, r in enumerate(pg.routes)}
                moved = [was[r.vertices] for r in again.routes]
                assert [pg.order_key[v] for v in moved] == list(again.order_key)
                for a, va in enumerate(moved):
                    for b, vb in enumerate(moved):
                        assert again.adj_masks[a] >> b & 1 == pg.adj_masks[va] >> vb & 1

    def test_built_graphs_keep_the_numbering(self):
        # nothing checks a built graph again, so the builder's output is
        # checked here: random scenes, eight-user benchmark corridors and
        # the corridors golden scene, on the three pipeline graphs, from
        # candidate lists as swept, reversed and shuffled
        assert sorted_pathgraph([(1.0,), (2.0,), (1.0,)], [2, 1], []).part_masks == (0b011, 0b100)
        rng = np.random.default_rng(45)
        scenes = mask_rule_scenes(rng) + [load_scene(corridors_k8_document(s)) for s in range(3)]
        scenes.append(load_scene((SCENES / "corridors_353.json").read_text()))
        orders = (list, lambda rs: rs[::-1], lambda rs: [rs[i] for i in rng.permutation(len(rs))])
        built = unsorted = 0
        for scene in scenes:
            for graph in (
                build_routing_graph(scene),
                build_routing_graph(scene.with_elements(1)),
                build_routing_graph(scene, hop_priority=True),
            ):
                cands = {u: rs for u, rs in top_routes(graph, 10).items() if rs}
                for order in orders if cands else ():
                    lists = {u: order(rs) for u, rs in cands.items()}
                    pg = build_path_graph(lists, scene)
                    assert_pathgraph_invariants(pg)
                    assert all(pg.partitions)
                    assert pg.order_key == tuple(r.cost_vec for r in pg.routes)
                    for u, part in zip(sorted(cands), pg.partitions):
                        assert sorted(pg.routes[v].vertices for v in part) == sorted(
                            r.vertices for r in cands[u]
                        )
                    built += 1
                    unsorted += any(
                        [r.cost_vec for r in rs] != sorted(r.cost_vec for r in rs)
                        for rs in lists.values()
                    )
        assert built >= 180
        assert unsorted >= 100

    def test_mislabeled_route_rejected(self):
        scene = self.scene()
        cands = {1: [route_from_sequence(scene, 2, [3, 4])]}
        with pytest.raises(CliqueError, match="listed under"):
            build_path_graph(cands, scene)

    def test_masks_match_raw_double_loop(self):
        # every pair of candidates, same-user pairs included, against
        # the rule over raw LoS queries
        rng = np.random.default_rng(44)
        linked = blocked = same_user = 0
        scenes = [s for _ in range(3) for s in mask_rule_scenes(rng)]
        for scene in scenes:
            for hop_priority in (False, True):
                graph = build_routing_graph(scene, hop_priority=hop_priority)
                cands = {u: rs for u, rs in top_routes(graph, 10).items() if rs}
                if not cands:
                    continue
                pg = build_path_graph(cands, scene)
                routes = pg.routes
                assert len(pg.adj_masks) == len(routes)
                for va, a in enumerate(routes):
                    assert pg.adj_masks[va] >> len(routes) == 0
                    for vb, b in enumerate(routes):
                        if a.user_index == b.user_index:
                            want = False
                            same_user += 1
                        else:
                            want = raw_compatible(scene, a, b)
                        assert bool(pg.adj_masks[va] >> vb & 1) == want
                        linked += want
                        blocked += not want
                assert pg.adj == tuple(
                    frozenset(vb for vb in range(len(routes)) if pg.adj_masks[va] >> vb & 1)
                    for va in range(len(routes))
                )
        assert linked >= 150
        assert blocked >= 1000
        assert same_user >= 1500


class TestInfeasibleUser:
    def test_matches_naive_rounds(self, monkeypatch):
        # an infeasible proposed run names the first user without a
        # path from the BS, else the lowest user that the last-hop
        # rounds empty, else the lowest user whose candidates the
        # search's pass empties, rounds run over raw compatibility
        rng = np.random.default_rng(38)
        sweeps = []

        def counting(*args):
            sweeps.append(args)
            return top_routes(*args)

        monkeypatch.setattr(solver, "top_routes", counting)
        unreachable = emptied = proved = 0
        for _ in range(300):
            scene = random_override_scene(rng, int(rng.integers(4, 10)), int(rng.integers(2, 5)))
            sweeps.clear()
            sol = solve(scene, SolveParams(paths=4))
            if sol.feasible:
                assert "infeasible_user" not in sol.diagnostics
                continue
            cands = top_routes(build_routing_graph(scene), 4)
            users = sorted(cands)
            empty = [u for u in users if not cands[u]]
            if empty:
                assert sol.diagnostics["infeasible_user"] == empty[0]
                assert "candidates_consistent" not in sol.diagnostics
                unreachable += 1
                continue
            alive, blocked = naive_rounds(
                [cands[u] for u in users], lambda a, b: raw_compatible(scene, a, b)
            )
            last_hop = naive_last_hop(scene)[2]
            if last_hop is not None:
                # proved before the sweep; the candidates' rounds agree
                d = sol.diagnostics
                assert sweeps == []
                assert d["reason"] == "no compatible route combination"
                assert d["infeasible_user"] == users[last_hop]
                assert (d["compat_edges"], d["cliques_explored"], d["cliques_pruned"]) == (0, 0, 0)
                assert "candidate_counts" not in d and "candidates_consistent" not in d
                assert blocked is not None
                proved += 1
                emptied += 1
                continue
            assert len(sweeps) == 1
            assert sol.diagnostics["candidates_consistent"] == tuple(map(len, alive))
            if blocked is None:
                assert "infeasible_user" not in sol.diagnostics
            else:
                assert sol.diagnostics["infeasible_user"] == users[blocked]
                assert sol.diagnostics["cliques_explored"] == 0
                emptied += 1
        assert unreachable >= 100
        assert emptied >= 60
        # both kinds of proof are met
        assert proved >= 60 and emptied > proved

    def test_triangle_and_cycle(self):
        # a triangle of conflicts: each pair of partitions has an edge,
        # yet the pass empties partition 0 in its first round
        pg = pathgraph_from_bits([[1.0, 2.0], [1.0], [1.0]], [(0, 2), (2, 3), (1, 3)])
        search = CliqueSearch(pg)
        assert search.run() is None
        assert (search.blocked, search.explored) == (0, 0)
        # a pair with no edge across it empties both in the first round
        search = CliqueSearch(pathgraph_from_bits([[1.0], [1.0], [1.0]], [(0, 1)]))
        assert search.run() is None
        assert (search.blocked, search.alive) == (0, 0)
        # a six-cycle across three partitions: every vertex keeps a
        # neighbour in each other partition, so only the search finds
        # that no clique exists
        pg = pathgraph_from_bits(
            [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
            [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)],
        )
        search = CliqueSearch(pg)
        assert search.run() is None
        assert (search.blocked, search.alive) == (None, 0b111111)
        assert search.explored > 0


class TestArcConsistency:
    def test_keeps_every_clique_member(self):
        kept = 0
        for pg in pass_graphs(51):
            search = CliqueSearch(pg)
            search.run()
            cliques = all_cliques(pg)
            if search.blocked is not None:
                assert cliques == []
            for *_, vertices in cliques:
                assert all(search.alive >> v & 1 for v in vertices)
                kept += 1
        assert kept >= 2000

    def test_survivors_have_a_neighbour_in_every_other_partition(self):
        dropped = 0
        for pg in pass_graphs(52):
            search = CliqueSearch(pg)
            search.run()
            if search.blocked is not None:
                continue
            alive = alive_sets(pg, search)
            for k, part in enumerate(alive):
                for v in part:
                    for j, other in enumerate(alive):
                        assert j == k or other & pg.adj[v]
            dropped += len(pg.order_key) - sum(map(len, alive))
        assert dropped >= 500

    def test_matches_naive_rounds(self):
        blocked = 0
        for pg in pass_graphs(53):
            search = CliqueSearch(pg)
            search.run()
            alive, want = graph_rounds(pg)
            assert alive_sets(pg, search) == alive
            assert search.blocked == want
            blocked += want is not None
        assert blocked >= 80

    def test_search_still_matches_the_oracle(self):
        tied = 0
        for pg in pass_graphs(54):
            cliques = all_cliques(pg)
            got = CliqueSearch(pg).run()
            want = min(cliques, default=None)
            assert (got and got.vertices) == (want and want[2])
            tied += want is not None and sum(c[:2] == want[:2] for c in cliques) > 1
        assert tied >= 40

    def test_emptied_graph_explores_nothing(self):
        # a partition pair with no edge across it is the first round's
        # case; such graphs once cost the search thousands of nodes
        pairless = 0
        for pg in pass_graphs(55):
            search = CliqueSearch(pg)
            search.run()
            parts = pg.partitions
            no_edge = any(
                not any(pg.adj[a] & set(parts[j]) for a in parts[i])
                for i, j in itertools.combinations(range(len(parts)), 2)
            )
            if no_edge:
                assert search.blocked is not None
                pairless += 1
            if search.blocked is not None:
                assert (search.explored, search.pruned) == (0, 0)
        assert pairless >= 50
        # a corridors pool graph of the benchmark whose users 6 and 7
        # share no compatible pair; the search alone explored 34,488
        # partial cliques on it
        scene = load_scene(bench_scenes().corridors_document(222))
        pg = build_path_graph(top_routes(build_routing_graph(scene), 10), scene)
        search = CliqueSearch(pg)
        assert search.run() is None
        assert search.blocked is not None
        assert (search.explored, search.pruned) == (0, 0)


class TestMinMaxClique:
    def test_single_partition(self):
        pg = pathgraph_from_bits([[1.0, 1.0, 2.0]], [])
        c = CliqueSearch(pg).run()
        assert c.vertices == (0,)
        assert worst_key(pg, c) == (1.0,)

    def test_complete_bipartite(self):
        pg = pathgraph_from_bits(
            [[1.0, 3.0], [2.0, 5.0]],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        )
        c = CliqueSearch(pg).run()
        assert c.vertices == (0, 2)
        assert worst_key(pg, c) == (2.0,)

    def test_forced_worse_choice(self):
        # the cheap candidates are incompatible, only the dear pair works
        pg = pathgraph_from_bits([[1.0, 9.0], [1.0, 8.0]], [(1, 3)])
        c = CliqueSearch(pg).run()
        assert c.vertices == (1, 3)
        assert worst_key(pg, c) == (9.0,)

    def test_infeasible(self):
        pg = pathgraph_from_bits([[1.0], [1.0]], [])
        assert CliqueSearch(pg).run() is None

    def test_tie_breaks_on_sum_then_index(self):
        pg = pathgraph_from_bits(
            [[5.0, 5.0], [1.0, 3.0]],
            [(0, 3), (1, 2), (1, 3)],
        )
        c = CliqueSearch(pg).run()
        assert c.vertices == (1, 2)  # same max, smaller sum beats (0, 3)
        pg2 = pathgraph_from_bits(
            [[5.0, 5.0], [3.0, 3.0]],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        )
        c2 = CliqueSearch(pg2).run()
        assert c2.vertices == (0, 2)  # full tie, lexicographic

    def test_oracle_agreement(self):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(120):
            pg = random_pathgraph(rng)
            want = oracle_min_max(pg)
            got = CliqueSearch(pg).run()
            if want is None:
                assert got is None
                continue
            assert got.vertices == want[2]
            assert worst_key(pg, got) == want[0]
            hits += 1
        assert hits >= 40

    def test_pruned_matches_unpruned(self):
        # the exhaustive oracle is the unpruned reference
        rng = np.random.default_rng(32)
        for _ in range(80):
            pg = random_pathgraph(rng)
            want = oracle_min_max(pg)
            got = CliqueSearch(pg).run()
            if want is None:
                assert got is None
                continue
            assert worst_key(pg, got) == want[0]
            assert got.vertices == want[2]

    def test_pruning_reduces_exploration(self):
        # after the clique (0, 2) the bound cuts vertex 1 and the last
        # partition only ever tries its first compatible vertex
        pg = pathgraph_from_bits(
            [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
            [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)],
        )
        search = CliqueSearch(pg)
        assert search.run().vertices == (0, 2)
        assert search.explored == 2  # of 2 + 2 * 4 partial and full cliques
        assert search.pruned == 1

    def test_explored_counts_partials(self):
        pg = pathgraph_from_bits([[1.0], [2.0]], [(0, 1)])
        search = CliqueSearch(pg)
        search.run()
        assert search.explored == 2  # the singleton and the pair
        assert search.pruned == 0

    def test_bound_keeps_equal_keys(self):
        # vertex 1 ties vertex 0 on key and completes to a smaller sum
        pg = pathgraph_from_bits([[5.0, 5.0], [1.0, 3.0]], [(0, 3), (1, 2)])
        search = CliqueSearch(pg)
        assert search.run().vertices == (1, 2)
        assert search.explored == 4
        assert search.pruned == 0

    def test_forward_checking_cuts_dead_branch(self):
        # vertex 0 reaches partition 1 but nothing in partition 2, so
        # the pass drops it and the search never walks it
        pg = pathgraph_from_bits(
            [[1.0, 2.0], [1.0, 2.0], [1.0]],
            [(0, 2), (0, 3), (1, 2), (1, 4), (2, 4)],
        )
        search = CliqueSearch(pg)
        assert search.run().vertices == (1, 2, 4)
        assert search.alive == 0b10110
        assert search.explored == 3
        assert search.pruned == 0
        # here every vertex keeps a neighbour in each other partition,
        # but vertex 0's neighbours 2 and 4 conflict, so the branch
        # (0, 2) has nothing left in partition 2 and stops there
        pg = pathgraph_from_bits(
            [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
            [(0, 2), (0, 4), (2, 5), (3, 4), (1, 3), (1, 5), (3, 5)],
        )
        search = CliqueSearch(pg)
        assert search.run().vertices == (1, 3, 5)
        assert search.alive == 0b111111
        assert (search.explored, search.pruned) == (5, 1)

    def test_oracle_agreement_with_ties_and_dead_ends(self):
        # half-unit weights force exact key ties; sparse edges leave
        # many graphs without any full clique
        rng = np.random.default_rng(35)
        tied = infeasible = 0
        for _ in range(300):
            k = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 6)) for _ in range(k)]
            weights = [[float(rng.integers(0, 6)) / 2 for _ in range(s)] for s in sizes]
            starts = np.cumsum([0] + sizes)
            density = rng.uniform(0.3, 0.9)
            pairs = [
                (va, vb)
                for a in range(k)
                for b in range(a + 1, k)
                for va in range(starts[a], starts[a + 1])
                for vb in range(starts[b], starts[b + 1])
                if rng.random() < density
            ]
            pg = pathgraph_from_bits(weights, pairs)
            want = oracle_min_max(pg)
            got = CliqueSearch(pg).run()
            if want is None:
                assert got is None
                infeasible += 1
                continue
            assert got.vertices == want[2]
            assert worst_key(pg, got) == want[0]
            flat = [w for ws in weights for w in ws]
            tied += len(set(flat)) < len(flat)
        assert infeasible >= 30
        assert tied >= 150

    @pytest.mark.parametrize("draw", sorted(KEY_DRAWS))
    def test_oracle_agreement_on_renumbered_graphs(self, draw):
        rng = np.random.default_rng([36, len(draw)])
        tied = infeasible = 0
        for _ in range(250):
            pg = random_kpartite(rng, KEY_DRAWS[draw])
            cliques = all_cliques(pg)
            search = CliqueSearch(pg)
            got = search.run()
            if not cliques:
                assert got is None
                infeasible += 1
                continue
            worst, total, vertices = min(cliques)
            assert got.vertices == vertices
            assert worst_key(pg, got) == worst
            tied += sum(c[:2] == (worst, total) for c in cliques) > 1
        assert infeasible >= 10
        if draw != "normal":
            assert tied >= 10

    def test_sum_bound_tolerates_rounding(self):
        # clique (0, 2, 4) sums 0.1 + 0.4 + 0.4 to 0.9 and is found
        # first; (1, 2, 3) sums 0.3 + 0.4 + 0.2 to 0.8999999999999999 in
        # member order, but 0.3 + (0.4 + 0.2) rounds to 0.9000000000000001,
        # so a bound that added the later partitions first would cut it
        pg = pathgraph_from_bits(
            [[0.1, 0.3], [0.4], [0.2, 0.4]],
            [(0, 2), (1, 2), (0, 4), (1, 3), (2, 3), (2, 4)],
        )
        assert 0.3 + (0.4 + 0.2) > (0.1 + 0.4) + 0.4 > (0.3 + 0.4) + 0.2
        search = CliqueSearch(pg)
        assert search.run().vertices == (1, 2, 3) == oracle_min_max(pg)[2]
        assert (search.explored, search.pruned) == (6, 0)

    def test_sum_bound_cuts_a_tied_worst_key(self):
        # (0, 2, 3) has worst key 5 and sum 8; vertex 1 also stays at
        # worst key 5, but its cheapest completion (1, 2, 4) sums to 12,
        # so its branch is cut before partition 1 is walked
        pg = pathgraph_from_bits(
            [[1.0, 4.0], [5.0], [2.0, 3.0]],
            [(0, 2), (0, 3), (2, 3), (1, 2), (1, 4), (2, 4)],
        )
        search = CliqueSearch(pg)
        assert search.run().vertices == (0, 2, 3) == oracle_min_max(pg)[2]
        assert (search.explored, search.pruned) == (4, 1)

    def test_corridors_search_walks_compatible_candidates_only(self):
        # a seed-1 corridors graph of the benchmark: the walk over every
        # vertex of each partition explored 6670 partial cliques here,
        # the walk over compatible vertices 31; the pass leaves 46 of 70
        doc = bench_scenes().corridors_document(7)
        scene = load_scene(doc)
        pg = build_path_graph(top_routes(build_routing_graph(scene), 10), scene)
        search = CliqueSearch(pg)
        clique = search.run()
        assert clique.vertices == (0, 6, 16, 26, 35, 45, 55)
        assert (search.explored, search.pruned) == (29, 26)
        assert search.alive.bit_count() == 46

    def test_clique_members_pairwise_adjacent(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            pg = random_pathgraph(rng)
            c = CliqueSearch(pg).run()
            if c is None:
                continue
            for a, b in itertools.combinations(c.vertices, 2):
                assert b in pg.adj[a]
