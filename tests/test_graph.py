"""Routing graph construction and the one top-Q path sweep over all users."""

import functools
import json
import math
from operator import add
from pathlib import Path

import numpy as np
import pytest

from beamroute.channel import closed_form_power
from beamroute.graph import (
    GraphError,
    LosGraph,
    Route,
    RoutingTopology,
    build_routing_graph,
    enumerate_paths,
    route_from_sequence,
    top_routes,
    validate_route,
    yen_k_shortest,
)
from beamroute.scene import Scene, load_scene
from scenefab import (
    adversarial_scene,
    bench_scenes,
    chain_scene,
    corridor_scene,
    corridors_k8_document,
    edge_costs,
    edge_weight,
    from_edges,
    full_los,
    make_scene,
)
from test_clique import mask_rule_scenes

BETA_5GHZ = 2.2797266319525994e-05
SCENES = Path(__file__).resolve().parent.parent / "scenes"


# independent oracle: plain recursive enumeration over the successor map
def oracle_paths(succ, source, target, user_vertices):
    found = []

    def walk(path):
        v = path[-1]
        if v == target:
            found.append(tuple(path))
            return
        for j in succ.get(v, ()):
            if j in path:
                continue
            if j in user_vertices and j != target:
                continue
            walk(path + [j])

    walk([source])
    return found


def oracle_routing_graph(scene, elements, hop_priority):
    """succ, weight and cost from per-pair LoS and distance queries."""
    m = scene.elements if elements is None else elements
    surfaces = range(1, 1 + scene.num_irs)
    users = range(1 + scene.num_irs, scene.num_nodes)
    pairs = [(0, j) for j in surfaces]
    pairs += [
        (i, j)
        for i in surfaces
        for j in surfaces
        if i != j and scene.distance(j, 0) > scene.distance(i, 0)
    ]
    pairs += [(i, u) for i in surfaces for u in users]
    succ, weight, cost = {}, {}, {}
    for i, j in pairs:
        if not scene.los_indicator(i, j):
            continue
        d = scene.distance(i, j)
        succ.setdefault(i, []).append(j)
        if hop_priority:
            weight[i, j] = math.log(d)
            cost[i, j] = (-1.0, weight[i, j])
        else:
            weight[i, j] = math.log(d / (m * math.sqrt(scene.ref_path_gain)))
            cost[i, j] = (weight[i, j],)
    return {i: tuple(sorted(js)) for i, js in succ.items()}, weight, cost


def bits(values):
    """A dict's items with every float as its exact hex form, in order."""
    def exact(x):
        return tuple(exact(y) for y in x) if isinstance(x, tuple) else float(x).hex()
    return [(k, exact(v)) for k, v in values.items()]


def oracle_cost(weight, path):
    c = 0.0
    for a, b in zip(path[:-1], path[1:]):
        c += weight[a, b]
    return c


def oracle_cost_vec(cost, path):
    total = [0.0] * len(cost[path[0], path[1]])
    for a, b in zip(path[:-1], path[1:]):
        for idx, c in enumerate(cost[a, b]):
            total[idx] += c
    return tuple(total)


def random_losgraph(rng, num_irs=None, num_users=1, negative=True):
    """Random layered DAG shaped like a routing graph."""
    j = int(rng.integers(3, 11)) if num_irs is None else num_irs
    edges = []
    lo = -1.5 if negative else 0.1
    for v in range(1, j + 1):
        if rng.random() < 0.7:
            edges.append((0, v, float(rng.uniform(lo, 2.5))))
    for a in range(1, j + 1):
        for b in range(a + 1, j + 1):
            if rng.random() < 0.4:
                edges.append((a, b, float(rng.uniform(lo, 2.5))))
    for a in range(1, j + 1):
        for k in range(1, num_users + 1):
            if rng.random() < 0.5:
                edges.append((a, j + k, float(rng.uniform(lo, 2.5))))
    if not edges:
        edges = [(0, 1, 1.0), (1, j + 1, 1.0)]
    return from_edges(j, num_users, edges)


def reference_top_routes(graph, count, banned=0):
    """The push sweep `top_routes` replaced, kept as a test oracle.

    Each swept vertex extends its labels (cost vector, hop count,
    vertex sequence) along every out-edge, adding the edge cost
    component by component, and each successor re-sorts its bucket and
    keeps `count` after every edge.
    """
    if count < 1:
        raise GraphError("path count must be positive")
    topology = graph.topology
    routes = {u: [] for u in range(1, topology.num_users + 1)}
    first_hops = topology.succ.get(0, ())
    if not first_hops or banned & 1:
        return routes
    first_user = topology.user_vertices.start
    costs = edge_costs(graph)
    zero = (0.0,) * len(costs[0, first_hops[0]])
    labels = {0: [(zero, 0, (0,))]}
    for v in topology.topo_order:
        here = labels.pop(v, None)
        if here is None:
            continue
        if v >= first_user:
            routes[v - topology.num_irs] = [
                Route(v - topology.num_irs, path, cost) for cost, _, path in here
            ]
            continue
        for j in topology.succ.get(v, ()):
            if banned >> j & 1:
                continue
            c = costs[v, j]
            bucket = labels.setdefault(j, [])
            bucket += [
                (tuple(map(add, cost, c)), hops + 1, path + (j,))
                for cost, hops, path in here
            ]
            bucket.sort()
            del bucket[count:]
    return routes


class TestEdgeWeight:
    def test_frozen_values(self):
        assert edge_weight(5.0, 400, BETA_5GHZ) == pytest.approx(
            0.9624083290554456, rel=1e-12
        )
        w = edge_weight(3.0, 800, BETA_5GHZ)
        assert w == pytest.approx(-0.2415644752704905, rel=1e-12)
        assert w < 0  # large surfaces push weights negative

    def test_displayed_magnitudes(self):
        assert round(edge_weight(5.0, 400, BETA_5GHZ), 2) == 0.96
        assert round(edge_weight(3.0, 800, BETA_5GHZ), 2) == -0.24


class TestBuildRoutingGraph:
    def scene(self):
        # BS, three surfaces at 5 / 5 / 9 m from BS, one user near surface 3
        positions = [
            [0, 0, 0],
            [5, 0, 0],
            [0, 5, 0],
            [9, 0, 0],
            [14, 0, 0],
        ]
        return make_scene(positions, 3, 1, los_threshold=6.4)

    def test_edge_set(self):
        g = build_routing_graph(self.scene())
        edges = set(g.weight)
        assert (0, 1) in edges and (0, 2) in edges
        assert (0, 3) not in edges  # 9 m from BS, beyond LoS range
        assert (1, 3) in edges      # LoS and strictly farther
        assert (3, 1) not in edges
        assert (3, 4) in edges
        assert (1, 4) not in edges  # 9 m, no LoS
        assert (0, 4) not in edges  # BS-user links treated as blocked
        assert all(i != 4 for i, _ in edges)  # users never transmit

    def test_equidistant_surfaces_not_linked(self):
        # surfaces 1 and 2 are both 5 m from the BS and 5 m apart
        positions = [[0, 0, 0], [5, 0, 0], [2.5, 4.330127018922193, 0], [10, 0, 0]]
        scene = make_scene(positions, 2, 1)
        g = build_routing_graph(scene)
        assert (1, 2) not in g.weight and (2, 1) not in g.weight

    def test_bs_user_blocked_despite_override(self):
        scene = make_scene(
            [[0, 0, 0], [5, 0, 0], [10, 0, 0]], 1, 1, los_override=full_los(3)
        )
        g = build_routing_graph(scene)
        assert (0, 2) not in g.weight

    def test_weight_distance_consistency(self):
        scene = self.scene()
        g = build_routing_graph(scene)
        scale = scene.elements * math.sqrt(scene.ref_path_gain)
        for (i, j), w in g.weight.items():
            assert math.exp(w) * scale == pytest.approx(scene.distance(i, j), rel=1e-12)

    def test_elements_override(self):
        scene = self.scene()
        g1 = build_routing_graph(scene.with_elements(1))
        g2 = build_routing_graph(scene)
        for key in g1.weight:
            assert g1.weight[key] > g2.weight[key]
            assert g1.weight[key] == pytest.approx(
                edge_weight(scene.distance(*key), 1, scene.ref_path_gain), rel=1e-12
            )

    def test_hop_priority_costs(self):
        scene = self.scene()
        g = build_routing_graph(scene, hop_priority=True)
        for (i, j), c in edge_costs(g).items():
            assert c == (-1.0, math.log(scene.distance(i, j)))

    def test_topo_order_valid(self):
        # the BS, the surfaces nearest the BS first, then the users by id;
        # every edge in range, listed once and forward, and priced once,
        # in each graph the pipelines build: no constructor re-checks it.
        # mask_rule_scenes holds random overrides and scenefab corridors.
        rng = np.random.default_rng(46)
        scenes = [self.scene(), *mask_rule_scenes(rng)]
        scenes += [load_scene(corridors_k8_document(seed)) for seed in (3, 4)]
        for name in ("corridors_353", "mesh_88"):
            scenes.append(load_scene((SCENES / f"{name}.json").read_text()))
        for scene in scenes:
            for g in (
                build_routing_graph(scene),
                build_routing_graph(scene.with_elements(1)),
                build_routing_graph(scene, hop_priority=True),
            ):
                order, j = g.topology.topo_order, scene.num_irs
                assert order[0] == 0
                assert sorted(order[1 : 1 + j]) == list(range(1, 1 + j))
                d_bs = [scene.distance(0, v) for v in order[1 : 1 + j]]
                assert d_bs == sorted(d_bs)
                assert order[1 + j :] == tuple(range(1 + j, scene.num_nodes))
                pos = {v: idx for idx, v in enumerate(order)}
                edges = g.topology.edges
                assert len(set(edges)) == len(edges) == len(g.weights)
                for i, k in edges:
                    assert i in pos and k in pos and pos[i] < pos[k]

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(45)
        edges = 0
        for scene in mask_rule_scenes(rng):
            for elements, hop_priority in ((None, False), (1, False), (None, True)):
                scaled = scene if elements is None else scene.with_elements(elements)
                g = build_routing_graph(scaled, hop_priority=hop_priority)
                succ, weight, cost = oracle_routing_graph(scene, elements, hop_priority)
                assert g.topology.succ == succ
                assert bits(g.weight) == bits(weight)
                assert bits(edge_costs(g)) == bits(cost)
                edges += len(weight)
        assert edges >= 500

    def test_hop_priority_needs_no_edge_lengths(self):
        # a hop-priority graph is searched on its weights alone, so one
        # can be priced by hand on a topology without lengths
        edges, order = ((0, 1), (1, 2)), (0, 1, 2)
        bare = LosGraph(RoutingTopology(1, 1, edges, order), [0.5, 0.25], hop_priority=True)
        (route,) = top_routes(bare, 1)[1]
        assert route.cost_vec == (-2.0, 0.75)
        measured = RoutingTopology(1, 1, edges, order, (2.0, 3.0))
        (route,) = top_routes(LosGraph(measured, [0.5, 0.25], hop_priority=True), 1)[1]
        assert route.cost_vec == (-2.0, 0.75)

    def test_size_copies_share_one_topology(self, monkeypatch):
        # the topology is built once per loaded scene, and every copy at
        # another M or N prices it exactly like a fresh load at that size
        built = []
        topology = Scene.topology.func

        def counting(scene):
            built.append(scene)
            return topology(scene)

        prop = functools.cached_property(counting)
        prop.__set_name__(Scene, "topology")
        monkeypatch.setattr(Scene, "topology", prop)
        texts = [corridors_k8_document(3), bench_scenes().mesh_document(2)]
        dead_edges = 0
        for text in texts:
            scene = load_scene(text)
            copies = [scene.with_antennas(4)]
            copies += [scene.with_elements(m) for m in (1, 7, 16, 1600, 10**15)]
            copies += [c.with_elements(1) for c in copies[:2]]
            shared = scene.topology
            live = set(shared.live_order)
            doc = json.loads(text)
            base = build_routing_graph(scene)
            for copy in copies:
                assert copy.topology is shared
                doc["params"].update(N=copy.bs_antennas, M1=copy.elements, M2=1)
                fresh = load_scene(json.dumps(doc))
                assert fresh.topology is not shared
                for hop_priority in (False, True):
                    got = build_routing_graph(copy, hop_priority=hop_priority)
                    want = build_routing_graph(fresh, hop_priority=hop_priority)
                    assert got.topology is shared
                    assert list(edge_costs(got)) == list(edge_costs(want))
                    assert bits(got.weight) == bits(want.weight)
                    assert bits(edge_costs(got)) == bits(edge_costs(want))
                    assert [w.hex() for w in got.weights] == [w.hex() for w in want.weights]
                    assert got.topology.preds is base.topology.preds
                    assert got.topology.upstream_masks == want.topology.upstream_masks
                    assert got.topology.topo_order == want.topology.topo_order
                    assert got.topology.live_order == want.topology.live_order
                    # the views hold every edge, those of dead-end surfaces too
                    assert len(got.weight) == len(edge_costs(got)) == len(shared.edges)
                dead_edges += sum(i not in live or j not in live for i, j in got.weight)
            assert built.count(scene) == 1
        # the two loaded scenes, then one fresh load per copy
        assert len(built) == 2 + 2 * 8
        assert dead_edges > 0

    def test_bulk_pricing_matches_edge_weight(self):
        # one division per edge by the same float M sqrt(beta), then
        # math.log, so every weight has the bits of edge_weight's, up to
        # M far beyond a float's integer precision; hop priority prices
        # ln d at every M
        scene = load_scene(corridors_k8_document(3))
        topology = scene.topology
        assert len(topology.edges) >= 100
        log_d = [math.log(d).hex() for d in topology.dists]
        for m in (1, 7, 16, 1600, 10**15, 10**15 + 3, 2**53 + 1, 10**30, 3**200):
            scaled = scene.with_elements(m)
            want = [edge_weight(d, m, scene.ref_path_gain) for d in topology.dists]
            got = build_routing_graph(scaled)
            assert [w.hex() for w in got.weights] == [w.hex() for w in want]
            hop = build_routing_graph(scaled, hop_priority=True)
            assert [w.hex() for w in hop.weights] == log_d

    def test_bulk_pricing_keeps_edge_weight_errors(self):
        scene = load_scene(corridors_k8_document(3))
        d = scene.topology.dists[0]
        huge = scene.with_elements(10**400)
        with pytest.raises(OverflowError) as per_edge:
            edge_weight(d, 10**400, scene.ref_path_gain)
        with pytest.raises(OverflowError) as bulk:
            build_routing_graph(huge)
        assert str(bulk.value) == str(per_edge.value) == "int too large to convert to float"
        # a hop-priority graph reads no M, so it prices even this one
        hop = build_routing_graph(huge, hop_priority=True)
        assert hop.weights == [math.log(d) for d in scene.topology.dists]
        # with no edge to price, no M is read, so none is rejected
        lonely = make_scene([[0, 0, 0], [50, 0, 0], [0, 50, 0]], 1, 1).with_elements(10**400)
        assert lonely.topology.edges == ()
        assert build_routing_graph(lonely).weight == {}


def ban_set(mask):
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def route_key(r):
    return (r.cost_vec, r.hops, r.vertices)


class TestDagShortestPath:
    """The cheapest route per user: `top_routes` with count 1."""

    def test_single_chain(self):
        g = from_edges(2, 1, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25)])
        (r,) = top_routes(g, 1)[1]
        assert r.vertices == (0, 1, 2, 3)
        assert r.cost_vec == (1.75,)
        assert r.hops == 2

    def test_negative_edge_changes_winner(self):
        # the longer path wins only because of the negative edge
        g = from_edges(
            3, 1, [(0, 1, 1.0), (1, 4, 1.0), (0, 2, 1.5), (2, 3, -2.0), (3, 4, 1.0)]
        )
        (r,) = top_routes(g, 1)[1]
        assert r.vertices == (0, 2, 3, 4)
        assert r.cost_vec == (0.5,)

    def test_tie_prefers_fewer_hops(self):
        g = from_edges(
            3, 1, [(0, 1, 1.0), (1, 4, 1.0), (0, 2, 0.5), (2, 3, 0.5), (3, 4, 1.0)]
        )
        assert top_routes(g, 1)[1][0].vertices == (0, 1, 4)

    def test_tie_prefers_lexicographic(self):
        g = from_edges(
            3, 1, [(0, 1, 1.0), (1, 4, 1.0), (0, 3, 1.0), (3, 4, 1.0)]
        )
        assert top_routes(g, 1)[1][0].vertices == (0, 1, 4)

    def test_unreachable(self):
        g = from_edges(2, 2, [(0, 1, 1.0), (1, 4, 1.0)])
        assert [r.vertices for r in top_routes(g, 1)[2]] == [(0, 1, 4)]
        assert top_routes(g, 1)[1] == []

    def test_banned_vertex(self):
        g = from_edges(2, 1, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)])
        assert top_routes(g, 1, banned=1 << 1)[1][0].vertices == (0, 2, 3)
        assert top_routes(g, 1, banned=1 << 3) == {1: []}
        assert top_routes(g, 1, banned=1) == {1: []}

    def test_no_edges(self):
        g = from_edges(2, 2, [])
        for banned in (0, 1, 0b110):
            assert top_routes(g, 3, banned) == {1: [], 2: []}

    def test_labels_never_pass_through_a_user(self):
        # vertex 3 is user 1; its out-edge must not carry user 2's labels
        g = from_edges(
            2, 2, [(0, 1, 1.0), (1, 3, 1.0), (3, 4, -5.0), (1, 2, 1.0), (2, 4, 1.0)]
        )
        got = top_routes(g, 5)
        assert [r.vertices for r in got[2]] == enumerate_paths(g.topology)[2] == [(0, 1, 2, 4)]
        assert [r.vertices for r in got[1]] == [(0, 1, 3)]

    def test_target_must_be_user(self):
        g = from_edges(2, 1, [(0, 1, 1.0), (1, 3, 1.0)])
        with pytest.raises(GraphError, match="user"):
            yen_k_shortest(g, 1, 1)

    def test_oracle_agreement(self):
        # every user of one sweep against the independent enumeration
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(60):
            g = random_losgraph(rng, num_users=int(rng.integers(1, 4)))
            got = top_routes(g, 1)
            assert sorted(got) == list(range(1, g.topology.num_users + 1))
            users = set(g.topology.user_vertices)
            for target in g.topology.user_vertices:
                paths = oracle_paths(g.topology.succ, 0, target, users)
                routes = got[target - g.topology.num_irs]
                if not paths:
                    assert routes == []
                    continue
                best = min((oracle_cost(g.weight, p), len(p) - 1, p) for p in paths)
                (r,) = routes
                assert r.vertices == best[2]
                assert r.user_index == target - g.topology.num_irs
                assert r.cost_vec == (best[0],)  # identical accumulation order, bit equal
                checked += 1
        assert checked >= 60


class TestYen:
    """`top_routes` with a count, and its one-user view `yen_k_shortest`."""

    def test_first_path_matches_shortest(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_losgraph(rng, num_users=2)
            single = top_routes(g, 1)
            several = top_routes(g, 6)
            for u in single:
                assert single[u] == several[u][:1]
                assert yen_k_shortest(g, g.topology.num_irs + u, 6) == several[u]

    def test_exhausts_small_graph(self):
        g = from_edges(
            3,
            1,
            [
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 2, 0.1),
                (1, 3, 3.0),
                (2, 3, 0.2),
                (1, 4, 9.0),
                (2, 4, 1.0),
                (3, 4, 0.3),
            ],
        )
        routes = top_routes(g, 50)[1]
        users = set(g.topology.user_vertices)
        expect = sorted(
            (oracle_cost(g.weight, p), len(p) - 1, p)
            for p in oracle_paths(g.topology.succ, 0, 4, users)
        )
        assert [r.vertices for r in routes] == [e[2] for e in expect]

    def test_costs_sorted_and_paths_simple(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = random_losgraph(rng, num_users=2)
            for routes in top_routes(g, 6).values():
                seen = set()
                prev = None
                for r in routes:
                    assert len(set(r.vertices)) == len(r.vertices)
                    assert r.vertices not in seen
                    seen.add(r.vertices)
                    if prev is not None:
                        assert r.cost_vec >= prev
                    prev = r.cost_vec

    def test_against_bruteforce_five_smallest(self):
        # every user of one sweep against enumerate_paths + oracle_cost_vec,
        # full (cost_vec, hops, vertices) keys, so tie order is pinned too
        rng = np.random.default_rng(23)
        graphs = [random_losgraph(rng, num_users=int(rng.integers(1, 4))) for _ in range(40)]
        # half-unit weights sum exactly, so hop and vertex ties are common
        graphs += [
            from_edges(
                g.topology.num_irs,
                g.topology.num_users,
                [(i, j, round(2 * w) / 2) for (i, j), w in g.weight.items()],
            )
            for g in graphs[:20]
        ]
        graphs += [
            build_routing_graph(chain_scene(rng, int(rng.integers(2, 7))), hop_priority=True)
            for _ in range(10)
        ]
        graphs += [
            build_routing_graph(s, hop_priority=True)
            for s in (corridor_scene(), adversarial_scene())
        ]
        banned_users = bs_banned = 0
        for g in graphs:
            costs, paths = edge_costs(g), enumerate_paths(g.topology)
            masks = [0, 1]
            for _ in range(3):
                masks.append(sum(
                    1 << v for v in range(g.topology.num_vertices) if rng.random() < 0.15
                ))
            masks.append(masks[-1] | 1 << int(rng.choice(g.topology.user_vertices)))
            for mask in masks:
                ban = ban_set(mask)
                want = {
                    u: sorted(
                        (
                            Route(u, p, oracle_cost_vec(costs, p))
                            for p in user_paths
                            if ban.isdisjoint(p)
                        ),
                        key=route_key,
                    )
                    for u, user_paths in paths.items()
                }
                bs_banned += 0 in ban
                banned_users += len(ban & set(g.topology.user_vertices))
                most = max(len(w) for w in want.values())
                for count in (5, most + 2):
                    got = top_routes(g, count, mask)
                    assert got == {u: w[:count] for u, w in want.items()}
                    for routes in got.values():
                        assert [r.cost_vec for r in routes] == [
                            oracle_cost_vec(costs, r.vertices) for r in routes
                        ]
        assert bs_banned >= len(graphs)
        assert banned_users >= len(graphs)

    def test_count_validation(self):
        g = from_edges(1, 1, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(GraphError):
            top_routes(g, 0)
        with pytest.raises(GraphError):
            yen_k_shortest(g, 2, 0)


class TestPullSweepMatchesPushReference:
    """`top_routes` against the push sweep it replaced, compared by repr,
    so routes, tie order and every cost float must agree."""

    @staticmethod
    def masks(rng, g):
        users = list(g.topology.user_vertices)
        masks = [0, 1]
        for _ in range(3):
            n = g.topology.num_vertices
            masks.append(sum(1 << v for v in range(n) if rng.random() < 0.15))
        masks.append(masks[-1] | 1 << int(rng.choice(users)))
        masks.append(masks[-1] | 1)
        return masks

    def test_random_half_unit_and_hop_priority_graphs(self):
        rng = np.random.default_rng(88)
        graphs = [
            random_losgraph(rng, num_irs=int(rng.integers(3, 14)), num_users=int(rng.integers(1, 4)))
            for _ in range(40)
        ]
        # half-unit weights sum exactly, so cost ties are common
        half_unit = [
            from_edges(
                g.topology.num_irs,
                g.topology.num_users,
                [(i, j, round(2 * w) / 2) for (i, j), w in g.weight.items()],
            )
            for g in graphs[:20]
        ]
        # as hop-priority graphs, equal hop counts with equal sums leave
        # the order to the vertex sequence
        graphs += half_unit
        graphs += [LosGraph(g.topology, g.weights, hop_priority=True) for g in half_unit]
        scenes = mask_rule_scenes(rng)
        graphs += [build_routing_graph(s, hop_priority=True) for s in scenes]
        graphs += [build_routing_graph(s) for s in scenes[:6]]
        checked = bs_banned = users_banned = 0
        for g in graphs:
            paths = max(map(len, enumerate_paths(g.topology).values()))
            for mask in self.masks(rng, g):
                bs_banned += mask & 1
                users_banned += any(mask >> t & 1 for t in g.topology.user_vertices)
                for count in (1, 5, 50, paths + 3):
                    got = top_routes(g, count, mask)
                    assert repr(got) == repr(reference_top_routes(g, count, mask))
                    checked += sum(map(len, got.values()))
        assert bs_banned >= len(graphs) and users_banned >= len(graphs)
        assert checked > 5000

    def test_rounding_merge_keeps_reference_truncation(self):
        # two paths reach vertex 2 at different costs, 1.0 and the next
        # float up; the 512.0 edge rounds both sums to 513.0, so at the
        # user the hop count decides and the order of vertex 2 flips
        g = from_edges(
            2, 1, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, math.nextafter(1.0, 2.0)), (2, 3, 512.0)]
        )
        both = top_routes(g, 2)[1]
        assert [r.vertices for r in both] == [(0, 2, 3), (0, 1, 2, 3)]
        assert both[0].cost_vec == both[1].cost_vec == (513.0,)
        # with one label per vertex only the cheaper path survives at
        # vertex 2, and the search returns it, as the push sweep did
        assert [r.vertices for r in top_routes(g, 1)[1]] == [(0, 1, 2, 3)]
        for count in (1, 2, 3):
            assert repr(top_routes(g, count)) == repr(reference_top_routes(g, count))


class TestEnumeratePaths:
    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_losgraph(rng, num_users=2)
            users = set(g.topology.user_vertices)
            got = enumerate_paths(g.topology)
            assert list(got) == [t - g.topology.num_irs for t in g.topology.user_vertices]
            for target in users:
                # exactly, order included: brute force breaks ties by it
                want = sorted(oracle_paths(g.topology.succ, 0, target, users))
                assert got[target - g.topology.num_irs] == want


class TestRouteConstruction:
    def scene(self):
        positions = [[0, 0, 0], [5, 0, 0], [9, 0, 0], [14, 0, 0]]
        return make_scene(positions, 2, 1, los_threshold=6.4)

    def test_cost_and_distance(self):
        scene = self.scene()
        r = route_from_sequence(scene, 1, [1, 2])
        expect = sum(
            edge_weight(d, scene.elements, scene.ref_path_gain) for d in (5, 4, 5)
        )
        assert r.cost_vec == (pytest.approx(expect, rel=1e-12),)
        # the route's length comes from the scene
        assert sum(scene.distance(a, b) for a, b in zip(r.vertices, r.vertices[1:])) == 14.0
        assert r.hops == 2
        assert str(r) == "BS -> IRS 1 -> IRS 2 -> User 1"

    def test_rejects_missing_los(self):
        with pytest.raises(GraphError, match="LoS"):
            route_from_sequence(self.scene(), 1, [1])  # 1 -> user is 9 m

    def test_rejects_repeat(self):
        scene = make_scene(
            [[0, 0, 0], [5, 0, 0], [9, 0, 0], [14, 0, 0]],
            2,
            1,
            los_override=full_los(4),
        )
        r = Route(1, (0, 1, 1, 3), (0.0,))
        with pytest.raises(GraphError, match="repeats"):
            validate_route(scene, r)

    def test_rejects_wrong_terminal(self):
        scene = self.scene()
        r = Route(1, (0, 1, 2), (0.0,))
        with pytest.raises(GraphError):
            validate_route(scene, r)

    def test_validates_before_cost(self):
        # a repeated surface or an unknown vertex is a route error, not
        # a failure while summing its hops
        for irs_ids in ([1, 1], [999]):
            with pytest.raises(GraphError):
                route_from_sequence(self.scene(), 1, irs_ids)

    def test_rejects_bad_user_index(self):
        with pytest.raises(Exception):
            route_from_sequence(self.scene(), 5, [1, 2])

    def test_prices_every_graph_path_like_the_sweep(self):
        # brute force prices enumerated paths from the scene; they must
        # carry the very floats the plain graph's cost table sums to
        rng = np.random.default_rng(47)
        checked = 0
        for base in mask_rule_scenes(rng):
            for scene in (base, base.with_elements(1)):
                g = build_routing_graph(scene)
                costs = edge_costs(g)
                for u, paths in enumerate_paths(g.topology).items():
                    for p in paths:
                        r = route_from_sequence(scene, u, p[1:-1])
                        assert r.vertices == p
                        assert bits({p: r.cost_vec}) == bits({p: oracle_cost_vec(costs, p)})
                        checked += 1
        assert checked >= 200


class TestCostPowerDuality:
    def test_identity(self):
        # power of a route equals (N / M^2) e^(-2 cost), checked on
        # random chains across surface sizes and antenna counts
        rng = np.random.default_rng(99)
        for elements, antennas in [(4, 4), (16, 8), (15, 1)]:
            for _ in range(10):
                hops = int(rng.integers(1, 5))
                scene = chain_scene(rng, hops, elements=elements, antennas=antennas)
                route = route_from_sequence(scene, 1, list(range(1, hops + 1)))
                power = closed_form_power(scene, route)
                n, m = scene.bs_antennas, scene.elements
                assert power == pytest.approx(
                    n / m**2 * math.exp(-2 * route.cost_vec[0]), rel=1e-9
                )
