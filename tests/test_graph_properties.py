"""Property tests for the routing sweep's dependence on upstream bans
and on the graph's vertex order, and for its skipping of the vertices
that reach no user.

``RoutingTopology.upstream_masks`` claims that a user's routes depend only on
the ban bits of vertices with a path to it.  The sequential solver keys
its memo on exactly that, so it is checked here on random graphs and
random ban masks, against the sweep itself and against a reachability
oracle over the raw successor map.  The sweep's answer must not depend
on which topological order the graph carries, so it is also checked
against the same graph rebuilt with a random one.  Skipping dead-end
vertices must change nothing, so the sweep is checked against the
full-order sweep in ``sweep_reference``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from beamroute.graph import LosGraph, RoutingTopology, build_routing_graph, top_routes
from scenefab import from_edges
from sweep_reference import full_order_top_routes
from test_clique import random_override_scene

# a few exact sums collide (0.1 + 0.2 vs 0.3), so ties and rounding show up
WEIGHTS = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@st.composite
def edge_graphs(draw) -> LosGraph:
    """Random forward edges over all vertices, users included.

    Edges only run from lower to higher ids, as ``from_edges`` requires,
    so the graph is a DAG; edges out of users exist but must carry no
    labels.
    """
    num_irs = draw(st.integers(0, 6))
    num_users = draw(st.integers(1, 4))
    n = 1 + num_irs + num_users
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return from_edges(num_irs, num_users, [(i, j, draw(WEIGHTS)) for i, j in picked])


@st.composite
def scene_graphs(draw) -> LosGraph:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = random_override_scene(rng, draw(st.integers(2, 10)), draw(st.integers(1, 4)))
    return build_routing_graph(scene, hop_priority=draw(st.booleans()))


GRAPHS = st.one_of(edge_graphs(), scene_graphs())


@given(GRAPHS, st.data())
def test_routes_depend_only_on_upstream_bans(graph, data):
    banned = data.draw(st.integers(0, 2**graph.topology.num_vertices - 1))
    for count in (1, 5):
        full = top_routes(graph, count, banned)
        for u in full:
            up = graph.topology.upstream_masks[graph.topology.num_irs + u]
            masked = top_routes(graph, count, banned & up)
            assert repr(masked[u]) == repr(full[u])


def reaches(graph: LosGraph, source: int, target: int) -> bool:
    """A path from source to target along ``succ`` through no user."""
    users = graph.topology.user_vertices
    stack, seen = [source], {source}
    while stack:
        v = stack.pop()
        if v == target:
            return True
        if v in users:
            continue
        for j in graph.topology.succ.get(v, ()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return False


@given(GRAPHS)
def test_upstream_masks_match_reachability(graph):
    n = graph.topology.num_vertices
    for v in range(n):
        want = sum(1 << w for w in range(n) if w == v or reaches(graph, w, v))
        assert graph.topology.upstream_masks[v] == want


@given(GRAPHS, st.data())
def test_routes_do_not_depend_on_the_topological_order(graph, data):
    # a random linear extension of the same edges, one ready vertex at a time
    topology = graph.topology
    indeg = [0] * topology.num_vertices
    for _, j in topology.edges:
        indeg[j] += 1
    ready = [v for v in range(topology.num_vertices) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(data.draw(st.integers(0, len(ready) - 1)))
        order.append(v)
        for j in topology.succ.get(v, ()):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    other = LosGraph(
        RoutingTopology(
            topology.num_irs, topology.num_users, topology.edges, tuple(order), topology.dists
        ),
        graph.weights,
        graph.hop_priority,
    )
    banned = data.draw(st.integers(0, 2**topology.num_vertices - 1))
    for count in (1, 5):
        assert repr(top_routes(other, count, banned)) == repr(top_routes(graph, count, banned))
    assert other.topology.upstream_masks == graph.topology.upstream_masks


# a few logs collide after summing (ln 2 + ln 2 vs ln 4), so hop-priority
# ties and rounding show up too
DISTS = st.one_of(
    st.sampled_from([1.0, 2.0, 4.0, 0.5, 3.0, 6.0]),
    st.floats(0.01, 50.0, allow_nan=False),
)


@st.composite
def dead_end_graphs(draw) -> LosGraph:
    """Random forward DAGs where some surfaces reach no user.

    Every edge out of a surface drawn as dead leads to another dead
    surface, so no path from a dead surface reaches a user, while
    labels still flow into it.  Costs are plain weights or, with
    hop priority, (-1, ln d) from drawn edge lengths.
    """
    num_irs = draw(st.integers(1, 8))
    num_users = draw(st.integers(1, 4))
    n = 1 + num_irs + num_users
    dead = draw(st.sets(st.integers(1, num_irs), min_size=1))
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if i not in dead or j in dead
    ]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))))
    dists = tuple(draw(DISTS) for _ in edges)
    order = tuple(range(n))
    topology = RoutingTopology(num_irs, num_users, edges, order, dists)
    assert dead.isdisjoint(topology.live_order)
    weights = [draw(WEIGHTS) for _ in edges]
    return LosGraph(topology, weights, draw(st.booleans()))


def exact(routes: dict) -> list:
    """Routes in order, every cost float as its exact hex form."""
    return [
        (u, [(r.user_index, r.vertices, tuple(c.hex() for c in r.cost_vec)) for r in rs])
        for u, rs in routes.items()
    ]


@given(st.one_of(dead_end_graphs(), GRAPHS), st.data())
def test_live_sweep_matches_full_order_sweep(graph, data):
    banned = data.draw(st.integers(0, 2**graph.topology.num_vertices - 1))
    for mask in (0, banned):
        for count in (1, 3, 50):
            got = top_routes(graph, count, mask)
            assert exact(got) == exact(full_order_top_routes(graph, count, mask))
