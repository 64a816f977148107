"""Property tests for the routing sweep's dependence on upstream bans.

``LosGraph.upstream_masks`` claims that a user's routes depend only on
the ban bits of vertices with a path to it.  The sequential solver keys
its memo on exactly that, so it is checked here on random graphs and
random ban masks, against the sweep itself and against a reachability
oracle over the raw successor map.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from beamroute.graph import LosGraph, build_routing_graph, top_routes
from test_clique import random_override_scene

# a few exact sums collide (0.1 + 0.2 vs 0.3), so ties and rounding show up
WEIGHTS = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@st.composite
def edge_graphs(draw) -> LosGraph:
    """Random forward edges over all vertices, users included.

    Edges only run from lower to higher ids, so the graph is a DAG; edges
    out of users exist but must carry no labels.
    """
    num_irs = draw(st.integers(0, 6))
    num_users = draw(st.integers(1, 4))
    n = 1 + num_irs + num_users
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return LosGraph.from_edges(num_irs, num_users, [(i, j, draw(WEIGHTS)) for i, j in picked])


@st.composite
def scene_graphs(draw) -> LosGraph:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = random_override_scene(rng, draw(st.integers(2, 10)), draw(st.integers(1, 4)))
    return build_routing_graph(scene, hop_priority=draw(st.booleans()))


GRAPHS = st.one_of(edge_graphs(), scene_graphs())


@given(GRAPHS, st.data())
def test_routes_depend_only_on_upstream_bans(graph, data):
    banned = data.draw(st.integers(0, 2**graph.num_vertices - 1))
    for count in (1, 5):
        full = top_routes(graph, count, banned)
        for u in full:
            up = graph.upstream_masks[graph.num_irs + u]
            masked = top_routes(graph, count, banned & up)
            assert repr(masked[u]) == repr(full[u])


def reaches(graph: LosGraph, source: int, target: int) -> bool:
    """A path from source to target along ``succ`` through no user."""
    users = graph.user_vertices
    stack, seen = [source], {source}
    while stack:
        v = stack.pop()
        if v == target:
            return True
        if v in users:
            continue
        for j in graph.succ.get(v, ()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return False


@given(GRAPHS)
def test_upstream_masks_match_reachability(graph):
    for v in range(graph.num_vertices):
        want = sum(1 << w for w in range(graph.num_vertices) if w == v or reaches(graph, w, v))
        assert graph.upstream_masks[v] == want
