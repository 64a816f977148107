"""Routing graph over the LoS topology and its one path search.

Vertices are the scene nodes.  Directed edges run BS -> surface,
surface -> strictly-farther surface, and surface -> user, each carrying
the weight ln(d / (M sqrt(beta))).  Minimizing the weight sum of a
BS-to-user path maximizes its end to end channel power, so candidate
route search reduces to shortest paths on a DAG.  Every edge leads
strictly away from the BS, so every path is loopless, and a single
label sweep in the graph's ``topo_order`` (the BS, the surfaces
nearest the BS first, then the users) finds every user's cheapest
`count` paths at once (``top_routes``).  Weights can be negative; the
sweep never relies on Dijkstra's nonnegativity assumption.

Edge costs are short float tuples compared lexicographically.  The
plain graph uses 1-tuples of the scalar weight; the hop-greedy variant
uses (-1, ln d) so longer paths win before distance breaks ties, which
realizes the large-M limit without evaluating any large power.  Paths
are ranked by (cost vector, hop count, vertex sequence).  The sweep
keeps a cost vector as two flat float slots of its label, the second
0.0 for 1-tuples, and sums both hop by hop from the BS, so equal paths
carry bit-identical floats.  A ``Route`` is what the search decides:
its vertex path and that cost vector; hop lengths and powers come from
the scene.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scene import IRS, Scene


class GraphError(ValueError):
    """Raised for malformed graphs or invalid route constructions."""


@dataclass(frozen=True)
class Route:
    """One beam route: vertex 0, an ordered surface sequence, a user.

    ``cost_vec`` is the cost tuple the search ordered by, summed hop by
    hop from the BS; on the plain graph its one entry is the weight sum.
    The route's power is ``channel.closed_form_power(scene, route)`` and
    its hop lengths are the scene's distances between its vertices.
    """

    user_index: int
    vertices: tuple[int, ...]
    cost_vec: tuple[float, ...]

    @property
    def hops(self) -> int:
        """Number of reflecting surfaces on the route."""
        return len(self.vertices) - 2

    @property
    def irs_ids(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def __str__(self) -> str:
        inner = " -> ".join(f"IRS {v}" for v in self.irs_ids)
        middle = f" -> {inner}" if inner else ""
        return f"BS{middle} -> User {self.user_index}"


def edge_weight(distance: float, elements: int, ref_path_gain: float) -> float:
    """ln(d / (M sqrt(beta))), the per-hop power cost in log domain."""
    if distance <= 0 or elements < 1:
        raise GraphError("edge weight needs positive distance and element count")
    return math.log(distance / (elements * math.sqrt(ref_path_gain)))


def validate_route(scene: Scene, route: Route) -> None:
    """Check ids, kinds, surface distinctness and hop-wise LoS."""
    seq = route.vertices
    if len(seq) < 3:
        raise GraphError(f"route too short: {seq}")
    if seq[0] != 0:
        raise GraphError("route must start at the BS")
    if seq[-1] != scene.user_vertex(route.user_index):
        raise GraphError(
            f"route ends at {seq[-1]}, expected user {route.user_index}"
        )
    inner = seq[1:-1]
    if len(set(inner)) != len(inner):
        raise GraphError(f"route repeats a surface: {seq}")
    for v in inner:
        if scene.kind(v) != IRS:
            raise GraphError(f"route vertex {v} is not a reflecting surface")
    for a, b in zip(seq[:-1], seq[1:]):
        if not scene.los_indicator(a, b):
            raise GraphError(f"route hop {a} -> {b} has no LoS")


def route_from_sequence(scene: Scene, user_index: int, irs_ids: Sequence[int]) -> Route:
    """Build, validate and price a route from an explicit surface sequence."""
    seq = (0, *irs_ids, scene.user_vertex(user_index))
    validate_route(scene, Route(user_index=user_index, vertices=seq, cost_vec=()))
    # Left to right, as the sweep adds: sum() compensates on Python 3.12+.
    cost = 0.0
    for a, b in zip(seq[:-1], seq[1:]):
        cost += edge_weight(scene.distance(a, b), scene.elements, scene.ref_path_gain)
    return Route(user_index=user_index, vertices=seq, cost_vec=(cost,))


@dataclass(frozen=True, eq=False)
class LosGraph:
    """Immutable routing DAG, held as its edge tables.

    Vertex ids: 0 is the BS, 1..num_irs the surfaces, then the users.
    ``weight`` holds the scalar per-edge weight and ``cost`` the tuple
    the searches compare, over the same edges.  ``topo_order`` lists
    every vertex once and every edge must run forward in it, so the
    graph is acyclic.  ``succ`` and the other views derive from ``cost``.
    """

    num_irs: int
    num_users: int
    weight: dict[tuple[int, int], float]
    cost: dict[tuple[int, int], tuple[float, ...]]
    topo_order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.topo_order) != list(range(self.num_vertices)):
            raise GraphError("topo_order must list every vertex exactly once")
        rank = {v: k for k, v in enumerate(self.topo_order)}
        for i, j in self.cost:
            if i not in rank or j not in rank:
                raise GraphError(f"edge ({i}, {j}) has an endpoint outside 0..{len(rank) - 1}")
            if rank[i] >= rank[j]:
                raise GraphError(f"edge ({i}, {j}) runs backward in topo_order")

    @property
    def num_vertices(self) -> int:
        return 1 + self.num_irs + self.num_users

    @property
    def user_vertices(self) -> range:
        return range(1 + self.num_irs, self.num_vertices)

    @cached_property
    def succ(self) -> dict[int, tuple[int, ...]]:
        """Sorted out-neighbours of every vertex that has any."""
        succ: dict[int, list[int]] = {}
        for i, j in self.cost:
            succ.setdefault(i, []).append(j)
        return {i: tuple(sorted(js)) for i, js in succ.items()}

    @cached_property
    def pred_table(self) -> tuple[tuple[tuple[int, float, float], ...], ...]:
        """Per vertex, the in-edges that carry labels, as (p, c0, c1).

        ``c0, c1`` are the edge's cost slots, ``c1`` 0.0 for 1-tuple
        costs.  Users pass no labels on, so their out-edges are left out.
        """
        first_user = self.user_vertices.start
        preds: list[list[tuple[int, float, float]]] = [[] for _ in range(self.num_vertices)]
        for (i, j), c in self.cost.items():
            if i < first_user:
                preds[j].append((i, c[0], c[1] if len(c) == 2 else 0.0))
        return tuple(map(tuple, preds))

    @cached_property
    def label_drops(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex v, the predecessors that no vertex after v in
        ``topo_order`` reads, so the sweep can free their labels at v."""
        last = {}
        for v in self.topo_order:
            for p, _, _ in self.pred_table[v]:
                last[p] = v
        drops: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for p, v in last.items():
            drops[v].append(p)
        return tuple(map(tuple, drops))

    @cached_property
    def upstream_masks(self) -> tuple[int, ...]:
        """Per vertex v, the node mask of v and of every vertex with a
        path to v along ``pred_table`` edges (so never through a user).

        ``top_routes`` derives v's labels from these vertices' ban bits
        alone, so its answer for v under ``banned`` equals its answer
        under ``banned & upstream_masks[v]``, floats and ties included.
        """
        up = [0] * self.num_vertices
        for v in self.topo_order:
            mask = 1 << v
            for p, _, _ in self.pred_table[v]:
                mask |= up[p]
            up[v] = mask
        return tuple(up)

    @classmethod
    def from_edges(
        cls,
        num_irs: int,
        num_users: int,
        weighted_edges: list[tuple[int, int, float]],
    ) -> "LosGraph":
        """Synthetic graph from explicit weighted edges; its ``topo_order``
        is id order, so every edge must run from a lower to a higher id."""
        weight = {}
        for i, j, w in weighted_edges:
            if (i, j) in weight:
                raise GraphError(f"duplicate edge ({i}, {j})")
            weight[i, j] = w
        order = tuple(range(1 + num_irs + num_users))
        return cls(num_irs, num_users, weight, {e: (w,) for e, w in weight.items()}, order)


def build_routing_graph(scene: Scene, hop_priority: bool = False) -> LosGraph:
    """Routing DAG of a scene.

    Edges: BS to every LoS surface, surface to every LoS surface that
    is strictly farther from the BS, surface to every LoS user.  Users
    never transmit and the BS-user link is treated as blocked, so no
    other edges exist.

    ``hop_priority`` switches the search cost to (-1, ln d) per edge.
    """
    m = scene.elements
    j_count = scene.num_irs
    los = scene.los_matrix
    d = scene.dist_matrix
    surfaces = slice(1, 1 + j_count)
    d_bs = d[0, surfaces]
    # (first row id, first column id, LoS block), edges in row-major order
    blocks = (
        (0, 1, los[:1, surfaces]),
        # only edges leading strictly away from the BS keep the graph acyclic
        (1, 1, los[surfaces, surfaces] & (d_bs[None, :] > d_bs[:, None])),
        (1, 1 + j_count, los[surfaces, 1 + j_count :]),
    )
    weight = {}
    cost = {}
    for row0, col0, block in blocks:
        rows, cols = np.nonzero(block)
        rows, cols = rows + row0, cols + col0
        for i, j, dij in zip(rows.tolist(), cols.tolist(), d[rows, cols].tolist()):
            weight[i, j] = edge_weight(dij, m, scene.ref_path_gain)
            cost[i, j] = (-1.0, math.log(dij)) if hop_priority else (weight[i, j],)
    # edges run forward in: BS, surfaces nearest first (ties share no edge), users
    near_first = sorted(range(1, 1 + j_count), key=d[0].tolist().__getitem__)
    order = (0, *near_first, *range(1 + j_count, scene.num_nodes))
    return LosGraph(j_count, scene.num_users, weight, cost, order)


# -- path search -------------------------------------------------------


def _check_target(graph: LosGraph, target: int) -> None:
    if target not in graph.user_vertices:
        raise GraphError(f"target {target} is not a user vertex")


def top_routes(graph: LosGraph, count: int, banned: int = 0) -> dict[int, list[Route]]:
    """Every user's up to `count` lowest-cost BS-to-user paths, sorted.

    One pull sweep in ``LosGraph.topo_order``.  A label is the flat tuple
    (c0, c1, hop count, vertex sequence), where (c0, c1) holds the cost
    vector (c1 is 0.0 for 1-tuple costs), so comparing labels ranks
    paths by (cost vector, hop count, vertex sequence).  Each vertex
    gathers the labels of its predecessors extended by the in-edge
    (``LosGraph.pred_table``), sorts them once and keeps `count`; labels
    no later vertex reads are freed (``LosGraph.label_drops``).  Every
    predecessor comes earlier in the order, so its labels are final, and
    every DAG path is loopless, so no deviation search is needed.
    Labels never extend through a user, so one sweep settles every user.
    Ties break toward fewer hops, then the lexicographically smallest
    vertex sequence.  Keeping `count` per vertex is exact unless an edge
    cost rounds two different label costs to one float; then the hop
    count or sequence decides their order downstream, and a label a
    vertex dropped can be missing.  A vertex whose bit is set in the
    node mask `banned` gets no labels.  The result maps user index 1..K
    to its routes; fewer than `count` (possibly none) come back when a
    user's path set is exhausted.
    """
    if count < 1:
        raise GraphError("path count must be positive")
    routes: dict[int, list[Route]] = {u: [] for u in range(1, graph.num_users + 1)}
    if banned & 1:
        return routes
    wide = len(next(iter(graph.cost.values()), ())) == 2
    first_user = graph.user_vertices.start
    preds = graph.pred_table
    drops = graph.label_drops
    labels: list[list[tuple[float, float, int, tuple[int, ...]]]] = [[]] * graph.num_vertices
    labels[0] = [(0.0, 0.0, 0, (0,))]
    for v in graph.topo_order:
        if banned >> v & 1:
            continue
        here = []
        for p, c0, c1 in preds[v]:
            got = labels[p]
            if got:
                here += [(a0 + c0, a1 + c1, hops, path) for a0, a1, hops, path in got]
        if not here:
            continue
        # free what no later vertex reads, or every label lives to the end
        # (a banned last reader leaves them in place, costing memory only)
        for p in drops[v]:
            labels[p] = []
        # gathered labels still carry their predecessor's hop count and
        # path; one more hop and a final v on every path keep their
        # order, so only the `count` survivors are extended
        here.sort()
        here = [(a0, a1, hops + 1, path + (v,)) for a0, a1, hops, path in here[:count]]
        if v < first_user:
            labels[v] = here
        else:
            user = v - graph.num_irs
            routes[user] = [
                Route(user, path, (c0, c1) if wide else (c0,)) for c0, c1, _, path in here
            ]
    return routes


def yen_k_shortest(graph: LosGraph, target: int, count: int) -> list[Route]:
    """Up to `count` lowest-cost paths to the user vertex `target`.

    A one-user view of `top_routes`; the name is kept from the Yen
    search the sweep replaced, for API compatibility.
    """
    _check_target(graph, target)
    return top_routes(graph, count)[target - graph.num_irs]


def enumerate_paths(graph: LosGraph, target: int) -> list[tuple[int, ...]]:
    """All simple BS-to-user vertex sequences, in lexicographic order."""
    _check_target(graph, target)
    out: list[tuple[int, ...]] = []
    stack = [0]

    def walk(v: int) -> None:
        if v == target:
            out.append(tuple(stack))
            return
        for j in graph.succ.get(v, ()):
            if j in graph.user_vertices and j != target:
                continue
            stack.append(j)
            walk(j)
            stack.pop()

    walk(0)
    return out
