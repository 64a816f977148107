"""Routing graph over the LoS topology and its one path search.

Vertices are the scene nodes.  Directed edges run BS -> surface,
surface -> strictly-farther surface, and surface -> user, each carrying
the weight ln(d / (M sqrt(beta))).  Only that weight depends on the
array size M, so a graph is split in two.  A ``RoutingTopology`` holds
the edges, their lengths, the vertex order and every table the sweep
derives from them; a scene builds it once (``Scene.topology``) and its
copies at other array sizes share it.  A ``LosGraph`` is that topology
priced at one M: one weight per edge, and nothing else.  Minimizing the
weight sum of a BS-to-user path maximizes its end to end channel power,
so candidate route search reduces to shortest paths on a DAG.  Every
edge leads strictly away from the BS, so every path is loopless, and a
single label sweep in topological order (the BS, the surfaces nearest
the BS first, then the users) finds every user's cheapest `count` paths
at once (``top_routes``).  The sweep skips the surfaces with no path to
any user (``RoutingTopology.live_order``).  Weights can be negative; the
sweep never relies on Dijkstra's nonnegativity assumption.

Edge costs are short float tuples compared lexicographically.  The
plain graph uses 1-tuples of the scalar weight; the hop-greedy variant
uses (-1, ln d) so longer paths win before distance breaks ties, which
realizes the large-M limit without evaluating any large power.  Paths
are ranked by (cost vector, hop count, vertex sequence).  The sweep
keeps a cost vector as two flat float slots of its label, the second
0.0 for 1-tuples, and sums both hop by hop from the BS, reading each
edge's two slots from two per-edge lists, so equal paths carry
bit-identical floats.  A ``Route`` is what the search decides:
its vertex path and that cost vector; hop lengths and powers come from
the scene.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

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
class RoutingTopology:
    """The part of a routing graph that no array size changes.

    Vertex ids: 0 is the BS, 1..num_irs the surfaces, then the users.
    ``edges`` lists the directed (i, j) pairs and ``dists`` their
    lengths in meters, in the same order (None for a synthetic graph,
    which has no geometry).  ``topo_order`` lists every vertex once and
    every edge must run forward in it, so the graph is acyclic; the
    order, the endpoints and duplicates are checked once, on
    construction.  The tables the sweep reads derive from these on
    first use and are then shared by every ``LosGraph`` priced on this
    topology, at any M.
    """

    num_irs: int
    num_users: int
    edges: tuple[tuple[int, int], ...]
    topo_order: tuple[int, ...]
    dists: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if sorted(self.topo_order) != list(range(self.num_vertices)):
            raise GraphError("topo_order must list every vertex exactly once")
        rank = {v: k for k, v in enumerate(self.topo_order)}
        seen = set()
        for i, j in self.edges:
            if i not in rank or j not in rank:
                raise GraphError(f"edge ({i}, {j}) has an endpoint outside 0..{len(rank) - 1}")
            if rank[i] >= rank[j]:
                raise GraphError(f"edge ({i}, {j}) runs backward in topo_order")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

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
        for i, j in self.edges:
            succ.setdefault(i, []).append(j)
        return {i: tuple(sorted(js)) for i, js in succ.items()}

    @cached_property
    def preds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the in-edges that carry labels, as (p, edge index).

        Users pass no labels on, so their out-edges are left out.
        """
        first_user = self.user_vertices.start
        preds: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for e, (i, j) in enumerate(self.edges):
            if i < first_user:
                preds[j].append((i, e))
        return tuple(map(tuple, preds))

    @cached_property
    def live_order(self) -> tuple[int, ...]:
        """``topo_order`` without the vertices that reach no user.

        A label never reaches a user from such a vertex, so the sweep
        skips them.  The predecessors of a kept vertex reach a user
        through it, so they are kept too.
        """
        live = [False] * self.num_vertices
        for v in self.user_vertices:
            live[v] = True
        # every successor of v comes later in the order, so is settled first
        for v in reversed(self.topo_order):
            if live[v]:
                for p, _ in self.preds[v]:
                    live[p] = True
        return tuple(v for v in self.topo_order if live[v])

    @cached_property
    def upstream_masks(self) -> tuple[int, ...]:
        """Per vertex v, the node mask of v and of every vertex with a
        path to v along ``preds`` edges (so never through a user).

        ``top_routes`` derives v's labels from these vertices' ban bits
        alone, so its answer for v under ``banned`` equals its answer
        under ``banned & upstream_masks[v]``, floats and ties included.
        """
        up = [0] * self.num_vertices
        for v in self.topo_order:
            mask = 1 << v
            for p, _ in self.preds[v]:
                mask |= up[p]
            up[v] = mask
        return tuple(up)

    @cached_property
    def log_dists(self) -> list[float]:
        """ln d per edge, the hop-priority cost's second slot at every M."""
        return list(map(math.log, self.dists))


@dataclass(frozen=True, eq=False)
class LosGraph:
    """Immutable routing DAG: a topology priced at one array size.

    ``weights`` holds each edge's scalar weight, in ``topology.edges``
    order.  The searches compare cost tuples: (weight,) per edge on the
    plain graph, (-1, ln d) with ``hop_priority``, which needs the
    topology's edge lengths.  Every table the sweep reads is the
    topology's, so pricing a topology at another M builds nothing else.
    The ``weight`` dict keyed by edge is a view built on first use.
    """

    topology: RoutingTopology
    weights: Sequence[float]
    hop_priority: bool = False

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.topology.edges):
            raise GraphError(
                f"{len(self.weights)} weights for {len(self.topology.edges)} edges"
            )
        if self.hop_priority and self.topology.dists is None:
            raise GraphError("hop priority needs the topology's edge lengths")

    @cached_property
    def weight(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.topology.edges, self.weights))


def build_routing_graph(scene: Scene, hop_priority: bool = False) -> LosGraph:
    """Routing DAG of a scene: its topology, priced at the scene's M.

    Edges: BS to every LoS surface, surface to every LoS surface that
    is strictly farther from the BS, surface to every LoS user.  Users
    never transmit and the BS-user link is treated as blocked, so no
    other edges exist.  The topology is ``Scene.topology``, which
    copies of the scene at other array sizes share, so a graph per M
    only prices the edges: one division and one ``math.log`` per edge,
    the same operations as ``edge_weight``, so the same bits.

    ``hop_priority`` switches the search cost to (-1, ln d) per edge.
    """
    topology = scene.topology
    weights = []
    # like a per-edge edge_weight, an edgeless graph prices nothing
    if topology.edges:
        m = scene.elements
        if m < 1:
            raise GraphError("edge weight needs positive distance and element count")
        scale = m * math.sqrt(scene.ref_path_gain)
        weights = [math.log(d / scale) for d in topology.dists]
    return LosGraph(topology, weights, hop_priority)


# -- path search -------------------------------------------------------


def _check_target(graph: LosGraph, target: int) -> None:
    if target not in graph.topology.user_vertices:
        raise GraphError(f"target {target} is not a user vertex")


def top_routes(graph: LosGraph, count: int, banned: int = 0) -> dict[int, list[Route]]:
    """Every user's up to `count` lowest-cost BS-to-user paths, sorted.

    One pull sweep in ``RoutingTopology.live_order``: the topological
    order without the vertices that reach no user, whose labels could
    never reach one.  A label is the flat tuple
    (c0, c1, hop count, vertex sequence), where (c0, c1) holds the cost
    vector (c1 is 0.0 for 1-tuple costs), so comparing labels ranks
    paths by (cost vector, hop count, vertex sequence).  Each vertex
    gathers the labels of its predecessors extended by the in-edge
    (``RoutingTopology.preds``), sorts them once and keeps `count`.  An
    in-edge's two cost slots come from two per-edge lists: the weights
    and zeros on the plain graph, -1.0 and ``RoutingTopology.log_dists``
    with hop priority.  Every predecessor comes earlier in the order,
    so its labels are final, and every DAG path is loopless, so no
    deviation search is needed.  Labels never extend through a user, so
    one sweep settles every user.
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
    topology = graph.topology
    routes: dict[int, list[Route]] = {u: [] for u in range(1, topology.num_users + 1)}
    if banned & 1:
        return routes
    wide = graph.hop_priority
    if wide:
        c0s, c1s = [-1.0] * len(topology.edges), topology.log_dists
    else:
        c0s, c1s = graph.weights, [0.0] * len(topology.edges)
    first_user = topology.user_vertices.start
    preds = topology.preds
    labels: list[list[tuple[float, float, int, tuple[int, ...]]]] = [[]] * topology.num_vertices
    labels[0] = [(0.0, 0.0, 0, (0,))]
    for v in topology.live_order:
        if banned >> v & 1:
            continue
        here = []
        for p, e in preds[v]:
            c0, c1 = c0s[e], c1s[e]
            for a0, a1, hops, path in labels[p]:
                here.append((a0 + c0, a1 + c1, hops, path))
        if not here:
            continue
        # gathered labels still carry their predecessor's hop count and
        # path; one more hop and a final v on every path keep their
        # order, so only the `count` survivors are extended
        here.sort()
        here = [(a0, a1, hops + 1, path + (v,)) for a0, a1, hops, path in here[:count]]
        if v < first_user:
            labels[v] = here
        else:
            user = v - topology.num_irs
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
    return top_routes(graph, count)[target - graph.topology.num_irs]


def enumerate_paths(graph: LosGraph, target: int) -> list[tuple[int, ...]]:
    """All simple BS-to-user vertex sequences, in lexicographic order."""
    _check_target(graph, target)
    out: list[tuple[int, ...]] = []
    stack = [0]
    succ, users = graph.topology.succ, graph.topology.user_vertices

    def walk(v: int) -> None:
        if v == target:
            out.append(tuple(stack))
            return
        for j in succ.get(v, ()):
            if j in users and j != target:
                continue
            stack.append(j)
            walk(j)
            stack.pop()

    walk(0)
    return out
