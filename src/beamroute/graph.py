"""Routing graph over the LoS topology and its one path search.

Vertices are the scene nodes.  Directed edges run BS -> surface,
surface -> strictly-farther surface, and surface -> user, each carrying
the weight ln(d / (M sqrt(beta))).  Only that weight depends on the
array size M, so a graph is split in two.  A ``RoutingTopology`` holds
the edges, their lengths, the vertex order and every table the sweep
derives from them; a scene builds it once (``Scene.topology``) and its
copies at other array sizes share it.  A ``LosGraph`` is that topology
priced at one M (``build_routing_graph``): one weight per edge, and
nothing else.  Neither re-checks what its one builder makes it.
Minimizing the weight sum of a BS-to-user path maximizes its end to end
channel power, so candidate route search reduces to shortest paths on a
DAG.  Every edge leads strictly away from the BS, so every path is
loopless, and a single label sweep in topological order (the BS, the
surfaces nearest the BS first, then the users) finds every user's
cheapest `count` paths at once (``top_routes``).  The sweep skips the
surfaces upstream of no user (``RoutingTopology.live_order``), and
sweeps under different bans can share a memo of what each vertex
settled under the bans upstream of it.  Likewise one depth-first walk
lists every user's paths (``enumerate_paths``).
Weights can be negative; the sweep never relies on Dijkstra's
nonnegativity assumption.

Every edge carries one float, and the sweep sums a path's floats hop
by hop from the BS, so equal paths carry bit-identical costs.  The
plain graph ranks paths by (cost, hop count, vertex sequence).  The
hop-greedy variant prices each edge by ln d alone and ranks paths by
hop count, longest first, then by (cost, vertex sequence), which
realizes the large-M limit without evaluating any large power.  A
``Route`` is what the search decides: its vertex path and its cost
vector; hop lengths and powers come from the scene.
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

    ``cost_vec`` is the cost tuple the search ordered by, its weight
    sum taken hop by hop from the BS: (weight sum,) on the plain graph,
    (-edge count, ln d sum) with hop priority.
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
    every edge, listed once, runs forward in it, so the graph is
    acyclic.  ``Scene.topology`` builds it so, and nothing checks it
    again: a topology built by hand must keep it.  The tables the sweep
    reads derive from these on first use and are then shared by every
    ``LosGraph`` priced on this topology, at any M.
    """

    num_irs: int
    num_users: int
    edges: tuple[tuple[int, int], ...]
    topo_order: tuple[int, ...]
    dists: tuple[float, ...] | None = None

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
        skips them.  The vertices kept are the users and everything
        upstream of one: the union of the users' ``upstream_masks``.
        """
        live = 0
        for mask in self.upstream_masks[self.user_vertices.start:]:
            live |= mask
        return tuple(v for v in self.topo_order if live >> v & 1)

    @cached_property
    def upstream_masks(self) -> tuple[int, ...]:
        """Per vertex v, the node mask of v and of every vertex with a
        path to v along ``preds`` edges (so never through a user).

        ``top_routes`` derives v's labels from these vertices' ban bits
        alone, so its answer for v under ``banned`` equals its answer
        under ``banned & upstream_masks[v]``, floats and ties included.
        That makes (v, ``banned & upstream_masks[v]``) an exact key for
        v's answer, the key of ``top_routes``' ``settled`` memo.
        """
        up = [0] * self.num_vertices
        for v in self.topo_order:
            mask = 1 << v
            for p, _ in self.preds[v]:
                mask |= up[p]
            up[v] = mask
        return tuple(up)


@dataclass(frozen=True, eq=False)
class LosGraph:
    """Immutable routing DAG: a topology priced at one array size.

    ``weights`` holds each edge's one float, in ``topology.edges``
    order, as ``build_routing_graph`` prices them.  With
    ``hop_priority`` the searches rank paths by hop count first, longest
    first, and by the weight sum after it.  Every table the sweep reads
    is the topology's, so pricing a topology at another M builds
    nothing else.
    The ``weight`` dict keyed by edge is a view built on first use.
    """

    topology: RoutingTopology
    weights: Sequence[float]
    hop_priority: bool = False

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
    the same operations as ``edge_weight``, so the same bits.  The
    scene keeps M >= 1, so no M is checked here.

    With ``hop_priority`` each edge is priced ln d, at every M, and the
    search ranks paths by hop count first.
    """
    topology = scene.topology
    if hop_priority:
        return LosGraph(topology, list(map(math.log, topology.dists)), True)
    weights = []
    # an edgeless graph prices nothing, so even M = 10**400 raises nothing
    if topology.edges:
        scale = scene.elements * math.sqrt(scene.ref_path_gain)
        weights = [math.log(d / scale) for d in topology.dists]
    return LosGraph(topology, weights)


# -- path search -------------------------------------------------------


def top_routes(
    graph: LosGraph,
    count: int,
    banned: int = 0,
    settled: dict[tuple[int, int], list] | None = None,
) -> dict[int, list[Route]]:
    """Every user's up to `count` lowest-cost BS-to-user paths, sorted.

    One pull sweep in ``RoutingTopology.live_order``: the topological
    order without the vertices that reach no user, whose labels could
    never reach one.  A label is the flat tuple
    (cost, hop count, vertex sequence).  Each vertex gathers the labels
    of its predecessors extended by the in-edge's weight
    (``RoutingTopology.preds``), sorts them once and keeps `count`.
    Every predecessor comes earlier in the order, so its labels are
    final, and every DAG path is loopless, so no deviation search is
    needed.  Labels never extend through a user, so one sweep settles
    every user.
    Labels sort as tuples: by cost, ties toward fewer hops, then the
    lexicographically smallest vertex sequence.  With hop priority more
    hops come first, then that order.  Keeping `count` per vertex is
    exact unless an edge cost rounds two different label costs to one
    float; then the hop count or sequence decides their order
    downstream, and a label a vertex dropped can be missing.  A vertex
    whose bit is set in the node mask `banned` gets no labels.  The
    result maps user index 1..K to its routes; fewer than `count`
    (possibly none) come back when a user's path set is exhausted.

    `settled` is an optional memo shared by the sweeps of one graph at
    one `count`, each under its own `banned`.  It maps
    (v, banned & upstream_masks[v]) to what the sweep settled at the
    vertex v after the BS: its labels, or a user's route list.  That
    key fixes the answer (``RoutingTopology.upstream_masks``), so a
    vertex found there is read, not gathered, and every other vertex
    is stored once settled, empty answers included.  The lists are
    shared with later sweeps and must not be changed.
    """
    if count < 1:
        raise GraphError("path count must be positive")
    topology = graph.topology
    routes: dict[int, list[Route]] = {u: [] for u in range(1, topology.num_users + 1)}
    if banned & 1:
        return routes
    hop_priority, weights = graph.hop_priority, graph.weights
    # hop priority ranks more hops first, then as the plain graph does
    rank = (lambda label: (-label[1], label)) if hop_priority else None
    num_irs = topology.num_irs
    preds, up = topology.preds, topology.upstream_masks
    labels: list[list[tuple[float, int, tuple[int, ...]]]] = [[]] * topology.num_vertices
    labels[0] = [(0.0, 0, (0,))]
    memo = settled is not None
    for v in topology.live_order:
        # the BS keeps its seed label
        if memo and v:
            key = (v, banned & up[v])
            got = settled.get(key)
            if got is not None:
                if v > num_irs:
                    routes[v - num_irs] = got
                else:
                    labels[v] = got
                continue
            # stored now, so a banned vertex or an empty gather stays []
            settled[key] = []
        if banned >> v & 1:
            continue
        here = []
        for p, e in preds[v]:
            w = weights[e]
            for cost, hops, path in labels[p]:
                here.append((cost + w, hops, path))
        if not here:
            continue
        # gathered labels still carry their predecessor's hop count and
        # path; one more hop and a final v on every path keep their
        # order, so only the `count` survivors are extended
        here.sort(key=rank)
        here = [(cost, hops + 1, path + (v,)) for cost, hops, path in here[:count]]
        if v > num_irs:
            user = v - num_irs
            here = routes[user] = [
                Route(user, path, (-float(hops), cost) if hop_priority else (cost,))
                for cost, hops, path in here
            ]
        else:
            labels[v] = here
        if memo:
            settled[key] = here
    return routes


def yen_k_shortest(graph: LosGraph, target: int, count: int) -> list[Route]:
    """Up to `count` lowest-cost paths to the user vertex `target`.

    A one-user view of `top_routes`; the name is kept from the Yen
    search the sweep replaced, for API compatibility.
    """
    if target not in graph.topology.user_vertices:
        raise GraphError(f"target {target} is not a user vertex")
    return top_routes(graph, count)[target - graph.topology.num_irs]


def enumerate_paths(graph: LosGraph) -> dict[int, list[tuple[int, ...]]]:
    """Every user's simple BS-to-user vertex sequences, from one walk:
    user index 1..K to its sequences, in lexicographic order."""
    topology = graph.topology
    num_irs, users = topology.num_irs, topology.user_vertices
    succ, out = topology.succ, {u: [] for u in range(1, topology.num_users + 1)}
    # the path from the BS, and per vertex on it, its sorted successors
    # not yet walked
    path, todo = [0], [iter(succ.get(0, ()))]
    while todo:
        for j in todo[-1]:
            if j in users:
                out[j - num_irs].append((*path, j))
            else:
                path.append(j)
                todo.append(iter(succ.get(j, ())))
                break
        else:
            path.pop()
            todo.pop()
    return out
