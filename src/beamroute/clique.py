"""Joint route selection as a min-max clique search.

Each user's candidate routes form one partition of a K-partite graph;
two candidates are connected exactly when their routes can operate
simultaneously, meaning they share no vertex and no cross pair of
their vertices has LoS.  A size-K clique is then one compatible route
per user, and the max-min power selection is the clique minimizing the
largest route cost.  Before searching, an arc-consistency pass drops
every candidate with no compatible candidate left in some other
partition; an emptied partition proves the selection infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, attrgetter
from typing import NamedTuple

from .graph import Route
from .scene import Scene


class CliqueError(ValueError):
    """Raised for candidate lists no path graph can be built from."""


class NoCandidateRoutesError(CliqueError):
    """A user ended up with an empty candidate list."""

    def __init__(self, user_index: int):
        self.user_index = user_index
        super().__init__(f"user {user_index} has no candidate routes")


class RouteMasks(NamedTuple):
    """Bitmasks of one route over the scene's node ids.

    ``own`` has the bits of the route's vertices after the BS,
    ``closed`` the union of their closed LoS neighbourhoods.
    """

    own: int
    closed: int


def route_masks(route: Route, scene: Scene) -> RouteMasks:
    masks = scene.los_masks
    own = closed = 0
    for v in route.vertices[1:]:
        own |= 1 << v
        closed |= masks[v]
    return RouteMasks(own, closed)


def compatible(a: RouteMasks, b: RouteMasks) -> bool:
    """True when two routes of different users can coexist.

    They may share no vertex and no LoS pair across them; the shared BS
    is exempt.  Both conditions are one test: no vertex of ``b`` lies
    in the closed neighbourhood of ``a``.  LoS is symmetric, so the
    test is too.
    """
    return not a.closed & b.own


@dataclass(frozen=True, eq=False)
class PathGraph:
    """K-partite compatibility graph over candidate routes.

    Vertices are numbered partition by partition: ``partitions[k]``
    lists user k's candidate ids, consecutive and following those of
    user k - 1, in ascending ``order_key``, the tuple the clique search
    compares (each route's cost vector).  ``adj_masks[v]`` has bit u
    set when u and v are adjacent; vertices of one partition never are.
    ``build_path_graph`` builds it so, and nothing checks it again: a
    graph built by hand must keep it, with at least one partition and
    one key and one mask per vertex.  Its ``routes`` is then empty.
    """

    partitions: tuple[tuple[int, ...], ...]
    order_key: tuple[tuple[float, ...], ...]
    adj_masks: tuple[int, ...]
    routes: tuple[Route, ...] = ()

    @cached_property
    def part_masks(self) -> tuple[int, ...]:
        """Per partition, the bits of its vertices, one run of set bits."""
        return tuple(((1 << len(p)) - 1) << p[0] if p else 0 for p in self.partitions)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """``adj_masks`` as neighbour sets: bit i is digit i from the right."""
        return tuple(
            frozenset(i for i, bit in enumerate(f"{mask:b}"[::-1]) if bit == "1")
            for mask in self.adj_masks
        )


def build_path_graph(candidates: dict[int, list[Route]], scene: Scene) -> PathGraph:
    """Assemble the compatibility graph from per-user candidate lists.

    ``compatible`` for every pair at once, over bitsets of route ids:
    each node gets the set of routes through it (its vertices after the
    BS), then the union of those sets over its closed LoS neighbourhood
    (``Scene.los_masks``), the routes it conflicts with.  A route
    conflicts with the union of that over its own vertices after the
    BS, and is adjacent to every other route.  Routes of one user share
    its vertex, so they always conflict and no partition mask is needed.

    Each user's routes are numbered in ascending ``cost_vec`` order, the
    numbering ``PathGraph`` requires; a stable sort keeps the order of
    equal costs, and ``top_routes`` lists are already in that order.

    Raises NoCandidateRoutesError naming the first user whose list is
    empty, since no joint selection can exist then.
    """
    if not candidates:
        raise CliqueError("no candidate lists given")
    users = tuple(sorted(candidates))
    for k in users:
        if not candidates[k]:
            raise NoCandidateRoutesError(k)
    partitions = []
    routes: list[Route] = []
    for k in users:
        for route in candidates[k]:
            if route.user_index != k:
                raise CliqueError(
                    f"route for user {route.user_index} listed under user {k}"
                )
        partitions.append(tuple(range(len(routes), len(routes) + len(candidates[k]))))
        routes += sorted(candidates[k], key=attrgetter("cost_vec"))

    n = scene.num_nodes
    through = [0] * n
    for r, route in enumerate(routes):
        for v in route.vertices[1:]:
            through[v] |= 1 << r
    # a node on no route neither conflicts nor is read
    used = sum(1 << v for v in range(n) if through[v])
    near = [0] * n
    for v, mask in enumerate(scene.los_masks):
        if through[v]:
            seen, hit = mask & used, 0
            while seen:
                low = seen & -seen
                hit |= through[low.bit_length() - 1]
                seen ^= low
            near[v] = hit
    everyone = (1 << len(routes)) - 1
    adj_masks = []
    for route in routes:
        conflict = 0
        for v in route.vertices[1:]:
            conflict |= near[v]
        adj_masks.append(everyone ^ conflict)

    return PathGraph(
        partitions=tuple(partitions),
        order_key=tuple(r.cost_vec for r in routes),
        adj_masks=tuple(adj_masks),
        routes=tuple(routes),
    )


@dataclass(frozen=True)
class Clique:
    """One selected vertex per partition, in partition order."""

    vertices: tuple[int, ...]


class CliqueSearch:
    """Branch-and-bound K-partite clique search after arc consistency.

    The pass works in rounds: a vertex stays alive only when, for every
    other partition, it lies in the union of the adjacency masks of
    that partition's live vertices.  No full clique holds a dropped
    vertex.  ``alive`` is the mask of the vertices left after the last
    round; ``blocked`` is the lowest partition a round emptied, which
    proves infeasibility before any search, else None.

    The search walks the survivors, filling partitions in index order.
    The graph numbers each partition in key order (see ``PathGraph``),
    so the set bits of a partition run from its cheapest vertex up.
    Each partition walks the set bits of its vertices compatible with
    every member so far, and stops at the first one that lifts the
    worst key strictly above the best clique's, since every later one
    does too; equal keys go on, so the tie rule still decides.  The
    final partition only tries its first compatible vertex, the
    cheapest completion.

    Before descending, the lowest compatible bit of each later partition
    gives its cheapest key.  The branch is dropped when some later
    partition has no compatible vertex left (forward checking), when
    the worst of those keys and the members' keys is above the best
    clique's worst key, or when it ties that key and the first key
    components of the members and those keys, summed in member order,
    exceed the best sum's first component.  Every completion adds, in
    the same order, first components at least as large, and float
    addition is monotone, so that sum bound is exact: a cut never drops
    the best clique, rounding included.

    Cliques compare by (worst order_key, componentwise key sum, vertex
    tuple).  The search is a loop over an explicit stack, so its depth
    is not bounded by Python's recursion limit; each frame carries the
    members so far, their common neighbours, their worst key and their
    key sum, added in member order.

    ``explored`` counts every partial or complete clique constructed,
    ``pruned`` the branches cut by a bound or by forward checking.
    """

    def __init__(self, graph: PathGraph):
        self.graph = graph
        self.explored = 0
        self.pruned = 0
        self.blocked: int | None = None
        self.alive = 0

    def run(self) -> Clique | None:
        self.explored = 0
        self.pruned = 0
        adj, parts = self.graph.adj_masks, self.graph.part_masks
        alive, keep = -1, (1 << len(adj)) - 1
        while keep != alive:  # the arc-consistency pass, one round a turn
            alive = self.alive = keep
            self.blocked = next((k for k, m in enumerate(parts) if not alive & m), None)
            if self.blocked is not None:
                return None
            for part in parts:
                live, reach = alive & part, 0
                while live:
                    low = live & -live
                    reach |= adj[low.bit_length() - 1]
                    live ^= low
                # a partition's own vertices need no neighbour in it
                keep &= reach | part
        keys = self.graph.order_key
        heads = [key[0] for key in keys]
        later = [parts[d + 1 :] for d in range(len(parts))]
        # the best clique's (worst key, key sum, vertex tuple)
        best: tuple | None = None
        # frames of (members, common mask, worst key, key sum, bits left
        # to try); () sorts before every key, so the first member sets
        # the worst, and past the pass no partition is empty
        stack = [((), alive, (), (0.0,) * len(keys[0]), alive & parts[0])]
        while stack:
            members, common, worst, total, free = stack.pop()
            rests = later[len(members)]
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                key = keys[v]
                # like max(), keep the first of equal keys
                top = key if key > worst else worst
                if best is not None and top > best[0]:
                    self.pruned += 1
                    break
                self.explored += 1
                summed = tuple(map(add, total, key))
                if not rests:  # the cheapest completion; later ones cost more
                    found = (top, summed, (*members, v))
                    if best is None or found < best:
                        best = found
                    break
                rest = common & adj[v]
                worst_lb = top
                sum_lb = summed[0]
                for part in rests:
                    cheapest = rest & part
                    if not cheapest:
                        break
                    u = (cheapest & -cheapest).bit_length() - 1
                    k = keys[u]
                    if k > worst_lb:
                        worst_lb = k
                    sum_lb += heads[u]
                else:
                    if best is None or worst_lb < best[0] or (
                        worst_lb == best[0] and sum_lb <= best[1][0]
                    ):
                        # the child runs next, then this frame from its next bit
                        stack.append((members, common, worst, total, free))
                        stack.append(((*members, v), rest, top, summed, rest & rests[0]))
                        break
                self.pruned += 1
        return None if best is None else Clique(vertices=best[2])
