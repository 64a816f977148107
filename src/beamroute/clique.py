"""Joint route selection as a min-max clique search.

Each user's candidate routes form one partition of a K-partite graph;
two candidates are connected exactly when their routes can operate
simultaneously, meaning they share no vertex and no cross pair of
their vertices has LoS.  A size-K clique is then one compatible route
per user, and the max-min power selection is the clique minimizing the
largest route cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .graph import Route
from .scene import Scene


class CliqueError(ValueError):
    """Raised for invalid path-graph constructions."""


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


def neighbor_disjoint(a: Route, b: Route, scene: Scene) -> bool:
    """``compatible`` for two routes of different users of ``scene``."""
    if a.user_index == b.user_index:
        raise CliqueError("neighbor test is undefined for same-user routes")
    return compatible(route_masks(a, scene), route_masks(b, scene))


@dataclass(frozen=True, eq=False)
class PathGraph:
    """K-partite compatibility graph over candidate routes.

    Vertices are numbered globally; ``partitions[k]`` lists the vertex
    ids of user k's candidates in candidate order.  ``order_key`` is
    the tuple the clique search compares; for plain weights it is the
    1-tuple of ``weight``.
    """

    users: tuple[int, ...]
    partitions: tuple[tuple[int, ...], ...]
    weight: tuple[float, ...]
    order_key: tuple[tuple[float, ...], ...]
    adj: tuple[frozenset[int], ...]
    routes: tuple[Route | None, ...] = field(default=None)

    def __post_init__(self) -> None:
        if self.routes is None:
            object.__setattr__(self, "routes", (None,) * len(self.weight))
        seen = [False] * len(self.weight)
        for part in self.partitions:
            for v in part:
                if seen[v]:
                    raise CliqueError(f"vertex {v} listed twice")
                seen[v] = True
        if not all(seen):
            raise CliqueError("every vertex must belong to a partition")
        owner = self.partition_of
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if v not in self.adj[u]:
                    raise CliqueError("adjacency must be symmetric")
                if owner[u] == owner[v]:
                    raise CliqueError("edges inside a partition are not allowed")

    @property
    def partition_of(self) -> list[int]:
        owner = [0] * len(self.weight)
        for idx, part in enumerate(self.partitions):
            for v in part:
                owner[v] = idx
        return owner

    @property
    def num_vertices(self) -> int:
        return len(self.weight)

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """``adj`` as int bitmasks over the vertex ids."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adj)


def build_path_graph(candidates: dict[int, list[Route]], scene: Scene) -> PathGraph:
    """Assemble the compatibility graph from per-user candidate lists.

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
    weight: list[float] = []
    order_key: list[tuple[float, ...]] = []
    routes: list[Route] = []
    for k in users:
        ids = []
        for route in candidates[k]:
            if route.user_index != k:
                raise CliqueError(
                    f"route for user {route.user_index} listed under user {k}"
                )
            ids.append(len(weight))
            weight.append(route.cost)
            order_key.append(route.cost_vec)
            routes.append(route)
        partitions.append(tuple(ids))

    masks = [route_masks(r, scene) for r in routes]
    adj = [set() for _ in weight]
    for ka in range(len(users)):
        for kb in range(ka + 1, len(users)):
            for va in partitions[ka]:
                for vb in partitions[kb]:
                    if compatible(masks[va], masks[vb]):
                        adj[va].add(vb)
                        adj[vb].add(va)

    return PathGraph(
        users=users,
        partitions=tuple(partitions),
        weight=tuple(weight),
        order_key=tuple(order_key),
        adj=tuple(frozenset(s) for s in adj),
        routes=tuple(routes),
    )


@dataclass(frozen=True)
class Clique:
    """One selected vertex per partition, in partition order."""

    vertices: tuple[int, ...]
    objective: float
    objective_key: tuple[float, ...]
    weight_sum: float


class CliqueSearch:
    """Branch-and-bound K-partite clique search.

    Partitions are filled in index order, each walked in ``(order_key,
    v)`` order.  A partition's walk stops at the first key strictly
    greater than the worst key of the best clique found, since every
    clique through it is worse; equal keys go on, so the tie rule
    still decides.  The final partition only tries its first
    compatible vertex, the cheapest completion.  A branch is also
    dropped as soon as some later partition has no vertex left that is
    compatible with all members (forward checking).

    ``explored`` counts every partial or complete clique constructed,
    ``pruned`` the branches cut by the bound or by forward checking.
    """

    def __init__(self, graph: PathGraph):
        self.graph = graph
        self.explored = 0
        self.pruned = 0
        self._best: tuple | None = None
        self._walk = [
            [(v, 1 << v) for v in sorted(part, key=lambda v: (graph.order_key[v], v))]
            for part in graph.partitions
        ]
        self._part_masks = [sum(1 << v for v in part) for part in graph.partitions]

    def run(self) -> Clique | None:
        self._best = None
        self.explored = 0
        self.pruned = 0
        self._extend([], (1 << self.graph.num_vertices) - 1, 0)
        if self._best is None:
            return None
        key, chosen = self._best
        return Clique(
            vertices=chosen,
            objective=max(self.graph.weight[v] for v in chosen),
            objective_key=key[0],
            weight_sum=sum(self.graph.weight[v] for v in chosen),
        )

    # key: (max order_key, componentwise key sum, canonical vertex tuple)
    def _complete(self, members: list[int]) -> None:
        g = self.graph
        chosen = tuple(members)
        worst = max(g.order_key[v] for v in chosen)
        total = tuple(
            sum(g.order_key[v][i] for v in chosen)
            for i in range(len(worst))
        )
        key = (worst, total, chosen)
        if self._best is None or key < self._best[0]:
            self._best = (key, chosen)

    def _extend(self, members: list[int], common: int, depth: int) -> None:
        g = self.graph
        last = depth == len(g.partitions) - 1
        later = self._part_masks[depth + 1 :]
        for v, bit in self._walk[depth]:
            if not common & bit:
                continue
            if self._best is not None and g.order_key[v] > self._best[0][0]:
                self.pruned += 1
                break
            self.explored += 1
            members.append(v)
            if last:
                self._complete(members)
            else:
                rest = common & g.adj_masks[v]
                if all(rest & part for part in later):
                    self._extend(members, rest, depth + 1)
                else:
                    self.pruned += 1
            members.pop()
            if last:
                break


def min_max_clique(graph: PathGraph) -> Clique | None:
    """Clique with one vertex per partition minimizing the largest weight.

    Ties break toward the smallest weight sum, then the smallest vertex
    tuple.  Returns None when no full-size clique exists.
    """
    return CliqueSearch(graph).run()
