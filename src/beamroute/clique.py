"""Joint route selection as a min-max clique search.

Each user's candidate routes form one partition of a K-partite graph;
two candidates are connected exactly when their routes can operate
simultaneously, meaning they share no vertex and no cross pair of
their vertices has LoS.  A size-K clique is then one compatible route
per user, and the max-min power selection is the clique minimizing the
largest route cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import NamedTuple

import numpy as np

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


@dataclass(frozen=True, eq=False)
class PathGraph:
    """K-partite compatibility graph over candidate routes.

    Vertices are numbered globally; ``partitions[k]`` lists the vertex
    ids of user k's candidates in candidate order.  ``order_key`` is
    the tuple the clique search compares; for plain weights it is the
    1-tuple of ``weight``.  ``adj_masks[v]`` has bit u set when u and v
    are adjacent; vertices of one partition never are.  ``routes`` is
    empty for graphs built by hand.
    """

    partitions: tuple[tuple[int, ...], ...]
    weight: tuple[float, ...]
    order_key: tuple[tuple[float, ...], ...]
    adj_masks: tuple[int, ...]
    routes: tuple[Route, ...] = ()

    @property
    def num_vertices(self) -> int:
        return len(self.weight)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """``adj_masks`` as neighbour sets."""
        n = self.num_vertices
        width = (n + 7) // 8
        packed = b"".join(m.to_bytes(width, "little") for m in self.adj_masks)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
        bits = np.unpackbits(rows, axis=1, count=n, bitorder="little")
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in bits)


def build_path_graph(candidates: dict[int, list[Route]], scene: Scene) -> PathGraph:
    """Assemble the compatibility graph from per-user candidate lists.

    ``compatible`` for every pair at once: with ``own`` the candidates
    x nodes 0/1 matrix of each route's vertices after the BS, route a
    conflicts with route b when ``(own @ closed @ own.T)[a, b] > 0``,
    ``closed`` being the LoS matrix plus its diagonal.  The entries are
    small integers, so float32 holds them exactly in any summation
    order.  Routes of one user share its vertex, so they always
    conflict and no partition mask is needed.

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
        routes += candidates[k]

    n = scene.num_nodes
    own = np.zeros((len(routes), n), dtype=np.float32)
    owned = [route.vertices[1:] for route in routes]
    own[[r for r, vs in enumerate(owned) for _ in vs], [v for vs in owned for v in vs]] = 1
    closed = (scene.los_matrix | np.eye(n, dtype=bool)).astype(np.float32)
    conflict = (own @ closed) @ own.T > 0
    rows = np.packbits(~conflict, axis=1, bitorder="little")

    return PathGraph(
        partitions=tuple(partitions),
        weight=tuple(r.cost for r in routes),
        order_key=tuple(r.cost_vec for r in routes),
        adj_masks=tuple(int.from_bytes(row.tobytes(), "little") for row in rows),
        routes=tuple(routes),
    )


@dataclass(frozen=True)
class Clique:
    """One selected vertex per partition, in partition order."""

    vertices: tuple[int, ...]
    objective: float
    objective_key: tuple[float, ...]


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

    Cliques compare by (worst order_key, componentwise key sum, vertex
    tuple); the recursion carries the worst key and the sum, adding
    keys in member order.

    ``explored`` counts every partial or complete clique constructed,
    ``pruned`` the branches cut by the bound or by forward checking.
    """

    def __init__(self, graph: PathGraph):
        self.graph = graph
        self.explored = 0
        self.pruned = 0
        # the best clique's (worst key, key sum, vertex tuple)
        self._best: tuple | None = None
        self._walk = [
            [(v, 1 << v) for v in sorted(part, key=lambda v: (graph.order_key[v], v))]
            for part in graph.partitions
        ]
        self._part_masks = [sum(1 << v for v in part) for part in graph.partitions]

    def run(self) -> Clique | None:
        g = self.graph
        self._best = None
        self.explored = 0
        self.pruned = 0
        zero = (0.0,) * len(g.order_key[0]) if g.order_key else ()
        # () sorts before every key, so the first member sets the worst
        self._extend([], (1 << g.num_vertices) - 1, 0, (), zero)
        if self._best is None:
            return None
        worst, _, chosen = self._best
        return Clique(
            vertices=chosen,
            objective=max(g.weight[v] for v in chosen),
            objective_key=worst,
        )

    def _extend(
        self,
        members: list[int],
        common: int,
        depth: int,
        worst: tuple[float, ...],
        total: tuple[float, ...],
    ) -> None:
        g = self.graph
        last = depth == len(g.partitions) - 1
        later = self._part_masks[depth + 1 :]
        for v, bit in self._walk[depth]:
            if not common & bit:
                continue
            key = g.order_key[v]
            if self._best is not None and key > self._best[0]:
                self.pruned += 1
                break
            self.explored += 1
            members.append(v)
            # like max(), keep the first of equal keys
            top = key if key > worst else worst
            summed = tuple(map(add, total, key))
            if last:
                found = (top, summed, tuple(members))
                if self._best is None or found < self._best:
                    self._best = found
            else:
                rest = common & g.adj_masks[v]
                if all(rest & part for part in later):
                    self._extend(members, rest, depth + 1, top, summed)
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
