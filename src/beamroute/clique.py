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
from operator import add, attrgetter
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

    Vertices are numbered partition by partition: ``partitions[k]``
    lists user k's candidate ids, consecutive and following those of
    user k - 1, in ascending ``order_key``, the tuple the clique search
    compares (each route's cost vector).  Construction checks that
    numbering; ``build_path_graph`` sorts each user's routes so.
    ``adj_masks[v]`` has bit u set when u and v are adjacent; vertices
    of one partition never are.  ``routes`` is empty for graphs built
    by hand.
    """

    partitions: tuple[tuple[int, ...], ...]
    order_key: tuple[tuple[float, ...], ...]
    adj_masks: tuple[int, ...]
    routes: tuple[Route, ...] = ()

    def __post_init__(self):
        if not self.partitions:
            raise CliqueError("a path graph needs at least one partition")
        keys = self.order_key
        start = 0
        for k, part in enumerate(self.partitions):
            end = start + len(part)
            if part != tuple(range(start, end)):
                raise CliqueError(f"partition {k} is not numbered {start}..{end - 1}")
            if list(keys[start:end]) != sorted(keys[start:end]):
                raise CliqueError(f"partition {k} is not in key order")
            start = end
        if start != len(keys):
            raise CliqueError(f"{len(keys)} keys for {start} vertices")

    @property
    def num_vertices(self) -> int:
        return len(self.order_key)

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
    own = np.zeros((len(routes), n), dtype=np.float32)
    owned = [route.vertices[1:] for route in routes]
    own[[r for r, vs in enumerate(owned) for _ in vs], [v for vs in owned for v in vs]] = 1
    closed = (scene.los_matrix | np.eye(n, dtype=bool)).astype(np.float32)
    conflict = (own @ closed) @ own.T > 0
    rows = np.packbits(~conflict, axis=1, bitorder="little")

    return PathGraph(
        partitions=tuple(partitions),
        order_key=tuple(r.cost_vec for r in routes),
        adj_masks=tuple(int.from_bytes(row.tobytes(), "little") for row in rows),
        routes=tuple(routes),
    )


def blocking_pair(graph: PathGraph) -> tuple[int, int] | None:
    """The first partition pair ``(a, b)``, a < b, with no edge across it.

    No candidate of ``a`` is compatible with any candidate of ``b``, so
    that pair alone rules out every clique.  None when every pair has
    an edge.
    """
    masks = [sum(1 << v for v in part) for part in graph.partitions]
    for a, part in enumerate(graph.partitions):
        reach = 0
        for v in part:
            reach |= graph.adj_masks[v]
        for b in range(a + 1, len(masks)):
            if not reach & masks[b]:
                return a, b
    return None


@dataclass(frozen=True)
class Clique:
    """One selected vertex per partition, in partition order."""

    vertices: tuple[int, ...]
    objective_key: tuple[float, ...]


class CliqueSearch:
    """Branch-and-bound K-partite clique search.

    Partitions are filled in index order.  The graph numbers each
    partition in key order (see ``PathGraph``), so the set bits of a
    partition run from its cheapest vertex up.  Each partition walks
    the set bits of its vertices compatible with every member so far,
    and stops at the first one that lifts the worst key strictly above
    the best clique's, since every later one does too; equal keys go
    on, so the tie rule still decides.  The final partition only tries
    its first compatible vertex, the cheapest completion.

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
    tuple); the recursion carries the worst key and the sum, adding
    keys in member order.

    ``explored`` counts every partial or complete clique constructed,
    ``pruned`` the branches cut by a bound or by forward checking.
    """

    def __init__(self, graph: PathGraph):
        self.graph = graph
        self.explored = 0
        self.pruned = 0
        # the best clique's (worst key, key sum, vertex tuple)
        self._best: tuple | None = None
        self._heads = [key[0] for key in graph.order_key]
        masks, start = [], 0
        for part in graph.partitions:
            masks.append(((1 << len(part)) - 1) << start)
            start += len(part)
        self._part_masks = masks
        self._later = [masks[d + 1 :] for d in range(len(masks))]

    def run(self) -> Clique | None:
        self._best = None
        self.explored = 0
        self.pruned = 0
        keys = self.graph.order_key
        zero = (0.0,) * len(keys[0]) if keys else ()
        # () sorts before every key, so the first member sets the worst
        self._extend((), (1 << len(keys)) - 1, 0, (), zero)
        if self._best is None:
            return None
        worst, _, chosen = self._best
        return Clique(vertices=chosen, objective_key=worst)

    def _extend(
        self,
        members: tuple[int, ...],
        common: int,
        depth: int,
        worst: tuple[float, ...],
        total: tuple[float, ...],
    ) -> None:
        keys = self.graph.order_key
        adj = self.graph.adj_masks
        heads = self._heads
        later = self._later[depth]
        # the last partition is filled here, by its cheapest compatible vertex
        fills_last = len(later) == 1
        free = common & self._part_masks[depth]
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            key = keys[v]
            # like max(), keep the first of equal keys
            top = key if key > worst else worst
            best = self._best
            if best is not None and top > best[0]:
                self.pruned += 1
                break
            self.explored += 1
            summed = tuple(map(add, total, key))
            if not later:  # a single partition
                self._offer(top, summed, (v,))
                break
            rest = common & adj[v]
            worst_lb = top
            sum_lb = summed[0]
            for part in later:
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
                    if fills_last:
                        self.explored += 1
                        total_u = tuple(map(add, summed, keys[u]))
                        self._offer(worst_lb, total_u, (*members, v, u))
                    else:
                        self._extend((*members, v), rest, depth + 1, top, summed)
                    continue
            self.pruned += 1

    def _offer(
        self, worst: tuple[float, ...], total: tuple[float, ...], members: tuple[int, ...]
    ) -> None:
        found = (worst, total, members)
        if self._best is None or found < self._best:
            self._best = found
