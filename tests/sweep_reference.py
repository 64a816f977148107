"""The label sweep over every vertex, the live-order sweep's test reference.

``full_order_top_routes`` is ``beamroute.graph.top_routes`` as it was
before the sweep skipped the vertices that reach no user: it visits
every vertex of ``topo_order``, and it builds its own predecessor
table and label frees from the graph's ``cost`` view and that full
order, so it shares no table with the live sweep.  Both must return
the same routes, in the same order, with bit-identical ``cost_vec``.
"""

from __future__ import annotations

from beamroute.graph import GraphError, LosGraph, Route
from scenefab import edge_costs


def full_order_top_routes(graph: LosGraph, count: int, banned: int = 0) -> dict[int, list[Route]]:
    """Every user's up to `count` cheapest routes, from a sweep of every vertex."""
    if count < 1:
        raise GraphError("path count must be positive")
    topology = graph.topology
    routes: dict[int, list[Route]] = {u: [] for u in range(1, topology.num_users + 1)}
    if banned & 1:
        return routes
    costs = edge_costs(graph)
    wide = len(next(iter(costs.values()), ())) == 2
    first_user = topology.user_vertices.start
    preds: list[list[tuple[int, float, float]]] = [[] for _ in range(topology.num_vertices)]
    for (i, j), c in costs.items():
        if i < first_user:
            preds[j].append((i, c[0], c[1] if len(c) == 2 else 0.0))
    last = {}
    for v in topology.topo_order:
        for p, _, _ in preds[v]:
            last[p] = v
    drops: list[list[int]] = [[] for _ in range(topology.num_vertices)]
    for p, v in last.items():
        drops[v].append(p)
    labels: list[list[tuple[float, float, int, tuple[int, ...]]]] = [[]] * topology.num_vertices
    labels[0] = [(0.0, 0.0, 0, (0,))]
    for v in topology.topo_order:
        if banned >> v & 1:
            continue
        here = []
        for p, c0, c1 in preds[v]:
            for a0, a1, hops, path in labels[p]:
                here.append((a0 + c0, a1 + c1, hops, path))
        if not here:
            continue
        for p in drops[v]:
            labels[p] = []
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
