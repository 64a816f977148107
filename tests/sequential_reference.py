"""The sequential greedy as a tree walk, the memoized solver's test reference.

``tree_sequential`` walks every user order as a tree of prefixes: a
shared prefix is routed once, a user left without a route fails every
order below its prefix, and the leaves are priced and compared one by
one in lexicographic order, the first strictly better order winning.
Lookups share sweeps of the routing graph exactly as in
``beamroute.solver.solve_sequential`` (a user's route depends only on
the bans upstream of it), so its ``sweeps`` count must match too.  It
never merges subtrees, so its cost grows with the number of orders.
"""

from __future__ import annotations

import math

from beamroute.channel import closed_form_power
from beamroute.clique import route_masks
from beamroute.graph import Route, build_routing_graph, top_routes
from beamroute.scene import Scene
from beamroute.solver import RoutingSolution, audit_solution


def tree_sequential(scene: Scene) -> RoutingSolution:
    """The sequential solution of ``scene``, without its wall time or
    ``order_states``, which count what the memo saves."""
    k = scene.num_users
    graph = build_routing_graph(scene)
    users = range(1, k + 1)
    upstream = {u: graph.topology.upstream_masks[scene.num_irs + u] for u in users}
    # (user, banned bits upstream of it) -> its shortest route avoiding them
    shortest: dict[tuple[int, int], list[Route]] = {}
    power_of: dict[tuple[int, ...], float] = {}
    best: tuple[tuple[Route, ...], tuple[float, ...], tuple[int, ...]] | None = None
    orders_feasible = 0
    sweeps = 0

    def walk(chosen: dict[int, Route], banned: int) -> None:
        """Every order extending ``chosen`` (user -> route, in order)."""
        nonlocal best, orders_feasible, sweeps
        if len(chosen) == k:
            orders_feasible += 1
            routes = tuple(chosen[u] for u in users)
            for r in routes:
                if r.vertices not in power_of:
                    power_of[r.vertices] = closed_form_power(scene, r)
            powers = tuple(power_of[r.vertices] for r in routes)
            if best is None or min(powers) > min(best[1]):
                best = (routes, powers, tuple(chosen))
            return
        steps = []
        for u in users:
            if u in chosen:
                continue
            key = (u, banned & upstream[u])
            if key not in shortest:
                sweeps += 1
                for w, got in top_routes(graph, 1, banned).items():
                    shortest[w, banned & upstream[w]] = got
            found = shortest[key]
            if not found:
                return
            steps.append(found[0])
        for route in steps:
            chosen[route.user_index] = route
            walk(chosen, banned | route_masks(route, scene).closed & ~1)
            del chosen[route.user_index]

    walk({}, 0)
    # a vertex is swept when some user's labels read it: it or a user
    # downstream of it, which is what the upstream masks record
    reached = 0
    for u in users:
        reached |= upstream[u]
    diagnostics = {
        "edges": len(graph.weight),
        "swept_vertices": reached.bit_count(),
        "orders_total": math.factorial(k),
        "orders_feasible": orders_feasible,
        "sweeps": sweeps,
    }
    if best is None:
        diagnostics["reason"] = "every user order left some user unreachable"
        return RoutingSolution(False, "sequential", (), (), None, diagnostics)
    routes, powers, diagnostics["best_order"] = best
    solution = RoutingSolution(True, "sequential", routes, powers, min(powers), diagnostics)
    audit_solution(scene, solution)
    return solution
