"""Joint route optimizers and benchmark strategies.

The proposed pipeline chains candidate search (the cheapest paths per
user from one top-Q label sweep of the routing DAG, whose paths are all
loopless), compatibility graph assembly and min-max clique selection,
then maps the winning cost back to channel powers.  The
alternatives exist to bound it: a sequential greedy baseline (every
user order, searched by one cached walk over the users left and the
bans so far, and every vertex's answer under the bans upstream of it
settled once per solve, in one memo that all its routing sweeps read
and fill), two
asymptotic benchmarks for small and large surfaces (the same pipeline
on another routing graph), and a brute-force enumeration that is exact
but exponential.  ``solve`` is the one entry point.

Every returned solution has been re-audited against the raw scene
constraints before leaving this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .channel import closed_form_power
from .clique import (
    CliqueSearch,
    NoCandidateRoutesError,
    build_path_graph,
    compatible,
    route_masks,
)
from .graph import (
    LosGraph,
    Route,
    build_routing_graph,
    enumerate_paths,
    route_from_sequence,
    top_routes,
    validate_route,
)
from .scene import Scene

IDENTITY_RTOL = 1e-9
MAX_SEQUENTIAL_USERS = 8
# bound on the product of per-user path counts solve_bruteforce accepts
BRUTEFORCE_CAP = 1_000_000

# a feasible completion of a sequential state: its worst power, its
# users in order and their routes
_Record = tuple[float, tuple[int, ...], tuple[Route, ...]]

ALGORITHMS = ("proposed", "sequential", "min_pathloss", "max_cpb", "brute_force")


class SolverError(ValueError):
    """Raised for invalid solver configurations or internal inconsistency."""


class AuditError(SolverError):
    """A solution violated the scene constraints on re-checking."""


@dataclass(frozen=True)
class SolveParams:
    """Knobs shared by all solvers.

    ``paths`` is the per-user candidate budget of the clique pipeline.
    """

    paths: int = 20
    algorithm: str = "proposed"

    def __post_init__(self) -> None:
        if not isinstance(self.paths, int) or isinstance(self.paths, bool):
            raise SolverError(f"paths must be an integer, got {self.paths!r}")
        if self.paths < 1:
            raise SolverError("paths must be positive")
        if self.algorithm not in ALGORITHMS:
            raise SolverError(
                f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}"
            )


@dataclass(frozen=True)
class RoutingSolution:
    """Outcome of one solve: routes and powers by user, worst-user power.

    Infeasible solutions carry no routes at all; ``objective`` is None
    then and the diagnostics say why.
    """

    feasible: bool
    algorithm: str
    routes: tuple[Route, ...]
    powers: tuple[float, ...]
    objective: float | None
    diagnostics: dict = field(default_factory=dict)


def _require_users(scene: Scene) -> None:
    if scene.num_users < 1:
        raise SolverError("no users in scene")


def _route_powers(scene: Scene, routes: tuple[Route, ...]) -> tuple[float, ...]:
    return tuple(closed_form_power(scene, r) for r in routes)


def _finish(
    scene: Scene,
    algorithm: str,
    diagnostics: dict,
    routes: tuple[Route, ...] = (),
    powers: tuple[float, ...] = (),
) -> RoutingSolution:
    """The audited solution of one solve.

    It carries the winning routes and their powers, or nothing when the
    solver found no feasible selection.
    """
    solution = RoutingSolution(
        feasible=bool(routes),
        algorithm=algorithm,
        routes=routes,
        powers=powers,
        objective=min(powers) if routes else None,
        diagnostics=diagnostics,
    )
    audit_solution(scene, solution)
    return solution


def audit_solution(scene: Scene, solution: RoutingSolution) -> None:
    """Re-check a solution against the raw scene, raising AuditError.

    Verifies route validity per user, vertex disjointness and LoS
    separation across routes, and that the reported powers and
    objective match a fresh closed-form evaluation.  Separation takes
    one union of ``Scene.los_masks`` rows per route.  This is the one
    place a solve validates its routes (``validate_route``), once
    each; ``closed_form_power`` prices a route without checking it.
    """
    if not solution.feasible:
        if solution.routes or solution.powers or solution.objective is not None:
            raise AuditError("infeasible solution must not carry routes")
        return
    k = scene.num_users
    if len(solution.routes) != k or len(solution.powers) != k:
        raise AuditError(f"expected {k} routes and powers, got {len(solution.routes)}")
    # the route holding each vertex after the BS
    owner: dict[int, Route] = {}
    for expect_k, route in enumerate(solution.routes, start=1):
        if route.user_index != expect_k:
            raise AuditError(f"route {expect_k} serves user {route.user_index}")
        validate_route(scene, route)
        for v in route.vertices[1:]:
            a = owner.setdefault(v, route)
            if a is not route:
                raise AuditError(f"routes of users {a.user_index} and {expect_k} share a vertex")
    held = sum(1 << v for v in owner)
    for route in solution.routes:
        own = near = 0
        for u in route.vertices[1:]:
            own |= 1 << u
            near |= scene.los_masks[u]
        # the vertices of other routes in LoS of this one; the lowest is named
        crossed = near & (held ^ own)
        if crossed:
            v = (crossed & -crossed).bit_length() - 1
            u = next(u for u in route.vertices[1:] if scene.los_indicator(u, v))
            b = owner[v].user_index
            raise AuditError(f"vertices {u} and {v} of users {route.user_index} and {b} are in LoS")
    fresh = _route_powers(scene, solution.routes)
    for got, want in zip(solution.powers, fresh):
        if not math.isclose(got, want, rel_tol=1e-12):
            raise AuditError("reported powers do not match the channel model")
    if not math.isclose(solution.objective, min(fresh), rel_tol=1e-12):
        raise AuditError("objective is not the worst-user power")


def _sweep_counts(graph: LosGraph) -> dict:
    """The routing graph's edges and the vertices one sweep visits."""
    topology = graph.topology
    return {"edges": len(topology.edges), "swept_vertices": len(topology.live_order)}


# the routing graph each clique-pipeline algorithm ranks candidates on
_PIPELINE_GRAPHS = {
    "proposed": build_routing_graph,
    # small-M limit: single-element weights, per-hop loss dominates
    "min_pathloss": lambda scene: build_routing_graph(scene.with_elements(1)),
    # large-M limit: hop count first, distance second
    "max_cpb": lambda scene: build_routing_graph(scene, hop_priority=True),
}


def _clique_pipeline(scene: Scene, params: SolveParams) -> RoutingSolution:
    """Candidate search, compatibility graph and min-max clique selection.

    ``proposed`` and the two asymptotic benchmarks differ only in the
    graph they rank candidates on; reported powers always use the
    scene's actual element count.  ``infeasible_user`` names what
    blocks an infeasible answer: the first user with no path from the
    BS (``upstream_masks``), found before any candidate search, else
    the first user whose partition the clique search's arc-consistency
    pass empties.  It is absent when only the search finds no clique.
    """
    _require_users(scene)
    algorithm = params.algorithm
    graph = _PIPELINE_GRAPHS[algorithm](scene)
    diagnostics = {
        **_sweep_counts(graph),
        "compat_edges": 0,
        "cliques_explored": 0,
        "cliques_pruned": 0,
    }
    upstream = graph.topology.upstream_masks
    for user in range(1, scene.num_users + 1):
        if not upstream[scene.num_irs + user] & 1:  # no path from the BS
            diagnostics["reason"] = str(NoCandidateRoutesError(user))
            diagnostics["infeasible_user"] = user
            return _finish(scene, algorithm, diagnostics)
    candidates = top_routes(graph, params.paths)
    diagnostics["candidate_counts"] = tuple(len(c) for c in candidates.values())
    path_graph = build_path_graph(candidates, scene)
    diagnostics["compat_edges"] = sum(m.bit_count() for m in path_graph.adj_masks) // 2
    search = CliqueSearch(path_graph)
    clique = search.run()
    parts = path_graph.part_masks
    diagnostics["candidates_consistent"] = tuple((search.alive & m).bit_count() for m in parts)
    diagnostics["cliques_explored"] = search.explored
    diagnostics["cliques_pruned"] = search.pruned
    if clique is None:
        diagnostics["reason"] = "no compatible route combination"
        if search.blocked is not None:
            # top_routes keys users 1..K in order, one partition each
            diagnostics["infeasible_user"] = search.blocked + 1
        return _finish(scene, algorithm, diagnostics)
    routes = tuple(path_graph.routes[v] for v in clique.vertices)
    powers = _route_powers(scene, routes)
    if algorithm == "proposed":
        # the winning clique's worst cost must map back onto the worst
        # power through the log-domain relation
        implied = (
            scene.bs_antennas
            / scene.elements**2
            * math.exp(-2 * max(r.cost_vec[0] for r in routes))
        )
        objective = min(powers)
        if not math.isclose(objective, implied, rel_tol=IDENTITY_RTOL):
            raise SolverError(
                f"cost/power mismatch: objective {objective}, implied {implied}"
            )
    return _finish(scene, algorithm, diagnostics, routes, powers)


def solve_sequential(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Greedy per-user routing over every user order, best order kept.

    Each user in turn gets its shortest route in the remaining graph,
    then the route's closed neighbourhood (its vertices and all their
    LoS neighbors, bar the BS) is dropped so later users cannot
    conflict.  Orders where some user becomes unreachable fail; with K
    users all K! orders are tried, in lexicographic order, and the first
    best one is kept.

    The orders are searched by one recursion over states, each the
    set of users still to route and the bans so far, which fix every
    route and ban below.  ``functools.cache`` solves each state once;
    ``diagnostics["order_states"]`` counts the states solved, finished
    and failed ones included.  A user left without a route fails every
    order below its state at once.  A state's answer is its records:
    the completions, in lexicographic order, whose worst power beats
    every earlier one, and the count of feasible completions.  The
    first best order with a prefix whose worst power is p is the first
    record reaching p, else the last.  A vertex's answer depends only
    on the bans upstream of it (``RoutingTopology.upstream_masks``), so
    one memo per solve, keyed by (vertex, bans upstream of it), holds
    every answer any sweep has settled (``top_routes``' ``settled``): a
    lookup reads its user's route there, a miss runs one sweep of the
    routing graph, and that sweep settles every user while reading the
    vertices settled before.  ``diagnostics["sweeps"]`` counts the
    sweeps.
    """
    _require_users(scene)
    k = scene.num_users
    if k > MAX_SEQUENTIAL_USERS:
        raise SolverError(
            f"sequential solver supports at most {MAX_SEQUENTIAL_USERS} users, got {k}"
        )
    graph = build_routing_graph(scene)
    users = range(1, k + 1)
    upstream = graph.topology.upstream_masks
    # (vertex, banned bits upstream of it) -> what every sweep of this
    # solve settled there: a surface's labels, a user's shortest route
    settled: dict[tuple[int, int], list] = {}
    # route vertices -> its closed mask minus the BS bit; its power
    bans: dict[tuple[int, ...], int] = {}
    power_of: dict[tuple[int, ...], float] = {}
    sweeps = 0

    @functools.cache
    def walk(remaining: int, banned: int) -> tuple[list[_Record], int]:
        """Records and feasible count of the orders of ``remaining``
        (users set bit u - 1) after the bans ``banned``."""
        nonlocal sweeps
        if not remaining:
            # one completion, the empty one
            return [(math.inf, (), ())], 1
        steps = []
        for u in users:
            if not remaining >> (u - 1) & 1:
                continue
            v = scene.num_irs + u
            found = settled.get((v, banned & upstream[v]))
            if found is None:
                sweeps += 1
                found = top_routes(graph, 1, banned, settled)[u]
            if not found:
                # bans only grow along an order, so u stays unreachable
                return [], 0
            steps.append(found[0])
        records: list[_Record] = []
        count = 0
        for route in steps:
            if route.vertices not in bans:
                bans[route.vertices] = route_masks(route, scene).closed & ~1
            u = route.user_index
            below, n = walk(remaining & ~(1 << (u - 1)), banned | bans[route.vertices])
            if not n:
                continue
            count += n
            # only routes of feasible orders are evaluated
            if route.vertices not in power_of:
                power_of[route.vertices] = closed_form_power(scene, route)
            p = power_of[route.vertices]
            for tail, order, routes in below:
                worst = min(p, tail)
                if not records or worst > records[-1][0]:
                    records.append((worst, (u, *order), (route, *routes)))
        return records, count

    records, orders_feasible = walk((1 << k) - 1, 0)
    diagnostics = {
        **_sweep_counts(graph),
        "orders_total": math.factorial(k),
        "orders_feasible": orders_feasible,
        "sweeps": sweeps,
        "order_states": walk.cache_info().currsize,
    }
    if not records:
        diagnostics["reason"] = "every user order left some user unreachable"
        return _finish(scene, "sequential", diagnostics)
    _, diagnostics["best_order"], chosen = records[-1]
    routes = tuple(sorted(chosen, key=lambda r: r.user_index))
    powers = tuple(power_of[r.vertices] for r in routes)
    return _finish(scene, "sequential", diagnostics, routes, powers)


def solve_bruteforce(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Exact max-min selection by full simple-path enumeration.

    Paths come from the routing graph, but each is checked and priced
    on the raw scene (``route_from_sequence``), not on the graph's cost
    table, so the result stays an independent oracle.  The paths are
    counted first, per vertex in one pass along the edges the walk
    follows, and a scene whose product of per-user path counts exceeds
    ``BRUTEFORCE_CAP`` is refused before a single path is listed.
    """
    _require_users(scene)
    k = scene.num_users
    graph = build_routing_graph(scene)
    topology = graph.topology
    users = topology.user_vertices
    # per vertex, its paths from the BS; the walk never passes a user
    counts = [1] + [0] * (topology.num_vertices - 1)
    for v in topology.topo_order:
        if v not in users:
            for j in topology.succ.get(v, ()):
                counts[j] += counts[v]
    product = math.prod(counts[v] for v in users)
    if product > BRUTEFORCE_CAP:
        raise SolverError(f"path count product {product} exceeds cap {BRUTEFORCE_CAP}")
    per_user = [
        [route_from_sequence(scene, u, p[1:-1]) for p in user_paths]
        for u, user_paths in enumerate_paths(graph).items()
    ]
    powers = [_route_powers(scene, routes) for routes in per_user]
    masks = [[route_masks(r, scene) for r in routes] for routes in per_user]
    best: tuple[float, tuple[int, ...]] | None = None
    for combo in itertools.product(*(range(len(p)) for p in per_user)):
        ok = all(
            compatible(masks[ua][combo[ua]], masks[ub][combo[ub]])
            for ua, ub in itertools.combinations(range(k), 2)
        )
        if not ok:
            continue
        objective = min(powers[u][combo[u]] for u in range(k))
        if best is None or objective > best[0]:
            best = (objective, combo)
    diagnostics = {
        "path_counts": tuple(len(p) for p in per_user),
        "combinations_checked": product,
    }
    if best is None:
        diagnostics["reason"] = "no compatible route combination"
        return _finish(scene, "brute_force", diagnostics)
    _, combo = best
    routes = tuple(per_user[u][combo[u]] for u in range(k))
    chosen_powers = tuple(powers[u][combo[u]] for u in range(k))
    return _finish(scene, "brute_force", diagnostics, routes, chosen_powers)


def solve(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Dispatch on ``params.algorithm``."""
    if params.algorithm == "sequential":
        return solve_sequential(scene, params)
    if params.algorithm == "brute_force":
        return solve_bruteforce(scene, params)
    return _clique_pipeline(scene, params)
