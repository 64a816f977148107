"""Joint route optimizers and benchmark strategies.

The proposed pipeline chains candidate search (the cheapest paths per
user from one top-Q label sweep of the routing DAG, whose paths are all
loopless), compatibility graph assembly and min-max clique selection,
then maps the winning cost back to channel powers.  The
alternatives exist to bound it: a sequential greedy baseline (every
user order, walked as a tree of shared prefixes, with one routing sweep
shared by all lookups that agree on the bans upstream of their user), two
asymptotic benchmarks for small and large surfaces (the same pipeline
on another routing graph), and a brute-force enumeration that is exact
but exponential.  ``solve`` is the one entry point.

Every returned solution has been re-audited against the raw scene
constraints before leaving this module.
"""

from __future__ import annotations

import itertools
import math
import time
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
    Route,
    build_routing_graph,
    enumerate_paths,
    make_route,
    top_routes,
    validate_route,
)
from .scene import Scene

IDENTITY_RTOL = 1e-9
MAX_SEQUENTIAL_USERS = 8
# bound on the product of per-user path counts solve_bruteforce accepts
BRUTEFORCE_CAP = 1_000_000

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
    start: float,
    routes: tuple[Route, ...] = (),
    powers: tuple[float, ...] = (),
) -> RoutingSolution:
    """The audited solution of one solve.

    It carries the winning routes and their powers, or nothing when the
    solver found no feasible selection.
    """
    diagnostics["wall_time_s"] = time.perf_counter() - start
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
    objective match a fresh closed-form evaluation.
    """
    if not solution.feasible:
        if solution.routes or solution.powers or solution.objective is not None:
            raise AuditError("infeasible solution must not carry routes")
        return
    k = scene.num_users
    if len(solution.routes) != k or len(solution.powers) != k:
        raise AuditError(f"expected {k} routes and powers, got {len(solution.routes)}")
    for expect_k, route in enumerate(solution.routes, start=1):
        if route.user_index != expect_k:
            raise AuditError(f"route {expect_k} serves user {route.user_index}")
        validate_route(scene, route)
    for a, b in itertools.combinations(solution.routes, 2):
        va = a.vertices[1:]
        vb = b.vertices[1:]
        if set(va) & set(vb):
            raise AuditError(f"routes of users {a.user_index} and {b.user_index} share a vertex")
        for u in va:
            for v in vb:
                if scene.los_indicator(u, v):
                    raise AuditError(
                        f"vertices {u} and {v} of users {a.user_index} and "
                        f"{b.user_index} are in LoS"
                    )
    fresh = _route_powers(scene, solution.routes)
    for got, want in zip(solution.powers, fresh):
        if not math.isclose(got, want, rel_tol=1e-12):
            raise AuditError("reported powers do not match the channel model")
    if not math.isclose(solution.objective, min(fresh), rel_tol=1e-12):
        raise AuditError("objective is not the worst-user power")


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
    scene's actual element count.
    """
    _require_users(scene)
    algorithm = params.algorithm
    start = time.perf_counter()
    candidates = top_routes(_PIPELINE_GRAPHS[algorithm](scene), params.paths)
    diagnostics = {
        "candidate_counts": tuple(len(c) for c in candidates.values()),
        "compat_edges": 0,
        "cliques_explored": 0,
        "cliques_pruned": 0,
    }
    try:
        path_graph = build_path_graph(candidates, scene)
    except NoCandidateRoutesError as exc:
        diagnostics["reason"] = str(exc)
        diagnostics["infeasible_user"] = exc.user_index
        return _finish(scene, algorithm, diagnostics, start)
    diagnostics["compat_edges"] = sum(m.bit_count() for m in path_graph.adj_masks) // 2
    search = CliqueSearch(path_graph)
    clique = search.run()
    diagnostics["cliques_explored"] = search.explored
    diagnostics["cliques_pruned"] = search.pruned
    if clique is None:
        diagnostics["reason"] = "no compatible route combination"
        return _finish(scene, algorithm, diagnostics, start)
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
    return _finish(scene, algorithm, diagnostics, start, routes, powers)


def solve_sequential(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Greedy per-user routing over every user order, best order kept.

    Each user in turn gets its shortest route in the remaining graph,
    then the route's closed neighbourhood (its vertices and all their
    LoS neighbors, bar the BS) is dropped so later users cannot
    conflict.  Orders where some user becomes unreachable fail; with K
    users all K! orders are tried, in lexicographic order, and the first
    best one is kept.

    The orders are walked as a tree of prefixes, so a shared prefix is
    routed once, and a user left without a route under a prefix fails
    every order below it at once.  A user's route depends only on the
    banned vertices upstream of it (``LosGraph.upstream_masks``), so
    lookups that agree there share one sweep of the routing graph, and
    each sweep settles every user.  ``diagnostics["sweeps"]`` counts
    the sweeps.
    """
    _require_users(scene)
    k = scene.num_users
    if k > MAX_SEQUENTIAL_USERS:
        raise SolverError(
            f"sequential solver supports at most {MAX_SEQUENTIAL_USERS} users, got {k}"
        )
    start = time.perf_counter()
    graph = build_routing_graph(scene)
    users = range(1, k + 1)
    upstream = {u: graph.upstream_masks[graph.num_irs + u] for u in users}
    # (user, banned bits upstream of it) -> its shortest route avoiding them
    shortest: dict[tuple[int, int], list[Route]] = {}
    # route vertices -> its closed mask minus the BS bit; its power
    bans: dict[tuple[int, ...], int] = {}
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
                # only routes of feasible orders are evaluated
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
                # bans only grow along an order, so u stays unreachable
                return
            steps.append(found[0])
        for route in steps:
            if route.vertices not in bans:
                bans[route.vertices] = route_masks(route, scene).closed & ~1
            chosen[route.user_index] = route
            walk(chosen, banned | bans[route.vertices])
            del chosen[route.user_index]

    walk({}, 0)
    diagnostics = {
        "orders_total": math.factorial(k),
        "orders_feasible": orders_feasible,
        "sweeps": sweeps,
    }
    if best is None:
        diagnostics["reason"] = "every user order left some user unreachable"
        return _finish(scene, "sequential", diagnostics, start)
    routes, powers, diagnostics["best_order"] = best
    return _finish(scene, "sequential", diagnostics, start, routes, powers)


def solve_bruteforce(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Exact max-min selection by full simple-path enumeration.

    Refuses scenes where the product of per-user path counts exceeds
    ``BRUTEFORCE_CAP``.
    """
    _require_users(scene)
    start = time.perf_counter()
    k = scene.num_users
    graph = build_routing_graph(scene)
    per_user: list[list[Route]] = []
    product = 1
    for u in range(1, k + 1):
        paths = enumerate_paths(graph, scene.num_irs + u)
        product *= len(paths)
        per_user.append([make_route(graph, p) for p in paths])
    if product > BRUTEFORCE_CAP:
        raise SolverError(f"path count product {product} exceeds cap {BRUTEFORCE_CAP}")
    powers = [
        [closed_form_power(scene, r) for r in routes] for routes in per_user
    ]
    masks = [[route_masks(r, scene) for r in routes] for routes in per_user]
    compat: dict[tuple[int, int, int, int], bool] = {}
    for ua in range(k):
        for ub in range(ua + 1, k):
            for ia, ma in enumerate(masks[ua]):
                for ib, mb in enumerate(masks[ub]):
                    compat[ua, ia, ub, ib] = compatible(ma, mb)
    best: tuple[float, tuple[int, ...]] | None = None
    checked = 0
    for combo in itertools.product(*(range(len(p)) for p in per_user)):
        checked += 1
        ok = all(
            compat[ua, combo[ua], ub, combo[ub]]
            for ua in range(k)
            for ub in range(ua + 1, k)
        )
        if not ok:
            continue
        objective = min(powers[u][combo[u]] for u in range(k))
        if best is None or objective > best[0]:
            best = (objective, combo)
    diagnostics = {
        "path_counts": tuple(len(p) for p in per_user),
        "combinations_checked": checked,
    }
    if best is None:
        diagnostics["reason"] = "no compatible route combination"
        return _finish(scene, "brute_force", diagnostics, start)
    _, combo = best
    routes = tuple(per_user[u][combo[u]] for u in range(k))
    chosen_powers = tuple(powers[u][combo[u]] for u in range(k))
    return _finish(scene, "brute_force", diagnostics, start, routes, chosen_powers)


def solve(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Dispatch on ``params.algorithm``."""
    if params.algorithm == "sequential":
        return solve_sequential(scene, params)
    if params.algorithm == "brute_force":
        return solve_bruteforce(scene, params)
    return _clique_pipeline(scene, params)
