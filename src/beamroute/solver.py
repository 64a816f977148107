"""Joint route optimizers and benchmark strategies.

The proposed pipeline chains candidate search (the cheapest paths per
user from one top-Q label sweep of the routing DAG, whose paths are all
loopless), compatibility graph assembly and min-max clique selection,
then maps the winning cost back to channel powers.  The
alternatives exist to bound it: a sequential greedy baseline, two
asymptotic benchmarks for small and large surfaces, and a brute-force
enumeration that is exact but exponential.

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
    LosGraph,
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
DEFAULT_BRUTEFORCE_CAP = 1_000_000

ALGORITHMS = ("proposed", "sequential", "min_pathloss", "max_cpb", "brute_force")


class SolverError(ValueError):
    """Raised for invalid solver configurations or internal inconsistency."""


class AuditError(SolverError):
    """A solution violated the scene constraints on re-checking."""


@dataclass(frozen=True)
class SolveParams:
    """Knobs shared by all solvers.

    ``paths`` is the per-user candidate budget of the clique pipeline
    and ``bruteforce_cap`` bounds the product of per-user path counts
    the exhaustive solver will accept.
    """

    paths: int = 20
    algorithm: str = "proposed"
    bruteforce_cap: int = DEFAULT_BRUTEFORCE_CAP

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


def _clique_pipeline(
    scene: Scene,
    graph: LosGraph,
    params: SolveParams,
    algorithm: str,
    check_identity: bool,
) -> RoutingSolution:
    """Shared candidate/clique stage behind proposed and the benchmarks."""
    start = time.perf_counter()
    candidates = top_routes(graph, params.paths)
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
    if check_identity:
        # the winning clique's worst cost must map back onto the worst
        # power through the log-domain relation
        implied = (
            scene.bs_antennas
            / scene.elements**2
            * math.exp(-2 * max(r.cost for r in routes))
        )
        objective = min(powers)
        if not math.isclose(objective, implied, rel_tol=IDENTITY_RTOL):
            raise SolverError(
                f"cost/power mismatch: objective {objective}, implied {implied}"
            )
    return _finish(scene, algorithm, diagnostics, start, routes, powers)


def solve_proposed(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Candidate search, compatibility graph and min-max clique selection."""
    _require_users(scene)
    graph = build_routing_graph(scene)
    return _clique_pipeline(scene, graph, params, "proposed", check_identity=True)


def solve_limit_benchmark(scene: Scene, params: SolveParams) -> RoutingSolution:
    """Asymptotic benchmarks for very small and very large surfaces.

    ``params.algorithm`` picks the benchmark.  ``min_pathloss`` selects
    routes with single-element weights, the small-M limit where per-hop
    loss dominates.  ``max_cpb`` selects with hop count first and
    distance second, the large-M limit where every extra reflection
    pays off.  Reported powers always use the scene's actual element
    count.
    """
    _require_users(scene)
    mode = params.algorithm
    if mode == "min_pathloss":
        graph = build_routing_graph(scene, elements=1)
    elif mode == "max_cpb":
        graph = build_routing_graph(scene, hop_priority=True)
    else:
        raise SolverError(f"{mode!r} is not a limit benchmark algorithm")
    return _clique_pipeline(scene, graph, params, mode, check_identity=False)


def solve_sequential(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Greedy per-user routing over every user order, best order kept.

    Each user in turn gets its shortest route in the remaining graph,
    then the route's closed neighbourhood (its vertices and all their
    LoS neighbors, bar the BS) is dropped so later users cannot
    conflict.  Orders where some user becomes unreachable fail; with K
    users all K! orders are tried.  Orders that reach the same banned
    set share one sweep of the routing graph.
    """
    _require_users(scene)
    k = scene.num_users
    if k > MAX_SEQUENTIAL_USERS:
        raise SolverError(
            f"sequential solver supports at most {MAX_SEQUENTIAL_USERS} users, got {k}"
        )
    start = time.perf_counter()
    graph = build_routing_graph(scene)
    # banned node mask -> every user's shortest route avoiding it
    sweeps: dict[int, dict[int, list[Route]]] = {}
    # route vertices -> its closed mask minus the BS bit; its power
    bans: dict[tuple[int, ...], int] = {}
    power_of: dict[tuple[int, ...], float] = {}
    best: tuple[tuple[Route, ...], tuple[float, ...], tuple[int, ...]] | None = None
    orders_feasible = 0
    for order in itertools.permutations(range(1, k + 1)):
        banned = 0
        chosen: dict[int, Route] = {}
        for u in order:
            if banned not in sweeps:
                sweeps[banned] = top_routes(graph, 1, banned)
            found = sweeps[banned][u]
            if not found:
                break
            route = chosen[u] = found[0]
            if route.vertices not in bans:
                bans[route.vertices] = route_masks(route, scene).closed & ~1
            banned |= bans[route.vertices]
        if len(chosen) != k:
            continue
        orders_feasible += 1
        routes = tuple(chosen[u] for u in range(1, k + 1))
        for r in routes:
            # only routes of feasible orders are evaluated, as without the memo
            if r.vertices not in power_of:
                power_of[r.vertices] = closed_form_power(scene, r)
        powers = tuple(power_of[r.vertices] for r in routes)
        if best is None or min(powers) > min(best[1]):
            best = (routes, powers, order)
    diagnostics = {
        "orders_total": math.factorial(k),
        "orders_feasible": orders_feasible,
    }
    if best is None:
        diagnostics["reason"] = "every user order left some user unreachable"
        return _finish(scene, "sequential", diagnostics, start)
    routes, powers, diagnostics["best_order"] = best
    return _finish(scene, "sequential", diagnostics, start, routes, powers)


def solve_bruteforce(scene: Scene, params: SolveParams = SolveParams()) -> RoutingSolution:
    """Exact max-min selection by full simple-path enumeration.

    Refuses scenes where the product of per-user path counts exceeds
    the configured cap.
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
    if product > params.bruteforce_cap:
        raise SolverError(
            f"path count product {product} exceeds cap {params.bruteforce_cap}"
        )
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
    if params.algorithm == "proposed":
        return solve_proposed(scene, params)
    if params.algorithm == "sequential":
        return solve_sequential(scene, params)
    if params.algorithm in ("min_pathloss", "max_cpb"):
        return solve_limit_benchmark(scene, params)
    return solve_bruteforce(scene, params)
