"""Solver tests: route selection, benchmarks, audits, dispatch.

The oracle here re-derives the exact max-min selection straight from
scene geometry: its own admissible-path enumeration, its own pairwise
compatibility check, its own power formula.  Solver outputs must match
it wherever the candidate budget covers every path.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np
import pytest

from beamroute import solver
from beamroute.cli import ExperimentConfig, run_experiment
from beamroute.channel import closed_form_power
from beamroute.graph import (
    build_routing_graph,
    enumerate_paths,
    route_from_sequence,
    top_routes,
    yen_k_shortest,
)
from beamroute.scene import Scene, load_scene, load_scene_file
from beamroute.solver import (
    AuditError,
    RoutingSolution,
    SolveParams,
    SolverError,
    audit_solution,
    solve,
    solve_bruteforce,
    solve_sequential,
)

from scenefab import (
    adversarial_scene,
    bench_scenes,
    chain_scene,
    corridor_scene,
    corridors_k8_document,
    isolated_user_row_document,
    los_rows,
    make_scene,
    one_hop_users_document,
    star_scene,
)
from sequential_reference import tree_sequential
from test_clique import naive_last_hop, naive_rounds, random_override_scene, raw_compatible

BETA = (0.06 / (4 * math.pi)) ** 2
DEMO = os.path.join(os.path.dirname(__file__), "..", "scenes", "demo.json")


# ---------------------------------------------------------------- oracle

def oracle_routes(scene: Scene, k: int) -> list[tuple[int, ...]]:
    """All admissible vertex paths from the BS to user k.

    Hops: BS to any LoS surface, surface to a strictly farther LoS
    surface, surface to the user.  Direct BS-to-user never counts.
    """
    target = scene.user_vertex(k)
    out: list[tuple[int, ...]] = []

    def walk(path: tuple[int, ...]) -> None:
        v = path[-1]
        if v != 0 and scene.los_indicator(v, target):
            out.append((*path, target))
        for j in range(1, scene.num_irs + 1):
            if j in path or not scene.los_indicator(v, j):
                continue
            if v != 0 and scene.distance(j, 0) <= scene.distance(v, 0):
                continue
            walk((*path, j))

    walk((0,))
    return out


def oracle_power(scene: Scene, seq: tuple[int, ...]) -> float:
    h = len(seq) - 2
    prod = 1.0
    for a, b in zip(seq[:-1], seq[1:]):
        prod *= scene.distance(a, b) ** 2
    m = scene.elements
    return scene.bs_antennas * m ** (2 * h) * scene.ref_path_gain ** (h + 1) / prod


def oracle_compatible(scene: Scene, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    va, vb = set(a[1:]), set(b[1:])
    if va & vb:
        return False
    return not any(scene.los_indicator(u, v) for u in va for v in vb)


def oracle_maxmin(scene: Scene) -> float | None:
    """Exact max-min objective by full enumeration, None if infeasible."""
    per_user = [oracle_routes(scene, k) for k in range(1, scene.num_users + 1)]
    best = None
    for combo in itertools.product(*per_user):
        if all(
            oracle_compatible(scene, combo[i], combo[j])
            for i in range(len(combo))
            for j in range(i + 1, len(combo))
        ):
            obj = min(oracle_power(scene, s) for s in combo)
            if best is None or obj > best:
                best = obj
    return best


def random_scene(rng) -> Scene:
    """Two users, random LoS topology over a jittered lattice.

    Visibility comes from random override bits, not distances: under
    the pure distance rule two users almost never get separated
    corridors, so random layouts would only ever exercise the
    infeasible branch.  Lattice spacing keeps every pair far-field.
    """
    num_irs = int(rng.integers(5, 8))
    n = num_irs + 3
    cells = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    picks = rng.permutation(len(cells))[: n - 1]
    pts = [np.zeros(3)]
    for c in picks:
        i, j = cells[c]
        pts.append(
            np.array(
                [
                    5.0 * i + rng.uniform(-1, 1),
                    5.0 * j + rng.uniform(-1, 1),
                    rng.uniform(0, 2.0),
                ]
            )
        )
    los = np.zeros((n, n), dtype=int)
    users = (n - 2, n - 1)
    for a in range(n):
        for b in range(a + 1, n):
            if a in users and b in users:
                p = 0.05
            elif a == 0 and b in users:
                p = 0.2  # exercises the no-direct-link rule
            elif a in users or b in users:
                p = 0.45
            elif a == 0:
                p = 0.6
            else:
                p = 0.45
            if rng.random() < p:
                los[a, b] = los[b, a] = 1
    return make_scene(
        pts, num_irs, 2, los_override=los, bs_antennas=4, elements=4
    )


def sector_scene(rng, num_users: int, per_sector: int = 5) -> Scene:
    """One angular sector per user: a radial line of surfaces, then the user.

    LoS bits are likelier inside a sector (0.5) than across (0.03), and
    every surface sees the BS with probability 0.6, so some user orders
    succeed and others strand a user.
    """
    pts = [[0.0, 0.0, 0.0]]
    sector = [-1]
    for u in range(num_users):
        for r in range(1, per_sector + 1):
            a = 2 * math.pi * (u + rng.uniform(0.3, 0.7)) / num_users
            pts.append([6.0 * r * math.cos(a), 6.0 * r * math.sin(a), 0.0])
            sector.append(u)
    far = 6.0 * (per_sector + 1)
    for u in range(num_users):
        a = 2 * math.pi * (u + 0.5) / num_users
        pts.append([far * math.cos(a), far * math.sin(a), 0.0])
        sector.append(u)
    n = len(pts)
    num_irs = num_users * per_sector
    side = np.array(sector)
    prob = np.where(side[:, None] == side[None, :], 0.5, 0.03)
    prob[0, 1 : 1 + num_irs] = 0.6
    prob[0, 1 + num_irs :] = prob[1 + num_irs :, 1 + num_irs :] = 0.0
    los = np.triu(rng.random((n, n)) < prob, 1)
    return make_scene(pts, num_irs, num_users, los_override=(los | los.T).astype(int))


def easy_two_corridor() -> Scene:
    positions = [
        (0.0, 4.0, 0.0),
        (4.0, 0.0, 0.0), (9.0, 0.0, 0.0),
        (4.0, 8.0, 0.0), (9.0, 8.0, 0.0),
        (14.0, 0.0, 0.0), (14.0, 8.0, 0.0),
    ]
    return make_scene(positions, 4, 2, bs_antennas=4, elements=4)


# ------------------------------------------------------- proposed solver

def test_corridor_route_flips_with_elements():
    low = solve(corridor_scene(bs_antennas=4).with_elements(100))
    high = solve(corridor_scene(bs_antennas=4).with_elements(400))
    assert low.routes[0].vertices == (0, 4, 5)
    assert high.routes[0].vertices == (0, 1, 2, 3, 5)


def test_corridor_power_value():
    sol = solve(corridor_scene(bs_antennas=4).with_elements(400))
    want = 4 * 400**6 * BETA**4 / 3.2**8
    assert sol.objective == pytest.approx(want, rel=1e-12)
    assert sol.powers == (sol.objective,)


def test_proposed_orders_routes_by_user():
    sol = solve(easy_two_corridor())
    assert sol.feasible
    assert [r.user_index for r in sol.routes] == [1, 2]
    assert sol.objective == pytest.approx(min(sol.powers), rel=1e-15)


def test_proposed_diagnostics():
    sol = solve(easy_two_corridor())
    d = sol.diagnostics
    assert d["candidate_counts"] == (1, 1)
    assert d["cliques_explored"] >= 2
    # counts only: a second solve reports the same diagnostics, and
    # wall time is the CLI's, on request
    assert "wall_time_s" not in d
    assert d == solve(easy_two_corridor()).diagnostics
    assert sol.algorithm == "proposed"


def test_clique_diagnostics_count_edges_and_cuts():
    # only one candidate pair coexists; user 1's cheaper route leaves
    # user 2 nothing, so the arc-consistency pass drops it and the
    # search walks the one pair left
    scene = adversarial_scene(bs_antennas=4, elements=4)
    for sol in (
        solve(scene),
        solve(scene, SolveParams(algorithm="min_pathloss")),
        solve(scene, SolveParams(algorithm="max_cpb")),
    ):
        d = sol.diagnostics
        assert d["candidate_counts"] == (2, 5)
        assert d["candidates_consistent"] == (1, 1)
        assert d["compat_edges"] == 1
        assert d["cliques_explored"] == 2
        assert d["cliques_pruned"] == 0
    d = solve(easy_two_corridor()).diagnostics
    assert (d["compat_edges"], d["cliques_explored"], d["cliques_pruned"]) == (1, 2, 0)


def test_compat_edges_count_raw_compatible_pairs():
    rng = np.random.default_rng(13)
    pruned = 0
    for _ in range(30):
        scene = random_scene(rng)
        graph = build_routing_graph(scene)
        cands = [yen_k_shortest(graph, scene.user_vertex(k), 20) for k in (1, 2)]
        sol = solve(scene)
        d = sol.diagnostics
        want = sum(
            oracle_compatible(scene, a.vertices, b.vertices)
            for a in cands[0]
            for b in cands[1]
        )
        assert d["compat_edges"] == (want if all(cands) else 0)
        again = solve(scene).diagnostics
        assert again["cliques_explored"] == d["cliques_explored"]
        assert again["cliques_pruned"] == d["cliques_pruned"]
        pruned += d["cliques_pruned"]
    # seven-user benchmark scenes, on which the bound still cuts after
    # the arc-consistency pass
    gen = bench_scenes()
    for seed in (7, 353):
        scene = load_scene(gen.corridors_document(seed))
        cands = top_routes(build_routing_graph(scene), 10)
        d = solve(scene, SolveParams(paths=10)).diagnostics
        want = sum(
            oracle_compatible(scene, a.vertices, b.vertices)
            for one, other in itertools.combinations(cands.values(), 2)
            for a in one
            for b in other
        )
        assert d["compat_edges"] == want
        pruned += d["cliques_pruned"]
    assert pruned > 0


def test_proposed_matches_oracle_random():
    rng = np.random.default_rng(11)
    agreements = 0
    for _ in range(40):
        scene = random_scene(rng)
        counts = [len(oracle_routes(scene, k)) for k in (1, 2)]
        if max(counts) > 48:
            continue
        sol = solve(scene, SolveParams(paths=48))
        want = oracle_maxmin(scene)
        if want is None:
            assert not sol.feasible
        else:
            assert sol.feasible
            assert sol.objective == pytest.approx(want, rel=1e-12)
            agreements += 1
    assert agreements >= 12


# ------------------------------------------------------ limit benchmarks

def test_benchmarks_bracket_the_crossover():
    for m in (100, 400):
        scene = corridor_scene(bs_antennas=4).with_elements(m)
        short = solve(scene, SolveParams(algorithm="min_pathloss"))
        dense = solve(scene, SolveParams(algorithm="max_cpb"))
        assert short.routes[0].vertices == (0, 4, 5)
        assert dense.routes[0].vertices == (0, 1, 2, 3, 5)


def test_benchmark_powers_use_scene_elements():
    scene = corridor_scene(bs_antennas=4).with_elements(400)
    short = solve(scene, SolveParams(algorithm="min_pathloss"))
    d = math.sqrt(6.4**2 + 3.5**2)
    want = 4 * 400**2 * BETA**2 / d**4
    assert short.objective == pytest.approx(want, rel=1e-12)


def test_benchmarks_agree_with_proposed_at_extremes():
    low = solve(corridor_scene(bs_antennas=4).with_elements(100))
    high = solve(corridor_scene(bs_antennas=4).with_elements(400))
    short = solve(
        corridor_scene(bs_antennas=4).with_elements(100), SolveParams(algorithm="min_pathloss")
    )
    dense = solve(
        corridor_scene(bs_antennas=4).with_elements(400), SolveParams(algorithm="max_cpb")
    )
    assert short.routes[0].vertices == low.routes[0].vertices
    assert short.objective == pytest.approx(low.objective, rel=1e-12)
    assert dense.routes[0].vertices == high.routes[0].vertices
    assert dense.objective == pytest.approx(high.objective, rel=1e-12)


def test_benchmark_follows_params_algorithm():
    demo = load_scene_file(DEMO)
    for name in ("min_pathloss", "max_cpb"):
        assert solve(demo, SolveParams(algorithm=name)).algorithm == name
    # the two limits pick different routes here, so the label cannot
    # hide a run of the other benchmark
    scene = corridor_scene(bs_antennas=4).with_elements(100)
    dense = solve(scene, SolveParams(algorithm="max_cpb"))
    assert dense.routes[0].vertices == (0, 1, 2, 3, 5)


# ----------------------------------------------------- sequential solver

def test_sequential_fails_where_joint_succeeds():
    scene = adversarial_scene(bs_antennas=4, elements=4)
    joint = solve(scene)
    greedy = solve_sequential(scene)
    assert joint.feasible
    assert {r.vertices for r in joint.routes} == {(0, 2, 5), (0, 4, 6)}
    assert not greedy.feasible
    assert greedy.diagnostics["orders_feasible"] == 0
    assert greedy.diagnostics["orders_total"] == 2


def test_sequential_never_beats_bruteforce():
    rng = np.random.default_rng(23)
    both = 0
    for _ in range(40):
        scene = random_scene(rng)
        greedy = solve_sequential(scene)
        exact = solve_bruteforce(scene)
        if greedy.feasible:
            # any sequential outcome is one of the enumerated options
            assert exact.feasible
            assert greedy.objective <= exact.objective * (1 + 1e-9)
            both += 1
    assert both >= 5


def raw_sequential(scene: Scene, queried: set | None = None):
    """The sequential solver from path enumeration and raw LoS loops.

    Each step takes the cheapest enumerated path that avoids the banned
    set; ``queried`` collects every banned set a step looked up.
    """
    all_paths = enumerate_paths(scene.topology)
    k = scene.num_users
    best = None
    for order in itertools.permutations(range(1, k + 1)):
        banned: set[int] = set()
        chosen = {}
        for u in order:
            if queried is not None:
                queried.add(frozenset(banned))
            paths = [p for p in all_paths[u] if banned.isdisjoint(p)]
            if not paths:
                break
            route = min(
                (route_from_sequence(scene, u, p[1:-1]) for p in paths),
                key=lambda r: (r.cost_vec, r.hops, r.vertices),
            )
            chosen[u] = route
            occupied = set(route.vertices[1:])
            for v in occupied:
                for w in range(1, scene.num_nodes):
                    if w != v and scene.los_indicator(v, w):
                        banned.add(w)
            banned |= occupied
        if len(chosen) != k:
            continue
        routes = tuple(chosen[u] for u in range(1, k + 1))
        objective = min(closed_form_power(scene, r) for r in routes)
        if best is None or objective > best[0]:
            best = (objective, routes, order)
    return best


def test_sequential_matches_raw_banned_loop():
    rng = np.random.default_rng(29)
    scenes = [adversarial_scene(bs_antennas=4, elements=4), easy_two_corridor()]
    scenes += [random_scene(rng) for _ in range(40)]
    scenes += [random_override_scene(rng, 12, 3) for _ in range(20)]
    # four and five users: orders are cut and sweeps shared below depth 2
    scenes += [random_override_scene(rng, 12, int(rng.integers(4, 6))) for _ in range(5)]
    scenes += [sector_scene(rng, int(rng.integers(4, 6))) for _ in range(10)]
    # six users: two feasible, one with a best order other than 1..6,
    # and one whose orders all fail
    six_rng = np.random.default_rng(38)
    scenes += [sector_scene(six_rng, 6) for _ in range(3)]
    feasible = deep = six = 0
    for scene in scenes:
        sol = solve_sequential(scene)
        want = raw_sequential(scene)
        assert sol.feasible == (want is not None)
        if want is None:
            continue
        feasible += 1
        deep += scene.num_users >= 4
        six += scene.num_users == 6
        assert sol.objective == want[0]
        assert sol.routes == want[1]
        assert sol.diagnostics["best_order"] == want[2]
    assert feasible >= 10
    assert deep >= 2
    assert six >= 2


def count_sweeps(monkeypatch):
    """Record the banned mask of every `top_routes` call the solver makes."""
    calls = []

    def counting(graph, count, banned=0, settled=None):
        calls.append(banned)
        return top_routes(graph, count, banned, settled)

    monkeypatch.setattr(solver, "top_routes", counting)
    return calls


def test_one_sweep_per_banned_set(monkeypatch):
    rng = np.random.default_rng(31)
    calls = count_sweeps(monkeypatch)
    scenes = [adversarial_scene(bs_antennas=4, elements=4), easy_two_corridor()]
    scenes += [random_override_scene(rng, 12, 3) for _ in range(20)]
    shared = unreachable = emptied = 0
    for scene in scenes:
        calls.clear()
        queried: set = set()
        raw_sequential(scene, queried)
        masks = {sum(1 << v for v in b) for b in queried}
        sol = solve_sequential(scene)
        # sweeps run only on banned sets some order reaches, each once;
        # a lookup that differs only downstream of its user reuses one
        assert set(calls) <= masks
        assert len(calls) == len(set(calls))
        assert sol.diagnostics["sweeps"] == len(calls)
        shared += len(calls) < len(masks)
        calls.clear()
        solve(scene)
        # one sweep, or none when some user has no path from the BS or
        # the last-hop rounds empty a user
        reachable = all(top_routes(build_routing_graph(scene), 1).values())
        proved = naive_last_hop(scene)[2] is not None
        assert calls == ([] if proved else [0])
        assert proved or reachable
        unreachable += not reachable
        emptied += reachable and proved
    assert shared >= 10
    assert unreachable >= 1
    assert emptied >= 1


def test_unreachable_user_ends_the_run_before_the_sweep(monkeypatch):
    # the reachability check flags exactly the first user whose
    # top_routes list on the algorithm's graph is empty, and no sweep,
    # path graph or search runs then; nor when the last-hop rounds
    # empty a user, which the search's pass over the candidates does too
    rng = np.random.default_rng(41)
    calls = count_sweeps(monkeypatch)
    gen = bench_scenes()
    scenes = [adversarial_scene(bs_antennas=4, elements=4), corridor_scene(), easy_two_corridor()]
    scenes += [chain_scene(rng, int(rng.integers(1, 5))) for _ in range(3)]
    scenes += [load_scene(gen.mesh_document(seed)) for seed in range(6)]
    scenes += [load_scene(gen.corridors_document(seed)) for seed in range(6)]
    scenes += [random_scene(rng) for _ in range(20)]
    scenes += [
        random_override_scene(rng, int(rng.integers(3, 10)), int(rng.integers(1, 5)))
        for _ in range(60)
    ]
    flagged = passed = proved = 0
    for scene in scenes:
        parts, _, last_hop = naive_last_hop(scene)
        graphs = {
            "proposed": build_routing_graph(scene),
            "min_pathloss": build_routing_graph(scene.with_elements(1)),
            "max_cpb": build_routing_graph(scene, hop_priority=True),
        }
        for algorithm, graph in graphs.items():
            empty = [u for u, routes in sorted(top_routes(graph, 5).items()) if not routes]
            calls.clear()
            d = solve(scene, SolveParams(paths=5, algorithm=algorithm)).diagnostics
            if empty:
                assert d["infeasible_user"] == empty[0]
                assert d["reason"] == f"user {empty[0]} has no candidate routes"
                assert (d["compat_edges"], d["cliques_explored"], d["cliques_pruned"]) == (0, 0, 0)
                assert calls == []
                assert "candidate_counts" not in d and "candidates_consistent" not in d
                # the reference sees the same first user without options
                assert [u for u, p in enumerate(parts, start=1) if not p][0] == empty[0]
                flagged += 1
                continue
            assert not d.get("reason", "").endswith("has no candidate routes")
            passed += 1
            if last_hop is None:
                assert calls == [0]
                assert all(d["candidate_counts"])
                continue
            assert d["reason"] == "no compatible route combination"
            assert d["infeasible_user"] == last_hop + 1
            assert (d["compat_edges"], d["cliques_explored"], d["cliques_pruned"]) == (0, 0, 0)
            assert calls == []
            assert "candidate_counts" not in d and "candidates_consistent" not in d
            cands = top_routes(graph, 5)
            linked = functools.partial(raw_compatible, scene)
            assert naive_rounds([cands[u] for u in sorted(cands)], linked)[1] is not None
            proved += 1
    assert flagged >= 90
    assert passed >= 150
    assert proved >= 30


def test_sequential_matches_tree_reference():
    # the cached walk merges subtrees the tree walk repeats; answers,
    # counts of feasible orders, sweeps and states, and the tie-break
    # must not move.
    # On some five-user meshes the best order is not the first feasible
    # one, so a state's records must weigh the route powers.
    rng = np.random.default_rng(37)
    gen = bench_scenes()
    scenes = [load_scene(corridors_k8_document(s)) for s in (3, 4, 5)]
    scenes += [load_scene(gen.mesh_document(s, dict(gen.MESH, users=5))) for s in range(12)]
    scenes += [sector_scene(rng, int(rng.integers(3, 7))) for _ in range(12)]
    scenes += [random_override_scene(rng, 12, int(rng.integers(2, 6))) for _ in range(12)]
    scenes += [adversarial_scene(bs_antennas=4, elements=4), easy_two_corridor()]
    feasible = 0
    for scene in scenes:
        got, want = solve_sequential(scene), tree_sequential(scene)
        assert repr(got) == repr(want)
        feasible += got.feasible
    assert feasible >= 16


def test_order_states_count_memo_states():
    # the tree walk visits 57,736 order prefixes here; the cached walk
    # solves each (remaining users, bans so far) state once
    sol = solve_sequential(load_scene(corridors_k8_document(3)))
    assert sol.diagnostics["order_states"] == 256
    assert sol.diagnostics["orders_feasible"] == 20160
    assert sol.diagnostics["sweeps"] == 45
    gen = bench_scenes()
    scene = load_scene(gen.corridors_document(18, gen.GREEDY_CORRIDORS)).with_elements(1600)
    assert solve_sequential(scene).diagnostics["order_states"] == 62
    # two users: the root and each user alone after the other; both
    # orders of the first scene finish with the same bans, one state more
    assert solve_sequential(easy_two_corridor()).diagnostics["order_states"] == 4
    assert solve_sequential(adversarial_scene()).diagnostics["order_states"] == 3


def test_stage_counts_repeat_exactly():
    # edges and swept vertices are counts of the routing topology: the
    # same for every algorithm, every solve and a fresh load, and equal
    # to a count straight from the per-pair LoS rule
    gen = bench_scenes()
    cases = [
        (corridors_k8_document(3), 169, 62),
        (gen.mesh_document(2), 451, 85),
        (gen.corridors_document(18, gen.GREEDY_CORRIDORS), 100, 35),
    ]
    for text, edges, swept in cases:
        scene = load_scene(text)
        surfaces = range(1, 1 + scene.num_irs)
        users = range(1 + scene.num_irs, scene.num_nodes)
        succ = {0: [j for j in surfaces if scene.los_indicator(0, j)]}
        for i in surfaces:
            farther = [j for j in surfaces if scene.distance(0, j) > scene.distance(0, i)]
            succ[i] = [j for j in (*farther, *users) if scene.los_indicator(i, j)]
        # a vertex is swept when it is a user or has a path to one
        live = set(users)
        for i in sorted(surfaces, key=lambda v: -scene.distance(0, v)) + [0]:
            if live.intersection(succ[i]):
                live.add(i)
        assert (sum(map(len, succ.values())), len(live)) == (edges, swept)
        algorithms = ["proposed", "min_pathloss", "max_cpb"]
        algorithms += ["sequential"] * (scene.num_users <= solver.MAX_SEQUENTIAL_USERS)
        for again in (scene, scene, load_scene(text), scene.with_elements(7)):
            for algorithm in algorithms:
                diagnostics = solve(again, SolveParams(algorithm=algorithm)).diagnostics
                assert (diagnostics["edges"], diagnostics["swept_vertices"]) == (edges, swept)
    # they stay out of CLI reports, so report bytes do not follow them
    record = run_experiment(ExperimentConfig(scene_path=DEMO))
    assert not {"edges", "swept_vertices"} & set(record)


def test_sequential_user_cap():
    positions = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    positions += [[4.0 * (i + 2), 0.0, 0.0] for i in range(9)]
    scene = make_scene(positions, 1, 9, bs_antennas=4, elements=4)
    with pytest.raises(SolverError, match="at most 8"):
        solve_sequential(scene)


# ----------------------------------------------------------- brute force

def test_bruteforce_matches_oracle_random():
    rng = np.random.default_rng(37)
    feasible = 0
    for _ in range(40):
        scene = random_scene(rng)
        sol = solve_bruteforce(scene)
        diag = sol.diagnostics
        # the counting pass agrees with the walk that lists the paths
        listed = enumerate_paths(scene.topology).values()
        assert diag["path_counts"] == tuple(map(len, listed))
        assert diag["combinations_checked"] == math.prod(diag["path_counts"])
        want = oracle_maxmin(scene)
        if want is None:
            assert not sol.feasible
        else:
            assert sol.feasible
            assert sol.objective == pytest.approx(want, rel=1e-12)
            feasible += 1
    assert feasible >= 8


def test_bruteforce_cap(monkeypatch):
    # the cap is judged on path counts alone: an over-cap scene never
    # reaches the route builder
    def no_routes(*args):
        raise AssertionError("route built")

    scene = corridor_scene(bs_antennas=4)
    monkeypatch.setattr(solver, "route_from_sequence", no_routes)
    with pytest.raises(AssertionError, match="route built"):
        solve_bruteforce(scene)
    monkeypatch.setattr(solver, "BRUTEFORCE_CAP", 1)
    with pytest.raises(SolverError, match="exceeds cap"):
        solve_bruteforce(scene)


def row_scene(surfaces: int) -> Scene:
    """BS, `surfaces` surfaces 3 m apart on a line, and one user 3 m past
    them, every pair in LoS but the BS and the user: a path per nonempty
    surface subset."""
    n = surfaces + 2
    los = [[int(i != j and {i, j} != {0, n - 1}) for j in range(n)] for i in range(n)]
    return make_scene([[3.0 * i, 0.0, 0.0] for i in range(n)], surfaces, 1, los_override=los)


def test_bruteforce_counts_paths_before_listing_them(monkeypatch):
    assert solve_bruteforce(row_scene(10)).diagnostics["combinations_checked"] == 2**10 - 1

    def no_paths(*args):
        raise AssertionError("paths listed")

    # 2**23 - 1 paths: the count alone refuses the scene, before the walk
    monkeypatch.setattr(solver, "enumerate_paths", no_paths)
    with pytest.raises(SolverError) as err:
        solve_bruteforce(row_scene(23))
    assert str(err.value) == "path count product 8388607 exceeds cap 1000000"


def test_bruteforce_answers_an_isolated_user_before_listing(monkeypatch):
    def no_paths(*args):
        raise AssertionError("paths listed")

    # user 1 has 2**23 - 1 paths and user 2 none: the product is 0, so
    # the counts alone make the scene infeasible, before the walk
    monkeypatch.setattr(solver, "enumerate_paths", no_paths)
    scene = load_scene(isolated_user_row_document(23))
    # nothing is priced either, so even an M no float holds answers
    for sol in (solve_bruteforce(scene), solve_bruteforce(scene.with_elements(10**400))):
        assert not sol.feasible
        assert sol.diagnostics == {
            "path_counts": (2**23 - 1, 0),
            "combinations_checked": 0,
            "reason": "no compatible route combination",
        }


# ----------------------------------------------------------- infeasible

def test_isolated_user_is_infeasible():
    positions = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [40.0, 0.0, 0.0]]
    scene = make_scene(positions, 1, 1, bs_antennas=4, elements=4)
    for sol in (solve(scene), solve_sequential(scene), solve_bruteforce(scene)):
        assert not sol.feasible
        assert sol.routes == ()
        assert sol.powers == ()
        assert sol.objective is None
    sol = solve(scene)
    assert sol.diagnostics["infeasible_user"] == 1


def test_no_compatible_combination():
    base = adversarial_scene(bs_antennas=4, elements=4)
    override = los_rows(base)
    override[2][4] = override[4][2] = 1
    scene = Scene(
        base.positions,
        base.num_irs,
        base.num_users,
        bs_antennas=4,
        elements=4,
        los_override=override,
    )
    sol = solve(scene)
    assert not sol.feasible
    assert sol.diagnostics["reason"] == "no compatible route combination"
    assert not solve_bruteforce(scene).feasible


# ------------------------------------------------------------ the audit

def test_audit_accepts_solver_output():
    scene = easy_two_corridor()
    for sol in (
        solve(scene),
        solve_sequential(scene),
        solve_bruteforce(scene),
        solve(scene, SolveParams(algorithm="max_cpb")),
    ):
        audit_solution(scene, sol)


def test_audit_rejects_cross_los_routes():
    scene = easy_two_corridor()
    good = solve(scene)
    # reroute user 2 through the corridor user 1 occupies
    from beamroute.graph import route_from_sequence

    clash = route_from_sequence(scene, 2, [3, 4])
    bad_route = route_from_sequence(scene, 1, [1, 2])
    tampered = RoutingSolution(
        feasible=True,
        algorithm="proposed",
        routes=(bad_route, clash),
        powers=good.powers,
        objective=good.objective,
    )
    audit_solution(scene, tampered)  # the honest pairing passes

    near = make_scene(
        [
            (0.0, 4.0, 0.0),
            (4.0, 0.0, 0.0), (9.0, 0.0, 0.0),
            (4.0, 8.0, 0.0), (9.0, 5.0, 0.0),
            (14.0, 0.0, 0.0), (14.0, 8.0, 0.0),
        ],
        4, 2, bs_antennas=4, elements=4,
    )
    r1 = route_from_sequence(near, 1, [1, 2])
    r2 = route_from_sequence(near, 2, [3, 4])
    crossed = RoutingSolution(
        feasible=True,
        algorithm="proposed",
        routes=(r1, r2),
        powers=(1.0, 1.0),
        objective=1.0,
    )
    with pytest.raises(AuditError, match="in LoS"):
        audit_solution(near, crossed)


def test_audit_rejects_routes_sharing_a_surface():
    # user 2's route runs through both surfaces of user 1's, then on to
    # its own user; each route alone is valid
    near = make_scene(
        [
            (0.0, 4.0, 0.0),
            (4.0, 0.0, 0.0), (9.0, 0.0, 0.0),
            (4.0, 8.0, 0.0), (9.0, 5.0, 0.0),
            (14.0, 0.0, 0.0), (14.0, 8.0, 0.0),
        ],
        4, 2, bs_antennas=4, elements=4,
    )
    shared = RoutingSolution(
        feasible=True,
        algorithm="proposed",
        routes=(route_from_sequence(near, 1, [1, 2]), route_from_sequence(near, 2, [1, 2, 4])),
        powers=(1.0, 1.0),
        objective=1.0,
    )
    with pytest.raises(AuditError, match="routes of users 1 and 2 share a vertex"):
        audit_solution(near, shared)


def test_audit_separation_is_linear_in_the_route_vertices(monkeypatch):
    # 1,100 one-hop users: checking every vertex pair of every route pair
    # made 2,420,000 LoS queries on this solution; a union of LoS masks
    # per route leaves only route validation's one query per hop
    scene = load_scene(one_hop_users_document(1100))
    solution = solve(scene, SolveParams(paths=1))
    queries = 0
    los_indicator = Scene.los_indicator

    def counted(self, i, j):
        nonlocal queries
        queries += 1
        return los_indicator(self, i, j)

    monkeypatch.setattr(Scene, "los_indicator", counted)
    audit_solution(scene, solution)
    hops = sum(len(r.vertices) - 1 for r in solution.routes)
    assert hops == 2200
    assert queries <= 2 * hops


def test_each_returned_route_is_validated_once_per_solve(monkeypatch):
    # the audit validates each returned route, and nothing else in a
    # solve does: pricing a route (closed_form_power) takes it as valid.
    # Brute force also validates every enumerated path as it builds it
    # (route_from_sequence), on a route object it never returns.
    from beamroute import channel, cli, clique, graph

    checked = []
    validate = graph.validate_route

    def counted(scene, route):
        checked.append(route)
        validate(scene, route)

    for module in (graph, channel, clique, solver, cli):
        if hasattr(module, "validate_route"):
            monkeypatch.setattr(module, "validate_route", counted)
    gen = bench_scenes()
    rng = np.random.default_rng(34)
    small = [load_scene_file(DEMO), easy_two_corridor(), adversarial_scene()]
    small += [random_override_scene(rng, 8, 3) for _ in range(6)]
    large = [load_scene(gen.corridors_document(seed)) for seed in range(8)]
    large += [load_scene(gen.mesh_document(seed)) for seed in range(2)]
    # brute force enumerates every path, too many on the benchmark scenes
    pruned = [a for a in solver.ALGORITHMS if a != "brute_force"]
    runs = [(scene, solver.ALGORITHMS) for scene in small]
    runs += [(scene, pruned) for scene in large]
    feasible = 0
    for scene, algorithms in runs:
        for algorithm in algorithms:
            checked.clear()
            sol = solve(scene, SolveParams(paths=10, algorithm=algorithm))
            returned = [id(r) for r in checked if any(r is s for s in sol.routes)]
            assert sorted(returned) == sorted(map(id, sol.routes))
            if algorithm != "brute_force":
                assert len(checked) == len(sol.routes)
            feasible += sol.feasible
    assert feasible >= 30


def test_audit_rejects_tampered_powers():
    scene = easy_two_corridor()
    good = solve(scene)
    tampered = RoutingSolution(
        feasible=True,
        algorithm="proposed",
        routes=good.routes,
        powers=tuple(p * 2 for p in good.powers),
        objective=good.objective * 2,
    )
    with pytest.raises(AuditError, match="powers"):
        audit_solution(scene, tampered)


def test_audit_rejects_routes_on_infeasible():
    scene = easy_two_corridor()
    good = solve(scene)
    tampered = RoutingSolution(
        feasible=False,
        algorithm="proposed",
        routes=good.routes,
        powers=good.powers,
        objective=good.objective,
    )
    with pytest.raises(AuditError, match="infeasible"):
        audit_solution(scene, tampered)


# ------------------------------------------------------- params/dispatch

def test_solve_dispatch():
    scene = easy_two_corridor()
    for name in ("proposed", "sequential", "min_pathloss", "max_cpb", "brute_force"):
        sol = solve(scene, SolveParams(algorithm=name))
        assert sol.algorithm == name
        assert sol.feasible


def test_all_solvers_agree_on_easy_scene():
    scene = easy_two_corridor()
    sols = [
        solve(scene, SolveParams(algorithm=name))
        for name in ("proposed", "sequential", "min_pathloss", "max_cpb", "brute_force")
    ]
    objectives = [s.objective for s in sols]
    for obj in objectives[1:]:
        assert obj == pytest.approx(objectives[0], rel=1e-12)
    for s in sols[1:]:
        assert [r.vertices for r in s.routes] == [r.vertices for r in sols[0].routes]


def test_params_validation():
    with pytest.raises(SolverError, match="unknown algorithm"):
        SolveParams(algorithm="magic")
    with pytest.raises(SolverError, match="paths must be positive"):
        SolveParams(paths=0)
    # a budget that is not an int is refused here, not deep in the search
    for paths in (2.5, "3", True, None):
        with pytest.raises(SolverError, match="paths must be an integer"):
            SolveParams(paths=paths)


def test_no_users_rejected():
    with pytest.raises(SolverError, match="no users"):
        solve(star_scene())
