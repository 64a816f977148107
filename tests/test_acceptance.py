"""End-to-end checks gating the build, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL
lines; each criterion prints exactly one.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from beamroute.channel import closed_form_power
from beamroute.graph import (
    enumerate_paths,
    route_from_sequence,
    yen_k_shortest,
)
from beamroute.clique import CliqueSearch
from beamroute.scene import Scene
from beamroute.solver import (
    SolveParams,
    SolverError,
    audit_solution,
    solve,
    solve_bruteforce,
    solve_sequential,
)

from channel_model import (
    ArrayGeometry,
    bs_aod,
    end_to_end_channel,
    favorable_propagation_metric,
    mrt_precoder,
    optimal_phase_shifts,
)
from scenefab import adversarial_scene, chain_scene, corridor_scene, make_scene, star_scene
from test_clique import oracle_min_max, random_pathgraph, worst_key
from test_graph import oracle_cost, oracle_paths, random_losgraph


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {num:2d}  {detail}")
    assert ok, detail


def lattice_scene(rng, num_irs: int, num_users: int) -> Scene:
    """Random LoS topology over a jittered far-field lattice."""
    n = num_irs + num_users + 1
    cells = [(i, j) for i in range(5) for j in range(5) if (i, j) != (0, 0)]
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
    users = set(range(num_irs + 1, n))
    los = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(a + 1, n):
            if a in users and b in users:
                p = 0.05
            elif a == 0 and b in users:
                p = 0.2
            elif a in users or b in users:
                p = 0.45
            elif a == 0:
                p = 0.6
            else:
                p = 0.45
            if rng.random() < p:
                los[a, b] = los[b, a] = 1
    return make_scene(
        pts, num_irs, num_users, los_override=los, bs_antennas=4, elements=4
    )


def _path_counts(scene: Scene) -> list[int]:
    return [len(paths) for paths in enumerate_paths(scene.topology).values()]


def test_01_direct_channel_matches_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grids = [(2, 2), (4, 4), (8, 8)]
    worst = 0.0
    for _ in range(200):
        hops = int(rng.integers(1, 6))
        arrays = ArrayGeometry(grids[int(rng.integers(0, 3))])
        scene = chain_scene(
            rng,
            hops,
            elements=math.prod(arrays.grid),
            antennas=int(rng.choice([1, 4, 16])),
        )
        route = route_from_sequence(scene, 1, list(range(1, hops + 1)))
        shifts = optimal_phase_shifts(scene, arrays, route)
        w = mrt_precoder(scene, arrays, route)
        direct = abs(end_to_end_channel(scene, arrays, route, shifts, w)) ** 2
        closed = closed_form_power(scene, route)
        worst = max(worst, abs(direct - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"direct channel evaluation matches the closed form on 200 random "
        f"routes (worst rel err {worst:.2e}, {elapsed:.1f} s)",
    )


def test_02_reference_gain_constant():
    db = 10 * math.log10((0.06 / (4 * math.pi)) ** 2)
    ok = abs(db - (-46.0)) <= 0.5
    _verdict(2, ok, f"reference per-meter gain is {db:.2f} dB, within -46 +/- 0.5 dB")


def test_03_candidate_pipeline_is_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    checked = 0
    feasible = 0
    ok = True
    while checked < 50:
        scene = lattice_scene(rng, int(rng.integers(4, 11)), int(rng.integers(1, 4)))
        counts = _path_counts(scene)
        product = math.prod(counts)
        if max(counts, default=0) > 150 or product > 200_000:
            continue
        checked += 1
        exhaustive = max(max(counts, default=0), 1)
        prop = solve(scene, SolveParams(paths=exhaustive))
        brute = solve_bruteforce(scene)
        if prop.feasible != brute.feasible:
            ok = False
            break
        if prop.feasible:
            feasible += 1
            if not math.isclose(prop.objective, brute.objective, rel_tol=1e-12):
                ok = False
                break
    elapsed = time.perf_counter() - start
    ok = ok and feasible >= 10 and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"candidate-clique pipeline equals exhaustive search on 50 random "
        f"scenes ({feasible} feasible, {elapsed:.1f} s)",
    )


def test_04_candidate_search_is_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    deep = 0
    ok = True
    for _ in range(100):
        graph = random_losgraph(rng)
        topology = graph.topology
        target = topology.num_irs + 1
        paths = oracle_paths(topology.succ, 0, target, set(topology.user_vertices))
        want = sorted(oracle_cost(graph.weight, p) for p in paths)[:5]
        got = [r.cost_vec[0] for r in yen_k_shortest(graph, target, 5)]
        if got != want:
            ok = False
            break
        if len(paths) >= 5:
            deep += 1
    elapsed = time.perf_counter() - start
    ok = ok and deep >= 30 and elapsed < 10.0
    _verdict(
        4,
        ok,
        f"5 candidate costs equal the 5 smallest enumerated costs on 100 "
        f"random graphs ({deep} with full lists, {elapsed:.1f} s)",
    )


def test_05_clique_search_is_exact_and_prunable():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    solvable = 0
    pruned = 0
    ok = True
    for _ in range(100):
        graph = random_pathgraph(rng)
        want = oracle_min_max(graph)
        search = CliqueSearch(graph)
        got = search.run()
        pruned += search.pruned
        if want is None:
            if got is not None:
                ok = False
                break
            continue
        solvable += 1
        if got is None or got.vertices != want[2] or worst_key(graph, got) != want[0]:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and solvable >= 40 and pruned > 0 and elapsed < 10.0
    _verdict(
        5,
        ok,
        f"pruned clique search equals exhaustive tuple search on 100 random "
        f"graphs ({solvable} solvable, {pruned} branches pruned, {elapsed:.1f} s)",
    )


def test_06_objective_monotone_and_saturating_in_candidate_budget():
    rng = np.random.default_rng(106)
    scenes = []
    while len(scenes) < 10:
        scene = lattice_scene(rng, int(rng.integers(5, 9)), 2)
        counts = _path_counts(scene)
        if not counts or max(counts) > 15:
            continue
        if not solve(scene, SolveParams(paths=20)).feasible:
            continue
        scenes.append(scene)
    ok = True
    saturations = []
    for scene in scenes:
        objectives = []
        for q in range(1, 21):
            sol = solve(scene, SolveParams(paths=q))
            objectives.append(-math.inf if sol.objective is None else sol.objective)
        if any(b < a for a, b in zip(objectives, objectives[1:])):
            ok = False
            break
        final = objectives[-1]
        q_star = 1 + objectives.index(final)
        if q_star >= 20 or any(o != final for o in objectives[q_star - 1 :]):
            ok = False
            break
        saturations.append(q_star)
    detail = (
        f"objective non-decreasing in the candidate budget and constant from "
        f"budget {max(saturations) if saturations else '?'} on, over 10 scenes"
    )
    _verdict(6, ok, detail)


def test_07_route_length_grows_with_surface_size():
    m_low, m_high = 100, 400
    low = solve(corridor_scene().with_elements(m_low))
    high = solve(corridor_scene().with_elements(m_high))
    short = solve(
        corridor_scene().with_elements(m_low), SolveParams(algorithm="min_pathloss")
    )
    dense = solve(
        corridor_scene().with_elements(m_high), SolveParams(algorithm="max_cpb")
    )
    ok = (
        low.feasible
        and high.feasible
        and low.routes[0].hops < high.routes[0].hops
        and short.routes[0].vertices == low.routes[0].vertices
        and math.isclose(short.objective, low.objective, rel_tol=1e-12)
        and dense.routes[0].vertices == high.routes[0].vertices
        and math.isclose(dense.objective, high.objective, rel_tol=1e-12)
    )
    _verdict(
        7,
        ok,
        f"optimized route has {low.routes[0].hops} hops at M={m_low} and "
        f"{high.routes[0].hops} at M={m_high}; the small- and large-surface "
        f"benchmarks match at the extremes",
    )


def test_08_joint_selection_dominates_greedy():
    rng = np.random.default_rng(108)
    ok = True
    compared = 0
    for _ in range(15):
        scene = lattice_scene(rng, int(rng.integers(4, 9)), int(rng.integers(1, 4)))
        counts = _path_counts(scene)
        if max(counts, default=0) > 150:
            continue
        exhaustive = max(max(counts, default=0), 1)
        prop = solve(scene, SolveParams(paths=exhaustive))
        greedy = solve_sequential(scene)
        if greedy.feasible:
            compared += 1
            if not prop.feasible or prop.objective < greedy.objective * (1 - 1e-12):
                ok = False
                break
    trap = adversarial_scene(bs_antennas=4, elements=4)
    trap_prop = solve(trap)
    trap_greedy = solve_sequential(trap)
    ok = (
        ok
        and compared >= 5
        and trap_prop.feasible
        and not trap_greedy.feasible
        and trap_greedy.diagnostics["orders_feasible"] == 0
    )
    _verdict(
        8,
        ok,
        f"joint selection never loses to the best greedy order ({compared} "
        f"scenes) and stays feasible on a scene where every greedy order fails",
    )


def test_09_all_solutions_pass_the_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    audited = 0
    infeasible_clean = 0
    ok = True
    for i in range(1000):
        if i % 5 == 4:
            # natural distance-rule layout, usually infeasible
            pts = [np.zeros(3)]
            for _ in range(int(rng.integers(4, 8))):
                for _ in range(60):
                    cand = np.array(
                        [rng.uniform(0, 14), rng.uniform(0, 14), rng.uniform(0, 2)]
                    )
                    if all(np.linalg.norm(cand - p) >= 3.0 for p in pts):
                        pts.append(cand)
                        break
            num_users = int(rng.integers(1, 3))
            num_irs = len(pts) - 1 - num_users
            if num_irs < 1:
                continue
            scene = make_scene(pts, num_irs, num_users, bs_antennas=4, elements=4)
        else:
            scene = lattice_scene(rng, int(rng.integers(3, 7)), int(rng.integers(1, 3)))
        for algorithm in ("proposed", "sequential", "min_pathloss", "max_cpb", "brute_force"):
            try:
                sol = solve(scene, SolveParams(paths=8, algorithm=algorithm))
            except SolverError:
                continue  # e.g. enumeration cap; no solution emitted
            audit_solution(scene, sol)
            audited += 1
            if not sol.feasible:
                if sol.routes or sol.powers or sol.objective is not None:
                    ok = False
                infeasible_clean += 1
    elapsed = time.perf_counter() - start
    ok = ok and audited >= 4500
    _verdict(
        9,
        ok,
        f"{audited} solutions across all solvers on 1000 fuzzed scenes pass "
        f"the independent audit; all {infeasible_clean} infeasible results "
        f"carry no routes ({elapsed:.1f} s)",
    )


def test_10_first_hop_beams_decorrelate():
    scene = star_scene(antennas=20)
    ids = list(range(1, 6))
    aods = [bs_aod(scene, j) for j in ids]
    distinct = all(
        abs(a - b) > 1e-6 for a, b in itertools.combinations(aods, 2)
    )
    metric = favorable_propagation_metric(scene, ArrayGeometry((20, 20)), ids)
    diag_exact = all(metric[i, i] == 1.0 for i in range(5))
    off = [metric[i, j] for i in range(5) for j in range(5) if i != j]
    ok = distinct and diag_exact and max(off) < 0.1
    _verdict(
        10,
        ok,
        f"five distinct first-hop directions at 20 antennas: diagonal "
        f"correlations exactly 1, largest off-diagonal {max(off):.4f} < 0.1",
    )
