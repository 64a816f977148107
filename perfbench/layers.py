"""Traced run: per-layer times and counts of the calls the benchmark makes.

Each scene gets one call id.  Under it the untraced CLI call is timed
as the ``cli.main`` span, then the same work is recomposed from the
package's public functions, each wrapped in a span named after its
module (``graph.candidates`` is ``yen_k_shortest`` over all users, and
so on).  The recomposed answer must equal the CLI's, or the run fails.
Spans are kept in memory and written to ``traces/`` when the run ends.

A layer's time is the self time of its spans, scaled by the call's
calibration factor like every timed call (see ``bench.calibrate``).  ``solver.sequential``
is the ``solve_sequential`` span minus the separately timed graph
build, powers and audit of the same sweep point, which it repeats
internally.  ``cli.self`` is the ``cli.main`` span minus all layer
time of the same call: argument parsing, reporting and glue.
"""

from __future__ import annotations

import gc
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from beamroute.channel import closed_form_power
from beamroute.clique import CliqueSearch, NoCandidateRoutesError, build_path_graph
from beamroute.graph import build_routing_graph, yen_k_shortest
from beamroute.scene import load_scene_file
from beamroute.solver import RoutingSolution, SolveParams, audit_solution, solve_sequential

import bench

TRACE_DIR = Path(__file__).resolve().parent / "traces"

LAYERS = (
    "scene.load",
    "scene.rescale",
    "graph.build",
    "graph.candidates",
    "clique.build",
    "clique.search",
    "solver.sequential",
    "channel.power",
    "solver.audit",
)

# the layers whose share of call time each workload is meant to carry
SHARES = ("graph.candidates", "clique.build", "clique.search", "solver.sequential", "cli.self")


class Tracer:
    """Spans (name, start, end, parent, call) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, call: int):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, call])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, call: int, name: str, value: float) -> None:
        self.counts[call][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per call, the summed self time of each span name, in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, call) in enumerate(self.spans):
            out[call][name] += (end - start - child[i]) * 1e3
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "call": c}
                for n, s, e, p, c in self.spans
            ],
            "counts": {str(c): dict(v) for c, v in self.counts.items()},
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _decibel(power: float) -> float:
    return 10.0 * math.log10(power)


def proposed_pipeline(tr: Tracer, call: int, path: str, paths: int) -> dict:
    """``solve_proposed`` recomposed from public calls, one span per layer."""
    with tr.span("scene.load", call):
        scene = load_scene_file(path)
    with tr.span("graph.build", call):
        graph = build_routing_graph(scene)
    tr.count(call, "graph.edges", len(graph.weight))
    tr.count(call, "graph.builds", 1)
    users = range(1, scene.num_users + 1)
    with tr.span("graph.candidates", call):
        candidates = {u: yen_k_shortest(graph, scene.num_irs + u, paths) for u in users}
    sizes = [len(candidates[u]) for u in users]
    tr.count(call, "graph.candidates", sum(sizes))
    tr.count(call, "graph.candidate_slots", len(sizes) * paths)
    infeasible = {"feasible": False, "objective_db": None, "routes": []}
    with tr.span("clique.build", call):
        try:
            pg = build_path_graph(candidates, scene)
        except NoCandidateRoutesError:
            pg = None
    if pg is None:
        return infeasible
    tr.count(call, "clique.pairs_tested", sum(
        sizes[a] * sizes[b] for a in range(len(sizes)) for b in range(a + 1, len(sizes))
    ))
    tr.count(call, "clique.compat_edges", sum(len(n) for n in pg.adj) // 2)
    search = CliqueSearch(pg)
    with tr.span("clique.search", call):
        clique = search.run()
    tr.count(call, "clique.explored", search.explored)
    if clique is None:
        return infeasible
    routes = tuple(pg.routes[v] for v in clique.vertices)
    with tr.span("channel.power", call):
        powers = tuple(closed_form_power(scene, r) for r in routes)
    solution = RoutingSolution(
        feasible=True, algorithm="proposed", routes=routes, powers=powers,
        objective=min(powers),
    )
    with tr.span("solver.audit", call):
        audit_solution(scene, solution)
    return {
        "feasible": True,
        "objective_db": _decibel(solution.objective),
        "routes": [list(r.vertices) for r in routes],
    }


def sequential_sweep(tr: Tracer, call: int, path: str, values) -> dict:
    """The CLI's ``--sweep M`` over ``solve_sequential``, one span per layer."""
    with tr.span("scene.load", call):
        scene = load_scene_file(path)
    points = []
    for m in values:
        with tr.span("scene.rescale", call):
            sm = scene.with_elements(m)
        with tr.span("graph.build", call):
            graph = build_routing_graph(sm)
        tr.count(call, "graph.edges", len(graph.weight))
        tr.count(call, "graph.builds", 1)
        with tr.span("solver.sequential", call):
            solution = solve_sequential(sm, SolveParams(algorithm="sequential"))
        tr.count(call, "solver.orders_total", solution.diagnostics["orders_total"])
        tr.count(call, "solver.orders_feasible", solution.diagnostics["orders_feasible"])
        point = {"value": m, "feasible": solution.feasible, "objective_db": None,
                 "power_db": [], "hops": [], "routes": []}
        if solution.feasible:
            with tr.span("channel.power", call):
                powers = [closed_form_power(sm, r) for r in solution.routes]
            with tr.span("solver.audit", call):
                audit_solution(sm, solution)
            point.update(
                objective_db=_decibel(solution.objective),
                power_db=[_decibel(p) for p in powers],
                hops=[r.hops for r in solution.routes],
                routes=[list(r.vertices) for r in solution.routes],
            )
        points.append(point)
    return {"points": points}


def recompose(tr: Tracer, call: int, workload, path: str) -> dict:
    """The answer of the workload's CLI call on ``path``, from public calls."""
    if workload.sweep:
        return sequential_sweep(tr, call, path, workload.sweep)
    return proposed_pipeline(tr, call, path, workload.paths)


def layer_times(spans_ms: dict[str, float]) -> dict[str, float]:
    """Layer times of one call from its span self times (ms)."""
    t = {name: spans_ms.get(name, 0.0) for name in LAYERS}
    if t["solver.sequential"]:
        t["solver.sequential"] -= t["graph.build"] + t["channel.power"] + t["solver.audit"]
    t["cli.main"] = spans_ms.get("cli.main", 0.0)
    t["cli.self"] = t["cli.main"] - sum(t[name] for name in LAYERS)
    t["trace.overhead"] = spans_ms.get("pipeline", 0.0)
    return t


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload, seed: int, items, seconds: float, cli_main, out) -> dict:
    tr = Tracer()
    failures = []
    start = time.perf_counter()
    scales = []
    for call, (scene_seed, argv, expected) in enumerate(items):
        gc.collect()
        before = bench.calibrate()
        with tr.span("call", call):
            with tr.span("cli.main", call):
                _, code, text = bench.call_cli(cli_main, argv)
            gc.collect()
            with tr.span("pipeline", call):
                mine = recompose(tr, call, workload, argv[1])
        scales.append(bench.calibration_scale(before))
        why = bench.check_call(workload, code, text, expected)
        if why is None:
            why = bench.mismatch(expected, mine)
            why = why and f"recomposed pipeline: {why}"
        if why:
            failures.append((scene_seed, why))
        if time.perf_counter() - start >= seconds:
            break
    calls = call + 1
    tr.dump(TRACE_DIR / f"{workload.name}-{seed}.json")

    per_call = [
        {name: ms * scales[call] for name, ms in layer_times(spans).items()}
        for call, spans in tr.self_times().items()
    ]
    total = {k: sum(t[k] for t in per_call) for k in per_call[0]}
    counts = defaultdict(float)
    for c in tr.counts.values():
        for k, v in c.items():
            counts[k] += v
    metrics = {}
    for name in ("cli.main", "cli.self", *LAYERS, "trace.overhead"):
        metrics[f"{name}_ms"] = bench.metric(total[name] / calls, "ms")
    for name in SHARES:
        metrics[f"{name}_share"] = bench.metric(_share(total[name], total["cli.main"]), "ratio")
    per_call_count = {
        "graph.candidates": counts["graph.candidates"],
        "clique.pairs_tested": counts["clique.pairs_tested"],
        "clique.compat_edges": counts["clique.compat_edges"],
        "clique.explored": counts["clique.explored"],
    }
    metrics["graph.edges"] = bench.metric(_share(counts["graph.edges"], counts["graph.builds"]), "count")
    for name, value in per_call_count.items():
        metrics[name] = bench.metric(value / calls, "count")
    metrics["graph.candidate_fill"] = bench.metric(
        _share(counts["graph.candidates"], counts["graph.candidate_slots"]), "ratio")
    metrics["clique.compat_density"] = bench.metric(
        _share(counts["clique.compat_edges"], counts["clique.pairs_tested"]), "ratio")
    metrics["solver.orders_feasible_share"] = bench.metric(
        _share(counts["solver.orders_feasible"], counts["solver.orders_total"]), "ratio")

    print(f"workload {workload.name}  seed {seed}  traced calls {calls} of {len(items)} scenes",
          file=out)
    print(f"  {'layer':<20s} {'self ms/call':>12s} {'share':>7s}", file=out)
    for name in ("cli.self", *LAYERS):
        ms = total[name] / calls
        print(f"  {name:<20s} {ms:12.3f} {_share(total[name], total['cli.main']):7.1%}", file=out)
    print(f"  {'cli.main':<20s} {total['cli.main'] / calls:12.3f}", file=out)
    traced_ms = sum(
        (e - s) * scales[c] for n, s, e, _, c in tr.spans if n == "pipeline"
    ) * 1e3 / calls
    print(f"  tracing overhead {total['trace.overhead'] / calls:.4f} ms/call outside layer "
          f"spans; traced call {traced_ms:.3f} ms minus untraced call "
          f"{total['cli.main'] / calls:.3f} ms = {traced_ms - total['cli.main'] / calls:.3f} ms",
          file=out)
    for name, m in metrics.items():
        print(f"  {name:<30s} {m['value']:.6g} {m['unit']}", file=out)
    for scene_seed, why in failures[:10]:
        print(f"  FAILED scene {scene_seed}: {why}", file=out)
    return {
        "correct": not failures,
        "attempted": calls,
        "failed": len(failures),
        "metrics": metrics,
    }
