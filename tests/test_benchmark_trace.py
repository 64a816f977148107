"""The benchmark's traced run still composes with the package.

``perfbench/layers.py`` rebuilds the CLI's answer from package functions
it calls by name, so renaming one of them breaks ``run.py --trace 1``.
This runs both of its pipelines on the demo scene and compares them
with the CLI's ``run_experiment``.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from beamroute.cli import ExperimentConfig, run_experiment
from beamroute.graph import build_routing_graph
from beamroute.scene import load_scene_file
from beamroute.solver import SolveParams, solve

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMO = os.path.join(ROOT, "scenes", "demo.json")
PERFBENCH = os.path.join(ROOT, "perfbench")
# perfbench modules import each other by these top-level names
BENCH_MODULES = ("layers", "bench", "scenes")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_traced_proposed_pipeline_matches_cli(layers):
    scene = load_scene_file(DEMO)
    for paths in (1, 5, 20):
        tracer = layers.Tracer()
        got = layers.proposed_pipeline(tracer, 0, DEMO, paths)
        want = run_experiment(ExperimentConfig(scene_path=DEMO, paths=paths))
        assert want["feasible"]
        assert got == {
            "feasible": want["feasible"],
            "objective_db": want["objective_db"],
            "routes": [u["vertices"] for u in want["users"]],
        }
        # the traced counts read the same structures the solver builds
        counts = tracer.counts[0]
        solution = solve(scene, SolveParams(paths=paths))
        assert counts["clique.compat_edges"] == solution.diagnostics["compat_edges"]
        assert counts["graph.edges"] == len(build_routing_graph(scene).weight)


def test_traced_sequential_sweep_matches_cli(layers):
    values = (100, 200, 400, 800)
    tracer = layers.Tracer()
    got = layers.sequential_sweep(tracer, 0, DEMO, values)
    assert [p["value"] for p in got["points"]] == list(values)
    for point, m in zip(got["points"], values):
        want = run_experiment(
            ExperimentConfig(scene_path=DEMO, algorithm="sequential", elements=m)
        )
        assert want["feasible"]
        assert point == {
            "value": m,
            "feasible": want["feasible"],
            "objective_db": want["objective_db"],
            "power_db": [u["power_db"] for u in want["users"]],
            "hops": [u["hops"] for u in want["users"]],
            "routes": [u["vertices"] for u in want["users"]],
        }
    assert tracer.counts[0]["solver.orders_total"] == 2 * len(values)
