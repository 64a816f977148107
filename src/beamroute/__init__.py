"""Multi-hop beam routing over reflecting-surface networks."""

from .scene import Scene, SceneError, load_scene, load_scene_file
from .channel import closed_form_power, end_to_end_channel, favorable_propagation_metric
from .graph import Route, build_routing_graph
from .clique import build_path_graph
from .solver import (
    RoutingSolution,
    SolveParams,
    SolverError,
    audit_solution,
    solve,
)
from .cli import ExperimentConfig, generate_scene, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "Scene",
    "SceneError",
    "load_scene",
    "load_scene_file",
    "closed_form_power",
    "end_to_end_channel",
    "favorable_propagation_metric",
    "Route",
    "build_routing_graph",
    "build_path_graph",
    "RoutingSolution",
    "SolveParams",
    "SolverError",
    "audit_solution",
    "solve",
    "ExperimentConfig",
    "generate_scene",
    "run_experiment",
    "sweep",
    "__version__",
]
