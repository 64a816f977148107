"""Experiment runner: scenes in, routing reports and sweep series out.

Single entry point for loading a scene document or generating a
``Scene`` from a spec, running one solver, or sweeping the element
count or candidate budget across a value list.  Reports come out as
text tables, fixed-header CSV (sweeps only) or JSON.  Output bytes are
a pure function of config and seed; timing is opt-in so repeated runs
stay byte-identical.  Run it as ``beamroute`` or ``python -m beamroute``.

Exit codes: 0 feasible, 2 infeasible (or a sweep with failed points),
1 error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass

from .scene import DEFAULT_LOS_THRESHOLD, DEFAULT_MIN_FAR_FIELD, Scene, load_scene_file
from .solver import ALGORITHMS, SolveParams, solve

FORMATS = ("table", "csv", "json")
SWEEP_VARIABLES = ("M", "Q")
MAX_SWEEP_VALUES = 10_000

GENERATOR_RESTARTS = 60
PLACEMENT_TRIES = 200
# nodes a generated scene may hold, BS included, checked before placing any
MAX_GENERATED_NODES = 10_000


class CliError(ValueError):
    """Raised for bad configs, bad generator specs or exhausted retries."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one invocation depends on.

    Exactly one of ``scene_path`` and ``generate`` must be set.
    ``paths`` and sweep values must be positive ints, sweep values strictly
    increasing and at most ``MAX_SWEEP_VALUES``, and ``seed`` a non-negative int.
    """

    scene_path: str | None = None
    generate: str | None = None
    seed: int = 0
    algorithm: str = "proposed"
    paths: int = 20
    elements: int | None = None
    antennas: int | None = None
    sweep: str | None = None
    values: tuple[int, ...] = ()
    fmt: str = "table"
    out: str | None = None
    timing: bool = False

    def __post_init__(self) -> None:
        if (self.scene_path is None) == (self.generate is None):
            raise CliError("exactly one of scene path and generator spec required")
        ints = [("paths", self.paths), ("seed", self.seed)]
        for name, value in ints + [("sweep value", v) for v in self.values]:
            if not isinstance(value, int) or isinstance(value, bool):
                raise CliError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1:
            raise CliError("paths must be positive")
        if self.seed < 0:
            raise CliError("seed must be non-negative")
        if self.algorithm not in ALGORITHMS:
            raise CliError(f"unknown algorithm {self.algorithm!r}")
        if self.fmt not in FORMATS:
            raise CliError(f"unknown output format {self.fmt!r}")
        if self.sweep is not None:
            if self.sweep not in SWEEP_VARIABLES:
                raise CliError(f"sweep variable must be one of {SWEEP_VARIABLES}")
            if not self.values:
                raise CliError("sweep requires a value list")
            if len(self.values) > MAX_SWEEP_VALUES:
                raise CliError(f"sweep lists at most {MAX_SWEEP_VALUES} values")
            if any(v < 1 for v in self.values):
                raise CliError("sweep values must be positive")
            if any(b <= a for a, b in zip(self.values, self.values[1:])):
                raise CliError("sweep values must be strictly increasing")
        elif self.values:
            raise CliError("value list given without a sweep variable")
        elif self.fmt == "csv":
            raise CliError("csv output needs a sweep; use table or json for single runs")


# -- scene generation --------------------------------------------------

_SPEC_RE = re.compile(r"^\s*(grid|random)\s*\(\s*([^)]*?)\s*\)\s*$")


def _spec_numbers(body: str, spec: str) -> list[float]:
    # float() strips surrounding whitespace and rejects an empty part
    try:
        numbers = [float(p) for p in body.split(",")]
        if all(map(math.isfinite, numbers)):
            return numbers
    except ValueError:
        pass
    raise CliError(f"malformed generator spec {spec!r}")


def _grid_scene(rows: int, cols: int, spacing: float, users: int) -> Scene:
    if rows < 1 or cols < 1 or users < 0:
        raise CliError("grid needs positive rows and cols and users >= 0")
    if 1 + rows * cols + users > MAX_GENERATED_NODES:
        raise CliError(f"generated scenes hold at most {MAX_GENERATED_NODES} nodes")
    if spacing < DEFAULT_MIN_FAR_FIELD:
        raise CliError(f"grid spacing below the far-field limit {DEFAULT_MIN_FAR_FIELD} m")
    if spacing > DEFAULT_LOS_THRESHOLD:
        raise CliError(
            f"grid spacing beyond the LoS range {DEFAULT_LOS_THRESHOLD} m leaves "
            "the BS without a reachable surface"
        )
    if users >= 2:
        raise CliError(
            "grid routes at most one user: the BS at its corner reaches only "
            "surfaces in LoS of one another, so the first hops of any two routes conflict"
        )
    irs_rows = [[(c + 1) * spacing, r * spacing, 0.0] for r in range(rows) for c in range(cols)]
    user_rows = [[(cols + 1) * spacing, k * spacing, 0.0] for k in range(users)]
    return Scene([[0.0, 0.0, 0.0], *irs_rows, *user_rows], rows * cols, users)


def _random_scene(
    num_irs: int, num_users: int, side: float, min_sep: float, seed: int
) -> Scene:
    if num_irs < 1 or num_users < 0:
        raise CliError("random needs at least one surface and users >= 0")
    if 1 + num_irs + num_users > MAX_GENERATED_NODES:
        raise CliError(f"generated scenes hold at most {MAX_GENERATED_NODES} nodes")
    if side <= 0 or min_sep <= 0:
        raise CliError("random needs positive side and min_sep")
    # placement must satisfy the scene validator too, which enforces
    # its own far-field floor
    sep = max(min_sep, DEFAULT_MIN_FAR_FIELD)
    if sep >= DEFAULT_LOS_THRESHOLD:
        raise CliError("min_sep leaves no room inside the LoS range")
    # imported here, so that only this generator pays numpy's import time
    import numpy as np

    rng = np.random.default_rng(seed)
    attempts = 0
    for _ in range(GENERATOR_RESTARTS):
        pts = [np.zeros(3)]
        for idx in range(num_irs + num_users):
            for _ in range(PLACEMENT_TRIES):
                attempts += 1
                if idx == 0:
                    # the first surface anchors the graph at the BS;
                    # its full 3-D distance must stay inside LoS range
                    thr = DEFAULT_LOS_THRESHOLD
                    z = rng.uniform(0, min(2.0, math.sqrt(thr**2 - sep**2)))
                    r = rng.uniform(sep, math.sqrt(thr**2 - z**2))
                    az = rng.uniform(0, 2 * math.pi)
                    cand = np.array([r * math.cos(az), r * math.sin(az), z])
                else:
                    cand = np.array(
                        [
                            rng.uniform(0, side),
                            rng.uniform(0, side),
                            rng.uniform(0, 2.0),
                        ]
                    )
                if all(np.linalg.norm(cand - p) >= sep for p in pts):
                    pts.append(cand)
                    break
            else:
                break  # this node found no place: restart the layout
        else:
            return Scene(pts, num_irs, num_users)
    raise CliError(
        f"random placement unsatisfiable after {attempts} attempts (seed {seed})"
    )


def generate_scene(spec: str, seed: int = 0) -> Scene:
    """Validated scene from a generator spec, deterministic per seed.

    ``grid(rows, cols, spacing, users)`` lays surfaces on a lattice
    with its user, if any, one column beyond it; ``random(J, K, side, min_sep)``
    scatters J surfaces and K users over a side x side area.  Every
    physical constant keeps the ``Scene`` default, which is also the
    default of a scene document without ``params``.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise CliError(f"malformed generator spec {spec!r}")
    name, body = m.groups()
    nums = _spec_numbers(body, spec)
    if len(nums) != 4:
        raise CliError(f"generator spec {spec!r} takes four arguments")
    # rows, cols and users, or J and K, are counts
    counts = nums[:2] + nums[3:] if name == "grid" else nums[:2]
    if not all(x.is_integer() for x in counts):
        raise CliError(f"malformed generator spec {spec!r}")
    if name == "grid":
        return _grid_scene(int(nums[0]), int(nums[1]), nums[2], int(nums[3]))
    return _random_scene(int(nums[0]), int(nums[1]), nums[2], nums[3], seed)


# -- reports -----------------------------------------------------------

def _decibel(x: float) -> float:
    return 10.0 * math.log10(x)


def _load_config_scene(config: ExperimentConfig) -> Scene:
    if config.scene_path is not None:
        scene = load_scene_file(config.scene_path)
    else:
        scene = generate_scene(config.generate, config.seed)
    if config.antennas is not None:
        scene = scene.with_antennas(config.antennas)
    if config.elements is not None:
        scene = scene.with_elements(config.elements)
    return scene


def _solve_record(scene: Scene, config: ExperimentConfig, paths: int) -> dict:
    start = time.perf_counter()
    solution = solve(scene, SolveParams(paths=paths, algorithm=config.algorithm))
    wall_time = time.perf_counter() - start
    record: dict = {
        "params": {
            "algorithm": config.algorithm,
            "paths": paths,
            "antennas": scene.bs_antennas,
            "elements": scene.elements,
            "surfaces": scene.num_irs,
            "users": scene.num_users,
        },
        "feasible": solution.feasible,
        "objective": solution.objective,
        "objective_db": None if solution.objective is None else _decibel(solution.objective),
        "users": [
            {
                "user": route.user_index,
                "power": power,
                "power_db": _decibel(power),
                "hops": route.hops,
                "route": str(route),
                "vertices": list(route.vertices),
            }
            for route, power in zip(solution.routes, solution.powers)
        ],
        "cliques_explored": solution.diagnostics.get("cliques_explored"),
    }
    if config.timing:
        record["wall_time_s"] = wall_time
    return record


def run_experiment(config: ExperimentConfig) -> dict:
    """One solver invocation on the configured scene."""
    scene = _load_config_scene(config)
    return _solve_record(scene, config, config.paths)


def sweep(config: ExperimentConfig) -> dict:
    """One record per sweep value on a fixed scene.

    A failing point is recorded in its row and the series continues.
    """
    if config.sweep is None:
        raise CliError("sweep variable not set")
    scene = _load_config_scene(config)
    points = []
    for value in config.values:
        try:
            if config.sweep == "M":
                record = _solve_record(scene.with_elements(value), config, config.paths)
            else:
                record = _solve_record(scene, config, value)
            points.append({"value": value, **record})
        except (ValueError, ArithmeticError) as exc:
            points.append({"value": value, "error": str(exc)})
    return {"sweep": config.sweep, "users": scene.num_users, "points": points}


# -- formatting --------------------------------------------------------

def _fmt_db(x: float | None) -> str:
    return "-inf" if x is None else f"{x:.3f}"

def _run_table(record: dict) -> str:
    lines = [
        f"algorithm   {record['params']['algorithm']}",
        f"elements    {record['params']['elements']}",
        f"antennas    {record['params']['antennas']}",
        f"paths       {record['params']['paths']}",
        f"feasible    {'yes' if record['feasible'] else 'no'}",
        f"objective   {_fmt_db(record['objective_db'])} dB",
    ]
    for user in record["users"]:
        lines.append(
            f"user {user['user']:<4d}  {_fmt_db(user['power_db']):>10s} dB  {user['route']}"
        )
    if "wall_time_s" in record:
        lines.append(f"wall time   {record['wall_time_s']:.6f} s")
    return "\n".join(lines) + "\n"


def _series_csv(series: dict) -> str:
    ks = range(1, series["users"] + 1)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "value", "objective_db", "feasible",
        *(f"power_db_u{k}" for k in ks), *(f"hops_u{k}" for k in ks), "error",
    ])
    for point in series["points"]:
        # a feasible point lists every user in order, any other point none
        users = point.get("users", [])
        pad = [""] * (len(ks) - len(users))
        objective = point.get("objective_db")
        writer.writerow([
            point["value"],
            "" if objective is None else repr(objective),
            "" if "error" in point else int(point["feasible"]),
            *(repr(u["power_db"]) for u in users), *pad,
            *(u["hops"] for u in users), *pad,
            point.get("error", ""),
        ])
    return buf.getvalue()


def _series_table(series: dict) -> str:
    lines = [f"sweep over {series['sweep']}"]
    lines.append(f"{'value':>8s} {'objective':>12s}  status")
    for point in series["points"]:
        if "error" in point:
            lines.append(f"{point['value']:>8d} {'-':>12s}  error: {point['error']}")
        elif not point["feasible"]:
            lines.append(f"{point['value']:>8d} {'-':>12s}  infeasible")
        else:
            lines.append(
                f"{point['value']:>8d} {point['objective_db']:>9.3f} dB  "
                + " ".join(f"u{u['user']}:{u['hops']}h" for u in point["users"])
            )
    return "\n".join(lines) + "\n"


def _render(result: dict, config: ExperimentConfig) -> str:
    if config.fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    if config.sweep is None:
        return _run_table(result)
    if config.fmt == "csv":
        return _series_csv(result)
    return _series_table(result)


# -- entry point -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # infeasible outcomes
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="beamroute", description="Multi-hop beam routing experiments.")
    p.add_argument("--scene", dest="scene_path", metavar="SCENE", help="scene document path")
    p.add_argument("--generate", metavar="SPEC", help="grid(R,C,S,U) or random(J,K,side,min_sep)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--algorithm",
        choices=tuple(a.replace("_", "-") for a in ALGORITHMS),
        default="proposed",
    )
    p.add_argument("--paths", type=int, default=20, help="candidate routes per user")
    p.add_argument("--elements", type=int, help="override per-surface element count")
    p.add_argument("--antennas", type=int, help="override BS antenna count")
    p.add_argument("--sweep", choices=SWEEP_VARIABLES)
    p.add_argument("--values", help="sweep values: comma list or A..B range")
    p.add_argument("--output", choices=FORMATS, default="table", dest="fmt")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true", help="include wall time in reports")
    return p


# every dest is an ExperimentConfig field; parse_args leaves the parser as it was
_PARSER = _build_parser()


def _parse_values(text: str | None) -> tuple[int, ...]:
    if text is None:
        return ()
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            lo, hi = map(int, token.split("..")) if ".." in token else (int(token),) * 2
        except ValueError:
            raise CliError(f"bad sweep value {token!r}") from None
        # counted from the endpoints, so a huge range is never built
        if len(out) + hi - lo + 1 > MAX_SWEEP_VALUES:
            raise CliError(f"sweep lists at most {MAX_SWEEP_VALUES} values")
        out.extend(range(lo, hi + 1))
    return tuple(out)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
        ns.algorithm = ns.algorithm.replace("-", "_")
        ns.values = _parse_values(ns.values)
        config = ExperimentConfig(**vars(ns))
        result = sweep(config) if config.sweep else run_experiment(config)
        _emit(_render(result, config), config.out)
        # a single run is judged as a one-point series
        points = result["points"] if config.sweep else [result]
        ok = all("error" not in p and p["feasible"] for p in points)
        return 0 if ok else 2
    except (OSError, ValueError, ArithmeticError) as exc:  # every package error is a ValueError
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 1
