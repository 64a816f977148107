"""CLI tests: generators, reports, sweeps, formats, exit codes."""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields

import pytest

import beamroute
from beamroute.cli import (
    MAX_GENERATED_NODES,
    CliError,
    ExperimentConfig,
    _parse_values,
    generate_scene,
    main,
    run_experiment,
    sweep,
)
from beamroute.channel import closed_form_power
from beamroute.graph import build_routing_graph, top_routes
from beamroute.scene import Scene, load_scene
from beamroute.solver import ALGORITHMS, SolveParams, solve
from scenefab import corridors_k8_document, neighbour_chain_document, one_hop_users_document

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMO = os.path.join(ROOT, "scenes", "demo.json")


def scene_document(nodes: list[dict], los_override: list[list[int]] | None = None) -> str:
    """Scene document text with default params."""
    doc: dict = {"nodes": nodes}
    if los_override is not None:
        doc["los_override"] = los_override
    return json.dumps(doc)


def scene_nodes(scene: Scene) -> list[dict]:
    """Node entries of a scene document holding the scene's layout."""
    return [
        {"id": i, "kind": scene.kind(i), "pos": list(p)}
        for i, p in enumerate(scene.positions)
    ]


def scene_fields(scene: Scene) -> dict:
    """Every field of a scene, with the position floats in hex."""
    values = {f.name: getattr(scene, f.name) for f in fields(Scene)}
    return values | {"positions": [[x.hex() for x in p] for p in scene.positions]}


# ------------------------------------------------------------ generators

def test_grid_layout():
    scene = generate_scene("grid(3,4,5,1)")
    assert scene.num_nodes == 14
    assert scene.num_irs == 12
    assert scene.num_users == 1
    for j in range(1, 13):
        x, y, z = scene.positions[j]
        assert x in (5.0, 10.0, 15.0, 20.0)
        assert y in (0.0, 5.0, 10.0)
        assert z == 0.0
    assert list(scene.positions[13]) == [25.0, 0.0, 0.0]


def test_grid_is_deterministic():
    assert scene_fields(generate_scene("grid(3,4,5,1)")) == scene_fields(
        generate_scene("grid(3,4,5,1)", seed=99)
    )


@pytest.mark.parametrize("spacing", [3.0, 3.2, 4.5, 5.0, 6.4])
def test_grid_rejects_two_users(spacing, capsys):
    # the BS reaches at most the surfaces at (s, 0), (s, s) and (2s, 0),
    # each in LoS of the others, so two users never route at once
    scene = generate_scene(f"grid(3,4,{spacing},1)")
    first_hops = [j for j in range(1, 13) if scene.los_indicator(0, j)]
    assert 1 <= len(first_hops) <= 3
    for a, b in itertools.combinations(first_hops, 2):
        assert scene.los_indicator(a, b)
    for users in (2, 5):
        spec = f"grid(3,4,{spacing},{users})"
        with pytest.raises(CliError, match="at most one user"):
            generate_scene(spec)
        assert main(["--generate", spec]) == 1
        assert "at most one user" in json.loads(capsys.readouterr().out)["error"]


def test_random_deterministic_per_seed():
    a, b, c = (
        scene_fields(generate_scene("random(10,4,40,3)", seed=seed)) for seed in (5, 5, 6)
    )
    assert a == b
    assert a != c


def test_random_documents_always_validate():
    for seed in range(1000):
        scene = generate_scene("random(6,2,25,3)", seed=seed)
        assert scene.num_irs == 6
        assert scene.num_users == 2
        # the BS can always reach at least one surface
        assert any(scene.los_indicator(0, j) for j in range(1, 7))


def test_random_respects_min_sep():
    scene = generate_scene("random(8,2,30,4.5)", seed=3)
    n = scene.num_nodes
    for i in range(n):
        for j in range(i + 1, n):
            assert scene.distance(i, j) >= 4.5


def test_generator_spec_errors():
    for spec in ("ring(3)", "grid(3,4)", "grid(a,b,c,d)", "grid 3 4 5 2", "random()"):
        with pytest.raises(CliError):
            generate_scene(spec)
    with pytest.raises(CliError, match="spacing"):
        generate_scene("grid(2,2,9,1)")
    with pytest.raises(CliError, match=r"attempts \(seed 4\)"):
        generate_scene("random(30,0,8,3)", seed=4)


def test_generator_spec_rejects_non_finite(capsys):
    for spec in ("random(5,2,nan,4)", "grid(2,2,nan,1)", "grid(2,2,inf,1)",
                 "random(5,2,40,-inf)", "grid(nan,2,5,1)"):
        with pytest.raises(CliError, match="malformed generator spec"):
            generate_scene(spec)
        assert main(["--generate", spec]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": f"malformed generator spec {spec!r}"}


def test_generator_spec_rejects_non_integral_counts(capsys):
    # rows, cols and users of grid(), J and K of random(), one at a time
    for spec in ("grid(2.7,2,5,1)", "grid(2,2.5,5,1)", "grid(2,2,5,1.9)",
                 "random(5.5,2,40,3)", "random(5,2.2,40,3)"):
        with pytest.raises(CliError, match="malformed generator spec"):
            generate_scene(spec)
        assert main(["--generate", spec]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": f"malformed generator spec {spec!r}"}
    # integral floats stay counts, as in a scene document
    for spec, same in (("grid(2.0,2,5,1.0)", "grid(2,2,5,1)"),
                       ("random(5.0,2,40,3)", "random(5,2,40,3)")):
        assert scene_fields(generate_scene(spec, seed=3)) == scene_fields(
            generate_scene(same, seed=3)
        )


def test_generator_spec_caps_the_node_count(capsys):
    # the cap is checked before any position is placed: grid(1e9,1e9,...)
    # would otherwise build 10**18 of them
    assert generate_scene("grid(1,9998,4,1)").num_nodes == MAX_GENERATED_NODES
    message = f"generated scenes hold at most {MAX_GENERATED_NODES} nodes"
    for spec in ("grid(1e9,1e9,4,1)", "grid(1,9999,4,1)",
                 "random(1e12,2,40,3)", "random(9998,2,40,3)"):
        with pytest.raises(CliError, match=message):
            generate_scene(spec)
        assert main(["--generate", spec]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("spec", ["grid(2,3,5,1)", "random(6,2,25,3)"])
def test_generated_scene_has_document_defaults(spec):
    # a generated scene takes Scene's defaults, a document without
    # params takes load_scene's; the two sets must stay the same
    scene = generate_scene(spec, seed=3)
    loaded = load_scene(scene_document(scene_nodes(scene)))
    assert scene_fields(loaded) == scene_fields(scene)


# --------------------------------------------------------------- reports

def test_run_experiment_demo():
    record = run_experiment(ExperimentConfig(scene_path=DEMO))
    assert record["feasible"]
    assert record["params"]["antennas"] == 20
    assert record["params"]["elements"] == 400
    assert len(record["users"]) == 2
    for user in record["users"]:
        assert user["route"].startswith("BS -> ")
        assert user["vertices"][0] == 0
        assert user["power_db"] == pytest.approx(
            10 * math.log10(user["power"]), abs=1e-9
        )
    assert record["objective_db"] == pytest.approx(
        10 * math.log10(record["objective"]), abs=1e-9
    )
    assert "wall_time_s" not in record


def test_run_matches_direct_solve():
    record = run_experiment(ExperimentConfig(scene_path=DEMO))
    with open(DEMO) as fh:
        scene = load_scene(fh.read())
    direct = solve(scene, SolveParams())
    assert record["objective"] == direct.objective
    assert [u["vertices"] for u in record["users"]] == [
        list(r.vertices) for r in direct.routes
    ]


def test_timing_is_opt_in():
    timed = run_experiment(ExperimentConfig(scene_path=DEMO, timing=True))
    assert timed["wall_time_s"] >= 0.0


def test_singleton_sweep_matches_run():
    series = sweep(
        ExperimentConfig(scene_path=DEMO, sweep="M", values=(128,))
    )
    run = run_experiment(ExperimentConfig(scene_path=DEMO, elements=128))
    (point,) = series["points"]
    assert {k: v for k, v in point.items() if k != "value"} == run


def test_sweep_m_grows_power():
    series = sweep(
        ExperimentConfig(scene_path=DEMO, sweep="M", values=(100, 400))
    )
    lo, hi = series["points"]
    assert lo["feasible"] and hi["feasible"]
    assert hi["objective"] > lo["objective"]


def test_sweep_q_monotone_on_demo():
    series = sweep(
        ExperimentConfig(scene_path=DEMO, sweep="Q", values=tuple(range(1, 7)))
    )
    objectives = [p["objective"] for p in series["points"]]
    for a, b in zip(objectives, objectives[1:]):
        assert b >= a


def test_sweep_m_hop_counts_non_decreasing(tmp_path):
    # a chain-plus-shortcut layout where bigger surfaces favor more hops
    from scenefab import corridor_scene, los_rows

    scene = corridor_scene()
    doc = scene_document(scene_nodes(scene), los_override=los_rows(scene))
    path = tmp_path / "corridor.json"
    path.write_text(doc)
    series = sweep(
        ExperimentConfig(
            scene_path=str(path), sweep="M", values=(50, 100, 200, 400, 800)
        )
    )
    hops = [p["users"][0]["hops"] for p in series["points"]]
    assert all(b >= a for a, b in zip(hops, hops[1:]))
    assert hops[0] < hops[-1]


def test_bruteforce_matches_proposed_on_small_scene():
    # five nodes: BS, a two-surface corridor, shortcut surface, one user
    spec = "grid(1,3,5,1)"
    prop = run_experiment(ExperimentConfig(generate=spec))
    brute = run_experiment(ExperimentConfig(generate=spec, algorithm="brute_force"))
    assert prop["feasible"] and brute["feasible"]
    assert prop["objective"] == pytest.approx(brute["objective"], rel=1e-12)


def test_sweep_records_errors_in_row(capsys):
    # nine users break the sequential order guard at every point
    series = sweep(
        ExperimentConfig(
            generate="random(10,9,20,3)", algorithm="sequential", sweep="Q", values=(1, 2)
        )
    )
    assert len(series["points"]) == 2
    for point in series["points"]:
        assert "at most 8" in point["error"]
    # the reports print one error row per point and exit 2
    args = ["--generate", "random(10,9,20,3)", "--algorithm", "sequential", "--sweep", "Q",
            "--values", "1,2"]
    error = "sequential solver supports at most 8 users, got 9"
    assert main(args) == 2
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"       1            -  error: {error}",
        f"       2            -  error: {error}",
    ]
    assert main([*args, "--output", "csv"]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        f'{value},{"," * 20}"{error}"' for value in (1, 2)
    ]


def test_config_validation(capsys):
    with pytest.raises(CliError, match="exactly one"):
        ExperimentConfig()
    with pytest.raises(CliError, match="exactly one"):
        ExperimentConfig(scene_path=DEMO, generate="grid(2,2,5,1)")
    with pytest.raises(CliError, match="strictly increasing"):
        ExperimentConfig(scene_path=DEMO, sweep="M", values=(4, 4))
    with pytest.raises(CliError, match="positive"):
        ExperimentConfig(scene_path=DEMO, sweep="M", values=(0, 4))
    with pytest.raises(CliError, match="unknown algorithm"):
        ExperimentConfig(scene_path=DEMO, algorithm="magic")
    with pytest.raises(CliError, match="value list"):
        ExperimentConfig(scene_path=DEMO, values=(3,))
    with pytest.raises(CliError, match="sweep requires"):
        ExperimentConfig(scene_path=DEMO, sweep="Q")
    # rejected before the scene is loaded or solved
    with pytest.raises(CliError, match="csv output needs a sweep"):
        ExperimentConfig(scene_path=DEMO, fmt="csv")
    with pytest.raises(CliError, match="paths must be positive"):
        ExperimentConfig(scene_path=DEMO, paths=0)
    with pytest.raises(CliError, match="seed must be non-negative"):
        ExperimentConfig(generate="random(5,2,20,4)", seed=-1)
    # library callers can pass any value; each must be an int, never a bool
    for value in (2.5, "3", False):
        with pytest.raises(CliError, match="paths must be an integer"):
            ExperimentConfig(scene_path=DEMO, paths=value)
        with pytest.raises(CliError, match="seed must be an integer"):
            ExperimentConfig(generate="random(5,2,20,4)", seed=value)
        with pytest.raises(CliError, match="sweep value must be an integer"):
            ExperimentConfig(scene_path=DEMO, sweep="Q", values=(1, value))
    # a sweep must not report a bad budget as one failed row per point
    assert main(["--scene", DEMO, "--sweep", "M", "--values", "1,2", "--paths", "0"]) == 1
    assert capsys.readouterr().out == '{"error": "paths must be positive"}\n'
    # a range is counted from its endpoints, never built past the limit
    assert main(["--scene", DEMO, "--sweep", "Q", "--values", "1..1000000000000000"]) == 1
    assert capsys.readouterr().out == '{"error": "sweep lists at most 10000 values"}\n'
    assert _parse_values("1,2,3..10000") == tuple(range(1, 10_001))
    with pytest.raises(CliError, match="sweep lists at most 10000 values"):
        _parse_values("1,2,3..10001")
    ExperimentConfig(scene_path=DEMO, sweep="Q", values=tuple(range(1, 10_001)))
    with pytest.raises(CliError, match="sweep lists at most 10000 values"):
        ExperimentConfig(scene_path=DEMO, sweep="Q", values=tuple(range(1, 10_002)))


# -------------------------------------------------------- command line

def test_main_feasible_exit_zero(capsys):
    assert main(["--scene", DEMO]) == 0
    out = capsys.readouterr().out
    assert "feasible    yes" in out
    assert "BS -> IRS" in out


def test_main_infeasible_exit_two(capsys):
    # no surface of this scene reaches either user
    code = main(["--generate", "random(4,2,40,3)", "--algorithm", "sequential"])
    assert code == 2
    assert "feasible    no" in capsys.readouterr().out


def test_main_error_exit_one(capsys):
    assert main(["--scene", "does_not_exist.json"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_main_huge_element_count_keeps_the_contract(capsys):
    # a prime M far beyond any real surface still gives a report or one
    # JSON error line
    code = main(["--scene", DEMO, "--elements", "1000000000000000003", "--output", "json"])
    assert code in (0, 1, 2)
    out = capsys.readouterr().out
    if code == 1:
        assert out.count("\n") == 1
        assert "error" in json.loads(out)
    else:
        assert json.loads(out)["params"]["elements"] == 1000000000000000003


@pytest.mark.parametrize(
    "algorithm", ["proposed", "sequential", "max-cpb", "min-pathloss", "brute-force"]
)
def test_main_extreme_element_counts_keep_their_exit_codes(algorithm, capsys):
    # every edge is priced at once from M sqrt(beta); at M = 1, at a
    # prime M past a float's integer precision and at an M no float
    # holds, each algorithm answers as pricing edge by edge did
    # (max-cpb prices ln d alone and meets the huge M in the powers)
    huge = str(10**400)
    for elements, code, objective_db in (
        ("1", 0, -169.26351681830715),
        ("1000000000000000003", 0, 550.7364831816928),
    ):
        argv = ["--scene", DEMO, "--algorithm", algorithm, "--elements", elements]
        assert main([*argv, "--output", "json"]) == code
        assert json.loads(capsys.readouterr().out)["objective_db"] == objective_db
    assert main(["--scene", DEMO, "--algorithm", algorithm, "--elements", huge]) == 1
    assert capsys.readouterr().out == '{"error": "int too large to convert to float"}\n'
    # M = 10^77 is a float, and so is N = 10^300, but N M^(2h) is not:
    # the product gives inf where ** would raise, and no report carries
    # it; the greedy takes its last user's power first
    overflow = f"channel power of user {2 if algorithm == 'sequential' else 1} overflows a float"
    for extra in (
        ["--elements", str(10**77)],
        ["--antennas", str(10**300), "--elements", str(10**10)],
    ):
        assert main(["--scene", DEMO, "--algorithm", algorithm, *extra, "--output", "json"]) == 1
        assert capsys.readouterr().out == json.dumps({"error": overflow}) + "\n"
    argv = ["--scene", DEMO, "--algorithm", algorithm, "--sweep", "M", "--output", "csv"]
    assert main([*argv, "--values", f"1,1000000000000000003,{10**77},{huge}"]) == 2
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("1,-169.26351681830715,1,")
    assert rows[2].startswith("1000000000000000003,550.7364831816928,1,")
    assert rows[3] == f"{10**77},,,,,,,{overflow}"
    assert rows[4] == f"{huge},,,,,,,int too large to convert to float"


def test_max_cpb_at_an_element_count_past_float_range():
    # a hop-priority graph prices ln d and reads no M, so it builds at
    # any M; the routes it finds fail only when their powers are taken,
    # which is the exit-1 error the extreme-count test above pins
    with open(DEMO) as fh:
        scene = load_scene(fh.read()).with_elements(10**400)
    routes = top_routes(build_routing_graph(scene, hop_priority=True), 1)
    assert all(routes.values())
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        closed_form_power(scene, routes[1][0])


def test_max_cpb_infeasible_past_float_range_exit_two(capsys):
    # no surface of this scene reaches either user, so no power is taken
    # and the run reports infeasible
    argv = ["--generate", "random(4,2,40,3)", "--algorithm", "max-cpb", "--output", "json"]
    assert main([*argv, "--elements", str(10**400)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["feasible"] is False
    assert record["params"]["elements"] == 10**400


def test_main_power_overflow_exit_one(tmp_path, capsys):
    # M^(2h) overflows a float on a 40-surface route at M = 100000
    path = tmp_path / "chain.json"
    path.write_text(neighbour_chain_document(40, 4.0))
    assert main(["--scene", str(path), "--elements", "100000"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert "error" in json.loads(out)
    code = main(["--scene", str(path), "--sweep", "M", "--values", "16,100000",
                 "--output", "json"])
    assert code == 2
    points = json.loads(capsys.readouterr().out)["points"]
    assert "error" not in points[0]
    assert "error" in points[1]


def test_far_apart_scene_is_one_error_line(tmp_path, capsys):
    # a surface at x = 1e200 serving a user at x = -1e200: the gap's
    # square overflows, and the scene is refused on load
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "nodes": [{"id": 0, "kind": "BS", "pos": [0, 0, 0]},
                  {"id": 1, "kind": "IRS", "pos": [1e200, 0, 0]},
                  {"id": 2, "kind": "User", "pos": [-1e200, 0, 0]}],
        "los_override": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
    }))
    for algorithm in ALGORITHMS:
        argv = ["--scene", str(path), "--algorithm", algorithm.replace("_", "-")]
        assert main([*argv, "--output", "json"]) == 1
        assert capsys.readouterr().out == json.dumps({"error": (
            "node positions span [2e+200, 0.0, 0.0] m per axis: "
            "their squared distances overflow a float"
        )}) + "\n"


def test_chain_deeper_than_the_recursion_limit_answers(tmp_path, capsys):
    # one route through 1,200 surfaces, 1 m apart; at M = 1 its power is
    # N beta^1201, small but a normal float
    surfaces = 1200
    assert surfaces > sys.getrecursionlimit()
    path = tmp_path / "chain.json"
    path.write_text(neighbour_chain_document(
        surfaces, 1.0, los_threshold=1.5, d0=0.5, beta=0.9, M1=1, M2=1
    ))
    for algorithm in ALGORITHMS:
        argv = ["--scene", str(path), "--algorithm", algorithm.replace("_", "-")]
        assert main([*argv, "--output", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["objective_db"] == -536.5371616770683
        assert record["users"][0]["hops"] == surfaces


def test_deep_chain_overflow_is_one_error_line(tmp_path, capsys):
    # at the default M the 1,200-surface route's M^(2h) overflows: brute
    # force walks the whole chain, then reports that error as every
    # algorithm does
    path = tmp_path / "chain.json"
    path.write_text(neighbour_chain_document(1200, 4.0, los_threshold=4.5))
    assert main(["--scene", str(path), "--algorithm", "brute-force", "--output", "json"]) == 1
    assert capsys.readouterr().out == '{"error": "(34, \'Numerical result out of range\')"}\n'


def test_more_users_than_the_recursion_limit_answers(tmp_path, capsys):
    # 1,100 one-hop users, all routes compatible: the clique search
    # fills 1,100 partitions, one member each
    path = tmp_path / "users.json"
    path.write_text(one_hop_users_document(1100))
    assert main(["--scene", str(path), "--paths", "1", "--output", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["feasible"] is True
    assert record["cliques_explored"] == 1100
    assert [u["vertices"] for u in record["users"]] == [[0, i, 1100 + i] for i in range(1, 1101)]


def test_deeply_nested_document_is_one_error_line(tmp_path, capsys):
    # json.loads gives up on deep nesting with a RecursionError
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"nodes": ' + "[" * depth + "]" * depth + "}")
    assert main(["--scene", str(path)]) == 1
    assert capsys.readouterr().out == '{"error": "malformed scene document: nested too deeply"}\n'


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"id": 1, "kind": "IRS", "pos": [{}, 0, 0]}, "node 1 position"),
        ({"id": 1, "kind": "IRS", "pos": [[1], 0, 0]}, "node 1 position"),
        ({"id": "1", "kind": "IRS", "pos": [5, 0, 0]}, "{'id': '1', "),
        ({"id": [1], "kind": "IRS", "pos": [5, 0, 0]}, "{'id': [1], "),
    ],
    ids=["pos-object", "pos-list", "id-string", "id-list"],
)
def test_main_malformed_node_entry_exit_one(tmp_path, capsys, entry, named):
    path = tmp_path / "scene.json"
    path.write_text(scene_document([{"id": 0, "kind": "BS", "pos": [0, 0, 0]}, entry]))
    assert main(["--scene", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert named in json.loads(out)["error"]


def test_package_exports_resolve():
    for name in beamroute.__all__:
        assert hasattr(beamroute, name), name


def test_python_m_beamroute_matches_golden():
    # runs the package as a module; -W error turns a runpy warning
    # about a module imported twice into a failure
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "beamroute", "--scene", "scenes/demo.json",
         "--algorithm", "proposed", "--output", "json"],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "demo_proposed.json"), "rb") as fh:
        assert proc.stdout == fh.read()


def test_numpy_loads_only_for_random_scenes():
    # a scene file never needs numpy, so importing the package and
    # running on a scene file leave it unloaded; random(...) loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    script = (
        "import contextlib, io, sys\n"
        "import beamroute\n"
        "from beamroute import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['--scene', 'scenes/demo.json'])]\n"
        "    loaded = ['numpy' in sys.modules]\n"
        "    codes.append(cli.main(['--generate', 'random(10,2,40,3)']))\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(codes, loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split("\n")[0] == "[0, 2] [False, True]"


def test_main_usage_error_exit_one(capsys):
    assert main(["--scene", DEMO, "--no-such-flag"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_main_csv_requires_sweep(capsys):
    assert main(["--scene", DEMO, "--output", "csv"]) == 1
    assert "sweep" in json.loads(capsys.readouterr().out)["error"]


def test_main_json_run(capsys):
    assert main(["--scene", DEMO, "--output", "json", "--elements", "256"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["feasible"] is True
    assert record["params"]["elements"] == 256


def test_main_csv_sweep(capsys):
    code = main(
        ["--scene", DEMO, "--sweep", "Q", "--values", "1..4", "--output", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "value,objective_db,feasible,power_db_u1,power_db_u2,hops_u1,hops_u2,error"
    assert len(lines) == 5
    run = run_experiment(ExperimentConfig(scene_path=DEMO))
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "1"
        assert float(cells[1]) == run["objective_db"]
    # an infeasible point without an error fills only value and feasible
    code = main(["--generate", "random(4,2,40,3)", "--sweep", "M", "--values", "1,2",
                 "--output", "csv"])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[1:] == ["1,,0,,,,,", "2,,0,,,,,"]


def test_main_range_values_match_list(capsys):
    assert main(["--scene", DEMO, "--sweep", "Q", "--values", "1..3", "--output", "json"]) == 0
    by_range = capsys.readouterr().out
    assert main(["--scene", DEMO, "--sweep", "Q", "--values", "1,2,3", "--output", "json"]) == 0
    assert by_range == capsys.readouterr().out


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--scene", DEMO, "--output", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["feasible"] is True


def test_output_bytes_reproducible(tmp_path):
    args = [
        "--generate", "random(8,2,30,3)", "--seed", "11",
        "--sweep", "M", "--values", "100,200,400",
        "--output", "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main([*args, "--out", str(a)])
    main([*args, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_RUNS = [
    *(
        (f"demo_{name}.json", ["--algorithm", name, "--output", "json"])
        for name in ("proposed", "sequential", "min-pathloss", "max-cpb", "brute-force")
    ),
    ("demo_sweep_M.csv", ["--sweep", "M", "--values", "100,200,400,800", "--output", "csv"]),
    # a prime M far past a float's integer precision, set by Scene.with_elements
    ("demo_elements_1000000000000000003.json",
     ["--elements", "1000000000000000003", "--output", "json"]),
    # M = 10^77: a float, but the powers overflow one, an error record
    ("demo_elements_1e77.json", ["--elements", str(10**77), "--output", "json"]),
    ("demo_sweep_Q.csv", ["--sweep", "Q", "--values", "1..20", "--output", "csv"]),
    ("demo_proposed.txt", []),
    ("demo_sweep_M.txt", ["--sweep", "M", "--values", "100,200,400,800"]),
    # paper-sized benchmark scenes at their workload's Q: a feasible
    # seven-user corridors scene, a mesh scene that only the clique
    # search's arc-consistency pass proves infeasible, and one that the
    # last-hop pass proves infeasible before the candidate sweep
    ("corridors_353_proposed.json", ["--paths", "10", "--output", "json"]),
    ("mesh_88_proposed.json", ["--paths", "50", "--output", "json"]),
    ("mesh_1_proposed.json", ["--paths", "50", "--output", "json"]),
    # the graph is priced before the last-hop pass runs: at M = 10^400
    # pricing fails, though the pass would prove the scene infeasible
    ("mesh_1_elements_1e400.json",
     ["--paths", "50", "--elements", str(10**400), "--output", "json"]),
    # the same corridors scene on the other graph builds: the large-M
    # hop-priority graph (infeasible), the M=1 graph, and the per-M
    # pricing of the greedy-sweep workload's call
    ("corridors_353_max-cpb.json", ["--paths", "10", "--algorithm", "max-cpb", "--output", "json"]),
    ("corridors_353_min-pathloss.json",
     ["--paths", "10", "--algorithm", "min-pathloss", "--output", "json"]),
    ("corridors_353_sequential.json", ["--algorithm", "sequential", "--output", "json"]),
    ("corridors_353_sweep_M.csv", ["--algorithm", "sequential", "--sweep", "M", "--values",
                                   "16,100,400,1600", "--output", "csv"]),
    # the paper's candidate-budget trade-off: infeasible at Q = 1 and 2,
    # feasible from Q = 3 on, so the sweep exits 2
    ("corridors_353_sweep_Q.csv", ["--sweep", "Q", "--values", "1..12", "--output", "csv"]),
]
# the scene of a golden not run on the demo, and its exit code
GOLDEN_SCENES = {"demo_elements_1e77.json": ("demo", 1),
                 "corridors_353_proposed.json": ("corridors_353", 0),
                 "mesh_88_proposed.json": ("mesh_88", 2),
                 "mesh_1_proposed.json": ("mesh_1", 2),
                 "mesh_1_elements_1e400.json": ("mesh_1", 1),
                 "corridors_353_max-cpb.json": ("corridors_353", 2),
                 "corridors_353_min-pathloss.json": ("corridors_353", 0),
                 "corridors_353_sequential.json": ("corridors_353", 0),
                 "corridors_353_sweep_M.csv": ("corridors_353", 0),
                 "corridors_353_sweep_Q.csv": ("corridors_353", 2)}


@pytest.mark.parametrize("golden,args", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_report_bytes_match_golden(tmp_path, capsys, golden, args):
    # pinned report bytes: any change to routes, tie-breaks or float
    # formatting shows up as a difference
    stem, code = GOLDEN_SCENES.get(golden, ("demo", 0))
    scene = os.path.join(ROOT, "scenes", f"{stem}.json")
    out = tmp_path / golden
    assert main(["--scene", scene, *args, "--out", str(out)]) == code
    # an error record goes to stdout, and no report is written
    assert out.exists() == (code != 1)
    got = out.read_bytes() if out.exists() else capsys.readouterr().out.encode()
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert got == fh.read()


def test_eight_user_sequential_sweep_matches_golden(tmp_path):
    # the sequential solver at its user cap, on a generated benchmark
    # scene; the M = 1600 point is infeasible, so the sweep exits 2
    scene = tmp_path / "corridors_k8_3.json"
    scene.write_text(corridors_k8_document(3) + "\n")
    out = tmp_path / "sweep.csv"
    args = ["--algorithm", "sequential", "--sweep", "M", "--values", "16,100,400,1600"]
    assert main(["--scene", str(scene), *args, "--output", "csv", "--out", str(out)]) == 2
    with open(os.path.join(GOLDEN, "corridors_k8_3_sweep_M.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_eight_user_sequential_run_matches_golden(tmp_path, capsys):
    # the routes the tie-break picks among the scene's 20,160 feasible
    # orders, which the sweep's dB values and hop counts do not pin
    scene = tmp_path / "corridors_k8_3.json"
    scene.write_text(corridors_k8_document(3) + "\n")
    assert main(["--scene", str(scene), "--algorithm", "sequential", "--output", "json"]) == 0
    with open(os.path.join(GOLDEN, "corridors_k8_3_sequential.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_rejected_element_count_matches_golden(capsys):
    # the one-line record of Scene.with_elements' count check
    assert main(["--scene", DEMO, "--elements", "0"]) == 1
    with open(os.path.join(GOLDEN, "demo_elements_0.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_reports_depend_on_the_element_count_alone(tmp_path, capsys):
    # the closed form reads M, not how a document splits it into M1 x M2
    with open(DEMO) as fh:
        doc = json.load(fh)
    reports = []
    for m1, m2 in ((4, 8), (32, 1)):
        doc["params"] = {"M1": m1, "M2": m2}
        path = tmp_path / f"demo_{m1}x{m2}.json"
        path.write_text(json.dumps(doc))
        assert main(["--scene", str(path), "--output", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert main(["--scene", DEMO, "--elements", "32", "--output", "json"]) == 0
    reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["params"]["elements"] == 32


def test_timing_adds_one_trailing_line(tmp_path, capsys):
    out = tmp_path / "timed.txt"
    assert main(["--scene", DEMO, "--timing", "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, "demo_proposed.txt")) as fh:
        golden = fh.read()
    text = out.read_text()
    assert text.startswith(golden)
    assert re.fullmatch(r"wall time   \d+\.\d{6} s\n", text[len(golden):])
    # the parser is shared by every call: nothing of this one leaks into the next
    plain = tmp_path / "plain.txt"
    assert main(["--scene", DEMO, "--out", str(plain)]) == 0
    assert plain.read_text() == golden
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "[--scene SCENE]" in capsys.readouterr().out


def test_readme_command_lines_succeed(tmp_path, monkeypatch):
    # every example of the README's "Command line" block runs from the
    # repo root and routes every user
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) >= 6 and all(c[0] == "beamroute" for c in commands)
    monkeypatch.chdir(ROOT)
    for args in commands:
        if "--out" in args:
            at = args.index("--out") + 1
            args[at] = str(tmp_path / args[at])
        assert main(args[1:]) == 0, args


def test_main_algorithm_names(capsys):
    for name in ("proposed", "sequential", "min-pathloss", "max-cpb", "brute-force"):
        code = main(["--scene", DEMO, "--algorithm", name, "--output", "json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["algorithm"] == name.replace("-", "_")
        assert record["feasible"] is True
