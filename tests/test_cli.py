"""CLI tests: generators, reports, sweeps, formats, exit codes."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from beamroute.cli import (
    CliError,
    ExperimentConfig,
    generate_scene,
    main,
    run_experiment,
    sweep,
)
from beamroute.scene import dump_scene_document, load_scene
from beamroute.solver import SolveParams, solve

DEMO = os.path.join(os.path.dirname(__file__), "..", "scenes", "demo.json")


# ------------------------------------------------------------ generators

def test_grid_layout():
    scene = load_scene(generate_scene("grid(3,4,5,2)"))
    assert scene.num_nodes == 15
    assert scene.num_irs == 12
    assert scene.num_users == 2
    for j in range(1, 13):
        x, y, z = scene.nodes[j].position
        assert x in (5.0, 10.0, 15.0, 20.0)
        assert y in (0.0, 5.0, 10.0)
        assert z == 0.0
    for u in (13, 14):
        assert scene.nodes[u].position[0] == 25.0


def test_grid_is_deterministic():
    assert generate_scene("grid(3,4,5,2)") == generate_scene("grid(3,4,5,2)", seed=99)


def test_random_deterministic_per_seed():
    a = generate_scene("random(10,4,40,3)", seed=5)
    b = generate_scene("random(10,4,40,3)", seed=5)
    c = generate_scene("random(10,4,40,3)", seed=6)
    assert a == b
    assert a != c


def test_random_documents_always_validate():
    for seed in range(1000):
        scene = load_scene(generate_scene("random(6,2,25,3)", seed=seed))
        assert scene.num_irs == 6
        assert scene.num_users == 2
        # the BS can always reach at least one surface
        assert any(scene.los_indicator(0, j) for j in range(1, 7))


def test_random_respects_min_sep():
    scene = load_scene(generate_scene("random(8,2,30,4.5)", seed=3))
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
    assert generate_scene("grid(2.0,2,5,1.0)") == generate_scene("grid(2,2,5,1)")
    assert generate_scene("random(5.0,2,40,3)", seed=3) == generate_scene("random(5,2,40,3)", seed=3)


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
    from scenefab import corridor_scene
    from beamroute.scene import dump_scene_document

    scene = corridor_scene()
    doc = dump_scene_document(
        [
            {"id": n.id, "kind": n.kind, "pos": [float(x) for x in n.position]}
            for n in scene.nodes
        ],
        los_override=[[int(v) for v in row] for row in np.asarray(scene.los_override)],
    )
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
    doc = generate_scene("grid(1,3,5,1)")
    path = os.path.join(os.path.dirname(__file__), "_small.json")
    with open(path, "w") as fh:
        fh.write(doc)
    try:
        prop = run_experiment(ExperimentConfig(scene_path=path))
        brute = run_experiment(ExperimentConfig(scene_path=path, algorithm="brute_force"))
    finally:
        os.unlink(path)
    assert prop["feasible"] and brute["feasible"]
    assert prop["objective"] == pytest.approx(brute["objective"], rel=1e-12)


def test_sweep_records_errors_in_row():
    # nine users break the sequential order guard at every point
    doc = generate_scene("grid(1,1,5,9)")
    path = os.path.join(os.path.dirname(__file__), "_nine_users.json")
    with open(path, "w") as fh:
        fh.write(doc)
    try:
        series = sweep(
            ExperimentConfig(
                scene_path=path, algorithm="sequential", sweep="Q", values=(1, 2)
            )
        )
    finally:
        os.unlink(path)
    assert len(series["points"]) == 2
    for point in series["points"]:
        assert "at most 8" in point["error"]


def test_config_validation():
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


# -------------------------------------------------------- command line

def test_main_feasible_exit_zero(capsys):
    assert main(["--scene", DEMO]) == 0
    out = capsys.readouterr().out
    assert "feasible    yes" in out
    assert "BS -> IRS" in out


def test_main_infeasible_exit_two(capsys):
    code = main(["--generate", "grid(3,4,5,2)", "--algorithm", "sequential"])
    assert code == 2
    assert "feasible    no" in capsys.readouterr().out


def test_main_error_exit_one(capsys):
    assert main(["--scene", "does_not_exist.json"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def _chain_document(surfaces: int) -> str:
    """A straight chain of 4 m hops with LoS only between neighbours."""
    n = surfaces + 2
    nodes = [
        {"id": i, "kind": "BS" if i == 0 else "IRS" if i <= surfaces else "User",
         "pos": [4.0 * i, 0.0, 0.0]}
        for i in range(n)
    ]
    los = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    return dump_scene_document(nodes, los_override=los)


def test_main_power_overflow_exit_one(tmp_path, capsys):
    # M^(2h) overflows a float on a 40-surface route at M = 100000
    path = tmp_path / "chain.json"
    path.write_text(_chain_document(40))
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
    ("demo_sweep_Q.csv", ["--sweep", "Q", "--values", "1..20", "--output", "csv"]),
]


@pytest.mark.parametrize("golden,args", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_report_bytes_match_golden(tmp_path, golden, args):
    # pinned report bytes: any change to routes, tie-breaks or float
    # formatting shows up as a difference
    out = tmp_path / golden
    assert main(["--scene", DEMO, *args, "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_main_algorithm_names(capsys):
    for name in ("proposed", "sequential", "min-pathloss", "max-cpb", "brute-force"):
        code = main(["--scene", DEMO, "--algorithm", name, "--output", "json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["algorithm"] == name.replace("-", "_")
        assert record["feasible"] is True
