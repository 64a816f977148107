"""Property test of the last-hop pass that ends clique-pipeline runs
before their candidate sweep.

Whenever the pass empties a user, the scene has no feasible selection:
no candidate budget solves it, and brute force agrees where it runs
under its cap.  The command
line prints the same bytes and exit code as with the pass kept from
firing, the full pipeline deciding.  Scenes come from random LoS
overrides and from one-sector-per-user layouts, under the three
clique algorithms and several candidate budgets.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamroute import solver
from beamroute.cli import main
from beamroute.scene import load_scene
from scenefab import scene_document
from test_clique import random_override_scene
from test_solver import sector_scene

EMPTIED = "no compatible route combination"
PIPELINE = ("proposed", "min-pathloss", "max-cpb")
BUDGETS = (1, 4, 20)
# the pass itself, kept before any test patches the module
LAST_HOP = solver._last_hop_block


def build(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "override":
        return random_override_scene(rng, int(rng.integers(3, 10)), int(rng.integers(2, 5)))
    return sector_scene(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))


def run(path: str, algorithm: str, paths: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--scene", path, "--algorithm", algorithm, "--paths", str(paths),
                     "--output", "json"])
    return code, out.getvalue()


def reach_only(scene):
    """The pass kept to its reachability answer: it never empties a user."""
    found = LAST_HOP(scene)
    return found if found is not None and found[0] != EMPTIED else None


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("last_hop") / "scene.json")


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["override", "sector"]), seed=st.integers(0, 2**32 - 1))
# scenes the pass proves infeasible
@example(kind="override", seed=5)
@example(kind="sector", seed=1)
def test_a_firing_pass_changes_no_answer(scene_path, kind, seed):
    document = scene_document(build(kind, seed))
    with open(scene_path, "w", encoding="utf-8") as fh:
        fh.write(document)
    scene = load_scene(document)
    found = solver._last_hop_block(scene)
    if found is None or found[0] != EMPTIED:
        return
    # infeasible at every budget, on every graph, and for brute force
    runs = {(a, q): run(scene_path, a, q) for a in PIPELINE for q in BUDGETS}
    assert {code for code, _ in runs.values()} == {2}
    try:
        assert not solver.solve_bruteforce(scene).feasible
    except solver.SolverError:  # over the cap
        pass
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_last_hop_block", reach_only)
        for (a, q), got in runs.items():
            assert run(scene_path, a, q) == got
