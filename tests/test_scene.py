"""Scene loading, validation, distances and LoS; link directions of the test
channel model."""

import json
import math
from dataclasses import fields, is_dataclass
from functools import cached_property

import numpy as np
import pytest

from beamroute.scene import (
    DEFAULT_LOS_THRESHOLD,
    Scene,
    SceneError,
    load_scene,
)
from channel_model import _angles, bs_aod, direction, direction_from_angles
from scenefab import full_los, make_scene

BETA_5GHZ = 2.2797266319525994e-05


def doc_text(nodes, params=None, los_override=None):
    doc = {"nodes": nodes, "params": params or {}}
    if los_override is not None:
        doc["los_override"] = los_override
    return json.dumps(doc)


def small_doc(**params):
    nodes = [
        {"id": 0, "kind": "BS", "pos": [0.0, 0.0, 0.0]},
        {"id": 1, "kind": "IRS", "pos": [5.0, 0.0, 0.0]},
        {"id": 2, "kind": "IRS", "pos": [10.0, 0.0, 0.0]},
        {"id": 3, "kind": "IRS", "pos": [5.0, 6.0, 0.0]},
        {"id": 4, "kind": "IRS", "pos": [10.0, 6.0, 0.0]},
        {"id": 5, "kind": "User", "pos": [15.0, 0.0, 0.0]},
        {"id": 6, "kind": "User", "pos": [15.0, 6.0, 0.0]},
    ]
    return doc_text(nodes, params)


def node(nid, kind, pos):
    return {"id": nid, "kind": kind, "pos": pos}


BS0 = node(0, "BS", [0, 0, 0])
IRS1 = node(1, "IRS", [5, 0, 0])


def nodes_doc(*nodes, **extra):
    return json.dumps({"nodes": list(nodes), **extra})


# Each malformed document and the exact error it raises.  The "order"
# rows pin which of several faults is reported first.
DOCUMENT_ERRORS = [
    ("json", "{nope", "malformed scene document: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)"),
    ("top-level", "[]", "malformed scene document: top level must be an object"),
    ("params-type", json.dumps({"params": [], "nodes": [BS0]}), "params must be an object"),
    ("param-unknown", json.dumps({"params": {"M3": 1}, "nodes": [BS0]}), "unknown param 'M3'"),
    ("param-string", json.dumps({"params": {"N": "8"}, "nodes": [BS0]}),
     "param 'N' must be a number, got '8'"),
    ("param-fraction", json.dumps({"params": {"M1": 2.5}, "nodes": [BS0]}),
     "param 'M1' must be an integer, got 2.5"),
    ("nodes-missing", "{}", "scene document must list at least one node"),
    ("nodes-empty", nodes_doc(), "scene document must list at least one node"),
    ("entry-type", nodes_doc(BS0, 7), "malformed node entry 7"),
    ("entry-key", nodes_doc(BS0, {"id": 1, "kind": "IRS"}), "node entry missing key 'pos'"),
    ("id-duplicate", nodes_doc(BS0, node(0, "IRS", [5, 0, 0])), "duplicate node id 0"),
    ("pos-short", nodes_doc(BS0, node(1, "IRS", [5, 0])), "node 1 position must be a 3-vector"),
    ("pos-object", nodes_doc(BS0, node(1, "IRS", {"x": 5})),
     "node 1 position must be a 3-vector"),
    ("id-gap", nodes_doc(BS0, node(2, "IRS", [5, 0, 0])),
     "node ids must be consecutive from 0, got [0, 2]"),
    ("kind-unknown", nodes_doc(BS0, node(1, "Tower", [5, 0, 0])), "unknown node kind 'Tower'"),
    ("bs-not-first", nodes_doc(node(0, "IRS", [0, 0, 0]), node(1, "BS", [5, 0, 0])),
     "scene must contain exactly one BS at index 0"),
    ("bs-twice", nodes_doc(BS0, node(1, "BS", [5, 0, 0])),
     "scene must contain exactly one BS at index 0"),
    ("kind-order", nodes_doc(BS0, node(1, "User", [5, 0, 0]), node(2, "IRS", [10, 0, 0])),
     "nodes must be ordered BS, IRS..., User..."),
    ("pos-inf", nodes_doc(BS0, node(1, "IRS", [5, 0, math.inf])),
     "node 1 has invalid position [5.0, 0.0, inf]"),
    ("pos-null", nodes_doc(BS0, node(1, "IRS", [None, 0, 0])),
     "node 1 has invalid position [nan, 0.0, 0.0]"),
    ("far-field", nodes_doc(BS0, node(1, "IRS", [2, 0, 0])),
     "far-field violation: nodes 0 and 1 are 2.000 m apart, below d0 = 3.0 m"),
    ("beta", json.dumps({"params": {"beta": 1.5}, "nodes": [BS0]}),
     "invalid path gain: ref_path_gain must lie in (0, 1), got 1.5"),
    ("dA", json.dumps({"params": {"dA": 0}, "nodes": [BS0]}), "antenna_spacing must be positive"),
    ("dI", json.dumps({"params": {"dI": -0.5}, "nodes": [BS0]}), "element_spacing must be positive"),
    # the spacings default to lambda / 2, so dA fails before lambda itself
    ("lambda", json.dumps({"params": {"lambda": -1}, "nodes": [BS0]}),
     "antenna_spacing must be positive"),
    ("lambda-only", json.dumps({"params": {"lambda": 0, "dA": 1, "dI": 1}, "nodes": [BS0]}),
     "wavelength must be positive"),
    ("N", json.dumps({"params": {"N": 0}, "nodes": [BS0]}),
     "bs_antennas must be a positive integer, got 0"),
    ("M1", json.dumps({"params": {"M1": 0}, "nodes": [BS0]}),
     "irs_grid must be positive integers, got (0, 20)"),
    ("M1-negative-zero", json.dumps({"params": {"M1": -0.0}, "nodes": [BS0]}),
     "irs_grid must be positive integers, got (0, 20)"),
    ("M2", json.dumps({"params": {"M2": -3}, "nodes": [BS0]}),
     "irs_grid must be positive integers, got (20, -3)"),
    # the grid and the spacings are checked on load, before the scene's own fields
    ("order-grid-before-antennas", json.dumps({"params": {"N": 0, "M1": 0}, "nodes": [BS0]}),
     "irs_grid must be positive integers, got (0, 20)"),
    ("threshold", json.dumps({"params": {"los_threshold": -1}, "nodes": [BS0]}),
     "los_threshold must be nonnegative"),
    ("override-shape", nodes_doc(BS0, IRS1, los_override=[[0]]),
     "los_override must be 2x2, got (1, 1)"),
    ("override-ragged", nodes_doc(BS0, IRS1, los_override=[[0, 1], [1]]),
     "los_override must be a rectangular matrix"),
    ("override-entries", nodes_doc(BS0, IRS1, los_override=[[0, 2], [2, 0]]),
     "los_override entries must be 0 or 1"),
    ("override-asymmetric", nodes_doc(BS0, IRS1, los_override=[[0, 1], [0, 0]]),
     "los_override must be symmetric"),
    ("override-diagonal", nodes_doc(BS0, IRS1, los_override=[[1, 0], [0, 0]]),
     "los_override diagonal must be zero"),
    ("order-duplicate-before-kind",
     nodes_doc(BS0, node(1, "Tower", [5, 0, 0]), node(1, "IRS", [10, 0, 0])),
     "duplicate node id 1"),
    ("order-kind-before-position",
     nodes_doc(BS0, node(1, "User", [5, 0, None]), node(2, "IRS", [10, 0, 0])),
     "nodes must be ordered BS, IRS..., User..."),
    ("order-lowest-bad-position",
     nodes_doc(BS0, IRS1, node(3, "IRS", [15, 0, None]), node(2, "IRS", [10, math.nan, 0])),
     "node 2 has invalid position [10.0, nan, 0.0]"),
    ("order-position-before-far-field",
     nodes_doc(BS0, node(1, "IRS", [1, 0, 0]), node(2, "IRS", [10, 0, None])),
     "node 2 has invalid position [10.0, 0.0, nan]"),
]


@pytest.mark.parametrize(
    "text, message", [row[1:] for row in DOCUMENT_ERRORS], ids=[row[0] for row in DOCUMENT_ERRORS]
)
def test_document_error_messages(text, message):
    with pytest.raises(SceneError) as exc:
        load_scene(text)
    assert str(exc.value) == message


# Node entries whose id or position entries are not numbers; each is
# named in the error.
MALFORMED_ENTRIES = [
    (node(1, "IRS", [{}, 0, 0]), "node 1 position entries must be numbers, got [{}, 0, 0]"),
    (node(1, "IRS", [[1], 0, 0]), "node 1 position entries must be numbers, got [[1], 0, 0]"),
    (node(1, "IRS", ["5", 0, 0]), "node 1 position entries must be numbers, got ['5', 0, 0]"),
    (node(1, "IRS", [True, 5, 0]),
     "node 1 position entries must be numbers, got [True, 5, 0]"),
    (node("1", "IRS", [5, 0, 0]),
     "malformed node entry {'id': '1', 'kind': 'IRS', 'pos': [5, 0, 0]}: id must be a number"),
    (node([1], "IRS", [5, 0, 0]),
     "malformed node entry {'id': [1], 'kind': 'IRS', 'pos': [5, 0, 0]}: id must be a number"),
    (node(True, "IRS", [5, 0, 0]),
     "malformed node entry {'id': True, 'kind': 'IRS', 'pos': [5, 0, 0]}: id must be a number"),
    (node(None, "IRS", [5, 0, 0]),
     "malformed node entry {'id': None, 'kind': 'IRS', 'pos': [5, 0, 0]}: id must be a number"),
]


@pytest.mark.parametrize("entry, message", MALFORMED_ENTRIES)
def test_malformed_node_entries_are_named(entry, message):
    with pytest.raises(SceneError) as exc:
        load_scene(nodes_doc(BS0, entry))
    assert str(exc.value) == message


def test_integral_float_ids_load():
    scene = load_scene(nodes_doc(node(0.0, "BS", [0, 0, 0]), node(1.0, "IRS", [5, 0, 0])))
    assert scene.num_irs == 1 and scene.num_users == 0
    assert np.array_equal(scene.positions, [[0, 0, 0], [5, 0, 0]])


class TestLoadScene:
    def test_round_trip_counts(self):
        scene = load_scene(small_doc())
        assert scene.num_irs == 4
        assert scene.num_users == 2
        assert scene.num_nodes == 7
        assert scene.kind(0) == "BS"
        assert scene.user_vertex(1) == 5
        assert scene.user_vertex(2) == 6

    def test_default_params(self):
        scene = load_scene(small_doc())
        assert scene.bs_antennas == 20
        assert scene.elements == 400
        assert scene.ref_path_gain == pytest.approx(BETA_5GHZ, rel=1e-12)
        assert scene.los_threshold == DEFAULT_LOS_THRESHOLD
        assert scene.min_far_field == 3.0

    def test_beta_follows_wavelength(self):
        scene = load_scene(small_doc(**{"lambda": 0.12}))
        assert scene.ref_path_gain == pytest.approx((0.12 / (4 * math.pi)) ** 2, rel=1e-12)

    def test_explicit_params(self):
        scene = load_scene(small_doc(N=8, M1=4, M2=8, los_threshold=20.0))
        assert scene.bs_antennas == 8
        assert scene.elements == 32
        assert scene.los_threshold == 20.0

    def test_non_integral_counts_rejected(self):
        for key, value in (("N", 20.5), ("M1", 2.7), ("M2", 0.5), ("N", math.inf)):
            with pytest.raises(SceneError, match=rf"param '{key}' must be an integer, got {value}"):
                load_scene(small_doc(**{key: value}))
        scene = load_scene(small_doc(N=20.0, M1=4.0, M2=8.0))
        assert type(scene.bs_antennas) is int and scene.bs_antennas == 20
        assert type(scene.elements) is int and scene.elements == 32

    def test_malformed_json(self):
        with pytest.raises(SceneError, match="malformed"):
            load_scene("{nope")

    def test_duplicate_ids(self):
        nodes = [
            {"id": 0, "kind": "BS", "pos": [0, 0, 0]},
            {"id": 0, "kind": "IRS", "pos": [5, 0, 0]},
        ]
        with pytest.raises(SceneError, match="duplicate"):
            load_scene(doc_text(nodes))

    def test_bad_kind_order(self):
        nodes = [
            {"id": 0, "kind": "BS", "pos": [0, 0, 0]},
            {"id": 1, "kind": "User", "pos": [5, 0, 0]},
            {"id": 2, "kind": "IRS", "pos": [10, 0, 0]},
        ]
        with pytest.raises(SceneError, match="ordered"):
            load_scene(doc_text(nodes))

    def test_unknown_kind(self):
        nodes = [{"id": 0, "kind": "Tower", "pos": [0, 0, 0]}]
        with pytest.raises(SceneError, match="kind"):
            load_scene(doc_text(nodes))

    def test_far_field_violation(self):
        nodes = [
            {"id": 0, "kind": "BS", "pos": [0, 0, 0]},
            {"id": 1, "kind": "IRS", "pos": [2.0, 0, 0]},
        ]
        with pytest.raises(SceneError, match="far-field violation"):
            load_scene(doc_text(nodes))

    def test_far_field_names_first_pair_in_row_order(self):
        # pair (1, 2) is closer and has the smaller column, but (0, 3)
        # comes first in row-major i < k order
        positions = [[0, 0, 0], [10, 0, 0], [11, 0, 0], [0, 2, 0]]
        with pytest.raises(SceneError, match="nodes 0 and 3 are 2.000 m apart"):
            make_scene(positions, 2, 1)

    def test_invalid_position_names_first_bad_node(self):
        for bad in ([20, math.nan, 0], [20, 0, math.inf]):
            positions = np.array([[0, 0, 0], [10, 0, 0], bad, [30, 0, math.nan]])
            with pytest.raises(SceneError, match="node 2 has invalid position"):
                Scene(positions, 2, 1)

    def test_positions_must_match_counts(self):
        positions = np.array([[0, 0, 0], [10, 0, 0], [20, 0, 0]])
        for num_irs, num_users in ((1, 0), (2, 1), (0, 1)):
            if 1 + num_irs + num_users == 3:
                continue
            with pytest.raises(SceneError, match=r"positions must be \dx3"):
                Scene(positions, num_irs, num_users)
        with pytest.raises(SceneError, match="got shape \\(3, 2\\)"):
            Scene(positions[:, :2], 1, 1)
        for counts in ((True, 1), (1, -1), (1.0, 1), (1, np.int64(1))):
            with pytest.raises(SceneError, match="num_irs and num_users"):
                Scene(positions, *counts)
        scene = Scene(positions, 1, 1)
        assert [scene.kind(i) for i in range(3)] == ["BS", "IRS", "User"]
        assert scene.user_vertex(1) == 2

    def test_direct_construction_copies_positions(self):
        # an ndarray or nested lists of any numbers become float 3-tuples
        positions = np.array([[0.0, 0, 0], [5, 0, 0]])
        for given in (positions, positions.tolist(), [[0, 0, 0], (5, 0, 0)]):
            scene = Scene(given, 1, 0)
            assert scene.positions == ((0.0, 0.0, 0.0), (5.0, 0.0, 0.0))
            assert {type(x) for p in scene.positions for x in p} == {float}
        assert positions.flags.writeable

    def test_invalid_path_gain(self):
        with pytest.raises(SceneError, match="invalid path gain"):
            load_scene(small_doc(beta=1.5))
        with pytest.raises(SceneError, match="invalid path gain"):
            load_scene(small_doc(beta=0.0))

    def test_nonpositive_params(self):
        with pytest.raises(SceneError):
            load_scene(small_doc(dA=0.0))
        with pytest.raises(SceneError):
            load_scene(small_doc(N=0))
        with pytest.raises(SceneError):
            load_scene(small_doc(M1=-2))
        # json.loads parses NaN, which compares false against any bound
        for threshold in (-1.0, math.nan):
            with pytest.raises(SceneError, match="los_threshold must be nonnegative"):
                load_scene(small_doc(los_threshold=threshold))

    def test_unknown_param_rejected(self):
        with pytest.raises(SceneError, match="unknown param"):
            load_scene(small_doc(los_thresh=5.0))

    def test_missing_position_component(self):
        nodes = [{"id": 0, "kind": "BS", "pos": [0, 0]}]
        with pytest.raises(SceneError, match="3-vector"):
            load_scene(doc_text(nodes))


class TestDistance:
    def test_three_four_five(self):
        scene = make_scene([[0, 0, 0], [3, 4, 0]], 1, 0)
        assert scene.distance(0, 1) == 5.0

    def test_frozen_13(self):
        scene = make_scene([[1, 1, 1], [4, 5, 13]], 1, 0)
        assert scene.distance(0, 1) == 13.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(0, 30, size=(6, 3))
        while True:
            d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
            np.fill_diagonal(d, 99.0)
            if d.min() >= 3.0:
                break
            pos = rng.uniform(0, 30, size=(6, 3))
        scene = make_scene(pos, 4, 1)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert scene.distance(i, j) == scene.distance(j, i)

    def test_same_node_error(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        with pytest.raises(SceneError):
            scene.distance(1, 1)

    def test_matrix_bits_match_broadcast_formula(self):
        # the (n, n, 3) broadcast with a sum over the last axis, pair by pair
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            pos = 10.0 ** rng.uniform(-3, 4, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
            scene = Scene(pos, n - 1, 0, min_far_field=1e-9)
            diff = pos[:, None, :] - pos[None, :, :]
            want = np.sqrt((diff**2).sum(axis=2))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert scene.distance(i, j).hex() == float(want[i, j]).hex()

    def test_far_field_sweep_matches_brute_force(self):
        # the scene's x-sorted sweep against every pair of the broadcast:
        # x coordinates shared and x gaps of exactly d0 (a d0 / 2
        # lattice), several violating pairs, coordinates near 1e200 whose
        # squares overflow, and a d0 so small that squares underflow
        rng = np.random.default_rng(10)
        seen = {"several": 0, "gap_d0": 0, "overflow": 0, "passed": 0}
        for trial in range(400):
            n = int(rng.integers(2, 12))
            d0 = 3e-200 if trial % 4 == 3 else 3.0
            pos = rng.integers(-8, 9, (n, 3)) * (d0 / 2)
            if trial % 4 == 1:
                # a small plane lattice of step d0: pairs exactly d0 (and
                # LoS range) apart along x or y, and no other violation
                pos = rng.integers(-3, 4, (n, 3)) * d0
                pos[:, 2] = 0.0
            if trial % 4 == 2:
                huge = rng.random((n, 3)) < 0.3
                pos[huge] = rng.choice([-1.0, 1.0, 1.5], huge.sum()) * 1e200
            reach = float(rng.choice([0.0, d0, 2.5 * d0]))
            diff = pos[:, None, :] - pos[None, :, :]
            with np.errstate(over="ignore", under="ignore"):
                d = np.sqrt((diff**2).sum(axis=2))
            seen["overflow"] += bool(np.isinf(d).any())
            gaps = np.abs(diff[:, :, 0])
            seen["gap_d0"] += bool((gaps == d0).any())
            close = np.argwhere(np.triu(d < d0, 1))
            seen["several"] += len(close) > 1
            for override in (None, full_los(n)):
                args = (pos, n - 1, 0)
                kw = dict(min_far_field=d0, los_threshold=reach, los_override=override)
                if len(close):
                    i, k = close[0]
                    message = (
                        f"far-field violation: nodes {i} and {k} are "
                        f"{d[i, k]:.3f} m apart, below d0 = {d0} m"
                    )
                    with pytest.raises(SceneError) as exc:
                        Scene(*args, **kw)
                    assert str(exc.value) == message
                    continue
                scene = Scene(*args, **kw)
                los = full_los(n) if override is not None else d <= reach
                assert scene.los_masks == tuple(
                    sum(1 << j for j in range(n) if j == i or los[i, j]) for i in range(n)
                )
                seen["passed"] += 1
        assert min(seen.values()) >= 20, seen


class TestLos:
    def test_threshold_rule(self):
        scene = make_scene([[0, 0, 0], [6.4, 0, 0], [0, 6.5, 0]], 2, 0)
        assert scene.los_indicator(0, 1) is True  # boundary counts as LoS
        assert scene.los_indicator(0, 2) is False

    def test_symmetric_and_irreflexive(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0], [5, 5, 0], [0, 5, 0]], 3, 0)
        for i in range(4):
            assert scene.los_indicator(i, i) is False
            for j in range(4):
                assert scene.los_indicator(i, j) == scene.los_indicator(j, i)

    def test_override_wins(self):
        override = np.zeros((3, 3), dtype=int)
        override[0, 1] = override[1, 0] = 1
        scene = make_scene(
            [[0, 0, 0], [100, 0, 0], [0, 4, 0]], 2, 0, los_override=override
        )
        assert scene.los_indicator(0, 1) is True   # far apart, forced on
        assert scene.los_indicator(0, 2) is False  # close, forced off

    def test_override_validation(self):
        bad_shape = np.zeros((2, 2), dtype=int)
        with pytest.raises(SceneError, match="los_override"):
            make_scene([[0, 0, 0], [5, 0, 0], [9, 0, 0]], 2, 0, los_override=bad_shape)
        asym = np.zeros((3, 3), dtype=int)
        asym[0, 1] = 1
        with pytest.raises(SceneError, match="symmetric"):
            make_scene([[0, 0, 0], [5, 0, 0], [9, 0, 0]], 2, 0, los_override=asym)
        diag = full_los(3)
        diag[1, 1] = 1
        with pytest.raises(SceneError, match="diagonal"):
            make_scene([[0, 0, 0], [5, 0, 0], [9, 0, 0]], 2, 0, los_override=diag)


class TestLinkGeometry:
    def test_straight_up(self):
        scene = make_scene([[0, 0, 0], [0, 0, 5]], 1, 0)
        assert direction(scene, 0, 1)[1] == pytest.approx(0.0, abs=1e-15)
        assert direction(scene, 1, 0)[1] == pytest.approx(math.pi, abs=1e-12)
        assert scene.distance(0, 1) == 5.0

    def test_along_x(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        azimuth, elevation = direction(scene, 0, 1)
        assert elevation == pytest.approx(math.pi / 2, rel=1e-15)
        assert azimuth == 0.0

    def test_frozen_azimuth(self):
        scene = make_scene([[0, 0, 0], [3, 4, 0]], 1, 0)
        assert direction(scene, 0, 1)[0] == pytest.approx(0.9272952180016123, rel=1e-14)

    def test_bs_aod_convention(self):
        # broadside +y gives aod 0; along the +x array axis gives pi/2
        scene = make_scene([[0, 0, 0], [0, 5, 0], [5, 0, 0]], 2, 0)
        assert bs_aod(scene, 1) == pytest.approx(0.0, abs=1e-15)
        assert bs_aod(scene, 2) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_direction_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pos = rng.uniform(-20, 20, size=(2, 3))
            if np.linalg.norm(pos[0] - pos[1]) < 3.0:
                continue
            scene = make_scene(pos, 1, 0)
            delta = pos[1] - pos[0]
            unit = delta / np.linalg.norm(delta)
            rebuilt = direction_from_angles(*direction(scene, 0, 1))
            assert np.allclose(rebuilt, unit, atol=1e-12)
            back = direction_from_angles(*direction(scene, 1, 0))
            assert np.allclose(back, -unit, atol=1e-12)

    def test_reverse_direction_is_negated_delta(self):
        # the arrival angles of i -> j are the departure angles of j -> i,
        # bit for bit
        rng = np.random.default_rng(5)
        for pos in rng.uniform(-50, 50, size=(2000, 2, 3)):
            if np.linalg.norm(pos[0] - pos[1]) < 3.0:
                continue
            scene = make_scene(pos, 1, 0)
            assert direction(scene, 1, 0) == _angles(-(pos[1] - pos[0]))

    def test_same_node_error(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        with pytest.raises(SceneError):
            direction(scene, 0, 0)
        with pytest.raises(SceneError):
            bs_aod(scene, 0)


class TestDerivedScenes:
    def test_with_antennas(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        assert scene.with_antennas(7).bs_antennas == 7
        with pytest.raises(SceneError):
            scene.with_antennas(0)

    def test_copies_share_los_caches(self):
        positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0], [15, 0, 0]]
        for override in (None, full_los(4)):
            scene = make_scene(positions, 2, 1, los_override=override)
            for rescaled in (scene.with_elements(9), scene.with_antennas(7)):
                assert rescaled.los_masks is scene.los_masks
                assert rescaled.topology is scene.topology
            assert scene.with_elements(9).with_antennas(7).los_masks is scene.los_masks

    def test_original_unchanged(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        scene.with_elements(9)
        assert scene.elements == 400

    @staticmethod
    def assert_same_value(got, want):
        """Equal values, and dataclasses (the routing topology) field by
        field."""
        if is_dataclass(want):
            assert type(got) is type(want)
            for f in fields(want):
                TestDerivedScenes.assert_same_value(getattr(got, f.name), getattr(want, f.name))
        else:
            assert got == want

    def test_with_elements_matches_fresh_scene(self):
        positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0], [5, 6, 0], [15, 0, 0], [15, 6, 0]]
        cached = [n for n, v in vars(Scene).items() if isinstance(v, cached_property)]
        assert cached == ["topology"]
        for override in (None, full_los(6)):
            scene = make_scene(positions, 3, 2, los_override=override)
            before = {f.name: getattr(scene, f.name) for f in fields(Scene)}
            for m in (1, 13, 200):
                scaled = scene.with_elements(m)
                fresh = make_scene(positions, 3, 2, los_override=override, elements=m)
                assert scaled.elements == fresh.elements == m
                for f in fields(Scene):
                    if f.name != "elements":
                        assert getattr(scaled, f.name) is getattr(scene, f.name)
                for name in cached:
                    self.assert_same_value(getattr(scaled, name), getattr(fresh, name))
            assert {f.name: getattr(scene, f.name) for f in fields(Scene)} == before
            assert scene.elements == 400

    def test_with_antennas_matches_fresh_scene(self):
        positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0], [5, 6, 0], [15, 0, 0], [15, 6, 0]]
        cached = [n for n, v in vars(Scene).items() if isinstance(v, cached_property)]
        for override in (None, full_los(6)):
            scene = make_scene(positions, 3, 2, los_override=override)
            scene.topology  # fill the cache the copy should share
            before = {f.name: getattr(scene, f.name) for f in fields(Scene)}
            for n in (1, 7, 64):
                scaled = scene.with_antennas(n)
                fresh = make_scene(positions, 3, 2, los_override=override, bs_antennas=n)
                assert scaled.bs_antennas == fresh.bs_antennas == n
                for f in fields(Scene):
                    if f.name != "bs_antennas":
                        assert getattr(scaled, f.name) is getattr(scene, f.name)
                for name in cached:
                    # shared, not recomputed
                    assert getattr(scaled, name) is getattr(scene, name)
                    self.assert_same_value(getattr(scaled, name), getattr(fresh, name))
            assert {f.name: getattr(scene, f.name) for f in fields(Scene)} == before
        for bad in (0, -3):
            with pytest.raises(SceneError, match="positive"):
                scene.with_antennas(bad)
        for bad in (2.5, 4.0, np.int64(4)):
            with pytest.raises(SceneError, match="bs_antennas"):
                scene.with_antennas(bad)

    def test_with_elements_rejects_non_int_grid(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        with pytest.raises(SceneError, match="elements must be a positive integer"):
            scene.with_elements(np.int64(6))

    def test_one_count_check_for_both_sizes(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        for bad in (0, -3, 4.0, 2.5, True, np.int64(4), "4"):
            with pytest.raises(SceneError, match="^elements must be a positive integer"):
                scene.with_elements(bad)
            with pytest.raises(SceneError, match="bs_antennas must be a positive integer"):
                scene.with_antennas(bad)
        assert scene.with_elements(1).elements == 1
        assert scene.with_antennas(1).bs_antennas == 1

    def test_bool_element_count_rejected(self):
        for bad in (True, False):
            with pytest.raises(SceneError, match="elements must be a positive integer"):
                make_scene([[0, 0, 0], [5, 0, 0]], 1, 0, elements=bad)


class TestImmutability:
    def test_positions_read_only(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        with pytest.raises(TypeError):
            scene.positions[0] = (1.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            scene.positions[0][0] = 1.0

    def test_frozen_dataclass(self):
        scene = make_scene([[0, 0, 0], [5, 0, 0]], 1, 0)
        with pytest.raises(AttributeError):
            scene.elements = 16
