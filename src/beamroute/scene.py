"""Scene model: node layout, line-of-sight structure, and link geometry.

A scene holds one base station (vertex 0), J reflecting surfaces
(vertices 1..J) and K users (vertices J+1..J+K), together with the
physical constants needed by the channel and routing layers.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

BS = "BS"
IRS = "IRS"
USER = "User"

_KINDS = (BS, IRS, USER)

_PARAM_KEYS = ("N", "M1", "M2", "dA", "dI", "lambda", "beta", "los_threshold", "d0")

# Carrier defaults: 5 GHz, half-wavelength spacings, isotropic reference
# gain at 1 m, 6.4 m LoS range, 3 m far-field limit.
DEFAULT_WAVELENGTH = 0.06
DEFAULT_LOS_THRESHOLD = 6.4
DEFAULT_MIN_FAR_FIELD = 3.0
DEFAULT_BS_ANTENNAS = 20
DEFAULT_IRS_GRID = (20, 20)


class SceneError(ValueError):
    """Raised for malformed or physically inconsistent scene documents."""


def _check_grid(grid: tuple[int, int]) -> None:
    m1, m2 = grid
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= 1 and m2 >= 1):
        raise SceneError(f"irs_grid must be positive integers, got {grid!r}")


@dataclass(frozen=True, eq=False)
class Node:
    id: int
    kind: str
    position: np.ndarray

    def __repr__(self) -> str:
        x, y, z = self.position
        return f"Node({self.id}, {self.kind}, [{x:g}, {y:g}, {z:g}])"


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of one directed link i -> j.

    Angles follow a fixed convention: elevation is measured from the
    +z axis (arccos of the z direction cosine), azimuth in the x-y
    plane via atan2(dy, dx).  ``bs_aod`` is the ULA departure angle
    against broadside (+y, elements along +x) and is only set when the
    transmitter is the base station.
    """

    distance: float
    aod_azimuth: float
    aod_elevation: float
    aoa_azimuth: float
    aoa_elevation: float
    bs_aod: float | None = None


def _angles(delta: np.ndarray) -> tuple[float, float]:
    """Azimuth and elevation of a direction vector, in radians."""
    r = float(np.linalg.norm(delta))
    if r == 0.0:
        raise SceneError("zero-length direction vector")
    azimuth = math.atan2(delta[1], delta[0])
    elevation = math.acos(max(-1.0, min(1.0, delta[2] / r)))
    return azimuth, elevation


def direction_from_angles(azimuth: float, elevation: float) -> np.ndarray:
    """Unit vector with the given azimuth/elevation, inverse of _angles."""
    se = math.sin(elevation)
    return np.array(
        [se * math.cos(azimuth), se * math.sin(azimuth), math.cos(elevation)]
    )


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable node layout plus physical constants.

    ``ref_path_gain`` is the channel power gain at 1 m reference
    distance and must lie strictly inside (0, 1).
    """

    nodes: tuple[Node, ...]
    bs_antennas: int = DEFAULT_BS_ANTENNAS
    irs_grid: tuple[int, int] = DEFAULT_IRS_GRID
    antenna_spacing: float = DEFAULT_WAVELENGTH / 2
    element_spacing: float = DEFAULT_WAVELENGTH / 2
    wavelength: float = DEFAULT_WAVELENGTH
    ref_path_gain: float = (DEFAULT_WAVELENGTH / (4 * math.pi)) ** 2
    los_threshold: float = DEFAULT_LOS_THRESHOLD
    min_far_field: float = DEFAULT_MIN_FAR_FIELD
    # azimuth of the BS array axis; 0 puts the axis on +x, broadside +y
    bs_axis_azimuth: float = 0.0
    los_override: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self._validate()

    # -- derived counts ------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def num_irs(self) -> int:
        return sum(1 for n in self.nodes if n.kind == IRS)

    @cached_property
    def num_users(self) -> int:
        return sum(1 for n in self.nodes if n.kind == USER)

    @property
    def elements(self) -> int:
        """Total reflecting elements per surface, M1 * M2."""
        return self.irs_grid[0] * self.irs_grid[1]

    @cached_property
    def positions(self) -> np.ndarray:
        pos = np.stack([n.position for n in self.nodes])
        pos.flags.writeable = False
        return pos

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        """Pairwise distances in meters, read-only and exactly symmetric."""
        pos = self.positions
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        d.flags.writeable = False
        return d

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise SceneError("scene has no nodes")
        ids = [n.id for n in self.nodes]
        if ids != list(range(len(self.nodes))):
            raise SceneError(f"node ids must be consecutive from 0, got {ids}")
        kinds = [n.kind for n in self.nodes]
        for k in kinds:
            if k not in _KINDS:
                raise SceneError(f"unknown node kind {k!r}")
        if kinds[0] != BS or kinds.count(BS) != 1:
            raise SceneError("scene must contain exactly one BS at index 0")
        j = self.num_irs
        if kinds[1 : 1 + j] != [IRS] * j or kinds[1 + j :] != [USER] * (
            len(kinds) - 1 - j
        ):
            raise SceneError("nodes must be ordered BS, IRS..., User...")
        pos = [np.asarray(n.position, dtype=float) for n in self.nodes]
        # a misshapen position counts as non-finite, so the first bad node is named
        rows = np.stack([p if p.shape == (3,) else np.full(3, np.nan) for p in pos])
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            i = int(bad[0])  # ids are indices, checked above
            raise SceneError(f"node {i} has invalid position {self.nodes[i].position!r}")
        for node, p in zip(self.nodes, pos):
            object.__setattr__(node, "position", p)

        if not isinstance(self.bs_antennas, int) or self.bs_antennas < 1:
            raise SceneError(f"bs_antennas must be a positive integer, got {self.bs_antennas!r}")
        _check_grid(self.irs_grid)
        for name in ("antenna_spacing", "element_spacing", "wavelength", "min_far_field"):
            if not getattr(self, name) > 0:
                raise SceneError(f"{name} must be positive")
        if not math.isfinite(self.bs_axis_azimuth):
            raise SceneError("bs_axis_azimuth must be finite")
        if not self.los_threshold >= 0:
            raise SceneError("los_threshold must be nonnegative")
        if not 0.0 < self.ref_path_gain < 1.0:
            raise SceneError(
                f"invalid path gain: ref_path_gain must lie in (0, 1), got {self.ref_path_gain}"
            )

        n = self.num_nodes
        d = self.dist_matrix
        # argwhere walks row-major, so this is the first pair i < k in that order
        close = np.argwhere(np.triu(d < self.min_far_field, 1))
        if close.size:
            i, k = (int(x) for x in close[0])
            raise SceneError(
                f"far-field violation: nodes {i} and {k} are "
                f"{d[i, k]:.3f} m apart, below d0 = {self.min_far_field} m"
            )

        if self.los_override is not None:
            m = np.asarray(self.los_override)
            if m.shape != (n, n):
                raise SceneError(f"los_override must be {n}x{n}, got {m.shape}")
            if not np.isin(m, (0, 1)).all():
                raise SceneError("los_override entries must be 0 or 1")
            if (m != m.T).any():
                raise SceneError("los_override must be symmetric")
            if np.diag(m).any():
                raise SceneError("los_override diagonal must be zero")
            m = m.astype(np.int8)
            m.flags.writeable = False
            object.__setattr__(self, "los_override", m)

    # -- queries -------------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between nodes i and j, in meters."""
        if i == j:
            raise SceneError(f"distance undefined for identical nodes ({i})")
        return float(self.dist_matrix[i, j])

    def los_indicator(self, i: int, j: int) -> bool:
        """True when nodes i and j have an unblocked line of sight.

        Uses the override matrix when one was supplied, otherwise the
        distance rule d <= los_threshold.  Symmetric, false on the
        diagonal.
        """
        if i == j:
            return False
        if self.los_override is not None:
            return bool(self.los_override[i, j])
        return bool(self.dist_matrix[i, j] <= self.los_threshold)

    @cached_property
    def los_matrix(self) -> np.ndarray:
        """``los_indicator`` for all pairs at once, as a read-only bool matrix."""
        if self.los_override is not None:
            los = self.los_override.astype(bool)
        else:
            los = self.dist_matrix <= self.los_threshold
            np.fill_diagonal(los, False)
        los.flags.writeable = False
        return los

    @cached_property
    def los_masks(self) -> tuple[int, ...]:
        """Closed LoS neighbourhood of every node as an int bitmask.

        Bit j of entry i is set when j == i or ``los_indicator(i, j)``
        holds.
        """
        los = self.los_matrix | np.eye(self.num_nodes, dtype=bool)
        rows = np.packbits(los, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)

    def link_geometry(self, i: int, j: int) -> LinkGeometry:
        """Distance and departure/arrival angles for the link i -> j."""
        if i == j:
            raise SceneError("link geometry undefined for identical nodes")
        delta = self.nodes[j].position - self.nodes[i].position
        dist = self.distance(i, j)
        aod_az, aod_el = _angles(delta)
        aoa_az, aoa_el = _angles(-delta)
        bs_aod = None
        if self.nodes[i].kind == BS:
            # departure angle from the direction cosine on the array
            # axis; with the default axis azimuth this reads delta_x/d
            axial = delta[0] * math.cos(self.bs_axis_azimuth) + delta[1] * math.sin(
                self.bs_axis_azimuth
            )
            bs_aod = math.asin(max(-1.0, min(1.0, axial / dist)))
        return LinkGeometry(
            distance=dist,
            aod_azimuth=aod_az,
            aod_elevation=aod_el,
            aoa_azimuth=aoa_az,
            aoa_elevation=aoa_el,
            bs_aod=bs_aod,
        )

    def kind(self, i: int) -> str:
        return self.nodes[i].kind

    def user_vertex(self, k: int) -> int:
        """Vertex id of user k (1-based)."""
        if not 1 <= k <= self.num_users:
            raise SceneError(f"user index {k} out of range 1..{self.num_users}")
        return self.num_irs + k

    # -- derived scenes ------------------------------------------------

    def with_elements(self, elements: int) -> "Scene":
        """Copy of the scene with a different per-surface element count.

        The grid is refactored as the most balanced M1 x M2 split of
        the requested total.  The copy shares the validated layout and
        its cached geometry, none of which depends on the element count.
        """
        if elements < 1:
            raise SceneError("element count must be positive")
        m1 = 1
        for cand in range(int(math.isqrt(elements)), 0, -1):
            if elements % cand == 0:
                m1 = cand
                break
        grid = (m1, elements // m1)
        _check_grid(grid)
        scene = copy.copy(self)
        object.__setattr__(scene, "irs_grid", grid)
        return scene

    def with_antennas(self, antennas: int) -> "Scene":
        if antennas < 1:
            raise SceneError("antenna count must be positive")
        return replace(self, bs_antennas=antennas)


# -- document I/O ------------------------------------------------------


def _require_number(key: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SceneError(f"param {key!r} must be a number, got {value!r}")
    # counts of antennas and elements
    if key in ("N", "M1", "M2") and isinstance(value, float) and not value.is_integer():
        raise SceneError(f"param {key!r} must be an integer, got {value!r}")


def load_scene(text: str) -> Scene:
    """Parse and validate a JSON scene document.

    The document carries ``params`` (all optional, defaults above),
    ``nodes`` with ids, kinds and 3-D positions, and an optional
    symmetric ``los_override`` 0/1 matrix.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"malformed scene document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneError("malformed scene document: top level must be an object")

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SceneError("params must be an object")
    for key in params:
        if key not in _PARAM_KEYS:
            raise SceneError(f"unknown param {key!r}")
    for key, value in params.items():
        _require_number(key, value)

    wavelength = float(params.get("lambda", DEFAULT_WAVELENGTH))
    beta = float(params.get("beta", (wavelength / (4 * math.pi)) ** 2))

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SceneError("scene document must list at least one node")
    seen = set()
    nodes = []
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise SceneError(f"malformed node entry {entry!r}")
        try:
            nid = entry["id"]
            kind = entry["kind"]
            pos = entry["pos"]
        except KeyError as exc:
            raise SceneError(f"node entry missing key {exc}") from exc
        if nid in seen:
            raise SceneError(f"duplicate node id {nid}")
        seen.add(nid)
        if not isinstance(pos, (list, tuple)) or len(pos) != 3:
            raise SceneError(f"node {nid} position must be a 3-vector")
        nodes.append(Node(id=nid, kind=kind, position=np.array(pos, dtype=float)))
    nodes.sort(key=lambda n: n.id)

    override = doc.get("los_override")
    if override is not None:
        override = np.asarray(override)

    return Scene(
        nodes=tuple(nodes),
        bs_antennas=int(params.get("N", DEFAULT_BS_ANTENNAS)),
        irs_grid=(
            int(params.get("M1", DEFAULT_IRS_GRID[0])),
            int(params.get("M2", DEFAULT_IRS_GRID[1])),
        ),
        antenna_spacing=float(params.get("dA", wavelength / 2)),
        element_spacing=float(params.get("dI", wavelength / 2)),
        wavelength=wavelength,
        ref_path_gain=beta,
        los_threshold=float(params.get("los_threshold", DEFAULT_LOS_THRESHOLD)),
        min_far_field=float(params.get("d0", DEFAULT_MIN_FAR_FIELD)),
        los_override=override,
    )


def load_scene_file(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scene(fh.read())


def dump_scene_document(
    nodes: list[dict],
    params: dict | None = None,
    los_override: list[list[int]] | None = None,
) -> str:
    """Serialize a scene document with deterministic formatting."""
    doc: dict = {"params": dict(params or {}), "nodes": nodes}
    if los_override is not None:
        doc["los_override"] = los_override
    return json.dumps(doc, indent=2, sort_keys=True)
