"""Scene model: node positions, line-of-sight structure and array sizes.

A scene holds one base station (vertex 0), J reflecting surfaces
(vertices 1..J) and K users (vertices J+1..J+K), together with the
constants that routing and the closed-form power read: N, M, beta and
the LoS rule.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graph import RoutingTopology

BS = "BS"
IRS = "IRS"
USER = "User"

_KINDS = (BS, IRS, USER)

_PARAM_KEYS = ("N", "M1", "M2", "dA", "dI", "lambda", "beta", "los_threshold", "d0")

# Carrier defaults: 5 GHz, half-wavelength spacings, isotropic reference
# gain at 1 m, 6.4 m LoS range, 3 m far-field limit, 20 x 20 surfaces.
DEFAULT_WAVELENGTH = 0.06
DEFAULT_LOS_THRESHOLD = 6.4
DEFAULT_MIN_FAR_FIELD = 3.0
DEFAULT_BS_ANTENNAS = 20
DEFAULT_IRS_SIDE = 20


class SceneError(ValueError):
    """Raised for malformed or physically inconsistent scene documents."""


def _check_count(name: str, value) -> None:
    """Raise unless value is a non-bool int of at least 1."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise SceneError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable node layout plus physical constants.

    Row i of ``positions`` is node i: the BS at row 0, surfaces at rows
    1..num_irs, then the users.  The validated copy is read-only.
    ``ref_path_gain`` is the channel power gain at 1 m reference
    distance and must lie strictly inside (0, 1).
    """

    positions: np.ndarray
    num_irs: int
    num_users: int
    bs_antennas: int = DEFAULT_BS_ANTENNAS
    elements: int = DEFAULT_IRS_SIDE**2
    ref_path_gain: float = (DEFAULT_WAVELENGTH / (4 * math.pi)) ** 2
    los_threshold: float = DEFAULT_LOS_THRESHOLD
    min_far_field: float = DEFAULT_MIN_FAR_FIELD
    los_override: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self._validate()

    # -- derived counts ------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        """Pairwise distances in meters, read-only and exactly symmetric."""
        dx, dy, dz = (c[:, None] - c[None, :] for c in self.positions.T)
        # the squares add in coordinate order, like a sum over the last axis
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        d.flags.writeable = False
        return d

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        counts = (self.num_irs, self.num_users)
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts):
            raise SceneError(f"num_irs and num_users must be nonnegative integers, got {counts}")
        n = 1 + sum(counts)
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (n, 3):
            raise SceneError(
                f"positions must be {n}x3 for one BS, {counts[0]} surfaces "
                f"and {counts[1]} users, got shape {pos.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if bad.size:
            raise SceneError(f"node {bad[0]} has invalid position {pos[bad[0]]!r}")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

        _check_count("bs_antennas", self.bs_antennas)
        _check_count("elements", self.elements)
        if not self.min_far_field > 0:
            raise SceneError("min_far_field must be positive")
        if not self.los_threshold >= 0:
            raise SceneError("los_threshold must be nonnegative")
        if not 0.0 < self.ref_path_gain < 1.0:
            raise SceneError(
                f"invalid path gain: ref_path_gain must lie in (0, 1), got {self.ref_path_gain}"
            )

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
            # the validated override holds only 0 and 1
            los = self.los_override.view(bool)
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

    @cached_property
    def topology(self) -> RoutingTopology:
        """The routing topology: its edges, their lengths and a vertex order.

        Edges run BS -> LoS surface, surface -> LoS surface strictly
        farther from the BS, and surface -> LoS user, in that order and
        row-major within each block.  The order is the BS, the surfaces
        nearest the BS first, then the users; every edge runs forward in
        it.  None of it depends on the array sizes, so ``with_elements``
        and ``with_antennas`` copies share one topology, and with it the
        sweep tables it builds on first use.
        """
        from .graph import RoutingTopology  # graph.py imports this module

        j_count = self.num_irs
        los = self.los_matrix
        d = self.dist_matrix
        surfaces = slice(1, 1 + j_count)
        d_bs = d[0, surfaces]
        # (first row id, first column id, LoS block), edges in row-major order
        blocks = (
            (0, 1, los[:1, surfaces]),
            # only edges leading strictly away from the BS keep the graph acyclic
            (1, 1, los[surfaces, surfaces] & (d_bs[None, :] > d_bs[:, None])),
            (1, 1 + j_count, los[surfaces, 1 + j_count :]),
        )
        edges, dists = [], []
        for row0, col0, block in blocks:
            rows, cols = np.nonzero(block)
            rows, cols = rows + row0, cols + col0
            edges += zip(rows.tolist(), cols.tolist())
            dists += d[rows, cols].tolist()
        # surfaces at equal BS distance share no edge, so their order is free
        near_first = sorted(range(1, 1 + j_count), key=d[0].tolist().__getitem__)
        order = (0, *near_first, *range(1 + j_count, self.num_nodes))
        return RoutingTopology(self.num_irs, self.num_users, tuple(edges), order, tuple(dists))

    def kind(self, i: int) -> str:
        return _KINDS[(i > 0) + (i > self.num_irs)]

    def user_vertex(self, k: int) -> int:
        """Vertex id of user k (1-based)."""
        if not 1 <= k <= self.num_users:
            raise SceneError(f"user index {k} out of range 1..{self.num_users}")
        return self.num_irs + k

    # -- derived scenes ------------------------------------------------

    def with_elements(self, elements: int) -> "Scene":
        """Copy of the scene with a different per-surface element count M.

        The copy shares the validated layout and its cached geometry,
        none of which depends on the element count.
        """
        _check_count("irs_grid element count", elements)
        return self._copy_with("elements", elements)

    def with_antennas(self, antennas: int) -> "Scene":
        """Copy of the scene with a different BS antenna count.

        Like ``with_elements``, the copy shares the validated layout and
        its cached geometry, none of which depends on the antenna count.
        """
        _check_count("bs_antennas", antennas)
        return self._copy_with("bs_antennas", antennas)

    def _copy_with(self, name: str, value) -> "Scene":
        """Shallow copy with one size field replaced.

        The LoS caches and the routing topology are filled first, so the
        copy and every later copy share them with this scene instead of
        rebuilding them.
        """
        self.los_masks  # fills los_matrix too
        self.topology
        scene = copy.copy(self)
        object.__setattr__(scene, name, value)
        return scene


# -- document I/O ------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(key: str, value) -> None:
    if not _is_number(value):
        raise SceneError(f"param {key!r} must be a number, got {value!r}")
    # counts of antennas and elements
    if key in ("N", "M1", "M2") and isinstance(value, float) and not value.is_integer():
        raise SceneError(f"param {key!r} must be an integer, got {value!r}")


def load_scene(text: str) -> Scene:
    """Parse and validate a JSON scene document.

    The document carries ``params`` (all optional, defaults above),
    ``nodes`` with ids, kinds and 3-D positions, and an optional
    symmetric ``los_override`` 0/1 matrix.  The grid ``M1`` x ``M2``
    is kept as its product M.  The closed form reads neither the
    spacings ``dA`` and ``dI`` nor the wavelength ``lambda``: they are
    checked but not kept, and ``lambda`` sets the default ``beta``.
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
    entries = {}
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise SceneError(f"malformed node entry {entry!r}")
        try:
            nid, kind, pos = entry["id"], entry["kind"], entry["pos"]
        except KeyError as exc:
            raise SceneError(f"node entry missing key {exc}") from exc
        if not _is_number(nid):
            raise SceneError(f"malformed node entry {entry!r}: id must be a number")
        if nid in entries:
            raise SceneError(f"duplicate node id {nid}")
        if not isinstance(pos, list) or len(pos) != 3:
            raise SceneError(f"node {nid} position must be a 3-vector")
        # null reads as NaN, which the scene then rejects as non-finite
        if not all(x is None or _is_number(x) for x in pos):
            raise SceneError(f"node {nid} position entries must be numbers, got {pos!r}")
        entries[nid] = (kind, pos)

    override = doc.get("los_override")
    if override is not None:
        try:
            override = np.asarray(override)
        except ValueError:  # ragged rows
            raise SceneError("los_override must be a rectangular matrix") from None

    ids = sorted(entries)
    if ids != list(range(len(ids))):
        raise SceneError(f"node ids must be consecutive from 0, got {ids}")
    kinds = [entries[i][0] for i in ids]
    for k in kinds:
        if k not in _KINDS:
            raise SceneError(f"unknown node kind {k!r}")
    if kinds[0] != BS or kinds.count(BS) != 1:
        raise SceneError("scene must contain exactly one BS at index 0")
    num_irs = kinds.count(IRS)
    num_users = len(kinds) - 1 - num_irs
    if kinds != [BS] + [IRS] * num_irs + [USER] * num_users:
        raise SceneError("nodes must be ordered BS, IRS..., User...")

    grid = (int(params.get("M1", DEFAULT_IRS_SIDE)), int(params.get("M2", DEFAULT_IRS_SIDE)))
    if min(grid) < 1:
        raise SceneError(f"irs_grid must be positive integers, got {grid!r}")
    spacings = (
        ("antenna_spacing", float(params.get("dA", wavelength / 2))),
        ("element_spacing", float(params.get("dI", wavelength / 2))),
        ("wavelength", wavelength),
    )
    for name, value in spacings:
        if not value > 0:
            raise SceneError(f"{name} must be positive")

    return Scene(
        positions=np.array([entries[i][1] for i in ids], dtype=float),
        num_irs=num_irs,
        num_users=num_users,
        bs_antennas=int(params.get("N", DEFAULT_BS_ANTENNAS)),
        elements=grid[0] * grid[1],
        ref_path_gain=beta,
        los_threshold=float(params.get("los_threshold", DEFAULT_LOS_THRESHOLD)),
        min_far_field=float(params.get("d0", DEFAULT_MIN_FAR_FIELD)),
        los_override=override,
    )


def load_scene_file(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scene(fh.read())

