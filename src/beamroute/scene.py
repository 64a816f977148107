"""Scene model: node positions, line-of-sight structure and array sizes.

A scene holds one base station (vertex 0), J reflecting surfaces
(vertices 1..J) and K users (vertices J+1..J+K), together with the
constants that routing and the closed-form power read: N, M, beta and
the LoS rule.  LoS has one form, an int bitmask per node
(``Scene.los_masks``), built on construction from the override matrix
or from the distance rule.  Distances are plain floats, computed from
the positions when asked for.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import TYPE_CHECKING

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

# The far-field sweep's least radius: the square of a smaller coordinate
# gap could underflow, and the computed distance fall below the gap.
_SWEEP_FLOOR = 1e-150

# LoS override entries as ASCII digits; 1, True and 1.0 are one key
_DIGITS = {0: 48, 1: 49}


class SceneError(ValueError):
    """Raised for malformed or physically inconsistent scene documents."""


def _check_count(name: str, value) -> None:
    """Raise unless value is a non-bool int of at least 1."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise SceneError(f"{name} must be a positive integer, got {value!r}")


def _distance(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    # the squares add in coordinate order, so both directions give one float
    dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _override_masks(override, n: int) -> tuple[int, ...]:
    """Closed LoS neighbourhoods from an n x n symmetric 0/1 matrix.

    Row i becomes an int whose bit j is entry (i, j); then bit i is set.
    An entry may be 0 or 1 as an int, a bool or a float, in lists,
    tuples or an ndarray.  One pass turns every entry, row-major, into
    an ASCII digit; the symmetry and diagonal checks compare strides of
    those bytes, and one base-2 int of them, reversed so that entry
    (i, j) is bit i*n + j, holds every row.  The checks run in the order
    rectangular, shape, entries, symmetric, diagonal.
    """
    try:
        rows = [tuple(row) for row in override]
    except TypeError:
        raise SceneError("los_override must be a rectangular matrix") from None
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise SceneError("los_override must be a rectangular matrix")
    shape = (len(rows), *widths)
    if shape != (n, n):
        raise SceneError(f"los_override must be {n}x{n}, got {shape}")
    try:
        flat = bytes(map(_DIGITS.__getitem__, chain.from_iterable(rows)))
    except (KeyError, TypeError):
        raise SceneError("los_override entries must be 0 or 1") from None
    # the columns read in turn must give the rows
    if b"".join([flat[i::n] for i in range(n)]) != flat:
        raise SceneError("los_override must be symmetric")
    if b"1" in flat[:: n + 1]:
        raise SceneError("los_override diagonal must be zero")
    # base 2 is exempt from the int-string digit limit, so any n converts
    bits = int(flat[::-1], 2)
    full_row = (1 << n) - 1
    return tuple(bits >> i * n & full_row | 1 << i for i in range(n))


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable node layout plus physical constants.

    ``positions`` holds node i's (x, y, z) at index i: the BS first,
    surfaces 1..num_irs, then the users.  Any sequence of 3-vectors,
    an ndarray included, is accepted and kept as a tuple of float
    3-tuples.  ``ref_path_gain`` is the channel power gain at 1 m
    reference distance and must lie strictly inside (0, 1).

    ``los_override``, a symmetric 0/1 matrix with a zero diagonal, sets
    the LoS pairs; its entries may be ints, bools or floats, its rows
    lists, tuples or an ndarray's, all read by one conversion.  Without
    it (None), nodes at most ``los_threshold`` apart have LoS.  Either
    way the LoS is read as ``los_masks``; the matrix is kept as given.
    """

    positions: Sequence[Sequence[float]]
    num_irs: int
    num_users: int
    bs_antennas: int = DEFAULT_BS_ANTENNAS
    elements: int = DEFAULT_IRS_SIDE**2
    ref_path_gain: float = (DEFAULT_WAVELENGTH / (4 * math.pi)) ** 2
    los_threshold: float = DEFAULT_LOS_THRESHOLD
    min_far_field: float = DEFAULT_MIN_FAR_FIELD
    los_override: Sequence[Sequence[int]] | None = field(default=None, repr=False)
    # Closed LoS neighbourhood of every node as an int bitmask: bit j of
    # entry i is set when j == i or nodes i and j have LoS.
    los_masks: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = (self.num_irs, self.num_users)
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts):
            raise SceneError(f"num_irs and num_users must be nonnegative integers, got {counts}")
        n = 1 + sum(counts)
        pos = tuple(tuple(map(float, p)) for p in self.positions)
        # (rows, width), an array's shape, for a rectangular input
        shape = (len(pos), *{len(p) for p in pos})
        if shape != (n, 3):
            raise SceneError(
                f"positions must be {n}x3 for one BS, {counts[0]} surfaces "
                f"and {counts[1]} users, got shape {shape}"
            )
        if not all(map(math.isfinite, chain.from_iterable(pos))):
            i = next(i for i, p in enumerate(pos) if not all(map(math.isfinite, p)))
            raise SceneError(f"node {i} has invalid position {list(pos[i])}")
        # Every pair's gaps lie within the spans, and subtracting,
        # squaring and adding are monotone in floats, so a finite sum of
        # the squared spans keeps every _distance finite.
        spans = [max(axis) - min(axis) for axis in zip(*pos)]
        if not math.isfinite(spans[0] * spans[0] + spans[1] * spans[1] + spans[2] * spans[2]):
            raise SceneError(
                f"node positions span {spans} m per axis: "
                "their squared distances overflow a float"
            )
        object.__setattr__(self, "positions", pos)

        _check_count("bs_antennas", self.bs_antennas)
        _check_count("elements", self.elements)
        d0, reach = self.min_far_field, self.los_threshold
        if not d0 > 0:
            raise SceneError("min_far_field must be positive")
        if not reach >= 0:
            raise SceneError("los_threshold must be nonnegative")
        if not 0.0 < self.ref_path_gain < 1.0:
            raise SceneError(
                f"invalid path gain: ref_path_gain must lie in (0, 1), got {self.ref_path_gain}"
            )

        # One sweep over the nodes in x order finds the pairs closer than
        # d0 and, without an override, those within the LoS range.  It
        # stops a node's walk at the first x gap above the radius and
        # skips a pair whose y gap is above it: such a pair is farther
        # apart than the radius, since sqrt(dx*dx) rounds back to |dx|
        # and the other squares only add.
        radius = max(d0, reach if self.los_override is None else 0.0, _SWEEP_FLOOR)
        masks = [1 << i for i in range(n)]
        close = []
        by_x = sorted((*p, i) for i, p in enumerate(pos))
        for a, (x, y, _, i) in enumerate(by_x):
            for xk, yk, _, k in islice(by_x, a + 1, None):
                if xk - x > radius:
                    break
                if abs(yk - y) > radius:
                    continue
                d = _distance(pos[i], pos[k])
                if d < d0:
                    close.append((min(i, k), max(i, k), d))
                if d <= reach:
                    masks[i] |= 1 << k
                    masks[k] |= 1 << i
        if close:
            # the first pair i < k in row-major order
            i, k, d = min(close)
            raise SceneError(
                f"far-field violation: nodes {i} and {k} are "
                f"{d:.3f} m apart, below d0 = {d0} m"
            )
        if self.los_override is not None:
            masks = _override_masks(self.los_override, n)
        object.__setattr__(self, "los_masks", tuple(masks))

    # -- derived counts ------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    # -- queries -------------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between nodes i and j, in meters.

        The same float for (i, j) and (j, i), bit for bit.
        """
        if i == j:
            raise SceneError(f"distance undefined for identical nodes ({i})")
        return _distance(self.positions[i], self.positions[j])

    def los_indicator(self, i: int, j: int) -> bool:
        """True when nodes i and j have an unblocked line of sight.

        A bit of ``los_masks``: symmetric, false on the diagonal.
        """
        return i != j and self.los_masks[i] >> j & 1 == 1

    @cached_property
    def topology(self) -> RoutingTopology:
        """The routing topology: its edges, their lengths and a vertex order.

        Edges run BS -> LoS surface, surface -> LoS surface strictly
        farther from the BS, and surface -> LoS user, in that order and
        row-major within each block: each row walks the set bits of its
        node's ``los_masks`` entry.  The order is the BS, the surfaces
        nearest the BS first, then the users; every edge runs forward in
        it.  None of it depends on the array sizes, so ``with_elements``
        and ``with_antennas`` copies share one topology, and with it the
        sweep tables it builds on first use.
        """
        from .graph import RoutingTopology  # graph.py imports this module

        pos, masks = self.positions, self.los_masks
        first_user = 1 + self.num_irs
        surfaces = range(1, first_user)
        d_bs = [_distance(pos[0], p) for p in pos[:first_user]]
        # surfaces at equal BS distance share no edge, so their order is free
        near_first = sorted(surfaces, key=d_bs.__getitem__)
        # Per surface, the bits of the surfaces after it in that order:
        # the strictly farther ones, whose edges alone keep the graph
        # acyclic, and any at equal distance.
        later = [0] * first_user
        rest = 0
        for v in reversed(near_first):
            later[v] = rest
            rest |= 1 << v
        every_surface = rest
        edges = [(0, j) for j in _bits(masks[0] & every_surface)]
        edges += [(i, j) for i in surfaces for j in _bits(masks[i] & later[i]) if d_bs[j] > d_bs[i]]
        edges += [(i, j) for i in surfaces for j in _bits(masks[i] >> first_user << first_user)]
        dists = [_distance(pos[i], pos[j]) for i, j in edges]
        order = (0, *near_first, *range(first_user, self.num_nodes))
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

        The copy shares the validated layout, the LoS masks and the
        routing topology, none of which depends on the element count.
        """
        _check_count("elements", elements)
        return self._copy_with("elements", elements)

    def with_antennas(self, antennas: int) -> "Scene":
        """Copy of the scene with a different BS antenna count.

        Like ``with_elements``, the copy shares the validated layout, the
        LoS masks and the routing topology, none of which depends on the
        antenna count.
        """
        _check_count("bs_antennas", antennas)
        return self._copy_with("bs_antennas", antennas)

    def _copy_with(self, name: str, value) -> "Scene":
        """Shallow copy with one size field replaced.

        The routing topology is built first, so the copy and every later
        copy share it with this scene instead of rebuilding it.
        """
        self.topology
        scene = copy.copy(self)
        object.__setattr__(scene, name, value)
        return scene


# -- document I/O ------------------------------------------------------


# json.loads gives exact ints, floats, bools and None: a number is an
# int or a float by type, never a bool; a coordinate may also be null
_NUMBER = frozenset({int, float})
_COORDINATE = _NUMBER | {type(None)}


def _is_number(value) -> bool:
    return type(value) in _NUMBER


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
    except RecursionError:
        raise SceneError("malformed scene document: nested too deeply") from None
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
        if not _COORDINATE.issuperset(map(type, pos)):
            raise SceneError(f"node {nid} position entries must be numbers, got {pos!r}")
        entries[nid] = (kind, pos)

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
        raise SceneError(f"M1 and M2 must be positive integers, got {grid!r}")
    spacings = (
        ("dA", float(params.get("dA", wavelength / 2))),
        ("dI", float(params.get("dI", wavelength / 2))),
        ("lambda", wavelength),
    )
    for name, value in spacings:
        if not value > 0:
            raise SceneError(f"{name} must be positive")

    positions = [entries[i][1] for i in ids]
    if None in chain.from_iterable(positions):
        # null reads as NaN, which the scene then rejects as non-finite
        positions = [[math.nan if x is None else x for x in p] for p in positions]
    return Scene(
        positions=positions,
        num_irs=num_irs,
        num_users=num_users,
        bs_antennas=int(params.get("N", DEFAULT_BS_ANTENNAS)),
        elements=grid[0] * grid[1],
        ref_path_gain=beta,
        los_threshold=float(params.get("los_threshold", DEFAULT_LOS_THRESHOLD)),
        min_far_field=float(params.get("d0", DEFAULT_MIN_FAR_FIELD)),
        los_override=doc.get("los_override"),
    )


def load_scene_file(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scene(fh.read())

