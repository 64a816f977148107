"""Matrix-product LoS channel model, the closed form's test reference.

Every link channel is a rank-1 outer product of array responses scaled
by the free-space amplitude sqrt(beta)/d and the propagation phase
e^{-j 2 pi d / lambda}.  With per-element phase alignment at each
surface and maximum ratio transmission at the base station, the end to
end channel power of a route collapses to
``beamroute.channel.closed_form_power``.  This module evaluates the
same power by direct matrix products, from array responses and link
geometry alone, so the tests can check the closed form against it.
Besides the scene it reads an ``ArrayGeometry``: the surfaces' M1 x M2
grid, the spacings and the wavelength, which the closed form and so the
scene never need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from beamroute.graph import Route, validate_route
from beamroute.scene import BS, IRS, USER, Scene, SceneError

TWO_PI = 2 * math.pi


class ChannelError(ValueError):
    """Raised for links or routes the channel model does not define."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Array layout of the matrix-product model.

    ``grid`` is each surface's M1 x M2 element grid; every surface
    response checks that it holds the scene's M elements.  The BS
    antenna and surface element spacings default to half the default
    wavelength.
    """

    grid: tuple[int, int]
    wavelength: float = 0.06
    antenna_spacing: float = 0.03
    element_spacing: float = 0.03


# -- link geometry -----------------------------------------------------


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


def direction(scene: Scene, i: int, j: int) -> tuple[float, float]:
    """Azimuth and elevation of the direction from node i toward node j.

    Elevation is measured from the +z axis (arccos of the z direction
    cosine), azimuth in the x-y plane via atan2(dy, dx).  The arrival
    angles of the link i -> j are ``direction(scene, j, i)``.
    """
    return _angles(scene.positions[j] - scene.positions[i])


def bs_aod(scene: Scene, j: int) -> float:
    """ULA departure angle from the BS toward node j, against broadside.

    The BS array lies on the +x axis with broadside +y, so this is
    asin(dx / d) for the offset (dx, dy, dz) of node j from the BS.
    """
    dx = scene.positions[j][0] - scene.positions[0][0]
    return math.asin(max(-1.0, min(1.0, dx / scene.distance(0, j))))


# -- array responses ---------------------------------------------------


def ula_response(count: int, spacing: float, wavelength: float, aod: float) -> np.ndarray:
    """Uniform linear array response for a departure angle off broadside.

    Entry n (0-based) is e^{-j 2 pi n spacing sin(aod) / wavelength}.
    """
    if count < 1:
        raise ChannelError("antenna count must be positive")
    n = np.arange(count)
    return np.exp(-1j * TWO_PI * n * spacing * math.sin(aod) / wavelength)


def ura_response(
    vert: int,
    horiz: int,
    spacing: float,
    wavelength: float,
    azimuth: float,
    elevation: float,
) -> np.ndarray:
    """Uniform rectangular array response, elements in the x-z plane.

    The array has `vert` rows along z and `horiz` columns along x and
    is indexed column-major: element m (0-based) sits at row m % vert,
    column m // vert.  The column index advances the phase by the x
    direction cosine sin(el) cos(az), the row index by the z direction
    cosine cos(el).
    """
    if vert < 1 or horiz < 1:
        raise ChannelError("array dimensions must be positive")
    m = np.arange(vert * horiz)
    col = m // vert
    row = m - col * vert
    phase = spacing * (col * math.sin(elevation) * math.cos(azimuth) + row * math.cos(elevation))
    return np.exp(-1j * TWO_PI * phase / wavelength)


# -- per-link building blocks ------------------------------------------


def _bs_departure(scene: Scene, arrays: ArrayGeometry, j: int) -> np.ndarray:
    return ula_response(
        scene.bs_antennas, arrays.antenna_spacing, arrays.wavelength, bs_aod(scene, j)
    )


def _irs_response(scene: Scene, arrays: ArrayGeometry, j: int, i: int) -> np.ndarray:
    """Response of surface j toward node i, for waves arriving from or leaving to it."""
    m1, m2 = arrays.grid
    if m1 * m2 != scene.elements:
        raise ChannelError(f"grid {arrays.grid} does not hold the scene's {scene.elements} elements")
    return ura_response(m1, m2, arrays.element_spacing, arrays.wavelength, *direction(scene, j, i))


def _amplitude(scene: Scene, arrays: ArrayGeometry, i: int, j: int) -> complex:
    d = scene.distance(i, j)
    return (
        math.sqrt(scene.ref_path_gain)
        / d
        * np.exp(-1j * TWO_PI * d / arrays.wavelength)
    )


def link_channel(scene: Scene, arrays: ArrayGeometry, i: int, j: int) -> np.ndarray:
    """LoS channel matrix of the link i -> j.

    Shapes: BS->IRS is (M, N), IRS->IRS is (M, M), IRS->user is (1, M).
    Raises when the pair has no LoS or is not one of those kinds.
    """
    if not scene.los_indicator(i, j):
        raise ChannelError(f"no LoS between nodes {i} and {j}")
    ki, kj = scene.kind(i), scene.kind(j)
    amp = _amplitude(scene, arrays, i, j)
    if ki == BS and kj == IRS:
        tx = _bs_departure(scene, arrays, j)
        rx = _irs_response(scene, arrays, j, i)
        return amp * np.outer(rx, tx.conj())
    if ki == IRS and kj == IRS:
        tx = _irs_response(scene, arrays, i, j)
        rx = _irs_response(scene, arrays, j, i)
        return amp * np.outer(rx, tx.conj())
    if ki == IRS and kj == USER:
        tx = _irs_response(scene, arrays, i, j)
        return amp * tx.conj()[None, :]
    raise ChannelError(f"unsupported link kind {ki} -> {kj}")


# -- route-level beamforming -------------------------------------------


def _alignment_pairs(scene: Scene, arrays: ArrayGeometry, route: Route):
    """Incoming and outgoing unit responses at each surface of a route.

    For the first surface the incoming side faces the base station, for
    the last the outgoing side faces the user, inter-surface hops use
    the departure and arrival responses of the hop pair.
    """
    validate_route(scene, route)
    seq = route.vertices
    return [
        (
            seq[n],
            _irs_response(scene, arrays, seq[n], seq[n - 1]),
            _irs_response(scene, arrays, seq[n], seq[n + 1]),
        )
        for n in range(1, route.hops + 1)
    ]


def optimal_phase_shifts(
    scene: Scene, arrays: ArrayGeometry, route: Route
) -> dict[int, np.ndarray]:
    """Per-element phases aligning each surface's reflection to the next hop.

    Returns a map from surface id to a phase vector in [0, 2 pi).  Each
    element's phase is the outgoing response angle minus the incoming
    response angle, which makes all per-surface gains add coherently.
    """
    shifts = {}
    for irs_id, inc, out in _alignment_pairs(scene, arrays, route):
        shifts[irs_id] = np.mod(np.angle(out) - np.angle(inc), TWO_PI)
    return shifts


def hop_gains(
    scene: Scene, arrays: ArrayGeometry, route: Route, shifts: dict[int, np.ndarray]
) -> np.ndarray:
    """Scalar reflection gain at each surface under the given phases.

    With optimal phases every entry has magnitude M.
    """
    out_list = []
    for irs_id, inc, out in _alignment_pairs(scene, arrays, route):
        theta = shifts[irs_id]
        out_list.append(np.sum(out.conj() * np.exp(1j * theta) * inc))
    return np.array(out_list)


def mrt_precoder(scene: Scene, arrays: ArrayGeometry, route: Route) -> np.ndarray:
    """Maximum ratio transmission vector toward the route's first surface.

    Carries the phase 2 pi D / lambda compensating the total route
    length D, so the end to end channel comes out real positive.
    """
    validate_route(scene, route)
    seq = route.vertices
    steer = _bs_departure(scene, arrays, seq[1])
    length = sum(scene.distance(a, b) for a, b in zip(seq[:-1], seq[1:]))
    phi = TWO_PI * length / arrays.wavelength
    return np.exp(1j * phi) * steer / np.linalg.norm(steer)


def end_to_end_channel(
    scene: Scene,
    arrays: ArrayGeometry,
    route: Route,
    shifts: dict[int, np.ndarray],
    precoder: np.ndarray,
) -> complex:
    """Effective scalar channel of a route, by direct matrix products.

    Chains the per-link channel matrices and reflection matrices along
    the route and applies the precoder.  Deliberately avoids the closed
    form so the two evaluations check each other.
    """
    validate_route(scene, route)
    seq = route.vertices
    if precoder.shape != (scene.bs_antennas,):
        raise ChannelError(
            f"precoder must have shape ({scene.bs_antennas},), got {precoder.shape}"
        )
    v = link_channel(scene, arrays, 0, seq[1]) @ precoder
    for n in range(1, route.hops + 1):
        irs_id = seq[n]
        if irs_id not in shifts:
            raise ChannelError(f"missing phase vector for surface {irs_id}")
        theta = shifts[irs_id]
        if theta.shape != (scene.elements,):
            raise ChannelError(
                f"phase vector for surface {irs_id} must have shape ({scene.elements},)"
            )
        v = np.exp(1j * theta) * v
        v = link_channel(scene, arrays, irs_id, seq[n + 1]) @ v
    return complex(v[0])


def favorable_propagation_metric(
    scene: Scene, arrays: ArrayGeometry, irs_ids: list[int]
) -> np.ndarray:
    """Normalized pairwise correlation of BS steering vectors.

    Entry (i, j) is |a_i^H a_j|^2 / N^2 for the departure responses
    toward the listed first-hop surfaces.  The diagonal is exactly 1 by
    definition; off-diagonal entries near 0 indicate the beams can be
    separated at the base station.
    """
    for j in irs_ids:
        if scene.kind(j) != IRS:
            raise ChannelError(f"node {j} is not a reflecting surface")
        if not scene.los_indicator(0, j):
            raise ChannelError(f"surface {j} has no LoS to the BS")
    a = np.stack([_bs_departure(scene, arrays, j) for j in irs_ids], axis=1)
    gram = a.conj().T @ a
    metric = np.abs(gram) ** 2 / scene.bs_antennas**2
    np.fill_diagonal(metric, 1.0)
    return metric
