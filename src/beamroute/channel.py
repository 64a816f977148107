"""Closed-form channel power of a multi-hop route.

With per-element phase alignment at each surface and maximum ratio
transmission at the base station, the end to end LoS channel power of
a route depends only on its hop distances and the array sizes.
Routing, reports and the audit all use this one formula; the tests
check it against a matrix-product channel model.
"""

from __future__ import annotations

import math

from .graph import Route, validate_route
from .scene import Scene


def closed_form_power(scene: Scene, route: Route) -> float:
    """End to end channel power of a route under optimal beamforming.

    N * M^(2 h) * beta^(h+1) / prod(d_n^2) for a route with h surfaces
    and hop distances d_n.  Raises OverflowError when that is not a
    finite float: ``**`` raises on overflow, but ``*`` gives inf.
    """
    validate_route(scene, route)
    seq = route.vertices
    h = route.hops
    prod_d2 = 1.0
    for a, b in zip(seq[:-1], seq[1:]):
        prod_d2 *= scene.distance(a, b) ** 2
    m = scene.elements
    power = (
        scene.bs_antennas
        * float(m) ** (2 * h)
        * scene.ref_path_gain ** (h + 1)
        / prod_d2
    )
    if not math.isfinite(power):
        raise OverflowError(f"channel power of user {route.user_index} overflows a float")
    return power
