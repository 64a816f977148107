"""The closed-form power, and the matrix-product channel model it is checked
against: array responses, link channels, phase alignment, precoding."""

import cmath
import math

import numpy as np
import pytest

from beamroute.channel import closed_form_power
from channel_model import (
    ChannelError,
    bs_aod,
    direction,
    end_to_end_channel,
    favorable_propagation_metric,
    hop_gains,
    link_channel,
    mrt_precoder,
    optimal_phase_shifts,
    ula_response,
    ura_response,
)
from beamroute.graph import build_routing_graph, route_from_sequence, top_routes
from scenefab import (
    adversarial_scene,
    chain_scene,
    corridor_scene,
    full_los,
    make_scene,
    star_scene,
)

WL = 0.06


# oracles: direct per-entry evaluation with scalar math, no numpy reuse
def ula_oracle(count, spacing, wl, aod):
    return [
        cmath.exp(-2j * math.pi * n * spacing * math.sin(aod) / wl)
        for n in range(count)
    ]


def ura_oracle(m1, m2, spacing, wl, az, el):
    out = []
    for m in range(1, m1 * m2 + 1):
        outer = (m - 1) // m1
        inner = (m - 1) - outer * m1
        phase = spacing * (
            outer * math.sin(el) * math.cos(az) + inner * math.cos(el)
        )
        out.append(cmath.exp(-2j * math.pi * phase / wl))
    return out


class TestUlaResponse:
    def test_broadside_all_ones(self):
        v = ula_response(8, WL / 2, WL, 0.0)
        assert np.allclose(v, np.ones(8), atol=1e-15)

    def test_single_antenna(self):
        assert ula_response(1, WL / 2, WL, 1.0) == pytest.approx(1.0)

    def test_frozen_endfire(self):
        v = ula_response(4, WL / 2, WL, math.pi / 2)
        assert np.allclose(v, [1, -1, 1, -1], atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = ula_response(16, WL / 2, WL, rng.uniform(-math.pi / 2, math.pi / 2))
            assert np.allclose(np.abs(v), 1.0, atol=1e-12)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            aod = rng.uniform(-math.pi / 2, math.pi / 2)
            spacing = rng.uniform(0.01, 0.05)
            got = ula_response(12, spacing, WL, aod)
            want = ula_oracle(12, spacing, WL, aod)
            assert np.allclose(got, want, atol=1e-12)

    def test_count_validation(self):
        with pytest.raises(ChannelError):
            ula_response(0, WL / 2, WL, 0.0)


class TestUraResponse:
    def test_single_element(self):
        assert ura_response(1, 1, WL / 2, WL, 0.3, 1.2) == pytest.approx(1.0)

    def test_zero_direction_cosines(self):
        # azimuth pi/2 kills the x term, elevation pi/2 kills the z term
        v = ura_response(3, 4, WL / 2, WL, math.pi / 2, math.pi / 2)
        assert np.allclose(v, np.ones(12), atol=1e-12)

    def test_frozen_2x2(self):
        # half wavelength spacing, azimuth 0, elevation pi/2: the
        # column index alone advances the phase by pi per step
        v = ura_response(2, 2, WL / 2, WL, 0.0, math.pi / 2)
        assert np.allclose(v, [1, 1, -1, -1], atol=1e-12)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            az = rng.uniform(-math.pi, math.pi)
            el = rng.uniform(0, math.pi)
            m1 = int(rng.integers(1, 5))
            m2 = int(rng.integers(1, 5))
            got = ura_response(m1, m2, WL / 2, WL, az, el)
            want = ura_oracle(m1, m2, WL / 2, WL, az, el)
            assert np.allclose(got, want, atol=1e-12)

    def test_unit_modulus(self):
        v = ura_response(4, 4, WL / 2, WL, 0.7, 2.0)
        assert np.allclose(np.abs(v), 1.0, atol=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ChannelError):
            ura_response(0, 4, WL / 2, WL, 0.0, 0.0)


class TestLinkChannel:
    def scene(self):
        positions = [[0, 0, 0], [5, 0, 0], [9, 3, 0], [14, 3, 1]]
        return make_scene(
            positions, 2, 1, los_override=full_los(4), irs_grid=(4, 4),
            bs_antennas=8,
        )

    def test_shapes(self):
        scene = self.scene()
        assert link_channel(scene, 0, 1).shape == (16, 8)
        assert link_channel(scene, 1, 2).shape == (16, 16)
        assert link_channel(scene, 2, 3).shape == (1, 16)

    def test_rank_one(self):
        scene = self.scene()
        for pair in [(0, 1), (1, 2)]:
            s = np.linalg.svd(link_channel(scene, *pair), compute_uv=False)
            assert s[1] < 1e-12 * s[0]

    def test_frobenius_norm(self):
        scene = self.scene()
        beta = scene.ref_path_gain
        h = link_channel(scene, 0, 1)
        d = scene.distance(0, 1)
        assert np.linalg.norm(h) == pytest.approx(
            math.sqrt(beta * 16 * 8) / d, rel=1e-12
        )

    def test_entry_oracle(self):
        # rebuild one BS->surface entry from scratch with scalar math
        scene = self.scene()
        h = link_channel(scene, 0, 1)
        d = scene.distance(0, 1)
        amp = math.sqrt(scene.ref_path_gain) / d * cmath.exp(-2j * math.pi * d / WL)
        rx = ura_oracle(4, 4, WL / 2, WL, *direction(scene, 1, 0))
        tx = ula_oracle(8, WL / 2, WL, bs_aod(scene, 1))
        for m in (0, 5, 15):
            for n in (0, 3, 7):
                want = amp * rx[m] * tx[n].conjugate()
                assert h[m, n] == pytest.approx(want, rel=1e-12)

    def test_no_los_rejected(self):
        positions = [[0, 0, 0], [5, 0, 0], [20, 0, 0], [25, 0, 0]]
        scene = make_scene(positions, 2, 1)
        with pytest.raises(ChannelError, match="LoS"):
            link_channel(scene, 1, 2)

    def test_unsupported_pairs(self):
        scene = self.scene()
        with pytest.raises(ChannelError, match="unsupported"):
            link_channel(scene, 3, 1)  # user transmitting
        with pytest.raises(ChannelError, match="unsupported"):
            link_channel(scene, 0, 3)  # BS direct to user
        with pytest.raises(ChannelError, match="unsupported"):
            link_channel(scene, 1, 0)  # back toward the BS


class TestPhaseAlignment:
    def test_hop_gains_reach_element_count(self):
        rng = np.random.default_rng(8)
        for grid in [(2, 2), (4, 4), (3, 5)]:
            m = grid[0] * grid[1]
            for hops in (1, 2, 4):
                scene = chain_scene(rng, hops, irs_grid=grid)
                route = route_from_sequence(scene, 1, list(range(1, hops + 1)))
                shifts = optimal_phase_shifts(scene, route)
                assert set(shifts) == set(route.irs_ids)
                gains = hop_gains(scene, route, shifts)
                assert np.allclose(np.abs(gains), m, rtol=1e-9)

    def test_phase_range(self):
        rng = np.random.default_rng(9)
        scene = chain_scene(rng, 3)
        route = route_from_sequence(scene, 1, [1, 2, 3])
        for theta in optimal_phase_shifts(scene, route).values():
            assert np.all(theta >= 0.0) and np.all(theta < 2 * math.pi)

    def test_pi_flip_strictly_hurts(self):
        rng = np.random.default_rng(10)
        scene = chain_scene(rng, 2, irs_grid=(2, 2))
        route = route_from_sequence(scene, 1, [1, 2])
        shifts = optimal_phase_shifts(scene, route)
        base = np.abs(hop_gains(scene, route, shifts))
        for irs_id in route.irs_ids:
            for m in range(4):
                mod = {k: v.copy() for k, v in shifts.items()}
                mod[irs_id][m] += math.pi
                worse = np.abs(hop_gains(scene, route, mod))
                idx = route.irs_ids.index(irs_id)
                assert worse[idx] < base[idx] - 1.0

    def test_random_phases_never_beat_optimal(self):
        rng = np.random.default_rng(11)
        scene = chain_scene(rng, 2, irs_grid=(3, 3))
        route = route_from_sequence(scene, 1, [1, 2])
        shifts = optimal_phase_shifts(scene, route)
        m = scene.elements
        for _ in range(100):
            mod = {
                k: np.mod(v + rng.uniform(0, 2 * math.pi, size=m), 2 * math.pi)
                for k, v in shifts.items()
            }
            gains = np.abs(hop_gains(scene, route, mod))
            assert np.all(gains <= m * (1 + 1e-12))


class TestPrecoder:
    def test_unit_norm_and_match(self):
        rng = np.random.default_rng(12)
        for antennas in (1, 4, 16):
            scene = chain_scene(rng, 2, antennas=antennas)
            route = route_from_sequence(scene, 1, [1, 2])
            w = mrt_precoder(scene, route)
            assert w.shape == (antennas,)
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
            steer = ula_response(antennas, scene.antenna_spacing, WL, bs_aod(scene, 1))
            assert abs(np.vdot(steer, w)) == pytest.approx(
                math.sqrt(antennas), rel=1e-12
            )

    def test_global_phase(self):
        rng = np.random.default_rng(13)
        scene = chain_scene(rng, 1, antennas=1)
        route = route_from_sequence(scene, 1, [1])
        w = mrt_precoder(scene, route)
        length = scene.distance(0, 1) + scene.distance(1, 2)
        want = cmath.exp(2j * math.pi * length / WL)
        assert w[0] == pytest.approx(want, rel=1e-12)

    def test_searched_route_matches_explicit_sequence(self):
        # a route found by the sweep and the same surfaces given by hand
        # are equal routes with bit-identical precoders
        rng = np.random.default_rng(16)
        scenes = [corridor_scene(), adversarial_scene(), chain_scene(rng, 4, antennas=8)]
        checked = 0
        for scene in scenes:
            for routes in top_routes(build_routing_graph(scene), 5).values():
                for r in routes:
                    explicit = route_from_sequence(scene, r.user_index, list(r.irs_ids))
                    assert explicit == r
                    assert mrt_precoder(scene, r).tobytes() == mrt_precoder(scene, explicit).tobytes()
                    checked += 1
        assert checked >= 10


class TestEndToEnd:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(14)
        cases = [((2, 2), 1), ((2, 2), 4), ((4, 4), 4), ((8, 8), 16)]
        for grid, antennas in cases:
            for hops in (1, 2, 3):
                scene = chain_scene(rng, hops, irs_grid=grid, antennas=antennas)
                route = route_from_sequence(scene, 1, list(range(1, hops + 1)))
                shifts = optimal_phase_shifts(scene, route)
                w = mrt_precoder(scene, route)
                h = end_to_end_channel(scene, route, shifts, w)
                assert abs(h) ** 2 == pytest.approx(
                    closed_form_power(scene, route), rel=1e-9
                )

    def test_real_positive(self):
        rng = np.random.default_rng(15)
        scene = chain_scene(rng, 3)
        route = route_from_sequence(scene, 1, [1, 2, 3])
        h = end_to_end_channel(
            scene, route, optimal_phase_shifts(scene, route), mrt_precoder(scene, route)
        )
        assert h.real > 0
        assert abs(h.imag) < 1e-6 * h.real

    def test_zero_phases_never_exceed_optimum(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            scene = chain_scene(rng, 2)
            route = route_from_sequence(scene, 1, [1, 2])
            zeros = {j: np.zeros(scene.elements) for j in route.irs_ids}
            h = end_to_end_channel(scene, route, zeros, mrt_precoder(scene, route))
            assert abs(h) ** 2 <= closed_form_power(scene, route) * (1 + 1e-9)

    def test_scalar_sanity(self):
        # one antenna, one element, one surface: power is beta^2/(d1 d2)^2
        scene = make_scene(
            [[0, 0, 0], [4, 0, 0], [4, 3, 0]],
            1,
            1,
            irs_grid=(1, 1),
            bs_antennas=1,
            los_override=full_los(3),
        )
        route = route_from_sequence(scene, 1, [1])
        beta = scene.ref_path_gain
        want = beta**2 / (4.0**2 * 3.0**2)
        assert closed_form_power(scene, route) == pytest.approx(want, rel=1e-12)
        h = end_to_end_channel(
            scene, route, optimal_phase_shifts(scene, route), mrt_precoder(scene, route)
        )
        assert abs(h) ** 2 == pytest.approx(want, rel=1e-12)

    def test_missing_phase_vector(self):
        rng = np.random.default_rng(17)
        scene = chain_scene(rng, 2)
        route = route_from_sequence(scene, 1, [1, 2])
        shifts = optimal_phase_shifts(scene, route)
        del shifts[1]
        with pytest.raises(ChannelError, match="missing phase"):
            end_to_end_channel(scene, route, shifts, mrt_precoder(scene, route))

    def test_precoder_shape_checked(self):
        rng = np.random.default_rng(18)
        scene = chain_scene(rng, 1, antennas=4)
        route = route_from_sequence(scene, 1, [1])
        with pytest.raises(ChannelError, match="precoder"):
            end_to_end_channel(
                scene, route, optimal_phase_shifts(scene, route), np.ones(3)
            )


class TestClosedFormPower:
    def test_frozen_example(self):
        # 20 antennas, 400 elements, two surfaces, every hop 5 m
        positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0], [15, 0, 0]]
        scene = make_scene(
            positions, 2, 1, los_override=full_los(4), irs_grid=(20, 20),
            bs_antennas=20,
        )
        route = route_from_sequence(scene, 1, [1, 2])
        assert closed_form_power(scene, route) == pytest.approx(
            3.8823818958473007e-07, rel=1e-12
        )

    def test_element_scaling(self):
        rng = np.random.default_rng(19)
        scene = chain_scene(rng, 2, irs_grid=(2, 2))
        route = route_from_sequence(scene, 1, [1, 2])
        small = closed_form_power(scene, route)
        bigger = closed_form_power(scene.with_elements(8), route)
        # M doubles and there are two surfaces, so power scales by 2^4
        assert bigger == pytest.approx(16 * small, rel=1e-12)

    def test_distance_monotonicity(self):
        base = make_scene(
            [[0, 0, 0], [5, 0, 0], [10, 0, 0]],
            1,
            1,
            los_override=full_los(3),
        )
        far = make_scene(
            [[0, 0, 0], [5, 0, 0], [11, 0, 0]],
            1,
            1,
            los_override=full_los(3),
        )
        r1 = route_from_sequence(base, 1, [1])
        r2 = route_from_sequence(far, 1, [1])
        assert closed_form_power(far, r2) < closed_form_power(base, r1)


class TestFavorablePropagation:
    def star_scene(self):
        return star_scene()

    def test_diagonal_exactly_one(self):
        metric = favorable_propagation_metric(self.star_scene(), [1, 2, 3, 4, 5])
        assert np.all(np.diag(metric) == 1.0)

    def test_off_diagonal_small(self):
        metric = favorable_propagation_metric(self.star_scene(), [1, 2, 3, 4, 5])
        off = metric[~np.eye(5, dtype=bool)]
        assert np.all(off < 0.1)
        assert np.all(off >= 0.0)

    def test_collinear_surfaces_fully_correlated(self):
        scene = make_scene(
            [[0, 0, 0], [3, 4, 0], [6, 8, 0]],
            2,
            0,
            los_override=full_los(3),
            bs_antennas=20,
        )
        metric = favorable_propagation_metric(scene, [1, 2])
        assert metric[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_requires_bs_los(self):
        scene = make_scene([[0, 0, 0], [20, 0, 0], [25, 0, 0]], 2, 0)
        with pytest.raises(ChannelError, match="LoS"):
            favorable_propagation_metric(scene, [1])

    def test_requires_surface_ids(self):
        scene = self.star_scene()
        with pytest.raises(ChannelError, match="not a reflecting surface"):
            favorable_propagation_metric(scene, [0])
