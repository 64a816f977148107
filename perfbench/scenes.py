"""Seeded scene generators for the benchmark workloads.

Each generator maps one scene seed to one scene document (JSON text).
The documents are written by this module, not by the package, so a
change to the package's serializer cannot change the workload; the
fingerprints in ``reference/`` catch a change here or in numpy's RNG.

Two layouts are produced:

* ``mesh``: the lattice recipe.  Nodes sit on a jittered 5 m lattice
  around the BS and LoS is drawn per pair: BS-surface ``p_bs``,
  surface-surface ``p_ss``, surface-user ``U(user_lo, user_hi) / J``
  (one draw per scene), never BS-user or user-user.
* ``corridors``: one angular sector per user around the BS, holding
  ``per_sector`` surfaces and that user at the far end.  LoS is
  ``p_in`` inside a sector, ``p_across`` between sectors and ``p_bs``
  from the BS to a surface, never BS-user or user-user.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# BS antennas N and surface grid M1 x M2 (M = 100) shared by every workload
SCENE_PARAMS = {"N": 16, "M1": 10, "M2": 10}

# pairwise separation kept above the package's 3 m far-field floor
MIN_SEPARATION = 3.2
PLACEMENT_TRIES = 1000

MESH = {
    "layout": "mesh",
    "surfaces": 80,
    "users": 8,
    "lattice": 10,
    "spacing_m": 5.0,
    "jitter_m": 1.0,
    "p_bs": 0.5,
    "p_ss": 0.12,
    "user_lo": 3.0,
    "user_hi": 5.0,
}

CORRIDORS = {
    "layout": "corridors",
    "users": 7,
    "per_sector": 10,
    "surface_r_m": [4.0, 30.0],
    "user_r_m": [32.0, 36.0],
    "p_bs": 0.5,
    "p_in": 0.4,
    "p_across": 0.01,
}

GREEDY_CORRIDORS = dict(CORRIDORS, users=5, per_sector=8)


def _document(points, num_irs: int, los: np.ndarray) -> str:
    nodes = []
    for i, p in enumerate(points):
        kind = "BS" if i == 0 else ("IRS" if i <= num_irs else "User")
        nodes.append({"id": i, "kind": kind, "pos": [float(x) for x in p]})
    doc = {"params": SCENE_PARAMS, "nodes": nodes, "los_override": los.tolist()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _draw_los(rng: np.random.Generator, prob: np.ndarray) -> np.ndarray:
    """Symmetric 0/1 matrix with P(link a-b) = prob[a, b], zero diagonal."""
    upper = np.triu(rng.random(prob.shape) < prob, k=1)
    los = (upper | upper.T).astype(int)
    return los


def mesh_document(scene_seed: int, spec: dict = MESH) -> str:
    rng = np.random.default_rng([0x6D657368, scene_seed])
    j, k = spec["surfaces"], spec["users"]
    n = 1 + j + k
    side = spec["lattice"]
    cells = [(a, b) for a in range(side) for b in range(side) if (a, b) != (0, 0)]
    picks = rng.permutation(len(cells))[: n - 1]
    jit = spec["jitter_m"]
    points = [np.zeros(3)]
    for c in picks:
        a, b = cells[c]
        points.append(
            np.array(
                [
                    spec["spacing_m"] * a + rng.uniform(-jit, jit),
                    spec["spacing_m"] * b + rng.uniform(-jit, jit),
                    rng.uniform(0.0, 2.0),
                ]
            )
        )
    p_user = rng.uniform(spec["user_lo"], spec["user_hi"]) / j
    prob = np.full((n, n), spec["p_ss"])
    prob[0, :] = prob[:, 0] = spec["p_bs"]
    prob[1 + j :, :] = prob[:, 1 + j :] = p_user
    prob[0, 1 + j :] = prob[1 + j :, 0] = 0.0
    prob[1 + j :, 1 + j :] = 0.0
    return _document(points, j, _draw_los(rng, prob))


def _sector_point(rng, sector: int, sectors: int, r_range) -> np.ndarray:
    width = 2 * math.pi / sectors
    theta = rng.uniform(sector * width + 0.05 * width, (sector + 1) * width - 0.05 * width)
    r = rng.uniform(*r_range)
    return np.array([r * math.cos(theta), r * math.sin(theta), rng.uniform(0.0, 2.0)])


def corridors_document(scene_seed: int, spec: dict = CORRIDORS) -> str:
    rng = np.random.default_rng([0x636F7272, scene_seed])
    k, per = spec["users"], spec["per_sector"]
    j = k * per
    n = 1 + j + k
    # sector of every node: BS -1, surfaces grouped by sector, then users
    sector = np.array([-1] + [s for s in range(k) for _ in range(per)] + list(range(k)))
    points = np.zeros((n, 3))
    for v in range(1, n):
        r_range = spec["surface_r_m"] if v <= j else spec["user_r_m"]
        for _ in range(PLACEMENT_TRIES):
            cand = _sector_point(rng, int(sector[v]), k, r_range)
            if np.linalg.norm(points[:v] - cand, axis=1).min() >= MIN_SEPARATION:
                points[v] = cand
                break
        else:
            raise ValueError(f"corridor placement failed for scene seed {scene_seed}")
    same = sector[:, None] == sector[None, :]
    prob = np.where(same, spec["p_in"], spec["p_across"])
    prob[0, :] = prob[:, 0] = spec["p_bs"]
    prob[0, 1 + j :] = prob[1 + j :, 0] = 0.0
    prob[1 + j :, 1 + j :] = 0.0
    return _document(points, j, _draw_los(rng, prob))


def fingerprint(text: str) -> str:
    """Short content hash of a scene document."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
