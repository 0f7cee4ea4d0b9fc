"""Seeded inputs for the ``reduce`` workload.

Adjacent-pentagon fullerenes come from one random walk of seven-regime
truncations on canonical forms; isolated-pentagon (IPR) fullerenes are
leapfrogs of smaller fullerenes from the same walk.  The walk only uses the
library's public calls, so two commits that agree on canonical forms build
byte-identical inputs, which ``digest`` makes checkable.
"""

from __future__ import annotations

import hashlib
import random

from fforge.growth import KIND_SIGNATURES, GrowthOpKind
from fforge.planar_map import PlanarMap, encode_planar_code, map_from_faces
from fforge.structure import FamilyClass, classify_shape
from fforge.transform import enumerate_sites, truncate

# Seven-regime truncations by the class of the map they act on, and the
# classes a walk may pass through (the paper's seven-regime family).
_SEVEN_OPS = {
    FamilyClass.F: (GrowthOpKind.T155, GrowthOpKind.T2655, GrowthOpKind.T2656),
    FamilyClass.F_IPR: (GrowthOpKind.T155, GrowthOpKind.T2655, GrowthOpKind.T2656),
    FamilyClass.F_MINUS1: (GrowthOpKind.T145, GrowthOpKind.T2645),
    FamilyClass.F1: (GrowthOpKind.T2755, GrowthOpKind.T2756),
    FamilyClass.F1_IPR: (GrowthOpKind.T2755, GrowthOpKind.T2756),
}
_FULLERENES = (FamilyClass.F, FamilyClass.F_IPR)

# Hexagon counts of the walk's checkpoints.  The leapfrog of a fullerene with
# n vertices has 3n, so bases at p6 = 4, 8, 10, 14 give C84, C108, C120, C144;
# the adjacent-pentagon inputs span C80..C136.  The sizes are fixed so that
# every seed does comparable work.
LEAPFROG_BASES = (4, 8, 10, 14)
WALK_TARGETS = (30, 34, 38, 42, 46, 50, 54, 58)

_MAX_BACKTRACKS = 10_000


def _random_successor(rng: random.Random, m: PlanarMap, accept):
    """A random successor of canonical ``m`` in one of the ``accept``
    classes, canonicalized, or None.

    Sites are listed in the order (kind, s, canonical dart) before shuffling,
    so the choice depends only on the seed and the map's isomorphism class.
    """
    sites = []
    for kind in _SEVEN_OPS.get(classify_shape(m), ()):
        s, k, m1, m2 = KIND_SIGNATURES[kind]
        for site in enumerate_sites(m, s=s, k=k, m1=m1, m2=m2):
            sites.append((kind.name, site.s, site.start_dart, site))
    sites.sort(key=lambda t: t[:3])
    rng.shuffle(sites)
    for *_, site in sites:
        raw = truncate(m, site).map
        if classify_shape(raw) in accept:
            return raw.canonical_form()[0]
    return None


def walk(rng: random.Random, start: PlanarMap, steps: int) -> PlanarMap:
    """A fullerene ``steps`` truncations beyond fullerene ``start``.

    The last step only takes truncations that give a fullerene.  At a dead
    end the walk backtracks to the last fullerene on its path.
    """
    path = [start]
    backtracks = 0
    while len(path) - 1 < steps:
        accept = _FULLERENES if len(path) == steps else _SEVEN_OPS
        nxt = _random_successor(rng, path[-1], accept)
        if nxt is not None:
            path.append(nxt)
            continue
        backtracks += 1
        if backtracks > _MAX_BACKTRACKS:
            raise RuntimeError("random walk found no fullerene of the target size")
        last = max((i for i in range(len(path) - 1) if classify_shape(path[i]).is_fullerene), default=0)
        del path[last + 1:]
    return path[-1]


def leapfrog(m: PlanarMap) -> PlanarMap:
    """Leapfrog (dual, then truncation) of a cubic map, in canonical form.

    The new map has one vertex per dart ``d`` of ``m``: the point of ``d``'s
    edge next to its left face.  Each old face keeps its size and each old
    vertex becomes a hexagon, so every fullerene maps to an IPR fullerene
    with three times the vertices.
    """
    faces = [tuple(cyc) for cyc in m.faces]
    for v in range(m.num_vertices):
        e0 = 3 * v
        e1 = m.next(e0)
        e2 = m.next(e1)
        faces.append((e0, m.twin(e2), e2, m.twin(e1), e1, m.twin(e0)))
    return map_from_faces(faces).canonical_form()[0]


def build_reduce_inputs(seed: int, start: PlanarMap) -> list[PlanarMap]:
    """Leapfrogs of the walk's small checkpoints, then its large ones."""
    rng = random.Random(seed)
    bases = []
    large = []
    cur, p6 = start, 0
    for target in sorted(LEAPFROG_BASES + WALK_TARGETS):
        cur = walk(rng, cur, target - p6)
        p6 = target
        (bases if target in LEAPFROG_BASES else large).append(cur)
    return [leapfrog(b) for b in bases] + large


def digest(maps: list[PlanarMap]) -> str:
    """sha256 of the maps' planar_code bytes."""
    return hashlib.sha256(encode_planar_code(maps)).hexdigest()
