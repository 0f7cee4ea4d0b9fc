"""Belts, loops, the P1/P2 patches and family classification.

A k-belt is a cyclic sequence of k pairwise distinct faces whose consecutive
members intersect, whose non-consecutive members are disjoint, and whose total
intersection is empty.  The P1 and P2 patches, where the reduction undoes A4
and A3, are found by one scan: it places their few faces directly from each
dart that has a pentagon on both sides.  The (1,3,1,3,1,3)-bordered 6-loops
are found by tracing their 12-dart bordered edge-cycle from each dart.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .planar_map import MapError, PlanarMap, check_polytopal, p_vector


class NotAFullereneError(MapError):
    """Operation requires a map with twelve pentagons and hexagons only."""


class NotPolytopalError(MapError):
    """Operation requires a 3-connected (polytopal) map."""


# ----------------------------------------------------------------------
# belts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Belt:
    """Cyclic face sequence with the belt intersection pattern."""

    faces: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.faces)


def _canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Least rotation over both directions, for dihedral dedup."""
    return min(tuple(s[r:] + s[:r]) for s in (list(seq), list(reversed(seq))) for r in range(len(seq)))


def find_belts(m: PlanarMap, k: int) -> list[Belt]:
    """All k-belts, each reported once up to rotation and reversal."""
    if k < 3:
        raise MapError("belts need k >= 3")
    sets = m.face_vertex_sets
    nf = m.num_faces
    adj = [sorted(set(m.face_neighbors(f))) for f in range(nf)]
    found = set()

    def extend(path: list[int]):
        last = path[-1]
        for g in adj[last]:
            if g <= path[0]:
                continue
            if g in path:
                continue
            # g must be disjoint from all non-consecutive chosen faces
            ok = True
            for i, h in enumerate(path[:-1]):
                if i == 0 and len(path) == k - 1:
                    continue  # closure adjacency checked separately
                if sets[g] & sets[h]:
                    ok = False
                    break
            if not ok:
                continue
            if len(path) == k - 1:
                if g in adj[path[0]]:
                    total = sets[path[0]]
                    for h in path[1:] + [g]:
                        total = total & sets[h]
                    if not total:
                        cyc = _canonical_cycle(path + [g])
                        found.add(cyc)
            else:
                extend(path + [g])

    for f0 in range(nf):
        extend([f0])
    return [Belt(c) for c in sorted(found)]


def is_simplex(m: PlanarMap) -> bool:
    return m.num_vertices == 4


def is_flag(m: PlanarMap) -> bool:
    """Not the simplex and free of 3-belts."""
    return not is_simplex(m) and not find_belts(m, 3)


def five_belt_census(m: PlanarMap) -> tuple[int, int]:
    """(pentagon-surrounding 5-belts, all-hexagon 5-belts) of a fullerene."""
    pv = p_vector(m)
    if not pv.is_fullerene():
        raise NotAFullereneError(f"five_belt_census needs a fullerene, got {pv}")
    belts = find_belts(m, 5)
    pent_rings = set()
    for f in range(m.num_faces):
        if m.face_sizes[f] == 5:
            pent_rings.add(frozenset(m.face_neighbors(f)))
    pentagonal = 0
    hexagonal = 0
    for b in belts:
        fs = frozenset(b.faces)
        if fs in pent_rings:
            pentagonal += 1
        else:
            if any(m.face_sizes[f] != 6 for f in b.faces):
                raise MapError(f"unexpected mixed 5-belt {b.faces}")
            hexagonal += 1
    return pentagonal, hexagonal


# ----------------------------------------------------------------------
# the P1 and P2 patches
# ----------------------------------------------------------------------


class Fragment(Enum):
    """The reduction's patches.  P1: two edge-sharing pentagons with a
    hexagon at each end of their edge.  P2: three pentagons at a vertex, a
    hexagon past one shared edge and one across the far edge of the third."""

    P1 = "P1"
    P2 = "P2"


_PATCH_SIZES = {Fragment.P1: (5, 5, 6, 6), Fragment.P2: (5, 5, 5, 6, 6)}


def find_fragments(m: PlanarMap, pattern: Fragment) -> list[tuple[int, ...]]:
    """Every placement of a P1 or P2 patch as its faces in template order,
    one per face set.

    Face 0 is the face of the start dart ``d0``; faces 1, 2 and 3 lie across
    slots 0, 1 and 4 of face 0's walk from ``d0``, and P2's face 4 across
    slot 3 of face 2's walk from the twin of slot 1.  Faces 0 and 1 of both
    patches are pentagons, so only darts with a pentagon on each side start
    a placement.  Placements come in start-dart order, and the first of each
    face set is kept.  Both patches are mirror-symmetric (the reflection
    swaps faces 0 and 1), so a mirror image placement covers the face set
    of one found here.
    """
    sizes = _PATCH_SIZES[pattern]
    fs, fo, twin, step = m.face_sizes, m.face_of, m._twin, m.face_next
    out = []
    seen: set[frozenset] = set()
    for d0 in range(m.num_darts):
        if fs[fo[d0]] != 5 or fs[fo[twin[d0]]] != 5:
            continue
        d1 = step(d0)
        d4 = step(step(step(d1)))
        faces = (fo[d0], fo[twin[d0]], fo[twin[d1]], fo[twin[d4]])
        if len(sizes) == 5:
            faces += (fo[twin[step(step(step(twin[d1])))]],)
        if tuple(fs[f] for f in faces) != sizes or len(set(faces)) != len(faces):
            continue
        key = frozenset(faces)
        if key not in seen:
            seen.add(key)
            out.append(faces)
    return out


# ----------------------------------------------------------------------
# family classification
# ----------------------------------------------------------------------


class FamilyClass(Enum):
    F_MINUS1 = "F-1"      # quadrangle plus pentagons/hexagons
    F = "F"               # fullerene
    F_IPR = "F-IPR"       # fullerene without adjacent pentagons
    F1 = "F1"             # heptagon class with the pentagon conditions
    F1_IPR = "F1-IPR"     # heptagon class without adjacent pentagons
    OTHER = "other"

    @property
    def is_fullerene(self) -> bool:
        return self in (FamilyClass.F, FamilyClass.F_IPR)


def _adjacent_pentagon_pairs(m: PlanarMap) -> list[int]:
    """One dart per edge shared by two pentagons."""
    out = []
    for d in m.edges:
        if m.face_sizes[m.face_of[d]] == 5 and m.face_sizes[m.face_of[m.twin(d)]] == 5:
            out.append(d)
    return out


def classify_shape(m: PlanarMap) -> FamilyClass:
    """Family classification from face sizes and local pentagon conditions.

    Does not verify 3-connectivity; see :func:`classify` for the full check.
    """
    pv = p_vector(m)
    sizes = set(pv.counts)
    if pv.is_fullerene():
        return FamilyClass.F_IPR if not _adjacent_pentagon_pairs(m) else FamilyClass.F
    if sizes <= {4, 5, 6} and pv[4] == 1:
        return FamilyClass.F_MINUS1
    if sizes <= {5, 6, 7} and pv[7] == 1:
        hept = m.face_sizes.index(7)
        hept_nbrs = set(m.face_neighbors(hept))
        if not any(m.face_sizes[f] == 5 for f in hept_nbrs):
            return FamilyClass.OTHER
        pairs = _adjacent_pentagon_pairs(m)
        if not pairs:
            return FamilyClass.F1_IPR
        # condition (a): some pentagon pair's shared edge ends on the
        # heptagon and a hexagon
        for d in pairs:
            ca, cb = m.edge_corner_faces(d)
            ss = {m.face_sizes[ca], m.face_sizes[cb]}
            if ss == {6, 7}:
                return FamilyClass.F1
        # condition (b): every adjacent pentagon pair has exactly one
        # member next to the heptagon
        for d in pairs:
            p, q = m.face_of[d], m.face_of[m.twin(d)]
            if (p in hept_nbrs) == (q in hept_nbrs):
                return FamilyClass.OTHER
        return FamilyClass.F1
    return FamilyClass.OTHER


def classify(m: PlanarMap) -> FamilyClass:
    """Full classification; requires the map to be polytopal."""
    if not check_polytopal(m):
        raise NotPolytopalError("classification is defined for polytopal maps only")
    return classify_shape(m)


# ----------------------------------------------------------------------
# the (1,3,1,3,1,3) loop dichotomy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoopVerdict:
    """Outcome of one (1,3,1,3,1,3)-bordered loop occurrence."""

    loop: tuple[int, ...]
    ok: bool
    reason: str


def check_131313(m: PlanarMap) -> list[LoopVerdict]:
    """Verify the propagation dichotomy for (1,3,1,3,1,3)-bordered 6-loops.

    Every simple 6-loop whose bordered edge-cycle shows the (1,3,1,3,1,3)
    run pattern must either close into the three-pentagon cap fragment or
    continue into another simple loop with the same run pattern.  Returns
    the configurations that do neither; a clean map yields an empty list.
    """
    return [v for v in survey_131313(m) if not v.ok]


def survey_131313(m: PlanarMap) -> list[LoopVerdict]:
    """Dichotomy verdict for every (1,3,1,3,1,3)-bordered loop occurrence,
    in the order of the loops' least rotations, a loop's own direction
    before the reversed one."""
    if not p_vector(m).is_fullerene():
        raise NotAFullereneError("the loop dichotomy applies to fullerenes")
    loops = _131313_loops(m)
    keys = {key for key, _ in loops}
    return [LoopVerdict(loops[occ][0], *_check_dichotomy(m, loops[occ][1], keys)) for occ in sorted(loops)]


def _131313_loops(m: PlanarMap) -> dict:
    """Every (1,3,1,3,1,3)-bordered 6-loop occurrence, traced as its
    bordered edge-cycle.

    The cycle is 12 darts with the loop faces on their left, and its steps
    go A, A, B, B three times: A (``face_next``) moves along a run, and B
    (prev . twin) turns onto the next loop face with the same face on the
    right.  A walk is kept if it returns to its start through 12 distinct
    vertices, its six left faces (those of darts 0, 3, 4, 7, 8 and 11) are
    distinct, and consecutive loop faces share exactly one edge; its runs
    are then 3, 1, 3, 1, 3, 1.  Returns ``{(least rotation, runs against
    it): (loop, walk)}``, the loop starting at the first 1-run face at or
    after its least face and the walk at the first dart of a 3-run.
    """
    twin, nxt, fo = m._twin, m._next, m.face_of
    out = {}
    for d0 in range(m.num_darts):
        walk = [d0]
        for i in range(12):
            t = twin[walk[-1]]
            walk.append(nxt[t] if i % 4 < 2 else nxt[nxt[t]])
        if walk.pop() != d0 or len({d // 3 for d in walk}) != 12:
            continue
        faces = [fo[walk[i]] for i in (0, 3, 4, 7, 8, 11)]
        if len(set(faces)) != 6 or any(
            m.face_neighbors(f).count(faces[i - 5]) != 1 for i, f in enumerate(faces)
        ):
            continue
        key = _canonical_cycle(faces)
        at = faces.index(key[0])
        against = tuple(faces[at:] + faces[:at]) != key
        at += at % 2 == 0  # the 1-run faces are the odd ones
        out.setdefault((key, against), (tuple(faces[at:] + faces[:at]), walk))
    return out


def _check_dichotomy(m: PlanarMap, walk: list[int], keys: set) -> tuple[bool, str]:
    """The bordering loop either closes the cap or propagates the pattern.

    Across the 3-run starting at dart ``4j`` lie a corner face (shared with
    the 1-run before it) and a middle face; the corners and middles make
    the bordering 6-loop.  It propagates if its corners, all hexagons, and
    the inner 3-run faces form another traced loop.
    """
    twin, fo = m._twin, m.face_of
    corners = [fo[twin[walk[j]]] for j in (0, 4, 8)]
    middles = [fo[twin[walk[j]]] for j in (1, 5, 9)]
    if len(set(corners + middles)) != 6:
        return False, "bordering 6-loop is not simple"
    sizes = [m.face_sizes[f] for f in corners]
    if all(s == 5 for s in sizes):
        return True, "cap closes"
    if all(s == 6 for s in sizes):
        # the next loop mixes the inner 3-run faces with the corner faces
        nxt_loop = [f for j in range(3) for f in (fo[walk[4 * j]], corners[(j + 1) % 3])]
        if len(set(nxt_loop)) != 6:
            return False, "propagated loop is not simple"
        if _canonical_cycle(nxt_loop) in keys:
            return True, "pattern propagates"
        return False, "propagated loop lacks the run pattern"
    return False, "corner faces are neither all pentagons nor all hexagons"
