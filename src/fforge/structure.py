"""Belts, loops, the P1/P2 patches and family classification.

A k-belt is a cyclic sequence of k pairwise distinct faces whose consecutive
members intersect, whose non-consecutive members are disjoint, and whose total
intersection is empty.  The P1 and P2 patches, where the reduction undoes A4
and A3, are found by one scan: it places their few faces directly from each
dart that has a pentagon on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .planar_map import MapError, PlanarMap, p_vector


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
    best = None
    n = len(seq)
    for rev in (False, True):
        s = list(reversed(seq)) if rev else list(seq)
        for r in range(n):
            cand = tuple(s[r:] + s[:r])
            if best is None or cand < best:
                best = cand
    return best


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
            if (p in (m.face_neighbors(hept))) == (q in (m.face_neighbors(hept))):
                return FamilyClass.OTHER
        return FamilyClass.F1
    return FamilyClass.OTHER


def classify(m: PlanarMap) -> FamilyClass:
    """Full classification; requires the map to be polytopal."""
    from .planar_map import check_polytopal

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


def _bordered_walks(m: PlanarMap, loop: Sequence[int]):
    """Boundary edge-walks bordered by a face loop, as dart lists.

    The two results (one per side of the loop) list the boundary darts with
    the loop face on the left; sides that fail to close into a simple cycle
    are dropped.  Walking the reversed loop produces the other side, so both
    are generated with one arc routine.
    """

    def one_side(seq):
        k = len(seq)
        shared = []
        for i in range(k):
            f, g = seq[i], seq[(i + 1) % k]
            darts = [d for d in m.faces[f] if m.face_of[m.twin(d)] == g]
            if len(darts) != 1:
                return None
            shared.append(darts[0])
        boundary: list[int] = []
        for i in range(k):
            g = seq[(i + 1) % k]
            d = m.face_next(m.twin(shared[i]))
            stop = shared[(i + 1) % k]
            steps = 0
            while d != stop:
                boundary.append(d)
                d = m.face_next(d)
                steps += 1
                if steps > m.face_sizes[g]:
                    return None
        if not boundary:
            return None
        verts = [m.source(d) for d in boundary]
        if len(set(verts)) != len(verts):
            return None
        return boundary

    walks = []
    fwd = one_side(list(loop))
    if fwd is not None:
        walks.append((list(loop), fwd))
    rev_loop = [loop[0]] + list(reversed(loop[1:]))
    rev = one_side(rev_loop)
    if rev is not None:
        walks.append((rev_loop, rev))
    return walks


def check_131313(m: PlanarMap) -> list[LoopVerdict]:
    """Verify the propagation dichotomy for (1,3,1,3,1,3)-bordered 6-loops.

    Every simple 6-loop whose bordered edge-cycle shows the (1,3,1,3,1,3)
    run pattern must either close into the three-pentagon cap fragment or
    continue into another simple loop with the same run pattern.  Returns
    the configurations that do neither; a clean map yields an empty list.
    """
    return [v for v in survey_131313(m) if not v.ok]


def survey_131313(m: PlanarMap) -> list[LoopVerdict]:
    """Dichotomy verdict for every (1,3,1,3,1,3)-bordered loop occurrence."""
    pv = p_vector(m)
    if not pv.is_fullerene():
        raise NotAFullereneError("the loop dichotomy applies to fullerenes")
    verdicts = []
    for loop, runs, outer in _find_131313_loops(m):
        ok, reason = _check_dichotomy(m, loop, runs, outer)
        verdicts.append(LoopVerdict(loop, ok, reason))
    return verdicts


def _find_131313_loops(m: PlanarMap):
    """Occurrences of simple 6-loops bordering a (1,3,1,3,1,3) edge-cycle.

    Yields (loop, per-face run lengths, outer run faces).
    """
    seen = set()
    nf = m.num_faces
    adj = [sorted(set(m.face_neighbors(f))) for f in range(nf)]

    def loops6(path):
        last = path[-1]
        if len(path) == 6:
            if path[0] in adj[last]:
                yield tuple(path)
            return
        for g in adj[last]:
            if g in path:
                continue
            if len(path) == 1 or g > path[0]:
                yield from loops6(path + [g])

    for f0 in range(nf):
        for loop in loops6([f0]):
            key = _canonical_cycle(loop)
            if key in seen:
                continue
            seen.add(key)
            for occ in _loop_occurrences(m, key):
                yield occ


def _loop_occurrences(m: PlanarMap, loop: tuple[int, ...]):
    for seq, walk in _bordered_walks(m, loop):
        runs, outer = _run_pattern(m, seq, walk)
        if runs is None:
            continue
        for rot in range(6):
            rotated = runs[rot:] + runs[:rot]
            if rotated == [1, 3, 1, 3, 1, 3]:
                lo = seq[rot:] + seq[:rot]
                ou = outer[rot:] + outer[:rot]
                yield (tuple(lo), rotated, ou)
                break


def _run_pattern(m: PlanarMap, loop, walk):
    """Edge counts of each loop face along the bordered walk, in loop order."""
    runs = [0] * len(loop)
    face_pos = {f: i for i, f in enumerate(loop)}
    outer_runs: list[list[int]] = [[] for _ in loop]
    for d in walk:
        f = m.face_of[d]
        i = face_pos.get(f)
        if i is None:
            return None, None
        runs[i] += 1
        outer_runs[i].append(m.face_of[m.twin(d)])
    return runs, outer_runs


def _check_dichotomy(m, loop, runs, outer):
    """The bordering loop either closes the cap or propagates the pattern."""
    # outer faces across the 3-run members: middle must be a single face,
    # flanks shared with the neighboring 1-run crossings
    three_positions = [i for i, r in enumerate(runs) if r == 3]
    singles = []  # outer face with one edge per 3-run (the middle role)
    corners = []  # outer faces flanking each 3-run (the crossing roles)
    for i in three_positions:
        o = outer[i]
        if len(o) != 3:
            return False, "outer pattern mismatch"
        singles.append(o[1])
        corners.append((o[0], o[2]))
    flat = []
    for j in range(3):
        a, t, b = corners[j][0], singles[j], corners[j][1]
        flat.extend([a, t])
        # the crossing face spans the 1-run edge between consecutive 3-runs
        one_after = outer[(three_positions[j] + 1) % 6]
        if b != corners[(j + 1) % 3][0] or one_after != [b]:
            return False, "bordering loop does not close into six runs"
    if len(set(flat)) != 6:
        return False, "bordering 6-loop is not simple"
    p_faces = [corners[j][0] for j in range(3)]
    sizes = [m.face_sizes[f] for f in p_faces]
    if all(s == 5 for s in sizes):
        return True, "cap closes"
    if all(s == 6 for s in sizes):
        # propagation: the next loop mixes the inner 3-run faces with the
        # outer corner faces and must again border a (1,3,...) cycle
        inner3 = [loop[i] for i in three_positions]
        nxt_loop = []
        for j in range(3):
            nxt_loop.extend([inner3[j], p_faces[(j + 1) % 3]])
        if len(set(nxt_loop)) != 6:
            return False, "propagated loop is not simple"
        for occ_loop, occ_runs, _ in _loop_occurrences(m, tuple(nxt_loop)):
            return True, "pattern propagates"
        return False, "propagated loop lacks the run pattern"
    return False, "corner faces are neither all pentagons nor all hexagons"
