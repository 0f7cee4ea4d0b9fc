"""Belts, loops, fragment recognition and family classification.

A k-belt is a cyclic sequence of k pairwise distinct faces whose consecutive
members intersect, whose non-consecutive members are disjoint, and whose total
intersection is empty.  Fragments are small face-labeled patches matched into
a map by rigid propagation from a single dart anchor; the matcher also flags
whether the fragment boundary is a simple edge-cycle (a patch).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

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
# fragment patterns and matching
# ----------------------------------------------------------------------


class Fragment(Enum):
    C1 = "C1"
    C2 = "C2"
    P1 = "P1"
    P2 = "P2"


@dataclass(frozen=True)
class FragmentPattern:
    """Face-labeled template: sizes per face and slot-to-slot gluings.

    Slot ``j`` of template face ``i`` is the j-th dart of its boundary walk;
    a gluing ((i, a), (j, b)) identifies slot a of face i with slot b of face
    j across a shared edge.  Unglued slots form the template boundary.
    """

    name: Fragment
    sizes: tuple[int, ...]
    gluings: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def glue_table(self) -> dict[tuple[int, int], tuple[int, int]]:
        t = {}
        for a, b in self.gluings:
            t[a] = b
            t[b] = a
        return t


def _c1_pattern() -> FragmentPattern:
    # face 0: central pentagon; faces 1..5: ring pentagons
    gl = []
    for i in range(5):
        ring = 1 + i
        gl.append(((0, i), (ring, 0)))
        gl.append(((ring, 1), (1 + (i - 1) % 5, 4)))
    return FragmentPattern(Fragment.C1, (5,) * 6, tuple(gl))


def _c2_pattern() -> FragmentPattern:
    # faces 0-2: pentagons at a common vertex; faces 3-5: notch pentagons
    gl = []
    for i in range(3):
        a, a_next = i, (i + 1) % 3
        gl.append(((a, 1), (a_next, 0)))
        gl.append(((a, 2), (3 + i, 0)))
        gl.append(((a, 4), (3 + (i - 1) % 3, 1)))
    return FragmentPattern(Fragment.C2, (5,) * 6, tuple(gl))


def _p1_pattern() -> FragmentPattern:
    # two edge-sharing pentagons with hexagons at both ends of the shared edge
    return FragmentPattern(
        Fragment.P1,
        (5, 5, 6, 6),
        (((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 4), (2, 1)), ((1, 1), (3, 0)), ((0, 4), (3, 1))),
    )


def _p2_pattern() -> FragmentPattern:
    # pentagons 0,1,2 at a common vertex; hexagon 3 at the far end of the
    # 0|1 edge; hexagon 4 across the middle far edge of pentagon 2
    return FragmentPattern(
        Fragment.P2,
        (5, 5, 5, 6, 6),
        (
            ((0, 0), (1, 1)),
            ((0, 1), (2, 0)),
            ((1, 0), (2, 1)),
            ((0, 4), (3, 1)),
            ((1, 2), (3, 0)),
            ((2, 3), (4, 0)),
        ),
    )


PATTERNS: dict[Fragment, FragmentPattern] = {
    Fragment.C1: _c1_pattern(),
    Fragment.C2: _c2_pattern(),
    Fragment.P1: _p1_pattern(),
    Fragment.P2: _p2_pattern(),
}


@dataclass(frozen=True)
class Embedding:
    """A label- and rotation-respecting placement of a pattern in a map."""

    pattern: Fragment
    faces: tuple[int, ...]          # image of template face i
    anchors: tuple[int, ...]        # image dart of slot 0 of template face i
    mirrored: bool
    is_patch: bool

    def face(self, i: int) -> int:
        return self.faces[i]


def _walk_from(m: PlanarMap, d: int, size: int, mirrored: bool) -> Optional[list[int]]:
    """Darts of the face walk through d, starting at d; None on size mismatch.

    The mirrored walk traces the face to the right of ``d`` in the reflected
    rotation system (``next`` inverted), which is how mirror embeddings see it.
    """
    f = m.face_of[d] if not mirrored else m.face_of[m.twin(d)]
    if m.face_sizes[f] != size:
        return None
    out = [d]
    for _ in range(size - 1):
        last = out[-1]
        out.append(m.face_next(last) if not mirrored else m.prev(m.twin(last)))
    return out


def _place(m: PlanarMap, pat: FragmentPattern, glue: dict, d0: int, mirrored: bool):
    """Rigid placement from slot 0 of face 0 at ``d0``: the per-face walks
    and face images, or None when the pattern does not fit there."""
    nfaces = len(pat.sizes)
    walks: list[Optional[list[int]]] = [None] * nfaces
    walks[0] = _walk_from(m, d0, pat.sizes[0], mirrored)
    if walks[0] is None:
        return None
    queue = [0]
    done = {0}
    while queue:
        i = queue.pop()
        for slot in range(pat.sizes[i]):
            other = glue.get((i, slot))
            if other is None:
                continue
            j, jslot = other
            image = m.twin(walks[i][slot])
            # align face j so its jslot lands on `image`
            seed = image
            if walks[j] is None:
                w = _walk_from(m, seed, pat.sizes[j], mirrored)
                if w is None:
                    return None
                # rotate so that position jslot equals seed
                walks[j] = w[-jslot:] + w[:-jslot] if jslot else w
                done.add(j)
                queue.append(j)
            else:
                if walks[j][jslot] != image:
                    return None
    if len(done) != nfaces:
        return None
    face_ids = []
    for i, w in enumerate(walks):
        f = m.face_of[w[0]] if not mirrored else m.face_of[m.twin(w[0])]
        face_ids.append(f)
    if len(set(face_ids)) != nfaces:
        return None
    return walks, tuple(face_ids)


def _embedding(m: PlanarMap, pat: FragmentPattern, glue: dict, walks, face_ids, mirrored: bool):
    """The embedding of a placement; a patch needs its boundary slots to
    walk a simple edge-cycle."""
    boundary_darts = []
    for i in range(len(pat.sizes)):
        for slot in range(pat.sizes[i]):
            if (i, slot) not in glue:
                boundary_darts.append(walks[i][slot])
    is_patch = _is_simple_edge_cycle(m, boundary_darts, mirrored)
    return Embedding(pat.name, face_ids, tuple(w[0] for w in walks), mirrored, is_patch)


def _is_simple_edge_cycle(m: PlanarMap, darts: list[int], mirrored: bool) -> bool:
    ends = []
    for d in darts:
        ends.append((m.source(d), m.target(d)))
    verts = [v for e in ends for v in e]
    cnt = Counter(verts)
    if any(c != 2 for c in cnt.values()):
        return False
    # connectivity of the boundary edge set
    adj: dict[int, list[int]] = {}
    for a, b in ends:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = ends[0][0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(cnt)


def find_fragments(m: PlanarMap, pattern: FragmentPattern | Fragment) -> list[Embedding]:
    """All embeddings of a pattern, mirror images included, deduplicated by
    their face-image set.

    Embeddings come in start-dart order, unmirrored first; the first
    embedding of a face set is kept.
    """
    if isinstance(pattern, Fragment):
        pattern = PATTERNS[pattern]
    glue = pattern.glue_table()
    hosts = _host_faces(m, pattern, glue)
    fo = m.face_of
    out = []
    seen: set[frozenset] = set()
    for mirrored in (False, True):
        for d0 in range(m.num_darts):
            # a start dart lies on template face 0's image: left of d0, or
            # right of it in a mirror image
            if fo[m.twin(d0) if mirrored else d0] not in hosts:
                continue
            placed = _place(m, pattern, glue, d0, mirrored)
            if placed is None:
                continue
            walks, face_ids = placed
            key = frozenset(face_ids)
            if key in seen:
                continue
            seen.add(key)
            out.append(_embedding(m, pattern, glue, walks, face_ids, mirrored))
    return out


def _host_faces(m: PlanarMap, pat: FragmentPattern, glue: dict) -> set[int]:
    """Faces that could be the image of template face 0: its size, and
    neighbors whose sizes include those of the faces glued to it."""
    need = Counter(pat.sizes[glue[(0, slot)][0]] for slot in range(pat.sizes[0]) if (0, slot) in glue)
    fs = m.face_sizes
    hosts = set()
    for f in range(m.num_faces):
        if fs[f] != pat.sizes[0]:
            continue
        have = Counter(fs[g] for g in m.face_neighbors(f))
        if all(have[k] >= c for k, c in need.items()):
            hosts.add(f)
    return hosts


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
