"""Independent reference implementations used as test oracles.

Nothing here shares logic with the package's canonical-code, belt, or
patch machinery; these are direct transcriptions of the definitions, a
generic matcher of face-labeled templates (the C1/C2 caps and the P1/P2
patches) that referees the package's direct P1/P2 placement, and a search
of every 6-loop of faces that referees the package's (1,3,1,3,1,3)-loop
tracer, and a successor walker that cuts every site, the referee of the
closure's one first cut per automorphism orbit.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from fforge import PlanarMap, classify_shape, enumerate_sites, truncate
from fforge.growth import (
    _FACE_GAIN,
    _REGIME_CLASSES,
    _REGIME_KINDS,
    _SOURCE_CLASSES,
    KIND_CHAINS,
    KIND_SIGNATURES,
    GrowthOpKind,
    Regime,
    _cap_successors,
)


def maps_isomorphic(m1: PlanarMap, m2: PlanarMap, reflect: bool = True) -> bool:
    """Explicit dart-bijection search by constraint propagation."""
    if m1.num_darts != m2.num_darts:
        return False
    mirrors = (False, True) if reflect else (False,)
    for mirrored in mirrors:
        for d2 in range(m2.num_darts):
            if _extend_iso(m1, m2, d2, mirrored):
                return True
    return False


def _extend_iso(m1, m2, d2_0, mirrored):
    image = {0: d2_0}
    stack = [0]
    while stack:
        d1 = stack.pop()
        d2 = image[d1]
        nxt2 = m2.prev(d2) if mirrored else m2.next(d2)
        for f1, f2 in ((m1.twin(d1), m2.twin(d2)), (m1.next(d1), nxt2)):
            if f1 in image:
                if image[f1] != f2:
                    return False
            else:
                image[f1] = f2
                stack.append(f1)
    return len(set(image.values())) == m1.num_darts


def _cycle_key(seq):
    best = None
    n = len(seq)
    for rev in (False, True):
        s = list(reversed(seq)) if rev else list(seq)
        for r in range(n):
            cand = tuple(s[r:] + s[:r])
            if best is None or cand < best:
                best = cand
    return best


def brute_belts(m: PlanarMap, k: int) -> set:
    """All k-belts by exhaustive arrangement checking; small maps only."""
    sets = m.face_vertex_sets
    nf = m.num_faces
    found = set()
    for combo in itertools.combinations(range(nf), k):
        for perm in itertools.permutations(combo[1:]):
            cyc = (combo[0],) + perm
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    touching = bool(sets[cyc[i]] & sets[cyc[j]])
                    consecutive = (j - i == 1) or (i == 0 and j == k - 1)
                    if touching != consecutive:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                total = sets[cyc[0]]
                for f in cyc[1:]:
                    total = total & sets[f]
                if not total:
                    found.add(_cycle_key(cyc))
    return found


def pentagon_ring_sites(m: PlanarMap) -> set:
    """Face sets of a pentagon surrounded by five pentagons."""
    out = set()
    for f in range(m.num_faces):
        if m.face_sizes[f] != 5:
            continue
        nbrs = m.face_neighbors(f)
        if all(m.face_sizes[g] == 5 for g in nbrs):
            out.add(frozenset((f,) + nbrs))
    return out


def triple_cap_sites(m: PlanarMap) -> set:
    """Face sets of three pentagons at a vertex with pentagon notches."""
    out = set()
    for v in range(m.num_vertices):
        fs = sorted({m.face_of[3 * v + j] for j in range(3)})
        if len(fs) != 3 or any(m.face_sizes[f] != 5 for f in fs):
            continue
        notches = set()
        good = True
        for j in range(3):
            d = 3 * v + j
            # far end of the edge leaving v along dart d
            w = m.target(d)
            wfaces = {m.face_of[3 * w + i] for i in range(3)}
            notch = wfaces - set(fs)
            if len(notch) != 1:
                good = False
                break
            g = notch.pop()
            if m.face_sizes[g] != 5:
                good = False
                break
            notches.add(g)
        if good and len(notches) == 3:
            out.add(frozenset(fs) | frozenset(notches))
    return out


def three_belt_through_scan(m: PlanarMap, fp: int, fq: int):
    """The least face that meets fp and fq but not their common vertices,
    or None, by a scan of every face's vertex set."""
    sets = m.face_vertex_sets
    inter_pq = sets[fp] & sets[fq]
    for fk in range(m.num_faces):
        if fk in (fp, fq):
            continue
        sk = sets[fk]
        if sk & sets[fp] and sk & sets[fq] and not (sk & inter_pq):
            return fk
    return None


def pentagon_pair_hex_corners(m: PlanarMap) -> set:
    """Face sets of two adjacent pentagons whose shared edge meets hexagons."""
    out = set()
    for d in m.edges:
        fa, fb = m.face_of[d], m.face_of[m.twin(d)]
        if m.face_sizes[fa] != 5 or m.face_sizes[fb] != 5:
            continue
        ca, cb = m.edge_corner_faces(d)
        if m.face_sizes[ca] == 6 and m.face_sizes[cb] == 6:
            out.add(frozenset((fa, fb, ca, cb)))
    return out


def pentagon_triple_arm_sites(m: PlanarMap) -> set:
    """Face sets of the five-face pattern: three pentagons at a vertex, a
    hexagon past one shared edge, a hexagon across the third pentagon."""
    out = set()
    sets = m.face_vertex_sets
    for v in range(m.num_vertices):
        fs = sorted({m.face_of[3 * v + j] for j in range(3)})
        if len(fs) != 3 or any(m.face_sizes[f] != 5 for f in fs):
            continue
        for j in range(3):
            d = 3 * v + j
            a = m.face_of[d]
            b = m.face_of[m.twin(d)]
            c = next(f for f in fs if f not in (a, b))
            w = m.target(d)
            wfaces = {m.face_of[3 * w + i] for i in range(3)}
            ell = (wfaces - {a, b}).pop()
            if m.face_sizes[ell] != 6:
                continue
            blob = sets[a] | sets[b]
            us = [
                g for g in set(m.face_neighbors(c))
                if g not in (a, b) and not (sets[g] & blob)
            ]
            if len(us) == 1 and m.face_sizes[us[0]] == 6:
                out.add(frozenset((a, b, c, ell, us[0])))
    return out


def nx_polytopal(m: PlanarMap) -> bool:
    """Planarity plus 3-connectivity via networkx."""
    import networkx as nx

    g = nx.Graph()
    for d in m.edges:
        g.add_edge(d // 3, m.twin(d) // 3)
    planar, _ = nx.check_planarity(g)
    return planar and nx.algorithms.connectivity.node_connectivity(g) >= 3


def cube_map() -> PlanarMap:
    from fforge import map_from_faces

    return map_from_faces(
        [[0, 1, 2, 3], [1, 0, 4, 5], [2, 1, 5, 6], [3, 2, 6, 7], [0, 3, 7, 4], [7, 6, 5, 4]]
    )


def barrel_c24() -> PlanarMap:
    """Hexagonal-barrel 24-vertex fullerene, built face-by-face."""
    from fforge import map_from_faces

    t = list(range(6))
    u = list(range(6, 12))
    v = list(range(12, 18))
    b = list(range(18, 24))
    faces = [tuple(t)]
    for i in range(6):
        j = (i + 1) % 6
        faces.append((t[j], t[i], u[i], v[i], u[j]))
    for i in range(6):
        j = (i + 1) % 6
        faces.append((u[j], v[i], b[i], b[j], v[j]))
    faces.append(tuple(reversed(b)))
    return map_from_faces(faces)


def ipr_c60() -> PlanarMap:
    """Icosahedral 60-vertex fullerene wound from its face spiral."""
    from fforge.engine import _windup

    pent = {1, 7, 9, 11, 13, 15, 18, 20, 22, 24, 26, 32}
    sizes = [5 if (i + 1) in pent else 6 for i in range(32)]
    m = _windup(sizes)
    assert m is not None
    return m


def relabeled(m: PlanarMap, seed: int) -> PlanarMap:
    """A copy of ``m`` with its vertices shuffled by a seeded permutation."""
    perm = list(range(m.num_vertices))
    random.Random(seed).shuffle(perm)
    rot = [None] * m.num_vertices
    for v in range(m.num_vertices):
        rot[perm[v]] = [perm[u] for u in m.neighbors(v)]
    return PlanarMap.from_rotation(rot)


def mirrored(m: PlanarMap) -> PlanarMap:
    """The mirror image of a map: every vertex's rotation reversed, so dart
    ``3v + j`` becomes ``3v + (-j mod 3)``."""
    flip = [3 * (d // 3) + (3 - d % 3) % 3 for d in range(m.num_darts)]
    twin = [0] * m.num_darts
    for d in range(m.num_darts):
        twin[flip[d]] = flip[m.twin(d)]
    return PlanarMap(twin)


def leapfrog(m: PlanarMap) -> PlanarMap:
    """Truncated dual of a cubic map, an independent isolated-pentagon source.

    Vertices of the result are the darts of ``m``: each face contributes its
    reversed walk, each vertex a hexagon alternating in-darts and out-darts.
    """
    from fforge import map_from_faces

    faces = [tuple(reversed(cyc)) for cyc in m.faces]
    for v in range(m.num_vertices):
        d = m.twin(3 * v)
        hexagon = []
        for _ in range(3):
            hexagon.append(d)
            d = m.face_next(d)
            hexagon.append(d)
            d = m.twin(d)
        faces.append(tuple(hexagon))
    return map_from_faces(faces)


def two_edge_connected_cubic() -> PlanarMap:
    """Cubic planar simple graph with a 2-edge-cut (not 3-connected).

    Two copies of K4 minus an edge, joined by the two edges (2,4), (3,5).
    """
    from fforge import map_from_faces

    faces = [
        (0, 2, 1),
        (0, 1, 3),
        (4, 7, 6),
        (5, 6, 7),
        (2, 0, 3, 5, 7, 4),
        (2, 4, 6, 5, 3, 1),
    ]
    return map_from_faces(faces)


def bridged_cubic() -> PlanarMap:
    """Cubic planar simple graph with a bridge (not 3-connected).

    Two copies of K4 with one edge subdivided, joined by the bridge (0, 5)
    between the subdividing vertices; V=10, E=15, F=7.  The bridge is dart 0,
    and one face runs along both of its sides.
    """
    from fforge import map_from_faces

    faces = [
        (0, 1, 3, 2, 0, 5, 6, 8, 7, 5),
        (1, 0, 2, 4),
        (2, 3, 4),
        (3, 1, 4),
        (6, 5, 7, 9),
        (7, 8, 9),
        (8, 6, 9),
    ]
    return map_from_faces(faces)


def code_symbols_referee(m: PlanarMap, sigma, d0: int, best, exact: bool = False):
    """The first-visit labeling walk of ``PlanarMap._code_symbols`` in its
    plain form, which records every symbol it reads: the walk symbols from
    dart ``d0`` in rotation ``sigma``, or None once a symbol exceeds best's
    (with ``exact``, once it differs).  ``best[0:3]`` is the prefix the
    caller has matched."""
    twin = [m.twin(d) for d in range(m.num_darts)]
    label = [0] * m.num_vertices
    label[d0 // 3] = 1
    refs = [d0]
    out = []
    nlab = 1
    improving = best is None
    bi = 3
    i = 0
    while i < len(refs):
        d = refs[i]
        i += 1
        for _ in range(3):
            td = twin[d]
            u = td // 3
            lab = label[u]
            if lab == 0:
                nlab += 1
                label[u] = nlab
                refs.append(td)
                lab = nlab
            out.append(lab)
            if not improving:
                b = best[bi]
                bi += 1
                if lab > b:
                    return None
                if lab < b:
                    if exact:
                        return None
                    improving = True
            d = sigma[d]
    return out


def scan_automorphisms(m: PlanarMap, include_reflection: bool):
    """``PlanarMap.automorphisms`` by a plain scan that shares no code with
    the canonical search: every start with the least face-size prefix is
    walked in full by ``code_symbols_referee``, the least code is the least
    of those reads, and each ``(reflected, dart)`` start that reads it, in
    sorted order, gives the dart map psi_w^-1 . psi_d.  Here psi_x is the
    first-visit relabeling from x and w the first start that reads the
    code."""
    n = m.num_darts
    twin = [m.twin(d) for d in range(n)]
    rotations = {False: [m.next(d) for d in range(n)]}
    if include_reflection:
        rotations[True] = [m.prev(d) for d in range(n)]

    def face_size(d0):
        d, size = m.next(twin[d0]), 1
        while d != d0:
            d, size = m.next(twin[d]), size + 1
        return size

    def relabeling(sigma, d0):
        order, seen, dart_map = [d0], {d0 // 3}, [0] * n
        for i, d in enumerate(order):
            for j in range(3):
                dart_map[d] = 3 * i + j
                if twin[d] // 3 not in seen:
                    seen.add(twin[d] // 3)
                    order.append(twin[d])
                d = sigma[d]
        return dart_map

    prefixes = {}
    for refl in rotations:
        for d in range(n):
            sizes = (face_size(d), face_size(twin[d]))
            prefixes[refl, d] = [m.num_vertices, *(sizes[::-1] if refl else sizes)]
    least_prefix = min(prefixes.values())
    reads = {
        start: prefix + code_symbols_referee(m, rotations[start[0]], start[1], None)
        for start, prefix in prefixes.items() if prefix == least_prefix
    }
    least = min(reads.values())
    starts = sorted(start for start, code in reads.items() if code == least)
    w_refl, w = starts[0]
    inv = [0] * n
    for old, new in enumerate(relabeling(rotations[w_refl], w)):
        inv[new] = old
    return tuple(tuple(inv[x] for x in relabeling(rotations[refl], d)) for refl, d in starts)


def unpruned_successors(m: PlanarMap, regime: Regime, max_faces: int, include_reflection: bool = True):
    """``growth.successor_candidates`` without its orbit pruning: every
    chain cuts every ``enumerate_sites`` site at every level, in the same
    order, and the caps come first; chain intermediates are canonical under
    the ``include_reflection`` equivalence.  The referee of that pruning,
    which may drop a move only when an earlier kept move reaches the same
    class."""
    cls = classify_shape(m)
    if cls not in _REGIME_CLASSES[regime]:
        return
    kinds = [
        k for k in _REGIME_KINDS[regime]
        if cls in _SOURCE_CLASSES[k] and m.num_faces + _FACE_GAIN[k] <= max_faces
    ]
    if GrowthOpKind.A1 in kinds or GrowthOpKind.A2 in kinds:
        yield from _cap_successors(m, kinds)

    def walk(kind, cur, chain, acc):
        s, k, m1, m2 = KIND_SIGNATURES[chain[0]]
        for site in enumerate_sites(cur, s=s, k=k, m1=m1, m2=m2):
            raw = truncate(cur, site).map
            payload = acc + (site,)
            if len(chain) == 1:
                yield kind, ("trunc", payload), raw
            else:
                yield from walk(kind, raw.canonical_form(include_reflection)[0], chain[1:], payload)

    for kind in kinds:
        if kind in KIND_CHAINS:
            yield from walk(kind, m, KIND_CHAINS[kind], ())


def reverses(m: PlanarMap, phi) -> bool:
    """Whether the automorphism ``phi``, a dart map, reverses orientation:
    it takes next to prev rather than to next."""
    return phi[m.next(0)] != m.next(phi[0])


def nx_automorphisms(m: PlanarMap) -> list[dict[int, int]]:
    """The automorphisms of ``m``'s graph as vertex maps, by networkx's VF2
    matcher; for a 3-connected map these are its map automorphisms,
    reflections included (Whitney)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = nx.Graph((d // 3, m.twin(d) // 3) for d in m.edges)
    return list(GraphMatcher(g, g).isomorphisms_iter())


# ----------------------------------------------------------------------
# template fragment matcher
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FragmentPattern:
    """Face-labeled template: sizes per face and slot-to-slot gluings.

    Slot ``j`` of template face ``i`` is the j-th dart of its boundary walk;
    a gluing ((i, a), (j, b)) identifies slot a of face i with slot b of face
    j across a shared edge.  Unglued slots form the template boundary.
    """

    name: str
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
    return FragmentPattern("C1", (5,) * 6, tuple(gl))


def _c2_pattern() -> FragmentPattern:
    # faces 0-2: pentagons at a common vertex; faces 3-5: notch pentagons
    gl = []
    for i in range(3):
        a, a_next = i, (i + 1) % 3
        gl.append(((a, 1), (a_next, 0)))
        gl.append(((a, 2), (3 + i, 0)))
        gl.append(((a, 4), (3 + (i - 1) % 3, 1)))
    return FragmentPattern("C2", (5,) * 6, tuple(gl))


PATTERNS: dict[str, FragmentPattern] = {
    "C1": _c1_pattern(),
    "C2": _c2_pattern(),
    # two edge-sharing pentagons with hexagons at both ends of the shared edge
    "P1": FragmentPattern(
        "P1",
        (5, 5, 6, 6),
        (((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 4), (2, 1)), ((1, 1), (3, 0)), ((0, 4), (3, 1))),
    ),
    # pentagons 0,1,2 at a common vertex; hexagon 3 at the far end of the
    # 0|1 edge; hexagon 4 across the middle far edge of pentagon 2
    "P2": FragmentPattern(
        "P2",
        (5, 5, 5, 6, 6),
        (
            ((0, 0), (1, 1)),
            ((0, 1), (2, 0)),
            ((1, 0), (2, 1)),
            ((0, 4), (3, 1)),
            ((1, 2), (3, 0)),
            ((2, 3), (4, 0)),
        ),
    ),
}


@dataclass(frozen=True)
class Embedding:
    """A label- and rotation-respecting placement of a pattern in a map."""

    pattern: str
    faces: tuple[int, ...]          # image of template face i
    anchors: tuple[int, ...]        # image dart of slot 0 of template face i
    mirrored: bool
    is_patch: bool


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
            if walks[j] is None:
                w = _walk_from(m, image, pat.sizes[j], mirrored)
                if w is None:
                    return None
                # rotate so that position jslot equals image
                walks[j] = w[-jslot:] + w[:-jslot] if jslot else w
                done.add(j)
                queue.append(j)
            elif walks[j][jslot] != image:
                return None
    if len(done) != nfaces:
        return None
    face_ids = tuple(m.face_of[w[0]] if not mirrored else m.face_of[m.twin(w[0])] for w in walks)
    if len(set(face_ids)) != nfaces:
        return None
    return walks, face_ids


def _is_simple_edge_cycle(m: PlanarMap, darts: list[int]) -> bool:
    ends = [(m.source(d), m.target(d)) for d in darts]
    cnt = Counter(v for e in ends for v in e)
    if any(c != 2 for c in cnt.values()):
        return False
    adj: dict[int, list[int]] = {}
    for a, b in ends:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = ends[0][0]
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(cnt)


def match_fragments(m: PlanarMap, name: str) -> list[Embedding]:
    """All embeddings of a template, mirror images included, deduplicated by
    their face-image set.

    A start dart places face 0's slot 0, and the gluings place the rest by
    rigid propagation.  Embeddings come in start-dart order, unmirrored
    first; the first embedding of a face set is kept.  An embedding is a
    patch when its unglued slots walk a simple edge-cycle.
    """
    pattern = PATTERNS[name]
    glue = pattern.glue_table()
    out = []
    seen: set[frozenset] = set()
    for mirrored in (False, True):
        for d0 in range(m.num_darts):
            placed = _place(m, pattern, glue, d0, mirrored)
            if placed is None:
                continue
            walks, face_ids = placed
            key = frozenset(face_ids)
            if key in seen:
                continue
            seen.add(key)
            boundary = [
                walks[i][slot]
                for i in range(len(pattern.sizes))
                for slot in range(pattern.sizes[i])
                if (i, slot) not in glue
            ]
            is_patch = _is_simple_edge_cycle(m, boundary)
            out.append(Embedding(name, face_ids, tuple(w[0] for w in walks), mirrored, is_patch))
    return out


# ----------------------------------------------------------------------
# the (1,3,1,3,1,3) loop search
# ----------------------------------------------------------------------


def survey_131313_referee(m: PlanarMap) -> list[tuple[tuple[int, ...], bool, str]]:
    """(loop, ok, reason) of every (1,3,1,3,1,3)-bordered loop occurrence,
    found by enumerating every simple 6-cycle of faces and walking both
    sides of each; the referee for the package's 12-dart cycle tracer."""
    return [
        (loop, *_check_dichotomy(m, loop, runs, outer))
        for loop, runs, outer in _find_131313_loops(m)
    ]


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
            key = _cycle_key(loop)
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
