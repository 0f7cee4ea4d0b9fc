"""Local rewrites on cubic planar maps: multi-edge truncation and its inverse.

A truncation site names a count ``s`` of consecutive edges to cut off
(``s = 0`` cuts a single corner) and the dart whose face walk the run starts
on.  The cut is an edge insertion: two new vertices M1 and M2 split the face
edges on either side of the run and are joined by one new edge.  That makes
the run a new (s+3)-gon, shrinks the host face to a (k-s+1)-gon and grows
the two side faces flanking the run by one edge each.  Straightening is the
edge deletion that undoes it: the edge's two endpoints are smoothed away and
its two faces merge.

Both rewrites trust their preconditions and build their result unvalidated;
the closure engine validates each map it keeps.  A cut at a site that
``_run_darts`` accepts is a simple cubic sphere map whenever its input is
one: the new edge splits the site face, so V, E and F grow by 2, 3 and 1;
M1 and M2 are new vertices, so it makes no loop; the run revisits no vertex
and the flanking vertices lie outside it, so it makes no parallel edge; and
connectivity is kept.  Straightening merges two distinct faces, so the
deleted edge is no bridge and the result is connected with F - 1 faces; it
fails only where a joined edge would be parallel to another, which is
checked locally.

Labeling contract: ``truncate`` keeps every dart id of its input and appends
M1 and M2 as the last two vertices; ``straighten`` drops the edge's two
endpoints and shifts every later vertex id down, so it gives back a
truncation's input dart for dart, and reports that shift as its
``relabel`` list.  ``growth._canonical_site`` breaks ties between
automorphic starts by raw dart id, so reduction traces depend on these
labels.  The reduction also relies on both to carry the start of a code's
walk across a step (``growth._carried_start``): a dart that survives a
straightening keeps its place, through ``relabel``, in the truncation that
rebuilds the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .planar_map import MapError, NonCubicError, PlanarMap


class InvalidSiteError(MapError):
    """The requested truncation site does not fit the map."""


class SimplexInputError(MapError):
    """Straightening is never defined on the simplex."""


class ThreeBeltObstructionError(MapError):
    """Straightening blocked: the edge's two faces close a 3-belt."""

    def __init__(self, third_face: int):
        super().__init__(f"edge faces form a 3-belt with face {third_face}")
        self.third_face = third_face


class TruncationSite(NamedTuple):
    """Anchor of an (s,k)-truncation: the cut consumes the run of ``s`` edges
    of the face walk of ``start_dart`` (face ``face_of[start_dart]``) that
    starts at ``source(start_dart)``.  For ``s = 0`` only that corner vertex
    is cut.  A growth step records its sub-sites in this shape, as
    ``(s, dart)`` pairs.
    """

    s: int
    start_dart: int

    def walk(self, m: PlanarMap) -> list[int]:
        """The s + 1 face darts from ``start_dart``: their sources are the
        run's vertices, and the last dart leaves the run."""
        walk = [self.start_dart]
        for _ in range(self.s):
            walk.append(m.face_next(walk[-1]))
        return walk

    def signature(self, m: PlanarMap) -> tuple[int, int, int, int]:
        """(s, k, m1, m2) with the face and side-face sizes read from the map."""
        k = m.face_sizes[m.face_of[self.start_dart]]
        m1, m2 = side_face_sizes(m, self)
        return (self.s, k, min(m1, m2), max(m1, m2))


@dataclass(frozen=True)
class EdgeRef:
    """An undirected edge named by one of its darts."""

    dart: int


@dataclass(frozen=True)
class TruncationResult:
    map: PlanarMap
    new_edge: EdgeRef


@dataclass(frozen=True)
class StraighteningResult:
    """``relabel[x]`` is the id in ``map`` of the input's dart ``x``, for
    ``x`` at a vertex that survives."""

    map: PlanarMap
    inverse_site: TruncationSite
    relabel: list[int] = field(compare=False, repr=False)


def cut_key(vertices: Sequence[int]) -> tuple[int, ...]:
    """The cut at a run of vertices, named by its vertex path read in either
    direction.  A vertex (s = 0) or an edge (s = 1) is the same cut from every
    face at it; in a cubic map each corner lies in one face, so a longer run
    is fixed by its path.  No orientation enters, so an automorphism sends a
    cut's key to its image's key whether or not it reverses orientation."""
    path = tuple(vertices)
    return min(path, path[::-1])


def _run_darts(m: PlanarMap, site: TruncationSite) -> tuple[int, int]:
    """The face darts into the run's first vertex and out of its last;
    InvalidSiteError unless its run of vertices can be cut off."""
    if not 0 <= site.start_dart < m.num_darts:
        raise InvalidSiteError(f"start dart {site.start_dart} is no dart of the map")
    k = m.face_sizes[m.face_of[site.start_dart]]
    if not (0 <= site.s <= k - 2):
        raise InvalidSiteError(f"s = {site.s} out of range for a {k}-gon")
    walk = site.walk(m)
    d_in, d_out = m.twin(m.prev(walk[0])), walk[-1]
    w = [m.source(d) for d in walk]
    prev_v, nxt_v = m.source(d_in), m.target(d_out)
    wset = set(w)
    if len(wset) != len(w):
        raise InvalidSiteError("run revisits a vertex")
    for i, wi in enumerate(w):
        ring = {prev_v if i == 0 else w[i - 1], nxt_v if i == len(w) - 1 else w[i + 1]}
        third = [u for u in m.neighbors(wi) if u not in ring]
        if len(third) != 1 or third[0] in wset:
            raise InvalidSiteError("run touches a chord of the face")
    if prev_v in wset or nxt_v in wset:
        raise InvalidSiteError("flanking vertices collide with the run")
    return d_in, d_out


def side_face_sizes(m: PlanarMap, site: TruncationSite) -> tuple[int, int]:
    """Sizes of the two faces meeting the site face along the flanking edges,
    across its darts into the run (the twin of ``prev(start_dart)``) and out
    of it (the walk's last dart)."""
    fs, fo = m.face_sizes, m.face_of
    return fs[fo[m.prev(site.start_dart)]], fs[fo[m.twin(site.walk(m)[-1])]]


def truncate(m: PlanarMap, site: TruncationSite) -> TruncationResult:
    """Cut ``s`` consecutive edges off a face; pure rewrite, returns a new map.

    The cut inserts one edge M1-M2.  M1 splits the face edge entering the run
    and M2 the one leaving it; the run vertices keep their darts and become
    the new face's X_i.  The new edge is reported so the rewrite can be
    undone deterministically.
    """
    d_in, d_out = _run_darts(m, site)
    n = m.num_darts
    twin = list(m._twin)
    w0_prev, nxt_ws = twin[d_in], twin[d_out]
    # M1 is darts n..n+2 (to prev, to M2, to w_0), M2 is n+3..n+5 (to w_s,
    # to M1, to nxt), in counterclockwise order
    twin += (d_in, n + 4, w0_prev, d_out, n + 1, nxt_ws)
    twin[d_in], twin[w0_prev], twin[d_out], twin[nxt_ws] = n, n + 2, n + 3, n + 5
    return TruncationResult(PlanarMap(twin, _validated=True), EdgeRef(n + 1))


def three_belt_through(m: PlanarMap, fp: int, fq: int) -> Optional[int]:
    """The least face closing a 3-belt with fp and fq, or None.

    The three faces must be pairwise incident with empty common intersection.
    In a cubic map two faces that share a vertex share an edge there, so only
    the faces across an edge of both fp and fq are tried.
    """
    faces = m.faces
    inter_pq = {d // 3 for d in faces[fp]} & {d // 3 for d in faces[fq]}
    for fk in sorted(set(m.face_neighbors(fp)) & set(m.face_neighbors(fq)) - {fp, fq}):
        if inter_pq.isdisjoint([d // 3 for d in faces[fk]]):
            return fk
    return None


def straighten(m: PlanarMap, edge: EdgeRef) -> StraighteningResult:
    """Delete an edge and merge its two faces; the inverse of truncation.

    Each endpoint's two other edges fuse into one.  The inverse site cuts the
    run of the old ``fq = face_of[twin(d)]`` off the merged face again.
    Undefined on the simplex and whenever the edge's faces belong to a
    3-belt; the offending third face is reported in that case.  NonCubicError
    when a joined edge would be parallel to an edge of the map or to the
    other joined edge.
    """
    if m.num_vertices == 4:
        raise SimplexInputError("no straightening is defined on the simplex")
    d = edge.dart
    td = m.twin(d)
    fp, fq = m.face_of[d], m.face_of[td]
    if fp == fq:
        raise InvalidSiteError("edge has the same face on both sides")
    blocker = three_belt_through(m, fp, fq)
    if blocker is not None:
        raise ThreeBeltObstructionError(blocker)
    twin = list(m._twin)
    joined = []
    for e in (d, td):
        # join the far ends of the endpoint's two other edges
        p, q = twin[m.next(e)], twin[m.next(m.next(e))]
        twin[p], twin[q] = q, p
        joined.append((p // 3, q // 3))
    (a1, b1), (a2, b2) = joined
    if b1 in m.neighbors(a1) or b2 in m.neighbors(a2) or {a1, b1} == {a2, b2}:
        raise NonCubicError("straightening would make a parallel edge")
    lo, hi = sorted((d // 3, td // 3))
    n = m.num_darts
    # every later vertex shifts down; lo's and hi's own darts keep no id
    relabel = [*range(3 * lo), -1, -1, -1, *range(3 * lo, 3 * hi - 3), -1, -1, -1, *range(3 * hi - 3, n - 6)]
    kept = twin[:3 * lo] + twin[3 * lo + 3:3 * hi] + twin[3 * hi + 3:]
    out = PlanarMap(list(map(relabel.__getitem__, kept)), _validated=True)
    # the inverse run starts past the deleted edge's two ends along fq
    start = relabel[m.face_next(m.face_next(td))]
    return StraighteningResult(out, TruncationSite(m.face_sizes[fq] - 3, start), relabel)


def enumerate_sites(
    m: PlanarMap,
    s: Optional[int] = None,
    k: Optional[int] = None,
    m1: Optional[int] = None,
    m2: Optional[int] = None,
) -> list[TruncationSite]:
    """All truncation sites matching the (s, k; m1, m2) pattern.

    ``None`` entries are wildcards and the side sizes match unordered, so
    one given side size matches a site with that size on either side.  Each
    cut is reported once, from the first face in face order whose site
    matches: a corner (s = 0) and an edge (s = 1) are the same ``cut_key``
    from every face at them, a longer run once per directed run of its host
    face walk.
    """
    out = []
    reported = set()  # cut_key of each corner and edge cut in out
    s_values = range(0, max(m.face_sizes) - 1) if s is None else [s]
    for sv in s_values:
        for cyc in m.faces:
            fk = len(cyc)
            if k is not None and fk != k:
                continue
            if sv > fk - 2:
                continue
            for d in cyc:
                site = TruncationSite(sv, d)
                if m1 is not None or m2 is not None:
                    a, b = side_face_sizes(m, site)
                    if not (m1 in (None, a) and m2 in (None, b) or m1 in (None, b) and m2 in (None, a)):
                        continue
                if sv <= 1:
                    key = cut_key([x // 3 for x in site.walk(m)])
                    if key in reported:
                        continue
                    reported.add(key)
                out.append(site)
    return out
