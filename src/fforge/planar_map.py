"""Oriented 3-regular planar maps encoded by darts.

A map is stored as one permutation on dart ids, ``twin``: the fixed-point-free
involution pairing the two sides of each edge.  The counterclockwise rotation
``next`` of darts around their source vertex is fixed by the dart numbering:
vertex ``v`` owns darts ``3v``, ``3v+1``, ``3v+2`` in rotation order, so
``next`` is ``3v + (j+1) % 3``.  Vertices, edges and faces are orbits of
``next``, ``twin`` and ``next . twin`` respectively; nothing else is
authoritative state.  Maps are immutable after validation, so they can be
shared freely and used as dictionary keys via their canonical codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

PLANAR_CODE_HEADER = b">>planar_code<<"


class MapError(ValueError):
    """Base class for malformed rotation systems and map-level failures."""


class NonCubicError(MapError):
    """A vertex does not have exactly three distinct neighbors."""


class AsymmetricError(MapError):
    """u lists v as a neighbor but v does not list u."""


class NonSphericalError(MapError):
    """The rotation system does not embed in the sphere (Euler check fails)."""


class DisconnectedError(MapError):
    """The underlying graph is not connected."""


class MalformedHeaderError(MapError):
    """A planar_code stream does not start with a valid record."""


class TruncatedRecordError(MapError):
    """A planar_code record ends before all adjacency lists are closed."""


class VertexOverflowError(MapError):
    """A map does not fit the one-byte planar_code variant."""


class PlanarMap:
    """Immutable oriented 3-regular planar map on the sphere."""

    def __init__(self, twin: Sequence[int], _validated: bool = False):
        self._twin = tuple(twin)
        self._next = _standard_rotation(len(self._twin))
        if not _validated:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rotation(cls, neighbors: Sequence[Sequence[int]]) -> "PlanarMap":
        """Build a validated map from per-vertex counterclockwise neighbor lists.

        Raises:
            NonCubicError: some vertex does not list exactly 3 distinct others.
            AsymmetricError: adjacency is not symmetric.
            DisconnectedError: the graph is not connected.
            NonSphericalError: the embedding has nonzero genus.
        """
        n = len(neighbors)
        index_of = []
        for v, nbrs in enumerate(neighbors):
            nbrs = list(nbrs)
            if len(nbrs) != 3 or len(set(nbrs)) != 3 or v in nbrs:
                raise NonCubicError(f"vertex {v} must have 3 distinct neighbors, got {nbrs}")
            for u in nbrs:
                if not (0 <= u < n):
                    raise AsymmetricError(f"vertex {v} lists unknown neighbor {u}")
            index_of.append({u: j for j, u in enumerate(nbrs)})
        twin = [0] * (3 * n)
        for v, nbrs in enumerate(neighbors):
            for j, u in enumerate(nbrs):
                back = index_of[u].get(v)
                if back is None:
                    raise AsymmetricError(f"vertex {v} lists {u} but not vice versa")
                twin[3 * v + j] = 3 * u + back
        return cls(twin)

    @classmethod
    def _from_code(cls, code: bytes) -> "PlanarMap":
        """The canonical form a canonical code fixes: vertex v's neighbours,
        in rotation order, are the code's three walk symbols for v, minus one."""
        syms = _decode_symbols(code)
        return cls.from_rotation([[s - 1 for s in syms[3 * v + 3:3 * v + 6]] for v in range(syms[0])])

    def _validate(self) -> None:
        n = len(self._twin)
        if n == 0 or n % 3 != 0:
            raise NonCubicError("dart count must be 3V")
        for d in range(n):
            t = self._twin[d]
            if t == d or self._twin[t] != d:
                raise NonCubicError(f"twin is not a fixed-point-free involution at dart {d}")
        # loops and parallel edges
        seen = set()
        for d in range(n):
            u, v = d // 3, self._twin[d] // 3
            if u == v:
                raise NonCubicError(f"loop at vertex {u}")
            if u < v:
                if (u, v) in seen:
                    raise NonCubicError(f"parallel edge between {u} and {v}")
                seen.add((u, v))
        # connectivity (vertex BFS over the cubic graph)
        nv = n // 3
        seen_v = [False] * nv
        stack = [0]
        seen_v[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for j in range(3):
                u = self._twin[3 * v + j] // 3
                if not seen_v[u]:
                    seen_v[u] = True
                    count += 1
                    stack.append(u)
        if count != nv:
            raise DisconnectedError(f"graph has {nv - count} unreachable vertices")
        # Euler check: V - E + F = 2 on the sphere
        if self.num_vertices - self.num_edges + self.num_faces != 2:
            raise NonSphericalError(
                f"V-E+F = {self.num_vertices - self.num_edges + self.num_faces}, expected 2"
            )

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    @property
    def num_darts(self) -> int:
        return len(self._twin)

    @property
    def num_vertices(self) -> int:
        return len(self._twin) // 3

    @property
    def num_edges(self) -> int:
        return len(self._twin) // 2

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def twin(self, d: int) -> int:
        return self._twin[d]

    def next(self, d: int) -> int:
        return self._next[d]

    def prev(self, d: int) -> int:
        """Inverse rotation (clockwise step around the source vertex)."""
        return 3 * (d // 3) + (d + 2) % 3

    def source(self, d: int) -> int:
        return d // 3

    def target(self, d: int) -> int:
        return self._twin[d] // 3

    def face_next(self, d: int) -> int:
        """Next dart along the face to the left of ``d``."""
        return self._next[self._twin[d]]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face orbits as tuples of darts, each traced by ``face_next``."""
        face_next = list(map(self._next.__getitem__, self._twin))
        seen = [False] * len(face_next)
        out = []
        for d0 in range(len(face_next)):
            if seen[d0]:
                continue
            cyc = []
            d = d0
            while not seen[d]:
                seen[d] = True
                cyc.append(d)
                d = face_next[d]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def face_of(self) -> tuple[int, ...]:
        fo = [0] * self.num_darts
        for i, cyc in enumerate(self.faces):
            for d in cyc:
                fo[d] = i
        return tuple(fo)

    @cached_property
    def face_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.faces)

    @cached_property
    def face_vertex_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(d // 3 for d in cyc) for cyc in self.faces)

    def face_neighbors(self, f: int) -> tuple[int, ...]:
        """Faces across each boundary dart of ``f``, in walk order."""
        return tuple(self.face_of[self._twin[d]] for d in self.faces[f])

    @cached_property
    def edges(self) -> tuple[int, ...]:
        """One canonical dart per edge (the smaller of the pair)."""
        return tuple(d for d in range(self.num_darts) if d < self._twin[d])

    def neighbors(self, v: int) -> tuple[int, int, int]:
        return tuple(self._twin[3 * v + j] // 3 for j in range(3))

    def edge_corner_faces(self, d: int) -> tuple[int, int]:
        """The two faces at the endpoints of dart d's edge, off the edge itself.

        The first is the third face at ``source(d)``, the second at ``target(d)``.
        """
        nxt = self._next
        return (
            self.face_of[nxt[nxt[d]]],
            self.face_of[nxt[nxt[self._twin[d]]]],
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PlanarMap) and self._twin == other._twin

    def __hash__(self) -> int:
        return hash(self._twin)

    def __repr__(self) -> str:
        return f"PlanarMap(V={self.num_vertices}, E={self.num_edges}, F={self.num_faces})"

    # ------------------------------------------------------------------
    # canonical codes
    # ------------------------------------------------------------------

    def _code_symbols(self, sigma, d0: int, best, exact: bool = False):
        """First-visit labeling walk from dart d0: ``(symbols, refs)``, refs the
        darts it enters the vertices by; None if worse than best, or with ``exact``,
        as soon as a symbol differs.  It records best's symbols if it reads all."""
        twin = self._twin
        label = [0] * self.num_vertices
        label[d0 // 3] = 1
        refs = [d0]
        nlab = 1
        out = [] if best is None else None
        bi = 3  # best[0:3] is the vertex count and face-size prefix, already matched
        for d in refs:
            for x in (d, sigma[d], sigma[sigma[d]]):
                td = twin[x]
                lab = label[td // 3]
                if not lab:
                    nlab += 1
                    lab = label[td // 3] = nlab
                    refs.append(td)
                if out is not None:
                    out.append(lab)
                elif lab != best[bi]:
                    if exact or lab > best[bi]:
                        return None
                    out = list(best[3:bi])
                    out.append(lab)
                else:
                    bi += 1
        return (best[3:] if out is None else out), refs

    def _canonical_search(self, include_reflection: bool):
        """``(code, winning start, generators)`` of the least code over all
        starts, each start a ``(reflected, dart)`` pair.

        Starts are pruned by the automorphisms the search finds.  A walk
        that reads the best code so far in full, a tie, gives the generator
        phi that sends the k-th dart the best start's walk visits to the
        k-th its own visits (orientation-reversing when the two starts
        differ in reflection), and every start is merged with its image in
        a union-find over the starts.  A start whose class already holds a
        walked start is skipped: starts in one orbit read the same walk, so
        the first start that reads the least code still wins.  Each start
        that reads it was walked as a tie or skipped into the winner's
        class, so the generators, () for a trivial group, generate the
        group; each lies outside the group the earlier ones generate, so
        there are at most log2 |Aut|.
        """
        fo = self.face_of
        fs = self.face_sizes
        twin = self._twin
        n = self.num_darts
        rotations = (self._next, _standard_rotation(n, True))
        # prefix = face sizes left/right of the starting dart; only darts with
        # the minimal prefix can start a minimal code
        best_prefix = None
        cands = []
        for refl in (False, True) if include_reflection else (False,):
            for d in range(n):
                a, b = fs[fo[d]], fs[fo[twin[d]]]
                p = (b, a) if refl else (a, b)
                if best_prefix is None or p < best_prefix:
                    best_prefix = p
                    cands = [(refl, d)]
                elif p == best_prefix:
                    cands.append((refl, d))
        best = winner = win_walk = win_order = None
        gens = []
        # union-find over the candidates; walked[root]: the class holds a
        # walked start; slot[refl][d]: the index of the candidate (refl, d)
        parent = list(range(len(cands)))
        walked = [False] * len(cands)
        slot = None

        def find(i):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for i, start in enumerate(cands):
            root = find(i)
            if walked[root]:
                continue
            walked[root] = True
            refl, d = start
            read = self._code_symbols(rotations[refl], d, best)
            if read is None:
                continue
            syms, refs = read
            full = [self.num_vertices, *best_prefix] + syms
            if best is None or full < best:
                best, winner, win_walk, win_order = full, start, (rotations[refl], refs), None
                continue
            # a tie: the two walks visit the darts in corresponding order; a
            # dart no walk reaches, only in a map not yet validated, stays put
            if win_order is None:
                win_order = _visit_order(*win_walk)
            image = dict(zip(win_order, _visit_order(rotations[refl], refs)))
            phi = tuple(map(image.get, range(n), range(n)))
            gens.append(phi)
            if slot is None:
                slot = ([-1] * n, [-1] * n)
                for j, (r, x) in enumerate(cands):
                    slot[r][x] = j
            flip = refl != winner[0]
            for j, (r, x) in enumerate(cands):
                a, b = find(j), find(slot[r != flip][phi[x]])
                if a != b:
                    parent[a] = b
                    walked[b] = walked[b] or walked[a]
        return _encode_symbols(best), winner, tuple(gens)

    def _canonical(self, include_reflection: bool):
        """``(code, winning start, generators)`` of the canonical search, run
        once per flag; the start is a ``(reflected, dart)`` pair and the
        generators are dart maps that generate the automorphism group."""
        cache = self._code_cache
        hit = cache.get(include_reflection)
        if hit is None:
            hit = cache[include_reflection] = self._canonical_search(include_reflection)
        return hit

    def reads_code(self, code: bytes, include_reflection: bool = True, start=None) -> bool:
        """Whether some labeling walk of this map reads ``code`` in full.

        A code's symbols are the vertex count, the face-size prefix, then
        the walk.  ``start``, a ``(reflected, dart)`` pair that should read
        the code, is walked first, in exact mode and before any face table
        is read; its prefix is checked by tracing its two faces.  If it is
        missing or fails, a scan answers: only starts with the code's prefix
        and corner sizes (``_corner_sizes``) are walked, each in exact mode,
        unreflected darts in dart order first, then with
        ``include_reflection`` the mirrored ones, and the first walk that
        reads every symbol answers True.  The mirror rotation, and a
        reflected ``start``, are tried only with ``include_reflection``.  A
        walk encodes the whole map, so True proves this map isomorphic to
        the code's map, but not that the code is minimal: nothing is cached.
        """
        symbols = _decode_symbols(code)
        if len(symbols) != 3 + self.num_darts or symbols[0] != self.num_vertices:
            return False
        if start is not None and (include_reflection or not start[0]) and self._reads_from(symbols, *start):
            return True
        fo, fs, twin = self.face_of, self.face_sizes, self._twin
        corners, prv = _corner_sizes(symbols), _standard_rotation(self.num_darts, True)
        for refl in (False, True) if include_reflection else (False,):
            sigma = prv if refl else self._next
            left, right = (symbols[2], symbols[1]) if refl else (symbols[1], symbols[2])
            for d in range(self.num_darts):
                if (
                    fs[fo[d]] == left
                    and fs[fo[twin[d]]] == right
                    and (fs[fo[prv[d]]], fs[fo[prv[twin[d]]]]) == corners
                    and self._code_symbols(sigma, d, symbols, exact=True) is not None
                ):
                    return True
        return False

    def automorphisms(self, include_reflection: bool = True) -> tuple[tuple[int, ...], ...]:
        """The automorphism group, as dart maps, computed once per flag;
        without ``include_reflection``, only the orientation-preserving ones.

        The group is the closure of the canonical search's generators, with
        no walk: breadth first from the identity, each element times each
        generator, composed only if its images of the winning dart w and of
        next(w), which fix it, are new.  ``phi[x]`` keeps x's source and
        target; phi reverses orientation, mapping the face left of x to the
        face right of its image, exactly when ``phi[next(x)] != next(phi[x])``.
        Elements are sorted by the ``(reflected, dart)`` start they send to w.
        """
        cache = self._aut_cache
        hit = cache.get(include_reflection)
        if hit is None:
            _, (w_refl, w), gens = self._canonical(include_reflection)
            nxt = self._next
            nw = nxt[w]
            group, seen = [tuple(range(self.num_darts))], {(w, nw)}
            for e in group:
                for g in gens:
                    key = (e[g[w]], e[g[nw]])
                    if key not in seen:
                        seen.add(key)
                        group.append(tuple(map(e.__getitem__, g)))
            group.sort(key=lambda h: (w_refl != (h[nw] != nxt[h[w]]), h.index(w)))
            hit = cache[include_reflection] = tuple(group)
        return hit

    def _reads_from(self, symbols: Sequence[int], reflected: bool, d0: int) -> bool:
        """Whether the walk from ``d0``, in the mirror rotation if
        ``reflected``, reads ``symbols``, prefix and all."""
        if not 0 <= d0 < self.num_darts:
            return False
        sigma = _standard_rotation(self.num_darts, reflected)
        if self._code_symbols(sigma, d0, symbols, exact=True) is None:
            return False
        nxt, twin = self._next, self._twin

        def face_size(d):
            e, size = nxt[twin[d]], 1
            while e != d:
                e, size = nxt[twin[e]], size + 1
            return size

        sizes = (face_size(d0), face_size(twin[d0]))
        return (sizes[::-1] if reflected else sizes) == tuple(symbols[1:3])

    def canonical_code(self, include_reflection: bool = True) -> bytes:
        """Byte string identifying the isomorphism class of this map.

        Two maps get equal codes exactly when they are isomorphic as oriented
        maps; with ``include_reflection`` (the default) mirror images are
        identified as well.
        """
        return self._canonical(include_reflection)[0]

    @cached_property
    def _code_cache(self) -> dict:
        return {}

    @cached_property
    def _aut_cache(self) -> dict:
        return {}

    def canonical_form(self, include_reflection: bool = True) -> tuple["PlanarMap", list[int], bool]:
        """Relabeled copy in canonical labeling plus the dart relabeling.

        Returns ``(map, dart_map, reflected)`` where ``dart_map[old] = new``
        sends each dart to the new dart with the same source and target; when
        ``reflected`` is set the rotation was inverted, so a dart's left face
        becomes its image's right face.  Isomorphic inputs produce
        dart-for-dart identical outputs.  The copy carries its search's
        result: the code, ``(False, 0)`` as the winning start, and the
        generators in its own labeling, so neither its code nor its
        ``automorphisms`` costs a walk.
        """
        code, (refl, w), gens = self._canonical(include_reflection)
        # dart k of the copy is the k-th dart the winner's walk visits: vertex
        # v is the v-th vertex it reaches, its darts in the walk's rotation
        sigma = _standard_rotation(self.num_darts, refl)
        order = _visit_order(sigma, self._code_symbols(sigma, w, None)[1])
        dart_map = [0] * self.num_darts
        for k, x in enumerate(order):
            dart_map[x] = k
        twin = self._twin
        # a bijective relabeling of a validated map needs no second validation
        out = PlanarMap([dart_map[twin[x]] for x in order], _validated=True)
        # the copy reads the code from dart 0 unreflected, the first candidate
        # its own search would try, so that start wins; a generator g becomes
        # dart_map . g . order, order being dart_map's inverse
        gens = tuple(tuple(map(dart_map.__getitem__, map(g.__getitem__, order))) for g in gens)
        out._code_cache[include_reflection] = (code, (False, 0), gens)
        return out, dart_map, refl


def _visit_order(sigma, refs) -> list[int]:
    """The darts a walk in ``sigma`` visits, vertex by vertex: each dart in ``refs``,
    by which the walk enters a vertex, then its sigma-image, then that one's."""
    return [x for d in refs for x in (d, sigma[d], sigma[sigma[d]])]


@lru_cache(maxsize=None)
def _standard_rotation(num_darts: int, reflected: bool = False) -> tuple[int, ...]:
    """``3v + j -> 3v + (j+1) % 3``: the rotation every map uses, or if ``reflected`` its inverse."""
    step = 2 if reflected else 1
    return tuple(3 * (d // 3) + (d + step) % 3 for d in range(num_darts))


def _corner_sizes(symbols: Sequence[int]) -> tuple[int, int] | None:
    """Sizes of the faces of ``prev(d)`` and ``prev(twin(d))`` at a code's start d, the same
    in either rotation, traced in the code's table (vertex v's neighbours are its walk
    symbols minus one; d is dart 0); None, which no start matches, if that is no map."""
    nv = symbols[0]

    def face_next(d):  # next(twin(d)) in the table; None if the edge is listed at one end only
        u = symbols[3 + d] - 1
        row = symbols[3 + 3 * u:6 + 3 * u] if 0 <= u < nv else ()
        return 3 * u + (row.index(d // 3 + 1) + 1) % 3 if d // 3 + 1 in row else None

    def face_size(d0):
        d, size = face_next(d0), 1
        while d is not None and d != d0 and size < 3 * nv:
            d, size = face_next(d), size + 1
        return size if d == d0 else None

    t = face_next(0)  # so prev(twin(0)) is next(t)
    a, b = face_size(2), t is not None and face_size(t - t % 3 + (t + 1) % 3)
    return (a, b) if a and b else None


def _encode_symbols(symbols: list[int]) -> bytes:
    """The code of ``[nv, *prefix, *walk]``: a byte each, or if one exceeds 255, 0 then 2 each."""
    if all(s <= 255 for s in symbols):
        return bytes(symbols)
    return b"\0" + b"".join(s.to_bytes(2, "big") for s in symbols)


def _decode_symbols(code: bytes) -> Sequence[int]:
    """``[nv, *symbols]`` of a code ``_encode_symbols`` wrote; a 1-byte
    code is its own symbol sequence, so it is returned as it is."""
    if code[:1] != b"\0":
        return code
    return [int.from_bytes(code[i:i + 2], "big") for i in range(1, len(code), 2)]


def map_from_faces(face_cycles: Iterable[Sequence[int]]) -> PlanarMap:
    """Assemble a map from consistently oriented face vertex-cycles.

    Every edge must be traversed exactly once in each direction over all
    cycles; the rotation at each vertex is reconstructed from face corners.
    """
    succ: dict[int, dict[int, int]] = {}
    for cyc in face_cycles:
        m = len(cyc)
        for i in range(m):
            a, v, b = cyc[i - 1], cyc[i], cyc[(i + 1) % m]
            table = succ.setdefault(v, {})
            if a in table:
                raise MapError(f"edge ({v},{a}) traversed twice in the same direction")
            table[a] = b
    n = len(succ)
    if sorted(succ) != list(range(n)):
        raise MapError("face cycles must cover vertices 0..n-1")
    rot = []
    for v in range(n):
        table = succ[v]
        if len(table) != 3:
            raise NonCubicError(f"vertex {v} has degree {len(table)}")
        start = next(iter(table))
        row = [start, table[start]]
        row.append(table[row[1]])
        if table[row[2]] != start:
            raise MapError(f"rotation at vertex {v} does not close up")
        rot.append(row)
    return PlanarMap.from_rotation(rot)


# ----------------------------------------------------------------------
# p-vectors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PVector:
    """Face-size census: counts[k] = number of k-gonal faces."""

    counts: Mapping[int, int]

    def __post_init__(self):
        for k, c in self.counts.items():
            if k < 3 or c < 0:
                raise MapError(f"invalid p-vector entry p_{k} = {c}")

    def __getitem__(self, k: int) -> int:
        return self.counts.get(k, 0)

    def items(self):
        return sorted(self.counts.items())

    @property
    def num_faces(self) -> int:
        return sum(self.counts.values())

    def curvature_sum(self) -> int:
        """Value of sum (6-k) p_k, which is 12 for any cubic sphere map."""
        return sum((6 - k) * c for k, c in self.counts.items())

    def is_fullerene(self) -> bool:
        return set(self.counts) <= {5, 6} and self[5] == 12

    def __str__(self) -> str:
        return "{" + ", ".join(f"p{k}={c}" for k, c in self.items()) + "}"


def p_vector(m: PlanarMap) -> PVector:
    """Face-size counts of a map, with the sphere invariants asserted."""
    counts = Counter(m.face_sizes)
    pv = PVector(dict(counts))
    if pv.num_faces != m.num_faces or sum(k * c for k, c in counts.items()) != 2 * m.num_edges:
        raise MapError("p-vector bookkeeping failed")
    if pv.curvature_sum() != 12:
        raise NonSphericalError(f"sum (6-k) p_k = {pv.curvature_sum()}, expected 12")
    return pv


# ----------------------------------------------------------------------
# 3-connectivity (polytopality by Steinitz' criterion)
# ----------------------------------------------------------------------


def check_polytopal(m: PlanarMap) -> bool:
    """True iff the underlying graph is 3-connected (Steinitz criterion).

    For cubic simple graphs vertex connectivity equals edge connectivity, and
    in a plane graph the minimal edge cuts are exactly the cycles of the dual.
    So the map is 3-connected iff its dual is simple: no edge has the same
    face on both sides (a bridge) and no two faces share two edges (a
    2-edge-cut).  The map is planar and simple by construction.
    """
    fo, twin = m.face_of, m._twin
    seen = set()
    for d in m.edges:
        a, b = fo[d], fo[twin[d]]
        if a == b:
            return False
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            return False
        seen.add(pair)
    return True


# ----------------------------------------------------------------------
# planar_code I/O
# ----------------------------------------------------------------------


def encode_planar_code(maps: Iterable[PlanarMap], with_header: bool = True) -> bytes:
    """Serialize maps in the 1-byte planar_code format."""
    out = bytearray()
    if with_header:
        out += PLANAR_CODE_HEADER
    for m in maps:
        n = m.num_vertices
        if n > 255:
            raise VertexOverflowError(f"{n} vertices exceed the 1-byte planar_code limit")
        out.append(n)
        for v in range(n):
            for u in m.neighbors(v):
                out.append(u + 1)
            out.append(0)
    return bytes(out)


def planar_code_records(data: bytes) -> list[PlanarMap | MapError]:
    """Each record of a planar_code byte stream: its validated map, or the
    ``MapError`` that validating it raised.

    A bad header, a 2-byte record or a record cut short raises its
    ``MapError`` subclass with the message prefixed by ``record {i}: ``
    (counting records from 0), since no later record can be found.
    """
    i = len(PLANAR_CODE_HEADER) if data.startswith(PLANAR_CODE_HEADER) else 0
    if not i and data[:2] == b">>":
        raise MalformedHeaderError("unrecognized planar_code header")
    records = []
    while i < len(data):
        n, i, rot = data[i], i + 1, []
        if n == 0:
            raise VertexOverflowError(f"record {len(records)}: 2-byte planar_code records are not supported")
        for _ in range(n):
            end = data.find(0, i)
            if end < 0:
                raise TruncatedRecordError(f"record {len(records)}: record ended inside an adjacency list")
            rot.append([c - 1 for c in data[i:end]])
            i = end + 1
        try:
            records.append(PlanarMap.from_rotation(rot))
        except MapError as exc:
            records.append(exc)
    return records


def decode_planar_code(data: bytes) -> list[PlanarMap]:
    """Parse a planar_code byte stream into validated maps.

    A malformed record raises its ``MapError`` subclass with the message
    prefixed by ``record {i}: ``, where ``i`` counts records from 0.
    """
    maps = planar_code_records(data)
    for i, m in enumerate(maps):
        if isinstance(m, MapError):
            raise type(m)(f"record {i}: {m}") from m
    return maps


def write_planar_code(path, maps: Iterable[PlanarMap]) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_planar_code(maps))


def read_planar_code(path) -> list[PlanarMap]:
    with open(path, "rb") as fh:
        return decode_planar_code(fh.read())
