"""Growth operations, nanotube families, and reduction to the dodecahedron.

The three operation regimes share one mechanism: every step is either a
chain of two-edges/edge truncations (a single truncation is a chain of one)
or a cap-recognition rebuild for the two nanotube families.  Reduction
searches the admissible inverse straightenings in a fixed order, so
isomorphic inputs produce identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .planar_map import MapError, PlanarMap, build_dodecahedron, map_from_faces, p_vector
from .structure import (
    FamilyClass,
    Fragment,
    NotAFullereneError,
    classify_shape,
    find_fragments,
)
from .transform import (
    EdgeRef,
    ThreeBeltObstructionError,
    TruncationSite,
    enumerate_sites,
    straighten,
    truncate,
)


class AtDodecahedronError(MapError):
    """Reduction was asked for a step below the dodecahedron."""


class NoCaseAppliesError(MapError):
    """No reduction case fired; carries a dump of the offending map."""

    def __init__(self, message: str, m: PlanarMap):
        from .planar_map import encode_planar_code

        dump = encode_planar_code([m], with_header=False).hex()
        super().__init__(f"{message}; map dump (planar_code hex): {dump}")
        self.map = m


class SiteMismatchError(MapError):
    """The supplied site does not match the operation's pattern."""


class IllegalTransitionError(MapError):
    """The operation is not admissible for the map's family class."""


class Regime(Enum):
    SEVEN = "seven"
    A_OPS = "a"
    AB_OPS = "ab"


class GrowthOpKind(Enum):
    T145 = "(1;4,5)"
    T155 = "(1;5,5)"
    T2645 = "(2,6;4,5)"
    T2655 = "(2,6;5,5)"
    T2656 = "(2,6;5,6)"
    T2755 = "(2,7;5,5)"
    T2756 = "(2,7;5,6)"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"
    A7 = "A7"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"


# single-truncation signatures: (s, k or None, m1, m2)
KIND_SIGNATURES: dict[GrowthOpKind, tuple[int, Optional[int], int, int]] = {
    GrowthOpKind.T145: (1, None, 4, 5),
    GrowthOpKind.T155: (1, None, 5, 5),
    GrowthOpKind.T2645: (2, 6, 4, 5),
    GrowthOpKind.T2655: (2, 6, 5, 5),
    GrowthOpKind.T2656: (2, 6, 5, 6),
    GrowthOpKind.T2755: (2, 7, 5, 5),
    GrowthOpKind.T2756: (2, 7, 5, 6),
}

# every truncation kind as its chain of the seven truncations, in forward
# order; A4..A7 are single two-edge truncations under their growth-operation
# names, and the later truncations of a longer chain always act on the
# unique exceptional face they need.  The paper's B5 has B4's chain, source
# and target classes, so B4 stands for both.
KIND_CHAINS: dict[GrowthOpKind, tuple[GrowthOpKind, ...]] = {
    **{k: (k,) for k in KIND_SIGNATURES},
    GrowthOpKind.A3: (GrowthOpKind.T155, GrowthOpKind.T2645),
    GrowthOpKind.A4: (GrowthOpKind.T2655,),
    GrowthOpKind.A5: (GrowthOpKind.T2656,),
    GrowthOpKind.A6: (GrowthOpKind.T2755,),
    GrowthOpKind.A7: (GrowthOpKind.T2756,),
    GrowthOpKind.B1: (GrowthOpKind.T2656, GrowthOpKind.T2755),
    GrowthOpKind.B2: (GrowthOpKind.T2656, GrowthOpKind.T2756),
    GrowthOpKind.B3: (GrowthOpKind.T2656, GrowthOpKind.T2756, GrowthOpKind.T2755),
    GrowthOpKind.B4: (GrowthOpKind.T2656, GrowthOpKind.T2756, GrowthOpKind.T2756),
}

# faces an operation adds: one per truncation, one hexagon belt per cap insertion
_FACE_GAIN: dict[GrowthOpKind, int] = {
    **{k: len(chain) for k, chain in KIND_CHAINS.items()},
    GrowthOpKind.A1: 5,
    GrowthOpKind.A2: 3,
}


@dataclass(frozen=True)
class GrowthStep:
    """One growth event with everything needed to replay it.

    ``site`` is ("trunc", ((s, dart), ...)) with darts in the canonical
    labeling of the map each sub-truncation acts on, or ("cap", family, k)
    for a nanotube-belt insertion recognized from its cap.
    """

    kind: GrowthOpKind
    site: tuple
    code: bytes

    def to_json(self) -> dict:
        if self.site[0] == "trunc":
            payload = {"type": "trunc", "steps": [list(x) for x in self.site[1]]}
        else:
            payload = {"type": "cap", "family": self.site[1], "k": self.site[2]}
        return {"kind": self.kind.name, "site": payload, "code": self.code.hex()}

    @staticmethod
    def from_json(obj: dict) -> "GrowthStep":
        kind = GrowthOpKind[obj["kind"]]
        p = obj["site"]
        if p["type"] == "trunc":
            site = ("trunc", tuple(tuple(x) for x in p["steps"]))
        else:
            site = ("cap", p["family"], p["k"])
        return GrowthStep(kind, site, bytes.fromhex(obj["code"]))


@dataclass(frozen=True)
class DerivationTrace:
    """Growth steps leading from the dodecahedron to a target map."""

    regime: Regime
    start_code: bytes
    steps: tuple[GrowthStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def kinds(self) -> list[GrowthOpKind]:
        return [s.kind for s in self.steps]

    def edge_truncation_count(self) -> int:
        """Number of primitive s=1 cuts when all steps are expanded."""
        n = 0
        for st in self.steps:
            if st.site[0] == "trunc":
                n += sum(1 for s, _ in st.site[1] if s == 1)
        return n

    def to_jsonl(self) -> str:
        head = json.dumps({"regime": self.regime.value, "start": self.start_code.hex()})
        lines = [head] + [json.dumps(s.to_json()) for s in self.steps]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "DerivationTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = json.loads(lines[0])
        steps = tuple(GrowthStep.from_json(json.loads(ln)) for ln in lines[1:])
        return DerivationTrace(Regime(head["regime"]), bytes.fromhex(head["start"]), steps)


# ----------------------------------------------------------------------
# nanotube families
# ----------------------------------------------------------------------


def build_D5k(k: int) -> PlanarMap:
    """Fullerene made of two 6-pentagon caps separated by k hexagon 5-belts."""
    if k < 0:
        raise MapError("k must be nonnegative")
    t = list(range(5))
    xs = [5 + 2 * i for i in range(5)]
    ys = [6 + 2 * i for i in range(5)]
    faces: list[tuple[int, ...]] = [tuple(t)]
    for i in range(5):
        j = (i + 1) % 5
        faces.append((t[j], t[i], xs[i], ys[i], xs[j]))
    next_id = 15
    for _ in range(k):
        ms = [next_id + 2 * i for i in range(5)]
        ls = [next_id + 2 * i + 1 for i in range(5)]
        for i in range(5):
            h = (i - 1) % 5
            faces.append((ys[i], xs[i], ys[h], ms[h], ls[h], ms[i]))
        xs, ys = ms, ls
        next_id += 10
    p = [next_id + i for i in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        faces.append((ys[j], xs[j], ys[i], p[i], p[j]))
    faces.append(tuple(reversed(p)))
    return map_from_faces(faces)


def build_F3k(k: int) -> PlanarMap:
    """Fullerene made of two 6-pentagon triple caps separated by k hexagon layers."""
    if k < 0:
        raise MapError("k must be nonnegative")
    v = 0
    u = [1, 2, 3]
    q = [4 + i for i in range(3)]
    r = [7 + i for i in range(3)]
    w = [10 + i for i in range(3)]
    wp = [13 + i for i in range(3)]
    faces: list[tuple[int, ...]] = []
    for i in range(3):
        h = (i - 1) % 3
        j = (i + 1) % 3
        faces.append((u[h], v, u[i], q[i], r[i]))
        faces.append((q[i], u[i], r[j], w[i], wp[i]))
    # boundary walked forward by the cap faces; True marks a pending vertex
    # still waiting for its third edge
    boundary = [
        (q[0], False), (r[0], False), (w[2], True), (wp[2], True),
        (q[2], False), (r[2], False), (w[1], True), (wp[1], True),
        (q[1], False), (r[1], False), (w[0], True), (wp[0], True),
    ]
    next_id = 16
    for _ in range(k):
        n = len(boundary)
        pair_positions = [
            i for i in range(n)
            if not boundary[i][1] and not boundary[(i + 1) % n][1]
        ]
        if len(pair_positions) != 3:
            raise MapError("layer boundary lost its pattern")
        new_boundary: list[tuple[int, bool]] = []
        start = (pair_positions[0] - 1) % n
        order = sorted(pair_positions, key=lambda i: (i - start) % n)
        for i in order:
            wp_a = boundary[(i - 1) % n][0]
            qq = boundary[i][0]
            rr = boundary[(i + 1) % n][0]
            w_b = boundary[(i + 2) % n][0]
            n1, n2 = next_id, next_id + 1
            next_id += 2
            faces.append((w_b, rr, qq, wp_a, n1, n2))
            new_boundary.extend([(wp_a, False), (n1, True), (n2, True), (w_b, False)])
        # merge duplicated joint vertices (w_b of one segment = wp of next)
        boundary = _dedup_cycle(new_boundary)
    _attach_c2_cap(faces, boundary, next_id)
    return map_from_faces(faces)


def _dedup_cycle(seq: list[tuple[int, bool]]) -> list[tuple[int, bool]]:
    out: list[tuple[int, bool]] = []
    for item in seq:
        if not out or out[-1][0] != item[0]:
            out.append(item)
    while len(out) > 1 and out[0][0] == out[-1][0]:
        out.pop()
    return out


def _attach_c2_cap(faces: list, boundary: list[tuple[int, bool]], next_id: int) -> None:
    """Close a (pending,pending,complete,complete)-patterned 12-boundary."""
    n = len(boundary)
    rev = [boundary[(-i) % n] for i in range(n)]
    pair_pos = [
        i for i in range(n)
        if rev[i][1] and rev[(i + 1) % n][1]
    ]
    if n != 12 or len(pair_pos) != 3:
        raise MapError("boundary cannot take a triple cap")
    pair_pos.sort()
    pairs = []  # (q', r') in backward-walk order
    for i in pair_pos:
        pairs.append((rev[i][0], rev[(i + 1) % n][0], i))
    vp = next_id
    up = [next_id + 1 + i for i in range(3)]
    # backward-walk pair j is assigned to cap face index (3 - j) % 3 so the
    # notch faces close against the right neighbors
    assign = {}
    for j in range(3):
        assign[j] = pairs[(3 - j) % 3]
    for j in range(3):
        qj, rj, _ = assign[j]
        faces.append((up[(j - 1) % 3], vp, up[j], qj, rj))
    for j in range(3):
        # notch between cap faces j and j+1: boundary path r'_{j+1} -> W -> W' -> q'_j
        qj, _, posj = assign[j]
        _, rj1, pos_r = assign[(j + 1) % 3]
        w1 = rev[(pos_r + 2) % n][0]
        w2 = rev[(pos_r + 3) % n][0]
        if rev[(pos_r + 4) % n][0] != qj:
            raise MapError("cap notch does not close against the boundary")
        faces.append((qj, up[j], rj1, w1, w2))


def recognize_nanotube(m: PlanarMap) -> list[tuple[str, int]]:
    """Nanotube families recognized from their caps.

    Returns the matching ("D5", k) / ("F3", k) tags; both fire exactly on the
    dodecahedron, where the two k=0 families coincide.
    """
    pv = p_vector(m)
    if not pv.is_fullerene():
        raise NotAFullereneError("nanotube recognition applies to fullerenes")
    out = []
    if find_fragments(m, Fragment.C1):
        if pv[6] % 5:
            raise MapError("6-pentagon cap present but hexagon count is not 5k")
        out.append(("D5", pv[6] // 5))
    if find_fragments(m, Fragment.C2):
        if pv[6] % 3:
            raise MapError("triple cap present but hexagon count is not 3k")
        out.append(("F3", pv[6] // 3))
    return out


# nanotube family -> (the cap insertion that adds one layer, family builder)
_CAPS = {"D5": (GrowthOpKind.A1, build_D5k), "F3": (GrowthOpKind.A2, build_F3k)}


# ----------------------------------------------------------------------
# forward application
# ----------------------------------------------------------------------

_FULLERENE_CLASSES = (FamilyClass.F, FamilyClass.F_IPR)
_F1_CLASSES = (FamilyClass.F1, FamilyClass.F1_IPR)

_SOURCE_CLASSES: dict[GrowthOpKind, tuple[FamilyClass, ...]] = {
    GrowthOpKind.T145: (FamilyClass.F_MINUS1,),
    GrowthOpKind.T155: _FULLERENE_CLASSES,
    GrowthOpKind.T2645: (FamilyClass.F_MINUS1,),
    GrowthOpKind.T2655: _FULLERENE_CLASSES,
    GrowthOpKind.T2656: _FULLERENE_CLASSES,
    GrowthOpKind.T2755: _F1_CLASSES,
    GrowthOpKind.T2756: _F1_CLASSES,
    GrowthOpKind.A1: _FULLERENE_CLASSES,
    GrowthOpKind.A2: _FULLERENE_CLASSES,
    GrowthOpKind.A3: _FULLERENE_CLASSES,
    GrowthOpKind.A4: _FULLERENE_CLASSES,
    GrowthOpKind.A5: _FULLERENE_CLASSES,
    GrowthOpKind.A6: _F1_CLASSES,
    GrowthOpKind.A7: _F1_CLASSES,
    GrowthOpKind.B1: _FULLERENE_CLASSES,
    GrowthOpKind.B2: _FULLERENE_CLASSES,
    GrowthOpKind.B3: _FULLERENE_CLASSES,
    GrowthOpKind.B4: _FULLERENE_CLASSES,
}

_TARGET_CLASSES: dict[GrowthOpKind, tuple[FamilyClass, ...]] = {
    GrowthOpKind.T155: (FamilyClass.F_MINUS1,),
    GrowthOpKind.T145: (FamilyClass.F_MINUS1,),
    GrowthOpKind.T2645: _FULLERENE_CLASSES,
    GrowthOpKind.T2655: _FULLERENE_CLASSES,
    GrowthOpKind.T2656: _F1_CLASSES,
    GrowthOpKind.T2755: _FULLERENE_CLASSES,
    GrowthOpKind.T2756: _F1_CLASSES,
    GrowthOpKind.A1: _FULLERENE_CLASSES,
    GrowthOpKind.A2: _FULLERENE_CLASSES,
    GrowthOpKind.A3: _FULLERENE_CLASSES,
    GrowthOpKind.A4: _FULLERENE_CLASSES,
    GrowthOpKind.A5: _F1_CLASSES,
    GrowthOpKind.A6: _FULLERENE_CLASSES,
    GrowthOpKind.A7: _F1_CLASSES,
    GrowthOpKind.B1: _FULLERENE_CLASSES,
    GrowthOpKind.B2: (FamilyClass.F1_IPR,),
    GrowthOpKind.B3: _FULLERENE_CLASSES,
    GrowthOpKind.B4: (FamilyClass.F1_IPR,),
}


def _canonicalize(m: PlanarMap) -> PlanarMap:
    return m.canonical_form()[0]


def _canonical_site(m_raw: PlanarMap, site: TruncationSite) -> tuple[PlanarMap, tuple[int, int]]:
    """Express a truncation site in the canonical labeling.

    When the canonical form reflects the map, the run anchor is replaced by
    its mirror (the walk dart entering the run from the other side), so the
    relabeled site cuts the same vertex run.
    """
    canon, dmap, reflected = m_raw.canonical_form()
    if not reflected:
        return canon, (site.s, dmap[site.start_dart])
    if site.s == 0:
        d_in = site.start_dart
        for _ in range(m_raw.face_sizes[site.face] - 1):
            d_in = m_raw.face_next(d_in)
        return canon, (0, dmap[m_raw.twin(d_in)])
    t_last = site.start_dart
    for _ in range(site.s - 1):
        t_last = m_raw.face_next(t_last)
    return canon, (site.s, dmap[m_raw.twin(t_last)])


def apply_growth(m: PlanarMap, kind: GrowthOpKind, site=None) -> PlanarMap:
    """Apply a growth operation and return the canonical result.

    ``site`` is a TruncationSite for the kinds whose chain is one
    truncation, a sequence of (s, dart) pairs for longer chains (darts refer
    to the canonical labeling after each sub-step), and is ignored for the
    cap insertions.
    """
    cls = classify_shape(m)
    if cls not in _SOURCE_CLASSES[kind]:
        raise IllegalTransitionError(f"{kind.name} does not apply to class {cls.value}")
    if kind in (GrowthOpKind.A1, GrowthOpKind.A2):
        fam = "D5" if kind is GrowthOpKind.A1 else "F3"
        tags = dict(recognize_nanotube(m))
        if fam not in tags:
            raise SiteMismatchError(f"{kind.name} needs the matching nanotube cap")
        return _canonicalize(_CAPS[fam][1](tags[fam] + 1))
    seq = KIND_CHAINS[kind]
    if len(seq) == 1:
        if not isinstance(site, TruncationSite):
            raise SiteMismatchError(f"{kind.name} needs a truncation site")
        if not _site_matches(m, site, seq[0]):
            raise SiteMismatchError(f"site does not match {kind.name}")
        out = truncate(m, site).map
    else:
        if site is None or len(site) != len(seq):
            raise SiteMismatchError(f"{kind.name} needs {len(seq)} sub-sites")
        cur = _canonicalize(m)
        for (s, dart), sub_kind in zip(site, seq):
            sub_site = TruncationSite(cur.face_of[dart], dart, s)
            if not _site_matches(cur, sub_site, sub_kind):
                raise SiteMismatchError(f"sub-site does not match {sub_kind.name}")
            cur = _canonicalize(truncate(cur, sub_site).map)
        out = cur
    out_cls = classify_shape(out)
    if out_cls not in _TARGET_CLASSES[kind]:
        raise IllegalTransitionError(f"{kind.name} produced class {out_cls.value}")
    return _canonicalize(out)


def _site_matches(m: PlanarMap, site: TruncationSite, kind: GrowthOpKind) -> bool:
    s, k, m1, m2 = KIND_SIGNATURES[kind]
    ss, sk, sm1, sm2 = site.signature(m)
    if ss != s or (k is not None and sk != k):
        return False
    return (sm1, sm2) == (min(m1, m2), max(m1, m2))


def replay_step(m_canon: PlanarMap, step: GrowthStep) -> PlanarMap:
    """Replay a recorded step on a canonical predecessor; verifies the code.

    The last sub-step's result is checked against the recorded code by a
    search bounded by that code, which also labels the canonical copy.
    """
    if step.site[0] == "cap":
        fam, k = step.site[1], step.site[2]
        out = _CAPS[fam][1](k + 1)
    else:
        out = m_canon
        for i, (s, dart) in enumerate(step.site[1]):
            if i:
                out = _canonicalize(out)
            out = truncate(out, TruncationSite(out.face_of[dart], dart, s)).map
    if not out.has_canonical_code(step.code):
        raise MapError(f"replay of {step.kind.name} did not reproduce the recorded code")
    return _canonicalize(out)


def replay_trace(trace: DerivationTrace) -> PlanarMap:
    m = _canonicalize(build_dodecahedron())
    if m.canonical_code() != trace.start_code:
        raise MapError("trace does not start at the dodecahedron")
    for step in trace.steps:
        m = replay_step(m, step)
    return m


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

_REGIME_CLASSES = {
    Regime.SEVEN: {
        FamilyClass.F, FamilyClass.F_IPR, FamilyClass.F_MINUS1,
        FamilyClass.F1, FamilyClass.F1_IPR,
    },
    Regime.A_OPS: {FamilyClass.F, FamilyClass.F_IPR, FamilyClass.F1, FamilyClass.F1_IPR},
    Regime.AB_OPS: {FamilyClass.F, FamilyClass.F_IPR, FamilyClass.F1_IPR},
}

# each regime's operations, in the order successors are generated; which of
# them apply to a map is read off _SOURCE_CLASSES forward and _TARGET_CLASSES
# in reduction
_REGIME_KINDS: dict[Regime, tuple[GrowthOpKind, ...]] = {
    Regime.SEVEN: (
        GrowthOpKind.T155, GrowthOpKind.T2655, GrowthOpKind.T145, GrowthOpKind.T2645,
        GrowthOpKind.T2656, GrowthOpKind.T2755, GrowthOpKind.T2756,
    ),
    Regime.A_OPS: (
        GrowthOpKind.A1, GrowthOpKind.A2, GrowthOpKind.A3, GrowthOpKind.A4,
        GrowthOpKind.A5, GrowthOpKind.A6, GrowthOpKind.A7,
    ),
    Regime.AB_OPS: (
        GrowthOpKind.A1, GrowthOpKind.A2, GrowthOpKind.A3, GrowthOpKind.A4,
        GrowthOpKind.B1, GrowthOpKind.B2, GrowthOpKind.B3, GrowthOpKind.B4,
        GrowthOpKind.A6, GrowthOpKind.A7,
    ),
}

# the order reduction tries truncation kinds in.  The seven and a regimes
# reuse their generation order.  The ab regime tries B1, B3, then A6 for an
# IPR fullerene, and A7 before B2 and B4 for the heptagon IPR class, where
# one map can admit all three; its generation order differs, and changing
# that would change the closure's recorded steps
_UNDO_KINDS: dict[Regime, tuple[GrowthOpKind, ...]] = {
    Regime.SEVEN: _REGIME_KINDS[Regime.SEVEN],
    Regime.A_OPS: _REGIME_KINDS[Regime.A_OPS],
    Regime.AB_OPS: (
        GrowthOpKind.B1, GrowthOpKind.B3, GrowthOpKind.A6,
        GrowthOpKind.A7, GrowthOpKind.B2, GrowthOpKind.B4,
    ),
}


def _has_pentagon_cornered_edge(m: PlanarMap) -> bool:
    fs = m.face_sizes
    for d in m.edges:
        ca, cb = m.edge_corner_faces(d)
        if fs[ca] == 5 and fs[cb] == 5:
            return True
    return False


def _has_hexagon_between_opposite_pentagons(m: PlanarMap) -> bool:
    fs = m.face_sizes
    for f in range(m.num_faces):
        if fs[f] == 6:
            nbrs = m.face_neighbors(f)
            if any(fs[nbrs[i]] == 5 and fs[nbrs[i + 3]] == 5 for i in range(3)):
                return True
    return False


# preconditions for undoing B1 and B3; a chain search is not started where
# its guard fails, as it can run for minutes on a large IPR map
_UNDO_GUARDS = {
    GrowthOpKind.B1: _has_pentagon_cornered_edge,
    GrowthOpKind.B3: _has_hexagon_between_opposite_pentagons,
}


def _try_undo(m: PlanarMap, dart: int, expect: Sequence[FamilyClass]):
    """Straighten one edge; returns (canonical predecessor, canonical site)
    when the result lands in an expected class, else None."""
    try:
        res = straighten(m, EdgeRef(dart))
    except ThreeBeltObstructionError:
        return None
    cls = classify_shape(res.map)
    if cls not in expect:
        return None
    canon, csite = _canonical_site(res.map, res.inverse_site)
    return canon, csite, cls


def _candidate_darts(m: PlanarMap, kind: GrowthOpKind):
    """Edges that could be the new-face/shrunk-face seam of the given kind."""
    s, k, m1, m2 = KIND_SIGNATURES[kind]
    fs = m.face_sizes
    new_sz = s + 3
    shrunk_sz = (k - s + 1) if k is not None else None
    corners = sorted((m1 + 1, m2 + 1))
    out = []
    for d in m.edges:
        a, b = fs[m.face_of[d]], fs[m.face_of[m.twin(d)]]
        if shrunk_sz is None:
            if new_sz not in (a, b):
                continue
        else:
            if sorted((a, b)) != sorted((new_sz, shrunk_sz)):
                continue
        ca, cb = m.edge_corner_faces(d)
        if sorted((fs[ca], fs[cb])) != corners:
            continue
        out.append(d)
    return out


_DODECA_CODE: Optional[bytes] = None


def _dodecahedron_code() -> bytes:
    global _DODECA_CODE
    if _DODECA_CODE is None:
        _DODECA_CODE = build_dodecahedron().canonical_code()
    return _DODECA_CODE


def reduce_once(m: PlanarMap, regime: Regime) -> tuple[PlanarMap, GrowthStep]:
    """One reduction step: a strictly smaller predecessor in the regime's
    family plus the forward step that regenerates ``m``.

    The input should be in canonical labeling for reproducible traces.  A
    fullerene with adjacent pentagons outside the seven regime is reduced by
    its nanotube cap or its P1/P2 patch; every other step by ``_undo_first``.
    """
    cls = classify_shape(m)
    if cls not in _REGIME_CLASSES[regime]:
        raise IllegalTransitionError(f"class {cls.value} is outside regime {regime.value}")
    code = m.canonical_code()
    if code == _dodecahedron_code():
        raise AtDodecahedronError("the dodecahedron has no predecessor")
    if regime is not Regime.SEVEN and cls is FamilyClass.F:
        return _reduce_adjacent_pentagons(m, code)
    return _undo_first(m, cls, code, regime)


def _undo_first(m: PlanarMap, cls: FamilyClass, code: bytes, regime: Regime):
    """Undo the chain of the first truncation kind, in the regime's undo
    order, that produces ``cls``; the predecessor must land in the kind's
    source classes within the regime.

    The ab order is (B1, B3, A6, A7, B2, B4).  B1 is tried only when an edge
    has pentagons at both endpoint corners, and B3 only when a hexagon has
    pentagons on two opposite edges.  For an IPR map in the ``a`` regime A3
    and A4 are tried before A6 and find nothing: their last seam is a
    pentagon-pentagon edge, which IPR maps lack.
    """
    for kind in _UNDO_KINDS[regime]:
        if kind not in KIND_CHAINS or cls not in _TARGET_CLASSES[kind]:
            continue
        guard = _UNDO_GUARDS.get(kind)
        if guard is not None and not guard(m):
            continue
        final = [c for c in _SOURCE_CLASSES[kind] if c in _REGIME_CLASSES[regime]]
        got = _sequence_search(m, KIND_CHAINS[kind], final)
        if got is not None:
            pred, sites = got
            return pred, GrowthStep(kind, ("trunc", sites), code)
    raise NoCaseAppliesError("no admissible truncation inverse found", m)


def _pentagon_pair_dart(m: PlanarMap, fa: int, fb: int) -> int:
    for d in m.faces[fa]:
        if m.face_of[m.twin(d)] == fb:
            return d
    raise MapError("faces do not share an edge")


def _reduce_adjacent_pentagons(m: PlanarMap, code: bytes):
    """Cap/patch dispatch for a fullerene with adjacent pentagons."""
    caps = recognize_nanotube(m)
    for fam, k in caps:
        if k == 0:
            continue
        op, builder = _CAPS[fam]
        return _canonicalize(builder(k - 1)), GrowthStep(op, ("cap", fam, k - 1), code)
    p1 = find_fragments(m, Fragment.P1)
    if p1:
        emb = min(p1, key=lambda e: sorted(e.faces))
        d = _pentagon_pair_dart(m, emb.face(0), emb.face(1))
        got = _try_undo(m, d, _FULLERENE_CLASSES)
        if got is None:
            raise NoCaseAppliesError("P1 patch did not straighten to a fullerene", m)
        pred, csite, _ = got
        return pred, GrowthStep(GrowthOpKind.A4, ("trunc", (csite,)), code)
    p2 = find_fragments(m, Fragment.P2)
    if p2:
        emb = min(p2, key=lambda e: sorted(e.faces))
        return _reduce_a3(m, emb, code)
    raise NoCaseAppliesError("adjacent pentagons but no cap or patch embeds", m)


def _reduce_a3(m: PlanarMap, emb, code: bytes):
    """Undo the two-truncation composition at a P2 patch."""
    d = _pentagon_pair_dart(m, emb.face(0), emb.face(1))
    got = _try_undo(m, d, (FamilyClass.F_MINUS1,))
    if got is None:
        raise NoCaseAppliesError("P2 patch did not straighten to the quadrangle class", m)
    mid, site_b, _ = got
    # second straightening: a quadrangle edge flanked by two hexagons
    quad = mid.face_sizes.index(4)
    for dd in sorted(mid.faces[quad]):
        ca, cb = mid.edge_corner_faces(dd)
        if mid.face_sizes[ca] == 6 and mid.face_sizes[cb] == 6:
            got2 = _try_undo(mid, dd, _FULLERENE_CLASSES)
            if got2 is not None:
                pred, site_a, _ = got2
                return pred, GrowthStep(GrowthOpKind.A3, ("trunc", (site_a, site_b)), code)
    raise NoCaseAppliesError("quadrangle intermediate did not straighten back", m)


def _sequence_search(m: PlanarMap, kinds: Sequence[GrowthOpKind], final: Sequence[FamilyClass]):
    """Depth-first search for a straightening sequence undoing ``kinds``.

    ``kinds`` is the forward composition order; straightenings run reversed.
    Returns (predecessor, substeps in forward order) or None.
    """

    def rec(cur: PlanarMap, remaining: list[GrowthOpKind], acc: list):
        kind = remaining[-1]
        rest = remaining[:-1]
        expect = final if not rest else (
            FamilyClass.F_MINUS1, FamilyClass.F1, FamilyClass.F1_IPR,
            FamilyClass.F, FamilyClass.F_IPR, FamilyClass.OTHER,
        )
        for d in _candidate_darts(cur, kind):
            got = _try_undo(cur, d, expect)
            if got is None:
                continue
            nxt, csite, _ = got
            if not rest:
                return nxt, [csite] + acc
            deeper = rec(nxt, rest, [csite] + acc)
            if deeper is not None:
                return deeper
        return None

    got = rec(m, list(kinds), [])
    if got is None:
        return None
    pred, sites = got
    return pred, tuple(sites)


# ----------------------------------------------------------------------
# forward successor enumeration (used by the closure engine)
# ----------------------------------------------------------------------


def _chain_successors(m: PlanarMap, kind: GrowthOpKind):
    """Chains of truncations realizing a truncation kind.

    The first cut runs over all matching sites; later cuts are anchored by
    their signature to the unique exceptional face the chain created.
    """
    seq = KIND_CHAINS[kind]

    def rec(cur: PlanarMap, idx: int, acc: tuple):
        k0 = seq[idx]
        s, k, m1, m2 = KIND_SIGNATURES[k0]
        for site in enumerate_sites(cur, s=s, k=k, m1=m1, m2=m2):
            raw = truncate(cur, site).map
            payload = acc + ((site.s, site.start_dart),)
            if idx + 1 == len(seq):
                yield kind, ("trunc", payload), raw
            else:
                yield from rec(_canonicalize(raw), idx + 1, payload)

    yield from rec(m, 0, ())


def _cap_successors(m: PlanarMap, kinds):
    """Cap insertions among ``kinds``, from one nanotube recognition."""
    for fam, k in recognize_nanotube(m):
        kind, builder = _CAPS[fam]
        if kind in kinds:
            yield kind, ("cap", fam, k), builder(k + 1)


def successor_candidates(m: PlanarMap, regime: Regime, max_faces: int):
    """All (kind, step payload, raw result) growth moves from a canonical map
    whose result has at most ``max_faces`` faces (the closure to ``max_p6``
    hexagons passes ``12 + max_p6``).

    A map outside the regime's classes has no successors.  A kind is tried
    only when the map is in its source classes and its face gain fits the
    bound.  Results are not class-filtered; the enumeration engine owns that.
    """
    cls = classify_shape(m)
    if cls not in _REGIME_CLASSES[regime]:
        return
    kinds = [
        kind for kind in _REGIME_KINDS[regime]
        if cls in _SOURCE_CLASSES[kind] and m.num_faces + _FACE_GAIN[kind] <= max_faces
    ]
    # the cap insertions lead every kind tuple that has them, so one nanotube
    # recognition serves both in tuple order
    if GrowthOpKind.A1 in kinds or GrowthOpKind.A2 in kinds:
        yield from _cap_successors(m, kinds)
    for kind in kinds:
        if kind in KIND_CHAINS:
            yield from _chain_successors(m, kind)


def reduce_to_dodecahedron(m: PlanarMap, regime: Regime) -> DerivationTrace:
    """Full reduction; the returned trace replays forward to ``m``'s code."""
    cur = _canonicalize(m)
    target_code = cur.canonical_code()
    steps: list[GrowthStep] = []
    guard = 4 * m.num_faces + 16
    while cur.canonical_code() != _dodecahedron_code():
        cur, step = reduce_once(cur, regime)
        steps.append(step)
        if len(steps) > guard:
            raise NoCaseAppliesError("reduction did not terminate", m)
    trace = DerivationTrace(regime, _dodecahedron_code(), tuple(reversed(steps)))
    final = replay_trace(trace)
    if final.canonical_code() != target_code:
        raise MapError("reduction replay mismatch")
    return trace
