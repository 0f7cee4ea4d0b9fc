"""Growth operations, nanotube families, and reduction to the dodecahedron.

The three operation regimes share one mechanism: every step is either a
chain of two-edges/edge truncations (a single truncation is a chain of one)
or a layer insertion into one of the two nanotube families.  Reduction
searches the admissible inverse straightenings in a fixed order, so
isomorphic inputs produce identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Optional, Sequence

from .planar_map import (
    MapError,
    PlanarMap,
    VertexOverflowError,
    encode_planar_code,
    map_from_faces,
    p_vector,
)
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
    cut_key,
    enumerate_sites,
    straighten,
    truncate,
)


class AtDodecahedronError(MapError):
    """Reduction was asked for a step below the dodecahedron."""


class NoCaseAppliesError(MapError):
    """No reduction case fired, or the step it gave failed its check; carries
    the offending map, and names it by a planar_code dump or, where it has
    more vertices than one-byte planar_code holds, by its vertex count."""

    def __init__(self, message: str, m: PlanarMap):
        try:
            dump = "map dump (planar_code hex): " + encode_planar_code([m], with_header=False).hex()
        except VertexOverflowError:
            dump = f"{m.num_vertices} vertices, too many for a planar_code dump"
        super().__init__(f"{message}; {dump}")
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

def _read(obj, key: str, t: type, parse=lambda v: v):
    """``parse(obj[key])`` for a value of exactly type ``t`` (no bool for
    int); MapError naming ``key`` if it is missing or rejected."""
    try:
        if type(obj[key]) is t:
            return parse(obj[key])
    except (KeyError, TypeError, ValueError):
        pass
    raise MapError(f"field {key!r} is missing or malformed")


@dataclass(frozen=True)
class GrowthStep:
    """One growth event with everything needed to replay it.

    ``site`` is ("trunc", sub-sites) with one ``TruncationSite`` per
    truncation of the kind's chain, each dart in the canonical labeling of
    the map it cuts, or ("cap", family, k) for a layer insertion into that
    family's map with k layers.  ``start``, set by the reduction and never
    serialized, is the ``(reflected, dart)`` start from which the step's
    result reads ``code``: ``_carried_start`` of a truncation step, the
    winning start of the built family map (``_family_code``) for a cap step.
    """

    kind: GrowthOpKind
    site: tuple
    code: bytes
    start: Optional[tuple[bool, int]] = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        if self.site[0] == "trunc":
            payload = {"type": "trunc", "steps": [list(x) for x in self.site[1]]}
        else:
            payload = {"type": "cap", "family": self.site[1], "k": self.site[2]}
        return {"kind": self.kind.name, "site": payload, "code": self.code.hex()}

    @staticmethod
    def from_json(obj: dict) -> "GrowthStep":
        """The step ``to_json`` wrote; MapError names the first bad field."""
        kind = _read(obj, "kind", str, GrowthOpKind.__getitem__)
        p = _read(obj, "site", dict)
        if _read(p, "type", str) == "trunc":
            steps = _read(p, "steps", list)
            if not all(type(x) is list and [type(v) for v in x] == [int, int] for x in steps):
                raise MapError("field 'steps' holds a sub-site that is not two ints")
            site = ("trunc", tuple(TruncationSite(*x) for x in steps))
        elif p["type"] == "cap":
            site = ("cap", _read(p, "family", str), _read(p, "k", int))
        else:
            raise MapError(f"field 'type' is {p['type']!r}, not 'trunc' or 'cap'")
        return GrowthStep(kind, site, _read(obj, "code", str, bytes.fromhex))


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
    def from_jsonl(text: str, first_line: int = 1) -> "DerivationTrace":
        """The trace ``to_jsonl`` wrote; MapError names the line, counting
        from ``first_line``, and the field of the first malformed record."""
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), first_line) if ln.strip()]
        if not lines:
            raise MapError("the trace is empty")
        i, head = lines[0]
        try:
            head = json.loads(head)
            regime, start = _read(head, "regime", str, Regime), _read(head, "start", str, bytes.fromhex)
            steps = []
            for i, ln in lines[1:]:
                steps.append(GrowthStep.from_json(json.loads(ln)))
        except ValueError as e:
            raise MapError(f"trace line {i}: {e}") from e
        return DerivationTrace(regime, start, tuple(steps))


def _is_header(line: str) -> bool:
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and "regime" in obj


def read_traces(path) -> list[DerivationTrace]:
    """Every trace in a file of traces, as ``fforge gen --traces`` and
    ``fforge reduce --traces`` write them: the file is cut before each header
    record and each part read by ``DerivationTrace.from_jsonl``, so a
    MapError names the line of the file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cuts = sorted({0, len(lines)} | {i for i, ln in enumerate(lines) if _is_header(ln)})
    return [
        DerivationTrace.from_jsonl("\n".join(lines[a:b]), a + 1)
        for a, b in zip(cuts, cuts[1:]) if any(ln.strip() for ln in lines[a:b])
    ]


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


def build_dodecahedron() -> PlanarMap:
    """The unique all-pentagon map: 20 vertices, 30 edges, 12 faces."""
    return build_D5k(0)


def build_F3k(k: int) -> PlanarMap:
    """Fullerene made of two 6-pentagon triple caps separated by k hexagon layers.

    The opening cap's boundary is three segments (a, b, c, d): b and c are
    saturated, a and d wait for their third edge, and each d is joined to
    the next segment's a.  A layer glues the hexagon (d, c, b, a, n1, n2)
    over each segment; the closing cap puts the pentagon (y, d, c, b, a) on
    each and closes the three notches between them around a centre z.
    """
    if k < 0:
        raise MapError("k must be nonnegative")
    v, u, q, r, w, x = 0, [1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12], [13, 14, 15]
    faces: list[tuple[int, ...]] = []
    for i in range(3):
        h, j = (i - 1) % 3, (i + 1) % 3
        faces += [(u[h], v, u[i], q[i], r[i]), (q[i], u[i], r[j], w[i], x[i])]
    # w[i - 1] is joined to x[i - 1], so the segments run i = 0, 2, 1
    segs = [(x[i], q[i], r[i], w[i - 1]) for i in (0, 2, 1)]
    next_id = 16
    for _ in range(k):
        n1 = [next_id + 2 * j for j in range(3)]
        n2 = [next_id + 2 * j + 1 for j in range(3)]
        faces += [(d, c, b, a, n1[j], n2[j]) for j, (a, b, c, d) in enumerate(segs)]
        # segs[j - 2] is the next segment
        segs = [(n2[j], segs[j][3], segs[j - 2][0], n1[j - 2]) for j in range(3)]
        next_id += 6
    z, y = next_id, [next_id + 1, next_id + 2, next_id + 3]
    faces += [(y[j], d, c, b, a) for j, (a, b, c, d) in enumerate(segs)]
    faces += [(segs[j - 2][0], segs[j][3], y[j], z, y[j - 2]) for j in range(3)]
    return map_from_faces(faces)


# nanotube family -> (the cap insertion that adds one layer, family builder,
# hexagons per layer)
_CAPS = {"D5": (GrowthOpKind.A1, build_D5k, 5), "F3": (GrowthOpKind.A2, build_F3k, 3)}

# faces an operation adds: one per truncation, one hexagon layer per cap insertion
_FACE_GAIN: dict[GrowthOpKind, int] = {
    **{k: len(chain) for k, chain in KIND_CHAINS.items()},
    **{kind: layer for kind, _, layer in _CAPS.values()},
}


@cache
def _family_code(fam: str, k: int) -> tuple[bytes, tuple[bool, int]]:
    """The canonical code of the family map with k layers, and the
    ``(reflected, dart)`` start from which the builder's map reads it."""
    return _CAPS[fam][1](k)._canonical(True)[:2]


def recognize_nanotube(m: PlanarMap) -> list[tuple[str, int]]:
    """Nanotube families a fullerene belongs to, by canonical code.

    Returns the ("D5", k) / ("F3", k) tags whose family map has ``m``'s code;
    both fire exactly on the dodecahedron, where the two k=0 families
    coincide.  The family maps are achiral, so both reflection flags give a
    member the same code, and ``m``'s code is taken for a flag it has cached.
    """
    pv = p_vector(m)
    if not pv.is_fullerene():
        raise NotAFullereneError("nanotube recognition applies to fullerenes")
    refl = True in m._code_cache or False not in m._code_cache
    return [
        (fam, pv[6] // layer) for fam, (_, _, layer) in _CAPS.items()
        if pv[6] % layer == 0 and _family_code(fam, pv[6] // layer)[0] == m.canonical_code(refl)
    ]


# ----------------------------------------------------------------------
# forward application
# ----------------------------------------------------------------------

_FULLERENE_CLASSES = (FamilyClass.F, FamilyClass.F_IPR)
_F1_CLASSES = (FamilyClass.F1, FamilyClass.F1_IPR)


def _classes_with(sizes: tuple) -> tuple[FamilyClass, ...]:
    """The classes whose exceptional face is among ``sizes``: a quadrangle
    marks F-1, a heptagon the heptagon classes, and none the fullerenes."""
    if 4 in sizes:
        return (FamilyClass.F_MINUS1,)
    return _F1_CLASSES if 7 in sizes else _FULLERENE_CLASSES


# (source classes, target classes) of each of the seven truncations, read
# off the faces it consumes, sizes (k, m1, m2), and makes, (s + 3, m1 + 1,
# m2 + 1)
_TRUNCATION_CLASSES: dict[GrowthOpKind, tuple[tuple[FamilyClass, ...], tuple[FamilyClass, ...]]] = {
    kind: (_classes_with((k, m1, m2)), _classes_with((s + 3, m1 + 1, m2 + 1)))
    for kind, (s, k, m1, m2) in KIND_SIGNATURES.items()
}

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


def _operation_classes():
    """Each kind's (source, target) classes.  A chain takes its first
    truncation's source and its last truncation's target classes, kept to
    the classes of the regimes that use the kind (so B2 and B4 lead to
    F1-IPR only); the cap insertions keep fullerenes fullerenes."""
    source = {kind: _FULLERENE_CLASSES for kind, *_ in _CAPS.values()}
    target = dict(source)
    for kind, chain in KIND_CHAINS.items():
        admitted = set().union(*(_REGIME_CLASSES[r] for r, ks in _REGIME_KINDS.items() if kind in ks))
        source[kind] = tuple(c for c in _TRUNCATION_CLASSES[chain[0]][0] if c in admitted)
        target[kind] = tuple(c for c in _TRUNCATION_CLASSES[chain[-1]][1] if c in admitted)
    return source, target


_SOURCE_CLASSES, _TARGET_CLASSES = _operation_classes()


def _canonical_site(m_raw: PlanarMap, site: TruncationSite):
    """Express a truncation site in the canonical labeling:
    ``(canonical form, site, dart_map, reflected)``, the last two as
    ``canonical_form`` gives them.

    When the canonical form reflects the map, the run is walked from its
    other end: the anchor becomes ``prev`` of the walk's last dart, the twin
    of the face dart entering the run's last vertex, so the relabeled site
    cuts the same vertex run for every s.
    """
    canon, dmap, reflected = m_raw.canonical_form()
    anchor = m_raw.prev(site.walk(m_raw)[-1]) if reflected else site.start_dart
    return canon, TruncationSite(site.s, dmap[anchor]), dmap, reflected


def apply_growth(m: PlanarMap, kind: GrowthOpKind, sites: Sequence[TruncationSite] = ()) -> PlanarMap:
    """Apply a growth operation and return the canonical result.

    ``sites`` are the sub-sites of the kind's truncation chain, one per
    truncation (``_run_chain``): the first in ``m``'s own labeling, each
    later one in the canonical labeling of the map it cuts.  A step payload
    recorded on ``m``'s canonical form is such a list for that form.  The
    cap insertions take no sites.
    """
    cls = classify_shape(m)
    if cls not in _SOURCE_CLASSES[kind]:
        raise IllegalTransitionError(f"{kind.name} does not apply to class {cls.value}")
    if kind not in KIND_CHAINS:
        grown = [raw for *_, raw in _cap_successors(m, (kind,))]
        if not grown:
            raise SiteMismatchError(f"{kind.name} needs the matching nanotube cap")
        return grown[0].canonical_form()[0]
    out = _run_chain(m, sites, KIND_CHAINS[kind])
    out_cls = classify_shape(out)
    if out_cls not in _TARGET_CLASSES[kind]:
        raise IllegalTransitionError(f"{kind.name} produced class {out_cls.value}")
    return out.canonical_form()[0]


def _site_matches(m: PlanarMap, site: TruncationSite, kind: GrowthOpKind) -> bool:
    s, k, m1, m2 = KIND_SIGNATURES[kind]
    ss, sk, sm1, sm2 = site.signature(m)
    if ss != s or (k is not None and sk != k):
        return False
    return (sm1, sm2) == (min(m1, m2), max(m1, m2))


def _run_chain(m: PlanarMap, sites: Sequence[TruncationSite], chain: Sequence[GrowthOpKind]) -> PlanarMap:
    """Cut a chain's sub-sites in turn; returns the raw last map.

    The first sub-site is in ``m``'s labeling, every later one in the
    canonical form of the previous result.  SiteMismatchError unless each
    sub-site has the signature of its truncation in ``chain``.
    """
    if len(sites) != len(chain):
        raise SiteMismatchError(f"the chain needs {len(chain)} sub-sites, not {len(sites)}")
    out = m
    for i, (site, kind) in enumerate(zip(sites, chain)):
        if i:
            out = out.canonical_form()[0]
        if not 0 <= site.start_dart < out.num_darts:
            raise SiteMismatchError(f"sub-site {i} names no dart of the map")
        if not _site_matches(out, site, kind):
            raise SiteMismatchError(f"sub-site {i} does not match {kind.name}")
        out = truncate(out, site).map
    return out


def _apply_step(m_canon: PlanarMap, step: GrowthStep) -> PlanarMap:
    """The raw map a recorded step gives on a canonical predecessor.

    A cap step must be its family's cap insertion on that family's map with
    k layers; a truncation step must name a chain, and every sub-site must
    match its truncation (``_run_chain``).
    """
    if step.site[0] == "cap":
        fam, k = step.site[1], step.site[2]
        if fam not in _CAPS:
            raise SiteMismatchError(f"no nanotube family {fam!r}")
        kind, builder, _ = _CAPS[fam]
        if step.kind is not kind:
            raise SiteMismatchError(f"a {fam} cap step is {kind.name}, not {step.kind.name}")
        if not p_vector(m_canon).is_fullerene() or (fam, k) not in recognize_nanotube(m_canon):
            raise SiteMismatchError(f"the predecessor is not {fam}({k})")
        return builder(k + 1)
    if step.kind in KIND_CHAINS:
        return _run_chain(m_canon, step.site[1], KIND_CHAINS[step.kind])
    raise SiteMismatchError(f"{step.kind.name} is no truncation chain")


def replay_step(m_canon: PlanarMap, step: GrowthStep) -> PlanarMap:
    """Replay a recorded step on a canonical predecessor (``_apply_step``);
    the result's canonical code must equal the recorded code byte for byte."""
    out = _apply_step(m_canon, step)
    if out.canonical_code() != step.code:
        raise MapError(f"replay of {step.kind.name} did not reproduce the recorded code")
    return out.canonical_form()[0]


def replay_trace(trace: DerivationTrace) -> PlanarMap:
    """Verify a trace whose codes are claims, as one read from a file."""
    m = build_dodecahedron().canonical_form()[0]
    if m.canonical_code() != trace.start_code:
        raise MapError("trace does not start at the dodecahedron")
    for step in trace.steps:
        if step.kind not in _REGIME_KINDS[trace.regime]:
            raise IllegalTransitionError(f"{step.kind.name} is not in regime {trace.regime.value}")
        m = replay_step(m, step)
    return m


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

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


def _candidate_darts(m: PlanarMap, kind: GrowthOpKind):
    """Edges that could be the new-face/shrunk-face seam of the given kind."""
    s, k, m1, m2 = KIND_SIGNATURES[kind]
    fs = m.face_sizes
    corners = sorted((m1 + 1, m2 + 1))
    out = []
    for d in m.edges:
        a, b = fs[m.face_of[d]], fs[m.face_of[m.twin(d)]]
        # the new (s+3)-gon, beside the shrunk (k-s+1)-gon when k is fixed
        if s + 3 not in (a, b) or (k is not None and a + b != k + 4):
            continue
        ca, cb = m.edge_corner_faces(d)
        if sorted((fs[ca], fs[cb])) != corners:
            continue
        out.append(d)
    return out


def _dodecahedron_code() -> bytes:
    return _family_code("D5", 0)[0]


def reduce_once(m: PlanarMap, regime: Regime) -> tuple[PlanarMap, GrowthStep]:
    """One reduction step: a strictly smaller predecessor in the regime's
    family plus the forward step that regenerates ``m``.

    The input should be in canonical labeling for reproducible traces.  A
    fullerene with adjacent pentagons outside the seven regime is reduced by
    peeling a nanotube layer or at its P1/P2 patch, every other map by
    ``_undo_first``.
    Every step but a cap peel is undone by ``_sequence_search``, so every
    recorded sub-site has the signature of its truncation.
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
    order, that produces ``cls``: ``_sequence_search`` over every candidate
    seam, with the predecessor in the kind's source classes within the
    regime.

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
        got = _sequence_search(m, KIND_CHAINS[kind], final, None)
        if got is not None:
            pred, sites, start = got
            return pred, GrowthStep(kind, ("trunc", sites), code, start)
    raise NoCaseAppliesError("no admissible truncation inverse found", m)


def _reduce_adjacent_pentagons(m: PlanarMap, code: bytes):
    """Cap/patch dispatch for a fullerene with adjacent pentagons: peel a
    nanotube layer, or else undo A4 at a P1 patch, or else A3 at a P2 patch.
    Among a pattern's patches the least face set wins, and the chain search
    starts at its edge between faces 0 and 1."""
    for fam, k in recognize_nanotube(m):  # k > 0: reduce_once has refused C20
        op, builder, _ = _CAPS[fam]
        # replay builds the family map with k layers, which reads m's code
        step = GrowthStep(op, ("cap", fam, k - 1), code, _family_code(fam, k)[1])
        return builder(k - 1).canonical_form()[0], step
    for patch, kind in ((Fragment.P1, GrowthOpKind.A4), (Fragment.P2, GrowthOpKind.A3)):
        patches = find_fragments(m, patch)
        if not patches:
            continue
        faces = min(patches, key=sorted)
        first = [d for d in m.faces[faces[0]] if m.face_of[m.twin(d)] == faces[1]]
        got = _sequence_search(m, KIND_CHAINS[kind], _SOURCE_CLASSES[kind], first)
        if got is None:
            raise NoCaseAppliesError(f"{patch.name} patch did not straighten to a fullerene", m)
        pred, sites, start = got
        return pred, GrowthStep(kind, ("trunc", sites), code, start)
    raise NoCaseAppliesError("adjacent pentagons but no cap or patch embeds", m)


def _sequence_search(
    m: PlanarMap,
    kinds: Sequence[GrowthOpKind],
    final: Sequence[FamilyClass],
    first: Optional[Sequence[int]],
):
    """Depth-first search for the straightenings that undo a chain.

    ``kinds`` is the chain in forward order, so its last truncation is undone
    first: at the darts ``first``, or at every candidate seam of
    ``_candidate_darts`` when ``first`` is None.  Each edge is straightened
    from the (s+3)-gon its truncation made, so the inverse sub-site has the
    truncation's signature; it is recorded in the canonical labeling of the
    map it cuts.  Only the predecessor's class is checked, against
    ``final``.  Returns (canonical predecessor, sub-sites in forward order,
    ``_carried_start`` of the first straightening) or None.
    """

    def rec(cur: PlanarMap, depth: int, acc: tuple, darts, top):
        kind = kinds[depth]
        new_size = KIND_SIGNATURES[kind][0] + 3
        for d in _candidate_darts(cur, kind) if darts is None else darts:
            if cur.face_sizes[cur.face_of[cur.twin(d)]] != new_size:
                d = cur.twin(d)
            try:
                res = straighten(cur, EdgeRef(d))
            except ThreeBeltObstructionError:
                continue
            if depth == 0 and classify_shape(res.map) not in final:
                continue
            nxt, csite, dmap, reflected = _canonical_site(res.map, res.inverse_site)
            # the chain's last cut rebuilds m from the first straightening's nxt
            here = top or (d, res.relabel, nxt, csite, dmap, reflected)
            if depth == 0:
                return nxt, (csite,) + acc, _carried_start(m, *here)
            got = rec(nxt, depth - 1, (csite,) + acc, None, here)
            if got is not None:
                return got
        return None

    return rec(m, len(kinds) - 1, (), first, None)


def _carried_start(c: PlanarMap, d: int, relabel, x: PlanarMap, csite, dmap, reflected: bool):
    """The ``(reflected, dart)`` start from which R = truncate(x, csite)
    reads ``c``'s canonical code, where straightening ``c`` at ``d`` gave
    ``relabel`` and the canonical form ``x`` with ``dmap`` and ``reflected``.

    A dart y of ``c`` at a vertex that survives is ``psi(y) =
    dmap[relabel[y]]`` in x, and so in R, which keeps x's dart ids; R is
    walked in the mirror rotation exactly when ``reflected`` differs from the
    winning start's own reflection.  A start cut away with ``d``'s ends is
    reached over R's new vertices: across its edge when only its source is
    cut, and else, being ``d`` or its twin, back from the next dart around
    its target.
    """
    w_refl, w = c._canonical(True)[1]
    cut = (d // 3, c.twin(d) // 3)
    mirror = reflected != w_refl
    if w // 3 not in cut:
        return mirror, dmap[relabel[w]]
    twin_r = truncate(x, csite).map.twin
    tw = c.twin(w)
    if tw // 3 not in cut:
        return mirror, twin_r(dmap[relabel[tw]])
    # the image of y = sigma(twin w), sigma the winner's walk rotation, which
    # leads from w's target to a vertex that survives; twin(w)'s image is the
    # dart before it in R's walk rotation
    y = twin_r(dmap[relabel[c.twin(c.prev(tw) if w_refl else c.next(tw))]])
    return mirror, twin_r(3 * (y // 3) + (y + (1 if mirror else 2)) % 3)


# ----------------------------------------------------------------------
# forward successor enumeration (used by the closure engine)
# ----------------------------------------------------------------------


def _one_per_orbit(m: PlanarMap, sites: Sequence[TruncationSite], automorphisms):
    """The sites whose cut no automorphism maps an earlier site's cut to.
    A cut is its ``cut_key``, which an automorphism maps to its image's key
    whether or not it reverses orientation."""
    if len(automorphisms) == 1:
        return sites
    covered, kept = set(), []
    for site in sites:
        walk = site.walk(m)
        if cut_key([x // 3 for x in walk]) in covered:
            continue
        kept.append(site)
        # phi keeps each dart's source, so it maps the run's vertices
        covered.update(cut_key([phi[x] // 3 for x in walk]) for phi in automorphisms)
    return kept


def _chain_successors(m: PlanarMap, kind: GrowthOpKind, include_reflection: bool = True):
    """Chains of truncations realizing a truncation kind.

    The first cut runs over one matching site per orbit of ``m``'s
    automorphism group, the first in ``enumerate_sites`` order; only the
    orientation-preserving automorphisms count without
    ``include_reflection``, where a mirror image is a class of its own.  A
    dropped site's chains are those of its representative, which comes
    earlier, up to that automorphism: later maps are canonical under the
    same equivalence (``canonical_form(include_reflection)``), so their
    subtrees are identical, and a chiral intermediate keeps its own subtree
    apart from its mirror's without ``include_reflection``.  Later cuts run
    over every site and are anchored by their signature to the unique
    exceptional face the chain created.
    """
    seq = KIND_CHAINS[kind]

    def rec(cur: PlanarMap, idx: int, acc: tuple):
        k0 = seq[idx]
        s, k, m1, m2 = KIND_SIGNATURES[k0]
        sites = enumerate_sites(cur, s=s, k=k, m1=m1, m2=m2)
        for site in sites if idx else _one_per_orbit(cur, sites, cur.automorphisms(include_reflection)):
            raw = truncate(cur, site).map
            payload = acc + (site,)
            if idx + 1 == len(seq):
                yield kind, ("trunc", payload), raw
            else:
                yield from rec(raw.canonical_form(include_reflection)[0], idx + 1, payload)

    yield from rec(m, 0, ())


def _cap_successors(m: PlanarMap, kinds):
    """Cap insertions among ``kinds``, from one nanotube recognition."""
    for fam, k in recognize_nanotube(m):
        kind, builder, _ = _CAPS[fam]
        if kind in kinds:
            yield kind, ("cap", fam, k), builder(k + 1)


def successor_candidates(m: PlanarMap, regime: Regime, max_faces: int, include_reflection: bool = True):
    """The (kind, step payload, raw result) growth moves from a canonical map
    whose result has at most ``max_faces`` faces (the closure to ``max_p6``
    hexagons passes ``12 + max_p6``), one per orbit of first cuts.

    A map outside the regime's classes has no successors.  A kind is tried
    only when the map is in its source classes and its face gain fits the
    bound.  ``include_reflection`` is the closure's flag; the pruning keeps
    every class the full set of moves reaches, and the first move into it
    (``_chain_successors``).  Results are not class-filtered; the
    enumeration engine owns that.
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
            yield from _chain_successors(m, kind, include_reflection)


def reduce_to_dodecahedron(m: PlanarMap, regime: Regime) -> DerivationTrace:
    """Full reduction; the returned trace replays forward to ``m``'s code.

    Each step is checked as it is found: its kind is in the regime, and
    ``_apply_step`` gives a map that reads the step's code, which is the
    code the canonical search gave the map reduced.  The walk test walks
    the start the step carries first, and scans only if that walk fails.
    NoCaseAppliesError names the step, counting from 0 at ``m``.

    No rewrite here validates the map it builds: each predecessor is a
    straightening of a valid map, which is valid by construction (see
    ``transform``), and the walk test reads the code of a valid map in
    full, which proves ``_apply_step``'s result isomorphic to that map."""
    cur = m.canonical_form()[0]
    steps: list[GrowthStep] = []
    guard = 4 * m.num_faces + 16
    while cur.canonical_code() != _dodecahedron_code():
        pred, step = reduce_once(cur, regime)
        try:
            if step.kind not in _REGIME_KINDS[regime]:
                raise IllegalTransitionError(f"{step.kind.name} is not in regime {regime.value}")
            if not _apply_step(pred, step).reads_code(step.code, start=step.start):
                raise MapError("the result is not the map the step was taken from")
        except MapError as e:
            raise NoCaseAppliesError(f"reduction step {len(steps)} ({step.kind.name}): {e}", cur) from e
        steps.append(step)
        cur = pred
        if len(steps) > guard:
            raise NoCaseAppliesError("reduction did not terminate", m)
    return DerivationTrace(regime, _dodecahedron_code(), tuple(reversed(steps)))
