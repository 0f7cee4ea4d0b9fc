"""Isomorph-free enumeration, the independent spiral oracle, and the CLI.

The closure engine grows the dodecahedron breadth-first under a regime's
operations, keeping one canonical map per isomorphism class; the oracle
generates the same fullerene universe by exhaustive face-spiral windup and
shares nothing with the growth machinery beyond the map kernel, so the two
can referee each other.  Both deduplicate through ``GeneratedSet``: an
invariant bucket and a walk test, and a canonical search for new classes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .planar_map import (
    MapError,
    PlanarMap,
    check_polytopal,
    encode_planar_code,
    map_from_faces,
    p_vector,
    planar_code_records,
)
from .structure import FamilyClass, classify, classify_shape, find_belts, five_belt_census
from .growth import (
    DerivationTrace,
    GrowthStep,
    Regime,
    _REGIME_CLASSES,
    build_dodecahedron,
    recognize_nanotube,
    reduce_to_dodecahedron,
    successor_candidates,
)


class BoundTooLargeError(MapError):
    """The spiral oracle is restricted to its proven-complete range."""


@dataclass(frozen=True)
class EnumerationJob:
    regime: Regime
    max_p6: int
    collect_traces: bool = False
    worker_count: int = 1
    include_reflection: bool = True

    def __post_init__(self):
        if self.max_p6 < 0:
            raise MapError("max_p6 must be nonnegative")
        if self.worker_count != 1:
            raise MapError("enumeration runs in one thread; worker_count must be 1")
        if self.collect_traces and not self.include_reflection:
            raise MapError("traces are defined over the mirror-identifying equivalence")


@dataclass(slots=True)
class GeneratedEntry:
    code: bytes
    cls: FamilyClass
    p6: int
    parent: Optional[bytes] = None
    step: Optional[GrowthStep] = None

    @property
    def map(self) -> PlanarMap:
        """The canonical form, rebuilt from the code on each access."""
        return PlanarMap._from_code(self.code)


def bucket_key(m: PlanarMap) -> tuple:
    """An isomorphism invariant that mirror images share: the sorted
    (face size, sorted neighbour face sizes) of every face."""
    fs, fo = m.face_sizes, m.face_of
    across = [fs[fo[t]] for t in m._twin]  # the face size across each dart
    return tuple(sorted((len(c), tuple(sorted([across[d] for d in c]))) for c in m.faces))


@dataclass
class GeneratedSet:
    """Canonical-code-keyed store of generated classes.

    The codes are also bucketed by ``bucket_key``, so a map is walk-tested
    only against the codes it could equal, and only a map that reads none
    of them needs a canonical search.  A code is the only stored form of
    its class: an entry's map is rebuilt from it.  A new key is stored built
    from shared per-face tuples, since they take few distinct values."""

    max_p6: int
    include_reflection: bool = True
    entries: dict[bytes, GeneratedEntry] = field(default_factory=dict)
    complete: bool = True
    _buckets: dict[tuple, list[bytes]] = field(default_factory=dict, repr=False)
    _face_tuples: dict[tuple, tuple] = field(default_factory=dict, repr=False)

    def add(
        self, m: PlanarMap, cls: Optional[FamilyClass] = None, parent: Optional[bytes] = None
    ) -> Optional[GeneratedEntry]:
        """Store ``m``'s class, whose family class ``cls`` is classified here
        if not given, and return the new entry; None if ``m`` is isomorphic to
        a stored entry (mirror images identified when ``include_reflection`` is).

        Raises:
            MapError: ``m``'s canonical code is already stored, so the walk
                test missed an isomorph.
        """
        refl = self.include_reflection
        key = bucket_key(m)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[tuple(self._face_tuples.setdefault(t, t) for t in key)] = []
        elif any(m.reads_code(code, refl) for code in bucket):
            return None
        code = m.canonical_code(refl)
        if code in self.entries:
            raise MapError(f"canonical code {code.hex()} is already stored")
        entry = self.entries[code] = GeneratedEntry(code, cls or classify_shape(m), p_vector(m)[6], parent)
        bucket.append(code)
        return entry

    def fullerene_codes(self) -> dict[int, list[bytes]]:
        out: dict[int, list[bytes]] = {p6: [] for p6 in range(self.max_p6 + 1)}
        for code, e in self.entries.items():
            if e.cls.is_fullerene:
                out.setdefault(e.p6, []).append(code)
        for v in out.values():
            v.sort()
        return out

    def fullerene_counts(self) -> list[int]:
        codes = self.fullerene_codes()
        return [len(codes.get(p6, [])) for p6 in range(self.max_p6 + 1)]

    def sorted_fullerenes(self) -> list[PlanarMap]:
        keys = sorted(
            (c for c, e in self.entries.items() if e.cls.is_fullerene),
        )
        return [self.entries[c].map for c in keys]

    def trace_of(self, code: bytes, regime: Regime) -> DerivationTrace:
        """The steps that lead from the root entry, whose code starts the
        trace, to ``code``'s entry."""
        steps: list[GrowthStep] = []
        cur = code
        while True:
            e = self.entries[cur]
            if e.step is None:
                break
            steps.append(e.step)
            cur = e.parent
        return DerivationTrace(regime, cur, tuple(reversed(steps)))


def enumerate_closure(job: EnumerationJob) -> GeneratedSet:
    """Breadth-first closure of the dodecahedron under a regime's operations.

    The closure holds the regime's maps with at most ``12 + max_p6`` faces:
    every fullerene with at most ``max_p6`` hexagons and the exceptional maps
    that lead to them (every operation adds faces).  Deterministic for a
    fixed job: frontier items are expanded in sorted order and merged
    sequentially.  An interrupted run returns what it has with ``complete``
    unset.  Each map that adds an entry is validated in full and checked
    polytopal; a candidate that duplicates an entry reads that entry's code
    in full, which proves it isomorphic to a valid map.
    """
    refl = job.include_reflection
    max_faces = 12 + job.max_p6
    start = build_dodecahedron().canonical_form(refl)[0]
    out = GeneratedSet(job.max_p6, refl)
    frontier: list[tuple[bytes, PlanarMap]] = [(out.add(start).code, start)]
    try:
        while frontier:
            # popped in (faces, code) order, so each map is dropped once expanded
            batch, frontier = sorted(frontier, key=lambda it: (it[1].num_faces, it[0]), reverse=True), []
            while batch:
                parent_code, parent = batch.pop()
                for kind, payload, raw in successor_candidates(parent, job.regime, max_faces, refl):
                    cls = classify_shape(raw)
                    if cls not in _REGIME_CLASSES[job.regime]:
                        continue
                    entry = out.add(raw, cls, parent_code)
                    if entry is None:
                        continue
                    # the rewrites build their results unvalidated
                    raw._validate()
                    canon = raw.canonical_form(refl)[0]
                    if not check_polytopal(canon):
                        raise MapError(f"enumeration produced a non-polytopal map ({kind.name})")
                    if job.collect_traces:
                        entry.step = GrowthStep(kind, payload, entry.code)
                    frontier.append((entry.code, canon))
    except KeyboardInterrupt:
        out.complete = False
    return out


# ----------------------------------------------------------------------
# spiral oracle
# ----------------------------------------------------------------------


def _windup(sizes: Sequence[int], prefix: Optional[list] = None) -> Optional[PlanarMap]:
    """Wind a face-size spiral into a sphere map, or None if it jams.

    Faces are attached in order, each glued over the run of saturated
    boundary corners at the active position; the last face must close the
    remaining boundary exactly.

    ``prefix`` caches the windup of earlier calls: entry k holds face k's
    size and the state after face k, or None if the spiral jammed there.  A
    call resumes after the longest run of non-last faces it shares with the
    cache, so a jammed prefix rejects every spiral that extends it at once.
    """
    prefix = [] if prefix is None else prefix
    nface = len(sizes)
    k, shared = 0, min(len(prefix), nface - 1)
    while k < shared and prefix[k][0] == sizes[k]:
        k += 1
    del prefix[k:]
    if not k:
        s0 = sizes[0]
        ring = tuple(range(s0))
        prefix.append((s0, ((ring,), ring, (2,) * s0)))
        k = 1
    state = prefix[-1][1]
    for idx in range(k, nface - 1):
        if state is None:
            return None
        state = _attach(state, sizes[idx])
        prefix.append((sizes[idx], state))
    if state is None:
        return None
    faces, boundary, deg = state
    if len(boundary) != sizes[-1] or any(deg[v] != 3 for v in boundary):
        return None
    try:
        return map_from_faces(faces + (tuple(reversed(boundary)),))
    except MapError:
        return None


def _attach(state: tuple, s: int) -> Optional[tuple]:
    """The windup state after gluing a non-last face of size ``s``, or None
    if the spiral jams there.  A state is (faces, boundary, deg), all
    immutable so that ``_windup`` can cache it; the vertices are 0 to
    len(deg) - 1."""
    faces, boundary, deg = state
    ln = len(boundary)
    if ln < 2:
        return None
    p_start, p_end = 0, 1
    guard = 0
    while deg[boundary[p_start % ln]] == 3:
        p_start -= 1
        guard += 1
        if guard > ln:
            return None
    while deg[boundary[p_end % ln]] == 3:
        p_end += 1
        guard += 1
        if guard > ln:
            return None
    g = p_end - p_start
    if g > ln - 1:
        return None
    newv = s - g - 1
    if newv < 0:
        return None
    ring = boundary * 3  # boundary[i % ln] is ring[i + ln] for -ln <= i < 2 * ln
    path = ring[p_start + ln:p_end + ln + 1]
    x0, xg = path[0], path[-1]
    # both ends have degree 2, so both their edges lie on the boundary: they
    # are joined exactly when the boundary is the run plus one edge
    if newv == 0 and g == ln - 1:
        return None
    new_ids = tuple(range(len(deg), len(deg) + newv))
    deg = list(deg) + [2] * newv
    deg[x0] += 1
    deg[xg] += 1
    keep = ring[p_end + ln:p_start + 2 * ln + 1]
    return faces + (tuple(reversed(path)) + new_ids,), keep + new_ids, tuple(deg)


def oracle_generate(max_p6: int, include_reflection: bool = True) -> GeneratedSet:
    """All fullerene isomorphism classes with at most ``max_p6`` hexagons.

    Exhaustive face-spiral windup over every pentagon placement; complete far
    below the known spiral failure threshold, hence the hard bound.
    """
    if max_p6 < 0:
        raise MapError("max_p6 must be nonnegative")
    if max_p6 > 30:
        raise BoundTooLargeError("spiral completeness is only assumed up to p6 = 30")
    out = GeneratedSet(max_p6, include_reflection)
    for p6 in range(max_p6 + 1):
        nface = 12 + p6
        prefix: list = []
        for pent_positions in itertools.combinations(range(nface), 12):
            sizes = [6] * nface
            for i in pent_positions:
                sizes[i] = 5
            m = _windup(sizes, prefix)
            if m is None:
                continue
            if not p_vector(m).is_fullerene():
                raise MapError("windup produced a non-fullerene")
            out.add(m)
    return out


@dataclass(frozen=True)
class CrossCheckReport:
    only_a: dict[int, list[bytes]]
    only_b: dict[int, list[bytes]]

    @property
    def clean(self) -> bool:
        return not self.only_a and not self.only_b

    def summary(self) -> str:
        if self.clean:
            return "fullerene buckets agree"
        parts = []
        for p6, codes in sorted(self.only_a.items()):
            parts.append(f"p6={p6}: {len(codes)} only in A")
        for p6, codes in sorted(self.only_b.items()):
            parts.append(f"p6={p6}: {len(codes)} only in B")
        return "; ".join(parts)


def cross_check(a: GeneratedSet, b: GeneratedSet) -> CrossCheckReport:
    """Fullerene-bucket set difference between two generated sets."""
    if a.max_p6 != b.max_p6:
        raise MapError("cross_check requires the same hexagon bound")
    ca, cb = a.fullerene_codes(), b.fullerene_codes()
    only_a: dict[int, list[bytes]] = {}
    only_b: dict[int, list[bytes]] = {}
    for p6 in range(a.max_p6 + 1):
        sa, sb = set(ca.get(p6, [])), set(cb.get(p6, []))
        if sa - sb:
            only_a[p6] = sorted(sa - sb)
        if sb - sa:
            only_b[p6] = sorted(sb - sa)
    return CrossCheckReport(only_a, only_b)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    job = EnumerationJob(
        Regime(args.regime),
        args.max_hexagons,
        collect_traces=args.traces is not None,
        include_reflection=not args.no_reflection,
    )
    gen = enumerate_closure(job)
    if not gen.complete:
        print("error: enumeration was interrupted; no output written", file=sys.stderr)
        return 1
    # open --traces before --out is written, and take it back if --out cannot
    # be written, so a run that cannot write both leaves neither
    fh = open(args.traces, "w", encoding="utf-8") if args.traces else None
    try:
        codes = _write_fullerenes(args.out, gen)
    except BaseException:
        if fh is not None:
            fh.close()
            os.remove(args.traces)
        raise
    if fh is not None:
        with fh:
            for code in codes:
                fh.write(gen.trace_of(code, job.regime).to_jsonl())
                fh.write("\n")
    counts = gen.fullerene_counts()
    print(f"wrote {len(codes)} fullerenes to {args.out}; per-p6 counts {counts}")
    return 0


def _cmd_oracle(args) -> int:
    gen = oracle_generate(args.max_hexagons, include_reflection=not args.no_reflection)
    codes = _write_fullerenes(args.out, gen)
    print(f"wrote {len(codes)} fullerenes to {args.out}; per-p6 counts {gen.fullerene_counts()}")
    return 0


def _write_fullerenes(path, gen: GeneratedSet) -> list[bytes]:
    """Write ``gen``'s fullerenes, sorted by code, to ``path`` as planar_code; return the codes."""
    codes = sorted(c for c, e in gen.entries.items() if e.cls.is_fullerene)
    with open(path, "wb") as fh:
        fh.write(encode_planar_code(gen.entries[c].map for c in codes))
    return codes


def _load_set(path) -> tuple[GeneratedSet, int]:
    """The fullerenes of a planar_code file and how many records were not
    fullerenes; a record that is no valid map is also reported on stderr."""
    out = GeneratedSet(0)
    others = 0
    for i, m in enumerate(_read_records(path)):
        if isinstance(m, MapError):
            print(f"{path}: record {i}: {m}", file=sys.stderr)
            others += 1
            continue
        pv = p_vector(m)
        if not pv.is_fullerene():
            others += 1
            continue
        out.max_p6 = max(out.max_p6, pv[6])
        out.add(m)
    return out, others


def _cmd_diff(args) -> int:
    sets = []
    for path in (args.a, args.b):
        gen, others = _load_set(path)
        if others:
            print(f"{path}: ignored {others} records that are not fullerenes", file=sys.stderr)
        sets.append(gen)
    a, b = sets
    bound = max(a.max_p6, b.max_p6)
    a.max_p6 = b.max_p6 = bound
    report = cross_check(a, b)
    print(report.summary())
    for side, gen, only in (("A", a, report.only_a), ("B", b, report.only_b)):
        for p6, codes in sorted(only.items()):
            for code in codes:
                dump = encode_planar_code([gen.entries[code].map], with_header=False).hex()
                print(f"only in {side} p6={p6}: {dump}", file=sys.stderr)
    return 0 if report.clean else 1


def _read_records(path) -> list[PlanarMap | MapError]:
    """A planar_code file's records, each a map or the MapError that
    validating it raised; see ``planar_code_records``."""
    with open(path, "rb") as fh:
        return planar_code_records(fh.read())


def _checked(record: PlanarMap | MapError) -> PlanarMap:
    """The map of a record; raises the record's MapError if it has one."""
    if isinstance(record, MapError):
        raise record
    return record


def _cmd_reduce(args) -> int:
    records = _read_records(args.infile)
    regime = Regime(args.regime)
    status = 0
    with open(args.traces, "w", encoding="utf-8") as fh:
        for i, m in enumerate(records):
            try:
                trace = reduce_to_dodecahedron(_checked(m), regime)
            except MapError as exc:
                print(f"map {i}: reduction failed: {exc}", file=sys.stderr)
                status = 1
                continue
            fh.write(trace.to_jsonl())
            fh.write("\n")
            print(f"map {i}: {len(trace)} steps, kinds {[k.name for k in trace.kinds()]}")
    return status


def _cmd_validate(args) -> int:
    status = 0
    for i, m in enumerate(_read_records(args.infile)):
        try:
            m = _checked(m)
            pv = p_vector(m)
            poly = check_polytopal(m)
            cls = classify_shape(m).value if poly else "n/a"
            belts = {k: len(find_belts(m, k)) for k in (3, 4, 5)}
            report = {
                "index": i, "vertices": m.num_vertices, "p_vector": dict(pv.items()),
                "polytopal": poly, "class": cls, "belts": belts,
                "automorphisms": len(m.automorphisms()),
            }
            print(json.dumps(report))
            if not poly:
                status = 1
        except MapError as exc:
            print(json.dumps({"index": i, "error": str(exc)}))
            status = 1
    return status


def _cmd_classify(args) -> int:
    return _per_record(args.infile, lambda m: {"class": classify(m).value})


def _cmd_belts(args) -> int:
    def report(m):
        belts = find_belts(m, args.k)
        rec = {"k": args.k, "count": len(belts), "belts": [list(b.faces) for b in belts]}
        if args.k == 5 and p_vector(m).is_fullerene():
            rec["census"] = list(five_belt_census(m))
        return rec

    return _per_record(args.infile, report)


def _cmd_nanotube(args) -> int:
    return _per_record(args.infile, lambda m: {"nanotube": [list(t) for t in recognize_nanotube(m)]})


def _per_record(path, report) -> int:
    """Print ``{"index": i, **report(map)}`` per record, or ``{"index": i,
    "error": ...}`` for a record that is not a valid map or whose report
    raises a MapError; exit 1 if any record failed."""
    status = 0
    for i, m in enumerate(_read_records(path)):
        try:
            rec = {"index": i, **report(_checked(m))}
        except MapError as exc:
            rec = {"index": i, "error": str(exc)}
            status = 1
        print(json.dumps(rec))
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    regimes = [regime.value for regime in Regime]

    g = sub.add_parser("gen", help="enumerate the closure of the dodecahedron")
    g.add_argument("--regime", choices=regimes, required=True)
    g.add_argument("--max-hexagons", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--traces")
    g.add_argument("--no-reflection", action="store_true")
    g.set_defaults(func=_cmd_gen)

    o = sub.add_parser("oracle", help="spiral-generate all fullerenes up to a bound")
    o.add_argument("--max-hexagons", type=int, required=True)
    o.add_argument("--out", required=True)
    o.add_argument("--no-reflection", action="store_true")
    o.set_defaults(func=_cmd_oracle)

    d = sub.add_parser("diff", help="compare two planar_code files up to isomorphism")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(func=_cmd_diff)

    r = sub.add_parser("reduce", help="reduce maps to the dodecahedron, writing traces")
    r.add_argument("infile")
    r.add_argument("--regime", choices=regimes, required=True)
    r.add_argument("--traces", required=True)
    r.set_defaults(func=_cmd_reduce)

    v = sub.add_parser("validate", help="per-map structural report")
    v.add_argument("infile")
    v.set_defaults(func=_cmd_validate)

    c = sub.add_parser("classify", help="family class per map")
    c.add_argument("infile")
    c.set_defaults(func=_cmd_classify)

    b = sub.add_parser("belts", help="k-belt census per map")
    b.add_argument("infile")
    b.add_argument("--k", type=int, default=5)
    b.set_defaults(func=_cmd_belts)

    n = sub.add_parser("nanotube", help="nanotube cap recognition per map")
    n.add_argument("infile")
    n.set_defaults(func=_cmd_nanotube)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
