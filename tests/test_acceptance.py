"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a single PASS line once its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random
import time

import pytest

from fforge import (
    GrowthOpKind,
    Regime,
    build_D5k,
    build_F3k,
    build_dodecahedron,
    check_131313,
    check_polytopal,
    classify_shape,
    decode_planar_code,
    encode_planar_code,
    find_belts,
    find_fragments,
    five_belt_census,
    is_flag,
    p_vector,
    recognize_nanotube,
    reduce_to_dodecahedron,
    straighten,
    truncate,
    TruncationSite,
)
from fforge.engine import EnumerationJob, cross_check, enumerate_closure
from fforge.structure import FamilyClass, Fragment

import helpers
from test_engine import FIXTURE_PLC


def _report(name: str):
    print(f"[PASS] {name}")


def _all_sites(m):
    out = []
    for cyc in m.faces:
        k = len(cyc)
        for d in cyc:
            for s in range(0, k - 1):
                out.append(TruncationSite(s, d))
    return out


def test_completeness_at_desk_scale(oracle5):
    t0 = time.time()
    counts = None
    for regime in (Regime.SEVEN, Regime.A_OPS, Regime.AB_OPS):
        gen = enumerate_closure(EnumerationJob(regime, 5))
        report = cross_check(gen, oracle5)
        assert report.clean, f"{regime}: {report.summary()}"
        counts = gen.fullerene_counts()
        assert counts[0] == 1 and counts[1] == 0
    assert counts == oracle5.fullerene_counts()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(
        "completeness: all three regimes equal the spiral oracle at p6 <= 5 "
        f"(counts {counts}, {elapsed:.1f}s)"
    )


def test_trace_length_identity(oracle5):
    for e in oracle5.entries.values():
        pv = p_vector(e.map)
        expected = pv[6] + 2 * pv[7] - pv[4]
        trace = reduce_to_dodecahedron(e.map, Regime.SEVEN)
        assert len(trace) == expected == e.p6
    _report("trace length identity: every p6 <= 5 trace has exactly p6 steps")


def test_kind_restriction(oracle5):
    allowed = {
        GrowthOpKind.T145, GrowthOpKind.T155, GrowthOpKind.T2645,
        GrowthOpKind.T2655, GrowthOpKind.T2656, GrowthOpKind.T2755,
        GrowthOpKind.T2756,
    }
    for e in oracle5.entries.values():
        trace = reduce_to_dodecahedron(e.map, Regime.SEVEN)
        kinds = set(trace.kinds())
        assert kinds <= allowed
        for step in trace.steps:
            for s, _ in step.site[1]:
                assert s in (1, 2)
    _report("kind restriction: traces use only edge cuts and (2,6)/(2,7) cuts")


def test_belt_theorems(oracle5, gen_seven):
    for e in oracle5.entries.values():
        assert find_belts(e.map, 3) == []
        assert find_belts(e.map, 4) == []
        tags = dict(recognize_nanotube(e.map))
        expected_hex = tags.get("D5", 0)
        assert five_belt_census(e.map) == (12, expected_hex)
    quad_members = 0
    for e in gen_seven.entries.values():
        if e.cls is not FamilyClass.F_MINUS1 or e.map.num_faces > 40:
            continue
        belts = find_belts(e.map, 4)
        quad = e.map.face_sizes.index(4)
        assert len(belts) == 1
        assert set(belts[0].faces) == set(e.map.face_neighbors(quad))
        quad_members += 1
    assert quad_members > 0
    _report(
        "belt theorems: no 3-/4-belts on fullerenes, census (12, k), "
        f"single quad-surrounding 4-belt on {quad_members} quadrangle members"
    )


def test_round_trip_thousand_samples(family_maps):
    rng = random.Random(20260808)
    t0 = time.time()
    for _ in range(1000):
        m = rng.choice(family_maps)
        site = rng.choice(_all_sites(m))
        res = truncate(m, site)
        back = straighten(res.map, res.new_edge)
        assert back.map.canonical_code() == m.canonical_code()
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(f"round-trip: 1000 truncate/straighten pairs exact ({elapsed:.2f}s)")


def test_flag_closure(family_maps):
    rng = random.Random(97)
    interior, boundary = 0, 0
    pool = [(m, s) for m in family_maps for s in _all_sites(m)]
    rng.shuffle(pool)
    for m, site in pool:
        k = m.face_sizes[m.face_of[site.start_dart]]
        assert is_flag(m)
        if 0 < site.s < k - 2 and interior < 500:
            assert is_flag(truncate(m, site).map)
            interior += 1
        elif site.s in (0, k - 2) and boundary < 100:
            assert not is_flag(truncate(m, site).map)
            boundary += 1
        if interior >= 500 and boundary >= 100:
            break
    assert interior == 500 and boundary == 100
    _report("flag closure: 500 interior cuts stay flag, 100 boundary cuts do not")


def test_nanotube_recognizers():
    for k in range(0, 11):
        d5 = recognize_nanotube(build_D5k(k))
        f3 = recognize_nanotube(build_F3k(k))
        if k == 0:
            # both caps live on the dodecahedron, which is D5(0) and F3(0)
            assert d5 == f3 == [("D5", 0), ("F3", 0)]
        else:
            assert d5 == [("D5", k)]
            assert f3 == [("F3", k)]
    _report("nanotube recognizers: caps identify D5(k) and F3(k) for k <= 10")


def test_patch_coverage_and_loop_dichotomy(oracle5):
    covered = 0
    for e in oracle5.entries.values():
        assert check_131313(e.map) == []
        if classify_shape(e.map) is FamilyClass.F_IPR:
            continue
        patches = [
            name for name in ("C1", "C2") if helpers.match_fragments(e.map, name)
        ] + [frag for frag in Fragment if find_fragments(e.map, frag)]
        assert patches, "adjacent pentagons but no patch embeds"
        covered += 1
    assert covered > 0
    _report(
        f"patch coverage: all {covered} adjacent-pentagon fullerenes embed a patch; "
        "loop dichotomy clean"
    )


def test_census_substitution_documented(oracle5, gen_seven):
    """The large-scale census is out of scope; its role is carried by the
    oracle-equivalence suite, which must itself be in place."""
    assert oracle5.fullerene_counts() == [1, 0, 1, 1, 2, 3]
    assert cross_check(gen_seven, oracle5).clean
    for e in gen_seven.entries.values():
        assert check_polytopal(e.map)
    _report(
        "census substitution: large-p6 census out of scope; oracle-equivalence "
        "suite and polytopality checks stand in"
    )


def test_interop(oracle5, gen_seven, tmp_path):
    out = tmp_path / "gen.plc"
    maps = gen_seven.sorted_fullerenes()
    out.write_bytes(encode_planar_code(maps))
    back = decode_planar_code(out.read_bytes())
    assert sorted(m.canonical_code() for m in back) == sorted(
        m.canonical_code() for m in maps
    )
    fixture_maps = decode_planar_code(FIXTURE_PLC)
    codes = {m.canonical_code() for m in fixture_maps}
    assert build_dodecahedron().canonical_code() in codes
    assert oracle5.fullerene_codes()[2][0] in codes
    _report("interop: emitted stream re-imports identically; reference stream "
            "matches oracle buckets")
