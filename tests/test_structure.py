import pytest

from fforge import (
    PlanarMap,
    TruncationSite,
    build_D5k,
    build_F3k,
    check_131313,
    classify,
    classify_shape,
    enumerate_sites,
    find_belts,
    find_fragments,
    five_belt_census,
    is_flag,
    p_vector,
    truncate,
)
from fforge.planar_map import check_polytopal
from fforge.structure import FamilyClass, Fragment, NotAFullereneError, NotPolytopalError, survey_131313

import helpers

TETRA_ROT = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


class TestBelts:
    def test_fullerenes_have_no_3_or_4_belts(self, oracle5):
        for e in oracle5.entries.values():
            assert find_belts(e.map, 3) == []
            assert find_belts(e.map, 4) == []

    def test_quadrangle_class_has_one_4_belt(self, gen_seven):
        seen = 0
        for e in gen_seven.entries.values():
            if e.cls is not FamilyClass.F_MINUS1:
                continue
            belts = find_belts(e.map, 4)
            assert len(belts) == 1
            quad = e.map.face_sizes.index(4)
            assert set(belts[0].faces) == set(e.map.face_neighbors(quad))
            seen += 1
        assert seen > 0

    def test_matches_brute_force_on_small_maps(self, dodeca):
        cube = helpers.cube_map()
        tc = truncate(cube, TruncationSite(0, 0)).map
        for m in (dodeca, cube, tc, PlanarMap.from_rotation(TETRA_ROT)):
            for k in (3, 4, 5):
                ours = {b.faces for b in find_belts(m, k)}
                assert ours == helpers.brute_belts(m, k)

    def test_belt_conditions_hold_literally(self, gen_seven):
        for e in list(gen_seven.entries.values())[::3]:
            m = e.map
            sets = m.face_vertex_sets
            for b in find_belts(m, 4) + find_belts(m, 5):
                k = b.k
                total = sets[b.faces[0]]
                for i in range(k):
                    total = total & sets[b.faces[i]]
                    for j in range(i + 1, k):
                        touching = bool(sets[b.faces[i]] & sets[b.faces[j]])
                        consecutive = j - i == 1 or (i == 0 and j == k - 1)
                        assert touching == consecutive
                assert not total


class TestFlag:
    def test_simplex_is_not_flag(self):
        assert not is_flag(PlanarMap.from_rotation(TETRA_ROT))

    def test_dodecahedron_is_flag(self, dodeca):
        assert is_flag(dodeca)

    def test_truncated_cube_is_not_flag(self):
        cube = helpers.cube_map()
        tc = truncate(cube, TruncationSite(0, 0)).map
        assert not is_flag(tc)

    def test_family_members_are_flag(self, gen_seven):
        for e in gen_seven.entries.values():
            assert is_flag(e.map)


class TestFiveBeltCensus:
    def test_dodecahedron(self, dodeca):
        assert five_belt_census(dodeca) == (12, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nanotubes(self, k):
        assert five_belt_census(build_D5k(k)) == (12, k)

    def test_census_matches_belt_count(self, oracle5):
        for e in oracle5.entries.values():
            p, h = five_belt_census(e.map)
            assert p + h == len(find_belts(e.map, 5))
            assert p == 12

    def test_rejects_non_fullerene(self):
        with pytest.raises(NotAFullereneError):
            five_belt_census(helpers.cube_map())


def _placements(m, name):
    """Face tuples of a template: the package's scan for P1 and P2, the
    referee matcher for the C1 and C2 caps."""
    if name in ("P1", "P2"):
        return find_fragments(m, Fragment(name))
    return [e.faces for e in helpers.match_fragments(m, name)]


TEMPLATES = ("C1", "C2", "P1", "P2")

# A map that is not 3-connected in which one hexagon lies both at the far end
# of a pentagon pair's edge and across the third pentagon at their vertex.
REPEATED_HEXAGON = [
    [16, 18, 15], [14, 3, 4], [3, 15, 19], [1, 2, 4], [19, 1, 3], [11, 12, 7], [12, 8, 9],
    [10, 5, 9], [6, 10, 9], [7, 6, 8], [8, 11, 7], [5, 10, 13], [5, 13, 6], [11, 12, 16],
    [18, 17, 1], [2, 17, 0], [13, 17, 0], [14, 16, 15], [14, 19, 0], [2, 18, 4],
]


class TestFragments:
    def test_pentagon_ring_on_dodecahedron(self, dodeca):
        embs = helpers.match_fragments(dodeca, "C1")
        assert len(embs) == 12
        assert all(e.is_patch for e in embs)
        assert {frozenset(e.faces) for e in embs} == helpers.pentagon_ring_sites(dodeca)

    def test_triple_cap_on_dodecahedron(self, dodeca):
        embs = helpers.match_fragments(dodeca, "C2")
        assert {frozenset(e.faces) for e in embs} == helpers.triple_cap_sites(dodeca)

    def test_caps_on_nanotubes(self):
        assert len(helpers.match_fragments(build_D5k(2), "C1")) == 2
        assert len(helpers.match_fragments(build_F3k(2), "C2")) == 2
        assert helpers.match_fragments(build_F3k(2), "C1") == []

    def test_p1_matches_direct_recognizer(self, oracle5):
        for e in oracle5.entries.values():
            faces = find_fragments(e.map, Fragment.P1)
            assert {frozenset(f) for f in faces} == helpers.pentagon_pair_hex_corners(e.map)

    def test_p2_matches_direct_recognizer(self, oracle5):
        for e in oracle5.entries.values():
            faces = find_fragments(e.map, Fragment.P2)
            assert {frozenset(f) for f in faces} == helpers.pentagon_triple_arm_sites(e.map)

    def test_no_p1_on_ipr(self, c60):
        assert find_fragments(c60, Fragment.P1) == []

    def test_mirror_symmetry_of_counts(self, oracle5):
        for e in list(oracle5.entries.values())[:4]:
            m = e.map
            mirror = PlanarMap.from_rotation(
                [list(reversed(m.neighbors(v))) for v in range(m.num_vertices)]
            )
            for name in TEMPLATES:
                assert len(_placements(m, name)) == len(_placements(mirror, name))

    def test_every_pattern_matches_its_direct_recognizer(self, gen_seven, gen_a, gen_ab, c60):
        """The face sets of each pattern's placements, each found once, are
        those of a direct recognizer that shares no code with the scan or
        the matcher, on every closure fixture map, the IPR C60 and its
        leapfrog."""
        referees = {
            "C1": helpers.pentagon_ring_sites,
            "C2": helpers.triple_cap_sites,
            "P1": helpers.pentagon_pair_hex_corners,
            "P2": helpers.pentagon_triple_arm_sites,
        }
        pool = [e.map for g in (gen_seven, gen_a, gen_ab) for e in g.entries.values()]
        pool += [c60, helpers.leapfrog(c60)]
        hits = 0
        for m in pool:
            for name, referee in referees.items():
                faces = [frozenset(f) for f in _placements(m, name)]
                assert len(set(faces)) == len(faces)
                assert set(faces) == referee(m)
                hits += len(faces)
        assert (len(pool), hits) == (48, 396)

    def test_scan_matches_the_template_matcher(self, gen_seven, gen_a, gen_ab):
        """The direct P1/P2 placement gives the template matcher's face
        tuples, in its order, on every closure fixture map and on a
        relabeled and a mirrored copy of each."""
        hits = {frag: 0 for frag in Fragment}
        maps = [e.map for g in (gen_seven, gen_a, gen_ab) for e in g.entries.values()]
        for i, m in enumerate(maps):
            for copy in (m, helpers.relabeled(m, i), helpers.mirrored(m)):
                for frag in Fragment:
                    got = find_fragments(copy, frag)
                    assert got == [e.faces for e in helpers.match_fragments(copy, frag.value)]
                    hits[frag] += len(got)
        assert (len(maps), hits[Fragment.P1], hits[Fragment.P2]) == (46, 336, 474)

    def test_a_placement_with_a_repeated_face_is_no_patch(self):
        m = PlanarMap.from_rotation(REPEATED_HEXAGON)
        assert not check_polytopal(m)
        assert find_fragments(m, Fragment.P2) == helpers.match_fragments(m, "P2") == []

    def test_adjacent_pentagon_coverage(self, oracle5):
        """Any fullerene with touching pentagons shows one of the four patches."""
        for e in oracle5.entries.values():
            m = e.map
            if classify_shape(m) is FamilyClass.F_IPR:
                continue
            assert any(_placements(m, name) for name in TEMPLATES)


class TestClassify:
    def test_dodecahedron(self, dodeca):
        assert classify(dodeca) is FamilyClass.F

    def test_quadrangle_route(self, dodeca):
        r = truncate(dodeca, enumerate_sites(dodeca, s=1, m1=5, m2=5)[0]).map
        assert classify(r) is FamilyClass.F_MINUS1

    def test_heptagon_route(self, oracle5):
        m, site = next(
            (e.map, s)
            for e in oracle5.entries.values()
            for s in enumerate_sites(e.map, s=2, k=6, m1=5, m2=6)
        )
        out = truncate(m, site).map
        assert classify(out) is FamilyClass.F1
        pv = p_vector(out)
        assert pv[5] == 13 and pv[7] == 1

    def test_heptagon_class_invariants(self, gen_seven):
        for e in gen_seven.entries.values():
            if e.cls in (FamilyClass.F1, FamilyClass.F1_IPR):
                pv = p_vector(e.map)
                assert pv[5] == 13 and pv[7] == 1
            if e.cls is FamilyClass.F_MINUS1:
                assert p_vector(e.map)[5] == 10

    def test_ipr_detection(self, c60):
        assert classify_shape(c60) is FamilyClass.F_IPR

    def test_rejects_non_polytopal(self):
        with pytest.raises(NotPolytopalError):
            classify(helpers.two_edge_connected_cubic())

    def test_other_for_unrelated_maps(self):
        assert classify_shape(helpers.cube_map()) is FamilyClass.OTHER


class TestLoopDichotomy:
    def test_dodecahedron_clean(self, dodeca):
        assert check_131313(dodeca) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nanotube_propagation(self, k):
        assert check_131313(build_F3k(k)) == []
        verdicts = survey_131313(build_F3k(k))
        reasons = {v.reason for v in verdicts}
        assert "pattern propagates" in reasons
        assert "cap closes" in reasons
        assert all(len(set(v.loop)) == len(v.loop) for v in verdicts)

    def test_oracle_set_clean(self, oracle5):
        for e in oracle5.entries.values():
            assert check_131313(e.map) == []

    def test_rejects_non_fullerene(self):
        with pytest.raises(NotAFullereneError):
            check_131313(helpers.cube_map())

    def test_tracer_equals_the_6_loop_search(self, oracle5, c60):
        maps = [e.map for e in oracle5.entries.values()] + [c60]
        maps += [build_F3k(k) for k in range(5)] + [build_D5k(k) for k in (1, 2, 3)]
        assert _loop_surveys_agree(maps) > 100

    @pytest.mark.slow
    def test_tracer_equals_the_6_loop_search_to_p6_10(self, oracle10):
        maps = [e.map for e in oracle10.entries.values()]
        assert _loop_surveys_agree(maps) > 0
        for m in maps:
            assert check_131313(m) == []


def _loop_surveys_agree(maps) -> int:
    """Assert that ``survey_131313`` equals the referee search, list for
    list, on each map as is, relabeled and mirrored; the verdicts compared."""
    compared = 0
    for m in maps:
        for copy in (m, helpers.relabeled(m, 3), helpers.mirrored(m)):
            verdicts = [(v.loop, v.ok, v.reason) for v in survey_131313(copy)]
            assert verdicts == helpers.survey_131313_referee(copy)
            compared += len(verdicts)
    return compared
