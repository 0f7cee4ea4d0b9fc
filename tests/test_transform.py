import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fforge import (
    PlanarMap,
    EdgeRef,
    TruncationSite,
    build_dodecahedron,
    enumerate_sites,
    is_flag,
    p_vector,
    straighten,
    truncate,
)
from fforge.planar_map import MapError, NonCubicError, check_polytopal
from fforge.transform import (
    InvalidSiteError,
    SimplexInputError,
    ThreeBeltObstructionError,
    _run_darts,
    side_face_sizes,
    three_belt_through,
)

import helpers

TETRA_ROT = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


def all_sites(m: PlanarMap):
    out = []
    for cyc in m.faces:
        k = len(cyc)
        for d in cyc:
            for s in range(0, k - 1):
                out.append(TruncationSite(s, d))
    return out


class TestTruncate:
    def test_vertex_cut_tetrahedron(self):
        k4 = PlanarMap.from_rotation(TETRA_ROT)
        res = truncate(k4, TruncationSite(0, 0))
        pv = p_vector(res.map)
        assert res.map.num_vertices == 6
        assert res.map.face_sizes[res.map.face_of[res.map.twin(res.new_edge.dart)]] == 3
        assert dict(pv.items()) == {3: 2, 4: 3}

    def test_edge_cut_dodecahedron(self, dodeca):
        sites = enumerate_sites(dodeca, s=1, m1=5, m2=5)
        assert len(sites) == 30
        res = truncate(dodeca, sites[0])
        assert dict(p_vector(res.map).items()) == {4: 1, 5: 10, 6: 2}

    def test_endo_kroto_grows_one_hexagon(self, oracle5):
        grown = 0
        for e in oracle5.entries.values():
            for site in enumerate_sites(e.map, s=2, k=6, m1=5, m2=5):
                out = truncate(e.map, site).map
                pv = p_vector(out)
                assert pv.is_fullerene()
                assert pv[6] == e.p6 + 1
                grown += 1
        assert grown > 0

    def test_counts_always_shift_by_two_and_three(self, family_maps):
        for m in family_maps[::4]:
            for site in all_sites(m)[::7]:
                out = truncate(m, site).map
                assert out.num_vertices == m.num_vertices + 2
                assert out.num_edges == m.num_edges + 3

    def test_site_validation(self, dodeca):
        """An s too large for the face, and a start dart out of range, which
        a negative index would otherwise wrap to a dart of the map."""
        for s, d in ((4, 0), (0, -dodeca.num_darts), (0, dodeca.num_darts)):
            with pytest.raises(InvalidSiteError):
                truncate(dodeca, TruncationSite(s, d))


class TestStraighten:
    def test_simplex_has_no_straightening(self):
        k4 = PlanarMap.from_rotation(TETRA_ROT)
        with pytest.raises(SimplexInputError):
            straighten(k4, EdgeRef(0))

    def test_every_fullerene_edge_straightens(self, oracle5):
        for e in list(oracle5.entries.values())[:4]:
            m = e.map
            for d in m.edges:
                out = straighten(m, EdgeRef(d)).map
                assert out.num_faces == m.num_faces - 1

    def test_three_belt_obstruction(self):
        cube = helpers.cube_map()
        tc = truncate(cube, TruncationSite(0, 0)).map
        belt = None
        from fforge import find_belts

        belts = find_belts(tc, 3)
        assert len(belts) == 1
        belt = set(belts[0].faces)
        hit = 0
        for d in tc.edges:
            fp, fq = tc.face_of[d], tc.face_of[tc.twin(d)]
            if fp in belt and fq in belt:
                with pytest.raises(ThreeBeltObstructionError) as err:
                    straighten(tc, EdgeRef(d))
                assert err.value.third_face in belt - {fp, fq}
                hit += 1
        assert hit == 3

    def test_round_trip_examples(self, dodeca):
        """Straightening the new edge gives back the map and the site, dart
        for dart."""
        for site in all_sites(dodeca)[::5]:
            res = truncate(dodeca, site)
            back = straighten(res.map, res.new_edge)
            assert back.map == dodeca
            assert back.inverse_site == site
            # the recorded inverse site regenerates the truncation
            assert truncate(back.map, back.inverse_site).map == res.map

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, family_maps, data):
        m = data.draw(st.sampled_from(family_maps))
        site = data.draw(st.sampled_from(all_sites(m)))
        res = truncate(m, site)
        back = straighten(res.map, res.new_edge)
        assert back.map == m
        assert back.inverse_site == site


class TestEnumerateSites:
    def test_no_hexagon_runs_on_dodecahedron(self, dodeca):
        assert enumerate_sites(dodeca, s=2, k=6) == []

    def test_every_edge_matches_all_pentagon_pattern(self, dodeca):
        assert len(enumerate_sites(dodeca, s=1, m1=5, m2=5)) == 30

    def test_ipr_fullerene_has_no_adjacent_pentagon_runs(self, c60):
        assert enumerate_sites(c60, s=2, k=6, m1=5, m2=5) == []

    def test_unordered_side_matching(self, oracle5):
        m = next(e.map for e in oracle5.entries.values() if e.p6 == 2)
        a = set(enumerate_sites(m, s=2, k=6, m1=5, m2=6))
        b = set(enumerate_sites(m, s=2, k=6, m1=6, m2=5))
        assert a == b

    def test_one_side_size_is_matched_either_side(self, dodeca, family_maps):
        assert enumerate_sites(dodeca, s=1, m1=5) == enumerate_sites(dodeca, s=1, m1=5, m2=5)
        assert enumerate_sites(dodeca, s=1, m2=5) == enumerate_sites(dodeca, s=1, m1=5, m2=5)
        for m in family_maps[::5]:
            for size in (4, 5, 6, 7):
                want = [site for site in enumerate_sites(m, s=2) if size in side_face_sizes(m, site)]
                assert enumerate_sites(m, s=2, m1=size) == want
                assert enumerate_sites(m, s=2, m2=size) == want

    def test_signature_agrees_with_side_sizes(self, family_maps):
        for m in family_maps[::5]:
            for site in enumerate_sites(m, s=2)[::3]:
                s, k, m1, m2 = site.signature(m)
                assert s == 2 and k == m.face_sizes[m.face_of[site.start_dart]]
                assert sorted(side_face_sizes(m, site)) == [m1, m2]


class TestFlagTransitions:
    def test_interior_runs_preserve_flagness(self, oracle5):
        checked = 0
        for e in list(oracle5.entries.values())[:4]:
            m = e.map
            for site in all_sites(m):
                k = m.face_sizes[m.face_of[site.start_dart]]
                if 0 < site.s < k - 2:
                    assert is_flag(truncate(m, site).map)
                    checked += 1
                if checked >= 60:
                    return
        assert checked

    def test_boundary_runs_break_flagness(self, dodeca):
        from fforge import find_belts

        for site in all_sites(dodeca):
            k = dodeca.face_sizes[dodeca.face_of[site.start_dart]]
            if site.s in (0, k - 2):
                out = truncate(dodeca, site).map
                assert not is_flag(out)
                assert len(find_belts(out, 3)) >= 1
                break


# sha256 over every dart's straightening and every fifth site (s = 0..k) of
# each face's truncation, on the rewrite maps (conftest); a straightening
# records (twin, inverse site), a truncation the canonical code and new face
# size, and a failure its exception type.
PINNED_STRAIGHTEN = "6170ac9e91ac33ca40a4f7da2ce4c24c295058898e5d568a99a3824a7e2753a6"
PINNED_TRUNCATE = "a54625040c9d3a4d40a167b90fe49619e6cb08f7835492f796bf5ef4dd7f5cb3"


def _outcome_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update((json.dumps(rec) + "\n").encode())
    return h.hexdigest()


def _outcome(fn):
    try:
        return fn()
    except MapError as e:
        return type(e).__name__


def test_straighten_outcomes_are_pinned(rewrite_maps):
    def run(m, d):
        r = straighten(m, EdgeRef(d))
        site = r.inverse_site
        return [list(r.map._twin), [r.map.face_of[site.start_dart], site.start_dart, site.s]]

    records = (
        _outcome(lambda: run(m, d)) for m in rewrite_maps for d in range(m.num_darts)
    )
    assert _outcome_digest(records) == PINNED_STRAIGHTEN


def test_truncate_outcomes_are_pinned(rewrite_maps):
    def run(m, site):
        r = truncate(m, site)
        return [r.map.canonical_code().hex(), r.map.face_sizes[r.map.face_of[r.map.twin(r.new_edge.dart)]]]

    records = []
    failures = set()
    for m in rewrite_maps:
        sites = [TruncationSite(s, d) for cyc in m.faces for d in cyc for s in range(len(cyc) + 1)]
        for site in sites[::5]:
            rec = _outcome(lambda: run(m, site))
            if isinstance(rec, str):
                failures.add(rec)
            records.append(rec)
    # every refusal in the sample is a site check
    assert failures == {"InvalidSiteError"}
    assert _outcome_digest(records) == PINNED_TRUNCATE


def _accepted_sites(m: PlanarMap):
    """Every site of ``m`` that ``_run_darts`` accepts, with its flanking darts."""
    for site in all_sites(m):
        try:
            yield site, _run_darts(m, site)
        except InvalidSiteError:
            pass


def _recounted_census(m: PlanarMap, site: TruncationSite, d_in: int, d_out: int) -> Counter:
    """Face-size census of the cut at ``site``, changing each distinct face
    once: the site face loses s - 1 edges, the face across each flanking
    edge gains one (twice if it is across both), and the new face has s + 3."""
    sizes = list(m.face_sizes)
    sizes[m.face_of[site.start_dart]] -= site.s - 1
    sizes[m.face_of[m.twin(d_in)]] += 1
    sizes[m.face_of[m.twin(d_out)]] += 1
    return Counter(sizes + [site.s + 3])


def test_every_accepted_cut_is_a_valid_map(rewrite_maps):
    """A cut at any site ``_run_darts`` accepts validates in full, and its
    census is the recount that changes each distinct face once.  At 18 sites,
    all on the two maps that are not 3-connected, one face plays two of the
    roles site face, face across d_in and face across d_out, and a census
    count by the signature's per-role deltas would be wrong."""
    per_role_wrong = 0
    for m in rewrite_maps:
        pv = p_vector(m).counts
        for site, (d_in, d_out) in _accepted_sites(m):
            res = truncate(m, site)
            assert PlanarMap(res.map._twin) == res.map
            census = Counter(res.map.face_sizes)
            assert census == _recounted_census(m, site, d_in, d_out)
            s, k = site.s, m.face_sizes[m.face_of[site.start_dart]]
            m1, m2 = side_face_sizes(m, site)
            per_role = Counter(pv)
            per_role.update([s + 3, k - s + 1, m1 + 1, m2 + 1])
            per_role.subtract([k, m1, m2])
            if +per_role != census:
                assert not check_polytopal(m)
                per_role_wrong += 1
    assert per_role_wrong == 18


def _smoothed_rotation(m: PlanarMap, d: int) -> list[list[int]]:
    """Rotation lists of ``m`` with dart ``d``'s edge deleted and its two
    endpoints smoothed away, later vertices numbered down."""
    u, v = m.source(d), m.target(d)
    join = {}  # (w, x): the vertex w's edge to the endpoint x now leads to
    for x in (u, v):
        a, b = [y for y in m.neighbors(x) if y not in (u, v)]
        join[a, x], join[b, x] = b, a
    keep = [w for w in range(m.num_vertices) if w not in (u, v)]
    new = {w: i for i, w in enumerate(keep)}
    return [[new[join.get((w, y), y)] for y in m.neighbors(w)] for w in keep]


def test_straighten_refuses_exactly_the_invalid_results(rewrite_maps):
    """Past its simplex, bridge and 3-belt checks, straighten raises
    NonCubicError exactly where the smoothed rotation lists are no valid
    map, and otherwise gives the map they build."""
    refused = 0
    for m in rewrite_maps:
        for d in range(m.num_darts):
            try:
                got = straighten(m, EdgeRef(d)).map
            except NonCubicError:
                got = None
            except MapError:
                continue
            rot = _smoothed_rotation(m, d)
            if got is None:
                with pytest.raises(MapError):
                    PlanarMap.from_rotation(rot)
                refused += 1
            else:
                assert PlanarMap.from_rotation(rot) == got
    assert refused


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_rewrite_chains_stay_valid(rewrite_maps, data):
    """Up to six truncations and straightenings in a row, each result
    validated in full; a rewrite that refuses leaves the map as it was."""
    cur = data.draw(st.sampled_from(rewrite_maps))
    for _ in range(data.draw(st.integers(1, 6))):
        try:
            if data.draw(st.booleans()):
                cur = truncate(cur, data.draw(st.sampled_from(all_sites(cur)))).map
            else:
                cur = straighten(cur, EdgeRef(data.draw(st.integers(0, cur.num_darts - 1)))).map
        except MapError:
            continue
        assert PlanarMap(cur._twin) == cur


def test_three_belt_through_matches_a_full_scan(rewrite_maps):
    for m in rewrite_maps:
        for copy in (m, helpers.relabeled(m, 7), helpers.mirrored(m)):
            for d in range(copy.num_darts):
                fp, fq = copy.face_of[d], copy.face_of[copy.twin(d)]
                assert three_belt_through(copy, fp, fq) == helpers.three_belt_through_scan(copy, fp, fq)


# sha256 of the (face, start_dart, s) lists enumerate_sites returns on each
# rewrite map, for the seven truncations' signatures and for no filter
PINNED_SITES = "7d45b12f3bd718b59127f4a67e6eacf347d5f23a58bb515daf7194b0adcc46a9"


def test_enumerate_sites_is_pinned(rewrite_maps):
    from fforge.growth import KIND_SIGNATURES

    patterns = [*KIND_SIGNATURES.values(), (None, None, None, None)]
    records = (
        [[m.face_of[site.start_dart], site.start_dart, site.s] for site in enumerate_sites(m, s=s, k=k, m1=m1, m2=m2)]
        for m in rewrite_maps
        for s, k, m1, m2 in patterns
    )
    assert _outcome_digest(records) == PINNED_SITES
