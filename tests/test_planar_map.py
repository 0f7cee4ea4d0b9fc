import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fforge import (
    PlanarMap,
    build_D5k,
    build_F3k,
    build_dodecahedron,
    check_polytopal,
    decode_planar_code,
    encode_planar_code,
    p_vector,
)
from fforge.planar_map import (
    AsymmetricError,
    DisconnectedError,
    NonCubicError,
    NonSphericalError,
    TruncatedRecordError,
    VertexOverflowError,
    _corner_sizes,
    _decode_symbols,
)

from fforge.engine import EnumerationJob, bucket_key, enumerate_closure
from fforge.growth import Regime

import helpers
from helpers import relabeled

TETRA_ROT = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


class TestConstruction:
    def test_dodecahedron_counts(self, dodeca):
        assert (dodeca.num_vertices, dodeca.num_edges, dodeca.num_faces) == (20, 30, 12)

    def test_tetrahedron(self):
        k4 = PlanarMap.from_rotation(TETRA_ROT)
        assert k4.num_faces == 4
        assert all(s == 3 for s in k4.face_sizes)

    def test_non_cubic_rejected(self):
        with pytest.raises(NonCubicError):
            PlanarMap.from_rotation([[1, 2, 3, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])

    def test_asymmetric_rejected(self):
        # prism rotation with one entry redirected: 5 lists 1, 1 does not list 5
        rot = [[1, 2, 3], [2, 0, 4], [0, 1, 5], [4, 5, 0], [5, 3, 1], [3, 4, 1]]
        with pytest.raises(AsymmetricError):
            PlanarMap.from_rotation(rot)

    def test_disconnected_rejected(self):
        rot = TETRA_ROT + [[n + 4 for n in row] for row in TETRA_ROT]
        with pytest.raises(DisconnectedError):
            PlanarMap.from_rotation(rot)

    def test_nonspherical_rejected(self):
        # K4 with one rotation flipped embeds on the torus, not the sphere
        rot = [row[:] for row in TETRA_ROT]
        rot[3] = list(reversed(rot[3]))
        with pytest.raises(NonSphericalError):
            PlanarMap.from_rotation(rot)


class TestPVector:
    def test_dodecahedron(self, dodeca):
        pv = p_vector(dodeca)
        assert dict(pv.items()) == {5: 12}
        assert pv.is_fullerene()

    def test_tetrahedron(self):
        assert dict(p_vector(PlanarMap.from_rotation(TETRA_ROT)).items()) == {3: 4}

    def test_curvature_identity(self, family_maps):
        for m in family_maps:
            assert p_vector(m).curvature_sum() == 12


class TestCanonicalCode:
    def test_relabeling_invariance(self, dodeca):
        code = dodeca.canonical_code()
        for seed in range(5):
            assert relabeled(dodeca, seed).canonical_code() == code

    def test_determinism_across_runs(self, dodeca):
        fresh = build_dodecahedron()
        assert fresh.canonical_code() == dodeca.canonical_code()
        assert fresh.canonical_code() == fresh.canonical_form()[0].canonical_code()

    def test_distinct_fullerenes_differ(self, oracle5):
        codes = oracle5.fullerene_codes()[4]
        assert len(codes) == 2
        maps = [oracle5.entries[c].map for c in codes]
        assert maps[0].canonical_code() != maps[1].canonical_code()
        assert not helpers.maps_isomorphic(maps[0], maps[1])

    def test_automorphisms_prune_the_search(self, dodeca, c60, monkeypatch):
        """All 120 starts of the dodecahedron and C60 read the least code;
        the automorphisms found by the first few ties cover the rest."""
        walks = []
        real = PlanarMap._code_symbols

        def spy(self, sigma, d0, best):
            walks.append(d0)
            return real(self, sigma, d0, best)

        monkeypatch.setattr(PlanarMap, "_code_symbols", spy)
        for m in (dodeca, c60):
            walks.clear()
            PlanarMap(m._twin).canonical_code()
            assert 1 < len(walks) <= 8

    def test_code_equality_matches_isomorphism(self, oracle5):
        maps = [e.map for e in oracle5.entries.values()]
        for i, a in enumerate(maps):
            for b in maps[i:]:
                same_code = a.canonical_code() == b.canonical_code()
                assert same_code == helpers.maps_isomorphic(a, b)

    def test_chiral_pair_codes(self, oracle5):
        """Mirror-sensitive codes split at least one chiral fullerene."""
        chiral = []
        for e in oracle5.entries.values():
            m = e.map
            mirror = PlanarMap.from_rotation(
                [list(reversed(m.neighbors(v))) for v in range(m.num_vertices)]
            )
            if m.canonical_code(include_reflection=False) != mirror.canonical_code(
                include_reflection=False
            ):
                chiral.append((m, mirror))
            assert m.canonical_code() == mirror.canonical_code()
        assert chiral, "no chiral fullerene with p6 <= 5"


class TestPolytopal:
    def test_examples(self, dodeca):
        assert check_polytopal(dodeca)
        assert check_polytopal(PlanarMap.from_rotation(TETRA_ROT))
        assert not check_polytopal(helpers.two_edge_connected_cubic())
        bridged = helpers.bridged_cubic()
        assert (bridged.num_vertices, bridged.num_edges, bridged.num_faces) == (10, 15, 7)
        assert bridged.face_of[0] == bridged.face_of[bridged.twin(0)]
        assert not check_polytopal(bridged)

    def test_matches_networkx(self, family_maps):
        sample = family_maps[::3] + [helpers.two_edge_connected_cubic(), helpers.bridged_cubic()]
        for m in sample:
            assert check_polytopal(m) == helpers.nx_polytopal(m)


class TestPlanarCode:
    def test_round_trip(self, dodeca, oracle5):
        maps = [dodeca] + [e.map for e in oracle5.entries.values()][:5]
        blob = encode_planar_code(maps)
        back = decode_planar_code(blob)
        assert [m.canonical_code() for m in back] == [m.canonical_code() for m in maps]

    def test_empty_stream(self):
        assert decode_planar_code(b">>planar_code<<") == []

    def test_headerless_stream(self, dodeca):
        blob = encode_planar_code([dodeca], with_header=False)
        back = decode_planar_code(blob)
        assert back[0].canonical_code() == dodeca.canonical_code()

    def test_truncated_record(self):
        blob = encode_planar_code([PlanarMap.from_rotation(TETRA_ROT)])
        with pytest.raises(TruncatedRecordError):
            decode_planar_code(blob[:-3])

    def test_bad_record_is_named(self, dodeca):
        # K4 with one rotation flipped embeds on the torus, not the sphere
        rot = [row[:] for row in TETRA_ROT]
        rot[3] = list(reversed(rot[3]))
        bad = bytes([4]) + b"".join(bytes([u + 1 for u in row] + [0]) for row in rot)
        blob = encode_planar_code([dodeca]) + bad
        with pytest.raises(NonSphericalError, match=r"^record 1: V-E\+F = 0, expected 2$"):
            decode_planar_code(blob)
        with pytest.raises(TruncatedRecordError, match="^record 1: "):
            decode_planar_code(blob[:-3])

    def test_two_byte_escape_rejected(self):
        with pytest.raises(VertexOverflowError):
            decode_planar_code(b">>planar_code<<\x00\x01")

    def test_bad_header_rejected(self):
        from fforge.planar_map import MalformedHeaderError

        with pytest.raises(MalformedHeaderError):
            decode_planar_code(b">>planar_codex<<" + b"\x04")

    def test_oversized_map_rejected_on_encode(self):
        from fforge import build_D5k

        big = build_D5k(24)  # 260 vertices
        with pytest.raises(VertexOverflowError):
            encode_planar_code([big])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 7), st.integers(2, 4))
    def test_round_trip_property(self, seed, count):
        from fforge import oracle_generate

        maps = [e.map for e in oracle_generate(3).entries.values()]
        rng = random.Random(seed)
        pick = [rng.choice(maps) for _ in range(count)]
        back = decode_planar_code(encode_planar_code(pick))
        assert sorted(m.canonical_code() for m in back) == sorted(
            m.canonical_code() for m in pick
        )


class TestCanonicalForm:
    def test_label_stability(self, oracle5):
        for e in list(oracle5.entries.values())[:4]:
            m = e.map
            again, _, _ = relabeled(m, 3).canonical_form()
            assert again == m

    def test_copy_cache_equals_a_fresh_search(self, gen_seven, gen_a, gen_ab):
        """The canonical copy's seeded code and winning start are what its
        own search finds, and the group its seeded generators give equals
        the fresh search's, element for element and in order, whether the
        input is the closure's map or a relabeled or mirrored copy of it.
        The generating sets themselves may differ."""
        for gen in (gen_seven, gen_a, gen_ab):
            for i, e in enumerate(gen.entries.values()):
                for m in (e.map, relabeled(e.map, i), helpers.mirrored(e.map)):
                    for refl in (True, False):
                        copy = PlanarMap(m._twin).canonical_form(refl)[0]
                        fresh = PlanarMap(copy._twin)
                        assert copy._canonical(refl)[:2] == fresh._canonical(refl)[:2]
                        assert copy.automorphisms(refl) == fresh.automorphisms(refl)

    def test_copy_is_the_relabeling_from_rotation_builds(self, gen_seven, gen_a, gen_ab):
        """The copy built straight from the dart relabeling equals, dart for
        dart, the map from_rotation builds from its rotation lists, passes
        validation, and its dart map is a bijection that commutes with twin."""
        for gen in (gen_seven, gen_a, gen_ab):
            for i, e in enumerate(gen.entries.values()):
                m = relabeled(e.map, i)
                for refl in (True, False):
                    copy, dart_map, _ = m.canonical_form(refl)
                    rebuilt = PlanarMap.from_rotation([copy.neighbors(v) for v in range(copy.num_vertices)])
                    assert (copy._twin, copy._next) == (rebuilt._twin, rebuilt._next)
                    copy._validate()
                    assert sorted(dart_map) == list(range(m.num_darts))
                    assert all(copy.twin(dart_map[d]) == dart_map[m.twin(d)] for d in range(m.num_darts))


    def test_the_code_rebuilds_the_canonical_form(self, gen_seven, gen_a, gen_ab):
        """The map ``_from_code`` builds from a map's code is its canonical
        copy, twin for twin, for each closure fixture map and its relabeled
        and mirrored copies, with both flags."""
        for gen in (gen_seven, gen_a, gen_ab):
            for i, e in enumerate(gen.entries.values()):
                for m in (e.map, relabeled(e.map, i), helpers.mirrored(e.map)):
                    for refl in (True, False):
                        rebuilt = PlanarMap._from_code(m.canonical_code(refl))
                        assert rebuilt._twin == m.canonical_form(refl)[0]._twin

    def test_a_two_byte_code_rebuilds_the_canonical_form(self):
        m = build_D5k(25)
        assert m.num_vertices == 270
        copy = relabeled(m, 1)
        for refl in (True, False):
            code = m.canonical_code(refl)
            assert code[0] == 0  # the 2-byte variant
            assert PlanarMap._from_code(code)._twin == m.canonical_form(refl)[0]._twin
            assert copy.reads_code(code, refl)


class TestAutomorphisms:
    """``PlanarMap.automorphisms``, the group the closure prunes first cuts by."""

    @staticmethod
    def _nanotubes():
        """D5(k) and F3(k) for k <= 4, and their mirror images."""
        maps = [build(k) for build in (build_D5k, build_F3k) for k in range(5)]
        return maps + [helpers.mirrored(m) for m in maps]

    @staticmethod
    def _assert_automorphism(m, phi, refl):
        """phi is a dart bijection that commutes with twin and takes next to
        next, or, reversing orientation and only with ``refl``, to prev."""
        reversing = helpers.reverses(m, phi)
        assert refl or not reversing
        assert sorted(phi) == list(range(m.num_darts))
        turn = m.prev if reversing else m.next
        for d in range(m.num_darts):
            assert phi[m.twin(d)] == m.twin(phi[d])
            assert phi[m.next(d)] == turn(phi[d])

    def test_icosahedral_groups(self, dodeca, c60):
        for m in (dodeca, c60, relabeled(c60, 3), helpers.mirrored(dodeca)):
            assert len(m.automorphisms()) == 120
            assert len(m.automorphisms(False)) == 60

    @pytest.mark.parametrize("regime, max_p6, exceptional", [
        (Regime.SEVEN, 8, {4, 7}), (Regime.A_OPS, 8, {7}), (Regime.AB_OPS, 7, set()),
    ])
    def test_group_orders_match_networkx(self, closure, regime, max_p6, exceptional):
        """By Whitney's theorem the graph automorphisms of a 3-connected
        planar graph are its map automorphisms, reflections included; the
        orientation-preserving ones are the group without reflection."""
        maps = [e.map for e in closure(regime, max_p6, True).entries.values()]
        sizes = {k for m in maps for k in m.face_sizes}
        assert sizes - {5, 6} == exceptional
        for m in maps:
            group = m.automorphisms()
            assert len(group) == len(helpers.nx_automorphisms(m))
            assert len(m.automorphisms(False)) == sum(not helpers.reverses(m, phi) for phi in group)

    @pytest.mark.parametrize("regime, max_p6", [(Regime.SEVEN, 8), (Regime.A_OPS, 8), (Regime.AB_OPS, 7)])
    @pytest.mark.parametrize("refl", [True, False])
    def test_closure_copies_match_the_scan(self, closure, regime, max_p6, refl):
        """On canonical copies made as the closure makes them, from maps in
        another labeling, the group equals the plain scan's, element for
        element and in order."""
        for i, e in enumerate(closure(regime, max_p6, refl).entries.values()):
            for m in (relabeled(e.map, i), helpers.mirrored(e.map)):
                copy = m.canonical_form(refl)[0]
                assert copy.automorphisms(refl) == helpers.scan_automorphisms(copy, refl)

    def test_fresh_searches_match_the_scan(self, gen_seven, gen_a, gen_ab, c60):
        """Relabeled and mirrored copies, whose group comes from a fresh
        search, and maps outside the closure: C60, its leapfrog C180, the
        cube, two maps that are not 3-connected, and the nanotubes."""
        maps = [c60, helpers.leapfrog(c60), helpers.cube_map(), *self._nanotubes()]
        maps += [helpers.two_edge_connected_cubic(), helpers.bridged_cubic()]
        for gen in (gen_seven, gen_a, gen_ab):
            for i, e in enumerate(gen.entries.values()):
                maps += [relabeled(e.map, i), helpers.mirrored(e.map)]
        for m in maps:
            for refl in (True, False):
                assert PlanarMap(m._twin).automorphisms(refl) == helpers.scan_automorphisms(m, refl)

    @pytest.mark.parametrize("refl", [True, False])
    def test_the_closure_takes_the_group_without_a_walk(self, monkeypatch, refl):
        """Every group the closure asks for is that of a canonical copy, whose
        generators the copy carries, so ``automorphisms`` composes them and
        walks nothing."""
        walks, orders, inside = 0, [], False
        real_walk, real_group = PlanarMap._code_symbols, PlanarMap.automorphisms

        def walk_spy(self, *args, **kwargs):
            nonlocal walks
            walks += inside
            return real_walk(self, *args, **kwargs)

        def group_spy(self, include_reflection=True):
            nonlocal inside
            inside = True
            try:
                group = real_group(self, include_reflection)
            finally:
                inside = False
            orders.append(len(group))
            return group

        monkeypatch.setattr(PlanarMap, "_code_symbols", walk_spy)
        monkeypatch.setattr(PlanarMap, "automorphisms", group_spy)
        for regime, max_p6 in ((Regime.SEVEN, 6), (Regime.A_OPS, 6), (Regime.AB_OPS, 5)):
            enumerate_closure(EnumerationJob(regime, max_p6, include_reflection=refl))
        assert len(orders) > 50 and max(orders) > 1
        assert walks == 0

    @pytest.mark.parametrize("regime, max_p6", [(Regime.SEVEN, 8), (Regime.A_OPS, 8), (Regime.AB_OPS, 7)])
    def test_few_generators_each_an_automorphism(self, closure, regime, max_p6):
        """A fresh search on a closure map, a nanotube or a mirror image of
        one keeps at most log2 |Aut| generators, none for a trivial group,
        and each is an automorphism; so is each generator its canonical
        copy carries."""
        maps = [e.map for e in closure(regime, max_p6, True).entries.values()]
        maps += [helpers.mirrored(m) for m in maps] + self._nanotubes()
        for m in maps:
            for refl in (True, False):
                fresh = PlanarMap(m._twin)
                gens = fresh._canonical(refl)[2]
                order = len(fresh.automorphisms(refl))
                assert 2 ** len(gens) <= order
                assert (gens == ()) == (order == 1)
                copy = fresh.canonical_form(refl)[0]
                for g in gens:
                    self._assert_automorphism(fresh, g, refl)
                for g in copy._canonical(refl)[2]:
                    self._assert_automorphism(copy, g, refl)

    def test_every_element_is_an_automorphism(self, dodeca, gen_seven):
        """Each element is a distinct dart bijection that commutes with twin
        and with next, or for a reversing one takes next to prev; the
        identity is among them; the group is closed under composition; on
        maps that are not 3-connected as well."""
        maps = [dodeca, helpers.two_edge_connected_cubic(), helpers.bridged_cubic()]
        for m in maps + [relabeled(e.map, i) for i, e in enumerate(gen_seven.entries.values())]:
            for refl in (True, False):
                group = m.automorphisms(refl)
                elements = {phi: helpers.reverses(m, phi) for phi in group}
                assert len(elements) == len(group)
                assert elements.get(tuple(range(m.num_darts))) is False
                for phi in elements:
                    self._assert_automorphism(m, phi, refl)
                for (a, ra), (b, rb) in itertools.product(elements.items(), repeat=2):
                    assert elements[tuple(a[x] for x in b)] == (ra != rb)


def _code(m: PlanarMap, include_reflection: bool = True) -> bytes:
    """``m``'s canonical code, searched on a fresh copy so that ``m`` caches
    nothing."""
    return PlanarMap(m._twin).canonical_code(include_reflection)


def _copies(gen_seven, gen_a, gen_ab):
    """``(map, copy)`` for each closure fixture map and two seeded
    relabelings of it and of its mirror image."""
    for gen in (gen_seven, gen_a, gen_ab):
        for i, e in enumerate(gen.entries.values()):
            for seed in (i, i + 1):
                yield e.map, relabeled(e.map, seed)
                yield e.map, relabeled(helpers.mirrored(e.map), seed)


class TestWalkTest:
    """``bucket_key`` and ``PlanarMap.reads_code``, the closure's and the
    oracle's duplicate test."""

    def test_key_is_equal_on_relabeled_and_mirrored_copies(self, gen_seven, gen_a, gen_ab):
        for m, copy in _copies(gen_seven, gen_a, gen_ab):
            assert bucket_key(copy) == bucket_key(m)

    def test_accepts_relabeled_and_mirrored_copies(self, gen_seven, gen_a, gen_ab):
        for m, copy in _copies(gen_seven, gen_a, gen_ab):
            assert copy.reads_code(_code(m))
            assert "_code_cache" not in copy.__dict__

    def test_rejects_other_maps_with_the_same_key(self):
        gen = enumerate_closure(EnumerationJob(Regime.SEVEN, 8))
        buckets = {}
        for e in gen.entries.values():
            buckets.setdefault(bucket_key(e.map), []).append(e.map)
        shared = [ms for ms in buckets.values() if len(ms) > 1]
        assert shared  # the key does not tell every class apart
        for ms in shared:
            for a in ms:
                for b in ms:
                    copy = relabeled(helpers.mirrored(b), 5)
                    assert copy.reads_code(_code(a)) == (a is b)

    def test_without_reflection_a_chiral_mirror_is_rejected(self, gen_seven):
        chiral = 0
        for i, e in enumerate(gen_seven.entries.values()):
            m = relabeled(e.map, i)
            mirror = relabeled(helpers.mirrored(e.map), i + 1)
            assert m.reads_code(_code(e.map, False), False)
            if _code(mirror, False) != _code(m, False):
                chiral += 1
                assert not mirror.reads_code(_code(e.map, False), False)
                assert mirror.reads_code(_code(e.map, False), True)
        assert chiral

    def test_without_reflection_a_reflected_start_is_ignored(self, gen_seven, monkeypatch):
        """A chiral map's mirror reads the map's oriented code from the mirror
        of its winning start in the mirror rotation: with reflection that
        start is one walk, without it no walk uses the mirror rotation."""
        walks = []
        real = PlanarMap._code_symbols

        def spy(self, sigma, d0, best, exact=False):
            if exact:
                walks.append((sigma == self._next, d0))
            return real(self, sigma, d0, best, exact)

        monkeypatch.setattr(PlanarMap, "_code_symbols", spy)
        chiral = 0
        for e in gen_seven.entries.values():
            code = _code(e.map, False)
            mirror = helpers.mirrored(e.map)
            if _code(mirror, False) == code:
                continue
            chiral += 1
            d0 = PlanarMap(e.map._twin)._canonical(False)[1][1]
            start = (True, 3 * (d0 // 3) + (3 - d0 % 3) % 3)
            walks.clear()
            assert mirror.reads_code(code, True, start)
            assert walks == [(False, start[1])]
            walks.clear()
            assert not mirror.reads_code(code, False, start)
            assert all(unreflected for unreflected, _ in walks)
        assert chiral

    def test_a_start_must_read_the_prefix_too(self, gen_seven):
        """A start whose walk reads the code's walk symbols answers True only
        if its two faces have the code's face-size prefix; a start that names
        no dart leaves the answer to the scan."""
        for e in gen_seven.entries.values():
            refl, d0 = PlanarMap(e.map._twin)._canonical(True)[1]
            code = e.code
            assert e.map.reads_code(code, start=(refl, d0))
            assert e.map.reads_code(code, start=(refl, e.map.num_darts))
            for i in (1, 2):
                bad = code[:i] + bytes([code[i] + 1]) + code[i + 1:]
                assert not e.map.reads_code(bad, start=(refl, d0))

    def test_rejects_codes_of_the_wrong_length(self, gen_seven):
        for e in gen_seven.entries.values():
            code = _code(e.map)
            for bad in (b"", code[:3], code[:-1], code + b"\1", code + code[-3:]):
                assert not e.map.reads_code(bad)

    def test_rejects_a_code_with_the_wrong_vertex_count(self, gen_seven):
        for e in gen_seven.entries.values():
            code = _code(e.map)
            assert e.map.reads_code(code)
            assert not e.map.reads_code(bytes([code[0] + 1]) + code[1:])

    def test_walks_per_closure_are_bounded(self, monkeypatch):
        """The corner filter keeps the walk test to few walks per duplicate:
        the seven closure at p6 <= 6 runs 309 exact-mode walks for its 91
        duplicates.  The group of each parent costs none, since it comes
        from the reading starts its canonical copy carries."""
        walks = 0
        real = PlanarMap._code_symbols

        def spy(self, sigma, d0, best, exact=False):
            nonlocal walks
            walks += exact
            return real(self, sigma, d0, best, exact)

        monkeypatch.setattr(PlanarMap, "_code_symbols", spy)
        enumerate_closure(EnumerationJob(Regime.SEVEN, 6))
        assert 0 < walks <= 330


def _fixture_maps(gen_seven, gen_a, gen_ab):
    """The closure fixture maps, one per class."""
    maps = {}
    for gen in (gen_seven, gen_a, gen_ab):
        for code, e in gen.entries.items():
            maps.setdefault(code, e.map)
    return list(maps.values())


def _rotations(m: PlanarMap):
    """``(sigma, reflected)`` for the rotation and its inverse."""
    return (
        (tuple(m.next(d) for d in range(m.num_darts)), False),
        (tuple(m.prev(d) for d in range(m.num_darts)), True),
    )


class TestWalkKernel:
    """The walk loop and the walk test's start filter, against the plain
    walk in ``helpers``."""

    def test_walk_equals_the_plain_walk(self, gen_seven, gen_a, gen_ab):
        """From every start in both rotations, exact and not, the walk
        returns what the plain walk returns, against the map's own code
        (as bytes and as a symbol list) and another code with as many
        vertices, and from scratch; a walk that reads in full also returns
        the darts it entered the vertices by, which rebuild its symbols."""
        maps = _fixture_maps(gen_seven, gen_a, gen_ab)
        codes = [m.canonical_code() for m in maps]
        for i, m in enumerate(maps):
            others = [c for c in codes if c[0] == codes[i][0] and c != codes[i]]
            bests = [codes[i], list(codes[i])] + others[:1]
            for sigma, _ in _rotations(m):
                for d in range(m.num_darts):
                    syms, refs = m._code_symbols(sigma, d, None)
                    assert syms == helpers.code_symbols_referee(m, sigma, d, None)
                    # refs: the darts the walk enters the vertices by, in the
                    # order it labels them, each read from in sigma order
                    label = {x // 3: i + 1 for i, x in enumerate(refs)}
                    assert refs[0] == d and len(label) == m.num_vertices
                    assert [label[m.twin(y) // 3] for x in refs for y in (x, sigma[x], sigma[sigma[x]])] == syms
                    for best in bests:
                        for exact in (False, True):
                            got = m._code_symbols(sigma, d, best, exact)
                            want = helpers.code_symbols_referee(m, sigma, d, best, exact)
                            if want is None:
                                assert got is None
                            else:
                                assert (list(got[0]), got[1]) == (want, refs)

    def test_a_code_has_the_corner_sizes_of_its_start(self, gen_seven, gen_a, gen_ab):
        """The corner sizes of the code a walk reads from any start, in
        either rotation, are the sizes of the faces of prev(d) and
        prev(twin(d)) at that start."""
        for m in _fixture_maps(gen_seven, gen_a, gen_ab):
            fs, fo = m.face_sizes, m.face_of
            for sigma, refl in _rotations(m):
                for d in range(m.num_darts):
                    left, right = fs[fo[d]], fs[fo[m.twin(d)]]
                    if refl:
                        left, right = right, left
                    read = [m.num_vertices, left, right] + helpers.code_symbols_referee(m, sigma, d, None)
                    assert _corner_sizes(read) == (fs[fo[m.prev(d)]], fs[fo[m.prev(m.twin(d))]])

    def test_corner_sizes_of_the_canonical_code(self, gen_seven, gen_a, gen_ab):
        """The corner sizes read from a canonical code are those at dart 0
        of the canonical form, for each fixture map and its relabeled and
        mirrored copies, with both flags, and for a 2-byte code."""
        maps = _fixture_maps(gen_seven, gen_a, gen_ab)
        big = build_D5k(25)
        assert big.canonical_code()[0] == 0  # the 2-byte variant
        for i, base in enumerate(maps + [big]):
            for m in (base, relabeled(base, i), helpers.mirrored(base)):
                for refl in (True, False):
                    copy = m.canonical_form(refl)[0]
                    want = tuple(copy.face_sizes[f] for f in copy.edge_corner_faces(0))
                    assert _corner_sizes(_decode_symbols(m.canonical_code(refl))) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_corrupted_code_is_read_by_no_walk(self, gen_seven, data):
        """A code with one symbol changed is no walk's code: a changed vertex
        count or prefix no longer matches the map or the walk's start, and a
        changed walk symbol leaves the old neighbour listing a vertex that no
        longer lists it.  So the walk test answers False, and raises nothing,
        whatever the new symbol."""
        e = data.draw(st.sampled_from(list(gen_seven.entries.values())))
        refl = data.draw(st.booleans())
        code = e.code
        pos = data.draw(st.integers(0, len(code) - 1))
        value = data.draw(st.integers(0, 255).filter(lambda v: v != code[pos]))
        bad = code[:pos] + bytes([value]) + code[pos + 1:]
        for m in (e.map, relabeled(e.map, pos)):
            assert m.reads_code(bad, refl) is False


def _search_maps(gen_seven, gen_a, gen_ab):
    """``(base, map)``: the closure fixture maps and the helper maps,
    deduplicated by code, each as it is and in two seeded relabelings."""
    helper_maps = [helpers.cube_map(), helpers.barrel_c24(), helpers.ipr_c60()]
    helper_maps += [helpers.leapfrog(m) for m in (build_dodecahedron(), *helper_maps)]
    bases = {}
    for m in [e.map for g in (gen_seven, gen_a, gen_ab) for e in g.entries.values()] + helper_maps:
        bases.setdefault(m.canonical_code(), m)
    return [(m, r) for m in bases.values() for r in (m, relabeled(m, 1), relabeled(m, 2))]


def _search_record(m: PlanarMap, other_code: bytes) -> str:
    """Everything the canonical search decides, each time on a fresh copy of
    ``m``: the code, canonical_form's dart map (which fixes the winning
    start), flag and twin for both reflection flags, then whether the code
    equals the map's own code and ``other_code``, with the winning start on
    a match."""
    rec = []
    for refl in (True, False):
        fresh = PlanarMap(m._twin)
        copy, dart_map, reflected = fresh.canonical_form(refl)
        rec.append([fresh.canonical_code(refl).hex(), dart_map, reflected, copy._twin])
    for code in (bytes.fromhex(rec[0][0]), other_code):
        fresh = PlanarMap(m._twin)
        found = fresh.canonical_code() == code
        rec.append([found, found and fresh._canonical(True)[1][::-1]])
    return repr(rec) + "\n"


# sha256 of _search_record over _search_maps (102 maps), where the other code
# is that of the next base map with as many vertices
PINNED_CANONICAL_SEARCH = "676bd27d7fbbd26dbadb79e20c2cd945fd970231b7b8b511c6d7d63ff52a1445"


def test_canonical_search_results_are_pinned(gen_seven, gen_a, gen_ab):
    pairs = _search_maps(gen_seven, gen_a, gen_ab)
    by_size = {}
    for base, m in pairs:
        if m is base:
            by_size.setdefault(base.num_vertices, []).append(base.canonical_code())
    text = ""
    for base, m in pairs:
        group = by_size[base.num_vertices]
        other = group[(group.index(base.canonical_code()) + 1) % len(group)]
        text += _search_record(m, other)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CANONICAL_SEARCH
