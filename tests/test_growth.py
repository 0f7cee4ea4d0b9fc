import dataclasses
import hashlib
import itertools
import json
import re

import pytest

from fforge import (
    DerivationTrace,
    GrowthOpKind,
    Regime,
    apply_growth,
    build_D5k,
    build_F3k,
    build_dodecahedron,
    classify_shape,
    enumerate_sites,
    p_vector,
    recognize_nanotube,
    reduce_once,
    reduce_to_dodecahedron,
    replay_trace,
    truncate,
)
from fforge.engine import EnumerationJob, enumerate_closure
from fforge.growth import (
    KIND_CHAINS,
    AtDodecahedronError,
    GrowthStep,
    IllegalTransitionError,
    NoCaseAppliesError,
    SiteMismatchError,
    _canonical_site,
    _site_matches,
    replay_step,
)
from fforge.planar_map import MapError, PlanarMap, check_polytopal, decode_planar_code
from fforge.structure import FamilyClass, Fragment, NotAFullereneError, find_fragments
from fforge.transform import EdgeRef, TruncationSite, straighten

import helpers


def canonical(m: PlanarMap) -> PlanarMap:
    return m.canonical_form()[0]


# sha256 of the canonical codes of the family maps with 0..30 layers, the
# same under both reflection flags since the family maps are achiral
PINNED_FAMILY_CODES = {
    "build_D5k": "6982009352bb967167d60ab18f3fdd47cb6546592d2af325ffed9e2280c37dd2",
    "build_F3k": "63e19cf5c4a17eb9d0ca25fbe3a4de46a6f4c5563e2b653bb1825801be9c16f6",
}


class TestBuilders:
    @pytest.mark.parametrize("k", range(4))
    def test_tube_counts(self, k):
        d5 = build_D5k(k)
        assert p_vector(d5)[6] == 5 * k and p_vector(d5)[5] == 12
        f3 = build_F3k(k)
        assert p_vector(f3)[6] == 3 * k and p_vector(f3)[5] == 12

    def test_k0_is_the_dodecahedron(self, dodeca):
        assert build_D5k(0).canonical_code() == dodeca.canonical_code()
        assert build_F3k(0).canonical_code() == dodeca.canonical_code()

    def test_families_differ(self):
        assert build_D5k(3).canonical_code() != build_F3k(5).canonical_code()

    @pytest.mark.parametrize("include_reflection", [True, False])
    @pytest.mark.parametrize("build", [build_D5k, build_F3k])
    def test_family_codes_are_pinned(self, build, include_reflection):
        """sha256 of the canonical codes of the family maps with 0..30 layers."""
        digest = hashlib.sha256(b"".join(build(k).canonical_code(include_reflection) for k in range(31)))
        assert digest.hexdigest() == PINNED_FAMILY_CODES[build.__name__]

    def test_f3k_is_a_tube_between_two_triple_caps(self):
        """Each F3(k) is a polytopal fullerene with 3k hexagons, on which the
        template matcher finds exactly two C2 caps and no C1 cap."""
        for k in range(1, 31):
            m = build_F3k(k)
            assert check_polytopal(m)
            assert p_vector(m).is_fullerene() and p_vector(m)[6] == 3 * k
            assert len(helpers.match_fragments(m, "C2")) == 2
            assert helpers.match_fragments(m, "C1") == []


class TestRecognizer:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_families(self, k):
        assert recognize_nanotube(build_D5k(k)) == [("D5", k)]
        assert recognize_nanotube(build_F3k(k)) == [("F3", k)]

    def test_dodecahedron_is_both(self, dodeca):
        assert recognize_nanotube(dodeca) == [("D5", 0), ("F3", 0)]

    def test_ipr_is_neither(self, c60):
        assert recognize_nanotube(c60) == []

    def test_rejects_non_fullerene(self):
        with pytest.raises(NotAFullereneError):
            recognize_nanotube(helpers.cube_map())

    @staticmethod
    def _cap_search_tags(m):
        """The referee: D5(p6/5) where the six-pentagon cap C1 embeds, F3(p6/3)
        where the triple cap C2 does."""
        p6, tags = p_vector(m)[6], []
        for name, fam, layer in (("C1", "D5", 5), ("C2", "F3", 3)):
            if helpers.match_fragments(m, name):
                assert p6 % layer == 0
                tags.append((fam, p6 // layer))
        return tags

    def _check_against_cap_search(self, maps):
        tagged = 0
        for i, m in enumerate(maps):
            for copy in (m, helpers.relabeled(m, i), helpers.mirrored(m)):
                tags = recognize_nanotube(copy)
                assert tags == self._cap_search_tags(copy)
                tagged += bool(tags)
        return tagged

    def test_matches_the_cap_search(self, oracle5):
        """Every small fullerene and the tubes D5(0..10), F3(0..10), each as
        is, relabeled and mirrored."""
        maps = [e.map for e in oracle5.entries.values() if e.cls.is_fullerene]
        maps += [build(k) for build in (build_D5k, build_F3k) for k in range(11)]
        # C20, F3(1) and D5(1) among the small fullerenes, and the 22 tubes
        assert self._check_against_cap_search(maps) == 3 * 25

    @pytest.mark.slow
    def test_matches_the_cap_search_to_ten_hexagons(self, oracle10):
        maps = [e.map for e in oracle10.entries.values() if e.cls.is_fullerene]
        assert len(maps) == 92
        # C20, D5(1..2) and F3(1..3)
        assert self._check_against_cap_search(maps) == 3 * 6

    def test_no_cap_search_runs(self, monkeypatch, trace_corpus):
        """The a and ab reductions of the trace corpus ask for the P1 and P2
        patches only: recognition compares codes."""
        from fforge import growth

        patterns = []

        def spy(m, pattern):
            patterns.append(pattern)
            return find_fragments(m, pattern)

        monkeypatch.setattr(growth, "find_fragments", spy)
        for m in trace_corpus:
            for regime in (Regime.A_OPS, Regime.AB_OPS):
                reduce_to_dodecahedron(m, regime)
        assert set(patterns) == {Fragment.P1, Fragment.P2}

    @pytest.mark.parametrize("build", [build_D5k, build_F3k])
    def test_family_maps_are_achiral(self, build):
        """Both reflection flags give a family map the same code, so a map
        can be recognized by the code of either flag."""
        for k in range(11):
            m = build(k)
            assert m.canonical_code(True) == m.canonical_code(False)

    def test_an_oriented_code_is_recognized_without_a_search(self, monkeypatch, oracle5):
        """A map that has only its oriented code cached, as a frontier map of
        a closure without reflection has, is recognized by that code."""
        other = next(
            e.map for e in oracle5.entries.values()
            if e.p6 == 5 and e.map.canonical_code() != build_D5k(1).canonical_code()
        )
        cases = [(build_D5k(2), [("D5", 2)]), (build_F3k(2), [("F3", 2)]), (other, [])]
        for m, tags in cases:
            assert recognize_nanotube(m) == tags  # computes the family codes
        copies = [helpers.relabeled(m, i) for i, (m, _) in enumerate(cases)]
        for copy in copies:
            copy.canonical_code(False)
        searches = []
        real = PlanarMap._canonical_search

        def spy(self, include_reflection):
            searches.append(include_reflection)
            return real(self, include_reflection)

        monkeypatch.setattr(PlanarMap, "_canonical_search", spy)
        assert [recognize_nanotube(copy) for copy in copies] == [tags for _, tags in cases]
        assert searches == []


class TestApplyGrowth:
    def test_endo_kroto_kind(self, oracle5):
        m = next(e.map for e in oracle5.entries.values() if e.p6 == 2)
        site = enumerate_sites(m, s=2, k=6, m1=5, m2=5)[0]
        out = apply_growth(m, GrowthOpKind.A4, (site,))
        assert p_vector(out)[6] == 3
        assert classify_shape(out).is_fullerene

    def test_belt_insertion_by_recognition(self):
        out = apply_growth(build_D5k(1), GrowthOpKind.A1)
        assert out.canonical_code() == canonical(build_D5k(2)).canonical_code()

    def test_triple_insertion_by_recognition(self):
        out = apply_growth(build_F3k(1), GrowthOpKind.A2)
        assert out.canonical_code() == canonical(build_F3k(2)).canonical_code()

    def test_heptagon_round_trip(self, oracle5):
        m, site = next(
            (e.map, s)
            for e in oracle5.entries.values()
            for s in enumerate_sites(e.map, s=2, k=6, m1=5, m2=6)
        )
        f1 = apply_growth(m, GrowthOpKind.A5, (site,))
        assert classify_shape(f1) is FamilyClass.F1
        back_sites = enumerate_sites(f1, s=2, k=7, m1=5, m2=5)
        assert back_sites
        out = apply_growth(f1, GrowthOpKind.A6, back_sites[:1])
        assert classify_shape(out).is_fullerene

    def test_kind_mismatch_rejected(self, dodeca):
        site = enumerate_sites(dodeca, s=1, m1=5, m2=5)[0]
        with pytest.raises(SiteMismatchError):
            apply_growth(dodeca, GrowthOpKind.A4, (site,))

    def test_class_mismatch_rejected(self, dodeca):
        r = truncate(dodeca, enumerate_sites(dodeca, s=1, m1=5, m2=5)[0]).map
        site = enumerate_sites(r, s=2, k=6, m1=4, m2=5)[0]
        with pytest.raises(IllegalTransitionError):
            apply_growth(r, GrowthOpKind.A4, (site,))

    def test_missing_cap_rejected(self, c60):
        with pytest.raises(SiteMismatchError):
            apply_growth(c60, GrowthOpKind.A1)

    def test_composite_forward_application(self, closure):
        """Every successor candidate of a canonical parent reaches its code
        through ``apply_growth(parent, kind, sites)`` with its own sub-sites,
        or, where its class is not one the kind leads to, is refused; every
        kind of each regime is reached.  The parents are the closure's maps
        with at most five hexagons; A6, A7, B2 and B4 lead to or from the
        heptagon IPR class, so the ab regime adds the IPR C96 leapfrogged
        from a C32 and its heptagon IPR successors."""
        from fforge.growth import _FACE_GAIN, _REGIME_KINDS, _TARGET_CLASSES, successor_candidates

        room = max(_FACE_GAIN.values())  # every kind fits
        c96 = canonical(helpers.leapfrog(closure(Regime.SEVEN, 8, True).sorted_fullerenes()[12]))
        heptagon_ipr = {
            raw.canonical_code(): canonical(raw)
            for _, _, raw in successor_candidates(c96, Regime.AB_OPS, c96.num_faces + room)
            if classify_shape(raw) is FamilyClass.F1_IPR
        }
        for regime, max_p6 in ((Regime.SEVEN, 8), (Regime.A_OPS, 8), (Regime.AB_OPS, 7)):
            parents = [e.map for e in closure(regime, max_p6, True).entries.values() if e.p6 <= 5]
            if regime is Regime.AB_OPS:
                parents += [c96, *heptagon_ipr.values()]
            reached = set()
            for m in parents:
                for kind, payload, raw in successor_candidates(m, regime, m.num_faces + room):
                    sites = payload[1] if payload[0] == "trunc" else ()
                    if classify_shape(raw) not in _TARGET_CLASSES[kind]:
                        with pytest.raises(IllegalTransitionError):
                            apply_growth(m, kind, sites)
                        continue
                    assert apply_growth(m, kind, sites).canonical_code() == raw.canonical_code()
                    reached.add(kind)
            assert reached == set(_REGIME_KINDS[regime]), regime

    def test_every_candidate_adds_its_face_gain(self, gen_seven, gen_a, gen_ab):
        from fforge.growth import _FACE_GAIN, successor_candidates

        room = max(_FACE_GAIN.values())  # every kind fits
        seen = set()
        for regime, gen in ((Regime.SEVEN, gen_seven), (Regime.A_OPS, gen_a), (Regime.AB_OPS, gen_ab)):
            for e in gen.entries.values():
                for kind, _, raw in successor_candidates(e.map, regime, e.map.num_faces + room):
                    assert raw.num_faces == e.map.num_faces + _FACE_GAIN[kind]
                    seen.add(kind)
        assert {GrowthOpKind.T145, GrowthOpKind.A1, GrowthOpKind.A2, GrowthOpKind.B3} <= seen


class TestOrbitPruning:
    """The closure cuts one first site per automorphism orbit of the parent;
    ``helpers.unpruned_successors``, which cuts every site, referees it."""

    def test_the_dodecahedron_has_one_edge_orbit(self, dodeca):
        from fforge.growth import successor_candidates

        m = canonical(dodeca)
        for refl in (True, False):
            kept = list(successor_candidates(m, Regime.SEVEN, 13, refl))
            assert [(kind, payload) for kind, payload, _ in kept] == [(GrowthOpKind.T155, ("trunc", ((1, 0),)))]
        assert len(list(helpers.unpruned_successors(m, Regime.SEVEN, 13))) == 30

    def test_one_first_cut_is_kept_per_orbit(self, gen_seven, gen_a, gen_ab):
        """With reflections, the first cuts kept number the orbits of
        networkx's graph automorphisms on the sites' vertex runs: a site of
        a 3-connected map is fixed by its run of s + 1 vertices (one for
        s = 0)."""
        from fforge.growth import KIND_SIGNATURES, _one_per_orbit

        for gen in (gen_seven, gen_a, gen_ab):
            for e in gen.entries.values():
                m, autos = e.map, helpers.nx_automorphisms(e.map)
                for s, k, m1, m2 in KIND_SIGNATURES.values():
                    sites = enumerate_sites(m, s=s, k=k, m1=m1, m2=m2)
                    runs = []
                    for site in sites:
                        run = [site.start_dart]
                        for _ in range(s):
                            run.append(m.face_next(run[-1]))
                        runs.append({d // 3 for d in run})
                    orbits = {frozenset(frozenset(a[v] for v in r) for a in autos) for r in runs}
                    assert len(_one_per_orbit(m, sites, m.automorphisms())) == len(orbits)

    @pytest.mark.parametrize("refl", [True, False])
    @pytest.mark.parametrize("regime, max_p6", [
        (Regime.SEVEN, 8), (Regime.A_OPS, 8), (Regime.AB_OPS, 7),
        pytest.param(Regime.SEVEN, 10, marks=pytest.mark.slow),
        pytest.param(Regime.A_OPS, 10, marks=pytest.mark.slow),
        pytest.param(Regime.AB_OPS, 9, marks=pytest.mark.slow),
    ])
    def test_pruning_keeps_every_class_and_the_first_move(self, closure, regime, max_p6, refl):
        """Per closure entry, the kept moves reach the same (kind, class)
        pairs as every move, with the flag's codes, and are a subsequence of
        them; so the first move into each class, which the closure records,
        is kept."""
        from fforge.growth import successor_candidates

        max_faces = 12 + max_p6
        for e in closure(regime, max_p6, refl).entries.values():
            kept = list(successor_candidates(e.map, regime, max_faces, refl))
            every = list(helpers.unpruned_successors(e.map, regime, max_faces, refl))
            assert {(k, raw.canonical_code(refl)) for k, _, raw in kept} == {
                (k, raw.canonical_code(refl)) for k, _, raw in every
            }
            rest = iter([(k, payload) for k, payload, _ in every])
            assert all((k, payload) in rest for k, payload, _ in kept)


class TestReduce:
    def test_dodecahedron_is_terminal(self, dodeca):
        with pytest.raises(AtDodecahedronError):
            reduce_once(canonical(dodeca), Regime.SEVEN)
        for regime in Regime:
            assert len(reduce_to_dodecahedron(dodeca, regime)) == 0

    def test_out_of_family_rejected(self):
        with pytest.raises(IllegalTransitionError):
            reduce_once(canonical(helpers.cube_map()), Regime.SEVEN)

    def test_nanotube_peeling(self):
        pred, step = reduce_once(canonical(build_D5k(2)), Regime.A_OPS)
        assert step.kind is GrowthOpKind.A1
        assert pred.canonical_code() == canonical(build_D5k(1)).canonical_code()
        pred, step = reduce_once(canonical(build_F3k(3)), Regime.A_OPS)
        assert step.kind is GrowthOpKind.A2
        assert pred.canonical_code() == canonical(build_F3k(2)).canonical_code()

    def test_seven_trace_lengths(self, oracle5):
        for e in oracle5.entries.values():
            trace = reduce_to_dodecahedron(e.map, Regime.SEVEN)
            assert len(trace) == e.p6

    def test_seven_trace_lengths_on_exceptional_classes(self, gen_seven):
        """Each step shifts p6 + 2*p7 - p4 by one, so the full formula shows
        on quadrangle and heptagon carriers."""
        checked = set()
        for e in gen_seven.entries.values():
            if e.cls.is_fullerene or e.cls in checked:
                continue
            checked.add(e.cls)
            pv = p_vector(e.map)
            expected = pv[6] + 2 * pv[7] - pv[4]
            assert len(reduce_to_dodecahedron(e.map, Regime.SEVEN)) == expected
        assert len(checked) >= 2

    def test_seven_uses_only_edge_and_two_edge_cuts(self, oracle5):
        allowed = {
            GrowthOpKind.T145, GrowthOpKind.T155, GrowthOpKind.T2645,
            GrowthOpKind.T2655, GrowthOpKind.T2656, GrowthOpKind.T2755,
            GrowthOpKind.T2756,
        }
        for e in oracle5.entries.values():
            trace = reduce_to_dodecahedron(e.map, Regime.SEVEN)
            assert set(trace.kinds()) <= allowed

    def test_growth_regimes_reduce_all_small_fullerenes(self, oracle5):
        for e in oracle5.entries.values():
            for regime in (Regime.A_OPS, Regime.AB_OPS):
                trace = reduce_to_dodecahedron(e.map, regime)
                assert replay_trace(trace).canonical_code() == e.map.canonical_code()

    def test_intermediate_classes_stay_in_family(self, oracle5):
        from fforge.growth import _REGIME_CLASSES, replay_step

        for e in list(oracle5.entries.values())[-3:]:
            for regime in Regime:
                trace = reduce_to_dodecahedron(e.map, regime)
                m = canonical(build_dodecahedron())
                for step in trace.steps:
                    m = replay_step(m, step)
                    assert classify_shape(m) in _REGIME_CLASSES[regime]

    def test_ipr_reduction_exercises_b_and_a6(self, c60):
        tr_ab = reduce_to_dodecahedron(c60, Regime.AB_OPS)
        assert any(k in (GrowthOpKind.B1, GrowthOpKind.B3) for k in tr_ab.kinds())
        tr_a = reduce_to_dodecahedron(c60, Regime.A_OPS)
        assert GrowthOpKind.A6 in tr_a.kinds()
        tr7 = reduce_to_dodecahedron(c60, Regime.SEVEN)
        assert len(tr7) == 20

    def test_ipr_intermediates_stay_in_extended_family(self, c60):
        from fforge.growth import _REGIME_CLASSES, replay_step

        trace = reduce_to_dodecahedron(c60, Regime.AB_OPS)
        m = canonical(build_dodecahedron())
        for step in trace.steps:
            m = replay_step(m, step)
            assert classify_shape(m) in _REGIME_CLASSES[Regime.AB_OPS]

    def test_false_guards_start_no_b1_or_b3_search(self, c60, monkeypatch):
        """No edge of the leapfrog of C60 has pentagons at both endpoint
        corners, and no hexagon has pentagons on opposite edges, so the B1 and
        B3 chain searches are not started (unguarded, B1 runs for minutes)."""
        from fforge import growth

        searched = []
        search = growth._sequence_search
        guarded = [growth.KIND_CHAINS[GrowthOpKind.B1], growth.KIND_CHAINS[GrowthOpKind.B3]]

        def spy(m, kinds, final, first):
            assert tuple(kinds) not in guarded, "a guarded chain search started"
            searched.append(tuple(kinds))
            return search(m, kinds, final, first)

        monkeypatch.setattr(growth, "_sequence_search", spy)
        _, step = reduce_once(canonical(helpers.leapfrog(c60)), Regime.AB_OPS)
        assert step.kind is GrowthOpKind.A6
        assert searched == [growth.KIND_CHAINS[GrowthOpKind.A6]]

    @pytest.mark.parametrize("i, payload, first", [
        (3, ((2, 28), (2, 16), (2, 20)), GrowthOpKind.B2),
        (3, ((2, 55), (2, 16), (2, 57)), GrowthOpKind.B4),
        (6, ((2, 40), (2, 30), (2, 57)), GrowthOpKind.A7),
    ])
    def test_ab_undo_order_on_the_heptagon_ipr_class(self, gen_seven, i, payload, first):
        """The heptagon IPR class tries A7, then B2, then B4; the A7 map admits
        B2 and B4 inverses as well."""
        base = canonical(helpers.leapfrog(gen_seven.sorted_fullerenes()[i]))
        m = apply_growth(base, GrowthOpKind.B4, [TruncationSite(*x) for x in payload])
        assert classify_shape(m) is FamilyClass.F1_IPR
        _, step = reduce_once(m, Regime.AB_OPS)
        assert step.kind is first

    def test_leapfrog_of_dodecahedron_is_the_spiral_c60(self, dodeca, c60):
        assert helpers.leapfrog(dodeca).canonical_code() == c60.canonical_code()

    def test_large_ipr_reductions(self, oracle5):
        c24 = next(e.map for e in oracle5.entries.values() if e.p6 == 2)
        c72 = helpers.leapfrog(c24)
        pv = p_vector(c72)
        assert classify_shape(c72) is FamilyClass.F_IPR and pv[6] == 26
        for regime in (Regime.AB_OPS, Regime.A_OPS):
            trace = reduce_to_dodecahedron(c72, regime)
            assert replay_trace(trace).canonical_code() == c72.canonical_code()
        assert len(reduce_to_dodecahedron(c72, Regime.SEVEN)) == 26


class TestSequenceSearch:
    def test_every_composite_kind_undoes_its_own_image(self, oracle5):
        """The straightening searches recover each growth operation's chain
        exactly."""
        from fforge.growth import (
            KIND_CHAINS,
            _SOURCE_CLASSES,
            GrowthStep,
            _chain_successors,
            _sequence_search,
            replay_step,
        )

        fullerenes = [canonical(e.map) for e in oracle5.entries.values()]
        # A6 and A7 act on the heptagon class, which A5 leads to
        heptagon_maps = (
            canonical(raw)
            for m in fullerenes
            for _, _, raw in _chain_successors(m, GrowthOpKind.A5)
        )
        pending = {
            GrowthOpKind.A3, GrowthOpKind.A4, GrowthOpKind.A5, GrowthOpKind.A6,
            GrowthOpKind.A7, GrowthOpKind.B1, GrowthOpKind.B2, GrowthOpKind.B3,
            GrowthOpKind.B4,
        }
        for m in itertools.chain(fullerenes, heptagon_maps):
            for op in sorted(pending, key=lambda k: k.name):
                for _, _, raw in _chain_successors(m, op):
                    image = canonical(raw)
                    got = _sequence_search(image, KIND_CHAINS[op], _SOURCE_CLASSES[op], None)
                    assert got is not None
                    pred, sites, _ = got
                    assert pred.num_faces == image.num_faces - len(KIND_CHAINS[op])
                    step = GrowthStep(op, ("trunc", sites), image.canonical_code())
                    out = replay_step(pred, step)
                    assert out.canonical_code() == image.canonical_code()
                    pending.discard(op)
                    break
        assert not pending, f"no forward images found for {pending}"


class TestStepCheck:
    """reduce_to_dodecahedron checks each step as it is found: a wrong
    recorded step fails at that step, naming it and dumping its map."""

    @staticmethod
    def _reduce_with(monkeypatch, m, regime, forge):
        """Reduce ``m`` with ``forge(pred, step)`` applied to the second
        step found; returns the raised error and the map of that step."""
        from fforge import growth

        real, seen = growth.reduce_once, []

        def forged_once(cur, regime):
            pred, step = real(cur, regime)
            seen.append(cur)
            return pred, forge(pred, step) if len(seen) == 2 else step

        monkeypatch.setattr(growth, "reduce_once", forged_once)
        with pytest.raises(NoCaseAppliesError) as info:
            reduce_to_dodecahedron(m, regime)
        assert len(seen) == 2
        return info.value, seen[1]

    @staticmethod
    def _other_dart(pred, step, matching):
        """The first dart whose sub-site has the step's signature exactly
        when ``matching``; a matching one must cut to another map."""
        (s, _), = step.site[1]
        kind = KIND_CHAINS[step.kind][0]
        for d in range(pred.num_darts):
            site = TruncationSite(s, d)
            if _site_matches(pred, site, kind) != matching:
                continue
            if not matching or truncate(pred, site).map.canonical_code() != step.code:
                return d
        raise AssertionError("no such dart")

    @pytest.fixture(scope="class")
    def c30(self, oracle5):
        """A C30 whose seven-regime reduction takes T2655 twice first."""
        return oracle5.entries[oracle5.fullerene_codes()[5][1]].map

    def test_a_sub_site_without_the_signature_fails(self, monkeypatch, c30):
        def forge(pred, step):
            bad = TruncationSite(step.site[1][0].s, self._other_dart(pred, step, matching=False))
            return dataclasses.replace(step, site=("trunc", (bad,)))

        err, cur = self._reduce_with(monkeypatch, c30, Regime.SEVEN, forge)
        assert re.match(r"reduction step 1 \(T\d+\): sub-site 0 does not match", str(err))
        assert re.search(r"map dump \(planar_code hex\): [0-9a-f]+$", str(err))
        dump = str(err).rsplit(" ", 1)[1]
        assert decode_planar_code(bytes.fromhex(dump))[0].canonical_code() == cur.canonical_code()
        assert err.map is cur

    def test_a_cut_giving_another_map_fails(self, monkeypatch, c30):
        """A sub-site with the right signature that cuts elsewhere gives a
        map of the same size that the walk test rejects."""
        def forge(pred, step):
            other = TruncationSite(step.site[1][0].s, self._other_dart(pred, step, matching=True))
            return dataclasses.replace(step, site=("trunc", (other,)))

        err, _ = self._reduce_with(monkeypatch, c30, Regime.SEVEN, forge)
        assert re.match(r"reduction step 1 \(T\d+\): the result is not the map", str(err))

    def test_a_kind_outside_the_regime_fails(self, monkeypatch, c30):
        """A4 is the T2655 chain under its a-regime name, so only the
        regime check tells the two apart."""
        def forge(pred, step):
            assert step.kind is GrowthOpKind.T2655
            return dataclasses.replace(step, kind=GrowthOpKind.A4)

        err, _ = self._reduce_with(monkeypatch, c30, Regime.SEVEN, forge)
        assert str(err).startswith("reduction step 1 (A4): A4 is not in regime seven")

    def test_a_cap_step_from_the_wrong_layer_fails(self, monkeypatch):
        def forge(pred, step):
            return dataclasses.replace(step, site=("cap", "D5", step.site[2] + 1))

        err, _ = self._reduce_with(monkeypatch, build_D5k(3), Regime.A_OPS, forge)
        assert str(err).startswith("reduction step 1 (A1): the predecessor is not D5(2)")

    def test_a_map_too_large_to_dump_is_named_by_its_size(self):
        m = build_D5k(24)
        err = NoCaseAppliesError("no case applies", m)
        assert str(err) == "no case applies; 260 vertices, too many for a planar_code dump"
        assert err.map is m

    def test_a_failed_step_on_a_map_too_large_to_dump_keeps_its_message(self, monkeypatch):
        def forge(pred, step):
            return dataclasses.replace(step, site=("cap", "D5", step.site[2] + 1))

        err, cur = self._reduce_with(monkeypatch, build_D5k(25), Regime.A_OPS, forge)
        assert str(err) == (
            "reduction step 1 (A1): the predecessor is not D5(24); "
            "260 vertices, too many for a planar_code dump"
        )
        assert err.map is cur

    def test_walk_test_rejects_an_isomer(self, oracle5):
        """The check's walk test tells apart maps of one size: every two
        isomers with five hexagons, each against the other's code."""
        isomers = [oracle5.entries[c].map for c in oracle5.fullerene_codes()[5]]
        assert len(isomers) == 3
        for a, b in itertools.product(isomers, repeat=2):
            assert a.reads_code(b.canonical_code()) == (a is b)


class TestPatchScan:
    """The reduction's one patch scan gives the template matcher's face
    tuples, in its order, and the A4 chain search starts at the seam that
    the least P1 embedding of the matcher anchors."""

    @staticmethod
    def _referee(m):
        embs = helpers.match_fragments(m, "P1")
        if not embs:
            return None
        faces = min((e.faces for e in embs), key=sorted)
        first = [d for d in m.faces[faces[0]] if m.face_of[m.twin(d)] == faces[1]]
        assert len(first) == 1
        return first[0]

    @staticmethod
    def _spy(monkeypatch):
        """Record each patch scan the reduction makes, as (map, pattern), and
        the darts each A4 chain search at a patch starts from, as (map, darts)."""
        from fforge import growth

        scans, seams = [], []
        real_search = growth._sequence_search

        def scan(m, pattern):
            scans.append((m, pattern))
            return find_fragments(m, pattern)

        def search(m, kinds, final, first):
            if first is not None and kinds == KIND_CHAINS[GrowthOpKind.A4]:
                seams.append((m, first))
            return real_search(m, kinds, final, first)

        monkeypatch.setattr(growth, "find_fragments", scan)
        monkeypatch.setattr(growth, "_sequence_search", search)
        return scans, seams

    def test_a4_starts_at_the_least_p1_seam(self, monkeypatch, gen_a, gen_ab):
        """Every fullerene with adjacent pentagons of the a and ab closures
        but C20, as is, relabeled and mirrored, reduced one step."""
        _, seams = self._spy(monkeypatch)
        missing = 0
        for gen, regime in ((gen_a, Regime.A_OPS), (gen_ab, Regime.AB_OPS)):
            for i, e in enumerate(gen.entries.values()):
                if e.cls is not FamilyClass.F or e.p6 == 0:
                    continue
                for m in (e.map, helpers.relabeled(e.map, i), helpers.mirrored(e.map)):
                    before = len(seams)
                    reduce_once(m, regime)
                    if len(seams) == before:
                        missing += self._referee(m) is None
                    else:
                        assert seams[-1] == (m, [self._referee(m)])
        assert (len(seams), missing) == (24, 12)

    @pytest.mark.slow
    @pytest.mark.parametrize("pattern", list(Fragment))
    def test_matches_the_matcher_on_every_map_reduction_scans(self, pattern, monkeypatch, trace_corpus):
        """Every map the a and ab reductions of the trace corpus scan."""
        scans, seams = self._spy(monkeypatch)
        for m in trace_corpus:
            for regime in (Regime.A_OPS, Regime.AB_OPS):
                reduce_to_dodecahedron(m, regime)
        scanned = [m for m, p in scans if p is pattern]
        assert len(scanned) == {Fragment.P1: 338, Fragment.P2: 26}[pattern]
        for m in scanned:
            assert find_fragments(m, pattern) == [e.faces for e in helpers.match_fragments(m, pattern.value)]
        if pattern is Fragment.P1:
            assert len(seams) == 312
            for m, first in seams:
                assert first == [self._referee(m)]


class TestTraceDeterminism:
    def test_isomorphic_inputs_share_traces(self, oracle5):
        import random

        from fforge import PlanarMap

        for e in list(oracle5.entries.values())[-2:]:
            m = e.map
            perm = list(range(m.num_vertices))
            random.Random(11).shuffle(perm)
            rot = [None] * m.num_vertices
            for v in range(m.num_vertices):
                rot[perm[v]] = [perm[u] for u in m.neighbors(v)]
            twin = PlanarMap.from_rotation(rot)
            for regime in Regime:
                assert (
                    reduce_to_dodecahedron(m, regime).to_jsonl()
                    == reduce_to_dodecahedron(twin, regime).to_jsonl()
                )


def _walk_code(m, d0: int) -> bytes:
    """The 1-byte code read by the first-visit labeling walk from dart d0:
    the face sizes left and right of d0, then the label of each rotation
    neighbor of each vertex in labeling order."""
    label = {d0 // 3: 1}
    refs = [d0]
    syms = [m.face_sizes[m.face_of[d0]], m.face_sizes[m.face_of[m.twin(d0)]]]
    for d in refs:
        for _ in range(3):
            u = m.target(d)
            if u not in label:
                label[u] = len(label) + 1
                refs.append(m.twin(d))
            syms.append(label[u])
            d = m.next(d)
    return bytes([m.num_vertices] + syms)


class TestReplayStep:
    """replay_step confirms a step's recorded code by byte equality with the
    result's canonical code; every way the recorded code can be wrong, and
    every forged step, still fails."""

    @pytest.fixture(scope="class", params=["trunc", "cap"])
    def last_step(self, request, oracle5):
        bucket = oracle5.fullerene_codes()[5]
        if request.param == "trunc":
            m, regime = oracle5.entries[bucket[0]].map, Regime.SEVEN
        else:
            m, regime = build_D5k(1), Regime.A_OPS
        trace = reduce_to_dodecahedron(m, regime)
        assert trace.steps[-1].site[0] == request.param
        pred = canonical(build_dodecahedron())
        for step in trace.steps[:-1]:
            pred = replay_step(pred, step)
        return pred, trace.steps[-1], [c for c in bucket if c != trace.steps[-1].code]

    def test_recorded_code_replays(self, last_step):
        pred, step, _ = last_step
        out = replay_step(pred, step)
        assert out.canonical_code() == step.code
        fresh = PlanarMap(out._twin)
        for refl in (True, False):
            assert out._canonical(refl)[:2] == fresh._canonical(refl)[:2]
            assert out.automorphisms(refl) == fresh.automorphisms(refl)

    @staticmethod
    def _bad(last_step):
        pred, step, others = last_step
        true = step.code
        nv, syms = true[0], list(true[1:])
        out = replay_step(pred, step)
        above = min(c for c in (_walk_code(out, d) for d in range(out.num_darts)) if c > true)
        return {
            "another map's code": others[0],
            "a code below the true one": bytes([nv] + syms[:-1] + [syms[-1] - 1]),
            "the 2-byte form": b"\0" + b"".join(x.to_bytes(2, "big") for x in [nv] + syms),
            "a walk of the same map above its code": above,
            "the code less its last byte": true[:-1],
            "the empty code": b"",
            "a zero byte": b"\0",
            "two zero bytes": b"\0\0",
        }

    def test_edge_cut_from_the_other_face_is_rejected(self, dodeca):
        """Straightening a T155 image's new edge from the pentagon beside it
        also gives back the dodecahedron, with an s = 2 site that truncates to
        the same image; it is no T155 site, so replay rejects it."""
        cut = truncate(dodeca, enumerate_sites(dodeca, s=1, m1=5, m2=5)[0])
        code = cut.map.canonical_code()
        for dart, s in ((cut.new_edge.dart, 1), (cut.map.twin(cut.new_edge.dart), 2)):
            back = straighten(cut.map, EdgeRef(dart))
            pred, csite, _, _ = _canonical_site(back.map, back.inverse_site)
            assert csite[0] == s
            step = GrowthStep(GrowthOpKind.T155, ("trunc", (csite,)), code)
            if s == 1:
                assert replay_step(pred, step).canonical_code() == code
            else:
                with pytest.raises(SiteMismatchError, match="does not match T155"):
                    replay_step(pred, step)

    @pytest.mark.parametrize("which", [
        "another map's code", "a code below the true one", "the 2-byte form",
        "a walk of the same map above its code", "the code less its last byte",
        "the empty code", "a zero byte", "two zero bytes",
    ])
    def test_wrong_code_fails_the_step(self, last_step, which):
        pred, step, _ = last_step
        bad = dataclasses.replace(step, code=self._bad(last_step)[which])
        with pytest.raises(MapError, match="did not reproduce the recorded code"):
            replay_step(pred, bad)

    @pytest.mark.parametrize("regime, step, error, match", [
        (Regime.A_OPS, (GrowthOpKind.A1, ("cap", "D5", 5), 6), SiteMismatchError, r"not D5\(5\)"),
        (Regime.SEVEN, (GrowthOpKind.T155, ("cap", "D5", 0), 1), SiteMismatchError, "is A1, not T155"),
        (Regime.A_OPS, (GrowthOpKind.A1, ("trunc", ()), 0), SiteMismatchError, "A1 is no truncation chain"),
        (Regime.A_OPS, (GrowthOpKind.A1, ("cap", "D6", 0), 1), SiteMismatchError, "no nanotube family"),
        (Regime.SEVEN, (GrowthOpKind.A1, ("cap", "D5", 0), 1), IllegalTransitionError, "not in regime seven"),
        (Regime.SEVEN, (GrowthOpKind.T155, ("trunc", (TruncationSite(1, 0),) * 2), 0), SiteMismatchError,
         "the chain needs 1 sub-sites, not 2"),
        (Regime.SEVEN, (GrowthOpKind.T155, ("trunc", (TruncationSite(1, 60),)), 0), SiteMismatchError,
         "sub-site 0 names no dart"),
        (Regime.SEVEN, None, MapError, "does not start at the dodecahedron"),
    ], ids=[
        "a jump of five layers", "a cap step of a truncation kind", "an empty chain",
        "an unknown family", "a step outside the regime", "two sub-sites for one cut",
        "a sub-site dart out of range", "a start that is not the dodecahedron",
    ])
    def test_forged_trace_fails(self, regime, step, error, match):
        """Each forged step records the code its site yields, D5(k) for the
        last entry of ``step``, so only the step's own checks reject it.
        Without a step, the trace starts at D5(1) and has no steps."""
        if step is None:
            trace = DerivationTrace(regime, build_D5k(1).canonical_code(), ())
        else:
            kind, site, k = step
            trace = DerivationTrace(regime, build_dodecahedron().canonical_code(),
                                    (GrowthStep(kind, site, build_D5k(k).canonical_code()),))
        with pytest.raises(error, match=match):
            replay_trace(trace)

    def test_a_forged_cap_step_builds_nothing(self, monkeypatch, dodeca):
        """A cap step on the dodecahedron that claims D5(10**9) is refused
        from the predecessor's size: no family builder is called."""
        from fforge import growth

        recognize_nanotube(dodeca)  # the family codes of C20, computed before the spy

        def spy(k):
            raise AssertionError(f"a family builder was asked for {k} layers")

        for fam, row in list(growth._CAPS.items()):
            monkeypatch.setitem(growth._CAPS, fam, row[:1] + (spy,) + row[2:])
        text = "\n".join(json.dumps(r) for r in (
            {"regime": "a", "start": dodeca.canonical_code().hex()},
            {"kind": "A1", "site": {"type": "cap", "family": "D5", "k": 10**9}, "code": "14"},
        ))
        with pytest.raises(SiteMismatchError, match=r"the predecessor is not D5\(1000000000\)"):
            replay_trace(DerivationTrace.from_jsonl(text))

    def test_a_cap_step_on_a_non_fullerene_fails(self, dodeca):
        quad = canonical(truncate(dodeca, enumerate_sites(dodeca, s=1, m1=5, m2=5)[0]).map)
        with pytest.raises(SiteMismatchError, match=r"the predecessor is not F3\(0\)"):
            replay_step(quad, GrowthStep(GrowthOpKind.A2, ("cap", "F3", 0), b"\x14"))


def test_canonical_site_cuts_the_straightened_map_back(rewrite_maps):
    """Every straightening's inverse site, carried into the canonical form
    by ``_canonical_site``, truncates the form back to the map that was
    straightened; over a thousand of these forms are reflected, where the
    site's anchor is replaced by its mirror."""
    reflected_forms = 0
    for m in rewrite_maps:
        code = m.canonical_code()
        for d in range(m.num_darts):
            try:
                res = straighten(m, EdgeRef(d))
            except MapError:
                continue
            pred, csite, _, reflected = _canonical_site(res.map, res.inverse_site)
            assert truncate(pred, csite).map.reads_code(code)
            reflected_forms += reflected
    assert reflected_forms > 1000


# sha256 of the JSONL traces that reduce C60 and the three fullerenes with
# five hexagons, per regime.  Any change to a derivation trace fails here.
PINNED_REDUCE_TRACES = {
    Regime.SEVEN: "63dce0956b50669087d01ffdb4d8225f38f2ae2a2d0518ba577c8a9e240cdbf1",
    Regime.A_OPS: "1430800f25d5abfc5ccdae63ad526d011b65d47aed9337412c3e9243df129ad1",
    Regime.AB_OPS: "f7ad53ae000eedb341d6f6e0a0d6cff83a2041162649b71a79f3f884086bab12",
}


@pytest.mark.parametrize("regime", list(Regime))
def test_reduce_traces_are_pinned(regime, c60, gen_seven):
    maps = [c60] + [gen_seven.entries[c].map for c in gen_seven.fullerene_codes()[5]]
    text = "".join(reduce_to_dodecahedron(m, regime).to_jsonl() for m in maps)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REDUCE_TRACES[regime]


# sha256 of the JSONL traces that reduce the seven-closure fullerenes to
# p6 = 8 and the leapfrogs of those with at most 15 faces (38 maps), per regime
PINNED_CORPUS_TRACES = {
    Regime.SEVEN: "18cf15868e4ce3edd25503e58ae56acfcddf219f383b9b3a803f62bad5158aaf",
    Regime.A_OPS: "324036b5ea5eb8e2ba3d20c25aacd45302b33f44fc84782aa5c5b6563aa3d7fc",
    Regime.AB_OPS: "7442374a3bde2d6b0e56ea6fe748f984789f6e5f3be77a785fe58cf0c9ece8d8",
}


@pytest.fixture(scope="module")
def trace_corpus():
    fullerenes = enumerate_closure(EnumerationJob(Regime.SEVEN, 8)).sorted_fullerenes()
    return fullerenes + [helpers.leapfrog(m) for m in fullerenes if m.num_faces <= 15]


@pytest.fixture(scope="module")
def corpus_traces(trace_corpus):
    """The corpus's reduce traces in a regime, computed once per regime."""
    traces = {}

    def of(regime):
        if regime not in traces:
            traces[regime] = [reduce_to_dodecahedron(m, regime) for m in trace_corpus]
        return traces[regime]

    return of


@pytest.mark.parametrize("regime", list(Regime))
def test_corpus_traces_are_pinned(regime, trace_corpus, corpus_traces):
    assert len(trace_corpus) == 38
    text = "".join(t.to_jsonl() for t in corpus_traces(regime))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CORPUS_TRACES[regime]


@pytest.mark.parametrize("regime", list(Regime))
def test_corpus_traces_replay(regime, trace_corpus, corpus_traces):
    """replay_trace, the verifier of traces read from a file, accepts every
    trace the reduction returns, which checks its steps by walk tests."""
    for m, trace in zip(trace_corpus, corpus_traces(regime), strict=True):
        assert replay_trace(trace).canonical_code() == m.canonical_code()


@pytest.mark.parametrize("regime", list(Regime))
def test_every_recorded_sub_site_matches_its_truncation(regime, c60, corpus_traces):
    """Each sub-site of a reduce trace, read in the canonical labeling of the
    map it cuts, has the signature of its truncation in the kind's chain; a
    straightened edge oriented from the wrong face records another run."""
    traces = corpus_traces(regime) + [reduce_to_dodecahedron(c60, regime)]
    checked = 0
    for trace in traces:
        m = canonical(build_dodecahedron())
        for step in trace.steps:
            if step.site[0] == "trunc":
                cur = m
                for site, kind in zip(step.site[1], KIND_CHAINS[step.kind], strict=True):
                    cur = canonical(cur)
                    assert _site_matches(cur, site, kind), (step.kind, kind, site.s)
                    cur = truncate(cur, site).map
                    checked += 1
            m = replay_step(m, step)
    assert checked >= 200


class TestCarriedStart:
    """The reduction hands each truncation step's walk test the start from
    which the step's result reads its code, so the check is one walk."""

    @staticmethod
    def _spy(monkeypatch):
        """Each walk test, as (start, [whether each exact-mode walk read the code])."""
        tests = []
        real_reads, real_walk = PlanarMap.reads_code, PlanarMap._code_symbols

        def reads(self, code, include_reflection=True, start=None):
            tests.append((start, []))
            return real_reads(self, code, include_reflection, start)

        def walk(self, sigma, d0, best, exact=False):
            got = real_walk(self, sigma, d0, best, exact)
            if exact:
                tests[-1][1].append(got is not None)
            return got

        monkeypatch.setattr(PlanarMap, "reads_code", reads)
        monkeypatch.setattr(PlanarMap, "_code_symbols", walk)
        return tests

    @staticmethod
    def _walks_per_step(monkeypatch, maps, regime, which):
        """The walk tests of the reduction steps of type ``which``."""
        tests, out = TestCarriedStart._spy(monkeypatch), []
        for m in maps:
            tests.clear()
            trace = reduce_to_dodecahedron(m, regime)
            kinds = [step.site[0] for step in reversed(trace.steps)]
            assert len(tests) == len(kinds)
            out += [test for test, k in zip(tests, kinds) if k == which]
        return out

    @pytest.mark.parametrize("regime", list(Regime))
    def test_one_walk_per_truncation_step(self, regime, monkeypatch, trace_corpus, c60):
        """On the trace corpus and C60, every truncation step carries a start
        whose one walk reads the code."""
        tests = self._walks_per_step(monkeypatch, trace_corpus + [c60], regime, "trunc")
        assert tests and all(start is not None and walks == [True] for start, walks in tests)

    @pytest.mark.parametrize("regime", [Regime.A_OPS, Regime.AB_OPS])
    def test_one_walk_per_cap_step(self, regime, monkeypatch, trace_corpus):
        """Every cap step carries the winning start of the family map it
        builds, whose one walk reads the code; the tubes peel layer by layer."""
        maps = trace_corpus + [build_D5k(3), build_F3k(4)]
        tests = self._walks_per_step(monkeypatch, maps, regime, "cap")
        assert len(tests) >= 7 and all(start is not None and walks == [True] for start, walks in tests)

    def test_a_wrong_start_passes_through_the_scan(self, monkeypatch, oracle5):
        """A step whose start is forged to another dart fails its walk, and
        the scan then finds the code: the trace is unchanged."""
        from fforge import growth

        m = oracle5.entries[oracle5.fullerene_codes()[5][1]].map
        honest = reduce_to_dodecahedron(m, Regime.SEVEN).to_jsonl()
        real = growth.reduce_once

        def forged_once(cur, regime):
            pred, step = real(cur, regime)
            refl, d = step.start
            return pred, dataclasses.replace(step, start=(refl, (d + 1) % cur.num_darts))

        monkeypatch.setattr(growth, "reduce_once", forged_once)
        tests = self._spy(monkeypatch)
        assert reduce_to_dodecahedron(m, Regime.SEVEN).to_jsonl() == honest
        missed = [walks for _, walks in tests if not walks[0]]
        assert missed and all(walks[-1] and len(walks) > 1 for walks in missed)

    @pytest.mark.slow
    def test_every_fullerene_to_p6_12_reduces_in_every_regime(self, monkeypatch):
        """The constructive half of the theorem at a larger size: each of the
        226 fullerenes of the seven closure to p6 = 12 reduces in all three
        regimes, its trace replays to its code, and no step's check falls
        back to the scan."""
        fullerenes = enumerate_closure(EnumerationJob(Regime.SEVEN, 12)).sorted_fullerenes()
        assert len(fullerenes) == 226
        tests = self._spy(monkeypatch)
        for m in fullerenes:
            for regime in Regime:
                tests.clear()
                trace = reduce_to_dodecahedron(m, regime)
                carried = [walks for start, walks in tests if start is not None]
                assert len(carried) == len(trace.steps)
                assert all(walks == [True] for walks in carried)
                assert replay_trace(trace).canonical_code() == m.canonical_code()


# sha256 of each closure fixture's (code, parent, step) records in code order
PINNED_CLOSURE_STEPS = {
    Regime.SEVEN: "abfa2d6f215d522d7f4058a41bc0bdbc25b1eea444910811707d0eb1d3e77513",
    Regime.A_OPS: "1e91bf48c93e5d71b5cda390621ab757f2d3fe358cf9b7296282808663bef623",
    Regime.AB_OPS: "4756b836b89393de96900d4e1b4e3b4f6a093383bc19acd0123c3a08cb52e5ff",
}


@pytest.mark.parametrize("regime", list(Regime))
def test_closure_steps_are_pinned(regime, gen_seven, gen_a, gen_ab):
    gen = {Regime.SEVEN: gen_seven, Regime.A_OPS: gen_a, Regime.AB_OPS: gen_ab}[regime]
    text = "".join(
        json.dumps([code.hex(), e.parent and e.parent.hex(), e.step and e.step.to_json()]) + "\n"
        for code, e in sorted(gen.entries.items())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CLOSURE_STEPS[regime]


# sha256 of every kind's source and target class rows, in GrowthOpKind order
PINNED_OPERATION_CLASSES = "b49b3485d4079c03a6db6ed5906930ffe73b7ec20f4af660428f89fe7447c278"


def test_operation_classes_are_pinned():
    """The classes derived from the seven truncations' rows equal the table
    that listed every kind by hand, row for row and in the same order."""
    from fforge.growth import _SOURCE_CLASSES, _TARGET_CLASSES

    def rows(table):
        return [[k.name, [c.value for c in table[k]]] for k in GrowthOpKind if k in table]

    text = json.dumps({"source": rows(_SOURCE_CLASSES), "target": rows(_TARGET_CLASSES)})
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_OPERATION_CLASSES


class TestTraceSerialization:
    def test_jsonl_round_trip(self, oracle5):
        m = next(e.map for e in oracle5.entries.values() if e.p6 == 4)
        trace = reduce_to_dodecahedron(m, Regime.SEVEN)
        text = trace.to_jsonl()
        back = DerivationTrace.from_jsonl(text)
        assert back == trace
        assert replay_trace(back).canonical_code() == m.canonical_code()

    def test_closure_steps_round_trip(self, gen_seven, gen_a, gen_ab):
        """Every step the closure fixtures record reads back equal from its
        JSON, with its truncation sub-sites as ``TruncationSite``s on both
        sides; plain tuples would compare equal too."""
        types = set()
        for gen in (gen_seven, gen_a, gen_ab):
            for e in gen.entries.values():
                if e.step is None:
                    continue
                back = GrowthStep.from_json(e.step.to_json())
                assert back == e.step
                if back.site[0] == "trunc":
                    assert all(type(x) is TruncationSite for x in back.site[1] + e.step.site[1])
                types.add(back.site[0])
        assert types == {"trunc", "cap"}

    def test_edge_cut_counting(self, oracle5):
        m = next(e.map for e in oracle5.entries.values() if e.p6 == 5)
        trace = reduce_to_dodecahedron(m, Regime.SEVEN)
        edge_cuts = trace.edge_truncation_count()
        two_edge = sum(1 for st in trace.steps for s, _ in st.site[1] if s == 2)
        assert edge_cuts + two_edge == len(trace)

    _HEAD = {"regime": "a", "start": "14"}
    _TRUNC = {"kind": "A4", "site": {"type": "trunc", "steps": [[2, 7]]}, "code": "0a0b"}
    _CAP = {"kind": "A1", "site": {"type": "cap", "family": "D5", "k": 0}, "code": "0a0b"}

    @staticmethod
    def _with(record, path, value):
        """A copy of a JSON record with the field at ``path`` set to ``value``."""
        out = json.loads(json.dumps(record))
        inner = out
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        return out

    def test_a_well_formed_trace_reads(self):
        text = "\n".join(json.dumps(r) for r in (self._HEAD, self._TRUNC, self._CAP)) + "\n"
        trace = DerivationTrace.from_jsonl(text)
        assert trace.regime is Regime.A_OPS and trace.start_code == b"\x14"
        assert trace.steps == (
            GrowthStep(GrowthOpKind.A4, ("trunc", ((2, 7),)), b"\n\x0b"),
            GrowthStep(GrowthOpKind.A1, ("cap", "D5", 0), b"\n\x0b"),
        )
        assert trace.to_jsonl() == text

    @pytest.mark.parametrize("record, path, value, field", [
        ("step", ("kind",), "A9", "kind"),
        ("step", ("kind",), 4, "kind"),
        ("step", ("site", "type"), "loop", "type"),
        ("step", ("site", "type"), None, "type"),
        ("step", ("site",), [], "site"),
        ("step", ("site", "steps"), [["2", 7]], "steps"),
        ("step", ("site", "steps"), [[2, 7.0]], "steps"),
        ("step", ("site", "steps"), [[True, 7]], "steps"),
        ("step", ("site", "steps"), [[2, 7, 1]], "steps"),
        ("step", ("site", "steps"), [2, 7], "steps"),
        ("step", ("site", "steps"), "2,7", "steps"),
        ("cap", ("site", "k"), "0", "k"),
        ("cap", ("site", "k"), 0.5, "k"),
        ("cap", ("site", "family"), 5, "family"),
        ("step", ("code",), "0g", "code"),
        ("step", ("code",), 10, "code"),
        ("head", ("regime",), "abc", "regime"),
        ("head", ("start",), "x", "start"),
    ], ids=[
        "unknown kind", "kind not a name", "unknown site type", "null site type",
        "site not an object", "string s", "float dart", "bool s", "three-int sub-site",
        "sub-site not a list", "steps not a list", "string k", "float k", "int family",
        "non-hex code", "int code", "unknown regime", "non-hex start",
    ])
    def test_a_malformed_field_names_its_line_and_field(self, record, path, value, field):
        """The bad record is the last line, after a blank one; a cap step's
        fields are read from the line after a truncation step."""
        records = [self._HEAD, self._TRUNC, self._CAP]
        i = {"head": 0, "step": 1, "cap": 2}[record]
        records[i] = self._with(records[i], path, value)
        lines = [json.dumps(r) for r in records[:i]] + ["", json.dumps(records[i])]
        with pytest.raises(MapError, match=rf"^trace line {i + 2}: field '{field}'"):
            DerivationTrace.from_jsonl("\n".join(lines) + "\n")

    @pytest.mark.parametrize("text, message", [
        ("", "the trace is empty"),
        ("\n  \n", "the trace is empty"),
        ('{"regime": "a", "start": "14"}\n{"kind": ', "trace line 2: "),
        ("[1, 2]\n", "trace line 1: field 'regime'"),
        ('{"regime": "a", "start": "14"}\n"A4"\n', "trace line 2: field 'kind'"),
        ('{"regime": "a", "start": "14"}\n{"kind": "A4", "code": "0a"}\n', "trace line 2: field 'site'"),
    ], ids=["empty", "blank lines only", "cut-off JSON", "head not an object",
            "step not an object", "missing site"])
    def test_a_malformed_trace_raises_map_error(self, text, message):
        with pytest.raises(MapError, match=f"^{re.escape(message)}"):
            DerivationTrace.from_jsonl(text)
