import enum
import functools
import gc
import hashlib
import json
import re
import types

import pytest

from fforge import (
    PlanarMap,
    Regime,
    build_dodecahedron,
    decode_planar_code,
    encode_planar_code,
    p_vector,
    read_planar_code,
    read_traces,
    reduce_to_dodecahedron,
    replay_trace,
    write_planar_code,
)
from fforge.engine import (
    BoundTooLargeError,
    EnumerationJob,
    GeneratedSet,
    _load_set,
    bucket_key,
    cross_check,
    enumerate_closure,
    main,
    oracle_generate,
    _windup,
)
from fforge import growth
from fforge.planar_map import DisconnectedError, MapError
from fforge.transform import TruncationResult

import helpers
from helpers import relabeled

# fullerene isomer counts C20..C60 (p6 = 0..20), mirror images identified:
# Fowler & Manolopoulos, "An Atlas of Fullerenes" (1995); OEIS A007894
A007894 = (1, 0, 1, 1, 2, 3, 6, 6, 15, 17, 40, 45, 89, 116, 199, 271, 437, 580, 924, 1205, 1812)

# reference stream holding the coordinate-built dodecahedron and the
# hexagonal-barrel C24, serialized by hand from the documented record layout
FIXTURE_PLC = (
    b">>planar_code<<\x14\n\t\x0b\x00\x0c\n\x0e\x00\r\x0b\x0f\x00\x0e\r\x12\x00"
    b"\x11\t\x10\x00\x10\x0c\x14\x00\x13\x0f\x11\x00\x14\x12\x13\x00\x0f\x01\x05"
    b"\x00\x10\x01\x02\x00\x0e\x01\x03\x00\x06\x02\x12\x00\x04\x03\x13\x00\x04"
    b"\x02\x0b\x00\x07\x03\t\x00\x06\x05\n\x00\x07\x05\x14\x00\x0c\x04\x08\x00"
    b"\r\x07\x08\x00\x11\x06\x08\x00\x18\x06\x02\x07\x00\x01\x03\x08\x00\x02\x04"
    b"\t\x00\x03\x05\n\x00\x04\x06\x0b\x00\x05\x01\x0c\x00\x01\r\x12\x00\r\x02"
    b"\x0e\x00\x0e\x03\x0f\x00\x0f\x04\x10\x00\x10\x05\x11\x00\x11\x06\x12\x00"
    b"\x07\x08\x13\x00\x08\t\x14\x00\t\n\x15\x00\n\x0b\x16\x00\x0b\x0c\x17\x00"
    b"\x0c\x07\x18\x00\r\x14\x18\x00\x13\x0e\x15\x00\x14\x0f\x16\x00\x15\x10\x17"
    b"\x00\x16\x11\x18\x00\x17\x12\x13\x00"
)

# a planar_code record that decodes but embeds K4 on the torus, so it is no
# valid sphere map
TORUS_K4 = bytes([4, 2, 3, 4, 0, 1, 3, 4, 0, 1, 2, 4, 0, 1, 3, 2, 0])


@functools.lru_cache(maxsize=None)
def _oriented_oracle(max_p6: int):
    return oracle_generate(max_p6, include_reflection=False)


class TestOracle:
    def test_frozen_counts(self, oracle5):
        assert oracle5.fullerene_counts() == [1, 0, 1, 1, 2, 3]

    def test_every_entry_is_a_fullerene(self, oracle5):
        for e in oracle5.entries.values():
            assert p_vector(e.map).is_fullerene()

    def test_smallest_and_missing_sizes(self):
        assert oracle_generate(0).fullerene_counts() == [1]
        assert oracle_generate(1).fullerene_counts() == [1, 0]

    def test_bound_guard(self):
        with pytest.raises(BoundTooLargeError):
            oracle_generate(31)

    def test_windup_determinism(self):
        sizes = [5] * 12
        a, b = _windup(sizes), _windup(sizes)
        assert a == b
        assert a.canonical_code() == build_dodecahedron().canonical_code()

    def test_windup_rejects_bad_sequences(self):
        assert _windup([5] * 11 + [6]) is None or not p_vector(_windup([5] * 11 + [6])).is_fullerene()

    def test_windup_never_returns_invalid_maps(self):
        import random

        rng = random.Random(5)
        # arbitrary garbage must fail cleanly, never crash
        for _ in range(200):
            nface = rng.randint(4, 16)
            sizes = [rng.choice([5, 6]) for _ in range(nface)]
            m = _windup(sizes)
            if m is not None:
                assert sorted(m.face_sizes) == sorted(sizes)
        # sphere-compatible pentagon placements sometimes close up
        produced = 0
        for _ in range(200):
            nface = rng.randint(12, 17)
            sizes = [6] * nface
            for i in rng.sample(range(nface), 12):
                sizes[i] = 5
            m = _windup(sizes)
            if m is not None:
                assert sorted(m.face_sizes) == sorted(sizes)
                produced += 1
        assert produced

    def test_windup_resumed_from_shared_prefix_equals_fresh_windup(self):
        """Through one prefix cache, every pentagon placement at p6 <= 5 and
        then seeded random spirals winds to the map a fresh windup gives,
        dart for dart, or to None exactly when the fresh windup jams."""
        import itertools
        import random

        prefix = []
        seen = {"closed": 0, "shorter": 0, "closed_after_jam": 0}

        def check(sizes):
            jam_cached = any(state is None for _, state in prefix)
            shorter = len(sizes) < len(prefix)
            fresh, resumed = _windup(sizes), _windup(sizes, prefix)
            assert (resumed is None) == (fresh is None), sizes
            if fresh is not None:
                assert resumed._twin == fresh._twin, sizes
                seen["closed"] += 1
                seen["closed_after_jam"] += jam_cached
            seen["shorter"] += shorter

        for p6 in range(6):
            for pent_positions in itertools.combinations(range(12 + p6), 12):
                check([5 if i in pent_positions else 6 for i in range(12 + p6)])
        assert seen["closed"] == 161
        # random spirals of 4-20 faces with sizes 3-8 and the face-size sum
        # of a cubic sphere map, half of them the one before with its tail
        # shuffled, so that they share a prefix with what the cache holds
        rng = random.Random(11)
        seen = dict.fromkeys(seen, 0)
        sizes = [5] * 12
        for _ in range(3000):
            if rng.random() < 0.5:
                sizes = [rng.choice((4, 5, 5, 6, 6, 7)) for _ in range(rng.randint(4, 20))]
                while (excess := sum(6 - s for s in sizes) - 12) != 0:
                    i = rng.randrange(len(sizes))
                    sizes[i] = min(8, max(3, sizes[i] + (1 if excess > 0 else -1)))
            else:
                cut = rng.randrange(len(sizes))
                sizes = sizes[:cut] + rng.sample(sizes[cut:], len(sizes) - cut)
            check(sizes)
        assert seen["closed"] > 100 and seen["shorter"] and seen["closed_after_jam"], seen


class TestEnumerate:
    def test_base_case(self):
        gen = enumerate_closure(EnumerationJob(Regime.SEVEN, 0))
        assert gen.fullerene_counts() == [1]

    def test_no_single_hexagon_fullerene(self):
        for regime in Regime:
            gen = enumerate_closure(EnumerationJob(regime, 1))
            assert gen.fullerene_counts() == [1, 0]

    def test_all_regimes_match_oracle(self, oracle5, gen_seven, gen_a, gen_ab):
        buckets = []
        for gen in (gen_seven, gen_a, gen_ab):
            assert cross_check(gen, oracle5).clean
            assert gen.fullerene_counts() == [1, 0, 1, 1, 2, 3]
            buckets.append(gen.fullerene_codes())
        assert buckets[0] == buckets[1] == buckets[2]

    def test_agreement_extends_past_the_gate(self):
        oracle6 = oracle_generate(6)
        assert oracle6.fullerene_counts() == [1, 0, 1, 1, 2, 3, 6]
        for regime in Regime:
            gen = enumerate_closure(EnumerationJob(regime, 6))
            assert cross_check(gen, oracle6).clean

    def test_worker_count_other_than_one_rejected(self):
        with pytest.raises(MapError):
            EnumerationJob(Regime.SEVEN, 1, worker_count=2)

    def test_negative_bound_rejected(self):
        with pytest.raises(MapError, match="max_p6 must be nonnegative"):
            EnumerationJob(Regime.SEVEN, -1)

    @pytest.mark.parametrize("regime", [Regime.A_OPS, Regime.AB_OPS])
    def test_an_oriented_closure_canonicalizes_without_reflection(self, regime, monkeypatch):
        """Every canonical form an oriented closure takes, the chains'
        intermediates included, keeps mirror images apart.  A closure that
        canonicalizes chain intermediates with mirror images identified
        still counts as the oracle does through p6 = 11, in every regime, so
        no count check below p6 = 12 can see that defect; this check can."""
        flags = []
        real = PlanarMap.canonical_form

        def spy(self, include_reflection=True):
            flags.append(include_reflection)
            return real(self, include_reflection)

        monkeypatch.setattr(PlanarMap, "canonical_form", spy)
        enumerate_closure(EnumerationJob(regime, 6, include_reflection=False))
        assert len(flags) > 40 and not any(flags)

    def test_exceptional_budgets(self, gen_seven):
        from fforge.structure import FamilyClass

        for e in gen_seven.entries.values():
            assert e.map.num_faces <= 12 + gen_seven.max_p6
            if e.cls is FamilyClass.F_MINUS1:
                assert e.p6 <= 6

    @pytest.mark.parametrize("regime", list(Regime))
    def test_closure_is_the_face_bounded_part_of_the_next(self, regime, gen_seven, gen_a, gen_ab):
        """Every operation adds faces, so the closure to N hexagons is the part
        of the closure to N + 1 with at most 12 + N faces, parents included."""
        bigger = {Regime.SEVEN: gen_seven, Regime.A_OPS: gen_a, Regime.AB_OPS: gen_ab}[regime]
        smaller = enumerate_closure(EnumerationJob(regime, bigger.max_p6 - 1, collect_traces=True))
        restricted = {c: e for c, e in bigger.entries.items() if e.map.num_faces <= 12 + smaller.max_p6}
        assert smaller.entries.keys() == restricted.keys()
        for code, e in smaller.entries.items():
            assert (e.parent, e.step) == (restricted[code].parent, restricted[code].step)

    @pytest.mark.parametrize("max_p6", [8, pytest.param(10, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("regime", list(Regime))
    def test_counts_match_a007894(self, regime, max_p6):
        gen = enumerate_closure(EnumerationJob(regime, max_p6))
        assert gen.complete
        assert gen.fullerene_counts() == list(A007894[: max_p6 + 1])

    @pytest.mark.slow
    @pytest.mark.parametrize("regime", list(Regime))
    def test_oracle_referees_every_regime_at_p6_10(self, oracle10, regime):
        assert oracle10.fullerene_counts() == list(A007894[:11])
        gen = enumerate_closure(EnumerationJob(regime, 10))
        assert gen.complete
        report = cross_check(gen, oracle10)
        assert report.clean, report.summary()

    def test_reflection_flag_splits_chiral_classes(self, oracle5):
        chiral = oracle_generate(5, include_reflection=False)
        assert len(chiral.entries) >= len(oracle5.entries)
        total_with = sum(oracle5.fullerene_counts())
        total_without = sum(chiral.fullerene_counts())
        assert total_without > total_with  # some fullerene here is chiral

    @pytest.mark.parametrize("regime, max_p6", [
        *[(regime, 6) for regime in Regime],
        *[pytest.param(regime, 8, marks=pytest.mark.slow) for regime in Regime],
        # the first p6 at which a chiral chain intermediate matters: a
        # closure that identifies it with its mirror misses one class
        pytest.param(Regime.AB_OPS, 12, marks=pytest.mark.slow),
    ])
    def test_closure_without_reflection_matches_the_oracle(self, regime, max_p6):
        oracle = _oriented_oracle(max_p6)
        gen = enumerate_closure(EnumerationJob(regime, max_p6, include_reflection=False))
        report = cross_check(gen, oracle)
        assert report.clean, report.summary()
        if max_p6 == 6:
            assert gen.fullerene_counts() == [1, 0, 1, 1, 3, 3, 10]  # chiral classes count twice

    def test_a_stored_code_is_never_added_again(self, gen_seven, monkeypatch):
        gen = GeneratedSet(gen_seven.max_p6)
        code, entry = next(iter(gen_seven.entries.items()))
        assert gen.add(entry.map).code == code
        assert gen.add(relabeled(helpers.mirrored(entry.map), 3)) is None
        # a walk test that misses the isomorph leaves the stored code to the
        # canonical search, which must not add it again
        monkeypatch.setattr(PlanarMap, "reads_code", lambda self, code, include_reflection=True: False)
        with pytest.raises(MapError, match="already stored"):
            gen.add(relabeled(entry.map, 4))

    def test_every_entry_is_validated(self, monkeypatch):
        """The closure rejects a successor that is no valid map.  The broken
        truncation adds a second component, K3,3 embedded in the torus with
        three hexagons, so the p-vector still sums to a sphere's and the map
        is classified into the regime."""
        real = growth.truncate

        def broken(m, site):
            res = real(m, site)
            n = res.map.num_darts
            # vertex i < 3 lists 3, 4, 5 and vertex 3 + j lists 0, 1, 2
            torus = [n + 3 * (3 + j) + i for i in range(3) for j in range(3)]
            torus += [n + 3 * i + j for j in range(3) for i in range(3)]
            broken = PlanarMap(res.map._twin + tuple(torus), _validated=True)
            return TruncationResult(broken, res.new_edge)

        monkeypatch.setattr(growth, "truncate", broken)
        with pytest.raises(DisconnectedError):
            enumerate_closure(EnumerationJob(Regime.SEVEN, 1))


def _reachable_maps(root) -> int:
    """How many ``PlanarMap`` objects ``root`` reaches by references,
    not following types, modules, functions or enum members."""
    seen, stack, maps = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType, enum.Enum)):
            continue
        seen.add(id(obj))
        maps += isinstance(obj, PlanarMap)
        stack.extend(gc.get_referents(obj))
    return maps


class TestStore:
    """A generated set stores each class as its canonical code only: no map,
    the buckets hold the stored code bytes themselves, and the bucket keys
    share their per-face tuples."""

    @staticmethod
    def _check(gen):
        assert gen.entries
        assert _reachable_maps(gen) == 0
        bucketed = [c for codes in gen._buckets.values() for c in codes]
        assert all(type(c) is bytes for c in bucketed)
        assert sorted(bucketed) == sorted(gen.entries)
        assert sorted(gen._buckets) == sorted({bucket_key(gen.entries[c].map) for c in bucketed})
        face_tuples = {id(t) for key in gen._buckets for t in key}
        assert face_tuples == {id(t) for t in gen._face_tuples.values()}
        assert len(face_tuples) < sum(len(key) for key in gen._buckets)

    @pytest.mark.parametrize("include_reflection", [True, False])
    @pytest.mark.parametrize("regime", list(Regime))
    def test_closure(self, regime, include_reflection):
        self._check(enumerate_closure(EnumerationJob(
            regime, 5, collect_traces=include_reflection, include_reflection=include_reflection,
        )))

    def test_oracle(self, oracle5):
        self._check(oracle5)

    def test_load_set(self, oracle5, tmp_path):
        path = tmp_path / "o5.plc"
        write_planar_code(path, oracle5.sorted_fullerenes())
        gen, others = _load_set(path)
        assert others == 0 and len(gen.entries) == len(oracle5.entries)
        self._check(gen)


def _entries_text(gen) -> str:
    """One JSON line per entry in code order: code, parent, step, canonical
    twin, class and p6."""
    return "".join(
        json.dumps([
            code.hex(), e.parent and e.parent.hex(), e.step and e.step.to_json(),
            list(e.map._twin), e.cls.value, e.p6,
        ]) + "\n"
        for code, e in sorted(gen.entries.items())
    )


# sha256 of _entries_text of the oracle to p6 = 7, per reflection flag
PINNED_ORACLE_ENTRIES = {
    True: "4b96a3a807855f7354ffa28e67f22745ff860a4151c88064460fa84e7dd77e8c",
    False: "c1a6e78d5c84aa90c07b323e0d940ca3a4da17b5c89d395943016aca1ca79162",
}


@pytest.mark.parametrize("include_reflection", [True, False])
def test_oracle_entries_are_pinned(include_reflection):
    gen = oracle_generate(7, include_reflection=include_reflection)
    assert hashlib.sha256(_entries_text(gen).encode()).hexdigest() == PINNED_ORACLE_ENTRIES[include_reflection]


# sha256 of _entries_text of each regime's closure to p6 = 7 without reflection
PINNED_ORIENTED_CLOSURE_ENTRIES = {
    Regime.SEVEN: "6898242af73a05afa7b4f647dec70a709d05a83942f93080a1a2cfde847a0e6d",
    Regime.A_OPS: "63f5d5d2700cdfc6d5ef54d4a7e37eeb3176b42e440103009d077b2a3e9cbe18",
    Regime.AB_OPS: "0de557b8241c1c072d843601c7dc9856fdc46f17c1d87d65a671935edbe3a218",
}


@pytest.mark.parametrize("regime", list(Regime))
def test_closure_entries_without_reflection_are_pinned(regime):
    gen = enumerate_closure(EnumerationJob(regime, 7, include_reflection=False))
    assert hashlib.sha256(_entries_text(gen).encode()).hexdigest() == PINNED_ORIENTED_CLOSURE_ENTRIES[regime]


class TestCrossCheck:
    def test_self_diff_empty(self, oracle5):
        assert cross_check(oracle5, oracle5).clean

    def test_detects_single_missing_record(self, oracle5):
        import copy

        trimmed = copy.copy(oracle5)
        trimmed.entries = dict(oracle5.entries)
        victim = next(c for c, e in trimmed.entries.items() if e.p6 == 5)
        del trimmed.entries[victim]
        report = cross_check(oracle5, trimmed)
        assert not report.clean
        assert sum(len(v) for v in report.only_a.values()) == 1
        assert not report.only_b

    def test_bound_mismatch_rejected(self, oracle5):
        with pytest.raises(MapError):
            cross_check(oracle5, oracle_generate(2))


class TestInterop:
    def test_fixture_decodes_and_matches_oracle(self, oracle5):
        maps = decode_planar_code(FIXTURE_PLC)
        assert [m.num_vertices for m in maps] == [20, 24]
        codes = {m.canonical_code() for m in maps}
        dodeca_code = build_dodecahedron().canonical_code()
        assert dodeca_code in codes
        c24_bucket = oracle5.fullerene_codes()[2]
        assert len(c24_bucket) == 1
        assert c24_bucket[0] in codes

    def test_fixture_matches_independent_constructions(self):
        maps = decode_planar_code(FIXTURE_PLC)
        assert maps[1].canonical_code() == helpers.barrel_c24().canonical_code()

    def test_emitted_stream_reimports_identically(self, oracle5, tmp_path):
        maps = oracle5.sorted_fullerenes()
        path = tmp_path / "all.plc"
        path.write_bytes(encode_planar_code(maps))
        back = read_planar_code(path)
        assert sorted(m.canonical_code() for m in back) == sorted(
            m.canonical_code() for m in maps
        )


class TestTraceFiles:
    """``read_traces`` reads back every trace of the files the CLI writes."""

    @staticmethod
    def _check(maps_path, traces_path):
        maps = read_planar_code(maps_path)
        traces = read_traces(traces_path)
        assert len(traces) == len(maps) > 1
        for m, trace in zip(maps, traces, strict=True):
            assert replay_trace(trace).canonical_code() == m.canonical_code()

    @pytest.mark.parametrize("regime", [r.value for r in Regime])
    def test_gen_traces(self, tmp_path, regime):
        out, traces = tmp_path / "gen.plc", tmp_path / "gen.jsonl"
        assert main(["gen", "--regime", regime, "--max-hexagons", "5",
                     "--out", str(out), "--traces", str(traces)]) == 0
        self._check(out, traces)

    @pytest.mark.parametrize("regime", [r.value for r in Regime])
    def test_reduce_traces(self, tmp_path, regime):
        src, traces = tmp_path / "oracle.plc", tmp_path / "reduce.jsonl"
        assert main(["oracle", "--max-hexagons", "5", "--out", str(src)]) == 0
        assert main(["reduce", str(src), "--regime", regime, "--traces", str(traces)]) == 0
        self._check(src, traces)

    def test_a_malformed_record_names_its_line_in_the_file(self, tmp_path, oracle5):
        first, second = [reduce_to_dodecahedron(e.map, Regime.SEVEN)
                         for e in oracle5.entries.values() if e.p6 == 5][:2]
        lines = (first.to_jsonl() + "\n" + second.to_jsonl()).splitlines()
        # the first trace's header and steps, a blank line, the second header
        bad = len(first) + 4
        record = json.loads(lines[bad - 1])
        assert "kind" in record
        lines[bad - 1] = json.dumps({**record, "kind": "A9"})
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MapError, match=rf"^trace line {bad}: field 'kind'"):
            read_traces(path)

    @pytest.mark.parametrize("before, line", [(b"", 1), (b"{}\n", 2), (b"{}\r\n\n", 3), (b"{} ", 1)],
                             ids=["first line", "second line", "CRLF", "mid-line"])
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, before, line):
        path = tmp_path / "t.jsonl"
        path.write_bytes(before + b"\xff\xfe\n{}\n")
        with pytest.raises(MapError, match=rf"^trace line {line}: not UTF-8 text in {re.escape(str(path))}$"):
            read_traces(path)

    def test_an_empty_file_holds_no_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n")
        assert read_traces(path) == []


class TestCli:
    def test_gen_oracle_diff_round_trip(self, tmp_path, capsys):
        gen_path = tmp_path / "gen.plc"
        oracle_path = tmp_path / "oracle.plc"
        assert main(["gen", "--regime", "seven", "--max-hexagons", "3",
                     "--out", str(gen_path)]) == 0
        assert main(["oracle", "--max-hexagons", "3", "--out", str(oracle_path)]) == 0
        assert main(["diff", str(gen_path), str(oracle_path)]) == 0
        out = capsys.readouterr().out
        assert "agree" in out

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.plc", tmp_path / "b.plc"
        main(["gen", "--regime", "a", "--max-hexagons", "3", "--out", str(a)])
        main(["gen", "--regime", "a", "--max-hexagons", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_gen_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("fforge.engine.successor_candidates", interrupt)
        out, traces = tmp_path / "f.plc", tmp_path / "t.jsonl"
        assert main(["gen", "--regime", "seven", "--max-hexagons", "3",
                     "--out", str(out), "--traces", str(traces)]) == 1
        assert not out.exists() and not traces.exists()
        assert "interrupted" in capsys.readouterr().err

    def test_negative_oracle_bound_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "o.plc"
        assert main(["oracle", "--max-hexagons", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_diff_detects_difference(self, tmp_path):
        a, b = tmp_path / "a.plc", tmp_path / "b.plc"
        main(["oracle", "--max-hexagons", "3", "--out", str(a)])
        main(["oracle", "--max-hexagons", "2", "--out", str(b)])
        assert main(["diff", str(a), str(b)]) == 1

    def test_reduce_and_validate(self, tmp_path, capsys):
        src = tmp_path / "f.plc"
        traces = tmp_path / "t.jsonl"
        main(["oracle", "--max-hexagons", "2", "--out", str(src)])
        assert main(["reduce", str(src), "--regime", "ab", "--traces", str(traces)]) == 0
        assert traces.read_text().strip()
        assert main(["validate", str(src)]) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("{")]
        assert all(rec["polytopal"] for rec in lines if "polytopal" in rec)

    def test_validate_reports_the_automorphism_group_order(self, tmp_path, capsys):
        """The order of the group with reflections: 120 for the icosahedral
        C20 and C60, 20 for D5(1), whose group is D5h."""
        from fforge import build_D5k, build_dodecahedron, write_planar_code

        src = tmp_path / "m.plc"
        write_planar_code(src, [build_dodecahedron(), build_D5k(1), helpers.ipr_c60()])
        assert main(["validate", str(src)]) == 0
        records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert [rec["automorphisms"] for rec in records] == [120, 20, 120]

    def test_classify_belts_nanotube(self, tmp_path, capsys):
        src = tmp_path / "d5.plc"
        from fforge import build_D5k, write_planar_code

        write_planar_code(src, [build_D5k(2)])
        assert main(["classify", str(src)]) == 0
        assert main(["belts", str(src), "--k", "5"]) == 0
        assert main(["nanotube", str(src)]) == 0
        out = capsys.readouterr().out
        assert '"census": [12, 2]' in out
        assert '["D5", 2]' in out

    def test_nanotube_reports_each_record(self, tmp_path, capsys):
        src = tmp_path / "mixed.plc"
        from fforge import write_planar_code

        write_planar_code(src, [build_dodecahedron(), helpers.cube_map(), helpers.ipr_c60()])
        assert main(["nanotube", str(src)]) == 1
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert [rec["index"] for rec in lines] == [0, 1, 2]
        assert lines[0]["nanotube"] == [["D5", 0], ["F3", 0]]
        assert "fullerene" in lines[1]["error"]
        assert lines[2]["nanotube"] == []

    def test_classify_and_belts_report_each_record(self, tmp_path, capsys):
        src = tmp_path / "mixed.plc"
        from fforge import write_planar_code

        write_planar_code(src, [build_dodecahedron(), helpers.cube_map(), helpers.ipr_c60(),
                                helpers.bridged_cubic()])

        def records():
            return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]

        assert main(["classify", str(src)]) == 1
        lines = records()
        assert [rec["index"] for rec in lines] == [0, 1, 2, 3]
        assert [rec.get("class") for rec in lines[:3]] == ["F", "other", "F-IPR"]
        assert "polytopal" in lines[3]["error"]
        assert main(["belts", str(src)]) == 0
        assert [rec["count"] for rec in records()] == [12, 0, 12, 0]
        assert main(["belts", str(src), "--k", "2"]) == 1
        lines = records()
        assert [rec["index"] for rec in lines] == [0, 1, 2, 3]
        assert all("k >= 3" in rec["error"] for rec in lines)

    def test_diff_says_what_it_ignores(self, tmp_path, capsys):
        a, b = tmp_path / "a.plc", tmp_path / "b.plc"
        from fforge import write_planar_code

        write_planar_code(a, [build_dodecahedron(), helpers.cube_map(), helpers.bridged_cubic()])
        write_planar_code(b, [build_dodecahedron()])
        assert main(["diff", str(a), str(b)]) == 0
        out, err = capsys.readouterr()
        assert out == "fullerene buckets agree\n"
        assert err.splitlines() == [f"{a}: ignored 2 records that are not fullerenes"]

    def test_diff_keeps_one_entry_per_class(self, tmp_path, capsys):
        from fforge import write_planar_code

        c24 = helpers.barrel_c24()
        a, b = tmp_path / "a.plc", tmp_path / "b.plc"
        write_planar_code(a, [c24, build_dodecahedron(), relabeled(c24, 1), helpers.mirrored(c24)])
        write_planar_code(b, [build_dodecahedron(), c24])
        gen, others = _load_set(a)
        assert (sorted(gen.entries), others) == (sorted(_load_set(b)[0].entries), 0)
        assert main(["diff", str(a), str(b)]) == 0
        assert capsys.readouterr().out == "fullerene buckets agree\n"

    def test_diff_reports_an_invalid_record_and_goes_on(self, tmp_path, capsys):
        src, ref = tmp_path / "mixed.plc", tmp_path / "dodecahedron.plc"
        src.write_bytes(encode_planar_code([build_dodecahedron()]) + TORUS_K4)
        ref.write_bytes(encode_planar_code([build_dodecahedron()]))
        assert main(["diff", str(src), str(ref)]) == 0
        out, err = capsys.readouterr()
        assert out == "fullerene buckets agree\n"
        assert err.splitlines() == [f"{src}: record 1: V-E+F = 0, expected 2",
                                    f"{src}: ignored 1 records that are not fullerenes"]

    def test_diff_dumps_the_maps_found_in_one_file_only(self, tmp_path, capsys):
        gen_path, oracle_path = tmp_path / "gen.plc", tmp_path / "oracle.plc"
        main(["gen", "--regime", "seven", "--max-hexagons", "4", "--out", str(gen_path)])
        main(["oracle", "--max-hexagons", "2", "--out", str(oracle_path)])
        capsys.readouterr()
        expected = oracle_generate(4).fullerene_codes()
        for argv, side in (([gen_path, oracle_path], "A"), ([oracle_path, gen_path], "B")):
            assert main(["diff", *map(str, argv)]) == 1
            out, err = capsys.readouterr()
            assert out == "p6=3: 1 only in " + side + "; p6=4: 2 only in " + side + "\n"
            dumped = {}
            for line in err.splitlines():
                head, dump = line.split(": ")
                (m,) = decode_planar_code(bytes.fromhex(dump))
                dumped.setdefault(head, []).append(m.canonical_code())
            assert dumped == {f"only in {side} p6={p6}": expected[p6] for p6 in (3, 4)}

    @pytest.mark.parametrize("command", ["validate", "gen"])
    def test_file_errors_are_reported_without_a_traceback(self, tmp_path, capsys, command):
        missing = tmp_path / "no" / "such" / "x.plc"
        argv = {
            "validate": ["validate", str(missing)],
            "gen": ["gen", "--regime", "seven", "--max-hexagons", "1", "--out", str(missing)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["traces", "out"])
    def test_gen_writes_nothing_when_an_output_cannot_be_opened(self, tmp_path, capsys, bad):
        missing = tmp_path / "no" / "such" / "x"
        out = missing if bad == "out" else tmp_path / "ok.plc"
        traces = missing if bad == "traces" else tmp_path / "t.jsonl"
        assert main(["gen", "--regime", "seven", "--max-hexagons", "1",
                     "--out", str(out), "--traces", str(traces)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not traces.exists()

    @pytest.mark.parametrize("command", ["validate", "classify", "belts", "nanotube", "reduce"])
    def test_a_record_that_is_no_map_is_reported_per_record(self, tmp_path, capsys, command):
        """The middle record decodes but embeds K4 on the torus; the records
        before and after it are still reported."""
        from fforge import build_D5k

        src = tmp_path / "mixed.plc"
        src.write_bytes(encode_planar_code([build_dodecahedron()]) + TORUS_K4
                        + encode_planar_code([build_D5k(1)], with_header=False))
        traces = tmp_path / "t.jsonl"
        argv = [command, str(src)] + (["--regime", "a", "--traces", str(traces)]
                                      if command == "reduce" else [])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        if command == "reduce":
            assert [ln.split(":")[0] for ln in out.splitlines()] == ["map 0", "map 2"]
            assert err.startswith("map 1: reduction failed: ") and "V-E+F = 0" in err
            assert len(traces.read_text().split("\n\n")) == 3
        else:
            lines = [json.loads(ln) for ln in out.splitlines()]
            assert [rec["index"] for rec in lines] == [0, 1, 2]
            assert "error" not in lines[0] and "error" not in lines[2]
            assert lines[1]["error"] == "V-E+F = 0, expected 2"

    def test_validate_exits_1_on_a_map_that_is_not_polytopal(self, tmp_path, capsys):
        src = tmp_path / "m.plc"
        write_planar_code(src, [helpers.two_edge_connected_cubic()])
        assert main(["validate", str(src)]) == 1
        assert '"polytopal": false, "class": "n/a"' in capsys.readouterr().out

    def test_gen_refuses_traces_without_reflection(self, tmp_path, capsys):
        out, traces = tmp_path / "f.plc", tmp_path / "t.jsonl"
        assert main(["gen", "--regime", "seven", "--max-hexagons", "1", "--no-reflection",
                     "--out", str(out), "--traces", str(traces)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: traces are defined over the mirror-identifying equivalence")
        assert not out.exists() and not traces.exists()

    def test_python_dash_m_runs_the_cli(self, tmp_path, capsys):
        """``python -m fforge`` prints the usage, and for ``validate`` the
        same lines and exit status as ``main``."""
        import os
        import subprocess
        import sys

        import fforge

        src = os.path.dirname(os.path.dirname(fforge.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "fforge", *args],
                                  capture_output=True, text=True, env=env, timeout=60)

        res = run("--help")
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.startswith("usage: fforge")
        plc = tmp_path / "m.plc"
        write_planar_code(plc, [build_dodecahedron(), helpers.two_edge_connected_cubic()])
        status = main(["validate", str(plc)])
        want = capsys.readouterr()
        res = run("validate", str(plc))
        assert (res.returncode, res.stdout, res.stderr) == (status, want.out, want.err)
        assert status == 1 and len(res.stdout.splitlines()) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--regime", "bogus"])
        assert exc.value.code == 2
