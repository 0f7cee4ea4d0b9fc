"""Self-tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fforge  # noqa: E402
from fforge.growth import DerivationTrace, GrowthOpKind, GrowthStep, Regime  # noqa: E402
from fforge.transform import ThreeBeltObstructionError  # noqa: E402

import inputs  # noqa: E402
import referees  # noqa: E402
import worker  # noqa: E402
from tracer import TRACED, Tracer, layer_totals, self_times  # noqa: E402


def _start():
    return fforge.build_dodecahedron().canonical_form()[0]


class TestInputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        a = inputs.build_reduce_inputs(3, _start())
        b = inputs.build_reduce_inputs(3, _start())
        self.assertEqual(inputs.digest(a), inputs.digest(b))
        c = inputs.build_reduce_inputs(4, _start())
        self.assertNotEqual(inputs.digest(a), inputs.digest(c))

    def test_inputs_are_fullerenes_of_the_planned_sizes(self):
        maps = inputs.build_reduce_inputs(5, _start())
        sizes = [3 * (20 + 2 * p6) for p6 in inputs.LEAPFROG_BASES]
        sizes += [20 + 2 * p6 for p6 in inputs.WALK_TARGETS]
        self.assertEqual([m.num_vertices for m in maps], sizes)
        classes = [fforge.classify_shape(m) for m in maps]
        n_ipr = len(inputs.LEAPFROG_BASES)
        self.assertTrue(all(c is fforge.FamilyClass.F_IPR for c in classes[:n_ipr]))
        self.assertTrue(all(c.is_fullerene for c in classes))

    def test_leapfrog_of_dodecahedron_is_c60(self):
        c60 = inputs.leapfrog(_start())
        self.assertEqual(c60.num_vertices, 60)
        self.assertIs(fforge.classify_shape(c60), fforge.FamilyClass.F_IPR)


class TestSelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["root", 0.0, 10.0, -1, 1],
            ["a", 1.0, 4.0, 0, 1],
            ["b", 3.0, 6.0, 0, 1],  # overlaps a by one second
            ["c", 2.0, 3.0, 1, 1],  # grandchild: counted against a only
            ["d", 9.0, 12.0, 0, 1],  # runs past the parent's end
        ]
        self.assertEqual(self_times(spans), [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0])
        totals = layer_totals(spans + [["a", 20.0, 21.5, -1, 2]])
        self.assertEqual(totals["a"], {"calls": 2, "self_s": 2.0 + 1.5})


def _bindings():
    snap = {}
    for key, mod in sys.modules.items():
        if key == "fforge" or key.startswith("fforge."):
            snap[key] = dict(vars(mod))
    snap["PlanarMap"] = dict(vars(fforge.PlanarMap))
    return snap


class TestTracer(unittest.TestCase):
    def test_wrappers_restore_every_binding(self):
        before = _bindings()
        tracer = Tracer()
        with tracer:
            during = _bindings()
            fforge.enumerate_closure(fforge.EnumerationJob(Regime.SEVEN, 1))
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key in before:
            self.assertEqual(before[key].keys(), after[key].keys(), key)
            for attr, val in before[key].items():
                self.assertIs(after[key][attr], val, f"{key}.{attr}")
        # imported names were wrapped too, e.g. engine's classify_shape
        engine = sys.modules["fforge.engine"]
        self.assertIsNot(during["fforge.engine"]["classify_shape"], engine.classify_shape)
        names = {s[0] for s in tracer.spans}
        self.assertIn("engine.enumerate_closure", names)
        self.assertIn("structure.classify_shape", names)
        self.assertIn("planar_map.canonical_code", names)
        self.assertGreater(tracer.counts["growth.successor_candidates.yielded"], 0)
        self.assertEqual(len(TRACED), len({a for _, a in TRACED}))

    def test_windups_are_counted(self):
        tracer = Tracer()
        with tracer:
            fforge.oracle_generate(1)
        # C(12, 12) + C(13, 12) pentagon placements; C20 closes, C22 has no isomer
        self.assertEqual(tracer.counts["engine.oracle.placements"], 14)
        closed = tracer.counts["engine.oracle.closed"]
        coded = [
            s for s in tracer.spans
            if s[0] == "planar_map.canonical_code" and tracer.spans[s[3]][0] == "engine.oracle_generate"
        ]
        self.assertGreater(closed, 0)
        self.assertEqual(closed, len(coded))

    def test_three_belt_obstructions_are_counted(self):
        # triangular prism: the three quadrilaterals form a 3-belt, so the
        # three edges between two of them cannot be straightened
        prism = fforge.map_from_faces([(0, 1, 2), (5, 4, 3), (0, 3, 4, 1), (1, 4, 5, 2), (2, 5, 3, 0)])
        tracer = Tracer()
        blocked = 0
        with tracer:
            for d in prism.edges:
                try:
                    fforge.straighten(prism, fforge.EdgeRef(d))
                except ThreeBeltObstructionError:
                    blocked += 1
        self.assertEqual(blocked, 3)
        self.assertEqual(tracer.counts["transform.straighten.blocked"], 3)
        self.assertEqual(sum(1 for s in tracer.spans if s[0] == "transform.straighten"), 9)

    def test_spans_nest_and_close(self):
        m = fforge.build_D5k(1)
        tracer = Tracer()
        with tracer:
            fforge.reduce_to_dodecahedron(m, Regime.A_OPS)
        self.assertTrue(all(s[2] >= s[1] for s in tracer.spans))
        roots = [s for s in tracer.spans if s[3] < 0]
        self.assertEqual([s[0] for s in roots], ["growth.reduce_to_dodecahedron"])


class _TwoSegments:
    def segments(self):
        yield [(lambda: 1, lambda out: []), (lambda: 2, lambda out: [])]
        yield [(lambda: None, lambda out: ["wrong"])]


class TestRunPass(unittest.TestCase):
    def test_segments_are_divided_by_their_reference(self):
        refs = iter([1.0, 3.0, 5.0])
        saved = worker.reference_seconds
        worker.reference_seconds = lambda: next(refs)
        try:
            wall, relative, lat, results, failures = worker.run_pass(_TwoSegments())
        finally:
            worker.reference_seconds = saved
        self.assertEqual(results, [1, 2, None])
        self.assertEqual(failures, ["wrong"])
        self.assertAlmostEqual(wall, sum(lat))
        self.assertAlmostEqual(relative, (lat[0] + lat[1]) / 2.0 + lat[2] / 4.0)


class TestReferees(unittest.TestCase):
    def test_counts(self):
        good = list(referees.A007894[:6])
        self.assertEqual(referees.check_counts(good, True, "x"), [])
        bad = good[:]
        bad[5] += 1
        self.assertTrue(referees.check_counts(bad, True, "x"))
        self.assertTrue(referees.check_counts(good, False, "x"))

    def test_counts_of_a_real_closure(self):
        gen = fforge.enumerate_closure(fforge.EnumerationJob(Regime.SEVEN, 4))
        self.assertEqual(referees.check_counts(gen.fullerene_counts(), gen.complete, "x"), [])
        # drop one C28 isomer: the published count must catch it
        code = gen.fullerene_codes()[4][0]
        del gen.entries[code]
        self.assertTrue(referees.check_counts(gen.fullerene_counts(), gen.complete, "x"))

    def test_trace(self):
        m = fforge.build_D5k(1)
        code = m.canonical_code()
        start = fforge.build_dodecahedron().canonical_code()
        p6 = m.num_vertices // 2 - 10
        for regime in Regime:
            trace = fforge.reduce_to_dodecahedron(m, regime)
            self.assertEqual(referees.check_trace(trace, regime.value, p6, code, start, "x"), [])
        seven = fforge.reduce_to_dodecahedron(m, Regime.SEVEN)
        short = DerivationTrace(seven.regime, seven.start_code, seven.steps[1:])
        self.assertTrue(referees.check_trace(short, "seven", p6, code, start, "x"))
        wrong_end = seven.steps[:-1] + (GrowthStep(GrowthOpKind.T2655, seven.steps[-1].site, start),)
        broken = DerivationTrace(seven.regime, seven.start_code, wrong_end)
        self.assertTrue(referees.check_trace(broken, "seven", p6, code, start, "x"))


if __name__ == "__main__":
    unittest.main()
