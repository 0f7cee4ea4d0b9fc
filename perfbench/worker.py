"""One workload in a fresh single-threaded process.

Run by ``run.py``; prints one JSON object.  Every process reports when it
was ready and a reference timing taken just after; with ``--setup-only`` it
stops there, so the parent can time set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from referees import check_counts, check_trace
from tracer import NAME, PARENT, TRACED, Tracer, layer_name, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_fforge():
    """Import fforge from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fforge" / "__init__.py").is_file():
        raise SystemExit(f"fforge sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fforge

    if Path(fforge.__file__).resolve().parent != SRC / "fforge":
        raise SystemExit(f"imported fforge from {fforge.__file__}, not from {SRC}")
    return fforge


class Workload:
    """Inputs built in ``setup``; ``segments`` yields the pass as lists of
    (thunk, check) pairs, one pair per library call, where the check returns
    the referee's complaints about the call's result.  A reference timing
    separates consecutive segments."""

    def __init__(self, fforge, seed: int):
        self.ff = fforge
        self.seed = seed

    def setup(self) -> dict:
        return {}

    def segments(self):
        raise NotImplementedError


class GenWorkload(Workload):
    """``enumerate_closure`` as ``fforge gen`` runs it (one worker thread)."""

    regime_tag = ""
    max_p6 = 0

    def setup(self) -> dict:
        ff = self.ff
        self.job = ff.EnumerationJob(ff.Regime(self.regime_tag), self.max_p6, worker_count=1)
        return {"regime": self.regime_tag, "max_p6": self.max_p6}

    def segments(self):
        what = f"gen {self.regime_tag}"
        yield [(
            lambda: self.ff.enumerate_closure(self.job),
            lambda gen: check_counts(gen.fullerene_counts(), gen.complete, what),
        )]


class GenSeven(GenWorkload):
    regime_tag = "seven"
    max_p6 = 6


class GenAb(GenWorkload):
    regime_tag = "ab"
    max_p6 = 5


class Oracle(Workload):
    """``oracle_generate`` as ``fforge oracle`` runs it."""

    max_p6 = 5

    def setup(self) -> dict:
        return {"max_p6": self.max_p6}

    def segments(self):
        yield [(
            lambda: self.ff.oracle_generate(self.max_p6),
            lambda gen: check_counts(gen.fullerene_counts(), gen.complete, "oracle"),
        )]


class Reduce(Workload):
    """``reduce_to_dodecahedron`` per input map in each regime, as ``fforge reduce``."""

    regimes = ("seven", "a", "ab")

    def setup(self) -> dict:
        import inputs

        ff = self.ff
        self.start_code = ff.build_dodecahedron().canonical_code()
        start = ff.build_dodecahedron().canonical_form()[0]
        self.maps = inputs.build_reduce_inputs(self.seed, start)
        self.codes = [m.canonical_code() for m in self.maps]
        return {
            "maps": len(self.maps),
            "vertices": [m.num_vertices for m in self.maps],
            "digest": inputs.digest(self.maps),
        }

    def segments(self):
        reduce = self.ff.reduce_to_dodecahedron
        for m, code in zip(self.maps, self.codes):
            p6 = m.num_vertices // 2 - 10
            segment = []
            for tag in self.regimes:
                regime = self.ff.Regime(tag)
                what = f"reduce C{m.num_vertices} ({tag})"
                segment.append((
                    lambda m=m, regime=regime: reduce(m, regime),
                    lambda trace, tag=tag, p6=p6, code=code, what=what: check_trace(
                        trace, tag, p6, code, self.start_code, what
                    ),
                ))
            yield segment


WORKLOADS = {"gen-seven": GenSeven, "gen-ab": GenAb, "reduce": Reduce, "oracle": Oracle}


def reference_seconds() -> float:
    """Time a fixed pure-Python loop (tuples, dict updates, a sort).

    It shares no code with fforge.  Timed between the segments of a pass, it
    measures how fast this machine runs Python at that moment, so work
    expressed in units of it moves much less when a shared host slows down.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(150_000):
        t = (i, i * 7 % 1009, i ^ 0x55)
        table[t[1]] = table.get(t[1], 0) + t[2]
    sorted(table.items())
    return time.perf_counter() - t0


# Set-up is reported in seconds on a host where ``reference_seconds`` takes
# this long, so that it moves with fforge and not with the host's speed.
REFERENCE_NOMINAL_S = 0.05


def run_pass(workload: Workload, tracer=None):
    """All calls of one pass.

    Returns (seconds, seconds in reference units, per-call seconds, results,
    failures), one failure message per failed call.  Each segment's time is
    divided by the mean of the reference timings on either side of it; the
    reference timings and the referees stay outside the timed calls.
    """
    segments = list(workload.segments())
    calls = [call for segment in segments for call in segment]
    latencies, results, raised = [], [], []
    wall = relative = 0.0
    ref = reference_seconds()
    for segment in segments:
        seconds = 0.0
        for call, _ in segment:
            if tracer is not None:
                tracer.op += 1
            c0 = time.perf_counter()
            try:
                out = call()
                exc = None
            except Exception as err:  # a failed operation is counted, not fatal
                out, exc = None, err
            latencies.append(time.perf_counter() - c0)
            seconds += latencies[-1]
            results.append(out)
            raised.append(exc)
        next_ref = reference_seconds()
        wall += seconds
        relative += seconds / ((ref + next_ref) / 2)
        ref = next_ref
    failures = []
    for (_, check), out, exc in zip(calls, results, raised):
        errors = [f"{type(exc).__name__}: {exc}"] if exc is not None else check(out)
        if errors:
            failures.append("; ".join(errors))
    return wall, relative, latencies, results, failures


def layer_metrics(tracer, workload: Workload, traced_results: list, passes: int) -> dict:
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes."""
    spans = tracer.spans
    totals = layer_totals(spans)
    out = {}
    for mod, attr in TRACED:
        name = layer_name(mod, attr)
        agg = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = agg["calls"] / passes
        out[f"{name}.self_s"] = agg["self_s"] / passes
    for key in (
        "transform.enumerate_sites.sites",
        "transform.straighten.blocked",
        "structure.find_fragments.hits",
        "growth.successor_candidates.yielded",
    ):
        out[key] = tracer.counts[key] / passes

    def child_calls(name: str, parent: str) -> int:
        return sum(
            1 for s in spans
            if s[NAME] == name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent
        )

    candidates = out["growth.successor_candidates.yielded"]
    accepted = 0
    if isinstance(workload, GenWorkload):
        accepted = sum(len(gen.entries) - 1 for gen in traced_results) / passes
    out["engine.candidates"] = candidates
    out["engine.coded"] = child_calls("planar_map.canonical_code", "engine.enumerate_closure") / passes
    out["engine.accepted"] = accepted
    out["engine.accept_ratio"] = accepted / candidates if candidates else 0.0
    placements = tracer.counts["engine.oracle.placements"] / passes
    closed = tracer.counts["engine.oracle.closed"] / passes
    out["engine.oracle.placements"] = placements
    out["engine.oracle.closed"] = closed
    out["engine.oracle.close_ratio"] = closed / placements if placements else 0.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    fforge = _import_fforge()
    workload = WORKLOADS[args.workload](fforge, args.seed)
    info = workload.setup()
    ready = time.monotonic()
    ready_ref = reference_seconds()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_ref": ready_ref}))
        return 0

    walls, relatives, traced_walls, latencies, traced_results, failures = [], [], [], [], [], []
    attempted = 0
    tracer = None
    if args.trace:
        tracer = Tracer()
    t_start = time.perf_counter()
    while True:
        # an untraced pass, then with --trace 1 a traced pass of the same work
        # the pass's outputs are dropped here, so peak_rss_mb is one pass's
        # footprint whatever the number of passes
        wall, relative, lat, results, errors = run_pass(workload)
        del results
        walls.append(wall)
        relatives.append(relative)
        latencies += lat
        attempted += len(lat)
        failures += errors
        if tracer is not None:
            with tracer:
                wall, _, lat, results, errors = run_pass(workload, tracer)
            traced_walls.append(wall)
            traced_results += [r for r in results if r is not None]
            attempted += len(lat)
            failures += errors
        rounds = len(walls)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > args.seconds:
            break

    report = {
        "ready": ready,
        "ready_ref": ready_ref,
        "info": info,
        "walls": walls,
        "relatives": relatives,
        "latencies": latencies,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["traced_walls"] = traced_walls
        report["layers"] = layer_metrics(tracer, workload, traced_results, len(traced_walls))
        report["layers"]["trace.wall_s"] = statistics.median(traced_walls)
        report["layers"]["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        report["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
