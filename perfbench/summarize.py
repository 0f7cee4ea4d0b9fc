"""Summarize a set of benchmark runs from the records in ``perfbench/out/``.

Usage::

    python3 perfbench/summarize.py OUTPUT.json [RECORD.json ...]

Without record arguments every record in ``perfbench/out/`` is read.  For
each workload and end-to-end metric it gives the per-seed values, their
median and quartiles, and the spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles); for
``call_ms`` it adds p50 and p90 over the pooled call samples with their
count, ``raw_wall_s`` gives the per-run median pass time in seconds
beside ``wall_ref``, and ``raw_setup_s`` the per-run median set-up time in
seconds beside ``setup_s``.  Traced records contribute their per-layer metrics, and every
record's input digest and environment are kept.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        wl = out.setdefault(rec["workload"], {"runs": [], "end_to_end": {}, "per_layer": {}})
        wl["runs"].append({
            "seed": rec["seed"],
            "trace": rec["trace"],
            "seconds": rec["seconds"],
            "correct": rec["result"]["correct"],
            "attempted": rec["result"]["attempted"],
            "failed": rec["result"]["failed"],
            "digest": rec["inputs"].get("digest"),
            "environment": rec["environment"],
        })
        kind = "per_layer" if rec["trace"] else "end_to_end"
        for name, m in rec["result"]["metrics"].items():
            wl[kind].setdefault(name, []).append(m["value"])
        if not rec["trace"]:
            wl.setdefault("pooled_call_ms", []).extend(rec["call_samples_ms"])
            wl["end_to_end"].setdefault("raw_wall_s", []).append(statistics.median(rec["wall_samples_s"]))
            wl["end_to_end"].setdefault("raw_setup_s", []).append(statistics.median(rec["raw_setup_samples_s"]))
    for wl in out.values():
        for kind in ("end_to_end", "per_layer"):
            wl[kind] = {k: _spread(v) for k, v in wl[kind].items()}
        pooled = wl.pop("pooled_call_ms", [])
        if pooled:
            wl["pooled_call_ms"] = {
                "samples": len(pooled),
                "p50": statistics.median(pooled),
                "p90": statistics.quantiles(pooled, n=10, method="inclusive")[8],
            }
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(p) for p in argv[1:]] or sorted(p for p in OUT.glob("*.json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(summarize(records), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
