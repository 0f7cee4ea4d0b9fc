"""fforge benchmark: one workload, end-to-end or traced metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gen-seven --seed 1 --seconds 28 --trace 0

Every measurement runs in fresh single-threaded child processes
(``worker.py``): set-up-only probes before and after the timed child time
set-up, and the timed child repeats the workload's timed pass until
``--seconds`` would be exceeded.  Each set-up time is divided by the mean of
two reference timings, one just before the process is spawned and one just
after it is ready, and scaled back to seconds (``REFERENCE_NOMINAL_S``).
Referees check every result outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to ``perfbench/out/``.
The exit code is nonzero when a check fails or the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gen-seven", "gen-ab", "reduce", "oracle")
# Set-up-only probes, half before and half after the timed process, so the
# set-up samples span the run instead of one moment of it.
SETUP_PROBES = 8
RUN_LIMIT_S = 175  # a run must end within 180 s; children are killed past this


def _child(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Run ``worker.py`` in a fresh interpreter.

    Returns the raw set-up seconds, the set-up in nominal seconds and the
    worker's report.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    ref = reference_seconds()
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - spawned, 1)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = rep["ready"] - spawned
    return raw, raw / ((ref + rep["ready_ref"]) / 2) * REFERENCE_NOMINAL_S, rep


def _environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fforge" / "__init__.py").is_file():
        print(f"fforge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = _environment()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    raw_setups, setups = [], []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            raw, nominal, _ = _child(base + ["--seconds", "0", "--setup-only"], deadline)
            raw_setups.append(raw)
            setups.append(nominal)

    probe_setup(SETUP_PROBES // 2)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    timed = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        timed += ["--spans-out", str(OUT / f"{stem}.spans.jsonl")]
    raw, nominal, rep = _child(timed, deadline)
    raw_setups.append(raw)
    setups.append(nominal)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    lat_ms = [x * 1000 for x in rep["latencies"]]
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in rep["layers"].items()}
    else:
        metrics = {
            "wall_ref": {"value": statistics.median(rep["relatives"]), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    failed = len(rep["failures"])
    result = {
        "correct": failed == 0,
        "attempted": rep["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": rep["info"],
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "wall_samples_s": rep["walls"],
        "wall_ref_samples": rep["relatives"],
        "call_samples_ms": lat_ms,
        "fail_share": failed / rep["attempted"],
        "failures": rep["failures"],
        "result": result,
    }
    if args.trace:
        record["traced_wall_samples_s"] = rep["traced_walls"]
        record["spans"] = rep["spans"]
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in rep["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
